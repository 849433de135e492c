"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/test_perfbench.py
"""

import pytest

import layertrace
import ops
import run
import workloads

ops.import_package()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_changes_no_artifact_byte(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    config = workloads.op_configs(workload, seed=0)[0]
    plain = ops.run_op(workload, config, tmp_path / "plain")
    tracer = layertrace.Tracer()
    traced = ops.run_op(workload, config, tmp_path / "traced", tracer)
    assert plain.digest and traced.digest == plain.digest
    assert tracer.missing == []
    assert {s[layertrace.NAME] for s in tracer.spans} >= {"op", "cli.execute"}


def test_uninstall_restores_every_binding():
    import noisewalk
    from noisewalk import estimators, measures, rng

    before = (rng.generator, measures.iter_convolution_levels,
              estimators.iter_convolution_levels, noisewalk.iter_convolution_levels,
              measures.ConvolutionLevel.mass_counts)
    tracer = layertrace.Tracer()
    tracer.install()
    assert estimators.iter_convolution_levels.__wrapped__ is before[2]
    assert noisewalk.iter_convolution_levels is estimators.iter_convolution_levels
    tracer.uninstall()
    assert (rng.generator, measures.iter_convolution_levels,
            estimators.iter_convolution_levels, noisewalk.iter_convolution_levels,
            measures.ConvolutionLevel.mass_counts) == before


def test_missing_target_is_reported_not_raised():
    tracer = layertrace.Tracer(targets=[
        ("rng.gone", "noisewalk.rng", "no_such_function", "call", None),
        ("boundary.gone", "noisewalk.boundary", "CylinderTree.no_such_method",
         "call", None),
        ("nowhere.gone", "noisewalk.no_such_module", "f", "call", None),
    ])
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["rng.gone", "boundary.gone", "nowhere.gone"]


def test_self_time_subtracts_children():
    spans = [
        ["cli.execute", 0.0, 10.0, -1, 0, None],
        ["walkers.final_lengths", 1.0, 6.0, 0, 0, 100],
        ["rng.generator", 2.0, 3.0, 1, 0, None],
        ["rng.sample_indices", 3.0, 5.0, 1, 0, 7],
        ["estimators.drift_mc", 6.0, 9.0, 0, 0, None],
        ["estimators.tv_exact", 7.0, 8.0, 4, 0, None],
    ]
    tot = layertrace.layer_totals(spans)
    assert tot["walkers.wall_s"] == 5.0
    assert tot["walkers.self_s"] == 2.0
    assert tot["walkers.trials"] == 100
    assert (tot["rng.streams"], tot["rng.stream_s"]) == (1, 1.0)
    assert (tot["rng.draws"], tot["rng.sample_s"]) == (7, 2.0)
    assert tot["estimators.wall_s"] == 3.0  # the nested tv_exact is inside it
    assert tot["estimators.self_s"] == 3.0
    assert tot["cli.self_s"] == 2.0


def test_each_op_is_divided_by_the_references_around_it(tmp_path):
    r = run.Run(workloads.WORKLOADS["entropy_exact"], tmp_path)
    r.log = [{"kind": "warmup", "seconds": 9.0},
             {"kind": "timed", "seconds": 2.0},
             {"kind": "timed", "seconds": 3.0}]
    assert run.op_refs(r, [1.0, 3.0, 1.0]) == [1.0, 1.5]
