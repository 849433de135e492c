"""Boundary sampling, cylinder counting, and dimension estimation."""

import hashlib
import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisewalk import rng as rngmod
from noisewalk.boundary import (
    BoundarySampleSet,
    CylinderTree,
    build_tree,
    dimension_singularity_check,
    local_dimension,
    sample_boundary,
)
from noisewalk.cli import execute, parse_config
from noisewalk.errors import InputError, ValidationError
from noisewalk.estimators import _mean_result
from noisewalk.measures import uniform_measure
from noisewalk.oracle import h_semigroup


def semi(m=2):
    return uniform_measure(m, inverse_free=True)


def srw(rank=2):
    return uniform_measure(rank)


def hand_built_samples():
    """Five fully stable rank-2 samples of depth 2 with known prefixes."""
    l1 = np.array(
        [[1, 1], [1, 1], [1, 2], [2, 1], [2, 1]], dtype=np.int8
    )
    l2 = np.array(
        [[1, 1], [1, 1], [1, 1], [2, 2], [2, 1]], dtype=np.int8
    )
    lens = np.full(5, 2, dtype=np.int64)
    return BoundarySampleSet(l1, l2, lens, lens, horizon=2, keep_depth=2,
                             rank=2, seed=0)


# ---------------------------------------------------------------------------
# sampling


def test_semigroup_prefixes_are_fully_stable():
    s = sample_boundary(semi(2), 0.5, horizon=40, trials=64, seed=12)
    assert len(s) == 64
    assert (s.t_stable == 40).all()
    # letters are positive generators only
    assert (s.letters1 >= 1).all() and (s.letters1 <= 2).all()


def test_group_prefixes_partially_stable():
    s = sample_boundary(srw(2), 0.5, horizon=60, trials=128, seed=12)
    frac_deep = float((s.usable_depth() >= 10).mean())
    assert frac_deep > 0.9  # the walk has positive drift, rays stabilize
    sample = s[0]
    assert sample.prefix1 == tuple(
        int(x) for x in s.letters1[0, : min(s.len1[0], s.keep_depth)]
    )


def test_sample_boundary_reproducible_and_worker_independent():
    a = sample_boundary(srw(2), 0.3, horizon=30, trials=50, seed=7)
    b = sample_boundary(srw(2), 0.3, horizon=30, trials=50, seed=7, workers=4)
    assert (a.letters1 == b.letters1).all()
    assert (a.letters2 == b.letters2).all()
    assert (a.t_stable == b.t_stable).all()


def test_sample_boundary_validation():
    with pytest.raises(InputError):
        sample_boundary(semi(2), 0.5, horizon=0, trials=10, seed=1)
    with pytest.raises(InputError):
        sample_boundary(semi(2), 0.5, horizon=10, trials=0, seed=1)


# ---------------------------------------------------------------------------
# cylinder tree


def check_tree(tree):
    """The tree's invariants: no empty node, the per-sample ids count the
    node sizes, and children never outweigh their parent."""
    for t in range(1, tree.depth + 1):
        lv = tree.level(t)
        assert (lv.sizes >= 1).all()
        counted = np.bincount(lv.ids[lv.ids >= 0], minlength=len(lv.keys))
        assert np.array_equal(counted, lv.sizes)
        if t >= 2:
            up = tree.level(t - 1)
            child_sum = np.bincount(lv.keys // tree.base, weights=lv.sizes,
                                    minlength=len(up.keys))
            assert (child_sum <= up.sizes).all()


def cylinder_counts(tree, t):
    """{(prefix1, prefix2): count} of the depth-t nodes, read off ``export_records``."""
    counts = {}
    for line in tree.export_records(t):
        p1, p2, count = line.split()
        w1 = tuple(int(x) for x in p1.split(","))
        if len(w1) == t:
            counts[w1, tuple(int(x) for x in p2.split(","))] = int(count)
    return counts


def test_tree_counts_on_hand_built_fixture():
    s = hand_built_samples()
    tree = build_tree(s, 2)
    check_tree(tree)
    assert tree.sample_count == 5
    assert tree.usable_count(1) == 5
    # depth 1: pairs (1,1) x3, (2,2) x2
    assert tree.node_count(1) == 2
    assert cylinder_counts(tree, 1) == {((1,), (1,)): 3, ((2,), (2,)): 2}
    # depth 2
    assert cylinder_counts(tree, 2) == {
        ((1, 1), (1, 1)): 2,
        ((1, 2), (1, 1)): 1,
        ((2, 1), (2, 2)): 1,
        ((2, 1), (2, 1)): 1,
    }


def test_tree_export_golden():
    s = hand_built_samples()
    tree = build_tree(s, 2)
    assert list(tree.export_records()) == [
        "1 1 3",
        "2 2 2",
        "1,1 1,1 2",
        "1,2 1,1 1",
        "2,1 2,1 1",
        "2,1 2,2 1",
    ]
    assert list(tree.export_records(max_depth=1)) == ["1 1 3", "2 2 2"]


def test_tree_prefix_roundtrip():
    s = sample_boundary(semi(2), 0.7, horizon=12, trials=200, seed=9)
    tree = build_tree(s, 6)
    check_tree(tree)
    for t in (1, 3, 6):
        # one exported line per node, holding the samples with its prefixes
        counts = cylinder_counts(tree, t)
        assert len(counts) == tree.node_count(t)
        assert counts == Counter((x.prefix1[:t], x.prefix2[:t]) for x in s)
        assert tree.usable_count(t) == 200


def test_tree_depth_validation():
    s = sample_boundary(semi(2), 0.5, horizon=10, trials=20, seed=3)
    with pytest.raises(ValidationError):
        build_tree(s, 11)  # deeper than kept prefixes
    tree = build_tree(s, 5)
    with pytest.raises(InputError):
        tree.node_count(6)
    with pytest.raises(InputError):
        list(tree.export_records(6))


# ---------------------------------------------------------------------------
# ball measure


def ball_count(tree, center, t):
    """Leave-one-out count of the depth-t ball, as ``local_dimension`` reads it."""
    lv = tree.level(t)
    return int(lv.sizes[lv.ids[center]]) - 1


def test_ball_measure_leave_one_out_matches_brute_force():
    s = sample_boundary(semi(2), 0.8, horizon=8, trials=300, seed=31)
    tree = build_tree(s, 4)
    prefixes = [(sample.prefix1[:4], sample.prefix2[:4]) for sample in s]
    for center in (0, 17, 299):
        p1, p2 = prefixes[center]
        for t in (1, 2, 4):
            brute = sum(
                1
                for j, (q1, q2) in enumerate(prefixes)
                if j != center and q1[:t] == p1[:t] and q2[:t] == p2[:t]
            )
            assert ball_count(tree, center, t) == brute


def test_ball_measure_nonincreasing_in_depth():
    s = sample_boundary(semi(2), 0.6, horizon=10, trials=400, seed=13)
    tree = build_tree(s, 8)
    for center in (0, 100, 399):
        vals = [ball_count(tree, center, t) for t in range(1, 9)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_cylinder_masses_partition_unity():
    s = sample_boundary(srw(2), 0.5, horizon=40, trials=500, seed=19)
    tree = build_tree(s, 6)
    for t in (1, 3, 6):
        usable = tree.usable_count(t)
        total = sum(cylinder_counts(tree, t).values())
        assert total == usable <= len(s)


def test_semigroup_cylinder_masses_match_exact_law():
    # each depth-t pair cylinder has exact mass p^k q^(t-k) with k the
    # number of agreeing positions; most empirical frequencies should
    # cover it at the per-cylinder 95% level
    from noisewalk.estimators import _wilson
    from noisewalk.oracle import coupling_weights

    rho, t, trials = 0.5, 3, 40_000
    s = sample_boundary(semi(2), rho, horizon=10, trials=trials, seed=23)
    tree = build_tree(s, t)
    p, q = coupling_weights(2, rho)
    covered = 0
    nodes = tree.node_count(t)
    counts = cylinder_counts(tree, t)
    assert len(counts) == nodes
    for (p1, p2), count in counts.items():
        k = sum(1 for a, b in zip(p1, p2) if a == b)
        exact = p**k * q ** (t - k)
        lo, hi = _wilson(count, trials)
        covered += lo <= exact <= hi
    assert covered >= 0.9 * nodes


def test_shannon_consistency_on_semigroup():
    # -(1/t) log of the exact mass of the sample's own prefix cylinder
    # concentrates at the entropy rate
    from noisewalk.oracle import coupling_weights

    rho, t = 0.5, 25
    s = sample_boundary(semi(2), rho, horizon=t, trials=5000, seed=29)
    p, q = coupling_weights(2, rho)
    vals = []
    for sample in s:
        k = sum(1 for a, b in zip(sample.prefix1, sample.prefix2) if a == b)
        vals.append(-(k * math.log(p) + (t - k) * math.log(q)) / t)
    mean = sum(vals) / len(vals)
    h = h_semigroup(2, rho)
    assert abs(mean - h) / h < 0.02


# ---------------------------------------------------------------------------
# local dimension


def test_local_dimension_independent_coupling():
    # at rho = 1 the boundary measure is the product measure and the
    # dimension is 2 log 2
    s = sample_boundary(semi(2), 1.0, horizon=60, trials=20_000, seed=41,
                        keep_depth=12)
    tree = build_tree(s, 12)
    r = local_dimension(s, tree, tuple(range(1, 13)), n_centers=150, seed=41)
    expect = 2 * math.log(2)
    assert abs(r.value - expect) / expect < 0.1
    assert r.method == "local-dimension"
    assert r.details["centers_used"] > 100


def test_local_dimension_validation():
    s = sample_boundary(semi(2), 0.5, horizon=8, trials=50, seed=2)
    tree = build_tree(s, 4)
    with pytest.raises(InputError):
        local_dimension(s, tree, (3,), 10, seed=2)  # single depth
    with pytest.raises(InputError):
        local_dimension(s, tree, (1, 9), 10, seed=2)  # beyond tree depth
    other = sample_boundary(semi(2), 0.5, horizon=8, trials=49, seed=2)
    with pytest.raises(ValidationError):
        local_dimension(other, tree, (1, 2), 10, seed=2)


def test_dimension_singularity_conclusive_and_not():
    mu = semi(2)
    kwargs = dict(horizon=80, trials=20_000, t_grid=tuple(range(1, 13)),
                  n_centers=150, seed=47)
    rep = dimension_singularity_check(mu, 0.2, 1.0, **kwargs)
    assert rep.conclusive
    assert rep.gap > 0
    assert rep.closed_form_a == h_semigroup(2, 0.2)
    assert rep.closed_form_b == h_semigroup(2, 1.0)
    # same noise level on both sides: identical estimates, no gap
    rep_same = dimension_singularity_check(mu, 0.6, 0.6, **kwargs)
    assert not rep_same.conclusive
    assert rep_same.gap == 0.0


# ---------------------------------------------------------------------------
# the vectorized export and dimension against per-node references


def _export_reference(tree, max_depth):
    """One line per node, its prefixes rebuilt by chasing parents up the levels."""

    def letter(code):
        return code + 1 if code < tree.rank else -(code - tree.rank + 1)

    lines = []
    for t in range(1, max_depth + 1):
        for nid in range(tree.node_count(t)):
            w1, w2, node = [], [], nid
            for depth in range(t, 0, -1):
                node, code = divmod(int(tree.level(depth).keys[node]), tree.base)
                w1.append(letter(code // tree.letter_base))
                w2.append(letter(code % tree.letter_base))
            p1, p2 = w1[::-1], w2[::-1]
            lines.append("{} {} {}".format(
                ",".join(str(x) for x in p1),
                ",".join(str(x) for x in p2),
                int(tree.levels[t - 1].sizes[nid]),
            ))
    return lines


def _local_dimension_reference(tree, t_grid, n_centers, seed, min_count, depth_sets=None):
    """``local_dimension`` as a loop over centers and depths.

    Each fitted center's usable depths are appended to ``depth_sets`` if given.
    """
    ts = sorted(set(int(t) for t in t_grid))
    eligible = np.flatnonzero(tree.t_stable >= ts[0])
    if len(eligible) == 0:
        raise ValidationError("no sample is stable to the smallest grid depth")
    gen = rngmod.generator(seed, rngmod.stream_id(rngmod.STREAM_DIMENSION_CENTERS, 0))
    chosen = eligible[
        gen.choice(len(eligible), size=min(n_centers, len(eligible)), replace=False)
    ]
    chosen = np.sort(chosen)
    denom = tree.sample_count - 1
    slopes = []
    dropped_points = 0
    skipped_centers = 0
    for c in chosen.tolist():
        xs, ys = [], []
        for t in ts:
            if tree.t_stable[c] < t:
                continue
            nid = int(tree.levels[t - 1].ids[c])
            cnt = int(tree.levels[t - 1].sizes[nid]) - 1
            if cnt < min_count:
                dropped_points += 1
                continue
            xs.append(t)
            ys.append(-math.log(cnt / denom))
        if len(xs) < 2:
            skipped_centers += 1
            continue
        if depth_sets is not None:
            depth_sets.append(tuple(xs))
        slopes.append(float(np.polyfit(xs, ys, 1)[0]))
    if not slopes:
        raise ValidationError("no center had two usable grid depths")
    return _mean_result(
        np.array(slopes), tree.horizon, seed, "local-dimension",
        {
            "centers_used": len(slopes),
            "centers_skipped": skipped_centers,
            "points_dropped": dropped_points,
            "min_count": min_count,
            "t_grid": [ts[0], ts[-1]],
        },
    )


@st.composite
def sample_sets(draw):
    """Small sample sets: rank 1-3, group or semigroup letters, and per-row
    stable lengths from 0 to keep_depth."""
    rank = draw(st.integers(1, 3))
    letters = (
        st.integers(-rank, rank).filter(lambda x: x != 0)
        if draw(st.booleans()) else st.integers(1, rank)
    )
    keep = draw(st.integers(2, 5))
    rows = draw(st.integers(2, 80))
    # most rows stable to keep_depth, so that counts reach min_count
    depths = st.one_of(st.just(keep), st.integers(0, keep))
    out, lens = [], []
    for _ in range(2):
        mat = np.zeros((rows, keep), dtype=np.int8)
        length = np.array(draw(st.lists(depths, min_size=rows, max_size=rows)))
        for i, n in enumerate(length.tolist()):
            mat[i, :n] = draw(st.lists(letters, min_size=n, max_size=n))
        out.append(mat)
        lens.append(length)
    return BoundarySampleSet(out[0], out[1], lens[0], lens[1], horizon=keep,
                             keep_depth=keep, rank=rank, seed=0)


@settings(max_examples=200, deadline=None)
@given(s=sample_sets(), data=st.data())
def test_export_and_dimension_match_per_node_references(s, data):
    depth = s.keep_depth
    tree = build_tree(s, depth)
    for d in range(1, depth + 1):
        assert list(tree.export_records(d)) == _export_reference(tree, d)
    assert list(tree.export_records()) == _export_reference(tree, depth)
    t_grid = data.draw(st.lists(st.integers(1, depth), min_size=2, unique=True))
    n_centers = data.draw(st.integers(1, 50))
    min_count = data.draw(st.integers(1, 3))
    seed = data.draw(st.integers(0, 2**64 - 1))
    try:
        expect = _local_dimension_reference(tree, t_grid, n_centers, seed, min_count)
    except ValidationError as e:
        with pytest.raises(ValidationError, match=str(e)):
            local_dimension(s, tree, tuple(t_grid), n_centers, seed, min_count)
    else:
        assert local_dimension(s, tree, tuple(t_grid), n_centers, seed, min_count) == expect


# ---------------------------------------------------------------------------
# tree levels built on first use


def _eager_levels(samples, depth):
    """(keys, sizes, ids) of every level, built in one pass as the tree
    constructor did before levels were built on first use."""
    k2 = 2 * samples.rank
    t_stable = samples.usable_depth()
    levels = []
    ids = np.zeros(len(samples), dtype=np.int64)
    for t in range(1, depth + 1):
        active = t_stable >= t
        x1 = samples.letters1[active, t - 1].astype(np.int64)
        x2 = samples.letters2[active, t - 1].astype(np.int64)
        c1 = np.where(x1 > 0, x1 - 1, samples.rank - 1 - x1)
        c2 = np.where(x2 > 0, x2 - 1, samples.rank - 1 - x2)
        keys = ids[active] * k2 * k2 + c1 * k2 + c2
        uniq, inverse = np.unique(keys, return_inverse=True)
        sizes = np.bincount(inverse, minlength=len(uniq)).astype(np.int64)
        new_ids = np.full(len(samples), -1, dtype=np.int64)
        new_ids[active] = inverse
        levels.append((uniq, sizes, new_ids.astype(np.int32)))
        ids = new_ids
    return levels


def _assert_level_equal(lv, ref):
    for got, expect in zip((lv.keys, lv.sizes, lv.ids), ref):
        assert got.dtype == expect.dtype
        assert np.array_equal(got, expect)


def _stop_depth(ref, t_grid, min_count):
    """First grid depth where no node holds min_count + 1 samples."""
    for t in sorted(t_grid):
        if ref[t - 1][1].max(initial=0) - 1 < min_count:
            return t
    return max(t_grid)


class _LevelSpy:
    """Records the depth of every level ``CylinderTree`` builds."""

    def __init__(self, mp):
        self.built = []
        real = CylinderTree._build_level

        def spy(tree, t):
            self.built.append(t)
            return real(tree, t)

        mp.setattr(CylinderTree, "_build_level", spy)


@settings(max_examples=100, deadline=None)
@given(s=sample_sets(), data=st.data())
def test_levels_read_in_any_order_match_eager_build(s, data):
    depth = data.draw(st.integers(1, s.keep_depth))
    ref = _eager_levels(s, depth)
    tree = build_tree(s, depth)
    for t in range(depth, 0, -1):  # deepest first
        _assert_level_equal(tree.level(t), ref[t - 1])
    tree = build_tree(s, depth)
    for t in data.draw(st.permutations(range(1, depth + 1))):
        _assert_level_equal(tree.level(t), ref[t - 1])
    levels = build_tree(s, depth).levels
    assert len(levels) == depth
    for lv, r in zip(levels, ref):
        _assert_level_equal(lv, r)


@settings(max_examples=100, deadline=None)
@given(s=sample_sets(), data=st.data())
def test_local_dimension_on_fresh_tree_stops_building_at_stop_depth(s, data):
    depth = s.keep_depth
    t_grid = data.draw(st.lists(st.integers(1, depth), min_size=2, unique=True))
    n_centers = data.draw(st.integers(1, 50))
    min_count = data.draw(st.integers(1, 3))
    seed = data.draw(st.integers(0, 2**64 - 1))
    stop = _stop_depth(_eager_levels(s, depth), t_grid, min_count)
    try:
        expect = _local_dimension_reference(build_tree(s, depth), t_grid, n_centers,
                                            seed, min_count)
    except ValidationError as e:
        expect = e
    with pytest.MonkeyPatch.context() as mp:
        spy = _LevelSpy(mp)
        tree = build_tree(s, depth)
        if isinstance(expect, ValidationError):
            with pytest.raises(ValidationError, match=str(expect)):
                local_dimension(s, tree, tuple(t_grid), n_centers, seed, min_count)
            assert spy.built == list(range(1, len(spy.built) + 1))
            assert len(spy.built) <= stop
        else:
            assert local_dimension(s, tree, tuple(t_grid), n_centers, seed,
                                   min_count) == expect
            assert spy.built == list(range(1, stop + 1))


def test_local_dimension_leaves_levels_past_the_stop_depth_unbuilt(monkeypatch):
    s = sample_boundary(semi(2), 0.5, horizon=20, trials=2000, seed=5)
    t_grid = tuple(range(1, 21))
    stop = _stop_depth(_eager_levels(s, 20), t_grid, 5)
    assert 2 < stop < 20
    spy = _LevelSpy(monkeypatch)
    tree = build_tree(s, 20)
    assert spy.built == []
    got = local_dimension(s, tree, t_grid, 200, 3, min_count=5)
    assert spy.built == list(range(1, stop + 1))
    assert got == _local_dimension_reference(build_tree(s, 20), t_grid, 200, 3, 5)


@pytest.mark.parametrize(
    "mu, horizon, t_grid, min_sets",
    [
        (semi(2), 20, tuple(range(1, 21)), 6),  # counts drop below 3 at depths 3 to 9
        (srw(2), 20, tuple(range(1, 11)), 3),  # a free group: they drop by depth 5
    ],
)
def test_local_dimension_with_many_depth_sets_matches_polyfit(mu, horizon, t_grid, min_sets):
    s = sample_boundary(mu, 0.5, horizon=horizon, trials=3000, seed=8)
    depth = max(t_grid)
    depth_sets = []
    expect = _local_dimension_reference(build_tree(s, depth), t_grid, 400, 6, 3, depth_sets)
    assert len(set(depth_sets)) >= min_sets
    assert local_dimension(s, build_tree(s, depth), t_grid, 400, 6, 3) == expect


def test_zero_letter_at_deepest_stable_depth_fails_at_build_tree():
    l1 = np.array([[1, 2, 1], [2, 1, 0], [1, 1, 2]], dtype=np.int8)
    l2 = np.array([[1, 1, 2], [2, 2, 0], [2, 1, 1]], dtype=np.int8)
    lens = np.array([3, 2, 3])

    def samples(a, b):
        return BoundarySampleSet(a, b, lens, lens, horizon=3, keep_depth=3,
                                 rank=2, seed=0)

    check_tree(build_tree(samples(l1, l2), 3))  # zeros past a stable prefix pad
    # (row, column, tree depth): a row's deepest stable letter, or the
    # deepest letter the tree reads
    for row, col, depth in ((0, 2, 3), (1, 1, 3), (2, 1, 2)):
        for coord in (0, 1):
            bad = [l1.copy(), l2.copy()]
            bad[coord][row, col] = 0
            with pytest.raises(ValidationError, match="zero letter inside"):
                build_tree(samples(*bad), depth)
    past = l1.copy()
    past[0, 2] = 0
    assert build_tree(samples(past, l2), 2).node_count(2) == 3


def test_dimension_run_golden(tmp_path):
    # a free-group run with rows unstable at every grid depth, dropped
    # points and skipped centers; pinned before the export and the
    # dimension regression were vectorized
    cfg = parse_config("dimension", None, {
        "group": "free_group:2", "rho": 0.5, "seed": 11, "trials": 2000,
        "horizon": 10, "t_grid": [1, 2, 3, 4, 5], "centers": 60, "min_count": 4,
        "export_tree_depth": 4, "out": str(tmp_path),
    })
    execute(cfg)
    tree = (tmp_path / "tree.txt").read_bytes()
    assert hashlib.sha256(tree).hexdigest() == (
        "4a7f8ca6ba5ac58c5b7748b6fe227282519c04d6bbe628d524a7690c4a411c05"
    )
    assert json.loads((tmp_path / "results.json").read_text()) == {
        "ci_high": 2.1819920375689925, "ci_low": 1.922810608212745,
        "details": {"centers_skipped": 3, "centers_used": 57, "min_count": 4,
                    "points_dropped": 109, "t_grid": [1, 5]},
        "method": "local-dimension", "n": 10, "rho": 0.5, "seed": 11,
        "std_error": 0.06611892652126208, "subcommand": "dimension",
        "trials": 57, "value": 2.052401322890869,
    }
