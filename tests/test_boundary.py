"""Boundary sampling, cylinder counting, and dimension estimation."""

import hashlib
import json
import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisewalk import measures
from noisewalk import rng as rngmod
from noisewalk import walkers
from noisewalk.boundary import (
    BoundarySampleSet,
    CylinderTree,
    _line_slopes,
    build_tree,
    dimension_singularity_check,
    local_dimension,
    sample_boundary,
)
from noisewalk.cli import execute, parse_config
from noisewalk.errors import InputError, ValidationError
from noisewalk.estimators import _mean_result
from noisewalk.measures import build_pi_rho, uniform_measure
from noisewalk.oracle import h_semigroup
from test_walkers import INVERSE_FREE_SHAPES


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


def prefixes(s):
    """Per sample, its two kept stable prefixes: the nonzero letters of its rows."""
    return [(tuple(x for x in r1 if x), tuple(x for x in r2 if x))
            for r1, r2 in zip(s.letters1.tolist(), s.letters2.tolist())]


# ---------------------------------------------------------------------------
# sampling


def test_semigroup_prefixes_are_fully_stable():
    s = sample_boundary(semi(2), 0.5, horizon=40, trials=64, seed=12)
    assert len(s) == 64
    assert (s.usable_depth() == 40).all()
    assert (np.count_nonzero(s.letters1, axis=1) == 40).all()
    assert (np.count_nonzero(s.letters2, axis=1) == 40).all()
    # letters are positive generators only
    assert (s.letters1 >= 1).all() and (s.letters1 <= 2).all()


def test_group_prefixes_partially_stable():
    s = sample_boundary(srw(2), 0.5, horizon=60, trials=128, seed=12)
    frac_deep = float((s.usable_depth() >= 10).mean())
    assert frac_deep > 0.9  # the walk has positive drift, rays stabilize
    l1, l2, len1, len2 = walkers.boundary_prefixes(build_pi_rho(srw(2), 0.5), 60, 60, 128, 12,
                                                   rngmod.STREAM_BOUNDARY)
    np.testing.assert_array_equal(s.usable_depth(), np.minimum(np.minimum(len1, len2), 60))
    assert prefixes(s)[0] == (tuple(l1[0, : len1[0]].tolist()), tuple(l2[0, : len2[0]].tolist()))


def test_sample_boundary_reproducible_and_worker_independent():
    a = sample_boundary(srw(2), 0.3, horizon=30, trials=50, seed=7)
    b = sample_boundary(srw(2), 0.3, horizon=30, trials=50, seed=7, workers=4)
    assert (a.letters1 == b.letters1).all()
    assert (a.letters2 == b.letters2).all()
    assert (a.usable_depth() == b.usable_depth()).all()


def test_sample_boundary_validation(monkeypatch):
    with pytest.raises(InputError):
        sample_boundary(semi(2), 0.5, horizon=0, trials=10, seed=1)
    with pytest.raises(InputError):
        sample_boundary(semi(2), 0.5, horizon=10, trials=0, seed=1)

    def unreached(*args):
        raise AssertionError("the coupled step was built")

    # a bad seed is refused before any work, on either route
    monkeypatch.setattr("noisewalk.boundary.build_pi_rho", unreached)
    for mu in (semi(2), srw(2)):
        for seed in (-1, 2**64):
            with pytest.raises(InputError, match="seed must lie in"):
                sample_boundary(mu, 0.5, horizon=10, trials=10, seed=seed)


@pytest.mark.parametrize("mu", [semi(2), srw(2)], ids=["semigroup", "group"])
def test_sample_boundary_refuses_keep_depth_past_every_letter(mu):
    # no sample has letters past horizon x longest atom = 50, so a deeper
    # keep_depth is refused before its letter arrays are allocated
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="keep_depth 100000000000 exceeds horizon"):
            sample_boundary(mu, 0.5, horizon=50, trials=50, seed=1, keep_depth=10**11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    with pytest.raises(InputError, match="keep_depth 51 exceeds horizon x longest atom = 50"):
        sample_boundary(mu, 0.5, horizon=50, trials=50, seed=1, keep_depth=51)
    deepest = sample_boundary(mu, 0.5, horizon=50, trials=50, seed=1, keep_depth=50)
    assert deepest.keep_depth == 50


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
        assert counts == Counter((p1[:t], p2[:t]) for p1, p2 in prefixes(s))
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
    with pytest.raises(InputError):
        tree.level(True)  # a bool is not a depth


# ---------------------------------------------------------------------------
# ball measure


def ball_count(tree, center, t):
    """Leave-one-out count of the depth-t ball, as ``local_dimension`` reads it."""
    lv = tree.level(t)
    return int(lv.sizes[lv.ids[center]]) - 1


def test_ball_measure_leave_one_out_matches_brute_force():
    s = sample_boundary(semi(2), 0.8, horizon=8, trials=300, seed=31)
    tree = build_tree(s, 4)
    pairs = prefixes(s)
    for center in (0, 17, 299):
        p1, p2 = pairs[center]
        for t in (1, 2, 4):
            brute = sum(
                1
                for j, (q1, q2) in enumerate(pairs)
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
    k = np.count_nonzero((s.letters1 == s.letters2) & (s.letters1 != 0), axis=1)
    mean = float(np.mean(-(k * math.log(p) + (t - k) * math.log(q)) / t))
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
    r = local_dimension(tree, tuple(range(1, 13)), n_centers=150, seed=41)
    expect = 2 * math.log(2)
    assert abs(r.value - expect) / expect < 0.1
    assert r.method == "local-dimension"
    assert r.details["centers_used"] > 100


def test_local_dimension_validation():
    s = sample_boundary(semi(2), 0.5, horizon=8, trials=50, seed=2)
    tree = build_tree(s, 4)
    with pytest.raises(InputError):
        local_dimension(tree, (3,), 10, seed=2)  # single depth
    with pytest.raises(InputError):
        local_dimension(tree, (1, 9), 10, seed=2)  # beyond tree depth
    for t_grid in ((1, 2.5, 3), (True, 3), (1, 2, "3")):  # each entry must be an int
        with pytest.raises(InputError, match="depth t must lie in"):
            local_dimension(tree, t_grid, 10, seed=2)
    for bad in (0, True, 2.5):  # a bool or a float is not a count
        with pytest.raises(InputError, match="min_count must be a positive integer"):
            local_dimension(tree, (1, 2), 10, seed=2, min_count=bad)


def test_local_dimension_needs_a_sample_stable_to_the_smallest_depth():
    letters = np.array([[1, 0, 0], [2, 0, 0]], dtype=np.int8)
    lens = np.array([1, 1])
    s = BoundarySampleSet(letters, letters.copy(), lens, lens, horizon=3, keep_depth=3,
                          rank=2, seed=0)
    tree = build_tree(s, 3)
    assert tree.t_stable.tolist() == [1, 1]
    with pytest.raises(ValidationError, match="no sample is stable to the smallest grid depth"):
        local_dimension(tree, (2, 3), 10, seed=2)


def test_dimension_singularity_conclusive_and_not():
    mu = semi(2)
    kwargs = dict(horizon=80, trials=20_000, t_grid=tuple(range(1, 13)),
                  n_centers=150, seed=47)
    a, b, gap = dimension_singularity_check(mu, 0.2, 1.0, **kwargs)
    assert gap.details == {"conclusive": True}
    assert gap.value == b.value - a.value > 0
    assert gap.std_error == math.hypot(a.std_error, b.std_error)
    assert (gap.ci_low, gap.ci_high) == (gap.value - 1.96 * gap.std_error,
                                         gap.value + 1.96 * gap.std_error)
    assert (gap.n, gap.trials, gap.method) == (80, 20_000, "dimension-gap")
    # same noise level on both sides: identical estimates, no gap
    a, b, gap = dimension_singularity_check(mu, 0.6, 0.6, **kwargs)
    assert a == b
    assert gap.details == {"conclusive": False}
    assert gap.value == 0.0


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
        np.array(slopes), tree.horizon, "local-dimension",
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
            local_dimension(tree, tuple(t_grid), n_centers, seed, min_count)
    else:
        assert local_dimension(tree, tuple(t_grid), n_centers, seed, min_count) == expect


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
    """First depth where no node holds min_count + 1 samples, and every
    cylinder has dropped out of the fit; the last grid depth if none is."""
    for t in range(1, max(t_grid) + 1):
        if ref[t - 1][1].max(initial=0) - 1 < min_count:
            return t
    return max(t_grid)


class _LevelSpy:
    """Records the depth of every level ``CylinderTree`` builds, for the
    tree or for a fit."""

    def __init__(self, mp):
        self.built = []
        real = CylinderTree._build_level

        def spy(tree, run, floor):
            self.built.append(run.t + 1)
            return real(tree, run, floor)

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
                local_dimension(tree, tuple(t_grid), n_centers, seed, min_count)
            assert spy.built == list(range(1, len(spy.built) + 1))
            assert len(spy.built) <= stop
        else:
            assert local_dimension(tree, tuple(t_grid), n_centers, seed,
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
    got = local_dimension(tree, t_grid, 200, 3, min_count=5)
    assert spy.built == list(range(1, stop + 1))
    assert got == _local_dimension_reference(build_tree(s, 20), t_grid, 200, 3, 5)


PREFIX_CODE = measures.build_measure([((1,), Fraction(1, 2)), ((2, 1), Fraction(1, 3)),
                                      ((2, 2), Fraction(1, 6))])


@st.composite
def drawn_sets(draw):
    """Makers of fresh lazily drawn sets of an inverse-free step, some with
    atoms of unequal length, so that a reference can draw its own copy."""
    mu = draw(st.sampled_from([semi(1), semi(2), semi(3), PREFIX_CODE]))
    horizon = draw(st.integers(1, 12))
    keep = draw(st.integers(2, max(2, min(12, horizon * mu.max_atom_length))))
    if keep > horizon * mu.max_atom_length:
        horizon = keep
    return partial(sample_boundary, mu, draw(st.sampled_from([0.0, 0.3, 0.5, 1.0])),
                   horizon, draw(st.integers(2, 300)), draw(st.integers(0, 2**32)), keep)


@settings(max_examples=150, deadline=None)
@given(make=st.one_of(sample_sets().map(lambda s: lambda: s), drawn_sets()),
       data=st.data())
def test_fit_on_a_fresh_tree_matches_the_reference_and_leaves_the_tree_whole(make, data):
    s = make()
    depth = s.keep_depth
    t_grid = data.draw(st.lists(st.integers(1, depth), min_size=2, unique=True))
    n_centers = data.draw(st.integers(1, 50))
    min_count = data.draw(st.integers(1, 5))
    seed = data.draw(st.integers(0, 2**64 - 1))
    full = build_tree(make(), depth)
    try:
        expect = _local_dimension_reference(full, t_grid, n_centers, seed, min_count)
    except ValidationError as e:
        expect = e
    tree = build_tree(s, depth)
    if isinstance(expect, ValidationError):
        with pytest.raises(ValidationError, match=str(expect)):
            local_dimension(tree, tuple(t_grid), n_centers, seed, min_count)
    else:
        assert local_dimension(tree, tuple(t_grid), n_centers, seed, min_count) == expect
    # the fit's levels were its own: the tree's read whole, in any order
    ref = _eager_levels(make(), depth)
    for t in data.draw(st.permutations(range(1, depth + 1))):
        _assert_level_equal(tree.level(t), ref[t - 1])
    for d in range(1, depth + 1):
        assert list(tree.export_records(d)) == _export_reference(full, d)


def test_fit_draws_counters_past_the_first_only_for_live_trials(monkeypatch):
    # the shape of _semigroup_dimension_run: one letter a step, so counter c
    # holds letters 4c - 3..4c, and a trial needs it only while its cylinder
    # at depth 4c - 4 holds more than min_count samples
    args, depth, min_count = (semi(2), 0.5, 50, 3000, 13, 40), 40, 5
    t_grid = tuple(range(1, depth + 1))
    ref = _eager_levels(sample_boundary(*args), depth)
    expect = _local_dimension_reference(build_tree(sample_boundary(*args), depth), t_grid,
                                        80, 13, min_count)
    drawn = {}  # counter -> the trials that drew it
    real = walkers.step_indices

    def spy(measure, seed, component, rows, first, last):
        drawn.setdefault(first // rngmod.PHILOX_WORDS + 1, []).extend(np.asarray(rows).tolist())
        return real(measure, seed, component, rows, first, last)

    monkeypatch.setattr(walkers, "step_indices", spy)
    s = sample_boundary(*args)
    assert local_dimension(build_tree(s, depth), t_grid, 80, 13, min_count) == expect
    assert sorted(drawn[1]) == list(range(3000))
    live_counts = []
    for c in range(2, depth // 4 + 1):
        keys, sizes, ids = ref[4 * c - 5]
        live = np.flatnonzero(sizes[ids] > min_count)
        assert sorted(drawn.get(c, [])) == live.tolist()
        live_counts.append(len(live))
    assert set(drawn) == {1} | {c for c, n in enumerate(live_counts, start=2) if n}
    assert 0 < live_counts[1] < 3000 and live_counts[-1] == 0


@pytest.mark.parametrize("rho", [{"rho": 0.5}, {"rho_grid": [0.2, 1.0]}], ids=["one", "gap"])
def test_dimension_run_builds_one_guide_table_per_measure(monkeypatch, tmp_path, rho):
    built = []
    real = rngmod.index_guide

    def spy(cum):
        built.append(cum)
        return real(cum)

    monkeypatch.setattr(rngmod, "index_guide", spy)
    execute(parse_config("dimension", None, {
        "group": "free_semigroup:2", "seed": 13, "trials": 3000, "horizon": 50,
        "t_grid": list(range(1, 41)), "centers": 80, **rho,
        "out": str(tmp_path),
    }))
    assert len(built) == (1 if "rho" in rho else 2)
    assert len({id(cum) for cum in built}) == len(built)


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
    assert local_dimension(build_tree(s, depth), t_grid, 400, 6, 3) == expect


def _lstsq_slope(xs, y):
    """Slope of a line fit by one np.linalg.lstsq call, set up as np.polyfit does."""
    lhs = np.vander(xs, 2)
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    lhs /= scale
    return np.linalg.lstsq(lhs, y, len(xs) * np.finfo(float).eps)[0][0] / scale[0]


def test_stacked_slopes_equal_one_lstsq_call_per_row():
    gen = np.random.default_rng(16)
    xs = np.sort(gen.choice(np.arange(1, 200), size=30, replace=False)).astype(float)
    ks = np.repeat(np.arange(2, 31), 50)  # k = 2 is the square case
    gen.shuffle(ks)  # every k in one stack, rows of one k apart
    ys = gen.standard_normal((len(ks), 30)) * gen.uniform(0.01, 100, (len(ks), 1))
    expect = [_lstsq_slope(xs[:k], y[:k]) for k, y in zip(ks.tolist(), ys)]
    assert _line_slopes(xs, ys, ks).tolist() == expect
    assert expect == [np.polyfit(xs[:k], y[:k], 1)[0] for k, y in zip(ks.tolist(), ys)]
    for k in (2, 3, 30):  # a stack of one
        assert _line_slopes(xs, ys[:1], np.array([k])).tolist() == [
            _lstsq_slope(xs[:k], ys[0, :k])
        ]


def test_stacked_slopes_raise_linalg_error_as_lstsq_does(capfd):
    xs = np.array([1.0, np.nan, 3.0])  # LAPACK rejects the matrix
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.lstsq(np.vander(xs, 2), np.ones(3))
    with pytest.raises(np.linalg.LinAlgError):
        _line_slopes(xs, np.ones((2, 3)), np.array([3, 3]))
    # LAPACK prints a complaint about the NaN on stdout; reading it keeps it
    # off the test log (capfd writes back what is left unread).  Its text
    # comes from the BLAS build, so it is not checked.
    capfd.readouterr()


@pytest.mark.parametrize("lens", [[3, 3, 3, 3], [3, 1, 0, 2]], ids=["all-stable", "some-short"])
def test_build_level_matches_eager_levels(lens):
    # rank 3, letters of both signs; zeros pad past each stable length
    l1 = np.array([[1, -3, 2], [-1, 3, -2], [3, 3, -1], [-2, 1, 1]], dtype=np.int8)
    l2 = np.array([[2, 2, -3], [-3, -1, 1], [3, 3, -1], [1, -2, 2]], dtype=np.int8)
    lens = np.array(lens)
    for letters in (l1, l2):
        letters[np.arange(3) >= lens[:, None]] = 0
    s = BoundarySampleSet(l1, l2, lens, lens, horizon=3, keep_depth=3, rank=3, seed=0)
    tree = build_tree(s, 3)
    assert tree._reached == min(lens)  # levels past it gather the rows that reach them
    for t, ref in enumerate(_eager_levels(s, 3), start=1):
        _assert_level_equal(tree.level(t), ref)


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


def _semigroup_dimension_run(tmp_path, workers=1):
    """A free-semigroup ``dimension`` run whose fit stops far above keep_depth."""
    execute(parse_config("dimension", None, {
        "group": "free_semigroup:2", "rho": 0.5, "seed": 13, "trials": 3000,
        "horizon": 50, "keep_depth": 40, "t_grid": list(range(1, 41)), "centers": 80,
        "min_count": 5, "export_tree_depth": 5, "workers": workers, "out": str(tmp_path),
    }))


@pytest.mark.parametrize("workers", [1, 2])
def test_inverse_free_dimension_run_golden(monkeypatch, tmp_path, workers):
    # pinned while every kept letter was still drawn up front
    monkeypatch.setattr(walkers, "BLOCK", 1000)  # three blocks
    _semigroup_dimension_run(tmp_path, workers)
    digests = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
               for f in ("results.json", "tree.txt")}
    assert digests == {
        "results.json": "6038aa7bff83f6fdccec6e77268e1e68f0f422d61b4ef9f2b4a4219bcb096d1e",
        "tree.txt": "108f39edbaa9ccea29ddcbeab187c06cbf2d96e5ca04c05ce53ebf7c44e4b104",
    }


def test_dimension_run_draws_no_counter_past_the_deepest_level_read(monkeypatch, tmp_path):
    last_counters = []
    real = rngmod.word_rows

    def spy(seed, streams, n, counter=1):
        last_counters.append(counter + (n - 1) // 4)  # four words per counter
        return real(seed, streams, n, counter)

    monkeypatch.setattr(rngmod, "word_rows", spy)
    levels = _LevelSpy(monkeypatch)
    _semigroup_dimension_run(tmp_path)
    deepest = max(levels.built)
    assert 5 < deepest < 20  # keep_depth is 40
    # letter d (from 0) of a one-letter step comes from counter d // 4 + 1
    assert max(last_counters) == (deepest - 1) // 4 + 1


def test_prefix_code_tree_draws_each_trial_only_to_the_depth_read(monkeypatch):
    # every atom of {1, 21, 22} adds at least m = 1 letter, and keep_depth <= horizon * m
    mu = measures.build_measure([((1,), Fraction(1, 2)), ((2, 1), Fraction(1, 3)),
                                 ((2, 2), Fraction(1, 6))])
    horizon, keep_depth, trials, seed = 40, 30, 300, 5
    pi = measures.build_pi_rho(mu, 0.5)
    whole = walkers.index_block(pi, horizon, seed, rngmod.STREAM_BOUNDARY, np.arange(trials))
    counters = np.zeros(trials, dtype=np.int64)  # counters drawn, per trial
    real = walkers.step_indices

    def spy(measure, seed_, component, rows, first, last):
        got = real(measure, seed_, component, rows, first, last)
        np.testing.assert_array_equal(got, whole[rows, first:last])  # rows of the full draw
        np.add.at(counters, rows, -(-(last - first) // rngmod.PHILOX_WORDS))
        return got

    monkeypatch.setattr(walkers, "step_indices", spy)
    s = sample_boundary(mu, 0.5, horizon, trials, seed, keep_depth)
    assert (s.usable_depth() == keep_depth).all()
    tree = build_tree(s, keep_depth)
    assert not counters.any()
    # the fewer letters of the two coordinates after each counter's four steps
    reach = np.minimum(*(np.cumsum(np.count_nonzero(mat, axis=1)[whole], axis=1)
                         for mat in walkers.letter_matrices(pi)))[:, 3::4]
    for t in range(1, keep_depth + 1):
        tree.level(t)
        assert counters.max() <= -(-t // 4)
        # each trial has drawn the counters that reach depth t, and not one more
        np.testing.assert_array_equal(counters, np.argmax(reach >= t, axis=1) + 1)
    assert len(set(counters.tolist())) > 1


class _RouteSpy:
    """Records whether each ``_sort_in_place`` call takes the packed route."""

    def __init__(self, mp):
        self.packed = []
        real = measures._position_bits

        def spy(key_bound, count):
            bits = real(key_bound, count)
            self.packed.append(bits is not None)
            return bits

        mp.setattr(measures, "_position_bits", spy)


def _no_letter_reads(mp):
    """Make reading ``letters1``/``letters2``, which draws every trial to
    keep_depth, or running the stack machine fail."""
    def refuse(*args):
        raise AssertionError("read letter columns")

    mp.setattr(walkers, "_run_stack", refuse)
    mp.setattr(BoundarySampleSet, "_columns", refuse)


@pytest.mark.parametrize("mu, horizon, keep_depth", INVERSE_FREE_SHAPES)
def test_batched_levels_match_eager_levels_on_inverse_free_shapes(mu, horizon, keep_depth):
    if keep_depth > horizon * mu.max_atom_length:  # refused before any draw
        return
    ref = _eager_levels(sample_boundary(mu, 0.4, horizon, 150, 21, keep_depth), keep_depth)
    s = sample_boundary(mu, 0.4, horizon, 150, 21, keep_depth)
    with pytest.MonkeyPatch.context() as mp:
        routes = _RouteSpy(mp)
        _no_letter_reads(mp)  # the tree draws only the columns it reads
        tree = build_tree(s, keep_depth)
        half = (keep_depth + 1) // 2
        for t in (half, 1, keep_depth, half + 1):
            _assert_level_equal(tree.level(t), ref[t - 1])
        levels = tree.levels
    for lv, r in zip(levels, ref):
        _assert_level_equal(lv, r)
    assert routes.packed and all(routes.packed)


def test_batched_levels_where_one_depth_fits_a_packed_key():
    # rank 120 codes take 16 bits; 32,769 samples and their positions take
    # 16 bits each, so a parent id, one code and a position fill 48 bits and
    # a second code would pass 63
    n, rank, depth = 2**15 + 1, 120, 3
    gen = np.random.default_rng(20)
    letters = gen.integers(1, rank + 1, (2, n, depth)) * gen.choice([-1, 1], (2, n, depth))
    letters[:, :2000, :] = gen.integers(1, 3, (2, 2000, depth))  # nodes of many samples
    lens = gen.integers(1, depth + 1, n)
    lens[: n // 2] = depth
    letters[:, np.arange(depth)[None, :] >= lens[:, None]] = 0
    s = BoundarySampleSet(*letters.astype(np.int8), lens, lens, horizon=depth,
                          keep_depth=depth, rank=rank, seed=0)
    ref = _eager_levels(s, depth)
    with pytest.MonkeyPatch.context() as mp:
        routes = _RouteSpy(mp)
        tree = build_tree(s, depth)
        assert tree._batch_depths == 1
        for t in range(1, depth + 1):
            _assert_level_equal(tree.level(t), ref[t - 1])
    assert routes.packed == [True] * depth
    assert max(lv[1].max() for lv in ref) > 1  # some nodes hold several samples


@pytest.mark.parametrize("trials", [1, 2, 2**12, 2**14 + 1])
def test_batch_depths_are_the_most_a_packed_key_holds(trials):
    s = sample_boundary(semi(2), 0.5, horizon=60, trials=trials, seed=4)
    tree = build_tree(s, 60)
    d, bits = tree._batch_depths, tree._bits
    assert bits == 4  # 16 pair codes
    fits = lambda depths: measures._position_bits(trials << bits * depths, trials)
    assert fits(d) is not None and fits(d + 1) is None
    for t, ref in enumerate(_eager_levels(s, 12), start=1):
        _assert_level_equal(tree.level(t), ref)


@pytest.mark.parametrize("packed", [True, False])
def test_tree_levels_match_unique_on_both_sort_routes(monkeypatch, packed):
    routes = []
    real = measures._position_bits

    def route(key_bound, count):  # None forces the stable argsort
        bits = real(key_bound, count) if packed else None
        routes.append(bits is not None)
        return bits

    monkeypatch.setattr(measures, "_position_bits", route)
    l1 = np.array([[1, -2, 0, 0], [1, 2, 0, 0], [-1, 0, 0, 0], [1, -2, 0, 0]], dtype=np.int8)
    l2 = np.array([[2, 2, 0, 0], [2, 2, 0, 0], [1, 0, 0, 0], [2, -1, 0, 0]], dtype=np.int8)
    lens = np.array([2, 2, 1, 2])  # no sample reaches depth 3
    sets = [
        BoundarySampleSet(l1, l2, lens, lens, horizon=4, keep_depth=4, rank=2, seed=0),
        sample_boundary(srw(2), 0.5, horizon=12, trials=500, seed=3),
        sample_boundary(semi(3), 0.5, horizon=8, trials=500, seed=3),
    ]
    for s in sets:
        ref = _eager_levels(s, s.keep_depth)
        tree = build_tree(s, s.keep_depth)
        for t in range(1, s.keep_depth + 1):
            _assert_level_equal(tree.level(t), ref[t - 1])
    assert len(build_tree(sets[0], 4).level(3).keys) == 0
    assert routes and set(routes) == {packed}
