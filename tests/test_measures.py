"""Measure construction, exact convolution, JSON parsing."""

import dataclasses
import functools
import gc
import hashlib
import itertools
import json
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisewalk.errors import (
    BudgetError,
    InputError,
    TruncationError,
    ValidationError,
)
from noisewalk.measures import (
    DEFAULT_CAP,
    FiniteMeasure,
    build_measure,
    build_pi_rho,
    certified_entropy_compare,
    entropy_mass_spec,
    iter_convolution_levels,
    measure_from_json_dict,
    shannon_entropy,
    uniform_letter_count,
    uniform_measure,
)
from noisewalk import measures
from noisewalk.estimators import entropy_exact_curve
from noisewalk.measures import _WordCode, _position_bits
from noisewalk.oracle import brute_force_convolution, tv_distance
from noisewalk.words import multiply, reduce_word

F = Fraction
H = Fraction(1, 2)


def srw(rank=2):
    return uniform_measure(rank)


def weight(m, atom):
    """The weight of ``atom`` in ``m``, 0 off its support."""
    return dict(m.atoms).get(atom, 0)


def semi(m=2):
    return uniform_measure(m, inverse_free=True)


def marginals(pi):
    """Coordinate marginals of a pair measure."""
    left, right = {}, {}
    for (x, y), w in pi.atoms:
        left[x] = left.get(x, 0) + w
        right[y] = right.get(y, 0) + w
    return (
        build_measure(left.items(), rank=pi.rank, kind="single"),
        build_measure(right.items(), rank=pi.rank, kind="single"),
    )


# ---------------------------------------------------------------------------
# construction


def test_build_measure_basic_exact():
    mu = build_measure([((1,), H), ((-1,), H)])
    assert mu.exact
    assert mu.rank == 1
    assert sum(w for _, w in mu.atoms) == 1
    assert weight(mu, (1,)) == H


def test_build_measure_rejects_bad_sums():
    with pytest.raises(ValidationError):
        build_measure([((1,), 0.5), ((2,), 0.6)])
    with pytest.raises(ValidationError):
        build_measure([((1,), F(1, 3)), ((2,), F(1, 3))])


def test_build_measure_rejects_negative_and_empty():
    with pytest.raises(InputError):
        build_measure([((1,), F(3, 2)), ((2,), F(-1, 2))])
    for w in (math.nan, math.inf, -math.inf):
        with pytest.raises(InputError, match="not finite"):
            build_measure([((1,), w)])
        with pytest.raises(InputError, match="not finite"):
            build_measure([((1,), 1.0), ((2,), w)])
    with pytest.raises(ValidationError):
        build_measure([])
    with pytest.raises(ValidationError):
        build_measure([((1,), 0)])


PAIR = ((1,), (2,))


@pytest.mark.parametrize("make, error, match", [
    (lambda: FiniteMeasure((((1,), F(1)),), 1, "triple"), ValidationError,
     "unknown measure kind 'triple'"),
    (lambda: FiniteMeasure((), 1, "single"), ValidationError, "at least one atom"),
    (lambda: build_measure([(1, F(1))]), InputError, "atom 1 is not a sequence"),
    (lambda: build_measure([(PAIR, H), (((1,), (2,), (1,)), H)]), InputError,
     "pair atom .* must be two letter sequences"),
    # the first atom sets the kind, and an atom of the other kind is refused
    (lambda: build_measure([(PAIR, H), ((1,), H)]), InputError,
     "measure support mixes single and pair atoms"),
    (lambda: build_measure([((1,), H), (PAIR, H)]), InputError,
     "measure support mixes single and pair atoms"),
    (lambda: build_measure([((1,), True)]), InputError, "weight True is not numeric"),
    (lambda: build_measure([((1,), "1")]), InputError, "weight '1' is not numeric"),
    (lambda: build_measure([((), F(1))]), ValidationError, "cannot infer rank"),
    (lambda: build_measure([((1, -1), F(1))]), ValidationError, "cannot infer rank"),
    (lambda: entropy_mass_spec([((1,), F(1))]), InputError, "cannot extract mass spec"),
    (lambda: measure_from_json_dict([1]), InputError, "measure JSON must be an object"),
    (lambda: measure_from_json_dict(
        {"rank": 1, "kind": "single", "atoms": [{"word": [1], "weight": True}]}),
     InputError, "weight True is not numeric"),
], ids=["unknown-kind", "no-atoms", "atom-not-a-sequence", "three-part-pair",
        "single-after-pair", "pair-after-single", "bool-weight", "string-weight",
        "identity-only", "cancels-to-identity", "spec-of-a-list", "json-not-a-dict",
        "json-bool-weight"])
def test_measure_constructors_refuse_malformed_input(make, error, match):
    with pytest.raises(error, match=match):
        make()


def test_build_measure_merges_unreduced_atoms():
    # (1, -1, 2) reduces to (2); the two halves must merge
    mu = build_measure([((1, -1, 2), H), ((2,), H)])
    assert [a for a, _ in mu.atoms] == [(2,)]
    assert weight(mu, (2,)) == 1


def test_build_measure_drops_exact_zeros():
    mu = build_measure([((1,), F(1)), ((2,), F(0))])
    assert [a for a, _ in mu.atoms] == [(1,)]


def test_build_measure_float_mode():
    mu = build_measure([((1,), 0.25), ((-1,), 0.75)])
    assert not mu.exact
    assert weight(mu, (-1,)) == 0.75


def test_rank_inference_and_override():
    mu = build_measure([((3,), F(1))])
    assert mu.rank == 3
    mu = build_measure([((1,), F(1))], rank=5)
    assert mu.rank == 5
    with pytest.raises(InputError):
        build_measure([((3,), F(1))], rank=2)


def test_uniform_measures():
    g = uniform_measure(2)
    assert g.support_size == 4 and not g.inverse_free
    s = uniform_measure(3, inverse_free=True)
    assert s.support_size == 3 and s.inverse_free
    assert uniform_letter_count(s) == 3
    assert uniform_letter_count(g) is None  # inverses present
    lop = build_measure([((1,), F(1, 4)), ((2,), F(3, 4))])
    assert uniform_letter_count(lop) is None  # not uniform
    # one letter: the closed forms need two or more
    assert uniform_letter_count(uniform_measure(1, inverse_free=True)) is None


# ---------------------------------------------------------------------------
# the coupled step


def test_pi_rho_atom_weights_exact():
    mu = semi(2)
    pi = build_pi_rho(mu, H)
    # diagonal mass (1-rho)/m + rho/m^2, off-diagonal rho/m^2
    assert pi.exact
    assert weight(pi, ((1,), (1,))) == F(3, 8)
    assert weight(pi, ((1,), (2,))) == F(1, 8)
    assert weight(pi, ((2,), (2,))) == F(3, 8)
    assert pi.support_size == 4


def test_pi_rho_endpoints():
    mu = semi(3)
    diag = build_pi_rho(mu, 0)
    assert [a for a, _ in diag.atoms] == [((x,), (x,)) for x in (1, 2, 3)]
    indep = build_pi_rho(mu, 1)
    assert indep.support_size == 9
    for a, w in indep.atoms:
        assert w == F(1, 9)


def test_pi_rho_marginals_are_mu():
    for mu in (srw(2), semi(3), build_measure([((1,), F(1, 3)), ((2, 1), F(2, 3))])):
        for rho in (F(0), F(1, 4), F(2, 3), F(1)):
            left, right = marginals(build_pi_rho(mu, rho))
            assert left.atoms == mu.atoms
            assert right.atoms == mu.atoms


def test_pi_rho_exactness_rules():
    mu = semi(2)
    assert build_pi_rho(mu, F(1, 3)).exact
    assert not build_pi_rho(mu, 0.3).exact
    with pytest.raises(InputError):
        build_pi_rho(mu, 1.5)
    with pytest.raises(ValidationError):
        build_pi_rho(build_pi_rho(mu, H), H)  # already a pair measure


# ---------------------------------------------------------------------------
# exact convolution


def assert_measures_equal(a: FiniteMeasure, b: FiniteMeasure):
    assert a.atoms == b.atoms


@pytest.mark.parametrize(
    "step",
    [
        srw(2),
        build_measure([((1,), F(1, 2)), ((-1,), F(1, 3)), ((2,), F(1, 6))]),
        build_pi_rho(semi(2), F(1, 2)),
        build_pi_rho(srw(2), F(1, 4)),
    ],
    ids=["srw2", "lopsided", "pair-semi", "pair-group"],
)
def test_convolution_matches_brute_force(step):
    n = 3 if step.kind == "pair" else 4
    levels = list(iter_convolution_levels(step, n))
    assert not any(lv.truncated for lv in levels)
    for lvl, lv in enumerate(levels, start=1):
        assert_measures_equal(lv.to_measure(), brute_force_convolution(step, lvl))


def test_convolution_deep_words_match_brute_force(monkeypatch):
    deep_group = build_measure(
        [((1, 2, 1, 2), F(1, 2)), ((-2, 1, -2, -1), F(1, 3)), ((2, 2, -1, -1), F(1, 6))]
    )
    long_semi = build_measure([((1, 2, 1, 1, 2), F(2, 3)), ((2, 2, 1, 2, 1), F(1, 3))])
    # rank 1, depth 3 * 6: pair keys below 3**36 ~ 2**57, int64 with little
    # room; the letter -1 is digit 2, so (-1,)*k words have the top codes.
    # At rho = 0 the levels are diagonal, not products, so they take the
    # chunked step, and level 3 has 9 states times 4 atoms = 36 products
    long_rank1 = build_measure(
        [((1,) * 6, F(1, 4)), ((-1,), F(1, 4)), ((-1,) * 2, F(1, 4)), ((-1,) * 3, F(1, 4))]
    )
    top_rank1 = build_measure(
        [((-1,) * 6, F(1, 4)), ((1,), F(1, 4)), ((1,) * 2, F(1, 4)), ((1,) * 3, F(1, 4))]
    )
    routes = []

    def spy(key_bound, count):
        bits = _position_bits(key_bound, count)
        routes.append(bits is not None)
        return bits

    monkeypatch.setattr(measures, "_position_bits", spy)
    # one route per sort: a level's block sort, then (pairs) each chunk's;
    # product levels (0 < rho) sort no products and call no route
    for step, n, chunk, packed, key_dtype in (
        (srw(2), 4, measures._CHUNK, [True] * 3, np.int64),
        (build_pi_rho(semi(2), F(1, 3)), 4, measures._CHUNK, [], np.int64),
        (build_pi_rho(semi(2), F(0)), 4, measures._CHUNK, [True] * 6, np.int64),
        # words of length 16: far past any enumerable word ball
        (deep_group, 4, measures._CHUNK, [True] * 3, np.int64),
        # pair keys up to 3**40 are object arrays: every sort is a stable argsort
        (build_pi_rho(long_semi, F(1, 2)), 4, measures._CHUNK, [], object),
        (build_pi_rho(long_semi, F(0)), 4, measures._CHUNK, [], object),
        # level 3's 36 products would not pack under the level bound 3**36,
        # but the chunk's top head is (1,)*18, about half of 3**18
        (build_pi_rho(long_rank1, F(0)), 3, measures._CHUNK, [True] * 4, np.int64),
        # here the top head is (-1,)*18, so the one chunk of level 3 has no room
        (build_pi_rho(top_rank1, F(0)), 3, measures._CHUNK, [True] * 3 + [False], np.int64),
        # one chunk per target head: level 2 splits into 9 chunks and level 3
        # into 16, and each packs
        (build_pi_rho(top_rank1, F(0)), 3, 1, [True] * 27, np.int64),
    ):
        monkeypatch.setattr(measures, "_CHUNK", chunk)
        routes.clear()
        got = [lv.to_measure() for lv in iter_convolution_levels(step, n)]
        assert routes == packed
        for lvl, m in enumerate(got, start=1):
            assert_measures_equal(m, brute_force_convolution(step, lvl))
        assert list(iter_convolution_levels(step, n))[-1].keys.dtype == key_dtype


def test_times_words_leaves_no_reference_cycle():
    # a cycle would keep every intermediate code array of a level alive
    # until the cyclic collector happens to run
    code = _WordCode(2, False, 6)
    starts = [(), (1,), (2, -1), (-2, -1), (1, 2, 2)]
    words = {(1, 2), (1, -2), (-1,), (-2, -2, 1)}
    gc.collect()
    gc.disable()
    try:
        out = code.times_words(np.array([code.encode(u) for u in starts]), words)
        assert gc.collect() == 0
    finally:
        gc.enable()
    for w in words:
        assert out[w].tolist() == [code.encode(multiply(u, w)) for u in starts]


def test_level_values_at_pair_coordinate_codes():
    long_semi = build_measure([((1, 2, 1, 1, 2), F(2, 3)), ((2, 2, 1, 2, 1), F(1, 3))])
    for mu, rho, n in ((srw(2), F(1, 2), 3), (srw(2), 0.3, 3), (long_semi, F(1, 2), 4)):
        pi_lv = list(iter_convolution_levels(build_pi_rho(mu, rho), n))[-1]
        mu_lv = list(iter_convolution_levels(mu if pi_lv.exact else mu.as_float(), n))[-1]
        marginal = dict(mu_lv.iter_items())
        atoms = [a for a, _ in pi_lv.iter_items()]
        assert pi_lv.values.tolist() == [v for _, v in pi_lv.iter_items()]
        # a factored level's codes are those of its keys
        keyed = dataclasses.replace(pi_lv, _support=pi_lv.keys)
        assert pi_lv.factors is not None and keyed.factors is None
        assert [c.tolist() for c in pi_lv.coordinate_codes()] == [
            c.tolist() for c in keyed.coordinate_codes()
        ]
        for c, codes in enumerate(pi_lv.coordinate_codes()):
            assert mu_lv.values_at(codes).tolist() == [marginal[a[c]] for a in atoms]
        # the identity (no atom at odd levels of the group, nor on the
        # semigroup) and a code past every key read 0
        top = int(mu_lv.coordinate_codes()[0][-1])
        assert mu_lv.values_at(np.array([0, top + 1])).tolist() == [0, 0]


def test_convolution_float_step():
    step = build_measure([((1,), 0.5), ((-1,), 0.5)])
    lv4 = [lv.to_measure() for lv in iter_convolution_levels(step, 4)][3]
    assert abs(math.fsum(w for _, w in lv4.atoms) - 1.0) < 1e-12
    # SRW on Z: P(position 0 after 4 steps) = 6/16
    assert abs(weight(lv4, ()) - 6 / 16) < 1e-12


def test_level_metadata_and_entropy():
    step = build_pi_rho(semi(2), F(1, 2))
    levels = list(iter_convolution_levels(step, 3))
    for lv in levels:
        assert lv.exact and not lv.truncated and lv.lost_mass == 0
        assert Fraction(int(lv.values.sum()), lv.denominator) == 1
        m = lv.to_measure()
        assert abs(lv.entropy_kept() - shannon_entropy(m)) < 1e-12
        assert lv.entropy_upper_bound() >= lv.entropy_kept() - 1e-15
    # semigroup coupling: positions are step sequences, so H_n = n * H_1
    h1 = levels[0].entropy_kept()
    for lv in levels:
        assert abs(lv.entropy_kept() - lv.level * h1) < 1e-10


def test_subadditivity_on_group():
    step = build_pi_rho(srw(2), F(1, 4))
    hs = [lv.entropy_kept() for lv in iter_convolution_levels(step, 4)]
    get = lambda n: hs[n - 1]
    for n, m in [(1, 1), (1, 2), (2, 2), (1, 3)]:
        assert get(n + m) <= get(n) + get(m) + 1e-12


def test_truncation_flags_and_strict():
    step = srw(2)
    levels = list(iter_convolution_levels(step, 5, cap=20))
    cut = next(lv for lv in levels if lv.truncated)
    assert cut.lost_mass > 0
    assert cut.to_measure().support_size <= 20
    with pytest.raises(TruncationError) as ei:
        list(iter_convolution_levels(step, 5, cap=20, strict=True))
    # strict mode refuses to drop mass, so it raises with nothing lost yet
    assert ei.value.level >= 1
    assert ei.value.lost_mass == 0


def test_truncation_keeps_heaviest_atoms():
    step = build_measure([((1,), F(2, 3)), ((2,), F(1, 6)), ((3,), F(1, 6))])
    lv = list(iter_convolution_levels(step, 2, cap=4))[-1]
    m = lv.to_measure()
    # heaviest level-2 atom (1,1) has mass 4/9 and must survive
    assert weight(m, (1, 1)) == F(4, 9)
    full = brute_force_convolution(step, 2)
    kept_min = min(w for _, w in m.atoms)
    dropped = [w for a, w in full.atoms if weight(m, a) == 0]
    assert all(w <= kept_min for w in dropped)


def test_truncated_level_mass_accounting():
    step = srw(2)
    levels = list(iter_convolution_levels(step, 5, cap=30))
    for lv in levels:
        assert Fraction(int(lv.values.sum()), lv.denominator) + lv.lost_mass == 1


def test_truncated_float_levels_golden():
    # rho = 0.3 makes the pair masses non-dyadic, so a reordered sum would
    # change bits; pinned before the level sort packed keys with positions
    h = hashlib.sha256()
    for lv in iter_convolution_levels(build_pi_rho(srw(2), 0.3), 6, cap=5000):
        h.update(lv.keys.astype("<i8").tobytes())
        h.update(lv.values.astype("<f8").tobytes())
        h.update(repr((lv.lost_mass, lv.entropy_kept())).encode())
    assert lv.size == 5000 and lv.truncated
    assert h.hexdigest() == "bf2b3f0e99ef37ad83eb758700fe72d76c54165c3d1db0217cc6a9185d00c894"


def test_tiny_truncation_reported_but_not_flagged():
    eps = F(1, 10**10)
    step = build_measure([((1,), 1 - eps), ((2,), eps)])
    lv = list(iter_convolution_levels(step, 2, cap=3))[-1]
    assert lv.lost_mass == eps * eps  # the (2,2) corner was dropped
    assert not lv.truncated  # below the 1e-9 reporting threshold
    # certification still refuses any lossy level, flagged or not
    with pytest.raises(ValidationError):
        entropy_mass_spec(lv)


def test_truncated_upper_bound_counts_every_reduced_word():
    # F_2 has 5 reduced words of at most one letter, not 2k = 4: the lazy
    # uniform step at rho = 1, cut to 2 of its 25 pair atoms, still has
    # the entropy log 25 of all of them
    mu = build_measure([(w, F(1, 5)) for w in [(), (1,), (-1,), (2,), (-2,)]])
    (lv,) = iter_convolution_levels(build_pi_rho(mu, 1), 1, cap=2)
    assert lv.size == 2 and lv.lost_mass == F(23, 25)
    assert lv.entropy_kept() < math.log(25) <= lv.entropy_upper_bound()


@st.composite
def sandwich_steps(draw):
    """Single or pair steps: rank 1-2, group or semigroup, 2-5 atoms of
    at most 2 letters with the identity allowed, rho = j/4."""
    rank = draw(st.integers(1, 2))
    letters = list(range(1, rank + 1))
    if not draw(st.booleans()):
        letters += [-x for x in letters]
    words = sorted({reduce_word(w) for w in itertools.chain(
        [()], ((x,) for x in letters), itertools.product(letters, repeat=2)
    )})
    atoms = draw(st.lists(st.sampled_from(words), min_size=2, max_size=5, unique=True))
    weights = [draw(st.integers(1, 4)) for _ in atoms]
    mu = build_measure(
        [(a, F(w, sum(weights))) for a, w in zip(atoms, weights)], rank=rank
    )
    if draw(st.booleans()):
        return build_pi_rho(mu, F(draw(st.integers(0, 4)), 4))
    return mu


@settings(max_examples=300, deadline=None)
@given(step=sandwich_steps(), cap=st.integers(1, 12))
def test_truncated_entropy_sandwiches_the_true_entropy(step, cap):
    true = [lv.entropy_kept() for lv in iter_convolution_levels(step, 3)]
    for lv, h in zip(iter_convolution_levels(step, 3, cap=cap), true):
        assert lv.entropy_kept() <= h + 1e-12
        assert h <= lv.entropy_upper_bound() + 1e-12


def shortlex_key(word, rank):
    """Shortlex rank order on words, letters ordered 1..k, -1..-k."""
    return (len(word), [x - 1 if x > 0 else rank - x - 1 for x in word])


def atom_order(atom, kind, rank):
    if kind == "pair":
        return (shortlex_key(atom[0], rank), shortlex_key(atom[1], rank))
    return shortlex_key(atom, rank)


@st.composite
def small_mus(draw):
    rank = draw(st.integers(1, 3))
    inverse_free = draw(st.booleans())
    letters = list(range(1, rank + 1))
    if not inverse_free:
        letters += [-x for x in letters]
    words = st.lists(st.sampled_from(letters), min_size=0, max_size=3).map(tuple)
    atoms = draw(st.lists(words, min_size=1, max_size=4, unique=True))
    weights = [draw(st.integers(1, 4)) for _ in atoms]
    return build_measure(
        [(a, F(w, sum(weights))) for a, w in zip(atoms, weights)], rank=rank
    )


@st.composite
def small_steps(draw):
    mu = draw(small_mus())
    if draw(st.booleans()):
        rho = draw(st.sampled_from([F(0), F(1, 3), F(1, 2), F(1)]))
        return build_pi_rho(mu, rho)
    return mu


@settings(max_examples=120, deadline=None)
@given(
    step=small_steps(),
    n=st.integers(1, 3),
    cap=st.one_of(st.integers(1, 6), st.just(DEFAULT_CAP)),
)
def test_convolution_property_matches_brute_force(step, n, cap):
    for lvl, lv in enumerate(iter_convolution_levels(step, n, cap=cap), start=1):
        full = brute_force_convolution(step, lvl)
        if lv.lost_mass == 0:
            assert_measures_equal(lv.to_measure(), full)
            continue
        # first lossy level: the cap heaviest atoms, ties in shortlex order
        ranked = sorted(
            full.atoms, key=lambda aw: (-aw[1], atom_order(aw[0], step.kind, step.rank))
        )
        assert list(lv.to_measure().atoms) == sorted(ranked[:cap])
        assert lv.lost_mass == sum(w for _, w in ranked[cap:])
        break


def level_record(step, n, cap=DEFAULT_CAP):
    """Every level's keys, value bytes, lost mass and kept entropy."""
    record = []
    for lv in iter_convolution_levels(step, n, cap=cap):
        vals = lv.values.tolist() if lv.values.dtype == object else lv.values.tobytes()
        record.append((lv.keys.tolist(), vals, lv.lost_mass, lv.entropy_kept()))
    return record


@settings(max_examples=120, deadline=None)
@given(
    step=small_steps(),
    n=st.integers(1, 3),
    cap=st.one_of(st.integers(1, 6), st.just(DEFAULT_CAP)),
)
def test_chunked_levels_match_default_chunk_and_brute_force(step, n, cap):
    want = level_record(step, n, cap)
    for chunk in (1, 3, 64):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(measures, "_CHUNK", chunk)
            assert level_record(step, n, cap) == want
            for lvl, lv in enumerate(iter_convolution_levels(step, n, cap=cap), start=1):
                if lv.lost_mass:
                    break
                assert_measures_equal(lv.to_measure(), brute_force_convolution(step, lvl))


def test_chunked_float_pair_levels_keep_their_bytes():
    # non-dyadic masses: a changed summation order would change bits
    step = build_pi_rho(srw(2), 0.3)
    want = level_record(step, 6)
    for chunk in (1, 3, 64):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(measures, "_CHUNK", chunk)
            assert level_record(step, 6) == want
    for lvl, lv in enumerate(iter_convolution_levels(step, 4), start=1):
        got, full = lv.to_measure().atoms, brute_force_convolution(step, lvl).atoms
        assert [a for a, _ in got] == [a for a, _ in full]
        assert all(math.isclose(w, v, rel_tol=1e-13) for (_, w), (_, v) in zip(got, full))
    # at rho = 0 the levels are diagonal, not products, so they take the
    # chunked step; level 3 here (36 products under the top head (-1,)*18)
    # has no room to pack at the default chunk, so its stable argsort must
    # order ties as the packed per-head chunks do
    top_rank1 = build_pi_rho(
        build_measure([((-1,) * 6, 0.1), ((1,), 0.2), ((1,) * 2, 0.3), ((1,) * 3, 0.4)]), 0.0
    )
    want = level_record(top_rank1, 3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "_CHUNK", 1)
        assert level_record(top_rank1, 3) == want


def test_pair_levels_stay_within_memory_bound():
    # a sort of each whole level peaked at 77.9 MiB here; the level-6
    # arrays alone take 15.3 MiB (truncated to the default cap)
    tracemalloc.start()
    try:
        for lv in iter_convolution_levels(build_pi_rho(uniform_measure(2), 0.5), 6):
            lv.entropy_kept()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_untruncated_pair_levels_keep_no_keys():
    # levels 2-6 are supp(mu^l) x supp(mu^l) and are held as factors; a key
    # beside each value peaked at 25.9 MiB here, 9.1 MiB of it level 6's keys
    tracemalloc.start()
    try:
        for lv in iter_convolution_levels(
            build_pi_rho(uniform_measure(2), 0.5), 6, cap=2_000_000
        ):
            lv.entropy_kept()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lv.size == 1_194_649 and lv.factors is not None
    assert peak < 20 * 2**20


@pytest.fixture(scope="module")
def half_level6():
    """Level 6 of pi_0.5 on F_2, untruncated: 1,194,649 float masses."""
    *_, lv = iter_convolution_levels(build_pi_rho(uniform_measure(2), 0.5), 6, cap=2_000_000)
    return lv


def one_shot_counts(vals):
    uniq, cnt = np.unique(vals, return_counts=True)
    return Counter(dict(zip(uniq.tolist(), cnt.tolist())))


def assert_same_counts(got, want):
    """Same keys, counts, key order and Python types."""
    assert list(got.items()) == list(want.items())
    assert [(type(k), type(c)) for k, c in got.items()] == [
        (type(k), type(c)) for k, c in want.items()
    ]


def test_mass_counts_match_one_shot_unique(half_level6, monkeypatch):
    deep = build_measure([((1,), F(1, 2**21)), ((2,), 1 - F(1, 2**21))])
    levels = [
        *iter_convolution_levels(build_pi_rho(srw(2), 0.3), 3),  # float64
        *iter_convolution_levels(build_pi_rho(srw(2), F(3, 20)), 3),  # int64
        *iter_convolution_levels(deep, 4),  # int64, then Python ints
    ]
    dtypes = {lv.values.dtype for lv in levels}
    assert dtypes == {np.dtype(np.float64), np.dtype(np.int64), np.dtype(object)}
    assert half_level6.size > measures._READ_BLOCK
    assert_same_counts(half_level6.mass_counts(), one_shot_counts(half_level6.values))
    for block in (1, 3):
        monkeypatch.setattr(measures, "_READ_BLOCK", block)
        for lv in levels:
            assert_same_counts(lv.mass_counts(), one_shot_counts(lv.values))


def test_mass_counts_blocks_do_not_follow_the_chunk(monkeypatch):
    # at _CHUNK = 1 a readout in blocks of _CHUNK would count one value at a time
    *_, lv = iter_convolution_levels(build_pi_rho(srw(2), 0.3), 3)
    sizes = []
    counted = measures._counted
    monkeypatch.setattr(
        measures, "_counted",
        lambda blocks: counted((sizes.append(len(b)) or b, k) for b, k in blocks),
    )
    monkeypatch.setattr(measures, "_CHUNK", 1)
    want = one_shot_counts(lv.values)
    assert_same_counts(lv.mass_counts(), want)
    assert sizes == [1600]  # one block
    monkeypatch.setattr(measures, "_READ_BLOCK", 3)
    sizes.clear()
    assert_same_counts(lv.mass_counts(), want)
    assert sizes == [40] * 40  # stored rows are read whole: 40 heads x 40 tails


def test_mass_counts_stay_within_memory_bound(half_level6):
    # one np.unique over the whole level copies and sorts all its values
    assert half_level6.values.nbytes > 9 * 10**6
    tracemalloc.start()
    try:
        half_level6.mass_counts()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def test_entropy_curve_never_builds_its_deepest_level():
    # level 6 (1,194,649 float masses, 9.6 MB) was built only to be
    # counted: the traced peak was 13.3 MiB; level 5 and one batch of
    # the last step are left
    tracemalloc.start()
    try:
        entropy_exact_curve(build_pi_rho(uniform_measure(2), 0.5), 6, cap=2_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def count_batch_runs(mp):
    """Record each run of a ``_ProductStep``'s batch loop; return the record."""
    runs = []
    batches = measures._ProductStep.batches
    mp.setattr(measures._ProductStep, "batches", lambda self: runs.append(1) or batches(self))
    return runs


def value_reads(lv):
    """Every public read of a level that needs its values.

    Keys enter only through ``values_at``: their stride follows the
    deepest level of the run.
    """
    vals = lv.values
    return (
        vals.dtype, vals.tolist() if vals.dtype == object else vals.tobytes(),
        lv.factors and [f.tolist() for f in lv.factors],
        list(lv.iter_items()), [c.tolist() for c in lv.coordinate_codes()],
        lv.values_at(lv.keys).tolist(),
        Fraction(int(vals.sum()), lv.denominator) if lv.exact else math.fsum(vals.tolist()),
        lv.to_measure(),
    )


def readout(lv):
    """The histogram readout of a level and every read behind it."""
    counts = lv.mass_counts()
    spec = entropy_mass_spec(lv) if lv.exact and not lv.lost_mass else None
    return (list(counts.items()), [(type(k), type(c)) for k, c in counts.items()],
            lv.entropy_kept(), lv.entropy_upper_bound(), spec)


@settings(max_examples=100, deadline=None)
@example(mu=srw(2), rho=0.5, n=3, cap=DEFAULT_CAP)  # float64, deferred
@example(mu=srw(2), rho=F(1, 2), n=3, cap=DEFAULT_CAP)  # int64, deferred
@example(mu=srw(2), rho=F(1, 2**31), n=2, cap=DEFAULT_CAP)  # Python ints, deferred
@example(mu=srw(2), rho=F(1, 2), n=3, cap=200)  # level 3 cut
@given(
    mu=small_mus(),
    rho=st.one_of(
        st.floats(0, 1, exclude_min=True),
        st.fractions(0, 1, max_denominator=12),
        st.sampled_from([0.0, F(1, 2**31), F(2**31 - 1, 2**31)]),  # F(1, 2**31): object
    ),
    n=st.integers(1, 3),
    cap=st.one_of(st.integers(1, 30), st.just(DEFAULT_CAP)),
)
def test_deepest_level_reads_as_the_level_built_before_another(mu, rho, n, cap):
    step = build_pi_rho(mu, rho)
    want = list(iter_convolution_levels(step, n + 1, cap))[n - 1]
    meta = lambda lv: (lv.size, lv.level, lv.lost_mass, lv.truncated, lv.denominator)
    want_reads = (meta(want), readout(want), value_reads(want))
    with pytest.MonkeyPatch.context() as mp:
        runs = count_batch_runs(mp)
        *_, first = iter_convolution_levels(step, n, cap)
        *_, second = iter_convolution_levels(step, n, cap)
        runs.clear()
        deferred = not isinstance(first._vals, np.ndarray)
        assert (meta(first), meta(second)) == (want_reads[0],) * 2
        assert not runs  # nothing is built or counted for the sizes
        # readout first: the last step runs once to count it, once more to store it
        got_readout, got_readout_again = readout(first), readout(first)
        assert runs == [1] * deferred
        assert (got_readout, value_reads(first)) == want_reads[1:]
        assert got_readout_again == got_readout and runs == [1, 1] * deferred
        runs.clear()
        # values first: the step runs once, and the readout counts the values
        assert value_reads(second) == want_reads[2]
        assert readout(second) == want_reads[1] and runs == [1] * deferred
        assert first.keys.tolist() == second.keys.tolist()


@pytest.mark.parametrize("chunk", [1, 3])
@pytest.mark.parametrize("block", [1, 3])
def test_deferred_readout_merges_to_the_one_shot_counts(chunk, block, monkeypatch):
    monkeypatch.setattr(measures, "_CHUNK", chunk)
    monkeypatch.setattr(measures, "_READ_BLOCK", block)
    merges = []
    merged = measures._merged
    monkeypatch.setattr(measures, "_merged", lambda hists: merges.append(1) or merged(hists))
    for orbits, (step, n, dtype) in itertools.product([False, True], [
        (build_pi_rho(srw(2), 0.3), 3, np.float64),
        (build_pi_rho(srw(2), F(3, 20)), 3, np.int64),
        (build_pi_rho(srw(2), F(1, 2**31)), 2, object),
    ]):
        with pytest.MonkeyPatch.context() as mp:
            if not orbits:  # one stored row per head, on every step
                mp.setattr(measures, "_symmetric", lambda *a: False)
            else:  # orbit rows on every level a step makes, however small
                mp.setattr(measures, "_ORBIT_PRODUCTS", 0)
            *_, lv = iter_convolution_levels(step, n)
        assert not isinstance(lv._vals, np.ndarray)
        merges.clear()
        got = lv.mass_counts()
        # a batch per stored row, merged as they come: every target head
        # without orbits; with them 6 rows at level 3 and 3 at level 2
        # (the float steps, not dyadic, keep a row per head)
        assert len(merges) > (2 if orbits and dtype != np.float64 else 5)
        assert lv.values.dtype == dtype
        assert_same_counts(got, one_shot_counts(lv.values))


# values that blocks of either dtype draw from: floats, and Python ints past int64
COUNTED_VALUES = {"float": [0.0, 1e-300, 0.1, 0.25, 1.0, 7.5],
                  "object": [0, 1, 5, 2**62, 2**63, 2**70 + 1]}


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(sorted(COUNTED_VALUES)),
    blocks=st.lists(st.tuples(st.lists(st.integers(0, 5), max_size=12), st.integers(1, 4)),
                    min_size=1, max_size=6),
    read_block=st.sampled_from([1, 3, measures._READ_BLOCK]),
)
@example(kind="float", blocks=[([], 1)], read_block=1)  # one empty block
@example(kind="object", blocks=[([3], 1), ([], 2), ([3, 3, 3], 3)], read_block=1)
def test_counted_matches_a_counter(kind, blocks, read_block):
    # each block's values count with its multiplicity k; merges follow _READ_BLOCK
    pool = COUNTED_VALUES[kind]
    dtype = np.float64 if kind == "float" else object
    want = Counter()
    for picks, k in blocks:
        for i in picks:
            want[pool[i]] += k
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "_READ_BLOCK", read_block)
        uniq, cnt = measures._counted(
            (np.array([pool[i] for i in picks], dtype=dtype), k) for picks, k in blocks)
    assert uniq.tolist() == sorted(want) and cnt.tolist() == [want[v] for v in sorted(want)]
    assert all(type(v) is type(pool[0]) for v in uniq.tolist())


def test_readout_merges_take_linear_work_on_mostly_distinct_values(monkeypatch):
    # merging the waiting runs into the whole histogram at every batch is
    # quadratic: it merged 10,778 values for this level's deferred readout
    monkeypatch.setattr(measures, "_CHUNK", 1)
    monkeypatch.setattr(measures, "_READ_BLOCK", 1)
    merged_in = []
    merged = measures._merged
    monkeypatch.setattr(
        measures, "_merged",
        lambda hists: merged_in.append(sum(len(u) for u, _ in hists)) or merged(hists),
    )
    mu = build_measure([((1,), 0.1), ((2,), 0.2), ((-1,), 0.3), ((-2,), 0.4)])
    *_, lv = iter_convolution_levels(build_pi_rho(mu, 0.37), 3)
    assert not isinstance(lv._vals, np.ndarray)
    deferred = lv.mass_counts()
    deferred_work = sum(merged_in)
    want = one_shot_counts(lv.values)
    assert (lv.size, len(want)) == (1600, 417)
    merged_in.clear()
    assert_same_counts(lv.mass_counts(), want)  # now counted from the built values
    assert_same_counts(deferred, want)
    # each merge but the last takes under twice the runs that waited, the
    # last under twice the histogram plus _READ_BLOCK
    assert deferred_work <= 4 * lv.size + 1 and sum(merged_in) <= 4 * lv.size + 1


@st.composite
def bool_rows(draw):
    """Bool matrices with repeated rows and some all-False columns."""
    cols = draw(st.integers(1, 70))
    row = st.lists(st.booleans(), min_size=cols, max_size=cols)
    pool = draw(st.lists(row, min_size=1, max_size=6))
    rows = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=40))
    reach = np.array([pool[i] for i in rows], dtype=bool)
    reach[:, sorted(draw(st.sets(st.integers(0, cols - 1))))] = False
    return reach


@settings(max_examples=200, deadline=None)
@given(reach=bool_rows())
def test_row_patterns_match_unique_rows(reach):
    for m in (reach, reach[:1]):
        want_patterns, want_of = np.unique(m, axis=0, return_inverse=True)
        patterns, pattern_of = measures._row_patterns(m)
        assert patterns.dtype == bool and patterns.tolist() == want_patterns.tolist()
        assert pattern_of.tolist() == want_of.tolist()


def chunked_only(mp):
    """Make every level take the chunked step.

    Only level 1 of a product step is found to be factors, by
    ``_product_shape``; without it every level holds keys, and keys take
    the chunked step.
    """
    mp.setattr(measures, "_product_shape", lambda keys, stride: None)


# a_1^(+-1) times a_2^(+-1): a product step whose two coordinates have different supports
CROSS = build_measure([((x, y), F(1, 4)) for x in ((1,), (-1,)) for y in ((2,), (-2,))])


@pytest.mark.parametrize("orbits", [False, True], ids=["row-per-head", "orbit-rows"])
@pytest.mark.parametrize("step, n, shared, symmetric", [
    (build_pi_rho(srw(2), 0.5), 4, True, True),
    (build_pi_rho(srw(2), F(1, 2)), 4, True, True),
    (build_pi_rho(srw(3), 0.5), 3, True, False),  # floats in 1/72: not dyadic
    (build_pi_rho(srw(3), F(1, 3)), 3, True, True),
    (CROSS, 4, False, False),
], ids=["F_2-float", "F_2-exact", "F_3-float", "F_3-exact", "cross"])
def test_product_step_builds_one_preimage_table_when_the_tails_repeat_the_heads(
        step, n, shared, symmetric, orbits, monkeypatch):
    # the tails of pi_rho repeat its heads, so one table serves both sides
    with pytest.MonkeyPatch.context() as mp:
        chunked_only(mp)
        want = [(lv.keys, lv.values, lv.mass_counts()) for lv in iter_convolution_levels(step, n)]
    if orbits:  # orbit rows on every level a step makes, where the step allows
        monkeypatch.setattr(measures, "_ORBIT_PRODUCTS", 0)
    else:
        monkeypatch.setattr(measures, "_symmetric", lambda *a: False)
    calls, preimages = [], measures._preimages
    monkeypatch.setattr(measures, "_preimages", lambda im: calls.append(1) or preimages(im))
    per_level, by_orbit = [], []
    for lv, (keys, vals, counts) in zip(iter_convolution_levels(step, n), want):
        per_level.append(len(calls))
        calls.clear()
        by_orbit.append(lv._orbits is not None or getattr(lv._vals, "orbits", None) is not None)
        assert_same_counts(lv.mass_counts(), counts)
        heads, tails = lv.factors
        stride = lv._code.stride
        assert heads.tolist() == np.unique(keys // stride).tolist()
        assert tails.tolist() == np.unique(keys % stride).tolist()
        assert lv.keys.tolist() == keys.tolist()
        assert lv.values.dtype == vals.dtype and lv.values.tobytes() == vals.tobytes()
    assert per_level == [0] + [1 if shared else 2] * (n - 1)
    assert by_orbit == [False] + [orbits and symmetric] * (n - 1)


def factored_levels(step, n, cap=DEFAULT_CAP):
    """Whether each level is held as factors."""
    return [lv.factors is not None for lv in iter_convolution_levels(step, n, cap=cap)]


def count_product_steps(mp):
    """Record the size of the level each ``_ProductStep`` reads; return the record."""
    calls = []
    step_cls = measures._ProductStep
    mp.setattr(measures, "_ProductStep", lambda *a: calls.append(len(a[-1])) or step_cls(*a))
    return calls


def assert_matches_brute_force(got, full):
    """Exact weights equal; float weights within rounding, as brute force
    adds each atom's terms in another order and drops those that underflow."""
    if got.exact:
        assert got.atoms == full.atoms
        return
    g, f = got._lookup, full._lookup
    for a in g.keys() | f.keys():
        assert math.isclose(g.get(a, 0.0), f.get(a, 0.0), rel_tol=1e-12, abs_tol=1e-300)


# F_6 with letter weights 1/78 .. 12/78: unequal terms, so the order of
# a float sum shows in its bits
LOPSIDED_F6 = build_measure(
    [((x,), F(i, 78)) for i, x in enumerate([1, 2, 3, 4, 5, 6, -1, -2, -3, -4, -5, -6], 1)]
)


@settings(max_examples=60, deadline=None)
# F_6: the identity pair of level 2 sums 12 x 12 = 144 terms, past the
# 128 that numpy's pairwise summation adds in one block
@example(mu=uniform_measure(6), rho=0.3, drop=set(), n=2, cap=DEFAULT_CAP)
@example(mu=uniform_measure(6), rho=F(3, 10), drop=set(), n=2, cap=DEFAULT_CAP)
@example(mu=LOPSIDED_F6, rho=0.3, drop=set(), n=2, cap=DEFAULT_CAP)
@given(
    mu=small_mus(),
    rho=st.one_of(
        st.floats(0, 1, exclude_min=True),
        st.fractions(0, 1, max_denominator=12).filter(lambda r: r > 0),
        st.sampled_from([0.0, F(0)]),
    ),
    drop=st.sets(st.integers(0, 15), max_size=6),
    n=st.integers(2, 3),
    cap=st.one_of(st.integers(1, 30), st.just(DEFAULT_CAP)),
)
def test_product_route_matches_chunked_route(mu, rho, drop, n, cap):
    pi = build_pi_rho(mu, rho)
    # dropping atoms gives pair steps whose first words have unequal tail sets
    kept = [aw for i, aw in enumerate(pi.atoms) if i not in drop] or pi.atoms
    total = sum(w for _, w in kept) if pi.exact else math.fsum(w for _, w in kept)
    step = build_measure([(a, w / total) for a, w in kept], rank=mu.rank, kind="pair")
    for chunk in (1, 3, measures._CHUNK):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(measures, "_CHUNK", chunk)
            chunked_only(mp)
            want = level_record(step, n, cap)
            assert not any(factored_levels(step, n, cap))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(measures, "_CHUNK", chunk)
            products = count_product_steps(mp)
            assert level_record(step, n, cap) == want
        # a level is factors exactly when the step is a product (at 0 < rho,
        # supp(mu) x supp(mu)) and no cap has cut it or a level before it,
        # that is no uncut level so far has more than cap atoms (a cut mass
        # that underflows to 0.0 still cuts); factors take the product
        # step, keys the chunked step
        firsts, seconds = ({a[c] for a, _ in step.atoms} for c in (0, 1))
        product = step.support_size == len(firsts) * len(seconds)
        sizes = itertools.accumulate(
            (lv.size for lv in iter_convolution_levels(step, n)), max
        )
        factored = [product and size <= cap for size in sizes]
        assert factored_levels(step, n, cap) == factored
        assert len(products) == sum(factored[:-1])
    for lvl, lv in enumerate(iter_convolution_levels(step, n, cap), start=1):
        if lv.lost_mass:
            break
        assert_matches_brute_force(lv.to_measure(), brute_force_convolution(step, lvl))


def test_plane_sum_adds_in_reduceat_order():
    # the product step's sums must have the bits of the chunked step's
    # np.add.reduceat, which adds a segment as a0 + pairwise(a1, ...); if
    # a numpy release changes that order, this fails before any golden
    rng = np.random.default_rng(17)
    reordered = 0
    for count in range(1, 301):
        # values over many exponents: another summation order changes bits
        planes = rng.random((count, 3, 4)) * 2.0 ** rng.integers(-60, 60, (count, 3, 4))
        rows = np.moveaxis(planes, 0, -1).reshape(12, count)
        # the second of two segments per row, as the chunked step cuts them
        want = np.add.reduceat(np.hstack([rows[:, ::-1], rows]), [0, count], axis=1)[:, 1]
        terms = planes.copy()
        assert measures._plane_sum(terms[0], terms[1:]).tobytes() == want.reshape(3, 4).tobytes()
        left_to_right = functools.reduce(np.add, planes)
        reordered += left_to_right.tobytes() != want.reshape(3, 4).tobytes()
    assert reordered > 250  # a plain left-to-right sum would not pass


def test_non_product_step_takes_the_chunked_step():
    # first word (1,) meets two second words, (2,) one: not a product.
    # Caps 1 and 2 leave one head, a level of product shape, yet the step
    # is not a product, so its levels stay keys and take the chunked step
    step = build_measure(
        [(((1,), (1,)), F(1, 2)), (((1,), (2,)), F(1, 4)), (((2,), (1,)), F(1, 4))]
    )
    for cap in (1, 2, DEFAULT_CAP):
        with pytest.MonkeyPatch.context() as mp:
            products = count_product_steps(mp)
            levels = list(iter_convolution_levels(step, 4, cap))
        assert not products and not any(lv.factors is not None for lv in levels)
        # the reference: each kept level times the step, cut to the cap
        kept, lost = ((((), ()), F(1)),), F(0)
        for lvl, lv in enumerate(levels, start=1):
            full: dict = {}
            for (u1, u2), w in kept:
                for (a1, a2), v in step.atoms:
                    key = (multiply(u1, a1), multiply(u2, a2))
                    full[key] = full.get(key, 0) + w * v
            # the cap heaviest atoms, ties in shortlex order
            ranked = sorted(
                full.items(), key=lambda aw: (-aw[1], atom_order(aw[0], "pair", step.rank))
            )
            kept = tuple(sorted(ranked[:cap]))
            lost += sum(full.values()) - sum(w for _, w in kept)
            assert lv.to_measure().atoms == kept and lv.lost_mass == lost
            if cap == DEFAULT_CAP:
                assert_measures_equal(lv.to_measure(), brute_force_convolution(step, lvl))


def test_a_level_past_the_materialize_cap_is_refused(monkeypatch):
    lv = list(iter_convolution_levels(build_pi_rho(srw(2), F(1, 2)), 2))[1]
    monkeypatch.setattr(measures, "_MATERIALIZE_CAP", lv.size - 1)
    with pytest.raises(BudgetError, match="level too large to materialize"):
        lv.to_measure()
    monkeypatch.setattr(measures, "_MATERIALIZE_CAP", lv.size)
    assert lv.to_measure().support_size == lv.size == 169


@pytest.mark.parametrize("cap, sizes", [
    # levels 1-2 of pi_0.3 on F_2 are products (16 and 169 atoms); level 3
    # is made from level 2's factors and cut, so levels 4 and 5 take the
    # chunked step
    (500, [16, 169]),
    # level 1 cut to one atom: a product in shape, yet cut, so every later
    # level takes the chunked step
    (1, []),
])
def test_levels_cut_by_a_cap_stay_keys(cap, sizes):
    step = build_pi_rho(srw(2), 0.3)
    with pytest.MonkeyPatch.context() as mp:
        chunked_only(mp)
        want = level_record(step, 5, cap)
    with pytest.MonkeyPatch.context() as mp:
        steps = count_product_steps(mp)
        assert level_record(step, 5, cap) == want
    assert steps == sizes
    assert factored_levels(step, 5, cap) == [True] * len(sizes) + [False] * (5 - len(sizes))


def test_product_levels_sort_no_products(monkeypatch):
    def refuse(keys, key_bound):
        raise AssertionError("a product level fell back to the chunked step")

    monkeypatch.setattr(measures, "_sort_in_place", refuse)
    step = build_pi_rho(uniform_measure(2), 0.5)
    levels = list(iter_convolution_levels(step, 6, cap=1_000_000))
    # the squares of the single supports, level 6 cut to the cap; the cap keeps keys
    assert [lv.size for lv in levels] == [k * k for k in (4, 13, 40, 121, 364)] + [1_000_000]
    assert [lv.factors is not None for lv in levels] == [True] * 5 + [False]


def orbit_reads(step, n, cap=2_000_000):
    """Per level: whether it stores rows by orbit, then its histogram (items
    and types), kept-entropy bits, value bytes, keys, size and lost mass,
    each read before the values are expanded."""
    as_bytes = lambda a: a.tolist() if a.dtype == object else a.tobytes()
    out = []
    for lv in iter_convolution_levels(step, n, cap=cap):
        by_orbit = lv._orbits is not None or getattr(lv._vals, "orbits", None) is not None
        counts = lv.mass_counts()
        out.append((
            by_orbit, list(counts.items()), [(type(k), type(c)) for k, c in counts.items()],
            lv.entropy_kept().hex(), as_bytes(lv.values), as_bytes(lv.keys), lv.size,
            lv.lost_mass,
        ))
    return out


@pytest.mark.parametrize("mu, n", [
    (uniform_measure(1), 6),  # orbits of 2 words: a^j and a^-j
    (uniform_measure(2), 6),
    # level 5 of F_3 has 15.3M pair atoms and level 6 381M
    (uniform_measure(3), 4),
    (uniform_measure(3, inverse_free=True), 6),
], ids=["free_group:1", "free_group:2", "free_group:3", "free_semigroup:3"])
@pytest.mark.parametrize("rho", [F(0), F(1, 10), F(3, 20), F(1, 2), F(1), 0.5, 0.25])
def test_orbit_rows_read_as_one_row_per_head(mu, rho, n):
    step = build_pi_rho(mu, rho)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "_symmetric", lambda *a: False)
        want = orbit_reads(step, n)
    assert not any(r[0] for r in want)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "_ORBIT_PRODUCTS", 0)
        everywhere = orbit_reads(step, n)
    got = orbit_reads(step, n)
    # at break-even 0, orbits on every factored level (0 < rho) of an exact
    # or dyadic step but level 1, which no step makes: floats on F_3 and the
    # semigroup (1/36, 1/9) are not dyadic
    symmetric = 0 < rho and (step.exact or mu.rank < 3)
    assert [r[0] for r in everywhere] == [False] + [symmetric] * (n - 1)
    # at the default, from the first level whose step makes _ORBIT_PRODUCTS
    # products on: level l's step multiplies each atom of level l - 1 by each
    # step atom (level 0 is one atom)
    products = [size * step.support_size for size in [1] + [r[6] for r in want[:-1]]]
    starts = [symmetric and p >= measures._ORBIT_PRODUCTS for p in products]
    assert [r[0] for r in got] == starts and starts == sorted(starts)
    # rows start within the run on every symmetric step but F_1's, whose levels stay small
    assert not starts[0] and any(starts) == (symmetric and mu.rank > 1)
    assert [r[1:] for r in everywhere] == [r[1:] for r in want]
    assert [r[1:] for r in got] == [r[1:] for r in want]
    # a level the cap cuts is summed for every head, its source read through
    # the orbit rows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "_symmetric", lambda *a: False)
        want_cut = level_record(step, n, 20_000)
    for break_even in (0, measures._ORBIT_PRODUCTS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(measures, "_ORBIT_PRODUCTS", break_even)
            assert level_record(step, n, 20_000) == want_cut
    # brute force enumerates |support|**n sequences: 36**4 is too slow on F_3
    for lvl, lv in enumerate(iter_convolution_levels(step, 4 if step.support_size <= 16 else 3), 1):
        assert_matches_brute_force(lv.to_measure(), brute_force_convolution(step, lvl))


@pytest.mark.parametrize("mu, n, cap", [
    (srw(2), 5, 20_000),  # level 5, 132,496 pair atoms, is cut
    (semi(3), 6, 10_000),  # level 5, 59,049 pair atoms, is cut; level 6 is keys
], ids=["free_group:2", "free_semigroup:3"])
def test_a_cut_step_after_orbit_rows_expands_nothing(mu, n, cap):
    step = build_pi_rho(mu, F(1, 2))

    def kept_reads():
        out = []
        for lv in iter_convolution_levels(step, n, cap=cap):
            by_orbit = lv._orbits is not None or getattr(lv._vals, "orbits", None) is not None
            out.append((by_orbit, lv.size, lv.lost_mass, lv.entropy_kept().hex(),
                        lv.keys.tobytes(), lv.factors is None and lv.values.tobytes()))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "_symmetric", lambda *a: False)
        want = kept_reads()
    expanded, expand = [], measures._Orbits.expand
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "_ORBIT_PRODUCTS", 0)
        mp.setattr(measures._Orbits, "expand",
                   lambda self, rows: expanded.append(len(rows)) or expand(self, rows))
        got = kept_reads()
    # levels 2-4 store orbit rows, and the cut step reads level 4 through
    # them; only the cut levels' values are read (keys, not factors)
    assert [r[0] for r in got] == [False] * 1 + [True] * 3 + [False] * (n - 4)
    assert expanded == [] and got[4][2] > 0
    assert [r[1:] for r in got] == [r[1:] for r in want]


def test_orbit_rows_start_by_the_products_of_the_step_not_the_atoms():
    # level 2 of F_8 has 58,081 pair atoms, made by 256 x 256 = 2**16 products
    step = build_pi_rho(srw(8), F(1, 2))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "_symmetric", lambda *a: False)
        want = [r[1:] for r in orbit_reads(step, 2)]
    for break_even, starts in [(2**16, [False, True]), (2**16 + 1, [False, False])]:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(measures, "_ORBIT_PRODUCTS", break_even)
            reads = orbit_reads(step, 2)
        assert [r[0] for r in reads] == starts and [r[1:] for r in reads] == want
    assert want[1][5] == 58_081 and measures._ORBIT_PRODUCTS == 2**16


# the deepest n each symmetric step runs to in the tests below
SYMMETRIC_MUS = [(srw(1), 6), (srw(2), 6), (srw(3), 4), (semi(1), 6), (semi(2), 6), (semi(3), 6)]


@settings(max_examples=20, deadline=None)
@example(mu_n=(srw(2), 6), rho=0.5, n=6, cap=2_000_000)  # rows start at level 5
@example(mu_n=(semi(3), 6), rho=F(1, 2), n=6, cap=DEFAULT_CAP)  # at level 6
@example(mu_n=(srw(3), 4), rho=F(1, 4), n=4, cap=700)  # level 2 cut
@given(
    mu_n=st.sampled_from(SYMMETRIC_MUS),
    rho=st.one_of(
        st.fractions(0, 1, max_denominator=12),
        st.sampled_from([0.0, 0.125, 0.25, 0.5, 0.75, 1.0]),  # dyadic floats
    ),
    n=st.integers(1, 6),
    cap=st.one_of(st.integers(1, 3_000), st.just(DEFAULT_CAP)),
)
def test_levels_read_the_same_at_any_break_even_and_chunk(mu_n, rho, n, cap):
    mu, deepest = mu_n
    step, n = build_pi_rho(mu, rho), min(n, deepest)
    reads = []
    for break_even, chunk in itertools.product(
            [0, measures._ORBIT_PRODUCTS, 2**63], [1, measures._CHUNK]):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(measures, "_ORBIT_PRODUCTS", break_even)
            mp.setattr(measures, "_CHUNK", chunk)
            reads.append([r[1:] for r in orbit_reads(step, n, cap)])
    assert all(r == reads[0] for r in reads[1:])


@pytest.mark.parametrize("mu, rho, n", [
    (srw(2), 0.5, 6), (srw(3), F(1, 4), 4), (semi(3), F(1, 2), 6),
], ids=["free_group:2", "free_group:3", "free_semigroup:3"])
@pytest.mark.parametrize("chunk", [1, measures._CHUNK])
def test_streamed_readout_counts_each_block_with_one_orbit_size(mu, rho, n, chunk, monkeypatch):
    monkeypatch.setattr(measures, "_CHUNK", chunk)
    *_, lv = iter_convolution_levels(build_pi_rho(mu, rho), n, cap=2_000_000)
    step = lv._vals
    assert step.orbits is not None
    log = []
    batches, counted = measures._ProductStep.batches, measures._counted

    def logged_batches(self):
        for t, sums in batches(self):
            log.append((t.copy(), sums.copy(), []))
            yield t, sums

    def logged_counted(blocks):
        return counted((log[-1][2].append((flat.copy(), k)) or (flat, k) for flat, k in blocks))

    monkeypatch.setattr(measures._ProductStep, "batches", logged_batches)
    monkeypatch.setattr(measures, "_counted", logged_counted)
    got = lv.mass_counts()
    # each batch's blocks are its rows' sums, one block per orbit size
    for t, sums, blocks in log:
        sizes = step.orbits.sizes[t]
        want = [(np.sort(sums[:, sizes == k].reshape(-1)), k) for k in np.unique(sizes)]
        assert [(np.sort(flat).tobytes(), k) for flat, k in blocks] == [
            (flat.tobytes(), k) for flat, k in want]
    assert sum(len(flat) * k for *_, blocks in log for flat, k in blocks) == lv.size
    # at _CHUNK = 1 a batch is one row; a wider batch of several orbit sizes
    # is cut, and the counts are the one-shot counts
    assert (sum(len(blocks) for *_, blocks in log) > len(log)) == (chunk > 1)
    assert_same_counts(got, one_shot_counts(lv.values))


def symmetric(step, n):
    """``measures._symmetric`` on the step's level 1, held as factors."""
    lv = next(iter_convolution_levels(step, 1))
    return measures._symmetric(step, n, lv._code, lv.factors, lv.values)


def reference_symmetric(step, n):
    """The orbit-row condition of ``_symmetric``, read off the step's atoms:
    each generating move must send every atom to an atom of equal weight."""
    if not step.exact:
        e = max(w.as_integer_ratio()[1].bit_length() - 1 for _, w in step.atoms)
        if e * n > 53:
            return False
    k = step.rank
    moves = [{1: 2, 2: 1}] if k > 1 else []
    if k > 2:
        moves.append({i: i % k + 1 for i in range(1, k + 1)})
    if not step.inverse_free:
        moves.append({1: -1})
    weights = dict(step.atoms)
    for move in moves:
        image = lambda word: tuple(move.get(abs(x), abs(x)) * (1 if x > 0 else -1) for x in word)
        if any(weights.get((image(x), image(y))) != w for (x, y), w in step.atoms):
            return False
    return bool(moves)


def test_symmetry_needs_an_invariant_step_and_exact_sums():
    assert symmetric(build_pi_rho(srw(2), F(3, 10)), 6)
    assert symmetric(build_pi_rho(semi(3), F(1, 2)), 6)
    # float 0.3 is not dyadic: sums could depend on their order
    assert not symmetric(build_pi_rho(srw(2), 0.3), 6)
    # a lopsided step is kept by no signed permutation but the identity
    assert not symmetric(build_pi_rho(LOPSIDED_F6, F(1, 2)), 2)
    lopsided = build_measure([((1,), F(1, 2)), ((-1,), F(1, 4)), ((2,), F(1, 8)), ((-2,), F(1, 8))])
    assert not symmetric(build_pi_rho(lopsided, F(1, 2)), 2)
    # float pi_0.5 on F_2 has weights in 2**-5: levels to 10 keep 53 bits, not 11
    half = build_pi_rho(srw(2), 0.5)
    assert symmetric(half, 10) and not symmetric(half, 11)
    # one generator of a semigroup: only the identity
    assert not symmetric(build_pi_rho(semi(1), F(1, 2)), 4)
    assert symmetric(build_pi_rho(srw(1), F(1, 2)), 4)


@st.composite
def product_steps(draw):
    """Pair steps held as factors at level 1: pi_rho at 0 < rho <= 1 of a
    step on words of at most two letters, whose support and weights are
    often kept by the generators' permutations (every word of some lengths,
    a weight per length) and often not."""
    rank = draw(st.integers(1, 3))
    letters = list(range(1, rank + 1))
    if not draw(st.booleans()):
        letters += [-x for x in letters]
    words = sorted({reduce_word(w) for w in itertools.chain(
        [()], ((x,) for x in letters), itertools.product(letters, repeat=2))})
    lengths = draw(st.sets(st.integers(0, 2), min_size=1))
    by_length = {k: draw(st.integers(1, 3)) for k in lengths}
    atoms = [w for w in words if len(w) in lengths]
    if len(atoms) > 1 and draw(st.booleans()):  # one word dropped: a move may leave the support
        atoms.pop(draw(st.integers(0, len(atoms) - 1)))
    weights = [by_length[len(w)] for w in atoms]
    if draw(st.booleans()):  # one word's weight changed: symmetric only by chance
        i = draw(st.integers(0, len(atoms) - 1))
        weights[i] = draw(st.integers(1, 3))
    mu = build_measure([(a, F(w, sum(weights))) for a, w in zip(atoms, weights)], rank=rank)
    if draw(st.booleans()):
        mu = mu.as_float()
    return build_pi_rho(mu, draw(st.sampled_from([F(1, 2), F(3, 10), F(1), 0.5, 0.25])))


@settings(max_examples=200, deadline=None)
@given(step=product_steps(), n=st.integers(1, 12))
@example(step=build_pi_rho(LOPSIDED_F6, F(1, 2)), n=2)
# equal weights on a support the swap of a_1 and a_2 leaves: (1, 1) goes to (2, 2)
@example(step=build_pi_rho(build_measure([((1,), F(1, 3)), ((2,), F(1, 3)), ((1, 1), F(1, 3))]),
                          F(1, 2)), n=2)
def test_symmetry_on_level_one_matches_the_atom_images(step, n):
    assert symmetric(step, n) == reference_symmetric(step, n)


@pytest.mark.parametrize("rank, inverse_free", [(2, False), (3, False), (3, True)])
def test_relabelling_is_the_shortlex_least_image(rank, inverse_free):
    code = _WordCode(rank, inverse_free, 4)
    letters = code.letters
    words = [w for length in range(5) for w in itertools.product(letters, repeat=length)
             if reduce_word(w) == w]
    codes = np.array(sorted(code.encode(w) for w in words))
    relabelled, image = measures._relabelled(code, codes)
    signs = [(1,)] * rank if inverse_free else [(1, -1)] * rank
    group = [dict(zip(range(1, rank + 1), (s * p for s, p in zip(sg, perm))))
             for perm in itertools.permutations(range(1, rank + 1))
             for sg in itertools.product(*signs)]
    act = lambda g, w: tuple(g[abs(x)] * (1 if x > 0 else -1) for x in w)
    for c, r, g in zip(codes.tolist(), relabelled.tolist(), image.tolist()):
        w = code.decode(c)
        assert r == min(code.encode(act(h, w)) for h in group)
        assert code.encode(act(dict(zip(range(1, rank + 1), g)), w)) == r


def test_numerators_are_int64_until_a_level_needs_more():
    # D = 320 and 320**7 <= 2**62 < 320**8: asking for level 8 must not
    # turn the numerators of the levels before it into Python ints
    pi = build_pi_rho(srw(2), F(3, 20))
    deep = itertools.islice(iter_convolution_levels(pi, 8), 6)
    for a, b in zip(deep, iter_convolution_levels(pi, 6)):
        assert a.values.dtype == b.values.dtype == np.int64
        assert a.values.tobytes() == b.values.tobytes()
        assert a.denominator == b.denominator and a.lost_mass == b.lost_mass
        for ca, cb in zip(a.coordinate_codes(), b.coordinate_codes()):
            assert ca.tolist() == cb.tolist()
    # D = 2**21: D**2 fits, D**3 does not
    step = build_measure([((1,), F(1, 2**21)), ((2,), 1 - F(1, 2**21))])
    levels = list(iter_convolution_levels(step, 4))
    assert [lv.values.dtype for lv in levels] == [np.int64, np.int64, object, object]
    for lvl, lv in enumerate(levels, start=1):
        assert_measures_equal(lv.to_measure(), brute_force_convolution(step, lvl))


@settings(max_examples=200, deadline=None)
@given(
    weights=st.lists(st.integers(0, 4), min_size=2, max_size=40),
    cap=st.integers(1, 39),
    dtype=st.sampled_from([np.float64, np.int64, object]),
)
def test_heaviest_atoms_are_the_lexsort_pick(weights, cap, dtype):
    # tie-heavy values on sorted keys; the cap step runs only past cap atoms
    cap = min(cap, len(weights) - 1)
    vals = np.array([w / 7 if dtype is np.float64 else w for w in weights], dtype=dtype)
    keys = np.arange(len(vals)) * 3 + 1
    order = np.lexsort((keys, -vals))
    keep = measures._heaviest(vals, cap)
    assert np.flatnonzero(keep).tolist() == np.sort(order[:cap]).tolist()
    dropped = vals[np.sort(order[cap:])]
    assert vals[~keep].tolist() == dropped.tolist()
    assert repr(vals[~keep].sum()) == repr(dropped.sum())


# ---------------------------------------------------------------------------
# entropy helpers


def test_shannon_entropy_uniform():
    assert abs(shannon_entropy(semi(2)) - math.log(2)) < 1e-15
    assert abs(shannon_entropy(srw(2)) - math.log(4)) < 1e-15


def test_point_mass_at_identity():
    pm = build_measure([((), F(1))], rank=2)
    assert shannon_entropy(pm) == 0.0


def test_two_step_return_probabilities_group():
    # SRW on F_2: the walk returns to the identity in two steps along 4
    # of the 16 increment pairs, so mu_2(e) = 1/4; under the independent
    # coupling the pair returns with the square of that
    mu = srw(2)
    mu2 = brute_force_convolution(mu, 2)
    assert weight(mu2, ()) == F(1, 4)
    indep2 = brute_force_convolution(build_pi_rho(mu, 1), 2)
    assert weight(indep2, ((), ())) == F(1, 16)
    left, _ = marginals(indep2)
    assert weight(left, ()) == F(1, 4)


def test_tv_distance_basic():
    a = build_measure([((1,), H), ((2,), H)])
    b = build_measure([((1,), F(1, 4)), ((2,), F(3, 4))])
    assert tv_distance(a, b) == F(1, 4)
    assert tv_distance(a, a) == 0


def test_certified_compare_structural_equal():
    mu = semi(2)
    spec1 = entropy_mass_spec(mu)
    assert certified_entropy_compare(spec1, spec1) == 0
    # diagonal coupling has the same mass multiset as mu itself
    diag = build_pi_rho(mu, 0)
    assert certified_entropy_compare(entropy_mass_spec(diag), spec1) == 0
    # independent coupling is the tensor square: factor-2 equality
    indep = build_pi_rho(mu, 1)
    assert certified_entropy_compare(entropy_mass_spec(indep), spec1, factor=2) == 0


def test_certified_compare_strict_signs():
    mu = srw(2)
    pi = build_pi_rho(mu, F(1, 2))
    s_mu = entropy_mass_spec(mu)
    s_pi = entropy_mass_spec(pi)
    assert certified_entropy_compare(s_pi, s_mu) == 1  # H(pi) > H(mu)
    assert certified_entropy_compare(s_pi, s_mu, factor=2) == -1  # H(pi) < 2 H(mu)


def test_certified_compare_signs_a_gap_far_below_1e_40():
    # H(a) - H(b) is about 2.7e-51: the enclosure of the difference excludes 0
    d, dps = 4 * 10**50, mpmath.iv.dps
    a = (d, Counter({d // 4 + 1: 1, 3 * d // 4 - 1: 1}))
    b = (d, Counter({d // 4: 1, 3 * d // 4: 1}))
    assert certified_entropy_compare(a, b) == 1
    assert certified_entropy_compare(b, a) == -1
    # two uniform laws on four atoms, written over different denominators:
    # no structural check sees the equality, and the enclosure holds 0
    with pytest.raises(ValidationError, match="not certified"):
        certified_entropy_compare((4, Counter({1: 4})), (8, Counter({2: 4})))
    assert mpmath.iv.dps == dps  # the shared interval context is left as it was


def test_certified_compare_rejects_float_and_truncated():
    f = build_measure([((1,), 0.5), ((2,), 0.5)])
    with pytest.raises(ValidationError):
        entropy_mass_spec(f)
    lv = list(iter_convolution_levels(srw(2), 3, cap=10))[-1]
    with pytest.raises(ValidationError):
        entropy_mass_spec(lv)


def test_entropy_mass_spec_of_level_matches_measure():
    step = build_pi_rho(semi(2), F(1, 2))
    lv = list(iter_convolution_levels(step, 3))[-1]
    d1, c1 = entropy_mass_spec(lv)
    d2, c2 = entropy_mass_spec(lv.to_measure())
    assert (d1, c1) == (d2, c2)


# ---------------------------------------------------------------------------
# JSON parsing


def test_json_roundtrip_exact_and_float():
    cases = [
        ({"rank": 2, "kind": "single",
          "atoms": [{"word": [1], "weight": "1/4"}, {"word": [-1], "weight": "1/4"},
                    {"word": [2], "weight": "1/4"}, {"word": [-2], "weight": "1/4"}]},
         srw(2)),
        ({"rank": 2, "kind": "pair",
          "atoms": [{"word": [[1], [1]], "weight": "5/12"}, {"word": [[1], [2]], "weight": "1/12"},
                    {"word": [[2], [1]], "weight": "1/12"}, {"word": [[2], [2]], "weight": "5/12"}]},
         build_pi_rho(semi(2), F(1, 3))),
        ({"rank": 1, "kind": "single",
          "atoms": [{"word": [1], "weight": "0.5"}, {"word": [-1], "weight": 0.5}]},
         build_measure([((1,), 0.5), ((-1,), 0.5)])),
        ({"rank": 2, "kind": "single",
          "atoms": [{"word": [1, -1], "weight": 1}]},
         build_measure([((), F(1))], rank=2)),
    ]
    for d, mu in cases:
        back = measure_from_json_dict(json.loads(json.dumps(d)))
        assert back.atoms == mu.atoms
        assert back.rank == mu.rank and back.kind == mu.kind
        assert back.exact == mu.exact


def test_json_refuses_empty_atoms_unknown_kinds_malformed_records_and_weights():
    good = {"rank": 2, "kind": "single", "atoms": [{"word": [1], "weight": 1}]}
    for change, match in [
        ({"atoms": []}, "non-empty atom list"),
        ({"kind": "triple"}, "unknown measure kind 'triple'"),
        ({"atoms": [{"word": [1]}]}, "malformed atom record"),
        ({"atoms": [[[1], 1]]}, "malformed atom record"),
        ({"atoms": [{"word": [1], "weight": None}]}, "cannot parse weight None"),
        ({"atoms": [{"word": [1], "weight": "1/0"}]}, "cannot parse weight '1/0'"),
    ]:
        with pytest.raises(InputError, match=match):
            measure_from_json_dict({**good, **change})


def test_json_error_cases():
    good = {"rank": 2, "kind": "single",
            "atoms": [{"word": [1], "weight": "1/2"}, {"word": [2], "weight": "1/2"}]}
    assert measure_from_json_dict(good).atoms == semi(2).atoms
    bad = dict(good)
    bad["extra"] = 1
    with pytest.raises(InputError):
        measure_from_json_dict(bad)
    for key in ("rank", "kind", "atoms"):
        b = dict(good)
        del b[key]
        with pytest.raises(InputError):
            measure_from_json_dict(b)
    b = dict(good)
    b["atoms"] = [{"word": [1], "weight": "one half"}]
    with pytest.raises(InputError):
        measure_from_json_dict(b)
    for weight in ("nan", "inf", "-inf", "NaN"):
        b["atoms"] = [{"word": [1], "weight": weight}]
        with pytest.raises(InputError, match="not finite"):
            measure_from_json_dict(b)
