"""Monte Carlo and exact estimators against closed forms and each other."""

import dataclasses
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisewalk import estimators, measures, walkers
from noisewalk.errors import (
    BudgetError,
    InputError,
    TruncationError,
    UnsupportedRegimeError,
    ValidationError,
)
from noisewalk.estimators import (
    DEFAULT_N_MAX,
    EstimateResult,
    _tv_pair_convolution,
    _tv_readout,
    _tv_value_classes,
    drift_mc,
    entropy_estimate,
    entropy_exact_curve,
    entropy_rate_estimate,
    rho_sweep,
    shannon_pointwise,
    tv_exact,
    tv_exact_curve,
    tv_lower_bound_mc,
)
from noisewalk.measures import (
    DEFAULT_CAP,
    FiniteMeasure,
    build_measure,
    build_pi_rho,
    iter_convolution_levels,
    uniform_measure,
)
from noisewalk.oracle import brute_force_convolution, h_semigroup, tv_distance, tv_semigroup
from noisewalk.rng import STREAM_TV_INDEPENDENT
from test_oracle import independent_pair

F = Fraction


def srw(rank=2):
    return uniform_measure(rank)


def semi(m=2):
    return uniform_measure(m, inverse_free=True)


# ---------------------------------------------------------------------------
# drift


def test_drift_semigroup_is_one_with_zero_variance():
    pi = build_pi_rho(semi(2), F(1, 2))
    r = drift_mc(pi, n=100, trials=50, seed=3)
    assert r.value == 1.0
    assert r.std_error == 0.0
    assert r.ci_low == r.ci_high == 1.0


def test_drift_free_group_ci_contains_half():
    r = drift_mc(srw(2), n=2000, trials=300, seed=11)
    assert r.ci_low <= 0.5 <= r.ci_high
    assert r.method == "drift-mc"
    assert r.n == 2000 and r.trials == 300


def test_drift_pair_coordinates_agree():
    pi = build_pi_rho(srw(2), 0.5)
    r = drift_mc(pi, n=1500, trials=300, seed=21)
    c1 = r.details["coord1"]
    c2 = r.details["coord2"]
    # the marginals coincide, so the coordinate intervals must overlap
    assert c1["ci_low"] <= c2["ci_high"] and c2["ci_low"] <= c1["ci_high"]
    # combined pair length dominates each coordinate
    assert r.value >= max(c1["value"], c2["value"]) - 1e-12


def test_drift_requires_two_trials():
    with pytest.raises(InputError):
        drift_mc(srw(2), n=10, trials=1, seed=0)


def test_drift_reproducible_and_worker_independent():
    pi = build_pi_rho(srw(2), 0.3)
    a = drift_mc(pi, n=500, trials=200, seed=5)
    b = drift_mc(pi, n=500, trials=200, seed=5)
    c = drift_mc(pi, n=500, trials=200, seed=5, workers=4)
    assert (a.value, a.std_error) == (b.value, b.std_error)
    assert (a.value, a.std_error) == (c.value, c.std_error)
    d = drift_mc(pi, n=500, trials=200, seed=6)
    assert d.value != a.value


# ---------------------------------------------------------------------------
# pointwise entropy


def test_shannon_pointwise_near_closed_form():
    for m, rho in [(2, 0.5), (3, 0.25)]:
        r = shannon_pointwise(m, rho, n=4000, trials=150, seed=8)
        h = h_semigroup(m, rho)
        assert abs(r.value - h) / h < 0.01
        assert r.ci_low <= h <= r.ci_high


def test_shannon_pointwise_endpoints_are_deterministic():
    # every trajectory has the same probability at rho = 0 and rho = 1,
    # so the estimator collapses to the exact value
    r0 = shannon_pointwise(2, 0.0, n=500, trials=20, seed=1)
    assert abs(r0.value - math.log(2)) < 1e-12
    assert r0.std_error == 0.0
    r1 = shannon_pointwise(2, 1.0, n=500, trials=20, seed=1)
    assert abs(r1.value - 2 * math.log(2)) < 1e-12
    assert r1.std_error == 0.0


def test_shannon_pointwise_validation():
    with pytest.raises(InputError):
        shannon_pointwise(1, 0.5, n=10, trials=5, seed=0)
    with pytest.raises(InputError):
        shannon_pointwise(2, -0.2, n=10, trials=5, seed=0)


# ---------------------------------------------------------------------------
# exact entropy curve


def test_entropy_curve_semigroup_linear_growth():
    pi = build_pi_rho(semi(2), F(1, 2))
    levels = entropy_exact_curve(pi, 5)
    h = h_semigroup(2, 0.5)
    for r in levels:
        assert abs(r.value - r.n * h) < 1e-10
    rate = entropy_rate_estimate(levels)
    assert abs(rate.value - h) < 1e-10
    assert rate.details["upper_rate"] >= h - 1e-10


def test_entropy_curve_group_sandwich():
    mu = srw(2)
    for rho in (F(0), F(1, 2), F(1)):
        pi = build_pi_rho(mu, rho)
        pair_levels = entropy_exact_curve(pi, 4)
        base_levels = entropy_exact_curve(mu, 4)
        for p, b in zip(pair_levels, base_levels, strict=True):
            assert b.value - 1e-10 <= p.value <= 2 * b.value + 1e-10


def test_entropy_curve_endpoint_identities():
    mu = srw(2)
    base = entropy_exact_curve(mu, 4)
    diag = entropy_exact_curve(build_pi_rho(mu, 0), 4)
    indep = entropy_exact_curve(build_pi_rho(mu, 1), 4)
    for b, d, i in zip(base, diag, indep, strict=True):
        assert abs(d.value - b.value) < 1e-10
        assert abs(i.value - 2 * b.value) < 1e-10


def test_entropy_rate_needs_two_untruncated_levels():
    levels = entropy_exact_curve(srw(2), 3, cap=3)
    assert all(r.details["truncated"] for r in levels)
    with pytest.raises(ValidationError):
        entropy_rate_estimate(levels)


def test_entropy_curve_fields_consistent():
    levels = entropy_exact_curve(srw(2), 3)
    assert all(isinstance(r, EstimateResult) for r in levels)
    assert [r.n for r in levels] == [1, 2, 3]
    for r in levels:
        assert (r.trials, r.method, r.std_error) == (1, "entropy-exact", 0.0)
        assert r.details == {"upper_bound": r.value, "truncated": False}
    rate = entropy_rate_estimate(levels)
    assert (rate.n, rate.trials, rate.method) == (3, 1, "entropy-increment")
    assert abs(rate.value - (levels[2].value - levels[1].value)) < 1e-15
    assert rate.details == {"upper_rate": min(r.value / r.n for r in levels)}


def test_entropy_increment_bounds_a_slightly_cut_level_from_above():
    # level 2 drops 3.9e-15, below the 1e-9 flag, so the rate reads it; its
    # kept entropy alone gave an increment below the uncut one
    pi = build_pi_rho(uniform_measure(2), 1e-6)
    cut = entropy_exact_curve(pi, 3, cap=168)
    assert [r.details["truncated"] for r in cut] == [False, False, True]
    assert cut[1].value < cut[1].details["upper_bound"]
    uncut = entropy_exact_curve(pi, 3)
    assert not any(r.details["truncated"] for r in uncut)
    rate = entropy_rate_estimate(cut)
    assert rate.n == 2
    assert rate.value == cut[1].details["upper_bound"] - cut[0].value
    assert rate.value >= uncut[1].value - uncut[0].value


# ---------------------------------------------------------------------------
# exact TV


def test_tv_routes_agree_exactly():
    mu = semi(2)
    for rho in (F(0), F(1, 4), F(2, 3), F(1)):
        a = list(_tv_value_classes(mu, rho, 4, DEFAULT_CAP))
        b = list(_tv_pair_convolution(mu, rho, 4, DEFAULT_CAP))
        assert all(isinstance(x, Fraction) for x in a + b)
        assert a == b


@st.composite
def letter_steps(draw):
    """Exact steps on some of the positive letters of rank 1-3."""
    rank = draw(st.integers(1, 3))
    letters = draw(st.lists(st.integers(1, rank), min_size=1, unique=True))
    raw = draw(st.lists(st.integers(1, 9), min_size=len(letters),
                        max_size=len(letters)))
    return build_measure(
        [((x,), F(w, sum(raw))) for x, w in zip(letters, raw)], rank=rank
    )


@settings(max_examples=200, deadline=None)
@given(mu=letter_steps(), rho=st.fractions(0, 1, max_denominator=12),
       n=st.integers(1, 4))
def test_tv_routes_agree_on_random_letter_steps(mu, rho, n):
    a = list(_tv_value_classes(mu, rho, n, DEFAULT_CAP))
    b = list(_tv_pair_convolution(mu, rho, n, DEFAULT_CAP))
    assert all(isinstance(x, Fraction) for x in a + b)
    assert a == b


def test_tv_exact_matches_enumeration_on_group():
    mu = srw(2)
    mumu = independent_pair(mu)
    for rho in (F(1, 4), F(9, 10)):
        pi = build_pi_rho(mu, rho)
        for n in (1, 2, 3):
            expect = tv_distance(
                brute_force_convolution(pi, n), brute_force_convolution(mumu, n)
            )
            assert tv_exact(mu, rho, n) == expect


def test_tv_exact_of_a_float_step_on_a_cancelling_support_matches_enumeration():
    # a float mu is its own as_float(), so the marginal levels convolve mu itself
    mu = build_measure([((1,), 0.4), ((-1,), 0.1), ((2,), 0.3), ((-2,), 0.2)])
    assert mu.as_float() is mu
    got = tv_exact_curve(mu, 0.3, 3)
    assert got == pytest.approx([0.49, 0.515536, 0.535246432], abs=1e-12)
    pi, mumu = build_pi_rho(mu, 0.3), independent_pair(mu)
    for n, v in enumerate(got, 1):
        expect = tv_distance(brute_force_convolution(pi, n), brute_force_convolution(mumu, n))
        assert v == pytest.approx(expect, abs=1e-12)


@pytest.mark.parametrize("estimate", [
    lambda pi: tv_exact_curve(pi, 0.5, 2),
    lambda pi: tv_lower_bound_mc(pi, 0.5, 5, trials=10, seed=1),
], ids=["tv_exact_curve", "tv_lower_bound_mc"])
def test_tv_estimators_refuse_a_pair_measure(estimate):
    with pytest.raises(ValidationError, match="single-coordinate"):
        estimate(build_pi_rho(srw(2), 0.5))


@pytest.mark.parametrize("fields, match", [
    ({"std_error": -0.1}, "std_error must be nonnegative"),
    ({"value": 0.7}, r"estimate 0.7 outside its interval \[0.4, 0.6\]"),
], ids=["negative-std-error", "value-outside-interval"])
def test_estimate_result_refuses_a_bad_interval(fields, match):
    shape = {"value": 0.5, "std_error": 0.1, "ci_low": 0.4, "ci_high": 0.6, "n": 1,
             "trials": 2, "method": "m"}
    with pytest.raises(ValidationError, match=match):
        EstimateResult(**{**shape, **fields})


def test_tv_exact_refuses_more_value_classes_than_the_cap():
    mu = build_measure([((1,), F(1, 2)), ((2,), F(1, 3)), ((3,), F(1, 6))])
    with pytest.raises(BudgetError, match="value-class count 21 exceeds cap 5"):
        list(tv_exact_curve(mu, F(1, 3), 4, cap=5))


def test_tv_exact_bounds_and_endpoints():
    for mu, m in ((semi(2), 2), (semi(3), 3)):
        assert tv_exact(mu, 1, 3) == 0
        assert tv_exact(mu, F(0), 1) == 1 - F(1, m)
        for rho in (0.0, 0.3, 1.0):
            for n in (1, 4):
                v = tv_exact(mu, rho, n)
                assert 0 <= v <= 1


def test_tv_exact_nonincreasing_in_rho():
    mu = semi(2)
    grid = [F(i, 10) for i in range(11)]
    for n in (1, 5, 10):
        vals = [tv_exact(mu, rho, n) for rho in grid]
        assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_tv_exact_matches_oracle_float():
    mu = semi(3)
    for rho in (0.1, 0.6):
        for n in (1, 4, 8):
            assert abs(float(tv_exact(mu, rho, n)) - tv_semigroup(3, rho, n)) < 1e-12


def test_tv_exact_float_rho_on_group_matches_exact():
    # the pair route at a float rho must read the marginal as probabilities
    mu = srw(2)
    for n in range(1, 5):
        got = tv_exact(mu, 0.9, n)
        assert isinstance(got, float)
        assert abs(got - float(tv_exact(mu, F(9, 10), n))) < 1e-12


def test_tv_readout_of_factored_levels_matches_key_readout():
    # a factored pi level is read as its stored rows, each once per head of
    # its orbit, and the deepest as its last step's batches; the same level
    # held as keys is read at both coordinates of every atom
    mu = srw(2)
    for rho, orbit_levels in ((F(1, 3), [5]), (0.5, [5]), (0.3, [])):
        pi = build_pi_rho(mu, rho)
        marginal = mu if pi.exact else mu.as_float()
        by_orbit = []
        for lv_pi, lv_mu in zip(
            iter_convolution_levels(pi, 5), iter_convolution_levels(marginal, 5)
        ):
            assert lv_pi.factors is not None
            if lv_pi._orbits is not None:
                by_orbit.append(lv_pi.level)
            got = _tv_readout(lv_pi, lv_mu)
            keyed = dataclasses.replace(lv_pi, _support=lv_pi.keys, _vals=lv_pi.values)
            assert keyed.factors is None and keyed._orbits is None
            assert repr(got) == repr(_tv_readout(keyed, lv_mu))
        assert by_orbit == orbit_levels


@st.composite
def cancelling_steps(draw):
    """Exact steps of 2-4 atoms of length 1-2 on F_2, at least one with an inverse letter."""
    letters = (1, -1, 2, -2)
    words = [(x,) for x in letters] + [(x, y) for x in letters for y in letters if x != -y]
    atoms = draw(st.lists(st.sampled_from(words), min_size=2, max_size=4, unique=True))
    if all(x > 0 for w in atoms for x in w):  # no other atom is all inverse letters
        atoms[0] = tuple(-x for x in atoms[0])
    weights = draw(st.lists(st.integers(1, 5), min_size=len(atoms), max_size=len(atoms)))
    return build_measure([(a, F(w, sum(weights))) for a, w in zip(atoms, weights)], rank=2)


@settings(max_examples=40, deadline=None)
@given(mu=cancelling_steps(), rho=st.sampled_from([F(0), F(1, 3), F(1)]), n=st.integers(1, 3))
def test_tv_exact_curve_matches_enumeration_on_cancelling_steps(mu, rho, n):
    # at rho = 0 the pair levels are the diagonal, held as keys
    pi, mumu = build_pi_rho(mu, rho), independent_pair(mu)
    assert not mu.inverse_free
    assert tv_exact_curve(mu, rho, n) == [
        tv_distance(brute_force_convolution(pi, i), brute_force_convolution(mumu, i))
        for i in range(1, n + 1)]


@pytest.mark.parametrize("rho", [F(1, 10), 0.9], ids=["exact", "float"])
def test_tv_curve_holds_one_batch_of_its_deepest_level(rho):
    # level 6 of pi on F_2 (1,194,649 atoms) was built and read whole, in
    # object arrays when exact: the traced peak was 189.9 MiB exact and
    # 92.4 MiB float; level 5 and one batch of the last step are left, read
    # as 7.4 MiB exact and 15.4 MiB float.  A batch is about _CHUNK products
    tracemalloc.start()
    try:
        tv_exact_curve(srw(2), rho, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 8 * measures._CHUNK  # 24 MiB


def test_tv_exact_curve_values_do_not_depend_on_n_max():
    # at n_max = 3 the pair route keeps keys (5**30) in object arrays; the
    # exact numerators (denominator (9 * 999983)**level) are int64 up to
    # level 2 and Python ints at level 3
    mu = FiniteMeasure(
        (((-2, -1, -2, -1, -2), F(2, 3)), ((1, 2, 1, 2, 1), F(1, 3))), 2, "single"
    )
    exact_rho = F(1, 999983)
    levels = list(iter_convolution_levels(build_pi_rho(mu, exact_rho), 3))
    assert [lv.values.dtype for lv in levels] == [np.int64, np.int64, object]
    assert levels[-1].keys.dtype == object
    for rho in (exact_rho, 0.3):
        curve = tv_exact_curve(mu, rho, 3)
        assert [repr(v) for v in curve] == [
            repr(tv_exact_curve(mu, rho, n)[-1]) for n in (1, 2, 3)
        ]
        assert repr(curve[-1]) == repr(tv_exact(mu, rho, 3))
    for rho in (F(1, 3), 0.3):  # the value-class route
        curve = tv_exact_curve(semi(2), rho, 5)
        assert [repr(v) for v in curve] == [
            repr(tv_exact(semi(2), rho, n)) for n in range(1, 6)
        ]


def test_tv_exact_input_validation():
    with pytest.raises(InputError):
        tv_exact(semi(2), F(1, 2), 0)
    with pytest.raises(InputError):
        tv_exact(semi(2), F(3, 2), 2)
    for mu in (semi(2), srw(2)):  # the value-class route and the pair route
        for cap in (0, -5, True, 2.5, "x"):
            with pytest.raises(InputError, match="cap must be a positive integer"):
                tv_exact_curve(mu, 0.5, 1, cap=cap)


# ---------------------------------------------------------------------------
# Z, the elementary contrast: a large-n oracle for the cancelling pair route


def _tv_on_z2(rho, n_max):
    """TV_n on Z for n = 1..n_max by rolling the pi_rho and mu laws on a
    (2 n_max + 1)^2 grid of Z^2 positions, with no word arithmetic."""
    n = n_max
    pi = np.zeros((2 * n + 1, 2 * n + 1))
    pi[n, n] = 1.0
    mu = np.zeros(2 * n + 1)
    mu[n] = 1.0
    same, opposite = (1 - rho) / 2 + rho / 4, rho / 4
    out = []
    for _ in range(n_max):
        pi = (same * (np.roll(pi, (1, 1), (0, 1)) + np.roll(pi, (-1, -1), (0, 1)))
              + opposite * (np.roll(pi, (1, -1), (0, 1)) + np.roll(pi, (-1, 1), (0, 1))))
        mu = (np.roll(mu, 1) + np.roll(mu, -1)) / 2
        out.append(float(np.abs(pi - np.outer(mu, mu)).sum()) / 2)
    return out


def _tv_on_z2_exact(rho, n_max):
    """``_tv_on_z2`` in Fractions, over dicts of positions."""
    pi, mu, out = {(0, 0): F(1)}, {0: F(1)}, []
    step = {(1, 1): (1 - rho) / 2 + rho / 4, (-1, -1): (1 - rho) / 2 + rho / 4,
            (1, -1): rho / 4, (-1, 1): rho / 4}
    for _ in range(n_max):
        new_pi, new_mu = {}, {}
        for (x, y), w in pi.items():
            for (dx, dy), p in step.items():
                new_pi[x + dx, y + dy] = new_pi.get((x + dx, y + dy), 0) + w * p
        for x, w in mu.items():
            for dx in (1, -1):
                new_mu[x + dx] = new_mu.get(x + dx, 0) + w / 2
        pi, mu = new_pi, new_mu
        cells = pi.keys() | {(x, y) for x in mu for y in mu}
        out.append(sum(abs(pi.get(c, 0) - mu.get(c[0], 0) * mu.get(c[1], 0))
                       for c in cells) / 2)
    return out


def _gaussian_tv_limit(rho):
    """TV(N(0, Sigma_rho), N(0, I)), Sigma_rho = [[1, 1 - rho], [1 - rho, 1]]:
    the limit of TV_n on Z by the local limit theorem (both laws live on
    x = y = n mod 2).

    In u = (x + y)/sqrt 2, v = (x - y)/sqrt 2 the laws are
    N(0, 2 - rho) x N(0, rho) and N(0, 1) x N(0, 1); log p - log q is
    a u^2 + b v^2 + c, so p > q on |v| < s(u), s(u)^2 = (a u^2 + c)/(-b),
    and the v integral is a difference of two erf terms.
    """
    rho = mpmath.mpf(rho)
    a = (1 - 1 / (2 - rho)) / 2
    b = (1 - 1 / rho) / 2
    c = -mpmath.log((2 - rho) * rho) / 2

    def inner(u):
        s = mpmath.sqrt((a * u * u + c) / -b)
        return (mpmath.npdf(u, 0, mpmath.sqrt(2 - rho)) * mpmath.erf(s / mpmath.sqrt(2 * rho))
                - mpmath.npdf(u) * mpmath.erf(s / mpmath.sqrt(2)))

    return float(2 * mpmath.quad(inner, [0, mpmath.inf]))


@pytest.mark.parametrize("rho, limit", [(0.05, 0.62365), (0.1, 0.51488),
                                        (0.5, 0.18461), (0.9, 0.03207)])
def test_tv_on_z_matches_a_z2_convolution_and_its_gaussian_limit(rho, limit):
    got = tv_exact_curve(uniform_measure(1), rho, 200, cap=10**8)
    expect = _tv_on_z2(rho, 200)
    assert max(abs(g - e) for g, e in zip(got, expect, strict=True)) < 1e-12
    gauss = _gaussian_tv_limit(rho)
    assert abs(gauss - limit) < 5e-6
    # TV_n tends to a value strictly inside (0, 1): Z is not noise
    # sensitive, and not noise insensitive in the strong sense either
    assert abs(got[-1] - gauss) < 0.003


def test_exact_tv_on_z_matches_a_fraction_z2_convolution():
    rho = F(1, 10)
    got = tv_exact_curve(uniform_measure(1), rho, 30)
    assert all(isinstance(v, Fraction) for v in got)
    assert got == _tv_on_z2_exact(rho, 30)


# ---------------------------------------------------------------------------
# TV lower bound


def test_tv_lower_bound_is_a_lower_bound():
    mu = srw(2)
    n = 6
    for rho in (0.1, 0.9):
        exact = float(tv_exact(mu, rho, n, cap=2_000_000))
        r = tv_lower_bound_mc(mu, rho, n, trials=4000, seed=13)
        assert r.value <= exact + 3 * r.std_error
        assert 0 <= r.ci_low <= r.ci_high <= 1


@pytest.mark.parametrize("n, trials", [(10, 0), (0, 1)], ids=["no-trials", "no-steps"])
def test_tv_lower_bound_rejects_empty_walks(n, trials):
    with pytest.raises(InputError, match="must be a positive integer"):
        tv_lower_bound_mc(srw(2), 0.5, n, trials, 1)


def test_tv_lower_bound_independent_end():
    # at rho = 1 both runs share the law, so the gap is pure noise
    r = tv_lower_bound_mc(semi(2), 1.0, 20, trials=3000, seed=4)
    assert r.value <= 3 * r.std_error + 0.05


def test_tv_lower_bound_diagonal_end_certain_event():
    # at rho = 0 the coupled walk always has identical coordinates, so
    # the coincidence event has probability one
    r = tv_lower_bound_mc(semi(2), 0.0, 20, trials=2000, seed=4, threshold_frac=1.0)
    assert r.details["p_coupled"] == 1.0


def test_tv_lower_bound_reproducible_and_worker_independent():
    a = tv_lower_bound_mc(srw(2), 0.5, 10, trials=2000, seed=99)
    b = tv_lower_bound_mc(srw(2), 0.5, 10, trials=2000, seed=99, workers=3)
    assert a.value == b.value and a.ci_low == b.ci_low


def test_tv_lower_bound_validation():
    with pytest.raises(InputError):
        tv_lower_bound_mc(srw(2), 0.5, 10, trials=100, seed=1, threshold_frac=0.0)
    with pytest.raises(InputError):
        tv_lower_bound_mc(srw(2), 0.5, 10, trials=100, seed=1, threshold_frac=1.5)


def test_entropy_estimate_routes_to_the_pointwise_or_the_exact_estimator():
    # auto: pointwise on uniform semigroup letters at a given rho, exact otherwise
    assert entropy_estimate(semi(2), 0.5, 200, 20, 3, 4) == (
        shannon_pointwise(2, 0.5, 200, 20, 3),)
    for mu, rho, method, step in ((srw(2), 0.5, "auto", build_pi_rho(srw(2), 0.5)),
                                  (semi(2), None, "auto", semi(2)),
                                  (semi(2), 0.5, "exact", build_pi_rho(semi(2), 0.5))):
        *levels, rate = entropy_estimate(mu, rho, 200, 20, 3, 4, method=method)
        assert tuple(levels) == entropy_exact_curve(step, 4)
        assert rate == entropy_rate_estimate(tuple(levels))
    # strict refuses a level the cap would cut; otherwise the cut is flagged
    with pytest.raises(TruncationError):
        entropy_estimate(srw(2), 0.5, 1, 1, 1, 3, cap=1000, strict=True)
    *levels, rate = entropy_estimate(srw(2), 0.5, 1, 1, 1, 3, cap=1000)
    assert levels[-1].details["truncated"] and rate.n == 2


@pytest.mark.parametrize("mu, rho, method, n_max, error, match", [
    (srw(2), 0.5, "pointwise", 4, UnsupportedRegimeError, "two or more semigroup letters"),
    (semi(1), 0.5, "pointwise", 4, UnsupportedRegimeError, "two or more semigroup letters"),
    (semi(2), None, "pointwise", 4, ValidationError, "pointwise entropy needs rho"),
    (srw(2), 0.5, "auto", 1, ValidationError, "need at least two untruncated levels"),
    (semi(2), None, "auto", 1, ValidationError, "need at least two untruncated levels"),
    (semi(2), 0.5, "exact", 1, ValidationError, "need at least two untruncated levels"),
    (semi(2), 0.5, "pointwize", 4, InputError, "method must be auto, pointwise or exact"),
], ids=["pointwise-group", "pointwise-one-letter", "pointwise-no-rho", "auto-group",
        "auto-no-rho", "exact-semigroup", "unknown-method"])
def test_entropy_estimate_refuses_before_any_work(monkeypatch, mu, rho, method, n_max, error,
                                                  match):
    def unreached(*args, **kwargs):
        raise AssertionError("work began before the refusal")

    for name in ("shannon_pointwise", "build_pi_rho", "iter_convolution_levels"):
        monkeypatch.setattr(estimators, name, unreached)
    with pytest.raises(error, match=match):
        entropy_estimate(mu, rho, 10, 10, 1, n_max, method=method)


# ---------------------------------------------------------------------------
# sweep


def test_rho_sweep_semigroup_rows():
    mu = semi(2)
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    points = rho_sweep(mu, grid, n=800, trials=80, seed=17, tv_ns=(8,))
    assert [rho for rho, _ in points] == grid
    for rho, (ent, *tvs) in points:
        h = h_semigroup(2, rho)
        assert ent.details["closed_form"] == h
        assert abs(ent.value - h) / h < 0.02
        assert len(tvs) == 1 and tvs[0].n == 8
    # entropy increases with the noise parameter
    vals = [ent.value for _, (ent, *_) in points]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_rho_sweep_draws_the_independent_walks_once_per_n(monkeypatch):
    # they do not depend on rho; each grid point reads the same draw and
    # gets the bytes tv_lower_bound_mc gives on its own
    mu, grid, tv_ns = srw(2), [0.0, 0.25, 0.5, 0.75, 1.0], (20, 30)
    draws = []
    prefixes = walkers.pair_prefix_lengths

    def counted(step, n, trials, seed, stream, **kw):
        draws.append((n, stream))
        return prefixes(step, n, trials, seed, stream, **kw)

    monkeypatch.setattr(walkers, "pair_prefix_lengths", counted)
    points = rho_sweep(mu, grid, n=50, trials=2000, seed=3, tv_ns=tv_ns,
                       threshold_frac=0.1, entropy_exact_max=2)
    indep = [n for n, stream in draws if stream == STREAM_TV_INDEPENDENT]
    assert indep == list(tv_ns)
    assert len(draws) == len(tv_ns) * (1 + len(grid))
    monkeypatch.undo()
    for r, (_, *tvs) in points:
        assert tvs == [tv_lower_bound_mc(mu, r, tn, 2000, 3, 0.1) for tn in tv_ns]


def test_rho_sweep_group_uses_exact_curve():
    points = rho_sweep(srw(2), [0.0, 1.0], n=200, trials=50, seed=2,
                       entropy_exact_max=3)
    for _, (ent,) in points:
        assert "closed_form" not in ent.details
        assert ent.method == "entropy-increment"


def test_rho_sweep_reads_default_n_max_levels_by_default():
    # levels 7 and 8 of free_group:2 are cut at the default cap, so the
    # default stops at 6, the deepest level that can give the increment
    (_, (ent,)), = rho_sweep(srw(2), [0.5], n=100, trials=10, seed=1)
    assert DEFAULT_N_MAX == 6 and ent.n == DEFAULT_N_MAX
    assert ent.value == 1.355915545403132
    assert rho_sweep(srw(2), [0.5], n=100, trials=10, seed=1,
                     entropy_exact_max=DEFAULT_N_MAX)[0][1] == (ent,)


def test_rho_sweep_refuses_one_exact_level_before_any_draw(monkeypatch):
    # an exact rate is an increment of two levels; a uniform-letter sweep
    # takes the pointwise route and needs no level
    draws = []
    prefixes = walkers.pair_prefix_lengths
    monkeypatch.setattr(walkers, "pair_prefix_lengths",
                        lambda *a, **kw: draws.append(a[1]) or prefixes(*a, **kw))
    with pytest.raises(ValidationError, match="need at least two untruncated levels"):
        rho_sweep(srw(2), [0.5], n=10, trials=10, seed=1, tv_ns=(5,), entropy_exact_max=1)
    assert draws == []
    points = rho_sweep(semi(2), [0.5], n=10, trials=10, seed=1, tv_ns=(5,),
                       entropy_exact_max=1)
    assert len(points) == 1 and draws == [5, 5]


def test_rho_sweep_validation():
    with pytest.raises(InputError):
        rho_sweep(semi(2), [], n=10, trials=10, seed=1)
    with pytest.raises(InputError):
        rho_sweep(semi(2), [1.2], n=10, trials=10, seed=1)
    for bad in ("0.5", True):  # a string or a bool is not a rho
        with pytest.raises(InputError, match="rho must be a number"):
            rho_sweep(semi(2), [0.25, bad], n=10, trials=10, seed=1)
