"""Monte Carlo and exact estimators against closed forms and each other."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisewalk.errors import InputError, ValidationError
from noisewalk.estimators import (
    EntropyCurve,
    _tv_pair_convolution,
    _tv_pair_readout,
    _tv_value_classes,
    drift_mc,
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
    product_measure,
    uniform_measure,
)
from noisewalk.oracle import brute_force_convolution, h_semigroup, tv_distance, tv_semigroup

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
    curve = entropy_exact_curve(pi, 5)
    h = h_semigroup(2, 0.5)
    for n, v in zip(curve.ns, curve.values):
        assert abs(v - n * h) < 1e-10
    upper, inc = entropy_rate_estimate(curve)
    assert abs(inc - h) < 1e-10
    assert upper >= h - 1e-10


def test_entropy_curve_group_sandwich():
    mu = srw(2)
    for rho in (F(0), F(1, 2), F(1)):
        pi = build_pi_rho(mu, rho)
        pair_curve = entropy_exact_curve(pi, 4)
        base_curve = entropy_exact_curve(mu, 4)
        for hp, hm in zip(pair_curve.values, base_curve.values):
            assert hm - 1e-10 <= hp <= 2 * hm + 1e-10


def test_entropy_curve_endpoint_identities():
    mu = srw(2)
    base = entropy_exact_curve(mu, 4)
    diag = entropy_exact_curve(build_pi_rho(mu, 0), 4)
    indep = entropy_exact_curve(build_pi_rho(mu, 1), 4)
    for hb, hd, hi in zip(base.values, diag.values, indep.values):
        assert abs(hd - hb) < 1e-10
        assert abs(hi - 2 * hb) < 1e-10


def test_entropy_rate_needs_two_untruncated_levels():
    curve = entropy_exact_curve(srw(2), 3, cap=3)
    assert all(curve.truncated)
    with pytest.raises(ValidationError):
        entropy_rate_estimate(curve)


def test_entropy_curve_fields_consistent():
    curve = entropy_exact_curve(srw(2), 3)
    assert isinstance(curve, EntropyCurve)
    assert curve.ns == (1, 2, 3)
    assert len(curve.increments) == 3
    assert curve.increments[0] == curve.values[0]
    assert abs(curve.increments[2] - (curve.values[2] - curve.values[1])) < 1e-15
    assert curve.upper_rate == min(v / n for n, v in zip(curve.ns, curve.values))


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
    mumu = product_measure(mu, mu)
    for rho in (F(1, 4), F(9, 10)):
        pi = build_pi_rho(mu, rho)
        for n in (1, 2, 3):
            expect = tv_distance(
                brute_force_convolution(pi, n), brute_force_convolution(mumu, n)
            )
            assert tv_exact(mu, rho, n) == expect


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
    # a factored pi level is read once per head and once per tail; the same
    # level held as keys is read at both coordinates of every atom
    mu = srw(2)
    for rho in (F(1, 3), 0.3):
        pi = build_pi_rho(mu, rho)
        marginal = mu if pi.exact else mu.as_float()
        for lv_pi, lv_mu in zip(
            iter_convolution_levels(pi, 5), iter_convolution_levels(marginal, 5)
        ):
            assert lv_pi.factors is not None
            keyed = dataclasses.replace(lv_pi, _support=lv_pi.keys)
            assert keyed.factors is None
            got, want = (_tv_pair_readout(lv, lv_mu) for lv in (lv_pi, keyed))
            assert repr(got) == repr(want)


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


# ---------------------------------------------------------------------------
# sweep


def test_rho_sweep_semigroup_rows():
    mu = semi(2)
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    rows = rho_sweep(mu, grid, n=800, trials=80, seed=17, tv_ns=(8,))
    assert [row.rho for row in rows] == grid
    for row in rows:
        h = h_semigroup(2, row.rho)
        assert row.closed_form_entropy == h
        assert abs(row.entropy.value - h) / h < 0.02
        assert len(row.tv_lower) == 1 and row.tv_lower[0][0] == 8
    # entropy increases with the noise parameter
    vals = [row.entropy.value for row in rows]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_rho_sweep_group_uses_exact_curve():
    rows = rho_sweep(srw(2), [0.0, 1.0], n=200, trials=50, seed=2,
                     entropy_exact_max=3)
    for row in rows:
        assert row.closed_form_entropy is None
        assert row.entropy.method == "entropy-increment"


def test_rho_sweep_validation():
    with pytest.raises(InputError):
        rho_sweep(semi(2), [], n=10, trials=10, seed=1)
    with pytest.raises(InputError):
        rho_sweep(semi(2), [1.2], n=10, trials=10, seed=1)
