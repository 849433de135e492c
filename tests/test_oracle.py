"""Closed forms against independent enumeration and basic analysis."""

import math
from fractions import Fraction

import pytest

from noisewalk.errors import BudgetError, InputError
from noisewalk.measures import (
    build_measure,
    build_pi_rho,
    iter_convolution_levels,
    shannon_entropy,
    uniform_measure,
)
from noisewalk.oracle import (
    brute_force_convolution,
    coupling_weights,
    drift_free_group_srw,
    h_free_group_srw,
    h_semigroup,
    tv_distance,
    tv_semigroup,
)

RHO_GRID = [i / 10 for i in range(11)]


def independent_pair(mu):
    """mu x mu as a pair measure, built atom by atom without ``build_pi_rho``."""
    atoms = [((x, y), wx * wy) for x, wx in mu.atoms for y, wy in mu.atoms]
    return build_measure(atoms, rank=mu.rank, kind="pair")


def test_coupling_weights_sum_to_one():
    for m in (2, 3, 5):
        for rho in RHO_GRID:
            p, q = coupling_weights(m, rho)
            assert abs(m * p + m * (m - 1) * q - 1.0) < 1e-14
            assert p >= q >= 0


def test_h_endpoints_exact():
    for m in (2, 3, 7):
        assert h_semigroup(m, 0) == math.log(m)
        assert h_semigroup(m, 1) == 2 * math.log(m)
        assert h_semigroup(m, 0.0) == math.log(m)
        assert h_semigroup(m, 1.0) == 2 * math.log(m)


def test_h_known_value():
    assert abs(h_semigroup(2, 0.5) - 1.2554823251787537) < 1e-15


def test_h_equals_step_entropy_of_coupling():
    # positions of the semigroup pair walk determine the step sequence,
    # so the rate equals the one-step entropy
    for m in (2, 3):
        mu = uniform_measure(m, inverse_free=True)
        for rho in RHO_GRID:
            pi = build_pi_rho(mu, rho)
            assert abs(h_semigroup(m, rho) - shannon_entropy(pi)) < 1e-12


def test_h_strictly_increasing_in_rho():
    for m in (2, 3):
        vals = [h_semigroup(m, rho) for rho in RHO_GRID]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_h_param_validation():
    with pytest.raises(InputError):
        h_semigroup(1, 0.5)
    with pytest.raises(InputError):
        h_semigroup(2, -0.1)
    with pytest.raises(InputError):
        h_semigroup(2, 1.1)


def test_tv_semigroup_independent_end_is_zero():
    for m in (2, 3):
        for n in (1, 5, 50, 200):
            assert tv_semigroup(m, 1, n) == 0.0


def test_tv_semigroup_diagonal_end_one_step():
    for m in (2, 3, 4):
        assert abs(tv_semigroup(m, 0, 1) - (1 - 1 / m)) < 1e-15


def test_tv_distance_of_float_copies_is_the_exact_value():
    # dyadic weights: every float sum of the float branch is exact
    mu = uniform_measure(2)
    a = brute_force_convolution(build_pi_rho(mu, Fraction(1, 2)), 2)
    b = brute_force_convolution(independent_pair(mu), 2)
    exact = tv_distance(a, b)
    assert isinstance(exact, Fraction) and 0 < exact < 1
    for x, y in ((a.as_float(), b.as_float()), (a, b.as_float()), (a.as_float(), b)):
        got = tv_distance(x, y)
        assert isinstance(got, float) and got == exact


def test_tv_semigroup_matches_enumeration():
    # independent implementation: enumerate the n-step laws directly
    for m in (2, 3):
        mu = uniform_measure(m, inverse_free=True)
        mumu = independent_pair(mu)
        for rho in (0, Fraction(1, 4), Fraction(7, 10), 1):
            pi = build_pi_rho(mu, rho)
            for n in (1, 2, 3):
                lhs = tv_semigroup(m, float(rho), n)
                rhs = tv_distance(
                    brute_force_convolution(pi, n),
                    brute_force_convolution(mumu, n),
                )
                assert abs(lhs - float(rhs)) < 1e-12


def test_tv_semigroup_nonincreasing_in_rho():
    for m in (2, 3):
        for n in range(1, 11):
            vals = [tv_semigroup(m, rho, n) for rho in RHO_GRID]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_tv_semigroup_tends_to_one_below_critical_noise():
    for rho in (0.1, 0.2, 0.3):
        vals = [tv_semigroup(2, rho, n) for n in range(1, 201)]
        assert max(vals) >= 1 - 1e-3


def test_tv_semigroup_bounds():
    for m in (2, 3):
        for rho in RHO_GRID:
            for n in (1, 10, 100):
                v = tv_semigroup(m, rho, n)
                assert 0.0 <= v <= 1.0


def test_drift_free_group_srw():
    assert drift_free_group_srw(2) == Fraction(1, 2)
    assert drift_free_group_srw(3) == Fraction(2, 3)
    with pytest.raises(InputError):
        drift_free_group_srw(1)


def test_h_free_group_srw_lies_below_the_exact_entropy_increments():
    h = h_free_group_srw(2)
    assert h == pytest.approx(0.5 * math.log(3), rel=1e-15)
    assert h_free_group_srw(3) == pytest.approx(2 / 3 * math.log(5), rel=1e-15)
    with pytest.raises(InputError):
        h_free_group_srw(1)
    # Delta H_n = H(mu^n) - H(mu^(n-1)) = H(X_1) - H(X_1 | X_n) is
    # nonincreasing (X_1 -> X_n -> X_(n+1) is Markov) and tends to h
    levels = list(iter_convolution_levels(uniform_measure(2), 12))
    assert all(lv.exact and lv.lost_mass == 0 for lv in levels)
    hs = [0.0] + [lv.entropy_kept() for lv in levels]
    inc = [b - a for a, b in zip(hs, hs[1:])]
    assert all(a - b > 1e-3 for a, b in zip(inc, inc[1:]))
    assert round(inc[6], 4) == 0.6733
    assert inc[-1] > h


def test_brute_force_budget():
    mu = uniform_measure(3)
    with pytest.raises(BudgetError):
        brute_force_convolution(mu, 12)
