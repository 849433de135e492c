"""Closed forms and brute-force references.

Everything here is computed from first principles, independently of the
estimator implementations, so the two can check each other.  The
semigroup closed forms rely on the fact that for a walk on the free
semigroup the position after n steps is literally the concatenation of
the n increments, so the n-step distribution factorizes over positions.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import BudgetError, InputError, ValidationError, check_count
from .measures import FiniteMeasure, Weight, build_measure
from .words import multiply

_BRUTE_FORCE_BUDGET = 10_000_000


def _check_semigroup_params(m: int, rho: float) -> None:
    if not isinstance(m, int) or isinstance(m, bool) or m < 2:
        raise InputError(f"alphabet size m must be an integer >= 2, got {m!r}")
    if not 0 <= float(rho) <= 1:
        raise InputError(f"rho must lie in [0, 1], got {rho!r}")


def coupling_weights(m: int, rho: float) -> tuple[float, float]:
    """Atom weights of the coupled step on m uniform letters.

    Diagonal pairs (x, x) carry p = (1 - rho)/m + rho/m^2 each and the
    m(m-1) off-diagonal pairs carry q = rho/m^2 each; m p + m(m-1) q = 1.
    """
    _check_semigroup_params(m, rho)
    rho = float(rho)
    p = (1.0 - rho) / m + rho / (m * m)
    q = rho / (m * m)
    return p, q


def h_semigroup(m: int, rho: float) -> float:
    """Asymptotic entropy of the coupled walk on the free semigroup, in nats.

    Positions determine increments, so the entropy rate equals the
    entropy of a single coupled step:

        h = log m - (1 - c) log(1 - c) - c log(rho / m),  c = (m - 1) rho / m.

    The endpoints are returned in closed form (log m and 2 log m): at
    rho = 0 the formula degenerates to 0 * log 0 and at rho = 1 float
    cancellation would spoil the exact endpoint identity.
    """
    _check_semigroup_params(m, rho)
    rho = float(rho)
    if rho == 0.0:
        return math.log(m)
    if rho == 1.0:
        return 2.0 * math.log(m)
    c = (m - 1) * rho / m
    return math.log(m) - (1.0 - c) * math.log1p(-c) - c * math.log(rho / m)


def drift_free_group_srw(k: int) -> Fraction:
    """Drift of the simple random walk on the free group of rank k.

    The word length is a birth-death chain that steps +1 with
    probability (2k-1)/2k away from the origin, giving drift
    (2k-1)/2k - 1/2k = (k-1)/k.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 2:
        raise InputError(f"rank k must be an integer >= 2, got {k!r}")
    return Fraction(k - 1, k)


def h_free_group_srw(k: int) -> float:
    """Asymptotic entropy of the simple random walk on the free group of rank k, in nats.

    The harmonic measure gives each of the 2k(2k-1)^(m-1) boundary
    cylinders of length m the same mass, and the walk sits near length
    drift * n, so h = drift * log(2k - 1) = (k-1)/k * log(2k-1).
    """
    return float(drift_free_group_srw(k)) * math.log(2 * k - 1)


def tv_semigroup(m: int, rho: float, n: int) -> float:
    """Total variation between the n-step coupled walk and independent copies.

    On the free semigroup the position pair after n steps is the letter
    matrix itself, so the coupled n-step law puts mass p^j q^(n-j) on a
    pair agreeing in exactly j positions while the independent law puts
    m^(-2n) everywhere on the m^(2n) pairs.  Grouping by j:

        TV = 1/2 sum_j C(n,j) m^j (m(m-1))^(n-j) |p^j q^(n-j) - m^(-2n)|.

    Evaluated in log space with lgamma to stay stable to n in the
    hundreds.  rho = 1 gives p = q and TV = 0 exactly; rho = 0 gives
    q = 0 and only the j = n term carries coupled mass.
    """
    _check_semigroup_params(m, rho)
    check_count("n", n)
    rho = float(rho)
    if rho == 1.0:
        return 0.0
    p, q = coupling_weights(m, rho)
    log_m = math.log(m)
    log_pairs_indep = -2.0 * n * log_m  # log m^(-2n)
    terms = []
    for j in range(n + 1):
        log_count = (
            math.lgamma(n + 1)
            - math.lgamma(j + 1)
            - math.lgamma(n - j + 1)
            + j * log_m
            + (n - j) * (log_m + math.log(m - 1))
        )
        if q == 0.0:
            coupled = math.exp(n * math.log(p)) if j == n else 0.0
            terms.append(math.exp(log_count) * abs(coupled - math.exp(log_pairs_indep)))
            continue
        log_coupled = j * math.log(p) + (n - j) * math.log(q)
        # |e^a - e^b| = e^max (1 - e^-|a-b|), stable for close exponents
        hi = max(log_coupled, log_pairs_indep)
        lo = min(log_coupled, log_pairs_indep)
        terms.append(math.exp(log_count + hi) * -math.expm1(lo - hi))
    return 0.5 * math.fsum(terms)


def brute_force_convolution(step: FiniteMeasure, n: int) -> FiniteMeasure:
    """n-fold convolution by enumerating all |support|^n increment sequences.

    Exponential-time reference for cross-checking the real engine;
    refuses runs beyond a 10^7 sequence budget.
    """
    check_count("n", n)
    if step.support_size**n > _BRUTE_FORCE_BUDGET:
        raise BudgetError(
            f"brute force over {step.support_size}^{n} sequences exceeds budget"
        )
    acc: dict = {}
    for seq in itertools.product(step.atoms, repeat=n):
        if step.kind == "pair":
            w1: tuple = ()
            w2: tuple = ()
            weight = None
            for (a1, a2), w in seq:
                w1 = multiply(w1, a1)
                w2 = multiply(w2, a2)
                weight = w if weight is None else weight * w
            key: object = (w1, w2)
        else:
            word: tuple = ()
            weight = None
            for a, w in seq:
                word = multiply(word, a)
                weight = w if weight is None else weight * w
            key = word
        acc[key] = acc.get(key, 0) + weight
    return build_measure(acc.items(), rank=step.rank, kind=step.kind)


def tv_distance(a: FiniteMeasure, b: FiniteMeasure) -> Weight:
    """Total variation distance between two measures of the same kind.

    A dictionary walk over both supports: the reference that the exact
    TV readout and the semigroup closed form are checked against.
    """
    if a.kind != b.kind:
        raise ValidationError("total variation needs measures of one kind")
    la, lb = a._lookup, b._lookup
    keys = set(la) | set(lb)
    if a.exact and b.exact:
        s = sum((abs(Fraction(la.get(k, 0)) - Fraction(lb.get(k, 0))) for k in keys), Fraction(0))
        return s / 2
    return math.fsum(abs(float(la.get(k, 0.0)) - float(lb.get(k, 0.0))) for k in keys) / 2
