"""Estimators for drift, entropy, and total variation of coupled walks.

Monte Carlo estimators report an ``EstimateResult`` with a normal or
Wilson 95% interval; exact computations report the same shape with a
zero standard error.  All randomness flows through per-trial Philox
substreams, so every estimator is deterministic in (seed, parameters)
and independent of the worker count.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, repeat
from typing import Iterator

import numpy as np

from . import rng as rngmod
from . import walkers
from .errors import BudgetError, InputError, UnsupportedRegimeError, ValidationError, check_count
from .measures import (
    DEFAULT_CAP,
    ConvolutionLevel,
    FiniteMeasure,
    Weight,
    build_pi_rho,
    iter_convolution_levels,
    rho_weight,
    uniform_letter_count,
)
from .oracle import coupling_weights, h_semigroup

Z95 = 1.959963984540054

# Levels of a run that is not strict: the default cap cuts level 7 of free_group:2
DEFAULT_N_MAX = 6


@dataclass(frozen=True)
class EstimateResult:
    """Point estimate with a 95% confidence interval and provenance."""

    value: float
    std_error: float
    ci_low: float
    ci_high: float
    n: int
    trials: int
    method: str
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.std_error < 0:
            raise ValidationError("std_error must be nonnegative")
        if not (self.ci_low - 1e-12 <= self.value <= self.ci_high + 1e-12):
            raise ValidationError(
                f"estimate {self.value} outside its interval "
                f"[{self.ci_low}, {self.ci_high}]"
            )


def _mean_result(
    samples: np.ndarray, n: int, method: str, details: dict | None = None
) -> EstimateResult:
    trials = len(samples)
    value = float(samples.mean())
    sd = float(samples.std(ddof=1)) if trials > 1 else 0.0
    se = sd / math.sqrt(trials)
    return EstimateResult(
        value=value,
        std_error=se,
        ci_low=value - Z95 * se,
        ci_high=value + Z95 * se,
        n=n,
        trials=trials,
        method=method,
        details=details or {},
    )


def exact_result(value, n: int, method: str, details: dict | None = None) -> EstimateResult:
    """An exact value in the common result shape: one trial, zero standard error."""
    v = float(value)
    return EstimateResult(v, 0.0, v, v, n, 1, method, details or {})


# ---------------------------------------------------------------------------
# drift


def drift_mc(
    step: FiniteMeasure, n: int, trials: int, seed: int, workers: int = 1
) -> EstimateResult:
    """Monte Carlo drift |position after n steps| / n.

    For pair measures the length is the max metric and the details
    carry the per-coordinate estimates; the marginals of a coupling
    share the step distribution, so the coordinate drifts agree up to
    noise.
    """
    if not isinstance(trials, int) or trials < 2:
        raise InputError(f"trials must be an integer >= 2, got {trials!r}")
    lengths = walkers.final_lengths(
        step, n, trials, seed, rngmod.STREAM_DRIFT, workers=workers
    )
    details: dict = {}
    if len(lengths) == 2:
        combined = np.maximum(lengths[0], lengths[1]).astype(np.float64) / n
        for label, arr in (("coord1", lengths[0]), ("coord2", lengths[1])):
            r = _mean_result(arr.astype(np.float64) / n, n, f"drift-mc-{label}")
            details[label] = {k: getattr(r, k) for k in ("value", "std_error", "ci_low", "ci_high")}
    else:
        combined = lengths[0].astype(np.float64) / n
    return _mean_result(combined, n, "drift-mc", details)


# ---------------------------------------------------------------------------
# entropy


def shannon_pointwise(
    m: int, rho: float, n: int, trials: int, seed: int
) -> EstimateResult:
    """Pointwise entropy estimator -log(pi_n at the sampled position) / n.

    On the free semigroup the n-step mass of the realized position pair
    is p^k q^(n-k) where k counts positions where the two coordinates
    drew the same letter, so each trajectory contributes
    -(k log p + (n - k) log q) / n.  At rho = 0 only diagonal draws
    occur and the q term never appears.  The details carry the closed
    form ``h_semigroup(m, rho)`` as ``closed_form``.
    """
    check_count("n", n)
    check_count("trials", trials)
    p, q = coupling_weights(m, rho)
    diag_prob = m * p
    log_p = math.log(p)
    log_q = math.log(q) if q > 0 else 0.0  # k = n whenever q = 0
    vals = np.empty(trials, dtype=np.float64)
    for t in range(trials):
        gen = rngmod.generator(seed, rngmod.stream_id(rngmod.STREAM_ENTROPY, t))
        k = int((gen.random(n) < diag_prob).sum())
        if q == 0.0 and k < n:
            raise ValidationError("off-diagonal draw at rho = 0")
        if log_p == log_q:  # uniform product law: constant regardless of k
            vals[t] = -log_p
        else:
            vals[t] = -(k * log_p + (n - k) * log_q) / n
    return _mean_result(
        vals, n, "shannon-pointwise",
        {"m": m, "rho": float(rho), "p": p, "q": q, "closed_form": h_semigroup(m, rho)},
    )


def entropy_exact_curve(
    step: FiniteMeasure,
    n_max: int,
    cap: int = DEFAULT_CAP,
    strict: bool = False,
) -> tuple[EstimateResult, ...]:
    """Entropies of the exact convolution powers of ``step``, n = 1..n_max.

    One ``entropy-exact`` result per level: its value is the entropy of
    the kept mass, a certified lower bound for the true H, and
    ``details["upper_bound"]`` adds the worst-case contribution of the
    dropped mass; the two are equal on an uncut level.
    ``details["truncated"]`` flags a level that dropped 1e-9 or more.
    ``strict=True`` raises ``TruncationError`` where the cap would drop
    mass instead of bracketing the entropy of a truncated level.
    """
    return tuple(
        exact_result(lv.entropy_kept(), lv.level, "entropy-exact",
                     {"upper_bound": lv.entropy_upper_bound(), "truncated": lv.truncated})
        for lv in iter_convolution_levels(step, n_max, cap=cap, strict=strict)
    )


def entropy_rate_estimate(levels: tuple[EstimateResult, ...]) -> EstimateResult:
    """The ``entropy-increment`` result: an upper bound on the entropy rate h.

    Its value bounds H_n - H_(n-1) from above at the deepest level n not
    flagged truncated: that level's upper bound less the lower bound at
    n - 1, so a level that dropped less than 1e-9 still bounds from
    above.  The increment H_n - H_(n-1) = H(X_1) - H(X_1 | X_n) is
    nonincreasing in n, because X_1 -> X_n -> X_(n+1) is a Markov chain,
    and it tends to h from above.  ``details["upper_rate"]`` is
    min H_n / n over the upper bounds, the looser bound by subadditivity.
    Needs at least two levels not flagged truncated.
    """
    exact = [i for i, r in enumerate(levels) if not r.details["truncated"]]
    if len(exact) < 2:
        raise ValidationError("need at least two untruncated levels for a rate")
    prev, last = levels[exact[-1] - 1], levels[exact[-1]]
    upper_rate = min(r.details["upper_bound"] / r.n for r in levels)
    return exact_result(last.details["upper_bound"] - prev.value, last.n,
                        "entropy-increment", {"upper_rate": upper_rate})


def entropy_estimate(
    mu: FiniteMeasure, rho, n: int, trials: int, seed: int, n_max: int,
    cap: int = DEFAULT_CAP, method: str = "auto", strict: bool = False,
) -> tuple[EstimateResult, ...]:
    """The entropy rate of pi_rho, or of ``mu`` itself when ``rho`` is None.

    ``pointwise`` returns ``(shannon_pointwise(...),)``: it needs a rho and
    a uniform step on two or more semigroup letters, and ``auto`` picks it
    there.  ``exact`` returns the levels 1..n_max of ``entropy_exact_curve``
    and their ``entropy_rate_estimate``, and refuses ``n_max`` < 2 first.
    """
    if method not in ("auto", "pointwise", "exact"):
        raise InputError(f"method must be auto, pointwise or exact, got {method!r}")
    m = uniform_letter_count(mu)
    if method == "auto":
        method = "pointwise" if m is not None and rho is not None else "exact"
    if method == "pointwise":
        if m is None:
            raise UnsupportedRegimeError("pointwise entropy needs a uniform step on two "
                                         "or more semigroup letters")
        if rho is None:
            raise ValidationError("pointwise entropy needs rho")
        return (shannon_pointwise(m, rho, n, trials, seed),)
    if n_max < 2:
        raise ValidationError("need at least two untruncated levels for a rate")
    step = mu if rho is None else build_pi_rho(mu, rho)
    levels = entropy_exact_curve(step, n_max, cap=cap, strict=strict)
    return (*levels, entropy_rate_estimate(levels))


# ---------------------------------------------------------------------------
# total variation


def _tv_value_classes(mu: FiniteMeasure, rho_w, n_max: int, cap: int) -> Iterator[Weight]:
    """Exact TV at n = 1..n_max via the per-position value-class convolution.

    Valid when the support consists of distinct single letters and no
    cancellation can occur: the position pair after n steps determines
    the letter matrix, so both the coupled and the independent n-step
    masses factor over positions.  The joint distribution of the pair
    (coupled step mass, independent step mass) is convolved
    multiplicatively; total variation is read off the classes.
    """
    step: Counter = Counter()
    one = Fraction(1) if isinstance(rho_w, Fraction) else 1.0
    for x, wx in mu.atoms:
        for y, wy in mu.atoms:
            vmm = wx * wy
            vpi = rho_w * vmm
            if x == y:
                vpi = vpi + (one - rho_w) * wx
            step[(vpi, vmm)] += 1
    cur = dict(step)
    for n in range(1, n_max + 1):
        if n > 1:
            new: dict = {}
            for (a, b), c in cur.items():
                for (da, db), dc in step.items():
                    key = (a * da, b * db)
                    new[key] = new.get(key, 0) + c * dc
            if len(new) > cap:
                raise BudgetError(f"value-class count {len(new)} exceeds cap {cap}")
            cur = new
        if isinstance(rho_w, Fraction) and mu.exact:
            yield sum((c * abs(a - b) for (a, b), c in cur.items()), Fraction(0)) / 2
        else:
            yield math.fsum(c * abs(a - b) for (a, b), c in cur.items()) / 2


def _tv_pair_convolution(mu: FiniteMeasure, rho_w, n_max: int, cap: int) -> Iterator[Weight]:
    """Exact TV at n = 1..n_max via full convolution of the coupled pair walk.

    Streams the coupling and the marginal side by side (strict: the cap
    must not truncate, or the result would not be exact) and sums
    |pi_n(u, v) - mu_n(u) mu_n(v)| over the coupled support plus the
    independent mass outside it.  A float coupling convolves the float
    marginal, so both levels hold probabilities rather than numerators.
    """
    pi = build_pi_rho(mu, rho_w)
    marginal = mu if pi.exact else mu.as_float()
    for lv_pi, lv_mu in zip(
        iter_convolution_levels(pi, n_max, cap=cap, strict=True),
        iter_convolution_levels(marginal, n_max, cap=cap, strict=True),
    ):
        yield _tv_readout(lv_pi, lv_mu)


def _tv_readout(lv_pi: ConvolutionLevel, lv_mu: ConvolutionLevel) -> Weight:
    """TV of one pi level against the product of one mu level with itself.

    The pi level is read by ``ConvolutionLevel.blocks``, never built whole.
    pi_rho's marginals are mu, so mu^n x mu^n is invariant under the group
    of the level's orbits: a stored row's terms |a - b| are those of every
    head of its orbit, permuted, and enter once per head.  sum(b) is read
    off the level's heads x tails.  Exact terms are Python ints (object
    arrays); ``math.fsum`` sees each atom's float term, in any order.
    """
    def at(codes):  # mu^n at each code; Python ints when exact, so no int64 overflow
        mu = lv_mu.values_at(codes)
        return mu.astype(object) if lv_pi.exact else mu

    blocks = ((at(u) * at(v), vals, k) for u, v, vals, k in lv_pi.blocks())
    if lv_pi.factors is None:  # b of every atom, a block at a time
        products = (at(u) * at(v) for u, v, *_ in lv_pi.blocks())
    else:
        heads, tails = (at(c) for c in lv_pi.factors)
        products = (h * tails for h in heads)
    if lv_pi.exact:
        d_pi, d_mu2 = lv_pi.denominator, lv_mu.denominator**2
        s = sum(k * np.abs(vals.astype(object) * d_mu2 - b * d_pi).sum() for b, vals, k in blocks)
        total = heads.sum() * tails.sum() if lv_pi.factors else sum(b.sum() for b in products)
        return Fraction(int(s + (d_mu2 - total) * d_pi), 2 * d_pi * d_mu2)
    total = math.fsum(chain.from_iterable(b.ravel().tolist() for b in products))
    terms = chain.from_iterable(
        row for b, vals, k in blocks for row in repeat(np.abs(vals - b).ravel().tolist(), k))
    return math.fsum(chain(terms, [max(0.0, 1.0 - total)])) / 2


def tv_exact_curve(
    mu: FiniteMeasure,
    rho,
    n_max: int,
    cap: int = DEFAULT_CAP,
) -> list[Weight]:
    """Total variation between the n-step coupled walk and independent copies,
    for n = 1..n_max, read off one streamed convolution.

    Exact (Fractions) when mu is exact and rho is a Fraction or int;
    floats otherwise.  A single-letter inverse-free support takes the
    value-class convolution; any other support convolves the coupling on
    the product (feasible for small n).  The two are independent
    implementations and agree on their common domain.
    """
    if mu.kind != "single":
        raise ValidationError("exact TV needs a single-coordinate step measure")
    check_count("n", n_max)
    check_count("cap", cap)
    rho_w = rho_weight(rho)
    if mu.inverse_free and all(len(a) == 1 for a, _ in mu.atoms):
        return list(_tv_value_classes(mu, rho_w, n_max, cap))
    return list(_tv_pair_convolution(mu, rho_w, n_max, cap))


def tv_exact(mu: FiniteMeasure, rho, n: int, cap: int = DEFAULT_CAP) -> Weight:
    """Total variation at step n: the last value of ``tv_exact_curve``."""
    return tv_exact_curve(mu, rho, n, cap)[-1]


def _wilson(successes: int, trials: int, z: float = Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise InputError("Wilson interval needs at least one trial")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4 * trials * trials))
        / denom
    )
    return max(0.0, center - half), min(1.0, center + half)


def tv_lower_bound_mc(
    mu: FiniteMeasure,
    rho: float,
    n: int,
    trials: int,
    seed: int,
    threshold_frac: float = 0.2,
    workers: int = 1,
) -> EstimateResult:
    """Monte Carlo lower bound on TV via a prefix-coincidence event.

    Let A be the event that the Gromov product of the coordinate
    positions after n steps is at least ceil(threshold_frac * n).  TV
    dominates |P_coupled(A) - P_independent(A)|; both probabilities are
    estimated on disjoint substream families of the same seed, with
    Wilson intervals propagated to the difference.  Small thresholds
    give the event enough mass to separate couplings close to
    independence; the default 0.2 suits strongly coupled walks.
    """
    g_i = _independent_prefixes(mu, n, trials, seed, threshold_frac, workers)
    return _tv_lower_result(mu, rho, g_i, n, trials, seed, threshold_frac, workers)


def _independent_prefixes(mu, n, trials, seed, threshold_frac, workers) -> np.ndarray:
    """Gromov products of independent mu-walk pairs after n steps; they do not depend on rho."""
    if mu.kind != "single":
        raise ValidationError("tv_lower_bound_mc needs a single-coordinate measure")
    if not 0 < threshold_frac <= 1:
        raise InputError(f"threshold_frac must lie in (0, 1], got {threshold_frac!r}")
    return walkers.pair_prefix_lengths(
        build_pi_rho(mu, 1), n, trials, seed, rngmod.STREAM_TV_INDEPENDENT,
        workers=workers,
    )


def _tv_lower_result(mu, rho, g_i, n, trials, seed, threshold_frac, workers) -> EstimateResult:
    """The ``tv-lower-mc`` result from pi_rho-coupled walks and the independent ``g_i``."""
    j = math.ceil(threshold_frac * n)
    g_c = walkers.pair_prefix_lengths(
        build_pi_rho(mu, rho), n, trials, seed, rngmod.STREAM_TV_COUPLED, workers=workers
    )
    k1 = int((g_c >= j).sum())
    k2 = int((g_i >= j).sum())
    p1, p2 = k1 / trials, k2 / trials
    lo1, hi1 = _wilson(k1, trials)
    lo2, hi2 = _wilson(k2, trials)
    half = math.sqrt(((hi1 - lo1) / 2) ** 2 + ((hi2 - lo2) / 2) ** 2)
    value = abs(p1 - p2)
    se = math.sqrt(
        p1 * (1 - p1) / trials + p2 * (1 - p2) / trials
    )
    return EstimateResult(
        value=value,
        std_error=se,
        ci_low=max(0.0, value - half),
        ci_high=min(1.0, value + half),
        n=n,
        trials=trials,
        method="tv-lower-mc",
        details={
            "threshold": j,
            "threshold_frac": threshold_frac,
            "p_coupled": p1,
            "p_independent": p2,
            "wilson_coupled": [lo1, hi1],
            "wilson_independent": [lo2, hi2],
        },
    )


# ---------------------------------------------------------------------------
# sweeps over the coupling parameter


def rho_sweep(
    mu: FiniteMeasure,
    rho_grid,
    n: int,
    trials: int,
    seed: int,
    tv_ns: tuple[int, ...] = (),
    threshold_frac: float = 0.2,
    entropy_exact_max: int = DEFAULT_N_MAX,
    cap: int = DEFAULT_CAP,
    workers: int = 1,
) -> tuple[tuple[float, tuple[EstimateResult, ...]], ...]:
    """Estimate the entropy and TV lower bounds over a rho grid: one
    ``(rho, (entropy, *tv_lower))`` per grid point, the TV lower bounds
    in ``tv_ns`` order, each with its n in ``.n``.

    Only what depends on rho is estimated: each coordinate of pi_rho is a
    mu-walk, so every grid point has the drift of mu itself, which
    ``drift_mc(mu, ...)`` estimates once, and the independent walks of
    each TV lower bound are drawn once per n of ``tv_ns``.

    Grid cells reuse the same substreams (common random numbers), which
    keeps curves smooth in rho and results deterministic in the seed.
    Each entropy is the last result of ``entropy_estimate`` (method auto,
    not strict), and all come before any TV draw: a refused
    ``entropy_exact_max`` stops the sweep before any draw.
    """
    grid = [float(rho_weight(r)) for r in rho_grid]
    if not grid:
        raise InputError("rho grid is empty")
    ents = [entropy_estimate(mu, r, n, trials, seed, entropy_exact_max, cap)[-1]
            for r in grid]
    indep = [_independent_prefixes(mu, tn, trials, seed, threshold_frac, workers)
             for tn in tv_ns]
    return tuple(
        (r, (ent, *(_tv_lower_result(mu, r, g_i, tn, trials, seed, threshold_frac, workers)
                    for tn, g_i in zip(tv_ns, indep))))
        for r, ent in zip(grid, ents)
    )
