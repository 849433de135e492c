"""Boundary sampling, cylinder trees, and local dimension of harmonic measure.

A trajectory of the coupled walk converges to a pair of boundary points;
finitely much of each is visible as the *stable prefix*: the common
prefix of the positions at the horizon N and at 2N, per coordinate.
Inverse-free walks never backtrack, so there the stable prefix is the
whole position at the horizon.

Boundary samples are held in columnar arrays (one int8 letter row per
trial) rather than per-sample objects; a ``BoundarySampleSet`` behaves
like a sequence of ``BoundarySample`` views for small-scale use.

The cylinder tree counts how many sampled boundary pairs pass through
each pair-prefix cylinder.  Its levels are built on first use, each
from the one above it, so a reader that stops early never pays for the
deeper levels.  Its export is built level by level: the prefix strings
of depth t extend those of depth t - 1 by one letter name each.  Ball
masses in the max quasi-metric e^(-Gromov product) are cylinder
frequencies, and the local dimension is the slope of -log(ball mass)
against the depth t, fitted per center on a count matrix gathered one
depth at a time; the gathering stops at the first grid depth where no
node holds ``min_count + 1`` samples, since no deeper node can.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import rng as rngmod
from . import walkers
from .errors import InputError, ValidationError
from .estimators import EstimateResult, _mean_result
from .measures import FiniteMeasure, build_pi_rho, uniform_letter_count
from .oracle import h_semigroup
from .words import Word


@dataclass(frozen=True)
class BoundarySample:
    """Stable prefix pair of one trajectory (a view into a sample set)."""

    prefix1: Word
    prefix2: Word
    t_stable: int
    stable: bool
    trial: int
    seed: int


class BoundarySampleSet:
    """Columnar batch of boundary samples; indexable like a sequence.

    ``letters1``/``letters2`` are [trials, keep_depth] int8 arrays of
    stable-prefix letters, zero-padded past each trial's stable length.
    ``t_stable`` is the per-trial min of the two coordinate stable
    lengths (not clipped to keep_depth).
    """

    def __init__(
        self,
        letters1: np.ndarray,
        letters2: np.ndarray,
        len1: np.ndarray,
        len2: np.ndarray,
        horizon: int,
        keep_depth: int,
        rank: int,
        seed: int,
    ):
        self.letters1 = letters1
        self.letters2 = letters2
        self.len1 = len1.astype(np.int64)
        self.len2 = len2.astype(np.int64)
        self.t_stable = np.minimum(self.len1, self.len2)
        self.horizon = horizon
        self.keep_depth = keep_depth
        self.rank = rank
        self.seed = seed

    def __len__(self) -> int:
        return len(self.letters1)

    def usable_depth(self) -> np.ndarray:
        """Per-trial depth usable for cylinder queries."""
        return np.minimum(self.t_stable, self.keep_depth)

    def __getitem__(self, i: int) -> BoundarySample:
        if not -len(self) <= i < len(self):
            raise IndexError(i)
        i = i % len(self)
        l1 = int(min(self.len1[i], self.keep_depth))
        l2 = int(min(self.len2[i], self.keep_depth))
        return BoundarySample(
            prefix1=tuple(int(x) for x in self.letters1[i, :l1]),
            prefix2=tuple(int(x) for x in self.letters2[i, :l2]),
            t_stable=int(self.t_stable[i]),
            stable=bool(self.t_stable[i] > 0),
            trial=i,
            seed=self.seed,
        )

    def __iter__(self) -> Iterator[BoundarySample]:
        return (self[i] for i in range(len(self)))


def sample_boundary(
    mu: FiniteMeasure,
    rho: float,
    horizon: int,
    trials: int,
    seed: int,
    keep_depth: int | None = None,
    workers: int = 1,
) -> BoundarySampleSet:
    """Sample boundary prefix pairs of the coupled walk.

    Each trial runs the coupled walk to 2 * horizon and records, per
    coordinate, the common prefix of the positions at the horizon and
    at twice the horizon.  ``keep_depth`` limits how many letters are
    stored per coordinate (default: the horizon).
    """
    if mu.kind != "single":
        raise ValidationError("sample_boundary needs a single-coordinate measure")
    if not isinstance(horizon, int) or horizon < 1:
        raise InputError(f"horizon must be a positive integer, got {horizon!r}")
    if not isinstance(trials, int) or trials < 1:
        raise InputError(f"trials must be a positive integer, got {trials!r}")
    if keep_depth is None:
        keep_depth = horizon
    if not isinstance(keep_depth, int) or keep_depth < 1:
        raise InputError(f"keep_depth must be a positive integer, got {keep_depth!r}")
    coupled = build_pi_rho(mu, rho)
    letters1, letters2, len1, len2 = walkers.boundary_prefixes(
        coupled,
        horizon,
        keep_depth,
        trials,
        seed,
        rngmod.STREAM_BOUNDARY,
        workers=workers,
    )
    return BoundarySampleSet(
        letters1, letters2, len1, len2, horizon, keep_depth, mu.rank, seed
    )


# ---------------------------------------------------------------------------
# cylinder tree


@dataclass
class _TreeLevel:
    keys: np.ndarray  # sorted int64: parent_id * base + pair letter code
    sizes: np.ndarray  # int64 visit counts per node
    ids: np.ndarray  # int32 node id per sample, -1 when unusable at this depth


class CylinderTree:
    """Visit counts of sampled boundary pairs over pair-prefix cylinders.

    Level t holds one node per distinct pair of length-t prefixes seen
    among samples with usable depth >= t.  Node ids are the positions
    in the sorted key array of their level, so parents are recovered as
    key // base and letter codes as key % base.

    Levels are built on first use: ``level(t)`` builds every level down
    to t that is not built yet, and ``levels`` builds them all.  The
    constructor only checks the samples, so a zero letter inside a
    stable prefix fails here and not at a later read.
    """

    def __init__(self, samples: BoundarySampleSet, depth: int):
        if not isinstance(depth, int) or depth < 1:
            raise InputError(f"depth must be a positive integer, got {depth!r}")
        if depth > samples.keep_depth:
            raise ValidationError(
                f"depth {depth} exceeds stored prefix depth {samples.keep_depth}"
            )
        self.depth = depth
        self.sample_count = len(samples)
        self.horizon = samples.horizon
        self.rank = samples.rank
        self.t_stable = samples.usable_depth()
        self.seed = samples.seed
        k2 = 2 * samples.rank
        self.letter_base = k2
        self.base = k2 * k2
        inside = self.t_stable[:, None] > np.arange(depth)[None, :]
        zero = (samples.letters1[:, :depth] == 0) | (samples.letters2[:, :depth] == 0)
        if (zero & inside).any():
            raise ValidationError("zero letter inside a stable prefix")
        self._letters = (samples.letters1, samples.letters2)
        self._levels: list[_TreeLevel] = []
        self._ids = np.zeros(len(samples), dtype=np.int64)  # level 0: all at the root

    def level(self, t: int) -> _TreeLevel:
        """Level t, building it and every shallower level not built yet."""
        self._check_depth(t)
        while len(self._levels) < t:
            self._levels.append(self._build_level(len(self._levels) + 1))
        return self._levels[t - 1]

    @property
    def levels(self) -> tuple[_TreeLevel, ...]:
        """Every level, 1..depth; builds those not built yet."""
        self.level(self.depth)
        return tuple(self._levels)

    def _build_level(self, t: int) -> _TreeLevel:
        """Split the nodes of level t - 1 by the pair letter at depth t."""
        active = self.t_stable >= t
        x1 = self._letters[0][active, t - 1].astype(np.int64)
        x2 = self._letters[1][active, t - 1].astype(np.int64)
        c1 = np.where(x1 > 0, x1 - 1, self.rank - 1 - x1)
        c2 = np.where(x2 > 0, x2 - 1, self.rank - 1 - x2)
        keys = self._ids[active] * self.base + c1 * self.letter_base + c2
        uniq, inverse = np.unique(keys, return_inverse=True)
        sizes = np.bincount(inverse, minlength=len(uniq)).astype(np.int64)
        new_ids = np.full(self.sample_count, -1, dtype=np.int64)
        new_ids[active] = inverse
        self._ids = new_ids
        return _TreeLevel(uniq, sizes, new_ids.astype(np.int32))

    def node_count(self, t: int) -> int:
        return len(self.level(t).keys)

    def usable_count(self, t: int) -> int:
        """Samples that reach depth t (denominator of cylinder frequencies)."""
        return int(self.level(t).sizes.sum())

    def _check_depth(self, t: int) -> None:
        if not isinstance(t, int) or not 1 <= t <= self.depth:
            raise InputError(f"depth t must lie in [1, {self.depth}], got {t!r}")

    def _decode_letter(self, code: int) -> int:
        if code < self.rank:
            return code + 1
        return -(code - self.rank + 1)

    def export_records(self, max_depth: int | None = None) -> Iterator[str]:
        """Yield one line per node: 'prefix1 prefix2 count'.

        Prefixes are comma-joined signed letter indices; lines come out
        depth by depth in sorted key order.
        """
        limit = self.depth if max_depth is None else max_depth
        self._check_depth(limit)
        names = np.array(
            [str(self._decode_letter(c)) for c in range(self.letter_base)], dtype=object
        )
        # a node's prefix strings are its parent's plus one letter each
        p1 = p2 = np.array([""], dtype=object)
        for t in range(1, limit + 1):
            lv = self.level(t)
            parents, codes = np.divmod(lv.keys, self.base)
            sep = names if t == 1 else "," + names
            p1 = p1[parents] + sep[codes // self.letter_base]
            p2 = p2[parents] + sep[codes % self.letter_base]
            yield from (p1 + " " + p2 + " " + lv.sizes.astype(str).astype(object)).tolist()


def build_tree(samples: BoundarySampleSet, depth: int) -> CylinderTree:
    """Build the cylinder tree of a boundary sample set down to ``depth``."""
    return CylinderTree(samples, depth)


def local_dimension(
    samples: BoundarySampleSet,
    tree: CylinderTree,
    t_grid: tuple[int, ...],
    n_centers: int,
    seed: int,
    min_count: int = 5,
) -> EstimateResult:
    """Local dimension of the empirical boundary measure at the max metric.

    For each randomly chosen center, regress -log(leave-one-out ball
    mass) on the depth t over the grid points the center is stable for;
    the slope estimates the exact dimension h/l.  Grid points whose
    leave-one-out count falls below ``min_count`` are dropped (tiny
    counts bias the log), and centers with fewer than two surviving
    points are skipped.  The estimate averages the per-center slopes
    with a normal interval.

    Node sizes never grow with depth, so once no node at a grid depth
    holds ``min_count + 1`` samples, no center is usable there or
    deeper; the fit stops at that depth and the tree's deeper levels
    stay unbuilt.  Each slope is ``np.polyfit(x, y, 1)[0]`` bit for bit,
    with polyfit's scaled least-squares matrix built once per number of
    usable depths.
    """
    if len(samples) != tree.sample_count:
        raise ValidationError("tree was built from a different sample count")
    ts = sorted(set(int(t) for t in t_grid))
    if len(ts) < 2:
        raise InputError("t_grid needs at least two distinct depths")
    for t in ts:
        tree._check_depth(t)
    if not isinstance(n_centers, int) or n_centers < 1:
        raise InputError(f"n_centers must be a positive integer, got {n_centers!r}")
    if min_count < 1:
        raise InputError("min_count must be at least 1")
    eligible = np.flatnonzero(tree.t_stable >= ts[0])
    if len(eligible) == 0:
        raise ValidationError("no sample is stable to the smallest grid depth")
    gen = rngmod.generator(seed, rngmod.stream_id(rngmod.STREAM_DIMENSION_CENTERS, 0))
    chosen = eligible[
        gen.choice(len(eligible), size=min(n_centers, len(eligible)), replace=False)
    ]
    chosen = np.sort(chosen)
    denom = tree.sample_count - 1
    # [centers, depths] leave-one-out counts; ids are -1 beyond a center's reach
    reach = tree.t_stable[chosen][:, None] >= np.array(ts)[None, :]
    counts = np.zeros(reach.shape, dtype=np.int64)
    for j, t in enumerate(ts):
        lv = tree.level(t)
        # node sizes never grow with depth: past this t no center is usable
        if lv.sizes.max(initial=0) - 1 < min_count:
            break
        counts[reach[:, j], j] = lv.sizes[lv.ids[chosen[reach[:, j]]]] - 1
    usable = reach & (counts >= min_count)
    dropped_points = int(np.count_nonzero(reach & ~usable))
    # math.log, not np.log: libm rounding keeps the slopes bit for bit
    distinct, inverse = np.unique(counts[usable], return_inverse=True)
    logs = np.array([-math.log(cnt / denom) for cnt in distinct.tolist()])
    ys = np.zeros(reach.shape)
    ys[usable] = logs[inverse]
    # a center's usable depths are the first k grid depths: reach is a
    # prefix, and counts never grow with depth
    ks = np.count_nonzero(usable, axis=1)
    fitted = ks >= 2
    if not fitted.any():
        raise ValidationError("no center had two usable grid depths")
    # np.polyfit(x, y, 1)[0], with its scaled least-squares set-up made
    # once per k instead of once per center
    xs = np.array(ts, dtype=float)
    setups = {}
    slopes = np.empty(int(np.count_nonzero(fitted)))
    for i, (k, y) in enumerate(zip(ks[fitted].tolist(), ys[fitted])):
        if k not in setups:
            lhs = np.vander(xs[:k], 2)
            scale = np.sqrt((lhs * lhs).sum(axis=0))
            lhs /= scale
            setups[k] = lhs, scale[0], k * np.finfo(float).eps
        lhs, scale0, rcond = setups[k]
        slopes[i] = np.linalg.lstsq(lhs, y[:k], rcond)[0][0] / scale0
    return _mean_result(
        slopes, tree.horizon, seed, "local-dimension",
        {
            "centers_used": len(slopes),
            "centers_skipped": int(np.count_nonzero(~fitted)),
            "points_dropped": dropped_points,
            "min_count": min_count,
            "t_grid": [ts[0], ts[-1]],
        },
    )


@dataclass(frozen=True)
class DimensionGapReport:
    """Comparison of local dimensions at two noise levels."""

    dim_a: EstimateResult
    dim_b: EstimateResult
    gap: float
    gap_std_error: float
    conclusive: bool  # the two 95% intervals are disjoint
    closed_form_a: float | None
    closed_form_b: float | None


def dimension_singularity_check(
    mu: FiniteMeasure,
    rho_a: float,
    rho_b: float,
    horizon: int,
    trials: int,
    t_grid: tuple[int, ...],
    n_centers: int,
    seed: int,
    min_count: int = 5,
    workers: int = 1,
) -> DimensionGapReport:
    """Test whether two couplings produce boundary measures of different dimension.

    Distinct exact dimensions imply mutually singular harmonic measures,
    so a conclusive gap (disjoint confidence intervals) is evidence of
    singularity.  Both runs reuse the same seed and substreams (common
    random numbers), which correlates the estimates but never widens the
    reported intervals' validity for the individual dimensions.
    """
    dims = []
    for rho in (rho_a, rho_b):
        s = sample_boundary(
            mu, rho, horizon, trials, seed,
            keep_depth=max(t_grid), workers=workers,
        )
        tree = build_tree(s, max(t_grid))
        dims.append(local_dimension(s, tree, t_grid, n_centers, seed, min_count))
    a, b = dims
    gap = b.value - a.value
    se = math.hypot(a.std_error, b.std_error)
    conclusive = a.ci_high < b.ci_low or b.ci_high < a.ci_low
    m = uniform_letter_count(mu)
    return DimensionGapReport(
        dim_a=a,
        dim_b=b,
        gap=gap,
        gap_std_error=se,
        conclusive=conclusive,
        closed_form_a=h_semigroup(m, rho_a) if m is not None else None,
        closed_form_b=h_semigroup(m, rho_b) if m is not None else None,
    )
