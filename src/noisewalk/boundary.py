"""Boundary sampling, cylinder trees, and local dimension of harmonic measure.

A trajectory of the coupled walk converges to a pair of boundary points;
finitely much of each is visible as the *stable prefix*: the common
prefix of the positions at the horizon N and at 2N, per coordinate.
Inverse-free walks never backtrack, so there the stable prefix is the
whole position at the horizon.

Boundary samples are held in columnar arrays (one int8 letter row per
trial and coordinate; on an inverse-free step filled one Philox counter
at a time, for the trials a reader needs) rather than per-sample
objects.

The cylinder tree counts how many sampled boundary pairs pass through
each pair-prefix cylinder.  Its levels are built on first use, per batch
of depths drawn together, by one packed sort of their pair codes, so a
reader that stops early never pays for the deeper batches.  Its export
is built level by level: the prefix strings of depth t extend those of
depth t - 1 by one letter name each.  Ball masses in the max quasi-metric
e^(-Gromov product) are cylinder frequencies, and the local dimension
is the slope of -log(ball mass) against the depth t, fitted per center
on a count matrix gathered one depth at a time.  A cylinder holding at
most ``min_count`` samples can give no center a usable count, there or
deeper, so the fit drops it: only the samples of cylinders that hold
more go on to draw and sort deeper letters, and the fit stops at the
first depth where every cylinder has dropped out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from . import rng as rngmod
from . import walkers
from .errors import InputError, ValidationError, check_count
from .estimators import EstimateResult, _mean_result
from .measures import FiniteMeasure, _sort_in_place, build_pi_rho


class BoundarySampleSet:
    """Columnar batch of boundary samples.

    ``letters1``/``letters2`` are [trials, keep_depth] int8 arrays of
    stable-prefix letters, zero-padded past each trial's stable length
    (``len1``/``len2`` given to the constructor), and ``usable_depth()``
    is min(len1, len2, keep_depth) per trial.

    A set given ``walk``, an inverse-free coupled step and the number of
    trials, in place of letters and lengths holds the walk's positions
    at the horizon, which are its stable prefixes.  It fills its letters
    one Philox counter (``rng.PHILOX_WORDS`` steps) at a time, for the
    trials still short of the depth read, and never past keep_depth.
    """

    def __init__(
        self,
        letters1: np.ndarray | None,
        letters2: np.ndarray | None,
        len1: np.ndarray | None,
        len2: np.ndarray | None,
        horizon: int,
        keep_depth: int,
        rank: int,
        seed: int,
        walk: tuple[FiniteMeasure, int] | None = None,
    ):
        self.horizon = horizon
        self.keep_depth = keep_depth
        self.rank = rank
        self.seed = seed
        # a letter pair's key is its two int8 letters read as one uint16, and
        # _codes[key] its pair code c1 * 2k + c2: letter x > 0 has code x - 1,
        # an inverse letter rank - 1 - x
        x = np.arange(-rank, rank + 1)
        code = np.where(x > 0, x - 1, rank - 1 - x)
        self._codes = np.zeros(2**16, dtype=np.int32)
        pairs = np.stack(np.broadcast_arrays(x[:, None], x), axis=-1).astype(np.int8)
        self._codes[pairs.view(np.uint16)[..., 0]] = code[:, None] * 2 * rank + code
        self._walk = walk
        if walk is None:  # every step drawn; the shortest atom is not known
            self._pairs = np.stack([letters1.T, letters2.T], axis=-1).astype(np.int8, copy=False)
            self._fill = np.array([len1, len2], dtype=np.int64)
            self._reach, self._shortest = np.full(len(len1), keep_depth), 0
        else:
            # letter pairs [keep_depth, trials, 2], so that a depth's pair keys
            # are contiguous; the last byte takes the letters past keep_depth
            self._flat = np.zeros(keep_depth * walk[1] * 2 + 1, dtype=np.int8)
            self._pairs = self._flat[:-1].reshape(keep_depth, walk[1], 2)
            self._mats = walkers.letter_matrices(walk[0])
            self._atom_lens = [np.count_nonzero(mat, axis=1) for mat in self._mats]
            self._shortest = min(int(lens.min()) for lens in self._atom_lens)
            # atoms of one length in both coordinates: a counter copies one block
            one = self._mats[0].shape == self._mats[1].shape and all(m.all() for m in self._mats)
            self._atom_keys = np.stack(self._mats, -1).view(np.uint16)[..., 0] if one else None
            self._fill = np.zeros((2, walk[1]), dtype=np.int64)  # letters drawn
            self._steps = np.zeros(walk[1], dtype=np.int32)
            # per trial, the leading columns drawn in both coordinates, and
            # keep_depth once every step is drawn
            self._reach = np.zeros(walk[1], dtype=np.int32)
        self._keys = self._pairs.view(np.uint16)[..., 0]

    def draw(self, depth: int, rows: np.ndarray | None = None) -> int:
        """Draw whole Philox counters for the trials ``rows`` (default all)
        short of ``depth`` letters in either coordinate, until each has
        them or has drawn every step; return how many leading columns
        every one of those trials has drawn."""
        sub = slice(None) if rows is None else rows
        while (short := self._reach[sub] < depth).any():
            steps = self._steps[sub]
            first = int(steps.min(where=short, initial=self.horizon))
            # the trials at one counter draw it together
            at = np.flatnonzero(short & (steps == first))
            self._draw_counter(at if rows is None else rows[at], first)
        return int(self._reach[sub].min(initial=self.keep_depth))

    def _draw_counter(self, trials: np.ndarray, first: int) -> None:
        """Append the letters of the counter whose first step is ``first``
        to each of ``trials``, from its fill pointer on, leaving out the
        atoms' zero padding and the letters past keep_depth."""
        last = min(first + rngmod.PHILOX_WORDS, self.horizon)
        idx = walkers.step_indices(self._walk[0], self.seed, rngmod.STREAM_BOUNDARY, trials,
                                   first, last).T
        rows = slice(None) if len(trials) == len(self) else trials
        self._steps[rows] = last
        depth, fill = self.keep_depth, self._fill[:, rows]
        if self._atom_keys is not None:  # every trial is at column first * atom length
            block = self._atom_keys.take(idx, axis=0).transpose(0, 2, 1).reshape(-1, len(trials))
            start = first * self._atom_keys.shape[1]
            self._keys[start : start + len(block), rows] = block[: max(0, depth - start)]
            fill = np.full((2, 1), start + len(block))  # one value for every trial
        else:  # each step's letters go to the fill pointer, which moves by the
            # atom's length, so the next step writes over the padding zeros
            for c, (mat, lens) in enumerate(zip(self._mats, self._atom_lens)):
                for atoms in idx:
                    at = fill[c] + np.arange(mat.shape[1])[:, None]
                    self._flat[np.where(at < depth, (at * len(self) + trials) * 2 + c,
                                        len(self._flat) - 1)] = mat.T.take(atoms, axis=1)
                    fill[c] += lens.take(atoms)
        self._fill[:, rows] = fill
        self._reach[rows] = depth if last == self.horizon else np.minimum(fill.min(0), depth)

    def pair_codes(self, lo: int, hi: int, rows: np.ndarray | None = None) -> np.ndarray:
        """[hi - lo, samples] int32 pair codes of columns lo..hi-1, which
        ``draw`` has drawn, of the samples ``rows`` (default all), by one
        gather from a code table."""
        return self._codes.take(self._keys[lo:hi] if rows is None else self._keys[lo:hi, rows])

    def _columns(self) -> tuple[np.ndarray, np.ndarray]:
        self.draw(self.keep_depth)
        return self._pairs[..., 0].T, self._pairs[..., 1].T

    letters1 = property(lambda self: self._columns()[0])
    letters2 = property(lambda self: self._columns()[1])

    def __len__(self) -> int:
        return len(self._reach)

    def usable_depth(self) -> np.ndarray:
        """Per-trial depth usable for cylinder queries, min(len1, len2,
        keep_depth).  It is keep_depth for every trial, and nothing is
        drawn, when horizon steps of the shortest atom reach keep_depth."""
        if self.keep_depth <= self.horizon * self._shortest:
            return np.full(len(self), self.keep_depth, dtype=np.int64)
        self.draw(self.keep_depth)
        return np.minimum(self._fill.min(axis=0), self.keep_depth)


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

    Per trial and coordinate, the stable prefix is the common prefix of
    the positions at the horizon and at twice the horizon.
    ``keep_depth`` limits how many letters are stored per coordinate
    (default: the horizon).  On an inverse-free step nothing cancels, so
    the stable prefix is the whole position at the horizon: the set
    draws it when first read, in-process, and ``workers`` is not used.
    Other steps run ``walkers.boundary_prefixes`` in ``workers``
    processes.
    """
    if mu.kind != "single":
        raise ValidationError("sample_boundary needs a single-coordinate measure")
    keep_depth = horizon if keep_depth is None else keep_depth
    for name, count in (("horizon", horizon), ("trials", trials), ("keep_depth", keep_depth),
                        ("workers", workers)):
        check_count(name, count)
    rngmod.check_seed(seed)
    walkers.check_keep_depth(mu, horizon, keep_depth)
    coupled = build_pi_rho(mu, rho)
    if coupled.inverse_free:
        return BoundarySampleSet(None, None, None, None, horizon, keep_depth, mu.rank, seed,
                                 walk=(coupled, trials))
    drawn = walkers.boundary_prefixes(coupled, horizon, keep_depth, trials, seed,
                                      rngmod.STREAM_BOUNDARY, workers=workers)
    return BoundarySampleSet(*drawn, horizon, keep_depth, mu.rank, seed)


# ---------------------------------------------------------------------------
# cylinder tree


@dataclass
class _TreeLevel:
    keys: np.ndarray  # sorted int64: parent_id * base + pair letter code
    sizes: np.ndarray  # int64 visit counts per node
    ids: np.ndarray  # int32 node id per sample, -1 when not in the level


@dataclass
class _LevelRun:
    """Where a run of levels stands: its deepest level (depth ``t``) and
    the sorted batch of the depths past it drawn together, through
    ``batch_end``: the batch's keys and the sample rows they belong to."""

    t: int
    level: _TreeLevel
    keys: np.ndarray | None = None
    rows: np.ndarray | None = None
    batch_end: int = 0


class CylinderTree:
    """Visit counts of sampled boundary pairs over pair-prefix cylinders.

    Level t holds one node per distinct pair of length-t prefixes seen
    among samples with usable depth >= t.  Node ids are the positions
    in the sorted key array of their level, so parents are recovered as
    key // base and letter codes as key % base.

    Levels are built on first use: ``level(t)`` builds every level down
    to t that is not built yet, and ``levels`` builds them all.  The d
    depths the samples draw together, as many as fit, are sorted once as
    ``parent id << (bits * d) | pair codes``.  The constructor checks
    letters given to the samples, so a zero letter inside a stable prefix
    fails here and not at a later read; drawn letters are nonzero by
    construction, and drawn only as levels read them.

    ``local_dimension`` goes on past the levels built with levels of its
    own, which split only large cylinders and are not kept here.
    """

    def __init__(self, samples: BoundarySampleSet, depth: int):
        check_count("depth", depth)
        if depth > samples.keep_depth:
            raise ValidationError(
                f"depth {depth} exceeds stored prefix depth {samples.keep_depth}"
            )
        self.depth = depth
        self.sample_count = n = len(samples)
        self.horizon = samples.horizon
        self.rank = samples.rank
        self.t_stable = samples.usable_depth()
        k2 = 2 * samples.rank
        self.letter_base = k2
        self.base = k2 * k2
        self._bits = (self.base - 1).bit_length()  # of one depth's pair code
        # depths whose codes fit in int64 beside a parent id and the sort's positions
        self._batch_depths = max(1, (63 - n.bit_length() - (n - 1).bit_length()) // self._bits)
        self._reached = int(self.t_stable.min(initial=depth))  # depth every sample reaches
        if samples._walk is None:
            inside = self.t_stable[:, None] > np.arange(depth)[None, :]
            zero = (samples.letters1[:, :depth] == 0) | (samples.letters2[:, :depth] == 0)
            if (zero & inside).any():
                raise ValidationError("zero letter inside a stable prefix")
        self._samples = samples
        self._levels: list[_TreeLevel] = []
        # level 0: every sample at the root
        root = _TreeLevel(np.zeros(1, dtype=np.int64), np.array([n]), np.zeros(n, dtype=np.int32))
        self._run = _LevelRun(0, root)

    def level(self, t: int) -> _TreeLevel:
        """Level t, building it and every shallower level not built yet."""
        self._check_depth(t)
        while len(self._levels) < t:
            self._levels.append(self._build_level(self._run, 0))
        return self._levels[t - 1]

    @property
    def levels(self) -> tuple[_TreeLevel, ...]:
        """Every level, 1..depth; builds those not built yet."""
        self.level(self.depth)
        return tuple(self._levels)

    def _levels_above(self, floor: int, last: int) -> Iterator[_TreeLevel]:
        """Levels 1..last for a reader of the nodes holding more than
        ``floor`` samples: those built, then the reader's own, built with
        that floor and not kept."""
        built, run = self._levels[:last], replace(self._run)
        yield from built
        while run.t < last:
            yield self._build_level(run, floor)

    def _kept(self, parent: _TreeLevel, t: int, floor: int, rows=None) -> np.ndarray | None:
        """Mask over ``rows`` (default every sample) of the samples that
        reach depth t and whose node of ``parent``, level t - 1, holds
        more than ``floor`` samples; None when that is all of them."""
        keep = None
        if t > self._reached:
            keep = (self.t_stable if rows is None else self.t_stable[rows]) >= t
        if floor:
            ids = parent.ids if rows is None else parent.ids[rows]
            big = np.append(parent.sizes > floor, False)[ids]  # id -1: not in level t - 1
            keep = big if keep is None else keep & big
        return None if keep is None or keep.all() else keep

    def _build_level(self, run: _LevelRun, floor: int) -> _TreeLevel:
        """Build level t = run.t + 1 and move ``run`` to it: split the
        nodes of level t - 1 holding more than ``floor`` samples by the
        pair letter at depth t, among their samples that reach it.  These
        are the runs of the batch's keys shifted down to depth t; past
        the batch, draw and sort the depths drawn with t first, for those
        samples only."""
        t, bits, parent = run.t + 1, self._bits, run.level
        if t > run.batch_end:
            keep = self._kept(parent, t, floor)
            rows = None if keep is None else np.flatnonzero(keep)
            end = min(self._samples.draw(t, rows), self.depth, t - 1 + self._batch_depths)
            keys = (parent.ids if rows is None else parent.ids[rows]).astype(np.int64)
            for codes in self._samples.pair_codes(t - 1, end, rows):
                keys <<= bits
                keys |= codes
            order = _sort_in_place(keys, self.sample_count << (bits * (end - t + 1)))
            run.keys, run.rows = keys, order if rows is None else rows[order]
            run.batch_end = end
        elif (keep := self._kept(parent, t, floor, run.rows)) is not None:
            run.keys, run.rows = run.keys[keep], run.rows[keep]
        prefix = run.keys >> (bits * (run.batch_end - t))
        rows = run.rows
        first = np.ones(len(prefix), dtype=bool)  # each run of equal prefixes is a node
        np.not_equal(prefix[1:], prefix[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        keys = parent.ids[rows[starts]] * np.int64(self.base) + (prefix[starts] & (1 << bits) - 1)
        ids = np.full(self.sample_count, -1, dtype=np.int32)
        ids[rows] = np.cumsum(first) - 1
        run.t, run.level = t, _TreeLevel(keys, np.diff(starts, append=len(prefix)), ids)
        if t == run.batch_end:  # the batch's last level: its keys are done
            run.keys = run.rows = None
        return run.level

    def node_count(self, t: int) -> int:
        return len(self.level(t).keys)

    def usable_count(self, t: int) -> int:
        """Samples that reach depth t (denominator of cylinder frequencies)."""
        return int(self.level(t).sizes.sum())

    def _check_depth(self, t: int) -> None:
        if not isinstance(t, int) or isinstance(t, bool) or not 1 <= t <= self.depth:
            raise InputError(f"depth t must lie in [1, {self.depth}], got {t!r}")

    def export_records(self, max_depth: int | None = None) -> Iterator[str]:
        """Yield one line per node: 'prefix1 prefix2 count'.

        Prefixes are comma-joined signed letter indices; lines come out
        depth by depth in sorted key order.
        """
        limit = self.depth if max_depth is None else max_depth
        self._check_depth(limit)
        # code c < rank is letter c + 1, a larger one the inverse letter rank - 1 - c
        names = [str(c + 1 if c < self.rank else self.rank - 1 - c)
                 for c in range(self.letter_base)]
        # a node's prefix strings are its parent's plus one letter each
        p1 = p2 = [""]
        for t in range(1, limit + 1):
            lv = self.level(t)
            parents, codes = np.divmod(lv.keys, self.base)
            sep = names if t == 1 else ["," + x for x in names]
            first, second = np.divmod(codes, self.letter_base)
            parents = parents.tolist()
            p1 = [p1[p] + sep[c] for p, c in zip(parents, first.tolist())]
            p2 = [p2[p] + sep[c] for p, c in zip(parents, second.tolist())]
            yield from [f"{a} {b} {n}" for a, b, n in zip(p1, p2, lv.sizes.tolist())]


def build_tree(samples: BoundarySampleSet, depth: int) -> CylinderTree:
    """Build the cylinder tree of a boundary sample set down to ``depth``."""
    return CylinderTree(samples, depth)


# the LAPACK gelsd gufunc np.linalg.lstsq calls, (m,n),(m,nrhs),()->(n,nrhs),(nrhs),(),(p)
_lstsq = np.linalg._umath_linalg.lstsq


def _lstsq_failed(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _line_slopes(xs: np.ndarray, ys: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """``np.polyfit(xs[:k], y[:k], 1)[0]`` bit for bit, per row y of ``ys``
    and its k in ``ks``.

    The rows with one k share polyfit's scaled matrix and rcond, and one
    stacked call of ``np.linalg.lstsq``'s gufunc solves them, each as its
    own one-column problem (a many-column solve rounds differently).  A
    LAPACK failure raises ``LinAlgError``, as in ``np.linalg.lstsq``.
    """
    slopes = np.empty(len(ks))
    with np.errstate(call=_lstsq_failed, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        for k in np.unique(ks).tolist():
            lhs = np.vander(xs[:k], 2)
            scale = np.sqrt((lhs * lhs).sum(axis=0))
            lhs /= scale
            rows = np.flatnonzero(ks == k)
            coef = _lstsq(lhs, ys[rows, :k, None], k * np.finfo(float).eps,
                          signature="ddd->ddid")[0]
            slopes[rows] = coef[:, 0, 0] / scale[0]
    return slopes


def local_dimension(
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

    Node sizes never grow with depth, so a cylinder holding at most
    ``min_count`` samples gives its centers counts below ``min_count``
    there and at every deeper depth.  Past the tree's deepest built
    level the fit builds levels of its own, which the tree does not
    keep, splitting only the cylinders that hold more: only their
    samples draw and sort deeper letters, and a center of a dropped
    cylinder reads a count below ``min_count``.  The fit stops at the
    first depth where every cylinder has dropped out, or at the last
    grid depth.  Each slope is ``np.polyfit(x, y, 1)[0]`` bit for bit;
    the centers with k usable depths are fitted together, in one stacked
    call of the least-squares routine ``np.linalg.lstsq`` calls.
    """
    for t in t_grid:
        tree._check_depth(t)
    ts = sorted(set(t_grid))
    if len(ts) < 2:
        raise InputError("t_grid needs at least two distinct depths")
    check_count("n_centers", n_centers)
    check_count("min_count", min_count)
    eligible = np.flatnonzero(tree.t_stable >= ts[0])
    if len(eligible) == 0:
        raise ValidationError("no sample is stable to the smallest grid depth")
    gen = rngmod.generator(seed, rngmod.stream_id(rngmod.STREAM_DIMENSION_CENTERS, 0))
    chosen = eligible[
        gen.choice(len(eligible), size=min(n_centers, len(eligible)), replace=False)
    ]
    chosen = np.sort(chosen)
    denom = tree.sample_count - 1
    # [centers, depths] leave-one-out counts; ids are -1 beyond a center's
    # reach, and in a level past the tree's, where its cylinder dropped out
    reach = tree.t_stable[chosen][:, None] >= np.array(ts)[None, :]
    counts = np.zeros(reach.shape, dtype=np.int64)
    column = {t: j for j, t in enumerate(ts)}
    for t, lv in enumerate(tree._levels_above(min_count, ts[-1]), start=1):
        if (j := column.get(t)) is not None:
            ids = lv.ids[chosen[reach[:, j]]]
            counts[reach[:, j], j] = np.append(lv.sizes, 0)[ids] - 1
        # node sizes never grow with depth: past this t no center is usable
        if lv.sizes.max(initial=0) <= min_count:
            break
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
    slopes = _line_slopes(np.array(ts, dtype=float), ys[fitted], ks[fitted])
    return _mean_result(
        slopes, tree.horizon, "local-dimension",
        {
            "centers_used": len(slopes),
            "centers_skipped": int(np.count_nonzero(~fitted)),
            "points_dropped": dropped_points,
            "min_count": min_count,
            "t_grid": [ts[0], ts[-1]],
        },
    )


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
) -> tuple[EstimateResult, EstimateResult, EstimateResult]:
    """Test whether two couplings produce boundary measures of different dimension.

    Returns the local dimensions at ``rho_a`` and ``rho_b`` and their gap
    b - a, whose ``details["conclusive"]`` says whether the two 95%
    intervals are disjoint.  Distinct exact dimensions imply mutually
    singular harmonic measures, so a conclusive gap is evidence of
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
        dims.append(local_dimension(tree, t_grid, n_centers, seed, min_count))
    a, b = dims
    gap = b.value - a.value
    se = math.hypot(a.std_error, b.std_error)
    conclusive = a.ci_high < b.ci_low or b.ci_high < a.ci_low
    gap_result = EstimateResult(gap, se, gap - 1.96 * se, gap + 1.96 * se, horizon, trials,
                                "dimension-gap", {"conclusive": conclusive})
    return a, b, gap_result
