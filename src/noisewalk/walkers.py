"""Vectorized batch simulation of many independent walk trajectories.

Trial i always draws from the Philox stream (component, i), so any
partition of trials into blocks, and any assignment of blocks to
worker processes, produces bit-identical per-trial results.  Blocks
are fixed-size; multiprocess runs map blocks to a pool of at most one
worker per block and per core, and reassemble them in block order.

The walk itself runs as a batch stack machine over int8 letter
columns: each atom is expanded to its letter sequence (zero-padded to
the longest atom), and every column applies one letter to all trials
at once with vectorized cancel-or-push updates.  On an inverse-free
support nothing cancels, so a position is the concatenation of its
increments: boundary samples there run no stack machine.  They expand
only the steps that can reach the ``keep_depth`` kept letters, squeeze
out the padding, and read each position's length off the atom lengths.
"""

from __future__ import annotations

import os
from functools import partial

import numpy as np

from . import rng as rngmod
from .errors import BudgetError, InputError
from .measures import FiniteMeasure

BLOCK = 4096
_MAX_RANK_INT8 = 120


def block_ranges(trials: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + BLOCK, trials)) for lo in range(0, trials, BLOCK)]


def letter_matrices(measure: FiniteMeasure) -> list[np.ndarray]:
    """Per-coordinate [n_atoms, max_len] int8 letter matrices, zero padded."""
    if measure.rank > _MAX_RANK_INT8:
        raise BudgetError(f"rank {measure.rank} exceeds the int8 letter budget")
    coords = 2 if measure.kind == "pair" else 1
    out = []
    for c in range(coords):
        rows = [(a[c] if measure.kind == "pair" else a) for a, _ in measure.atoms]
        width = max((len(r) for r in rows), default=1)
        width = max(width, 1)
        mat = np.zeros((len(rows), width), dtype=np.int8)
        for i, r in enumerate(rows):
            mat[i, : len(r)] = r
        out.append(mat)
    return out


def index_block(
    measure: FiniteMeasure, n: int, seed: int, component: int, lo: int, hi: int
) -> np.ndarray:
    """Atom indices [hi-lo, n]; row i comes from stream (component, lo + i).

    Short streams are drawn as one uniform matrix and looked up with one
    ``searchsorted``; long ones row by row, so no [trials, n] float
    matrix is built beside the index matrix.
    """
    cum = measure._cumulative()
    streams = rngmod.stream_ids(component, lo, hi)
    if n <= rngmod.SHORT_STREAM:
        u = rngmod.uniform_rows(seed, streams, n)
        return rngmod.cdf_indices(cum, u).astype(np.int32)
    out = np.empty((hi - lo, n), dtype=np.int32)
    for i, stream in enumerate(streams.tolist()):
        out[i] = rngmod.sample_indices(cum, n, rngmod.generator(seed, stream))
    return out


def _run_stack(
    letters: np.ndarray, state: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Reduce letter columns [T, steps] against per-trial stacks.

    Zero letters are padding and do nothing.  ``state`` is a (stacks,
    ptrs) pair to resume from, left unchanged; by default every stack
    starts empty.  Returns (stacks, ptrs): stacks[i, :ptrs[i]] is the
    reduced word of trial i.
    """
    t, steps = letters.shape
    st0, pt0 = state or (np.zeros((t, 1), dtype=np.int8), np.zeros(t, dtype=np.int32))
    st = np.zeros((t, st0.shape[1] + steps), dtype=np.int8)
    st[:, : st0.shape[1]] = st0
    pt = pt0.copy()
    rows = np.arange(t)
    for col in range(steps):
        x = letters[:, col]
        act = x != 0
        top = st[rows, np.maximum(pt - 1, 0)]
        cancel = act & (pt > 0) & (top == -x)
        pt[cancel] -= 1
        push = act & ~cancel
        pr = rows[push]
        st[pr, pt[push]] = x[push]
        pt[push] += 1
    return st, pt


def _letters(mat: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Letter columns [T, steps * width] of the atoms ``idx`` [T, steps]."""
    return mat[idx].reshape(len(idx), -1)


def _final_stacks(
    measure: FiniteMeasure, n: int, seed: int, component: int, lo: int, hi: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-coordinate (stacks, ptrs) of one block of walks after n steps."""
    idx = index_block(measure, n, seed, component, lo, hi)
    return [_run_stack(_letters(mat, idx)) for mat in letter_matrices(measure)]


def _map_blocks(func, n: int, trials: int, workers: int) -> list[np.ndarray]:
    """Run ``func`` on every block of ``trials`` and join the parts.

    ``func(block)`` returns a tuple of per-trial arrays for its block,
    and ``n`` is the walk length bound into it; both counts must be
    positive.  Part i of the result is the block-order concatenation of
    entry i.  The pool has at most one process per block and per core;
    results do not depend on how many there are.
    """
    for name, count in (("n", n), ("trials", trials)):
        if not isinstance(count, int) or count < 1:
            raise InputError(f"{name} must be a positive integer, got {count!r}")
    blocks = block_ranges(trials)
    workers = min(workers, len(blocks), os.cpu_count() or 1)
    if workers <= 1:
        parts = [func(b) for b in blocks]
    else:
        from concurrent.futures import ProcessPoolExecutor  # only pooled runs pay for it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(func, blocks))
    return [np.concatenate(column) for column in zip(*parts)]


def _length_block(measure, n, seed, component, block):
    return tuple(pt for _, pt in _final_stacks(measure, n, seed, component, *block))


def final_lengths(
    measure: FiniteMeasure,
    n: int,
    trials: int,
    seed: int,
    component: int,
    workers: int = 1,
) -> list[np.ndarray]:
    """Word length of each trial's position after n steps, per coordinate."""
    func = partial(_length_block, measure, n, seed, component)
    return _map_blocks(func, n, trials, workers)


def _common_prefix_lengths(
    st_a: np.ndarray, pt_a: np.ndarray, st_b: np.ndarray, pt_b: np.ndarray
) -> np.ndarray:
    """Length of the common prefix of two stacked word batches, rowwise.

    Only columns below min(pt_a, pt_b) are compared, and both stacks are
    at least that wide, so their widths need not agree.
    """
    lim = np.minimum(pt_a, pt_b)
    width = int(lim.max(initial=0))
    if width == 0:
        return np.zeros(len(pt_a), dtype=np.int32)
    cols = np.arange(width)
    mism = (st_a[:, :width] != st_b[:, :width]) | (cols[None, :] >= lim[:, None])
    any_m = mism.any(axis=1)
    first = np.argmax(mism, axis=1).astype(np.int32)
    return np.where(any_m, first, lim.astype(np.int32))


def _kept_letters(st: np.ndarray, lengths: np.ndarray, keep_depth: int) -> np.ndarray:
    """[T, keep_depth] int8 whose row i is st[i, :min(lengths[i], keep_depth)],
    zero padded."""
    clip = np.minimum(lengths, keep_depth)
    letters = np.zeros((len(st), keep_depth), dtype=np.int8)
    w = min(st.shape[1], keep_depth)
    letters[:, :w] = st[:, :w]
    letters[np.arange(keep_depth)[None, :] >= clip[:, None]] = 0
    return letters


def _pair_prefix_block(measure, n, seed, component, block):
    (st1, pt1), (st2, pt2) = _final_stacks(measure, n, seed, component, *block)
    return (_common_prefix_lengths(st1, pt1, st2, pt2),)


def pair_prefix_lengths(
    pair_measure: FiniteMeasure,
    n: int,
    trials: int,
    seed: int,
    component: int,
    workers: int = 1,
) -> np.ndarray:
    """Common-prefix length between the two coordinates after n steps.

    This is the Gromov product of the position pair for each trial.
    """
    if pair_measure.kind != "pair":
        raise InputError("pair_prefix_lengths needs a pair measure")
    func = partial(_pair_prefix_block, pair_measure, n, seed, component)
    return _map_blocks(func, n, trials, workers)[0]


def _boundary_block(measure, horizon, keep_depth, seed, component, block):
    """(letters1, letters2, len1, len2) of one block of boundary_prefixes."""
    if measure.inverse_free:
        return _inverse_free_boundary_block(
            measure, horizon, keep_depth, seed, component, block
        )
    idx = index_block(measure, 2 * horizon, seed, component, *block)
    letters, lengths = [], []
    for mat in letter_matrices(measure):
        snap = _run_stack(_letters(mat, idx[:, :horizon]))
        st, pt = _run_stack(_letters(mat, idx[:, horizon:]), snap)
        plen = _common_prefix_lengths(*snap, st, pt)
        letters.append(_kept_letters(snap[0], plen, keep_depth))
        lengths.append(plen)
    return (*letters, *lengths)


def _inverse_free_boundary_block(measure, horizon, keep_depth, seed, component, block):
    """``_boundary_block`` on an inverse-free support.

    Positions only ever grow, so the state at the horizon is a prefix of
    every later state: the stable prefix is the full position at the
    horizon, and the later steps need not be simulated.  Of the horizon
    steps, only the first s can reach the kept letters, where every step
    adds at least m letters.  Nothing cancels, so the reduced word is the
    letter row with its padding zeros squeezed out; no stack machine runs.
    """
    mats = letter_matrices(measure)
    atom_lens = [np.count_nonzero(mat, axis=1) for mat in mats]
    m = min(int(lens.min()) for lens in atom_lens)
    s = horizon if m == 0 else min(horizon, -(-keep_depth // m))
    same_len = [lens.min() == lens.max() for lens in atom_lens]
    idx = index_block(measure, s if all(same_len) else horizon, seed, component, *block)
    letters, lengths = [], []
    for mat, lens, same in zip(mats, atom_lens, same_len):
        st = _letters(mat, idx[:, :s])
        if lens.min() < mat.shape[1]:  # move the letters left of the padding, in order
            st = np.take_along_axis(st, np.argsort(st == 0, axis=1, kind="stable"), 1)
        pt = np.count_nonzero(st, axis=1)
        if same:
            full = np.full(len(idx), horizon * int(lens[0]), dtype=np.int32)
        else:
            full = lens[idx].sum(axis=1).astype(np.int32)
        # pt < keep_depth only when s == horizon, where pt == full
        letters.append(_kept_letters(st, pt, keep_depth))
        lengths.append(full)
    return (*letters, *lengths)


def boundary_prefixes(
    pair_measure: FiniteMeasure,
    horizon: int,
    keep_depth: int,
    trials: int,
    seed: int,
    component: int,
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stable prefixes of a batch of pair walks.

    Runs each walk to 2 * horizon and takes, per coordinate, the common
    prefix of the positions at the horizon and at twice the horizon.
    Inverse-free walks shortcut this: the prefix is the full position at
    the horizon, and only its first ``keep_depth`` letters are built.
    Returns (letters1, letters2, len1, len2) where the letter arrays are
    [trials, keep_depth] int8, zero padded beyond the per-trial stable
    length, and len1/len2 are the full stable lengths.
    """
    if pair_measure.kind != "pair":
        raise InputError("boundary_prefixes needs a pair measure")
    func = partial(_boundary_block, pair_measure, horizon, keep_depth, seed, component)
    return tuple(_map_blocks(func, horizon, trials, workers))
