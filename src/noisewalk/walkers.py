"""Vectorized batch simulation of many independent walk trajectories.

Trial i always draws from the Philox stream (component, i), so any
partition of trials into blocks, and any assignment of blocks to
worker processes, produces bit-identical per-trial results.  Blocks
are fixed-size; multiprocess runs map blocks to a pool of at most one
worker per block and per core, and reassemble them in block order.

The walk itself runs as a batch stack machine over int8 letter
columns: each atom is expanded to its letter sequence (zero-padded to
the longest atom), and each column reduces all trials at once with
one gather of the tops and one scatter above them.  On an
inverse-free support nothing cancels, so a position is the
concatenation of its increments and boundary samples need no stack
machine: ``step_indices`` draws the atoms of any range of steps of
any trial rows, in-process, for the sample sets of
``boundary.sample_boundary``, which draw on first read.
"""

from __future__ import annotations

import os
from functools import partial

import numpy as np

from . import rng as rngmod
from .errors import BudgetError, InputError, check_count
from .measures import FiniteMeasure

BLOCK = 4096
_MAX_RANK_INT8 = 120
_WORDS_PER_DRAW = 2**20  # long streams are drawn at most this many words at a time


def letter_matrices(measure: FiniteMeasure) -> list[np.ndarray]:
    """Per-coordinate [n_atoms, max_len] int8 letter matrices, zero padded."""
    if measure.rank > _MAX_RANK_INT8:
        raise BudgetError(f"rank {measure.rank} exceeds the int8 letter budget")
    coords = 2 if measure.kind == "pair" else 1
    out = []
    for c in range(coords):
        rows = [(a[c] if measure.kind == "pair" else a) for a, _ in measure.atoms]
        width = max([1, *map(len, rows)])
        mat = np.zeros((len(rows), width), dtype=np.int8)
        for i, r in enumerate(rows):
            mat[i, : len(r)] = r
        out.append(mat)
    return out


def index_block(
    measure: FiniteMeasure, n: int, seed: int, component: int, trials, counter: int = 1,
) -> np.ndarray:
    """Atom indices [len(trials), n]; row i comes from stream (component,
    trials[i]), from Philox counter ``counter`` on (``rng.PHILOX_WORDS``
    indices per counter).

    Raw Philox words become indices through the measure's guide table,
    built once per measure.
    Long streams are drawn a few rows at a time, so no [trials, n] word
    matrix is built beside the index matrix.
    """
    cum, guide = measure._cumulative, measure._guide
    streams = rngmod.stream_ids(component, trials)
    out = np.empty((len(streams), n), dtype=np.int32)
    rows = max(1, _WORDS_PER_DRAW // max(n, 1))
    for a in range(0, len(streams), rows):
        words = rngmod.word_rows(seed, streams[a : a + rows], n, counter)
        out[a : a + rows] = rngmod.word_indices(cum, words, guide)
    return out


def _run_stack(
    letters: np.ndarray, state: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Reduce letter columns [T, steps] against per-trial stacks.

    Zero letters are padding and do nothing.  ``state`` is a (stacks,
    ptrs) pair to resume from, left unchanged; by default every stack
    starts empty.  Returns (stacks, ptrs): stacks[i, :ptrs[i]] is the
    reduced word of trial i; past ptrs[i] lie leftovers, which readers mask.

    The stacks sit in one flat int8 array, each above a zero column, so an
    empty stack's top reads 0.  A column writes its letter above every top,
    then moves each pointer up on a push or down on a cancel.
    """
    t = len(letters)
    st0, pt0 = state or (np.zeros((t, 0), dtype=np.int8), np.zeros(t, dtype=np.int32))
    st = np.pad(st0, ((0, 0), (1, letters.shape[1])))
    flat = st.reshape(-1)
    base = np.arange(t) * st.shape[1] + 1
    at = base + pt0  # the slot above each top
    for x in letters.T:
        push = x != 0
        cancel = push & (flat[at - 1] == -x)
        flat[at] = x
        at += push
        at -= 2 * cancel
    return st[:, 1:], (at - base).astype(np.int32)


def _final_stacks(
    measure: FiniteMeasure, n: int, seed: int, component: int, lo: int, hi: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-coordinate (stacks, ptrs) of one block of walks after n steps."""
    idx = index_block(measure, n, seed, component, np.arange(lo, hi))
    return [_run_stack(mat[idx].reshape(len(idx), -1)) for mat in letter_matrices(measure)]


def _map_blocks(func, n: int, trials: int, workers: int) -> list[np.ndarray]:
    """Run ``func`` on every block of ``trials`` and join the parts.

    ``func(block)`` returns a tuple of per-trial arrays for its block,
    and ``n`` is the walk length bound into it; both counts, and
    ``workers``, must be positive.  Part i of the result is the
    block-order concatenation of entry i.  The pool has at most one
    process per block and per core; results do not depend on how many
    there are.
    """
    for name, count in (("n", n), ("trials", trials), ("workers", workers)):
        check_count(name, count)
    blocks = [(lo, min(lo + BLOCK, trials)) for lo in range(0, trials, BLOCK)]
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
    letters = np.zeros((len(st), keep_depth), dtype=np.int8)
    w = min(st.shape[1], keep_depth)
    letters[:, :w] = st[:, :w]
    letters[np.arange(keep_depth)[None, :] >= lengths[:, None]] = 0
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
    idx = index_block(measure, 2 * horizon, seed, component, np.arange(*block))
    letters, lengths = [], []
    for mat in letter_matrices(measure):
        cols = mat[idx].reshape(len(idx), -1)  # letter columns, horizon * width per half
        snap = _run_stack(cols[:, : horizon * mat.shape[1]])
        st, pt = _run_stack(cols[:, horizon * mat.shape[1] :], snap)
        plen = _common_prefix_lengths(*snap, st, pt)
        letters.append(_kept_letters(snap[0], plen, keep_depth))
        lengths.append(plen)
    return (*letters, *lengths)


def step_indices(
    measure: FiniteMeasure, seed: int, component: int, trials, first: int, last: int
) -> np.ndarray:
    """[len(trials), last - first] int32 atom indices of steps first..last-1
    of the given trials, from the Philox counter whose first step is ``first``.

    Each trial owns its stream, so a row is the same whichever trials are
    drawn beside it."""
    if first % rngmod.PHILOX_WORDS or not 0 <= first <= last:
        raise InputError(f"steps {first}..{last} must start a Philox counter and run forwards")
    counter = first // rngmod.PHILOX_WORDS + 1
    return index_block(measure, last - first, seed, component, trials, counter)


def check_keep_depth(measure: FiniteMeasure, horizon: int, keep_depth: int) -> None:
    """Refuse a ``keep_depth`` deeper than any position at the horizon."""
    if keep_depth > (most := horizon * measure.max_atom_length):
        raise InputError(f"keep_depth {keep_depth} exceeds horizon x longest atom = {most}")


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

    Runs each walk to 2 * horizon through the stack machine and takes,
    per coordinate, the common prefix of the positions at the horizon
    and at twice the horizon; this holds on any support.
    (``boundary.sample_boundary`` draws inverse-free walks another way.)
    Returns (letters1, letters2, len1, len2) where the letter arrays are
    [trials, keep_depth] int8, zero padded beyond the per-trial stable
    length, and len1/len2 are the full stable lengths.
    """
    if pair_measure.kind != "pair":
        raise InputError("boundary_prefixes needs a pair measure")
    check_keep_depth(pair_measure, horizon, keep_depth)
    func = partial(_boundary_block, pair_measure, horizon, keep_depth, seed, component)
    return tuple(_map_blocks(func, horizon, trials, workers))
