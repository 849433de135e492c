"""Counter-based random number streams.

Every Monte Carlo routine in the package draws from a Philox4x64-10
stream keyed by ``(seed, stream)``.  Distinct streams are statistically
independent, and a given (seed, stream) pair always yields the same
sequence, no matter which worker consumes it or in what order streams
are created.  Per-trial substreams therefore make results independent
of the worker count.

Stream ids are structured: high bits select a component (one per
estimator family), low bits the trial index, so no two call sites can
collide on a stream.

The one draw primitive is the raw 64-bit Philox word.  A batch of
streams is drawn by one of two routes with the same words, chosen by
stream length.  Streams of at most ``SHORT_STREAM`` draws run
Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1,
2, 3", SC'11) in numpy across all streams at once; longer streams use
one numpy ``Philox`` generator each, where the per-stream set-up cost
is small beside the draws.  Both give ``generator(seed, s)``'s
``bit_generator.random_raw(n)`` bit for bit.

Words become atom indices without passing through doubles.  The index
of a word is the inverse-CDF index of the double numpy's ``random()``
makes of it, ``(w >> 11) * 2^-53``.  A guide table (Chen & Asau 1974;
Devroye 1986, III.2.4) over the ``2^GUIDE_BITS`` bins of a word's top
bits holds that index for every bin whose two edges share it; only the
words of the few bins that may hold a CDF boundary are looked up by
``searchsorted`` on their doubles.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

MAX_SEED = 2**64

# Component tags; each estimator family owns a disjoint stream range.
STREAM_DRIFT = 0
STREAM_ENTROPY = 1
STREAM_TV_COUPLED = 2
STREAM_TV_INDEPENDENT = 3
STREAM_BOUNDARY = 4
STREAM_DIMENSION_CENTERS = 5
STREAM_PATH = 6

_COMPONENT_SHIFT = 2**40  # room for 2^40 trials per component

# Longest stream drawn by the vectorized route.  Past about 200 draws a
# numpy generator per stream is faster.
SHORT_STREAM = 128

# Philox4x64 round multipliers and key increments (Random123 constants).
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
# raw words that one Philox4x64 counter gives; walkers and boundary read it here
PHILOX_WORDS = 4
_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)

# Words are binned by their top GUIDE_BITS bits for the index lookup.
GUIDE_BITS = 12
_GUIDE_SHIFT = np.uint64(64 - GUIDE_BITS)
_DOUBLE_SHIFT = np.uint64(11)  # a double is the top 53 bits of a word times 2^-53


def check_seed(seed: int) -> int:
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise InputError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed < MAX_SEED:
        raise InputError(f"seed must lie in [0, 2^64), got {seed}")
    return seed


def stream_id(component: int, trial: int = 0) -> int:
    """Compose a stream id from a component tag and a trial index."""
    if trial < 0 or trial >= _COMPONENT_SHIFT:
        raise InputError(f"trial index {trial} out of range")
    return component * _COMPONENT_SHIFT + trial


def stream_ids(component: int, trials) -> np.ndarray:
    """Stream ids of a component's trials (a sequence of ints), as int64."""
    trials = np.asarray(trials, dtype=np.int64).reshape(-1)
    for trial in (trials.min(initial=0), trials.max(initial=0)):
        stream_id(component, int(trial))  # refuses a trial out of range
    return trials + stream_id(component)


def generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator for the given (seed, stream) pair.

    The 128-bit Philox key is ``seed + (stream << 64)``, so streams and
    seeds can never alias each other.
    """
    check_seed(seed)
    if stream < 0:
        raise InputError(f"stream must be nonnegative, got {stream}")
    return np.random.Generator(np.random.Philox(key=seed + (stream << 64)))


def _mulhilo(m: int, x: np.ndarray, hi: np.ndarray, lo: np.ndarray, scratch) -> None:
    """Write the high and low 64-bit words of m * x into hi and lo.

    Works from 32-bit half products in the three arrays of ``scratch``,
    shaped like x, and allocates nothing; hi and lo must not alias x.
    """
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi, t = scratch
    np.bitwise_and(x, _LO32, out=x_lo)
    np.right_shift(x, _S32, out=x_hi)
    # carry chain: t and u are each at most (2^32 - 1)^2 + 2^32 - 1 < 2^64,
    # so neither sum wraps; hi is the exact high word
    np.multiply(x_lo, m_lo, out=t)
    t >>= _S32
    np.multiply(x_lo, m_hi, out=x_lo)
    t += x_lo  # t = x_lo * m_hi + (x_lo * m_lo >> 32)
    u = np.bitwise_and(t, _LO32, out=x_lo)
    t >>= _S32
    u += np.multiply(x_hi, m_lo, out=hi)  # u = x_hi * m_lo + (t & LO32)
    u >>= _S32
    np.multiply(x_hi, m_hi, out=hi)
    hi += t
    hi += u
    np.multiply(x, np.uint64(m), out=lo)


def _philox_rows(seed: int, streams: np.ndarray, n: int, counter: int = 1) -> np.ndarray:
    """n uint64 outputs of Philox4x64-10 for every stream, from ``counter`` on.

    numpy's ``Philox(key=seed + (stream << 64))`` has key words
    (seed, stream) and encrypts counters 1, 2, ... in turn, giving
    ``PHILOX_WORDS`` words each; every (stream, counter) lane runs at once.
    Lanes share c1 = c2 = c3 = 0 and k0 = seed, so round 1 multiplies only
    the counter row and round 2 one seed; the other eight use full arrays.
    """
    blocks = -(-n // PHILOX_WORDS)
    c0, c1, c2, c3, h0, h1, l0, l1, *scratch = np.empty((11, len(streams), blocks), np.uint64)
    k1 = streams.astype(np.uint64)[:, None]
    # round 1 multiplies the counter row: c0 becomes seed, c1 stays 0
    hi, lo, *row = np.empty((5, blocks), dtype=np.uint64)
    _mulhilo(_PHILOX_M[0], np.arange(counter, counter + blocks, dtype=np.uint64), hi, lo, row)
    np.bitwise_xor(hi, k1, out=c2)
    # round 2 multiplies c0 = seed by M0 once
    k1 += np.uint64(_PHILOX_W[1])
    _mulhilo(_PHILOX_M[1], c2, h1, l1, scratch)
    np.bitwise_xor(h1, np.uint64((seed + _PHILOX_W[0]) % 2**64), out=c0)
    c1, l1 = l1, c1
    seed_hi, seed_lo = divmod(seed * _PHILOX_M[0], 2**64)
    np.bitwise_xor(lo ^ np.uint64(seed_hi), k1, out=c2)
    c3[:] = seed_lo
    out = np.empty((len(streams), blocks, PHILOX_WORDS), dtype=np.uint64)
    for rnd in range(2, 10):
        k1 += np.uint64(_PHILOX_W[1])
        k0 = np.uint64((seed + rnd * _PHILOX_W[0]) % 2**64)
        n0, n2 = h1, h0  # where the round's c0 and c2 go
        if rnd == 9:  # the last round writes its four words straight into the output
            n0, l1, n2, l0 = np.moveaxis(out, -1, 0)
        _mulhilo(_PHILOX_M[0], c0, h0, l0, scratch)
        _mulhilo(_PHILOX_M[1], c2, h1, l1, scratch)
        h1 ^= c1
        np.bitwise_xor(h1, k0, out=n0)
        h0 ^= c3
        np.bitwise_xor(h0, k1, out=n2)
        c0, c1, c2, c3, h0, h1, l0, l1 = n0, l1, n2, l0, c0, c1, c2, c3
    return out.reshape(len(streams), -1)[:, :n]


def word_rows(seed: int, streams, n: int, counter: int = 1) -> np.ndarray:
    """[len(streams), n] uint64 words; row i is ``generator(seed, streams[i])``'s
    raw outputs from Philox counter ``counter`` (its words
    ``PHILOX_WORDS * (counter - 1)`` on).

    Up to ``SHORT_STREAM`` draws the rows come from the vectorized
    Philox route, beyond it from one generator per stream.  numpy's
    ``random(n)`` makes its doubles of the same words, as ``(w >> 11) * 2^-53``.
    """
    check_seed(seed)
    streams = np.asarray(streams, dtype=np.int64).reshape(-1)
    if (streams < 0).any():
        raise InputError("streams must be nonnegative")
    if n < 0:
        raise InputError(f"n must be nonnegative, got {n}")
    last = counter + max(-(-n // PHILOX_WORDS), 1) - 1  # the routes agree until c0 wraps
    if counter < 1 or last >= 2**64:
        raise InputError(f"Philox counters {counter}..{last} leave [1, 2^64)")
    if n > SHORT_STREAM:
        out = np.empty((len(streams), n), dtype=np.uint64)
        for i, s in enumerate(streams.tolist()):
            out[i] = generator(seed, s).bit_generator.advance(counter - 1).random_raw(n)
        return out
    return _philox_rows(seed, streams, n, counter)


def index_guide(cum_weights: np.ndarray) -> np.ndarray:
    """Guide table of ``word_indices`` over a cumulative weight vector.

    Bin b holds the words whose top ``GUIDE_BITS`` bits are b, whose
    doubles fill [b, b + 1) * 2^-GUIDE_BITS.  Entry b is the index of
    every word in the bin, or -1 where the clamped inverse-CDF index
    differs at the bin's two edges, so that a CDF boundary may fall in it.
    """
    edges = np.arange(2**GUIDE_BITS + 1) * 2.0**-GUIDE_BITS
    at_edges = cdf_indices(cum_weights, edges).astype(np.int32)
    guide = at_edges[:-1].copy()
    guide[at_edges[:-1] != at_edges[1:]] = -1
    return guide


def word_indices(
    cum_weights: np.ndarray, words: np.ndarray, guide: np.ndarray | None = None
) -> np.ndarray:
    """int32 inverse-CDF indices of raw words (any shape).

    Equal to ``cdf_indices`` on the words' doubles ``(w >> 11) * 2^-53``.
    Most words take their index straight from the guide table of their
    top bits (Chen & Asau 1974); only the words of a bin that may hold a
    CDF boundary fall back to ``cdf_indices``.  ``guide`` is
    ``index_guide(cum_weights)``, built here if not given.
    """
    if guide is None:
        guide = index_guide(cum_weights)
    idx = guide.take((words >> _GUIDE_SHIFT).view(np.int64), mode="clip")
    unsure = idx < 0
    if unsure.any():
        idx[unsure] = cdf_indices(cum_weights, (words[unsure] >> _DOUBLE_SHIFT) * 2.0**-53)
    return idx


def sample_indices(cum_weights: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF sampling over a cumulative weight vector.

    ``cum_weights`` must be nondecreasing with final entry within 1e-12
    of 1.  Returns int64 indices.  The final bin absorbs any float
    shortfall of the cumulative sum.  The indices are those of
    ``rng.random(size)``, read off the same raw words of a generator from
    ``generator`` by ``word_indices``.
    """
    return word_indices(cum_weights, rng.bit_generator.random_raw(size)).astype(np.int64)


def cdf_indices(cum_weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF indices of uniforms ``u`` (any shape), as in ``sample_indices``."""
    idx = np.searchsorted(cum_weights, u, side="left")
    return np.minimum(idx, len(cum_weights) - 1)
