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

A batch of streams is drawn by one of two routes with the same numbers,
chosen by stream length.  Streams of at most ``SHORT_STREAM`` draws run
Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1,
2, 3", SC'11) in numpy across all streams at once; longer streams use
one numpy ``Philox`` generator each, where the per-stream set-up cost
is small beside the draws.  Both give ``generator(seed, s).random(n)``
bit for bit.
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
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)


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


def stream_ids(component: int, lo: int, hi: int) -> np.ndarray:
    """Stream ids of trials lo..hi-1 of a component, as int64."""
    first, last = stream_id(component, lo), stream_id(component, hi - 1)
    return np.arange(first, last + 1, dtype=np.int64)


def generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator for the given (seed, stream) pair.

    The 128-bit Philox key is ``seed + (stream << 64)``, so streams and
    seeds can never alias each other.
    """
    check_seed(seed)
    if stream < 0:
        raise InputError(f"stream must be nonnegative, got {stream}")
    return np.random.Generator(np.random.Philox(key=seed + (stream << 64)))


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of m * x, from 32-bit half products."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LO32, x >> _S32
    # carry chain: t and u are each at most (2^32 - 1)^2 + 2^32 - 1 < 2^64,
    # so neither sum wraps; hi is the exact high word
    t = x_lo * m_hi + ((x_lo * m_lo) >> _S32)
    u = x_hi * m_lo + (t & _LO32)
    hi = x_hi * m_hi + (t >> _S32) + (u >> _S32)
    return hi, x * np.uint64(m)


def _philox_rows(seed: int, streams: np.ndarray, n: int) -> np.ndarray:
    """The first n uint64 outputs of Philox4x64-10 for every stream.

    numpy's ``Philox(key=seed + (stream << 64))`` has key words
    (seed, stream) and encrypts counters 1, 2, ... in turn, four output
    words per counter; here every (stream, counter) lane runs at once.
    """
    blocks = -(-n // 4)
    shape = (len(streams), blocks)
    c0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64), shape)
    c1 = c2 = c3 = np.zeros(shape, dtype=np.uint64)
    k0 = np.full((len(streams), 1), seed, dtype=np.uint64)
    k1 = streams.astype(np.uint64)[:, None]
    for rnd in range(10):
        if rnd:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack([c0, c1, c2, c3], axis=-1).reshape(len(streams), 4 * blocks)[:, :n]


def uniform_rows(seed: int, streams, n: int) -> np.ndarray:
    """[len(streams), n] float64 uniforms; row i is ``generator(seed, streams[i]).random(n)``.

    Up to ``SHORT_STREAM`` draws the rows come from the vectorized
    Philox route, beyond it from one generator per stream.  Doubles are
    the top 53 bits of each output word times 2^-53, as numpy makes them.
    """
    check_seed(seed)
    streams = np.asarray(streams, dtype=np.int64).reshape(-1)
    if (streams < 0).any():
        raise InputError("streams must be nonnegative")
    if n < 0:
        raise InputError(f"n must be nonnegative, got {n}")
    if n > SHORT_STREAM:
        out = np.empty((len(streams), n))
        for i, s in enumerate(streams.tolist()):
            out[i] = generator(seed, s).random(n)
        return out
    return (_philox_rows(seed, streams, n) >> np.uint64(11)) * 2.0**-53


def sample_indices(cum_weights: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF sampling over a cumulative weight vector.

    ``cum_weights`` must be nondecreasing with final entry within 1e-12
    of 1.  Returns int64 indices.  The final bin absorbs any float
    shortfall of the cumulative sum.
    """
    return cdf_indices(cum_weights, rng.random(size))


def cdf_indices(cum_weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF indices of uniforms ``u`` (any shape), as in ``sample_indices``."""
    idx = np.searchsorted(cum_weights, u, side="left")
    return np.minimum(idx, len(cum_weights) - 1)
