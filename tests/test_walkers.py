"""Random streams and the batch walk engine."""

import concurrent.futures
from fractions import Fraction

import numpy as np
import pytest

from noisewalk import rng, walkers
from noisewalk.errors import InputError
from noisewalk.measures import FiniteMeasure, build_pi_rho, uniform_measure


def step(atoms, rank=2):
    w = Fraction(1, len(atoms))
    return FiniteMeasure(tuple(sorted((a, w) for a in atoms)), rank, "single")


# ---------------------------------------------------------------------------
# rng


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("n", [1, 3, 4, 30, rng.SHORT_STREAM, rng.SHORT_STREAM + 1])
def test_uniform_rows_match_per_stream_generators(seed, n):
    streams = [
        rng.stream_id(rng.STREAM_DRIFT, 0),
        rng.stream_id(rng.STREAM_BOUNDARY, 17),
        rng.stream_id(rng.STREAM_PATH, 0),
        rng.stream_id(rng.STREAM_PATH, 2**40 - 1),
    ]
    got = rng.uniform_rows(seed, streams, n)
    expect = np.stack([rng.generator(seed, s).random(n) for s in streams])
    assert got.dtype == np.float64 and got.shape == (len(streams), n)
    assert got.tobytes() == expect.tobytes()


@pytest.mark.parametrize("m", rng._PHILOX_M)
def test_mulhilo_matches_python_integers(m):
    edges = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
    words = edges + np.random.default_rng(5).integers(
        0, 2**64, size=200, dtype=np.uint64, endpoint=False
    ).tolist()
    hi, lo = rng._mulhilo(m, np.array(words, dtype=np.uint64))
    assert hi.dtype == lo.dtype == np.uint64
    assert hi.tolist() == [(x * m) >> 64 for x in words]
    assert lo.tolist() == [(x * m) % 2**64 for x in words]


def test_stream_ids_are_consecutive_stream_id_values():
    ids = rng.stream_ids(rng.STREAM_BOUNDARY, 5, 9)
    assert ids.tolist() == [rng.stream_id(rng.STREAM_BOUNDARY, t) for t in range(5, 9)]


def test_rng_validation():
    for bad in (-1, 2**64, True, 1.5):
        with pytest.raises(InputError):
            rng.check_seed(bad)
        with pytest.raises(InputError):
            rng.uniform_rows(bad, [0], 4)
    with pytest.raises(InputError):
        rng.generator(0, -1)
    for n in (4, rng.SHORT_STREAM + 1):
        with pytest.raises(InputError):
            rng.uniform_rows(0, [3, -1], n)
    with pytest.raises(InputError):
        rng.uniform_rows(0, [3], -1)
    with pytest.raises(InputError):
        rng.stream_id(rng.STREAM_DRIFT, 2**40)
    with pytest.raises(InputError):
        rng.stream_ids(rng.STREAM_DRIFT, 2**40 - 2, 2**40 + 1)


# ---------------------------------------------------------------------------
# walkers


@pytest.mark.parametrize("n", [30, rng.SHORT_STREAM + 1])
def test_index_block_rows_match_per_stream_sampling(n):
    pi = build_pi_rho(uniform_measure(2), 0.3)
    got = walkers.index_block(pi, n, 9, rng.STREAM_DRIFT, 100, 140)
    cum = pi._cumulative()
    expect = [
        rng.sample_indices(cum, n, rng.generator(9, rng.stream_id(rng.STREAM_DRIFT, t)))
        for t in range(100, 140)
    ]
    assert got.dtype == np.int32
    np.testing.assert_array_equal(got, np.stack(expect))


def test_run_stack_resumes_from_a_state():
    r = np.random.default_rng(3)
    letters = r.choice(np.array([0, 1, 2, -1, -2], dtype=np.int8), size=(50, 40))
    whole = walkers._run_stack(letters)
    head = walkers._run_stack(letters[:, :15])
    head_copy = (head[0].copy(), head[1].copy())
    st, pt = walkers._run_stack(letters[:, 15:], head)
    np.testing.assert_array_equal(pt, whole[1])
    for i in range(len(pt)):
        np.testing.assert_array_equal(st[i, : pt[i]], whole[0][i, : pt[i]])
    np.testing.assert_array_equal(head[0], head_copy[0])  # the state is left as it was
    np.testing.assert_array_equal(head[1], head_copy[1])


def _full_stack_boundary(pi, horizon, keep_depth, trials, seed):
    """Inverse-free boundary prefixes from all horizon steps of the stack machine."""
    idx = walkers.index_block(pi, horizon, seed, rng.STREAM_BOUNDARY, 0, trials)
    out = []
    for mat in walkers.letter_matrices(pi):
        st, pt = walkers._run_stack(mat[idx].reshape(trials, -1))
        letters = np.zeros((trials, keep_depth), dtype=np.int8)
        for i in range(trials):
            word = st[i, : pt[i]][:keep_depth]
            letters[i, : len(word)] = word
        out.append((letters, pt))
    return out[0][0], out[1][0], out[0][1], out[1][1]


@pytest.mark.parametrize(
    "mu, horizon, keep_depth",
    [
        (uniform_measure(2, inverse_free=True), 40, 30),  # s = 30 < horizon
        (uniform_measure(3, inverse_free=True), 10, 30),  # horizon * L < keep_depth
        (step([(1,), (2, 1), (1, 1, 2)]), 40, 30),  # varying length: all steps drawn
        (step([(1,), (2, 1), (1, 1, 2)]), rng.SHORT_STREAM + 20, 12),  # long streams
        (step([(1, 2), (2, 1), (2, 2)]), 20, 7),  # keep_depth not a multiple of L
        (step([(), (1,), (2, 1)]), 40, 12),  # an empty atom: m = 0, all steps kept
    ],
)
def test_inverse_free_boundary_matches_full_stack(monkeypatch, mu, horizon, keep_depth):
    monkeypatch.setattr(walkers, "BLOCK", 64)  # several blocks
    pi = build_pi_rho(mu, 0.4)
    assert pi.inverse_free
    got = walkers.boundary_prefixes(pi, horizon, keep_depth, 150, 21, rng.STREAM_BOUNDARY)
    expect = _full_stack_boundary(pi, horizon, keep_depth, 150, 21)
    for g, e in zip(got, expect):
        assert g.dtype == e.dtype
        np.testing.assert_array_equal(g, e)


class _InlineExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers, maps inline."""

    opened: list[int] = []

    def __init__(self, max_workers):
        self.opened.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, func, items):
        return map(func, items)


@pytest.mark.parametrize("cores, expect", [(4, [3]), (2, [2]), (None, [])])
def test_pool_size_is_clamped(monkeypatch, cores, expect):
    pi = build_pi_rho(uniform_measure(2), 0.5)
    monkeypatch.setattr(walkers, "BLOCK", 40)
    serial = walkers.pair_prefix_lengths(pi, 12, 100, 5, rng.STREAM_TV_COUPLED)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlineExecutor)
    monkeypatch.setattr(walkers.os, "cpu_count", lambda: cores)
    monkeypatch.setattr(_InlineExecutor, "opened", [])
    got = walkers.pair_prefix_lengths(pi, 12, 100, 5, rng.STREAM_TV_COUPLED, workers=10**6)
    assert _InlineExecutor.opened == expect  # 100 trials make 3 blocks
    np.testing.assert_array_equal(got, serial)
