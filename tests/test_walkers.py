"""Random streams and the batch walk engine."""

import concurrent.futures
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisewalk import rng, walkers
from noisewalk.boundary import BoundarySampleSet, build_tree, sample_boundary
from noisewalk.errors import BudgetError, InputError
from noisewalk.measures import (
    FiniteMeasure,
    build_measure,
    build_pi_rho,
    uniform_measure,
)
from noisewalk.words import common_prefix_length, multiply, reduce_word


def step(atoms, rank=2):
    w = Fraction(1, len(atoms))
    return FiniteMeasure(tuple(sorted((a, w) for a in atoms)), rank, "single")


# ---------------------------------------------------------------------------
# rng


STREAMS = [
    rng.stream_id(rng.STREAM_DRIFT, 0),
    rng.stream_id(rng.STREAM_BOUNDARY, 17),
    rng.stream_id(rng.STREAM_DIMENSION_CENTERS, 0),
    rng.stream_id(rng.STREAM_DIMENSION_CENTERS, 2**40 - 1),
]


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("n", [1, 3, 4, 30, rng.SHORT_STREAM, rng.SHORT_STREAM + 1])
def test_uniform_rows_match_per_stream_generators(seed, n):
    """``word_rows`` gives each stream's raw words, and their doubles are ``random(n)``."""
    got = rng.word_rows(seed, STREAMS, n)
    raw = np.stack([rng.generator(seed, s).bit_generator.random_raw(n) for s in STREAMS])
    doubles = np.stack([rng.generator(seed, s).random(n) for s in STREAMS])
    assert got.dtype == np.uint64 and got.shape == (len(STREAMS), n)
    assert got.tobytes() == raw.tobytes()
    assert ((got >> np.uint64(11)) * 2.0**-53).tobytes() == doubles.tobytes()


@pytest.mark.parametrize("n", [1, 6, 30, rng.SHORT_STREAM + 1])
@pytest.mark.parametrize("counter", [1, 2, 5])
def test_rows_from_a_counter_are_the_matching_slice_of_the_stream(n, counter):
    skip = 4 * (counter - 1)  # the words of the counters before it
    got = rng.word_rows(7, STREAMS, n, counter)
    raw = np.stack([rng.generator(7, s).bit_generator.random_raw(skip + n)[skip:]
                    for s in STREAMS])
    assert got.dtype == np.uint64 and got.shape == (len(STREAMS), n)
    assert got.tobytes() == raw.tobytes()


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("n", [5, 8, 30, rng.SHORT_STREAM + 1])
@pytest.mark.parametrize("counter", [2, 3, 7])
def test_rows_from_late_counters_match_generators_at_extreme_seeds(seed, n, counter):
    # two or more blocks, so round 1's counter is a row and not one word
    skip = 4 * (counter - 1)
    got = rng.word_rows(seed, STREAMS, n, counter)
    raw = np.stack([rng.generator(seed, s).bit_generator.random_raw(skip + n)[skip:]
                    for s in STREAMS])
    assert got.tobytes() == raw.tobytes()


def test_word_rows_refuse_counters_past_the_first_counter_word(monkeypatch):
    last = rng.word_rows(5, [1], 4, 2**64 - 1)  # the last counter the word holds
    expect = rng.generator(5, 1).bit_generator.advance(2**64 - 2).random_raw(4)
    assert last.tobytes() == expect[None].tobytes()

    def no_draw(*args):
        raise AssertionError("drew words")

    monkeypatch.setattr(rng, "_philox_rows", no_draw)
    monkeypatch.setattr(rng, "generator", no_draw)
    for n, counter in [(8, 2**64 - 1), (4, 2**64), (200, 2**64 - 49), (8, 0), (8, -1),
                       (200, 0), (200, -2**70)]:
        with pytest.raises(InputError, match="Philox counters"):
            rng.word_rows(5, [1], n, counter)


@pytest.mark.parametrize("m", rng._PHILOX_M)
def test_mulhilo_matches_python_integers(m):
    edges = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
    words = edges + np.random.default_rng(5).integers(
        0, 2**64, size=200, dtype=np.uint64, endpoint=False
    ).tolist()
    arr = np.array(words, dtype=np.uint64)
    hi, lo, *scratch = np.empty((5, len(arr)), dtype=np.uint64)
    rng._mulhilo(m, arr, hi, lo, scratch)
    assert hi.dtype == lo.dtype == np.uint64
    assert hi.tolist() == [(x * m) >> 64 for x in words]
    assert lo.tolist() == [(x * m) % 2**64 for x in words]


_EDGE = 2**-rng.GUIDE_BITS


@st.composite
def _cdf_and_words(draw):
    """A cumulative weight vector and words that probe its guide bins."""
    k = draw(st.integers(1, 200))
    bins = st.integers(0, 2**rng.GUIDE_BITS).map(lambda b: b * _EDGE)
    entry = st.one_of(st.floats(0, 1), bins)
    cum = sorted(draw(st.lists(entry, min_size=k, max_size=k)))
    cum = np.array(cum[:-1] + [draw(st.sampled_from([1.0, 1 - 1e-13, 1 + 1e-13]))])
    cum = np.maximum.accumulate(cum)
    if draw(st.booleans()):  # repeated entries
        cum[draw(st.integers(0, k - 1)) :] = cum[-1]
    words = draw(st.lists(st.integers(0, 2**64 - 1), max_size=50))
    words += [0, 2**64 - 1]
    for c in cum.tolist():  # words whose double is a CDF entry, and its neighbours
        if 0 <= c < 1:
            v = int(c * 2**53) << 11
            words += [v, max(v - 1, 0), v + 2**11 - 1, min(v + 2**11, 2**64 - 1)]
    return cum, np.array(words, dtype=np.uint64)


@given(_cdf_and_words())
@settings(max_examples=200)
def test_word_indices_match_searchsorted_on_doubles(case):
    cum, words = case
    expect = np.minimum(
        np.searchsorted(cum, (words >> np.uint64(11)) * 2.0**-53, "left"), len(cum) - 1
    )
    got = rng.word_indices(cum, words)
    np.testing.assert_array_equal(got, expect)
    np.testing.assert_array_equal(rng.word_indices(cum, words.reshape(-1, 1)), expect[:, None])


@pytest.mark.parametrize("k", [5_000, 57_600])
def test_word_indices_match_searchsorted_with_more_atoms_than_bins(k):
    """Nearly every bin holds a boundary, so most words take the fallback."""
    gen = np.random.default_rng(k)
    cum = np.cumsum(gen.random(k))
    cum /= cum[-1]
    cum[: k // 3] = np.round(cum[: k // 3] * 2**rng.GUIDE_BITS) * 2.0**-rng.GUIDE_BITS
    cum = np.maximum.accumulate(cum)
    words = gen.integers(0, 2**64, size=100_000, dtype=np.uint64, endpoint=False)
    on_entries = (cum[cum < 1] * 2**53).astype(np.uint64) << np.uint64(11)
    ends = np.array([0, 2**64 - 1], dtype=np.uint64)
    words = np.concatenate([words, on_entries, on_entries - np.uint64(1), ends])
    expect = np.minimum(
        np.searchsorted(cum, (words >> np.uint64(11)) * 2.0**-53, "left"), len(cum) - 1
    )
    np.testing.assert_array_equal(rng.word_indices(cum, words), expect)


def test_stream_ids_are_consecutive_stream_id_values():
    ids = rng.stream_ids(rng.STREAM_BOUNDARY, range(5, 9))
    assert ids.tolist() == [rng.stream_id(rng.STREAM_BOUNDARY, t) for t in range(5, 9)]
    trials = [9, 2, 2**40 - 1]
    assert rng.stream_ids(rng.STREAM_DIMENSION_CENTERS, trials).tolist() == [
        rng.stream_id(rng.STREAM_DIMENSION_CENTERS, t) for t in trials]


def test_rng_validation():
    for bad in (-1, 2**64, True, 1.5):
        with pytest.raises(InputError):
            rng.check_seed(bad)
        with pytest.raises(InputError):
            rng.word_rows(bad, [0], 4)
    with pytest.raises(InputError):
        rng.generator(0, -1)
    for n in (4, rng.SHORT_STREAM + 1):
        with pytest.raises(InputError):
            rng.word_rows(0, [3, -1], n)
    with pytest.raises(InputError):
        rng.word_rows(0, [3], -1)
    with pytest.raises(InputError):
        rng.stream_id(rng.STREAM_DRIFT, 2**40)
    for trials in (range(2**40 - 2, 2**40 + 1), [3, -1]):
        with pytest.raises(InputError):
            rng.stream_ids(rng.STREAM_DRIFT, trials)


# ---------------------------------------------------------------------------
# walkers


def test_letter_matrices_refuse_ranks_past_int8():
    assert walkers._MAX_RANK_INT8 == 120
    top = walkers.letter_matrices(uniform_measure(120))
    assert [m.dtype for m in top] == [np.int8] and top[0].min() == -120
    with pytest.raises(BudgetError, match="rank 121 exceeds the int8 letter budget"):
        walkers.letter_matrices(uniform_measure(121))


@pytest.mark.parametrize("n", [30, rng.SHORT_STREAM + 1])
def test_index_block_rows_match_per_stream_sampling(monkeypatch, n):
    monkeypatch.setattr(walkers, "_WORDS_PER_DRAW", 7 * n)  # several draws per block
    pi = build_pi_rho(uniform_measure(2), 0.3)
    got = walkers.index_block(pi, n, 9, rng.STREAM_DRIFT, np.arange(100, 140))
    cum = pi._cumulative
    expect = [
        np.minimum(
            np.searchsorted(cum, rng.generator(9, rng.stream_id(rng.STREAM_DRIFT, t)).random(n)),
            len(cum) - 1,
        )
        for t in range(100, 140)
    ]
    assert got.dtype == np.int32
    np.testing.assert_array_equal(got, np.stack(expect))


def test_sample_indices_match_searchsorted_on_random():
    cum = build_pi_rho(uniform_measure(2), 0.3)._cumulative
    got = rng.sample_indices(cum, 1000, rng.generator(3, 5))
    u = rng.generator(3, 5).random(1000)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, np.minimum(np.searchsorted(cum, u), len(cum) - 1))


def test_run_stack_resumes_from_a_state():
    r = np.random.default_rng(3)
    letters = r.choice(np.array([0, 1, 2, 3, -1, -2, -3], dtype=np.int8), size=(50, 40))
    letters[:5] = 0  # all-padding rows stay empty
    whole = walkers._run_stack(letters)
    assert whole[1].dtype == np.int32
    words = [reduce_word(int(x) for x in row if x) for row in letters]
    assert [tuple(w[:p]) for w, p in zip(*whole)] == words
    for cut in (0, 1, 15, 40):
        head = walkers._run_stack(letters[:, :cut])
        head_copy = (head[0].copy(), head[1].copy())
        st, pt = walkers._run_stack(letters[:, cut:], head)
        assert pt.dtype == np.int32
        assert [tuple(w[:p]) for w, p in zip(st, pt)] == words
        np.testing.assert_array_equal(head[0], head_copy[0])  # the state is left as it was
        np.testing.assert_array_equal(head[1], head_copy[1])


def _full_stack_boundary(pi, horizon, keep_depth, trials, seed):
    """Inverse-free boundary prefixes from all horizon steps of the stack machine."""
    idx = walkers.index_block(pi, horizon, seed, rng.STREAM_BOUNDARY, np.arange(trials))
    out = []
    for mat in walkers.letter_matrices(pi):
        st, pt = walkers._run_stack(mat[idx].reshape(trials, -1))
        letters = np.zeros((trials, keep_depth), dtype=np.int8)
        for i in range(trials):
            word = st[i, : pt[i]][:keep_depth]
            letters[i, : len(word)] = word
        out.append((letters, pt))
    return out[0][0], out[1][0], out[0][1], out[1][1]


INVERSE_FREE_SHAPES = [
    (uniform_measure(2, inverse_free=True), 40, 30),  # 30 letters in 30 of 40 steps
    # horizon * L < keep_depth: sample_boundary refuses it
    (uniform_measure(3, inverse_free=True), 10, 30),
    (step([(1,), (2, 1), (1, 1, 2)]), 40, 30),  # varying length
    (step([(1,), (2, 1), (1, 1, 2)]), rng.SHORT_STREAM + 20, 12),  # long streams
    (step([(1, 2), (2, 1), (2, 2)]), 20, 7),  # keep_depth not a multiple of L
    # an empty atom: the shortest atom adds no letter, and trials end short
    (step([(), (1,), (2, 1)]), 40, 12),
    (step([(1, 2, 1), (2, 2, 1)]), 3, 8),  # horizon below the 4 steps of one counter
    # the weighted prefix code {1, 21, 22}, and {1, 2, 12}
    (build_measure([((1,), Fraction(1, 2)), ((2, 1), Fraction(1, 3)),
                    ((2, 2), Fraction(1, 6))]), 40, 30),
    (step([(1,), (2,), (1, 2)]), 12, 20),
]


@pytest.mark.parametrize("mu, horizon, keep_depth", INVERSE_FREE_SHAPES)
def test_inverse_free_boundary_matches_full_stack(mu, horizon, keep_depth):
    """Usable depths read before any letter draw to keep_depth, in whole counters."""
    pi = build_pi_rho(mu, 0.4)
    assert pi.inverse_free
    if keep_depth > horizon * mu.max_atom_length:  # no sample has letters that deep
        with pytest.raises(InputError, match=r"keep_depth \d+ exceeds horizon"):
            sample_boundary(mu, 0.4, horizon, 150, 21, keep_depth)
        return
    s = sample_boundary(mu, 0.4, horizon, 150, 21, keep_depth)
    expect = _full_stack_boundary(pi, horizon, keep_depth, 150, 21)
    np.testing.assert_array_equal(
        s.usable_depth(), np.minimum(np.minimum(expect[2], expect[3]), keep_depth))
    for got, want, lens in ((s.letters1, expect[0], expect[2]), (s.letters2, expect[1], expect[3])):
        np.testing.assert_array_equal(got, want)
        # drawn letters are nonzero: a kept prefix is a row's nonzero letters
        np.testing.assert_array_equal(np.count_nonzero(got, axis=1), np.minimum(lens, keep_depth))
    assert s.letters1.dtype == s.letters2.dtype == np.int8


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("mu, horizon, keep_depth", INVERSE_FREE_SHAPES)
def test_letters_drawn_on_read_match_full_stack(monkeypatch, mu, horizon, keep_depth,
                                                workers):
    if keep_depth > horizon * mu.max_atom_length:  # no sample has letters that deep
        with pytest.raises(InputError, match=r"keep_depth \d+ exceeds horizon"):
            sample_boundary(mu, 0.4, horizon, 150, 21, keep_depth, workers)
        return
    monkeypatch.setattr(walkers, "BLOCK", 64)  # several blocks
    expect = _full_stack_boundary(build_pi_rho(mu, 0.4), horizon, keep_depth, 150, 21)
    ref = build_tree(BoundarySampleSet(*expect, horizon, keep_depth, mu.rank, 21),
                     keep_depth)

    def sample():
        return sample_boundary(mu, 0.4, horizon, 150, 21, keep_depth, workers)

    s = sample()
    tree = build_tree(s, keep_depth)
    half = (keep_depth + 1) // 2
    for t in (half, 1, keep_depth, half + 1):  # levels out of order
        lv, r = tree.level(t), ref.level(t)
        for got, want in zip((lv.keys, lv.sizes, lv.ids), (r.keys, r.sizes, r.ids)):
            np.testing.assert_array_equal(got, want)
    s = sample()
    build_tree(s, keep_depth).level(half)  # the tree draws only some columns
    for got, want in zip((s.letters1, s.letters2), expect):
        np.testing.assert_array_equal(got, want)
    assert s.letters1.dtype == s.letters2.dtype == np.int8
    np.testing.assert_array_equal(
        s.usable_depth(), np.minimum(np.minimum(expect[2], expect[3]), keep_depth))


def test_step_indices_start_at_a_counter_and_run_forwards():
    pi = build_pi_rho(uniform_measure(2, inverse_free=True), 0.5)
    got = walkers.step_indices(pi, 3, rng.STREAM_BOUNDARY, np.arange(5), 4, 10)
    whole = walkers.index_block(pi, 10, 3, rng.STREAM_BOUNDARY, np.arange(5))
    np.testing.assert_array_equal(got, whole[:, 4:10])
    some = np.array([4, 1])  # any trials, in any order, draw their own rows
    np.testing.assert_array_equal(
        walkers.step_indices(pi, 3, rng.STREAM_BOUNDARY, some, 4, 10), whole[some, 4:10])
    assert walkers.step_indices(pi, 3, rng.STREAM_BOUNDARY, [0, 1], 8, 8).shape == (2, 0)
    for first, last in ((2, 6), (1, 4), (8, 4), (-4, 4)):
        with pytest.raises(InputError, match="must start a Philox counter"):
            walkers.step_indices(pi, 3, rng.STREAM_BOUNDARY, [0, 1], first, last)


@pytest.mark.parametrize("group", ["free_semigroup", "free_group"])
def test_boundary_prefixes_refuse_keep_depth_past_every_letter(group):
    pi = build_pi_rho(uniform_measure(2, inverse_free=group == "free_semigroup"), 0.5)
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="keep_depth 100000000000 exceeds horizon"):
            walkers.boundary_prefixes(pi, 50, 10**11, 50, 1, rng.STREAM_BOUNDARY)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    with pytest.raises(InputError, match="keep_depth 51 exceeds horizon x longest atom = 50"):
        walkers.boundary_prefixes(pi, 50, 51, 50, 1, rng.STREAM_BOUNDARY)
    assert walkers.boundary_prefixes(pi, 50, 50, 50, 1, rng.STREAM_BOUNDARY)[0].shape == (50, 50)


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


@pytest.mark.parametrize("workers", [1.5, "2", 0, -2, True, 2.5])
@pytest.mark.parametrize("walk", ["final_lengths", "pair_prefix_lengths", "boundary_prefixes",
                                  "sample_boundary_inverse_free", "sample_boundary_group"])
def test_walks_refuse_workers_that_are_not_a_positive_int(walk, workers):
    pi = build_pi_rho(uniform_measure(2), 0.5)
    run = {
        "final_lengths": lambda: walkers.final_lengths(pi, 10, 100, 1, rng.STREAM_DRIFT,
                                                       workers=workers),
        "pair_prefix_lengths": lambda: walkers.pair_prefix_lengths(
            pi, 10, 100, 1, rng.STREAM_TV_COUPLED, workers=workers),
        "boundary_prefixes": lambda: walkers.boundary_prefixes(
            pi, 10, 10, 100, 1, rng.STREAM_BOUNDARY, workers=workers),
        "sample_boundary_inverse_free": lambda: sample_boundary(
            uniform_measure(2, inverse_free=True), 0.5, 10, 100, 1, workers=workers),
        "sample_boundary_group": lambda: sample_boundary(uniform_measure(2), 0.5, 10, 100, 1,
                                                         workers=workers),
    }[walk]
    with pytest.raises(InputError, match=f"workers must be a positive integer, got {workers!r}"):
        run()


@pytest.mark.parametrize("trials", [0, 1.5])
def test_walks_need_positive_trials(trials):
    pi = build_pi_rho(uniform_measure(2), 0.5)
    for walk in (
        lambda: walkers.final_lengths(pi, 4, trials, 1, rng.STREAM_DRIFT),
        lambda: walkers.pair_prefix_lengths(pi, 4, trials, 1, rng.STREAM_TV_COUPLED),
        lambda: walkers.boundary_prefixes(pi, 4, 4, trials, 1, rng.STREAM_BOUNDARY),
    ):
        with pytest.raises(InputError, match="trials must be a positive integer"):
            walk()


@st.composite
def small_walk_steps(draw):
    rank = draw(st.integers(1, 3))
    letters = [x for i in range(1, rank + 1) for x in (i, -i)]
    if draw(st.booleans()):  # a semigroup step
        letters = letters[::2]
    words = st.lists(st.sampled_from(letters), max_size=3).map(tuple)
    atoms = draw(st.lists(words, min_size=1, max_size=4, unique=True))
    weights = [draw(st.integers(1, 4)) for _ in atoms]
    mu = build_measure([(a, Fraction(w, sum(weights))) for a, w in zip(atoms, weights)], rank=rank)
    if draw(st.booleans()):
        return build_pi_rho(mu, draw(st.sampled_from([0.0, 0.3, Fraction(1, 2), 1.0])))
    return mu


def sample_path_end(step, n, seed, stream):
    """The coordinate words after n steps of one path, its atoms drawn by
    inverse CDF from the stream (seed, stream) and multiplied one by one."""
    idx = rng.sample_indices(step._cumulative, n, rng.generator(seed, stream))
    words = ((), ()) if step.kind == "pair" else ((),)
    for i in idx:
        atom = step.atoms[i][0]
        words = tuple(map(multiply, words, atom if step.kind == "pair" else (atom,)))
    return words


@settings(max_examples=40, deadline=None)
@given(
    measure=small_walk_steps(),
    n=st.integers(1, 40),
    trials=st.integers(1, 5),
    seed=st.integers(0, 2**64 - 1),
    component=st.sampled_from([rng.STREAM_DRIFT, rng.STREAM_BOUNDARY,
                               rng.STREAM_DIMENSION_CENTERS]),
)
def test_final_lengths_match_sample_path(measure, n, trials, seed, component):
    got = walkers.final_lengths(measure, n, trials, seed, component)
    for i in range(trials):
        words = sample_path_end(measure, n, seed, rng.stream_id(component, i))
        assert [int(lengths[i]) for lengths in got] == [len(w) for w in words]


@settings(max_examples=60, deadline=None)
@given(
    measure=small_walk_steps(),
    rho=st.sampled_from([0.0, 0.3, 1.0]),
    n=st.integers(1, 20),
    trials=st.integers(1, 64),
    seed=st.integers(0, 2**64 - 1),
    keep=st.integers(0, 12),
)
@example(uniform_measure(2), 0.3, 3, 64, 3, 5)  # leftovers past a pointer read as letters
def test_prefixes_match_sample_paths(measure, rho, n, trials, seed, keep):
    """Gromov products and stable prefixes equal those of the per-path words."""
    pi = measure if measure.kind == "pair" else build_pi_rho(measure, rho)
    products = walkers.pair_prefix_lengths(pi, n, trials, seed, rng.STREAM_TV_COUPLED)
    for i in range(trials):
        x, y = sample_path_end(pi, n, seed, rng.stream_id(rng.STREAM_TV_COUPLED, i))
        assert products[i] == common_prefix_length(x, y)
    for keep_depth in {min(keep, n * pi.max_atom_length), n * pi.max_atom_length}:
        *letters, len1, len2 = walkers.boundary_prefixes(
            pi, n, keep_depth, trials, seed, rng.STREAM_BOUNDARY)
        for i in range(trials):
            stream = rng.stream_id(rng.STREAM_BOUNDARY, i)
            ends = zip(sample_path_end(pi, n, seed, stream),
                       sample_path_end(pi, 2 * n, seed, stream))
            for (a, b), kept, lengths in zip(ends, letters, (len1, len2)):
                stable = a[: common_prefix_length(a, b)]
                assert lengths[i] == len(stable)
                cut = stable[:keep_depth]
                assert tuple(kept[i]) == cut + (0,) * (keep_depth - len(cut))
