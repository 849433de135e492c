"""Reduced-word arithmetic against brute-force oracles."""

import doctest
import random

import pytest

import noisewalk.words
from noisewalk.errors import InputError
from noisewalk.words import (
    common_prefix_length,
    distance,
    inverse,
    multiply,
    pair_length,
    reduce_word,
    word_length,
)


def brute_reduce(letters):
    """Delete adjacent inverse pairs until none remain; order-independent."""
    out = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i] == -out[i + 1]:
                del out[i : i + 2]
                changed = True
                break
    return tuple(out)


def random_letters(rng, rank, length, inverse_free=False):
    lo = 1 if inverse_free else -rank
    pool = [x for x in range(lo, rank + 1) if x != 0]
    return [rng.choice(pool) for _ in range(length)]


def all_reduced_words(rank, max_len):
    pool = [x for x in range(-rank, rank + 1) if x != 0]
    words = [()]
    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for x in pool:
                if w and w[-1] == -x:
                    continue
                nxt.append(w + (x,))
        words.extend(nxt)
        frontier = nxt
    return words


def test_reduce_matches_brute_force():
    rng = random.Random(20240)
    for _ in range(500):
        letters = random_letters(rng, 2, rng.randrange(0, 12))
        assert reduce_word(letters) == brute_reduce(letters)


def test_docstring_examples_hold():
    result = doctest.testmod(noisewalk.words)
    assert (result.attempted, result.failed) == (5, 0)


def test_reduce_rejects_bad_letters():
    with pytest.raises(InputError):
        reduce_word([0])
    with pytest.raises(InputError):
        reduce_word([1.0])  # type: ignore[list-item]


def test_is_reduced():
    assert reduce_word(()) == ()
    assert reduce_word((1, 2, -1)) == (1, 2, -1)
    assert reduce_word((1, -1)) != (1, -1)
    assert reduce_word((2, -2, 1)) != (2, -2, 1)


def test_multiply_matches_reduce_of_concatenation():
    rng = random.Random(77)
    for _ in range(1000):
        x = reduce_word(random_letters(rng, 3, rng.randrange(0, 10)))
        y = reduce_word(random_letters(rng, 3, rng.randrange(0, 10)))
        assert multiply(x, y) == brute_reduce(x + y)


def test_group_laws():
    rng = random.Random(9)
    e = ()
    for _ in range(300):
        x = reduce_word(random_letters(rng, 2, rng.randrange(0, 8)))
        y = reduce_word(random_letters(rng, 2, rng.randrange(0, 8)))
        z = reduce_word(random_letters(rng, 2, rng.randrange(0, 8)))
        assert multiply(x, inverse(x)) == e
        assert multiply(inverse(x), x) == e
        assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))
        assert inverse(multiply(x, y)) == multiply(inverse(y), inverse(x))


def test_length_and_distance():
    assert word_length(()) == 0
    assert word_length((1, 2, -1)) == 3
    assert distance((1, 2), (1, 2)) == 0
    # d(x, y) = |x^-1 y|
    x, y = (1, 2), (1, -1)
    assert distance(x, y) == word_length(multiply(inverse(x), reduce_word(y)))


def test_gromov_product_equals_common_prefix_exhaustive():
    # the Gromov product (x|y) = (|x| + |y| - d(x, y)) / 2 on the Cayley
    # tree is the common prefix length; every reduced word of length <= 5
    # in F_2: 1 + 4 * (3^5 - 1) / 2 = 485
    words = all_reduced_words(2, 5)
    assert len(words) == 485
    for x in words:
        gx = word_length(x)
        for y in words:
            g = common_prefix_length(x, y)
            assert 2 * g == gx + word_length(y) - distance(x, y)
            assert 0 <= g <= min(gx, word_length(y))


def test_triangle_inequality_random():
    rng = random.Random(5150)
    for _ in range(400):
        x = reduce_word(random_letters(rng, 2, rng.randrange(0, 9)))
        y = reduce_word(random_letters(rng, 2, rng.randrange(0, 9)))
        z = reduce_word(random_letters(rng, 2, rng.randrange(0, 9)))
        assert distance(x, z) <= distance(x, y) + distance(y, z)


def test_semigroup_words_never_cancel():
    rng = random.Random(31)
    for _ in range(200):
        x = tuple(random_letters(rng, 3, rng.randrange(0, 7), inverse_free=True))
        y = tuple(random_letters(rng, 3, rng.randrange(0, 7), inverse_free=True))
        assert multiply(x, y) == x + y


def test_pair_operations_are_coordinatewise():
    u = ((1, 2), (1,))
    assert pair_length(u) == max(word_length(u[0]), word_length(u[1]))
