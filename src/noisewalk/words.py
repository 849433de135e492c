"""Reduced words in free groups and free semigroups.

A word is a tuple of nonzero signed integers: ``i`` is the i-th generator,
``-i`` its inverse, and the empty tuple is the identity.  In the free
semigroup regime only positive letters appear and no cancellation ever
happens, so the same representation and operations apply unchanged.

All functions expect and return *reduced* words (no adjacent ``i, -i``
pair).  ``reduce_word`` is the canonicalizer for raw letter sequences.
"""

from __future__ import annotations

from typing import Iterable

from .errors import InputError

Word = tuple[int, ...]
WordPair = tuple[Word, Word]


def reduce_word(letters: Iterable[int]) -> Word:
    """Cancel adjacent inverse pairs until none remain.

    Single left-to-right pass with a stack; the reduced form is unique
    regardless of cancellation order.

    >>> reduce_word([1, 2, -2, -1, 1])
    (1,)
    >>> reduce_word([])
    ()
    """
    stack: list[int] = []
    for x in letters:
        if not isinstance(x, int) or isinstance(x, bool) or x == 0:
            raise InputError(f"letter {x!r} is not a valid generator index")
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def inverse(w: Word) -> Word:
    """Inverse of a reduced word: reverse and negate.

    >>> inverse((1, -2, 1))
    (-1, 2, -1)
    """
    return tuple(-x for x in reversed(w))


def multiply(x: Word, y: Word) -> Word:
    """Product of two reduced words, reduced.

    Only the suffix of ``x`` against the prefix of ``y`` can cancel, so
    this runs in O(min(|x|, |y|)) after locating the cancellation depth.

    >>> multiply((1, 2), (-2, 3))
    (1, 3)
    >>> multiply((1, 2), (-2, -1))
    ()
    """
    i = len(x)
    j = 0
    while i > 0 and j < len(y) and x[i - 1] == -y[j]:
        i -= 1
        j += 1
    return x[:i] + y[j:]


def word_length(w: Word) -> int:
    """Word length |w| (distance from the identity)."""
    return len(w)


def distance(x: Word, y: Word) -> int:
    """Word metric d(x, y) = |x^{-1} y|."""
    return len(multiply(inverse(x), y))


def common_prefix_length(x: Word, y: Word) -> int:
    """Length of the longest common prefix: the Gromov product (x|y) on the tree."""
    n = min(len(x), len(y))
    i = 0
    while i < n and x[i] == y[i]:
        i += 1
    return i


def pair_length(u: WordPair) -> int:
    """Max-metric length: d_x((e,e), u) = max(|u1|, |u2|)."""
    return max(len(u[0]), len(u[1]))
