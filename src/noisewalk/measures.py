"""Finitely supported step measures and their convolution powers.

A ``FiniteMeasure`` lives either on a free group / free semigroup
(``kind="single"``, atoms are reduced words) or on a product of two
copies (``kind="pair"``, atoms are pairs of reduced words).  Weights
are either all ``Fraction`` (exact mode) or all ``float``; exactness is
preserved through every operation that mathematically can preserve it.

The convolution engine computes the n-fold convolution power level by
level.  In exact mode each level is stored as integer numerators over
the common denominator D**level, which keeps arithmetic exact and makes
entropy certification possible.  A reduced word is numbered by its
shortlex rank, written as a base-B numeral with B = (number of
letters) + 1 and letters 1..k, -1..-k (1..k on a semigroup) as digits
1..B-1, so multiplying by a letter on the right is arithmetic on codes
and no table of words is built.

The form of a level follows from the step.  A pair step on every first
word times every second word (pi_rho at 0 < rho <= 1) is held as its
factors (sorted heads, sorted tails, values row-major), with no key per
atom, until a cap cuts a level; other levels are sorted keys, summed in
chunks of about ``_CHUNK`` products in target-key order (``_times_step``).
Factors sort no product: one (first word, second word) pair's products
for the target heads of one pattern (the first words reaching them)
and the target tails of one class (the second words reaching them) are
a term plane, a row gather from the previous level held tails-major
times one numerator.  A class's planes are added in atom order and in
``np.add.reduceat``'s own order, ``a0 + pairwise(a1, ...)``, as the
chunked step adds a key's terms, so a level's bits depend on neither
its form nor the chunk size.  A step's set-up makes a fixed number of
numpy calls and a few per pattern, none per class: the preimage table
of the heads (which source head each first word takes to each target)
gives the patterns, that of the tails the classes, and one table serves
both when the tails repeat the heads (the same words and the same codes
on both sides, as on every pi_rho level).  A pattern's planes are one
index of block rows, each class's planes a slice of it.

A factored level stores one row per orbit of heads under the group of
every permutation of the generators (with signs on a free group) acting
on both coordinates, when (a) the step's weights are invariant under it
and (b) level arithmetic is exact: numerators, or float weights in
2**-e with e * n <= 53 (``_symmetric``), on every level whose step makes
at least ``_ORBIT_PRODUCTS`` products and is not cut (``_ProductStep``
decides; level 1 is made by no step).  Below that the orbits cost more
to find and read than the rows they save.  The head of a stored row is
its orbit's shortlex-least member; another head reads that row through
a permutation of the tails (``_Orbits``).  A step sums only the stored
rows' target heads, in batches cut by ``_CHUNK`` alone from a pattern's
rows in orbit-size order.  Otherwise every head is a row of its own.
``size`` and the cap count every atom; a level the cap cuts is summed
for every head from its source's rows, and only ``values`` expands one.

Keys and numerators are int64 while they provably fit (keys below
B**depth, squared for pairs; numerators up to the last level with
D**level <= 2**62) and Python ints in object arrays otherwise; the
dtype follows from the input, never from an option, and the results
are the same either way.

Every readout reads a level a block at a time (``ConvolutionLevel.blocks``),
each stored value once with its orbit's size: the histogram (``mass_counts``,
behind the entropies and the certified comparisons) and the exact TV.  The
deepest level of a run, made by a product step and not cut, is read off its
last step's batches and built only when its values are read, so an entropy
or TV run to n holds level n - 1 plus one batch.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Iterator, Union

import numpy as np

from . import rng as rngmod
from .errors import BudgetError, InputError, TruncationError, ValidationError, check_count
from .words import Word, WordPair, pair_length, reduce_word

Weight = Union[Fraction, float]
Atom = Union[Word, WordPair]
# a level's atoms: sorted shortlex keys, or the (heads, tails) factors
Support = Union[np.ndarray, tuple[np.ndarray, np.ndarray]]

WEIGHT_SUM_TOL = 1e-12
DEFAULT_CAP = 2_000_000
_MATERIALIZE_CAP = 3_000_000
_INT64_SAFE = 2**62
# lost mass from which a level is flagged truncated; float(_TRUNC_FLAG_TOL) ==
# 1e-9 and no float lies between them, so Fraction and float mass compare alike
_TRUNC_FLAG_TOL = Fraction(1, 10**9)
# products made, sorted and summed at a time in a convolution level step
_CHUNK = 1 << 18
# products from which a level step of a symmetric pair step stores a row per
# orbit of heads.  Float pi_0.5 on F_2 to n = 6 took 8.6, 8.1, 7.9, 7.6, 7.5,
# 9.9 and 14.2 ms with orbit rows from 0, 300, 3,000, 30,000, 2**16 and 300,000
# products on, or none (mean of two medians of 50 interleaved curves; 2 cores,
# Python 3.11, numpy 2.4); 2**16 starts them at level 5 (14,641 x 16 products)
_ORBIT_PRODUCTS = _CHUNK // 4
# values counted at a time by a level's histogram readout
_READ_BLOCK = 1 << 18


# ---------------------------------------------------------------------------
# measure type


@dataclass(frozen=True)
class FiniteMeasure:
    """Probability measure with finite support, atoms sorted by letter sequence.

    ``atoms`` is a tuple of (atom, weight) pairs; the sort order is the
    plain tuple order on words (pairs compare coordinatewise), which
    fixes the inverse-CDF sampling layout and all serialization orders.
    """

    atoms: tuple[tuple[Atom, Weight], ...]
    rank: int
    kind: str  # "single" or "pair"

    def __post_init__(self):
        if self.kind not in ("single", "pair"):
            raise ValidationError(f"unknown measure kind {self.kind!r}")
        if not self.atoms:
            raise ValidationError("measure must have at least one atom")

    @property
    def exact(self) -> bool:
        return isinstance(self.atoms[0][1], Fraction)

    @property
    def support_size(self) -> int:
        return len(self.atoms)

    @cached_property
    def inverse_free(self) -> bool:
        """True when every letter of every atom is positive."""
        return not any(x < 0 for atom, _ in self.atoms
                       for w in (atom if self.kind == "pair" else (atom,)) for x in w)

    @cached_property
    def max_atom_length(self) -> int:
        length = pair_length if self.kind == "pair" else len
        return max(length(a) for a, _ in self.atoms)

    def as_float(self) -> "FiniteMeasure":
        if not self.exact:
            return self
        return FiniteMeasure(tuple((a, float(w)) for a, w in self.atoms), self.rank, self.kind)

    @cached_property
    def _lookup(self) -> dict:
        return dict(self.atoms)

    @cached_property
    def _cumulative(self) -> np.ndarray:
        return np.cumsum(np.array([float(w) for _, w in self.atoms]))

    @cached_property
    def _guide(self) -> np.ndarray:
        """``rng.index_guide`` of the cumulative weights."""
        return rngmod.index_guide(self._cumulative)


def _normalize_atom(raw, kind: str | None, inferred: bool) -> tuple[Atom, str]:
    """Reduce a raw atom and report its kind; refuse the other kind than an earlier atom's."""
    if not isinstance(raw, (tuple, list)):
        raise InputError(f"atom {raw!r} is not a sequence")
    seq = tuple(raw)
    looks_pair = len(seq) == 2 and all(isinstance(c, (tuple, list)) for c in seq)
    if inferred and kind and (looks_pair if kind == "single" else
                              not any(isinstance(c, (tuple, list)) for c in seq)):
        raise InputError("measure support mixes single and pair atoms")
    if kind == "pair" or (kind is None and looks_pair):
        if not looks_pair:
            raise InputError(f"pair atom {raw!r} must be two letter sequences")
        return (reduce_word(seq[0]), reduce_word(seq[1])), "pair"
    return reduce_word(seq), "single"


def build_measure(
    support: Iterable[tuple[object, object]],
    rank: int | None = None,
    kind: str | None = None,
) -> FiniteMeasure:
    """Build a validated FiniteMeasure from (atom, weight) pairs.

    Atoms are reduced and duplicates merged.  Weights may be Fraction,
    int, or float; if any weight is a float the whole measure becomes
    float.  Exact zero weights are dropped after merging.  The weights
    must be nonnegative and sum to 1 within 1e-12 (exactly, in exact
    mode); NaN and infinite weights are refused.  The rank is inferred from the largest letter index unless
    given explicitly.
    """
    merged: dict[Atom, Weight] = {}
    inferred_kind: str | None = kind
    any_float = False
    for raw_atom, raw_w in support:
        # once the first atom sets the kind, an atom of the other kind is refused here
        atom, inferred_kind = _normalize_atom(raw_atom, inferred_kind, kind is None)
        if isinstance(raw_w, bool):
            raise InputError(f"weight {raw_w!r} is not numeric")
        if isinstance(raw_w, float):
            if not math.isfinite(raw_w):
                raise InputError(f"weight {raw_w!r} for atom {raw_atom!r} is not finite")
            any_float = True
            w: Weight = raw_w
        elif isinstance(raw_w, (int, Fraction)):
            w = Fraction(raw_w)
        else:
            raise InputError(f"weight {raw_w!r} is not numeric")
        if w < 0:
            raise InputError(f"negative weight {raw_w!r} for atom {raw_atom!r}")
        if atom in merged:
            merged[atom] = merged[atom] + w
        else:
            merged[atom] = w
    if inferred_kind is None or not merged:
        raise ValidationError("measure support is empty")
    if any_float:
        merged = {a: float(w) for a, w in merged.items()}
    merged = {a: w for a, w in merged.items() if w != 0}
    if not merged:
        raise ValidationError("measure support is empty after dropping zero weights")

    max_letter = max((abs(x) for a in merged for w in (a if inferred_kind == "pair" else (a,))
                      for x in w), default=0)
    if rank is None:
        if max_letter == 0:
            raise ValidationError("cannot infer rank from identity-only support")
        rank = max_letter
    check_count("rank", rank)
    if max_letter > rank:
        raise InputError(f"letter index {max_letter} exceeds rank {rank}")

    total = math.fsum(merged.values()) if any_float else sum(merged.values(), Fraction(0))
    if abs(total - 1) > (WEIGHT_SUM_TOL if any_float else 0):
        raise ValidationError(f"weights sum to {total}, not 1")

    atoms = tuple(sorted(merged.items(), key=lambda kv: kv[0]))
    return FiniteMeasure(atoms, rank, inferred_kind)


def uniform_measure(rank: int, inverse_free: bool = False) -> FiniteMeasure:
    """Uniform step on the standard generators.

    Free group: the 2k letters a_1..a_k and their inverses, weight 1/2k
    each (simple random walk).  Free semigroup (``inverse_free=True``):
    the k positive letters, weight 1/k each.
    """
    check_count("rank", rank)
    letters = list(range(1, rank + 1))
    if not inverse_free:
        letters += [-i for i in range(1, rank + 1)]
    w = Fraction(1, len(letters))
    return build_measure([((x,), w) for x in letters], rank=rank)


def rho_weight(rho) -> Weight:
    """rho as a weight: a float stays a float, an int or Fraction becomes
    a Fraction; raises InputError outside [0, 1] or for a non-number."""
    if isinstance(rho, float):
        rho_w: Weight = rho
    elif isinstance(rho, (int, Fraction)) and not isinstance(rho, bool):
        rho_w = Fraction(rho)
    else:
        raise InputError(f"rho must be a number, got {rho!r}")
    if not 0 <= rho_w <= 1:
        raise InputError(f"rho must lie in [0, 1], got {rho!r}")
    return rho_w


def build_pi_rho(mu: FiniteMeasure, rho) -> FiniteMeasure:
    """Interpolated coupling rho * (mu x mu) + (1 - rho) * diag(mu).

    Both marginals equal mu for every rho in [0, 1]: the diagonal part
    contributes (1 - rho) mu and the product part rho mu.  The result
    is exact when mu is exact and rho is a Fraction (or int); any float
    input makes the result float.
    """
    if mu.kind != "single":
        raise ValidationError("build_pi_rho needs a single-coordinate measure")
    rho_w = rho_weight(rho)
    atoms: list[tuple[Atom, Weight]] = []
    for x, wx in mu.atoms:
        for y, wy in mu.atoms:
            w = rho_w * wx * wy
            if x == y:
                w = w + (1 - rho_w) * wx
            atoms.append(((x, y), w))
    return build_measure(atoms, rank=mu.rank, kind="pair")


def uniform_letter_count(mu: FiniteMeasure) -> int | None:
    """Return m when mu is uniform on m >= 2 distinct positive single letters.

    This is the regime with closed-form entropy and total variation;
    returns None otherwise, also for one letter, whose runs take the
    exact routes.
    """
    m = mu.support_size
    if mu.kind != "single" or m < 2:
        return None
    w0 = mu.atoms[0][1]
    for a, w in mu.atoms:
        if len(a) != 1 or a[0] <= 0 or w != w0:
            return None
    return m


# ---------------------------------------------------------------------------
# shortlex word codes


class _WordCode:
    """Shortlex numbering of reduced words by base-B numerals.

    The letters 1..k, -1..-k (1..k on a semigroup) are the digits
    1..B-1 of base B = letters + 1, and a word is its numeral with the
    first letter most significant; the identity is 0.  Numeric order is
    shortlex order: shorter words first, equal lengths lexicographic in
    that letter order.  Words of at most ``depth`` letters have codes
    below ``stride`` = B**depth, so a pair packs as code1 * stride +
    code2 and pair keys order lexicographically.
    """

    def __init__(self, rank: int, inverse_free: bool, depth: int):
        letters = list(range(1, rank + 1))
        if not inverse_free:
            letters += [-i for i in range(1, rank + 1)]
        self.letters = letters
        self.inverse_free = inverse_free
        self.base = len(letters) + 1
        self.digit = {x: i + 1 for i, x in enumerate(letters)}
        self.stride = self.base**depth

    def encode(self, word: Word) -> int:
        code = 0
        for x in word:
            code = code * self.base + self.digit[x]
        return code

    def decode(self, code: int) -> Word:
        letters = []
        while code:
            code, d = divmod(code, self.base)
            letters.append(self.letters[d - 1])
        return tuple(reversed(letters))

    def times_words(self, codes: np.ndarray, words: Iterable[Word]) -> dict[Word, np.ndarray]:
        """Codes of u * w for every code of u in ``codes``, for each word w.

        Right-multiplying by letter x drops the last digit when it is
        x's inverse and appends x's digit otherwise.  Words sharing a
        prefix share its letter steps.
        """
        memo: dict[Word, np.ndarray] = {(): codes}
        # per prefix, shared by its extensions: code * B and, where letters
        # cancel, the quotient and last digit by B
        parts: dict[Word, tuple] = {}
        prefixes = {w[:i] for w in words for i in range(1, len(w) + 1)}
        for w in sorted(prefixes, key=len):  # no recursive closure: no reference cycle
            u, x = w[:-1], w[-1]
            if u not in parts:
                prev = memo[u]
                parts[u] = (prev * self.base,) + (
                    () if self.inverse_free else (prev // self.base, prev % self.base)
                )
            grown = parts[u][0] + self.digit[x]
            memo[w] = grown if self.inverse_free else np.where(
                parts[u][2] == self.digit[-x], parts[u][1], grown
            )
        return {w: memo[w] for w in words}


# ---------------------------------------------------------------------------
# convolution levels


@dataclass
class ConvolutionLevel:
    """One level of a convolution power, without materialized Fractions.

    ``lost_mass`` is the cumulative mass dropped by truncation up to and
    including this level; the stored values describe only the kept mass.
    In exact mode the stored values are integer numerators over
    ``denominator`` = D**level.  Atoms are held as sorted shortlex keys
    (``_WordCode``) beside their values, or, on an uncut level of a
    product pair step, as its factors: sorted head codes, sorted tail
    codes and the values laid out row-major as heads x tails, with no
    key per atom (``factors``).  ``keys`` builds the keys of either.
    An unbuilt level holds the ``_ProductStep`` that makes its values.

    A factored level of a symmetric step (``_symmetric``: an invariant
    step and exact level arithmetic) may store one row per orbit of heads
    (``_Orbits``), as its ``_ProductStep`` decides; ``size`` still counts
    every atom, ``blocks`` gives each stored value with its orbit's size,
    and ``values`` (behind ``iter_items``, ``values_at`` and
    ``to_measure``) alone expands the level, once, and keeps that.
    """

    level: int
    kind: str
    rank: int
    step_max_len: int
    denominator: int | None
    lost_mass: Weight
    _support: Support = field(repr=False)
    _vals: np.ndarray | _ProductStep = field(repr=False)
    _code: _WordCode = field(repr=False)
    _orbits: _Orbits | None = field(default=None, repr=False)
    _entropy: float | None = field(default=None, init=False, repr=False, compare=False)
    _hist: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def exact(self) -> bool:
        """Whether the values are numerators over ``denominator``."""
        return self.denominator is not None

    @property
    def truncated(self) -> bool:
        """Whether the cap dropped at least 1e-9 mass; less is reported but not flagged."""
        return self.lost_mass >= _TRUNC_FLAG_TOL

    @property
    def size(self) -> int:
        """Number of atoms, every head of a factored level counted."""
        return _size(self._support)

    @property
    def factors(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(heads, tails) of a level held as every head times one tail set, else None.

        Atom ``r * len(tails) + j`` is the pair of words with codes
        ``heads[r]`` and ``tails[j]``.
        """
        return self._support if isinstance(self._support, tuple) else None

    @property
    def keys(self) -> np.ndarray:
        """Sorted shortlex keys, one per stored value (pairs: code1 * stride + code2).

        A factored level builds them on each call and does not keep
        them; their dtype is the factors', int64 while stride**2 < 2**63.
        """
        if self.factors is None:
            return self._support
        heads, tails = self.factors
        return ((heads * self._code.stride)[:, None] + tails).reshape(-1)

    def iter_items(self) -> Iterator[tuple[Atom, object]]:
        """Yield (atom, value) in key order; value a numerator (exact) or float.

        Each distinct coordinate code is decoded once.
        """
        code, pair = self._code, self.kind == "pair"
        coords = self.coordinate_codes()
        uniq, inv = np.unique(np.concatenate(coords), return_inverse=True)
        words = np.fromiter(map(code.decode, uniq.tolist()), dtype=object, count=len(uniq))
        atoms = words[inv].reshape(len(coords), -1).tolist()
        yield from zip(zip(*atoms) if pair else atoms[0], self.values.tolist())

    @property
    def values(self) -> np.ndarray:
        """Values (numerators or floats) in key order; built and expanded on the first read."""
        if not isinstance(self._vals, np.ndarray):
            self._vals, self._hist = self._vals.values(), None
        if self._orbits is not None:
            self._vals, self._orbits = self._orbits.expand(self._vals), None
        return self._vals

    def coordinate_codes(self) -> list[np.ndarray]:
        """Shortlex code of each coordinate word (one array per coordinate), in key order."""
        keys, stride = self.keys, self._code.stride
        return [keys // stride, keys % stride] if self.kind == "pair" else [keys]

    def values_at(self, codes: np.ndarray) -> np.ndarray:
        """Stored value of the single-walk atom with each shortlex code, 0 where none.

        ``codes`` number words over this level's letters, such as the
        coordinate codes of a pair level on the same letters.
        """
        keys = self.keys
        pos = np.minimum(np.searchsorted(keys, codes), self.size - 1)
        return np.where(keys[pos] == codes, self.values[pos], 0)

    def blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray | None, np.ndarray, int]]:
        """(first codes, second codes, values, multiplicity) of blocks holding each value once.

        The codes broadcast against the values (a single level has no second
        codes) and a value counts once per head of its orbit.  Keys come in
        ``_READ_BLOCK`` slices.  Stored rows come whole, in orbit-size order,
        about ``_READ_BLOCK`` values at a time, and an unbuilt level as its
        step's batches; both tails-major, cut where the orbit size changes.
        The values are a copy or the batch buffer, so a reader may sort them.
        """
        vals, stride = self._vals, self._code.stride
        if self.factors is None:
            for i in range(0, max(len(vals), 1), _READ_BLOCK):
                keys = self._support[i : i + _READ_BLOCK]
                u, v = (keys // stride, keys % stride) if self.kind == "pair" else (keys, None)
                yield u, v, vals[i : i + _READ_BLOCK].copy(), 1
            return
        heads, tails = self.factors
        sizes = np.ones(len(heads), dtype=np.intp)
        if self._orbits is not None:
            heads, sizes = heads[self._orbits.canon], self._orbits.sizes
        if isinstance(vals, np.ndarray):  # stored rows in orbit-size order, as batches
            rows, order = vals.reshape(len(heads), -1), np.argsort(sizes, kind="stable")
            step = max(1, _READ_BLOCK // len(tails))
            batches = ((t, rows[t].T) for t in np.split(order, range(step, len(order), step)))
            tails = tails[:, None]
        else:
            batches, tails = vals.batches(), tails[np.argsort(vals.place)][:, None]  # class order
        for t, sums in batches:
            k = sizes[t]
            cut = [0, *(np.flatnonzero(k[1:] != k[:-1]) + 1), len(t)]
            for a, b in zip(cut, cut[1:]):
                yield heads[t[a:b]], tails, sums[:, a:b], int(k[a])

    def mass_counts(self) -> Counter:
        """Multiplicity of each distinct stored value (numerator or float), in value order.

        Counted from ``blocks`` (``_counted``); an unbuilt level keeps its
        histogram, so its last step runs once for every readout.
        """
        hist = self._hist or _counted((vals.ravel("A"), k) for *_, vals, k in self.blocks())
        if not isinstance(self._vals, np.ndarray):
            self._hist = hist
        return Counter(dict(zip(hist[0].tolist(), hist[1].tolist())))

    def entropy_kept(self) -> float:
        """Sum of -w log w over kept atoms, in nats.

        This is a lower bound for the full level entropy; adding the
        dropped-mass bound from ``entropy_upper_bound`` recovers a
        certified bracket.  Computed once per level.
        """
        if self._entropy is not None:
            return self._entropy
        counts = self.mass_counts().items()
        if self.exact:
            d, logd = float(self.denominator), math.log(self.denominator)
            terms = [cnt * (v / d) * (logd - math.log(v)) for v, cnt in counts]
        else:
            terms = [-cnt * v * math.log(v) for v, cnt in counts if v > 0]
        self._entropy = math.fsum(terms)
        return self._entropy

    def entropy_upper_bound(self) -> float:
        """Certified upper bound on the full level entropy.

        A coordinate word has at most level * Lmax letters, so its
        shortlex code lies below B^(level * Lmax), B = letters + 1; the
        dropped mass eps, spread over at most that many atoms per
        coordinate, contributes at most eps * log(atom bound) - eps * log(eps).
        """
        lower = self.entropy_kept()
        eps = float(self.lost_mass)
        if eps <= 0:
            return lower
        coords = 2 if self.kind == "pair" else 1
        log_atoms = coords * self.level * self.step_max_len * math.log(self._code.base)
        return lower + eps * log_atoms - eps * math.log(eps)

    def to_measure(self) -> FiniteMeasure:
        if self.size > _MATERIALIZE_CAP:
            raise BudgetError("level too large to materialize as a measure")
        atoms = [(a, Fraction(v, self.denominator) if self.exact else v)
                 for a, v in self.iter_items()]
        atoms.sort(key=lambda kv: kv[0])
        return FiniteMeasure(tuple(atoms), self.rank, self.kind)


def _size(support: Support) -> int:
    """Atoms of a level, every head times every tail when it is held as factors."""
    return len(support[0]) * len(support[1]) if isinstance(support, tuple) else len(support)


def _counted(blocks: Iterable[tuple[np.ndarray, int]]) -> tuple[np.ndarray, np.ndarray]:
    """(value, count) histogram, in value order, of 1-D blocks it sorts in place.

    Each block comes with a multiplicity, the times each of its values
    counts.  Each block's (value, count) runs wait until more wait than both
    ``_READ_BLOCK`` and the histogram holds, then merge into it: the
    merges take O(N log N) for N runs in all, and memory stays within
    about twice the distinct values, plus ``_READ_BLOCK`` and one block.
    """
    hist, pending, held, edge = [], [], 0, np.ones(1, dtype=bool)
    for flat, k in blocks:
        flat.sort()
        if len(edge) <= len(flat):  # edge[i]: a run starts at i; edge[0] stays set
            edge = np.ones(len(flat) + 1, dtype=bool)
        np.not_equal(flat[1:], flat[:-1], out=edge[1 : len(flat)])
        edge[len(flat)] = True  # the end of the last run
        first = np.flatnonzero(edge[: len(flat) + 1])
        pending.append((flat[first[:-1]], (first[1:] - first[:-1]) * k))
        held += len(first) - 1
        if held > max(_READ_BLOCK, len(hist[0][0]) if hist else 0):
            hist, pending, held = [_merged(hist + pending)], [], 0
    return _merged(hist + pending)


def _merged(hists: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """One (value, count) histogram of several, in value order."""
    if len(hists) == 1:
        return hists[0]
    uniq, inv = np.unique(np.concatenate([u for u, _ in hists]), return_inverse=True)
    cnt = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(cnt, inv, np.concatenate([c for _, c in hists]))
    return uniq, cnt


def _step_numerators(step: FiniteMeasure) -> tuple[int, list[int]]:
    denom = math.lcm(*[w.denominator for _, w in step.atoms])
    nums = [int(w * denom) for _, w in step.atoms]
    return denom, nums


def _position_bits(key_bound: int, count: int) -> int | None:
    """Bits that number ``count`` positions below keys under ``key_bound``.

    None when ``key << bits | position`` would not fit in int64.
    """
    bits = (count - 1).bit_length()
    return bits if key_bound << bits < 2**63 else None


def _sort_in_place(keys: np.ndarray, key_bound: int) -> np.ndarray:
    """Sort ``keys`` (all below ``key_bound``) in place; return the stable order.

    When ``_position_bits`` allows, each key is packed as ``key << bits
    | position`` and the packed words are sorted.  They are distinct, so
    the low bits read back the permutation of a stable argsort (equal
    keys in position order).  Otherwise (object keys, or int64 keys with
    no room for the positions) a stable argsort runs.
    """
    bits = None if keys.dtype == object else _position_bits(key_bound, len(keys))
    if bits is None:
        order = np.argsort(keys, kind="stable")
        keys[:] = keys[order]
        return order
    keys <<= bits
    keys |= np.arange(len(keys))
    keys.sort()
    order = keys & ((1 << bits) - 1)
    keys >>= bits
    return order


def _chunk_cuts(target: np.ndarray, done: np.ndarray) -> list[int]:
    """Where the chunks of sorted blocks start, then the number of blocks.

    ``target`` holds the sorted blocks' target heads and ``done`` the
    products up to and including each block.  A chunk ends where the
    head changes, after at most ``_CHUNK`` products unless one head
    alone has more.
    """
    cuts = [0]
    while cuts[-1] < len(target):
        start = cuts[-1]
        limit = (done[start - 1] if start else 0) + _CHUNK
        end = int(np.searchsorted(done, limit, side="right"))
        if end < len(target):
            # back to the start of the head that does not fit, unless
            # that is the chunk's first head: then past its end
            end = int(np.searchsorted(target, target[end], side="left"))
            if end <= start:
                end = int(np.searchsorted(target, target[start], side="right"))
        cuts.append(end)
    return cuts


def _product_shape(keys: np.ndarray, stride: int) -> tuple[np.ndarray, np.ndarray] | None:
    """(heads, tails) when the pair keys are every head times one tail set.

    The keys are then ``heads[r] * stride + tails[j]`` for every r and
    j, in that order; None when they are not.
    """
    tails = keys[: int(np.searchsorted(keys, (keys[0] // stride + 1) * stride))] % stride
    if len(keys) % len(tails):
        return None
    grid = keys.reshape(-1, len(tails))
    heads = grid[:, 0] // stride
    if not np.array_equal(grid, heads[:, None] * stride + tails):
        return None
    return heads, tails


def _row_patterns(reach: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a matrix, lexicographic, and each row's index among them.

    ``np.unique(reach, axis=0, return_inverse=True)`` by one lexsort, not a structured sort.
    """
    order = np.lexsort(reach.T[::-1])
    ranked = reach[order]
    first = np.ones(len(ranked), dtype=bool)
    np.any(ranked[1:] != ranked[:-1], axis=1, out=first[1:])
    pattern_of = np.empty(len(ranked), dtype=np.intp)
    pattern_of[order] = np.cumsum(first) - 1
    return ranked[first], pattern_of


def _preimages(images: dict) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct codes of ``images`` (one code array per word, all of one length),
    and ``where[t, k]``: the index that word k takes to code t, -1 if none."""
    codes, inv = np.unique(np.concatenate(list(images.values())), return_inverse=True)
    inv = inv.reshape(len(images), -1)
    where = np.full((len(codes), len(images)), -1)
    where[inv, np.arange(len(images))[:, None]] = np.arange(inv.shape[1])
    return codes, where


def _pairwise(terms: np.ndarray) -> np.ndarray:
    """numpy's ``pairwise_sum`` along axis 0 (see ``_plane_sum``), in place into ``terms[0]``."""
    n, rest = len(terms), 1
    if n > 128:
        half = n // 2 - n // 2 % 8
        return np.add(_pairwise(terms[:half]), _pairwise(terms[half:]), out=terms[0])
    if n >= 8:
        lanes, rest = terms[:8], n - n % 8
        for i in range(8, rest, 8):
            lanes += terms[i : i + 8]
        for k in (1, 2, 4):  # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
            lanes[:: 2 * k] += lanes[k :: 2 * k]
    for term in terms[rest:]:
        terms[0] += term
    return terms[0]


def _plane_sum(first: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """Add the planes ``rest`` into ``first``, as ``np.add.reduceat`` adds a segment.

    That is ``a0 + pairwise(a1, ...)``, with numpy's ``pairwise_sum``
    (``_pairwise``): below 8 terms left to right; up to 128 eight lanes,
    each left to right, merged in a tree, then the rest left to right;
    above 128 two halves (the first a multiple of 8 terms), each so.
    ``rest`` is overwritten.
    """
    if len(rest):
        first += _pairwise(rest)
    return first


def _symmetric(step: FiniteMeasure, n: int, code: _WordCode,
               factors: tuple[np.ndarray, np.ndarray], vals: np.ndarray) -> bool:
    """Whether levels 1..n of a pair step may store one row per orbit of heads.

    The group is every permutation of the generators, with signs on a
    free group, acting on both coordinates.  It takes (a) a step whose
    weights it keeps, checked on a transposition, a k-cycle and (on a
    group) inverting a_1, which generate it; and (b) exact level
    arithmetic: numerators, or float weights that are multiples of
    2**-e with e * n <= 53, so that every product and partial sum of a
    level is a multiple of 2**(-e * level) in [0, 1] and no float sum
    depends on its order.  Then a head's row, read through its orbit's
    row, has the bits of its own.  (a) is read off level 1 (``factors``,
    ``vals``): each move maps heads and tails through its digit table
    (``_moved``), and must permute each and keep the value grid.
    """
    if not step.exact:
        e = max(w.as_integer_ratio()[1].bit_length() - 1 for _, w in step.atoms)
        if e * n > 53:
            return False
    k = step.rank
    moves = [{1: 2, 2: 1}] if k > 1 else []
    if k > 2:
        moves.append({i: i % k + 1 for i in range(1, k + 1)})
    if not step.inverse_free:
        moves.append({1: -1})
    if not moves:
        return False
    table = np.array([[0] + [code.digit[move.get(abs(x), abs(x)) * (1 if x > 0 else -1)]
                             for x in code.letters] for move in moves])
    moved = [_moved(code, table, codes) for codes in factors]  # a row per move
    at = [np.searchsorted(c, m).clip(max=len(c) - 1) for c, m in zip(factors, moved)]
    grid = vals.reshape(len(factors[0]), -1)
    return (all(np.array_equal(c[i], m) for c, i, m in zip(factors, at, moved))
            and bool(np.all(grid[at[0][:, :, None], at[1][:, None, :]] == grid)))


def _digits(code: _WordCode, codes: np.ndarray) -> list[np.ndarray]:
    """Letter digits of each code, first letter first; shorter words lead with 0s."""
    digits = []
    while np.any(codes):
        digits.append((codes % code.base).astype(np.intp))
        codes = codes // code.base
    return digits[::-1]


def _moved(code: _WordCode, table: np.ndarray, codes: np.ndarray,
           digits: list[np.ndarray] | None = None) -> np.ndarray:
    """Codes of the words with each letter digit d replaced by ``table[..., d]``."""
    moved = np.zeros(table.shape[:-1] + codes.shape, dtype=codes.dtype)
    for d in _digits(code, codes) if digits is None else digits:
        moved = moved * code.base + table[..., d]
    return moved


def _relabelled(code: _WordCode, codes: np.ndarray,
                digits: list[np.ndarray] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Codes of each word's first-appearance relabelling, and the relabelling.

    The word's first generator becomes a_1, with the sign that makes the
    letter positive, the next new one a_2, and so on: the shortlex-least
    image of the word under the group (``_symmetric``).  Generators the
    word does not use follow in index order, positive.  ``image[w, i-1]``
    is the signed index of the image of a_i under word w's relabelling.
    """
    k = code.base - 1 if code.inverse_free else (code.base - 1) // 2
    # img[w * base + d]: the digit that word w's relabelling gives digit d, 0 while unseen
    img = np.zeros(len(codes) * code.base, dtype=np.intp)
    rows = np.arange(0, len(img), code.base)
    fresh = np.ones(len(codes), dtype=np.intp)
    out = np.zeros_like(codes)
    for d in _digits(code, codes) if digits is None else digits:
        at = rows + d
        letter = img[at]
        hit = np.flatnonzero((letter == 0) & (d > 0))
        letter[hit] = img[at[hit]] = fresh[hit]
        if not code.inverse_free:  # the inverse letter takes the inverse label
            img[at[hit] + np.where(d[hit] > k, -k, k)] = fresh[hit] + k
        fresh[hit] += 1
        out = out * code.base + letter
    image = img.reshape(-1, code.base)[:, 1 : k + 1]
    image = np.where(image > k, k - image, image)  # digit k + i is a_i^-1
    unused = image == 0
    image[unused] = (fresh[:, None] + np.cumsum(unused, axis=1) - 1)[unused]
    return out, image


class _Orbits:
    """A factored level's heads by orbit, each orbit stored as one row.

    Head h reads the row ``row_of[h]``, that of its relabelling
    (``_relabelled``), through the tail permutation ``perms[perm_of[h]]``:
    value(h, t) = value(g h, g t) for the g relabelling h, and
    ``perms[u, j]`` is the position of g_u(tails[j]) among the tails.
    ``canon`` indexes the heads of the stored rows, in head order, and
    ``sizes`` counts each orbit's heads.  The heads are split into digits
    once; ``perms`` reuses them when the tails are the heads.
    """

    def __init__(self, code: _WordCode, heads: np.ndarray, tails: np.ndarray):
        digits = _digits(code, heads)
        relabelled, image = _relabelled(code, heads, digits)
        canon, self.row_of = np.unique(relabelled, return_inverse=True)
        self.canon = np.searchsorted(heads, canon)
        self.sizes = np.bincount(self.row_of)
        self.gens, self.perm_of = _row_patterns(image)
        self.code, self.tails = code, tails
        self.tail_digits = digits if tails is heads else None

    @cached_property
    def perms(self) -> np.ndarray:
        """Made on the first gather: the deepest level of a run may need none."""
        code, gens, k = self.code, self.gens, self.gens.shape[1]
        # per relabelling, the image digit of each letter digit
        signed = np.hstack([np.zeros((len(gens), 1), dtype=np.intp), gens, -gens])
        table = np.where(signed < 0, k - signed, signed)[:, : code.base]
        moved = _moved(code, table, self.tails, self.tail_digits)
        return np.searchsorted(self.tails, moved.reshape(-1)).reshape(moved.shape)

    def expand(self, rows: np.ndarray) -> np.ndarray:
        """Every head's values, row-major as heads x tails, from the stored rows (flat)."""
        index = self.perms[self.perm_of]
        index += (self.row_of * self.perms.shape[1])[:, None]
        return rows[index].reshape(-1)


class _ProductStep:
    """``_times_step``'s sums on a level held as factors (every head times one tail set).

    Made as its plan, with no numpy call per class (module docstring), so
    the new level's factors and ``len`` are known before any product.
    A pattern's target heads go in batches of about ``_CHUNK`` products: a
    batch's runs are gathered tails-major once, and all its term planes are
    one row gather from them by the pattern's index, times the numerators.
    The index puts every class's first plane first, tails in class order:
    those rows are the batch's sums once ``_plane_sum`` adds each class's
    other planes into them.  Every first word of a product step meets
    every second word, so the new level is factors.

    This is the one place a level's orbit rows are decided: on a
    symmetric step (``symmetric``) of at least ``_ORBIT_PRODUCTS``
    products that the cap will not cut (a cut level needs every head),
    the new level stores a row per orbit (``_Orbits``), and only the
    stored rows' target heads are summed.  A source with orbit rows
    (``orbits``) is gathered through each head's orbit permutation.  A
    pattern's stored rows are ordered by orbit size, then row, and cut
    into batches by ``_CHUNK`` alone.
    """

    def __init__(
        self, code: _WordCode, atoms: list, groups: dict[Word, list[int]], num: np.ndarray,
        orbits: _Orbits | None, symmetric: bool, cap: int, heads: np.ndarray,
        tails: np.ndarray, vals: np.ndarray,
    ):
        words, m, seconds = list(groups), len(tails), sorted({a[1] for a in atoms})
        targets, run = _preimages(code.times_words(heads, words))
        patterns, pattern_of = _row_patterns(run >= 0)
        if words == seconds and np.array_equal(heads, tails):  # the tail side repeats it
            tail_codes, source, classes, class_of = targets, run, patterns, pattern_of
        else:
            tail_codes, source = _preimages(code.times_words(tails, seconds))
            classes, class_of = _row_patterns(source >= 0)
        size = len(targets) * len(tail_codes)
        if symmetric and size <= cap and len(heads) * m * len(atoms) >= _ORBIT_PRODUCTS:
            self.orbits = _Orbits(code, targets, tail_codes)
            stored = self.orbits.canon
            self.run, sizes, pattern_of = run[stored], self.orbits.sizes, pattern_of[stored]
        else:
            self.orbits, self.run, sizes = None, run, np.ones(len(targets), dtype=np.intp)
        second = np.array([seconds.index(a[1]) for a in atoms])
        group = np.repeat(np.arange(len(words)), [len(groups[w]) for w in words])
        # target tails in class order: class c has places start[c]:start[c] + count[c]
        by_class, count = np.argsort(class_of, kind="stable"), np.bincount(class_of)
        start, width = np.cumsum(count) - count, len(class_of)
        # (pattern p, class c) has a plane per atom whose first word is in p and whose
        # second word reaches c, in atom order.  A pattern's terms are every class's
        # first plane, in class order, then the other planes, class by class
        pat, atom = np.nonzero(patterns[:, group])
        cls, k = np.nonzero(classes[:, second[atom]])  # by class, then pattern and atom
        pat, atom, key = pat[k], atom[k], pat[k] * len(classes) + cls
        used = np.bincount(key, minlength=len(patterns) * len(classes)).reshape(len(patterns), -1)
        pairs = np.lexsort((atom, cls, np.r_[False, key[1:] == key[:-1]], pat))
        pat, cls, atom = pat[pairs], cls[pairs], atom[pairs]
        rows = count[cls]
        at = np.repeat(second[atom] * width + start[cls] - np.cumsum(rows) + rows, rows)
        # a term's block row: a batch's block holds tail j of the run of the
        # pattern's s-th group in row s * m + j
        slot = (np.cumsum(patterns, axis=1) - 1)[pat, group[atom]]
        index = np.repeat(slot * m, rows) + source[by_class].T.ravel()[at + np.arange(len(at))]
        factor = np.repeat(num[atom], rows)[:, None]
        ends = [0, *np.cumsum(used @ count).tolist()]  # per pattern
        rest = (used - 1) * count
        others = (width + np.cumsum(rest, axis=1) - rest).tolist()
        order = np.lexsort((sizes, pattern_of))  # stored rows by pattern, orbit size, row
        cuts = np.cumsum(np.bincount(pattern_of, minlength=len(patterns))).tolist()
        self.plan = []  # per pattern: groups, batches of target heads, terms, class sums
        for p, (a, b) in enumerate(zip([0, *cuts], cuts)):
            if a == b:  # no stored row has this pattern
                continue
            sums = [(s, s + k, r, n - 1) for s, k, r, n in zip(
                start.tolist(), count.tolist(), others[p], used[p].tolist()) if n > 1]
            # a head's terms are its products: one per atom and source tail
            batch, t = max(1, _CHUNK // (ends[p + 1] - ends[p])), order[a:b]
            self.plan.append((np.flatnonzero(patterns[p]),
                              [t[i : i + batch] for i in range(0, len(t), batch)],
                              index[ends[p] : ends[p + 1]], factor[ends[p] : ends[p + 1]], sums))
        self.factors = (targets, tail_codes)
        self.source_orbits = orbits
        self.vals = vals.reshape(-1, m)
        self.place = np.argsort(by_class)  # each target tail's row in a batch's sums

    def batches(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield each batch's stored rows and sums (a row per target tail, in class
        order), in reused buffers."""
        m, width = self.vals.shape[1], len(self.factors[1])
        # sized for the widest batch of any pattern (its first)
        block_n = max(len(gs) * len(ts[0]) * m for gs, ts, *_ in self.plan)
        terms_n = max(len(ts[0]) * len(index) for _, ts, index, *_ in self.plan)
        gather_buf, block_buf, terms_buf = (np.empty(k, self.vals.dtype) for k in (
            block_n, block_n, terms_n))
        if self.source_orbits is not None:
            index_buf, flat = np.empty(block_n, np.intp), self.vals.reshape(-1)
        for gs, batches, index, factor, sums in self.plan:
            for t in batches:
                size = len(t) * len(gs) * m
                gather = gather_buf[:size].reshape(len(t), len(gs), m)
                src = self.run[t[:, None], gs]
                # mode="clip" writes straight into out; the default buffers a copy
                if self.source_orbits is None:
                    self.vals.take(src, axis=0, out=gather, mode="clip")
                else:  # a source head's row: its orbit's stored row, permuted
                    at = index_buf[:size].reshape(gather.shape)
                    read = self.source_orbits
                    read.perms.take(read.perm_of[src], axis=0, out=at, mode="clip")
                    at += (read.row_of[src] * m)[:, :, None]
                    flat.take(at, out=gather, mode="clip")
                block = block_buf[:size].reshape(len(gs) * m, len(t))
                block[...] = gather.reshape(len(t), -1).T
                terms = terms_buf[: len(index) * len(t)].reshape(len(index), len(t))
                block.take(index, axis=0, out=terms, mode="clip")
                terms *= factor
                for s, e, r, n in sums:  # a class's first plane plus its other n
                    _plane_sum(terms[s:e], terms[r : r + n * (e - s)].reshape(n, e - s, len(t)))
                yield t, terms[:width]

    def values(self) -> np.ndarray:
        """The new level's stored rows, row-major as stored heads x tails."""
        out_v = np.empty((len(self.run), len(self.factors[1])), dtype=self.vals.dtype)
        for t, sums in self.batches():
            out_v[t] = sums[self.place].T
        return out_v.reshape(-1)


def _times_step(
    code: _WordCode, pair: bool, atoms: list, groups: dict[Word, list[int]], num: np.ndarray,
    keys: np.ndarray, vals: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Multiply every state by every atom on the right; sort and sum equal keys.

    The products are made, sorted and summed in chunks of about
    ``_CHUNK`` products, in target-key order.  The sorted keys are runs
    of states sharing a head (the left word of a pair; the whole word
    of a single walk), and a run times the atoms with first word w is a
    block whose products all have the head ``head * w``.  Sorting the
    blocks by that target head lays out the chunks: each is a range of
    target heads, its keys above the previous chunk's.

    On a pair level a chunk writes its products atom by atom into
    reused buffers and sorts them by ``_sort_in_place``, so equal keys
    meet in atom order.  On a single level a block is one product and
    the stable block sort has already put them in key order, ties in
    atom order.  Right multiplication by one atom is injective, so a
    key has at most one term per atom, and every sum adds the same
    values in the same order as a stable sort of the whole level.  The
    sums go straight into the level's arrays, allocated for every
    product but touched only as far as written, then shrunk in place.
    ``np.add.reduceat`` adds a key's terms as ``a0 + pairwise(a1, ...)``,
    the order ``_plane_sum`` repeats.  ``groups`` lists atoms by first word.
    """
    words = list(groups)
    if pair:  # runs of states sharing a left word
        heads = keys // code.stride
        run_start = np.flatnonzero(np.r_[True, heads[1:] != heads[:-1]])
        run_len = np.diff(np.r_[run_start, len(keys)])
        heads = heads[run_start]
    else:  # each state is a run of its own
        heads = keys

    # block (group g, run r) is g * runs + r in the flat arrays
    dest = code.times_words(heads, set(words))
    target = np.concatenate([dest[w] for w in words])
    del dest
    block_order = _sort_in_place(target, code.stride)
    # products up to and including each sorted block
    if pair:
        done = np.concatenate([run_len * len(groups[w]) for w in words])[block_order]
        np.cumsum(done, out=done)
    else:  # every block of a single level is one product
        done = np.arange(1, len(target) + 1)
    cuts = _chunk_cuts(target, done)
    if pair:
        chunk = int(np.diff(done[np.array(cuts[1:]) - 1], prepend=0).max())
        buf_k = np.empty(chunk, dtype=keys.dtype)
        buf_v = np.empty(chunk, dtype=vals.dtype)
    out_k = np.empty(int(done[-1]), dtype=keys.dtype)
    out_v = np.empty(int(done[-1]), dtype=vals.dtype)
    del done
    filled = 0
    for b0, b1 in zip(cuts, cuts[1:]):
        g_of = block_order[b0:b1] // len(heads)  # np.divmod is several times slower
        run = block_order[b0:b1] - g_of * len(heads)
        if pair:
            pos = 0
            for g, w in enumerate(words):
                mask = g_of == g
                lens = run_len[run[mask]]
                # the chunk's states of group g, run by run
                src = np.arange(lens.sum()) + np.repeat(
                    run_start[run[mask]] - np.cumsum(lens) + lens, lens
                )
                head = np.repeat(target[b0:b1][mask] * code.stride, lens)
                tails = code.times_words(
                    keys[src] % code.stride, {atoms[i][1] for i in groups[w]}
                )
                vsrc = vals[src]
                for i in groups[w]:
                    np.add(head, tails[atoms[i][1]], out=buf_k[pos : pos + len(src)])
                    np.multiply(num[i], vsrc, out=buf_v[pos : pos + len(src)])
                    pos += len(src)
            ck = buf_k[:pos]
            cv = buf_v[:pos][_sort_in_place(ck, (int(target[b1 - 1]) + 1) * code.stride)]
        else:
            ck, cv = target[b0:b1], num[g_of] * vals[run]
        starts = np.flatnonzero(np.r_[True, ck[1:] != ck[:-1]])
        # mode="clip" writes straight into out; the default buffers a copy
        np.take(ck, starts, out=out_k[filled : filled + len(starts)], mode="clip")
        np.add.reduceat(cv, starts, out=out_v[filled : filled + len(starts)])
        filled += len(starts)
    out_k.resize(filled, refcheck=False)  # in place: no view of them is left
    out_v.resize(filled, refcheck=False)
    return out_k, out_v


def _heaviest(vals: np.ndarray, cap: int) -> np.ndarray:
    """Mask of the ``cap`` largest values, ties at the cut kept in index order.

    On sorted keys these are the atoms ``np.lexsort((keys, -vals))[:cap]``
    picks, found by one selection instead of a sort.
    """
    cut = np.partition(vals, len(vals) - cap)[len(vals) - cap]
    keep = vals > cut
    keep[np.flatnonzero(vals == cut)[: cap - np.count_nonzero(keep)]] = True
    return keep


def _kept(support: Support, keep: np.ndarray, stride: int) -> np.ndarray:
    """Sorted keys of the atoms that the mask ``keep`` marks.

    Of factors, only the kept atoms' keys are built: atom i is
    ``heads[i // len(tails)]`` times ``tails[i % len(tails)]``.
    """
    if not isinstance(support, tuple):
        return support[keep]
    heads, tails = support
    row, col = np.divmod(np.flatnonzero(keep), len(tails))
    return heads[row] * stride + tails[col]


def iter_convolution_levels(
    step: FiniteMeasure,
    n: int,
    cap: int = DEFAULT_CAP,
    strict: bool = False,
) -> Iterator[ConvolutionLevel]:
    """Stream the convolution powers step, step^2, ..., step^n.

    Each level multiplies every kept state by every atom on the right
    (vectorized on shortlex codes) and sums equal keys (``_times_step``).
    A pair step whose sorted keys are every head times one tail set
    (``_product_shape``; at 0 < rho <= 1, every pi_rho) is held as its
    factors, summed in term planes (``_ProductStep``), until a cap cuts
    a level; a level's bits depend on neither its form nor ``_CHUNK``.
    An uncut level n made so is yielded unbuilt (module docstring).
    Each such step decides whether its level stores a row per orbit of
    heads (``_symmetric`` is worked out once from level 1 and ``n``).
    Past ``cap`` atoms the lightest are dropped, ties broken in shortlex
    order (pairs: lexicographic in the two coordinates; ``_heaviest``),
    and only the kept atoms' keys are built (``_kept``); the lost mass is
    tracked so callers can certify bounds, or ``strict=True`` raises
    ``TruncationError`` (before a product step makes any product).
    Exact numerators are int64 up to the last level with D**level <=
    2**62 and Python ints from the next, whatever ``n`` is.
    """
    check_count("n", n)
    check_count("cap", cap)

    exact = step.exact
    pair = step.kind == "pair"
    code = _WordCode(step.rank, step.inverse_free, n * step.max_atom_length)
    if exact:
        denom, nums = _step_numerators(step)
        vals_dtype = np.int64 if denom <= _INT64_SAFE else object
    else:
        denom, nums = None, [w for _, w in step.atoms]
        vals_dtype = np.float64
    keys_dtype = np.int64 if code.stride ** (2 if pair else 1) < 2**63 else object

    atoms = [a for a, _ in step.atoms]
    # atom indices by first word; the atoms are sorted, so in atom order
    groups: dict[Word, list[int]] = {}
    for i, a in enumerate(atoms):
        groups.setdefault(a[0] if pair else a, []).append(i)
    if pair:
        init = [code.encode(a1) * code.stride + code.encode(a2) for a1, a2 in atoms]
    else:
        init = [code.encode(a) for a in atoms]
    keys = np.array(init, dtype=keys_dtype)
    num = np.array(nums, dtype=vals_dtype)
    order = np.argsort(keys)
    support, vals = keys[order], num[order]
    orbits, symmetric = None, False
    if pair:  # a product step is held as its factors from level 1 on
        support = _product_shape(support, code.stride) or support
        symmetric = (isinstance(support, tuple) and len(vals) <= cap
                     and _symmetric(step, n, code, support, vals))

    lost: Weight = Fraction(0) if exact else 0.0

    for level in range(1, n + 1):
        if level > 1:
            if exact and vals.dtype != object and denom**level > _INT64_SAFE:
                # numerators may pass int64 from here
                vals, num = vals.astype(object), num.astype(object)
            if isinstance(support, tuple):
                vals = _ProductStep(
                    code, atoms, groups, num, orbits, symmetric, cap, *support, vals)
                support, orbits = vals.factors, vals.orbits
            else:
                support, vals = _times_step(code, pair, atoms, groups, num, support, vals)
        size = _size(support)
        if size > cap and strict:
            raise TruncationError(
                f"support size {size} exceeds cap {cap} at level {level}",
                level,
                float(lost),
            )
        if not isinstance(vals, np.ndarray) and (level < n or size > cap):
            vals = vals.values()  # only the last uncut level stays a step
        if size > cap:
            keep = _heaviest(vals, cap)
            dropped = vals[~keep].sum()  # in key order
            if exact:
                lost = lost + Fraction(int(dropped), denom**level)
            else:
                lost = lost + float(dropped)
            support, vals = _kept(support, keep, code.stride), vals[keep]
        yield ConvolutionLevel(
            level=level, kind=step.kind, rank=step.rank, step_max_len=step.max_atom_length,
            denominator=denom**level if exact else None, lost_mass=lost,
            _support=support, _vals=vals, _code=code, _orbits=orbits,
        )


# ---------------------------------------------------------------------------
# entropy


def shannon_entropy(m: FiniteMeasure) -> float:
    """Shannon entropy -sum w log w in nats."""
    return math.fsum(-float(w) * math.log(float(w)) for _, w in m.atoms)


# ---------------------------------------------------------------------------
# certified entropy comparison for exact levels


def entropy_mass_spec(source) -> tuple[int, Counter]:
    """(denominator, numerator multiplicities) of an exact measure or level."""
    if not isinstance(source, (ConvolutionLevel, FiniteMeasure)):
        raise InputError(f"cannot extract mass spec from {source!r}")
    if not source.exact:
        raise ValidationError("entropy certification needs exact weights")
    if isinstance(source, FiniteMeasure):
        denom, nums = _step_numerators(source)
        return denom, Counter(nums)
    if source.lost_mass != 0:
        raise ValidationError("entropy certification needs an untruncated level")
    return source.denominator, source.mass_counts()


def _tensor_counts(counts: Counter) -> Counter:
    out: Counter = Counter()
    items = list(counts.items())
    for v1, c1 in items:
        for v2, c2 in items:
            out[v1 * v2] += c1 * c2
    return out


def certified_entropy_compare(
    spec_a: tuple[int, Counter], spec_b: tuple[int, Counter], factor: int = 1
) -> int:
    """Certified sign of H(a) - factor * H(b) for exact mass specs.

    Structural checks settle the exact-equality cases (identical mass
    multisets; or, at factor 2, the multiset of a equal to the tensor
    square of b).  Otherwise the difference is enclosed in 60-digit
    interval arithmetic, and its sign is returned only when the enclosure
    excludes 0; an enclosure holding 0 raises instead of guessing.
    """
    # imported here: nothing else in the package needs it
    from mpmath.ctx_iv import MPIntervalContext

    da, ca = spec_a
    db, cb = spec_b
    if factor == 1 and da == db and ca == cb:
        return 0
    if factor == 2 and da == db * db and ca == _tensor_counts(cb):
        return 0
    iv = MPIntervalContext()  # its own precision: mpmath.iv is shared by every caller
    iv.dps = 60

    def entropy(d, c):
        s = iv.mpf(0)
        for v, cnt in c.items():
            s += iv.mpf(cnt) * v * iv.log(v)
        return iv.log(d) - s / d

    diff = entropy(da, ca) - factor * entropy(db, cb)
    if 0 in diff:
        raise ValidationError(f"entropy comparison not certified: the enclosure {diff} holds 0")
    return 1 if diff > 0 else -1


# ---------------------------------------------------------------------------
# JSON parsing


def _weight_from_json(v) -> Weight:
    if isinstance(v, bool):
        raise InputError(f"weight {v!r} is not numeric")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        return v
    if isinstance(v, str):
        try:
            if "/" in v:
                return Fraction(v)
            if v.lstrip("+-").isdigit():
                return Fraction(int(v))
            return float(v)
        except (ValueError, ZeroDivisionError) as e:
            raise InputError(f"cannot parse weight {v!r}") from e
    raise InputError(f"cannot parse weight {v!r}")


def measure_from_json_dict(d: dict) -> FiniteMeasure:
    if not isinstance(d, dict):
        raise InputError("measure JSON must be an object")
    missing = {"rank", "kind", "atoms"} - set(d)
    if missing:
        raise InputError(f"measure JSON missing fields: {sorted(missing)}")
    unknown = set(d) - {"rank", "kind", "atoms"}
    if unknown:
        raise InputError(f"measure JSON has unknown fields: {sorted(unknown)}")
    kind = d["kind"]
    if kind not in ("single", "pair"):
        raise InputError(f"unknown measure kind {kind!r}")
    if not isinstance(d["atoms"], list) or not d["atoms"]:
        raise InputError("measure JSON needs a non-empty atom list")
    support = []
    for rec in d["atoms"]:
        if not isinstance(rec, dict) or set(rec) != {"word", "weight"}:
            raise InputError(f"malformed atom record {rec!r}")
        support.append((rec["word"], _weight_from_json(rec["weight"])))
    return build_measure(support, rank=d["rank"], kind=kind)
