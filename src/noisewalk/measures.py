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
its form nor the chunk size.

Keys and numerators are int64 while they provably fit (keys below
B**depth, squared for pairs; numerators up to the last level with
D**level <= 2**62) and Python ints in object arrays otherwise; the
dtype follows from the input, never from an option, and the results
are the same either way.

A level's histogram readout (``mass_counts``, behind the entropies and
the certified comparisons) counts the values one block of
``_READ_BLOCK`` at a time and merges the blocks' (value, count) pairs,
so it copies no whole level; the block does not follow ``_CHUNK``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Union

import numpy as np

from .errors import BudgetError, InputError, TruncationError, ValidationError, check_count
from .words import Word, WordPair, pair_length, reduce_word

Weight = Union[Fraction, float]
Atom = Union[Word, WordPair]
# a level's atoms: sorted shortlex keys, or the (heads, tails) factors
Support = Union[np.ndarray, tuple[np.ndarray, np.ndarray]]

WEIGHT_SUM_TOL = 1e-12
DEFAULT_CAP = 1_000_000
_MATERIALIZE_CAP = 3_000_000
_INT64_SAFE = 2**62
# products made, sorted and summed at a time in a convolution level step
_CHUNK = 1 << 18
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

    @property
    def inverse_free(self) -> bool:
        """True when every letter of every atom is positive."""
        for atom, _ in self.atoms:
            words = atom if self.kind == "pair" else (atom,)
            for w in words:
                if any(x < 0 for x in w):
                    return False
        return True

    @property
    def max_atom_length(self) -> int:
        if self.kind == "pair":
            return max(pair_length(a) for a, _ in self.atoms)
        return max(len(a) for a, _ in self.atoms)

    def weight_of(self, atom: Atom) -> Weight:
        return self._lookup().get(atom, Fraction(0) if self.exact else 0.0)

    def support(self) -> list[Atom]:
        return [a for a, _ in self.atoms]

    def total(self) -> Weight:
        if self.exact:
            return sum((w for _, w in self.atoms), Fraction(0))
        return math.fsum(w for _, w in self.atoms)

    def as_float(self) -> "FiniteMeasure":
        if not self.exact:
            return self
        return FiniteMeasure(
            tuple((a, float(w)) for a, w in self.atoms), self.rank, self.kind
        )

    def _lookup(self) -> dict:
        d = getattr(self, "_lookup_cache", None)
        if d is None:
            d = dict(self.atoms)
            object.__setattr__(self, "_lookup_cache", d)
        return d

    def _cumulative(self) -> np.ndarray:
        c = getattr(self, "_cum_cache", None)
        if c is None:
            c = np.cumsum(np.array([float(w) for _, w in self.atoms]))
            object.__setattr__(self, "_cum_cache", c)
        return c


def _normalize_atom(raw, kind: str | None) -> tuple[Atom, str]:
    """Reduce a raw atom and report its kind ("single" or "pair")."""
    if not isinstance(raw, (tuple, list)):
        raise InputError(f"atom {raw!r} is not a sequence")
    seq = tuple(raw)
    looks_pair = len(seq) == 2 and all(isinstance(c, (tuple, list)) for c in seq)
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
        atom, k = _normalize_atom(raw_atom, inferred_kind)
        if inferred_kind is None:
            inferred_kind = k
        elif k != inferred_kind:
            raise ValidationError("mixed single and pair atoms in one support")
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

    words_iter: list[Word] = []
    for a in merged:
        words_iter.extend(a if inferred_kind == "pair" else (a,))
    max_letter = max((abs(x) for w in words_iter for x in w), default=0)
    if rank is None:
        if max_letter == 0:
            raise ValidationError("cannot infer rank from identity-only support")
        rank = max_letter
    check_count("rank", rank)
    if max_letter > rank:
        raise InputError(f"letter index {max_letter} exceeds rank {rank}")

    if any_float:
        total = math.fsum(merged.values())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValidationError(f"weights sum to {total}, not 1")
    else:
        total = sum(merged.values(), Fraction(0))
        if total != 1:
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


def product_measure(mu: FiniteMeasure, nu: FiniteMeasure) -> FiniteMeasure:
    """Independent product mu x nu as a pair measure."""
    if mu.kind != "single" or nu.kind != "single":
        raise ValidationError("product_measure needs two single-coordinate measures")
    rank = max(mu.rank, nu.rank)
    atoms = [((x, y), wx * wy) for x, wx in mu.atoms for y, wy in nu.atoms]
    return build_measure(atoms, rank=rank, kind="pair")


def marginals(pi: FiniteMeasure) -> tuple[FiniteMeasure, FiniteMeasure]:
    """Coordinate marginals of a pair measure."""
    if pi.kind != "pair":
        raise ValidationError("marginals needs a pair measure")
    left: dict[Word, Weight] = {}
    right: dict[Word, Weight] = {}
    for (x, y), w in pi.atoms:
        left[x] = left.get(x, 0) + w
        right[y] = right.get(y, 0) + w
    return (
        build_measure(left.items(), rank=pi.rank, kind="single"),
        build_measure(right.items(), rank=pi.rank, kind="single"),
    )


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
    """

    level: int
    kind: str
    rank: int
    inverse_free: bool
    step_max_len: int
    exact: bool
    denominator: int | None
    truncated: bool
    lost_mass: Weight
    _support: Support = field(repr=False)
    _vals: np.ndarray = field(repr=False)
    _code: _WordCode = field(repr=False)
    _entropy: float | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def size(self) -> int:
        return len(self._vals)

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
        yield from zip(zip(*atoms) if pair else atoms[0], self._vals.tolist())

    @property
    def values(self) -> np.ndarray:
        """Stored values (numerators or floats) in key order."""
        return self._vals

    def coordinate_codes(self) -> list[np.ndarray]:
        """Shortlex code of each coordinate word (one array per coordinate), in key order."""
        if self.factors is not None:
            heads, tails = self.factors
            return [np.repeat(heads, len(tails)), np.tile(tails, len(heads))]
        if self.kind == "pair":
            return [self._support // self._code.stride, self._support % self._code.stride]
        return [self._support]

    def values_at(self, codes: np.ndarray) -> np.ndarray:
        """Stored value of the single-walk atom with each shortlex code, 0 where none.

        ``codes`` number words over this level's letters, such as the
        coordinate codes of a pair level on the same letters.
        """
        keys = self.keys
        pos = np.minimum(np.searchsorted(keys, codes), self.size - 1)
        return np.where(keys[pos] == codes, self._vals[pos], 0)

    def mass_counts(self) -> Counter:
        """Multiplicity of each distinct stored value (numerator or float), in value order.

        The values are counted ``_READ_BLOCK`` at a time and the blocks'
        (value, count) pairs merged by one more ``np.unique``, so no copy
        of the whole level is made.
        """
        vals = self._vals
        blocks = [
            np.unique(vals[i : i + _READ_BLOCK], return_counts=True)
            for i in range(0, max(len(vals), 1), _READ_BLOCK)
        ]
        uniq, cnt = blocks[0]
        if len(blocks) > 1:
            uniq, inv = np.unique(np.concatenate([u for u, _ in blocks]), return_inverse=True)
            cnt = np.zeros(len(uniq), dtype=np.int64)
            np.add.at(cnt, inv, np.concatenate([c for _, c in blocks]))
        return Counter(dict(zip(uniq.tolist(), cnt.tolist())))

    def kept_total(self) -> Weight:
        if self.exact:
            return Fraction(int(self._vals.sum()), self.denominator)
        return math.fsum(self._vals.tolist())

    def entropy_kept(self) -> float:
        """Sum of -w log w over kept atoms, in nats.

        This is a lower bound for the full level entropy; adding the
        dropped-mass bound from ``entropy_upper_bound`` recovers a
        certified bracket.  Computed once per level.
        """
        if self._entropy is not None:
            return self._entropy
        terms = []
        if self.exact:
            d = float(self.denominator)
            logd = math.log(self.denominator)
            for v, cnt in self.mass_counts().items():
                w = v / d
                terms.append(cnt * w * (logd - math.log(v)))
        else:
            for v, cnt in self.mass_counts().items():
                if v > 0:
                    terms.append(-cnt * v * math.log(v))
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
        atoms = []
        for atom, v in self.iter_items():
            w: Weight = Fraction(v, self.denominator) if self.exact else v
            atoms.append((atom, w))
        atoms.sort(key=lambda kv: kv[0])
        return FiniteMeasure(tuple(atoms), self.rank, self.kind)


@dataclass(frozen=True)
class ConvolutionResult:
    """Materialized convolution powers: measures[i] is the (i+1)-fold power."""

    measures: list[FiniteMeasure]
    lost_mass: list[Weight]
    truncated: list[bool]


def _step_numerators(step: FiniteMeasure) -> tuple[int, list[int]]:
    denom = math.lcm(*[w.denominator for _, w in step.atoms])
    nums = [int(w * denom) for _, w in step.atoms]
    return denom, nums


_TRUNC_FLAG_TOL = Fraction(1, 10**9)


def _flag_truncated(lost: Weight) -> bool:
    """Truncation below 1e-9 total mass is reported but not flagged."""
    if isinstance(lost, Fraction):
        return lost >= _TRUNC_FLAG_TOL
    return lost >= 1e-9


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
    """Distinct rows of a bool matrix, lexicographic, and each row's index among them.

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


def _plane_sum(terms: np.ndarray) -> np.ndarray:
    """Sum along axis 0, in place into ``terms[0]``, as ``np.add.reduceat`` adds a segment.

    That is ``a0 + pairwise(a1, ...)``, with numpy's ``pairwise_sum``
    (``_pairwise``): below 8 terms left to right; up to 128 eight lanes,
    each left to right, merged in a tree, then the rest left to right;
    above 128 two halves (the first a multiple of 8 terms), each so.
    """
    if len(terms) > 1:
        terms[0] += _pairwise(terms[1:])
    return terms[0]


def _product_step(
    code: _WordCode, atoms: list, groups: dict[Word, list[int]], num: np.ndarray,
    heads: np.ndarray, tails: np.ndarray, vals: np.ndarray,
) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """``_times_step`` on a level held as factors (every head times one tail set).

    A pattern's target heads go in batches of about ``_CHUNK`` products:
    a batch's runs are transposed tails-major once, each term plane
    (module docstring) is a row gather from them times an atom's
    numerator, each class is one row scatter of its ``_plane_sum``, and
    the sums are transposed into the new level once.  Every first word of
    a product step meets every second word, so the new level is factors.
    """
    words, m, seconds = list(groups), len(tails), sorted({a[1] for a in atoms})
    targets, run = _preimages(code.times_words(heads, words))
    tail_codes, source = _preimages(code.times_words(tails, seconds))
    patterns, pattern_of = _row_patterns(run >= 0)
    classes, class_of = _row_patterns(source >= 0)
    second = np.array([seconds.index(a[1]) for a in atoms])
    # per class: its target tails, and the source tail of each for each second word
    members = (np.flatnonzero(class_of == c) for c in range(len(classes)))
    tables = [(rows, source[rows].T) for rows in members]
    out_v = np.empty((len(targets), len(tail_codes)), dtype=vals.dtype)
    for p, reach in enumerate(patterns):
        gs = np.flatnonzero(reach)
        # the pattern's atoms in atom order, each with the slot s of its group's
        # run; a batch's block holds tail j of slot s's run in row s * m + j
        slot, atom = np.array([(s, i) for s, g in enumerate(gs) for i in groups[words[g]]]).T
        planes = []  # per class: its tails, its planes' block rows and numerators
        for (rows, tail_of), reached in zip(tables, classes):
            used = reached[second[atom]]
            index = slot[used, None] * m + tail_of[second[atom[used]]]
            planes.append((rows, index, num[atom[used]][:, None, None]))
        heads_of = np.flatnonzero(pattern_of == p)
        batch = max(1, _CHUNK // (len(atom) * m))
        for t in np.split(heads_of, range(batch, len(heads_of), batch)):
            block = vals.reshape(len(heads), m)[run[t[:, None], gs]].reshape(len(t), -1).T.copy()
            sums = np.empty((len(tail_codes), len(t)), dtype=vals.dtype)
            for rows, index, factor in planes:
                terms = block[index]
                terms *= factor
                sums[rows] = _plane_sum(terms)
            out_v[t] = sums.T
    return (targets, tail_codes), out_v.reshape(-1)


def _times_step(
    code: _WordCode, pair: bool, atoms: list, nums: list, support: Support, vals: np.ndarray
) -> tuple[Support, np.ndarray]:
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

    ``np.add.reduceat`` adds a key's terms as ``a0 + pairwise(a1, ...)``;
    a level held as factors takes ``_product_step`` instead, which sorts
    no products and adds the same terms in that order (``_plane_sum``).
    """
    # atom indices by first word; the atoms are sorted, so in atom order
    groups: dict[Word, list[int]] = {}
    for i, a in enumerate(atoms):
        groups.setdefault(a[0] if pair else a, []).append(i)
    words = list(groups)
    num = np.array(nums, dtype=vals.dtype)
    if isinstance(support, tuple):
        return _product_step(code, atoms, groups, num, *support, vals)
    keys = support
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
    factors, summed in term planes (``_product_step``), until a cap cuts
    a level; a level's bits depend on neither its form nor ``_CHUNK``.
    Past ``cap`` atoms the lightest are dropped, ties broken in shortlex
    order (pairs: lexicographic in the two coordinates; ``_heaviest``),
    and only the kept atoms' keys are built (``_kept``); the lost mass is
    tracked so callers can certify bounds, or ``strict=True`` raises
    ``TruncationError``.  Exact numerators are int64 up to the last level
    with D**level <= 2**62 and Python ints from the next, whatever ``n`` is.
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
    if pair:
        init = [code.encode(a1) * code.stride + code.encode(a2) for a1, a2 in atoms]
    else:
        init = [code.encode(a) for a in atoms]
    keys = np.array(init, dtype=keys_dtype)
    vals = np.array(nums, dtype=vals_dtype)
    order = np.argsort(keys)
    support, vals = keys[order], vals[order]
    if pair:  # a product step is held as its factors from level 1 on
        support = _product_shape(support, code.stride) or support

    lost: Weight = Fraction(0) if exact else 0.0

    for level in range(1, n + 1):
        if level > 1:
            if exact and vals.dtype != object and denom**level > _INT64_SAFE:
                vals = vals.astype(object)  # numerators may pass int64 from here
            support, vals = _times_step(code, pair, atoms, nums, support, vals)
        if len(vals) > cap:
            if strict:
                raise TruncationError(
                    f"support size {len(vals)} exceeds cap {cap} at level {level}",
                    level,
                    float(lost),
                )
            keep = _heaviest(vals, cap)
            dropped = vals[~keep].sum()  # in key order
            if exact:
                lost = lost + Fraction(int(dropped), denom**level)
            else:
                lost = lost + float(dropped)
            support, vals = _kept(support, keep, code.stride), vals[keep]
        yield ConvolutionLevel(
            level=level,
            kind=step.kind,
            rank=step.rank,
            inverse_free=step.inverse_free,
            step_max_len=step.max_atom_length,
            exact=exact,
            denominator=None if not exact else denom**level,
            truncated=_flag_truncated(lost),
            lost_mass=lost,
            _support=support,
            _vals=vals,
            _code=code,
        )


def convolve_power(
    step: FiniteMeasure,
    n: int,
    cap: int = DEFAULT_CAP,
    strict: bool = False,
) -> ConvolutionResult:
    """Materialize the convolution powers up to n as measures.

    For large pair supports prefer ``iter_convolution_levels`` and work
    with the streamed levels; materializing Fractions is the memory
    bottleneck, not the convolution itself.
    """
    measures, lost, flags = [], [], []
    for lv in iter_convolution_levels(step, n, cap=cap, strict=strict):
        measures.append(lv.to_measure())
        lost.append(lv.lost_mass)
        flags.append(lv.truncated)
    return ConvolutionResult(measures, lost, flags)


# ---------------------------------------------------------------------------
# entropy


def shannon_entropy(m: FiniteMeasure) -> float:
    """Shannon entropy -sum w log w in nats."""
    return math.fsum(-float(w) * math.log(float(w)) for _, w in m.atoms)


# ---------------------------------------------------------------------------
# certified entropy comparison for exact levels


def entropy_mass_spec(source) -> tuple[int, Counter]:
    """(denominator, numerator multiplicities) of an exact measure or level."""
    if isinstance(source, ConvolutionLevel):
        if not source.exact:
            raise ValidationError("entropy certification needs exact weights")
        if source.lost_mass != 0:
            raise ValidationError("entropy certification needs an untruncated level")
        return source.denominator, source.mass_counts()
    if isinstance(source, FiniteMeasure):
        if not source.exact:
            raise ValidationError("entropy certification needs exact weights")
        denom = math.lcm(*[w.denominator for _, w in source.atoms])
        c: Counter = Counter()
        for _, w in source.atoms:
            c[int(w * denom)] += 1
        return denom, c
    raise InputError(f"cannot extract mass spec from {source!r}")


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
    square of b).  Otherwise the difference is evaluated in 60-digit
    arithmetic; any true nonzero gap between entropies of rational
    measures at these denominators dwarfs the 1e-40 certification
    threshold, and a difference below it raises instead of guessing.
    """
    import mpmath  # imported here: nothing else in the package needs it

    da, ca = spec_a
    db, cb = spec_b
    if factor == 1 and da == db and ca == cb:
        return 0
    if factor == 2 and da == db * db and ca == _tensor_counts(cb):
        return 0
    with mpmath.workdps(60):
        def entropy(d, c):
            s = mpmath.mpf(0)
            for v, cnt in c.items():
                s += mpmath.mpf(cnt) * v * mpmath.log(v)
            return mpmath.log(d) - s / d

        diff = entropy(da, ca) - factor * entropy(db, cb)
        if abs(diff) < mpmath.mpf("1e-40"):
            raise ValidationError(
                "entropy comparison not certified: difference below 1e-40"
            )
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
