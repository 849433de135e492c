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
1..B-1.  Multiplying by a letter on the right is arithmetic on these
codes, so each level is a few vectorized passes plus one sort/reduce
over the codes of the live atoms; no table of words is built.  The
sort orders equal keys by position, as a stable sort would, so every
sum adds the same terms in the same order.  Where int64 has room, each
key carries its position in its low bits and one in-place sort of the
packed words does it; otherwise a stable argsort runs.

Keys and numerators are int64 while they provably fit (keys below
B**depth, squared for pairs; numerators while D**n <= 2**62) and
Python ints in object arrays otherwise; the dtype follows from the
input, never from an option, and the results are the same either way.

Support caps drop the lowest-mass atoms, ties broken in shortlex order
(pairs: lexicographic in the two coordinates), and track the lost mass
so callers can certify bounds; ``strict=True`` turns truncation into an
error instead.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Union

import numpy as np

from . import rng as rngmod
from .errors import BudgetError, InputError, TruncationError, ValidationError
from .words import Word, WordPair, multiply, pair_length, reduce_word

Weight = Union[Fraction, float]
Atom = Union[Word, WordPair]

WEIGHT_SUM_TOL = 1e-12
DEFAULT_CAP = 1_000_000
_MATERIALIZE_CAP = 3_000_000
_INT64_SAFE = 2**62


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
    mode).  The rank is inferred from the largest letter index unless
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
    if not isinstance(rank, int) or rank < 1:
        raise InputError(f"rank must be a positive integer, got {rank!r}")
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
    if not isinstance(rank, int) or rank < 1:
        raise InputError(f"rank must be a positive integer, got {rank!r}")
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
    """Return m when mu is uniform on m distinct positive single letters.

    This is the regime with closed-form entropy and total variation;
    returns None otherwise.
    """
    if mu.kind != "single":
        return None
    m = mu.support_size
    w0 = mu.atoms[0][1]
    for a, w in mu.atoms:
        if len(a) != 1 or a[0] <= 0 or w != w0:
            return None
    return m


# ---------------------------------------------------------------------------
# sampling


@dataclass(frozen=True)
class PathSample:
    """One sampled trajectory: increments and the walk positions.

    ``positions`` has length n + 1 and starts at the identity.
    """

    increments: tuple[Atom, ...]
    positions: tuple[Atom, ...]
    seed: int
    stream: int

    @property
    def n(self) -> int:
        return len(self.increments)


def sample_path(step: FiniteMeasure, n: int, seed: int, stream: int = 0) -> PathSample:
    """Sample an n-step trajectory of the random walk driven by ``step``.

    Increments are drawn by inverse CDF over the atoms in their stored
    (letter-sequence) order from the Philox stream (seed, stream).
    """
    if not isinstance(n, int) or n < 0:
        raise InputError(f"n must be a nonnegative integer, got {n!r}")
    gen = rngmod.generator(seed, stream)
    idx = rngmod.sample_indices(step._cumulative(), n, gen)
    incs = [step.atoms[i][0] for i in idx]
    if step.kind == "pair":
        pos: list[Atom] = [((), ())]
        for a in incs:
            prev = pos[-1]
            pos.append((multiply(prev[0], a[0]), multiply(prev[1], a[1])))
    else:
        pos = [()]
        for a in incs:
            pos.append(multiply(pos[-1], a))
    return PathSample(tuple(incs), tuple(pos), seed, stream)


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

    def times_words(self, codes: np.ndarray, words: set[Word]) -> dict[Word, np.ndarray]:
        """Codes of u * w for every code of u in ``codes``, for each word w.

        Right-multiplying by letter x drops the last digit when it is
        x's inverse and appends x's digit otherwise.  Words sharing a
        prefix share its letter steps.
        """
        memo: dict[Word, np.ndarray] = {(): codes}
        prefixes = {w[:i] for w in words for i in range(1, len(w) + 1)}
        for w in sorted(prefixes, key=len):  # no recursive closure: no reference cycle
            prev, x = memo[w[:-1]], w[-1]
            grown = prev * self.base + self.digit[x]
            inv = self.digit.get(-x)  # None on a semigroup: nothing cancels
            memo[w] = grown if inv is None else np.where(
                prev % self.base == inv, prev // self.base, grown
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
    (``_WordCode``) beside their values.
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
    _keys: np.ndarray = field(repr=False)
    _vals: np.ndarray = field(repr=False)
    _code: _WordCode = field(repr=False)
    _entropy: float | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def size(self) -> int:
        return len(self._keys)

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
        if self.kind == "pair":
            return [self._keys // self._code.stride, self._keys % self._code.stride]
        return [self._keys]

    def values_at(self, codes: np.ndarray) -> np.ndarray:
        """Stored value of the single-walk atom with each shortlex code, 0 where none.

        ``codes`` number words over this level's letters, such as the
        coordinate codes of a pair level on the same letters.
        """
        pos = np.minimum(np.searchsorted(self._keys, codes), self.size - 1)
        return np.where(self._keys[pos] == codes, self._vals[pos], 0)

    def mass_counts(self) -> Counter:
        """Multiplicity of each distinct stored value (numerator or float)."""
        uniq, cnt = np.unique(self._vals, return_counts=True)
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

        The dropped mass eps, spread over at most (2k)^(level * Lmax)
        atoms per coordinate, contributes at most
        eps * log(atom bound) - eps * log(eps).
        """
        lower = self.entropy_kept()
        eps = float(self.lost_mass)
        if eps <= 0:
            return lower
        coords = 2 if self.kind == "pair" else 1
        log_atoms = coords * self.level * self.step_max_len * math.log(2 * self.rank)
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

    None when ``key << bits | position`` would not fit in int64; keys
    under a bound of 2**63 or more are object arrays, so they never pack.
    """
    bits = (count - 1).bit_length()
    return bits if key_bound << bits < 2**63 else None


def _product_keys(code: _WordCode, pair: bool, atoms: list, keys: np.ndarray) -> np.ndarray:
    """Keys of every state times every atom, one row per atom, flattened.

    The per-word code arrays are freed on return, before the sort.
    """
    out = np.empty((len(atoms), len(keys)), dtype=keys.dtype)
    if pair:
        left = code.times_words(keys // code.stride, {a1 for a1, _ in atoms})
        right = code.times_words(keys % code.stride, {a2 for _, a2 in atoms})
        for row, (a1, a2) in zip(out, atoms):
            np.multiply(left[a1], code.stride, out=row)
            row += right[a2]
    else:
        dest = code.times_words(keys, set(atoms))
        for row, a in zip(out, atoms):
            row[:] = dest[a]
    return out.ravel()


def _times_step(
    code: _WordCode, pair: bool, atoms: list, nums: list, keys: np.ndarray, vals: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Multiply every state by every atom on the right; sort and sum equal keys.

    When ``_position_bits`` allows, each key is packed as ``key << bits
    | position`` and the packed words are sorted in place.  They are
    distinct, so the low bits read back the permutation of a stable
    argsort of the keys (equal keys in position order), and every sum
    adds the same values in the same order.  Otherwise (object keys, or
    int64 keys with no room for the positions) a stable argsort runs.

    A function of its own, so that its temporaries, several times the
    level's size, are freed before the level is handed to the consumer.
    """
    all_k = _product_keys(code, pair, atoms, keys)
    all_v = np.multiply.outer(np.array(nums, dtype=vals.dtype), vals).ravel()
    bits = _position_bits(code.stride ** (2 if pair else 1), len(all_k))
    if bits is None:
        order = np.argsort(all_k, kind="stable")
        all_k = all_k[order]
    else:
        all_k <<= bits
        all_k |= np.arange(len(all_k))
        all_k.sort()
        order = all_k & ((1 << bits) - 1)
        all_k >>= bits
    all_v = all_v[order]
    starts = np.flatnonzero(np.r_[True, all_k[1:] != all_k[:-1]])
    return all_k[starts], np.add.reduceat(all_v, starts)


def iter_convolution_levels(
    step: FiniteMeasure,
    n: int,
    cap: int = DEFAULT_CAP,
    strict: bool = False,
) -> Iterator[ConvolutionLevel]:
    """Stream the convolution powers step, step^2, ..., step^n.

    Each level multiplies every kept state by every atom on the right
    (vectorized on shortlex codes), then sorts and sums equal keys.
    Past ``cap`` atoms the lightest are dropped, ties broken in
    shortlex order; ``strict=True`` raises ``TruncationError`` instead.
    """
    if not isinstance(n, int) or n < 1:
        raise InputError(f"n must be a positive integer, got {n!r}")
    if not isinstance(cap, int) or cap < 1:
        raise InputError(f"cap must be a positive integer, got {cap!r}")

    exact = step.exact
    pair = step.kind == "pair"
    code = _WordCode(step.rank, step.inverse_free, n * step.max_atom_length)
    if exact:
        denom, nums = _step_numerators(step)
        vals_dtype = np.int64 if denom**n <= _INT64_SAFE else object
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
    keys, vals = keys[order], vals[order]

    lost: Weight = Fraction(0) if exact else 0.0

    for level in range(1, n + 1):
        if level > 1:
            keys, vals = _times_step(code, pair, atoms, nums, keys, vals)
        if len(keys) > cap:
            if strict:
                raise TruncationError(
                    f"support size {len(keys)} exceeds cap {cap} at level {level}",
                    level,
                    float(lost),
                )
            order = np.lexsort((keys, -vals))
            keep = np.sort(order[:cap])
            dropped = vals[np.sort(order[cap:])]
            if exact:
                lost = lost + Fraction(int(dropped.sum()), denom**level)
            else:
                lost = lost + float(dropped.sum())
            keys, vals = keys[keep], vals[keep]
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
            _keys=keys,
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
# entropy and moments


def shannon_entropy(m: FiniteMeasure) -> float:
    """Shannon entropy -sum w log w in nats."""
    return math.fsum(-float(w) * math.log(float(w)) for _, w in m.atoms)


def first_moment(m: FiniteMeasure) -> Weight:
    """Expected length of one step: word length, or max length for pairs.

    Exact measures give an exact Fraction.
    """
    if m.kind == "pair":
        terms = [(pair_length(a), w) for a, w in m.atoms]
    else:
        terms = [(len(a), w) for a, w in m.atoms]
    if m.exact:
        return sum((w * l for l, w in terms), Fraction(0))
    return math.fsum(w * l for l, w in terms)


def tv_distance(a: FiniteMeasure, b: FiniteMeasure) -> Weight:
    """Total variation distance between two measures of the same kind."""
    if a.kind != b.kind:
        raise ValidationError("total variation needs measures of one kind")
    keys = set(a._lookup()) | set(b._lookup())
    zero: Weight = Fraction(0) if (a.exact and b.exact) else 0.0
    la, lb = a._lookup(), b._lookup()
    if isinstance(zero, Fraction):
        s = sum((abs(Fraction(la.get(k, 0)) - Fraction(lb.get(k, 0))) for k in keys), Fraction(0))
        return s / 2
    return math.fsum(abs(float(la.get(k, 0.0)) - float(lb.get(k, 0.0))) for k in keys) / 2


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
# JSON serialization


def _weight_to_json(w: Weight) -> str:
    if isinstance(w, Fraction):
        return str(w)
    return repr(w)


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


def measure_to_json_dict(m: FiniteMeasure) -> dict:
    atoms = []
    for a, w in m.atoms:
        if m.kind == "pair":
            word = [list(a[0]), list(a[1])]
        else:
            word = list(a)
        atoms.append({"word": word, "weight": _weight_to_json(w)})
    return {"rank": m.rank, "kind": m.kind, "atoms": atoms}


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


def save_measure(m: FiniteMeasure, path) -> None:
    with open(path, "w") as f:
        json.dump(measure_to_json_dict(m), f, indent=2, sort_keys=True)
        f.write("\n")


def load_measure(path) -> FiniteMeasure:
    with open(path) as f:
        try:
            d = json.load(f)
        except json.JSONDecodeError as e:
            raise InputError(f"invalid measure JSON: {e}") from e
    return measure_from_json_dict(d)
