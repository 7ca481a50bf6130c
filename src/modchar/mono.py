"""Monomials spanning the cohomology of the additive group of GF(p^r),
and the weight-divisibility condition cutting out the invariant basis.

A monomial x^A y^B is stored as the pair (ext, pows): ext lists the
exterior exponents a_k in {0,1} (always all zero for p = 2), pows lists
the polynomial exponents b_k.  Its weight is sum p^k (a_k + b_k); the
monomial belongs to the invariant basis exactly when q - 1 divides the
weight.

The basis is enumerated by a residue walk rather than by filtering all
monomials: over each exterior subset, the y-exponents are chosen slot by
slot while the weight is carried mod q - 1, and the last slot, forced by
the degree, keeps the vector only when the residue closes.  A Monomial
is built only for a hit.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from collections import namedtuple

from . import Record


class ContextMismatch(ValueError):
    """Operands built over different (p, r, n) contexts."""


class NotInvariant(ValueError):
    """Monomial fails the weight-divisibility condition."""


class ParseError(ValueError):
    """Malformed monomial text."""


class Monomial(namedtuple("_Pair", ("ext", "pows"))):
    """The pair (ext, pows) as a tuple, so hashing and equality run in C:
    a Monomial equals its plain (ext, pows) pair and sorts like it."""

    __slots__ = ()

    def __new__(cls, ext: tuple[int, ...], pows: tuple[int, ...]) -> "Monomial":
        if len(ext) != len(pows):
            raise ValueError("ext and pows must have equal length")
        if any(a not in (0, 1) for a in ext):
            raise ValueError("exterior exponents must be 0 or 1")
        if any(b < 0 for b in pows):
            raise ValueError("polynomial exponents must be >= 0")
        return tuple.__new__(cls, (ext, pows))

    @classmethod
    def _of(cls, ext: tuple[int, ...], pows: tuple[int, ...]) -> "Monomial":
        """A monomial built without __new__'s checks, for callers whose
        ext and pows are valid by construction: tuples of equal length,
        ext in {0, 1}, pows >= 0."""
        return tuple.__new__(cls, (ext, pows))

    @property
    def r(self) -> int:
        return len(self.ext)

    @classmethod
    def unit(cls, r: int) -> "Monomial":
        return cls((0,) * r, (0,) * r)

    def to_json(self) -> dict:
        return {"A": list(self.ext), "B": list(self.pows)}


def degree(m: Monomial, p: int) -> int:
    """Cohomological degree: generators x_k sit in degree 1 and y_k in
    degree 2, except that for p = 2 the y_k sit in degree 1."""
    if p == 2:
        return sum(m.pows)
    return sum(m.ext) + 2 * sum(m.pows)


def weight(m: Monomial, p: int) -> int:
    return sum(p**k * (a + b) for k, (a, b) in enumerate(zip(m.ext, m.pows)))


def is_invariant(m: Monomial, p: int, r: int | None = None) -> bool:
    """Whether q - 1 divides the weight (q = p^r); trivially true for q = 2."""
    if r is not None and r != m.r:
        raise ContextMismatch(f"monomial has r = {m.r}, expected {r}")
    q1 = p**m.r - 1
    if q1 == 1:
        return True
    return weight(m, p) % q1 == 0


def check_valid(m: Monomial, p: int, r: int) -> None:
    if m.r != r:
        raise ContextMismatch(f"monomial has r = {m.r}, expected {r}")
    if p == 2 and any(m.ext):
        raise ValueError("p = 2 admits no exterior generators")


def sort_key(m: Monomial, p: int):
    """Canonical total order: degree first, then lexicographic on (A, B)."""
    return (degree(m, p), m.ext, m.pows)


def enumerate_invariant_basis(p: int, r: int, d: int) -> list[Monomial]:
    """All invariant monomials of degree d, in canonical order, by the
    residue walk above: each exterior subset of a size the degree's
    parity allows, then the y-exponents slot by slot (slot k weighs
    p^k).  basis_walk_size counts the vectors it tests."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    q1 = p**r - 1
    w = [pow(p, k, q1) for k in range(r)]
    last = r - 1
    w_last = w[last]
    found = []

    def walk(ext, k, rem, res, prefix):
        if k == last:  # r = 1
            if (res + w_last * rem) % q1 == 0:
                found.append(Monomial(ext, prefix + (rem,)))
            return
        wk = w[k]
        if k + 1 == last:  # b here, the remaining rem - b in the last slot
            res += w_last * rem
            step = wk - w_last
            for b in range(rem + 1):
                if (res + step * b) % q1 == 0:
                    found.append(Monomial(ext, prefix + (b, rem - b)))
            return
        for b in range(rem + 1):
            walk(ext, k + 1, rem - b, res + wk * b, prefix + (b,))

    if p == 2:
        walk((0,) * r, 0, d, 0, ())
    else:
        for size in range(d % 2, min(d, r) + 1, 2):
            for subset in itertools.combinations(range(r), size):
                ext = tuple(int(k in subset) for k in range(r))
                walk(ext, 0, (d - size) // 2, sum(w[k] for k in subset), ())
    found.sort(key=lambda m: sort_key(m, p))
    return found


def basis_walk_size(p: int, r: int, max_degree: int) -> int:
    """How many exponent vectors enumerate_invariant_basis tests over the
    degrees 0..max_degree: the compositions of each y-degree into r
    slots, once per exterior subset.  Over the y-degrees 0..m these
    number C(m + r, r)."""
    if p == 2:
        return math.comb(max_degree + r, r)
    return sum(
        math.comb(r, size) * math.comb((max_degree - size) // 2 + r, r)
        for size in range(min(max_degree, r) + 1)
    )


# -- text grammar ------------------------------------------------------------

_TOKEN = re.compile(r"([xy])(\d*)(?:\^(\d+))?$")


def parse_monomial(text: str, r: int) -> Monomial:
    """Parse the grammar `x0 x1 y0^3 y1^2`; for r = 1 indices may be
    omitted (`x y^4`); the literal `1` is the unit monomial, and empty or
    blank text is a ParseError."""
    text = text.strip()
    if not text:
        raise ParseError("empty monomial (write 1 for the unit)")
    if text == "1":
        return Monomial.unit(r)
    ext = [0] * r
    pows = [0] * r
    for pos, token in enumerate(text.split()):
        match = _TOKEN.match(token)
        if not match:
            raise ParseError(f"bad token {token!r} at position {pos}")
        kind, idx_s, exp_s = match.groups()
        if idx_s == "":
            if r != 1:
                raise ParseError(
                    f"token {token!r} at position {pos} needs an index for r = {r}"
                )
            idx = 0
        else:
            idx = int(idx_s)
        if idx >= r:
            raise ParseError(f"index {idx} out of range for r = {r} (token {token!r})")
        exp = 1 if exp_s is None else int(exp_s)
        if kind == "x":
            if exp != 1 or ext[idx]:
                raise ParseError(f"exterior generator repeated or powered: {token!r}")
            ext[idx] = 1
        else:
            pows[idx] += exp
    return Monomial(tuple(ext), tuple(pows))


def format_monomial(m: Monomial) -> str:
    r = m.r
    parts = []
    for k, a in enumerate(m.ext):
        if a:
            parts.append("x" if r == 1 else f"x{k}")
    for k, b in enumerate(m.pows):
        if b:
            name = "y" if r == 1 else f"y{k}"
            parts.append(name if b == 1 else f"{name}^{b}")
    return " ".join(parts) or "1"


def format_term(text: str, c: int) -> str:
    """A term of a sparse class: its coefficient before its factor text
    when c is not 1, the bare coefficient when there is no text."""
    if not text:
        return str(c)
    return text if c == 1 else f"{c} {text}"


# -- sparse classes ----------------------------------------------------------


class SparseCombination(Record):
    """What every sparse F_p-combination shares: coefficients reduced mod
    p with zero terms dropped, add/sub/neg/scale and the context check.

    A subclass names its context fields, then `terms`, as its `_names`
    and `__slots__`; the constructor takes them in that order (terms may
    be left out for the zero class), reduces the terms and validates the
    keys in `_check_keys`, and `_context` is the context fields.  `_of`
    skips both, for terms already reduced and nonzero with valid keys.
    As a Record, equality means same type, same context and same terms,
    and a combination is mutable, so it has no hash."""

    __slots__ = ()

    def __init__(self, *fields):
        if len(fields) == len(self._names) - 1:
            fields += ({},)
        super().__init__(*fields)
        p = self.p
        self.terms = {key: v for key, c in self.terms.items() if (v := c % p)}
        self._check_keys()

    def _context(self) -> tuple:
        return self._fields(self)[:-1]

    def _like(self, terms: dict):
        p = self.p
        return self._of(*self._context(), {key: v for key, c in terms.items() if (v := c % p)})

    def _check(self, other):
        if type(other) is not type(self) or self._context() != other._context():
            raise ContextMismatch(f"{type(self).__name__} context mismatch")

    def add(self, other):
        self._check(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms.get(key, 0) + c
        return self._like(terms)

    def sub(self, other):
        return self.add(other.neg())

    def neg(self):
        return self.scale(-1)

    def scale(self, c: int):
        return self._like({key: v * c for key, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms


class TensorClass(SparseCombination):
    """Sparse F_p-combination of n-tuples of monomials."""

    __slots__ = _names = ("p", "r", "n", "terms")

    def _check_keys(self):
        for tup in self.terms:
            if len(tup) != self.n:
                raise ContextMismatch(f"tuple arity {len(tup)} != {self.n}")
            for m in tup:
                check_valid(m, self.p, self.r)

    @classmethod
    def zero(cls, p, r, n) -> "TensorClass":
        return cls(p, r, n, {})

    def tensor(self, other: "TensorClass") -> "TensorClass":
        """Juxtaposition product: concatenates factor tuples."""
        if (self.p, self.r) != (other.p, other.r):
            raise ContextMismatch("TensorClass context mismatch")
        terms = {}
        for t1, c1 in self.terms.items():
            for t2, c2 in other.terms.items():
                terms[t1 + t2] = terms.get(t1 + t2, 0) + c1 * c2
        return TensorClass(self.p, self.r, self.n + other.n, terms)

    def coefficient(self, tup) -> int:
        return self.terms.get(tuple(tup), 0)

    def canonical_items(self):
        key = functools.cache(lambda m: sort_key(m, self.p))
        return sorted(self.terms.items(), key=lambda kv: tuple(map(key, kv[0])))
