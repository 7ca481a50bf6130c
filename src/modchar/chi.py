"""Classes of the basic representations: the closed splitting formula,
nonvanishing predicates from base-p digit sums, witness monomials with
their degree tables, and carry-free tuple certificates.

The class of an invariant monomial alpha on the rank-n basic
representation is (-1)^(n-1) times the n-fold splitting of alpha with
all terms containing a degree-zero factor removed.  It is nonzero
exactly when one splitting exists whose factors are nonzero, invariant,
and whose polynomial exponents add without base-p carries.
"""

from __future__ import annotations

from functools import lru_cache

from . import Frozen, coalg
from .coalg import base_p_digits, no_carry
from .mono import (
    Monomial,
    NotInvariant,
    TensorClass,
    check_valid,
    degree,
    is_invariant,
    sort_key,
)

STATUS_NONNILPOTENT = "non-nilpotent"
STATUS_NONZERO = "nonzero"
STATUS_ZERO = "zero"
STATUS_UNDEFINED = "undefined"


def _check_query(p: int, r: int, alpha: Monomial, n: int) -> None:
    """Raise unless (p, r, alpha, n) is a class evaluation request: an
    invariant monomial alpha on the basic representation of rank n over
    GF(p^r)."""
    if n < 1:
        raise ValueError("rank n must be >= 1")
    if alpha.r != r:
        raise NotInvariant(f"alpha has r = {alpha.r}, expected {r}")
    check_valid(alpha, p, r)
    if not is_invariant(alpha, p):
        raise NotInvariant(f"{alpha} is not invariant for q = {p ** r}")


def chi_basic(p: int, r: int, alpha: Monomial, n: int) -> TensorClass:
    """Value of the alpha-class on the rank-n basic representation, as a
    tensor class; zero when alpha has degree 0 (see _split_ids)."""
    _check_query(p, r, alpha, n)
    if degree(alpha, p) == 0:
        return TensorClass.zero(p, r, n)
    monomials, ids = _split_ids(p, r, alpha, n)
    terms = {tuple(monomials[i] for i in tup): c for tup, c in ids.items()}
    return TensorClass._of(p, r, n, terms)


def _split_ids(p: int, r: int, alpha: Monomial, n: int) -> tuple[list, dict]:
    """The class of a valid invariant alpha of nonzero degree at rank n,
    as (monomials, id tuple -> coefficient): each term's factors are the
    ids of its monomials, that is their positions in `monomials`, and its
    coefficient is reduced mod p and nonzero.

    The left-nested n-fold splitting with every degree-0 factor removed,
    times (-1)^(n-1).  A split with a degree-0 side is dropped as soon as
    it appears: the unit splits only as unit (x) unit and right factors
    are never split again, so every term it leads to has a degree-0
    factor.  A monomial's proper splits are computed once per process
    (_proper_splits), then given ids once per call; tuples of ints hash
    fast."""
    index = {alpha: 0}
    splits = {}  # first factor -> [(left, right, coefficient)], as ids
    current = {(0,): (-1) ** (n - 1) % p}  # the sign, carried by every term
    for _ in range(n - 1):
        monomials = list(index)
        nxt = {}
        for tup, c in current.items():
            first, rest = tup[0], tup[1:]
            pairs = splits.get(first)
            if pairs is None:
                pairs = splits[first] = [
                    (index.setdefault(left, len(index)), index.setdefault(right, len(index)), c2)
                    for left, right, c2 in _proper_splits(p, r, monomials[first])
                ]
            for left, right, c2 in pairs:
                key = (left, right) + rest
                nxt[key] = (nxt.get(key, 0) + c * c2) % p
        current = {k: v for k, v in nxt.items() if v}
    return list(index), current


# shared by every chi_basic call, which splits the same first factors
# again and again; bounded like _splittable
@lru_cache(maxsize=4096)
def _proper_splits(p: int, r: int, m: Monomial) -> tuple:
    """The coproduct terms (left, right, coefficient) of m whose two
    sides both have nonzero degree."""
    return tuple(
        (left, right, c)
        for (left, right), c in coalg.coproduct(p, r, m).items()
        if degree(left, p) and degree(right, p)
    )


def digit_sum(p: int, m: int) -> int:
    return sum(base_p_digits(p, m))


def min_m_for_digit_sum(p: int, s: int) -> int:
    """Smallest m whose base-p digits sum to s: d+1 followed by c digits
    p-1, where s = c(p-1) + d with 0 <= d < p-1."""
    if s < 0:
        raise ValueError("digit sum must be >= 0")
    c, d = divmod(s, p - 1)
    return (d + 1) * p**c - 1


def is_chi_nonzero(p: int, r: int, alpha: Monomial, n: int) -> bool:
    """Search for one admissible splitting instead of expanding the whole
    class.

    Splittings correspond to distributions of weight tokens: one token
    of weight p^k per exterior generator x_k, and, per base-p digit of
    b_k at position t, that many tokens of weight p^(k+t mod r).  The
    class is nonzero iff the tokens can be split into n nonempty groups
    whose weights each vanish mod q - 1 (carry-freeness and the
    invariance of every factor are exactly this condition, and distinct
    splittings can never cancel)."""
    _check_query(p, r, alpha, n)
    if degree(alpha, p) == 0:
        return False
    q1 = p**r - 1
    counts: dict[int, int] = {}
    for k, a in enumerate(alpha.ext):
        if a:
            w = p**k % q1 if q1 > 1 else 0
            counts[w] = counts.get(w, 0) + 1
    for k, b in enumerate(alpha.pows):
        for t, dig in enumerate(base_p_digits(p, b)):
            if dig:
                w = p ** ((k + t) % r) % q1 if q1 > 1 else 0
                counts[w] = counts.get(w, 0) + dig
    weights = tuple(sorted(counts))
    start = tuple(counts[w] for w in weights)
    return _splittable(weights, start, q1 if q1 > 1 else 1, n)


# shared by every query, whose searches revisit the same sub-splits; bounded
# so that a long-lived process cannot grow it without limit
@lru_cache(maxsize=4096)
def _splittable(weights, counts, modulus, parts) -> bool:
    total = sum(counts)
    if total < parts:
        return False
    if parts == 1:
        # remaining weight is forced to 0 mod modulus by invariance
        return True
    first = next(i for i, c in enumerate(counts) if c)

    def choose(i, acc_weight, taken):
        if i == len(counts):
            if acc_weight % modulus == 0 and taken[first] >= 1:
                remaining = tuple(c - t for c, t in zip(counts, taken))
                if sum(remaining) >= parts - 1 and _splittable(
                    weights, remaining, modulus, parts - 1
                ):
                    return True
            return False
        for take in range(counts[i] + 1):
            if choose(i + 1, acc_weight + take * weights[i], taken + (take,)):
                return True
        return False

    return choose(0, 0, ())


def r1_predicate(p: int, kind: str, m: int, n: int) -> str:
    """Classify the y^m (kind 'y') or x y^m (kind 'xy') class of the
    rank-n basic representation over the prime field by the digit sum of
    m: undefined when the weight congruence fails, otherwise nonzero
    exactly when the digit sum reaches n blocks of p - 1."""
    if kind not in ("y", "xy"):
        raise ValueError(f"unknown kind {kind!r}")
    if kind == "xy" and p == 2:
        raise ValueError("kind 'xy' requires odd p")
    if m < 0:
        raise ValueError("m must be >= 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    s = digit_sum(p, m)
    if p == 2:
        return STATUS_NONNILPOTENT if s >= n and m >= 1 else STATUS_ZERO
    if kind == "y":
        if s % (p - 1):
            return STATUS_UNDEFINED
        k = s // (p - 1)
        return STATUS_NONNILPOTENT if k >= n and m >= 1 else STATUS_ZERO
    if (s + 1) % (p - 1):
        return STATUS_UNDEFINED
    k = (s + 1) // (p - 1)
    return STATUS_NONZERO if k >= n else STATUS_ZERO


KIND_Y_POWER = "y-power"
KIND_MIXED = "x-y-mixed"


def witness_alpha(p: int, r: int, n: int, kind: str) -> Monomial:
    """The named witness monomials: (y_0 ... y_{r-1})^(p^n - 1), and for
    odd p also x_0 ... x_{r-1} (y_0 ... y_{r-1})^(p^n - p^(n-1) - 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind == KIND_Y_POWER:
        return Monomial((0,) * r, (p**n - 1,) * r)
    if kind == KIND_MIXED:
        if p == 2:
            raise ValueError("mixed witness requires odd p")
        return Monomial((1,) * r, (p**n - p ** (n - 1) - 1,) * r)
    raise ValueError(f"unknown witness kind {kind!r}")


def witness_degree(p: int, r: int, n: int, kind: str) -> int:
    if kind == KIND_Y_POWER:
        return r * (2**n - 1) if p == 2 else 2 * r * (p**n - 1)
    if kind == KIND_MIXED:
        if p == 2:
            raise ValueError("mixed witness requires odd p")
        return r * (2 * p**n - 2 * p ** (n - 1) - 1)
    raise ValueError(f"unknown witness kind {kind!r}")


def witness_splitting(p: int, r: int, n: int, kind: str) -> list[Monomial]:
    """Explicit factors exhibiting a nonzero term for the witness
    monomials: the y-power witness splits its exponent p^n - 1 into the
    digit blocks p^(i-1)(p-1); the mixed witness gives all exterior
    generators to the first factor."""
    if kind == KIND_Y_POWER:
        return [
            Monomial((0,) * r, (p ** (i - 1) * (p - 1),) * r)
            for i in range(1, n + 1)
        ]
    if kind == KIND_MIXED:
        if p == 2:
            raise ValueError("mixed witness requires odd p")
        factors = [Monomial((1,) * r, (p - 2,) * r)]
        for i in range(2, n + 1):
            factors.append(
                Monomial((0,) * r, (p ** (i - 2) * ((p - 2) * p + 1),) * r)
            )
        return factors
    raise ValueError(f"unknown witness kind {kind!r}")


def splitting_is_admissible(
    p: int, r: int, alpha: Monomial, factors: list[Monomial]
) -> bool:
    """Whether the factors form a term of the splitting sum for alpha
    with nonzero coefficient: exponents add up exactly, the polynomial
    additions are carry-free in every slot, and every factor is nonzero
    and invariant."""
    if any(f.r != r for f in factors) or alpha.r != r:
        return False
    for k in range(r):
        if sum(f.ext[k] for f in factors) != alpha.ext[k]:
            return False
        parts = [f.pows[k] for f in factors]
        if sum(parts) != alpha.pows[k]:
            return False
        if not no_carry(p, parts):
            return False
    return all(
        degree(f, p) > 0 and is_invariant(f, p) for f in factors
    )


class DegreeTableRow(Frozen):
    """A nonzero universal class: the alpha-class on the defining
    N-dimensional representation, with its degree and strength.  A row
    is frozen: assigning to a field raises AttributeError."""

    __slots__ = _names = ("N", "alpha", "degree", "status")


def universal_table(
    p: int, r: int, n: int, max_degree: int | None = None
) -> list[DegreeTableRow]:
    """Rows for every dimension N in [2, p^n]: the two witness classes
    (one for p = 2), plus, for r = 1 with a degree bound, every y^d and
    x y^d class passing the digit-sum criterion at rank n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    entries: list[tuple[Monomial, int, str]] = [
        (
            witness_alpha(p, r, n, KIND_Y_POWER),
            witness_degree(p, r, n, KIND_Y_POWER),
            STATUS_NONNILPOTENT,
        )
    ]
    if p != 2:
        entries.append(
            (
                witness_alpha(p, r, n, KIND_MIXED),
                witness_degree(p, r, n, KIND_MIXED),
                STATUS_NONZERO,
            )
        )
    if max_degree is not None and r == 1:
        for d in range(1, max_degree + 1):
            status = r1_predicate(p, "y", d, n)
            if status == STATUS_NONNILPOTENT:
                deg = d if p == 2 else 2 * d
                if deg <= max_degree:
                    entries.append((Monomial((0,), (d,)), deg, status))
            if p != 2:
                status = r1_predicate(p, "xy", d, n)
                if status == STATUS_NONZERO and 2 * d + 1 <= max_degree:
                    entries.append((Monomial((1,), (d,)), 2 * d + 1, status))
    seen = set()
    unique = []
    for alpha, deg, status in entries:
        if alpha not in seen:
            seen.add(alpha)
            unique.append((alpha, deg, status))
    unique.sort(key=lambda row: (row[1], sort_key(row[0], p)))
    rows = []
    for N in range(2, p**n + 1):
        for alpha, deg, status in unique:
            rows.append(DegreeTableRow(N, alpha, deg, status))
    return rows


def indecomposable_tuples(p: int, n: int, max_total: int):
    """Sorted n-tuples of positive multiples of p - 1 whose base-p
    addition is carry-free, with total <= max_total; each annotated with
    the homology degree 2B (B itself for p = 2) where B is the total.
    These certify indecomposable homology classes.

    A multiset adds carry-free exactly when each part adds to the sum of
    the parts before it without a carry, so a prefix is extended only by
    parts that keep it carry-free."""
    if n < 1:
        raise ValueError("n must be >= 1")
    step = p - 1
    results = []

    def extend(prefix, minimum, total):
        if len(prefix) == n:
            results.append((tuple(prefix), total if p == 2 else 2 * total))
            return
        slots_left = n - len(prefix)
        b = minimum
        while total + b * slots_left <= max_total:
            if no_carry(p, (total, b)):
                extend(prefix + [b], b, total + b)
            b += step

    extend([], step, 0)
    results.sort(key=lambda item: (sum(item[0]), item[0]))
    return results


def wedge_split_check(p: int, r: int, alpha: Monomial, a: int, b: int) -> bool:
    """Consistency of splitting a rank-(a+b) basic class through the
    coproduct: chi(alpha, a+b) must equal minus the sum over coproduct
    terms of chi(alpha_1, a) tensor chi(alpha_2, b)."""
    if a < 1 or b < 1:
        raise ValueError("ranks must be >= 1")
    lhs = chi_basic(p, r, alpha, a + b)
    acc = TensorClass.zero(p, r, a + b)
    for left, right, c in _proper_splits(p, r, alpha):
        piece = chi_basic(p, r, left, a).tensor(chi_basic(p, r, right, b))
        acc = acc.add(piece.scale(c))
    return lhs == acc.neg()
