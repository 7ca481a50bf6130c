"""Classes of the basic representations: the closed splitting formula,
nonvanishing predicates from base-p digit sums, witness monomials with
their degree tables, and carry-free tuple certificates.

The class of an invariant monomial alpha on the rank-n basic
representation is (-1)^(n-1) times the n-fold splitting of alpha with
all terms containing a degree-zero factor removed.  It is nonzero
exactly when one splitting exists whose factors are nonzero, invariant,
and whose polynomial exponents add without base-p carries.

The class is dealt right-nested and depth first (chi_terms): the first
factor runs over the proper splits of alpha, and the right side is dealt
into the factors left.  The coproduct is coassociative, shuffle signs
included, so this splitting equals the left-nested one term for term.
Each monomial's splits are sorted once by their left side's sort key,
and distinct splits have distinct left sides, so the terms come out in
canonical order with no sort.

The splitting walk is pruned by token weight.  A monomial's tokens are
one of weight p^k per exterior generator x_k and, per base-p digit d of
b_k at place t, d of weight p^((k+t) mod r); its token weight W is their
sum.  W is congruent to the weight mod q - 1, so an invariant monomial
of nonzero degree has W >= q - 1.  By Lucas, a nonzero coproduct term
splits every digit without a carry, so W adds exactly over it.  Hence a
monomial with W < (q - 1) s cannot split into s invariant factors of
nonzero degree, and a branch the walk cuts on that bound has no term in
the class: the pruned walk returns the unpruned class term for term.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from functools import lru_cache

from . import Frozen, coalg
from .coalg import base_p_digits
from .mono import (
    Monomial,
    NotInvariant,
    TensorClass,
    check_valid,
    degree,
    format_monomial,
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
        q = f"{p}^{r}" if r > 1 else p  # p ** r in decimal can pass int's str limit
        raise NotInvariant(f"{format_monomial(alpha)} is not invariant for q = {q}")


def chi_basic(p: int, r: int, alpha: Monomial, n: int) -> TensorClass:
    """Value of the alpha-class on the rank-n basic representation, as a
    tensor class keyed by factor tuples in canonical order (chi_terms);
    zero when alpha has degree 0."""
    return TensorClass._of(p, r, n, dict(chi_terms(p, r, alpha, n)))


def chi_terms(p: int, r: int, alpha: Monomial, n: int):
    """The terms (factor tuple, coefficient) of the alpha-class on the
    rank-n basic representation, in canonical order: lexicographic by
    each factor's sort key.  The query is checked at the call, not at
    the first term.

    The right-nested walk of the module docstring, from an explicit
    stack.  A split with a degree-0 side is never dealt: the unit splits
    only as unit (x) unit, so every term it leads to has a degree-0
    factor.  The class is zero at once when W(alpha) < (q - 1) n, and
    with k factors still to deal a split is kept only when
    W(right) >= (q - 1)(k - 1), as the right side must still become
    k - 1 factors.  No two terms merge and none cancels: a coproduct
    lists each split once, with nonzero coefficients mod p."""
    _check_query(p, r, alpha, n)
    return _deal(p, r, alpha, n)


def _deal(p: int, r: int, alpha: Monomial, n: int):
    q1 = p**r - 1
    if degree(alpha, p) == 0 or _token_weight(p, r, alpha) < q1 * n:
        return
    if n == 1:
        yield (alpha,), 1
        return
    tokens = {}  # right side -> W, in this call only
    stack = [((), alpha, n, (-1) ** (n - 1) % p)]  # the sign, carried by every term
    while stack:
        prefix, rem, k, c = stack.pop()
        splits = _proper_splits(p, r, rem)
        if k == 2:  # the right side is the last factor, and meets the floor q - 1
            for left, right, c2 in splits:
                yield prefix + (left, right), c * c2 % p
            continue
        floor = q1 * (k - 1)
        for left, right, c2 in reversed(splits):  # popped smallest first
            w = tokens.get(right)
            if w is None:
                w = tokens[right] = _token_weight(p, r, right)
            if w >= floor:
                stack.append((prefix + (left,), right, k - 1, c * c2 % p))


# shared by every class, whose walks split the same remainders again and
# again; bounded like _splittable
@lru_cache(maxsize=4096)
def _proper_splits(p: int, r: int, m: Monomial) -> tuple:
    """The coproduct terms (left, right, coefficient) of m whose two
    sides both have nonzero degree, that is neither side the unit,
    sorted by the left side's sort key."""
    unit = Monomial.unit(r)
    splits = [(left, right, c) for (left, right), c in coalg.coproduct(p, r, m).items() if unit not in (left, right)]
    return tuple(sorted(splits, key=lambda split: sort_key(split[0], p)))


def _token_weight(p: int, r: int, m: Monomial) -> int:
    """W(m) = sum_k a_k p^k + sum_k sum_t d_{k,t} p^((k+t) mod r), where
    d_{k,t} is the base-p digit of b_k at place t: the splitting walk's
    bound (module docstring).  The splitting search does not read it.

    The places of b_k are taken r at a time: a chunk c of r digits adds
    its digits rotated k places, that is hi + lo for
    (hi, lo) = divmod(c p^k, q), as shifting a base-p number makes no
    carry."""
    q = p**r
    w = 0
    for k, (a, b) in enumerate(zip(m.ext, m.pows)):
        if a:
            w += p**k
        if b:
            shift = p**k
            while b:
                b, chunk = divmod(b, q)
                hi, lo = divmod(chunk * shift, q)
                w += hi + lo
    return w


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
    splittings can never cancel).

    The tokens are counted in one pass, into one counter per weight
    p^j, j < r: slot k's digits, least significant first, go to
    j = k, k + 1, ... mod r.  At q = 2 every token weighs 1 = 0 mod 1,
    and there is one per binary 1 of the exponents."""
    _check_query(p, r, alpha, n)
    if degree(alpha, p) == 0:
        return False
    q1 = p**r - 1
    if q1 == 1:
        return _splittable((0,), (sum(b.bit_count() for b in alpha.pows),), 1, n)
    counts = list(alpha.ext)
    for k, b in enumerate(alpha.pows):
        j = k
        while b:
            b, d = divmod(b, p)
            counts[j] += d
            j = j + 1 if j + 1 < r else 0
    held = [j for j in range(r) if counts[j]]
    return _splittable(tuple(p**j for j in held), tuple(counts[j] for j in held), q1, n)


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
    """Non-decreasing n-tuples of positive multiples of p - 1 whose
    base-p addition is carry-free, with total <= max_total, in (total,
    tuple) order; each annotated with the homology degree 2B (B itself
    for p = 2) where B is the total.  These certify indecomposable
    homology classes.

    By Kummer, parts add carry-free exactly when their base-p digits add
    up, place by place, to the total's digits.  So each total t is dealt
    out digit by digit: a part is a positive sub-digit-vector of what is
    left of t (each digit at most the one left) that is a multiple of
    p - 1, at least the part before it and at most an even share of
    what is left.  A multiple of p - 1 has digit sum a positive multiple
    of p - 1, so a total whose digit sum is below n(p - 1) has no
    tuple and is skipped.  The totals ascend, and each part's options
    ascend, so the tuples come out in (total, tuple) order and need no
    sort.  A remainder's options are listed once per call."""
    if n < 1:
        raise ValueError("n must be >= 1")
    step = p - 1
    floor = n * step
    results = []
    options = {}  # remainder -> its parts, ascending

    def parts_of(rem):
        found = options.get(rem)
        if found is None:
            values, place = [0], 1
            for d in base_p_digits(p, rem):
                values = [v + e * place for e in range(d + 1) for v in values]
                place *= p
            found = options[rem] = values[1:] if p == 2 else [v for v in values[1:] if not v % step]
        return found

    def deal(prefix, low, rem, slots):
        # slots >= 2 parts, each >= low, still to deal from rem
        parts = parts_of(rem)
        start = bisect_left(parts, low)
        if slots == 2:  # the last part is what is left
            for v in itertools.islice(parts, start, None):
                if 2 * v > rem:
                    break
                results.append(((*prefix, v, rem - v), deg))
            return
        for v in itertools.islice(parts, start, None):
            if slots * v > rem:
                break
            deal((*prefix, v), v, rem - v, slots - 1)

    for total in range(floor, max_total + 1, step):
        if (total.bit_count() if p == 2 else digit_sum(p, total)) < floor:
            continue
        deg = total if p == 2 else 2 * total
        if n == 1:
            results.append(((total,), deg))
        else:
            deal((), step, total, n)
    return results

