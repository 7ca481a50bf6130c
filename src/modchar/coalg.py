"""Carry-free binomial arithmetic and the coproduct on the invariant basis.

Binomials and multinomials mod p are evaluated digit-wise in base p
(Lucas), so a multinomial coefficient is nonzero exactly when adding the
parts produces no carry.  The coproduct splits a monomial across two
tensor factors with those binomial coefficients, keeps only splittings
whose factors again satisfy the weight-divisibility condition, and signs
exterior splittings by the usual shuffle parity.
"""

from __future__ import annotations

from .mono import Monomial, NotInvariant, is_invariant


def base_p_digits(p: int, m: int) -> list[int]:
    """Digits of m in base p, least significant first ([] for m = 0)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    out = []
    while m:
        m, d = divmod(m, p)
        out.append(d)
    return out


def lucas_binomial(p: int, m: int, k: int) -> int:
    """C(m, k) mod p via digit-wise products; 0 when k > m."""
    if k < 0 or k > m:
        return 0
    result = 1
    while k:
        md, m = m % p, m // p
        kd, k = k % p, k // p
        if kd > md:
            return 0
        num = den = 1
        for i in range(kd):
            num = num * (md - i) % p
            den = den * (i + 1) % p
        result = result * num * pow(den, p - 2, p) % p
    return result


def no_carry(p: int, parts) -> bool:
    """True when every base-p digit column of the parts sums below p,
    equivalently when digit sums add up: s_p(sum) = sum of s_p(part)."""
    parts = [int(x) for x in parts]
    while any(parts):
        if sum(x % p for x in parts) >= p:
            return False
        parts = [x // p for x in parts]
    return True


def multinomial_mod_p(p: int, parts) -> int:
    """(sum parts; parts) mod p; nonzero iff the addition is carry-free."""
    total = 0
    result = 1
    for x in parts:
        total += x
        result = result * lucas_binomial(p, total, x) % p
        if result == 0:
            return 0
    return result


def gaussian_binomial(a: int, b: int, q: int) -> int:
    """Exact q-binomial (a choose b)_q, the point count of the
    Grassmannian of b-planes in q^a space."""
    if b < 0 or b > a:
        return 0
    num = den = 1
    for i in range(1, b + 1):
        num *= q ** (a - i + 1) - 1
        den *= q**i - 1
    if num % den:
        raise ArithmeticError("q-binomial product is not integral")
    return num // den


def shuffle_sign(left_support, right_support) -> int:
    """Parity of the shuffle splitting an ascending product of exterior
    generators into (left, right): -1 per pair i in right, j in left
    with i < j."""
    inversions = sum(1 for i in right_support for j in left_support if i < j)
    return -1 if inversions % 2 else 1


def _subsets(support):
    if not support:
        yield ()
        return
    head, rest = support[0], support[1:]
    for sub in _subsets(rest):
        yield sub
        yield (head,) + sub


def coproduct(p: int, r: int, m: Monomial) -> dict:
    """Sparse map (left, right) -> coefficient for the coproduct of an
    invariant monomial.  Splittings whose left factor fails the
    weight-divisibility condition are discarded; the complementary right
    factor then automatically satisfies it."""
    if m.r != r:
        raise NotInvariant(f"monomial has r = {m.r}, expected {r}")
    if not is_invariant(m, p):
        raise NotInvariant(f"{m} is not in the invariant basis")
    q1 = p**r - 1
    support = tuple(k for k, a in enumerate(m.ext) if a)
    out = {}
    zero_ext = (0,) * r
    for left_supp in _subsets(support):
        left_ext = list(zero_ext)
        for k in left_supp:
            left_ext[k] = 1
        right_ext = tuple(a - la for a, la in zip(m.ext, left_ext))
        right_supp = tuple(k for k, a in enumerate(right_ext) if a)
        sign = shuffle_sign(left_supp, right_supp) if p != 2 else 1
        left_ext = tuple(left_ext)
        ext_weight = sum(p**k for k in left_supp)
        for left_pows, coeff in _pow_splits(p, m.pows):
            lw = ext_weight + sum(p**k * b for k, b in enumerate(left_pows))
            if q1 > 1 and lw % q1:
                continue
            left = Monomial(left_ext, left_pows)
            right = Monomial(
                right_ext, tuple(b - lb for b, lb in zip(m.pows, left_pows))
            )
            out[(left, right)] = sign * coeff % p
    return out


def _pow_splits(p, pows):
    """All coordinate-wise splittings b' <= b with nonzero product of
    binomials C(b_k, b'_k) mod p, yielding (b', coefficient)."""
    splits = [((), 1)]
    for b in pows:
        new = []
        for prefix, c in splits:
            for bp in range(b + 1):
                f = lucas_binomial(p, b, bp)
                if f:
                    new.append((prefix + (bp,), c * f % p))
        splits = new
    return splits


def iterated_coproduct(p: int, r: int, m: Monomial, n: int) -> dict:
    """n-fold splitting map, left-nested: apply the coproduct to the
    first factor repeatedly.  Returns sparse map tuple -> coefficient."""
    if n < 1:
        raise ValueError("arity must be >= 1")
    current = {(m,): 1}
    for _ in range(n - 1):
        nxt = {}
        for tup, c in current.items():
            first, rest = tup[0], tup[1:]
            for (left, right), c2 in coproduct(p, r, first).items():
                key = (left, right) + rest
                val = nxt.get(key, 0) + c * c2
                nxt[key] = val % p
        current = {k: v for k, v in nxt.items() if v}
    return current
