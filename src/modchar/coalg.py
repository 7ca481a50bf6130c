"""Carry-free binomial arithmetic and the coproduct on the invariant basis.

Binomials and multinomials mod p are evaluated digit-wise in base p
(Lucas), so a multinomial coefficient is nonzero exactly when adding the
parts produces no carry.  The coproduct splits a monomial across two
tensor factors with those binomial coefficients and signs exterior
splittings by the usual shuffle parity.  It builds only the splittings
whose factors again satisfy the weight-divisibility condition: a walk
over the base-p digits of the exponents, each digit of the left factor
at most the digit of the monomial, carries the weight mod q - 1 and
solves the last digit from it.
"""

from __future__ import annotations

import operator
from functools import lru_cache

from .mono import Monomial, NotInvariant, format_monomial, is_invariant


def base_p_digits(p: int, m: int) -> list[int]:
    """Digits of m in base p, least significant first ([] for m = 0)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    out = []
    while m:
        m, d = divmod(m, p)
        out.append(d)
    return out


# shared by Lucas, the multinomials and the coproduct's solved last digit;
# one entry per (p, d, e), never a table sized by p, as p can be ~10^6
@lru_cache(maxsize=4096)
def _digit_binomial(p: int, d: int, e: int) -> int:
    """C(d, e) mod p for base-p digits 0 <= e <= d < p; never 0."""
    e = min(e, d - e)
    num = den = 1
    for i in range(e):
        num = num * (d - i) % p
        den = den * (i + 1) % p
    return num * pow(den, -1, p) % p


def _digit_binomials(p: int, d: int):
    """C(d, e) mod p for e = 0, ..., d, a base-p digit d < p."""
    row = [1]
    for e in range(d):
        row.append(row[-1] * (d - e) * pow(e + 1, -1, p) % p)
    return row


def lucas_binomial(p: int, m: int, k: int) -> int:
    """C(m, k) mod p via digit-wise products; 0 when k > m."""
    if k < 0 or k > m:
        return 0
    if p == 2:  # every binary digit binomial is C(0, 0), C(1, 0) or C(1, 1) = 1
        return 0 if k & ~m else 1
    result = 1
    while k:
        md, kd = m % p, k % p
        if kd > md:
            return 0
        if kd and kd != md:  # C(d, 0) = C(d, d) = 1
            result = result * _digit_binomial(p, md, kd) % p
        m //= p
        k //= p
    return result


def no_carry(p: int, parts) -> bool:
    """True when every base-p digit column of the parts sums below p,
    equivalently when digit sums add up: s_p(sum) = sum of s_p(part)."""
    # the parts are carry-free exactly when adding each to the running total is
    total = 0
    for b in parts:
        a = total
        total += b
        if p == 2:  # a binary column carries exactly where both have a 1
            if a & b:
                return False
            continue
        while a and b:
            a, da = divmod(a, p)
            b, db = divmod(b, p)
            if da + db >= p:
                return False
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
    invariant monomial.  Only invariant left factors are built (see
    `_left_pows`); the complementary right factor then automatically
    satisfies the weight-divisibility condition too.  Terms come in the
    order of the exterior subsets, then of the left exponents: slot by
    slot, each ascending."""
    if m.r != r:
        raise NotInvariant(f"monomial has r = {m.r}, expected {r}")
    if not is_invariant(m, p):
        raise NotInvariant(f"{format_monomial(m)} is not in the invariant basis")
    left_pows_for = _left_pows(p, r, m.pows)
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
        for left_pows, coeff in left_pows_for(sum(p**k for k in left_supp)):
            # valid by construction: sub-supports of m.ext, exponents at most m.pows
            left = Monomial._of(left_ext, left_pows)
            right = Monomial._of(right_ext, tuple(map(operator.sub, m.pows, left_pows)))
            out[(left, right)] = sign * coeff % p
    return out


def _left_pows(p: int, r: int, pows):
    """The digit walk: a function taking the weight w0 of the left
    exterior part and returning every (b', prod_k C(b_k, b'_k) mod p)
    with that product nonzero and w0 + weight(b') = 0 mod q - 1.

    By Lucas the product is nonzero exactly when each base-p digit e of
    b'_k is at most the digit d of b_k, and it is then the product of
    the digit binomials C(d, e).  A digit e at place t of slot k adds
    e p^(k+t) to the weight, and p^(k+t) = p^((k+t) mod r) mod q - 1.
    Every nonzero digit of b except the last (the least significant one
    of the last nonzero slot) is enumerated once, slot by slot and most
    significant first, carrying the coefficient and the weight; the last
    digit is then solved from e = -acc / p^((k+t) mod r) mod q - 1,
    stepping by q - 1 up to d.  So only invariant left factors are ever
    built, in ascending order of b' slot by slot.

    A slot's options are read from `_slot_options`, which lists them
    once per process and not once per monomial: the last slot's are
    those of its exponent with the last digit taken out.  That memo is
    an lru_cache bounded to 4,096 (p, r, k, b) entries, so a long-lived
    process cannot grow it without limit."""
    q1 = p**r - 1
    nonzero = [k for k, b in enumerate(pows) if b]
    if not nonzero:
        return lambda w0: [] if w0 % q1 else [(tuple(pows), 1)]
    last_k = nonzero[-1]
    tail = (0,) * (r - 1 - last_k)
    heads = [((), 1, 0)]  # (b' on the slots before last_k, coefficient, weight)
    for k in range(last_k):
        heads = [
            (head + (v,), c * c2 % p, w + w2)
            for head, c, w in heads
            for v, c2, w2 in _slot_options(p, r, k, pows[k])
        ]
    b, last_t = pows[last_k], 0
    while not b % p:
        b //= p
        last_t += 1
    last_d, place = b % p, p**last_t
    options = _slot_options(p, r, last_k, pows[last_k] - last_d * place)
    inverse = pow(p, -(last_k + last_t), q1)

    def solve(w0):
        out = []
        for head, c, w in heads:
            for v, c2, w2 in options:
                for e in range(-(w0 + w + w2) * inverse % q1, last_d + 1, q1):
                    out.append(
                        ((*head, v + e * place, *tail), c * c2 * _digit_binomial(p, last_d, e) % p)
                    )
        return out

    return solve


# shared by every coproduct, whose monomials repeat slot exponents again
# and again; bounded like _digit_binomial, an entry per (p, r, k, b)
@lru_cache(maxsize=4096)
def _slot_options(p: int, r: int, k: int, b: int) -> tuple:
    """Every (b'_k, prod C(d, e) mod p, e p^((k+t) mod r) summed) over
    the b'_k whose base-p digits e are each at most b_k's digit d at the
    same place t, b'_k ascending."""
    options = [(0, 1, 0)]
    for t, d in reversed(list(enumerate(base_p_digits(p, b)))):
        if d:
            place, wt, row = p**t, p ** ((k + t) % r), _digit_binomials(p, d)
            options = [
                (v + e * place, c * row[e] % p, w + e * wt)
                for v, c, w in options
                for e in range(d + 1)
            ]
    return tuple(options)


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
