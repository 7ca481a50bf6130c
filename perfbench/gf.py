"""Finite-field arithmetic of the benchmark's own, kept apart from modchar.

Two tools live here:

* `BigField`: GF(p^m) with q = p^m around 2^14, held as Zech logarithms.
  It is large enough for Schwartz-Zippel checks: two different
  polynomials of degree d agree at a uniform random point with
  probability at most d/q, so a few random points catch a wrong
  coefficient with near certainty.
* `SmallField` plus `rref`/`kernel`: GF(p^r) for the fields the program's
  representations use, as integers in [0, q) with multiplication and
  inverse tables, and Gaussian elimination on those integers.
"""

from __future__ import annotations

import itertools
import random
from array import array

# field degree per characteristic: q between 15625 and 19683
_BIG_DEGREE = {2: 14, 3: 9, 5: 6, 7: 5}
_BIG_CACHE: dict = {}


def _digits_to_int(digits, p):
    out = 0
    for d in reversed(digits):
        out = out * p + d
    return out


def _int_to_digits(a, p, m):
    out = []
    for _ in range(m):
        a, d = divmod(a, p)
        out.append(d)
    return out


def _polymulmod(a, b, p, m, low):
    """a * b in F_p[x] / (x^m - low(x)), digit lists of length m."""
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    for e in range(2 * m - 2, m - 1, -1):
        c = prod[e] % p
        if c:
            for i in range(m):
                prod[e - m + i] += c * low[i]
    return [c % p for c in prod[:m]]


def _x_power(e, p, m, low):
    result = [1] + [0] * (m - 1)
    base = [0, 1] + [0] * (m - 2)
    while e:
        if e & 1:
            result = _polymulmod(result, base, p, m, low)
        base = _polymulmod(base, base, p, m, low)
        e >>= 1
    return result


def _prime_factors(n):
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


class BigField:
    """GF(p^m) in the log domain: an element is its discrete logarithm
    to a primitive element, or -1 for zero."""

    def __init__(self, p: int):
        self.p = p
        self.m = m = _BIG_DEGREE[p]
        self.q = q = p**m
        self.order = n = q - 1
        # x^m = low(x) for a modulus drawn until x has order q - 1; about
        # one modulus in 2m qualifies, so a fixed draw order ends quickly
        one = [1] + [0] * (m - 1)
        draw = random.Random(p)
        while True:
            low = [draw.randrange(1, p)] + [draw.randrange(p) for _ in range(m - 1)]
            if _x_power(n, p, m, low) == one and all(
                _x_power(n // f, p, m, low) != one for f in _prime_factors(n)
            ):
                break
        exp = array("l", [0]) * n
        digits = one
        for i in range(n):
            exp[i] = _digits_to_int(digits, p)
            top = digits[-1]
            digits = [0] + digits[:-1]
            if top:
                digits = [(d + top * c) % p for d, c in zip(digits, low)]
        log = array("l", [-1]) * q
        for i, v in enumerate(exp):
            log[v] = i
        zech = array("l", [-1]) * n
        for i, v in enumerate(exp):
            d0 = v % p
            one_plus = v - d0 + (d0 + 1) % p
            zech[i] = log[one_plus] if one_plus else -1
        self.log_of_int = log  # additive encoding -> log
        self.zech = zech
        self.minus_one = log[p - 1]

    def scalar(self, c: int) -> int:
        """The prime-field integer c as a field element (log form)."""
        return self.log_of_int[c % self.p]

    def add(self, a: int, b: int) -> int:
        if a < 0:
            return b
        if b < 0:
            return a
        z = self.zech[(b - a) % self.order]
        return -1 if z < 0 else (a + z) % self.order

    def mul(self, a: int, b: int) -> int:
        if a < 0 or b < 0:
            return -1
        return (a + b) % self.order

    def pow(self, a: int, k: int) -> int:
        if k == 0:
            return 0
        return -1 if a < 0 else a * k % self.order

    def neg(self, a: int) -> int:
        return self.mul(a, self.minus_one)

    def random_point(self, rng, n: int) -> list[int]:
        return [rng.randrange(self.order) for _ in range(n)]

    def eval_terms(self, terms, point) -> int:
        """Value of sum c * prod z_i^e_i over {exponents: c} at point
        (every coordinate nonzero)."""
        order, zech = self.order, self.zech
        acc = -1
        for exps, c in terms:
            c %= self.p
            if not c:
                continue
            t = self.log_of_int[c]
            for e, z in zip(exps, point):
                t += e * z
            t %= order
            if acc < 0:
                acc = t
            else:
                z = zech[(t - acc) % order]
                acc = -1 if z < 0 else (acc + z) % order
        return acc

    def form_values(self, vectors, point) -> list[int]:
        """v . z for each integer vector v over F_p."""
        out = []
        for v in vectors:
            acc = -1
            for c, z in zip(v, point):
                if c % self.p:
                    acc = self.add(acc, self.mul(self.scalar(c), z))
            out.append(acc)
        return out

    def power_sum(self, values, k: int) -> int:
        acc = -1
        for v in values:
            acc = self.add(acc, self.pow(v, k))
        return acc

    def elementary(self, values) -> list[int]:
        """e_0 .. e_N of the values (coefficients of prod (1 + v t))."""
        e = [0]  # e_0 = 1, log 0
        for v in values:
            e.append(-1)
            for d in range(len(e) - 1, 0, -1):
                e[d] = self.add(e[d], self.mul(v, e[d - 1]))
        return e


def big_field(p: int) -> BigField:
    field = _BIG_CACHE.get(p)
    if field is None:
        field = _BIG_CACHE[p] = BigField(p)
    return field


def nonzero_vectors(p: int, n: int):
    return [v for v in itertools.product(range(p), repeat=n) if any(v)]


def span(p: int, rows):
    """Every F_p-combination of the integer rows, without repeats."""
    out = set()
    n = len(rows[0]) if rows else 0
    for coeffs in itertools.product(range(p), repeat=len(rows)):
        out.add(tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) % p for j in range(n)))
    return out


# -- small fields and elimination ---------------------------------------------


class SmallField:
    """GF(p^r) for a monic modulus (coefficients constant first), elements
    as integers sum c_i p^i in [0, q)."""

    def __init__(self, p: int, modulus):
        r = len(modulus) - 1
        self.p, self.r, self.q = p, r, p**r
        q = self.q
        low = [(-c) % p for c in modulus[:r]]

        def mul_poly(a, b):
            da, db = _int_to_digits(a, p, r), _int_to_digits(b, p, r)
            prod = [0] * (2 * r)
            for i, x in enumerate(da):
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
            for e in range(2 * r - 1, r - 1, -1):
                c = prod[e]
                if c:
                    prod[e] = 0
                    for i in range(r):
                        prod[e - r + i] = (prod[e - r + i] + c * low[i]) % p
            return _digits_to_int(prod[:r], p)

        self.mul = [[mul_poly(a, b) for b in range(q)] for a in range(q)]
        self.add = [
            [_digits_to_int([(x + y) % p for x, y in zip(_int_to_digits(a, p, r), _int_to_digits(b, p, r))], p) for b in range(q)]
            for a in range(q)
        ]
        self.neg = [
            _digits_to_int([(-x) % p for x in _int_to_digits(a, p, r)], p) for a in range(q)
        ]
        self.inv = [0] * q
        for a in range(1, q):
            self.inv[a] = next(b for b in range(1, q) if self.mul[a][b] == 1)

    def encode(self, entry) -> int:
        """A rep-file entry: an int (prime field) or a coefficient list."""
        if isinstance(entry, int):
            return entry % self.p
        return _digits_to_int([int(c) % self.p for c in entry], self.p)

    def coords(self, a: int) -> list[int]:
        return _int_to_digits(a, self.p, self.r)


def rref(field: SmallField, rows):
    """Reduced row echelon form of integer-encoded rows; returns the
    nonzero rows and their pivot columns."""
    rows = [list(r) for r in rows]
    add, mul, neg, inv = field.add, field.mul, field.neg, field.inv
    ncols = len(rows[0]) if rows else 0
    pivots = []
    i = 0
    for j in range(ncols):
        k = next((k for k in range(i, len(rows)) if rows[k][j]), None)
        if k is None:
            continue
        rows[i], rows[k] = rows[k], rows[i]
        f = inv[rows[i][j]]
        rows[i] = [mul[f][x] for x in rows[i]]
        for k2 in range(len(rows)):
            c = rows[k2][j]
            if k2 != i and c:
                mc = neg[c]
                rows[k2] = [add[x][mul[mc][y]] for x, y in zip(rows[k2], rows[i])]
        pivots.append(j)
        i += 1
        if i == len(rows):
            break
    return rows[: len(pivots)], pivots


def kernel(field: SmallField, rows, ncols: int):
    """Basis of {v : M v = 0} for the matrix with the given rows (the
    standard basis when there are no rows)."""
    red, pivots = rref(field, rows) if rows else ([], [])
    free = [j for j in range(ncols) if j not in set(pivots)]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for row, c in zip(red, pivots):
            v[c] = field.neg[row[f]]
        basis.append(v)
    return basis
