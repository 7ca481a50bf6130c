"""Independent answers and properties the benchmark checks modchar against.

Nothing here calls modchar.  Every expected value comes from a
different computation than the program's (brute-force enumeration,
dynamic programming over digit tokens, evaluation at random points of a
large field, plain elimination) or from a property the mathematics
fixes (Dickson sparsity, the digit-sum rule, Loewy layer counts).
"""

from __future__ import annotations

import itertools
import math

from gf import SmallField, big_field, kernel, nonzero_vectors, rref, span

SZ_POINTS = 3  # random points per Schwartz-Zippel comparison


class CheckFailure(AssertionError):
    """A program answer disagrees with the independent computation."""


def require(cond, message):
    if not cond:
        raise CheckFailure(message)


def digits(p, m):
    out = []
    while m:
        m, d = divmod(m, p)
        out.append(d)
    return out


def digit_sum(p, m):
    return sum(digits(p, m))


def carry_free(p, parts):
    """Adding the parts in base p makes no carry: digit sums add up."""
    return digit_sum(p, sum(parts)) == sum(digit_sum(p, x) for x in parts)


def degree(p, ext, pows):
    return sum(pows) if p == 2 else sum(ext) + 2 * sum(pows)


def weight(p, ext, pows):
    return sum(p**k * (a + b) for k, (a, b) in enumerate(zip(ext, pows)))


def invariant(p, r, ext, pows):
    q1 = p**r - 1
    return q1 == 1 or weight(p, ext, pows) % q1 == 0


# -- prime-field digit-sum rule -------------------------------------------------


def r1_nonzero(p, a, m, n):
    """The class of x^a y^m (r = 1, invariant) on the rank-n basic
    representation is nonzero exactly when its digit tokens, a + s_p(m)
    of them, fill n groups of p - 1 (one group member each for p = 2)."""
    tokens = a + digit_sum(p, m)
    if tokens == 0:
        return False
    return tokens >= n * (1 if p == 2 else p - 1)


# -- invariant basis --------------------------------------------------------------


def _vectors_with_sum(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _vectors_with_sum(total - first, parts - 1):
            yield (first,) + rest


def basis_brute(p, r, d):
    """Every (ext, pows) of degree d with weight divisible by q - 1."""
    found = set()
    exts = [(0,) * r] if p == 2 else list(itertools.product((0, 1), repeat=r))
    for ext in exts:
        rest = d - sum(ext)
        if p == 2:
            pow_total = d
        elif rest < 0 or rest % 2:
            continue
        else:
            pow_total = rest // 2
        for pows in _vectors_with_sum(pow_total, r):
            if invariant(p, r, ext, pows):
                found.add((ext, pows))
    return found


# -- splittings of a monomial (classes of basic representations) ----------------


def splitting_count(p, r, n, ext, pows):
    """Number of ordered n-tuples of positive-degree invariant monomials
    multiplying to x^ext y^pows with a nonzero multinomial coefficient.

    Dynamic programming over digit tokens: each base-p digit of each
    polynomial exponent is dealt among the n factors (a digit split never
    carries), each exterior generator goes to one factor; the state is
    every factor's weight modulo q - 1 and which factors are nonempty."""
    q1 = p**r - 1
    mod = q1 if q1 > 1 else 1
    states = {((0,) * n, 0): 1}

    def deal(states, amount, w):
        out = {}
        for (weights, mask), count in states.items():
            for parts in _vectors_with_sum(amount, n):
                new_w = tuple((x + c * w) % mod for x, c in zip(weights, parts))
                new_mask = mask
                for j, c in enumerate(parts):
                    if c:
                        new_mask |= 1 << j
                key = (new_w, new_mask)
                out[key] = out.get(key, 0) + count
        return out

    for k, a in enumerate(ext):
        if a:
            states = deal(states, 1, p**k)
    for k, b in enumerate(pows):
        for t, dig in enumerate(digits(p, b)):
            if dig:
                states = deal(states, dig, p ** ((k + t) % r))
    full = (1 << n) - 1
    return states.get(((0,) * n, full), 0)


def _inversions(supports):
    seq = [k for supp in supports for k in supp]
    return sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j])


def expected_coefficient(p, n, factors):
    """(-1)^(n-1) times the shuffle sign times the product over
    coordinates of the multinomial coefficient, reduced mod p."""
    r = len(factors[0][0])
    coeff = 1
    for k in range(r):
        parts = [f[1][k] for f in factors]
        total = 0
        for x in parts:
            total += x
            coeff *= math.comb(total, x)
    sign = (-1) ** (n - 1)
    if p != 2:
        supports = [[k for k, a in enumerate(f[0]) if a] for f in factors]
        sign *= (-1) ** _inversions(supports)
    return sign * coeff % p


def check_class_terms(p, r, n, ext, pows, terms):
    """terms: list of (factors, coeff), factors a tuple of (ext, pows)."""
    for factors, c in terms:
        require(len(factors) == n, f"term arity {len(factors)} != {n}")
        for k in range(r):
            require(sum(f[0][k] for f in factors) == ext[k], "exterior exponents do not add up")
            require(sum(f[1][k] for f in factors) == pows[k], "polynomial exponents do not add up")
        for f in factors:
            require(degree(p, *f) > 0, "factor of degree 0")
            require(invariant(p, r, *f), "factor not invariant")
        require(c % p == expected_coefficient(p, n, factors), f"coefficient {c} of {factors} is wrong")
    expected = splitting_count(p, r, n, ext, pows)
    require(len(terms) == expected, f"{len(terms)} terms, expected {expected}")


# -- Schwartz-Zippel ----------------------------------------------------------------


def sz_power_sum(p, n, k, terms, rng, sign=1):
    """Check sum(terms) == sign * sum_{v != 0} (v . z)^k at random z."""
    field = big_field(p)
    vectors = nonzero_vectors(p, n)
    for _ in range(SZ_POINTS):
        z = field.random_point(rng, n)
        rhs = field.power_sum(field.form_values(vectors, z), k)
        if sign == -1:
            rhs = field.neg(rhs)
        lhs = field.eval_terms(terms, z)
        require(lhs == rhs, f"power sum p={p} n={n} k={k} differs at a random point")


def dickson_values(p, n, rng):
    """A random point z and e_0..e_N of {v . z : v != 0} there."""
    field = big_field(p)
    z = field.random_point(rng, n)
    values = field.form_values(nonzero_vectors(p, n), z)
    return field, z, values, field.elementary(values)


def check_dickson_components(p, n, components, rng):
    """components: degree -> list of (exponents, coeff), the degree-d
    part of prod (1 + v . z).  Nonzero only in degrees p^n - p^i (and
    0), and equal to e_d at random points."""
    allowed = {p**n - p**i for i in range(n + 1)} | {0}
    require(set(components) <= allowed, f"Dickson class nonzero in degrees {sorted(set(components) - allowed)}")
    for _ in range(SZ_POINTS):
        field, z, _, e = dickson_values(p, n, rng)
        for d in range(len(e)):
            got = field.eval_terms(components.get(d, ()), z)
            require(got == e[d], f"Dickson component of degree {d} differs at a random point (p={p}, n={n})")


def check_product_sign(p, n, i, sign, rng):
    """chi_{y^k} = sign * D_{p^n-1} D_{p^n-p^i} at k = 2p^n - p^i - 1,
    with chi_{y^k} = -sum (v . z)^k."""
    k = 2 * p**n - p**i - 1
    for _ in range(SZ_POINTS):
        field, z, values, e = dickson_values(p, n, rng)
        lhs = field.neg(field.power_sum(values, k))
        rhs = field.mul(e[p**n - 1], e[p**n - p**i])
        if sign == -1:
            rhs = field.neg(rhs)
        require(lhs == rhs, f"product identity sign {sign} wrong at p={p}, n={n}, i={i}")


def nonzero_degrees(p, n):
    """k <= 2(p^n - 1) with nonzero y^k class: exactly 2p^n - p^i - 1."""
    return sorted({2 * p**n - p**i - 1 for i in range(n + 1)})


# -- tuple certificates -------------------------------------------------------------


def tuples_brute(p, n, max_total):
    step = p - 1
    values = list(range(step, max_total + 1, step))
    out = []

    def rec(prefix, start, remaining):
        if len(prefix) == n:
            if carry_free(p, prefix):
                total = sum(prefix)
                out.append((tuple(prefix), total if p == 2 else 2 * total))
            return
        for idx in range(start, len(values)):
            v = values[idx]
            if v * (n - len(prefix)) > remaining:
                break
            rec(prefix + [v], idx, remaining - v)

    rec([], 0, max_total)
    out.sort(key=lambda item: (sum(item[0]), item[0]))
    return out


# -- universal tables -----------------------------------------------------------------


def table_entries(p, r, n, max_degree):
    """(ext, pows, degree, status) of every class the table must list."""
    ys = (0,) * r, (p**n - 1,) * r
    entries = {(ys[0], ys[1], degree(p, *ys), "non-nilpotent")}
    if p != 2:
        mixed = (1,) * r, (p**n - p ** (n - 1) - 1,) * r
        entries.add((mixed[0], mixed[1], degree(p, *mixed), "nonzero"))
    if max_degree is not None and r == 1:
        for d in range(1, max_degree + 1):
            for a in ((0,) if p == 2 else (0, 1)):
                if not invariant(p, 1, (a,), (d,)) or not r1_nonzero(p, a, d, n):
                    continue
                deg = degree(p, (a,), (d,))
                if deg <= max_degree:
                    entries.add(((a,), (d,), deg, "nonzero" if a else "non-nilpotent"))
    return entries


# -- representations ------------------------------------------------------------------


def loewy_dims(p, n):
    """Cumulative Hilbert function of F_p[x_1..x_n]/(x_i^p)."""
    h = [0] * (n * (p - 1) + 1)
    for e in itertools.product(range(p), repeat=n):
        h[sum(e)] += 1
    return list(itertools.accumulate(h))


def rep_field(rep_dict) -> SmallField:
    return SmallField(rep_dict["p"], rep_dict["modulus"])


def rep_matrices(field, rep_dict):
    return [[[field.encode(e) for e in row] for row in g] for g in rep_dict["generators"]]


def socle_stages(field, gens, dim):
    """Bases of J_0 < J_1 < ... = V, J_i = {v : (g - 1) v in J_(i-1)}."""
    diffs = []
    for g in gens:
        d = [list(row) for row in g]
        for i in range(dim):
            d[i][i] = field.add[d[i][i]][field.neg[1]]
        diffs.append(d)
    stages = []
    prev = []
    while True:
        # functionals vanishing exactly on span(prev); all of them at first
        ann = kernel(field, prev, dim)
        rows = []
        for d in diffs:
            for f in ann:
                rows.append([_dot(field, f, [d[i][j] for i in range(dim)]) for j in range(dim)])
        cur = kernel(field, rows, dim)
        require(len(cur) > len(prev), "socle series stalls: action not unipotent")
        stages.append(cur)
        if len(cur) == dim:
            return stages, diffs
        prev = cur


def _dot(field, a, b):
    add, mul = field.add, field.mul
    acc = 0
    for x, y in zip(a, b):
        if x and y:
            acc = add[acc][mul[x][y]]
    return acc


def _apply(field, mat, v):
    return [_dot(field, row, v) for row in mat]


def trivial_subgroup(field, diffs, j1):
    """Exponent vectors e over F_p with sum e_i (g_i - 1) = 0 on J_1
    (products of two differences vanish there)."""
    s = len(diffs)
    prime = SmallField(field.p, (0, 1))
    columns = []
    for d in diffs:
        col = []
        for v in j1:
            for x in _apply(field, d, v):
                col.extend(field.coords(x))
        columns.append(col)
    nrows = len(columns[0]) if columns else 0
    rows = [[columns[i][t] for i in range(s)] for t in range(nrows)]
    return kernel(prime, rows, s)


def check_rep_answer(rep_dict, answer, rng, expect_dims=None):
    """answer: socle_dims, verdict, quotient_rank, projection, chi (k ->
    terms).  Everything is recomputed by elimination over the rep's
    field; chi classes by evaluation at random points."""
    field = rep_field(rep_dict)
    dim = rep_dict["dim"]
    gens = rep_matrices(field, rep_dict)
    stages, diffs = socle_stages(field, gens, dim)
    dims = [len(s) for s in stages]
    require(answer["socle_dims"] == dims, f"socle dims {answer['socle_dims']} != {dims}")
    if expect_dims is not None:
        require(dims == expect_dims, f"socle dims {dims} != Loewy layer counts {expect_dims}")
    if dim < 2 or dims[0] != 1:
        require(answer["verdict"] == "zero", f"verdict {answer['verdict']}, expected zero")
        for k, terms in answer["chi"].items():
            require(not terms, f"chi y^{k} of a zero-verdict rep is nonzero")
        return
    require(answer["verdict"] == "reduced", f"verdict {answer['verdict']}, expected reduced")
    j1 = stages[1] if len(stages) > 1 else stages[0]
    kern = trivial_subgroup(field, diffs, j1)
    s = len(gens)
    m = s - len(kern)
    require(answer["quotient_rank"] == m, f"quotient rank {answer['quotient_rank']} != {m}")
    p = field.p
    prime = SmallField(p, (0, 1))
    if answer.get("projection") is not None:
        proj = [list(row) for row in answer["projection"]]
        require(len(proj) == m and all(len(row) == s for row in proj), "projection has the wrong shape")
        if m:
            require(len(rref(prime, proj)[1]) == m, "projection is not onto")
        for e in kern:
            require(all(sum(a * b for a, b in zip(row, e)) % p == 0 for row in proj), "projection does not kill the trivial subgroup")
    if answer["chi"]:
        # the class pulls back along any projection with kernel kern; the
        # power sum over its row space is the sum over kern's annihilator
        big = big_field(p)
        ann = kernel(prime, kern, s)
        forms = [u for u in span(p, ann) if any(u)]
        for k, terms in answer["chi"].items():
            for _ in range(SZ_POINTS):
                w = big.random_point(rng, s)
                rhs = big.neg(big.power_sum(big.form_values(forms, w), int(k)))
                require(big.eval_terms(terms, w) == rhs, f"chi y^{k} of the rep differs at a random point")
