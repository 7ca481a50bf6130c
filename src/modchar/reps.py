"""Matrix representations of elementary abelian p-groups over GF(p^r):
constructions, the socle filtration, and the reduction of class
computations to a basic representation.

The filtration is computed by quotient iteration.  Every stage, J_0
included, is the kernel of one stacked matrix [R D_1; ...; R D_s], with
D_g = g - 1 the generator differences and R the membership matrix of the
previous stage (the identity before J_0); over GF(2) the stack stays in
ff's packed rows.  socle_filtration_by_annihilators is an independent
second route kept as a reference, on ff's int-list rows for every field:
verify's filtration suite and the tests compare it with the first,
production calls do not.

One walker, _stages(rep, count), computes every socle stage, and keeps
the stages in the rep's memo, next to classify's Reduction, so each is
computed at most once per rep.  socle_filtration reads all the stages,
classify only J_0 and J_1, and a later call continues from where an
earlier one stopped.  A stall raises before anything is kept, so every
walk of a stalling rep raises.  The memo is not a field: equality,
hashing and repr ignore it.  validate is not memoised; it runs the rank
of a generator only when its order check fails.

classify reads only J_0 and J_1.  Classes vanish unless J_0 is a line,
with canonical vector w0 and pivot c0.  Then each D_l is w0 (x) phi_l on
J_1, where phi_l(b) = (row c0 of D_l) . b is the pairing of the group
against J_1 / J_0.  The subgroup acting trivially on J_1 is the F_p-kernel
of that pairing, the quotient group acts faithfully there, and the
pairing rows at its generators decide the basic model (_basic_rule).  No
restricted rep and no conjugation is built; iso_to_basic constructs and
checks the explicit conjugation, and runs in verify's filtration suite
and the tests.

The abstract group is always F_p^s on the listed generators, even over
an extension field; redundant generators are allowed and absorbed by the
kernel of the pairing.
"""

from __future__ import annotations

import itertools
import math

from . import Frozen, ff
from .ff import FieldCtx, MatrixFF, Subspace


# Largest dim a representation file may declare, checked before any matrix
# is built: without it a 60-byte file with a huge dim and no generators
# builds a dim x dim identity.  On packed GF(2) rows, rep-analyze of a
# regular_rep(2, 8) file (dim 256) takes 0.27-0.28 s wall in three runs, and
# of that file with its generators listed 4 times (32) 0.82-0.86 s.  The
# same work in-process (parse, the checking constructor, socle_filtration
# and classify) takes 0.95-0.98 s on regular_rep(2, 9) (dim 512) and
# 4.6-4.8 s on regular_rep(2, 10) (dim 1024), half of it parsing (2-vCPU
# host, Python 3.11.7).  The bound rises only with a measured end-to-end
# rep-analyze of a regular_rep(2, 10) file in about 5 s.
MAX_REP_DIM = 256


class RepValidationError(ValueError):
    """A matrix family violating the elementary abelian contract."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ReductionError(ValueError):
    """Preconditions of a basic-model reduction fail."""


class Rep(Frozen):
    """dim-dimensional representation of F_p^s given by s commuting
    invertible matrices of order p over the field of ctx.  Every Rep
    satisfies that contract: the constructor raises RepValidationError
    with validate's report otherwise.

    The fields ctx, dim and generators are frozen: assigning to one
    raises AttributeError.  Equality, hashing and repr read only them,
    never the socle memo in the _memo slot."""

    _names = ("ctx", "dim", "generators")
    __slots__ = _names + ("_memo", "__weakref__")

    def __init__(self, ctx: FieldCtx, dim: int, generators: tuple):
        for g in generators:
            if g.ctx != ctx:
                raise ff.DimensionError("generator over a different field")
            if g.nrows != dim or g.ncols != dim:
                raise ff.DimensionError("generator shape != dim x dim")
        super().__init__(ctx, dim, generators)
        object.__setattr__(self, "_memo", None)
        violations = validate(self)
        if violations:
            raise RepValidationError(violations)

    @classmethod
    def _of(cls, ctx: FieldCtx, dim: int, generators: tuple) -> "Rep":
        """A rep built without __init__'s checks, for the library
        constructions: each is valid when its inputs are valid reps."""
        rep = super()._of(ctx, dim, generators)
        object.__setattr__(rep, "_memo", None)
        return rep

    def __reduce__(self):  # copy and pickle the fields, not the memo
        return (Rep._of, self._fields(self))

    @property
    def rank(self) -> int:
        """Rank s of the acting elementary abelian group."""
        return len(self.generators)

    def element(self, exponents) -> MatrixFF:
        """Matrix of the group element with the given exponent vector."""
        if len(exponents) != self.rank:
            raise ff.DimensionError("exponent vector length != generator count")
        out = None
        for g, e in zip(self.generators, exponents):
            e %= self.ctx.p
            if e:
                out = g.pow_int(e) if out is None else out.mul(g.pow_int(e))
        return MatrixFF.identity(self.ctx, self.dim) if out is None else out


class PointedRep(Frozen):
    """Representation with a chosen nonzero fixed vector; frozen, like
    Rep."""

    __slots__ = _names = ("rep", "basepoint")

    def __init__(self, rep: Rep, basepoint: tuple):
        if len(basepoint) != rep.dim:
            raise ff.DimensionError("basepoint length != dim")
        if not any(basepoint):
            raise RepValidationError(["basepoint is zero"])
        for i, g in enumerate(rep.generators):
            if g.matvec(basepoint) != basepoint:
                raise RepValidationError([f"generator {i} moves the basepoint"])
        super().__init__(rep, basepoint)


def validate(rep: Rep) -> list[str]:
    """Violation report; empty when the rep satisfies the contract."""
    out = []
    p = rep.ctx.p
    ident = MatrixFF.identity(rep.ctx, rep.dim)
    for i, g in enumerate(rep.generators):
        if g.pow_int(p) == ident:
            continue  # g^p = 1 makes g invertible, so no rank is needed
        if g.rank() != rep.dim:
            out.append(f"generator {i} is singular")
        else:
            out.append(f"generator {i} does not have order dividing {p}")
    for i, j in itertools.combinations(range(rep.rank), 2):
        gi, gj = rep.generators[i], rep.generators[j]
        if gi.mul(gj) != gj.mul(gi):
            out.append(f"generators {i} and {j} do not commute")
    return out


def _stages(rep: Rep, count: int | None = None) -> list[Subspace]:
    """The first count stages of J_0 < J_1 < ... up to the full space (all
    of them when count is None), by quotient iteration: J_i is the kernel
    of the stacked matrix [R D_1; ...; R D_s], where D_g = g - 1 and R is
    the membership matrix of J_{i-1} (the identity for J_0), i.e. the
    vectors every generator difference sends into the previous stage.

    The stages live in the rep's memo, so each is computed once per rep
    and a later call continues where an earlier one stopped.  A stall
    raises AssertionError before the stage is kept."""
    if rep._memo is None:
        object.__setattr__(rep, "_memo", {"stages": []})
    stages = rep._memo["stages"]
    ctx, n, diffs = rep.ctx, rep.dim, None
    while (count is None or len(stages) < count) and not (stages and stages[-1].dim == n):
        if diffs is None:
            ident = MatrixFF.identity(ctx, n)
            diffs = [g.sub(ident) for g in rep.generators]
        if stages:
            member = stages[-1].membership_matrix()
            stacked = [member.mul(d) for d in diffs]
        else:
            stacked = diffs
        stage = ff.kernel(ff.stack(stacked)) if stacked else Subspace.full(ctx, n)
        if stages and stage.dim <= stages[-1].dim:
            raise AssertionError("socle filtration stalled (is the action unipotent?)")
        stages.append(stage)
    return stages[:count]


def socle_filtration(rep: Rep) -> list[Subspace]:
    """Ascending chain J_0 < J_1 < ... ending at the full space, J_i
    the vectors killed by the (i+1)-st power of the augmentation ideal,
    each stage the kernel of one stacked matrix (see _stages), computed
    once per rep; every call returns a new list.
    socle_filtration_by_annihilators is the independent second route;
    verify's filtration suite and the tests compare the two."""
    return _stages(rep)


# Kept only for the benchmark's span reps.socle_quot (perfbench/spans.py).
socle_filtration_by_quotients = socle_filtration


def socle_filtration_by_annihilators(rep: Rep) -> list[Subspace]:
    """J_0 < J_1 < ... by the direct definition: J_i is the kernel of
    every (i+1)-fold product of generator differences D_g = g - 1.  The
    differences commute, so the rows of those products span W_(i+1) =
    sum over g of W_i D_g, with W_0 every row; each level keeps an
    echelon basis of W_(i+1) and takes its kernel.  It shares nothing
    with socle_filtration: no memo, no membership matrix, no subspace of
    V carried between stages, and it multiplies and reduces on ff's
    int-list rows for every field, so over GF(2) the two routes share no
    row code either."""
    ctx, n = rep.ctx, rep.dim
    diffs = []  # D_g in _sparse form, as right factors
    for g in rep.generators:
        rows = [list(row) for row in g.rows]
        for i, row in enumerate(rows):
            row[i] = ctx.sub(row[i], 1)
        diffs.append([ff._sparse(ctx, row) for row in rows])
    span = [[int(i == j) for j in range(n)] for i in range(n)]
    stages = []
    while True:
        products = [list(row) for d in diffs for row in ff._product(ctx, span, d, n)]
        span = [row for row, _ in ff._echelon(ctx, products, n).values()]
        stages.append(Subspace(ctx, n, ff._null_basis(ctx, span, n)))
        if not span:
            return stages
        if len(stages) > n:
            raise AssertionError("socle filtration stalled (is the action unipotent?)")


def restrict(rep: Rep, space: Subspace) -> Rep:
    """Induced action on an invariant subspace, in its echelon basis."""
    pivots = space.pivot_columns()
    gens = []
    for idx, g in enumerate(rep.generators):
        images = [g.matvec(v) for v in space.basis]
        if not all(map(space.contains, images)):
            raise ff.DimensionError(f"subspace not invariant under generator {idx}")
        # coordinates in the echelon basis read off at the pivot columns
        gens.append(MatrixFF(rep.ctx, [[w[c] for w in images] for c in pivots]))
    return Rep._of(rep.ctx, space.dim, tuple(gens))


def quotient(rep: Rep, space: Subspace) -> Rep:
    """Induced action on the quotient, in the coset basis of the
    standard vectors at non-pivot coordinates."""
    ctx = rep.ctx
    ident = MatrixFF.identity(ctx, rep.dim)
    for idx, g in enumerate(rep.generators):
        for v in space.basis:
            if not space.contains(g.matvec(v)):
                raise ff.DimensionError(f"subspace not invariant under generator {idx}")
    coset = _coset(space)
    gens = []
    for g in rep.generators:
        images = [space.reduce(g.matvec(ident.rows[j])) for j in coset]
        gens.append(MatrixFF(ctx, [[w[c] for w in images] for c in coset]))
    return Rep._of(ctx, len(coset), tuple(gens))


def quotient_vector(space: Subspace, v) -> tuple:
    """Coordinates of v + space in the coset basis used by quotient()."""
    w = space.reduce(v)
    return tuple(w[c] for c in _coset(space))


def _coset(space: Subspace) -> list[int]:
    """Non-pivot coordinates of space; their standard vectors give the
    coset basis of the quotient by space."""
    pivots = set(space.pivot_columns())
    return [j for j in range(space.ambient_dim) if j not in pivots]


# -- constructions -----------------------------------------------------------


def basic_rep(p: int, r: int, n: int, modulus=None) -> PointedRep:
    """The (n+1)-dimensional representation of GF(p^r)^n where the group
    vector adds its pairing against the tail coordinates into the head;
    emitted with r*n generators indexed by the field basis t^j in each of
    the n slots, so the abstract group is F_p^(r n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _basic_on(FieldCtx(p, r, modulus), n)


def _basic_on(ctx: FieldCtx, n: int) -> PointedRep:
    """basic_rep over a field already built, so its modulus is not checked
    again (the basic models of classify and iso_to_basic)."""
    r = ctx.r
    gens = []
    for i in range(1, n + 1):
        for j in range(r):
            rows = [list(row) for row in MatrixFF.identity(ctx, n + 1).rows]
            rows[0][i] = ctx.pow(ctx.gen(), j) if r > 1 else 1
            gens.append(MatrixFF(ctx, rows))
    basepoint = (1,) + (0,) * n
    return PointedRep(Rep._of(ctx, n + 1, tuple(gens)), basepoint)


def sym_power_rep(p: int, r: int, modulus=None) -> Rep:
    """(p-1)-st symmetric power of the standard 2-dimensional unipotent
    action of GF(p^r): on the basis e1^(p-1-j) e2^j the field element a
    maps column j to sum_l C(j, l) a^(j-l) at row l."""
    ctx = FieldCtx(p, r, modulus)
    gens = []
    for jj in range(r):
        a = ctx.pow(ctx.gen(), jj) if r > 1 else 1
        a_pows = [1]
        for _ in range(p - 1):
            a_pows.append(ctx.mul(a_pows[-1], a))
        rows = []
        for l in range(p):
            row = []
            for j in range(p):
                if l > j:
                    row.append(0)
                else:
                    row.append(ctx.smul(math.comb(j, l), a_pows[j - l]))
            rows.append(row)
        gens.append(MatrixFF(ctx, rows))
    return Rep._of(ctx, p, tuple(gens))


def tensor_rep(r1: Rep, r2: Rep) -> Rep:
    """External tensor product: generator lists concatenate with
    Kronecker factors against identities."""
    if r1.ctx != r2.ctx:
        raise ff.DimensionError("field context mismatch")
    ctx = r1.ctx
    id1 = MatrixFF.identity(ctx, r1.dim)
    id2 = MatrixFF.identity(ctx, r2.dim)
    gens = [g.kron(id2) for g in r1.generators]
    gens += [id1.kron(h) for h in r2.generators]
    return Rep._of(ctx, r1.dim * r2.dim, tuple(gens))


def big_rep(p: int, r: int, n: int, modulus=None) -> Rep:
    """n-fold external tensor power of the symmetric-power block: a
    p^n-dimensional representation whose second socle stage carries the
    rank-n basic representation."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = sym_power_rep(p, r, modulus)
    for _ in range(n - 1):
        out = tensor_rep(out, sym_power_rep(p, r, modulus))
    return out


def direct_sum(r1: Rep, r2: Rep) -> Rep:
    """External direct sum: block-diagonal generators, concatenated."""
    if r1.ctx != r2.ctx:
        raise ff.DimensionError("field context mismatch")
    ctx = r1.ctx
    id1 = MatrixFF.identity(ctx, r1.dim)
    id2 = MatrixFF.identity(ctx, r2.dim)
    gens = [g.block_diag(id2) for g in r1.generators]
    gens += [id1.block_diag(h) for h in r2.generators]
    return Rep._of(ctx, r1.dim + r2.dim, tuple(gens))


def wedge_sum(p1: PointedRep, p2: PointedRep) -> PointedRep:
    """Quotient of the direct sum identifying the two basepoints; the
    common image becomes the new basepoint."""
    total = direct_sum(p1.rep, p2.rep)  # checks the contexts agree
    ctx = total.ctx
    glue_vec = tuple(p1.basepoint) + tuple(ctx.neg(e) for e in p2.basepoint)
    glue = Subspace.from_vectors(ctx, total.dim, [glue_vec])
    quo = quotient(total, glue)
    base = quotient_vector(glue, tuple(p1.basepoint) + (0,) * p2.rep.dim)
    return PointedRep(quo, base)


def dual_rep(rep: Rep) -> Rep:
    """Inverse-transpose on every generator."""
    return Rep._of(rep.ctx, rep.dim, tuple(g.inverse().transpose() for g in rep.generators))


def regular_rep(p: int, n: int) -> Rep:
    """Translation action of F_p^n on itself by permutation matrices
    (prime field only)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ctx = FieldCtx(p, 1)
    vectors = list(itertools.product(range(p), repeat=n))
    index = {v: i for i, v in enumerate(vectors)}
    gens = []
    for i in range(n):
        rows = [[0] * len(vectors) for _ in vectors]
        for v, col in index.items():
            shifted = tuple(
                (c + (1 if j == i else 0)) % p for j, c in enumerate(v)
            )
            rows[index[shifted]][col] = 1
        gens.append(MatrixFF(ctx, rows))
    return Rep._of(ctx, len(vectors), tuple(gens))


def pullback(rep: Rep, exponent_matrix) -> Rep:
    """Precompose with the homomorphism F_p^s' -> F_p^s whose matrix has
    the given integer columns: new generator l is the element with
    exponent vector column l."""
    cols = len(exponent_matrix[0]) if exponent_matrix else 0
    gens = []
    for l in range(cols):
        gens.append(rep.element([row[l] for row in exponent_matrix]))
    return Rep._of(rep.ctx, rep.dim, tuple(gens))


# -- classification ----------------------------------------------------------


class Reduction(Frozen):
    """Outcome of reducing a representation's classes to a basic model;
    frozen, like Rep.

    verdict 'zero' means every class vanishes (fixed space too large);
    'reduced' carries the quotient rank m, the projection F_p^s -> F_p^m
    (rows of integer residues), and, when available, the rank-m basic
    representation the classes pull back from."""

    __slots__ = _names = ("verdict", "quotient_rank", "projection", "basic_model")

    def __init__(
        self,
        verdict: str,
        quotient_rank: int | None = None,
        projection: tuple | None = None,
        basic_model: PointedRep | None = None,
    ):
        super().__init__(verdict, quotient_rank, projection, basic_model)


def _pairing(rep: Rep, j0: Subspace, j1: Subspace) -> list[list]:
    """Pairing of the generators against J_1 / J_0, for J_0 a line with
    canonical vector w0 and pivot c0.  Every D_l = g_l - 1 sends J_1 into
    J_0, so on J_1 it is w0 (x) phi_l with phi_l(b) = (row c0 of D_l) . b.
    Row l lists phi_l on the basis vectors of J_1 other than the one with
    pivot c0, which form a basis of J_1 / J_0."""
    ctx = rep.ctx
    c0 = j0.pivot_columns()[0]
    complement = MatrixFF(ctx, [b for b, c in zip(j1.basis, j1.pivot_columns()) if c != c0])
    rows = []
    for g in rep.generators:
        d = list(g.rows[c0])
        d[c0] = ctx.sub(d[c0], 1)
        rows.append(list(complement.matvec(d)))
    return rows


def _basic_rule(ctx: FieldCtx, rows, n: int) -> MatrixFF:
    """Rule deciding whether the pairing rows of a faithful action, each
    over a basis of J_1 / J_0 of dimension n, are those of the rank-n
    basic representation; returns the matrix of the slots' first rows.

    There must be r n rows, and over extension fields they must scale by
    t^j along each slot's block of r generators; otherwise ReductionError.
    The slots' first rows then have rank n, so that is not checked: J_0 is
    a line, so no b in J_1 outside J_0 pairs to zero with every generator,
    and the F_q-span of the pairing is all of (J_1 / J_0)^*; the rows of
    dropped generators are F_p-combinations of the rows kept, and rows
    aligned by t^j share the F_q-span of the slots' first rows."""
    r = ctx.r
    if len(rows) != r * n:
        raise ReductionError(f"group rank {len(rows)} != r * (dim - 1) = {r * n}")
    base = [rows[i * r] for i in range(n)]
    for i in range(n):
        for j in range(1, r):
            tj = ctx.pow(ctx.gen(), j)
            if rows[i * r + j] != [ctx.mul(tj, e) for e in base[i]]:
                raise ReductionError(
                    "generators are not aligned with the field structure "
                    f"(slot {i}, power {j})"
                )
    return MatrixFF(ctx, base)


def classify(rep: Rep) -> Reduction:
    """Reduction of a valid rep read off its first two socle stages;
    nothing later is computed.  Computed once per rep and kept in its
    memo.

    Zero verdict when dim < 2 or J_0 is not a line.  Otherwise the pairing
    phi_l(b) = (row c0 of D_l) . b of the generators against J_1 / J_0
    decides everything: D_g D_h vanishes on J_1, so the element with
    exponents e acts there as 1 + sum e_l D_l, and the subgroup acting
    trivially on J_1 is the F_p-kernel of the pairing's coefficients.  The
    projection maps F_p^s onto the quotient by that kernel, in the coset
    basis of quotient_vector; the quotient group acts faithfully on J_1,
    and the basic model is the rank-n basic rep (n = dim J_1 - 1) when its
    generators' pairing rows pass _basic_rule, else None."""
    memo = rep._memo
    if memo is not None and "reduction" in memo:
        return memo["reduction"]
    if _stages(rep, 1)[0].dim != 1 or rep.dim < 2:
        red = Reduction("zero")
    else:
        j0, j1 = _stages(rep, 2)
        ctx, s, n = rep.ctx, rep.rank, j1.dim - 1
        pairing = _pairing(rep, j0, j1)
        # one F_p row per complement vector and coefficient of t^k
        coeff_rows = [row for col in zip(*pairing) for row in zip(*map(ctx.to_coeffs, col))]
        kernel_group = ff.kernel(MatrixFF(FieldCtx(ctx.p, 1), coeff_rows))
        coset = _coset(kernel_group)
        units = ([int(t == j) for t in range(s)] for j in range(s))
        projection = tuple(zip(*(quotient_vector(kernel_group, e) for e in units)))
        try:
            _basic_rule(ctx, [pairing[c] for c in coset], n)
            model = _basic_on(ctx, n)
        except ReductionError:
            model = None
        red = Reduction("reduced", len(coset), projection, model)
    rep._memo["reduction"] = red  # _stages made the memo
    return red


def iso_to_basic(rep: Rep) -> MatrixFF:
    """Change of basis T with T g T^-1 the basic-representation matrix of
    every generator, for a faithful rep killed by squared augmentation
    with a one-dimensional fixed space.

    The pairing must pass _basic_rule, the rule classify also uses; this
    function additionally builds T and checks the conjugation generator
    by generator.  Production calls do not run it: verify's filtration
    suite and the tests do."""
    ctx = rep.ctx
    if rep.dim < 2:
        raise ReductionError("basic models need dimension >= 2")
    stages = socle_filtration(rep)
    problems = []
    if stages[0].dim != 1:
        problems.append(f"fixed space has dimension {stages[0].dim}, need 1")
    if len(stages) > 2:
        problems.append("second socle stage is a proper subspace")
    if problems:
        raise ReductionError("; ".join(problems))
    j0 = stages[0]
    n = rep.dim - 1
    pairing_matrix = _basic_rule(ctx, _pairing(rep, j0, stages[1]), n)
    w0 = j0.basis[0]
    coords = [j for j in range(rep.dim) if j != j0.pivot_columns()[0]]
    # build T = V U^-1 with U the (fixed, complement) basis and V mapping
    # it onto the basic layout
    u_cols = [list(w0)] + [[int(t == c) for t in range(rep.dim)] for c in coords]
    u_matrix = MatrixFF(ctx, list(zip(*u_cols)))
    v_rows = [[0] * rep.dim for _ in range(rep.dim)]
    v_rows[0][0] = 1
    for i in range(n):
        for c_idx in range(n):
            v_rows[1 + i][1 + c_idx] = pairing_matrix.rows[i][c_idx]
    v_matrix = MatrixFF(ctx, v_rows)
    t_matrix = v_matrix.mul(u_matrix.inverse())
    target = _basic_on(ctx, n)
    t_inv = t_matrix.inverse()
    for g, b in zip(rep.generators, target.rep.generators):
        if t_matrix.mul(g).mul(t_inv) != b:
            raise ReductionError("conjugation does not reach the basic matrices")
    return t_matrix


def chi_of_rep(rep: Rep, k: int) -> "MultiPoly":
    """The y^k class of an arbitrary prime-field rep, as a polynomial in
    one variable per generator, from the rep's memoised classify result:
    zero verdict gives 0, otherwise the basic answer for the quotient
    rank (dickson.chi_y_power, the splitting formula) pulled back along
    the projection."""
    from .dickson import MultiPoly, chi_y_power  # only --chi needs it

    if rep.ctx.r != 1:
        raise ValueError("polynomial classes of arbitrary reps need r = 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    red = classify(rep)
    p = rep.ctx.p
    if red.verdict == "zero":
        return MultiPoly.zero(p, rep.rank)
    base = chi_y_power(p, red.quotient_rank, k)
    return base.substitute([list(row) for row in red.projection], rep.rank)


def socle_tensor_check(r1: Rep, r2: Rep, i: int) -> bool:
    """Stage i of the tensor product's socle filtration must equal the
    sum of J_a tensor J_b over a + b = i."""
    product = tensor_rep(r1, r2)
    stages = socle_filtration(product)
    lhs = stages[min(i, len(stages) - 1)]
    f1 = socle_filtration(r1)
    f2 = socle_filtration(r2)
    ctx = product.ctx
    rhs = Subspace.zero_space(ctx, product.dim)
    for a in range(i + 1):
        b = i - a
        s1 = f1[min(a, len(f1) - 1)]
        s2 = f2[min(b, len(f2) - 1)]
        vecs = []
        for u in s1.basis:
            for v in s2.basis:
                vecs.append(tuple(ctx.mul(x, y) for x in u for y in v))
        rhs = rhs.sum(Subspace.from_vectors(ctx, product.dim, vecs))
    return lhs == rhs


# -- serialization -----------------------------------------------------------


def _entry_to_json(ctx: FieldCtx, e):
    return e if ctx.r == 1 else ctx.to_coeffs(e)


def rep_to_dict(rep: Rep, basepoint=None) -> dict:
    ctx = rep.ctx
    out = {
        "p": ctx.p,
        "r": ctx.r,
        "modulus": list(ctx.modulus),
        "dim": rep.dim,
        "generators": [
            [[_entry_to_json(ctx, e) for e in row] for row in g.rows]
            for g in rep.generators
        ],
    }
    if basepoint is not None:
        out["basepoint"] = [_entry_to_json(ctx, e) for e in basepoint]
    return out


def rep_from_dict(obj: dict) -> tuple[Rep, tuple | None]:
    """Parse the JSON representation file shape; returns the rep and the
    optional basepoint.  Raises ValueError with field context on bad
    input: the file must be a JSON object; p, r, dim and every entry
    must be JSON integers (booleans are not), matrices, rows and
    coefficient lists JSON arrays, 1 <= dim <= MAX_REP_DIM, and a
    basepoint nonzero.  The Rep constructor then validates the
    generators, once: RepValidationError lists every violation."""
    if not isinstance(obj, dict):
        raise ValueError("representation file must be a JSON object")
    try:
        p, r, dim = obj["p"], obj.get("r", 1), obj["dim"]
        gen_entries = obj["generators"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"representation file missing or bad field: {exc}") from exc
    for key, value in (("p", p), ("r", r), ("dim", dim)):
        if not ff.is_int(value):
            raise ValueError(f"representation file bad field: {key} = {value!r} is not an integer")
    if dim < 1:
        raise ValueError(f"dim = {dim} must be >= 1")
    if dim > MAX_REP_DIM:
        raise ValueError(
            f"dim = {dim} exceeds the representation bound dim <= MAX_REP_DIM = {MAX_REP_DIM}"
        )
    modulus = obj.get("modulus")
    if modulus is not None and not (isinstance(modulus, list) and all(map(ff.is_int, modulus))):
        raise ValueError("modulus must be a list of integer coefficients")
    if not isinstance(gen_entries, list):
        raise ValueError("generators must be a list of matrices")
    ctx = FieldCtx(p, r, tuple(modulus) if modulus is not None else None)
    gens = []
    for gi, mat in enumerate(gen_entries):
        try:
            gen = MatrixFF.from_ints(ctx, mat)
        except (ff.FieldError, ff.DimensionError, TypeError) as exc:
            raise ValueError(f"generator {gi}: {exc}") from exc
        if (gen.nrows, gen.ncols) != (dim, dim):
            raise ValueError(f"generator {gi} is not {dim}x{dim}")
        gens.append(gen)
    rep = Rep(ctx, dim, tuple(gens))
    basepoint = None
    if "basepoint" in obj:
        try:
            basepoint = MatrixFF.from_ints(ctx, [obj["basepoint"]]).rows[0]
        except ff.FieldError as exc:
            raise ValueError(f"basepoint: {exc}") from exc
        if len(basepoint) != dim:
            raise ValueError("basepoint length != dim")
        if not any(basepoint):
            raise ValueError("basepoint is zero")
    return rep, basepoint
