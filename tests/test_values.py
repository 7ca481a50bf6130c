"""Value semantics of the package's value classes, all derived from
modchar.Record or modchar.Frozen: equality means same type and same
fields, frozen classes hash by their fields and refuse assignment,
mutable combinations have no hash, and repr is `Name(field=value, ...)`."""

import ast
import copy
import pathlib
import pickle

import pytest

import modchar
from modchar import chi, verify
from modchar.dickson import MultiPoly
from modchar.ff import FieldCtx, MatrixFF, Subspace
from modchar.mono import Monomial, TensorClass
from modchar.reps import PointedRep, Reduction, Rep, basic_rep, classify, regular_rep, socle_filtration

F2 = FieldCtx(2, 1)


def _frozen(make, fields):
    """Two calls of make give equal, equally hashed values, unequal to
    other types (a tuple of their fields too), whose fields refuse
    assignment and deletion; copies and pickles are equal values."""
    a, b = make(), make()
    assert a == b and a is not b and hash(a) == hash(b)
    assert copy.copy(a) == copy.deepcopy(a) == pickle.loads(pickle.dumps(a)) == a
    assert a != object() and a != tuple(getattr(a, f) for f in fields)
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(a, f, getattr(a, f))
        with pytest.raises(AttributeError):
            delattr(a, f)
    with pytest.raises(AttributeError):
        a.extra = 1
    return a


def test_subspace():
    s = _frozen(lambda: Subspace.from_vectors(F2, 3, [(1, 1, 0)]), ("ctx", "ambient_dim", "basis"))
    assert s != Subspace.from_vectors(F2, 3, [(1, 0, 0)])
    assert s != Subspace.from_vectors(FieldCtx(3, 1), 3, [(1, 1, 0)])
    assert repr(s) == "Subspace(ctx=FieldCtx(p=2, r=1), ambient_dim=3, basis=((1, 1, 0),))"
    assert {s: 1}[Subspace(F2, 3, ((1, 1, 0),))] == 1


def test_rep_ignores_its_memo():
    rep = _frozen(lambda: regular_rep(2, 2), ("ctx", "dim", "generators"))
    fresh = regular_rep(2, 2)
    socle_filtration(rep)
    classify(rep)
    assert rep._memo is not None and fresh._memo is None and copy.copy(rep)._memo is None
    assert rep == fresh and hash(rep) == hash(fresh) and repr(rep) == repr(fresh)
    assert repr(fresh) == (
        "Rep(ctx=FieldCtx(p=2, r=1), dim=4, generators="
        "(MatrixFF(4x4 over FieldCtx(p=2, r=1)), MatrixFF(4x4 over FieldCtx(p=2, r=1))))"
    )
    one = MatrixFF.identity(F2, 1)
    assert Rep(F2, 1, (one,)) != Rep(F2, 1, (one, one)) != Rep(FieldCtx(3, 1), 1, ())


def test_pointed_rep():
    pr = _frozen(lambda: basic_rep(2, 1, 1), ("rep", "basepoint"))
    assert pr == PointedRep(pr.rep, (1, 0)) != basic_rep(3, 1, 1)
    assert repr(pr) == f"PointedRep(rep={pr.rep!r}, basepoint=(1, 0))"


def test_reduction():
    red = _frozen(
        lambda: Reduction("reduced", 1, ((1,),), basic_rep(2, 1, 1)),
        ("verdict", "quotient_rank", "projection", "basic_model"),
    )
    assert red != Reduction("reduced", 1, ((1,),))
    assert Reduction("zero") == Reduction("zero", None, None, None)
    assert repr(Reduction("zero")) == (
        "Reduction(verdict='zero', quotient_rank=None, projection=None, basic_model=None)"
    )
    assert classify(basic_rep(2, 1, 1).rep) == red


def test_degree_table_row():
    y3 = Monomial((0,), (3,))
    row = _frozen(lambda: chi.DegreeTableRow(2, y3, 3, "non-nilpotent"), ("N", "alpha", "degree", "status"))
    assert row != chi.DegreeTableRow(3, y3, 3, "non-nilpotent")
    assert row in chi.universal_table(2, 1, 2)
    assert repr(row) == (
        "DegreeTableRow(N=2, alpha=Monomial(ext=(0,), pows=(3,)), degree=3, status='non-nilpotent')"
    )


@pytest.mark.parametrize(
    "make, context, name",
    [
        (lambda terms: TensorClass(3, 1, 1, terms), "p=3, r=1, n=1", "TensorClass"),
        (lambda terms: MultiPoly(3, 1, terms), "p=3, nvars=1", "MultiPoly"),
    ],
    ids=["TensorClass", "MultiPoly"],
)
def test_sparse_combinations(make, context, name):
    key = (Monomial((0,), (2,)),) if name == "TensorClass" else (2,)
    a = make({key: 4})
    assert a.terms == {key: 1}  # reduced mod p on construction
    assert copy.copy(a) == pickle.loads(pickle.dumps(a)) == a
    assert a == make({key: 1}) and a != make({key: 2}) and a != make({})
    assert make({key: 3}) == make({}) == type(a)(*a._context())  # terms default to zero
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)
    assert repr(a) == f"{name}({context}, terms={{{key!r}: 1}})"
    a.terms = {}  # mutable, as before
    assert a.is_zero()
    with pytest.raises(TypeError, match="takes the fields"):
        type(a)(3)


@pytest.mark.parametrize(
    "a",
    [TensorClass(3, 1, 1, {(Monomial((0,), (2,)),): 1}), MultiPoly(3, 1, {(2,): 1})],
    ids=["TensorClass", "MultiPoly"],
)
def test_arithmetic_results_skip_the_key_checks(a, monkeypatch):
    """add/sub/neg/scale reduce mod p and drop zeros, but never re-check
    keys their operands already passed."""
    key = next(iter(a.terms))
    doubled = a.add(a)
    monkeypatch.setattr(type(a), "_check_keys", lambda self: pytest.fail("keys re-checked"))
    assert a.add(a) == doubled and doubled.terms == {key: 2}
    assert a.scale(3).terms == {} and a.sub(a).is_zero()
    assert a.neg().terms == {key: 2} and type(a.neg()) is type(a)


def test_sparse_combination_types_never_compare_equal():
    assert TensorClass(2, 1, 1) != MultiPoly(2, 1)
    assert MultiPoly(2, 1) != (2, 1, {})


def test_suite_result():
    a = verify.SuiteResult("arithmetic", True, "1 case", 0.5)
    assert a == verify.SuiteResult("arithmetic", True, "1 case", 0.5) == copy.copy(a)
    assert a != verify.SuiteResult("arithmetic", False, "1 case", 0.5)
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)
    a.ok = False
    assert not a.ok
    assert repr(a) == "SuiteResult(name='arithmetic', ok=False, detail='1 case', seconds=0.5)"


FROZEN = [
    (Subspace, 3),
    (Rep, 3),
    (PointedRep, 2),
    (Reduction, 4),
    (chi.DegreeTableRow, 4),
]


def test_frozen_records_are_these():
    assert {cls for cls, _ in FROZEN} == set(modchar.Frozen.__subclasses__())


@pytest.mark.parametrize("cls, count", FROZEN, ids=[cls.__name__ for cls, _ in FROZEN])
def test_frozen_record_rejects_a_wrong_field_count(cls, count):
    assert cls._names == tuple(cls.__slots__[:count])
    for wrong in (0, count + 1):
        with pytest.raises(TypeError):
            cls(*[None] * wrong)


def test_only_the_bases_define_setattr_or_delattr():
    src = pathlib.Path(modchar.__file__).parent
    found = [
        (path.name, node.name)
        for path in sorted(src.glob("*.py"))
        if path.name != "__init__.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name in ("__setattr__", "__delattr__")
    ]
    assert found == []
