"""Acceptance criteria: each test drives one cross-check suite at its
stated grid and tolerance (everything here is exact integer/polynomial
equality) and prints a pass/fail line."""

import pytest

from modchar import verify

# (number, description, runner, runtime budget in seconds or None, floor on
# the case count the suite reports at the start of its detail, so a grid
# that silently shrinks fails)
CRITERIA = [
    (
        1,
        "oracle equivalence: splitting formula vs power sums, "
        "(p,n) grid, k <= 2(p^n-1)+2p",
        lambda: verify.suite_oracle_equivalence("quick"),
        30,
        68,
    ),
    (
        2,
        "digit-sum criterion matches the splitting search, m <= 300, "
        "kinds y and xy, undefineds included",
        lambda: verify.suite_digit_criterion("quick"),
        30,
        3311,
    ),
    (
        3,
        "lowest nonzero degrees match the closed forms",
        lambda: verify.suite_lowest_degrees("quick"),
        None,
        7,
    ),
    (
        4,
        "coalgebra laws for degree <= 12, q in {2,3,4,5,8,9}",
        lambda: verify.suite_coalgebra_laws("quick"),
        60,
        132,
    ),
    (
        5,
        "wedge consistency for a+b <= 4, q in {2,3,4}, deg <= 10",
        lambda: verify.suite_wedge("quick"),
        None,
        210,
    ),
    (
        6,
        "Dickson suite: sparsity, Newton, inverse, product identities, "
        "independence (full grid incl. (3,3))",
        lambda: verify.suite_dickson("full"),
        None,
        23,
    ),
    (
        7,
        "filtration suite: dual routes on 200 random reps, big-rep "
        "conjugation, tensor socle, strictness",
        lambda: verify.suite_filtration("quick"),
        None,
        225,
    ),
    (
        8,
        "classification suite: direct sums vanish, regular = basic, "
        "pullback projections recovered",
        lambda: verify.suite_classification("quick"),
        None,
        42,
    ),
    (
        9,
        "arithmetic suite: Lucas/multinomial vs factorials, digit-sum "
        "minima vs DP, q-binomial congruence",
        lambda: verify.suite_arithmetic("quick"),
        30,
        220568,
    ),
    (
        10,
        "witness verification: explicit splittings admissible, degree "
        "tables match closed forms, r <= 3, n <= 3",
        lambda: verify.suite_witnesses("quick"),
        None,
        51,
    ),
    (
        11,
        "pruned expansion: chi_basic matches the unpruned iterated "
        "coproduct with unit-factor tuples dropped, y^k at n = 2..4 and "
        "GF(4), GF(9) basis monomials at n = 2",
        lambda: verify.suite_pruned_expansion("quick"),
        None,
        98,
    ),
]


@pytest.mark.parametrize(
    "num,desc,runner,budget,floor", CRITERIA, ids=[f"criterion-{c[0]}" for c in CRITERIA]
)
def test_acceptance_criterion(num, desc, runner, budget, floor):
    result = runner()
    mark = "PASS" if result.ok else "FAIL"
    print(f"{mark}: criterion {num} ({result.name}, {result.seconds:.2f}s) - {desc}")
    assert result.ok, f"criterion {num} failed: {result.detail}"
    cases = int(result.detail.split()[0])
    assert cases >= floor, f"criterion {num} checked {cases} cases, floor {floor}"
    if budget is not None:
        assert result.seconds < budget, (
            f"criterion {num} took {result.seconds:.1f}s, budget {budget}s"
        )
