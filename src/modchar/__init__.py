"""modchar: exact modular characteristic classes for representations
over finite fields, with two independent computation paths that
cross-validate each other."""

__version__ = "0.1.0"

from .chi import (
    ChiQuery,
    DegreeTableRow,
    chi_basic,
    digit_sum,
    indecomposable_tuples,
    is_chi_nonzero,
    min_m_for_digit_sum,
    r1_predicate,
    universal_table,
    wedge_split_check,
    witness_alpha,
)
from .coalg import (
    coproduct,
    gaussian_binomial,
    iterated_coproduct,
    lucas_binomial,
    multinomial_mod_p,
    no_carry,
)
from .dickson import (
    MultiPoly,
    alternating_chi_total,
    chi_via_power_sum,
    dickson_total,
    newton_check,
    power_sum,
    product_identity_check,
    series_inverse,
    tensor_to_poly,
)
from .ff import FieldCtx, MatrixFF, Subspace, find_irreducible, kernel, preimage
from .mono import (
    Monomial,
    TensorClass,
    degree,
    enumerate_invariant_basis,
    format_monomial,
    is_invariant,
    parse_monomial,
    weight,
)
from .reps import (
    PointedRep,
    Reduction,
    Rep,
    basic_rep,
    big_rep,
    chi_of_rep,
    classify,
    direct_sum,
    dual_rep,
    fixed_space,
    iso_to_basic,
    regular_rep,
    socle_filtration,
    sym_power_rep,
    tensor_rep,
    wedge_sum,
)

__all__ = [name for name in dir() if not name.startswith("_")]
