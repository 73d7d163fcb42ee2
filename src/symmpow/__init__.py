"""Exact location of irreducible modules inside symmetric powers of a
finite matrix group action over GF(p^f)."""

from .errors import (CapExceeded, MeataxeInconclusive, NotARepresentation,
                     ParseError, SymmpowError, TheoremViolation)
from .fields import FieldSpec, discrete_log, extend_field, make_field, mult_order
from .linalg import (Mat, identity, mat_inv, mat_mul, mat_vec, null_space,
                     rank, rref, transpose)
from .groups import (GroupData, build_group, center_scalars, coset_transversal,
                     enumerate_group)
from .reps import (MonomialBasis, PolyVec, Rep, defining_rep, dual_rep,
                   extend_scalars, induced_from_center, monomial_basis,
                   paired_rep, poly_from_vector, poly_mul, poly_one, poly_pow,
                   restrict_scalar_character, sym_power, sym_powers)
from .homs import hom_space
from .meataxe import (Lcg, SplitResult, is_irreducible, simple_quotient,
                      simple_submodule, splitting_extension)
from .construct import (Certificate, assemble, build_coset_products,
                        check_independence, find_generic_vector,
                        is_generic_vector)
from .scan import (OccurrenceTable, TheoremReport, VerifyOptions,
                   molien_table, occurrence_scan, occurrence_tables,
                   verify_theorem)

__version__ = "0.1.0"

__all__ = [
    "CapExceeded", "MeataxeInconclusive", "NotARepresentation", "ParseError",
    "SymmpowError", "TheoremViolation",
    "FieldSpec", "discrete_log", "extend_field", "make_field", "mult_order",
    "Mat", "identity", "mat_inv", "mat_mul", "mat_vec", "null_space", "rank",
    "rref", "transpose",
    "GroupData", "build_group", "center_scalars", "coset_transversal",
    "enumerate_group",
    "MonomialBasis", "PolyVec", "Rep", "defining_rep", "dual_rep",
    "extend_scalars", "induced_from_center", "monomial_basis", "paired_rep",
    "poly_from_vector", "poly_mul", "poly_one", "poly_pow",
    "restrict_scalar_character", "sym_power", "sym_powers",
    "hom_space",
    "Lcg", "SplitResult", "is_irreducible", "simple_quotient",
    "simple_submodule", "splitting_extension",
    "Certificate", "assemble", "build_coset_products", "check_independence",
    "find_generic_vector", "is_generic_vector",
    "OccurrenceTable", "TheoremReport", "VerifyOptions",
    "molien_table", "occurrence_scan", "occurrence_tables", "verify_theorem",
    "__version__",
]
