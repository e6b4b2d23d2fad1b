"""Exact Clifford algebras over the rationals and prime fields.

The package realizes the family of Clifford algebras Cl(V, Q) attached
to the quadratic forms Q on one fixed space V, each acting on the
exterior algebra through the Chevalley action x . w = x ^ w +
contraction of w by F(x, .).  The same action gives the deformation
maps between the algebras of Q + Q_F and Q, products twisted by a
bilinear form, gauge transformations by alternating forms,
symbol/quantization against the exterior algebra, and representation
matrices on the exterior algebra with an invariant-subspace probe.  All
arithmetic is exact.
"""

from .checks import CheckResult, list_checks, run_check
from .clifford import (CliffElt, CliffordContext, deform, deform_apply,
                       exp_contract, index_subset, interior, quantize,
                       quotient_map, subset_index, symbol, twisted_mul)
from .clifford import contract as clifford_contract
from .clifford import contract_vec as clifford_contract_vec
from .errors import (AlgebraError, CapExceeded, CharacteristicError,
                     ContextMismatch, FieldMismatch, FormError, ParseError)
from .forms import (AlgebraContext, BilinearForm, DualTwoForm, LinearForm,
                    QuadraticForm, Vector, alt_of_dual, dual_two_form,
                    pfaffian, polar_form, quad_of_bilinear, right_radical,
                    split_sym_alt, triangular_bilinear)
from .repcheck import (EndoMatrix, EquivalenceReport, ProbeReport,
                       check_equivalence, cliff_to_vec, generator_matrices,
                       invariant_probe, restrict_matrices, rho_matrix,
                       twist_matrix, vec_to_cliff)
# Every module but suites loads with the package, sampling included:
# bench/tracer.py wraps their entry points once `import cliffbundle.cli`
# has returned, so a module loaded later would go untraced.
from . import sampling  # noqa: F401
from .scalars import GF2, RATIONALS, Field, Scalar, is_prime
from .tensor import (TensorElt, contract, contract_vec, deform as tensor_deform,
                     deform_apply as tensor_deform_apply, divided_power,
                     left_mul)

__version__ = "0.1.0"

__all__ = [
    "AlgebraContext", "AlgebraError", "BilinearForm", "CapExceeded",
    "CharacteristicError", "CheckResult", "CliffElt", "CliffordContext",
    "ContextMismatch", "DualTwoForm", "EndoMatrix",
    "EquivalenceReport", "Field", "FieldMismatch", "FormError", "GF2",
    "LinearForm", "ParseError", "ProbeReport", "QuadraticForm", "RATIONALS",
    "Scalar", "TensorElt", "Vector", "alt_of_dual", "check_equivalence",
    "cliff_to_vec", "clifford_contract", "clifford_contract_vec", "contract",
    "contract_vec", "deform", "deform_apply", "divided_power",
    "dual_two_form", "exp_contract", "generator_matrices", "index_subset",
    "interior", "invariant_probe", "is_prime", "left_mul", "list_checks",
    "pfaffian", "polar_form", "quad_of_bilinear", "quantize", "quotient_map",
    "restrict_matrices", "rho_matrix", "right_radical", "run_check",
    "split_sym_alt", "subset_index", "symbol", "tensor_deform",
    "tensor_deform_apply", "triangular_bilinear", "twist_matrix",
    "twisted_mul", "vec_to_cliff",
]
