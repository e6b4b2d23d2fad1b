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

import importlib.util
import sys


def _lazy(name: str):
    """Put the submodule `name` into sys.modules unexecuted: its body
    runs on the first attribute access (importlib.util.LazyLoader)."""
    spec = importlib.util.find_spec(f".{name}", __name__)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# A request compiles only the modules it uses: a product needs scalars,
# forms and clifford, and these five load on first use.  They are bound
# here, before the eager imports below, so that `from . import linalg`
# in forms takes the lazy module instead of loading linalg.  All five
# are in sys.modules once the package is imported, which is all
# bench/tracer.py asks of them: reading an entry point to wrap it loads
# the module.  Before Python 3.12 LazyLoader takes no lock, so two
# threads that touch an unloaded module at the same moment can both run
# its body; where threads share the package, read one attribute of
# each module before they start.
linalg = _lazy("linalg")
tensor = _lazy("tensor")
repcheck = _lazy("repcheck")
checks = _lazy("checks")
sampling = _lazy("sampling")

from .clifford import (CliffElt, CliffordContext, deform, deform_apply,  # noqa: E402
                       exp_contract, index_subset, interior, quantize,
                       quotient_map, subset_index, symbol, twisted_mul)
from .clifford import contract as clifford_contract  # noqa: E402
from .clifford import contract_vec as clifford_contract_vec  # noqa: E402
from .errors import (AlgebraError, CapExceeded, CharacteristicError,  # noqa: E402
                     ContextMismatch, FieldMismatch, FormError, ParseError)
from .forms import (AlgebraContext, BilinearForm, DualTwoForm, LinearForm,  # noqa: E402
                    QuadraticForm, Vector, alt_of_dual, dual_two_form,
                    pfaffian, polar_form, quad_of_bilinear, right_radical,
                    split_sym_alt, triangular_bilinear)
from .scalars import GF2, RATIONALS, Field, Scalar, is_prime  # noqa: E402

# the public names the lazy modules export: name -> (module, attribute)
_LAZY_NAMES = {
    "CheckResult": ("checks", "CheckResult"),
    "list_checks": ("checks", "list_checks"),
    "run_check": ("checks", "run_check"),
    "EndoMatrix": ("repcheck", "EndoMatrix"),
    "EquivalenceReport": ("repcheck", "EquivalenceReport"),
    "ProbeReport": ("repcheck", "ProbeReport"),
    "check_equivalence": ("repcheck", "check_equivalence"),
    "cliff_to_vec": ("repcheck", "cliff_to_vec"),
    "generator_matrices": ("repcheck", "generator_matrices"),
    "invariant_probe": ("repcheck", "invariant_probe"),
    "restrict_matrices": ("repcheck", "restrict_matrices"),
    "rho_matrix": ("repcheck", "rho_matrix"),
    "twist_matrix": ("repcheck", "twist_matrix"),
    "vec_to_cliff": ("repcheck", "vec_to_cliff"),
    "TensorElt": ("tensor", "TensorElt"),
    "contract": ("tensor", "contract"),
    "contract_vec": ("tensor", "contract_vec"),
    "divided_power": ("tensor", "divided_power"),
    "left_mul": ("tensor", "left_mul"),
    "tensor_deform": ("tensor", "deform"),
    "tensor_deform_apply": ("tensor", "deform_apply"),
}


def __getattr__(name: str):
    """A public name of a lazy module, loading the module on first use
    and keeping the name in the package from then on (PEP 562)."""
    try:
        module, attr = _LAZY_NAMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(globals()[module], attr)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


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
