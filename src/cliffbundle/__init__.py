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


# Each submodule: whether it loads on first use, and its public names,
# "public=attribute" where the two differ.  A request compiles only the
# modules it uses: a product needs scalars, forms and clifford, and the
# five lazy modules load on first use.  They are registered before the
# eager imports so that `from . import linalg` in forms takes the lazy
# module instead of loading linalg.  All five are in sys.modules once
# the package is imported, which is all bench/tracer.py asks of them:
# reading an entry point to wrap it loads the module.  Before Python
# 3.12 LazyLoader takes no lock, so two threads that touch an unloaded
# module at the same moment can both run its body; where threads share
# the package, read one attribute of each module before they start.
_HOMES = {
    "linalg": (True, ""),
    "tensor": (True, "TensorElt contract contract_vec divided_power left_mul "
                     "tensor_deform=deform tensor_deform_apply=deform_apply"),
    "repcheck": (True, "EndoMatrix EquivalenceReport ProbeReport check_equivalence "
                       "cliff_to_vec generator_matrices invariant_probe "
                       "restrict_matrices rho_matrix twist_matrix vec_to_cliff"),
    "checks": (True, "CheckResult list_checks run_check"),
    "sampling": (True, ""),
    "clifford": (False, "CliffElt CliffordContext deform deform_apply exp_contract "
                        "index_subset interior quantize quotient_map subset_index "
                        "symbol twisted_mul clifford_contract=contract "
                        "clifford_contract_vec=contract_vec"),
    "errors": (False, "AlgebraError CapExceeded CharacteristicError ContextMismatch "
                      "FieldMismatch FormError ParseError"),
    "forms": (False, "AlgebraContext BilinearForm DualTwoForm LinearForm "
                     "QuadraticForm Vector alt_of_dual dual_two_form pfaffian "
                     "polar_form quad_of_bilinear right_radical split_sym_alt "
                     "triangular_bilinear"),
    "scalars": (False, "GF2 RATIONALS Field Scalar is_prime"),
}
globals().update({module: _lazy(module) for module, (lazy, _) in _HOMES.items() if lazy})
# every public name -> (home module, attribute): the eager modules'
# names are bound here, and __getattr__ binds a lazy module's on first use
_LAZY_NAMES = {public: (module, attr or public)
               for module, (_, names) in _HOMES.items()
               for public, _, attr in (entry.partition("=") for entry in names.split())}
globals().update({public: getattr(importlib.import_module(f".{module}", __name__), attr)
                  for public, (module, attr) in _LAZY_NAMES.items() if not _HOMES[module][0]})
__all__ = sorted(_LAZY_NAMES)
del _HOMES  # dir() lists what the package serves, not the table it came from


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
