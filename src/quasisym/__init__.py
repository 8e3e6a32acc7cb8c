"""Exact computer algebra for quasi-symmetric functions.

The package provides the monomial (M), weakly increasing (Mt) and
fundamental (F) bases over exact rationals, the ordinary quasi-shuffle
product next to the graded family of weakly nonassociative products, the
Hopf structure (coproduct, counit, antipode), a brute-force polynomial
oracle, the KP identity family with its hierarchy rendering, and a
two-alphabet extension.  See the README for the CLI.

The public names below are read from their modules on first access
(PEP 562), so ``import quasisym`` compiles and runs no submodule: a CLI
command loads only the modules it uses.
"""

import importlib

# module -> the public names it defines
_HOMES = {
    "composition": "Composition coarsenings compositions_of concat elementary_decompose "
                   "enumerate_compositions omega refinements reverse",
    "elements": "QSymElem counit format_elem monomial one scale to_basis zero",
    "hopf": "TensorElem antipode antipode_F coproduct derivation_delta m_k "
            "tensor_bullet_left tensor_bullet_right tensor_mul tensor_of",
    "kp": "complete_h elementary_schur kp_classical_identity kp_identity power_sum sigma_render",
    "oracle": "Polynomial certify_equal expand expand_bullet poly_equal",
    "products": "bullet bullet_F bullet_tilde bullet_via_first elementary_F factorize_F "
                "hat_bullet mul",
    "qss": "QssPoly qss_bullet qss_kp_check qss_M qss_p t_substitution_check",
}
_EXPORTS = {name: module for module, names in _HOMES.items() for name in names.split()}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"

# the kernels have one implementation, in quasisym._core
kernel_backend = "python"


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
