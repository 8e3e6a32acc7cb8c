"""Exact computer algebra for quasi-symmetric functions.

The package provides the monomial (M), weakly increasing (Mt) and
fundamental (F) bases over exact rationals, the ordinary quasi-shuffle
product next to the graded family of weakly nonassociative products, the
Hopf structure (coproduct, counit, antipode), a brute-force polynomial
oracle, the KP identity family with its hierarchy rendering, and a
two-alphabet extension.  See the README for the CLI.
"""

from quasisym.composition import (
    Composition,
    coarsenings,
    compositions_of,
    concat,
    elementary_decompose,
    enumerate_compositions,
    omega,
    refinements,
    reverse,
)
from quasisym.elements import QSymElem, counit, format_elem, monomial, one, scale, to_basis, zero
from quasisym.hopf import (
    TensorElem,
    antipode,
    antipode_F,
    coproduct,
    derivation_delta,
    m_k,
    tensor_bullet_left,
    tensor_bullet_right,
    tensor_mul,
    tensor_of,
)
from quasisym.kp import (
    complete_h,
    elementary_schur,
    kp_classical_identity,
    kp_identity,
    power_sum,
    sigma_render,
)
from quasisym.oracle import Polynomial, certify_equal, expand, expand_bullet, poly_equal
from quasisym.products import (
    bullet,
    bullet_F,
    bullet_tilde,
    bullet_via_first,
    elementary_F,
    factorize_F,
    hat_bullet,
    mul,
)
from quasisym.qss import QssPoly, qss_bullet, qss_kp_check, qss_M, qss_p, t_substitution_check

__version__ = "0.1.0"

# the kernels have one implementation, in quasisym._core
kernel_backend = "python"
