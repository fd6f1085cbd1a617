"""Character sums over finite fields F_q and F_{q^2}, and a verification
harness for the identity P(j,k) = V(j)V(k) between Katz's mixed exponential
sums and norm-restricted Gauss sums, together with the Mellin-transform,
Eisenstein, hypergeometric and classical Gauss/Jacobi machinery around it.
"""

from .characters import (
    MultChar,
    char,
    decompose_odd,
    delta,
    norm_compose,
    octic_M8,
    quadratic_char,
    restrict_to_base,
    trivial_char,
)
from .classical_sums import (
    eisenstein_E,
    eisenstein_E2,
    gauss,
    gauss_sums,
    jacobi,
    lifted_gauss,
    lifted_jacobi,
)
from .finite_field import (
    FieldElement,
    FieldError,
    FieldTower,
    PrimePowerField,
    build_tower,
    construct_field,
    factor_prime_power,
)
from .harness import RunConfig, run
from .hypergeometric import (
    binom,
    hyp2f1,
    hyp2f1_row,
    norm_fiber,
    norm_jacobi_row,
    norm_restricted_jacobi,
)
from .katz import (
    KatzContext,
    decompose_q,
    decompose_q_squared,
    double_mellin_mixed,
    double_mellin_product,
    fiber_jacobi_transform,
    kernel_double_sum,
    kernel_sum,
    kernel_transform,
    mellin_transform,
    mixed_sum,
    norm_restricted_gauss,
    quadratic_kernel_expected,
    quadratic_kernel_mellin,
    verify_master_identity,
)
from .report import VerificationReport
from .tolerance import TolerancePolicy

__version__ = "0.1.0"
