"""Right-invariant generic multiorders on the free abelian group Z^m.

Exact construction of generic order tuples (m > n), witness search for
interval constraints, and machine-verifiable refutation certificates
(m <= n), all over multiquadratic number fields.
"""

from .field import (
    BasisMismatchError,
    FieldScalar,
    PrecisionExceededError,
    RadicalBasis,
    q_linear_independent,
)
from .finite import Embedding, FiniteNOrder, amalgamate, embed, from_pattern, induced, pattern_of
from .genericity import (
    ExtensionReport,
    IntervalConstraint,
    MultiOrder,
    WitnessResult,
    extension_property_test,
    find_witness,
    from_matrix,
    witness,
    witness_brute,
)
from .matrix import OrderMatrix, VerifyReport, build, verify
from .orders import Cmp, Cone, LinearForm, OrderSpec
from .refuter import (
    Certificate,
    NoCertificateFound,
    kernel_lattice,
    refute,
    refute_dependent,
    refute_rational_kernel,
    refute_small_volume,
    verify_certificate,
)

__all__ = [
    "BasisMismatchError",
    "Certificate",
    "Cmp",
    "Cone",
    "Embedding",
    "ExtensionReport",
    "FieldScalar",
    "FiniteNOrder",
    "IntervalConstraint",
    "LinearForm",
    "MultiOrder",
    "NoCertificateFound",
    "OrderMatrix",
    "OrderSpec",
    "PrecisionExceededError",
    "RadicalBasis",
    "VerifyReport",
    "WitnessResult",
    "amalgamate",
    "build",
    "embed",
    "extension_property_test",
    "find_witness",
    "from_matrix",
    "from_pattern",
    "induced",
    "kernel_lattice",
    "pattern_of",
    "q_linear_independent",
    "refute",
    "refute_dependent",
    "refute_rational_kernel",
    "refute_small_volume",
    "verify",
    "verify_certificate",
    "witness",
    "witness_brute",
]

__version__ = "0.1.0"
