"""Exact combinatorics of shifted (set-valued) tableaux.

Enumerates shifted semistandard and set-valued tableaux on straight and
skew shapes, builds the Schur P/Q and K-theoretic GP/GQ polynomials as
exact sparse Laurent polynomials, and verifies their special-value,
parity, vanishing, coproduct and pairing properties mechanically.
"""

from .shapes import (Box, SkewShape, StrictPartition, inner_shapes,
                     is_subpartition, pi, removable_boxes)
from .tableaux import Filling, ValidationResult, filling_from_rows, validate
from .enumeration import EnumSpec, count, enumerate_fillings, naive_oracle
from .polyring import LaurentPoly
from .genfunc import (FunctionSpec, beta_zero, compute, coproduct_check,
                      double_skew_shortcut, parity_report, signed_count,
                      special_value)
from .involutions import (PairingCertificate, iota, minimal_tableau,
                          pairing_certificate, verify_involution)

__all__ = [
    "Box", "SkewShape", "StrictPartition", "inner_shapes", "is_subpartition",
    "pi", "removable_boxes",
    "Filling", "ValidationResult", "filling_from_rows", "validate",
    "EnumSpec", "count", "enumerate_fillings", "naive_oracle",
    "LaurentPoly",
    "FunctionSpec", "beta_zero", "compute", "coproduct_check",
    "double_skew_shortcut", "parity_report", "signed_count", "special_value",
    "PairingCertificate", "iota", "minimal_tableau", "pairing_certificate",
    "verify_involution",
]

__version__ = "0.1.0"
