"""Nested and sliced orthogonal arrays, difference matrices, and the
space-filling designs built on them, with brute-force verification of every
structural claim."""

__version__ = "0.1.0"

from .errors import NestfillError, SpecError, VerificationFailure
from .galois import Element, Field
from .groups import (
    FieldTowerChain,
    OmegaRingChain,
    SubfieldTowerChain,
    Zn,
    chain_field_tower,
    chain_from_descriptor,
    chain_omega_ring,
    chain_subfield_tower,
)
from .kronecker import GroupMatrix, col_kron_sum, kron_sum

__all__ = [
    "__version__",
    "NestfillError",
    "SpecError",
    "VerificationFailure",
    "Field",
    "Element",
    "Zn",
    "FieldTowerChain",
    "SubfieldTowerChain",
    "OmegaRingChain",
    "chain_field_tower",
    "chain_subfield_tower",
    "chain_omega_ring",
    "chain_from_descriptor",
    "GroupMatrix",
    "kron_sum",
    "col_kron_sum",
]
