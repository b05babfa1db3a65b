"""Nested and sliced orthogonal arrays, difference matrices, and the
space-filling designs built on them, with brute-force verification of every
structural claim.

Importing the package runs none of its modules: each name of `__all__`, and
each module that defines one, is imported when first read (PEP 562), so a
CLI job compiles only the modules its command runs.
"""

__version__ = "0.1.0"

# each name of `__all__` but `__version__` -> the module that defines it
_HOMES = {
    "NestfillError": "errors",
    "SpecError": "errors",
    "VerificationFailure": "errors",
    "Field": "galois",
    "Element": "galois",
    "Zn": "groups",
    "FieldTowerChain": "groups",
    "SubfieldTowerChain": "groups",
    "OmegaRingChain": "groups",
    "chain_field_tower": "groups",
    "chain_subfield_tower": "groups",
    "chain_omega_ring": "groups",
    "chain_from_descriptor": "groups",
    "GroupMatrix": "kronecker",
    "kron_sum": "kronecker",
    "col_kron_sum": "kronecker",
}

__all__ = ["__version__", *_HOMES]


def __getattr__(name: str):
    """A name of `__all__`, or a module defining one, imported on first read."""
    from importlib import import_module

    if name in _HOMES.values():
        return import_module(f"{__name__}.{name}")
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value
    return value
