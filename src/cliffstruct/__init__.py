"""Exact structure analysis of real Clifford algebras Cl(p,q).

Classifies each algebra as a matrix algebra over R, C, or H (or a double
copy of one), constructs the commuting monomial frames and primitive
idempotents behind that structure, extracts spinor bases of minimal left
ideals together with faithful matrix images of the generators, and verifies
the whole decomposition with exact rational arithmetic.

Import rule: only ``classify`` and ``core`` load with the package.  Every
command needs them, and the function ``classify`` must shadow the submodule
of the same name.  The names from ``division``, ``idempotents``,
``representation`` and ``verify`` resolve on first access, so a command
loads only the layers it runs: with bytecode writing off, each launch
compiles every module it imports from source.
"""

import importlib

from .classify import (
    AlgebraClass,
    K_DIMENSION,
    classification_table,
    classify,
    radon_hurwitz,
    render_table_text,
    table_json,
)
from .core import (
    MAX_DIMENSION,
    Multivector,
    Signature,
    SignatureMismatchError,
    blade_mul,
    blade_name,
    blade_square_sign,
    blades_commute,
    format_multivector,
    grade,
    multivector_from_json_dict,
    multivector_to_json_dict,
    parse_multivector,
)

# name -> submodule for the names that load on first access (PEP 562)
_LAZY = {
    "DivisionRingBasis": "division",
    "KElement": "division",
    "NotPrimitiveError": "division",
    "UnitConstructionError": "division",
    "division_ring_basis": "division",
    "FrameSearchError": "idempotents",
    "IdempotentSet": "idempotents",
    "IdempotentSetError": "idempotents",
    "MonomialFrame": "idempotents",
    "ProductIdempotent": "idempotents",
    "center_basis": "idempotents",
    "central_idempotents": "idempotents",
    "complete_set": "idempotents",
    "find_frame": "idempotents",
    "is_idempotent": "idempotents",
    "is_primitive": "idempotents",
    "primitive_idempotent": "idempotents",
    "product_idempotent": "idempotents",
    "Component": "representation",
    "KMatrix": "representation",
    "Representation": "representation",
    "RepresentationError": "representation",
    "SpinorBasis": "representation",
    "build_representation": "representation",
    "format_kelement": "representation",
    "format_kmatrix": "representation",
    "represent": "representation",
    "represent_semisimple": "representation",
    "representation_from_json_dict": "representation",
    "representation_to_json_dict": "representation",
    "spinor_basis": "representation",
    "spinor_coordinates": "representation",
    "CheckResult": "verify",
    "DEFAULT_SAMPLE_SEED": "verify",
    "RangeSummary": "verify",
    "VerificationReport": "verify",
    "brute_force_minimal_ideal_dim": "verify",
    "verify_range": "verify",
    "verify_representation": "verify",
    "verify_signature": "verify",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"

__all__ = sorted([
    "AlgebraClass",
    "K_DIMENSION",
    "classification_table",
    "classify",
    "radon_hurwitz",
    "render_table_text",
    "table_json",
    "MAX_DIMENSION",
    "Multivector",
    "Signature",
    "SignatureMismatchError",
    "blade_mul",
    "blade_name",
    "blade_square_sign",
    "blades_commute",
    "format_multivector",
    "grade",
    "multivector_from_json_dict",
    "multivector_to_json_dict",
    "parse_multivector",
    *_LAZY,
])
