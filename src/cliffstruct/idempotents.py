"""Primitive idempotents from commuting square-one basis monomials.

A frame of k commuting, independent basis monomials with square +1 expands
into a complete set of 2^k primitive mutually annihilating idempotents, one
per sign vector, which add up to the unit of the algebra.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .classify import classify
from .core import Multivector, Signature, blade_square_sign, blades_commute
from .division import NotPrimitiveError, division_ring_basis
from .linalg import gf2_insert

_HALF = Fraction(1, 2)


class FrameSearchError(RuntimeError):
    """No admissible monomial frame was found (internal defect)."""


class IdempotentSetError(RuntimeError):
    """A constructed idempotent set violated one of its defining invariants."""


@dataclass(frozen=True)
class MonomialFrame:
    """Ordered blade masks of the k commuting square-one monomials."""

    signature: Signature
    monomials: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.monomials)


@dataclass(frozen=True)
class IdempotentSet:
    """All 2^k sign vectors with their idempotents, in lexicographic order
    (+1 before -1)."""

    frame: MonomialFrame
    signs: tuple[tuple[int, ...], ...]
    idempotents: tuple[Multivector, ...]


def sign_vectors(k: int) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.product((1, -1), repeat=k))


def _expand_product(sig: Signature, monomials, signs) -> Multivector:
    f = sig.scalar(1)
    for mask, s in zip(monomials, signs):
        f = f * ((sig.scalar(1) + sig.blade(mask, s)) * _HALF)
    return f


def primitive_idempotent(frame: MonomialFrame, signs) -> Multivector:
    """Expanded product of the factors (1 + s_i * m_i) / 2."""
    signs = tuple(signs)
    if len(signs) != frame.k:
        raise ValueError(f"expected {frame.k} signs, got {len(signs)}")
    if any(s not in (1, -1) for s in signs):
        raise ValueError("signs must be +1 or -1")
    return _expand_product(frame.signature, frame.monomials, signs)


def find_frame(sig: Signature) -> MonomialFrame:
    """Deterministic search for the lexicographically smallest valid frame.

    Depth-first over blade masks in ascending order; a candidate must square
    to +1, commute with every chosen monomial, and be GF(2)-independent of
    them (so all 2^k subset products are distinct blades).  In the semisimple
    case the all-plus idempotent f must additionally satisfy hat(f) * f == 0,
    otherwise the search backtracks.
    """
    cls = classify(sig)
    k = cls.k
    if k == 0:
        return MonomialFrame(sig, ())
    semisimple = not cls.simple
    candidates = [m for m in range(1, sig.dim) if blade_square_sign(m, sig) == 1]

    def search(start: int, chosen: list[int], echelon: dict[int, int]):
        if len(chosen) == k:
            if semisimple:
                f = _expand_product(sig, chosen, (1,) * k)
                if not (f.involute() * f).is_zero():
                    return None
            return tuple(chosen)
        for idx in range(start, len(candidates)):
            mask = candidates[idx]
            if any(not blades_commute(mask, c) for c in chosen):
                continue
            extended = dict(echelon)
            if not gf2_insert(mask, extended):
                continue
            found = search(idx + 1, chosen + [mask], extended)
            if found is not None:
                return found
        return None

    found = search(0, [], {})
    if found is None:
        raise FrameSearchError(f"no admissible frame of size {k} found for {sig}")
    return MonomialFrame(sig, found)


def _idempotency_witness(signs, idempotents) -> dict | None:
    for sv, f in zip(signs, idempotents):
        if not is_idempotent(f):
            return {"signs": list(sv)}
    return None


def _annihilation_witness(signs, idempotents) -> dict | None:
    for a, b in itertools.combinations(range(len(idempotents)), 2):
        if not (idempotents[a] * idempotents[b]).is_zero():
            return {"i": list(signs[a]), "j": list(signs[b])}
    return None


def _unity_witness(signs, idempotents) -> dict | None:
    total = sum(idempotents[1:], idempotents[0])
    if total != total.signature.scalar(1):
        return {"sum": str(total)}
    return None


def _primitivity_witness(signs, idempotents) -> dict | None:
    for sv, f in zip(signs, idempotents):
        # the witness names the sign vector also when the test itself fails
        try:
            primitive = is_primitive(f)
        except Exception as exc:
            return {"signs": list(sv), "error": f"{type(exc).__name__}: {exc}"}
        if not primitive:
            return {"signs": list(sv)}
    return None


# (check id, witness function) in the order verify reports them.  Each
# function takes the sign vectors and their idempotents and returns a
# JSON-serializable witness of the first violation, or None.
IDEMPOTENT_INVARIANTS = (
    ("idem.idempotent", _idempotency_witness),
    ("idem.mutually_annihilating", _annihilation_witness),
    ("idem.sum_to_unity", _unity_witness),
    ("idem.primitive", _primitivity_witness),
)


def complete_set(frame: MonomialFrame) -> IdempotentSet:
    """All 2^k idempotents of the frame, with every invariant verified.

    Checks the expansion shape, then ``IDEMPOTENT_INVARIANTS`` (idempotency,
    mutual annihilation, the decomposition of unity, primitivity); raises
    :class:`IdempotentSetError` with the witness of the first violation.
    """
    sig = frame.signature
    svs = sign_vectors(frame.k)
    idems = tuple(primitive_idempotent(frame, sv) for sv in svs)
    expected_terms = 1 << frame.k
    coeff = Fraction(1, expected_terms)
    for sv, f in zip(svs, idems):
        if len(f.terms) != expected_terms or any(abs(c) != coeff for _, c in f.terms):
            raise IdempotentSetError(f"{sig} {sv}: expansion shape is wrong")
    for check_id, witness_of in IDEMPOTENT_INVARIANTS:
        witness = witness_of(svs, idems)
        if witness is not None:
            raise IdempotentSetError(f"{sig}: {check_id} fails: {witness}")
    return IdempotentSet(frame, svs, idems)


def is_idempotent(u: Multivector) -> bool:
    return u * u == u


def is_primitive(f: Multivector) -> bool:
    """Whether f Cl f is a division ring of real dimension 1, 2, or 4.

    Non-idempotent elements are simply not primitive.  The zero element is
    outside the domain of the question and rejected.
    """
    if f.is_zero():
        raise ValueError("primitivity is undefined for the zero element")
    try:
        division_ring_basis(f)
    except NotPrimitiveError:
        return False
    return True


def central_idempotents(sig: Signature) -> tuple[Multivector, Multivector]:
    """The central pair (1 +- pseudoscalar) / 2 of a semisimple algebra."""
    if classify(sig).simple:
        raise ValueError(f"{sig} is simple; it has no central idempotent split")
    one = sig.scalar(1)
    pseudo = sig.blade(sig.dim - 1)
    return (one + pseudo) * _HALF, (one - pseudo) * _HALF


def center_basis(sig: Signature) -> list[Multivector]:
    """R-basis of the center, solved from [u, e_i] = 0 over blade coefficients.

    The commutator with a generator sends each blade to a single blade, so
    the linear system decouples: a coefficient is unconstrained exactly when
    its blade commutes with every generator.
    """
    gens = [1 << i for i in range(sig.n)]
    return [
        sig.blade(mask)
        for mask in range(sig.dim)
        if all(blades_commute(mask, g) for g in gens)
    ]
