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
from .division import NotPrimitiveError, _expand_product, division_ring_basis
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


def primitive_idempotent(frame: MonomialFrame, signs) -> Multivector:
    """Expanded product of the factors (1 + s_i * m_i) / 2."""
    signs = tuple(signs)
    if len(signs) != frame.k:
        raise ValueError(f"expected {frame.k} signs, got {len(signs)}")
    if any(s not in (1, -1) for s in signs):
        raise ValueError("signs must be +1 or -1")
    return _expand_product(frame.signature, frame.monomials, signs)


def find_frame(sig: Signature) -> MonomialFrame:
    """The lexicographically smallest valid frame, by one ascending scan.

    A blade mask is taken, in ascending order, when it squares to +1,
    commutes with the monomials taken so far and is GF(2)-independent of
    them (so all 2^k subset products are distinct blades), until k are
    taken.  A semisimple algebra needs no test of hat(f) * f == 0 for the
    all-plus f: that holds exactly when some monomial has odd grade, and an
    all-even frame would put 2^k orthogonal idempotents into the even
    subalgebra Mat(2^(k-1), K) (x -> x (1 + pseudoscalar) / 2 is injective
    on even x).
    """
    k = classify(sig).k
    chosen: list[int] = []
    echelon: dict[int, int] = {}
    for mask in range(1, sig.dim):
        if len(chosen) == k:
            break
        if (
            blade_square_sign(mask, sig) == 1
            and all(blades_commute(mask, c) for c in chosen)
            and gf2_insert(mask, echelon)
        ):
            chosen.append(mask)
    if len(chosen) != k:
        raise FrameSearchError(f"no admissible frame of size {k} found for {sig}")
    return MonomialFrame(sig, tuple(chosen))


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
