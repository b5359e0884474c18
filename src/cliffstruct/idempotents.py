"""Primitive idempotents from commuting square-one basis monomials.

A frame of k commuting, independent basis monomials with square +1 expands
into a complete set of 2^k primitive mutually annihilating idempotents, one
per sign vector, which add up to the unit of the algebra.
``idempotent_set`` builds that set unchecked, for verify to check, and
``complete_set`` is the same set with its invariants verified.
``product_idempotent`` gives each as a ``ProductIdempotent``: the frame
masks, the signs and the expanded product, the one form the division ring
and the spinor basis are built from.

Such an f projects onto one character of the abelian group {+-e_h : h in
W}, the frame's part of the vee group {+-e_A} (N. Salingaros, J. Math.
Phys. 22 (1981) 226; P. Lounesto, *Clifford Algebras and Spinors*, 2nd ed.,
Ch. 17).  ``stabilizer_character`` reads that character off the integer
terms of any f, with no product formed, and it certifies idempotency
(``is_primitive`` too), mutual annihilation and, in ``verify``, the ideal
dimension and the semisimple split.  A certificate only confirms: when it
declines, the exact products decide, and they alone give witnesses.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property

from .classify import K_DIMENSION, classify
from .core import (
    FrozenRecord,
    Multivector,
    Record,
    Signature,
    _sign_masks,
    blade_mul,
    blade_square_sign,
    blades_commute,
)
from .linalg import gf2_insert

_HALF = Fraction(1, 2)


class FrameSearchError(RuntimeError):
    """No admissible monomial frame was found (internal defect)."""


class IdempotentSetError(RuntimeError):
    """A constructed idempotent set violated one of its defining invariants."""


class MonomialFrame(FrozenRecord):
    """Ordered blade masks of the k commuting square-one monomials."""

    _fields = ("signature", "monomials")

    @property
    def k(self) -> int:
        return len(self.monomials)


class IdempotentSet(FrozenRecord):
    """All 2^k sign vectors with their idempotents, in lexicographic order
    (+1 before -1)."""

    _fields = ("frame", "signs", "idempotents")


class ProductIdempotent(FrozenRecord):
    """f = prod (1 + s_i e_{m_i}) / 2 over commuting, GF(2)-independent
    square-one blades: the masks m_i, the signs s_i and the expanded f."""

    _fields = ("masks", "signs", "f")

    @cached_property
    def echelon(self) -> dict[int, int]:
        """The fully reduced echelon of the GF(2) span W of the masks."""
        echelon: dict[int, int] = {}
        for mask in self.masks:
            gf2_insert(mask, echelon)
        return echelon


def sign_vectors(k: int) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.product((1, -1), repeat=k))


def _expand_product(sig: Signature, masks, signs) -> ProductIdempotent:
    """The product of the factors (1 + s_i e_{m_i}) / 2, expanded in order:
    the sum over subsets S of (prod_{i in S} s_i) e_{m_i1} ... e_{m_ij} / 2^k,
    each term its predecessor's times s_i e_{m_i} by one ``blade_mul`` sign,
    added per mask as integers over 2^k, with no multivector product."""
    terms = [(0, 1)]
    for mask, s in zip(masks, signs):
        terms += [(m ^ mask, c * s * blade_mul(m, mask, sig)[0]) for m, c in terms]
    acc: dict[int, int] = {}
    for m, c in terms:
        acc[m] = acc.get(m, 0) + c
    f = Multivector(
        sig, tuple((m, Fraction(c, len(terms))) for m, c in sorted(acc.items()) if c)
    )
    return ProductIdempotent(tuple(masks), tuple(signs), f)


def product_idempotent(frame: MonomialFrame, signs) -> ProductIdempotent:
    """The product idempotent of the frame with the given signs."""
    signs = tuple(signs)
    if len(signs) != frame.k:
        raise ValueError(f"expected {frame.k} signs, got {len(signs)}")
    if any(s not in (1, -1) for s in signs):
        raise ValueError("signs must be +1 or -1")
    return _expand_product(frame.signature, frame.monomials, signs)


def primitive_idempotent(frame: MonomialFrame, signs) -> Multivector:
    """Expanded product of the factors (1 + s_i * m_i) / 2."""
    return product_idempotent(frame, signs).f


def _half_product_form(f: Multivector) -> ProductIdempotent | None:
    """Recognize f as an expanded product of commuting factors (1 + s*e_m)/2.

    Such an f has 2^j terms, and the first j GF(2)-independent masks among
    them, signed as their coefficients, are factors that reproduce it.
    Returns the product or None; the recovered generators are checked to
    commute, square to +1, and reproduce f exactly, so a non-None result is
    trustworthy.
    """
    terms = f.terms
    count = len(terms)
    if count == 0 or count & (count - 1):
        return None
    j = count.bit_length() - 1
    echelon: dict[int, int] = {}
    basis = [m for m, _ in terms if gf2_insert(m, echelon)]
    if len(basis) != j:
        return None
    sig = f.signature
    for pos, a in enumerate(basis):
        if blade_square_sign(a, sig) != 1:
            return None
        for b in basis[pos + 1 :]:
            if not blades_commute(a, b):
                return None
    coeffs = dict(terms)
    signs = tuple(1 if coeffs[m] > 0 else -1 for m in basis)
    product = _expand_product(sig, basis, signs)
    return product if product.f == f else None


def product_form(f: Multivector | ProductIdempotent) -> ProductIdempotent:
    """f itself when it is a ProductIdempotent, else its recognized product.

    Raises ValueError when f is not such a product: K and the spinor basis
    are read off its frame.
    """
    if isinstance(f, ProductIdempotent):
        return f
    product = _half_product_form(f)
    if product is None:
        raise ValueError(
            "f must be a product idempotent prod (1 + s_i e_{g_i}) / 2 over"
            " commuting, independent square-one blades"
        )
    return product


class StabilizerCharacter(Record):
    """The character of f on the stabilizer H of its support S: ``values``
    maps each h in H to chi(h) = +-1 with e_h f == chi(h) f, and
    ``commuting`` holds the chi(h) of the h in H whose e_h commutes with
    every blade of S."""

    _fields = ("values", "commuting")


def stabilizer_character(f: Multivector) -> StabilizerCharacter | None:
    """f's character on H = {s xor s0 : s in S}, S = supp f and s0 = min S,
    or None when H is not a GF(2) subspace or some e_h f is not +-f.

    Read off f's integer terms with ``_sign_masks``, with no product.  S is
    then one coset of H, so e_g f has support S, and each echelon row g of
    H is compared term by term with +-f: r |S| comparisons for rank r.
    The rest of H follows, as e_h e_g == sign e_{h xor g} gives
    chi(h xor g) = sign chi(h) chi(g).  Commuting is a bilinear form over
    GF(2), so e_h commutes with every blade of S = s0 + H exactly when it
    commutes with e_s0 and with the echelon rows, and those r + 1 bits of
    h are the xor of its rows' bits.
    """
    _, masks, nums = f._integer_terms
    if not masks:
        return None
    s0 = masks[0]
    echelon: dict[int, int] = {}
    for m in masks:
        gf2_insert(m ^ s0, echelon)
    if 1 << len(echelon) != len(masks):
        return None
    signs = _sign_masks(f.signature)
    coeff = dict(zip(masks, nums))
    rows = tuple(echelon.values())
    tests = (s0, *rows)
    # (h, chi(h), commutation bits of h against the tests)
    elements = [(0, 1, 0)]
    for g in rows:
        # e_g f term by term: e_g (c e_t) = +-c e_{g xor t}
        image = [
            (g ^ t, -c if (g & signs[t]).bit_count() & 1 else c)
            for t, c in zip(masks, nums)
        ]
        chi = 1 if coeff[image[0][0]] == image[0][1] else -1
        if any(coeff[m] != chi * c for m, c in image):
            return None
        bits = sum(
            1 << i for i, t in enumerate(tests) if not blades_commute(g, t)
        )
        q = signs[g]
        elements += [
            (h ^ g, -x * chi if (h & q).bit_count() & 1 else x * chi, v ^ bits)
            for h, x, v in elements
        ]
    return StabilizerCharacter(
        {h: x for h, x, _ in elements}, {h: x for h, x, v in elements if not v}
    )


def _proves_idempotent(f: Multivector, character: StabilizerCharacter | None) -> bool:
    """Whether f's character proves f f == f; False decides nothing.

    When 0 is in S, S = H and f f = sum_h c_h e_h f = (sum_h c_h chi(h)) f,
    so a sum of exactly 1 proves it.  Without 0 in S (f = e1, say) the
    character says nothing about f f.
    """
    if character is None:
        return False
    den, masks, nums = f._integer_terms
    values = character.values
    return masks[0] == 0 and sum(c * values[m] for m, c in zip(masks, nums)) == den


def _proves_annihilation(
    a: StabilizerCharacter | None, b: StabilizerCharacter | None
) -> bool:
    """Whether the characters of f_a and f_b prove f_a f_b == 0; False
    decides nothing.

    An h in H_b whose e_h commutes with every blade of f_a, with chi_a(h)
    != chi_b(h), gives chi_a(h) f_a f_b = f_a e_h f_b = chi_b(h) f_a f_b.
    """
    if a is None or b is None:
        return False
    return any(b.values.get(h, chi) != chi for h, chi in a.commuting.items())


def find_frame(sig: Signature) -> MonomialFrame:
    """The lexicographically smallest valid frame, by one ascending scan.

    A blade mask is taken, in ascending order, when it squares to +1 and
    commutes with the monomials taken so far, both read off ``_sign_masks``,
    and is GF(2)-independent of them (so all 2^k subset products are
    distinct blades), until k are taken.  A semisimple algebra needs no test
    of hat(f) * f == 0 for the all-plus f: that holds exactly when some
    monomial has odd grade, and an all-even frame would put 2^k orthogonal
    idempotents into the even subalgebra Mat(2^(k-1), K) (x -> x (1 +
    pseudoscalar) / 2 is injective on even x).
    """
    k = classify(sig).k
    signs = _sign_masks(sig)
    chosen: list[int] = []
    echelon: dict[int, int] = {}
    for mask in range(1, sig.dim):
        if len(chosen) == k:
            break
        q = signs[mask]
        if (
            not (mask & q).bit_count() & 1
            and not any(((mask & signs[c]) ^ (c & q)).bit_count() & 1 for c in chosen)
            and gf2_insert(mask, echelon)
        ):
            chosen.append(mask)
    if len(chosen) != k:
        raise FrameSearchError(f"no admissible frame of size {k} found for {sig}")
    return MonomialFrame(sig, tuple(chosen))


def _idempotency_witness(signs, idempotents, characters) -> dict | None:
    for sv, f, chi in zip(signs, idempotents, characters):
        if not _proves_idempotent(f, chi) and not is_idempotent(f):
            return {"signs": list(sv)}
    return None


def _annihilation_witness(signs, idempotents, characters) -> dict | None:
    for a, b in itertools.combinations(range(len(idempotents)), 2):
        if (
            not _proves_annihilation(characters[a], characters[b])
            and not (idempotents[a] * idempotents[b]).is_zero()
        ):
            return {"i": list(signs[a]), "j": list(signs[b])}
    return None


def _unity_witness(signs, idempotents, characters) -> dict | None:
    total = sum(idempotents[1:], idempotents[0])
    if total != total.signature.scalar(1):
        return {"sum": str(total)}
    return None


def _primitivity_witness(signs, idempotents, characters) -> dict | None:
    for sv, f, chi in zip(signs, idempotents, characters):
        # the witness names the sign vector also when the test itself fails
        try:
            primitive = is_primitive(f, chi)
        except Exception as exc:
            return {"signs": list(sv), "error": f"{type(exc).__name__}: {exc}"}
        if not primitive:
            return {"signs": list(sv)}
    return None


# (check id, witness function) in the order verify reports them.  Each
# function takes the sign vectors, their idempotents and the idempotents'
# stabilizer characters (each one or None), and returns a JSON-serializable
# witness of the first violation, or None.
IDEMPOTENT_INVARIANTS = (
    ("idem.idempotent", _idempotency_witness),
    ("idem.mutually_annihilating", _annihilation_witness),
    ("idem.sum_to_unity", _unity_witness),
    ("idem.primitive", _primitivity_witness),
)


def idempotent_set(frame: MonomialFrame) -> IdempotentSet:
    """The 2^k sign vectors of the frame and their idempotents, unchecked."""
    svs = sign_vectors(frame.k)
    idems = tuple(primitive_idempotent(frame, sv) for sv in svs)
    return IdempotentSet(frame, svs, idems)


def complete_set(frame: MonomialFrame) -> IdempotentSet:
    """``idempotent_set(frame)`` with every invariant verified.

    Checks the expansion shape, then ``IDEMPOTENT_INVARIANTS`` (idempotency,
    mutual annihilation, the decomposition of unity, primitivity); raises
    :class:`IdempotentSetError` with the witness of the first violation.
    """
    sig = frame.signature
    idem_set = idempotent_set(frame)
    svs, idems = idem_set.signs, idem_set.idempotents
    expected_terms = 1 << frame.k
    coeff = Fraction(1, expected_terms)
    for sv, f in zip(svs, idems):
        if len(f.terms) != expected_terms or any(abs(c) != coeff for _, c in f.terms):
            raise IdempotentSetError(f"{sig} {sv}: expansion shape is wrong")
    characters = tuple(map(stabilizer_character, idems))
    for check_id, witness_of in IDEMPOTENT_INVARIANTS:
        witness = witness_of(svs, idems, characters)
        if witness is not None:
            raise IdempotentSetError(f"{sig}: {check_id} fails: {witness}")
    return idem_set


def is_idempotent(u: Multivector) -> bool:
    return u * u == u


def is_primitive(f: Multivector, character: StabilizerCharacter | None = None) -> bool:
    """Whether f is a primitive idempotent, for any f.

    ``character`` is f's ``stabilizer_character`` when the caller has it
    (else it is read here); when it proves f f == f no product is formed.

    By Wedderburn, f Cl f of a nonzero idempotent is Mat(r, K), or a sum of
    two such blocks in a semisimple algebra, so f is primitive exactly when
    dim_R f Cl f equals dim_R K.  x -> f x f is a projection onto f Cl f,
    so that dimension is its trace over the blade basis.  The coefficient
    of e_A in f e_A f is sum_B f_B^2 e_B^2 (+1 if e_B commutes with e_A,
    else -1), and the signs of one e_B cancel over all A unless e_B is
    central: 1 and, for odd n, the pseudoscalar e_I.  So the trace is
    2^n (f_0^2 + [n odd] e_I^2 f_I^2).

    Non-idempotent elements are simply not primitive.  The zero element is
    outside the domain of the question and rejected.
    """
    if f.is_zero():
        raise ValueError("primitivity is undefined for the zero element")
    if character is None:
        character = stabilizer_character(f)
    if not _proves_idempotent(f, character) and f * f != f:
        return False
    return _sandwich_trace(f) == K_DIMENSION[classify(f.signature).ktype]


def _sandwich_trace(f: Multivector) -> Fraction:
    """The trace 2^n (f_0^2 + [n odd] e_I^2 f_I^2) of x -> f x f over the
    blade basis: dim_R f Cl f when f is idempotent."""
    sig = f.signature
    trace = f.coefficient(0) ** 2
    if sig.n % 2:
        top = sig.dim - 1
        trace += blade_square_sign(top, sig) * f.coefficient(top) ** 2
    return trace * sig.dim


def central_idempotents(sig: Signature) -> tuple[Multivector, Multivector]:
    """The central pair (1 +- pseudoscalar) / 2 of a semisimple algebra."""
    if classify(sig).simple:
        raise ValueError(f"{sig} is simple; it has no central idempotent split")
    one = sig.scalar(1)
    pseudo = sig.blade(sig.dim - 1)
    return (one + pseudo) * _HALF, (one - pseudo) * _HALF


def center_basis(sig: Signature) -> list[Multivector]:
    """R-basis of the center: the blades that commute with every generator.

    The commutator with a generator sends each blade to a single blade, so
    a coefficient is unconstrained exactly when its blade commutes with
    every generator.  e_A e_i = (-1)**(|A| - [i in A]) e_i e_A, so e_A is
    central when |A| is even if some generator is outside A, and odd if
    some is inside: A = 0, and for odd n the pseudoscalar.
    """
    full = sig.dim - 1
    return [
        sig.blade(mask)
        for mask in range(sig.dim)
        if (mask == full or not mask.bit_count() & 1)
        and (mask == 0 or mask.bit_count() & 1)
    ]
