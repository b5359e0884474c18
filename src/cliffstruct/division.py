"""The commutant ring K = f Cl(p,q) f of an idempotent, with canonical units.

For a primitive idempotent f the commutant is a division ring isomorphic to
R, C, or H.  The construction is fully exact: imaginary units are found among
blade projections f e_A f and normalized only by rational factors, so unit
relations such as i**2 == -f hold on the nose.  The multiplication table of
the units is therefore the fixed table of R, C or H; every product of two
units is confirmed against it by exact multivector equality.  When the
commutant fails to be a division ring of real dimension 1, 2, or 4, the
search produces an exact witness and f is reported as not primitive.

When f = prod (1 + s_i e_{g_i}) / 2 is a product over commuting square-one
monomials, e_w f = +-f for every w in the GF(2) span W of the g_i, so the
projections e_A f of one frame coset A + W agree up to sign.  K then keeps one
candidate per frame coset: e_A f at the coset minimum A, for each A whose
blade commutes with the frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .classify import K_DIMENSION
from .core import Multivector, Signature, blade_square_sign, blades_commute, grade
from .linalg import ExactSpan, gf2_insert

KTYPE_BY_DIM = {d: ktype for ktype, d in K_DIMENSION.items()}
UNIT_NAMES = ("1", "i", "j", "k")

# units[a] * units[b] == s * units[c] for (c, s) = _UNIT_PRODUCTS[a][b]: the
# table of H's units 1, i, j, k, whose leading 1x1 and 2x2 blocks are the
# tables of R and C.
_UNIT_PRODUCTS = (
    ((0, 1), (1, 1), (2, 1), (3, 1)),
    ((1, 1), (0, -1), (3, 1), (2, -1)),
    ((2, 1), (3, -1), (0, -1), (1, 1)),
    ((3, 1), (2, 1), (1, -1), (0, -1)),
)

# A K-element is a coordinate tuple against DivisionRingBasis.units.  The
# tables, identities and generator matrices built here hold integral
# coordinates as ints and the others as Fractions; span solves and dumps give
# Fractions.  The two agree on ==, hash and str, and mix exactly.
KElement = tuple

_ZERO = Fraction(0)
_ONE = Fraction(1)
_HALF = Fraction(1, 2)


def _kcoordinate(num: int, den: int) -> int | Fraction:
    """num / den as a K-coordinate: an int when den divides num, else a
    Fraction."""
    return num // den if num % den == 0 else Fraction(num, den)


class NotPrimitiveError(ValueError):
    """The commutant f Cl f is not a division ring of dimension 1, 2, or 4."""


class UnitConstructionError(RuntimeError):
    """No unit with square exactly -f is reachable by rational scaling."""


@dataclass(frozen=True)
class DivisionRingBasis:
    """Canonical units of K = f Cl f and their exact multiplication table.

    ``units[0]`` is always f itself (the unit of K); the remaining units
    square to -f and pairwise anticommute.  ``table[a][b]`` holds the
    coordinates of ``units[a] * units[b]`` over the units: the fixed table
    of R, C or H, which ``division_ring_basis`` confirms by exact products.
    """

    idempotent: Multivector
    units: tuple[Multivector, ...]
    ktype: str
    table: tuple[tuple[KElement, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.units)

    def kzero(self) -> KElement:
        return (0,) * self.dim

    def kone(self) -> KElement:
        return (1,) + (0,) * (self.dim - 1)

    def kadd(self, x: KElement, y: KElement) -> KElement:
        return tuple(a + b for a, b in zip(x, y))

    def kneg(self, x: KElement) -> KElement:
        return tuple(-a for a in x)

    @cached_property
    def _sparse_table(self) -> tuple:
        """``table`` as (index, t) pairs of its nonzero coordinates, with the
        +-1 entries of canonical units as ints."""
        return tuple(
            tuple(
                tuple(
                    (idx, int(t) if t in (1, -1) else t)
                    for idx, t in enumerate(entry)
                    if t
                )
                for entry in row
            )
            for row in self.table
        )

    def kmul(self, x: KElement, y: KElement) -> KElement:
        out = [0] * self.dim
        table = self._sparse_table
        for a, xa in enumerate(x):
            if not xa:
                continue
            row = table[a]
            for b, yb in enumerate(y):
                if not yb:
                    continue
                c = xa * yb
                for idx, t in row[b]:
                    if t == 1:
                        out[idx] += c
                    elif t == -1:
                        out[idx] -= c
                    else:
                        out[idx] += c * t
        return tuple(out)

    def element_coordinates(self, u: Multivector) -> KElement | None:
        """Coordinates of u over the units, or None when u is outside K."""
        span = ExactSpan()
        for idx, unit in enumerate(self.units):
            span.add(dict(unit.terms), idx)
        coords = span.coordinates(dict(u.terms))
        if coords is None:
            return None
        return tuple(coords.get(i, _ZERO) for i in range(self.dim))

    def element_from_coordinates(self, coords: KElement) -> Multivector:
        out = self.idempotent.signature.scalar(0)
        for c, unit in zip(coords, self.units):
            if c:
                out = out + unit * c
        return out


def _expand_product(sig: Signature, monomials, signs) -> Multivector:
    """The expanded product of the factors (1 + s_i e_{m_i}) / 2, in order."""
    f = sig.scalar(1)
    for mask, s in zip(monomials, signs):
        f = f * ((sig.scalar(1) + sig.blade(mask, s)) * _HALF)
    return f


def _half_product_form(f: Multivector):
    """Recognize f as an expanded product of commuting factors (1 + s*e_m)/2.

    Such an f has 2^j terms with coefficients +-1/2^j whose masks form a
    GF(2)-closed set.  Returns (generator_masks, signs) or None; the
    recovered generators are checked to commute, square to +1, and reproduce
    f exactly, so a non-None result is trustworthy.
    """
    terms = f.terms
    count = len(terms)
    if count == 0 or count & (count - 1):
        return None
    j = count.bit_length() - 1
    if terms[0][0] != 0:
        return None
    unit_coeff = Fraction(1, 1 << j)
    masks = []
    for mask, coeff in terms:
        if coeff != unit_coeff and coeff != -unit_coeff:
            return None
        masks.append(mask)
    mask_set = set(masks)
    for x in masks:
        for y in masks:
            if x ^ y not in mask_set:
                return None
    echelon: dict[int, int] = {}
    basis = [m for m in masks if gf2_insert(m, echelon)]
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
    if _expand_product(sig, basis, signs) != f:
        return None
    return tuple(basis), signs


def _projections_general(f: Multivector) -> list[tuple[int, Multivector]]:
    sig = f.signature
    out = []
    for mask in range(sig.dim):
        v = (f * sig.blade(mask)) * f
        if not v.is_zero():
            out.append((mask, v))
    return out


def commutant_candidates(f: Multivector) -> list[tuple[int, Multivector]]:
    """Nonzero projections f e_A f spanning K = f Cl f, in ascending mask
    order: for every blade A, or one per frame coset for product-form f.

    When f is an expanded half-sum product, f e_A f equals e_A f for blades
    commuting with every product generator and vanishes otherwise.  Every
    other e_B f of the coset A + W is +-e_A f, and e_A f of distinct cosets
    have disjoint supports, so keeping the coset minima (no pivot bit of W's
    echelon set) keeps the span and the first candidate of each coset in the
    ascending order ``_search_unit`` scans.
    """
    form = _half_product_form(f)
    if form is None:
        return _projections_general(f)
    gens, _ = form
    sig = f.signature
    tests = [_commute_mask(g, sig.n) for g in gens]
    frame: dict[int, int] = {}
    for g in gens:
        gf2_insert(g, frame)
    pivots = sum(1 << bit for bit in frame)
    out = []
    for mask in range(sig.dim):
        if mask & pivots:
            continue
        for t in tests:
            if (mask & t).bit_count() & 1:
                break
        else:
            out.append((mask, sig.blade(mask) * f))
    return out


def _commute_mask(g: int, n: int) -> int:
    """Mask L with e_a e_g == e_g e_a exactly when popcount(a & L) is even,
    for every blade a of an n-generator algebra.

    e_a e_g == (-1)**(|a| |g| + |a & g|) e_g e_a, so for even |g| the
    condition is |a & g| even, and for odd |g| it is |a| + |a & g| even,
    i.e. |a & ~g| even: L is g, or its complement within the n bits.
    """
    return g ^ ((1 << n) - 1) if grade(g) & 1 else g


def _rational_sqrt(x: Fraction) -> Fraction | None:
    if x <= 0:
        return None
    num = math.isqrt(x.numerator)
    den = math.isqrt(x.denominator)
    if num * num == x.numerator and den * den == x.denominator:
        return Fraction(num, den)
    return None


def _scalar_multiple_of(f: Multivector, u: Multivector) -> Fraction | None:
    """c with u == c * f, or None when u is not a rational multiple of f."""
    if u.is_zero():
        return _ZERO
    lead_mask, lead_coeff = f.terms[0]
    c = u.coefficient(lead_mask) / lead_coeff
    if c and f * c == u:
        return c
    return None


def _orthogonalized(
    f: Multivector, imaginary: list[Multivector], v: Multivector
) -> Multivector | None:
    """Trace-free part of v made anticommuting with the chosen imaginary units.

    Solves v**2 = alpha*f + beta*v to strip the trace, then corrects against
    each existing unit u via the symmetric product u*w + w*u = tau*f.  Returns
    None when v does not behave quadratically over f (impossible inside a
    division ring, so the caller just skips such candidates).
    """
    span = ExactSpan()
    span.add(dict(f.terms), "f")
    span.add(dict(v.terms), "v")
    coords = span.coordinates(dict((v * v).terms))
    if coords is None:
        return None
    beta = coords.get("v", _ZERO)
    w = v - f * (beta / 2)
    for u in imaginary:
        tau = _scalar_multiple_of(f, u * w + w * u)
        if tau is None:
            return None
        if tau:
            w = w + u * (tau / 2)
    return w


def _classify_square(f: Multivector, w: Multivector) -> Fraction | None:
    """c with w**2 == c * f; raises NotPrimitiveError for c >= 0 witnesses."""
    c = _scalar_multiple_of(f, w * w)
    if c is None:
        return None
    if c == 0:
        raise NotPrimitiveError(
            f"nilpotent element in f Cl f: ({w})**2 == 0 with w != 0"
        )
    if c > 0:
        raise NotPrimitiveError(
            f"zero divisors in f Cl f: ({w})**2 == {c} * f with positive square"
        )
    return c


def _search_unit(
    f: Multivector,
    candidates: list[tuple[int, Multivector]],
    imaginary: list[Multivector],
) -> Multivector:
    """First projection candidate normalizable to a unit with square -f.

    Candidates already spanned by f and the existing units are skipped.  A
    candidate whose trace-free part squares to a nonnegative multiple of f is
    an exact witness against primitivity.  Trace-free parts whose square is a
    negative non-square rational are kept and retried in small integer
    combinations before giving up.
    """
    base = ExactSpan()
    base.add(dict(f.terms), "f")
    for idx, u in enumerate(imaginary):
        base.add(dict(u.terms), idx)
    leftovers: list[Multivector] = []
    for _, v in candidates:
        if base.contains(dict(v.terms)):
            continue
        w = _orthogonalized(f, imaginary, v)
        if w is None:
            continue
        c = _classify_square(f, w)
        if c is None:
            continue
        root = _rational_sqrt(-c)
        if root is not None:
            return w * (_ONE / root)
        leftovers.append(w)
    for ia in range(len(leftovers)):
        for ib in range(ia + 1, len(leftovers)):
            for x in (1, 2, 3):
                for y in (-3, -2, -1, 1, 2, 3):
                    w = leftovers[ia] * x + leftovers[ib] * y
                    if w.is_zero():
                        continue
                    c = _classify_square(f, w)
                    if c is None:
                        continue
                    root = _rational_sqrt(-c)
                    if root is not None:
                        return w * (_ONE / root)
    raise UnitConstructionError(
        "no element with square exactly -f is reachable by rational scaling"
    )


def division_ring_basis(f: Multivector) -> DivisionRingBasis:
    """Canonical R-basis of K = f Cl f with exact unit relations.

    Every product of two units is confirmed against ``_UNIT_PRODUCTS``; the
    relations also make the units independent (i = c f would square to
    c**2 f, and for H the units are the image of a division algebra under a
    map that is nonzero on 1), so the table's coordinates are the constant's.
    Raises NotPrimitiveError when K fails to be a division ring of real
    dimension 1, 2, or 4, which is exactly the primitivity criterion for f.
    """
    if f.is_zero():
        raise ValueError("f must be a nonzero idempotent")
    if f * f != f:
        raise NotPrimitiveError("f is not idempotent")
    candidates = commutant_candidates(f)
    span = ExactSpan()
    for mask, v in candidates:
        span.add(dict(v.terms), mask)
        if span.rank > 4:
            raise NotPrimitiveError("f Cl f has dimension greater than 4")
    d = span.rank
    if d not in KTYPE_BY_DIM:
        raise NotPrimitiveError(f"f Cl f has dimension {d}, not 1, 2, or 4")
    units = [f]
    if d >= 2:
        units.append(_search_unit(f, candidates, []))
    if d == 4:
        j = _search_unit(f, candidates, [units[1]])
        units.append(j)
        units.append(units[1] * j)
    table = []
    for a in range(d):
        row = []
        for b in range(d):
            c, s = _UNIT_PRODUCTS[a][b]
            if units[a] * units[b] != (units[c] if s == 1 else -units[c]):
                raise UnitConstructionError(
                    f"units[{a}] * units[{b}] != {'-' if s < 0 else ''}units[{c}]"
                )
            row.append(tuple(s if t == c else 0 for t in range(d)))
        table.append(tuple(row))
    return DivisionRingBasis(f, tuple(units), KTYPE_BY_DIM[d], tuple(table))
