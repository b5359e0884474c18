"""The division ring K = f Cl(p,q) f of a product idempotent, with canonical units.

f = prod (1 + s_i e_{g_i}) / 2 is a product over a monomial frame (a
``ProductIdempotent``; a multivector is recognized first, and one of any
other form is rejected with a ValueError).  Then e_w f = +-f for every w in
the GF(2) span W of the g_i, and f e_A f is e_A f when e_A commutes with
every g_i and 0 otherwise.  So K has one basis element e_C f per frame
coset C + W of commuting blades, taken at its minimum C, and its real
dimension d is the number of these cosets, a power of two.

Each e_C f squares to e_C^2 f, so the units are read off the masks C_0 = 0
< C_1 < C_2 < C_3: f, then i = e_{C_1} f, j = e_{C_2} f, and k = i j.
A unit whose blade squares to +1 is an exact witness of zero divisors, and
d > 4 is too large for a division ring; either way f is not primitive.  The
multiplication table of the units is the fixed table of R, C or H, and
every product of two units is solved over the units and confirmed against
it, so i**2 == -f holds on the nose and the units are independent.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .classify import K_DIMENSION
from .core import FrozenRecord, Multivector, blade_square_sign, grade
from .idempotents import ProductIdempotent, product_form
from .linalg import ExactSpan

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


def _kcoordinate(num: int, den: int) -> int | Fraction:
    """num / den as a K-coordinate: an int when den divides num, else a
    Fraction."""
    return num // den if num % den == 0 else Fraction(num, den)


class NotPrimitiveError(ValueError):
    """The commutant f Cl f is not a division ring of dimension 1, 2, or 4."""


class UnitConstructionError(RuntimeError):
    """A product of two units differs from the table of R, C or H."""


class DivisionRingBasis(FrozenRecord):
    """Canonical units of K = f Cl f and their exact multiplication table.

    ``units[0]`` is always f itself (the unit of K); the remaining units
    square to -f and pairwise anticommute.  ``table[a][b]`` holds the
    coordinates of ``units[a] * units[b]`` over the units: the fixed table
    of R, C or H, which ``division_ring_basis`` confirms by exact solves.
    """

    _fields = ("idempotent", "units", "ktype", "table")

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

    @cached_property
    def _span(self) -> ExactSpan:
        span = ExactSpan()
        for idx, unit in enumerate(self.units):
            span.add(dict(unit.terms), idx)
        return span

    def element_coordinates(self, u: Multivector) -> KElement | None:
        """Coordinates of u over the units, or None when u is outside K."""
        coords = self._span.coordinates(dict(u.terms))
        if coords is None:
            return None
        return tuple(coords.get(i, _ZERO) for i in range(self.dim))

    def element_from_coordinates(self, coords: KElement) -> Multivector:
        out = self.idempotent.signature.scalar(0)
        for c, unit in zip(coords, self.units):
            if c:
                out = out + unit * c
        return out


def _commute_mask(g: int, n: int) -> int:
    """Mask L with e_a e_g == e_g e_a exactly when popcount(a & L) is even,
    for every blade a of an n-generator algebra.

    e_a e_g == (-1)**(|a| |g| + |a & g|) e_g e_a, so for even |g| the
    condition is |a & g| even, and for odd |g| it is |a| + |a & g| even,
    i.e. |a & ~g| even: L is g, or its complement within the n bits.
    """
    return g ^ ((1 << n) - 1) if grade(g) & 1 else g


def _commuting_cosets(product: ProductIdempotent) -> list[int]:
    """Ascending minima C of the frame cosets C + W whose blades commute
    with every frame mask: the masks with no pivot bit of W's echelon that
    pass each frame mask's ``_commute_mask`` test.  The e_C f span K."""
    n = product.f.signature.n
    pivots = sum(1 << bit for bit in product.echelon)
    tests = [_commute_mask(g, n) for g in product.masks]
    return [
        mask
        for mask in range(1 << n)
        if not mask & pivots and not any((mask & t).bit_count() & 1 for t in tests)
    ]


def _imaginary_unit(f: Multivector, mask: int) -> Multivector:
    """e_mask f, which squares to e_mask^2 f; a square of +f is a witness of
    zero divisors in f Cl f."""
    u = f.signature.blade(mask) * f
    if blade_square_sign(mask, f.signature) > 0:
        raise NotPrimitiveError(
            f"zero divisors in f Cl f: ({u})**2 == 1 * f with positive square"
        )
    return u


def division_ring_basis(f: Multivector | ProductIdempotent) -> DivisionRingBasis:
    """Canonical R-basis of K = f Cl f with exact unit relations.

    Every product of two units is solved over the units; coordinates other
    than those of ``_UNIT_PRODUCTS`` raise UnitConstructionError.  A unit
    depending on the others would get coordinates other than its own row's
    (units[0] * u == u), so this also confirms the units independent.
    Raises NotPrimitiveError when K fails to be a division ring of real
    dimension 1, 2, or 4, which is exactly the primitivity criterion for f,
    and ValueError when f is not a product idempotent.
    """
    product = product_form(f)
    f = product.f
    cosets = _commuting_cosets(product)
    d = len(cosets)
    if d > 4:
        raise NotPrimitiveError("f Cl f has dimension greater than 4")
    units = [f]
    if d >= 2:
        units.append(_imaginary_unit(f, cosets[1]))
    if d == 4:
        # The cosets form a GF(2) plane on which commuting is an alternating
        # form.  K (H, or Mat(2, R) when f is not primitive) is not
        # commutative, so the form is not zero and C_2 anticommutes with C_1.
        units.append(_imaginary_unit(f, cosets[2]))
        units.append(units[1] * units[2])
    table = tuple(
        tuple(tuple(s if t == c else 0 for t in range(d)) for c, s in row[:d])
        for row in _UNIT_PRODUCTS[:d]
    )
    kb = DivisionRingBasis(f, tuple(units), KTYPE_BY_DIM[d], table)
    for a in range(d):
        for b in range(d):
            if kb.element_coordinates(units[a] * units[b]) != table[a][b]:
                c, s = _UNIT_PRODUCTS[a][b]
                raise UnitConstructionError(
                    f"units[{a}] * units[{b}] != {'-' if s < 0 else ''}units[{c}]"
                )
    return kb
