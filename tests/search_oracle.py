"""The general-f search for K = f Cl f and a spinor basis of Cl f.

This is the construction ``cliffstruct.division`` and
``cliffstruct.representation`` used for idempotents of every form before
both were narrowed to product idempotents, kept as the independent oracle
for the differential tests.  K is spanned by the projections f e_A f of
every blade, its dimension is their rank by exact elimination, and each
imaginary unit is the first projection not yet spanned whose trace-free
part, made to anticommute with the units already chosen, has a negative
rational square -c**2 f; integer combinations of two such parts are tried
when no single square is a rational square.  The spinor basis is a greedy
scan over every e_A f.
"""

import functools
import math
from fractions import Fraction

from cliffstruct.core import Multivector
from cliffstruct.division import (
    KTYPE_BY_DIM,
    _UNIT_PRODUCTS,
    DivisionRingBasis,
    NotPrimitiveError,
    UnitConstructionError,
)
from cliffstruct.linalg import ExactSpan
from cliffstruct.representation import RepresentationError, SpinorBasis

_ZERO = Fraction(0)
_ONE = Fraction(1)


# one f's projections serve both projection_rank and division_ring_basis
@functools.lru_cache(maxsize=2)
def _projections_general(f: Multivector) -> list[tuple[int, Multivector]]:
    sig = f.signature
    out = []
    for mask in range(sig.dim):
        v = (f * sig.blade(mask)) * f
        if not v.is_zero():
            out.append((mask, v))
    return out


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
    """Canonical R-basis of K = f Cl f for any idempotent f, by the search.

    Raises NotPrimitiveError when K fails to be a division ring of real
    dimension 1, 2, or 4.
    """
    if f.is_zero():
        raise ValueError("f must be a nonzero idempotent")
    if f * f != f:
        raise NotPrimitiveError("f is not idempotent")
    candidates = _projections_general(f)
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


def is_primitive(f: Multivector) -> bool:
    """Whether the search finds f Cl f a division ring of dimension 1, 2, 4."""
    if f.is_zero():
        raise ValueError("primitivity is undefined for the zero element")
    try:
        division_ring_basis(f)
    except NotPrimitiveError:
        return False
    return True


def projection_rank(f: Multivector) -> int:
    """dim_R f Cl f as the rank of the projections f e_A f."""
    span = ExactSpan()
    for mask, v in _projections_general(f):
        span.add(dict(v.terms), mask)
    return span.rank


def greedy_spinor_basis(f: Multivector, kb: DivisionRingBasis) -> SpinorBasis:
    """Greedy blade scan for a right-K basis of Cl(p,q) f, for any f.

    e_A f is appended whenever it is R-independent of the right-K span of the
    elements already chosen; scanning every blade guarantees the final span
    is the whole ideal, and each chosen element must contribute dim(K) fresh
    R-dimensions for S to be a free right K-module.
    """
    sig = f.signature
    span = ExactSpan()
    blades: list[int] = []
    for mask in range(sig.dim):
        v = sig.blade(mask) * f
        if span.contains(dict(v.terms)):
            continue
        t = len(blades)
        blades.append(mask)
        added = 0
        for j, unit in enumerate(kb.units):
            if span.add(dict((v * unit).terms), (t, j)):
                added += 1
        if added != kb.dim:
            raise RepresentationError(
                f"spinor span deficiency at blade {mask}: {added} < {kb.dim}"
            )
    return SpinorBasis(f, tuple(blades), (1,) * len(blades))
