"""Incremental exact Gaussian elimination over sparse rational vectors,
and its GF(2) counterpart over blade bitmasks.

Vectors are mappings from totally ordered hashable keys to rationals (ints
or Fractions; zero values are ignored).  The pivot of a vector is its
smallest key, which makes every reduction deterministic and keeps sparse
inputs sparse.  Elimination is fraction-free: each vector is scaled to
integers over its common denominator and reduced with integer
cross-multiplication (Bareiss-style, with common factors divided out), so
only the returned coordinates are Fractions.

A GF(2) echelon is a dict from pivot bit to row mask, where each row's top
bit is its pivot and no other row has that bit set (fully reduced).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping
from fractions import Fraction
from math import gcd

def _integer_vector(vec: Mapping) -> tuple[int, dict]:
    """(d, d * vec) with d > 0 the common denominator of vec's values."""
    den = 1
    for v in vec.values():
        d = v.denominator
        if d != 1 and den % d:
            den = den * d // gcd(den, d)
    return den, {k: v.numerator * (den // v.denominator) for k, v in vec.items() if v}


class ExactSpan:
    """Row-reduced span that can express members over the inserted vectors."""

    def __init__(self) -> None:
        # pivot key -> (integer row P, integer expansion E over the inserted
        # labels) with P = sum_l E[l] v_l.  P[pivot key] > 0, so a pivot
        # entry of +-1 reduces without rescaling the vector.
        self._pivots: dict = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def _eliminate(self, vec: Mapping) -> tuple[dict, dict, int]:
        """(rest, combo, scale) with scale * vec - sum_l combo[l] v_l == rest,
        scale > 0, and rest empty or its smallest key not a pivot."""
        scale, rest = _integer_vector(vec)
        combo: dict = {}
        pivots = self._pivots
        while rest:
            key = min(rest)
            hit = pivots.get(key)
            if hit is None:
                break
            prow, pexp = hit
            # rest <- b * rest - a * P clears key; b > 0 keeps scale positive
            a = rest[key]
            b = prow[key]
            g = gcd(a, b)
            if g != 1:
                a //= g
                b //= g
            if b != 1:
                rest = {k: v * b for k, v in rest.items()}
                combo = {lbl: c * b for lbl, c in combo.items()}
                scale *= b
            for k, v in prow.items():
                new = rest.get(k, 0) - a * v
                if new:
                    rest[k] = new
                else:
                    rest.pop(k, None)
            for lbl, e in pexp.items():
                cur = combo.get(lbl, 0) + a * e
                if cur:
                    combo[lbl] = cur
                else:
                    combo.pop(lbl, None)
            if b != 1:
                g = gcd(scale, *rest.values(), *combo.values())
                if g != 1:
                    rest = {k: v // g for k, v in rest.items()}
                    combo = {lbl: c // g for lbl, c in combo.items()}
                    scale //= g
        return rest, combo, scale

    def add(self, vec: Mapping, label: Hashable) -> bool:
        """Insert a labelled vector; True when it enlarges the span."""
        rest, combo, scale = self._eliminate(vec)
        if not rest:
            return False
        expansion = {label: scale}
        for lbl, c in combo.items():
            cur = expansion.get(lbl, 0) - c
            if cur:
                expansion[lbl] = cur
            else:
                expansion.pop(lbl, None)
        key = min(rest)
        g = gcd(*rest.values(), *expansion.values())
        if rest[key] < 0:
            g = -g
        if g != 1:
            rest = {k: v // g for k, v in rest.items()}
            expansion = {lbl: e // g for lbl, e in expansion.items()}
        self._pivots[key] = (rest, expansion)
        return True

    def contains(self, vec: Mapping) -> bool:
        return not self._eliminate(vec)[0]

    def coordinates(self, vec: Mapping) -> dict | None:
        """Coordinates of vec over the inserted labels, or None if outside."""
        rest, combo, scale = self._eliminate(vec)
        if rest:
            return None
        return {lbl: Fraction(c, scale) for lbl, c in combo.items()}


def span_of(vectors: Iterable[Mapping]) -> ExactSpan:
    """The span of the vectors, each labelled by its position."""
    span = ExactSpan()
    for idx, vec in enumerate(vectors):
        span.add(vec, idx)
    return span


def gf2_reduce(mask: int, echelon: Mapping[int, int]) -> int:
    """mask with every pivot bit cleared: the minimum of its coset.

    Because the echelon is fully reduced, clearing one pivot bit never sets
    another, so the rows can be applied in any order.
    """
    for bit, row in echelon.items():
        if mask >> bit & 1:
            mask ^= row
    return mask


def gf2_insert(mask: int, echelon: dict[int, int]) -> bool:
    """Add mask to a fully reduced echelon in place; True when it is new."""
    reduced = gf2_reduce(mask, echelon)
    if not reduced:
        return False
    top = reduced.bit_length() - 1
    for bit, row in echelon.items():
        if row >> top & 1:
            echelon[bit] = row ^ reduced
    echelon[top] = reduced
    return True
