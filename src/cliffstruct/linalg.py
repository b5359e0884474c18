"""Incremental exact Gaussian elimination over sparse rational vectors,
and its GF(2) counterpart over blade bitmasks.

Vectors are dicts mapping totally ordered hashable keys to nonzero Fractions.
The pivot of a vector is its smallest key, which makes every reduction
deterministic and keeps sparse inputs sparse.

A GF(2) echelon is a dict from pivot bit to row mask, where each row's top
bit is its pivot and no other row has that bit set (fully reduced).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Iterable, Mapping

_ZERO = Fraction(0)


def _as_dict(vec: Mapping) -> dict:
    return {k: Fraction(v) for k, v in vec.items() if v}


class ExactSpan:
    """Row-reduced span that can express members over the inserted vectors."""

    def __init__(self) -> None:
        # pivot key -> (reduced vector, expansion over inserted labels)
        self._pivots: dict = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def _eliminate(self, vec: dict) -> tuple[dict, dict]:
        combo: dict = {}
        while vec:
            key = min(vec)
            hit = self._pivots.get(key)
            if hit is None:
                break
            pvec, pexp = hit
            factor = vec[key] / pvec[key]
            for k, v in pvec.items():
                new = vec.get(k, _ZERO) - factor * v
                if new:
                    vec[k] = new
                else:
                    vec.pop(k, None)
            for lbl, cf in pexp.items():
                cur = combo.get(lbl, _ZERO) + factor * cf
                if cur:
                    combo[lbl] = cur
                else:
                    combo.pop(lbl, None)
        return vec, combo

    def add(self, vec: Mapping, label: Hashable) -> bool:
        """Insert a labelled vector; True when it enlarges the span."""
        residual, combo = self._eliminate(_as_dict(vec))
        if not residual:
            return False
        expansion = {label: Fraction(1)}
        for lbl, cf in combo.items():
            cur = expansion.get(lbl, _ZERO) - cf
            if cur:
                expansion[lbl] = cur
            else:
                expansion.pop(lbl, None)
        self._pivots[min(residual)] = (residual, expansion)
        return True

    def contains(self, vec: Mapping) -> bool:
        residual, _ = self._eliminate(_as_dict(vec))
        return not residual

    def coordinates(self, vec: Mapping) -> dict | None:
        """Coordinates of vec over the inserted labels, or None if outside."""
        residual, combo = self._eliminate(_as_dict(vec))
        if residual:
            return None
        return combo


def rank_of(vectors: Iterable[Mapping]) -> int:
    span = ExactSpan()
    for idx, vec in enumerate(vectors):
        span.add(vec, idx)
    return span.rank


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
