"""Exact Gaussian elimination over Fraction-valued sparse vectors.

This is the rational-arithmetic ``ExactSpan`` that ``cliffstruct.linalg``
used before its elimination became fraction-free, kept unchanged as the
independent oracle for the differential tests: every coefficient is a
``Fraction`` and each pivot step divides by the pivot entry.
"""

from fractions import Fraction
from typing import Hashable, Mapping

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
