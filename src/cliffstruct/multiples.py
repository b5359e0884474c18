"""The left multiples e_X f of one element f of Cl(p,q), read once into a
table of proportionality classes.

Each e_X f is a signed permutation of f's integer numerators, read off them
with no product formed.  Rows equal up to a rational factor share one
content-free integer class row, keyed by the exact row itself, so a class
only ever holds proportional rows.  The table knows nothing of frames or
cosets, which keeps the checks that read it independent of how the
representation was built.

Every row is a nonzero multiple of its class row, so the rows span what the
class rows span, and the class count bounds their rank from above: a rank
modulo a prime that reaches it proves the rank (``_independent``), and
anything short of it decides nothing.  For a spinor basis whose every s_t
is exactly +-e_{B_t} f, e_a s_t = +-e_{a xor B_t} f, so each blade matrix
column is +- the coordinates of one class row (``_table_matrices``).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .core import FrozenRecord, Multivector, Signature, _blade_times, _sign_masks
from .linalg import rank_mod_p
from .representation import (
    Component,
    KMatrix,
    RepresentationError,
    SpinorBasis,
    _column,
)


class _LeftMultiples(FrozenRecord):
    """The 2^n left multiples e_X f of one element f by class.

    ``rows`` holds one content-free integer row per class, its leading
    (smallest-mask) entry positive, in order of first appearance (f == 0
    has the one class {}), and ``of[X]`` is 2 c + s when
    e_X f == (-1)**s * scale * rows[c].
    """

    _fields = ("scale", "rows", "of")

    def multivector(self, sig: Signature, c: int) -> Multivector:
        """scale * rows[c] as an element of Cl(sig)."""
        return Multivector(
            sig, tuple((m, self.scale * v) for m, v in self.rows[c].items())
        )


def _left_multiples(f: Multivector) -> _LeftMultiples:
    """f's table of left multiples, keyed by each exact content-free row."""
    den, masks, nums = f._integer_terms()
    content = gcd(*nums)
    signs = _sign_masks(f.signature)
    terms = [(b, c // content, signs[b]) for b, c in zip(masks, nums)]
    classes: dict[tuple, int] = {}
    rows = []
    of = []
    for x in range(f.signature.dim):
        row = [(x ^ b, -c if (x & q).bit_count() & 1 else c) for b, c, q in terms]
        row.sort()
        negated = bool(row) and row[0][1] < 0
        key = tuple((m, -c) for m, c in row) if negated else tuple(row)
        cls = classes.get(key)
        if cls is None:
            cls = classes[key] = len(rows)
            rows.append(dict(key))
        of.append(2 * cls + negated)
    return _LeftMultiples(Fraction(content, den), tuple(rows), tuple(of))


def _independent(rows) -> bool:
    """Whether a rank modulo a prime proves the integer rows linearly
    independent over Q; False decides nothing."""
    return rank_mod_p(rows, len(rows)) == len(rows)


def _basis_table(sig: Signature, sb: SpinorBasis) -> _LeftMultiples | None:
    """The table of f = sb.idempotent when f is in Cl(sig) and every s_t is
    exactly blade_signs[t] e_{B_t} f (minus when the sign is negative), else
    None."""
    f = sb.idempotent
    if f.signature != sig or not len(sb.blades) == len(sb.blade_signs) == sb.size:
        return None
    den, masks, nums = f._integer_terms()
    signs = _sign_masks(sig)
    for b, sign, s_t in zip(sb.blades, sb.blade_signs, sb.elements):
        if s_t.signature != sig or not 0 <= b < sig.dim:
            return None
        s_den, s_masks, s_nums = s_t._integer_terms()
        if s_den != den or dict(zip(s_masks, s_nums)) != _blade_times(
            b, sign < 0, zip(masks, nums), signs
        ):
            return None
    return _left_multiples(f)


def _table_matrices(
    sig: Signature, comp: Component, table: _LeftMultiples
) -> list[KMatrix]:
    """Every blade's matrix in a spinor basis s_t = +-e_{B_t} f, from f's
    table: e_a s_t = +-e_{a xor B_t} f, so column t of e_a's matrix is +-
    the coordinates of one class row.

    Each class is resolved on first use, as ``_matrix_of`` resolves a
    column, and its negation is kept beside it.  Blades and columns are
    visited in ``_matrix_of``'s order, so a class outside S fails at the
    same column, and a basis with no element resolves nothing.
    """
    kb, sb = comp.kbasis, comp.basis
    signs = _sign_masks(sig)
    flips = [sign < 0 for sign in sb.blade_signs]
    resolved: dict[int, tuple] = {}

    def column(code: int) -> tuple:
        col = resolved.get(code)
        if col is None:
            if code & 1:
                col = tuple((t, kb.kneg(e)) for t, e in column(code ^ 1))
            else:
                col = _column(kb, sb, table.multivector(sig, code >> 1))
                if col is None:
                    raise RepresentationError("product left the spinor ideal")
                col = tuple(col)
            resolved[code] = col
        return col

    out = []
    for a in range(sig.dim):
        columns = [
            column(table.of[a ^ b] ^ ((a & signs[b]).bit_count() & 1) ^ flip)
            for b, flip in zip(sb.blades, flips)
        ]
        out.append(KMatrix(kb, sb.size, tuple(columns)))
    return out
