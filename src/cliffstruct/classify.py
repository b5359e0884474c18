"""Structure verdict for Cl(p,q): simplicity, division-ring type, matrix size.

The exponent k = q - r(q - p) uses the Radon-Hurwitz numbers extended to
negative indices, which the classification formula needs whenever p > q.
"""

from __future__ import annotations

from .core import MAX_DIMENSION, FrozenRecord, Signature

_RH_BASE = (0, 1, 2, 2, 3, 3, 3, 3)

K_DIMENSION = {"R": 1, "C": 2, "H": 4}


def radon_hurwitz(i: int) -> int:
    """Radon-Hurwitz number r_i, with r_{i+8} = r_i + 4 in both directions."""
    return _RH_BASE[i % 8] + 4 * (i // 8)


class AlgebraClass(FrozenRecord):
    """Verdict for one signature: Mat(N, K) or Mat(N, K) + Mat(N, K).

    ``signature``, whether the algebra is ``simple``, ``ktype`` (R, C or H),
    the frame size ``k``, ``matrix_size`` N, the number of ``components``
    and ``pq_mod8`` = (p - q) mod 8.
    """

    _fields = (
        "signature", "simple", "ktype", "k", "matrix_size", "components", "pq_mod8"
    )

    def matrix_algebra(self) -> str:
        base = f"Mat({self.matrix_size},{self.ktype})"
        return base if self.simple else f"{base} ⊕ {base}"

    def describe(self) -> str:
        kind = "simple" if self.simple else "semisimple"
        return f"{self.signature} ≅ {self.matrix_algebra()}, {kind}, k={self.k}"

    def to_json_dict(self) -> dict:
        return {
            "p": self.signature.p,
            "q": self.signature.q,
            "simple": self.simple,
            "K": self.ktype,
            "k": self.k,
            "N": self.matrix_size,
            "components": self.components,
        }


def classify(sig: Signature) -> AlgebraClass:
    """Structure verdict for Cl(p,q), driven by (p - q) mod 8 and k."""
    k = sig.q - radon_hurwitz(sig.q - sig.p)
    mod8 = (sig.p - sig.q) % 8
    simple = (sig.p - sig.q) % 4 != 1
    if mod8 in (0, 1, 2):
        ktype = "R"
    elif mod8 in (3, 7):
        ktype = "C"
    else:
        ktype = "H"
    components = 1 if simple else 2
    matrix_size = 1 << (k if simple else k - 1)
    assert sig.dim == components * matrix_size * matrix_size * K_DIMENSION[ktype]
    return AlgebraClass(sig, simple, ktype, k, matrix_size, components, mod8)


def classification_table(max_n: int) -> list[AlgebraClass]:
    """All verdicts with p + q <= max_n, ordered by (n, p)."""
    if max_n > MAX_DIMENSION:
        raise ValueError(f"max_n = {max_n} exceeds the supported cap of {MAX_DIMENSION}")
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    out = []
    for n in range(max_n + 1):
        for p in range(n + 1):
            out.append(classify(Signature(p, n - p)))
    return out


def render_table_text(entries: list[AlgebraClass]) -> str:
    width = max([len(e.matrix_algebra()) for e in entries] + [len("algebra")])
    lines = [f" p  q  n  {'algebra'.ljust(width)}  K  k   N  m"]
    for e in entries:
        sig = e.signature
        lines.append(
            f"{sig.p:2d} {sig.q:2d} {sig.n:2d}  {e.matrix_algebra().ljust(width)}"
            f"  {e.ktype}  {e.k}  {e.matrix_size:2d}  {e.components}"
        )
    return "\n".join(lines)


def table_json(entries: list[AlgebraClass]) -> list[dict]:
    return [e.to_json_dict() for e in entries]
