"""Spinor bases of minimal left ideals and exact matrices over K.

The left ideal S = Cl(p,q) f of a primitive idempotent f is a right module
over K = f Cl f, and the action u s_t = sum_i s_i lambda_it defines the
matrix of u with entries lambda_it in K.  Keeping the K-scalars on the right
of the basis spinors is what makes u -> gamma(u) a homomorphism when K is
noncommutative.  Semisimple algebras get a pair of matrices, one for S and
one for its grade-involution image hat(S) = Cl hat(f), each read off its
own spinor basis.  The involution is an algebra automorphism sending each
generator e_i to -e_i, and on the image basis hat(s_t) over the image units
the generator matrices of hat(S) are the negated matrices of S, entry by
entry, as the tests check.

The spinor basis is built for a product idempotent
f = prod (1 + s_i e_{g_i}) / 2 over commuting square-one monomials (a
``ProductIdempotent``; a multivector of any other form is rejected with a
ValueError).  Then e_A f = +-e_{A xor w} f for every w in the GF(2) span W
of the g_i, and each K-unit is c_j e_{m_j} f.  So S has one basis spinor
s_t = +-e_{B_t} f per coset of U = W + span{m_j}, its blade B_t the coset
minimum.  A spinor basis is a basis over K and means nothing without it,
so a ``SpinorBasis`` stores K's ``DivisionRingBasis`` (which holds f), the
blades and the signs.

By f's stabilizer character (``idempotents.stabilizer_character``), e_h f
== chi(h) f for each h in a subspace H, and left multiples e_X f in
distinct cosets of H have disjoint supports.  When each f u_j is +-e_{M_j}
f, s_t u_j is +-e_Y f for Y = B_t xor M_j, and the coset index
(``SpinorBasis._coset_index``) keys it by the minimum of Y + H.  So e_a s_t
= +-e_X f, X = a xor B_t, is +-1 times the one s_t u_j of X + H, and
``_blade_matrices`` reads each column with no product formed: for the
generators of ``repr`` (``SpinorBasis.generator_matrices``), for every blade
that verify checks and for the blades that ``represent`` sums.  An exact
span solve decides what the index cannot, and all of ``spinor_coordinates``,
and it alone reports a product outside S.  When the index holds every coset
of H, the s_t u_j span all of Cl f and each column is one +-unit, so with
the unit table each generator acts on the s_t u_j as a signed permutation.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property

from .classify import classify
from .core import (
    FrozenRecord,
    Multivector,
    Signature,
    SignatureMismatchError,
    _blade_times,
    _field,
    _integer,
    _integer_field,
    _list,
    _list_field,
    _sign_masks,
    blades_commute,
    grade,
    multivector_from_json_dict,
    multivector_to_json_dict,
)
from .division import (
    KTYPE_BY_DIM,
    UNIT_NAMES,
    DivisionRingBasis,
    KElement,
    _kcoordinate,
    division_ring_basis,
)
from .idempotents import (
    MonomialFrame,
    ProductIdempotent,
    StabilizerCharacter,
    find_frame,
    product_form,
    product_idempotent,
    stabilizer_character,
)
from .linalg import ExactSpan, gf2_insert, gf2_reduce

_ZERO = Fraction(0)


class RepresentationError(RuntimeError):
    """A structural defect while building or applying a representation."""


class SpinorBasis(FrozenRecord):
    """Right-K basis s_1..s_N of S = Cl(p,q) f over K = f Cl f: ``kbasis``,
    the DivisionRingBasis of K, whose idempotent is f, and s_t =
    blade_signs[t] e_{B_t} f with B_t = blades[t]."""

    _fields = ("kbasis", "blades", "blade_signs")

    @property
    def idempotent(self) -> Multivector:
        return self.kbasis.idempotent

    @property
    def size(self) -> int:
        return len(self.blades)

    @cached_property
    def elements(self) -> tuple[Multivector, ...]:
        """The spinors s_t, built on first use."""
        f = self.idempotent
        return tuple(
            f.signature.blade(mask, sign) * f
            for mask, sign in zip(self.blades, self.blade_signs)
        )

    @cached_property
    def _solver(self) -> ExactSpan:
        """The real basis s_t u_j, keyed (t, j), for exact span solves."""
        span = ExactSpan()
        for t, s in enumerate(self.elements):
            for j, unit in enumerate(self.kbasis.units):
                span.add(dict((s * unit).terms), (t, j))
        return span

    @cached_property
    def _coset_index(self) -> tuple[dict, StabilizerCharacter, dict] | None:
        """(echelon of H, chi, cosets) for f's stabilizer character chi on
        H: cosets maps the minimum of Y + H to (t, j, Y, sign) with s_t u_j
        == blade_signs[t] e_{B_t} (f u_j) == sign e_Y f, Y = B_t xor M_j,
        when each f u_j is +-e_{M_j} f term by term.  Distinct cosets have
        disjoint supports, so the s_t u_j are independent.  None when f has
        no character, some f u_j is not +-e_M f, two s_t u_j share a coset
        or there are none."""
        f = self.idempotent
        chi = stabilizer_character(f)
        if chi is None:
            return None
        signs = _sign_masks(f.signature)
        units = []
        for unit in self.kbasis.units:
            got = dict((f * unit).terms)
            m = min(got, default=0) ^ f.terms[0][0]
            want = _blade_times(m, False, f.terms, signs)
            if got not in (want, {b: -c for b, c in want.items()}):
                return None
            units.append((m, 1 if got == want else -1))
        echelon: dict[int, int] = {}
        for h in chi.values:
            gf2_insert(h, echelon)
        cosets = {
            gf2_reduce(b ^ m, echelon): (
                t, j, b ^ m, bs * s * (-1) ** (b & signs[m]).bit_count()
            )
            for t, (b, bs) in enumerate(zip(self.blades, self.blade_signs))
            for j, (m, s) in enumerate(units)
        }
        complete = 0 < len(cosets) == self.size * len(units)
        return (echelon, chi, cosets) if complete else None

    @cached_property
    def generator_matrices(self) -> tuple[KMatrix, ...]:
        """gamma(e_i) for each generator, read once by ``_blade_matrices``:
        the gammas of ``build_representation``, and of the left-multiplication
        premise that ``verify`` proves.  Raises RepresentationError when some
        e_i s_t leaves S."""
        n = self.idempotent.signature.n
        return tuple(_blade_matrices(self, [1 << i for i in range(n)]))


class KMatrix(FrozenRecord):
    """Matrix with entries in K, stored by columns: ``basis``, the
    DivisionRingBasis; ``rows``, the row count; and ``columns``, per column
    the (row, entry) pairs of its nonzero entries in ascending row order.
    An entry is a coordinate tuple over the units.  In a monomial spinor
    basis every blade matrix has one entry per column; the dense
    ``entries`` are derived.

    Entries multiply in order (left factor's entries stay on the left), which
    matters for quaternionic K.
    """

    _fields = ("basis", "rows", "columns")

    @property
    def cols(self) -> int:
        return len(self.columns)

    @property
    def entries(self) -> tuple[tuple[KElement, ...], ...]:
        """The dense rows, built on each access; every zero is
        ``basis.kzero()``."""
        zero = self.basis.kzero()
        dense = [[zero] * self.cols for _ in range(self.rows)]
        for t, column in enumerate(self.columns):
            for i, entry in column:
                dense[i][t] = entry
        return tuple(map(tuple, dense))

    @staticmethod
    def from_rows(kb: DivisionRingBasis, rows) -> "KMatrix":
        """The matrix of dense rows, each as long as the first."""
        cols = len(rows[0]) if rows else 0
        return KMatrix(
            kb,
            len(rows),
            tuple(
                tuple((i, row[t]) for i, row in enumerate(rows) if any(row[t]))
                for t in range(cols)
            ),
        )

    @staticmethod
    def identity(kb: DivisionRingBasis, size: int) -> "KMatrix":
        return KMatrix.scalar_matrix(kb, size, 1)

    @staticmethod
    def scalar_matrix(
        kb: DivisionRingBasis, size: int, value: int | Fraction
    ) -> "KMatrix":
        value = Fraction(value)
        if not value:
            return KMatrix(kb, size, ((),) * size)
        diag = (_kcoordinate(value.numerator, value.denominator),)
        diag += (0,) * (kb.dim - 1)
        return KMatrix(kb, size, tuple(((t, diag),) for t in range(size)))

    def _check_compatible(self, other: "KMatrix", need_square: bool = False) -> None:
        if self.basis != other.basis:
            raise ValueError("matrices are over different unit bases")
        if need_square and self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.cols} columns vs {other.rows} rows")

    def __matmul__(self, other):
        if not isinstance(other, KMatrix):
            return NotImplemented
        self._check_compatible(other, need_square=True)
        kb = self.basis
        kmul = kb.kmul
        left = self.columns
        # Column t of the product meets each nonzero (m, y) of other's column
        # t with the nonzero entries of self's column m: generator images
        # have one entry per column, so a product visits about N pairs.
        columns = []
        for column in other.columns:
            acc: dict[int, KElement] = {}
            for m, y in column:
                for i, x in left[m]:
                    prod = kmul(x, y)
                    cur = acc.get(i)
                    acc[i] = prod if cur is None else kb.kadd(cur, prod)
            columns.append(_nonzero(acc))
        return KMatrix(kb, self.rows, tuple(columns))

    def __add__(self, other):
        if not isinstance(other, KMatrix):
            return NotImplemented
        self._check_compatible(other)
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch in matrix addition")
        kb = self.basis
        columns = []
        for left, right in zip(self.columns, other.columns):
            acc = dict(left)
            for i, y in right:
                cur = acc.get(i)
                acc[i] = y if cur is None else kb.kadd(cur, y)
            columns.append(_nonzero(acc))
        return KMatrix(kb, self.rows, tuple(columns))

    def scale_right(self, mu: KElement) -> "KMatrix":
        """Entrywise right multiplication by mu (the right K-action)."""
        kb = self.basis
        return KMatrix(
            kb,
            self.rows,
            tuple(
                _nonzero({i: kb.kmul(e, mu) for i, e in column})
                for column in self.columns
            ),
        )


def _nonzero(acc: dict[int, KElement]) -> tuple[tuple[int, KElement], ...]:
    """The nonzero entries of a column given by row, in ascending row order."""
    return tuple((i, acc[i]) for i in sorted(acc) if any(acc[i]))


class Component(FrozenRecord):
    """One simple block: the spinor basis, with its division ring, and the
    generator matrices."""

    _fields = ("basis", "gammas")

    @property
    def kbasis(self) -> DivisionRingBasis:
        return self.basis.kbasis


class Representation(FrozenRecord):
    """The signature, its AlgebraClass, the MonomialFrame and one Component
    per simple block."""

    _fields = ("signature", "algebra_class", "frame", "components")

    @property
    def simple(self) -> bool:
        return self.algebra_class.simple


def _cosets(product: ProductIdempotent, kb: DivisionRingBasis) -> dict[int, int]:
    """Fully reduced echelon of U = W + span{m_j}, for a product idempotent
    f with frame span W and the units u_j = c_j e_{m_j} f of kb.

    Raises RepresentationError when a unit is not c * e_m f for a blade e_m
    commuting with the frame, or when S = Cl f is not a free right K-module,
    i.e. the d unit masks do not fill U / W with rank(U) = k + log2(d).
    """
    f = product.f
    sig = f.signature
    scale = f.terms[0][1]
    frame = product.echelon
    ideal = dict(frame)
    cosets = set()
    for j, u in enumerate(kb.units):
        if u.is_zero():
            raise RepresentationError(f"unit {j} is zero")
        m, c = u.terms[0]
        if any(not blades_commute(m, g) for g in product.masks) or u != sig.blade(
            m, c / scale
        ) * f:
            raise RepresentationError(
                f"unit {j} is not a multiple of e_A f for a blade commuting with f"
            )
        gf2_insert(m, ideal)
        cosets.add(gf2_reduce(m, frame))
    if len(cosets) != kb.dim or len(ideal) != len(frame) + kb.dim.bit_length() - 1:
        raise RepresentationError(
            f"S = Cl f is not a free right K-module: unit masks span rank"
            f" {len(ideal) - len(frame)} over the frame"
        )
    return ideal


def spinor_basis(
    f: Multivector | ProductIdempotent, kb: DivisionRingBasis
) -> SpinorBasis:
    """Right-K basis s_t = e_{A_t} f of the left ideal Cl(p,q) f, for a
    product idempotent f; a multivector of any other form raises ValueError.

    The right-K span of e_A f is spanned by the e_B f with B in the coset
    A + U, so the basis blades are the coset minima: the masks with no pivot
    bit of U's fully reduced echelon, in ascending order.
    """
    product = product_form(f)
    pivots = sum(1 << bit for bit in _cosets(product, kb))
    blades = tuple(m for m in range(product.f.signature.dim) if not m & pivots)
    return SpinorBasis(kb, blades, (1,) * len(blades))


def _solve(sb: SpinorBasis, psi: Multivector) -> list[tuple[int, KElement]] | None:
    """The nonzero K-coordinates of psi as (t, entry) pairs by exact span
    solve, or None if psi is not in S."""
    coords = sb._solver.coordinates(dict(psi.terms))
    if coords is None:
        return None
    column = []
    d = sb.kbasis.dim
    for t in range(sb.size):
        entry = tuple(coords.get((t, j), _ZERO) for j in range(d))
        if any(entry):
            column.append((t, entry))
    return column


def spinor_coordinates(sb: SpinorBasis, psi: Multivector) -> tuple[KElement, ...] | None:
    """K-coordinates of psi over the spinor basis, or None if psi is not in S."""
    if psi.signature != sb.idempotent.signature:
        raise SignatureMismatchError(f"{psi.signature} vs {sb.idempotent.signature}")
    column = _solve(sb, psi)
    if column is None:
        return None
    out = [sb.kbasis.kzero()] * sb.size
    for t, entry in column:
        out[t] = entry
    return tuple(out)


def _matrix_of(u: Multivector, sb: SpinorBasis) -> KMatrix:
    """Matrix of u: the sum of c gamma(e_a) over the terms c e_a of u, each
    scalar c acting on the right as c times the unit 1 of K."""
    zeros = (0,) * (sb.kbasis.dim - 1)
    mats = _blade_matrices(sb, [mask for mask, _ in u.terms])
    return sum(
        (mat.scale_right((c, *zeros)) for mat, (_, c) in zip(mats, u.terms)),
        KMatrix.scalar_matrix(sb.kbasis, sb.size, 0),
    )


def _blade_matrices(sb: SpinorBasis, masks) -> list[KMatrix]:
    """gamma(e_a) for each a in masks, column t the coordinates of e_a s_t.

    With s_t = +-e_{B_t} f, e_a s_t == +-e_X f for X = a xor B_t, and each
    (X, sign) is resolved once.  When the coset index holds X + H at (t, j,
    Y, sign), e_X f == (-1)**popcount(Y & signs[w]) chi(w) e_Y f for w = X
    xor Y, one +-1 at (t, j) found in O(k) bit operations; otherwise it is
    solved, raising RepresentationError when it is outside S.
    """
    kb = sb.kbasis
    f = kb.idempotent
    signs = _sign_masks(f.signature)
    echelon, chi, cosets = sb._coset_index or ({}, None, {})
    spinors = [(b, sign < 0) for b, sign in zip(sb.blades, sb.blade_signs)]
    resolved: dict[int, tuple] = {}

    def column(code: int) -> tuple:
        col = resolved.get(code)
        if col is None:
            x, negate = code >> 1, code & 1
            hit = cosets.get(gf2_reduce(x, echelon))
            if hit:
                t, j, y, sign = hit
                w = x ^ y
                parity = (y & signs[w]).bit_count() + negate
                lam = sign * chi.values[w] * (-1) ** parity
                pairs = [(t, tuple(lam if jj == j else 0 for jj in range(kb.dim)))]
            else:
                pairs = _solve(sb, f.signature.blade(x, -1 if negate else 1) * f)
                if pairs is None:
                    raise RepresentationError("product left the spinor ideal")
            col = resolved[code] = tuple(pairs)
        return col

    return [
        KMatrix(
            kb,
            sb.size,
            tuple(
                column((a ^ b) << 1 | (((a & signs[b]).bit_count() ^ flip) & 1))
                for b, flip in spinors
            ),
        )
        for a in masks
    ]


def represent(u: Multivector, rep: Representation) -> KMatrix:
    """Matrix of u on the spinor basis: u s_t = sum_i s_i * entry[i][t]."""
    if u.signature != rep.signature:
        raise SignatureMismatchError(f"{u.signature} vs {rep.signature}")
    if not rep.simple:
        raise ValueError("semisimple algebras are handled by represent_semisimple")
    return _matrix_of(u, rep.components[0].basis)


def represent_semisimple(
    u: Multivector, rep: Representation
) -> tuple[KMatrix, KMatrix]:
    """Pair of matrices of u on S and on its grade-involution image."""
    if u.signature != rep.signature:
        raise SignatureMismatchError(f"{u.signature} vs {rep.signature}")
    if rep.simple:
        raise ValueError("simple algebras are handled by represent")
    return tuple(_matrix_of(u, comp.basis) for comp in rep.components)


def build_representation(source: Signature | MonomialFrame) -> Representation:
    """Full pipeline: frame, idempotent, division ring, basis, matrices.  A
    signature's frame is found first; a MonomialFrame is used as given."""
    frame = source if isinstance(source, MonomialFrame) else find_frame(source)
    sig = frame.signature
    cls = classify(sig)
    product = product_idempotent(frame, (1,) * frame.k)
    kb = division_ring_basis(product)
    sb = spinor_basis(product, kb)
    components = [Component(sb, sb.generator_matrices)]
    if not cls.simple:
        # The second half-spinor space is the grade-involution image of the
        # first, over the images of f, the units and the spinors, and its
        # gammas are read off its own coset index.  The involution is an
        # automorphism sending e_i to -e_i, so the image units keep the
        # first units' relations, and those gammas are the negated first
        # ones (each e_i s_t == s_s u_j * lam maps to e_i hat(s_t) ==
        # hat(s_s) hat(u_j) * (-lam)), as the tests check.
        fh = product.f.involute()
        kb2 = DivisionRingBasis(
            fh,
            tuple(u.involute() for u in kb.units),
            kb.ktype,
            kb.table,
        )._with_cached(unit_defect=kb.unit_defect)
        sb2 = SpinorBasis(
            kb2, sb.blades, tuple(-1 if grade(m) & 1 else 1 for m in sb.blades)
        )
        components.append(Component(sb2, sb2.generator_matrices))
    if (
        len(components) != cls.components
        or sb.size != cls.matrix_size
        or kb.ktype != cls.ktype
    ):
        raise RepresentationError(
            f"constructed representation disagrees with the classification of {sig}"
        )
    return Representation(sig, cls, frame, tuple(components))


# ---------------------------------------------------------------------------
# JSON interchange


# the schema's ``rational``: an integer or a fraction, as a string
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _integer_list(data: Mapping, key: str, prefix: str = "") -> tuple[int, ...]:
    return tuple(
        _integer(m, f"{prefix}{key}[{i}]")
        for i, m in enumerate(_list_field(data, key, prefix))
    )


def _kelement_from_json(data, where: str, d: int) -> KElement:
    """A K-element from its list of d rational strings; anything else, and a
    zero denominator, raises a ValueError naming the entry or coordinate."""
    coords = _list(data, where)
    if len(coords) != d:
        raise ValueError(f"{where} has {len(coords)} coordinates, not {d}")
    out = []
    for k, c in enumerate(coords):
        if not isinstance(c, str) or not _RATIONAL.fullmatch(c):
            raise ValueError(f"{where}[{k}] is not a rational string: {c!r}")
        _, _, den = c.partition("/")
        if den and not int(den):
            raise ValueError(f"{where}[{k}] has a zero denominator: {c!r}")
        out.append(Fraction(c))
    return tuple(out)


def _kentries_from_json(
    rows, where: str, d: int
) -> tuple[tuple[KElement, ...], ...]:
    """Rows of K-elements of d coordinates, each one a list; rows may be
    ragged, and the caller checks their lengths."""
    return tuple(
        tuple(
            _kelement_from_json(entry, f"{where}[{i}][{t}]", d)
            for t, entry in enumerate(_list(row, f"{where}[{i}]"))
        )
        for i, row in enumerate(_list(rows, where))
    )


def representation_to_json_dict(rep: Representation) -> dict:
    # One list per distinct K-entry value: the generator matrices repeat a
    # few entries (zero above all), and the JSON writer keeps the text of
    # each list object, so each value is rendered once.
    kelements: dict[KElement, list[str]] = {}

    def kelement(x: KElement) -> list[str]:
        out = kelements.get(x)
        if out is None:
            out = kelements[x] = [str(c) for c in x]
        return out

    return {
        "p": rep.signature.p,
        "q": rep.signature.q,
        "class": rep.algebra_class.to_json_dict(),
        "frame": list(rep.frame.monomials),
        "components": [
            {
                "idempotent": multivector_to_json_dict(comp.basis.idempotent),
                "units": [multivector_to_json_dict(u) for u in comp.kbasis.units],
                "unit_table": [
                    [kelement(entry) for entry in row]
                    for row in comp.kbasis.table
                ],
                "spinor_blades": list(comp.basis.blades),
                "spinor_blade_signs": list(comp.basis.blade_signs),
                "gammas": [
                    [[kelement(entry) for entry in row] for row in g.entries]
                    for g in comp.gammas
                ],
            }
            for comp in rep.components
        ],
    }


def _multivector_in(sig: Signature, data, where: str) -> Multivector:
    """The dumped multivector at ``where``, which must lie in Cl(sig)."""
    x = multivector_from_json_dict(data, f"{where}.")
    if x.signature != sig:
        raise ValueError(f"{where} is in {x.signature}, not {sig}")
    return x


def representation_from_json_dict(data: Mapping) -> Representation:
    """Rebuild a representation from its dump without recomputing anything
    that the dump pins down, so re-verification sees exactly the dumped data."""
    sig = Signature(_integer_field(data, "p"), _integer_field(data, "q"))
    cls = classify(sig)
    monomials = _integer_list(data, "frame")
    for i, mask in enumerate(monomials):
        if not 0 <= mask < sig.dim:
            raise ValueError(f"frame[{i}] is out of range for {sig}: {mask}")
    frame = MonomialFrame(sig, monomials)
    components = []
    for ci, comp in enumerate(_list_field(data, "components")):
        where = f"components[{ci}]."
        f = _multivector_in(
            sig, _field(comp, "idempotent", where), f"{where}idempotent"
        )
        units = tuple(
            _multivector_in(sig, u, f"{where}units[{j}]")
            for j, u in enumerate(_list_field(comp, "units", where))
        )
        if len(units) not in KTYPE_BY_DIM:
            raise ValueError(f"{where}units has {len(units)} entries, not 1, 2 or 4")
        d = len(units)
        table = _kentries_from_json(
            _field(comp, "unit_table", where), f"{where}unit_table", d
        )
        if len(table) != d or any(len(row) != d for row in table):
            raise ValueError(f"{where}unit_table is not {d} rows of {d} entries")
        kb = DivisionRingBasis(f, units, KTYPE_BY_DIM[d], table)
        blades = _integer_list(comp, "spinor_blades", where)
        for t, mask in enumerate(blades):
            if not 0 <= mask < sig.dim:
                raise ValueError(
                    f"{where}spinor_blades[{t}] is out of range for {sig}: {mask}"
                )
        signs = _list_field(comp, "spinor_blade_signs", where)
        if len(signs) != len(blades) or any(
            s not in (1, -1) or isinstance(s, bool) for s in signs
        ):
            raise ValueError(
                f"{where}spinor_blade_signs must hold one sign of"
                f" +1 or -1 per spinor blade ({len(blades)})"
            )
        sb = SpinorBasis(kb, blades, tuple(int(s) for s in signs))
        # one matrix per generator, its rows as long as its first; matrices
        # of the wrong shape are left to the checks
        gammas = _list_field(comp, "gammas", where)
        if len(gammas) != sig.n:
            raise ValueError(
                f"{where}gammas has {len(gammas)} matrices, not n = {sig.n}"
            )
        matrices = []
        for gi, g in enumerate(gammas):
            rows = _kentries_from_json(g, f"{where}gammas[{gi}]", d)
            for i, row in enumerate(rows):
                if len(row) != len(rows[0]):
                    raise ValueError(
                        f"{where}gammas[{gi}][{i}] has {len(row)} entries,"
                        f" not {len(rows[0])}"
                    )
            matrices.append(KMatrix.from_rows(kb, rows))
        components.append(Component(sb, tuple(matrices)))
    return Representation(sig, cls, frame, tuple(components))


# ---------------------------------------------------------------------------
# text rendering


def format_kelement(kb: DivisionRingBasis, x: KElement) -> str:
    chunks = []
    for c, name in zip(x, UNIT_NAMES[: kb.dim]):
        if not c:
            continue
        neg = c < 0
        mag = -c if neg else c
        if name == "1":
            body = str(mag)
        elif mag == 1:
            body = name
        else:
            body = f"{mag}*{name}"
        if not chunks:
            chunks.append(f"-{body}" if neg else body)
        else:
            chunks.append(f" - {body}" if neg else f" + {body}")
    return "".join(chunks) if chunks else "0"


def format_kmatrix(mat: KMatrix) -> str:
    cells = [
        [format_kelement(mat.basis, entry) for entry in row] for row in mat.entries
    ]
    widths = [
        max(len(cells[i][t]) for i in range(mat.rows)) for t in range(mat.cols)
    ]
    lines = []
    for row in cells:
        padded = [cell.rjust(w) for cell, w in zip(row, widths)]
        lines.append("[ " + "  ".join(padded) + " ]")
    return "\n".join(lines)
