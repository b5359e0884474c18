"""Spinor bases of minimal left ideals and exact matrices over K.

The left ideal S = Cl(p,q) f of a primitive idempotent f is a right module
over K = f Cl f, and the action u s_t = sum_i s_i lambda_it defines the
matrix of u with entries lambda_it in K.  Keeping the K-scalars on the right
of the basis spinors is what makes u -> gamma(u) a homomorphism when K is
noncommutative.  Semisimple algebras get a pair of matrices, one for S and
one for its grade-involution image hat(S).  The involution is an algebra
automorphism sending each generator e_i to -e_i, so on the image basis
hat(s_t) over the image units the generator matrices of hat(S) are exactly
the negated matrices of S.

The spinor basis is built for a product idempotent
f = prod (1 + s_i e_{g_i}) / 2 over commuting square-one monomials (a
``ProductIdempotent``; a multivector of any other form is rejected with a
ValueError).  Then e_A f = +-e_{A xor w} f for every w in the GF(2) span W
of the g_i, and each K-unit is c_j e_{m_j} f.  So S has one basis spinor per
coset of U = W + span{m_j}, and each column of a generator matrix has a
single nonzero entry, a rational multiple of one unit.  Basis and matrices
are read off these GF(2) cosets, and each matrix column is confirmed by
exact equality, compared on integer numerators.

The matrices and coordinates of other elements (``represent``,
``spinor_coordinates``) are read off the real basis s_t u_j.  An index maps
the leading mask of each s_t u_j to it; when psi == s_t u_j * lambda holds
exactly, lambda at (t, j) is the only nonzero coordinate of psi, because
vectors with distinct leading masks are independent.  The lookup only
confirms: an exact span solve decides every psi it cannot confirm, such as
an element that is not a multiple of one basis element or a dumped basis
whose real basis repeats a leading mask, and it alone reports a product
outside S.
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
    find_frame,
    product_form,
    product_idempotent,
)
from .linalg import ExactSpan, gf2_insert, gf2_reduce

_ZERO = Fraction(0)


class RepresentationError(RuntimeError):
    """A structural defect while building or applying a representation."""


class SpinorBasis(FrozenRecord):
    """Right-K basis s_1..s_N of Cl(p,q) f with s_t = blade_signs[t] * e_A f."""

    _fields = ("idempotent", "blades", "blade_signs", "elements")

    @property
    def size(self) -> int:
        return len(self.elements)


class KMatrix(FrozenRecord):
    """Matrix with entries in K, stored as coordinate tuples over the units:
    ``basis``, the DivisionRingBasis, and ``entries``, its rows.

    Entries multiply in order (left factor's entries stay on the left), which
    matters for quaternionic K.
    """

    _fields = ("basis", "entries")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @staticmethod
    def identity(kb: DivisionRingBasis, size: int) -> "KMatrix":
        return KMatrix.scalar_matrix(kb, size, 1)

    @staticmethod
    def scalar_matrix(
        kb: DivisionRingBasis, size: int, value: int | Fraction
    ) -> "KMatrix":
        value = Fraction(value)
        diag = (_kcoordinate(value.numerator, value.denominator),)
        diag += (0,) * (kb.dim - 1)
        zero = kb.kzero()
        return KMatrix(
            kb,
            tuple(
                tuple(diag if i == t else zero for t in range(size))
                for i in range(size)
            ),
        )

    def _check_compatible(self, other: "KMatrix", need_square: bool = False) -> None:
        if self.basis != other.basis:
            raise ValueError("matrices are over different unit bases")
        if need_square and self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.cols} columns vs {other.rows} rows")

    @cached_property
    def _columns(self) -> tuple[tuple[tuple[int, KElement], ...], ...]:
        """Per column, the (row, entry) pairs of its nonzero entries; an
        entry missing from a short row reads as zero.  Built once, outside
        the record's fields, so equality still compares entries."""
        columns: list[list] = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.entries):
            for t, entry in enumerate(row):
                if any(entry):
                    columns[t].append((i, entry))
        return tuple(map(tuple, columns))

    @staticmethod
    def _from_columns(
        kb: DivisionRingBasis, rows: int, columns: list[tuple]
    ) -> "KMatrix":
        """The matrix with the given nonzero (row, entry) pairs per column,
        its column view set from them."""
        zero = kb.kzero()
        dense = [[zero] * len(columns) for _ in range(rows)]
        for t, column in enumerate(columns):
            for i, entry in column:
                dense[i][t] = entry
        mat = KMatrix(kb, tuple(map(tuple, dense)))
        mat.__dict__["_columns"] = tuple(columns)
        return mat

    def __matmul__(self, other):
        if not isinstance(other, KMatrix):
            return NotImplemented
        self._check_compatible(other, need_square=True)
        kb = self.basis
        kmul = kb.kmul
        left = self._columns
        # Column t of the product meets each nonzero (m, y) of other's column
        # t with the nonzero entries of self's column m: generator images
        # have one entry per column, so a product visits about N pairs.
        columns = []
        for column in other._columns:
            acc: dict[int, KElement] = {}
            for m, y in column:
                for i, x in left[m]:
                    prod = kmul(x, y)
                    cur = acc.get(i)
                    acc[i] = prod if cur is None else kb.kadd(cur, prod)
            columns.append(
                tuple((i, acc[i]) for i in sorted(acc) if any(acc[i]))
            )
        return KMatrix._from_columns(kb, self.rows, columns)

    def __add__(self, other):
        if not isinstance(other, KMatrix):
            return NotImplemented
        self._check_compatible(other)
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch in matrix addition")
        kb = self.basis
        rows = [list(row) for row in self.entries]
        for t, column in enumerate(other._columns):
            for i, y in column:
                rows[i][t] = kb.kadd(rows[i][t], y)
        return KMatrix(kb, tuple(map(tuple, rows)))

    def __neg__(self):
        kb = self.basis
        # each entry object is negated once, so shared entries stay shared
        negated: dict[int, KElement] = {}
        for row in self.entries:
            for e in row:
                if id(e) not in negated:
                    negated[id(e)] = kb.kneg(e)
        return KMatrix(
            kb, tuple(tuple(negated[id(e)] for e in row) for row in self.entries)
        )

    def scale_right(self, mu: KElement) -> "KMatrix":
        """Entrywise right multiplication by mu (the right K-action)."""
        kb = self.basis
        return KMatrix(
            kb, tuple(tuple(kb.kmul(e, mu) for e in row) for row in self.entries)
        )


def kmatrix_mul(a: KMatrix, b: KMatrix) -> KMatrix:
    return a @ b


def kmatrix_add(a: KMatrix, b: KMatrix) -> KMatrix:
    return a + b


def kmatrix_eq(a: KMatrix, b: KMatrix) -> bool:
    a._check_compatible(b)
    if a.rows != b.rows or a.cols != b.cols:
        raise ValueError("shape mismatch in matrix comparison")
    return a.entries == b.entries


class Component(FrozenRecord):
    """One simple block: division ring, spinor basis, generator matrices."""

    _fields = ("kbasis", "basis", "gammas")


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
    f = product.f
    blades = tuple(m for m in range(f.signature.dim) if not m & pivots)
    elements = tuple(f.signature.blade(m) * f for m in blades)
    return SpinorBasis(f, blades, (1,) * len(blades), elements)


def _coset_gammas(
    sig: Signature, kb: DivisionRingBasis, sb: SpinorBasis, product: ProductIdempotent
) -> tuple[KMatrix, ...]:
    """Generator matrices as signed unit permutations of the spinor basis of
    a product idempotent, read off its frame cosets.

    e_i s_t lies on the W-coset of X = e_i-mask xor A_t.  The leading masks
    m_j of kb's units fill U / W, as ``_cosets`` confirms for the kb that
    ``spinor_basis`` was given, so X + U is the union of the W-cosets of
    X xor m_j: the least of their minima is the U-coset minimum, which
    names the row s, and the j that reaches it names the unit, so that
    e_i s_t == (sign_s e_{A_s} u_j) * lambda for one rational lambda.  Each
    column is confirmed by that exact equality.  With s_s == sign_s e_{A_s} f,
    as ``spinor_basis`` and its involution image build it, and u_j == f u_j,
    as ``_cosets`` confirms, sign_s e_{A_s} u_j is the real basis element
    s_s u_j; each is built once and shared by the generators.

    Both sides are compared on integer numerators over their common
    denominators: e_i permutes the terms of s_t with the signs of
    ``_sign_masks``, and the equality holds exactly when the two sides have
    the same masks and proportional numerators, lambda being the ratio of
    their leading terms.  Equal entries are one shared tuple.
    """
    signs = _sign_masks(sig)
    frame = product.echelon
    unit_masks = tuple(enumerate(u.terms[0][0] for u in kb.units))
    row_of = {mask: s for s, mask in enumerate(sb.blades)}
    # per spinor: denominator, then mask -> (numerator, sign mask) per term
    spinors = []
    for s_t in sb.elements:
        den, masks, nums = s_t._integer_terms()
        spinors.append(
            (den, {b: (c, signs[b]) for b, c in zip(masks, nums)})
        )
    # (s, j) -> denominator, mask -> numerator, leading mask and numerator
    real_basis: dict[tuple[int, int], tuple] = {}
    entries: dict[tuple[int, int, int], KElement] = {}
    zero = kb.kzero()
    gammas = []
    for i in range(sig.n):
        x = 1 << i
        rows = [[zero] * sb.size for _ in range(sb.size)]
        for t, (lden, lhs) in enumerate(spinors):
            y = x ^ sb.blades[t]
            a, j = min((gf2_reduce(y ^ m, frame), j) for j, m in unit_masks)
            s = row_of.get(a)
            if s is None:
                raise RepresentationError(f"e{i + 1} s_{t} leaves the spinor basis")
            rhs = real_basis.get((s, j))
            if rhs is None:
                uden, umasks, unums = kb.units[j]._integer_terms()
                terms = _blade_times(
                    a, sb.blade_signs[s] < 0, zip(umasks, unums), signs
                )
                lead = min(terms)
                rhs = real_basis[s, j] = (uden, terms, lead, terms[lead])
            rden, rterms, lead, r0 = rhs
            lead_c, lead_q = lhs.get(lead ^ x, (0, 0))
            l0 = -lead_c if lead_q >> i & 1 else lead_c
            # the same masks, and numerators proportional to the leading pair
            if not l0 or len(lhs) != len(rterms) or any(
                (-c if q >> i & 1 else c) * r0 != rterms.get(b ^ x, 0) * l0
                for b, (c, q) in lhs.items()
            ):
                raise RepresentationError(
                    f"e{i + 1} s_{t} is not a multiple of s_{s} u_{j}"
                )
            lam = _kcoordinate(l0 * rden, r0 * lden)
            key = (j, lam)
            entry = entries.get(key)
            if entry is None:
                entry = entries[key] = tuple(
                    lam if jj == j else 0 for jj in range(kb.dim)
                )
            rows[s][t] = entry
        gammas.append(KMatrix(kb, tuple(map(tuple, rows))))
    return tuple(gammas)


def _solver(kb: DivisionRingBasis, sb: SpinorBasis) -> ExactSpan:
    # Kept on sb with the kb it was built for, matched by identity: hashing
    # the frozen bases would rehash every Fraction they hold on each call.
    cached = sb.__dict__.get("_solver")
    if cached is not None and cached[0] is kb:
        return cached[1]
    span = ExactSpan()
    for t, s in enumerate(sb.elements):
        for j, unit in enumerate(kb.units):
            span.add(dict((s * unit).terms), (t, j))
    sb.__dict__["_solver"] = (kb, span)
    return span


def _solve(
    kb: DivisionRingBasis, sb: SpinorBasis, psi: Multivector
) -> list[tuple[int, KElement]] | None:
    """The nonzero K-coordinates of psi as (t, entry) pairs by exact span
    solve, or None if psi is not in S."""
    coords = _solver(kb, sb).coordinates(dict(psi.terms))
    if coords is None:
        return None
    column = []
    for t in range(sb.size):
        entry = tuple(coords.get((t, j), _ZERO) for j in range(kb.dim))
        if any(entry):
            column.append((t, entry))
    return column


def _real_basis_index(kb: DivisionRingBasis, sb: SpinorBasis) -> dict | None:
    """The leading (smallest) mask of each real basis element s_t u_j mapped
    to (t, j, denominator, numerator by mask), from the exact products.

    None when some s_t u_j is zero or two share a leading mask.  Kept on sb
    with the kb it was built for, matched by identity, like ``_solver``.
    """
    cached = sb.__dict__.get("_index")
    if cached is not None and cached[0] is kb:
        return cached[1]
    index: dict | None = {}
    for t, s in enumerate(sb.elements):
        for j, unit in enumerate(kb.units):
            den, masks, nums = (s * unit)._integer_terms()
            if not masks or masks[0] in index:
                index = None
                break
            index[masks[0]] = (t, j, den, dict(zip(masks, nums)))
        if index is None:
            break
    sb.__dict__["_index"] = (kb, index)
    return index


def _lookup(
    kb: DivisionRingBasis, sb: SpinorBasis, den: int, nums: dict[int, int]
) -> tuple[int, KElement] | None:
    """(t, entry) with psi == s_t u_j * lambda exactly, for psi given by its
    numerators over den, or None when the lookup cannot decide.

    The s_t u_j have pairwise distinct leading masks, so they are linearly
    independent and the confirmed lambda at (t, j) are the unique
    coordinates of psi, the ones the span solve would return.  Confirmed as
    ``_coset_gammas`` confirms a column: the same masks as s_t u_j, and
    numerators proportional to the leading pair.
    """
    index = _real_basis_index(kb, sb)
    if index is None or not nums:
        return None
    lead = min(nums)
    hit = index.get(lead)
    if hit is None:
        return None
    t, j, rden, rnums = hit
    l0 = nums[lead]
    r0 = rnums[lead]
    if len(nums) != len(rnums) or any(
        c * r0 != rnums.get(b, 0) * l0 for b, c in nums.items()
    ):
        return None
    lam = _kcoordinate(l0 * rden, r0 * den)
    return t, tuple(lam if jj == j else 0 for jj in range(kb.dim))


def _column(
    kb: DivisionRingBasis, sb: SpinorBasis, psi: Multivector
) -> list[tuple[int, KElement]] | None:
    """The nonzero K-coordinates of psi as (t, entry) pairs, confirmed by
    the lookup or else solved; None if psi is not in S."""
    den, masks, nums = psi._integer_terms()
    hit = _lookup(kb, sb, den, dict(zip(masks, nums)))
    return [hit] if hit is not None else _solve(kb, sb, psi)


def spinor_coordinates(
    kb: DivisionRingBasis, sb: SpinorBasis, psi: Multivector
) -> tuple[KElement, ...] | None:
    """K-coordinates of psi over the spinor basis, or None if psi is not in S."""
    column = _column(kb, sb, psi)
    if column is None:
        return None
    out = [kb.kzero()] * sb.size
    for t, entry in column:
        out[t] = entry
    return tuple(out)


def _matrix_of(u: Multivector, kb: DivisionRingBasis, sb: SpinorBasis) -> KMatrix:
    """Matrix of u: column t holds the K-coordinates of u s_t."""
    columns = []
    for s in sb.elements:
        column = _column(kb, sb, u * s)
        if column is None:
            raise RepresentationError("product left the spinor ideal")
        columns.append(tuple(column))
    return KMatrix._from_columns(kb, sb.size, columns)


def represent(u: Multivector, rep: Representation) -> KMatrix:
    """Matrix of u on the spinor basis: u s_t = sum_i s_i * entry[i][t]."""
    if u.signature != rep.signature:
        raise SignatureMismatchError(f"{u.signature} vs {rep.signature}")
    if not rep.simple:
        raise ValueError("semisimple algebras are handled by represent_semisimple")
    comp = rep.components[0]
    return _matrix_of(u, comp.kbasis, comp.basis)


def represent_semisimple(
    u: Multivector, rep: Representation
) -> tuple[KMatrix, KMatrix]:
    """Pair of matrices of u on S and on its grade-involution image."""
    if u.signature != rep.signature:
        raise SignatureMismatchError(f"{u.signature} vs {rep.signature}")
    if rep.simple:
        raise ValueError("simple algebras are handled by represent")
    return tuple(
        _matrix_of(u, comp.kbasis, comp.basis) for comp in rep.components
    )


def build_representation(sig: Signature) -> Representation:
    """Full pipeline: frame, idempotent, division ring, basis, matrices."""
    cls = classify(sig)
    frame = find_frame(sig)
    product = product_idempotent(frame, (1,) * frame.k)
    kb = division_ring_basis(product)
    sb = spinor_basis(product, kb)
    gammas = _coset_gammas(sig, kb, sb, product)
    components = [Component(kb, sb, gammas)]
    if not cls.simple:
        # The second half-spinor space is the grade-involution image of the
        # first, over the images of f, the units and the spinors.  The
        # involution is an automorphism sending e_i to -e_i, so each confirmed
        # e_i s_t == s_s u_j * lam maps to e_i hat(s_t) == hat(s_s) hat(u_j)
        # * (-lam): the second gammas are the negated first ones, exactly.
        fh = product.f.involute()
        kb2 = DivisionRingBasis(
            fh,
            tuple(u.involute() for u in kb.units),
            kb.ktype,
            kb.table,
        )
        sb2 = SpinorBasis(
            fh,
            sb.blades,
            tuple(-1 if grade(m) & 1 else 1 for m in sb.blades),
            tuple(s.involute() for s in sb.elements),
        )
        components.append(
            Component(kb2, sb2, tuple(KMatrix(kb2, (-g).entries) for g in gammas))
        )
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
    ragged."""
    return tuple(
        tuple(
            _kelement_from_json(entry, f"{where}[{i}][{t}]", d)
            for t, entry in enumerate(_list(row, f"{where}[{i}]"))
        )
        for i, row in enumerate(_list(rows, where))
    )


def representation_to_json_dict(rep: Representation) -> dict:
    # One list per K-entry object: the generator matrices repeat a few shared
    # entry tuples (zero above all), which the JSON writer then renders once.
    kelements: dict[int, list[str]] = {}

    def kelement(x: KElement) -> list[str]:
        out = kelements.get(id(x))
        if out is None:
            out = kelements[id(x)] = [str(c) for c in x]
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


def representation_from_json_dict(data: Mapping) -> Representation:
    """Rebuild a representation from its dump without recomputing anything
    that the dump pins down, so re-verification sees exactly the dumped data."""
    sig = Signature(_integer_field(data, "p"), _integer_field(data, "q"))
    cls = classify(sig)
    frame = MonomialFrame(sig, _integer_list(data, "frame"))
    components = []
    for ci, comp in enumerate(_list_field(data, "components")):
        where = f"components[{ci}]."
        f = multivector_from_json_dict(
            _field(comp, "idempotent", where), f"{where}idempotent."
        )
        units = tuple(
            multivector_from_json_dict(u, f"{where}units[{j}].")
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
        signs = _list_field(comp, "spinor_blade_signs", where)
        if len(signs) != len(blades) or any(
            s not in (1, -1) or isinstance(s, bool) for s in signs
        ):
            raise ValueError(
                f"{where}spinor_blade_signs must hold one sign of"
                f" +1 or -1 per spinor blade ({len(blades)})"
            )
        signs = tuple(int(s) for s in signs)
        elements = tuple(
            sig.blade(mask, s) * f for mask, s in zip(blades, signs)
        )
        sb = SpinorBasis(f, blades, signs, elements)
        # one matrix per generator; ragged rows and matrices of the wrong
        # shape are left to the checks
        gammas = _list_field(comp, "gammas", where)
        if len(gammas) != sig.n:
            raise ValueError(
                f"{where}gammas has {len(gammas)} matrices, not n = {sig.n}"
            )
        gammas = tuple(
            KMatrix(kb, _kentries_from_json(g, f"{where}gammas[{gi}]", d))
            for gi, g in enumerate(gammas)
        )
        components.append(Component(kb, sb, gammas))
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
