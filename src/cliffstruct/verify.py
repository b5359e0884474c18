"""Executable structural verification of the matrix-algebra decomposition.

Every check is exact; a failing check carries a JSON-serializable witness
instead of raising, so a verification sweep always completes and reports.

``CHECKS`` is the ordered table of ``(check_id, fn)``: each fn reads what
the checks share from a lazily built per-signature context and returns a
witness, or None on a pass.  An exception fails only the checks that meet
it, each under its own id with an ``{"error": "Type: message"}`` witness.

A check may confirm a pass with a cheaper certificate, such as
``repr.irreducible``'s rank over a projection of its rows; when the
certificate cannot decide, the check falls back to exact arithmetic, which
alone gives verdicts of failure and their witnesses.  The same holds for the
blade matrices and spinor coordinates the representation checks read: a
lookup in the real spinor basis only confirms a column by exact equality,
and the exact span solve decides every other one.

The left multiples e_X f of an idempotent f are read once into a table of
proportionality classes (``multiples``).  A rank modulo a prime that
reaches the class count proves dim S = dim Cl(p,q) f, and since every s_t
is +-e_{B_t} f the blade matrices are read off the table.  Certificates
only confirm; every failure and witness comes from the exact path.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from math import gcd

from .classify import K_DIMENSION, classify
from .core import (
    MAX_DIMENSION,
    Multivector,
    Record,
    Signature,
    SignatureMismatchError,
    _sign_masks,
)
from .idempotents import (
    IDEMPOTENT_INVARIANTS,
    IdempotentSet,
    center_basis,
    central_idempotents,
    find_frame,
    primitive_idempotent,
    sign_vectors,
)
from .linalg import ExactSpan, rank_mod_p, span_of
from .multiples import _LeftMultiples, _independent, _left_multiples, _table_matrices
from .representation import (
    Component,
    KMatrix,
    Representation,
    build_representation,
    _column,
)

DEFAULT_SAMPLE_SEED = 1729
_RANDOM_PSI_COUNT = 10


class CheckResult(Record):
    """One check's verdict: ``witness`` is None when it passed."""

    _fields = ("check_id", "passed", "witness")

    def __init__(self, check_id: str, passed: bool, witness: dict | None = None):
        super().__init__(check_id, passed, witness)


class VerificationReport(Record):
    """The CheckResults of one signature, in check order."""

    _fields = ("signature", "checks")

    def __init__(self, signature: Signature, checks: list | None = None) -> None:
        super().__init__(signature, [] if checks is None else checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_json_dict(self) -> dict:
        out = []
        for c in self.checks:
            entry = {"id": c.check_id, "pass": c.passed}
            if c.witness is not None:
                entry["witness"] = c.witness
            out.append(entry)
        return {"p": self.signature.p, "q": self.signature.q, "checks": out}


class RangeSummary(Record):
    """The VerificationReports of every signature with p + q <= max_n."""

    _fields = ("max_n", "reports")

    @property
    def signatures(self) -> int:
        return len(self.reports)

    @property
    def passed_signatures(self) -> int:
        return sum(1 for r in self.reports if r.passed)

    @property
    def failure_count(self) -> int:
        return sum(len(r.failures()) for r in self.reports)

    @property
    def passed(self) -> bool:
        return self.failure_count == 0

    def to_json_dict(self) -> dict:
        return {
            "max_n": self.max_n,
            "signatures": self.signatures,
            "failures": self.failure_count,
            "reports": [r.to_json_dict() for r in self.reports],
        }


def brute_force_minimal_ideal_dim(sig: Signature, f: Multivector) -> int:
    """R-dimension of Cl(p,q) f, the rank of all blade left-multiples e_A f.

    They have the rank of their class rows, at most the class count; a rank
    modulo a prime that reaches the count proves it, and row reduction over
    Q decides every other case.
    """
    if f.signature != sig:
        raise SignatureMismatchError(f"{f.signature} vs {sig}")
    rows = _left_multiples(f).rows
    return len(rows) if _independent(rows) else span_of(rows).rank


class _Context(Record):
    """What the checks of one signature share, each value built on first use.

    A value whose construction raises is not cached, so every check that
    needs it fails with the same error.
    """

    _fields = ("sig", "seed")

    @cached_property
    def cls(self):
        return classify(self.sig)

    @cached_property
    def idems(self) -> IdempotentSet:
        frame = find_frame(self.sig)
        svs = sign_vectors(frame.k)
        idems = tuple(primitive_idempotent(frame, sv) for sv in svs)
        return IdempotentSet(frame, svs, idems)

    @cached_property
    def rep(self) -> Representation:
        return build_representation(self.sig)

    @cached_property
    def repr_witnesses(self) -> dict:
        """REPR_CHECKS run once over this signature's representation."""
        results = verify_representation(self.rep, seed=self.seed)
        return {c.check_id: c.witness for c in results}

    @cached_property
    def tables(self) -> list[_LeftMultiples]:
        """Per component, the table of its idempotent's left multiples."""
        return [_left_multiples(comp.basis.idempotent) for comp in self.rep.components]

    @cached_property
    def solved(self) -> list[list[KMatrix]]:
        """Per component, every blade's matrix in its spinor basis, read off
        the table."""
        return [
            _table_matrices(self.sig, comp, table)
            for comp, table in zip(self.rep.components, self.tables)
        ]

    @cached_property
    def rng(self) -> random.Random:
        # drawn from by repr.irreducible and then repr.right_module
        return random.Random(self.seed)


def _run(checks, ctx: _Context) -> list[CheckResult]:
    results = []
    for check_id, check in checks:
        try:
            witness = check(ctx)
        except Exception as exc:  # a defect during checking is itself a failure
            witness = {"error": f"{type(exc).__name__}: {exc}"}
        results.append(CheckResult(check_id, witness is None, witness))
    return results


def _flatten(*mats: KMatrix) -> dict:
    """The nonzero entries of the matrices, keyed by (matrix, row, col, unit)."""
    out = {}
    for m, mat in enumerate(mats):
        for t, column in enumerate(mat.columns):
            for i, entry in column:
                for j, c in enumerate(entry):
                    if c:
                        out[m, i, t, j] = c
    return out


def _ordered_products(comp: Component, sig: Signature) -> list[KMatrix]:
    """gamma of every blade as the ordered product of generator matrices.

    e_mask factors as e_lowest * e_rest with no sign, so the ordered product
    folds one cached matrix product per blade.
    """
    out: list[KMatrix] = [KMatrix.identity(comp.kbasis, comp.basis.size)]
    for mask in range(1, sig.dim):
        low = mask & -mask
        rest = mask ^ low
        g = comp.gammas[low.bit_length() - 1]
        out.append(g if rest == 0 else g @ out[rest])
    return out


def _dimension_identity(ctx: _Context) -> dict | None:
    cls = ctx.cls
    if ctx.sig.dim != cls.components * cls.matrix_size**2 * K_DIMENSION[cls.ktype]:
        return {"class": cls.to_json_dict()}
    return None


def _simplicity_mod4(ctx: _Context) -> dict | None:
    mod4 = (ctx.sig.p - ctx.sig.q) % 4
    if ctx.cls.simple != (mod4 != 1):
        return {"simple": ctx.cls.simple, "p_minus_q_mod4": mod4}
    return None


def _idem_count(ctx: _Context) -> dict | None:
    count = len(ctx.idems.idempotents)
    if count != 1 << ctx.cls.k:
        return {"count": count, "k": ctx.cls.k}
    return None


def _over_idempotents(witness_of):
    return lambda ctx: witness_of(ctx.idems.signs, ctx.idems.idempotents)


def _ideal_dimension(ctx: _Context) -> dict | None:
    expected = 1 << (ctx.sig.n - ctx.cls.k)
    for sv, f in zip(ctx.idems.signs, ctx.idems.idempotents):
        got = brute_force_minimal_ideal_dim(ctx.sig, f)
        if got != expected:
            return {"signs": list(sv), "dim": got, "expected": expected}
    return None


def _representation_agrees(ctx: _Context) -> dict | None:
    rep = ctx.rep
    cls = rep.algebra_class
    if len(rep.components) == cls.components and all(
        comp.kbasis.ktype == cls.ktype and comp.basis.size == cls.matrix_size
        for comp in rep.components
    ):
        return None
    return {"expected": cls.to_json_dict(), "components": len(rep.components)}


def _generator_relations(ctx: _Context) -> dict | None:
    sig = ctx.sig
    for ci, comp in enumerate(ctx.rep.components):
        g = comp.gammas
        for i in range(sig.n):
            for j in range(i, sig.n):
                eta = sig.generator_square(i + 1) if i == j else 0
                expected = KMatrix.scalar_matrix(comp.kbasis, comp.basis.size, 2 * eta)
                if g[i] @ g[j] + g[j] @ g[i] != expected:
                    return {"component": ci, "i": i + 1, "j": j + 1}
    return None


def _homomorphism(ctx: _Context) -> dict | None:
    for ci, comp in enumerate(ctx.rep.components):
        products = _ordered_products(comp, ctx.sig)
        for mask, mat in enumerate(ctx.solved[ci]):
            if mat != products[mask]:
                return {"component": ci, "mask": mask}
    return None


def _faithful_rank(ctx: _Context) -> dict | None:
    """Each component's blade matrices span half of Cl(p,q) (all of it when
    simple), and each blade's matrices in all components together span all
    of it."""
    sig = ctx.sig
    ranks = [span_of(_flatten(mat) for mat in mats).rank for mats in ctx.solved]
    joint = span_of(_flatten(*mats) for mats in zip(*ctx.solved)).rank
    expected = [sig.dim] if ctx.rep.simple else [sig.dim // 2] * 2
    if ranks == expected and joint == sig.dim:
        return None
    return {"component_ranks": ranks, "joint_rank": joint, "dim": sig.dim}


def _projected_rank_reaches(
    sig: Signature, psi: Multivector, masks: list[int], rank: int
) -> bool:
    """Whether the rows e_A psi, cut down to the coordinates ``masks``, reach
    ``rank``.

    The coefficient of e_A psi at m is +-psi[A xor m], so no product is
    formed.  A projection never raises rank, and neither does reduction
    modulo a prime, so True proves that the full rows reach ``rank`` over Q
    too; False decides nothing.  The rows are read off psi's integer
    numerators, a common multiple that leaves the rank as it is.
    """
    if len(masks) < rank:
        return False
    _, psi_masks, nums = psi._integer_terms()
    coeffs = dict(zip(psi_masks, nums))
    signs = _sign_masks(sig)

    def rows():
        for a in range(sig.dim):
            row = {}
            for m in masks:
                b = a ^ m
                c = coeffs.get(b)
                if c:
                    row[m] = -c if (a & signs[b]).bit_count() & 1 else c
            yield row

    return rank_mod_p(rows(), rank) == rank


def _psi_sampler(sig: Signature, vectors: list[Multivector]):
    """draw(rng): psi = sum c_v v over the vectors with each c_v drawn by
    ``rng.randint(-3, 3)`` in order, all drawn again while psi is zero.

    psi is accumulated on integer numerators over the vectors' common
    denominator and normalized once.  Some vector must be nonzero.
    """
    den = 1
    for v in vectors:
        d = v._integer_terms()[0]
        den = den * d // gcd(den, d)
    rows = []
    for v in vectors:
        d, masks, nums = v._integer_terms()
        rows.append((masks, [c * (den // d) for c in nums]))

    def draw(rng: random.Random) -> Multivector:
        while True:
            acc: dict[int, int] = {}
            for masks, nums in rows:
                c = rng.randint(-3, 3)
                if c:
                    for m, x in zip(masks, nums):
                        acc[m] = acc.get(m, 0) + c * x
            terms = tuple(sorted((m, Fraction(x, den)) for m, x in acc.items() if x))
            if terms:
                return Multivector(sig, terms)

    return draw


def _irreducible(ctx: _Context) -> dict | None:
    """Every sample psi of S generates all of S: the left multiples e_A psi
    reach rank dim_R S.  The rows of a basis sample +-e_B f are a signed
    permutation of f's, so a proved rank of f's table confirms every basis
    sample, and a projected-rank certificate may confirm any sample; the
    others, and every witness, come from the exact rows."""
    sig = ctx.sig
    for ci, comp in enumerate(ctx.rep.components):
        ideal_dim = comp.basis.size * comp.kbasis.dim
        basis_products = [
            s * u for s in comp.basis.elements for u in comp.kbasis.units
        ]
        if not any(basis_products):
            return {"component": ci, "fail": "the real basis {s_t u_j} is zero"}
        draw = _psi_sampler(sig, basis_products)
        table = ctx.tables[ci]
        basis_proved = len(table.rows) == ideal_dim and _independent(table.rows)
        samples = [] if basis_proved else list(comp.basis.elements)
        samples += [draw(ctx.rng) for _ in range(_RANDOM_PSI_COUNT)]
        masks = sorted({v.terms[0][0] for v in basis_products if v})
        for psi in samples:
            if _projected_rank_reaches(sig, psi, masks, ideal_dim):
                continue
            span = ExactSpan()
            for mask in range(sig.dim):
                span.add(dict((sig.blade(mask) * psi).terms), mask)
                if span.rank == ideal_dim:
                    break
            if span.rank != ideal_dim:
                return {
                    "component": ci,
                    "psi": str(psi),
                    "rank": span.rank,
                    "expected": ideal_dim,
                }
    return None


def _right_module(ctx: _Context) -> dict | None:
    sig = ctx.sig
    for ci, comp in enumerate(ctx.rep.components):
        kb, sb = comp.kbasis, comp.basis
        masks = [ctx.rng.randrange(sig.dim) for _ in range(5)]
        solved = ctx.solved[ci]
        # per spinor s, what no mask changes: its coordinate column, that
        # column times each unit tuple mu, and the products s u_j
        mus = [tuple(int(jj == j) for jj in range(kb.dim)) for j in range(kb.dim)]
        spinors = []
        for s in sb.elements[:3]:
            col = KMatrix(kb, sb.size, (tuple(_column(kb, sb, s)),))
            scaled = [col.scale_right(mu) for mu in mus]
            spinors.append((col, scaled, [s * unit for unit in kb.units]))
        for mask in masks:
            u = sig.blade(mask)
            gamma_u = solved[mask]
            for col, scaled, products in spinors:
                gamma_col = gamma_u @ col
                for j, mu in enumerate(mus):
                    left = gamma_col.scale_right(mu)
                    right = gamma_u @ scaled[j]
                    direct = _column(kb, sb, u * products[j])
                    if left != right or direct is None or left.columns[0] != tuple(direct):
                        return {"component": ci, "mask": mask, "unit": j}
    return None


def _center_dimension(ctx: _Context) -> dict | None:
    # The center has dimension 2 exactly when the pseudoscalar is central
    # (n odd): R + R for semisimple algebras, C for simple ones with K = C.
    expected = 2 if ctx.sig.n % 2 else 1
    dim = len(center_basis(ctx.sig))
    if dim != expected:
        return {"dim": dim, "expected": expected}
    return None


def _semi_split(ctx: _Context) -> dict | None:
    sig = ctx.sig
    c1, c2 = central_idempotents(sig)
    gens = [sig.blade(1 << i) for i in range(sig.n)]
    if c1 + c2 != sig.scalar(1):
        return {"fail": "c1 + c2 != 1"}
    if not (c1 * c2).is_zero() or not (c2 * c1).is_zero():
        return {"fail": "c1 c2 != 0"}
    if any(c * g != g * c for c in (c1, c2) for g in gens):
        return {"fail": "central idempotents do not commute with generators"}
    zb = center_basis(sig)
    span_center = span_of(dict(z.terms) for z in zb)
    if not (
        span_center.contains(dict(c1.terms)) and span_center.contains(dict(c2.terms))
    ):
        return {"fail": "c1, c2 outside span of the center basis"}
    span_c = span_of([dict(c1.terms), dict(c2.terms)])
    if not all(span_c.contains(dict(z.terms)) for z in zb):
        return {"fail": "center basis outside span of c1, c2"}
    f = ctx.idems.idempotents[0]  # the all-plus sign vector
    fh = f.involute()
    if not (fh * f).is_zero():
        return {"fail": "hat(f) f != 0"}
    # Independent class rows of f and hat(f), as many of each, prove
    # dim S and rank(S + hat(S)) == 2 dim S.
    rows, hat_rows = _left_multiples(f).rows, _left_multiples(fh).rows
    if len(rows) == len(hat_rows) and _independent(rows + hat_rows):
        return None
    joint = span_of(dict((sig.blade(mask) * f).terms) for mask in range(sig.dim))
    dim_s = joint.rank
    for mask in range(sig.dim):
        joint.add(dict((sig.blade(mask) * fh).terms), ("Sh", mask))
    if joint.rank != 2 * dim_s:
        return {
            "fail": "S + hat(S) is not a direct sum",
            "dim_S": dim_s,
            "joint": joint.rank,
        }
    return None


def _from_representation(check_id: str):
    return lambda ctx: ctx.repr_witnesses[check_id]


REPR_CHECKS = (
    ("class.representation_agrees", _representation_agrees),
    ("repr.generator_relations", _generator_relations),
    ("repr.homomorphism", _homomorphism),
    ("repr.faithful_rank", _faithful_rank),
    ("repr.irreducible", _irreducible),
    ("repr.right_module", _right_module),
)

# Every check of one signature, in report order.  The representation checks
# run through verify_representation, as for a dump; semi.split, last, applies
# to semisimple algebras only.
CHECKS = (
    ("class.dimension_identity", _dimension_identity),
    ("class.simplicity_mod4", _simplicity_mod4),
    ("idem.count", _idem_count),
    *(
        (check_id, _over_idempotents(witness_of))
        for check_id, witness_of in IDEMPOTENT_INVARIANTS
    ),
    ("ideal.dimension", _ideal_dimension),
    *((check_id, _from_representation(check_id)) for check_id, _ in REPR_CHECKS),
    ("center.dimension", _center_dimension),
    ("semi.split", _semi_split),
)


def verify_representation(
    rep: Representation, seed: int = DEFAULT_SAMPLE_SEED
) -> list[CheckResult]:
    """Representation-level checks; also used on re-ingested JSON dumps."""
    ctx = _Context(rep.signature, seed)
    ctx.rep = rep  # in place of the lazily built one
    return _run(REPR_CHECKS, ctx)


def verify_signature(
    sig: Signature, seed: int = DEFAULT_SAMPLE_SEED
) -> VerificationReport:
    """Run every structural check for one signature; failures become entries."""
    ctx = _Context(sig, seed)
    checks = CHECKS[:-1] if ctx.cls.simple else CHECKS
    return VerificationReport(sig, _run(checks, ctx))


def verify_range(max_n: int, seed: int = DEFAULT_SAMPLE_SEED) -> RangeSummary:
    """Verify every signature with p + q <= max_n, ordered by (n, p)."""
    if max_n > MAX_DIMENSION:
        raise ValueError(f"max_n = {max_n} exceeds the supported cap of {MAX_DIMENSION}")
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    reports = []
    for n in range(max_n + 1):
        for p in range(n + 1):
            reports.append(verify_signature(Signature(p, n - p), seed=seed))
    return RangeSummary(max_n, reports)
