"""Executable structural verification of the matrix-algebra decomposition.

Every check is exact; a failing check carries a JSON-serializable witness
instead of raising, so a verification sweep always completes and reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .classify import K_DIMENSION, classify
from .core import Multivector, Signature, SignatureMismatchError
from .idempotents import (
    center_basis,
    central_idempotents,
    find_frame,
    is_primitive,
    primitive_idempotent,
    sign_vectors,
)
from .linalg import ExactSpan
from .representation import (
    Component,
    KMatrix,
    Representation,
    build_representation,
    _matrix_of,
    spinor_coordinates,
)

DEFAULT_SAMPLE_SEED = 1729
_RANDOM_PSI_COUNT = 10

_REPR_CHECK_IDS = (
    "class.representation_agrees",
    "repr.generator_relations",
    "repr.homomorphism",
    "repr.faithful_rank",
    "repr.irreducible",
    "repr.right_module",
)

_IDEM_CHECK_IDS = (
    "idem.count",
    "idem.idempotent",
    "idem.mutually_annihilating",
    "idem.sum_to_unity",
    "idem.primitive",
    "ideal.dimension",
)


@dataclass
class CheckResult:
    check_id: str
    passed: bool
    witness: dict | None = None


@dataclass
class VerificationReport:
    signature: Signature
    checks: list[CheckResult] = field(default_factory=list)

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


@dataclass
class RangeSummary:
    max_n: int
    reports: list[VerificationReport]

    @property
    def signatures(self) -> int:
        return len(self.reports)

    @property
    def passed_signatures(self) -> int:
        return sum(1 for r in self.reports if r.passed)

    @property
    def check_count(self) -> int:
        return sum(len(r.checks) for r in self.reports)

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
    """R-dimension of Cl(p,q) f by row reduction over all blade left-multiples."""
    if f.signature != sig:
        raise SignatureMismatchError(f"{f.signature} vs {sig}")
    span = ExactSpan()
    for mask in range(sig.dim):
        span.add(dict((sig.blade(mask) * f).terms), mask)
    return span.rank


def _error_witness(exc: Exception) -> dict:
    return {"error": f"{type(exc).__name__}: {exc}"}


def _flatten(mat: KMatrix, prefix=()) -> dict:
    out = {}
    for i, row in enumerate(mat.entries):
        for t, entry in enumerate(row):
            for j, c in enumerate(entry):
                if c:
                    out[prefix + (i, t, j)] = c
    return out


def _blade_matrices(comp: Component, sig: Signature) -> list[KMatrix]:
    return [
        _matrix_of(sig.blade(mask), comp.kbasis, comp.basis)
        for mask in range(sig.dim)
    ]


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


def _check_generator_relations(rep: Representation) -> CheckResult:
    sig = rep.signature
    for ci, comp in enumerate(rep.components):
        size = comp.basis.size
        kb = comp.kbasis
        zero = KMatrix.scalar_matrix(kb, size, Fraction(0))
        for i in range(sig.n):
            for j in range(i, sig.n):
                anti = (comp.gammas[i] @ comp.gammas[j]) + (
                    comp.gammas[j] @ comp.gammas[i]
                )
                if i == j:
                    eta = sig.generator_square(i + 1)
                    expected = KMatrix.scalar_matrix(kb, size, Fraction(2 * eta))
                else:
                    expected = zero
                if anti != expected:
                    return CheckResult(
                        "repr.generator_relations",
                        False,
                        {"component": ci, "i": i + 1, "j": j + 1},
                    )
    return CheckResult("repr.generator_relations", True)


def _verify_repr_checks(rep: Representation, seed: int) -> list[CheckResult]:
    sig = rep.signature
    checks: list[CheckResult] = []
    cls = rep.algebra_class

    agrees = (
        len(rep.components) == cls.components
        and all(
            comp.kbasis.ktype == cls.ktype and comp.basis.size == cls.matrix_size
            for comp in rep.components
        )
    )
    checks.append(
        CheckResult(
            "class.representation_agrees",
            agrees,
            None
            if agrees
            else {
                "expected": cls.to_json_dict(),
                "components": len(rep.components),
            },
        )
    )

    checks.append(_check_generator_relations(rep))

    solved = [_blade_matrices(comp, sig) for comp in rep.components]

    homo_witness = None
    for ci, comp in enumerate(rep.components):
        products = _ordered_products(comp, sig)
        for mask in range(sig.dim):
            if solved[ci][mask] != products[mask]:
                homo_witness = {"component": ci, "mask": mask}
                break
        if homo_witness:
            break
    checks.append(CheckResult("repr.homomorphism", homo_witness is None, homo_witness))

    ranks = []
    joint = ExactSpan()
    for ci, mats in enumerate(solved):
        span = ExactSpan()
        for mask, mat in enumerate(mats):
            vec = _flatten(mat)
            span.add(vec, mask)
            joint.add(_flatten(mat, prefix=(ci,)), (ci, mask))
        ranks.append(span.rank)
    if cls.simple:
        rank_ok = ranks == [sig.dim]
    else:
        half = sig.dim // 2
        rank_ok = ranks == [half, half] and joint.rank == sig.dim
    checks.append(
        CheckResult(
            "repr.faithful_rank",
            rank_ok,
            None
            if rank_ok
            else {"component_ranks": ranks, "joint_rank": joint.rank, "dim": sig.dim},
        )
    )

    rng = random.Random(seed)
    irr_witness = None
    for ci, comp in enumerate(rep.components):
        ideal_dim = comp.basis.size * comp.kbasis.dim
        basis_products = [
            s * u for s in comp.basis.elements for u in comp.kbasis.units
        ]
        samples = list(comp.basis.elements)
        for _ in range(_RANDOM_PSI_COUNT):
            psi = sig.scalar(0)
            while psi.is_zero():
                psi = sig.scalar(0)
                for v in basis_products:
                    c = rng.randint(-3, 3)
                    if c:
                        psi = psi + v * c
            samples.append(psi)
        for psi in samples:
            span = ExactSpan()
            for mask in range(sig.dim):
                span.add(dict((sig.blade(mask) * psi).terms), mask)
                if span.rank == ideal_dim:
                    break
            if span.rank != ideal_dim:
                irr_witness = {
                    "component": ci,
                    "psi": str(psi),
                    "rank": span.rank,
                    "expected": ideal_dim,
                }
                break
        if irr_witness:
            break
    checks.append(CheckResult("repr.irreducible", irr_witness is None, irr_witness))

    rm_witness = None
    for ci, comp in enumerate(rep.components):
        kb = comp.kbasis
        sample_masks = [rng.randrange(sig.dim) for _ in range(5)]
        for mask in sample_masks:
            u = sig.blade(mask)
            gamma_u = solved[ci][mask]
            for s in comp.basis.elements[: min(3, comp.basis.size)]:
                x = spinor_coordinates(kb, comp.basis, s)
                col = KMatrix(kb, tuple((e,) for e in x))
                for j in range(kb.dim):
                    mu = tuple(
                        Fraction(1) if jj == j else Fraction(0)
                        for jj in range(kb.dim)
                    )
                    left = (gamma_u @ col).scale_right(mu)
                    right = gamma_u @ col.scale_right(mu)
                    direct = spinor_coordinates(
                        kb, comp.basis, u * (s * kb.units[j])
                    )
                    if direct is None or left != right or tuple(
                        e for (e,) in left.entries
                    ) != direct:
                        rm_witness = {"component": ci, "mask": mask, "unit": j}
                        break
                if rm_witness:
                    break
            if rm_witness:
                break
        if rm_witness:
            break
    checks.append(CheckResult("repr.right_module", rm_witness is None, rm_witness))

    return checks


def verify_representation(
    rep: Representation, seed: int = DEFAULT_SAMPLE_SEED
) -> list[CheckResult]:
    """Representation-level checks; also used on re-ingested JSON dumps."""
    try:
        return _verify_repr_checks(rep, seed)
    except Exception as exc:  # a defect during checking is itself a failure
        witness = _error_witness(exc)
        return [CheckResult(cid, False, dict(witness)) for cid in _REPR_CHECK_IDS]


def verify_signature(
    sig: Signature, seed: int = DEFAULT_SAMPLE_SEED
) -> VerificationReport:
    """Run every structural check for one signature; failures become entries."""
    checks: list[CheckResult] = []
    cls = classify(sig)

    dim_ok = sig.dim == cls.components * cls.matrix_size**2 * K_DIMENSION[cls.ktype]
    checks.append(
        CheckResult(
            "class.dimension_identity",
            dim_ok,
            None if dim_ok else {"class": cls.to_json_dict()},
        )
    )
    mod_ok = cls.simple == ((sig.p - sig.q) % 4 != 1)
    checks.append(
        CheckResult(
            "class.simplicity_mod4",
            mod_ok,
            None if mod_ok else {"simple": cls.simple, "p_minus_q_mod4": (sig.p - sig.q) % 4},
        )
    )

    frame = None
    idems = None
    try:
        frame = find_frame(sig)
        svs = sign_vectors(frame.k)
        idems = [primitive_idempotent(frame, sv) for sv in svs]
    except Exception as exc:
        witness = _error_witness(exc)
        checks.extend(
            CheckResult(cid, False, dict(witness)) for cid in _IDEM_CHECK_IDS
        )

    if idems is not None:
        checks.append(
            CheckResult(
                "idem.count",
                len(idems) == 1 << cls.k,
                None if len(idems) == 1 << cls.k else {"count": len(idems), "k": cls.k},
            )
        )

        witness = None
        for sv, f in zip(svs, idems):
            if f * f != f:
                witness = {"signs": list(sv)}
                break
        checks.append(CheckResult("idem.idempotent", witness is None, witness))

        witness = None
        for a in range(len(idems)):
            for b in range(a + 1, len(idems)):
                if not (idems[a] * idems[b]).is_zero():
                    witness = {"i": list(svs[a]), "j": list(svs[b])}
                    break
            if witness:
                break
        checks.append(
            CheckResult("idem.mutually_annihilating", witness is None, witness)
        )

        total = sig.scalar(0)
        for f in idems:
            total = total + f
        sum_ok = total == sig.scalar(1)
        checks.append(
            CheckResult(
                "idem.sum_to_unity", sum_ok, None if sum_ok else {"sum": str(total)}
            )
        )

        witness = None
        for sv, f in zip(svs, idems):
            try:
                if not is_primitive(f):
                    witness = {"signs": list(sv)}
                    break
            except Exception as exc:
                witness = {"signs": list(sv), **_error_witness(exc)}
                break
        checks.append(CheckResult("idem.primitive", witness is None, witness))

        expected_dim = 1 << (sig.n - cls.k)
        witness = None
        for sv, f in zip(svs, idems):
            got = brute_force_minimal_ideal_dim(sig, f)
            if got != expected_dim:
                witness = {"signs": list(sv), "dim": got, "expected": expected_dim}
                break
        checks.append(CheckResult("ideal.dimension", witness is None, witness))

    rep = None
    try:
        rep = build_representation(sig)
    except Exception as exc:
        witness = _error_witness(exc)
        checks.extend(
            CheckResult(cid, False, dict(witness)) for cid in _REPR_CHECK_IDS
        )
    if rep is not None:
        checks.extend(verify_representation(rep, seed=seed))

    zb = center_basis(sig)
    # The center has dimension 2 exactly when the pseudoscalar is central
    # (n odd): R + R for semisimple algebras, C for simple ones with K = C.
    expected_zdim = 2 if sig.n % 2 else 1
    zdim_ok = len(zb) == expected_zdim
    checks.append(
        CheckResult(
            "center.dimension",
            zdim_ok,
            None
            if zdim_ok
            else {"dim": len(zb), "expected": expected_zdim},
        )
    )

    if not cls.simple:
        witness = None
        try:
            c1, c2 = central_idempotents(sig)
            one = sig.scalar(1)
            gens = [sig.blade(1 << i) for i in range(sig.n)]
            if c1 + c2 != one:
                witness = {"fail": "c1 + c2 != 1"}
            elif not (c1 * c2).is_zero() or not (c2 * c1).is_zero():
                witness = {"fail": "c1 c2 != 0"}
            elif c1 * c1 != c1 or c2 * c2 != c2:
                witness = {"fail": "central elements not idempotent"}
            elif any(not (c * g == g * c) for c in (c1, c2) for g in gens):
                witness = {"fail": "central idempotents do not commute with generators"}
            else:
                span_center = ExactSpan()
                for idx, z in enumerate(zb):
                    span_center.add(dict(z.terms), idx)
                if not (
                    span_center.contains(dict(c1.terms))
                    and span_center.contains(dict(c2.terms))
                ):
                    witness = {"fail": "c1, c2 outside span of the center basis"}
                else:
                    span_c = ExactSpan()
                    span_c.add(dict(c1.terms), 0)
                    span_c.add(dict(c2.terms), 1)
                    if not all(span_c.contains(dict(z.terms)) for z in zb):
                        witness = {"fail": "center basis outside span of c1, c2"}
            if witness is None and frame is not None:
                f = primitive_idempotent(frame, (1,) * frame.k)
                fh = f.involute()
                if not (fh * f).is_zero():
                    witness = {"fail": "hat(f) f != 0"}
                else:
                    joint = ExactSpan()
                    for mask in range(sig.dim):
                        joint.add(dict((sig.blade(mask) * f).terms), ("S", mask))
                    dim_s = joint.rank
                    for mask in range(sig.dim):
                        joint.add(dict((sig.blade(mask) * fh).terms), ("Sh", mask))
                    if joint.rank != 2 * dim_s:
                        witness = {
                            "fail": "S + hat(S) is not a direct sum",
                            "dim_S": dim_s,
                            "joint": joint.rank,
                        }
        except Exception as exc:
            witness = _error_witness(exc)
        checks.append(CheckResult("semi.split", witness is None, witness))

    return VerificationReport(sig, checks)


def verify_range(max_n: int, seed: int = DEFAULT_SAMPLE_SEED) -> RangeSummary:
    """Verify every signature with p + q <= max_n, ordered by (n, p)."""
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    reports = []
    for n in range(max_n + 1):
        for p in range(n + 1):
            reports.append(verify_signature(Signature(p, n - p), seed=seed))
    return RangeSummary(max_n, reports)
