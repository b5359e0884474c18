"""Executable structural verification of the matrix-algebra decomposition.

Every check is exact; a failing check carries a JSON-serializable witness
instead of raising, so a verification sweep always completes and reports.

``verify_signature`` runs the ordered tables ``CHECKS``, ``REPR_CHECKS``
(through ``verify_representation``, also run on dumps) and ``CENTER_CHECKS``
on one context.  Each fn of a ``(check_id, fn)`` reads what the checks share
from that lazily built context and returns a witness, or None on a pass.  An
exception fails only the checks that meet it, each under its own id with an
``{"error": "Type: message"}`` witness.

A check may confirm a pass with a cheaper certificate or proof; when it
cannot decide, the check falls back to exact arithmetic, which alone gives
verdicts of failure and their witnesses.  The exact blade matrices and
spinor coordinates of the representation checks come from the function that
gives ``repr`` its generator matrices (``_blade_matrices``), each blade
solved once; ``repr.homomorphism`` compares each with a generator matrix
times an earlier blade's, so no second set of 2^n products is built.

The representation checks rest on one premise (``_left_multiplication``):
the generators permute the real basis x_{t d + j} = s_t u_j up to sign,
u_0 == f, the unit table is that of R, C or H, and each gamma is the
generator matrix those permutations are read from.  Each gamma is then left
multiplication by e_i on the free right K-module M = span{s_t u_j}, so
``repr.generator_relations``, ``repr.homomorphism`` and ``repr.right_module``
hold with nothing compared.

``repr.irreducible`` rests on Schur's lemma (P. Lounesto, *Clifford
Algebras and Spinors*, 2nd ed., Ch. 17).  In the real basis s_t u_j each
generator acts as a signed permutation, from the Salingaros vee group
{+-e_A}.  So the real matrices commuting with the generators are counted
over orbits of index pairs, with no linear algebra.  When that commutant is
the right action of the units, a division algebra D of dimension dim K, the
span of the s_t u_j is a simple left ideal (``_simple_ideal``) and every
nonzero sample generates it.  By the Jacobson density theorem (T. Y. Lam,
*A First Course in Noncommutative Rings*, Sec. 11) Cl(p,q) then maps onto
End_D(M), of dimension N^2 d, and onto the product of those of
non-isomorphic simple components, which proves ``repr.faithful_rank``
(``_density_proves_ranks``).

The idempotent checks read each idempotent's stabilizer character
(``idempotents.stabilizer_character``), built once per signature on the
context: e_h f == chi(h) f for every h in the stabilizer H of supp f.  It
proves f f == f, f_a f_b == 0, dim Cl(p,q) f == 2^n / |H| (inside
``brute_force_minimal_ideal_dim``) and, through the central pseudoscalar,
that ``semi.split``'s sum S + hat(S) is direct, with no product and no
rank.  When it declines, the left multiples e_X f are read into classes of
proportional rows (``_class_rows``), with no product formed, and ranked
over Q; ``brute_force_minimal_ideal_dim`` also ranks the samples of
``repr.irreducible`` so.  Certificates only confirm; every failure and
witness comes from the exact path.
"""

from __future__ import annotations

import random
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
from .division import _UNIT_TABLES
from .idempotents import (
    IDEMPOTENT_INVARIANTS,
    IdempotentSet,
    StabilizerCharacter,
    center_basis,
    central_idempotents,
    find_frame,
    idempotent_set,
    stabilizer_character,
)
from .linalg import span_of
from .representation import (
    Component,
    KMatrix,
    Representation,
    SpinorBasis,
    build_representation,
    _blade_matrices,
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


def _class_rows(f: Multivector) -> tuple[dict[int, int], ...]:
    """One content-free integer row per class of left multiples e_X f equal
    up to a rational factor, its leading (smallest-mask) entry positive, in
    order of first appearance (f == 0 has the one row {}).

    Each e_X f is a signed permutation of f's integer numerators, read off
    them with no product formed, and a class is keyed by its exact row, so
    it only holds proportional rows.  Every e_X f is a nonzero multiple of
    its class row, so the rows span Cl(p,q) f.
    """
    _, masks, nums = f._integer_terms
    content = gcd(*nums)
    signs = _sign_masks(f.signature)
    terms = [(b, c // content, signs[b]) for b, c in zip(masks, nums)]

    def key(x: int) -> tuple:
        row = sorted(
            (x ^ b, -c if (x & q).bit_count() & 1 else c) for b, c, q in terms
        )
        return tuple((m, -c) for m, c in row) if row and row[0][1] < 0 else tuple(row)

    return tuple(map(dict, dict.fromkeys(map(key, range(f.signature.dim)))))


def brute_force_minimal_ideal_dim(
    sig: Signature, f: Multivector, character: StabilizerCharacter | None = None
) -> int:
    """R-dimension of Cl(p,q) f, the rank of all blade left-multiples e_A f.

    f's stabilizer character (``character``, read from f when not given)
    proves it 2^n / |H|: for X in one coset of H, e_X f = +-chi(h) e_X0 f
    are proportional, and rows of distinct cosets have the disjoint
    supports X xor S.  Otherwise the left multiples have the rank of their
    class rows, found by row reduction over Q.
    """
    if f.signature != sig:
        raise SignatureMismatchError(f"{f.signature} vs {sig}")
    if character is None:
        character = stabilizer_character(f)
    if character is not None:
        return sig.dim // len(character.values)
    return span_of(_class_rows(f)).rank


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
        return idempotent_set(find_frame(self.sig))

    @cached_property
    def characters(self) -> tuple[StabilizerCharacter | None, ...]:
        """The stabilizer character of each idempotent, or None."""
        return tuple(map(stabilizer_character, self.idems.idempotents))

    @cached_property
    def rep(self) -> Representation:
        return build_representation(self.idems.frame)

    @cached_property
    def solved(self) -> list[list[KMatrix]]:
        """Per component, every blade's matrix in its spinor basis."""
        return [
            _blade_matrices(comp.basis, range(self.sig.dim))
            for comp in self.rep.components
        ]

    @cached_property
    def left_multiplication(self) -> list[bool]:
        return [_left_multiplication(comp) for comp in self.rep.components]

    @cached_property
    def simple_ideals(self) -> list[bool]:
        return [_simple_ideal(comp.basis) for comp in self.rep.components]

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
    return lambda ctx: witness_of(
        ctx.idems.signs, ctx.idems.idempotents, ctx.characters
    )


def _ideal_dimension(ctx: _Context) -> dict | None:
    expected = 1 << (ctx.sig.n - ctx.cls.k)
    idems = ctx.idems
    for sv, f, chi in zip(idems.signs, idems.idempotents, ctx.characters):
        got = brute_force_minimal_ideal_dim(ctx.sig, f, chi)
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


def _left_multiplication(comp: Component) -> bool:
    """Whether each gamma is proved left multiplication by e_i on the free
    right K-module M = span{s_t u_j}; False decides nothing.

    It holds when the generator permutations exist (so the s_t u_j are
    independent, M is a left ideal and the units follow the table of R, C
    or H), u_0 == f (so s_t == s_t u_0), the dumped table, read by K-matrix
    products, is that table, and the gammas are the generator matrices the
    permutations are read from (``SpinorBasis.generator_matrices``; the
    same object for a built representation).  K-matrices then map
    injectively and multiplicatively to real matrices on M."""
    sb, kb = comp.basis, comp.kbasis
    return (
        sb.generator_permutations is not None
        and kb.units[0] == kb.idempotent
        and kb.table == _UNIT_TABLES[kb.dim]
        and comp.gammas == sb.generator_matrices
    )


def _generator_relations(ctx: _Context) -> dict | None:
    sig = ctx.sig
    for ci, comp in enumerate(ctx.rep.components):
        if ctx.left_multiplication[ci]:
            continue
        g = comp.gammas
        for i in range(sig.n):
            for j in range(i, sig.n):
                eta = sig.generator_square(i + 1) if i == j else 0
                expected = KMatrix.scalar_matrix(comp.kbasis, comp.basis.size, 2 * eta)
                if g[i] @ g[j] + g[j] @ g[i] != expected:
                    return {"component": ci, "i": i + 1, "j": j + 1}
    return None


def _homomorphism(ctx: _Context) -> dict | None:
    """gamma(1) is the identity and gamma(e_mask) == gamma(e_i) gamma(e_rest),
    i the lowest bit of mask (e_mask = e_i e_rest with no sign).  In
    ascending order every rest < mask already equals its ordered product of
    generator matrices, so the witness is the first mask whose solved matrix
    differs from it; a generator of the wrong shape fails at its own mask.
    A component proved left multiplication passes, as that is a homomorphism."""
    for ci, comp in enumerate(ctx.rep.components):
        if ctx.left_multiplication[ci]:
            continue
        solved = ctx.solved[ci]
        for mask, mat in enumerate(solved):
            if mask == 0:
                expected = KMatrix.identity(comp.kbasis, comp.basis.size)
            else:
                low = mask & -mask
                g = comp.gammas[low.bit_length() - 1]
                expected = g if mask == low else g @ solved[mask ^ low]
            if mat != expected:
                return {"component": ci, "mask": mask}
    return None


def _density_proves_ranks(ctx: _Context) -> bool:
    """Whether density proves the ranks ``repr.faithful_rank`` expects.

    Every component is left multiplication on a simple M of D-dimension N
    with End_Cl(M) = D of dimension d (``_left_multiplication`` and
    ``_simple_ideal``), so the image of Cl(p,q) is End_D(M), of dimension
    N^2 d, which must be 2^n, or 2^(n-1) for each of a semisimple algebra's
    two.  The central pseudoscalar acts on each M as its value on f
    (``_pseudoscalar_value``), so opposite values make the two modules
    non-isomorphic, and the joint image is the product, of dimension 2^n.
    """
    comps, sig = ctx.rep.components, ctx.sig
    expected = [sig.dim] if ctx.rep.simple else [sig.dim // 2] * 2
    if not (
        all(ctx.left_multiplication)
        and all(ctx.simple_ideals)
        and [c.basis.size**2 * c.kbasis.dim for c in comps] == expected
    ):
        return False
    return ctx.rep.simple or {
        _pseudoscalar_value(sig, stabilizer_character(c.basis.idempotent))
        for c in comps
    } == {1, -1}


def _faithful_rank(ctx: _Context) -> dict | None:
    """Each component's blade matrices span half of Cl(p,q) (all of it when
    simple), and each blade's matrices in all components together span all
    of it.  Density may prove it (``_density_proves_ranks``)."""
    if _density_proves_ranks(ctx):
        return None
    sig = ctx.sig
    ranks = [span_of(_flatten(mat) for mat in mats).rank for mats in ctx.solved]
    joint = span_of(_flatten(*mats) for mats in zip(*ctx.solved)).rank
    expected = [sig.dim] if ctx.rep.simple else [sig.dim // 2] * 2
    if ranks == expected and joint == sig.dim:
        return None
    return {"component_ranks": ranks, "joint_rank": joint, "dim": sig.dim}


def _psi_sampler(sig: Signature, vectors: list[Multivector]):
    """draw(rng): psi = sum c_v v over the vectors with each c_v drawn by
    ``rng.randint(-3, 3)`` in order, all drawn again while psi is zero.
    Some vector must be nonzero."""

    def draw(rng: random.Random) -> Multivector:
        while True:
            psi = sum((v * rng.randint(-3, 3) for v in vectors), sig.scalar(0))
            if not psi.is_zero():
                return psi

    return draw


def _commutant_dim(perms, size: int) -> int:
    """dim_R of the real size x size matrices X commuting with every signed
    permutation (pi, sigma) in ``perms``.

    X commutes with one exactly when X[pi a, pi b] = sigma(a) sigma(b)
    X[a, b] for every index pair, so X is free on each orbit of pairs whose
    signs agree around every cycle and zero on the others.  The orbits are
    searched along each permutation in turn: a permutation of a finite set
    reaches its own inverse, so the forward steps cover every orbit.
    """
    sign = [0] * (size * size)
    dim = 0
    for start in range(size * size):
        if sign[start]:
            continue
        sign[start] = 1
        stack = [start]
        consistent = True
        while stack:
            x = stack.pop()
            a, b = divmod(x, size)
            s = sign[x]
            for pi, sigma in perms:
                y = pi[a] * size + pi[b]
                sy = s * sigma[a] * sigma[b]
                if not sign[y]:
                    sign[y] = sy
                    stack.append(y)
                elif sign[y] != sy:
                    consistent = False
        dim += consistent
    return dim


def _simple_ideal(sb: SpinorBasis) -> bool:
    """Whether M = span{s_t u_j} is proved a simple left ideal of Cl(p,q).

    It reads only f, the units and the spinor blades, never a gamma matrix
    or the unit table, and holds when all of these hold; False decides
    nothing.  ``SpinorBasis.generator_permutations`` exists only when 1-3
    hold.
    1. The real-basis index exists and is not empty: the D = N d elements
       s_t u_j are nonzero with distinct leading masks, so independent.
    2. Each generator sends each s_t u_j to +-s_r u_c exactly.  So M is a
       left ideal on which e_i acts as a signed permutation.
    3. Each product u_a u_b, solved over the units, is the entry of the
       fixed table of R, C or H (``DivisionRingBasis.unit_defect``; a built
       K keeps the result of ``division_ring_basis``).  So the units are
       independent, the right multiplications by them map M to M and
       commute with every e_i, and they span a division algebra of
       dimension d.
    4. dim_R End_Cl(M) = d, counted by ``_commutant_dim``.
    Then End_Cl(M) is that division algebra (Schur's lemma read backwards).
    M is a real representation of the finite group {+-e_A}, so semisimple
    by Maschke's theorem, and two or more simple summands would give a
    projection in End_Cl(M), a zero divisor.  So M is simple, and every
    nonzero psi in M has Cl psi = M, of dimension D.
    """
    kb = sb.kbasis
    perms = sb.generator_permutations
    return perms is not None and _commutant_dim(perms, sb.size * kb.dim) == kb.dim


def _irreducible(ctx: _Context) -> dict | None:
    """Every sample psi of S generates all of S: the left multiples e_A psi
    reach rank dim_R S.

    When ``_simple_ideal`` proves M = span{s_t u_j} simple, every nonzero
    psi in M generates it, and no rank is computed.  The samples'
    coefficients are still drawn, one ``randint(-3, 3)`` per s_t u_j, again
    while all are zero (psi is zero exactly then, the s_t u_j being
    independent), so ``repr.right_module`` reads the same rng stream.
    Otherwise every sample psi is ranked by ``brute_force_minimal_ideal_dim``:
    2^n / |H| when psi has a stabilizer character, else the rank of its
    class rows over Q, and it fails when that rank is below dim_R S.  The
    left multiples of a basis sample +-e_B f are the +-e_X f, so
    dim Cl(p,q) f == dim_R S confirms the basis samples there.
    """
    sig = ctx.sig
    for ci, comp in enumerate(ctx.rep.components):
        kb, sb = comp.kbasis, comp.basis
        ideal_dim = sb.size * kb.dim
        if ctx.simple_ideals[ci]:
            for _ in range(_RANDOM_PSI_COUNT):
                while not any([ctx.rng.randint(-3, 3) for _ in range(ideal_dim)]):
                    pass
            continue
        basis_products = [s * u for s in sb.elements for u in kb.units]
        if not any(basis_products):
            return {"component": ci, "fail": "the real basis {s_t u_j} is zero"}
        draw = _psi_sampler(sig, basis_products)
        basis_proved = brute_force_minimal_ideal_dim(sig, sb.idempotent) == ideal_dim
        samples = [] if basis_proved else list(sb.elements)
        samples += [draw(ctx.rng) for _ in range(_RANDOM_PSI_COUNT)]
        for psi in samples:
            rank = brute_force_minimal_ideal_dim(sig, psi)
            if rank < ideal_dim:
                return {
                    "component": ci,
                    "psi": str(psi),
                    "rank": rank,
                    "expected": ideal_dim,
                }
    return None


def _right_module(ctx: _Context) -> dict | None:
    sig = ctx.sig
    for ci, comp in enumerate(ctx.rep.components):
        kb, sb = comp.kbasis, comp.basis
        masks = [ctx.rng.randrange(sig.dim) for _ in range(5)]
        if ctx.left_multiplication[ci]:
            continue
        solved = ctx.solved[ci]
        # per spinor s, what no mask changes: its coordinate column and that
        # column times each unit tuple mu
        mus = [tuple(int(jj == j) for jj in range(kb.dim)) for j in range(kb.dim)]
        spinors = []
        for s in sb.elements[:3]:
            col = KMatrix(kb, sb.size, (tuple(_column(sb, s)),))
            spinors.append((col, [col.scale_right(mu) for mu in mus]))
        for mask in masks:
            gamma_u = solved[mask]
            for t, (col, scaled) in enumerate(spinors):
                gamma_col = gamma_u @ col
                for j, mu in enumerate(mus):
                    left = gamma_col.scale_right(mu)
                    right = gamma_u @ scaled[j]
                    column = _column(sb, sig.blade(mask) * sb.elements[t] * kb.units[j])
                    if (
                        left != right
                        or column is None
                        or left.columns[0] != tuple(column)
                    ):
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


def _pseudoscalar_value(sig: Signature, chi) -> int | None:
    """chi(w) for the pseudoscalar e_w when n is odd and w is in the
    stabilizer of f; None otherwise.  e_w is then central, so e_w x f =
    x e_w f = chi(w) x f on all of Cl f."""
    if sig.n % 2 == 0 or chi is None:
        return None
    return chi.values.get(sig.dim - 1)


def _split_by_pseudoscalar(sig: Signature, chi, hat_chi) -> bool:
    """Whether the characters of f and hat(f) prove dim hat(S) == dim S and
    S + hat(S) direct; False decides nothing.

    Opposite pseudoscalar values (``_pseudoscalar_value``) put S and hat(S)
    in different eigenspaces of left multiplication by e_w, and equal
    stabilizers give equal dimensions 2^n / |H|.
    """
    value = _pseudoscalar_value(sig, chi)
    return (
        value is not None
        and _pseudoscalar_value(sig, hat_chi) == -value
        and len(chi.values) == len(hat_chi.values)
    )


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
    if _split_by_pseudoscalar(sig, ctx.characters[0], stabilizer_character(fh)):
        return None
    # every e_X f is a nonzero multiple of one of its class rows, so the
    # rows have the ranks of the products e_X f and e_X hat(f)
    rows, hat_rows = _class_rows(f), _class_rows(fh)
    dim_s = span_of(rows).rank
    joint = span_of(rows + hat_rows).rank
    if joint != 2 * dim_s:
        return {
            "fail": "S + hat(S) is not a direct sum",
            "dim_S": dim_s,
            "joint": joint,
        }
    return None


REPR_CHECKS = (
    ("class.representation_agrees", _representation_agrees),
    ("repr.generator_relations", _generator_relations),
    ("repr.homomorphism", _homomorphism),
    ("repr.faithful_rank", _faithful_rank),
    ("repr.irreducible", _irreducible),
    ("repr.right_module", _right_module),
)

# Every check of one signature, in report order: CHECKS, REPR_CHECKS over
# the representation built on the same context, and CENTER_CHECKS, of which
# semi.split, last, applies to semisimple algebras only.
CHECKS = (
    ("class.dimension_identity", _dimension_identity),
    ("class.simplicity_mod4", _simplicity_mod4),
    ("idem.count", _idem_count),
    *(
        (check_id, _over_idempotents(witness_of))
        for check_id, witness_of in IDEMPOTENT_INVARIANTS
    ),
    ("ideal.dimension", _ideal_dimension),
)
CENTER_CHECKS = (("center.dimension", _center_dimension), ("semi.split", _semi_split))


def verify_representation(
    rep: Representation | None, seed: int = DEFAULT_SAMPLE_SEED, ctx: _Context | None = None
) -> list[CheckResult]:
    """Representation-level checks over ``rep``, such as a re-ingested JSON
    dump, or, given a signature's ``ctx``, over the one it builds on first use."""
    if ctx is None:
        ctx = _Context(rep.signature, seed)
        ctx.rep = rep  # in place of the lazily built one
    return _run(REPR_CHECKS, ctx)


def verify_signature(
    sig: Signature, seed: int = DEFAULT_SAMPLE_SEED
) -> VerificationReport:
    """Run every structural check for one signature; failures become entries."""
    ctx = _Context(sig, seed)
    center = CENTER_CHECKS[:-1] if ctx.cls.simple else CENTER_CHECKS
    results = _run(CHECKS, ctx) + verify_representation(None, ctx=ctx)
    return VerificationReport(sig, results + _run(center, ctx))


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
