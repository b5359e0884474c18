"""Executable structural verification of the matrix-algebra decomposition.

Every check is exact; a failing check carries a JSON-serializable witness
instead of raising, so a verification sweep always completes and reports.

``CHECKS`` is the ordered table of ``(check_id, fn)``: each fn reads what
the checks share from a lazily built per-signature context and returns a
witness, or None on a pass.  An exception fails only the checks that meet
it, each under its own id with an ``{"error": "Type: message"}`` witness.

A check may confirm a pass with a cheaper certificate or proof; when it
cannot decide, the check falls back to exact arithmetic, which alone gives
verdicts of failure and their witnesses.  The exact blade matrices and
spinor coordinates of the representation checks come from the function that
gives ``repr`` its generator matrices (``_blade_matrices``), each blade
solved once; ``repr.homomorphism`` compares each with a generator matrix
times an earlier blade's, so no second set of 2^n products is built.

Four representation checks first read each component's real form
(``_real_form``): the signed permutation P_A of every blade on the real
basis x_{t d + j} = s_t u_j, composed from the spinor basis's generator
permutations, when the unit table is that of R, C or H and each gamma is
the matrix of its permutation.  Each gamma is then left multiplication on a
left ideal, so ``repr.homomorphism`` holds, ``repr.generator_relations``
and ``repr.right_module`` compare permutations, and signed permutations
being orthogonal, traces prove ``repr.faithful_rank``.

``repr.irreducible`` rests on Schur's lemma (P. Lounesto, *Clifford
Algebras and Spinors*, 2nd ed., Ch. 17).  In the real basis s_t u_j each
generator acts as a signed permutation, from the Salingaros vee group
{+-e_A}.  So the real matrices commuting with the generators are counted
over orbits of index pairs, with no linear algebra.  When that commutant is
the right action of the units, a division algebra of dimension dim K, the
span of the s_t u_j is a simple left ideal (``_simple_ideal``) and every
nonzero sample generates it.

The idempotent checks read each idempotent's stabilizer character
(``idempotents.stabilizer_character``), built once per signature on the
context: e_h f == chi(h) f for every h in the stabilizer H of supp f.  It
proves f f == f, f_a f_b == 0, dim Cl(p,q) f == 2^n / |H| (inside
``brute_force_minimal_ideal_dim``) and, through the central pseudoscalar,
that ``semi.split``'s sum S + hat(S) is direct, with no product and no
rank.  When it declines, the left multiples e_X f are read into classes of
proportional rows (``_class_rows``), with no product formed, and ranked
over Q.  Certificates only confirm; every failure and witness comes from
the exact path.
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
from .division import _UNIT_PRODUCTS, _UNIT_TABLES
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
from .linalg import ExactSpan, span_of
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
    def repr_witnesses(self) -> dict:
        """REPR_CHECKS run once over this signature's representation."""
        results = verify_representation(self.rep, seed=self.seed)
        return {c.check_id: c.witness for c in results}

    @cached_property
    def solved(self) -> list[list[KMatrix]]:
        """Per component, every blade's matrix in its spinor basis."""
        return [
            _blade_matrices(comp.basis, range(self.sig.dim))
            for comp in self.rep.components
        ]

    @cached_property
    def real_forms(self) -> list:
        return [_real_form(comp) for comp in self.rep.components]

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


def _compose(outer, inner) -> tuple[list, list]:
    """The signed permutation outer . inner (inner applied first)."""
    (po, so), (pi, si) = outer, inner
    return [po[b] for b in pi], [s * so[b] for b, s in zip(pi, si)]


def _real_form(comp: Component) -> list | None:
    """P_A = P_low P_rest (low A's lowest bit) for every blade e_A in mask
    order, from the generator permutations P_i on x_{t d + j} = s_t u_j;
    None unless the P_i exist, the units follow the table of R, C or H with
    u_0 == f (so s_t == x_{t d}), the dumped table, read by K-matrix
    products, is that table, and the gammas are the generator matrices the
    P_i are read from (``SpinorBasis.generator_matrices``; the same object
    for a built representation).  K-matrices then map injectively and
    multiplicatively to real matrices: gamma_i to P_i, e_A's to P_A."""
    sb, kb = comp.basis, comp.kbasis
    perms, size = sb.generator_permutations, sb.size * kb.dim
    if (
        perms is None
        or kb.unit_defect is not None
        or kb.units[0] != kb.idempotent
        or kb.table != _UNIT_TABLES[kb.dim]
        or comp.gammas != sb.generator_matrices
    ):
        return None
    forms = [(list(range(size)), [1] * size)]
    for mask in range(1, 1 << len(perms)):
        low = mask & -mask
        forms.append(_compose(perms[low.bit_length() - 1], forms[mask ^ low]))
    return forms


def _anticommute(form, sig: Signature) -> bool:
    """P_i P_j + P_j P_i == 2 eta_i delta_ij I for P_i = form[1 << i]."""
    identity = form[0][0]
    for i in range(sig.n):
        square = (identity, [sig.generator_square(i + 1)] * len(identity))
        if _compose(form[1 << i], form[1 << i]) != square:
            return False
        for j in range(i + 1, sig.n):
            p, s = _compose(form[1 << j], form[1 << i])
            if _compose(form[1 << i], form[1 << j]) != (p, [-x for x in s]):
                return False
    return True


def _generator_relations(ctx: _Context) -> dict | None:
    sig = ctx.sig
    for ci, comp in enumerate(ctx.rep.components):
        form = ctx.real_forms[ci]
        if form is not None and _anticommute(form, sig):
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
    A component with a real form passes: left multiplication is a homomorphism."""
    for ci, comp in enumerate(ctx.rep.components):
        if ctx.real_forms[ci] is not None:
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


def _traces_prove_ranks(forms, simple: bool) -> bool:
    """Whether traces prove the ranks ``repr.faithful_rank`` expects:
    <P_A, P_B> = tr P_A^T P_B = +-tr P_{A xor B}, with one sign for all
    components.  Traces of P_C summing to 0 over the components for every
    C != 0 make the joint Gram matrix diagonal, of rank 2^n.  In each of a
    semisimple algebra's two, tr P_C == 0 for C outside {0, w} and tr P_w
    == +-D (so P_w == +-I) give rank 2^(n-1)."""
    if None in forms or len(forms) != (1 if simple else 2):
        return False
    traces = [
        [sum(s for a, (b, s) in enumerate(zip(*p)) if a == b) for p in form]
        for form in forms
    ]
    top = len(traces[0]) - 1
    return not any(map(sum, list(zip(*traces))[1:])) and (
        simple or all(not any(tr[1:top]) and abs(tr[top]) == tr[0] for tr in traces)
    )


def _faithful_rank(ctx: _Context) -> dict | None:
    """Each component's blade matrices span half of Cl(p,q) (all of it when
    simple), and each blade's matrices in all components together span all
    of it.  Traces of the real forms may prove it (``_traces_prove_ranks``)."""
    if _traces_prove_ranks(ctx.real_forms, ctx.rep.simple):
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

    psi is accumulated on integer numerators over the vectors' common
    denominator and normalized once.  Some vector must be nonzero.
    """
    den = 1
    for v in vectors:
        d = v._integer_terms[0]
        den = den * d // gcd(den, d)
    rows = []
    for v in vectors:
        d, masks, nums = v._integer_terms
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
    nothing.
    1. The real-basis index exists and is not empty: the D = N d elements
       s_t u_j are nonzero with distinct leading masks, so independent.
    2. Each generator sends each s_t u_j to +-s_r u_c exactly
       (``SpinorBasis.generator_permutations``).  So M is a left ideal on
       which e_i acts as a signed permutation.
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
    return (
        perms is not None
        and kb.unit_defect is None
        and _commutant_dim(perms, sb.size * kb.dim) == kb.dim
    )


def _irreducible(ctx: _Context) -> dict | None:
    """Every sample psi of S generates all of S: the left multiples e_A psi
    reach rank dim_R S.

    When ``_simple_ideal`` proves M = span{s_t u_j} simple, every nonzero
    psi in M generates it, and no rank is computed.  The samples'
    coefficients are still drawn, one ``randint(-3, 3)`` per s_t u_j, again
    while all are zero (psi is zero exactly then, the s_t u_j being
    independent), so ``repr.right_module`` reads the same rng stream.
    Otherwise every sample is ranked exactly, and the exact rows alone give
    witnesses.  The left multiples of a basis sample +-e_B f are the
    +-e_X f, so dim Cl(p,q) f == dim_R S confirms the basis samples there.
    """
    sig = ctx.sig
    for ci, comp in enumerate(ctx.rep.components):
        kb, sb = comp.kbasis, comp.basis
        ideal_dim = sb.size * kb.dim
        if _simple_ideal(sb):
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


def _right_action(form, d: int, size: int, masks) -> bool:
    """e_A (s_t u_j) == (e_A s_t) u_j on the real form for the first three s_t."""
    for pi, sigma in map(form.__getitem__, masks):
        for t in range(min(size, 3)):
            r, c = divmod(pi[t * d], d)
            for j, (cj, s) in enumerate(_UNIT_PRODUCTS[c][:d]):
                if (pi[t * d + j], sigma[t * d + j]) != (r * d + cj, s * sigma[t * d]):
                    return False
    return True


def _right_module(ctx: _Context) -> dict | None:
    sig = ctx.sig
    for ci, comp in enumerate(ctx.rep.components):
        kb, sb = comp.kbasis, comp.basis
        masks = [ctx.rng.randrange(sig.dim) for _ in range(5)]
        form = ctx.real_forms[ci]
        if form is not None and _right_action(form, kb.dim, sb.size, masks):
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


def _split_by_pseudoscalar(sig: Signature, chi, hat_chi) -> bool:
    """Whether the characters of f and hat(f) prove dim hat(S) == dim S and
    S + hat(S) direct; False decides nothing.

    For odd n the pseudoscalar e_w is central, so with w in both
    stabilizers, e_w x f = chi(w) x f on all of S = Cl f, and likewise on
    hat(S).  Opposite values put S and hat(S) in different eigenspaces of
    left multiplication by e_w, and equal stabilizers give equal
    dimensions 2^n / |H|.
    """
    w = sig.dim - 1
    return (
        sig.n % 2 == 1
        and chi is not None
        and hat_chi is not None
        and len(chi.values) == len(hat_chi.values)
        and w in chi.values
        and hat_chi.values.get(w) == -chi.values[w]
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
