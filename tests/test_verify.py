import importlib
import json
import os
import random
import sys
from fractions import Fraction
from math import gcd

import pytest

import cliffstruct.division as division
import cliffstruct.idempotents as idempotents
import cliffstruct.representation as representation
import cliffstruct.verify as verify
from cliffstruct import (
    Component,
    DivisionRingBasis,
    KMatrix,
    Representation,
    RepresentationError,
    Signature,
    SignatureMismatchError,
    SpinorBasis,
    brute_force_minimal_ideal_dim,
    build_representation,
    classify,
    find_frame,
    primitive_idempotent,
    representation_from_json_dict,
    representation_to_json_dict,
    verify_range,
    verify_representation,
    verify_signature,
)
from cliffstruct.idempotents import sign_vectors
from cliffstruct.linalg import span_of
from cliffstruct.representation import _blade_matrices

from test_division import _conjugated_cl20_idempotent, _rotor_conjugate
from test_idempotents import _fixed_non_products, _trace_case
from test_representation import (
    _counted,
    _generator_permutations_oracle,
    _matrix_of_oracle,
    _outcome,
    _set,
)

try:
    import hypothesis
    from hypothesis import strategies as st
except ImportError:  # fixed draws instead
    hypothesis = None

HALF = Fraction(1, 2)
SLOW = os.environ.get("CLIFFSTRUCT_SLOW") == "1"
# The ideal-dimension oracle runs to n <= 9 with CLIFFSTRUCT_SLOW=1, and the
# commutant orbit count to n <= 12.
ORACLE_MAX_N = 9 if SLOW else 7
COMMUTANT_MAX_N = 12 if SLOW else 10


def test_brute_force_ideal_dims():
    sig = Signature(1, 0)
    f = (sig.scalar(1) + sig.e(1)) * HALF
    assert brute_force_minimal_ideal_dim(sig, f) == 1

    sig = Signature(0, 2)
    assert brute_force_minimal_ideal_dim(sig, sig.scalar(1)) == 4

    sig = Signature(3, 0)
    f = (sig.scalar(1) + sig.e(1)) * HALF
    assert brute_force_minimal_ideal_dim(sig, f) == 4


def test_brute_force_signature_check():
    with pytest.raises(SignatureMismatchError):
        brute_force_minimal_ideal_dim(Signature(1, 0), Signature(0, 1).scalar(1))


def test_ideal_dim_matches_formula():
    for n in range(5):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            frame = find_frame(sig)
            f = primitive_idempotent(frame, (1,) * frame.k)
            assert brute_force_minimal_ideal_dim(sig, f) == sig.dim >> frame.k


def _ideal_dim_oracle(sig, f):
    """R-dimension of Cl(p,q) f ranked on the Multivector rows e_A f, as
    ``brute_force_minimal_ideal_dim`` computed it before the integer rows."""
    return span_of(dict((sig.blade(mask) * f).terms) for mask in range(sig.dim)).rank


@pytest.mark.parametrize("n", range(ORACLE_MAX_N + 1))
def test_ideal_dim_matches_the_multivector_rows_on_every_idempotent(n):
    for p in range(n + 1):
        sig = Signature(p, n - p)
        frame = find_frame(sig)
        for sv in sign_vectors(frame.k):
            f = primitive_idempotent(frame, sv)
            assert brute_force_minimal_ideal_dim(sig, f) == _ideal_dim_oracle(sig, f)


def _random_multivectors(seed, count):
    """Seeded sums of rational multiples of random blades, n <= 6."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(0, 6)
        p = rng.randint(0, n)
        sig = Signature(p, n - p)
        terms = {
            rng.randrange(sig.dim): Fraction(rng.randint(-9, 9), rng.choice((1, 2, 4, 7)))
            for _ in range(rng.randint(1, 6))
        }
        yield sum((sig.blade(m, c) for m, c in terms.items()), sig.scalar(0))


def test_ideal_dim_matches_the_multivector_rows_off_the_product_form():
    elements = [_rotor_conjugate(), _conjugated_cl20_idempotent()]
    assert all(f * f == f for f in elements)
    elements += list(_random_multivectors(seed=2024, count=200))
    assert any(u * u != u for u in elements)
    for u in elements:
        sig = u.signature
        assert brute_force_minimal_ideal_dim(sig, u) == _ideal_dim_oracle(sig, u)


def _table_case(draw):
    """An element from integer draws: zero, a random sum of blades, an
    idempotent of ``_trace_case`` (a product, a rational conjugate or a
    skewed sum, some not in product form) or a rational multiple of one,
    which is not idempotent."""
    kind = draw(0, 5)
    if kind < 3:
        n = draw(0, 5)
        p = draw(0, n)
        sig = Signature(p, n - p)
        u = sig.scalar(0)
        for _ in range(draw(1, 6) if kind else 0):
            u = u + sig.blade(draw(0, sig.dim - 1), Fraction(draw(-9, 9), draw(1, 4)))
        return u
    f = _trace_case(draw)
    return f if kind == 3 else f * Fraction(draw(-9, 9) or 1, draw(2, 9))


def _proportional(terms, row):
    """Whether the nonzero terms are a rational multiple of the row: the same
    masks, and coefficients proportional to the leading pair."""
    if terms.keys() != row.keys():
        return False
    lead = min(row, default=None)
    return all(c * row[lead] == row[m] * terms[lead] for m, c in terms.items())


def _assert_table(u):
    """Every e_X u is a rational multiple of exactly one class row; the rows
    are content-free, lead with a positive entry and come in order of first
    appearance; and the ideal oracle ranks u as the Multivector rows do."""
    sig = u.signature
    rows = verify._class_rows(u)
    seen = []
    for x in range(sig.dim):
        terms = dict((sig.blade(x) * u).terms)
        (c,) = [c for c, row in enumerate(rows) if _proportional(terms, row)]
        if c not in seen:
            seen.append(c)
    assert seen == list(range(len(rows)))
    for row in rows:
        assert not row or (gcd(*row.values()) == 1 and row[min(row)] > 0)
    assert brute_force_minimal_ideal_dim(sig, u) == _ideal_dim_oracle(sig, u)


if hypothesis is not None:

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(st.data())
    def test_left_multiple_table_matches_the_products(data):
        _assert_table(_table_case(lambda lo, hi: data.draw(st.integers(lo, hi))))

else:

    @pytest.mark.parametrize("seed", range(150))
    def test_left_multiple_table_matches_the_products(seed):
        _assert_table(_table_case(random.Random(seed).randint))


@pytest.mark.parametrize("f", _fixed_non_products(), ids=str)
def test_left_multiple_table_on_non_product_idempotents(f):
    _assert_table(f)


@pytest.mark.parametrize("pq", [(1, 0), (0, 3), (2, 1), (3, 2), (1, 4)])
def test_split_certificate_needs_opposite_pseudoscalar_values(pq):
    """The pseudoscalar proves S + hat(S) direct through opposite values of
    chi(w); one character twice proves nothing."""
    sig = Signature(*pq)
    f = primitive_idempotent(find_frame(sig), (1,) * classify(sig).k)
    chi = idempotents.stabilizer_character(f)
    hat_chi = idempotents.stabilizer_character(f.involute())
    assert verify._split_by_pseudoscalar(sig, chi, hat_chi)
    assert not verify._split_by_pseudoscalar(sig, chi, chi)
    assert not verify._split_by_pseudoscalar(sig, chi, None)


def test_split_certificate_declines_an_even_pseudoscalar():
    """In Cl(1,1), (1 +- e12) / 2 have w = e12 in H with opposite values,
    but e12 is not central for even n."""
    sig = Signature(1, 1)
    chis = [
        idempotents.stabilizer_character((sig.scalar(1) + sig.e(1, 2) * s) * HALF)
        for s in (1, -1)
    ]
    assert [chi.values for chi in chis] == [{0: 1, 3: 1}, {0: 1, 3: -1}]
    assert not verify._split_by_pseudoscalar(sig, *chis)


def test_verify_signature_trivial():
    report = verify_signature(Signature(0, 0))
    assert report.passed
    assert {c.check_id for c in report.checks} >= {
        "class.dimension_identity",
        "idem.primitive",
        "repr.faithful_rank",
        "center.dimension",
    }


def test_verify_signature_pauli_case():
    report = verify_signature(Signature(3, 0))
    assert report.passed
    ids = [c.check_id for c in report.checks]
    assert "semi.split" not in ids


def test_verify_signature_semisimple_case():
    report = verify_signature(Signature(1, 0))
    assert report.passed
    ids = [c.check_id for c in report.checks]
    assert "semi.split" in ids


def test_verify_range_small():
    summary = verify_range(3)
    assert summary.signatures == 10
    assert summary.failure_count == 0
    assert summary.passed
    sigs = [(r.signature.p, r.signature.q) for r in summary.reports]
    assert sigs == sorted(sigs, key=lambda pq: (pq[0] + pq[1], pq[0]))


def test_verify_range_checks_the_cap_before_any_signature(monkeypatch):
    calls = []
    monkeypatch.setattr(verify, "verify_signature", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match=r"^max_n = 13 exceeds the supported cap of 12$"):
        verify_range(13)
    with pytest.raises(ValueError, match="max_n must be nonnegative"):
        verify_range(-1)
    assert calls == []


def test_report_json_shape():
    report = verify_signature(Signature(1, 1))
    data = report.to_json_dict()
    assert data["p"] == 1 and data["q"] == 1
    for entry in data["checks"]:
        assert set(entry) <= {"id", "pass", "witness"}
        assert isinstance(entry["pass"], bool)
    json.dumps(data)  # witnesses must be serializable


def test_witnesses_serializable_on_failure():
    rep = build_representation(Signature(1, 1))
    data = representation_to_json_dict(rep)
    # corrupt one gamma entry: gamma(e1)[0][0] becomes 7
    data["components"][0]["gammas"][0][0][0] = ["7"]
    broken = representation_from_json_dict(data)
    results = verify_representation(broken)
    by_id = {c.check_id: c for c in results}
    assert not by_id["repr.generator_relations"].passed
    assert not by_id["repr.homomorphism"].passed
    json.dumps([c.witness for c in results if c.witness is not None])


def test_reingested_dump_verifies_identically():
    for pq in [(2, 0), (1, 0), (0, 3), (1, 2)]:
        rep = build_representation(Signature(*pq))
        blob = json.dumps(representation_to_json_dict(rep), sort_keys=True)
        again = representation_from_json_dict(json.loads(blob))
        assert verify_representation(again) == verify_representation(rep)


def test_seed_changes_keep_passing():
    for seed in (0, 1, 99991):
        assert verify_signature(Signature(2, 1), seed=seed).passed


def test_verify_sweep_through_n9():
    summary = verify_range(9)
    assert summary.signatures == 55
    failures = {
        str(r.signature): [c.check_id for c in r.failures()]
        for r in summary.reports
        if not r.passed
    }
    assert failures == {}


# the callers of ``_class_rows`` that a stabilizer character decides first
CERTIFIED = ("brute_force_minimal_ideal_dim", "_semi_split")


@pytest.mark.parametrize("caller", CERTIFIED)
def test_table_certificates_fall_back_to_exact_rows(monkeypatch, caller):
    class_rows = verify._class_rows
    ranked = []

    def record(f):
        ranked.append(sys._getframe(1).f_code.co_name)
        return class_rows(f)

    monkeypatch.setattr(verify, "_class_rows", record)
    default = verify_range(5).to_json_dict()
    # the character decides on the default run: no class rows are ranked
    assert ranked == []

    # with every character declined, the exact rows decide the same
    for module in (idempotents, verify):
        monkeypatch.setattr(module, "stabilizer_character", lambda f: None)
    monkeypatch.setattr(
        verify._Context,
        "characters",
        property(lambda ctx: (None,) * len(ctx.idems.idempotents)),
    )
    assert verify_range(5).to_json_dict() == default
    assert caller in ranked


def _context(rep):
    ctx = verify._Context(rep.signature, verify.DEFAULT_SAMPLE_SEED)
    ctx.rep = rep
    return ctx


def _oracle_blade_matrices(sig, sb):
    return [_matrix_of_oracle(sig.blade(mask), sb) for mask in range(sig.dim)]


@pytest.mark.parametrize("pq", [(0, 0), (1, 0), (0, 3), (2, 2), (1, 4), (3, 2)])
def test_table_blade_matrices_match_the_span_solve(pq):
    sig = Signature(*pq)
    for comp in build_representation(sig).components:
        mats = _blade_matrices(comp.basis, range(sig.dim))
        assert mats == _oracle_blade_matrices(sig, comp.basis)


def _append_repeated_blade(comp):
    comp["spinor_blades"].append(comp["spinor_blades"][-1])
    comp["spinor_blade_signs"].append(1)


# (signature, corruption of the first dumped component)
CORRUPTED_DUMPS = [
    ((1, 1), _set("spinor_blade_signs", 1, -1)),
    ((2, 2), _set("spinor_blade_signs", 2, -1)),
    ((2, 1), _set("spinor_blade_signs", 1, -1)),
    ((1, 1), _append_repeated_blade),
    ((3, 0), _append_repeated_blade),
    ((1, 2), _append_repeated_blade),
    ((1, 1), _set("spinor_blades", [0, 0])),
]


def _corrupted(pq, corrupt):
    data = representation_to_json_dict(build_representation(Signature(*pq)))
    corrupt(data["components"][0])
    return representation_from_json_dict(data)


@pytest.mark.parametrize("pq, corrupt", CORRUPTED_DUMPS)
def test_blade_matrices_of_a_corrupted_dump_match_the_span_solve(pq, corrupt):
    sig = Signature(*pq)
    sb = _corrupted(pq, corrupt).components[0].basis
    # a repeated blade leaves no coset index, so the solve decides every
    # column
    assert (sb._coset_index is None) == (len(set(sb.blades)) < sb.size)
    got = _outcome(lambda: _blade_matrices(sb, range(sig.dim)))
    assert got == _outcome(lambda: _oracle_blade_matrices(sig, sb))


def _ordered_products(comp, sig):
    """gamma of every blade as the ordered product of generator matrices, in
    ascending mask order: e_mask = e_lowest e_rest with no sign, so each is
    one product with an earlier one.  Yielded one by one, so a product of
    matrices of the wrong shape raises only when it is reached."""
    out = [KMatrix.identity(comp.kbasis, comp.basis.size)]
    yield out[0]
    for mask in range(1, sig.dim):
        low = mask & -mask
        rest = mask ^ low
        g = comp.gammas[low.bit_length() - 1]
        out.append(g if rest == 0 else g @ out[rest])
        yield out[-1]


def _first_unordered_product(rep):
    """The witness of the first mask where a solved blade matrix differs
    from the ordered product of generator matrices, or None."""
    for ci, (comp, solved) in enumerate(zip(rep.components, _context(rep).solved)):
        for mask, (mat, product) in enumerate(
            zip(solved, _ordered_products(comp, rep.signature))
        ):
            if mat != product:
                return {"component": ci, "mask": mask}
    return None


def _homomorphism_matches_the_ordered_products(rep):
    got = _outcome(lambda: verify._homomorphism(_context(rep)))
    assert got == _outcome(lambda: _first_unordered_product(rep))
    return got


@pytest.mark.parametrize("n", range(7))
def test_homomorphism_matches_the_ordered_products(n):
    for p in range(n + 1):
        rep = build_representation(Signature(p, n - p))
        assert _homomorphism_matches_the_ordered_products(rep) is None


@pytest.mark.parametrize("pq, corrupt", CORRUPTED_DUMPS)
def test_homomorphism_of_a_corrupted_dump_matches_the_ordered_products(pq, corrupt):
    _homomorphism_matches_the_ordered_products(_corrupted(pq, corrupt))


@pytest.mark.parametrize("n", [*range(9), "repr-large"])
def test_json_dump_has_one_list_per_entry_value(n, monkeypatch):
    """Each distinct K-entry value of a dump's unit tables and gammas is one
    list object, equal Python objects or not: the JSON writer keeps the text
    of each list object it meets, so each value is rendered once."""
    if n == "repr-large":
        monkeypatch.syspath_prepend(
            os.path.join(os.path.dirname(__file__), "..", "perfbench")
        )
        signatures = importlib.import_module("run").REPR_SIGNATURES
    else:
        signatures = [(p, n - p) for p in range(n + 1)]
    for pq in signatures:
        rep = build_representation(Signature(*pq))
        data = representation_to_json_dict(rep)
        lists = {}
        for comp, out in zip(rep.components, data["components"], strict=True):
            matrices = [(comp.kbasis.table, out["unit_table"])]
            matrices += zip((g.entries for g in comp.gammas), out["gammas"])
            for rows, out_rows in matrices:
                for row, out_row in zip(rows, out_rows, strict=True):
                    for entry, text in zip(row, out_row, strict=True):
                        assert text == [str(c) for c in entry]
                        assert lists.setdefault(entry, text) is text


def test_lookup_falls_back_to_the_span_solve(monkeypatch):
    default = verify_range(5).to_json_dict()
    # no spinor basis gets a coset index: every column is solved, and the
    # proof of repr.irreducible declines, so its exact rows decide
    monkeypatch.setattr(SpinorBasis, "_coset_index", property(lambda sb: None))
    assert verify_range(5).to_json_dict() == default


def _psi_oracle(sig, vectors, rng):
    """The sample psi as repr.irreducible drew it before the integer
    accumulation: a Multivector sum, drawn again while zero."""
    psi = sig.scalar(0)
    while psi.is_zero():
        psi = sig.scalar(0)
        for v in vectors:
            c = rng.randint(-3, 3)
            if c:
                psi = psi + v * c
    return psi


@pytest.mark.parametrize("pq", [(1, 0), (0, 2), (2, 1), (1, 3), (3, 3)])
def test_psi_sampler_matches_the_multivector_sum(pq):
    sig = Signature(*pq)
    for comp in build_representation(sig).components:
        vectors = [s * u for s in comp.basis.elements for u in comp.kbasis.units]
        # scaled copies give the vectors distinct denominators
        vectors = [v * Fraction(k % 3 + 1, k % 4 + 1) for k, v in enumerate(vectors)]
        draw = verify._psi_sampler(sig, vectors)
        ours, theirs = random.Random(5), random.Random(5)
        for _ in range(20):
            assert draw(ours) == _psi_oracle(sig, vectors, theirs)
        # a lone vector draws 0 one time in seven and is drawn again
        ours, theirs = random.Random(7), random.Random(7)
        lone = verify._psi_sampler(sig, vectors[:1])
        for _ in range(20):
            assert lone(ours) == _psi_oracle(sig, vectors[:1], theirs)
        assert ours.getstate() == theirs.getstate()


def _real_basis(comp):
    return [s * u for s in comp.basis.elements for u in comp.kbasis.units]


@pytest.mark.parametrize("n", range(6))
def test_simple_ideal_proof_matches_the_exact_rank_of_every_sample(n):
    for p in range(n + 1):
        sig = Signature(p, n - p)
        rng = random.Random(verify.DEFAULT_SAMPLE_SEED)
        for comp in build_representation(sig).components:
            assert verify._simple_ideal(comp.basis)
            size = comp.basis.size * comp.kbasis.dim
            for _ in range(verify._RANDOM_PSI_COUNT):
                psi = _psi_oracle(sig, _real_basis(comp), rng)
                rows = (dict((sig.blade(a) * psi).terms) for a in range(sig.dim))
                assert span_of(rows).rank == size


def _left_regular(sig):
    """The spinor basis of f = 1 with every blade, over K = R: Cl(p,q)
    acting on itself by left multiplication."""
    one = sig.scalar(1)
    kb = DivisionRingBasis(one, (one,), "R", (((1,),),))
    return SpinorBasis(kb, tuple(range(sig.dim)), (1,) * sig.dim)


def _commutant_oracle(perms, size):
    """dim_R of the real matrices X with L X == X L for the matrix L of each
    signed permutation, by the rank of those linear equations over Q."""
    equations = []
    for pi, sigma in perms:
        for b in range(size):
            for c in range(size):
                # (L X - X L)[pi b, c] = sigma(b) X[b, c] - X[pi b, pi c] sigma(c)
                row = {}
                for key, v in (((b, c), sigma[b]), ((pi[b], pi[c]), -sigma[c])):
                    row[key] = row.get(key, 0) + v
                equations.append({k: v for k, v in row.items() if v})
    return size * size - span_of(equations).rank


def _commutant_orbit_oracle(perms, size):
    """dim_R of the real size x size matrices X commuting with every signed
    permutation (pi, sigma) in ``perms``, with no linear algebra.

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


@pytest.mark.parametrize("pq", [(1, 1), (2, 0), (0, 2)])
def test_simple_ideal_proof_declines_the_left_regular_module(pq):
    sig = Signature(*pq)
    sb = _left_regular(sig)
    # the index fills Cl 1 = Cl and the units follow the table, but the
    # trace of x -> 1 x 1 is 2^n, not d = 1: End_Cl(Cl) = Cl^op, which has
    # dimension 4 also where Cl(0,2) = H is simple
    assert verify._fills_ideal(sb) and sb.kbasis.unit_defect is None
    assert idempotents._sandwich_trace(sb.idempotent) == sig.dim == 4
    perms = _generator_permutations_oracle(sb)
    assert _commutant_orbit_oracle(perms, 4) == _commutant_oracle(perms, 4) == 4
    assert not verify._simple_ideal(sb)


def _negate_idempotent(comp):
    for term in comp["idempotent"]["terms"]:
        num = term["num"]
        term["num"] = num[1:] if num.startswith("-") else "-" + num


@pytest.mark.parametrize("pq", [(1, 1), (2, 1), (0, 2), (3, 1), (1, 3), (3, 3)])
def test_simple_ideal_proof_declines_minus_f(monkeypatch, pq):
    """-f has f's character and trace, and the index still fills Cl f, but
    (-f)(-f) == f: the exact sample ranks decide instead."""
    rep = _corrupted(pq, _negate_idempotent)
    sb = rep.components[0].basis
    f = sb.idempotent
    assert f == -build_representation(Signature(*pq)).components[0].basis.idempotent
    chi = idempotents.stabilizer_character(f)
    assert chi == idempotents.stabilizer_character(-f) and verify._fills_ideal(sb)
    assert idempotents._sandwich_trace(f) == sb.kbasis.dim
    assert not idempotents._proves_idempotent(f, chi) and f * f != f
    assert not verify._simple_ideal(sb)
    report = verify_representation(rep)
    monkeypatch.setattr(verify, "_simple_ideal", lambda sb: False)
    assert verify_representation(_corrupted(pq, _negate_idempotent)) == report


def _drop_last_spinor_blade(comp):
    comp["spinor_blades"].pop()
    comp["spinor_blade_signs"].pop()


@pytest.mark.parametrize("pq", [(1, 1), (2, 1), (3, 1), (1, 3)])
def test_simple_ideal_proof_declines_a_dropped_spinor_blade(pq):
    """The index of the remaining s_t u_j exists but misses a coset of H,
    so neither M = Cl f nor left multiplication on M is proved."""
    comp = _corrupted(pq, _drop_last_spinor_blade).components[0]
    sb = comp.basis
    _, chi, cosets = sb._coset_index
    assert len(cosets) == sb.size * sb.kbasis.dim
    assert len(cosets) * len(chi.values) < sb.idempotent.signature.dim
    assert not verify._fills_ideal(sb) and not verify._simple_ideal(sb)
    assert not verify._left_multiplication(comp)


@pytest.mark.parametrize("n", range(COMMUTANT_MAX_N + 1))
def test_simple_ideal_proof_matches_the_commutant_orbit_count(n):
    """End_Cl(M) of every built component has dimension d = dim K, counted
    over orbits of index pairs, where the primitivity of f proves it."""
    for p in range(n + 1):
        for comp in build_representation(Signature(p, n - p)).components:
            sb, kb = comp.basis, comp.kbasis
            perms = _generator_permutations_oracle(sb)
            assert verify._simple_ideal(sb)
            assert _commutant_orbit_oracle(perms, sb.size * kb.dim) == kb.dim


def _negate_unit(j):
    def corrupt(comp):
        for term in comp["units"][j]["terms"]:
            num = term["num"]
            term["num"] = num[1:] if num.startswith("-") else "-" + num

    return corrupt


def _swap_units(a, b):
    def corrupt(comp):
        units = comp["units"]
        units[a], units[b] = units[b], units[a]

    return corrupt


# Units that still span H but break its table: k negated, or i and j swapped.
UNITS_OFF_THE_TABLE = [
    (pq, corrupt)
    for pq in ((0, 2), (0, 3), (0, 4), (1, 3), (2, 5))
    for corrupt in (_negate_unit(3), _swap_units(1, 2))
]


@pytest.mark.parametrize("pq, corrupt", UNITS_OFF_THE_TABLE)
def test_simple_ideal_proof_declines_units_off_the_table(monkeypatch, pq, corrupt):
    rep = _corrupted(pq, corrupt)
    sb = rep.components[0].basis
    assert sb.kbasis.ktype == "H" and sb.kbasis.unit_defect is not None
    assert not verify._simple_ideal(sb)
    report = verify_representation(rep)
    monkeypatch.setattr(verify, "_simple_ideal", lambda sb: False)
    assert verify_representation(_corrupted(pq, corrupt)) == report


def test_simple_ideal_proof_declines_an_empty_spinor_basis():
    comp = build_representation(Signature(1, 1)).components[0]
    assert not verify._simple_ideal(SpinorBasis(comp.kbasis, (), ()))


@pytest.mark.parametrize("n", range(5))
def test_commutant_of_a_doubled_module_is_four_times_k(n):
    for p in range(n + 1):
        for comp in build_representation(Signature(p, n - p)).components:
            kb, sb = comp.kbasis, comp.basis
            size = sb.size * kb.dim
            perms = _generator_permutations_oracle(sb)
            assert _commutant_orbit_oracle(perms, size) == kb.dim
            # S + S, the same signed permutations on two blocks
            doubled = [(pi + [size + b for b in pi], sigma * 2) for pi, sigma in perms]
            assert _commutant_orbit_oracle(doubled, 2 * size) == 4 * kb.dim
            if n <= 3:
                assert _commutant_oracle(perms, size) == kb.dim
                assert _commutant_oracle(doubled, 2 * size) == 4 * kb.dim


@pytest.mark.parametrize("n", range(5))
def test_verify_signature_finds_one_frame_and_one_division_ring(monkeypatch, n):
    """The representation is built on the frame of the idempotent set, and
    K is built once, by build_representation."""
    calls = []
    for name in ("find_frame", "division_ring_basis"):
        for module in (idempotents, division, representation, verify):
            if hasattr(module, name):
                _counted(monkeypatch, module, name, calls)
    for p in range(n + 1):
        calls.clear()
        assert verify_signature(Signature(p, n - p)).passed
        assert sorted(calls) == ["division_ring_basis", "find_frame"], (p, n - p)


def test_irreducible_falls_back_to_exact_rows(monkeypatch):
    default = verify_range(5).to_json_dict()
    monkeypatch.setattr(verify, "_simple_ideal", lambda sb: False)
    assert verify_range(5).to_json_dict() == default


@pytest.mark.parametrize("n", range(8))
def test_irreducible_draws_the_rng_as_the_sampler_did(n):
    # repr.right_module draws its masks from the same stream next
    for p in range(n + 1):
        rep = build_representation(Signature(p, n - p))
        ctx = _context(rep)
        assert verify._irreducible(ctx) is None
        rng = random.Random(verify.DEFAULT_SAMPLE_SEED)
        for comp in rep.components:
            vectors = _real_basis(comp)
            for _ in range(verify._RANDOM_PSI_COUNT):
                _psi_oracle(rep.signature, vectors, rng)
        assert ctx.rng.getstate() == rng.getstate()


# Without these proofs repr.irreducible and repr.faithful_rank rank every
# sample and every blade matrix exactly, which would take hours at n = 12.
@pytest.mark.parametrize("n", range(13))
def test_simple_ideal_proof_holds_on_every_built_component(n):
    for p in range(n + 1):
        for comp in build_representation(Signature(p, n - p)).components:
            assert verify._simple_ideal(comp.basis)


@pytest.mark.parametrize("n", range(13))
def test_real_form_holds_on_every_built_component(n):
    """The generators' signed-permutation real form is left multiplication
    on every component, and the density certificate built on it holds."""
    for p in range(n + 1):
        ctx = _context(build_representation(Signature(p, n - p)))
        assert all(ctx.left_multiplication) and all(ctx.simple_ideals)
        assert verify._density_proves_ranks(ctx)


def _unreached(name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    return fail


def test_verify_range_never_builds_the_solved_blade_matrices(monkeypatch):
    """Nor do verify_range(6) and the dumps of repr-large's signatures reach
    the exact fallbacks: K and K-matrix arithmetic, the span solve, the psi
    sampler and the class rows.  Their outputs are the same with those
    raising, so a change that makes a fallback run again shows here."""
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
    repr_large = importlib.import_module("run").REPR_SIGNATURES  # perfbench's workload
    expected = verify_range(6).to_json_dict()
    dumps = [
        representation_to_json_dict(build_representation(Signature(*pq)))
        for pq in repr_large
    ]
    for owner, name in (
        (DivisionRingBasis, "kmul"),
        (KMatrix, "__matmul__"),
        (KMatrix, "__add__"),
        (KMatrix, "scale_right"),
        (representation, "_solve"),
        (verify, "_psi_sampler"),
        (verify, "_class_rows"),
    ):
        monkeypatch.setattr(owner, name, _unreached(name))
    solved = verify._Context.solved
    built = []

    def record(ctx):
        built.append(ctx.sig)
        return solved.func(ctx)

    monkeypatch.setattr(verify._Context, "solved", property(record))
    summary = verify_range(6)
    assert summary.passed and summary.to_json_dict() == expected
    assert built == []
    for pq, dump in zip(repr_large, dumps):
        assert representation_to_json_dict(build_representation(Signature(*pq))) == dump


def test_real_forms_fall_back_to_the_exact_path(monkeypatch):
    default = verify_range(5).to_json_dict()
    monkeypatch.setattr(
        verify._Context,
        "left_multiplication",
        property(lambda ctx: [False] * len(ctx.rep.components)),
    )
    assert verify_range(5).to_json_dict() == default


def test_real_form_declines_a_unit_other_than_f(monkeypatch):
    """f = 1 with the unit u_0 = (1 + e1) / 2 of Cl(1,0): the units follow
    R's table and e1 fixes x_0 = u_0, but s_0 = f is not x_0, and e1 s_0 =
    e1 leaves the span of x_0."""
    sig = Signature(1, 0)
    one = sig.scalar(1)
    kb = DivisionRingBasis(one, ((one + sig.e(1)) * HALF,), "R", (((1,),),))
    sb = SpinorBasis(kb, (0,), (1,))
    # e1 fixes x_0, but f u_0 = u_0 is not +-f, so there is no coset index,
    # and e1 s_0 = e1 is outside the span of x_0
    assert _generator_permutations_oracle(sb) == [([0], [1])]
    assert sb._coset_index is None and kb.unit_defect is None
    comp = Component(sb, (KMatrix(kb, 1, (((0, (1,)),),)),))
    assert not verify._left_multiplication(comp)
    rep = Representation(sig, classify(sig), find_frame(sig), (comp,))
    report = verify_representation(rep)
    assert {c.check_id: c.passed for c in report}["repr.homomorphism"] is False
    monkeypatch.setattr(
        verify._Context, "left_multiplication", property(lambda ctx: [False])
    )
    assert verify_representation(rep) == report


@pytest.mark.parametrize("n", range(7))
def test_density_certificate_matches_the_exact_ranks(n):
    for p in range(n + 1):
        sig = Signature(p, n - p)
        rep = build_representation(sig)
        ctx = _context(rep)
        assert verify._density_proves_ranks(ctx)
        ranks = [span_of(verify._flatten(m) for m in mats).rank for mats in ctx.solved]
        joint = span_of(verify._flatten(*mats) for mats in zip(*ctx.solved)).rank
        assert ranks == [c.basis.size**2 * c.kbasis.dim for c in rep.components]
        assert ranks == ([sig.dim] if rep.simple else [sig.dim // 2] * 2)
        assert joint == sig.dim
        # each generator permutation is its gamma read on the real basis
        for comp in rep.components:
            d = comp.kbasis.dim
            perms = _generator_permutations_oracle(comp.basis)
            for (pi, sigma), gamma in zip(perms, comp.gammas):
                for t, ((r, entry),) in enumerate(gamma.columns):
                    c = pi[t * d] % d
                    assert pi[t * d] // d == r
                    assert entry == tuple(sigma[t * d] if x == c else 0 for x in range(d))
