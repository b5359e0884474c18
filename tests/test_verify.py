import json
import os
import random
import sys
from fractions import Fraction

import pytest

import cliffstruct.multiples as multiples
import cliffstruct.representation as representation
import cliffstruct.verify as verify
from cliffstruct import (
    Signature,
    SignatureMismatchError,
    brute_force_minimal_ideal_dim,
    build_representation,
    find_frame,
    primitive_idempotent,
    representation_from_json_dict,
    representation_to_json_dict,
    verify_range,
    verify_representation,
    verify_signature,
)
from cliffstruct.idempotents import sign_vectors
from cliffstruct.linalg import ExactSpan, span_of

from test_division import _conjugated_cl20_idempotent, _rotor_conjugate
from test_idempotents import _fixed_non_products, _trace_case
from test_representation import _matrix_of_oracle

try:
    import hypothesis
    from hypothesis import strategies as st
except ImportError:  # fixed draws instead
    hypothesis = None

HALF = Fraction(1, 2)
SLOW = os.environ.get("CLIFFSTRUCT_SLOW") == "1"
# The ideal-dimension oracle runs to n <= 9 with CLIFFSTRUCT_SLOW=1.
ORACLE_MAX_N = 9 if SLOW else 7


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


def _assert_table(u):
    """Every e_X u is its class row with the table's sign and scale, and the
    ideal oracle ranks u as the Multivector rows do."""
    sig = u.signature
    table = multiples._left_multiples(u)
    for x in range(sig.dim):
        row = table.multivector(sig, table.of[x] >> 1)
        assert sig.blade(x) * u == (-row if table.of[x] & 1 else row)
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


@pytest.mark.skipif(
    os.environ.get("CLIFFSTRUCT_SLOW") != "1",
    reason="n <= 9 verify sweep: set CLIFFSTRUCT_SLOW=1",
)
def test_verify_sweep_through_n9():
    summary = verify_range(9)
    assert summary.signatures == 55
    failures = {
        str(r.signature): [c.check_id for c in r.failures()]
        for r in summary.reports
        if not r.passed
    }
    assert failures == {}


def _projected_rank_oracle(sig, psi, masks, rank):
    """``_projected_rank_reaches`` by ``ExactSpan`` elimination over Q, as
    it was computed before the rank modulo a prime."""
    if len(masks) < rank:
        return False
    span = ExactSpan()
    for a in range(sig.dim):
        row = {m: (sig.blade(a) * psi).coefficient(m) for m in masks}
        if span.add(row, a) and span.rank == rank:
            return True
    return False


def test_irreducible_certificate_matches_the_rational_rank(monkeypatch):
    certificate = verify._projected_rank_reaches
    calls = []

    def both(sig, psi, masks, rank):
        got = certificate(sig, psi, masks, rank)
        assert got == _projected_rank_oracle(sig, psi, masks, rank)
        calls.append(got)
        return got

    monkeypatch.setattr(verify, "_projected_rank_reaches", both)
    assert verify_range(5).passed
    assert len(calls) > 100 and all(calls)
    # too few masks, or rows of lower rank, give False
    sig = Signature(1, 1)
    psi = sig.scalar(1) + sig.e(1)
    assert not certificate(sig, psi, [0, 1], 3)
    assert not certificate(sig, psi, [0, 1, 2, 3], 3)
    assert certificate(sig, sig.scalar(1) + sig.e(2), [0, 1, 2, 3], 4)


def test_irreducible_certificate_falls_back_to_exact_rows(monkeypatch):
    default = verify_range(5).to_json_dict()
    monkeypatch.setattr(verify, "_projected_rank_reaches", lambda *args: False)
    assert verify_range(5).to_json_dict() == default


# the checks that certify a rank with ``_independent``
CERTIFIED = ("brute_force_minimal_ideal_dim", "_semi_split", "_irreducible")


@pytest.mark.parametrize("caller", CERTIFIED)
def test_table_certificates_fall_back_to_exact_rows(monkeypatch, caller):
    independent = verify._independent
    decided = []

    def record(rows):
        got = independent(rows)
        decided.append((sys._getframe(1).f_code.co_name, got))
        return got

    monkeypatch.setattr(verify, "_independent", record)
    default = verify_range(5).to_json_dict()
    # the certificate decides on the default run
    assert (caller, True) in decided

    def undecided(rows):
        return sys._getframe(1).f_code.co_name != caller and independent(rows)

    monkeypatch.setattr(verify, "_independent", undecided)
    assert verify_range(5).to_json_dict() == default


def _context(rep):
    ctx = verify._Context(rep.signature, verify.DEFAULT_SAMPLE_SEED)
    ctx.rep = rep
    return ctx


@pytest.mark.parametrize("pq", [(0, 0), (1, 0), (0, 3), (2, 2), (1, 4), (3, 2)])
def test_table_blade_matrices_match_the_span_solve(pq):
    sig = Signature(*pq)
    rep = build_representation(sig)
    ctx = _context(rep)
    assert all(table is not None for table in ctx.tables)
    for comp, mats in zip(rep.components, ctx.solved):
        for mask, mat in enumerate(mats):
            assert mat == _matrix_of_oracle(sig.blade(mask), comp.kbasis, comp.basis)


def test_lookup_falls_back_to_the_span_solve(monkeypatch):
    default = verify_range(5).to_json_dict()
    monkeypatch.setattr(representation, "_real_basis_index", lambda kb, sb: None)
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
