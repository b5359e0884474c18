"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every assertion is exact; the only tolerances are the
stated wall-clock budgets.
"""

import itertools
import json
import time

from cliffstruct import (
    K_DIMENSION,
    Signature,
    blade_mul,
    brute_force_minimal_ideal_dim,
    build_representation,
    classify,
    find_frame,
    is_primitive,
    primitive_idempotent,
    representation_from_json_dict,
    representation_to_json_dict,
    verify_representation,
)
from cliffstruct.cli import main
from cliffstruct.idempotents import MonomialFrame, sign_vectors

from blade_oracle import oracle_blade_mul


def all_signatures(max_n):
    for n in range(max_n + 1):
        for p in range(n + 1):
            yield Signature(p, n - p)


def _report(num, name, elapsed):
    print(f"ACCEPTANCE {num} ({name}): PASS ({elapsed:.2f}s)")


def test_criterion_1_classification_sweep():
    start = time.perf_counter()
    count = 0
    for sig in all_signatures(8):
        cls = classify(sig)
        assert sig.dim == cls.components * cls.matrix_size**2 * K_DIMENSION[cls.ktype]
        assert cls.simple == ((sig.p - sig.q) % 4 != 1)
        count += 1
    elapsed = time.perf_counter() - start
    assert count == 45
    assert elapsed < 1.0
    _report(1, "classification sweep", elapsed)


def test_criterion_2_spot_classifications_end_to_end():
    start = time.perf_counter()
    expected = {
        (3, 0): ("C", 2, 1),
        (1, 3): ("H", 2, 1),
        (3, 1): ("R", 4, 1),
        (0, 2): ("H", 1, 1),
        (1, 0): ("R", 1, 2),
        (0, 3): ("H", 1, 2),
    }
    for (p, q), (ktype, size, components) in expected.items():
        sig = Signature(p, q)
        cls = classify(sig)
        assert (cls.ktype, cls.matrix_size, cls.components) == (ktype, size, components)
        rep = build_representation(sig)
        assert len(rep.components) == components
        for comp in rep.components:
            assert comp.kbasis.ktype == ktype
            assert comp.basis.size == size
        assert all(c.passed for c in verify_representation(rep))
    _report(2, "spot classifications confirmed by representations", time.perf_counter() - start)


def test_criterion_3_idempotent_suite():
    start = time.perf_counter()
    for sig in all_signatures(8):
        frame = find_frame(sig)
        k = frame.k
        svs = sign_vectors(k)
        idems = [primitive_idempotent(frame, sv) for sv in svs]
        assert len(idems) == 1 << k
        total = sig.scalar(0)
        for f in idems:
            assert f * f == f
            assert is_primitive(f)
            total = total + f
        assert total == sig.scalar(1)
        for a, b in itertools.combinations(idems, 2):
            assert (a * b).is_zero()
        if k >= 1:
            shorter = MonomialFrame(sig, frame.monomials[:-1])
            g = primitive_idempotent(shorter, (1,) * (k - 1))
            assert g * g == g
            assert not is_primitive(g)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(3, "idempotent suite", elapsed)


def test_criterion_4_representation_suite():
    start = time.perf_counter()
    for sig in all_signatures(8):
        rep = build_representation(sig)
        results = {c.check_id: c for c in verify_representation(rep)}
        assert results["repr.generator_relations"].passed, (
            sig,
            results["repr.generator_relations"].witness,
        )
        assert results["repr.homomorphism"].passed, (
            sig,
            results["repr.homomorphism"].witness,
        )
        assert results["repr.faithful_rank"].passed, (
            sig,
            results["repr.faithful_rank"].witness,
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(4, "representation suite", elapsed)


def test_criterion_5_oracle_equivalence():
    start = time.perf_counter()
    for sig in all_signatures(8):
        frame = find_frame(sig)
        expected = 1 << (sig.n - frame.k)
        for sv in sign_vectors(frame.k):
            f = primitive_idempotent(frame, sv)
            assert brute_force_minimal_ideal_dim(sig, f) == expected
    _report(5, "minimal ideal dimension oracle", time.perf_counter() - start)


def test_criterion_6_center_check():
    from cliffstruct import center_basis, central_idempotents

    start = time.perf_counter()
    for sig in all_signatures(8):
        cls = classify(sig)
        basis = center_basis(sig)
        assert len(basis) in (1, 2)
        # dimension 2 exactly when the pseudoscalar is central (n odd);
        # semisimple algebras always fall in that case.
        assert len(basis) == (2 if sig.n % 2 else 1)
        if not cls.simple:
            assert len(basis) == 2
            assert basis[0] == sig.scalar(1)
            assert basis[1] == sig.blade(sig.dim - 1)
            c1, c2 = central_idempotents(sig)
            assert c1 + c2 == sig.scalar(1)
            assert (c1 * c2).is_zero() and (c2 * c1).is_zero()
            assert c1 * c1 == c1 and c2 * c2 == c2
            for c in (c1, c2):
                for i in range(1, sig.n + 1):
                    assert c * sig.e(i) == sig.e(i) * c
    _report(6, "center check", time.perf_counter() - start)


def test_criterion_7_determinism(capsys):
    start = time.perf_counter()
    for p, q in [(3, 0), (1, 0), (2, 2), (0, 3)]:
        assert main(["repr", str(p), str(q), "--json"]) == 0
        first = capsys.readouterr().out.encode()
        assert main(["repr", str(p), str(q), "--json"]) == 0
        second = capsys.readouterr().out.encode()
        assert first == second
        rep = build_representation(Signature(p, q))
        blob = json.dumps(representation_to_json_dict(rep), sort_keys=True)
        again = representation_from_json_dict(json.loads(blob))
        assert verify_representation(again) == verify_representation(rep)
    with capsys.disabled():
        _report(7, "byte determinism and round-trip fidelity", time.perf_counter() - start)


def test_criterion_8_blade_sign_oracle():
    start = time.perf_counter()
    pairs = 0
    for sig in all_signatures(6):
        for a in range(sig.dim):
            for b in range(sig.dim):
                assert blade_mul(a, b, sig) == oracle_blade_mul(a, b, sig.p)
                pairs += 1
    elapsed = time.perf_counter() - start
    assert pairs == sum((n + 1) * (1 << (2 * n)) for n in range(7))
    assert elapsed < 30.0
    _report(8, "blade product sign oracle", elapsed)
