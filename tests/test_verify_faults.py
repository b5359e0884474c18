"""Fault injection: every verify check id fails on the defect it targets.

Representation checks get a minimally corrupted JSON dump.  The class,
idempotent, ideal, center and semisimple-split checks get a defect injected
into what ``verify_signature`` calls, through ``cliffstruct.verify``'s
module globals, or, for the sign vectors and idempotents that
``idempotents.idempotent_set`` builds, through ``cliffstruct.idempotents``'.
Each case pins the exact set of failing ids, so a change to how checks
share their inputs shows up as a changed set.
"""

import copy
import json
from fractions import Fraction

import pytest

import cliffstruct.idempotents as idempotents
import cliffstruct.verify as verify
from cliffstruct import (
    AlgebraClass,
    Multivector,
    Signature,
    build_representation,
    multivector_to_json_dict,
    representation_from_json_dict,
    representation_to_json_dict,
    verify_representation,
    verify_signature,
)
from cliffstruct.cli import _json_text
from cliffstruct.representation import _blade_matrices
from cliffstruct.verify import VerificationReport

HALF = Fraction(1, 2)
_classify = verify.classify
_central_idempotents = verify.central_idempotents
_primitive_idempotent = idempotents.primitive_idempotent
_sign_vectors = idempotents.sign_vectors


def _failures(results) -> dict:
    return {c.check_id: c.witness for c in results if not c.passed}


def _dump(p, q) -> dict:
    return representation_to_json_dict(build_representation(Signature(p, q)))


def _negated(entry):
    return [str(-Fraction(c)) for c in entry]


def _verify_dump(data) -> dict:
    rep = representation_from_json_dict(data)
    results = verify_representation(rep)
    _assert_json_writer_matches(VerificationReport(rep.signature, results))
    return _failures(results)


def _assert_json_writer_matches(report) -> None:
    """The CLI's JSON writer agrees with json.dumps on a report with witnesses."""
    data = report.to_json_dict()
    assert _json_text(data) == json.dumps(data, indent=2, sort_keys=True)


def _boom(*args):
    raise RuntimeError("boom")


def _classify_with(sig, **changed):
    """classify(sig) with the given fields of its AlgebraClass changed."""
    c = _classify(sig)
    fields = {
        "signature": c.signature,
        "simple": c.simple,
        "ktype": c.ktype,
        "k": c.k,
        "matrix_size": c.matrix_size,
        "components": c.components,
        "pq_mod8": c.pq_mod8,
    }
    return AlgebraClass(**{**fields, **changed})


def _replace_idempotents(replacements):
    """primitive_idempotent with some sign vectors' results replaced."""

    def fake(frame, signs):
        f = _primitive_idempotent(frame, signs)
        make = replacements.get(tuple(signs))
        return f if make is None else make(frame, f)

    return fake


def _skew(frame, f):
    """f + f e2 f_+: idempotent, f_+ times it is 0, but it times f_+ is not."""
    f_plus = _primitive_idempotent(frame, (1,) * frame.k)
    return f + f * frame.signature.e(2) * f_plus


def _flip_last_sign(frame, f):
    """f with the sign of its last coefficient flipped: no e_h f is +-f
    any more, so f has no stabilizer character."""
    *terms, (mask, c) = f.terms
    return Multivector(f.signature, (*terms, (mask, -c)))


def _half(sig, blade):
    return (sig.scalar(1) + sig.blade(blade)) * HALF


# ---------------------------------------------------------------------------
# representation checks on corrupted dumps


def _neg_unit_table_row3(d):
    table = d["components"][0]["unit_table"]
    table[3] = [_negated(entry) for entry in table[3]]


def _neg_unit_table_entry(d):
    table = d["components"][0]["unit_table"]
    table[1][2] = _negated(table[1][2])


def _negate_gamma_entry(d):
    """-gamma(e1)[0][0]: still one entry +-u_c per column."""
    g = d["components"][0]["gammas"][0]
    g[0][0] = _negated(g[0][0])


def _swap_unit_table_rows(d):
    """The rows of i and j swapped: still one entry +-u_c per product."""
    table = d["components"][0]["unit_table"]
    table[1], table[2] = table[2], table[1]


def _flip_spinor_blade_sign(d):
    d["components"][0]["spinor_blade_signs"][1] *= -1


def _append_spinor_blade(d):
    comp = d["components"][0]
    comp["spinor_blades"].append(1)
    comp["spinor_blade_signs"].append(1)


def _empty_spinor_basis(d):
    comp = d["components"][0]
    comp["spinor_blades"] = []
    comp["spinor_blade_signs"] = []
    comp["gammas"] = [[] for _ in comp["gammas"]]


def _drop_component(d):
    del d["components"][1]


def _copy_component(d):
    d["components"][1] = copy.deepcopy(d["components"][0])


def _append_component(d):
    d["components"].append(copy.deepcopy(d["components"][0]))


def _repeat_spinor_blade(d):
    d["components"][0]["spinor_blades"] = [0, 0]


def _solve_gammas(d, ci):
    """Component ci's gammas solved in its dumped basis."""
    c = representation_from_json_dict(d).components[ci]
    d["components"][ci]["gammas"] = [
        [[[str(x) for x in entry] for entry in row] for row in g.entries]
        for g in _blade_matrices(c.basis, [1 << i for i in range(len(c.gammas))])
    ]


def _regular(sig, blades):
    """f = 1 over K = R with the given spinor blades."""
    one = multivector_to_json_dict(sig.scalar(1))
    return dict(
        idempotent=one,
        units=[one],
        unit_table=[[["1"]]],
        spinor_blades=list(blades),
        spinor_blade_signs=[1] * len(blades),
    )


def _left_regular_module(d):
    """f = 1 with all four blades of Cl(1,1): the basis spans the whole
    algebra, a sum of two copies of S, and its gammas are solved in that
    basis, so every check but irreducibility (and the class) agrees."""
    d["components"][0].update(_regular(Signature(1, 1), range(4)))
    _solve_gammas(d, 0)


def _left_regular_components(d):
    """Both components of Cl(1,0) acting on the whole algebra, R + R:
    End_Cl has dimension 2, not dim K = 1, so the simple-ideal proof and
    the density certificate on it decline, and the exact ranks give the
    witness."""
    for ci, comp in enumerate(d["components"]):
        comp.update(_regular(Signature(1, 0), range(2)))
        _solve_gammas(d, ci)


def _swap_units_with_gammas(d):
    """Units i and j swapped and the gammas solved again: every gamma is
    still the matrix its permutation gives, but the units break the table
    that K-matrix products read."""
    units = d["components"][0]["units"]
    units[1], units[2] = units[2], units[1]
    _solve_gammas(d, 0)


def _drop_last_gamma_row(d):
    del d["components"][0]["gammas"][1][-1]


LEFT_IDEAL = {"error": "RepresentationError: product left the spinor ideal"}

DUMP_CASES = {
    "repr.right_module": (
        (0, 2),
        _neg_unit_table_row3,
        {"repr.right_module": {"component": 0, "mask": 3, "unit": 0}},
    ),
    "repr.generator_relations": (
        (0, 2),
        _neg_unit_table_entry,
        {
            "repr.generator_relations": {"component": 0, "i": 1, "j": 2},
            "repr.homomorphism": {"component": 0, "mask": 3},
        },
    ),
    # A monomial gamma that is not the generator's permutation, and a unit
    # table other than H's: the left-multiplication premise declines, and
    # the K-matrices give the witnesses.
    "repr.homomorphism-monomial-gamma": (
        (0, 3),
        _negate_gamma_entry,
        {"repr.homomorphism": {"component": 0, "mask": 1}},
    ),
    "repr.generator_relations-swapped-unit-rows": (
        (0, 2),
        _swap_unit_table_rows,
        {
            "repr.generator_relations": {"component": 0, "i": 1, "j": 1},
            "repr.homomorphism": {"component": 0, "mask": 3},
            "repr.right_module": {"component": 0, "mask": 2, "unit": 0},
        },
    ),
    "repr.homomorphism-units-off-the-table": (
        (0, 2),
        _swap_units_with_gammas,
        {
            "repr.homomorphism": {"component": 0, "mask": 3},
            "repr.right_module": {"component": 0, "mask": 3, "unit": 1},
        },
    ),
    "repr.faithful_rank-left-regular-components": (
        (1, 0),
        _left_regular_components,
        {
            "class.representation_agrees": {
                "expected": {
                    "p": 1, "q": 0, "simple": False, "K": "R", "k": 1, "N": 1,
                    "components": 2,
                },
                "components": 2,
            },
            "repr.faithful_rank": {
                "component_ranks": [2, 2], "joint_rank": 2, "dim": 2,
            },
            "repr.irreducible": {
                "component": 0, "psi": "-1 + 1*e1", "rank": 1, "expected": 2,
            },
        },
    ),
    # The basis element s_1 changes sign, so every blade matrix solved in
    # that basis is conjugated by diag(1, -1) while the dumped gammas stay.
    "repr.homomorphism": (
        (1, 1),
        _flip_spinor_blade_sign,
        {"repr.homomorphism": {"component": 0, "mask": 2}},
    ),
    "repr.irreducible": (
        (1, 1),
        _append_spinor_blade,
        {
            "class.representation_agrees": {
                "expected": {
                    "p": 1, "q": 1, "simple": True, "K": "R", "k": 1, "N": 2,
                    "components": 1,
                },
                "components": 1,
            },
            "repr.generator_relations": {"component": 0, "i": 1, "j": 1},
            "repr.homomorphism": {"component": 0, "mask": 0},
            "repr.irreducible": {
                "component": 0, "psi": "1/2 + 1/2*e1", "rank": 2, "expected": 3,
            },
        },
    ),
    # Cl(1,1) acting on itself: End_Cl(M) has dimension 4, not dim K = 1,
    # so the proof of simplicity declines and the exact rows give a sample
    # that generates only half of M.
    "repr.irreducible-reducible-module": (
        (1, 1),
        _left_regular_module,
        {
            "class.representation_agrees": {
                "expected": {
                    "p": 1, "q": 1, "simple": True, "K": "R", "k": 1, "N": 2,
                    "components": 1,
                },
                "components": 1,
            },
            "repr.irreducible": {
                "component": 0, "psi": "-1 + 3*e1 + 3*e2 - 1*e12", "rank": 2,
                "expected": 4,
            },
        },
    ),
    # With no spinor blades the real basis {s_t u_j} is empty, so no
    # nonzero sample psi can be drawn from it.
    "repr.irreducible-zero-basis": (
        (1, 1),
        _empty_spinor_basis,
        {
            "class.representation_agrees": {
                "expected": {
                    "p": 1, "q": 1, "simple": True, "K": "R", "k": 1, "N": 2,
                    "components": 1,
                },
                "components": 1,
            },
            "repr.faithful_rank": {
                "component_ranks": [0], "joint_rank": 0, "dim": 4,
            },
            "repr.irreducible": {
                "component": 0, "fail": "the real basis {s_t u_j} is zero",
            },
        },
    ),
    "class.representation_agrees": (
        (1, 0),
        _drop_component,
        {
            "class.representation_agrees": {
                "expected": {
                    "p": 1, "q": 0, "simple": False, "K": "R", "k": 1, "N": 1,
                    "components": 2,
                },
                "components": 1,
            },
            "repr.faithful_rank": {
                "component_ranks": [1], "joint_rank": 1, "dim": 2,
            },
        },
    ),
    # Two copies of one component have equal blade matrices, so the pair
    # represents only half of Cl(1,0) although each copy has rank 1.
    "repr.faithful_rank": (
        (1, 0),
        _copy_component,
        {
            "repr.faithful_rank": {
                "component_ranks": [1, 1], "joint_rank": 1, "dim": 2,
            },
        },
    ),
    # A simple algebra with a second copy of its one component: each copy
    # has rank 4, and the two together only 4.
    "repr.faithful_rank-extra-component": (
        (1, 1),
        _append_component,
        {
            "class.representation_agrees": {
                "expected": {
                    "p": 1, "q": 1, "simple": True, "K": "R", "k": 1, "N": 2,
                    "components": 1,
                },
                "components": 2,
            },
            "repr.faithful_rank": {
                "component_ranks": [4, 4], "joint_rank": 4, "dim": 4,
            },
        },
    ),
    # With s_0 == s_1 == f the real basis {s_t u_j} repeats a leading mask,
    # so the lookup has no index and the span solve decides: e2 f is
    # outside the span of f.
    "repr.homomorphism-repeated-blade": (
        (1, 1),
        _repeat_spinor_blade,
        {
            "repr.homomorphism": LEFT_IDEAL,
            "repr.faithful_rank": LEFT_IDEAL,
            "repr.right_module": LEFT_IDEAL,
        },
    ),
    # gamma(e2) loses its last row: its products with gamma(e1) raise, but
    # repr.homomorphism compares it with the solved matrix before any
    # product with it is formed, so the witness names its own mask.
    "repr.homomorphism-gamma-shape": (
        (1, 1),
        _drop_last_gamma_row,
        {
            "repr.generator_relations": {
                "error": "ValueError: shape mismatch: 2 columns vs 1 rows",
            },
            "repr.homomorphism": {"component": 0, "mask": 2},
        },
    ),
}


@pytest.mark.parametrize("case", sorted(DUMP_CASES))
def test_corrupted_dump_fails_its_check(case):
    pq, corrupt, expected = DUMP_CASES[case]
    data = _dump(*pq)
    assert _verify_dump(data) == {}
    corrupt(data)
    assert _verify_dump(data) == expected


@pytest.mark.parametrize(
    "case",
    [
        "repr.homomorphism-monomial-gamma",
        "repr.generator_relations-swapped-unit-rows",
        "repr.homomorphism-units-off-the-table",
        "repr.generator_relations",
        "repr.right_module",
        "repr.homomorphism",
        "repr.homomorphism-gamma-shape",
    ],
)
def test_corrupted_dump_declines_the_real_form(case):
    assert not _corrupted_context(case).left_multiplication[0]


# Whether each dump's components are all proved simple: where they are,
# equal pseudoscalar values on copies, or the count N^2 d of each copy
# against 2^n, declines; where not, End_Cl(M) is larger than K.
DENSITY_DECLINES = {
    "repr.faithful_rank": True,
    "repr.faithful_rank-extra-component": True,
    "class.representation_agrees": True,
    "repr.faithful_rank-left-regular-components": False,
    "repr.irreducible-reducible-module": False,
}


@pytest.mark.parametrize("case", list(DENSITY_DECLINES))
def test_density_declines(case):
    ctx = _corrupted_context(case)
    assert all(ctx.left_multiplication)
    assert all(ctx.simple_ideals) is DENSITY_DECLINES[case]
    assert not verify._density_proves_ranks(ctx)


def _corrupted_context(case):
    pq, corrupt, _ = DUMP_CASES[case]
    data = _dump(*pq)
    corrupt(data)
    ctx = verify._Context(Signature(*pq), verify.DEFAULT_SAMPLE_SEED)
    ctx.rep = representation_from_json_dict(data)
    return ctx


# ---------------------------------------------------------------------------
# signature checks with a defect injected into what verify calls

IDEM_IDS = (
    "idem.count",
    "idem.idempotent",
    "idem.mutually_annihilating",
    "idem.sum_to_unity",
    "idem.primitive",
    "ideal.dimension",
)
REPR_IDS = (
    "class.representation_agrees",
    "repr.generator_relations",
    "repr.homomorphism",
    "repr.faithful_rank",
    "repr.irreducible",
    "repr.right_module",
)
BOOM = {"error": "RuntimeError: boom"}
# what idempotents.idempotent_set reads from its own module's globals
IDEMPOTENT_SET_GLOBALS = ("sign_vectors", "primitive_idempotent")

SIGNATURE_CASES = {
    "class.dimension_identity": (
        (1, 1),
        {"classify": lambda sig: _classify_with(sig, matrix_size=3)},
        {
            "class.dimension_identity": {
                "class": {
                    "p": 1, "q": 1, "simple": True, "K": "R", "k": 1, "N": 3,
                    "components": 1,
                },
            },
        },
    ),
    "class.simplicity_mod4": (
        (1, 0),
        {"classify": lambda sig: _classify_with(sig, simple=True)},
        {"class.simplicity_mod4": {"simple": True, "p_minus_q_mod4": 1}},
    ),
    "idem.count": (
        (1, 1),
        {"sign_vectors": lambda k: _sign_vectors(k)[:1]},
        {
            "idem.count": {"count": 1, "k": 1},
            "idem.sum_to_unity": {"sum": "1/2 + 1/2*e1"},
        },
    ),
    "idem.idempotent": (
        (1, 1),
        {"primitive_idempotent": _replace_idempotents({(1,): lambda fr, f: f * 2})},
        {
            "idem.idempotent": {"signs": [1]},
            "idem.sum_to_unity": {"sum": "3/2 + 1/2*e1"},
            "idem.primitive": {"signs": [1]},
        },
    ),
    "idem.mutually_annihilating": (
        (1, 1),
        {
            "primitive_idempotent": _replace_idempotents(
                {(-1,): lambda fr, f: _primitive_idempotent(fr, (1,))}
            )
        },
        {
            "idem.mutually_annihilating": {"i": [1], "j": [-1]},
            "idem.sum_to_unity": {"sum": "1 + 1*e1"},
        },
    ),
    # One coefficient of f_{+-} flipped: the character certificate declines
    # and the exact products give every witness.
    "idem.idempotent-sign-flip": (
        (2, 1),
        {"primitive_idempotent": _replace_idempotents({(1, -1): _flip_last_sign})},
        {
            "idem.idempotent": {"signs": [1, -1]},
            "idem.mutually_annihilating": {"i": [1, 1], "j": [1, -1]},
            "idem.sum_to_unity": {"sum": "1 + 1/2*e123"},
            "idem.primitive": {"signs": [1, -1]},
            "ideal.dimension": {"signs": [1, -1], "dim": 8, "expected": 2},
        },
    ),
    # f_{+-} replaced by f_{++}: two idempotents with one character, which
    # proves nothing about their product.
    "idem.mutually_annihilating-same-character": (
        (2, 1),
        {
            "primitive_idempotent": _replace_idempotents(
                {(1, -1): lambda fr, f: _primitive_idempotent(fr, (1, 1))}
            )
        },
        {
            "idem.mutually_annihilating": {"i": [1, 1], "j": [1, -1]},
            "idem.sum_to_unity": {"sum": "1 + 1/2*e23 + 1/2*e123"},
        },
    ),
    "idem.sum_to_unity": (
        (1, 1),
        {"primitive_idempotent": _replace_idempotents({(-1,): _skew})},
        {"idem.sum_to_unity": {"sum": "1 + 1/2*e2 - 1/2*e12"}},
    ),
    # 1 = 1 + 0 is a complete orthogonal set whose first member is not
    # primitive; its minimal left ideal is then too large.
    "idem.primitive": (
        (1, 1),
        {
            "primitive_idempotent": _replace_idempotents(
                {
                    (1,): lambda fr, f: fr.signature.scalar(1),
                    (-1,): lambda fr, f: fr.signature.scalar(0),
                }
            )
        },
        {
            "idem.primitive": {"signs": [1]},
            "ideal.dimension": {"signs": [1], "dim": 4, "expected": 2},
        },
    ),
    "idem.primitive-raises": (
        (1, 1),
        {
            "primitive_idempotent": _replace_idempotents(
                {
                    (1,): lambda fr, f: fr.signature.scalar(0),
                    (-1,): lambda fr, f: fr.signature.scalar(1),
                }
            )
        },
        {
            "idem.primitive": {
                "signs": [1],
                "error": "ValueError: primitivity is undefined for the zero element",
            },
            "ideal.dimension": {"signs": [1], "dim": 0, "expected": 2},
        },
    ),
    "ideal.dimension": (
        (1, 1),
        {"brute_force_minimal_ideal_dim": lambda sig, f, character=None: 0},
        {"ideal.dimension": {"signs": [1], "dim": 0, "expected": 2}},
    ),
    # build_representation reads the frame of the idempotent set, so a
    # failing frame search fails the representation checks too.
    "find_frame-raises": (
        (1, 1),
        {"find_frame": _boom},
        dict.fromkeys(IDEM_IDS + REPR_IDS, BOOM),
    ),
    "build_representation-raises": (
        (1, 1),
        {"build_representation": _boom},
        dict.fromkeys(REPR_IDS, BOOM),
    ),
    "center.dimension": (
        (1, 1),
        {"center_basis": lambda sig: []},
        {"center.dimension": {"dim": 0, "expected": 1}},
    ),
    "semi.split-sum": (
        (2, 1),
        {"central_idempotents": lambda sig: (_central_idempotents(sig)[0],) * 2},
        {"semi.split": {"fail": "c1 + c2 != 1"}},
    ),
    "semi.split-product": (
        (2, 1),
        {
            "central_idempotents": lambda sig: (
                _central_idempotents(sig)[0] * 2,
                sig.scalar(1) - _central_idempotents(sig)[0] * 2,
            )
        },
        {"semi.split": {"fail": "c1 c2 != 0"}},
    ),
    "semi.split-central": (
        (2, 1),
        {
            "central_idempotents": lambda sig: (
                _half(sig, 1),
                sig.scalar(1) - _half(sig, 1),
            )
        },
        {"semi.split": {"fail": "central idempotents do not commute with generators"}},
    ),
    "semi.split-center-span": (
        (2, 1),
        {"center_basis": lambda sig: [sig.scalar(1)]},
        {
            "center.dimension": {"dim": 1, "expected": 2},
            "semi.split": {"fail": "c1, c2 outside span of the center basis"},
        },
    ),
    "semi.split-idempotent-span": (
        (2, 1),
        {"center_basis": lambda sig: [sig.scalar(1), sig.blade(7), sig.e(1)]},
        {
            "center.dimension": {"dim": 3, "expected": 2},
            "semi.split": {"fail": "center basis outside span of c1, c2"},
        },
    ),
    "semi.split-hat": (
        (2, 1),
        {
            "primitive_idempotent": _replace_idempotents(
                {(1, 1): lambda fr, f: fr.signature.scalar(1)}
            )
        },
        {
            "idem.mutually_annihilating": {"i": [1, 1], "j": [1, -1]},
            "idem.sum_to_unity": {"sum": "7/4 - 1/4*e1 - 1/4*e23 - 1/4*e123"},
            "idem.primitive": {"signs": [1, 1]},
            "ideal.dimension": {"signs": [1, 1], "dim": 8, "expected": 2},
            "semi.split": {"fail": "hat(f) f != 0"},
        },
    ),
    # A nilpotent f = e1 + e3 has hat(f) = -f, so hat(f) f = -f^2 = 0 while
    # S and hat(S) are the same left ideal.
    "semi.split-direct-sum": (
        (2, 1),
        {
            "primitive_idempotent": _replace_idempotents(
                {(1, 1): lambda fr, f: fr.signature.e(1) + fr.signature.e(3)}
            )
        },
        {
            "idem.idempotent": {"signs": [1, 1]},
            "idem.mutually_annihilating": {"i": [1, 1], "j": [1, -1]},
            "idem.sum_to_unity": {"sum": "3/4 + 3/4*e1 + 1*e3 - 1/4*e23 - 1/4*e123"},
            "idem.primitive": {"signs": [1, 1]},
            "ideal.dimension": {"signs": [1, 1], "dim": 4, "expected": 2},
            "semi.split": {
                "fail": "S + hat(S) is not a direct sum", "dim_S": 4, "joint": 4,
            },
        },
    ),
    "semi.split-raises": (
        (2, 1),
        {"central_idempotents": _boom},
        {"semi.split": BOOM},
    ),
}


@pytest.mark.parametrize("case", sorted(SIGNATURE_CASES))
def test_injected_defect_fails_its_check(monkeypatch, case):
    pq, patches, expected = SIGNATURE_CASES[case]
    sig = Signature(*pq)
    assert verify_signature(sig).passed
    for name, fake in patches.items():
        module = idempotents if name in IDEMPOTENT_SET_GLOBALS else verify
        monkeypatch.setattr(module, name, fake)
    report = verify_signature(sig)
    _assert_json_writer_matches(report)
    assert _failures(report.checks) == expected


def test_every_check_id_has_a_fault_case():
    """Each id names a case (before any ``-suffix``) in which it fails."""
    cases = {**DUMP_CASES, **SIGNATURE_CASES}
    targeted = {
        name.split("-")[0] for name, (_, _, expected) in cases.items()
        if name.split("-")[0] in expected
    }
    ids = set()
    for pq in ((1, 1), (1, 0)):
        ids |= {c.check_id for c in verify_signature(Signature(*pq)).checks}
    assert ids == targeted


@pytest.mark.parametrize(
    "case",
    ["idem.idempotent-sign-flip", "idem.mutually_annihilating-same-character"],
)
def test_character_certificates_decline_the_injected_idempotent(monkeypatch, case):
    """The certificates decline the replaced f_{+-}, so the exact products
    give the witnesses that ``test_injected_defect_fails_its_check`` pins."""
    pq, patches, _ = SIGNATURE_CASES[case]
    for name, fake in patches.items():
        monkeypatch.setattr(idempotents, name, fake)
    ctx = verify._Context(Signature(*pq), verify.DEFAULT_SAMPLE_SEED)
    f_pp, f_pm = ctx.idems.idempotents[:2]
    chi_pp, chi_pm = ctx.characters[:2]
    assert chi_pp is not None
    if case == "idem.idempotent-sign-flip":
        assert chi_pm is None
        assert not idempotents._proves_idempotent(f_pm, chi_pm)
    else:
        assert f_pm == f_pp and chi_pm == chi_pp
    assert not idempotents._proves_annihilation(chi_pp, chi_pm)
