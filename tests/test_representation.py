import json
import os
import random
import re
from fractions import Fraction

import pytest

import cliffstruct.idempotents as idempotents
import cliffstruct.representation as representation
import cliffstruct.verify as verify
import search_oracle as oracle
from cliffstruct import (
    DivisionRingBasis,
    KMatrix,
    Multivector,
    RepresentationError,
    Signature,
    SignatureMismatchError,
    build_representation,
    classify,
    division_ring_basis,
    find_frame,
    primitive_idempotent,
    represent,
    represent_semisimple,
    representation_from_json_dict,
    representation_to_json_dict,
    spinor_basis,
    spinor_coordinates,
    verify_signature,
)
from cliffstruct.core import _blade_times, _sign_masks
from cliffstruct.division import KTYPE_BY_DIM, _UNIT_TABLES
from cliffstruct.idempotents import _half_product_form
from cliffstruct.linalg import gf2_insert, gf2_reduce
from cliffstruct.representation import (
    SpinorBasis,
    _blade_matrices,
    _cosets,
    _lookup,
    _matrix_of,
    _negated,
)
from test_division import PRODUCT_FORM_REQUIRED, _kone, _rotor_conjugate

HALF = Fraction(1, 2)
F0 = Fraction(0)
F1 = Fraction(1)
SLOW = os.environ.get("CLIFFSTRUCT_SLOW") == "1"
# The spinor basis, generator matrices and real-basis index run against
# their oracles to n <= 9 with CLIFFSTRUCT_SLOW=1, and the generator
# permutations to n <= 12.
ORACLE_MAX_N = 9 if SLOW else 8
PERMUTATION_MAX_N = 12 if SLOW else 8


def all_signatures(max_n):
    for n in range(max_n + 1):
        for p in range(n + 1):
            yield Signature(p, n - p)


def test_spinor_basis_spot_cases():
    sig = Signature(0, 2)
    kb = division_ring_basis(sig.scalar(1))
    sb = spinor_basis(sig.scalar(1), kb)
    assert sb.blades == (0,)
    assert sb.elements == (sig.scalar(1),)

    sig = Signature(1, 1)
    f = (sig.scalar(1) + sig.e(1)) * HALF
    kb = division_ring_basis(f)
    sb = spinor_basis(f, kb)
    assert sb.blades == (0, 2)
    assert sb.elements == (f, sig.e(2) * f)

    sig = Signature(3, 0)
    f = (sig.scalar(1) + sig.e(1)) * HALF
    sb = spinor_basis(f, division_ring_basis(f))
    assert sb.size == 2
    assert sb.elements[0] == f


def test_spinor_basis_sizes_match_classification():
    for sig in all_signatures(5):
        frame = find_frame(sig)
        f = primitive_idempotent(frame, (1,) * frame.k)
        kb = division_ring_basis(f)
        sb = spinor_basis(f, kb)
        assert sb.size == classify(sig).matrix_size
        assert sb.size * kb.dim == sig.dim >> frame.k


def test_represent_identity_and_idempotent():
    sig = Signature(3, 0)
    rep = build_representation(sig)
    comp = rep.components[0]
    ident = represent(sig.scalar(1), rep)
    assert ident == KMatrix.identity(comp.kbasis, comp.basis.size)
    gamma_f = represent(comp.basis.idempotent, rep)
    one = _kone(comp.kbasis)
    zero = comp.kbasis.kzero()
    assert gamma_f.entries == ((one, zero), (zero, zero))


def test_represent_quaternion_generator():
    sig = Signature(0, 2)
    rep = build_representation(sig)
    m = represent(sig.e(1), rep)
    assert m.entries == (((F0, F1, F0, F0),),)


def test_represent_requires_matching_mode():
    simple = build_representation(Signature(2, 0))
    semi = build_representation(Signature(1, 0))
    u = Signature(2, 0).e(1)
    with pytest.raises(ValueError):
        represent_semisimple(u, simple)
    with pytest.raises(ValueError):
        represent(Signature(1, 0).e(1), semi)
    with pytest.raises(SignatureMismatchError):
        represent(Signature(1, 1).e(1), simple)


def test_semisimple_pair_examples():
    sig = Signature(1, 0)
    rep = build_representation(sig)
    g1, g2 = represent_semisimple(sig.e(1), rep)
    assert g1.entries == (((F1,),),)
    assert g2.entries == (((-F1,),),)
    i1, i2 = represent_semisimple(sig.scalar(1), rep)
    assert i1 == KMatrix.identity(rep.components[0].kbasis, 1)
    assert i2 == KMatrix.identity(rep.components[1].kbasis, 1)
    c1 = (sig.scalar(1) + sig.e(1)) * HALF
    m1, m2 = represent_semisimple(c1, rep)
    assert m1.entries == (((F1,),),)
    assert m2.entries == (((F0,),),)


def test_gamma_homomorphism_on_products():
    rng = random.Random(505)
    for sig in [Signature(2, 1), Signature(1, 2), Signature(0, 3), Signature(2, 2)]:
        rep = build_representation(sig)
        for _ in range(10):
            a = sig.blade(rng.randrange(sig.dim), rng.randint(1, 3))
            b = sig.blade(rng.randrange(sig.dim), Fraction(rng.randint(-3, 3), 2))
            if rep.simple:
                lhs = represent(a * b, rep)
                rhs = represent(a, rep) @ represent(b, rep)
                assert lhs == rhs
            else:
                lhs = represent_semisimple(a * b, rep)
                ga = represent_semisimple(a, rep)
                gb = represent_semisimple(b, rep)
                assert lhs == (ga[0] @ gb[0], ga[1] @ gb[1])


def test_generator_relations_sweep():
    for sig in all_signatures(5):
        rep = build_representation(sig)
        for comp in rep.components:
            size = comp.basis.size
            kb = comp.kbasis
            for i in range(sig.n):
                for j in range(sig.n):
                    anti = comp.gammas[i] @ comp.gammas[j] + comp.gammas[j] @ comp.gammas[i]
                    if i == j:
                        eta = sig.generator_square(i + 1)
                        assert anti == KMatrix.scalar_matrix(kb, size, Fraction(2 * eta))
                    else:
                        assert anti == KMatrix.scalar_matrix(kb, size, F0)


def test_semisimple_component_is_involution_image():
    for sig in [Signature(1, 0), Signature(0, 3), Signature(2, 1)]:
        rep = build_representation(sig)
        assert not rep.simple
        for mask in range(sig.dim):
            u = sig.blade(mask)
            g1, g2 = represent_semisimple(u, rep)
            h1, _ = represent_semisimple(u.involute(), rep)
            assert g2.entries == h1.entries


def test_kmatrix_ops():
    sig = Signature(0, 2)
    kb = division_ring_basis(sig.scalar(1))
    i = (F0, F1, F0, F0)
    j = (F0, F0, F1, F0)
    k = (F0, F0, F0, F1)
    mi = KMatrix.from_rows(kb, ((i,),))
    mj = KMatrix.from_rows(kb, ((j,),))
    assert (mi @ mj).entries == ((k,),)
    assert (mj @ mi).entries == ((kb.kneg(k),),)
    ident = KMatrix.identity(kb, 1)
    assert mi @ ident == mi
    assert (mi + mj).entries == ((kb.kadd(i, j),),)
    assert mi == mi
    assert mi != mj

    rng = random.Random(606)
    rep = build_representation(Signature(2, 0))
    mats = [represent(Signature(2, 0).blade(rng.randrange(4), rng.randint(-2, 2)), rep) for _ in range(6)]
    a, b, c = mats[0], mats[1], mats[2]
    assert (a + b) @ c == a @ c + b @ c


def test_kmatrix_mismatch_errors():
    rep20 = build_representation(Signature(2, 0))
    rep11 = build_representation(Signature(1, 1))
    a = rep20.components[0].gammas[0]
    b = rep11.components[0].gammas[0]
    with pytest.raises(ValueError):
        a @ b
    with pytest.raises(ValueError):
        a + b
    assert a != b
    kb = rep20.components[0].kbasis
    col = KMatrix.from_rows(kb, ((_kone(kb),), (kb.kzero(),)))
    with pytest.raises(ValueError):
        col @ a
    with pytest.raises(ValueError):
        col + a


def _kmatmul_oracle(a, b):
    """a @ b by the loops ``KMatrix.__matmul__`` ran before its column view:
    both operands are scanned entry by entry."""
    kb = a.basis
    d = kb.dim
    zero = kb.kzero()
    sparse_b = [[(t, y) for t, y in enumerate(row) if any(y)] for row in b.entries]
    out = []
    for row_a in a.entries:
        accs = [None] * b.cols
        for m, x in enumerate(row_a):
            if not any(x):
                continue
            for t, y in sparse_b[m]:
                prod = kb.kmul(x, y)
                if accs[t] is None:
                    accs[t] = list(prod)
                else:
                    for idx in range(d):
                        accs[t][idx] += prod[idx]
        out.append(tuple(zero if acc is None else tuple(acc) for acc in accs))
    return KMatrix.from_rows(kb, tuple(out))


def _kadd_oracle(a, b):
    """a + b entry by entry, as ``KMatrix.__add__`` added before its column
    view."""
    kb = a.basis
    return KMatrix.from_rows(
        kb,
        tuple(
            tuple(kb.kadd(x, y) for x, y in zip(ra, rb))
            for ra, rb in zip(a.entries, b.entries)
        ),
    )


def test_kmatrix_product_drops_entries_that_sum_to_zero():
    kb = build_representation(Signature(1, 1)).components[0].kbasis
    one, zero = _kone(kb), kb.kzero()
    a = KMatrix.from_rows(kb, ((one, one), (one, zero)))
    b = KMatrix.from_rows(kb, ((one, zero), (kb.kneg(one), zero)))
    ab = a @ b
    assert ab == _kmatmul_oracle(a, b)
    assert ab.entries == ((zero, zero), (one, zero))
    assert ab.columns == (((1, one),), ())
    # the dense entries are built on each access, every zero the basis's one
    assert ab.entries is not ab.entries and ab.entries[0][0] is kb.kzero()


def test_kmatrix_arithmetic_matches_the_dense_loops():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    # K = R, C and H
    bases = [
        build_representation(Signature(*pq)).components[0].kbasis
        for pq in ((1, 1), (0, 1), (0, 2))
    ]
    assert [kb.ktype for kb in bases] == ["R", "C", "H"]
    # integral coordinates come as an int or a Fraction, as K-entries do
    coordinate = st.sampled_from(
        [0, F0, 0, F0, 1, F1, -1, -F1, 2, Fraction(2), HALF, Fraction(-3, 2)]
    )

    @st.composite
    def operands(draw):
        kb = draw(st.sampled_from(bases))
        entry = st.one_of(st.just(kb.kzero()), st.tuples(*[coordinate] * kb.dim))
        r, m, c, k = draw(st.lists(st.integers(1, 4), min_size=4, max_size=4))

        def matrix(rows, cols):
            return KMatrix.from_rows(
                kb, tuple(tuple(draw(entry) for _ in range(cols)) for _ in range(rows))
            )

        mu = draw(entry)
        return matrix(r, m), matrix(m, c), matrix(m, c), matrix(c, k), mu

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(operands())
    def check(ops):
        a, b, b2, c, mu = ops
        kb = a.basis
        ab = a @ b
        # equal records hold the same canonical columns, and the dense
        # entries derived from them are the oracle's
        assert ab == _kmatmul_oracle(a, b)
        assert ab.entries == _kmatmul_oracle(a, b).entries
        abc = ab @ c
        assert abc == _kmatmul_oracle(_kmatmul_oracle(a, b), c)
        assert c.rows == b.cols and (a @ (b @ c)) == abc
        total = b + b2
        assert total == _kadd_oracle(b, b2)
        assert a @ total == _kmatmul_oracle(a, _kadd_oracle(b, b2))
        # every entry sums to zero
        neg_a, neg_b = _negated(kb, (a, b))
        cancel = ab + a @ neg_b
        assert cancel == _kadd_oracle(ab, _kmatmul_oracle(a, neg_b))
        assert cancel.columns == ((),) * cancel.cols
        # negation, the right action (mu may be zero) and the zero matrix
        assert _negated(kb, (a,))[0] == _kneg_oracle(a)
        assert neg_a == _kneg_oracle(a) and neg_a.entries == _kneg_oracle(a).entries
        scaled = b.scale_right(mu)
        assert scaled == _scale_right_oracle(b, mu)
        assert scaled.entries == _scale_right_oracle(b, mu).entries
        zero = KMatrix.scalar_matrix(kb, c.cols, 0)
        assert zero.columns == ((),) * c.cols
        assert zero.entries == ((kb.kzero(),) * c.cols,) * c.cols
        assert c @ zero == _kmatmul_oracle(c, zero) and c.rows == (c @ zero).rows
        # mixing ints and Fractions is exact: the same as all Fractions
        fa, fb, fc = (_as_fractions(m) for m in (a, b, c))
        assert _kmatmul_oracle(fa, fb) == ab and (fa @ fb) @ fc == abc
        assert _kadd_oracle(fb, _as_fractions(b2)) == total

    check()


def _kneg_oracle(a):
    """-a entry by entry."""
    kb = a.basis
    return KMatrix.from_rows(kb, tuple(tuple(map(kb.kneg, row)) for row in a.entries))


def _scale_right_oracle(a, mu):
    """a with every entry multiplied by mu on the right, entry by entry."""
    kb = a.basis
    return KMatrix.from_rows(
        kb, tuple(tuple(kb.kmul(e, mu) for e in row) for row in a.entries)
    )


def _as_fractions(mat):
    return KMatrix.from_rows(
        mat.basis,
        tuple(tuple(tuple(map(Fraction, e)) for e in row) for row in mat.entries),
    )


def test_integral_k_coordinates_are_ints():
    for pq in [(1, 1), (3, 0), (0, 2), (1, 0), (2, 3)]:
        rep = build_representation(Signature(*pq))
        for comp in rep.components:
            kb = comp.kbasis
            coords = [*_kone(kb), *kb.kzero()]
            coords += [c for row in kb.table for entry in row for c in entry]
            coords += [c for g in comp.gammas for row in g.entries for e in row for c in e]
            assert all(type(c) is int for c in coords)
    kb = build_representation(Signature(0, 2)).components[0].kbasis
    assert KMatrix.scalar_matrix(kb, 1, Fraction(4, 2)).entries == (((2, 0, 0, 0),),)
    assert type(KMatrix.scalar_matrix(kb, 1, Fraction(4, 2)).entries[0][0][0]) is int
    assert type(KMatrix.scalar_matrix(kb, 1, HALF).entries[0][0][0]) is Fraction


def test_spinor_coordinates_and_right_action():
    sig = Signature(3, 0)
    rep = build_representation(sig)
    comp = rep.components[0]
    kb, sb = comp.kbasis, comp.basis
    f = sb.idempotent
    coords = spinor_coordinates(sb, f)
    assert coords == (_kone(kb), kb.kzero())
    assert spinor_coordinates(sb, sig.e(2)) is None
    # right action by a unit shows up as right multiplication of coordinates
    i_unit = kb.units[1]
    psi = sb.elements[1]
    coords_psi_i = spinor_coordinates(sb, psi * i_unit)
    expected = tuple(kb.kmul(x, (F0, F1)) for x in spinor_coordinates(sb, psi))
    assert coords_psi_i == expected


@pytest.mark.parametrize("pq", [(2, 0), (0, 3)])
def test_spinor_coordinates_reject_an_element_of_another_algebra(pq):
    comp = build_representation(Signature(1, 1)).components[0]
    kb, sb = comp.kbasis, comp.basis
    s1 = sb.elements[1]
    psi = Multivector(Signature(*pq), s1.terms)
    # the terms of s_1, which has coordinates (0, 1) in Cl(1,1)
    match = rf"^Cl\({pq[0]},{pq[1]}\) vs Cl\(1,1\)$"
    with pytest.raises(SignatureMismatchError, match=match):
        spinor_coordinates(sb, psi)
    assert spinor_coordinates(sb, s1) == (kb.kzero(), _kone(kb))


def test_solver_is_built_once_per_basis():
    sig = Signature(1, 2)
    sb = build_representation(sig).components[0].basis
    assert sb._solver is sb._solver
    # an equal but distinct basis, rebuilt from JSON, builds its own and
    # gives the same answers
    again = representation_from_json_dict(
        representation_to_json_dict(build_representation(sig))
    ).components[0].basis
    assert again == sb and again.kbasis == sb.kbasis
    assert again._solver is not sb._solver
    for mask in range(sig.dim):
        u = sig.blade(mask)
        assert _matrix_of(u, again) == _matrix_of(u, sb)
        psi = u * sb.elements[-1]
        assert spinor_coordinates(again, psi) == spinor_coordinates(sb, psi)


def test_representation_json_roundtrip():
    for pq in [(3, 0), (1, 0), (0, 3), (2, 2)]:
        rep = build_representation(Signature(*pq))
        blob = json.dumps(representation_to_json_dict(rep), sort_keys=True)
        back = representation_from_json_dict(json.loads(blob))
        assert back == rep


def test_representation_dump_deterministic():
    a = representation_to_json_dict(build_representation(Signature(2, 2)))
    b = representation_to_json_dict(build_representation(Signature(2, 2)))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_representation_json_rejects_empty_units():
    data = representation_to_json_dict(build_representation(Signature(3, 0)))
    data["components"][0]["units"] = []
    with pytest.raises(ValueError, match=r"components\[0\]\.units"):
        representation_from_json_dict(data)


def _drop_last_sign(comp):
    comp["spinor_blade_signs"].pop()


def _sign_two(comp):
    comp["spinor_blade_signs"][0] = 2


def _sign_fraction(comp):
    comp["spinor_blade_signs"][0] = 1.5


def _drop_table_row(comp):
    comp["unit_table"].pop()


def _drop_table_entry(comp):
    comp["unit_table"][1].pop()


def _drop_table_coordinate(comp):
    comp["unit_table"][0][1].pop()


def _extra_gamma(comp):
    comp["gammas"].append(comp["gammas"][0])


def _drop_last_gamma(comp):
    comp["gammas"].pop()


def _drop_gammas(comp):
    del comp["gammas"]


def _drop(*path):
    """Delete the key at the end of path inside a dumped component."""

    def corrupt(comp):
        node = comp
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]

    return corrupt


def _set(*path):
    """Set the value at the end of path inside a dumped component.  Equal
    K-entries of a dump share one list, so an entry is replaced whole."""
    *path, value = path

    def corrupt(comp):
        node = comp
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return corrupt


@pytest.mark.parametrize(
    "pq, corrupt, field",
    [
        ((1, 1), _drop_last_sign, "spinor_blade_signs"),
        ((1, 1), _sign_two, "spinor_blade_signs"),
        ((1, 1), _sign_fraction, "spinor_blade_signs"),
        ((0, 2), _drop_table_row, "unit_table"),
        ((0, 2), _drop_table_entry, "unit_table"),
        ((3, 0), _drop_table_coordinate, "unit_table"),
        ((1, 1), _extra_gamma, "gammas"),
        ((1, 1), _drop_last_gamma, "gammas"),
        ((1, 1), _drop_gammas, "gammas"),
        ((1, 1), _drop("idempotent", "terms"), "idempotent.terms is missing"),
        ((1, 1), _drop("idempotent", "p"), "idempotent.p is missing"),
        ((0, 2), _drop("units", 1, "q"), "units[1].q is missing"),
        ((0, 2), _drop("units", 1, "terms", 0, "mask"), "units[1].terms[0].mask is"),
        ((0, 2), _drop("units", 2, "terms", 0, "num"), "units[2].terms[0].num is"),
        ((1, 1), _drop("idempotent", "terms", 1, "den"), "idempotent.terms[1].den is"),
        ((1, 1), _set("gammas", 0, 0, 0, ["1/0"]), "gammas[0][0][0][0] has a zero"),
        ((0, 2), _set("unit_table", 1, 2, ["0", "0", "0", "-1/0"]), "unit_table[1][2][3] has a zero"),
        ((1, 1), _set("gammas", 0, 1, 0, [None]), "gammas[0][1][0][0] is not a rational"),
        ((0, 2), _set("unit_table", 0, 0, [None, "0", "0", "0"]), "unit_table[0][0][0] is not a rational"),
        ((1, 1), _set("gammas", 1, 0, 1, [0.5]), "gammas[1][0][1][0] is not a rational"),
        ((1, 1), _set("gammas", 0, 0, 0, [1]), "gammas[0][0][0][0] is not a rational"),
        ((1, 1), _set("gammas", 0, 0, 0, ["1.5"]), "gammas[0][0][0][0] is not a rational"),
        ((1, 1), _set("gammas", 0, 0, 0, [" 1"]), "gammas[0][0][0][0] is not a rational"),
        ((1, 1), _set("gammas", 0, 0, 0, "1"), "gammas[0][0][0] is not a list"),
        ((1, 1), _set("gammas", 0, 1, None), "gammas[0][1] is not a list"),
        ((1, 1), _set("gammas", 1, None), "gammas[1] is not a list"),
        ((0, 2), _set("unit_table", 2, None), "unit_table[2] is not a list"),
        ((1, 1), _set("units", None), "units is not a list"),
        ((1, 1), _set("unit_table", None), "unit_table is not a list"),
        ((1, 1), _set("spinor_blades", None), "spinor_blades is not a list"),
        ((1, 1), _set("spinor_blade_signs", None), "spinor_blade_signs is not a list"),
        ((1, 1), _set("gammas", None), "gammas is not a list"),
        # integer fields take what the schema's integer takes
        ((1, 1), _set("spinor_blades", [None, 2]), "spinor_blades[0] is not an integer"),
        ((1, 1), _set("spinor_blades", [0.9, 2]), "spinor_blades[0] is not an integer"),
        ((1, 1), _set("spinor_blades", ["0", 2]), "spinor_blades[0] is not an integer"),
        ((1, 1), _set("spinor_blades", [0, True]), "spinor_blades[1] is not an integer"),
        ((1, 1), _set("spinor_blade_signs", [True, 1]), "spinor_blade_signs"),
        ((1, 1), _set("spinor_blade_signs", [1, False]), "spinor_blade_signs"),
        ((1, 1), _set("idempotent", "p", None), "idempotent.p is not an integer"),
        ((1, 1), _set("idempotent", "p", 1.5), "idempotent.p is not an integer"),
        ((1, 1), _set("idempotent", "q", "1"), "idempotent.q is not an integer"),
        ((1, 1), _set("idempotent", "p", True), "idempotent.p is not an integer"),
        ((0, 2), _set("units", 1, "terms", 0, "mask", 1.5), "units[1].terms[0].mask is not an integer"),
        ((0, 2), _set("units", 1, "terms", 0, "mask", "3"), "units[1].terms[0].mask is not an integer"),
        ((0, 2), _set("units", 1, "terms", 0, None), "units[1].terms[0] is not an object"),
        ((0, 2), _set("units", 1, None), "units[1] is not an object"),
        ((1, 1), _set("idempotent", None), "idempotent is not an object"),
        ((1, 1), _set("idempotent", "terms", None), "idempotent.terms is not a list"),
        # num and den take only the schema's strings of digits
        ((0, 2), _set("units", 1, "terms", 0, "num", 1.5), "units[1].terms[0].num is not an integer string"),
        ((0, 2), _set("units", 1, "terms", 0, "num", True), "units[1].terms[0].num is not an integer string"),
        ((1, 1), _set("idempotent", "terms", 1, "den", 2.9), "idempotent.terms[1].den is not an integer string"),
        ((1, 1), _set("idempotent", "terms", 0, "num", " 3 "), "idempotent.terms[0].num is not an integer string"),
        ((1, 1), _set("idempotent", "terms", 0, "num", "1_0"), "idempotent.terms[0].num is not an integer string"),
        ((1, 1), _set("idempotent", "terms", 0, "den", "-2"), "idempotent.terms[0].den is not an integer string"),
        ((0, 2), _set("units", 2, "terms", 0, "num", "x"), "units[2].terms[0].num is not an integer string"),
        # every gamma entry has d = dim K coordinates
        ((0, 2), _set("gammas", 0, 0, 0, ["0", "1", "0"]), "gammas[0][0][0] has 3 coordinates, not 4"),
        ((0, 2), _set("gammas", 1, 0, 0, ["0", "0", "1", "0", "0"]), "gammas[1][0][0] has 5 coordinates, not 4"),
        # every row of a gamma matrix is as long as its first: Cl(1,1) has
        # gamma(e1) rows [1, 0], [0, -1] and gamma(e2) rows [0, -1], [1, 0]
        ((1, 1), _set("gammas", 0, 0, [["1"]]), "gammas[0][1] has 2 entries, not 1"),
        ((1, 1), _set("gammas", 1, 1, [["1"]]), "gammas[1][1] has 1 entries, not 2"),
        ((1, 1), _set("gammas", 0, 1, [["0"], ["-1"], ["1"]]), "gammas[0][1] has 3 entries, not 2"),
        # the idempotent, every unit and every spinor blade lie in Cl(p,q)
        ((1, 1), _set("idempotent", "p", 2), "idempotent is in Cl(2,1), not Cl(1,1)"),
        ((0, 2), _set("units", 1, "p", 1), "units[1] is in Cl(1,2), not Cl(0,2)"),
        ((1, 1), _set("spinor_blades", [0, 99]), "spinor_blades[1] is out of range for Cl(1,1): 99"),
        ((1, 1), _set("spinor_blades", [-1, 2]), "spinor_blades[0] is out of range for Cl(1,1): -1"),
        ((1, 1), _set("idempotent", "terms", 0, "mask", 4), "idempotent.terms[0].mask is out of range for Cl(1,1): 4"),
        ((0, 2), _set("units", 1, "terms", 0, "mask", -1), "units[1].terms[0].mask is out of range for Cl(0,2): -1"),
    ],
)
def test_representation_json_rejects_malformed_fields(pq, corrupt, field):
    data = representation_to_json_dict(build_representation(Signature(*pq)))
    corrupt(data["components"][0])
    with pytest.raises(ValueError, match=r"components\[0\]\." + re.escape(field)):
        representation_from_json_dict(data)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("p", None, "p is not an integer: None"),
        ("p", 1.5, "p is not an integer: 1.5"),
        ("p", "1", "p is not an integer: '1'"),
        ("p", True, "p is not an integer: True"),
        ("q", [1], "q is not an integer: [1]"),
        ("frame", [1.7], "frame[0] is not an integer: 1.7"),
        ("frame", ["3"], "frame[0] is not an integer: '3'"),
        ("frame", [99], "frame[0] is out of range for Cl(1,1): 99"),
        ("frame", [-3], "frame[0] is out of range for Cl(1,1): -3"),
        ("components", [None], "components[0] is not an object"),
        ("components", [[]], "components[0] is not an object"),
    ],
)
def test_representation_json_rejects_malformed_top_level_fields(key, value, message):
    data = representation_to_json_dict(build_representation(Signature(1, 1)))
    data[key] = value
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        representation_from_json_dict(data)


@pytest.mark.parametrize("data", [None, [], "{}"])
def test_representation_json_rejects_a_dump_that_is_not_an_object(data):
    with pytest.raises(ValueError, match="^the dump is not an object$"):
        representation_from_json_dict(data)


def test_representation_json_reads_integral_floats_as_integers():
    # the schema's integer takes 1.0 as it takes 1
    data = representation_to_json_dict(build_representation(Signature(1, 1)))
    rep = representation_from_json_dict(data)
    data["p"] = 1.0
    data["frame"] = [float(m) for m in data["frame"]]
    comp = data["components"][0]
    comp["spinor_blades"] = [float(m) for m in comp["spinor_blades"]]
    comp["idempotent"]["q"] = 1.0
    comp["idempotent"]["terms"][1]["mask"] = 1.0
    again = representation_from_json_dict(data)
    assert again == rep
    assert all(type(m) is int for m in again.frame.monomials)
    assert all(type(m) is int for m in again.components[0].basis.blades)


def test_representation_json_names_a_missing_top_level_key():
    data = representation_to_json_dict(build_representation(Signature(1, 1)))
    del data["frame"]
    with pytest.raises(ValueError, match=r"^frame is missing$"):
        representation_from_json_dict(data)


@pytest.mark.parametrize("key", ["frame", "components"])
@pytest.mark.parametrize("value", [None, 3, {}])
def test_representation_json_names_a_top_level_container_that_is_not_a_list(key, value):
    data = representation_to_json_dict(build_representation(Signature(1, 1)))
    data[key] = value
    with pytest.raises(ValueError, match=rf"^{key} is not a list$"):
        representation_from_json_dict(data)


def test_representation_json_reads_every_rational_form():
    data = representation_to_json_dict(build_representation(Signature(0, 2)))
    data["components"][0]["gammas"][0][0][0] = ["-0", "6/4", "-3/1", "007"]
    gamma = representation_from_json_dict(data).components[0].gammas[0]
    assert gamma.entries[0][0] == (F0, Fraction(3, 2), Fraction(-3), Fraction(7))


# ---------------------------------------------------------------------------
# the real-basis lookup against the span solves it confirms


def _spinor_coordinates_oracle(sb, psi):
    """K-coordinates of psi by span solve alone, as ``spinor_coordinates``
    computed them before the lookup."""
    coords = sb._solver.coordinates(dict(psi.terms))
    if coords is None:
        return None
    d = sb.kbasis.dim
    return tuple(tuple(coords.get((t, j), F0) for j in range(d)) for t in range(sb.size))


def _matrix_of_oracle(u, sb):
    """Matrix of u by one span solve per column, as ``_matrix_of`` computed
    it before the lookup."""
    columns = []
    for s in sb.elements:
        col = _spinor_coordinates_oracle(sb, u * s)
        if col is None:
            raise RepresentationError("product left the spinor ideal")
        columns.append(col)
    return KMatrix.from_rows(
        sb.kbasis, tuple(tuple(col[i] for col in columns) for i in range(sb.size))
    )


def _random_element(sig, rng, terms):
    """A sum of rational multiples of random blades."""
    u = sig.scalar(0)
    for _ in range(terms):
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        u = u + sig.blade(rng.randrange(sig.dim), c)
    return u


@pytest.mark.parametrize("n", range(9))
def test_blade_matrices_match_the_span_solve(n, monkeypatch):
    solves = []
    solve = representation._solve
    monkeypatch.setattr(
        representation, "_solve", lambda *args: solves.append(args) or solve(*args)
    )
    for p in range(n + 1):
        sig = Signature(p, n - p)
        rep = build_representation(sig)
        # the lookup confirmed every generator column
        assert solves == [], sig
        for comp in rep.components:
            sb = comp.basis
            assert sb._real_basis_index is not None
            coeffs = (1, -1) if n <= 6 else (1,)
            blades = [sig.blade(mask, c) for mask in range(sig.dim) for c in coeffs]
            mats = [_matrix_of(u, sb) for u in blades]
            # every column was confirmed by the lookup: no solve was needed
            assert solves == [], sig
            for u, mat in zip(blades, mats):
                assert mat == _matrix_of_oracle(u, sb)


@pytest.mark.parametrize("pq", [(2, 0), (1, 1), (0, 2), (3, 0), (0, 3), (2, 2), (1, 3)])
def test_represent_of_multi_term_elements_matches_the_span_solve(pq):
    sig = Signature(*pq)
    rep = build_representation(sig)
    rng = random.Random(808)
    for _ in range(12):
        u = _random_element(sig, rng, rng.randint(2, 4))
        expected = tuple(_matrix_of_oracle(u, comp.basis) for comp in rep.components)
        got = (represent(u, rep),) if rep.simple else represent_semisimple(u, rep)
        assert got == expected
        for comp in rep.components:
            sb = comp.basis
            for psi in (u * sb.elements[0], u, sb.elements[-1] * Fraction(-3, 7)):
                assert spinor_coordinates(sb, psi) == _spinor_coordinates_oracle(sb, psi)


def test_lookup_on_a_non_product_idempotent_matches_the_span_solve():
    # A rational-rotor conjugate of the product idempotent of Cl(1,4), with
    # the search oracle's units and greedy spinor basis (spinor_basis takes
    # product idempotents only): its real basis shares leading masks, so the
    # index is None and the solve decides every column.
    f = _rotor_conjugate()
    sig = f.signature
    kb = oracle.division_ring_basis(f)
    with pytest.raises(ValueError, match=PRODUCT_FORM_REQUIRED):
        spinor_basis(f, kb)
    sb = oracle.greedy_spinor_basis(f, kb)
    assert sb._real_basis_index is None
    rng = random.Random(909)
    elements = [sig.blade(mask) for mask in range(sig.dim)]
    elements += [_random_element(sig, rng, 3) for _ in range(8)]
    for u in elements:
        assert _matrix_of(u, sb) == _matrix_of_oracle(u, sb)
        psi = u * sb.elements[1]
        assert spinor_coordinates(sb, psi) == _spinor_coordinates_oracle(sb, psi)


def test_lookup_rejects_a_leading_mask_match_that_is_not_proportional():
    sig = Signature(3, 0)
    sb = build_representation(sig).components[0].basis
    kb = sb.kbasis
    s = sb.elements[1]
    # the masks of s_1 are kept and its last coefficient is doubled
    bent = s + sig.blade(*s.terms[-1])
    assert [m for m, _ in bent.terms] == [m for m, _ in s.terms] and len(s.terms) > 1
    assert spinor_coordinates(sb, bent) is None
    assert spinor_coordinates(sb, s * 5) == _spinor_coordinates_oracle(sb, s * 5)
    assert spinor_coordinates(sb, s + sb.elements[0]) == (_kone(kb), _kone(kb))


def test_repeated_spinor_blade_leaves_the_solve_to_decide():
    sig = Signature(1, 1)
    data = representation_to_json_dict(build_representation(sig))
    data["components"][0]["spinor_blades"] = [0, 0]
    sb = representation_from_json_dict(data).components[0].basis
    assert sb._real_basis_index is None
    assert _matrix_of(sig.scalar(1), sb) == _matrix_of_oracle(sig.scalar(1), sb)
    with pytest.raises(RepresentationError, match="product left the spinor ideal"):
        _matrix_of(sig.e(2), sb)


def test_solver_is_built_only_for_a_fallback():
    sig = Signature(2, 1)
    rep = build_representation(sig)
    sb = rep.components[0].basis
    for mask in range(sig.dim):
        represent_semisimple(sig.blade(mask, -1), rep)
    assert "_solver" not in vars(sb)
    assert spinor_coordinates(sb, sig.e(2)) is None
    assert "_solver" in vars(sb)


def _real_basis_index_oracle(sb):
    """The real-basis index from the exact products s_t u_j, as
    ``_real_basis_index`` built it before it read each s_t u_j off f u_j."""
    index = {}
    for t, s in enumerate(sb.elements):
        for j, unit in enumerate(sb.kbasis.units):
            den, masks, nums = (s * unit)._integer_terms
            if not masks or masks[0] in index:
                return None
            index[masks[0]] = (t, j, den, dict(zip(masks, nums)))
    return index


@pytest.mark.parametrize("n", range(ORACLE_MAX_N + 1))
def test_real_basis_index_matches_the_exact_products(n):
    for p in range(n + 1):
        for comp in build_representation(Signature(p, n - p)).components:
            index = comp.basis._real_basis_index
            assert index is not None
            assert index == _real_basis_index_oracle(comp.basis)


def _negate_unit(comp):
    for term in comp["units"][1]["terms"]:
        num = term["num"]
        term["num"] = num[1:] if num.startswith("-") else "-" + num


def _negate_unit_table_row(comp):
    row = comp["unit_table"][1]
    comp["unit_table"][1] = [[str(-Fraction(c)) for c in entry] for entry in row]


@pytest.mark.parametrize(
    "pq, corrupt",
    [
        ((3, 0), _set("spinor_blade_signs", 1, -1)),
        ((2, 2), _set("spinor_blade_signs", 2, -1)),
        ((3, 0), _negate_unit),
        ((0, 3), _negate_unit),
        ((0, 2), _negate_unit_table_row),
        ((1, 1), _set("spinor_blades", [0, 0])),
        ((2, 1), _set("spinor_blades", [3, 3])),
    ],
)
def test_real_basis_index_of_a_corrupted_dump_matches_the_exact_products(pq, corrupt):
    data = representation_to_json_dict(build_representation(Signature(*pq)))
    corrupt(data["components"][0])
    for comp in representation_from_json_dict(data).components:
        sb = comp.basis
        index = sb._real_basis_index
        assert index == _real_basis_index_oracle(sb)
        # a repeated blade repeats every leading mask of its real basis
        assert (index is None) == (len(set(sb.blades)) < sb.size)


def _generator_permutations_oracle(sb):
    """The generator permutations by one lookup per real basis element and
    generator, as ``SpinorBasis.generator_permutations`` read them before it
    derived them from the generator matrices and the unit table."""
    index = sb._real_basis_index
    if not index:
        return None
    sig = sb.idempotent.signature
    d, size, signs = sb.kbasis.dim, len(index), _sign_masks(sig)
    perms = []
    for i in range(sig.n):
        pi, sigma = [0] * size, [0] * size
        for t, j, den, nums in index.values():
            image = _blade_times(1 << i, False, nums.items(), signs)
            hit = _lookup(sb, den, image)
            if hit is None:
                return None
            r, entry = hit
            ((c, lam),) = [(c, x) for c, x in enumerate(entry) if x]
            if lam not in (1, -1):
                return None
            pi[t * d + j], sigma[t * d + j] = r * d + c, int(lam)
        perms.append((pi, sigma))
    return perms


@pytest.mark.parametrize("n", range(PERMUTATION_MAX_N + 1))
def test_generator_permutations_match_the_lookups(n):
    for p in range(n + 1):
        for comp in build_representation(Signature(p, n - p)).components:
            perms = comp.basis.generator_permutations
            assert perms is not None
            assert perms == _generator_permutations_oracle(comp.basis)


@pytest.mark.parametrize(
    "pq, corrupt",
    [
        ((3, 0), _set("spinor_blade_signs", 1, -1)),
        ((2, 2), _set("spinor_blade_signs", 2, -1)),
        ((3, 0), _negate_unit),
        ((0, 3), _negate_unit),
        ((0, 2), _negate_unit_table_row),
        ((1, 1), _set("spinor_blades", [0, 0])),
        ((2, 1), _set("spinor_blades", [3, 3])),
    ],
)
def test_generator_permutations_of_a_corrupted_dump_match_the_lookups(pq, corrupt):
    """Derived permutations, when a dump has them, are the lookups'."""
    data = representation_to_json_dict(build_representation(Signature(*pq)))
    corrupt(data["components"][0])
    for comp in representation_from_json_dict(data).components:
        perms = comp.basis.generator_permutations
        if perms is not None:
            assert perms == _generator_permutations_oracle(comp.basis)


@pytest.mark.parametrize("n", range(9))
def test_second_component_carries_what_a_dump_computes(n):
    """The gammas are the spinor basis's generator matrices, and the second
    component of a semisimple algebra gets its unit relations and generator
    matrices from the first, as a dumped copy computes them."""
    for p in range(n + 1):
        rep = build_representation(Signature(p, n - p))
        for comp in rep.components:
            assert comp.gammas is comp.basis.generator_matrices
        if rep.simple:
            continue
        kb, sb = rep.components[1].kbasis, rep.components[1].basis
        assert "unit_defect" in vars(kb)
        dumped = representation_from_json_dict(representation_to_json_dict(rep))
        kb2, sb2 = dumped.components[1].kbasis, dumped.components[1].basis
        assert (kb2, sb2) == (kb, sb) and "unit_defect" not in vars(kb2)
        assert kb2.unit_defect is None is kb.unit_defect
        assert sb2.generator_matrices == sb.generator_matrices
        assert sb2.generator_permutations == sb.generator_permutations


# ---------------------------------------------------------------------------
# the generator matrices against the exact span solves they replaced


def _coset_gammas_oracle(sig, sb, product):
    """The generator matrices as signed unit permutations, each row and unit
    read off U's echelon and the W-coset of each unit mask, and each column
    confirmed by exact multivector equality."""
    kb = sb.kbasis
    frame = product.echelon
    ideal = dict(frame)
    unit_of = {}
    for j, u in enumerate(kb.units):
        gf2_insert(u.terms[0][0], ideal)
        unit_of[gf2_reduce(u.terms[0][0], frame)] = j
    row_of = {mask: s for s, mask in enumerate(sb.blades)}
    gammas = []
    for i in range(sig.n):
        gen = sig.blade(1 << i)
        columns = []
        for t, s_t in enumerate(sb.elements):
            x = (1 << i) ^ sb.blades[t]
            a = gf2_reduce(x, ideal)
            s = row_of[a]
            j = unit_of[gf2_reduce(x ^ a, frame)]
            lhs = gen * s_t
            rhs = sig.blade(a, sb.blade_signs[s]) * kb.units[j]
            lam = lhs.terms[0][1] / rhs.terms[0][1]
            if lhs != rhs * lam:
                raise RepresentationError(
                    f"e{i + 1} s_{t} is not a multiple of s_{s} u_{j}"
                )
            columns.append((s, tuple(lam if jj == j else F0 for jj in range(kb.dim))))
        gammas.append(
            KMatrix.from_rows(
                kb,
                tuple(
                    tuple(entry if s == row else kb.kzero() for s, entry in columns)
                    for row in range(sb.size)
                ),
            )
        )
    return tuple(gammas)


@pytest.mark.parametrize("n", range(ORACLE_MAX_N + 1))
def test_coset_kernel_matches_greedy_scan_and_span_solves(n):
    for p in range(n + 1):
        sig = Signature(p, n - p)
        rep = build_representation(sig)
        for comp in rep.components:
            kb, sb = comp.kbasis, comp.basis
            greedy = oracle.greedy_spinor_basis(sb.idempotent, kb)
            assert spinor_basis(sb.idempotent, kb) == greedy
            assert sb.blades == greedy.blades
            # the second semisimple component carries grade-involution signs
            assert sb.elements == tuple(
                e * s for e, s in zip(greedy.elements, sb.blade_signs)
            )
            for i, gamma in enumerate(comp.gammas):
                assert gamma == _matrix_of_oracle(sig.blade(1 << i), sb)
            # the builder on the component's own bases (for the second
            # component, the run that the negated first gammas replaced)
            product = _half_product_form(sb.idempotent)
            assert comp.gammas == _generator_gammas(sig, sb)
            assert comp.gammas == _coset_gammas_oracle(sig, sb, product)


def _generator_gammas(sig, sb):
    return tuple(_blade_matrices(sb, [1 << i for i in range(sig.n)]))


def _counted(monkeypatch, module, name, calls):
    """Replace module.name with a wrapper that appends each call's name."""
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_build_representation_runs_the_coset_tables_once(monkeypatch):
    """Across a whole verify_signature, f is recognized at most once (in
    fact never: the product comes from the frame and primitivity from the
    trace), and each build_representation builds K, the coset tables and
    the spinor basis once."""
    calls = []
    _counted(monkeypatch, idempotents, "_half_product_form", calls)
    _counted(monkeypatch, representation, "division_ring_basis", calls)
    _counted(monkeypatch, representation, "_cosets", calls)
    _counted(monkeypatch, representation, "spinor_basis", calls)
    _counted(monkeypatch, verify, "build_representation", calls)
    for pq in ((0, 0), (0, 3), (2, 1), (3, 3), (1, 4)):
        calls.clear()
        assert verify_signature(Signature(*pq)).passed
        assert calls.count("_half_product_form") <= 1, pq
        assert calls.count("build_representation") == 1, pq
        assert calls.count("division_ring_basis") == 1, pq
        assert calls.count("_cosets") == 1, pq
        assert calls.count("spinor_basis") == 1, pq


def test_non_product_idempotent_uses_greedy_scan():
    # spinor_basis takes product idempotents only; the greedy scan of the
    # search oracle still builds a basis for this rotated one.
    sig = Signature(2, 0)
    f = (sig.scalar(1) + (sig.e(1) * 3 + sig.e(2) * 4) * Fraction(1, 5)) * HALF
    assert f * f == f
    kb = oracle.division_ring_basis(f)
    with pytest.raises(ValueError, match=PRODUCT_FORM_REQUIRED):
        spinor_basis(f, kb)
    sb = oracle.greedy_spinor_basis(f, kb)
    assert sb.blades == (0, 1)
    assert sb.size * kb.dim == 2


def test_corrupted_unit_raises_instead_of_a_wrong_matrix():
    sig = Signature(3, 0)
    rep = build_representation(sig)
    comp = rep.components[0]
    kb, sb = comp.kbasis, comp.basis
    f = kb.idempotent
    i_unit = kb.units[1]
    product = _half_product_form(f)
    # the span solve gives i + e2 f matrices and finds e3 s_t outside S
    # over e12 f
    for unit, left in ((i_unit + sig.e(2) * f, False), (sig.blade(3) * f, True)):
        bad = DivisionRingBasis(f, (f, unit), kb.ktype, kb.table)
        with pytest.raises(RepresentationError):
            spinor_basis(f, bad)
        with pytest.raises(RepresentationError):
            _cosets(product, bad)
        # without _cosets, each generator column is still confirmed or
        # solved exactly: the matrices are the span solve's, or both raise
        bad_sb = SpinorBasis(bad, sb.blades, sb.blade_signs)
        expected = _outcome(
            lambda: tuple(
                _matrix_of_oracle(sig.blade(1 << i), bad_sb) for i in range(sig.n)
            )
        )
        assert (expected is RepresentationError) == left
        assert _outcome(lambda: _generator_gammas(sig, bad_sb)) == expected


@pytest.mark.parametrize(
    "units, message",
    [
        (lambda f: (f * 0,), "unit 0 is zero"),
        (
            lambda f: (f, f),
            "S = Cl f is not a free right K-module: unit masks span rank 0 over the frame",
        ),
    ],
)
def test_spinor_basis_refuses_units_that_are_not_a_k_basis(units, message):
    sig = Signature(1, 1)
    product = idempotents.product_form((sig.scalar(1) + sig.e(1)) * HALF)
    bad = units(product.f)
    kb = DivisionRingBasis(product.f, bad, KTYPE_BY_DIM[len(bad)], _UNIT_TABLES[len(bad)])
    with pytest.raises(RepresentationError, match="^" + re.escape(message) + "$"):
        spinor_basis(product, kb)


def _outcome(build):
    """What build returns, or RepresentationError if it raises one."""
    try:
        return build()
    except RepresentationError:
        return RepresentationError


def test_gf2_reduce_gives_the_coset_minimum():
    rng = random.Random(707)
    for _ in range(200):
        masks = [rng.randrange(1, 64) for _ in range(rng.randint(0, 4))]
        echelon = {}
        span = {0}
        for m in masks:
            grew = gf2_insert(m, echelon)
            assert grew == (m not in span)
            span |= {w ^ m for w in span}
        assert len(span) == 1 << len(echelon)
        for x in range(64):
            assert gf2_reduce(x, echelon) == min(x ^ w for w in span)
