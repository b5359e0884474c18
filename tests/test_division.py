import os
from fractions import Fraction

import pytest

import cliffstruct.division as division
import search_oracle as oracle
from cliffstruct import (
    DivisionRingBasis,
    NotPrimitiveError,
    Signature,
    SignatureMismatchError,
    UnitConstructionError,
    build_representation,
    classify,
    complete_set,
    division_ring_basis,
    find_frame,
    is_primitive,
    parse_multivector,
    primitive_idempotent,
)
from cliffstruct.core import blades_commute
from cliffstruct.division import _commute_mask, _commuting_cosets
from cliffstruct.idempotents import MonomialFrame, _half_product_form, sign_vectors
from cliffstruct.linalg import ExactSpan, gf2_reduce

HALF = Fraction(1, 2)
# The search-oracle comparisons run to n <= 9 with CLIFFSTRUCT_SLOW=1.
ORACLE_MAX_N = 9 if os.environ.get("CLIFFSTRUCT_SLOW") == "1" else 7


def all_signatures(max_n):
    for n in range(max_n + 1):
        for p in range(n + 1):
            yield Signature(p, n - p)


def _kone(kb):
    """The unit 1 of K as coordinates over kb's units."""
    return (1,) + (0,) * (kb.dim - 1)


def _element_from_coordinates(kb, coords):
    """The element sum c_j u_j of K for coordinates c over kb's units."""
    out = kb.idempotent.signature.scalar(0)
    for c, unit in zip(coords, kb.units):
        if c:
            out = out + unit * c
    return out


def _rotor_conjugate():
    """A rational-rotor conjugate of the product idempotent of Cl(1,4)."""
    sig = Signature(1, 4)
    return parse_multivector(
        sig,
        "1/4 - 3/65*e1 - 4/65*e12 - 12/65*e14 + 3/20*e234 - 3/20*e15"
        " - 12/65*e235 - 4/65*e345 - 3/65*e2345 + 1/4*e12345",
    )


def _conjugated_cl20_idempotent():
    """A rational conjugate a f a^-1 of the product idempotent (1 + e1)/2 of
    Cl(2,0), which is not in product form."""
    sig = Signature(2, 0)
    f = (sig.scalar(1) + sig.e(1)) * HALF
    a = sig.scalar(1) + sig.e(1, 2) * HALF  # invertible: a^-1 = 1 - e12/2 scaled
    a_inv = (sig.scalar(1) - sig.e(1, 2) * HALF) * Fraction(4, 5)
    assert a * a_inv == sig.scalar(1)
    return a * f * a_inv


def _solved_unit_table(units):
    """Coordinates of every unit product, solved over the units by
    elimination: the reference for the constant table of R, C and H."""
    span = ExactSpan()
    for idx, u in enumerate(units):
        assert span.add(dict(u.terms), idx), "units are not independent"
    rows = []
    for a in units:
        row = []
        for b in units:
            coords = span.coordinates(dict((a * b).terms))
            assert coords is not None, "a unit product leaves the unit span"
            row.append(tuple(coords.get(i, Fraction(0)) for i in range(len(units))))
        rows.append(tuple(row))
    return tuple(rows)


def test_real_case():
    sig = Signature(1, 1)
    f = (sig.scalar(1) + sig.e(1)) * HALF
    kb = division_ring_basis(f)
    assert kb.ktype == "R"
    assert kb.units == (f,)


def test_complex_case_unit_from_e23():
    sig = Signature(3, 0)
    f = (sig.scalar(1) + sig.e(1)) * HALF
    kb = division_ring_basis(f)
    assert kb.ktype == "C"
    assert len(kb.units) == 2
    i = kb.units[1]
    assert i * i == -f
    assert i == sig.e(2, 3) * f


def test_quaternion_case_classical_units():
    sig = Signature(0, 2)
    f = sig.scalar(1)
    kb = division_ring_basis(f)
    assert kb.ktype == "H"
    assert kb.units == (f, sig.e(1), sig.e(2), sig.e(1, 2))


def test_units_are_reproduced_by_f():
    for sig in all_signatures(4):
        frame = find_frame(sig)
        f = primitive_idempotent(frame, (1,) * frame.k)
        kb = division_ring_basis(f)
        for u in kb.units:
            assert f * u == u
            assert u * f == u


def test_quaternion_table_relations():
    sig = Signature(1, 3)
    frame = find_frame(sig)
    f = primitive_idempotent(frame, (1,) * frame.k)
    kb = division_ring_basis(f)
    assert kb.ktype == "H"
    f_, i, j, k = kb.units
    assert i * i == -f_ and j * j == -f_ and k * k == -f_
    assert i * j == k and j * i == -k
    assert j * k == i and k * j == -i
    assert k * i == j and i * k == -j


def test_table_matches_solved_coordinates():
    kbs = []
    for sig in all_signatures(8):
        frame = find_frame(sig)
        kbs.append(division_ring_basis(primitive_idempotent(frame, (1,) * frame.k)))
    # the search oracle's units for a non-product idempotent
    kbs.append(oracle.division_ring_basis(_rotor_conjugate()))
    for kb in kbs:
        assert kb.table == _solved_unit_table(kb.units)


def test_broken_unit_relation_raises(monkeypatch):
    # j' = j + f keeps i j' == k' true by construction, but j' i != -k'.
    imaginary_unit = division._imaginary_unit
    found = []

    def shifted_second_unit(f, mask):
        u = imaginary_unit(f, mask)
        found.append(u)
        return u + f if len(found) == 2 else u

    monkeypatch.setattr(division, "_imaginary_unit", shifted_second_unit)
    with pytest.raises(UnitConstructionError, match=r"units\[2\] \* units\[1\]"):
        division_ring_basis(Signature(0, 2).scalar(1))


@pytest.mark.parametrize("n", range(7))
def test_unit_check_passes_on_every_built_component(n):
    for p in range(n + 1):
        rep = build_representation(Signature(p, n - p))
        # division_ring_basis ran the check on the first K, and keeps it
        assert vars(rep.components[0].kbasis)["unit_defect"] is None
        for comp in rep.components:
            assert comp.kbasis.unit_defect is None


def test_kmul_follows_table():
    sig = Signature(0, 2)
    kb = division_ring_basis(sig.scalar(1))
    one, i, j, k = (
        _kone(kb),
        (Fraction(0), Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(0), Fraction(1)),
    )
    assert kb.kmul(i, j) == k
    assert kb.kmul(j, i) == kb.kneg(k)
    assert kb.kmul(one, i) == i
    x = (Fraction(1), Fraction(2), Fraction(0), Fraction(0))
    y = (Fraction(0), Fraction(1), Fraction(-1), Fraction(0))
    lhs = _element_from_coordinates(kb, x) * _element_from_coordinates(kb, y)
    assert kb.element_coordinates(lhs) == kb.kmul(x, y)
    # a table with entries other than 0 and +-1 against the dense formula
    sig = Signature(3, 0)
    c = division_ring_basis((sig.scalar(1) + sig.e(1)) * HALF)
    scaled = tuple(
        tuple(tuple(t * Fraction(3, 2) for t in entry) for entry in row)
        for row in c.table
    )
    kb = DivisionRingBasis(c.idempotent, c.units, c.ktype, scaled)
    for x, y in [
        ((Fraction(1), Fraction(2)), (Fraction(-1, 3), Fraction(5))),
        ((Fraction(0), Fraction(-7, 2)), (Fraction(4), Fraction(0))),
    ]:
        dense = [Fraction(0)] * 2
        for a in range(2):
            for b in range(2):
                for idx in range(2):
                    dense[idx] += x[a] * y[b] * scaled[a][b][idx]
        assert kb.kmul(x, y) == tuple(dense)


def test_element_coordinates_roundtrip():
    sig = Signature(3, 0)
    f = (sig.scalar(1) + sig.e(1)) * HALF
    kb = division_ring_basis(f)
    x = (Fraction(2, 3), Fraction(-5))
    u = _element_from_coordinates(kb, x)
    assert kb.element_coordinates(u) == x
    assert kb.element_coordinates(sig.e(2)) is None


def test_element_coordinates_reject_an_element_of_another_algebra():
    kb = division_ring_basis(Signature(0, 2).scalar(1))
    assert kb.element_coordinates(kb.units[1]) == (0, 1, 0, 0)
    # e1 of Cl(2,0) has the terms of the unit i of Cl(0,2)
    with pytest.raises(SignatureMismatchError, match=r"^Cl\(2,0\) vs Cl\(0,2\)$"):
        kb.element_coordinates(Signature(2, 0).e(1))


def test_not_primitive_detection():
    with pytest.raises(NotPrimitiveError):
        division_ring_basis(Signature(1, 0).scalar(1))  # R + R, dim 2, split
    with pytest.raises(NotPrimitiveError):
        division_ring_basis(Signature(2, 0).scalar(1))  # Mat(2,R), dim 4
    with pytest.raises(NotPrimitiveError):
        division_ring_basis(Signature(3, 0).scalar(1))  # dim 8
    with pytest.raises(ValueError):
        division_ring_basis(Signature(1, 0).e(1))  # not idempotent


def test_ktype_matches_classification():
    for sig in all_signatures(5):
        frame = find_frame(sig)
        f = primitive_idempotent(frame, (1,) * frame.k)
        assert division_ring_basis(f).ktype == classify(sig).ktype


def test_half_product_form_recognition():
    sig = Signature(3, 1)
    frame = find_frame(sig)
    f = primitive_idempotent(frame, (1, -1))
    form = _half_product_form(f)
    assert form is not None
    assert set(form.masks) == set(frame.monomials)
    assert form.f == f
    # a generic non-product element is rejected
    assert _half_product_form(sig.scalar(1) + sig.e(1)) is None
    assert _half_product_form((sig.scalar(1) + sig.e(1)) * HALF + sig.e(2, 3)) is None


def _all_commuting_projections(f):
    """e_A f for every blade A commuting with the frame of a product-form f,
    in ascending mask order: the candidate sweep before one candidate per
    frame coset, kept as the oracle for ``_commuting_cosets``."""
    gens = _half_product_form(f).masks
    sig = f.signature
    tests = [_commute_mask(g, sig.n) for g in gens]
    out = []
    for mask in range(sig.dim):
        for t in tests:
            if (mask & t).bit_count() & 1:
                break
        else:
            out.append((mask, sig.blade(mask) * f))
    return out


def test_fast_projections_agree_with_general_sweep():
    for sig in all_signatures(4):
        result = complete_set(find_frame(sig))
        for f in result.idempotents:
            product = _half_product_form(f)
            assert product is not None
            general = oracle._projections_general(f)
            assert _all_commuting_projections(f) == general
            # the candidates are the general projections at the coset minima
            echelon = product.echelon
            candidates = [(m, sig.blade(m) * f) for m in _commuting_cosets(product)]
            assert candidates == [
                (m, v) for m, v in general if gf2_reduce(m, echelon) == m
            ]
            # and every general projection is +- the candidate of its coset
            by_coset = dict(candidates)
            for m, v in general:
                c = by_coset[gf2_reduce(m, echelon)]
                assert v == c or v == -c


def _one_short_frames(sig):
    """The frame of sig with each one of its masks dropped."""
    masks = find_frame(sig).monomials
    for drop in range(len(masks)):
        yield MonomialFrame(sig, masks[:drop] + masks[drop + 1 :])


@pytest.mark.parametrize("n", range(ORACLE_MAX_N + 1))
def test_division_ring_basis_matches_the_full_candidate_sweep(n):
    """Units from the frame cosets against the search oracle: the same units
    and table for every full frame's idempotents, and the same
    NotPrimitiveError message for every one-short frame's."""
    for p in range(n + 1):
        sig = Signature(p, n - p)
        frame = find_frame(sig)
        for sv in sign_vectors(frame.k):
            f = primitive_idempotent(frame, sv)
            kb, expected = division_ring_basis(f), oracle.division_ring_basis(f)
            assert kb.units == expected.units
            assert kb.table == expected.table
            assert kb.ktype == expected.ktype
        for short in _one_short_frames(sig):
            for sv in sign_vectors(short.k):
                f = primitive_idempotent(short, sv)
                with pytest.raises(NotPrimitiveError) as fast:
                    division_ring_basis(f)
                with pytest.raises(NotPrimitiveError) as slow:
                    oracle.division_ring_basis(f)
                assert str(fast.value) == str(slow.value)


def _not_primitive_product_forms():
    """Product-form idempotents whose commutant is not a division ring."""
    yield Signature(2, 0).scalar(1)  # Mat(2,R): a unit candidate squares to +f
    yield Signature(1, 1).scalar(1)
    yield Signature(0, 3).scalar(1)  # dimension 8
    yield Signature(1, 0).scalar(1)  # R + R
    sig = Signature(3, 1)  # one factor short of the frame's two
    yield (sig.scalar(1) + sig.e(1)) * HALF
    sig = Signature(2, 3)
    yield (sig.scalar(1) + sig.e(1, 3)) * HALF


@pytest.mark.parametrize("f", _not_primitive_product_forms(), ids=str)
def test_not_primitive_message_matches_the_full_candidate_sweep(f):
    assert _half_product_form(f) is not None
    with pytest.raises(NotPrimitiveError) as fast:
        division_ring_basis(f)
    with pytest.raises(NotPrimitiveError) as slow:
        oracle.division_ring_basis(f)
    assert str(fast.value) == str(slow.value)


def test_commute_mask_decides_blades_commute():
    for n in range(7):
        for g in range(1 << n):
            test = _commute_mask(g, n)
            for a in range(1 << n):
                assert blades_commute(a, g) == (not (a & test).bit_count() & 1)


PRODUCT_FORM_REQUIRED = "must be a product idempotent"


def test_general_path_used_for_non_product_idempotents():
    # A conjugated idempotent is not a product: division_ring_basis rejects
    # it by name, and the general sweep of the search oracle handles it.
    g = _conjugated_cl20_idempotent()
    assert g * g == g
    assert _half_product_form(g) is None
    with pytest.raises(ValueError, match=PRODUCT_FORM_REQUIRED):
        division_ring_basis(g)
    assert oracle.division_ring_basis(g).ktype == "R"
    assert is_primitive(g)


def test_unit_search_reaches_integer_combinations():
    # A rational-rotor conjugate of the product idempotent of Cl(1,4): no
    # single projection normalizes to a unit with square -f, so the oracle's
    # units of K = H come from the integer combinations of the leftovers.
    f = _rotor_conjugate()
    assert f * f == f
    assert _half_product_form(f) is None
    with pytest.raises(ValueError, match=PRODUCT_FORM_REQUIRED):
        division_ring_basis(f)
    kb = oracle.division_ring_basis(f)
    assert kb.ktype == "H"
    assert is_primitive(f) and oracle.is_primitive(f)


@pytest.mark.parametrize(
    "f",
    [
        Signature(1, 0).e(1),  # not idempotent
        Signature(2, 0).scalar(0),
        Signature(1, 1).scalar(1) + Signature(1, 1).e(1),
        (Signature(2, 0).scalar(1) + Signature(2, 0).e(1)) * HALF
        + Signature(2, 0).e(1, 2),
    ],
    ids=str,
)
def test_non_product_f_raises_a_value_error_naming_the_product_form(f):
    with pytest.raises(ValueError, match=PRODUCT_FORM_REQUIRED) as info:
        division_ring_basis(f)
    assert type(info.value) is ValueError
