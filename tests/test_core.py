import json
import random
from fractions import Fraction

import pytest

from cliffstruct import (
    Multivector,
    Signature,
    SignatureMismatchError,
    blade_mul,
    blade_square_sign,
    blades_commute,
    format_multivector,
    grade,
    multivector_from_json_dict,
    multivector_to_json_dict,
    parse_multivector,
)
from cliffstruct.core import _negative_mask, _sign_mask, _sign_masks

from blade_oracle import oracle_blade_mul

HALF = Fraction(1, 2)


def random_multivector(rng, sig, max_terms=4, span=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        terms[rng.randrange(sig.dim)] = Fraction(
            rng.randint(-span, span), rng.randint(1, span)
        )
    return Multivector.from_terms(sig, terms)


def test_signature_validation():
    assert Signature(3, 4).n == 7
    with pytest.raises(ValueError):
        Signature(-1, 0)
    with pytest.raises(ValueError):
        Signature(7, 6)
    assert Signature(6, 6).dim == 4096


def test_generator_squares():
    sig = Signature(2, 1)
    assert [sig.generator_square(i) for i in (1, 2, 3)] == [1, 1, -1]
    with pytest.raises(ValueError):
        sig.generator_square(4)


def test_blade_mul_spec_examples():
    # generator square equals the metric value
    assert blade_mul(0b01, 0b01, Signature(1, 1)) == (1, 0)
    # orthogonal generators anticommute
    assert blade_mul(0b01, 0b10, Signature(2, 0)) == (1, 0b11)
    assert blade_mul(0b10, 0b01, Signature(2, 0)) == (-1, 0b11)
    # e12 * e12: one swap, then two contractions
    assert blade_mul(0b11, 0b11, Signature(2, 0)) == (-1, 0)
    assert blade_mul(0b11, 0b11, Signature(1, 1)) == (1, 0)


@pytest.mark.parametrize("n", range(13))
def test_sign_masks_hold_the_sign_mask_of_every_blade(n):
    for p in range(n + 1):
        sig = Signature(p, n - p)
        table = _sign_masks(sig)
        assert table.readonly and table.format == "H" and len(table) == sig.dim
        negative = _negative_mask(sig)
        assert table.tolist() == [
            _sign_mask(b, negative) & (sig.dim - 1) for b in range(sig.dim)
        ]


def test_blade_mul_range_check():
    with pytest.raises(ValueError):
        blade_mul(4, 0, Signature(1, 1))


def test_blade_mul_against_oracle_small():
    for n in range(5):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            for a in range(sig.dim):
                for b in range(sig.dim):
                    assert blade_mul(a, b, sig) == oracle_blade_mul(a, b, p)


def test_blade_products_stay_in_range():
    sig = Signature(2, 2)
    for a in range(sig.dim):
        for b in range(sig.dim):
            _, m = blade_mul(a, b, sig)
            assert 0 <= m < sig.dim
            assert m == a ^ b


def test_mul_spec_examples():
    sig = Signature(1, 0)
    one = sig.scalar(1)
    e1 = sig.e(1)
    assert ((one + e1) * (one - e1)).is_zero()
    f = (one + e1) * HALF
    assert f * f == f
    sig2 = Signature(2, 1)
    u = sig2.e(1, 3) + sig2.scalar(Fraction(3, 7))
    assert u * sig2.scalar(1) == u


def test_add_spec_examples():
    sig = Signature(3, 0)
    u = sig.e(1, 2) * Fraction(2, 3) - sig.scalar(5)
    assert u + sig.scalar(0) == u
    assert (u + u * (-1)).is_zero()
    e3 = sig.e(3)
    assert (sig.scalar(1) + e3) * HALF + (sig.scalar(1) - e3) * HALF == sig.scalar(1)


def test_scalar_coercion_and_division():
    sig = Signature(1, 1)
    u = sig.e(1)
    assert 1 + u == sig.scalar(1) + u
    assert 2 * u == u * 2
    assert (u / 2) * 2 == u
    assert 1 - u == sig.scalar(1) - u


def test_signature_mismatch_raises():
    u = Signature(1, 0).scalar(1)
    v = Signature(0, 1).scalar(1)
    with pytest.raises(SignatureMismatchError):
        u * v
    with pytest.raises(SignatureMismatchError):
        u + v


def test_grade_involution_examples():
    sig = Signature(1, 0)
    one = sig.scalar(1)
    e1 = sig.e(1)
    assert one.involute() == one
    assert e1.involute() == -e1
    f = (one + e1) * HALF
    assert f.involute() == (one - e1) * HALF


def test_grade_involution_is_automorphism():
    rng = random.Random(101)
    for _ in range(60):
        n = rng.randint(0, 4)
        p = rng.randint(0, n)
        sig = Signature(p, n - p)
        u = random_multivector(rng, sig)
        v = random_multivector(rng, sig)
        assert (u * v).involute() == u.involute() * v.involute()
        assert u.involute().involute() == u


def test_associativity_randomized():
    rng = random.Random(202)
    for _ in range(50):
        n = rng.randint(0, 4)
        p = rng.randint(0, n)
        sig = Signature(p, n - p)
        u = random_multivector(rng, sig)
        v = random_multivector(rng, sig)
        w = random_multivector(rng, sig)
        assert (u * v) * w == u * (v * w)
        assert (u + v) * w == u * w + v * w


def test_generator_anticommutation():
    for n in range(1, 6):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    lhs = sig.e(i) * sig.e(j) + sig.e(j) * sig.e(i)
                    if i == j:
                        assert lhs == sig.scalar(2 * sig.generator_square(i))
                    else:
                        assert lhs.is_zero()


def test_commute_spec_examples():
    sig = Signature(3, 0)
    assert sig.e(3) * sig.e(1, 2) == sig.e(1, 2) * sig.e(3)
    u = sig.e(1, 3) - 2
    assert u * sig.scalar(1) == sig.scalar(1) * u
    sig2 = Signature(2, 0)
    assert sig2.e(1) * sig2.e(2) != sig2.e(2) * sig2.e(1)


def test_square():
    sig = Signature(0, 2)
    assert sig.e(1) * sig.e(1) == sig.scalar(-1)
    assert sig.e(1, 2) * sig.e(1, 2) == sig.scalar(-1)


def test_blade_square_sign_pseudoscalar():
    assert blade_square_sign(0b111, Signature(0, 3)) == 1
    assert blade_square_sign(0b111, Signature(3, 0)) == -1


def test_blades_linearly_independent():
    sig = Signature(2, 1)
    from cliffstruct.linalg import span_of

    assert span_of([{m: 1} for m in range(sig.dim)]).rank == sig.dim


def test_terms_canonical_order():
    sig = Signature(2, 2)
    u = Multivector.from_terms(sig, [(5, 1), (0, 2), (3, 4), (5, -1)])
    assert [m for m, _ in u.terms] == [0, 3]
    assert u.coefficient(5) == 0


def test_format_spec_example():
    sig = Signature(3, 0)
    u = (sig.scalar(1) + sig.e(3)) * HALF
    assert format_multivector(u) == "1/2 + 1/2*e3"
    assert str(sig.scalar(0)) == "0"


def test_parse_forms():
    sig = Signature(2, 1)
    assert parse_multivector(sig, "e0") == sig.scalar(1)
    assert parse_multivector(sig, "3*e0 - e12") == sig.scalar(3) - sig.e(1, 2)
    assert parse_multivector(sig, "-1/2 + e13") == sig.e(1, 3) - HALF
    with pytest.raises(ValueError):
        parse_multivector(sig, "e21")
    with pytest.raises(ValueError):
        parse_multivector(sig, "1/2 1/2*e1")
    with pytest.raises(ValueError):
        parse_multivector(Signature(1, 0), "e12")


@pytest.mark.parametrize("text", ["", "   ", "\t\n"])
def test_parse_empty_text_is_an_error(text):
    with pytest.raises(ValueError, match="empty"):
        parse_multivector(Signature(2, 0), text)


@pytest.mark.parametrize("text", ["1/0", "e1 + 3/0*e2"])
def test_parse_zero_denominator_is_a_value_error(text):
    with pytest.raises(ValueError, match="zero denominator"):
        parse_multivector(Signature(2, 0), text)


def test_text_round_trip_randomized():
    rng = random.Random(303)
    for _ in range(120):
        n = rng.randint(0, 5)
        p = rng.randint(0, n)
        sig = Signature(p, n - p)
        u = random_multivector(rng, sig, max_terms=6, span=9)
        assert parse_multivector(sig, format_multivector(u)) == u


def test_text_round_trip_wide_indices():
    sig = Signature(6, 6)
    u = sig.blade(1 << 11, Fraction(-3, 5)) + sig.blade((1 << 9) | 1, 7)
    text = format_multivector(u)
    assert "ec" in text and "e1a" in text
    assert parse_multivector(sig, text) == u


def test_json_round_trip():
    rng = random.Random(404)
    for _ in range(40):
        n = rng.randint(0, 5)
        p = rng.randint(0, n)
        sig = Signature(p, n - p)
        u = random_multivector(rng, sig, max_terms=6, span=9)
        blob = json.dumps(multivector_to_json_dict(u))
        assert multivector_from_json_dict(json.loads(blob)) == u


def test_json_zero_denominator_names_the_field():
    data = multivector_to_json_dict(Signature(2, 0).e(1) + Fraction(1, 3))
    data["terms"][1]["den"] = "0"
    with pytest.raises(ValueError, match=r"terms\[1\]\.den"):
        multivector_from_json_dict(data)


def test_json_masks_ascending():
    sig = Signature(2, 0)
    u = sig.e(1, 2) + sig.scalar(1) - sig.e(2)
    data = multivector_to_json_dict(u)
    masks = [t["mask"] for t in data["terms"]]
    assert masks == sorted(masks)


def test_grade():
    assert grade(0) == 0
    assert grade(0b1011) == 3


def test_products_beyond_sign_table_range():
    # n = 10: the reorder sign must count transpositions past generator 9
    sig = Signature(5, 5)
    assert sig.e(1) * sig.e(1) == sig.scalar(1)
    assert sig.e(10) * sig.e(10) == sig.scalar(-1)
    assert sig.e(1, 10) * sig.e(1, 10) == sig.scalar(1)
    rng = random.Random(707)
    for _ in range(200):
        a = rng.randrange(sig.dim)
        b = rng.randrange(sig.dim)
        assert blade_mul(a, b, sig) == oracle_blade_mul(a, b, sig.p)
        assert sig.blade(a) * sig.blade(b) == sig.blade(a ^ b, blade_mul(a, b, sig)[0])


def _oracle_product(x, y):
    """x * y term by term through the index-list oracle, in Fractions."""
    acc = {}
    for a, ca in x.terms:
        for b, cb in y.terms:
            sign, mask = oracle_blade_mul(a, b, x.signature.p)
            acc[mask] = acc.get(mask, Fraction(0)) + sign * ca * cb
    return tuple(sorted((m, c) for m, c in acc.items() if c))


def _non_dyadic_multivector(rng, sig, max_terms):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[rng.randrange(sig.dim)] = Fraction(
            rng.choice([-1, 1]) * rng.randint(1, 9), rng.choice([1, 2, 3, 6, 7, 9, 12])
        )
    return Multivector.from_terms(sig, terms)


@pytest.mark.parametrize("n", range(13))
def test_product_matches_oracle_product(n):
    rng = random.Random(4100 + n)
    for p in range(n + 1):
        sig = Signature(p, n - p)
        top = sig.dim - 1
        operands = [
            sig.scalar(0),
            sig.scalar(1),
            sig.scalar(-1),
            sig.scalar(Fraction(-2, 7)),
            sig.blade(top, Fraction(1, 3)),
            # (1 + E)(1 - E) = 1 - E**2 cancels where E**2 = 1
            sig.scalar(1) + sig.blade(top),
            sig.scalar(1) - sig.blade(top),
            *(_non_dyadic_multivector(rng, sig, 6) for _ in range(3)),
            # +-1 blades, which a left operand multiplies as a signed
            # permutation of the right operand's terms
            sig.blade(top),
            sig.blade(top, -1),
            sig.blade(1 << (n - 1)) if n else sig.scalar(1),
            sig.blade(rng.randrange(sig.dim), rng.choice((1, -1))),
        ]
        for x in operands:
            for y in operands:
                prod = x * y
                assert prod.terms == _oracle_product(x, y)
                assert all(type(c) is Fraction for _, c in prod.terms)


@pytest.mark.parametrize("n", (10, 11, 12))
def test_blade_signs_match_oracle_beyond_n9(n):
    rng = random.Random(900 + n)
    for p in range(n + 1):
        sig = Signature(p, n - p)
        top = sig.dim - 1
        high = 1 << (n - 1)
        pairs = [(top, top), (top, high), (high, top), (high, 1), (1, high)]
        pairs += [(rng.randrange(sig.dim), rng.randrange(sig.dim)) for _ in range(40)]
        for a, b in pairs:
            ab = oracle_blade_mul(a, b, p)
            assert blade_mul(a, b, sig) == ab
            assert blades_commute(a, b) == (ab[0] == oracle_blade_mul(b, a, p)[0])
