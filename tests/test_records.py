"""What every record class of the package promises: construction by position
and keyword, equality with a record of its own class and equal fields,
hashing (frozen records) or none (mutable ones), immutability, ``Signature``
ordering, ``cached_property`` on frozen records, and the repr text."""

from fractions import Fraction

import pytest

from cliffstruct.classify import AlgebraClass
from cliffstruct.core import FrozenRecord, Multivector, Record, Signature
from cliffstruct.division import DivisionRingBasis
from cliffstruct.idempotents import IdempotentSet, MonomialFrame, ProductIdempotent
from cliffstruct.multiples import _LeftMultiples
from cliffstruct.representation import Component, KMatrix, Representation, SpinorBasis
from cliffstruct.verify import CheckResult, RangeSummary, VerificationReport, _Context

SIG = Signature(1, 2)
SIG_TEXT = "Signature(p=1, q=2)"

# (class, field values in field order, repr text); records do not check
# their fields (apart from Signature), so small hashable stand-ins do.
FROZEN = [
    (Signature, {"p": 1, "q": 2}, SIG_TEXT),
    (
        Multivector,
        {"signature": SIG, "terms": ((0, Fraction(1, 2)), (3, Fraction(-1)))},
        f"Multivector(signature={SIG_TEXT}, "
        "terms=((0, Fraction(1, 2)), (3, Fraction(-1, 1))))",
    ),
    (
        AlgebraClass,
        {
            "signature": SIG,
            "simple": True,
            "ktype": "C",
            "k": 1,
            "matrix_size": 2,
            "components": 1,
            "pq_mod8": 7,
        },
        f"AlgebraClass(signature={SIG_TEXT}, simple=True, ktype='C', k=1, "
        "matrix_size=2, components=1, pq_mod8=7)",
    ),
    (
        DivisionRingBasis,
        {"idempotent": "f", "units": ("f", "u"), "ktype": "C", "table": ((0, 1), (1, 0))},
        "DivisionRingBasis(idempotent='f', units=('f', 'u'), ktype='C', "
        "table=((0, 1), (1, 0)))",
    ),
    (
        MonomialFrame,
        {"signature": SIG, "monomials": (3,)},
        f"MonomialFrame(signature={SIG_TEXT}, monomials=(3,))",
    ),
    (
        IdempotentSet,
        {"frame": "frame", "signs": ((1,), (-1,)), "idempotents": ("f+", "f-")},
        "IdempotentSet(frame='frame', signs=((1,), (-1,)), idempotents=('f+', 'f-'))",
    ),
    (
        ProductIdempotent,
        {"masks": (3, 5), "signs": (1, -1), "f": "f"},
        "ProductIdempotent(masks=(3, 5), signs=(1, -1), f='f')",
    ),
    (
        _LeftMultiples,
        {"scale": Fraction(1, 4), "rows": ((0, 1),), "of": (0, 1)},
        "_LeftMultiples(scale=Fraction(1, 4), rows=((0, 1),), of=(0, 1))",
    ),
    (
        SpinorBasis,
        {"idempotent": "f", "blades": (0, 1), "blade_signs": (1, -1)},
        "SpinorBasis(idempotent='f', blades=(0, 1), blade_signs=(1, -1))",
    ),
    (
        KMatrix,
        {"basis": "kb", "rows": 2, "columns": (((0, (1,)),), ((1, (1,)),))},
        "KMatrix(basis='kb', rows=2, columns=(((0, (1,)),), ((1, (1,)),)))",
    ),
    (
        Component,
        {"kbasis": "kb", "basis": "sb", "gammas": ("g1", "g2")},
        "Component(kbasis='kb', basis='sb', gammas=('g1', 'g2'))",
    ),
    (
        Representation,
        {"signature": SIG, "algebra_class": "cls", "frame": "frame", "components": ("c",)},
        f"Representation(signature={SIG_TEXT}, algebra_class='cls', frame='frame', "
        "components=('c',))",
    ),
]

MUTABLE = [
    (
        CheckResult,
        {"check_id": "repr.faithful_rank", "passed": False, "witness": {"rank": 3}},
        "CheckResult(check_id='repr.faithful_rank', passed=False, witness={'rank': 3})",
    ),
    (
        VerificationReport,
        {"signature": SIG, "checks": ["check"]},
        f"VerificationReport(signature={SIG_TEXT}, checks=['check'])",
    ),
    (
        RangeSummary,
        {"max_n": 2, "reports": ["report"]},
        "RangeSummary(max_n=2, reports=['report'])",
    ),
    (_Context, {"sig": SIG, "seed": 1729}, f"_Context(sig={SIG_TEXT}, seed=1729)"),
]

RECORDS = FROZEN + MUTABLE


def _id(case):
    return case[0].__name__


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=map(_id, RECORDS))
def test_record_builds_by_position_and_keyword(cls, fields, text):
    by_position = cls(*fields.values())
    by_keyword = cls(**dict(reversed(fields.items())))
    for record in (by_position, by_keyword):
        assert [getattr(record, name) for name in fields] == list(fields.values())
        assert repr(record) == text


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=map(_id, RECORDS))
def test_record_rejects_wrong_arguments(cls, fields, text):
    values = list(fields.values())
    first = next(iter(fields))
    with pytest.raises(TypeError):
        cls(*values, "extra")
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*values, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*values, **{first: values[0]})


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=map(_id, RECORDS))
def test_record_equals_only_its_own_class_with_equal_fields(cls, fields, text):
    record = cls(**fields)
    assert record == cls(**fields)
    assert not record != cls(**fields)
    other = 4 if cls is Signature else object()  # Signature checks its counts
    for name in fields:
        changed = cls(**dict(fields, **{name: other}))
        assert record != changed and not record == changed
    assert record != tuple(fields.values())
    subclass = type("Sub", (cls,), {})
    assert record != subclass(**fields) and subclass(**fields) != record


@pytest.mark.parametrize("cls, fields, text", FROZEN, ids=map(_id, FROZEN))
def test_frozen_record_hashes_its_field_tuple(cls, fields, text):
    assert hash(cls(**fields)) == hash(cls(**fields)) == hash(tuple(fields.values()))
    assert len({cls(**fields), cls(**fields)}) == 1


@pytest.mark.parametrize("cls, fields, text", FROZEN, ids=map(_id, FROZEN))
def test_frozen_record_refuses_assignment(cls, fields, text):
    record = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, "other")
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == value
    with pytest.raises(AttributeError):
        record.no_such_field = 1


@pytest.mark.parametrize("cls, fields, text", MUTABLE, ids=map(_id, MUTABLE))
def test_mutable_record_is_unhashable_and_assignable(cls, fields, text):
    record = cls(**fields)
    with pytest.raises(TypeError):
        hash(record)
    name = next(iter(fields))
    setattr(record, name, "other")
    assert getattr(record, name) == "other"
    assert record != cls(**fields)


def test_signature_orders_by_p_then_q():
    sigs = [Signature(2, 0), Signature(0, 3), Signature(1, 1), Signature(0, 1), Signature(1, 0)]
    assert [(s.p, s.q) for s in sorted(sigs)] == [(0, 1), (0, 3), (1, 0), (1, 1), (2, 0)]
    a, b = Signature(0, 3), Signature(1, 0)
    assert a < b and a <= b and b > a and b >= a and a <= a and a >= a
    assert not (a > b or a >= b or b < a or b <= a or a < a or a > a)
    with pytest.raises(TypeError):
        a < (1, 0)


def test_signature_checks_its_counts():
    assert Signature(q=2, p=1) == SIG
    for p, q in ((-1, 0), (0, -1), (7, 6), (13, 0)):
        with pytest.raises(ValueError):
            Signature(p, q)
        with pytest.raises(ValueError):
            Signature(p=p, q=q)


def test_verify_records_defaults():
    assert CheckResult("semi.split", True).witness is None
    assert CheckResult("semi.split", True) == CheckResult("semi.split", True, None)
    first, second = VerificationReport(SIG), VerificationReport(SIG)
    assert first.checks == [] and first.checks is not second.checks
    first.checks.append(CheckResult("semi.split", True))
    assert second.checks == []


def test_frozen_records_keep_cached_properties():
    product = ProductIdempotent((3, 5), (1, -1), "f")
    echelon = product.echelon
    assert echelon == {1: 3, 2: 5}
    assert product.echelon is echelon
    assert product == ProductIdempotent((3, 5), (1, -1), "f")
    basis = SpinorBasis(SIG.scalar(1), (0, 3), (1, -1))
    elements = basis.elements
    assert elements == (SIG.scalar(1), SIG.blade(3, -1))
    assert basis.elements is elements
    assert basis == SpinorBasis(SIG.scalar(1), (0, 3), (1, -1))
    assert hash(basis) == hash((SIG.scalar(1), (0, 3), (1, -1)))


def test_one_field_records_use_the_same_rules():
    class Frozen(FrozenRecord):
        _fields = ("x",)

    class Mutable(Record):
        _fields = ("x",)

    assert Frozen(1) == Frozen(x=1) and Frozen(1) != Frozen(2)
    assert hash(Frozen(1)) == hash((1,))
    assert repr(Mutable([1])) == f"{Mutable.__qualname__}(x=[1])"
    assert Mutable([1]) == Mutable([1]) != Frozen([1])
    with pytest.raises(TypeError):
        hash(Mutable(1))
