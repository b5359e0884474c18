"""Differential tests: the fraction-free ``ExactSpan`` against the oracle.

``span_oracle.ExactSpan`` eliminates with ``Fraction`` arithmetic.  Both
spans receive the same seeded stream of sparse vectors, and after every
insertion they must agree on what ``add`` returned, on the rank, and on
``contains`` and ``coordinates`` for vectors inside and outside the span.
"""

import random
from fractions import Fraction

import pytest

from cliffstruct.linalg import ExactSpan, span_of

from span_oracle import ExactSpan as OracleSpan

# non-dyadic and negative rationals next to plain ints
VALUES = (
    Fraction(1, 3),
    Fraction(-2, 7),
    Fraction(5, 6),
    Fraction(-9, 4),
    Fraction(1, 2),
    1,
    -1,
    2,
    -3,
    7,
)


def _keys(rng, kind):
    if kind == "int":
        return list(range(rng.randint(3, 12)))
    return [(i, j) for i in range(rng.randint(1, 3)) for j in range(4)]


def _random_vector(rng, keys):
    picked = rng.sample(keys, rng.randint(1, min(5, len(keys))))
    vec = {k: rng.choice(VALUES) for k in picked}
    if rng.random() < 0.2:
        vec[rng.choice(keys)] = 0  # zero entries are ignored
    return vec


def _combination(rng, vectors):
    out = {}
    for vec in rng.sample(vectors, min(len(vectors), rng.randint(1, 3))):
        c = rng.choice(VALUES)
        for k, v in vec.items():
            out[k] = out.get(k, 0) + c * v
    return out


def _stream(rng, keys):
    inserted = []
    for step in range(rng.randint(6, 16)):
        roll = rng.random()
        if roll < 0.1:
            vec = {} if rng.random() < 0.5 else {keys[0]: 0}
        elif roll < 0.35 and inserted:
            vec = _combination(rng, inserted)  # dependent row
        else:
            vec = _random_vector(rng, keys)
        label = step if rng.random() < 0.5 else ("v", step)
        inserted.append(vec)
        yield vec, label, inserted


def _assert_agree(span, oracle, probe):
    assert span.contains(probe) == oracle.contains(probe)
    got = span.coordinates(probe)
    want = oracle.coordinates(probe)
    assert got == want
    if got is not None:
        assert all(type(c) is Fraction for c in got.values())


@pytest.mark.parametrize("kind", ["int", "tuple"])
@pytest.mark.parametrize("seed", range(25))
def test_exact_span_matches_fraction_oracle(seed, kind):
    rng = random.Random(seed * 7919 + len(kind))
    keys = _keys(rng, kind)
    span, oracle = ExactSpan(), OracleSpan()
    for vec, label, inserted in _stream(rng, keys):
        assert span.add(vec, label) == oracle.add(vec, label)
        assert span.rank == oracle.rank
        probes = [vec, _combination(rng, inserted), _random_vector(rng, keys), {}]
        for probe in probes:
            _assert_agree(span, oracle, probe)


def test_exact_span_coordinates_over_non_dyadic_basis():
    span = ExactSpan()
    assert span.add({0: Fraction(1, 3), 1: Fraction(-2, 7)}, "a")
    assert span.add({1: Fraction(1, 3), 2: 5}, "b")
    assert not span.add({0: 2, 1: Fraction(-12, 7)}, "a2")  # 6 * a
    assert not span.add({}, "zero")
    # 3/2 a + 2/3 b
    target = {0: Fraction(1, 2), 1: Fraction(-13, 63), 2: Fraction(10, 3)}
    assert span.coordinates(target) == {"a": Fraction(3, 2), "b": Fraction(2, 3)}
    assert span.coordinates({2: 1}) is None
    assert span_of([{0: Fraction(1, 3)}, {0: -7}, {1: Fraction(2, 5)}]).rank == 2
