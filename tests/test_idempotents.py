import os
import random
from fractions import Fraction

import pytest

import cliffstruct.idempotents as idempotents
import search_oracle as oracle
from cliffstruct import (
    AlgebraClass,
    IdempotentSetError,
    Signature,
    blade_square_sign,
    blades_commute,
    center_basis,
    central_idempotents,
    classify,
    complete_set,
    find_frame,
    grade,
    is_idempotent,
    is_primitive,
    primitive_idempotent,
)
from cliffstruct.idempotents import (
    FrameSearchError,
    MonomialFrame,
    _sandwich_trace,
    sign_vectors,
)
from cliffstruct.linalg import gf2_insert
from test_division import (
    _conjugated_cl20_idempotent,
    _one_short_frames,
    _rotor_conjugate,
)
from test_verify_faults import _skew

HALF = Fraction(1, 2)
# The trace-rule sweep over full and one-short frames runs to n <= 9 with
# CLIFFSTRUCT_SLOW=1.
TRACE_SWEEP_MAX_N = 9 if os.environ.get("CLIFFSTRUCT_SLOW") == "1" else 6


def all_signatures(max_n):
    for n in range(max_n + 1):
        for p in range(n + 1):
            yield Signature(p, n - p)


def test_find_frame_trivial_cases():
    assert find_frame(Signature(0, 0)).monomials == ()
    assert find_frame(Signature(0, 2)).monomials == ()


def test_find_frame_spot_cases():
    assert find_frame(Signature(1, 1)).monomials == (0b01,)
    assert find_frame(Signature(3, 0)).monomials == (0b001,)
    assert find_frame(Signature(0, 3)).monomials == (0b111,)


def test_find_frame_invariants_sweep():
    for sig in all_signatures(6):
        frame = find_frame(sig)
        cls = classify(sig)
        assert frame.k == cls.k
        masks = frame.monomials
        assert list(masks) == sorted(masks)
        for i, a in enumerate(masks):
            assert blade_square_sign(a, sig) == 1
            for b in masks[i + 1 :]:
                assert blades_commute(a, b)
        # all 2^k subset products are distinct blades
        seen = set()
        for bits in range(1 << frame.k):
            x = 0
            for i in range(frame.k):
                if bits >> i & 1:
                    x ^= masks[i]
            assert x not in seen
            seen.add(x)
        # subset products all square to +1 (the generated group avoids -1)
        for x in seen:
            assert blade_square_sign(x, sig) == 1


def _admissible_frames(sig):
    """Every admissible frame of sig in lexicographic order: k commuting,
    GF(2)-independent masks with square +1, ascending.

    This is the depth-first search that ``find_frame``'s ascending scan
    replaced, written as a generator; its first frame passing the semisimple
    leaf test was the old result.
    """
    k = classify(sig).k
    candidates = [m for m in range(1, sig.dim) if blade_square_sign(m, sig) == 1]

    def search(start, chosen, echelon):
        if len(chosen) == k:
            yield tuple(chosen)
            return
        for idx in range(start, len(candidates)):
            mask = candidates[idx]
            if any(not blades_commute(mask, c) for c in chosen):
                continue
            extended = dict(echelon)
            if not gf2_insert(mask, extended):
                continue
            yield from search(idx + 1, chosen + [mask], extended)

    yield from search(0, [], {})


def _splits(sig, monomials):
    """The semisimple leaf test: hat(f) * f == 0 for the all-plus f."""
    f = primitive_idempotent(MonomialFrame(sig, monomials), (1,) * len(monomials))
    return (f.involute() * f).is_zero()


def _depth_first_frame(sig):
    simple = classify(sig).simple
    return next(m for m in _admissible_frames(sig) if simple or _splits(sig, m))


def test_ascending_scan_matches_depth_first_search():
    for sig in all_signatures(12):
        assert find_frame(sig).monomials == _depth_first_frame(sig)


def test_every_semisimple_frame_has_an_odd_monomial_and_splits():
    count = 0
    for sig in all_signatures(6):
        if classify(sig).simple:
            continue
        for monomials in _admissible_frames(sig):
            count += 1
            assert any(grade(m) % 2 for m in monomials)
            assert _splits(sig, monomials)
    assert count == 206


def test_scan_that_ends_short_raises(monkeypatch):
    sig = Signature(1, 1)
    c = classify(sig)
    short = AlgebraClass(
        c.signature, c.simple, c.ktype, 3, c.matrix_size, c.components, c.pq_mod8
    )
    monkeypatch.setattr(idempotents, "classify", lambda s: short)
    with pytest.raises(FrameSearchError, match="size 3"):
        find_frame(sig)


def test_semisimple_frames_admit_the_split():
    for sig in all_signatures(7):
        if classify(sig).simple:
            continue
        frame = find_frame(sig)
        f = primitive_idempotent(frame, (1,) * frame.k)
        assert (f.involute() * f).is_zero()


def test_primitive_idempotent_examples():
    sig = Signature(1, 1)
    frame = find_frame(sig)
    f = primitive_idempotent(frame, (1,))
    assert f == (sig.scalar(1) + sig.e(1)) * HALF
    empty = find_frame(Signature(0, 2))
    assert primitive_idempotent(empty, ()) == Signature(0, 2).scalar(1)


def test_primitive_idempotent_expansion_shape():
    sig = Signature(3, 1)
    frame = find_frame(sig)
    assert frame.k == 2
    f = primitive_idempotent(frame, (1, 1))
    assert len(f.terms) == 4
    assert all(abs(c) == Fraction(1, 4) for _, c in f.terms)
    assert f * f == f


def test_primitive_idempotent_sign_validation():
    frame = find_frame(Signature(1, 1))
    with pytest.raises(ValueError):
        primitive_idempotent(frame, (1, 1))
    with pytest.raises(ValueError):
        primitive_idempotent(frame, (2,))


def test_complete_set_examples():
    sig = Signature(1, 0)
    result = complete_set(find_frame(sig))
    one = sig.scalar(1)
    e1 = sig.e(1)
    assert result.idempotents == ((one + e1) * HALF, (one - e1) * HALF)
    assert result.signs == ((1,), (-1,))

    trivial = complete_set(find_frame(Signature(0, 2)))
    assert trivial.idempotents == (Signature(0, 2).scalar(1),)


def test_complete_set_invariants_sweep():
    for sig in all_signatures(5):
        result = complete_set(find_frame(sig))
        k = result.frame.k
        assert len(result.idempotents) == 1 << k
        total = sig.scalar(0)
        for f in result.idempotents:
            assert f * f == f
            total = total + f
        assert total == sig.scalar(1)
        for a in range(len(result.idempotents)):
            for b in range(a + 1, len(result.idempotents)):
                assert (result.idempotents[a] * result.idempotents[b]).is_zero()


@pytest.mark.parametrize(
    "replace, message",
    [
        # every member is f_+: the expansion looks right, f_+ f_+ != 0
        (
            lambda f, fplus: fplus,
            r"Cl\(1,1\): idem\.mutually_annihilating fails: "
            r"\{'i': \[1\], 'j': \[-1\]\}",
        ),
        (lambda f, fplus: f * 2, r"\(1,\): expansion shape is wrong"),
    ],
    ids=["annihilation", "shape"],
)
def test_complete_set_raises_with_the_first_witness(monkeypatch, replace, message):
    original = idempotents.primitive_idempotent

    def corrupted(frame, signs):
        f = original(frame, signs)
        return replace(f, original(frame, (1,) * frame.k))

    monkeypatch.setattr(idempotents, "primitive_idempotent", corrupted)
    with pytest.raises(IdempotentSetError, match=message):
        complete_set(find_frame(Signature(1, 1)))


def test_sign_vector_order():
    assert sign_vectors(2) == ((1, 1), (1, -1), (-1, 1), (-1, -1))


def test_is_idempotent():
    sig = Signature(1, 0)
    assert is_idempotent(sig.scalar(1))
    assert is_idempotent((sig.scalar(1) + sig.e(1)) * HALF)
    assert not is_idempotent(sig.e(1) * 3)


def test_is_primitive_spec_examples():
    assert is_primitive(Signature(0, 2).scalar(1))
    assert not is_primitive(Signature(1, 0).scalar(1))
    sig = Signature(1, 1)
    assert is_primitive((sig.scalar(1) + sig.e(1)) * HALF)
    with pytest.raises(ValueError):
        is_primitive(sig.scalar(0))
    assert not is_primitive(sig.e(1))  # not even idempotent


def test_unity_not_primitive_once_k_positive():
    for sig in all_signatures(4):
        one = sig.scalar(1)
        if classify(sig).k == 0:
            assert is_primitive(one)
        else:
            assert not is_primitive(one)


def test_dropping_any_factor_breaks_primitivity():
    sig = Signature(3, 1)
    frame = find_frame(sig)
    for drop in range(frame.k):
        kept = tuple(m for i, m in enumerate(frame.monomials) if i != drop)
        shorter = MonomialFrame(sig, kept)
        g = primitive_idempotent(shorter, (1,) * (frame.k - 1))
        assert g * g == g
        assert not is_primitive(g)


def test_dropping_last_factor_sweep():
    for sig in all_signatures(5):
        frame = find_frame(sig)
        if frame.k == 0:
            continue
        shorter = MonomialFrame(sig, frame.monomials[:-1])
        g = primitive_idempotent(shorter, (1,) * (frame.k - 1))
        assert not is_primitive(g)


def test_involution_maps_idempotent_set_to_idempotent_set():
    for sig in all_signatures(4):
        result = complete_set(find_frame(sig))
        for f in result.idempotents:
            fh = f.involute()
            assert fh * fh == fh
            assert is_primitive(fh)


def test_central_idempotents_examples():
    sig = Signature(1, 0)
    c1, c2 = central_idempotents(sig)
    assert c1 == (sig.scalar(1) + sig.e(1)) * HALF
    assert c2 == (sig.scalar(1) - sig.e(1)) * HALF

    sig = Signature(0, 3)
    c1, c2 = central_idempotents(sig)
    assert c1 == (sig.scalar(1) + sig.e(1, 2, 3)) * HALF
    assert c1 + c2 == sig.scalar(1)
    assert (c1 * c2).is_zero() and (c2 * c1).is_zero()
    for c in (c1, c2):
        assert c * c == c
        for i in range(1, 4):
            assert c.commutes_with(sig.e(i))


def test_central_idempotents_rejects_simple():
    with pytest.raises(ValueError):
        central_idempotents(Signature(3, 0))


def test_center_basis_examples():
    sig = Signature(2, 0)
    assert center_basis(sig) == [sig.scalar(1)]
    sig = Signature(1, 0)
    assert center_basis(sig) == [sig.scalar(1), sig.e(1)]
    sig = Signature(0, 0)
    assert center_basis(sig) == [sig.scalar(1)]


def test_center_dimension_follows_parity():
    # dimension 2 exactly when the pseudoscalar is central (n odd); this
    # includes simple algebras with K = C such as Cl(3,0).
    for sig in all_signatures(6):
        basis = center_basis(sig)
        expected = 2 if sig.n % 2 else 1
        assert len(basis) == expected
        assert basis[0] == sig.scalar(1)
        if expected == 2:
            assert basis[1] == sig.blade(sig.dim - 1)
        for z in basis:
            for i in range(1, sig.n + 1):
                assert z.commutes_with(sig.e(i))


# ---------------------------------------------------------------------------
# the trace rule against the search oracle


def _assert_trace_rule(f):
    """The trace of x -> f x f is the oracle's rank of the projections
    f e_A f, and is_primitive agrees with the search oracle."""
    assert f * f == f
    assert _sandwich_trace(f) == oracle.projection_rank(f)
    assert is_primitive(f) == oracle.is_primitive(f)


def _invertible(sig, draw):
    """c + r e_B and its inverse (c - r e_B) / (c^2 - e_B^2 r^2)."""
    mask = draw(1, sig.dim - 1)
    c = Fraction(draw(1, 4))
    r = Fraction(draw(-3, 3), draw(1, 3))
    den = c * c - blade_square_sign(mask, sig) * r * r
    if not den:
        c += 1
        den = c * c - r * r
    return sig.scalar(c) + sig.blade(mask, r), (sig.scalar(c) - sig.blade(mask, r)) / den


def _trace_case(draw):
    """An idempotent from integer draws: the product over a random
    sub-frame with random signs, then one of itself, a rational conjugate
    a f a^-1, or f + f e_B f' for the product f' with the first sign
    flipped (which annihilates f on both sides)."""
    n = draw(0, 5)
    p = draw(0, n)
    sig = Signature(p, n - p)
    masks = tuple(m for m in find_frame(sig).monomials if draw(0, 3))
    signs = [draw(0, 1) * 2 - 1 for _ in masks]
    sub = MonomialFrame(sig, masks)
    f = primitive_idempotent(sub, signs)
    kind = draw(0, 2)
    if kind == 1 and n:
        for _ in range(draw(1, 2)):
            a, a_inv = _invertible(sig, draw)
            f = a * f * a_inv
    elif kind == 2 and masks:
        flipped = primitive_idempotent(sub, [-signs[0]] + signs[1:])
        f = f + f * sig.blade(draw(0, sig.dim - 1)) * flipped
    return f


try:
    import hypothesis
    from hypothesis import strategies as st
except ImportError:  # fixed draws instead
    hypothesis = None

if hypothesis is not None:

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(st.data())
    def test_trace_rule_matches_the_search_oracle(data):
        f = _trace_case(lambda lo, hi: data.draw(st.integers(lo, hi)))
        _assert_trace_rule(f)

else:

    @pytest.mark.parametrize("seed", range(150))
    def test_trace_rule_matches_the_search_oracle(seed):
        _assert_trace_rule(_trace_case(random.Random(seed).randint))


def _fixed_non_products():
    yield _rotor_conjugate()
    yield _conjugated_cl20_idempotent()
    sig = Signature(2, 0)
    yield (sig.scalar(1) + (sig.e(1) * 3 + sig.e(2) * 4) * Fraction(1, 5)) * HALF
    # the fault case of idem.sum_to_unity: primitive, but not a product
    frame = find_frame(Signature(1, 1))
    yield _skew(frame, primitive_idempotent(frame, (-1,)))


@pytest.mark.parametrize("f", _fixed_non_products(), ids=str)
def test_trace_rule_on_non_product_idempotents(f):
    assert idempotents._half_product_form(f) is None
    _assert_trace_rule(f)
    assert is_primitive(f)


@pytest.mark.parametrize("n", range(TRACE_SWEEP_MAX_N + 1))
def test_trace_rule_on_full_and_one_short_frames(n):
    for p in range(n + 1):
        sig = Signature(p, n - p)
        full = find_frame(sig)
        for frame in [full, *_one_short_frames(sig)]:
            for sv in sign_vectors(frame.k):
                f = primitive_idempotent(frame, sv)
                _assert_trace_rule(f)
                assert is_primitive(f) == (frame is full)
        _assert_trace_rule(sig.scalar(1))
