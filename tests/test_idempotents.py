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
from cliffstruct.linalg import gf2_insert, span_of
from cliffstruct.verify import _class_rows
from test_division import (
    _conjugated_cl20_idempotent,
    _one_short_frames,
    _rotor_conjugate,
)
from test_verify_faults import _skew

HALF = Fraction(1, 2)
SLOW = os.environ.get("CLIFFSTRUCT_SLOW") == "1"
# The trace-rule sweep over full and one-short frames runs to n <= 9, and the
# expansion oracle to n <= 12, with CLIFFSTRUCT_SLOW=1.
TRACE_SWEEP_MAX_N = 9 if SLOW else 6
EXPANSION_MAX_N = 12 if SLOW else 8


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


def _ascending_scan_frame(sig):
    """``find_frame``'s scan with each square sign and commutation decided
    by ``blade_square_sign`` and ``blades_commute``, as it was before it
    read them off the sign-mask table."""
    chosen, echelon = [], {}
    for mask in range(1, sig.dim):
        if len(chosen) == classify(sig).k:
            break
        if (
            blade_square_sign(mask, sig) == 1
            and all(blades_commute(mask, c) for c in chosen)
            and gf2_insert(mask, echelon)
        ):
            chosen.append(mask)
    return tuple(chosen)


def test_ascending_scan_matches_depth_first_search():
    for sig in all_signatures(12):
        monomials = find_frame(sig).monomials
        assert monomials == _ascending_scan_frame(sig) == _depth_first_frame(sig)


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


def _expand_product_oracle(sig, masks, signs):
    """The product of the factors (1 + s_i e_{m_i}) / 2 by multivector
    products in order, as ``_expand_product`` formed it before its closed
    form."""
    f = sig.scalar(1)
    for mask, s in zip(masks, signs):
        f = f * ((sig.scalar(1) + sig.blade(mask, s)) * HALF)
    return f


@pytest.mark.parametrize("n", range(EXPANSION_MAX_N + 1))
def test_expansion_matches_the_product_loop_on_every_frame(n):
    for p in range(n + 1):
        sig = Signature(p, n - p)
        frame = find_frame(sig)
        for sv in sign_vectors(frame.k):
            product = idempotents._expand_product(sig, frame.monomials, sv)
            assert product.f == _expand_product_oracle(sig, frame.monomials, sv)
            assert product.masks == frame.monomials and product.signs == sv


@pytest.mark.parametrize("seed", range(40))
def test_expansion_matches_the_product_loop_off_frames(seed):
    # repeated, anticommuting and negative-square masks: terms that cancel
    # or add up on one mask
    rng = random.Random(seed)
    n = rng.randint(0, 5)
    p = rng.randint(0, n)
    sig = Signature(p, n - p)
    masks = [rng.randrange(sig.dim) for _ in range(rng.randint(0, 4))]
    signs = [rng.choice((1, -1)) for _ in masks]
    got = idempotents._expand_product(sig, masks, signs).f
    assert got == _expand_product_oracle(sig, masks, signs)


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
            assert c * sig.e(i) == sig.e(i) * c


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
                assert z * sig.e(i) == sig.e(i) * z


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


def _half_product_form_oracle(f):
    """The product form of f as ``_half_product_form`` recognized it before
    the expansion decided the coefficients and the mask closure."""
    terms = f.terms
    count = len(terms)
    if count == 0 or count & (count - 1) or terms[0][0] != 0:
        return None
    j = count.bit_length() - 1
    if any(abs(c) != Fraction(1, 1 << j) for _, c in terms):
        return None
    masks = {m for m, _ in terms}
    if any(x ^ y not in masks for x in masks for y in masks):
        return None
    echelon = {}
    basis = [m for m, _ in terms if gf2_insert(m, echelon)]
    sig = f.signature
    if len(basis) != j or any(blade_square_sign(a, sig) != 1 for a in basis):
        return None
    if not all(blades_commute(a, b) for a in basis for b in basis):
        return None
    coeffs = dict(terms)
    signs = tuple(1 if coeffs[m] > 0 else -1 for m in basis)
    if _expand_product_oracle(sig, basis, signs) != f:
        return None
    return idempotents.ProductIdempotent(tuple(basis), signs, f)


def _recognition_cases(draw):
    """An element from integer draws: a frame product with random signs, a
    product over random (maybe anticommuting or negative-square) masks, a
    rational multiple of one, or a random sum of +-1/2^j blades."""
    n = draw(0, 5)
    p = draw(0, n)
    sig = Signature(p, n - p)
    kind = draw(0, 3)
    if kind == 0:
        frame = find_frame(sig)
        return primitive_idempotent(frame, [draw(0, 1) * 2 - 1 for _ in range(frame.k)])
    masks = [draw(0, sig.dim - 1) for _ in range(draw(0, 3))]
    signs = [draw(0, 1) * 2 - 1 for _ in masks]
    f = idempotents._expand_product(sig, masks, signs).f
    if kind == 2:
        return f * Fraction(draw(1, 3), draw(1, 3))
    if kind == 3:
        j = draw(0, 2)
        terms = {draw(0, sig.dim - 1): draw(0, 1) * 2 - 1 for _ in range(1 << j)}
        return sum(
            (sig.blade(m, Fraction(s, 1 << j)) for m, s in terms.items()), sig.scalar(0)
        )
    return f


@pytest.mark.parametrize("seed", range(300))
def test_product_form_recognition_matches_the_closure_checks(seed):
    f = _recognition_cases(random.Random(seed).randint)
    assert idempotents._half_product_form(f) == _half_product_form_oracle(f)


@pytest.mark.parametrize("f", _fixed_non_products(), ids=str)
def test_product_form_recognition_matches_on_non_products(f):
    assert idempotents._half_product_form(f) == _half_product_form_oracle(f)


# ---------------------------------------------------------------------------
# the stabilizer character against exact products and ranks


def _character_oracle(f):
    """chi(h) for each h in H = {s xor min S : s in S}, and those of the h
    whose e_h commutes with every blade of S = supp f, by one product e_h f
    per h; None unless every e_h f is +-f and |H| is a power of two closed
    under xor."""
    sig = f.signature
    support = [m for m, _ in f.terms]
    if not support:
        return None
    stab = [s ^ support[0] for s in support]
    if any(a ^ b not in stab for a in stab for b in stab):
        return None
    values, commuting = {}, {}
    for h in stab:
        image = sig.blade(h) * f
        if image not in (f, -f):
            return None
        values[h] = 1 if image == f else -1
        if all(blades_commute(h, s) for s in support):
            commuting[h] = values[h]
    return values, commuting


def _assert_character_matches_the_products(f):
    chi = idempotents.stabilizer_character(f)
    oracle = _character_oracle(f)
    assert (chi is None) == (oracle is None)
    if chi is not None:
        assert (chi.values, chi.commuting) == oracle
    if idempotents._proves_idempotent(f, chi):
        assert f * f == f
    return chi


@pytest.mark.parametrize("seed", range(300))
def test_character_matches_the_products_on_random_elements(seed):
    f = _recognition_cases(random.Random(seed).randint)
    _assert_character_matches_the_products(f)


@pytest.mark.parametrize("f", _fixed_non_products(), ids=str)
def test_character_matches_the_products_on_non_products(f):
    _assert_character_matches_the_products(f)


@pytest.mark.parametrize("seed", range(100))
def test_annihilation_certificate_is_sound_on_random_pairs(seed):
    """Two blades times frame products over random masks with random signs:
    when their characters prove f_a f_b == 0, the product is zero."""
    draw = random.Random(seed).randint
    n = draw(1, 5)
    p = draw(0, n)
    sig = Signature(p, n - p)
    masks = [draw(0, sig.dim - 1) for _ in range(draw(1, 3))]
    pair = [
        sig.blade(draw(0, sig.dim - 1) if draw(0, 1) else 0)
        * idempotents._expand_product(
            sig, masks[: draw(1, len(masks))], [draw(0, 1) * 2 - 1 for _ in masks]
        ).f
        for _ in range(2)
    ]
    chis = [_assert_character_matches_the_products(f) for f in pair]
    if idempotents._proves_annihilation(*chis):
        assert (pair[0] * pair[1]).is_zero()


@pytest.mark.parametrize("n", range(9))
def test_character_decides_every_frame_idempotent(n):
    """For every frame idempotent with n <= 8: 2^n / |H| is the exact rank
    of the class rows, the character proves f f == f, and it proves every
    pair mutually annihilating, each as the exact products confirm."""
    for p in range(n + 1):
        sig = Signature(p, n - p)
        idems = complete_set(find_frame(sig)).idempotents
        chis = [idempotents.stabilizer_character(f) for f in idems]
        for f, chi in zip(idems, chis):
            assert chi is not None
            assert sig.dim // len(chi.values) == span_of(_class_rows(f)).rank
            assert idempotents._proves_idempotent(f, chi) and f * f == f
        for a in range(len(idems)):
            # one character proves nothing about its own idempotent
            assert not idempotents._proves_annihilation(chis[a], chis[a])
            for b in range(len(idems)):
                if a != b:
                    assert idempotents._proves_annihilation(chis[a], chis[b])
                    assert (idems[a] * idems[b]).is_zero()


@pytest.mark.skipif(not SLOW, reason="n <= 12 character guard: set CLIFFSTRUCT_SLOW=1")
@pytest.mark.parametrize("n", range(9, 13))
def test_character_proves_every_frame_pair(n):
    for p in range(n + 1):
        sig = Signature(p, n - p)
        idems = idempotents.idempotent_set(find_frame(sig)).idempotents
        chis = [idempotents.stabilizer_character(f) for f in idems]
        assert None not in chis
        assert all(map(idempotents._proves_idempotent, idems, chis))
        # |H| = 2^k, so the ideal dimension 2^n / |H| is 2^(n - k)
        assert all(len(chi.values) == len(chis) for chi in chis)
        for a in range(len(idems)):
            for b in range(len(idems)):
                assert idempotents._proves_annihilation(chis[a], chis[b]) == (a != b)


def test_character_declines_what_it_cannot_prove():
    sig = Signature(1, 0)
    e1 = sig.e(1)
    # H = {0} but 0 is not in S = {e1}: f f is not read off the character
    chi = idempotents.stabilizer_character(e1)
    assert chi.values == {0: 1}
    assert not idempotents._proves_idempotent(e1, chi) and not is_primitive(e1)
    # (1 + e1)^2 = 2 (1 + e1): the sum of c_h chi(h) is 2
    f = sig.scalar(1) + e1
    chi = idempotents.stabilizer_character(f)
    assert chi.values == {0: 1, 1: 1}
    assert not idempotents._proves_idempotent(f, chi) and not is_primitive(f)
    # S = {0, e1, e2} is no coset of a subspace
    sig = Signature(2, 0)
    assert idempotents.stabilizer_character(sig.scalar(1) + sig.e(1) + sig.e(2)) is None
    assert idempotents.stabilizer_character(sig.scalar(0)) is None
    assert not idempotents._proves_annihilation(None, None)


def test_annihilation_reads_only_the_commuting_part_of_h():
    """f = e2 + e12 and g = e2 - e12 in Cl(2,0) have H = {0, e1} with
    chi_f(e1) = 1 and chi_g(e1) = -1, but e1 anticommutes with e2, so the
    characters say nothing about f g = 2 + 2 e1."""
    sig = Signature(2, 0)
    f, g = sig.e(2) + sig.e(1, 2), sig.e(2) - sig.e(1, 2)
    chi_f, chi_g = map(idempotents.stabilizer_character, (f, g))
    assert (chi_f.values, chi_g.values) == ({0: 1, 1: 1}, {0: 1, 1: -1})
    assert chi_f.commuting == chi_g.commuting == {0: 1}
    assert not idempotents._proves_annihilation(chi_f, chi_g)
    assert f * g == sig.scalar(2) + sig.e(1) * 2


def _center_basis_oracle(sig):
    """The blades commuting with every generator, by ``blades_commute``."""
    gens = [1 << i for i in range(sig.n)]
    return [
        sig.blade(mask)
        for mask in range(sig.dim)
        if all(blades_commute(mask, g) for g in gens)
    ]


@pytest.mark.parametrize("n", range(9))
def test_center_basis_matches_the_commutation_scan(n):
    for p in range(n + 1):
        sig = Signature(p, n - p)
        assert center_basis(sig) == _center_basis_oracle(sig)
