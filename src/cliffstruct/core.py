"""Exact multivector arithmetic in real Clifford algebras Cl(p,q).

A basis blade is a bitmask over the n = p + q generators: bit (i - 1) is set
when the generator e_i is a factor, and factors always appear in increasing
index order.  A multivector is a sparse map from blade masks to exact
rational coefficients; nothing in this module touches floating point.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from functools import cached_property, lru_cache, total_ordering
from math import gcd
from operator import attrgetter

MAX_DIMENSION = 12

# Generator index i is printed as the single character _INDEX_CHARS[i - 1],
# which keeps the text grammar unambiguous up to n = 12.
_INDEX_CHARS = "123456789abc"

_ZERO = Fraction(0)


class SignatureMismatchError(ValueError):
    """Raised when two operands live in different Clifford algebras."""


class Record:
    """A record of the fields named, in order, by the class tuple ``_fields``.

    Built by position or keyword, equal only to a record of its own class
    with equal fields, shown as ``Name(field=value, ...)``; mutable and so
    unhashable (see ``FrozenRecord``).  Instances keep a ``__dict__``, so
    ``cached_property`` works on them.
    """

    _fields: tuple[str, ...] = ()

    @staticmethod
    def _values(record) -> tuple:
        """The tuple of the record's field values."""
        return tuple(getattr(record, name) for name in record._fields)

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if len(cls._fields) > 1:  # the same tuple, read in C
            cls._values = staticmethod(attrgetter(*cls._fields))

    def __init__(self, *args, **kwargs) -> None:
        names = self._fields
        if kwargs or len(args) != len(names):
            args = self._arguments(args, kwargs)
        self.__dict__.update(zip(names, args))

    @classmethod
    def _arguments(cls, args: tuple, kwargs: dict) -> tuple:
        """The field values of a call that names fields or gives too few or
        too many of them, in field order."""
        names = cls._fields
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} fields, not {len(args)}")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in values:
                raise TypeError(f"{cls.__name__}() got an unknown or repeated {name!r}")
            values[name] = value
        missing = [name for name in names if name not in values]
        if missing:
            raise TypeError(f"{cls.__name__}() missing {', '.join(missing)}")
        return tuple(values[name] for name in names)

    def _with_cached(self, **values):
        """self with the named ``cached_property`` values already known, as
        when they follow from how the record was made; returns self."""
        self.__dict__.update(values)
        return self

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """A record that refuses assignment and hashes as its tuple of fields."""

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


@total_ordering
class Signature(FrozenRecord):
    """Counts of generators squaring to +1 (p) and to -1 (q), ordered by
    (p, q)."""

    _fields = ("p", "q")

    def __init__(self, p: int, q: int) -> None:
        super().__init__(p, q)
        if self.p < 0 or self.q < 0:
            raise ValueError("signature counts must be nonnegative integers")
        if self.p + self.q > MAX_DIMENSION:
            raise ValueError(
                f"p + q = {self.p + self.q} exceeds the supported cap of {MAX_DIMENSION}"
            )

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def dim(self) -> int:
        """Number of basis blades, 2**n."""
        return 1 << self.n

    def generator_square(self, i: int) -> int:
        """Square of e_i for a 1-based index i: +1 for i <= p, else -1."""
        if not 1 <= i <= self.n:
            raise ValueError(f"generator index {i} out of range for {self}")
        return 1 if i <= self.p else -1

    def scalar(self, value: int | Fraction) -> "Multivector":
        return Multivector.from_terms(self, {0: value})

    def blade(self, mask: int, coeff: int | Fraction = 1) -> "Multivector":
        return Multivector.from_terms(self, {mask: coeff})

    def e(self, *indices: int) -> "Multivector":
        """Product of generators in the given order, e.g. e(2, 1) == -e(1, 2)."""
        out = self.scalar(1)
        for i in indices:
            if not 1 <= i <= self.n:
                raise ValueError(f"generator index {i} out of range for {self}")
            out = out * self.blade(1 << (i - 1))
        return out

    def __str__(self) -> str:
        return f"Cl({self.p},{self.q})"

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.p, self.q) < (other.p, other.q)
        return NotImplemented


def grade(mask: int) -> int:
    """Number of generator factors in a blade."""
    return mask.bit_count()


def _sign_mask(b: int, negative: int) -> int:
    """Mask q with e_a e_b = (-1)**popcount(a & q) e_{a ^ b} for every a.

    Bit i of b's prefix parity is the parity of b's bits below i, that is of
    the transpositions a factor e_i of a needs to pass b's lower factors; the
    bits of ``negative`` (generators squaring to -1) add one metric sign per
    repeated generator.  Five shifts cover 16 bits, beyond MAX_DIMENSION.
    """
    x = b << 1
    x ^= x << 1
    x ^= x << 2
    x ^= x << 4
    x ^= x << 8
    return x ^ (b & negative)


def _negative_mask(sig: Signature) -> int:
    """Bits of the generators that square to -1."""
    return (1 << sig.n) - (1 << sig.p)


# Work runs one signature at a time, so only the last table is kept.
@lru_cache(maxsize=1)
def _sign_masks(sig: Signature) -> Sequence[int]:
    """``_sign_mask(b, negative)`` for every blade b of sig, cut to its n
    low bits, once per signature: e_a e_b = (-1)**popcount(a & table[b])
    e_{a ^ b}, and table[b | 1 << i] = table[b] ^ table[1 << i] (linear in
    b).  2^n 16-bit words (n <= 12) take 2^(n+1) bytes, not 2^n ints."""
    negative = _negative_mask(sig)
    table = memoryview(bytearray(2 * sig.dim)).cast("H")
    for i in range(sig.n):
        row = _sign_mask(1 << i, negative) & (sig.dim - 1)
        for b in range(1 << i):
            table[b | 1 << i] = table[b] ^ row
    return table.toreadonly()


def _blade_times(
    a: int,
    negate: bool,
    terms: Iterable[tuple[int, int | Fraction]],
    signs: Sequence[int],
) -> dict:
    """The terms of +-e_a x as {mask: coefficient}, minus when ``negate``,
    for x given by its (mask, coefficient) pairs and ``signs`` the
    ``_sign_masks`` of its signature.

    e_a e_b = (-1)**popcount(a & signs[b]) e_{a ^ b}, so a +-1 blade permutes
    the terms of x and only flips signs.
    """
    return {
        a ^ b: -c if ((a & signs[b]).bit_count() ^ negate) & 1 else c
        for b, c in terms
    }


def blade_mul(a: int, b: int, sig: Signature) -> tuple[int, int]:
    """Product of two basis blades as ``(sign, mask)`` with ``mask = a ^ b``.

    The sign combines the transposition count needed to sort the concatenated
    factor list with one metric sign per repeated generator; the metric sign
    is -1 exactly for repeated generators of index above p.
    """
    dim = sig.dim
    if not (0 <= a < dim and 0 <= b < dim):
        raise ValueError(f"blade mask out of range for {sig}")
    if (a & _sign_mask(b, _negative_mask(sig))).bit_count() & 1:
        return -1, a ^ b
    return 1, a ^ b


def blade_square_sign(mask: int, sig: Signature) -> int:
    """Sign s with (e_mask)**2 == s * 1."""
    return blade_mul(mask, mask, sig)[0]


def blades_commute(a: int, b: int) -> bool:
    """Whether e_a e_b == e_b e_a; blades always either commute or anticommute.

    The answer does not depend on the metric: the repeated-generator signs are
    the same on both sides, so only the transposition counts matter.
    """
    swaps = (a & _sign_mask(b, 0)).bit_count() + (b & _sign_mask(a, 0)).bit_count()
    return not swaps & 1


class Multivector(FrozenRecord):
    """Sparse element of Cl(p,q): sorted, zero-free (mask, coefficient) pairs,
    ``signature`` and ``terms: tuple[tuple[int, Fraction], ...]``."""

    _fields = ("signature", "terms")

    @staticmethod
    def from_terms(
        sig: Signature,
        terms: Mapping[int, int | Fraction] | Iterable[tuple[int, int | Fraction]],
    ) -> "Multivector":
        acc: dict[int, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for mask, coeff in items:
            if not 0 <= mask < sig.dim:
                raise ValueError(f"blade mask {mask} out of range for {sig}")
            c = Fraction(coeff)
            if c:
                acc[mask] = acc.get(mask, _ZERO) + c
        return Multivector(sig, tuple(sorted((m, c) for m, c in acc.items() if c)))

    def _check_same(self, other: "Multivector") -> None:
        if self.signature != other.signature:
            raise SignatureMismatchError(
                f"operands in {self.signature} and {other.signature}"
            )

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coefficient(self, mask: int) -> Fraction:
        for m, c in self.terms:
            if m == mask:
                return c
            if m > mask:
                break
        return _ZERO

    def __neg__(self) -> "Multivector":
        return Multivector(self.signature, tuple((m, -c) for m, c in self.terms))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.signature.scalar(other)
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check_same(other)
        acc = dict(self.terms)
        for m, c in other.terms:
            acc[m] = acc.get(m, _ZERO) + c
        return Multivector(self.signature, tuple(sorted((m, c) for m, c in acc.items() if c)))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.signature.scalar(other)
        if not isinstance(other, Multivector):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return Multivector(self.signature, ())
            return Multivector(self.signature, tuple((m, cc * c) for m, cc in self.terms))
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check_same(other)
        signs = _sign_masks(self.signature)
        if len(self.terms) == 1:
            a, ca = self.terms[0]
            if ca == 1 or ca == -1:
                moved = _blade_times(a, ca < 0, other.terms, signs)
                return Multivector(self.signature, tuple(sorted(moved.items())))
        # Integer numerators over each operand's common denominator; one
        # normalized Fraction per output term.
        da, a_masks, a_nums = self._integer_terms
        db, b_masks, b_nums = other._integer_terms
        acc: dict[int, int] = {}
        get = acc.get
        for b, cb in zip(b_masks, b_nums):
            q = signs[b]
            for a, ca in zip(a_masks, a_nums):
                m = a ^ b
                if (a & q).bit_count() & 1:
                    acc[m] = get(m, 0) - ca * cb
                else:
                    acc[m] = get(m, 0) + ca * cb
        den = da * db
        return Multivector(
            self.signature,
            tuple(sorted((m, Fraction(c, den)) for m, c in acc.items() if c)),
        )

    @cached_property
    def _integer_terms(self) -> tuple[int, list[int], list[int]]:
        """(d, masks, numerators) with each coefficient numerator / d and d
        the common denominator."""
        terms = self.terms
        den = 1
        for _, c in terms:
            cd = c.denominator
            if cd != 1 and den % cd:
                den = den * cd // gcd(den, cd)
        return (
            den,
            [m for m, _ in terms],
            [c.numerator * (den // c.denominator) for _, c in terms],
        )

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def involute(self) -> "Multivector":
        """Grade involution: each grade-g term is scaled by (-1)**g."""
        return Multivector(
            self.signature,
            tuple((m, -c if grade(m) & 1 else c) for m, c in self.terms),
        )

    def __str__(self) -> str:
        return format_multivector(self)


# ---------------------------------------------------------------------------
# text grammar


def blade_name(mask: int) -> str:
    """Index string of a blade: 'e0' is the scalar, 'e13' is e_1 e_3, and
    indices 10..12 print as a, b, c."""
    if mask == 0:
        return "0"
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(_INDEX_CHARS[i])
        mask >>= 1
        i += 1
    return "".join(out)


def format_multivector(u: Multivector) -> str:
    """Render as a signed sum of ``coeff*e{indices}`` terms, scalars bare."""
    if not u.terms:
        return "0"
    chunks = []
    for pos, (mask, c) in enumerate(u.terms):
        neg = c < 0
        mag = -c if neg else c
        body = str(mag) if mask == 0 else f"{mag}*e{blade_name(mask)}"
        if pos == 0:
            chunks.append(f"-{body}" if neg else body)
        else:
            chunks.append(f" - {body}" if neg else f" + {body}")
    return "".join(chunks)


_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-])?\s*
        (?:
            (?P<coeff>\d+(?:/\d+)?)\s*(?:\*\s*e(?P<idx1>0|[1-9a-c]+))?
          | e(?P<idx2>0|[1-9a-c]+)
        )""",
    re.VERBOSE,
)


def _mask_from_indices(text: str) -> int:
    if text == "0":
        return 0
    mask = 0
    prev = -1
    for ch in text:
        i = _INDEX_CHARS.index(ch)
        if i <= prev:
            raise ValueError(f"blade indices must strictly increase: e{text}")
        prev = i
        mask |= 1 << i
    return mask


def parse_multivector(sig: Signature, text: str) -> Multivector:
    """Parse the grammar produced by :func:`format_multivector`.

    Accepts ``1/2 + 1/2*e3``, bare blades like ``e12``, and ``e0`` or a bare
    rational for the scalar blade.  Round-trips exactly with the formatter.
    """
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty multivector text")
    if stripped == "0":
        return Multivector(sig, ())
    terms: list[tuple[int, Fraction]] = []
    pos = 0
    first = True
    while pos < len(stripped):
        m = _TERM_RE.match(stripped, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"cannot parse multivector at: {stripped[pos:]!r}")
        if not first and m.group("sign") is None:
            raise ValueError(f"missing sign between terms at: {stripped[pos:]!r}")
        sign = -1 if m.group("sign") == "-" else 1
        try:
            coeff = Fraction(m.group("coeff") or 1)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator at: {stripped[pos:]!r}") from None
        idx = m.group("idx1") or m.group("idx2")
        mask = _mask_from_indices(idx) if idx is not None else 0
        if mask >= sig.dim:
            raise ValueError(f"blade e{idx} out of range for {sig}")
        terms.append((mask, sign * coeff))
        pos = m.end()
        first = False
    return Multivector.from_terms(sig, terms)


# ---------------------------------------------------------------------------
# JSON form


def multivector_to_json_dict(u: Multivector) -> dict:
    return {
        "p": u.signature.p,
        "q": u.signature.q,
        "terms": [
            {"mask": m, "num": str(c.numerator), "den": str(c.denominator)}
            for m, c in u.terms
        ],
    }


def _field(data: Mapping, key: str, prefix: str = ""):
    """data[key], or a ValueError naming the field when data is not an
    object or has no key."""
    if not isinstance(data, Mapping):
        raise ValueError(f"{prefix[:-1] or 'the dump'} is not an object")
    if key not in data:
        raise ValueError(f"{prefix}{key} is missing")
    return data[key]


def _list(value, where: str) -> list:
    """value, or a ValueError naming the field when it is not a list."""
    if not isinstance(value, list):
        raise ValueError(f"{where} is not a list")
    return value


def _list_field(data: Mapping, key: str, prefix: str = "") -> list:
    return _list(_field(data, key, prefix), prefix + key)


def _integer(value, where: str) -> int:
    """value as an int where JSON Schema's ``integer`` accepts it (1 and 1.0,
    not 1.5, a string, a boolean or null), else a ValueError naming the
    field."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{where} is not an integer: {value!r}")
    return value


def _integer_field(data: Mapping, key: str, prefix: str = "") -> int:
    return _integer(_field(data, key, prefix), prefix + key)


# the schema's ``num`` and ``den``: decimal integer strings, ``den`` unsigned
_NUM = re.compile(r"-?[0-9]+")
_DEN = re.compile(r"[0-9]+")


def _digits_field(data: Mapping, key: str, pattern: re.Pattern, prefix: str) -> int:
    value = _field(data, key, prefix)
    if not isinstance(value, str) or not pattern.fullmatch(value):
        raise ValueError(f"{prefix}{key} is not an integer string: {value!r}")
    return int(value)


def multivector_from_json_dict(data: Mapping, prefix: str = "") -> Multivector:
    """Inverse of :func:`multivector_to_json_dict`; a missing key, a ``p``,
    ``q`` or ``mask`` that is not an integer, a ``num`` or ``den`` that is
    not the schema's string of digits, a dump or term that is not an object,
    a mask out of range or a zero denominator raises a ValueError naming the
    field after ``prefix``."""
    sig = Signature(
        _integer_field(data, "p", prefix), _integer_field(data, "q", prefix)
    )
    terms = []
    for idx, t in enumerate(_list_field(data, "terms", prefix)):
        where = f"{prefix}terms[{idx}]."
        mask = _integer_field(t, "mask", where)
        if not 0 <= mask < sig.dim:
            raise ValueError(f"{where}mask is out of range for {sig}: {mask}")
        num = _digits_field(t, "num", _NUM, where)
        den = _digits_field(t, "den", _DEN, where)
        if not den:
            raise ValueError(f"{where}den is zero")
        terms.append((mask, Fraction(num, den)))
    return Multivector.from_terms(sig, terms)
