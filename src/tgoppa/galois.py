"""Exact arithmetic in prime fields GF(q) and their extensions GF(q^m).

Elements are plain Python ints in ``[0, q**m)``.  The base-q digits of an
encoding, least significant first, are the element's coordinates in the
polynomial basis ``1, x, ..., x**(m-1)`` of the field's irreducible
modulus.  Encodings ``0 .. q-1`` are therefore exactly the prime
subfield, and for ``q == 2`` an encoding is the familiar bitmask
representation with XOR as addition.

:func:`make_field` always picks the canonical modulus: scanning monic
degree-m polynomials by the integer encoding ``sum(c_j * q**j)`` of
their non-leading coefficients, the first irreducible one wins.  Every
run of the library therefore agrees on every element encoding, which
keeps downstream output reproducible bit for bit.

Fields are small by design: the size cap is the fixed constant
``DEFAULT_SIZE_CAP = 2**20`` elements, so that irreducibility checks, root
scans and orbit walks can all be exhaustive.  :func:`validate_field_params`
is the one check of (q, m), shared by :class:`Field` and the experiment
parameter sets.
"""

from __future__ import annotations

import functools

from .errors import NotPrimeError, SizeCapError, InternalConsistencyError

DEFAULT_SIZE_CAP = 1 << 20

# Fields up to this order get log/exp tables for O(1) multiply/invert.
_TABLE_CAP = 1 << 16


def _check_int(value, what: str, minimum: int | None = None) -> int:
    """The package's one integer rule: ``value`` must be of type exactly ``int``.

    Bools, floats and strings are rejected, never truncated, so every
    integer the library accepts prints, hashes and reads back as itself.
    :meth:`Field.check` applies the same test inline on its hot path.
    """
    if type(value) is not int or (minimum is not None and value < minimum):
        at_least = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{what} must be an int{at_least}, got {value!r}")
    return value


def validate_field_params(q: int, m: int) -> None:
    """Reject a (q, m) that names no GF(q^m) within the size cap.

    Cheap checks run first: m at or above ``DEFAULT_SIZE_CAP.bit_length()``
    is rejected before ``q**m`` is computed, and primality is tested last,
    so trial division never runs on a q above the cap.
    """
    try:
        _check_int(q, "q", 2)
    except ValueError:
        raise NotPrimeError(f"base field order must be a prime int, got {q!r}") from None
    _check_int(m, "extension degree m", 1)
    if m >= DEFAULT_SIZE_CAP.bit_length() or q**m > DEFAULT_SIZE_CAP:
        raise SizeCapError(
            f"field order {q}^{m} exceeds the size cap {DEFAULT_SIZE_CAP}"
        )
    if not is_prime(q):
        raise NotPrimeError(f"base field order must be prime, got {q}")


def _digits(value: int, q: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        value, r = divmod(value, q)
        out.append(r)
    return out


def _undigits(digits, q: int) -> int:
    value = 0
    for d in reversed(digits):
        value = value * q + d
    return value


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def is_prime(n: int) -> bool:
    """Trial division by every d <= sqrt(n); cheap for any q below the size cap."""
    return _divisors(n) == [1, n]


def _zq_rem(num: list[int], den: list[int], q: int) -> list[int]:
    """Remainder of num by monic den, coefficients ascending, mod q."""
    rem = list(num)
    dd = len(den) - 1
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            rem[i] = 0
            off = i - dd
            for j in range(dd):
                if den[j]:
                    rem[off + j] = (rem[off + j] - c * den[j]) % q
    return rem[:dd]


def _is_irreducible(coeffs: tuple[int, ...], q: int) -> bool:
    """Exhaustive trial division by every monic polynomial of degree <= m/2."""
    m = len(coeffs) - 1
    if m == 1:
        return True
    for d in range(1, m // 2 + 1):
        for enc in range(q**d):
            den = _digits(enc, q, d) + [1]
            if not any(_zq_rem(list(coeffs), den, q)):
                return False
    return True


@functools.lru_cache(maxsize=None)
def _canonical_modulus(q: int, m: int) -> tuple[int, ...]:
    for enc in range(q**m):
        coeffs = tuple(_digits(enc, q, m)) + (1,)
        if _is_irreducible(coeffs, q):
            return coeffs
    raise InternalConsistencyError(
        f"no irreducible polynomial of degree {m} over GF({q}) found"
    )


class Field:
    """GF(q^m) for prime q, with integer-encoded elements.

    With no modulus the canonical one is used; a given modulus must be
    monic, irreducible and of degree m.  Arithmetic methods take and
    return encodings; they assume their arguments are valid (use
    :meth:`check` at trust boundaries).
    """

    __slots__ = ("q", "m", "modulus", "order", "_mod_mask", "_exp", "_log")

    def __init__(self, q: int, m: int, modulus=None):
        validate_field_params(q, m)
        if modulus is None:
            modulus = _canonical_modulus(q, m)  # irreducible by construction
        else:
            modulus = tuple(_check_int(c, "modulus coefficient") for c in modulus)
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree exactly m")
            if any(not 0 <= c < q for c in modulus):
                raise ValueError("modulus coefficients must lie in [0, q)")
            if not _is_irreducible(modulus, q):
                raise ValueError(f"modulus {list(modulus)} is reducible over GF({q})")
        self.q = q
        self.m = m
        self.modulus = modulus
        self.order = q**m
        self._mod_mask = sum(c << j for j, c in enumerate(modulus)) if q == 2 else 0
        self._exp = self._log = None  # pow falls back to _pow_raw during the build
        if m > 1 and self.order <= _TABLE_CAP:
            self._exp, self._log = self._build_tables()

    # -- representation ------------------------------------------------

    def __repr__(self) -> str:
        return f"GF({self.q})" if self.m == 1 else f"GF({self.q}^{self.m})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Field):
            return NotImplemented
        return (self.q, self.m, self.modulus) == (other.q, other.m, other.modulus)

    def __hash__(self) -> int:
        return hash((self.q, self.m, self.modulus))

    def to_json(self) -> dict:
        return {"q": self.q, "m": self.m, "modulus": list(self.modulus)}

    @classmethod
    def from_json(cls, data: dict) -> "Field":
        return cls(data["q"], data["m"], data["modulus"])

    # -- element plumbing ----------------------------------------------

    def check(self, a: int) -> int:
        """Validate an element encoding at a trust boundary (the integer rule, inline)."""
        if type(a) is not int or not 0 <= a < self.order:
            raise ValueError(f"not an element encoding of {self!r}: {a!r}")
        return a

    def elements(self) -> range:
        return range(self.order)

    def expand(self, a: int) -> tuple[int, ...]:
        """Base-q digit tuple (d_0, ..., d_{m-1}) of an encoding."""
        return tuple(_digits(a, self.q, self.m))

    def from_digits(self, digits) -> int:
        digits = list(digits)
        if len(digits) != self.m:
            raise ValueError(f"expected {self.m} digits, got {len(digits)}")
        if any(not 0 <= _check_int(d, "digit") < self.q for d in digits):
            raise ValueError("digits must lie in [0, q)")
        return _undigits(digits, self.q)

    # -- arithmetic -----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.q == 2:
            return a ^ b
        if self.m == 1:
            return (a + b) % self.q
        q = self.q
        s, mult = 0, 1
        while a or b:
            s += ((a + b) % q) * mult
            a //= q
            b //= q
            mult *= q
        return s

    def neg(self, a: int) -> int:
        if self.q == 2:
            return a
        if self.m == 1:
            return (-a) % self.q
        q = self.q
        s, mult = 0, 1
        while a:
            s += (-a % q) * mult
            a //= q
            mult *= q
        return s

    def sub(self, a: int, b: int) -> int:
        if self.q == 2:
            return a ^ b
        return self.add(a, self.neg(b))

    def _mul_raw(self, a: int, b: int) -> int:
        """Schoolbook multiply-and-reduce, independent of the tables."""
        if self.q == 2:
            mod, top = self._mod_mask, 1 << self.m
            p = 0
            while b:
                if b & 1:
                    p ^= a
                b >>= 1
                a <<= 1
                if a & top:
                    a ^= mod
            return p
        q, m = self.q, self.m
        da, db = self.expand(a), self.expand(b)
        conv = [0] * (2 * m - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    conv[i + j] = (conv[i + j] + x * y) % q
        return _undigits(_zq_rem(conv, self.modulus, q), q)

    def _pow_raw(self, a: int, e: int) -> int:
        acc, base = 1, a
        while e:
            if e & 1:
                acc = self._mul_raw(acc, base)
            base = self._mul_raw(base, base)
            e >>= 1
        return acc

    def _build_tables(self):
        span = self.order - 1
        gen = next((c for c in range(2, self.order) if self.mult_order(c) == span), None)
        if gen is None:
            raise InternalConsistencyError(f"no multiplicative generator in {self!r}")
        exp = [0] * (2 * span)
        log = [0] * self.order
        val = 1
        for i in range(span):
            exp[i] = val
            log[val] = i
            val = self._mul_raw(val, gen)
        for i in range(span, 2 * span):
            exp[i] = exp[i - span]
        return exp, log

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        if self.m == 1:
            return a * b % self.q
        return self._mul_raw(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if self._exp is not None:
            return self._exp[(self.order - 1) - self._log[a]]
        if self.m == 1:
            return pow(a, self.q - 2, self.q)
        return self._pow_raw(a, self.order - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        """a**e by repeated squaring; 0**0 is defined as 1."""
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        if e == 0:
            return 1
        if a == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] * e % (self.order - 1)]
        if self.m == 1:
            return pow(a, e, self.q)
        return self._pow_raw(a, e)

    def mult_order(self, a: int) -> int:
        """Smallest e >= 1 with a**e == 1; divides order - 1."""
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative order")
        for d in _divisors(self.order - 1):
            if self.pow(a, d) == 1:
                return d
        raise InternalConsistencyError(f"order scan failed for {a} in {self!r}")


@functools.lru_cache(maxsize=None, typed=True)
def make_field(q: int, m: int) -> Field:
    """GF(q^m) with the canonical (smallest-encoding) modulus, built once per (q, m).

    The cache is typed, so a float 2.0 is validated (and rejected), never
    served the cached field of the int 2.
    """
    return Field(q, m)
