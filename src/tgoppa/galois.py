"""Exact arithmetic in prime fields GF(q) and their extensions GF(q^m).

Elements are plain Python ints in ``[0, q**m)``.  The base-q digits of an
encoding, least significant first, are the element's coordinates in the
polynomial basis ``1, x, ..., x**(m-1)`` of the field's irreducible
modulus.  Encodings ``0 .. q-1`` are therefore exactly the prime
subfield, and for ``q == 2`` an encoding is the familiar bitmask
representation with XOR as addition.

There is one GF(q^m) per (q, m), over the canonical modulus: scanning monic
degree-m polynomials by the integer encoding ``sum(c_j * q**j)`` of
their non-leading coefficients, the first irreducible one wins.  Every
run of the library therefore agrees on every element encoding, which
keeps downstream output reproducible bit for bit.

The modulus test is Ben-Or's: f of degree m is irreducible iff
gcd(x^(q^i) - x mod f, f) = 1 for every i <= m/2, about m/2 gcds of
degree-m polynomials over GF(q) per candidate.

Fields of up to ``2**16`` elements with m > 1 keep exp/log tables of
the smallest multiplicative generator g (odd q also a Zech table).  The
tables are the orbit of 1 under v -> g*v, a GF(q)-linear map, so the
build multiplies only the two halves of v's digits by g, once each, and
adds the two products per element; :meth:`Field._mul_raw` stays the
independent schoolbook oracle.

The generator test and :meth:`Field.mult_order` read one factorization
of q^m - 1 per field: an element's order is q^m - 1 with each prime r
divided out while the power still reaches 1.

Fields are small by design: the size cap is the fixed constant
``DEFAULT_SIZE_CAP = 2**20`` elements, so that root scans and orbit walks
can be exhaustive.  :func:`validate_field_params` is the one check of
(q, m), shared by :class:`Field` and the experiment parameter sets.  All
integer input meets the integer rule :func:`_check_int`, text first meets
the decimal text rule :func:`_read_int`, and every document read meets the
document rule :func:`_read_doc`; no other module has its own.
"""

from __future__ import annotations

import functools

from .errors import NotPrimeError, SizeCapError, InternalConsistencyError

DEFAULT_SIZE_CAP = 1 << 20

# Fields up to this order get log/exp tables for O(1) multiply/invert.
_TABLE_CAP = 1 << 16


def _check_int(value, what: str, minimum: int | None = None, maximum: int | None = None) -> int:
    """The package's one integer rule: ``value`` must be of type exactly ``int``
    and lie in ``[minimum, maximum]``; either bound may be None.

    Bools, floats and strings are rejected, never truncated, so every
    integer the library accepts prints, hashes and reads back as itself.
    :meth:`Field.check` applies the same test inline on its hot path.
    """
    if (type(value) is not int or (minimum is not None and value < minimum)
            or (maximum is not None and value > maximum)):
        bounds = " and".join(f" {op} {v}" for op, v in ((">=", minimum), ("<=", maximum))
                             if v is not None)
        raise ValueError(f"{what} must be an int{bounds}, got {value!r}")
    return value


def _read_int(value, what: str) -> int:
    """The package's one decimal text rule: a str must be ASCII digits, an optional leading
    ``-`` first (``int()`` also takes ``+``, spaces, ``_`` and non-ASCII digits).  The
    result, or any other value as it is, must then pass :func:`_check_int`."""
    if type(value) is str:
        digits = value[1:] if value[:1] == "-" else value
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"{what} must be decimal digits, got {value!r}")
        value = int(value)
    return _check_int(value, what)


def _read_doc(doc, what: str, keys, arrays=(), error=ValueError) -> list:
    """The package's one document rule: ``doc`` must be a dict (a JSON object) holding every
    key, with a list (a JSON array) at each of ``arrays``.  Returns the values in key order."""
    if not isinstance(doc, dict):
        raise error(f"a {what} document is a JSON object, got {doc!r}")
    for key in keys:
        if key not in doc:
            raise error(f"{what} document has no {key!r}")
        if key in arrays and not isinstance(doc[key], list):
            raise error(f"{what} {key!r} must be an array, got {doc[key]!r}")
    return [doc[key] for key in keys]


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


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    """Trial division by every d <= sqrt(n); cheap for any q below the size cap."""
    return n > 1 and _prime_factors(n) == [n]


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


def _zq_trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _is_irreducible(coeffs: tuple[int, ...], q: int) -> bool:
    """Ben-Or's test: monic f of degree m is irreducible over GF(q) iff
    gcd(x^(q^i) - x mod f, f) = 1 for i = 1 .. m/2.

    Any reducible f has an irreducible factor of degree d <= m/2, and that
    factor divides x^(q^d) - x.  Each step raises h = x^(q^(i-1)) mod f to
    the q-th power as h(x^q), since GF(q) coefficients are fixed by it.
    """
    f = list(coeffs)
    m = len(f) - 1
    h = [0, 1]
    for _ in range(m // 2):
        spread = [0] * ((len(h) - 1) * q + 1)
        spread[::q] = h
        h = _zq_rem(spread, f, q)
        a, b = f, h[:]  # Euclid on (f, h - x); a stays monic
        b[1] = (b[1] - 1) % q
        while len(_zq_trim(b)) > 1:
            inv = pow(b[-1], -1, q)
            a, b = [c * inv % q for c in b], a
            b = _zq_rem(b, a, q)
        if not b:
            return False
    return True


def _canonical_modulus(q: int, m: int) -> tuple[int, ...]:
    for enc in range(q**m):
        coeffs = tuple(_digits(enc, q, m)) + (1,)
        if _is_irreducible(coeffs, q):
            return coeffs
    raise InternalConsistencyError(
        f"no irreducible polynomial of degree {m} over GF({q}) found"
    )


class Field:
    """GF(q^m) for prime q over the canonical modulus, integer-encoded; :func:`make_field`
    caches one per (q, m).  Arithmetic methods take and return encodings; they assume their
    arguments are valid (use :meth:`check` at trust boundaries).
    """

    __slots__ = ("q", "m", "modulus", "order", "_mod_mask", "_span_primes", "_exp", "_log", "_zech")

    def __init__(self, q: int, m: int):
        validate_field_params(q, m)
        self.q = q
        self.m = m
        self.modulus = modulus = _canonical_modulus(q, m)
        self.order = q**m
        self._span_primes = _prime_factors(self.order - 1)  # mult_order and the generator
        self._mod_mask = sum(c << j for j, c in enumerate(modulus)) if q == 2 else 0
        self._exp = self._log = self._zech = None  # pow falls back to _pow_raw during the build
        if m > 1 and self.order <= _TABLE_CAP:
            self._exp, self._log = self._build_tables()
            if q != 2:
                self._zech = self._build_zech()

    # -- representation ------------------------------------------------

    def __repr__(self) -> str:
        return f"GF({self.q})" if self.m == 1 else f"GF({self.q}^{self.m})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Field):
            return NotImplemented
        return (self.q, self.m) == (other.q, other.m)

    def __hash__(self) -> int:
        return hash((self.q, self.m))

    def to_json(self) -> dict:
        return {"q": self.q, "m": self.m, "modulus": list(self.modulus)}

    @staticmethod
    def from_json(data: dict) -> "Field":
        """``make_field(q, m)``, if the document states that field's modulus in integer cells."""
        q, m, modulus = _read_doc(data, "field", ("q", "m", "modulus"), ("modulus",))
        field = make_field(q, m)
        stated = [_check_int(c, "modulus coefficient", 0, field.q - 1) for c in modulus]
        if stated != list(field.modulus):
            raise ValueError(f"modulus {stated} is not the canonical {list(field.modulus)}")
        return field

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

    # -- arithmetic -----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        """a + b: XOR for q = 2; for odd q with tables a*(1 + b/a) through the
        Zech table, else base-q digit by digit mod q (:meth:`_digitwise`)."""
        if self.q == 2:
            return a ^ b
        zech = self._zech
        if zech is None:
            return self._digitwise(a, b, 1)
        if not a:
            return b
        if not b:
            return a
        log = self._log
        la = log[a]
        z = zech[log[b] - la]
        return 0 if z < 0 else self._exp[la + z]

    def neg(self, a: int) -> int:
        """-a: a itself for q = 2; for odd q with tables a*g^((q^m - 1)/2), since
        that power of the generator is -1, else digit by digit."""
        if self.q == 2:
            return a
        if self._zech is None:
            return self._digitwise(0, a, -1)
        return self._exp[self._log[a] + (self.order >> 1)] if a else 0

    def sub(self, a: int, b: int) -> int:
        """a - b: XOR for q = 2; for odd q with tables add(a, neg(b)), else digit
        by digit."""
        if self.q == 2:
            return a ^ b
        if self._zech is None:
            return self._digitwise(a, b, -1)
        return self.add(a, self.neg(b))

    def _digitwise(self, a: int, b: int, sign: int) -> int:
        """a + sign*b for odd q, one base-q digit at a time (GF(q) itself included).

        The path of odd-q fields without tables, and the oracle of the Zech path.
        """
        q = self.q
        s, mult = 0, 1
        while a or b:
            s += (a + sign * b) % q * mult
            a //= q
            b //= q
            mult *= q
        return s

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
        """exp (stored twice) and log of the smallest generator g, from split products.

        g is the first c >= 2 with c^((q^m - 1)/r) != 1 for every prime r of
        q^m - 1, so of order q^m - 1; the primes are factored once per field.
        v -> g*v is GF(q)-linear in v's digits, so with v = lo + q^h*hi
        (h = ceil(m/2)), g*v = g*lo + g*(q^h*hi): one product table for
        each half, q^h + q^(m-h) :meth:`_mul_raw` calls in all, and exp
        is the orbit of 1 under that map.  The walk keeps v in lane form,
        digit k in bits [k*w, k*w + w), and the tables are indexed by the
        lane form of a half: sparse lists of 2^(h*w) and 2^((m-h)*w) slots.
        For q = 2, w = 1, so the lane form is the encoding and the sum is
        XOR.  For odd q, q <= 2^(w-1): the sum of two products is one int
        add with every lane below 2q - 1, and the lanes that reached q
        (their top bit set after adding 2^(w-1) - q) lose q at once; the
        encoding tables turn the two halves back into an encoding.
        """
        q, m, span = self.q, self.m, self.order - 1
        gen = next(
            (c for c in range(2, self.order)
             if all(self._pow_raw(c, span // r) != 1 for r in self._span_primes)),
            None,
        )
        if gen is None:
            raise InternalConsistencyError(f"no multiplicative generator in {self!r}")
        h = (m + 1) >> 1
        low = q**h
        w = 1 if q == 2 else q.bit_length() + 1

        def lanes(v: int) -> int:
            out = shift = 0
            while v:
                v, d = divmod(v, q)
                out |= d << shift
                shift += w
            return out

        shift = h * w
        mul_low = [0] * (1 << shift)
        mul_high = [0] * (1 << (m - h) * w)
        enc_low = [0] * len(mul_low)
        enc_high = [0] * len(mul_high)
        for v in range(low):
            mul_low[lanes(v)] = lanes(self._mul_raw(gen, v))
            enc_low[lanes(v)] = v
        for v in range(q ** (m - h)):
            mul_high[lanes(v)] = lanes(self._mul_raw(gen, v * low))
            enc_high[lanes(v)] = v * low
        exp = [0] * (2 * span)
        log = [0] * self.order
        mask = (1 << shift) - 1
        val = 1
        if q == 2:
            for i in range(span):
                exp[i] = val
                log[val] = i
                val = mul_low[val & mask] ^ mul_high[val >> shift]
        else:
            ones = sum(1 << k * w for k in range(m))
            bias, top = ((1 << w - 1) - q) * ones, w - 1
            for i in range(span):
                lo, hi = val & mask, val >> shift
                e = enc_low[lo] + enc_high[hi]
                exp[i] = e
                log[e] = i
                val = mul_low[lo] + mul_high[hi]
                val -= q * ((val + bias) >> top & ones)
        exp[span:] = exp[:span]
        return exp, log

    def _build_zech(self) -> list[int]:
        """Zech logarithms Z[d] = log(1 + g^d) of an odd-q table field, stored twice.

        Adding 1 changes only digit 0, so 1 + e is e - e % q + (e + 1) % q,
        O(1) per entry.  1 + g^d = 0 exactly at d = (q^m - 1)/2 (g^d = -1);
        that entry is the sentinel -1 and the sum there is 0.  The table is
        doubled so that any index in (-span, 2*span), which add and sub
        produce, reads Z[index mod span] (negative indices count from the end).
        """
        q, span, log = self.q, self.order - 1, self._log
        zech = [log[e - e % q + (e + 1) % q] for e in self._exp[:span]]
        zech[span >> 1] = -1
        return zech + zech

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
        _check_int(e, "exponent", 0)
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
        """Smallest e >= 1 with a**e == 1: start from order - 1 and divide out
        each prime r of it while a**(e/r) is still 1."""
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative order")
        e = self.order - 1
        for r in self._span_primes:
            while e % r == 0 and self.pow(a, e // r) == 1:
                e //= r
        return e


@functools.lru_cache(maxsize=None, typed=True)
def make_field(q: int, m: int) -> Field:
    """GF(q^m) with the canonical (smallest-encoding) modulus, built once per (q, m).

    The cache is typed, so a float 2.0 is validated (and rejected), never
    served the cached field of the int 2.
    """
    return Field(q, m)
