"""Univariate polynomials over a :class:`~tgoppa.galois.Field`.

Coefficients are element encodings stored ascending (constant term
first) and always normalized: no trailing zeros, the zero polynomial is
the empty tuple and reports degree -1.  Polynomials are immutable and
hashable.

Serialization is the comma-separated ascending coefficient list, e.g.
``"2,1,1"`` for x^2 + x + 2 over GF(4); the zero polynomial serializes
as ``"0"``.  The same format is used on the CLI, in JSON and in CSV.
"""

from __future__ import annotations

from itertools import zip_longest

from .errors import FieldMismatchError, NotInvertibleError
from .galois import Field, _read_int


def _same_field(f: "Poly", h: "Poly") -> Field:
    if f.field is not h.field and f.field != h.field:
        raise FieldMismatchError(f"{f.field!r} vs {h.field!r}")
    return f.field


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs=()):
        self._set(field, [field.check(c) for c in coeffs])

    def _set(self, field: Field, cs: list[int]) -> None:
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def _computed(cls, field: Field, cs: list[int]) -> "Poly":
        """A polynomial whose coefficients are already elements: the result of a
        ring op, a constant such as 1, or values from a validated spec.  They
        skip :meth:`Field.check`; only trailing zeros go."""
        poly = object.__new__(cls)
        poly._set(field, cs)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_string(cls, field: Field, text: str) -> "Poly":
        if type(text) is not str:
            raise ValueError(f"bad polynomial serialization: {text!r}")
        return cls(field, [_read_int(tok, "polynomial coefficient") for tok in text.split(",")])

    def to_string(self) -> str:
        if not self.coeffs:
            return "0"
        return ",".join(str(c) for c in self.coeffs)

    # -- structure --------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial (kept distinct as ())."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> int:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, j: int) -> int:
        return self.coeffs[j] if 0 <= j < len(self.coeffs) else 0

    def padded(self, length: int) -> tuple[int, ...]:
        """Coefficient tuple zero-padded to the given length."""
        if len(self.coeffs) > length:
            raise ValueError(f"degree {self.degree} does not fit in {length} slots")
        return self.coeffs + (0,) * (length - len(self.coeffs))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __repr__(self) -> str:
        return f"Poly({self.to_string()!r}, {self.field!r})"

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- ring operations ---------------------------------------------------

    def _zip_with(self, op, other: "Poly") -> "Poly":
        F = _same_field(self, other)
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return Poly._computed(F, [op(a, b) for a, b in pairs])

    def __add__(self, other: "Poly") -> "Poly":
        return self._zip_with(self.field.add, other)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._zip_with(self.field.sub, other)

    def __neg__(self) -> "Poly":
        F = self.field
        return Poly._computed(F, [F.neg(c) for c in self.coeffs])

    def __mul__(self, other: "Poly") -> "Poly":
        F = _same_field(self, other)
        if self.is_zero or other.is_zero:
            return Poly(F)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = F.add(out[i + j], F.mul(a, b))
        return Poly._computed(F, out)

    def scale(self, c: int) -> "Poly":
        F = self.field
        F.check(c)
        return Poly._computed(F, [F.mul(c, x) for x in self.coeffs])

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        F = _same_field(self, other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return Poly(F), self
        rem = list(self.coeffs)
        dd = other.degree
        inv_lead = F.inv(other.lead)
        quot = [0] * (self.degree - dd + 1)
        for i in range(self.degree, dd - 1, -1):
            c = rem[i]
            if c:
                qc = F.mul(c, inv_lead)
                quot[i - dd] = qc
                nqc = F.neg(qc)
                for j, oc in enumerate(other.coeffs):
                    if oc:
                        rem[i - dd + j] = F.add(rem[i - dd + j], F.mul(nqc, oc))
        return Poly._computed(F, quot), Poly._computed(F, rem)

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __call__(self, a: int) -> int:
        """Horner evaluation at an element encoding."""
        F = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, a), c)
        return acc


def xgcd(f: Poly, h: Poly) -> tuple[Poly, Poly]:
    """Extended Euclid tracking only f's cofactor: (d, u) with d = gcd(f, h)
    monic and u*f == d (mod h), an equality when h = 0."""
    F = _same_field(f, h)
    if f.is_zero and h.is_zero:
        raise ValueError("xgcd(0, 0) is undefined")
    r0, r1 = f, h
    s0, s1 = Poly._computed(F, [1]), Poly._computed(F, [])
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    c = F.inv(r0.lead)
    return r0.scale(c), s0.scale(c)


def modinv(f: Poly, g: Poly) -> Poly:
    """Inverse of f mod g for a constant gcd: Euclid's cofactor, already of degree < deg g."""
    if g.is_zero:
        raise ZeroDivisionError("zero modulus")
    if g.degree < 1:
        raise ValueError("modulus must have degree >= 1")
    d, u = xgcd(f, g)
    if d.degree != 0:
        raise NotInvertibleError(
            f"{f!r} is not invertible mod {g!r} (gcd has degree {d.degree})"
        )
    return u  # d is monic, hence exactly 1: u*f == 1 (mod g)


def inverse_linear_residue(alpha: int, g: Poly) -> Poly:
    """(x - alpha)^-1 mod g, computed without the Euclidean algorithm.

    Uses the identity (x - alpha)^-1 = -Q(x) / g(alpha) mod g, where
    Q(x) = (g(x) - g(alpha)) / (x - alpha) comes from synthetic
    division.  Serves as an independent cross-check of :func:`modinv`
    on linear inputs.
    """
    F = g.field
    F.check(alpha)
    if g.degree < 1:
        raise ValueError("modulus must have degree >= 1")
    g_alpha = g(alpha)
    if g_alpha == 0:
        raise ZeroDivisionError("alpha is a root of g")
    t = g.degree
    quot = [0] * t
    acc = 0
    for j in range(t, 0, -1):
        acc = F.add(F.mul(acc, alpha), g.coeffs[j])
        quot[j - 1] = acc
    scale = F.neg(F.inv(g_alpha))
    return Poly(F, [F.mul(scale, c) for c in quot])


def is_root_free(g: Poly) -> bool:
    """True iff g has no root anywhere in its field (exhaustive scan)."""
    if g.is_zero:
        raise ValueError("the zero polynomial vanishes everywhere")
    return all(g(a) != 0 for a in g.field.elements())
