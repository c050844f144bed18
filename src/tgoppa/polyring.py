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

from .errors import FieldMismatchError, NotInvertibleError
from .galois import Field


def _same_field(f: "Poly", h: "Poly") -> Field:
    if f.field != h.field:
        raise FieldMismatchError(f"{f.field!r} vs {h.field!r}")
    return f.field


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs=()):
        cs = [field.check(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls(field)

    @classmethod
    def one(cls, field: Field) -> "Poly":
        return cls(field, (1,))

    @classmethod
    def constant(cls, field: Field, c: int) -> "Poly":
        return cls(field, (c,))

    @classmethod
    def x(cls, field: Field) -> "Poly":
        return cls(field, (0, 1))

    @classmethod
    def linear(cls, field: Field, alpha: int) -> "Poly":
        """The monic linear polynomial x - alpha."""
        return cls(field, (field.neg(field.check(alpha)), 1))

    @classmethod
    def from_string(cls, field: Field, text: str) -> "Poly":
        try:
            coeffs = [int(tok) for tok in text.split(",")]
        except (ValueError, AttributeError):
            raise ValueError(f"bad polynomial serialization: {text!r}") from None
        return cls(field, coeffs)

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

    def __add__(self, other: "Poly") -> "Poly":
        F = _same_field(self, other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for j, c in enumerate(b):
            out[j] = F.add(out[j], c)
        return Poly(F, out)

    def __neg__(self) -> "Poly":
        F = self.field
        return Poly(F, [F.neg(c) for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

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
        return Poly(F, out)

    def scale(self, c: int) -> "Poly":
        F = self.field
        F.check(c)
        return Poly(F, [F.mul(c, x) for x in self.coeffs])

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
                for j, oc in enumerate(other.coeffs):
                    if oc:
                        rem[i - dd + j] = F.sub(rem[i - dd + j], F.mul(qc, oc))
        return Poly(F, quot), Poly(F, rem)

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        return self.scale(self.field.inv(self.lead))

    def __call__(self, a: int) -> int:
        """Horner evaluation at an element encoding."""
        F = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, a), c)
        return acc


def xgcd(f: Poly, h: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended Euclid: returns (g, u, v) with u*f + v*h = g, g monic."""
    F = _same_field(f, h)
    if f.is_zero and h.is_zero:
        raise ValueError("xgcd(0, 0) is undefined")
    r0, r1 = f, h
    s0, s1 = Poly.one(F), Poly.zero(F)
    t0, t1 = Poly.zero(F), Poly.one(F)
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    c = Poly.constant(F, F.inv(r0.lead))
    return r0 * c, s0 * c, t0 * c


def modinv(f: Poly, g: Poly) -> Poly:
    """Inverse of f modulo g; requires gcd(f, g) to be a nonzero constant."""
    if g.is_zero:
        raise ZeroDivisionError("zero modulus")
    if g.degree < 1:
        raise ValueError("modulus must have degree >= 1")
    d, u, _ = xgcd(f, g)
    if d.degree != 0:
        raise NotInvertibleError(
            f"{f!r} is not invertible mod {g!r} (gcd has degree {d.degree})"
        )
    # d is monic, hence exactly 1: u*f == 1 (mod g).
    return u % g


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
