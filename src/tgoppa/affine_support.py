"""Affine bijections sigma(x) = a*x + b of a field and their orbits.

These maps generate the orbit-structured code supports: given a
translation b and a requested map order u, a multiplier a of the right
multiplicative order is chosen deterministically and the support is
assembled from the complete size-u orbits of sigma.

Conventions (fixed so that equal inputs always give byte-equal output):

* u == 1 asks for the identity map; the support is then simply every
  field element that is not a root of g, in ascending encoding order.
* u == q (the characteristic) is realized by a = 1 with the given
  translation b, which must be nonzero to actually have order q.
* any other u must divide q^m - 1 and is realized by the
  smallest-encoded element of that multiplicative order.
* orbits are listed by their minimal element, each orbit starting at
  its minimal element; orbits that touch a root of g are dropped whole,
  which keeps the surviving support closed under sigma.

The support is built flat, in one walk of the field
(:func:`build_support`); :func:`support_orbits` groups it into its
orbits, runs of u consecutive points.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EmptySupportError, NoSuchOrderError, InternalConsistencyError
from .galois import Field, _check_int
from .polyring import Poly


@dataclass(frozen=True)
class AffineMap:
    """sigma(x) = a*x + b with a != 0, a bijection of the field."""

    field: Field
    a: int
    b: int

    def __post_init__(self):
        self.field.check(self.a)
        self.field.check(self.b)
        if self.a == 0:
            raise ValueError("multiplier a must be nonzero for a bijection")

    def __call__(self, x: int) -> int:
        F = self.field
        return F.add(F.mul(self.a, x), self.b)

    def order(self) -> int:
        """Smallest e >= 1 with sigma^e the identity map."""
        if self.a == 1:
            return 1 if self.b == 0 else self.field.q
        return self.field.mult_order(self.a)

    def fixed_points(self) -> list[int]:
        F = self.field
        if self.a == 1:
            return list(F.elements()) if self.b == 0 else []
        return [F.mul(self.b, F.inv(F.sub(1, self.a)))]

    def orbit(self, x: int) -> list[int]:
        """[x, sigma(x), sigma^2(x), ...] up to but not including the repeat."""
        self.field.check(x)
        out = [x]
        y = self(x)
        while y != x:
            out.append(y)
            y = self(y)
        return out


def validate_orbit_params(q: int, m: int, u: int, b: int | None = None) -> None:
    """Reject a (b, u) pair that names no affine map of order u over GF(q^m).

    The one validation path for u and b, before any field work: u must be
    1, q, or a divisor of q^m - 1, and u == q needs a nonzero translation
    b, since x -> x + 0 is the identity.  b=None checks u alone.
    """
    order = q**m
    if _check_int(u, "order u") < 1:
        raise ValueError(f"order u must be a positive integer, got {u}")
    if u not in (1, q) and (order - 1) % u != 0:
        raise NoSuchOrderError(
            f"no affine map of order {u} over GF({q}^{m}): "
            f"{u} is neither 1 nor q={q} and does not divide q^m - 1 = {order - 1}"
        )
    if b is None:
        return
    if not 0 <= _check_int(b, "translation b") < order:
        raise ValueError(f"b must lie in [0, {order}), got {b}")
    if u == q and b == 0:
        raise NoSuchOrderError(
            f"u=q={q} needs a nonzero translation b; with b=0 the map is the identity"
        )


def choose_multiplier(field: Field, u: int) -> int:
    """Deterministic multiplier realizing an affine map of order u.

    u == 1 and u == q both return 1 (order q then comes from a nonzero
    translation).  Otherwise u must divide q^m - 1 and the smallest
    encoding of multiplicative order u is returned.
    """
    validate_orbit_params(field.q, field.m, u)
    if u == 1 or u == field.q:
        return 1
    for cand in range(2, field.order):
        if field.pow(cand, u) == 1 and field.mult_order(cand) == u:
            return cand
    raise InternalConsistencyError(
        f"cyclic group of {field!r} has no element of order {u}"
    )


def build_support(
    field: Field, b: int, u: int, g: Poly, max_orbits: int | None = None
) -> list[int]:
    """Support of the (b, u) construction as one flat, ordered list.

    The field is walked once.  For u == 1 the support is every non-root
    of g.  For u > 1 it is the complete size-u orbits of sigma = (a, b)
    avoiding the roots of g, ordered by minimal element, so each run of u
    consecutive points is one orbit.  ``max_orbits`` keeps only the first
    that many orbits (the single-orbit, cyclic case is max_orbits = 1).
    """
    field.check(b)
    if g.field != field:
        raise ValueError("g must be a polynomial over the support's field")
    if g.is_zero:
        raise ValueError("g must be nonzero")
    if max_orbits is not None:
        _check_int(max_orbits, "max_orbits", 1)
    a = choose_multiplier(field, u)  # validates u, also for u == 1
    if u == 1:
        support = [x for x in field.elements() if g(x) != 0]
    else:
        sigma = AffineMap(field, a, b)
        seen = bytearray(field.order)
        support = []
        for x in field.elements():
            if seen[x]:
                continue
            orb = sigma.orbit(x)
            for y in orb:
                seen[y] = 1
            if len(orb) == u and all(g(y) != 0 for y in orb):
                support.extend(orb)
    if not support:
        raise EmptySupportError(
            f"no admissible orbit for b={b}, u={u} with g={g.to_string()!r}"
        )
    if max_orbits is not None:
        del support[max_orbits * u :]
    return support


def support_orbits(
    field: Field, b: int, u: int, g: Poly, max_orbits: int | None = None
) -> list[list[int]]:
    """The support of :func:`build_support` in chunks of u points, one per orbit."""
    support = build_support(field, b, u, g, max_orbits)
    return [support[i : i + u] for i in range(0, len(support), u)]
