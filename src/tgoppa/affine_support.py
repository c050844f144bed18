"""Code supports from the orbits of the affine bijection sigma(x) = a*x + b.

Given a translation b and a requested map order u, a multiplier a of the
right multiplicative order is chosen deterministically and the support is
assembled from the complete size-u orbits of sigma, which (b, u) fix: sigma
is no object of its own, and its order rule is :func:`validate_orbit_params`.

Conventions (fixed so that equal inputs always give byte-equal output):

* u == 1 asks for the identity map, with b = 0; its orbits are single
  points, so the support is every field element that is not a root of
  g, in ascending encoding order.  This is the whole-field support.
* u == q (the characteristic) is realized by a = 1 with the given
  translation b, which must be nonzero to actually have order q.
* any other u must divide q^m - 1 and is realized by the
  smallest-encoded element of that multiplicative order.
* orbits are listed by their minimal element, each orbit starting at
  its minimal element; orbits that touch a root of g are dropped whole,
  which keeps the surviving support closed under sigma.

The support is built flat, in one walk of the field stepping y -> a*y + b
for every (b, u) (:func:`build_support`); :func:`support_orbits` groups it
into its orbits, runs of u consecutive points.
"""

from __future__ import annotations

import functools

from .errors import EmptySupportError, NoSuchOrderError, InternalConsistencyError
from .galois import Field, _check_int, validate_field_params
from .polyring import Poly


def validate_orbit_params(q: int, m: int, u: int, b: int | None = None) -> None:
    """Reject a (b, u) pair that names no affine map of order u over GF(q^m).

    The one validation path for u and b, before any field work and after
    (q, m), so q**m is never computed beyond the size cap: u must be 1, q,
    or a divisor of q^m - 1.  Both u == 1 and u == q are realized by a
    translation x -> x + b, of order 1 iff b == 0 and order q otherwise,
    so u == 1 needs b == 0 and u == q needs b != 0.  b=None checks u alone.
    """
    validate_field_params(q, m)
    order = q**m
    _check_int(u, "order u", 1)
    if u not in (1, q) and (order - 1) % u != 0:
        raise NoSuchOrderError(
            f"no affine map of order {u} over GF({q}^{m}): "
            f"{u} is neither 1 nor q={q} and does not divide q^m - 1 = {order - 1}"
        )
    if b is None:
        return
    _check_int(b, "translation b", 0, order - 1)
    if u in (1, q) and (u == 1) != (b == 0):
        raise NoSuchOrderError(
            f"u={u} over GF({q}^{m}) is realized by x -> x + b, which is the identity "
            f"(order 1) iff b = 0 and has order q={q} otherwise; got b={b}"
        )


@functools.lru_cache(maxsize=None, typed=True)
def choose_multiplier(field: Field, u: int) -> int:
    """Deterministic multiplier realizing an affine map of order u.

    u == 1 and u == q both return 1 (order q then comes from a nonzero
    translation).  Otherwise u must divide q^m - 1 and the smallest
    encoding of multiplicative order u is returned.  The scan runs once
    per (field, u): a trial asks here for its record's multiplier and
    again inside :func:`build_support`.  The cache is typed, so u=True
    is validated (and rejected), never served the entry of u=1; a
    rejected u raises and is not cached.
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

    (b, u) is checked by :func:`validate_orbit_params` before the walk.
    The field is walked once, for every u alike, stepping y -> a*y + b with
    a = :func:`choose_multiplier`: the support is the complete size-u
    orbits of sigma avoiding the roots of g, ordered by minimal element,
    so each run of u consecutive points is one orbit.  The
    identity (u == 1) has single-point orbits, so its support is every
    non-root of g in ascending order.  ``max_orbits`` keeps only the first
    that many orbits (the single-orbit, cyclic case is max_orbits = 1).
    """
    validate_orbit_params(field.q, field.m, u, b)
    if g.field != field:
        raise ValueError("g must be a polynomial over the support's field")
    if g.is_zero:
        raise ValueError("g must be nonzero")
    if max_orbits is not None:
        _check_int(max_orbits, "max_orbits", 1)
    a, mul, add = choose_multiplier(field, u), field.mul, field.add
    seen = bytearray(field.order)
    support = []
    for x in field.elements():
        orb, y = [], x
        while not seen[y]:  # sigma permutes the field: the walk from x closes at x
            seen[y] = 1
            orb.append(y)
            y = add(mul(a, y), b)
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
