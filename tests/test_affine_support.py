import itertools
import random
from collections import Counter

import pytest

from tgoppa import (
    CodeSpec,
    EmptySupportError,
    NoSuchOrderError,
    ParamSet,
    Poly,
    build_support,
    choose_multiplier,
    dimension,
    make_field,
    run_trial,
    support_orbits,
    validate_orbit_params,
)

F4 = make_field(2, 2)
F8 = make_field(2, 3)
F16 = make_field(2, 4)
F9 = make_field(3, 2)

G4 = Poly(F4, (2, 1, 1))  # root-free over GF(4)
G16 = Poly(F16, (1, 1, 0, 1))  # root-free over GF(16)


def _sigma(field, a, b):
    """x -> a*x + b through Field.mul and Field.add, apart from the support walk."""
    return lambda x: field.add(field.mul(a, x), b)


def _orbit(sigma, x):
    """[x, sigma(x), sigma^2(x), ...] up to but not including the repeat."""
    orb, y = [x], sigma(x)
    while y != x:
        orb.append(y)
        y = sigma(y)
    return orb


def _order(field, sigma):
    """Smallest e >= 1 with sigma^e the identity, by iterating sigma on every point."""
    points = list(field.elements())
    images, e = [sigma(x) for x in points], 1
    while images != points:
        images, e = [sigma(y) for y in images], e + 1
    return e


def test_orbit_examples():
    """Each orbit of the walk starts at its minimal element and then follows sigma, so
    an orbit is not sorted: this order fixes the support's bytes."""
    assert choose_multiplier(F16, 3) == 6
    assert support_orbits(F16, 0, 3, G16) == [[1, 6, 7], [2, 12, 14], [3, 10, 9],
                                              [4, 11, 15], [5, 13, 8]]
    assert support_orbits(F16, 3, 5, G16, max_orbits=2) == [[0, 3, 8, 15, 2],
                                                            [1, 11, 4, 5, 13]]
    assert support_orbits(F4, 0, 3, G4) == [[1, 2, 3]]
    for b, u in ((0, 3), (3, 5), (7, 15), (9, 2)):
        sigma = _sigma(F16, choose_multiplier(F16, u), b)
        for orb in support_orbits(F16, b, u, G16):
            assert orb == _orbit(sigma, orb[0])


def test_choose_multiplier():
    assert choose_multiplier(F4, 1) == 1
    assert choose_multiplier(F4, 2) == 1  # u == q, translation realizes it
    assert choose_multiplier(F16, 3) == 6
    assert choose_multiplier(F9, 2) == 2  # the scalar -1 of GF(9)
    with pytest.raises(NoSuchOrderError):
        choose_multiplier(F4, 5)
    with pytest.raises(ValueError):
        choose_multiplier(F4, 0)


def test_choose_multiplier_scans_once_per_trial():
    # run_trial asks for the record's multiplier and build_support asks
    # again; the typed cache runs the scan once per (field, u).
    choose_multiplier.cache_clear()
    params = ParamSet(3, 6, 4, 1, 7)
    run_trial(params, 5)
    assert choose_multiplier.cache_info()[:2] == (1, 1)  # hits, misses: one scan
    run_trial(params, 6)
    assert choose_multiplier.cache_info()[:2] == (3, 1)
    F729 = make_field(3, 6)
    assert choose_multiplier(F729, 7) == run_trial(params, 5).a
    assert choose_multiplier(F4, 1) == 1
    with pytest.raises(ValueError, match="order u must be an int"):
        choose_multiplier(F4, True)  # typed: not served the cached u=1
    with pytest.raises(ValueError):
        choose_multiplier(F4, 1.0)


def test_validate_orbit_params():
    validate_orbit_params(2, 2, 1, 0)
    validate_orbit_params(2, 2, 2, 1)
    validate_orbit_params(2, 4, 5, 0)
    validate_orbit_params(3, 5, 3)  # b unknown: u alone is valid
    with pytest.raises(NoSuchOrderError, match="identity"):
        validate_orbit_params(3, 5, 3, 0)  # u = q needs b != 0
    with pytest.raises(NoSuchOrderError):
        validate_orbit_params(2, 2, 5, 1)
    with pytest.raises(ValueError, match="order u must be an int >= 1, got 0"):
        validate_orbit_params(2, 2, 0, 1)
    with pytest.raises(ValueError, match="translation b must be an int >= 0 and <= 3, got 4"):
        validate_orbit_params(2, 2, 2, 4)
    # choose_multiplier runs the same u check and gives the same message
    with pytest.raises(NoSuchOrderError, match="does not divide q\\^m - 1 = 3"):
        choose_multiplier(F4, 5)
    # u in {1, q} is admitted exactly when x -> x + b has order u
    for field in (F4, F9):
        for u in (1, field.q):
            for b in field.elements():
                if _order(field, _sigma(field, 1, b)) == u:
                    validate_orbit_params(field.q, field.m, u, b)
                else:
                    with pytest.raises(NoSuchOrderError, match="identity"):
                        validate_orbit_params(field.q, field.m, u, b)


@pytest.mark.parametrize("q, m, u, b", [(2, 4, 1, 5), (2, 4, 2, 0)])
def test_translation_order_rule_is_one_path(q, m, u, b):
    """x -> x + b has order 1 iff b = 0: every entry point rejects the same (b, u) alike."""
    with pytest.raises(NoSuchOrderError) as ref:
        validate_orbit_params(q, m, u, b)
    field = make_field(q, m)
    g = Poly(field, (1, 1, 0, 1))  # root-free over GF(16): the walk would succeed
    for build in (
        lambda: ParamSet(q, m, 3, b, u),
        lambda: build_support(field, b, u, g),
        lambda: support_orbits(field, b, u, g),
    ):
        with pytest.raises(NoSuchOrderError) as exc:
            build()
        assert str(exc.value) == str(ref.value)


def test_choose_multiplier_smallest_scan_oracle():
    # ascending scan over multiplicative orders, written independently
    u = 3
    expected = next(a for a in range(1, 16) if F16.mult_order(a) == u if a != 0)
    assert choose_multiplier(F16, u) == expected == 6


def test_build_support_examples():
    assert build_support(F4, 0, 1, G4) == [0, 1, 2, 3]
    assert build_support(F4, 1, 2, G4) == [0, 1, 2, 3]
    assert support_orbits(F4, 1, 2, G4) == [[0, 1], [2, 3]]
    assert build_support(F4, 0, 3, G4) == [1, 2, 3]


def test_build_support_deterministic():
    a = build_support(F16, 10, 3, Poly(F16, (10, 5, 10, 7)))
    b = build_support(F16, 10, 3, Poly(F16, (10, 5, 10, 7)))
    assert a == b


def test_support_properties():
    rng = random.Random(21)
    for field, u_choices in ((F8, (1, 2, 7)), (F16, (1, 2, 3, 5, 15)), (F9, (1, 2, 3, 4, 8))):
        for _ in range(10):
            u = u_choices[rng.randrange(len(u_choices))]
            b = rng.randrange(field.order)
            if u == field.q and b == 0:
                continue  # identity map, no size-u orbit
            if u == 1 and b != 0:
                continue  # x -> x + b has order q, not 1
            t = rng.randrange(2, 5)
            coeffs = [rng.randrange(field.order) for _ in range(t)]
            coeffs.append(rng.randrange(1, field.order))
            g = Poly(field, coeffs)
            try:
                orbits = support_orbits(field, b, u, g)
            except EmptySupportError:
                continue
            flat = [x for orb in orbits for x in orb]
            assert len(set(flat)) == len(flat)
            assert all(g(x) != 0 for x in flat)
            assert [orb[0] for orb in orbits] == sorted(orb[0] for orb in orbits)
            for orb in orbits:
                assert orb[0] == min(orb)
                assert len(orb) == u
            if u > 1:
                sigma = _sigma(field, choose_multiplier(field, u), b)
                assert {sigma(x) for x in flat} == set(flat)  # sigma-closed


def test_orbit_partition_of_field():
    # complete orbits, fixed points and dropped orbits tile the whole field
    field = F16
    g = Poly(field, (0, 1))  # g = x, root at 0
    u, b = 3, 0
    sigma = _sigma(field, choose_multiplier(field, u), b)
    kept = set(build_support(field, b, u, g))
    seen = set()
    dropped = set()
    for x in field.elements():
        if x in seen:
            continue
        orb = _orbit(sigma, x)
        seen.update(orb)
        if not (len(orb) == u and all(g(y) != 0 for y in orb)):
            dropped.update(orb)
    assert kept | dropped == set(field.elements())
    assert kept.isdisjoint(dropped)
    assert {x for x in field.elements() if sigma(x) == x} == {0} <= dropped


def test_empty_support():
    with pytest.raises(EmptySupportError):
        # sigma = 2x over GF(4): single candidate orbit {1,2,3} hits g's root 2
        build_support(F4, 0, 3, Poly(F4, (2, 1)))
    with pytest.raises(NoSuchOrderError, match="identity"):
        # u = q with b = 0 names the identity, which has order 1, not 2
        build_support(F4, 0, 2, G4)


def test_u1_with_roots_excluded():
    g = Poly(F16, (0, 1))  # x: excludes 0
    assert build_support(F16, 0, 1, g) == list(range(1, 16))


@pytest.mark.parametrize("field", [F4, F8, F9], ids=["GF(4)", "GF(8)", "GF(9)"])
def test_identity_support_equals_the_non_root_scan(field):
    """The identity (b = 0, u = 1) takes the orbit walk of every (b, u); its orbits are
    single points, so it keeps the old scan's support, the non-roots of g in ascending
    order, for every nonzero g of degree <= 2, with roots or without."""
    for coeffs in itertools.product(field.elements(), repeat=3):
        g = Poly(field, coeffs)
        if g.is_zero:
            continue
        scan = [x for x in field.elements() if g(x) != 0]  # the oracle
        for max_orbits in (None, 1, 3):
            assert build_support(field, 0, 1, g, max_orbits) == scan[:max_orbits], g


def test_max_orbits_filter():
    assert support_orbits(F4, 1, 2, G4, max_orbits=1) == [[0, 1]]
    assert build_support(F4, 0, 1, G4, max_orbits=2) == [0, 1]
    # the kept orbits are the first complete orbits of sigma, ordered by minimal element
    g = Poly(F16, (0, 1))  # root at 0, which sigma = 6x fixes
    sigma = _sigma(F16, choose_multiplier(F16, 3), 0)
    orbits = [_orbit(sigma, x) for x in (1, 2, 3)]
    assert support_orbits(F16, 0, 3, g, max_orbits=3) == orbits
    with pytest.raises(ValueError):
        support_orbits(F4, 1, 2, G4, max_orbits=0)


def _monic_root_free(field, t):
    """Every monic degree-t polynomial with no root in the field."""
    for low in itertools.product(range(field.order), repeat=t):
        g = Poly(field, low + (1,))
        if all(g(x) != 0 for x in field.elements()):
            yield g


def _admitted_orbit_params(field):
    """Every (b, u) whose map a*x + b has order u over the field."""
    orders = [1, field.q] + [u for u in range(2, field.order) if (field.order - 1) % u == 0]
    for u in orders:
        for b in field.elements():
            if _order(field, _sigma(field, choose_multiplier(field, u), b)) == u:
                yield b, u


def test_support_is_the_whole_field_or_misses_the_fixed_point():
    """Fact 1: for root-free g the support is GF(q^m), or GF(q^m) minus c = b/(1 - a).

    No orbit touches a root, so every complete orbit is kept.  A translation
    (u in {1, q}) has orbits of size exactly u; sigma = a*x + b with a != 1
    fixes only c, and every other orbit has size exactly u = ord(a).
    """
    cases = 0
    for field, degrees in ((F8, (2, 3)), (F9, (2, 3)), (F16, (2,))):
        whole = list(field.elements())
        params = list(_admitted_orbit_params(field))
        for t in degrees:
            for g in _monic_root_free(field, t):
                for b, u in params:
                    support = sorted(build_support(field, b, u, g))
                    if u in (1, field.q):
                        assert support == whole, (field, g, b, u)
                    else:
                        a = choose_multiplier(field, u)
                        c = field.div(b, field.sub(1, a))
                        assert support == [x for x in whole if x != c], (field, g, b, u)
                    cases += 1
    assert cases == 20_752


@pytest.mark.parametrize(
    "params, counts",
    [
        ((2, 4, 2, 10, 3), {7: 1680, 10: 120}),
        ((3, 2, 3, 5, 2), {2: 1656, 3: 264}),
        ((2, 4, 2, 0, 5), {7: 1680, 10: 120}),
        ((3, 2, 3, 0, 4), {2: 1656, 3: 264}),
    ],
)
def test_exact_census_of_a_punctured_set(params, counts):
    """Exact k counts over every monic root-free g and every eta != 0, through dimension.

    The b != 0 sets drop a fixed point c != 0 (9 in GF(16), 7 in GF(9)); the
    b = 0 sets drop c = 0 under another u.  Per field the census depends on
    neither u nor the removed point, as Fact 2 predicts when t*c = 0, which
    holds for every c here (t = q).  ROADMAP item 8 lists four more sets,
    (2,4,2,0,3), (2,4,2,7,5), (3,2,3,0,2) and (3,2,3,4,4), expected to give
    the same two censuses; at about 0.6 s per set they are not checked here.
    """
    q, m, t, b, u = params
    field = make_field(q, m)
    census = Counter()
    for g in _monic_root_free(field, t):
        support = build_support(field, b, u, g)
        census.update(dimension(CodeSpec(field, support, g, eta)) for eta in range(1, field.order))
    assert dict(census) == counts
