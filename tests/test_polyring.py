import random

import pytest
from hypothesis import given, strategies as st

from tgoppa import (
    FieldMismatchError,
    NotInvertibleError,
    Poly,
    inverse_linear_residue,
    is_root_free,
    make_field,
    modinv,
    xgcd,
)

F2 = make_field(2, 1)
F4 = make_field(2, 2)
F8 = make_field(2, 3)
F16 = make_field(2, 4)
F9 = make_field(3, 2)

G = Poly(F4, (2, 1, 1))  # x^2 + x + 2 over GF(4), root-free


def test_normalization_and_degree():
    assert Poly(F4, (1, 2, 0, 0)).coeffs == (1, 2)
    z = Poly(F4)
    assert z.coeffs == () and z.degree == -1 and z.is_zero
    assert Poly(F4, (1,)).degree == 0
    assert Poly(F4, (0, 1)).degree == 1
    assert G.degree == 2 and G.lead == 1
    with pytest.raises(ValueError):
        Poly(F4, (4,))


def test_string_round_trip():
    assert G.to_string() == "2,1,1"
    assert Poly.from_string(F4, "2,1,1") == G
    assert Poly.from_string(F4, "0").is_zero
    assert Poly(F4).to_string() == "0"
    assert Poly.from_string(F4, "3").degree == 0
    with pytest.raises(ValueError):
        Poly.from_string(F4, "1,x")
    with pytest.raises(ValueError):
        Poly.from_string(F4, "7,1")


def test_add_and_mul_examples():
    f = Poly(F4, (1, 3, 2))
    assert f + Poly(F4) == f
    xp1 = Poly(F2, (1, 1))
    assert xp1 * xp1 == Poly(F2, (1, 0, 1))  # (x+1)^2 = x^2 + 1 in char 2
    assert -f == f  # characteristic 2


def test_field_mismatch():
    with pytest.raises(FieldMismatchError):
        Poly(F4, (0, 1)) + Poly(F8, (0, 1))
    with pytest.raises(FieldMismatchError):
        Poly(F4, (0, 1)) * Poly(F9, (0, 1))


def test_divmod_example():
    q, r = divmod(Poly(F4, (0, 0, 1)), G)  # x^2 by x^2+x+2
    assert q == Poly(F4, (1,))
    assert r == Poly(F4, (2, 1))  # x + 2
    with pytest.raises(ZeroDivisionError):
        divmod(G, Poly(F4))


def test_eval_examples():
    assert Poly(F4, (3,))(2) == 3
    assert G(0) == 2
    assert G(1) == 2


def test_xgcd_with_zero():
    f = Poly(F4, (1, 0, 2))  # lead 2
    d, u = xgcd(f, Poly(F4))
    assert d == f.scale(F4.inv(f.lead))
    assert u == Poly(F4, (F4.inv(2),))
    assert u * f == d  # h = 0: the congruence is an equality


def test_xgcd_frozen_gf2():
    f, h = Poly(F2, (0, 1, 1)), Poly(F2, (0, 1))  # x^2+x and x
    d, u = xgcd(f, h)
    assert d == Poly(F2, (0, 1))
    assert u.is_zero
    assert ((u * f - d) % h).is_zero


def test_xgcd_coprime_gf4():
    f, h = Poly(F4, (0, 1)), G
    d, u = xgcd(f, h)
    assert d == Poly(F4, (1,))
    assert ((u * f - d) % h).is_zero


def test_xgcd_both_zero():
    with pytest.raises(ValueError):
        xgcd(Poly(F4), Poly(F4))


def _random_poly(rng, field, max_deg):
    return Poly(field, [rng.randrange(field.order) for _ in range(max_deg + 1)])


@given(st.integers(0, 10**9))
def test_bezout_identity_random(seed):
    rng = random.Random(seed)
    field = (F4, F9, F8)[seed % 3]
    f = _random_poly(rng, field, rng.randrange(6))
    h = _random_poly(rng, field, rng.randrange(6))
    if f.is_zero and h.is_zero:
        return
    d, u = xgcd(f, h)
    if h.is_zero:
        assert u * f == d
    else:
        assert ((u * f - d) % h).is_zero
    assert d.lead == 1  # monic
    assert (f % d).is_zero and (h % d).is_zero


@given(st.integers(0, 10**9))
def test_products_distribute_mod_g(seed):
    rng = random.Random(seed)
    field = (F4, F9, F16)[seed % 3]
    f = _random_poly(rng, field, rng.randrange(5))
    h = _random_poly(rng, field, rng.randrange(5))
    w = _random_poly(rng, field, rng.randrange(5))
    g = Poly(field, [rng.randrange(field.order) for _ in range(3)] + [1])
    assert ((f + h) * w) % g == (f * w % g + h * w % g) % g
    assert (f * h) % g == ((f % g) * (h % g)) % g


@given(st.integers(0, 10**9))
def test_divmod_round_trip_random(seed):
    rng = random.Random(seed)
    field = (F4, F9, F16)[seed % 3]
    f = _random_poly(rng, field, rng.randrange(8))
    h = _random_poly(rng, field, rng.randrange(5))
    if h.is_zero:
        return
    q, r = divmod(f, h)
    assert q * h + r == f
    assert r.degree < h.degree


def _poly(data, field, max_deg, min_deg=-1):
    """A hypothesis-drawn polynomial of degree in [min_deg, max_deg] (-1 is zero)."""
    deg = data.draw(st.integers(min_deg, max_deg))
    if deg < 0:
        return Poly(field)
    coeffs = data.draw(st.lists(st.integers(0, field.order - 1), min_size=deg, max_size=deg))
    return Poly(field, coeffs + [data.draw(st.integers(1, field.order - 1))])


@given(st.data())
def test_modinv_is_unreduced_inverse_or_raises(data):
    """modinv's unreduced cofactor already has degree < deg g, for f of any degree."""
    field = data.draw(st.sampled_from((F2, F8, F9, make_field(5, 1))))
    f = _poly(data, field, 9)
    g = _poly(data, field, 5, min_deg=1)
    d, _ = xgcd(f, g)
    if d.degree == 0:
        u = modinv(f, g)
        assert u.degree < g.degree
        assert u * f % g == Poly(field, (1,))
    else:
        with pytest.raises(NotInvertibleError):
            modinv(f, g)


@given(st.data())
def test_sub_is_add_of_negation(data):
    """Coefficient-wise subtraction, including unequal lengths and cancelling leads."""
    field = data.draw(st.sampled_from((F2, F9, make_field(5, 2))))
    f = _poly(data, field, 6)
    h = _poly(data, field, 6)
    assert f - h == f + (-h)
    tail = _poly(data, field, 2)
    top = Poly(field, (0,) * 3 + f.coeffs)  # x^3 * f: same leads on both sides
    assert (top + tail) - top == tail
    assert top - (top + tail) == -tail


def test_public_constructors_check_coefficients():
    for bad in (4, -1, 2.0, True):
        with pytest.raises(ValueError):
            Poly(F4, (1, bad))
    with pytest.raises(ValueError):
        Poly.from_string(F4, "1,4")


@given(st.data())
def test_ring_op_results_are_normalized_field_polys(data):
    """Ring ops build their results unchecked; each equals the checked Poly of its
    coefficients and ends in a nonzero coefficient."""
    field = data.draw(st.sampled_from((F2, F4, F9, make_field(5, 2), make_field(7, 1))))
    f = _poly(data, field, 6)
    h = _poly(data, field, 4)
    c = data.draw(st.integers(0, field.order - 1))
    results = [f + h, f - h, -f, f * h, f.scale(c)]
    if not h.is_zero:
        results.extend(divmod(f, h))
    for r in results:
        assert r == Poly(field, r.coeffs)
        assert not r.coeffs or r.coeffs[-1] != 0


def test_modinv_examples():
    assert modinv(Poly(F4, (1,)), G) == Poly(F4, (1,))
    assert modinv(Poly(F4, (0, 1)), G) == Poly(F4, (3, 3))
    assert modinv(Poly(F4, (1, 1)), G) == Poly(F4, (0, 3))


def test_modinv_errors():
    with pytest.raises(ZeroDivisionError):
        modinv(Poly(F4, (0, 1)), Poly(F4))
    with pytest.raises(ValueError):
        modinv(Poly(F4, (0, 1)), Poly(F4, (2,)))
    with pytest.raises(NotInvertibleError):
        modinv(G, G)
    with pytest.raises(NotInvertibleError):
        modinv(Poly(F4), G)


def test_modinv_degree_is_exactly_t_minus_1():
    rng = random.Random(9)
    for _ in range(40):
        field = (F8, F16)[rng.randrange(2)]
        t = rng.randrange(2, 6)
        g = Poly(field, [rng.randrange(field.order) for _ in range(t)]
                 + [rng.randrange(1, field.order)])
        alpha = rng.randrange(field.order)
        if g(alpha) == 0:
            continue
        r = modinv(Poly(field, (field.neg(alpha), 1)), g)
        assert r.degree == t - 1
        assert (Poly(field, (field.neg(alpha), 1)) * r % g) == Poly(field, (1,))


def test_residue_oracle_examples():
    assert inverse_linear_residue(0, G) == Poly(F4, (3, 3))
    assert inverse_linear_residue(1, G) == Poly(F4, (0, 3))
    # degree-1 modulus: residue is a constant
    g1 = Poly(F4, (2, 1))  # x + 2
    r = inverse_linear_residue(0, g1)
    assert r.degree == 0
    assert (Poly(F4, (0, 1)) * r % g1) == Poly(F4, (1,))
    with pytest.raises(ZeroDivisionError):
        inverse_linear_residue(2, g1)  # 2 is the root of x + 2


def test_residue_oracle_matches_modinv_exhaustively():
    rng = random.Random(4)
    for field in (F4, F8, F16, F9):
        for _ in range(25):
            t = rng.randrange(1, 7)
            g = Poly(field, [rng.randrange(field.order) for _ in range(t)]
                     + [rng.randrange(1, field.order)])
            for alpha in field.elements():
                if g(alpha) == 0:
                    continue
                assert inverse_linear_residue(alpha, g) == modinv(
                    Poly(field, (field.neg(alpha), 1)), g
                )


def test_is_root_free():
    assert is_root_free(Poly(F4, (3,)))
    assert is_root_free(G)
    assert not is_root_free(Poly(F4, (2, 1)))  # linear, root 2
    assert not is_root_free(Poly(F16, (0, 0, 1)))  # x^2 has root 0
    with pytest.raises(ValueError):
        is_root_free(Poly(F4))


def test_poly_immutable_and_hashable():
    with pytest.raises(AttributeError):
        G.coeffs = (1,)
    assert hash(G) == hash(Poly(F4, (2, 1, 1)))
