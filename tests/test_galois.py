import time

import pytest
from hypothesis import given, strategies as st

from tgoppa import Field, NotPrimeError, SizeCapError, galois, make_field
from tgoppa.galois import _digits, is_prime

F4 = make_field(2, 2)
F8 = make_field(2, 3)
F16 = make_field(2, 4)
F9 = make_field(3, 2)


def brute_force_divisor_exists(coeffs, q):
    """Test-local reducibility oracle: search all lower-degree monic divisors."""
    m = len(coeffs) - 1
    for d in range(1, m):
        for enc in range(q**d):
            den = _digits(enc, q, d) + [1]
            rem = list(coeffs)
            for i in range(len(rem) - 1, d - 1, -1):
                c = rem[i]
                if c:
                    rem[i] = 0
                    for j in range(d):
                        rem[i - d + j] = (rem[i - d + j] - c * den[j]) % q
            if not any(rem):
                return True
    return False


def test_canonical_moduli():
    assert make_field(2, 1).modulus == (0, 1)  # GF(2) itself, modulus x
    assert F4.modulus == (1, 1, 1)  # x^2 + x + 1
    assert F8.modulus == (1, 1, 0, 1)  # x^3 + x + 1
    assert F16.modulus == (1, 1, 0, 0, 1)  # x^4 + x + 1
    assert F9.modulus == (1, 0, 1)  # x^2 + 1


def test_canonical_modulus_is_minimal_irreducible():
    # every candidate with a smaller low-coefficient encoding is reducible
    for enc in range(3):  # encodings 0, 1, 2 precede x^4+x+1's encoding 3
        coeffs = tuple(_digits(enc, 2, 4)) + (1,)
        assert brute_force_divisor_exists(coeffs, 2)
    assert not brute_force_divisor_exists(F16.modulus, 2)


def test_make_field_rejects_non_prime():
    for q in (0, 1, 4, 6, 9):
        with pytest.raises(NotPrimeError):
            make_field(q, 2)


def test_is_prime_and_prime_factors():
    primes = [n for n in range(2000) if n > 1 and all(n % d for d in range(2, n))]
    assert [n for n in range(-3, 2000) if is_prime(n)] == primes


def test_size_cap(monkeypatch):
    assert make_field(2, 20).order == 1 << 20
    assert make_field(3, 12).order == 3**12

    def is_prime(n):
        raise AssertionError(f"primality of {n} tested before the size cap")

    monkeypatch.setattr(galois, "is_prime", is_prime)
    # (3, 10**8) would spend about a minute on 3**10**8, a 31-digit q on trial division
    start = time.perf_counter()
    for q, m in ((2, 21), (3, 13), (3, 10**8), (10**30 + 57, 1)):
        with pytest.raises(SizeCapError):
            make_field(q, m)
    assert time.perf_counter() - start < 5


def test_add_examples():
    assert F4.add(2, 3) == 1
    assert F9.add(4, 4) == 8  # digits (1,1) + (1,1) = (2,2) mod 3
    for a in F16.elements():
        assert F16.add(a, 0) == a
        assert F16.add(a, a) == 0  # characteristic 2
    assert F9.sub(4, 4) == 0
    assert F9.add(4, F9.neg(4)) == 0


def test_mul_examples():
    assert F4.mul(2, 3) == 1
    assert F4.mul(2, 2) == 3
    for a in F4.elements():
        assert F4.mul(1, a) == a


def test_inv_examples():
    assert F4.inv(1) == 1
    assert F4.inv(2) == 3
    with pytest.raises(ZeroDivisionError):
        F4.inv(0)
    for field in (F16, F9):
        for a in range(1, field.order):
            assert field.mul(a, field.inv(a)) == 1


def test_pow_examples():
    assert F4.pow(2, 0) == 1
    assert F4.pow(0, 0) == 1
    assert F4.pow(2, 3) == 1
    assert F4.pow(2, 2) == 3
    with pytest.raises(ValueError):
        F4.pow(2, -1)


def test_mult_order_examples():
    assert F4.mult_order(1) == 1
    assert F4.mult_order(2) == 3
    # exhaustive-powers oracle for the element 6 of GF(16)
    e, acc = 0, 1
    while True:
        acc = F16.mul(acc, 6)
        e += 1
        if acc == 1:
            break
    assert e == 3
    assert F16.mult_order(6) == 3
    with pytest.raises(ZeroDivisionError):
        F16.mult_order(0)


def test_mult_order_divides_group_order():
    for field in (F16, F9):
        for a in range(1, field.order):
            assert (field.order - 1) % field.mult_order(a) == 0


def test_prime_subfield_characterization():
    for field in (F16, F9, make_field(3, 3)):
        fixed = {a for a in field.elements() if field.pow(a, field.q) == a}
        assert fixed == set(range(field.q))


def test_expand_examples_and_round_trip():
    assert F16.expand(0) == (0, 0, 0, 0)
    assert F16.expand(6) == (0, 1, 1, 0)
    assert F9.expand(7) == (1, 2)
    for field in (F16, F9):
        for a in field.elements():
            assert field.from_digits(field.expand(a)) == a
    with pytest.raises(ValueError):
        F9.from_digits((1, 2, 0))


@given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15))
def test_field_axioms_gf16(a, b, c):
    F = F16
    assert F.add(a, b) == F.add(b, a)
    assert F.mul(a, b) == F.mul(b, a)
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
def test_field_axioms_gf9(a, b, c):
    F = F9
    assert F.add(a, b) == F.add(b, a)
    assert F.mul(a, b) == F.mul(b, a)
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@given(st.integers(0, 15), st.integers(0, 15))
def test_frobenius_additivity_gf16(a, b):
    F = F16
    assert F.pow(F.add(a, b), 2) == F.add(F.pow(a, 2), F.pow(b, 2))


@given(st.integers(0, 8), st.integers(0, 8))
def test_frobenius_additivity_gf9(a, b):
    F = F9
    assert F.pow(F.add(a, b), 3) == F.add(F.pow(a, 3), F.pow(b, 3))


ODD_Q_FIELDS = (F9, make_field(3, 6), make_field(5, 4), make_field(7, 1))


@given(st.data())
def test_odd_q_add_sub_neg_match_digitwise_oracle(data):
    F = data.draw(st.sampled_from(ODD_Q_FIELDS))
    a = data.draw(st.integers(0, F.order - 1))
    b = data.draw(st.integers(0, F.order - 1))
    q, da, db = F.q, F.expand(a), F.expand(b)
    assert F.add(a, b) == F.from_digits([(x + y) % q for x, y in zip(da, db)])
    assert F.sub(a, b) == F.from_digits([(x - y) % q for x, y in zip(da, db)])
    assert F.neg(a) == F.from_digits([-x % q for x in da])


def test_table_path_matches_raw_multiply():
    for field in (F16, F9):
        assert field._exp is not None  # small fields are table-backed
        for a in field.elements():
            for b in field.elements():
                assert field.mul(a, b) == field._mul_raw(a, b)


def test_check_rejects_out_of_range():
    with pytest.raises(ValueError):
        F4.check(4)
    with pytest.raises(ValueError):
        F4.check(-1)
    assert F4.check(3) == 3


def test_json_round_trip_and_custom_modulus():
    doc = F16.to_json()
    assert doc == {"q": 2, "m": 4, "modulus": [1, 1, 0, 0, 1]}
    again = Field.from_json(doc)
    assert again == F16
    # x^4 + x^3 + x^2 + x + 1 is also irreducible over GF(2): accepted
    alt = Field(2, 4, (1, 1, 1, 1, 1))
    assert alt != F16
    # x^4 + x^2 + 1 = (x^2 + x + 1)^2 is reducible: rejected
    with pytest.raises(ValueError):
        Field(2, 4, (1, 0, 1, 0, 1))
    with pytest.raises(ValueError):
        Field(2, 4, (1, 1, 0, 0, 2))  # coefficient out of range
    with pytest.raises(ValueError):
        Field(2, 4, (1, 1, 0, 1))  # wrong degree


def test_field_equality_and_cache():
    assert make_field(2, 4) is F16
    with pytest.raises(NotPrimeError):
        make_field(2.0, 4)  # equal to a cached key, but not an int
    assert Field(2, 4, (1, 1, 0, 0, 1)) == F16
