import random
import time

import pytest
from hypothesis import given, strategies as st

from tgoppa import Field, NotPrimeError, SizeCapError, galois, make_field
from tgoppa.galois import _digits, is_prime

from conftest import digits_to_int

F4 = make_field(2, 2)
F8 = make_field(2, 3)
F16 = make_field(2, 4)
F9 = make_field(3, 2)


def brute_force_divisor_exists(coeffs, q, max_degree=None):
    """Test-local reducibility oracle: search all monic divisors of degree
    1 .. max_degree (default m - 1; m // 2 already decides reducibility)."""
    m = len(coeffs) - 1
    for d in range(1, (m - 1 if max_degree is None else max_degree) + 1):
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


def test_ben_or_matches_divisor_search_exhaustively():
    for q, degrees in ((2, range(2, 9)), (3, range(2, 6)), (5, (2, 3)), (7, (2, 3))):
        for m in degrees:
            for enc in range(q**m):
                coeffs = tuple(_digits(enc, q, m)) + (1,)
                irreducible = not brute_force_divisor_exists(coeffs, q)
                assert galois._is_irreducible(coeffs, q) == irreducible, coeffs


def _trial_division_modulus(q, m):
    """The first monic degree-m polynomial, by encoding, with no divisor of degree <= m/2."""
    for enc in range(q**m):
        coeffs = tuple(_digits(enc, q, m)) + (1,)
        if not brute_force_divisor_exists(coeffs, q, m // 2):
            return coeffs


def test_canonical_moduli_match_trial_division_scan():
    for q, m in SMALL_TABLE_FIELDS + [(2, 16), (2, 20), (3, 10), (251, 2)]:
        assert galois._canonical_modulus(q, m) == _trial_division_modulus(q, m), (q, m)


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
    for n in range(1, 2000):
        assert galois._prime_factors(n) == [p for p in primes if n % p == 0], n


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


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _divisor_scan_order(F, a, divisors):
    """Smallest d in divisors (those of q^m - 1, ascending) with a^d = 1, by raw
    powers: the oracle of mult_order and of the table generator."""
    return next(d for d in divisors if F._pow_raw(a, d) == 1)


def test_mult_order_matches_divisor_scan_exhaustively():
    for F in (F16, make_field(3, 3), make_field(7, 2)):
        divisors = _divisors(F.order - 1)
        for a in range(1, F.order):
            assert F.mult_order(a) == _divisor_scan_order(F, a, divisors), (F, a)


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
            assert digits_to_int(field.expand(a), field.q) == a


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
    assert F.add(a, b) == digits_to_int([(x + y) % q for x, y in zip(da, db)], q)
    assert F.sub(a, b) == digits_to_int([(x - y) % q for x, y in zip(da, db)], q)
    assert F.neg(a) == digits_to_int([-x % q for x in da], q)


@pytest.mark.parametrize("qm", [(3, 2), (5, 2), (3, 3), (7, 2)])
def test_zech_add_sub_neg_match_digitwise_exhaustively(qm):
    F = make_field(*qm)
    assert F._zech is not None  # odd-q table fields add through Zech logs
    for a in F.elements():
        assert F.neg(a) == F._digitwise(0, a, -1)
        assert F.add(a, F.neg(a)) == 0 and F.sub(a, a) == 0
        for b in F.elements():  # includes a = -b, a = b and zero operands
            assert F.add(a, b) == F._digitwise(a, b, 1)
            assert F.sub(a, b) == F._digitwise(a, b, -1)


def test_odd_field_above_table_cap_adds_through_digit_loop(monkeypatch):
    F = make_field(3, 11)
    assert F.order > galois._TABLE_CAP and F._exp is None and F._zech is None
    calls = []
    digitwise = galois.Field._digitwise

    def spy(self, a, b, sign):
        calls.append(sign)
        return digitwise(self, a, b, sign)

    monkeypatch.setattr(galois.Field, "_digitwise", spy)
    rng = random.Random(311)
    for _ in range(50):
        a, b = rng.randrange(F.order), rng.randrange(F.order)
        da, db = F.expand(a), F.expand(b)
        assert F.add(a, b) == digits_to_int([(x + y) % 3 for x, y in zip(da, db)], 3)
        assert F.sub(a, b) == digits_to_int([(x - y) % 3 for x, y in zip(da, db)], 3)
        assert F.neg(a) == digits_to_int([-x % 3 for x in da], 3)
    assert calls.count(1) == 50 and calls.count(-1) == 100


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
    """Field.from_json is make_field(q, m) of a document that states the canonical
    modulus in integer cells; no other modulus configures a field."""
    doc = F16.to_json()
    assert doc == {"q": 2, "m": 4, "modulus": [1, 1, 0, 0, 1]}
    assert Field.from_json(doc) is F16
    assert galois._is_irreducible((1, 1, 1, 1, 1), 2)  # x^4 + x^3 + x^2 + x + 1
    for modulus, error in [
        ((1, 1, 1, 1, 1), "not the canonical"),  # irreducible, but not the canonical one
        ((1, 0, 1, 0, 1), "not the canonical"),  # (x^2 + x + 1)^2, reducible
        ((1, 1, 0, 1), "not the canonical"),  # wrong degree
        ((1, 1, 0, 0, 2), "modulus coefficient must be an int >= 0 and <= 1, got 2"),
        ((1, 1, 0, 0, True), "modulus coefficient must be an int"),  # True == 1
        ((1.0, 1, 0, 0, 1), "modulus coefficient must be an int"),  # 1.0 == 1
    ]:
        with pytest.raises(ValueError, match=error):
            Field.from_json({**doc, "modulus": list(modulus)})
    with pytest.raises(TypeError):
        Field(2, 4, (1, 1, 0, 0, 1))  # no modulus parameter


def test_field_equality_and_cache():
    assert make_field(2, 4) is F16
    with pytest.raises(NotPrimeError):
        make_field(2.0, 4)  # equal to a cached key, but not an int
    assert Field(2, 4) == F16


def _raw_generator(F):
    """The smallest encoding c >= 2 of multiplicative order q^m - 1, by divisor scans."""
    span = F.order - 1
    divisors = _divisors(span)
    return next(c for c in range(2, F.order) if _divisor_scan_order(F, c, divisors) == span)


def _raw_orbit_tables(F):
    """Reference exp, log and Zech lists of F: one _mul_raw step per element."""
    span = F.order - 1
    gen = _raw_generator(F)
    exp = [1]
    for _ in range(span - 1):
        exp.append(F._mul_raw(exp[-1], gen))
    log = [0] * F.order
    for i, e in enumerate(exp):
        log[e] = i
    zech = None
    if F.q != 2:
        zech = [-1 if s == 0 else log[s] for s in (F._digitwise(1, e, 1) for e in exp)]
        zech += zech
    return exp + exp, log, zech


SMALL_TABLE_FIELDS = [
    (q, m)
    for q in range(2, 64)
    if is_prime(q)
    for m in range(2, 13)
    if q**m <= 1 << 12
]


def test_tables_equal_raw_multiply_orbit_exhaustively():
    assert len(SMALL_TABLE_FIELDS) == 40 and (61, 2) in SMALL_TABLE_FIELDS
    for q, m in SMALL_TABLE_FIELDS:
        F = make_field(q, m)
        assert (F._exp, F._log, F._zech) == _raw_orbit_tables(F), F


@pytest.mark.parametrize("qm", [(2, 16), (3, 10), (13, 4), (251, 2), (2, 14)])
def test_tables_match_raw_powers_on_large_fields(qm):
    F = make_field(*qm)
    span = F.order - 1
    gen = F._exp[1]
    assert gen == _raw_generator(F)
    assert len(F._exp) == 2 * span and F._exp[span:] == F._exp[:span]
    assert F._mul_raw(F._exp[span - 1], gen) == 1  # the orbit closes at 1
    rng = random.Random(F.order)
    for i in [0, 1, span >> 1, span - 1] + rng.sample(range(span), 40):
        e = F._exp[i]
        assert e == F._pow_raw(gen, i) and F._log[e] == i
        assert F._exp[i + 1] == F._mul_raw(e, gen)
        if F.q != 2:
            s = F._digitwise(1, e, 1)
            assert F._zech[i] == F._zech[i + span] == (-1 if s == 0 else F._log[s])


def test_generators_other_than_x():
    # x is not primitive in GF(5^4) or GF(2^14), so the walk multiplies by
    # x + 1 and x^2 + x + 1; both fields are also in the tests above.
    for (q, m), gen in (((5, 4), 6), ((2, 14), 7)):
        F = make_field(q, m)
        assert F._exp[1] == gen == _raw_generator(F)
        assert F.mult_order(q) < F.order - 1  # the encoding of x


@pytest.mark.parametrize("qm", [(3, 6), (2, 14)])
def test_table_build_multiplies_half_tables_not_every_element(monkeypatch, qm):
    q, m = qm
    calls = {"all": 0, "search": 0}
    in_search = []
    mul_raw, pow_raw = galois.Field._mul_raw, galois.Field._pow_raw

    def counting_mul_raw(self, a, b):
        calls["all"] += 1
        calls["search"] += bool(in_search)
        return mul_raw(self, a, b)

    def counting_pow_raw(self, a, e):  # only the generator test powers during a build
        in_search.append(a)
        try:
            return pow_raw(self, a, e)
        finally:
            in_search.pop()

    monkeypatch.setattr(galois.Field, "_mul_raw", counting_mul_raw)
    monkeypatch.setattr(galois.Field, "_pow_raw", counting_pow_raw)
    F = Field(q, m)
    h = (m + 1) // 2
    assert calls["all"] - calls["search"] == q**h + q ** (m - h)  # the two product tables
    assert calls["all"] < F.order // 3  # generator search included
