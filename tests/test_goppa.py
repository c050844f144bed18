import itertools
import json
import random
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tgoppa import (
    CodeSpec,
    EnumerationCapError,
    InternalConsistencyError,
    InvalidSpecError,
    Poly,
    brute_force_dimension,
    codes_equal,
    dimension,
    inverse_linear_residue,
    is_codeword,
    kernel_basis,
    make_field,
    matrix_to_json,
    modinv,
    parity_matrix,
    rank,
    spec_from_json,
    spec_to_json,
    twist_residue,
)
from tgoppa import goppa
from tgoppa.goppa import _exact_power_log, _rank_bound
from tgoppa.linalg import pack_gf2_row, rank_gf2, rank_modp, rref_modp

from conftest import digits_to_int, random_code_spec, random_poly_nonvanishing

F4 = make_field(2, 2)
F8 = make_field(2, 3)
F16 = make_field(2, 4)
F9 = make_field(3, 2)
F512 = make_field(2, 9)

G4 = Poly(F4, (2, 1, 1))  # x^2 + x + 2
WORKED = CodeSpec(F4, (0, 1, 2, 3), G4, 1)
WORKED0 = CodeSpec(F4, (0, 1, 2, 3), G4, 0)


def test_spec_validation():
    with pytest.raises(InvalidSpecError):
        CodeSpec(F4, (0, 0, 1), G4, 1)  # duplicate support
    with pytest.raises(InvalidSpecError):
        CodeSpec(F4, (), G4, 1)  # empty support
    with pytest.raises(InvalidSpecError):
        CodeSpec(F4, (0, 1), Poly.constant(F4, 3), 1)  # degree 0
    with pytest.raises(InvalidSpecError):
        CodeSpec(F4, (0, 2), Poly(F4, (2, 1)), 1)  # g(2) = 0
    with pytest.raises(InvalidSpecError):
        CodeSpec(F4, (0, 1), G4, 7)  # eta out of range
    with pytest.raises(InvalidSpecError):
        CodeSpec(F8, (0, 1), G4, 1)  # g over the wrong field
    for point in (4, -1, 1.0):
        with pytest.raises(InvalidSpecError, match="not an element encoding"):
            CodeSpec(F4, (0, point), G4, 1)
    with pytest.raises(InvalidSpecError, match=r"\[0, 1\]"):
        CodeSpec(F4, (0, 2, 1), Poly(F4, (0, 1, 1)), 1)  # every root is listed


def test_twist_residue_examples():
    # alpha = 0 annihilates the twist for any eta
    assert twist_residue(WORKED, 0) == modinv(Poly.x(F4), G4)
    # eta = 0 reduces to the classical residue at every column
    for i in range(4):
        assert twist_residue(WORKED0, i) == modinv(
            Poly.linear(F4, WORKED0.support[i]), G4
        )
    # alpha = 1, eta = 1: classical 3x plus twist constant 3
    assert twist_residue(WORKED, 1) == Poly(F4, (3, 3))
    with pytest.raises(IndexError):
        twist_residue(WORKED, 4)
    with pytest.raises(IndexError):
        twist_residue(WORKED, -1)


def test_parity_matrix_worked_example():
    pm = parity_matrix(WORKED)
    assert tuple(map(tuple, pm.ext_rows)) == ((3, 3, 0, 0), (3, 3, 2, 2))
    pm0 = parity_matrix(WORKED0)
    assert tuple(map(tuple, pm0.ext_rows)) == ((3, 0, 1, 3), (3, 3, 2, 2))
    assert pm.n == 4 and pm.t == 2 and pm.m == 2 and pm.q == 2
    assert len(pm.base_rows) == 4
    assert pm.base_rows == ((1, 1, 0, 0), (1, 1, 0, 0), (1, 1, 0, 0), (1, 1, 1, 1))


def test_parity_matrix_single_column():
    spec = CodeSpec(F16, (3,), Poly(F16, (2, 1, 1)), 5)
    pm = parity_matrix(spec)
    assert any(pm.ext_rows[j][0] != 0 for j in range(spec.t))
    assert dimension(spec) == 0


@st.composite
def residue_specs(draw):
    """Random CodeSpecs over q in {2, 3, 5}, fields of 4 to 729 elements, n >= 1.

    GF(2^9) and GF(3^6) need 2-byte rows, the other fields 1-byte rows.
    """
    qm = draw(st.sampled_from([(2, 2), (2, 4), (2, 9), (3, 2), (3, 6), (5, 2)]))
    F = make_field(*qm)
    t = draw(st.integers(1, 3))
    coeffs = draw(st.lists(st.integers(0, F.order - 1), min_size=t, max_size=t))
    g = Poly(F, coeffs + [draw(st.integers(1, F.order - 1))])
    drawn = draw(
        st.lists(st.integers(0, F.order - 1), min_size=1, max_size=12, unique=True)
    )
    support = [x for x in drawn if g(x) != 0]
    assume(support)
    eta = draw(st.one_of(st.just(0), st.integers(1, F.order - 1)))
    return CodeSpec(F, support, g, eta)


@settings(max_examples=100, deadline=None)
@given(residue_specs())
@example(CodeSpec(F16, (0,), Poly(F16, (1, 1, 1)), 0))  # n = 1, eta = 0, alpha = 0
@example(CodeSpec(F512, (0, 1, 300, 511), Poly(F512, (1, 1, 5)), 7))  # 2-byte rows
def test_rows_and_residues_match_twist_residue(spec):
    oracle = tuple(twist_residue(spec, i).padded(spec.t) for i in range(spec.n))
    rows = spec.rows()
    assert len(rows) == spec.t
    assert rows[0].itemsize == (1 if spec.field.order <= 256 else 2)
    for j, row in enumerate(rows):
        assert tuple(row) == tuple(col[j] for col in oracle)
    assert spec.residues() == oracle
    # independent closed form: (x - alpha)^-1 without Euclid, minus the twist constant
    F, g, t = spec.field, spec.g, spec.t
    for i, alpha in enumerate(spec.support):
        twist = F.mul(spec.eta, F.div(F.pow(alpha, t), g(alpha)))
        closed = inverse_linear_residue(alpha, g) - Poly.constant(F, twist)
        assert tuple(row[i] for row in rows) == closed.padded(t)


@settings(max_examples=60, deadline=None)
@given(residue_specs())
def test_twist_residue_is_classical_residue_minus_twist_constant(spec):
    """twist_residue edits the constant slot in place; the Poly API says the same."""
    assume(spec.eta != 0 and any(spec.support))
    F, g, t = spec.field, spec.g, spec.t
    for i, alpha in enumerate(spec.support):
        if alpha == 0:
            continue
        monomial = Poly(F, (0,) * t + (spec.eta,))  # eta * x^t
        twist = Poly.constant(F, F.div(monomial(alpha), g(alpha)))
        assert twist_residue(spec, i) == modinv(Poly.linear(F, alpha), g) - twist


def test_a_code_evaluates_g_once_per_support_point(monkeypatch):
    """Building a twisted spec over a whole field and its rows calls g n times in all:
    CodeSpec's root check evaluates it once per point and the residues reuse those."""
    g = Poly(F16, (1, 0, 1, 1))  # x^3 + x^2 + 1, root-free over GF(16)
    calls = []
    evaluate = Poly.__call__

    def counting(self, a):
        calls.append(a)
        return evaluate(self, a)

    monkeypatch.setattr(Poly, "__call__", counting)
    spec = CodeSpec(F16, F16.elements(), g, 5)
    spec.rows()
    assert sorted(calls) == list(F16.elements())  # n = 16, not 2n - 1


def test_ext_rows_are_the_specs_read_only_rows():
    pm = parity_matrix(WORKED)
    assert pm.ext_rows is WORKED.rows()
    with pytest.raises(TypeError):
        pm.ext_rows[0][0] = 1
    # past 2^16 elements the rows widen to 4 bytes
    F = make_field(2, 17)
    assert CodeSpec(F, (0, 70000), Poly(F, (1, 1, 1)), 3).rows()[0].itemsize == 4


def test_base_rows_collapse_to_ext_rows():
    rng = random.Random(42)
    for _ in range(20):
        spec = random_code_spec(rng, (F4, F8, F16, F9))
        pm = parity_matrix(spec)
        F = spec.field
        for j in range(pm.t):
            for i in range(pm.n):
                digits = [pm.base_rows[j * pm.m + l][i] for l in range(pm.m)]
                assert digits_to_int(digits, F.q) == pm.ext_rows[j][i]


def test_rank_and_dimension_worked_example():
    pm = parity_matrix(WORKED)
    assert rank(pm) == 2
    assert dimension(WORKED) == 2


def test_kernel_basis_worked_example():
    basis = kernel_basis(WORKED)
    assert len(basis) == 2
    for v in basis:
        assert is_codeword(WORKED, v)
    # columns 1 and 2 coincide, so (1,1,0,0) is a codeword
    assert is_codeword(WORKED, (1, 1, 0, 0))


def test_kernel_spans_exactly_the_brute_force_words():
    rng = random.Random(6)
    for _ in range(15):
        spec = random_code_spec(rng, (F4, F8), max_n=8)
        basis = kernel_basis(spec)
        q, n = spec.field.q, spec.n
        span = set()
        for combo in itertools.product(range(q), repeat=len(basis)):
            w = [0] * n
            for c, v in zip(combo, basis):
                for i in range(n):
                    w[i] = (w[i] + c * v[i]) % q
            span.add(tuple(w))
        assert len(span) == q ** len(basis)
        words = {
            w for w in itertools.product(range(q), repeat=n) if is_codeword(spec, w)
        }
        assert span == words


def test_is_codeword_examples_and_errors():
    assert is_codeword(WORKED, (0, 0, 0, 0))
    assert is_codeword(WORKED, (1, 1, 0, 0))
    assert not is_codeword(WORKED, (1, 0, 0, 0))
    with pytest.raises(ValueError):
        is_codeword(WORKED, (1, 1, 0))
    with pytest.raises(ValueError):
        is_codeword(WORKED, (1, 2, 0, 0))


def test_brute_force_worked_example():
    assert brute_force_dimension(WORKED) == 2
    count = sum(
        1
        for w in itertools.product((0, 1), repeat=4)
        if is_codeword(WORKED, w)
    )
    assert count == 4


def test_brute_force_gray_walk_matches_naive_loop():
    rng = random.Random(17)
    for _ in range(10):
        spec = random_code_spec(rng, (F4, F8, F16), max_n=10)
        naive = sum(
            1
            for w in itertools.product((0, 1), repeat=spec.n)
            if is_codeword(spec, w)
        )
        assert brute_force_dimension(spec) == _exact_power_log(naive, 2)


def test_brute_force_cap():
    spec = CodeSpec(F16, tuple(range(1, 16)), Poly(F16, (0, 1)), 1)
    with pytest.raises(EnumerationCapError):
        brute_force_dimension(spec, cap=2**10)


def test_brute_force_cap_checked_before_q_to_the_n():
    class Order(int):
        def __pow__(self, other):
            raise AssertionError("q**n was computed")

    huge = SimpleNamespace(field=SimpleNamespace(q=Order(5)), n=1 << 20)
    with pytest.raises(EnumerationCapError, match=r"5\^1048576"):
        brute_force_dimension(huge)


def test_exact_power_log():
    assert _exact_power_log(1, 2) == 0
    assert _exact_power_log(8, 2) == 3
    assert _exact_power_log(27, 3) == 3
    with pytest.raises(InternalConsistencyError):
        _exact_power_log(6, 2)
    with pytest.raises(InternalConsistencyError):
        _exact_power_log(12, 3)


def test_oracle_equivalence_random_specs():
    rng = random.Random(2024)
    for _ in range(25):
        spec = random_code_spec(rng, (F4, F8, F16), max_n=11)
        assert dimension(spec) == brute_force_dimension(spec)
    for _ in range(8):
        spec = random_code_spec(rng, (F9, make_field(3, 1)), max_n=6)
        assert dimension(spec) == brute_force_dimension(spec)


def test_classical_reduction_matches_oracle_columns():
    rng = random.Random(31)
    for _ in range(20):
        spec = random_code_spec(rng, (F8, F16, F9), eta_mode="zero")
        pm = parity_matrix(spec)
        for i, alpha in enumerate(spec.support):
            col = tuple(pm.ext_rows[j][i] for j in range(pm.t))
            assert col == inverse_linear_residue(alpha, spec.g).padded(pm.t)


def test_scaling_equivalence():
    # scaling g by a nonzero constant c is absorbed by dividing eta by c
    rng = random.Random(55)
    for _ in range(20):
        spec = random_code_spec(rng, (F4, F8, F16, F9), max_n=9)
        F = spec.field
        c = rng.randrange(1, F.order)
        left = CodeSpec(F, spec.support, spec.g.scale(c), spec.eta)
        right = CodeSpec(F, spec.support, spec.g, F.mul(spec.eta, F.inv(c)))
        assert codes_equal(left, right)
        assert codes_equal(right, left)


def test_permutation_invariance_of_dimension():
    rng = random.Random(99)
    for _ in range(15):
        spec = random_code_spec(rng, (F8, F16), max_n=10)
        perm = list(spec.support)
        rng.shuffle(perm)
        assert dimension(CodeSpec(spec.field, perm, spec.g, spec.eta)) == dimension(spec)


def test_codes_equal_basics():
    assert codes_equal(WORKED, WORKED)
    # eta = 1 and eta = 0 kernels differ here: (1,1,0,0) fails the classical code
    assert not is_codeword(WORKED0, (1, 1, 0, 0))
    assert not codes_equal(WORKED, WORKED0)
    with pytest.raises(ValueError):
        codes_equal(WORKED, CodeSpec(F4, (0, 1, 2), G4, 1))
    with pytest.raises(ValueError):
        codes_equal(WORKED, CodeSpec(F9, (0, 1, 2, 3), Poly(F9, (1, 1, 1)), 1))


def test_dimension_bounds_random():
    rng = random.Random(123)
    for _ in range(40):
        spec = random_code_spec(rng, (F4, F8, F16, F9))
        k = dimension(spec)
        mt = spec.field.m * spec.t
        assert max(0, spec.n - mt) <= k <= spec.n


def test_rank_gf2_agrees_with_generic_on_parity_matrices():
    rng = random.Random(14)
    from tgoppa.linalg import rank_modp

    for _ in range(10):
        spec = random_code_spec(rng, (F8, F16))
        pm = parity_matrix(spec)
        packed = rank_gf2(pack_gf2_row(r) for r in pm.base_rows)
        assert packed == rank_modp([list(r) for r in pm.base_rows], 2)


@st.composite
def gf2_specs(draw):
    """Random CodeSpecs over GF(2^2)..GF(2^6), n from 1 to the whole field.

    With t = 1 and eta != 0 the column at alpha = g_1/eta is all zero
    (its classical residue 1/(r - alpha) cancels the twist exactly), and
    a drawn flag puts that point in the support when it is admissible.
    """
    F = make_field(2, draw(st.integers(2, 6)))
    t = draw(st.integers(1, 3))
    coeffs = draw(st.lists(st.integers(0, F.order - 1), min_size=t, max_size=t))
    g = Poly(F, coeffs + [draw(st.integers(1, F.order - 1))])
    points = [x for x in F.elements() if g(x) != 0]
    support = draw(st.lists(st.sampled_from(points), min_size=1, unique=True))
    eta = draw(st.one_of(st.just(0), st.integers(1, F.order - 1)))
    if t == 1 and eta and draw(st.booleans()):
        alpha = F.div(g.lead, eta)
        if alpha in points and alpha not in support:
            support.append(alpha)
    return CodeSpec(F, support, g, eta)


@settings(max_examples=150, deadline=None)
@given(gf2_specs())
def test_rank_gf2_packing_matches_kept_oracles(spec):
    pm = parity_matrix(spec)
    r = rank(pm)
    assert r == rank_modp([list(row) for row in pm.base_rows], 2)
    assert r == rank_gf2(pack_gf2_row(row) for row in pm.base_rows)
    assert dimension(spec) == pm.n - r  # the streamed columns, zero columns included


def test_rank_gf2_packing_on_zero_column():
    g = Poly(F16, (1, 1))  # root 1
    eta = 3
    alpha = F16.div(g.lead, eta)
    spec = CodeSpec(F16, (0, alpha, 2, 5, 9), g, eta)
    pm = parity_matrix(spec)
    assert all(row[1] == 0 for row in pm.ext_rows)
    assert rank(pm) == rank_modp([list(row) for row in pm.base_rows], 2) == 4
    assert dimension(spec) == brute_force_dimension(spec) == 1


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 3), (2, 5), (3, 2), (3, 3), (5, 2)]), st.integers(0, 2**32))
def test_base_rows_equal_eager_digit_expansion(qm, seed):
    F = make_field(*qm)
    spec = random_code_spec(random.Random(seed), (F,), max_n=20)
    pm = parity_matrix(spec)
    eager = tuple(
        tuple(F.expand(pm.ext_rows[j][i])[l] for i in range(pm.n))
        for j in range(pm.t)
        for l in range(pm.m)
    )
    assert pm.base_rows == eager


def _eager_digit_rows(pm):
    F = make_field(pm.q, pm.m)
    return [[F.expand(a)[l] for a in row] for row in pm.ext_rows for l in range(pm.m)]


@st.composite
def odd_q_specs(draw):
    """Random CodeSpecs over odd-q fields, primes 3 to 17."""
    F = make_field(*draw(st.sampled_from([(3, 2), (3, 4), (5, 2), (7, 2), (13, 2), (17, 2)])))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return random_code_spec(rng, (F,), max_n=draw(st.integers(1, F.order)), t_choices=(1, 2, 3, 4))


@settings(max_examples=100, deadline=None)
@given(odd_q_specs())
def test_odd_q_rank_from_ext_rows_matches_rref(spec):
    pm = parity_matrix(spec)
    assert rank(pm) == len(rref_modp(_eager_digit_rows(pm), pm.q)[1])


@st.composite
def streamed_specs(draw):
    """Random codes for the column-streamed rank: residue rows of 1, 2 and 4 bytes
    (GF(2^17) and GF(3^12) past 2^16 elements), digits past a byte (q = 257, 263),
    random subset supports from one point to past mt, and eta = 0, random or eta*."""
    F = make_field(*draw(st.sampled_from([
        (2, 3), (2, 4), (2, 6), (2, 9), (2, 17), (3, 2), (3, 4), (3, 6), (3, 12),
        (5, 2), (7, 2), (17, 2), (257, 1), (263, 1),
    ])))
    t = draw(st.integers(1, 5))
    rng = random.Random(draw(st.integers(0, 2**32)))
    mode = draw(st.sampled_from(["zero", "random", "star"]))
    coeffs = [rng.randrange(F.order) for _ in range(t)] + [rng.randrange(1, F.order)]
    if mode == "star" and not coeffs[t - 1]:
        coeffs[t - 1] = rng.randrange(1, F.order)
    g = Poly(F, coeffs)
    size = draw(st.integers(1, min(F.order, 2 * F.m * t + 8)))
    support = [x for x in rng.sample(range(F.order), size) if g(x)]
    assume(support)
    if mode == "zero":
        eta = 0
    elif mode == "random":
        eta = rng.randrange(1, F.order)
    else:
        eta = F.div(F.mul(g.lead, g.lead), g.coefficient(t - 1))
    return CodeSpec(F, support, g, eta)


@settings(max_examples=200, deadline=None)
@given(streamed_specs())
# odd q, t = 1, a zero residue (trimmed to ()) in the first column read: h_1 = 0 at
# alpha = -g_1/eta
@example(CodeSpec(make_field(3, 1), (1, 0), Poly(make_field(3, 1), (1, 1)), 2))
def test_streamed_dimension_matches_full_elimination_and_brute_force(spec):
    q, n = spec.field.q, spec.n
    pm = parity_matrix(spec)
    k = dimension(spec)
    assert k == n - len(rref_modp(pm.base_rows, q)[1])
    if q**n <= (1 << 16 if q == 2 else 1 << 11):
        assert k == brute_force_dimension(spec)


def _tapped(rank_fn, read):
    """rank_fn, counting in read[0] the vectors it takes from its iterable."""

    def tapped(columns, *args):
        def tap():
            for column in columns:
                read[0] += 1
                yield column

        return rank_fn(tap(), *args)

    return tapped


def test_dimension_reads_columns_until_the_rank_reaches_its_bound(monkeypatch):
    """The elimination stops at the first column where the rank reaches the proved
    bound, and reads all n columns of a code whose rank stays below it."""
    rng = random.Random(21)
    specs = [WORKED, random_code_spec(random.Random(241), (make_field(3, 3),), max_n=27)]
    for F, t in ((make_field(2, 6), 3), (make_field(3, 4), 2), (make_field(17, 2), 2)):
        g = random_poly_nonvanishing(rng, F, t, ())
        while not g.coefficient(t - 1):
            g = random_poly_nonvanishing(rng, F, t, ())
        support = [x for x in F.elements() if g(x)]
        eta_star = F.div(F.mul(g.lead, g.lead), g.coefficient(t - 1))
        specs += [CodeSpec(F, support, g, eta) for eta in (0, rng.randrange(1, F.order), eta_star)]
    read, computed = [0], [0]
    monkeypatch.setattr(goppa, "rank_gf2", _tapped(rank_gf2, read))
    monkeypatch.setattr(goppa, "rank_modp", _tapped(rank_modp, read))

    def counted_residue(spec, index):
        computed[0] += 1
        return twist_residue(spec, index)

    monkeypatch.setattr(goppa, "twist_residue", counted_residue)
    exits = below = 0
    for spec in specs:
        pm, bound = parity_matrix(spec), _rank_bound(spec)
        full = rank(pm)
        read[0] = computed[0] = 0
        assert dimension(spec) == spec.n - full
        assert computed[0] == read[0]  # one residue per column read, none ahead
        if full < bound:
            below += 1
            assert read[0] == spec.n > bound
            continue
        prefix_rank = [len(rref_modp([row[:j] for row in pm.base_rows], pm.q)[1])
                       for j in range(spec.n + 1)]
        assert read[0] == prefix_rank.index(bound) < spec.n
        exits += 1
    assert (exits, below) == (9, 2)


def test_dimension_builds_no_parity_matrix(monkeypatch):
    rng = random.Random(22)
    specs = [random_code_spec(rng, (F16, F9, make_field(5, 2), make_field(257, 1)), max_n=40)
             for _ in range(12)]
    ks = [spec.n - rank(parity_matrix(spec)) for spec in specs]

    def forbidden(*args):
        raise AssertionError("dimension built the expanded matrix or the residue rows")

    for name in ("ParityMatrix", "parity_matrix", "rank"):
        monkeypatch.setattr(goppa, name, forbidden)
    monkeypatch.setattr(CodeSpec, "rows", forbidden)  # residues come one column at a time
    assert [dimension(spec) for spec in specs] == ks


def test_eta_star_rank_bound_holds_exhaustively():
    """At eta* the rank never exceeds min(n, mt - (m - 1)) (the proof is in
    ``_rank_bound``): every monic g with g_{t-1} != 0 of degree 1..3 over GF(8) and
    GF(9), and 1..2 over GF(16), on the largest support it admits, all its non-roots.
    Scaling g and eta by the same c changes no code, so monic g cover every g."""
    cases = reached = 0
    for F, degrees in ((F8, (1, 2, 3)), (F9, (1, 2, 3)), (F16, (1, 2))):
        for t in degrees:
            for low in itertools.product(F.elements(), repeat=t):
                if not low[-1]:
                    continue
                g = Poly(F, (*low, 1))
                support = [x for x in F.elements() if g(x)]
                if not support:
                    continue
                spec = CodeSpec(F, support, g, F.inv(low[-1]))  # eta* = 1^2 / g_{t-1}
                bound = _rank_bound(spec)
                assert bound == min(spec.n, F.m * t - (F.m - 1))
                full = rank(parity_matrix(spec))
                assert full <= bound, spec
                cases += 1
                reached += full == bound
    assert cases == 1494 and reached > cases // 2


def test_matrix_json_golden():
    spec = CodeSpec(F8, (0, 1, 2, 4, 5, 6, 7), Poly(F8, (3, 1, 1)), 5)
    text = json.dumps(matrix_to_json(parity_matrix(spec)), separators=(",", ":"))
    assert text == (
        '{"q":2,"m":3,"t":2,"n":7,'
        '"ext_rows":[[6,3,2,6,2,5,3],[6,6,2,1,1,4,4]],'
        '"base_rows":[[0,1,0,0,0,1,1],[1,1,1,1,1,0,1],[1,0,0,1,0,1,0],'
        '[0,0,0,1,1,0,0],[1,1,1,0,0,0,0],[1,1,0,0,0,1,1]]}'
    )


def test_spec_json_round_trip():
    doc = spec_to_json(WORKED)
    assert doc == {
        "q": 2,
        "m": 2,
        "t": 2,
        "modulus": [1, 1, 1],
        "support": [0, 1, 2, 3],
        "g": "2,1,1",
        "eta": 1,
    }
    again = spec_from_json(doc)
    assert again.support == WORKED.support
    assert again.g == WORKED.g
    assert again.eta == WORKED.eta
    assert dimension(again) == 2
    bad = dict(doc, t=3)
    with pytest.raises(InvalidSpecError):
        spec_from_json(bad)
    with pytest.raises(InvalidSpecError, match="a spec document is a JSON object, got"):
        spec_from_json([doc])


_DELETE = object()


@pytest.mark.parametrize(
    "key, value, error",
    [("modulus", 7, "'modulus' must be an array, got 7"),
     ("modulus", None, "'modulus' must be an array, got None"),
     ("support", 4, "'support' must be an array, got 4"),
     ("support", {"0": 1}, "'support' must be an array")]
    + [(key, _DELETE, f"spec document has no '{key}'")
       for key in ("q", "m", "modulus", "support", "g", "eta")],
)
def test_malformed_spec_json_raises_invalid_spec_error(key, value, error):
    """A missing key, or a modulus or support that is not an array, raises
    InvalidSpecError naming the key, not a TypeError or KeyError from the reader."""
    doc = spec_to_json(WORKED)
    if value is _DELETE:
        del doc[key]
    else:
        doc[key] = value
    with pytest.raises(InvalidSpecError, match=error):
        spec_from_json(doc)


def test_matrix_json_shape():
    doc = matrix_to_json(parity_matrix(WORKED))
    assert doc["n"] == 4 and doc["t"] == 2 and doc["m"] == 2 and doc["q"] == 2
    assert doc["ext_rows"] == [[3, 3, 0, 0], [3, 3, 2, 2]]
    assert len(doc["base_rows"]) == 4
    assert all(x in (0, 1) for row in doc["base_rows"] for x in row)


def test_membership_via_cleared_denominators():
    # independent route: multiply the congruence by prod (x - a_i) and use
    # only ring division, no modular inverses
    rng = random.Random(70)
    for _ in range(6):
        field = (F4, F8, F9)[rng.randrange(3)]
        n = rng.randrange(2, 7)
        support = rng.sample(range(field.order), n)
        g = random_poly_nonvanishing(rng, field, rng.randrange(2, 4), support)
        eta = rng.randrange(field.order)
        spec = CodeSpec(field, support, g, eta)

        D = Poly.one(field)
        for a in support:
            D = D * Poly.linear(field, a)

        def member(word):
            total = Poly.zero(field)
            twist_sum = 0
            for c, a in zip(word, support):
                if c == 0:
                    continue
                Di, rem = divmod(D, Poly.linear(field, a))
                assert rem.is_zero
                tau = field.mul(eta, field.mul(field.pow(a, spec.t), field.inv(g(a))))
                if c != 1:
                    Di = Di.scale(c)
                    tau = field.mul(c, tau)
                total = total + Di
                twist_sum = field.add(twist_sum, tau)
            return ((total - D.scale(twist_sum)) % g).is_zero

        for word in itertools.product(range(field.q), repeat=n):
            assert member(word) == is_codeword(spec, word)


@pytest.mark.parametrize("q, m, t", [(3, 4, 3), (5, 2, 2), (7, 2, 3), (3, 6, 4)])
def test_odd_q_rank_matches_rref_at_deviant_zero_and_random_twist(q, m, t):
    F = make_field(q, m)
    rng = random.Random(q * 100 + m * 10 + t)
    while True:
        g = random_poly_nonvanishing(rng, F, t, F.elements())
        if g.coefficient(t - 1):
            break
    eta_star = F.div(F.mul(g.lead, g.lead), g.coefficient(t - 1))
    support = tuple(F.elements())
    ranks = {}
    for eta in (eta_star, 0, rng.randrange(1, F.order)):
        pm = parity_matrix(CodeSpec(F, support, g, eta))
        ranks[eta] = rank(pm)
        assert ranks[eta] == len(rref_modp(pm.base_rows, q)[1])
    assert ranks[eta_star] < ranks[0]  # the deviant twist drops the rank
