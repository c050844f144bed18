"""Twisted Goppa codes: construction, rank, dimension, membership.

A code instance is (field, support, g, eta) with support points
alpha_1..alpha_n in GF(q^m), a degree-t polynomial g that does not
vanish on the support, and a twist element eta.  A word c in GF(q)^n
belongs to the code when

    sum_i c_i * ( (x - alpha_i)^-1  -  eta * alpha_i^t / g(alpha_i) )
        == 0   (mod g(x)).

The column residue h_i is the bracketed term reduced mod g; the twist
part is a constant, so it only shifts the degree-0 coefficient of the
classical residue.  eta == 0 recovers the classical Goppa code.

:func:`twist_residue` computes every residue, reading g(alpha_i) from the
row of values the spec keeps from validation.  ``dimension`` computes a
column's residue only when its elimination reads it.  ``CodeSpec.rows``
computes all n once, for membership, brute force, the parity matrix, JSON
and the kernel, and caches t read-only row-major rows (row j holds every
x^j coefficient) in the smallest unsigned ``array`` typecode that holds
q^m - 1; ``residues()`` derives the per-column view on each call.

Dimension is computed over GF(q): the t x n matrix of residue
coefficients over GF(q^m) is expanded digit-wise into an mt x n matrix
over GF(q) (polynomial-basis coordinates), so k = n - rank.
``dimension`` streams its columns, one residue each, into an exact
elimination that stops once the rank reaches a proved upper bound:
min(n, mt), or min(n, mt - (m - 1)) at the deviant twist eta*.  The digit
rows (``ParityMatrix.base_rows``) serve the nullspace, JSON and :func:`rank`.
``brute_force_dimension`` recomputes k by enumerating all q^n words
against the defining congruence and is deliberately independent of the
elimination path.
"""

from __future__ import annotations

import functools
import itertools
from array import array
from dataclasses import dataclass

from .errors import EnumerationCapError, InternalConsistencyError, InvalidSpecError
from .galois import Field, _check_int, _read_doc
from .linalg import nullspace_modp, rank_gf2, rank_modp
from .polyring import Poly, modinv

DEFAULT_ENUMERATION_CAP = 1 << 20


def _typecode(order: int) -> str:
    """Smallest unsigned ``array`` typecode that holds every encoding below order."""
    return next(c for c in "BHILQ" if order <= 1 << 8 * array(c).itemsize)


def _check_degree(g: Poly, t) -> None:
    """The one rule for a stated Goppa degree: t must be an int equal to deg g."""
    if _check_int(t, "t") != g.degree:
        raise InvalidSpecError(f"g has degree {g.degree}, expected t={t}")


class CodeSpec:
    """One twisted Goppa code instance; validated on construction."""

    __slots__ = ("field", "support", "g", "eta", "_g_values", "_rows")

    def __init__(self, field: Field, support, g: Poly, eta: int):
        if g.field != field:
            raise InvalidSpecError("g must be a polynomial over the code's field")
        if g.degree < 1:
            raise InvalidSpecError("g must have degree >= 1")
        support = tuple(support)
        seen = bytearray(field.order)  # 1 byte per element, not a set of n ints
        try:
            field.check(eta)
            for x in support:
                seen[field.check(x)] = 1
        except ValueError as exc:
            raise InvalidSpecError(str(exc)) from None
        if not support:
            raise InvalidSpecError("support must be nonempty")
        if seen.count(1) != len(support):
            raise InvalidSpecError("support points must be distinct")
        g_values = array(_typecode(field.order), map(g, support))  # g(alpha) once per point
        bad = [x for x, v in zip(support, g_values) if not v]
        if bad:
            raise InvalidSpecError(f"g vanishes on support points {bad}")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "_g_values", memoryview(g_values).toreadonly())
        object.__setattr__(self, "_rows", None)

    def __setattr__(self, name, value):
        raise AttributeError("CodeSpec is immutable")

    @property
    def n(self) -> int:
        return len(self.support)

    @property
    def t(self) -> int:
        return self.g.degree

    def __repr__(self) -> str:
        return f"CodeSpec({self.field!r}, n={self.n}, g={self.g.to_string()!r}, eta={self.eta})"

    def rows(self) -> tuple[memoryview, ...]:
        """Residue coefficients row-major: rows()[j][i] is the x^j coefficient of h_i.

        Computed once for all n columns by :func:`twist_residue` and cached
        read-only; ``dimension`` computes its own columns instead.
        """
        rows = self._rows
        if rows is None:
            code = _typecode(self.field.order)
            filled = [array(code, [0]) * self.n for _ in range(self.t)]
            for i in range(self.n):
                for row, c in zip(filled, twist_residue(self, i).coeffs):
                    row[i] = c
            rows = tuple(memoryview(row).toreadonly() for row in filled)
            object.__setattr__(self, "_rows", rows)
        return rows

    def residues(self) -> tuple[tuple[int, ...], ...]:
        """Column residues h_i as coefficient tuples of length t, derived from
        :meth:`rows` on each call, not cached."""
        return tuple(zip(*self.rows()))


@dataclass(frozen=True)
class ParityMatrix:
    """Residue coefficients over GF(q^m) and their GF(q) digit expansion.

    ext_rows[j][i] is the x^j coefficient of column i's residue; the ext
    rows are the spec's compact read-only rows (``CodeSpec.rows``),
    shared, not copied.  base_rows has m rows per ext row (digit l of ext
    row j lands in base row j*m + l), so base_rows is mt x n over GF(q).
    base_rows is expanded from ext_rows on first access and then cached;
    ``dimension`` never builds it.
    """

    q: int
    m: int
    t: int
    n: int
    ext_rows: tuple[memoryview, ...]

    @functools.cached_property
    def base_rows(self) -> tuple[tuple[int, ...], ...]:
        q, ext_rows = self.q, self.ext_rows
        return tuple(tuple(a // q**l % q for a in row) for row in ext_rows for l in range(self.m))


def twist_residue(spec: CodeSpec, index: int) -> Poly:
    """Column residue h_i = (x - alpha_i)^-1 - eta*alpha_i^t/g(alpha_i) mod g, g(alpha_i) from
    the spec; the twist constant (0 if eta or alpha_i is 0) edits the inverse's constant slot."""
    if not 0 <= index < spec.n:
        raise IndexError(f"column index {index} out of range [0, {spec.n})")
    F = spec.field
    alpha = spec.support[index]  # validated by CodeSpec, so no Field.check below
    base = modinv(Poly._computed(F, [F.neg(alpha), 1]), spec.g)
    twist = F.mul(spec.eta, F.mul(F.pow(alpha, spec.t), F.inv(spec._g_values[index])))
    return Poly._computed(F, [F.sub(base.coeffs[0], twist), *base.coeffs[1:]])


def parity_matrix(spec: CodeSpec) -> ParityMatrix:
    return ParityMatrix(spec.field.q, spec.field.m, spec.t, spec.n, spec.rows())


def rank(pm: ParityMatrix) -> int:
    """Exact GF(q) rank of the expanded parity matrix, by full elimination of its
    digit rows: the slow route, for the acceptance checks and the tests."""
    return rank_modp(pm.base_rows, pm.q)


def _columns(spec: CodeSpec):
    """The expanded matrix's columns, column i's residue computed only when it is pulled:
    digit l of h_i's x^j coefficient at position j*m + l (as in base row j*m + l).  A
    column is one mt-bit int for q = 2, else a tuple of mt digits."""
    q, m, t = spec.field.q, spec.field.m, spec.t
    residues = (twist_residue(spec, i).padded(t) for i in range(spec.n))
    if q == 2:
        shifts = range(0, m * t, m)
        return (sum(map(int.__lshift__, col, shifts)) for col in residues)
    powers = [q**l for l in range(m)]
    return (tuple(a // w % q for a in col for w in powers) for col in residues)


def _rank_bound(spec: CodeSpec) -> int:
    """A proved upper bound on the GF(q) rank of the expanded matrix.

    Always min(n, mt): the code is the set of c in GF(q)^n with
    sum_i c_i v_i = 0 in GF(q^m) for every v in the GF(q^m) row space of
    the t x n residue matrix H, and each of its t rows is m GF(q)-linear
    conditions.

    min(n, mt - (m - 1)) at eta* = g_t^2 / g_{t-1}, when g_{t-1} != 0.  Let
    u_j be the row (alpha_i^j / g(alpha_i))_i.  Since (x - alpha)^-1 =
    -(g(x) - g(alpha)) / ((x - alpha) g(alpha)) mod g, row j of H is
    -sum_{k>j} g_k u_{k-1-j}, less eta u_t in row 0.  Rows t-1 down to 1
    are triangular in u_0..u_{t-2} with diagonal -g_t, so they span
    U = span(u_0..u_{t-2}), and row 0 is -(g_t u_{t-1} + eta u_t) modulo U.
    At eta* that is -(g_t / g_{t-1}) (g_{t-1} u_{t-1} + g_t u_t), and
    g_{t-1} u_{t-1} + g_t u_t = 1 - sum_{k<=t-2} g_k u_k because
    g(alpha) / g(alpha) = 1.  So the row space is U plus the all-ones row.
    For c in GF(q)^n, sum_i c_i already lies in GF(q), so that row is one
    GF(q) condition, not m: rank <= m(t - 1) + 1.  (For t = 1, U = 0.)
    """
    F, g, n, mt = spec.field, spec.g, spec.n, spec.field.m * spec.t
    below = g.coefficient(spec.t - 1)
    if below and spec.eta == F.div(F.mul(g.lead, g.lead), below):
        return min(n, mt - (F.m - 1))
    return min(n, mt)


def dimension(spec: CodeSpec) -> int:
    """k = n - rank; InternalConsistencyError if k leaves [max(0, n - mt), n].  The elimination
    reads columns, one residue each, until the rank reaches :func:`_rank_bound`, or all n."""
    q, n, mt = spec.field.q, spec.n, spec.field.m * spec.t
    columns, bound = _columns(spec), _rank_bound(spec)
    k = n - (rank_gf2(columns, bound) if q == 2 else rank_modp(columns, q, bound))
    if not max(0, n - mt) <= k <= n:
        raise InternalConsistencyError(f"dimension {k} escapes [max(0, n - mt), n], n={n}, mt={mt}")
    return k


def kernel_basis(spec: CodeSpec) -> list[tuple[int, ...]]:
    """A basis of the code over GF(q), one tuple per dimension."""
    pm = parity_matrix(spec)
    basis = nullspace_modp(pm.base_rows, pm.q, pm.n)
    if len(basis) != dimension(spec):
        raise InternalConsistencyError("nullspace size disagrees with dimension")
    return basis


def is_codeword(spec: CodeSpec, word) -> bool:
    """Evaluate the defining congruence directly on a GF(q)^n word.

    Each residue row (one coefficient of x) is summed against the word
    over GF(q^m); the expanded matrix is never touched, so this can
    arbitrate between the rank and brute-force dimension routes.
    """
    F = spec.field
    word = tuple(_check_int(c, "word entry", 0, F.q - 1) for c in word)
    if len(word) != spec.n:
        raise ValueError(f"word length {len(word)} != support size {spec.n}")
    for row in spec.rows():
        acc = 0
        for c, h in zip(word, row):
            if c:
                acc = F.add(acc, h if c == 1 else F.mul(c, h))
        if acc:
            return False
    return True


def _exact_power_log(count: int, q: int) -> int:
    k = 0
    while count % q == 0:
        count //= q
        k += 1
    if count != 1:
        raise InternalConsistencyError(
            f"codeword count is not a power of {q}; a linear system's solution "
            f"set must have power-of-{q} size"
        )
    return k


def brute_force_dimension(spec: CodeSpec, cap: int = DEFAULT_ENUMERATION_CAP) -> int:
    """Dimension by full enumeration of all q^n candidate words.

    Counts the words satisfying the defining congruence, insists the
    count is an exact power of q, and returns its base-q logarithm.
    Independent oracle for :func:`dimension`.
    """
    q, n = spec.field.q, spec.n
    _check_int(cap, "enumeration cap", 1)
    if n >= cap.bit_length() or (total := q**n) > cap:  # q^n >= 2^n: skip a huge power
        raise EnumerationCapError(f"q^n = {q}^{n} exceeds the enumeration cap {cap}")
    if q == 2:
        # Gray-code walk: step i toggles exactly one coordinate, so the
        # running residue sum stays current with one XOR per word.
        m = spec.field.m
        packed = [sum(h << j * m for j, h in enumerate(col)) for col in zip(*spec.rows())]
        acc = 0
        count = 1  # the all-zero word
        for i in range(1, total):
            acc ^= packed[(i & -i).bit_length() - 1]
            if not acc:
                count += 1
    else:
        count = sum(
            1 for word in itertools.product(range(q), repeat=n) if is_codeword(spec, word)
        )
    return _exact_power_log(count, q)


def codes_equal(a: CodeSpec, b: CodeSpec) -> bool:
    """True iff the two codes have identical word sets over GF(q)."""
    if a.field.q != b.field.q:
        raise ValueError("codes live over different base fields")
    if a.n != b.n:
        raise ValueError(f"codes have different lengths ({a.n} vs {b.n})")
    if dimension(a) != dimension(b):
        return False
    return all(is_codeword(b, w) for w in kernel_basis(a))


# -- JSON interchange -------------------------------------------------------


def spec_to_json(spec: CodeSpec) -> dict:
    return {
        "q": spec.field.q,
        "m": spec.field.m,
        "t": spec.t,
        "modulus": list(spec.field.modulus),
        "support": list(spec.support),
        "g": spec.g.to_string(),
        "eta": spec.eta,
    }


def spec_from_json(data: dict) -> CodeSpec:
    *_, support, g, eta = _read_doc(data, "spec", ("q", "m", "modulus", "support", "g", "eta"),
                                    ("modulus", "support"), InvalidSpecError)
    field = Field.from_json(data)
    g = Poly.from_string(field, g)
    if "t" in data:
        _check_degree(g, data["t"])
    return CodeSpec(field, support, g, eta)


def matrix_to_json(pm: ParityMatrix) -> dict:
    return {
        "q": pm.q,
        "m": pm.m,
        "t": pm.t,
        "n": pm.n,
        "ext_rows": [list(row) for row in pm.ext_rows],
        "base_rows": [list(row) for row in pm.base_rows],
    }
