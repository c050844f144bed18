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

Each spec computes its residues once, straight into t row-major rows:
row j holds the x^j coefficient of every column, as a compact stdlib
``array`` of the smallest unsigned typecode that holds q^m - 1, exposed
through a read-only ``memoryview`` because the spec caches it.  The
rows are the only cached residue form: the per-column view
``residues()`` is derived from them on each call and is not cached.

Dimension is computed over GF(q): the t x n matrix of residue
coefficients over GF(q^m) is expanded digit-wise into an mt x n matrix
over GF(q) (polynomial-basis coordinates) and eliminated exactly, so
k = n - rank.  For q = 2 the expanded rows are packed into bitmasks
straight from the residue rows, without the digit tuples.
``brute_force_dimension`` recomputes k by enumerating all q^n words
against the defining congruence and is deliberately independent of the
elimination path.
"""

from __future__ import annotations

import functools
import itertools
import sys
from array import array
from dataclasses import dataclass

from .errors import (
    EnumerationCapError,
    InternalConsistencyError,
    InvalidSpecError,
)
from .galois import Field, _check_int
from .linalg import nullspace_modp, rank_gf2, rank_modp
from .polyring import Poly, modinv

DEFAULT_ENUMERATION_CAP = 1 << 20


def _typecode(order: int) -> str:
    """Smallest unsigned ``array`` typecode that holds every encoding below order."""
    return next(c for c in "BHILQ" if order <= 1 << 8 * array(c).itemsize)


class CodeSpec:
    """One twisted Goppa code instance; validated on construction."""

    __slots__ = ("field", "support", "g", "eta", "_rows")

    def __init__(self, field: Field, support, g: Poly, eta: int):
        if g.field != field:
            raise InvalidSpecError("g must be a polynomial over the code's field")
        if g.degree < 1:
            raise InvalidSpecError("g must have degree >= 1")
        try:
            field.check(eta)
        except ValueError as exc:
            raise InvalidSpecError(str(exc)) from None
        support = tuple(support)
        if not support:
            raise InvalidSpecError("support must be nonempty")
        # One walk: range check, duplicate mark and root scan per point.
        seen = bytearray(field.order)
        bad = []
        for x in support:
            try:
                field.check(x)
            except ValueError as exc:
                raise InvalidSpecError(str(exc)) from None
            if seen[x]:
                raise InvalidSpecError("support points must be distinct")
            seen[x] = 1
            if g(x) == 0:
                bad.append(x)
        if bad:
            raise InvalidSpecError(f"g vanishes on support points {bad}")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "eta", eta)
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
        return (
            f"CodeSpec({self.field!r}, n={self.n}, g={self.g.to_string()!r}, "
            f"eta={self.eta})"
        )

    def rows(self) -> tuple[memoryview, ...]:
        """Residue coefficients row-major: rows()[j][i] is the x^j coefficient of h_i.

        Computed once, column by column, into t compact arrays; the cached
        rows are read-only.
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
        """Column residues h_i as coefficient tuples of length t.

        A column view derived from :meth:`rows` on each call, not cached;
        the ``dimension`` path never builds it.
        """
        return tuple(zip(*self.rows()))


@dataclass(frozen=True)
class ParityMatrix:
    """Residue coefficients over GF(q^m) and their GF(q) digit expansion.

    ext_rows[j][i] is the x^j coefficient of column i's residue; the ext
    rows are the spec's compact read-only rows (``CodeSpec.rows``),
    shared, not copied.  base_rows has m rows per ext row (digit l of ext
    row j lands in base row j*m + l), so base_rows is mt x n over GF(q).
    base_rows is derived from ext_rows on first access and then cached.
    """

    q: int
    m: int
    t: int
    n: int
    ext_rows: tuple[memoryview, ...]

    @functools.cached_property
    def base_rows(self) -> tuple[tuple[int, ...], ...]:
        q = self.q
        scales = [q**l for l in range(self.m)]
        return tuple(
            tuple(a // s % q for a in row) for row in self.ext_rows for s in scales
        )


def twist_residue(spec: CodeSpec, index: int) -> Poly:
    """Column residue h_i = (x - alpha_i)^-1 - eta*alpha_i^t/g(alpha_i) mod g."""
    if not 0 <= index < spec.n:
        raise IndexError(f"column index {index} out of range [0, {spec.n})")
    F = spec.field
    alpha = spec.support[index]
    base = modinv(Poly.linear(F, alpha), spec.g)
    if spec.eta == 0 or alpha == 0:
        return base
    twist = F.mul(spec.eta, F.mul(F.pow(alpha, spec.t), F.inv(spec.g(alpha))))
    return base - Poly.constant(F, twist)


def parity_matrix(spec: CodeSpec) -> ParityMatrix:
    return ParityMatrix(spec.field.q, spec.field.m, spec.t, spec.n, spec.rows())


def _packed_gf2_rows(pm: ParityMatrix):
    """base_rows of a q = 2 matrix as bitmasks (bit i = column i).

    Each compact ext row of w-bit cells is read as one little-endian int
    and formatted once as w*n bits, most significant first.  The columns
    then run from n - 1 down to 0, so bit l of every cell is the stride-w
    slice starting at w - 1 - l.  A big-endian host reads a byteswapped
    copy of the row, so that the cells are little-endian there too.
    """
    n = pm.n
    for row in pm.ext_rows:
        w = 8 * row.itemsize
        if sys.byteorder == "big":
            row = array(row.format, row)
            row.byteswap()
        bits = format(int.from_bytes(row, "little"), f"0{w * n}b")
        for l in range(pm.m):
            yield int(bits[w - 1 - l :: w] or "0", 2)


def rank(pm: ParityMatrix) -> int:
    """Exact GF(q) rank of the expanded parity matrix."""
    if pm.q == 2:
        return rank_gf2(_packed_gf2_rows(pm))
    return rank_modp(pm.base_rows, pm.q)


def dimension(spec: CodeSpec) -> int:
    """k = n - rank; always within [max(0, n - mt), n]."""
    return spec.n - rank(parity_matrix(spec))


def kernel_basis(spec: CodeSpec) -> list[tuple[int, ...]]:
    """A basis of the code over GF(q), one tuple per dimension."""
    pm = parity_matrix(spec)
    basis = nullspace_modp(pm.base_rows, pm.q, pm.n)
    if len(basis) != pm.n - rank(pm):
        raise InternalConsistencyError("nullspace size disagrees with rank")
    return basis


def is_codeword(spec: CodeSpec, word) -> bool:
    """Evaluate the defining congruence directly on a GF(q)^n word.

    Each residue row (one coefficient of x) is summed against the word
    over GF(q^m); the expanded matrix is never touched, so this can
    arbitrate between the rank and brute-force dimension routes.
    """
    word = tuple(word)
    if len(word) != spec.n:
        raise ValueError(f"word length {len(word)} != support size {spec.n}")
    q = spec.field.q
    if any(not 0 <= _check_int(c, "word entry") < q for c in word):
        raise ValueError("word entries must lie in [0, q)")
    F = spec.field
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
    total = q**n
    if total > cap:
        raise EnumerationCapError(f"q^n = {total} exceeds the enumeration cap {cap}")
    if q == 2:
        # Gray-code walk: step i toggles exactly one coordinate, so the
        # running residue sum stays current with one XOR per word.
        m = spec.field.m
        packed = [
            sum(h << (j * m) for j, h in enumerate(col)) for col in zip(*spec.rows())
        ]
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
    field = Field(data["q"], data["m"], data["modulus"])
    g = Poly.from_string(field, data["g"])
    if "t" in data and g.degree != _check_int(data["t"], "t"):
        raise InvalidSpecError(f"g has degree {g.degree}, expected t={data['t']}")
    return CodeSpec(field, data["support"], g, data["eta"])


def matrix_to_json(pm: ParityMatrix) -> dict:
    return {
        "q": pm.q,
        "m": pm.m,
        "t": pm.t,
        "n": pm.n,
        "ext_rows": [list(row) for row in pm.ext_rows],
        "base_rows": [list(row) for row in pm.base_rows],
    }
