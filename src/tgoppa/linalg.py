"""Exact Gaussian elimination over GF(p).

GF(2) vectors travel as plain ints used as bit vectors (bit j = entry j),
so a reduction is word-level XOR.  :func:`rank_modp` packs vectors of
primes p <= 13 one residue per byte into a single int, so an update is
one big-int multiply-add and one ``bytes.translate``; larger primes and
:func:`rref_modp` use lists of residues.  A rank takes rows or columns
alike and stops once it reaches a bound the caller has proved.  All
paths must agree wherever they overlap; the test suite checks this.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence


def pack_gf2_row(row) -> int:
    """Bitmask of a 0/1 row (bit j = column j), in time linear in its length."""
    return int("".join(map(str, row))[::-1] or "0", 2)


def rank_gf2(rows, bound: int | None = None) -> int:
    """Rank of GF(2) bitmask rows or columns; stops on reaching ``bound``, a proved maximum."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            col = (row & -row).bit_length() - 1
            other = pivots.get(col)
            if other is None:
                pivots[col] = row
                if len(pivots) == bound:
                    return bound
                break
            row ^= other
    return len(pivots)


def rref_modp(rows: Iterable[Sequence[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form mod p, on a copy; returns (matrix, pivot columns)."""
    mat = [[x % p for x in row] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = pow(mat[r][c], p - 2, p)
        mat[r] = [x * inv % p for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def rank_modp(rows: Iterable[Sequence[int]], p: int, bound: int | None = None) -> int:
    """Rank mod p of a matrix of integers (any sign or size).

    For p(p - 1) < 256 (p <= 13) each row is one int with column j in
    byte j, and pivots are normalized to 1.  Eliminating entry c with a
    pivot row adds (p - c) * pivot: every byte stays below
    (p - 1) + (p - 1)^2 < 256, so no lane carries into the next, and one
    translate maps the bytes back to residues.  The pivot of a row is its
    first nonzero byte, kept in a dict as in :func:`rank_gf2`.  A row that
    is ``bytes`` is already one value per byte and is reduced by one
    translate.  As in :func:`rank_gf2`, a ``bound`` the rank cannot exceed
    ends the elimination once reached.  Larger p take the rank of
    :func:`rref_modp`, which is also the oracle, and ignore the bound.
    """
    if p * (p - 1) >= 256:
        return len(rref_modp(rows, p)[1])
    residue = bytes(x % p for x in range(256))
    inverse = [0] + [pow(c, p - 2, p) for c in range(1, p)]

    def reduced(v: int) -> int:
        lanes = v.to_bytes((v.bit_length() + 7) >> 3, "little")
        return int.from_bytes(lanes.translate(residue), "little")

    pivots: dict[int, int] = {}
    for row in rows:
        lanes = row.translate(residue) if type(row) is bytes else bytes(map(p.__rmod__, row))
        v = int.from_bytes(lanes, "little")
        while v:
            col = ((v & -v).bit_length() - 1) >> 3
            c = v >> (col << 3) & 0xFF
            other = pivots.get(col)
            if other is None:
                pivots[col] = v if c == 1 else reduced(v * inverse[c])
                if len(pivots) == bound:
                    return bound
                break
            v = reduced(v + (p - c) * other)
    return len(pivots)


def nullspace_modp(
    rows: Sequence[Sequence[int]], p: int, ncols: int
) -> list[tuple[int, ...]]:
    """Basis of {x : M x = 0} over GF(p), one vector per free column.

    Deterministic: free columns are visited in ascending order and each
    basis vector has a 1 in its own free column.
    """
    mat, pivots = rref_modp(rows, p) if rows else ([], [])
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [0] * ncols
        v[free] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-mat[i][free]) % p
        basis.append(tuple(v))
    return basis
