"""Exact Gaussian elimination over GF(p).

GF(2) vectors travel as plain ints used as bit vectors (bit j = entry j),
so a reduction is word-level XOR.  :func:`rank_modp` keeps vectors of any
prime as lists of residues, in an echelon basis keyed by pivot column as
:func:`rank_gf2` does; :func:`rref_modp` is its independent oracle and
serves the nullspace.  Both reject vectors of unequal length.  A rank
takes rows or columns alike and stops once it reaches a bound the caller
has proved.  All paths must agree wherever they overlap; the test suite
checks this.
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


def _residues(rows: Iterable[Sequence[int]], p: int):
    """Each vector as a list of residues mod p; ValueError on a length unlike the first's."""
    width = None
    for row in rows:
        v = [x % p for x in row]
        if width not in (None, len(v)):
            raise ValueError(f"vector of length {len(v)} after one of length {width}")
        width = len(v)
        yield v


def rref_modp(rows: Iterable[Sequence[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form mod p, on a copy; returns (matrix, pivot columns)."""
    mat = list(_residues(rows, p))
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
    """Rank mod p of equal-length vectors of integers (any sign or size), rows or columns.

    Each vector is reduced to residues and eliminated, from its first
    nonzero entry on, against a basis vector whose pivot is that column
    (normalized to 1, with zeros before it), so the first nonzero entry
    only moves right; a vector left nonzero joins the basis under its
    first nonzero column.  As in :func:`rank_gf2`, the elimination ends
    once the rank reaches ``bound``, a proved maximum.
    """
    pivots: dict[int, list[int]] = {}
    for v in _residues(rows, p):
        for col in range(len(v)):
            c = v[col]
            if not c:
                continue
            other = pivots.get(col)
            if other is None:
                inv = pow(c, p - 2, p)
                pivots[col] = [x * inv % p for x in v]
                if len(pivots) == bound:
                    return bound
                break
            v = [(x - c * y) % p for x, y in zip(v, other)]
    return len(pivots)


def nullspace_modp(
    rows: Sequence[Sequence[int]], p: int, ncols: int
) -> list[tuple[int, ...]]:
    """Basis of {x : M x = 0} over GF(p), one vector per free column.

    Deterministic: free columns are visited in ascending order and each
    basis vector has a 1 in its own free column.
    """
    mat, pivots = rref_modp(rows, p)
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
