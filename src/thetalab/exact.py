"""Exact linear algebra over the rationals and integers.

Small, dependency-free routines used by the lattice/polarization layer.
The working routines run on Python ints: a rational matrix is cleared to
(integer matrix, common denominator) once by ``clear_denominators``, and
integer Smith normal form and a column-style Hermite reduction (a Z-basis
of a lattice from a redundant generating set) take it from there.
``Fraction`` matrices remain the API at the edge (``mat``, ``det``,
``inverse``) and the tests' reference.  Everything here is exact; no
floating point enters.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import Degenerate

Matrix = list[list[Fraction]]
Vector = list[Fraction]


def mat(rows: Iterable[Iterable]) -> Matrix:
    """Deep-convert nested iterables to a Fraction matrix."""
    return [[Fraction(x) for x in row] for row in rows]


def vec(entries: Iterable) -> Vector:
    return [Fraction(x) for x in entries]


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def transpose(A: Sequence[Sequence[Fraction]]) -> Matrix:
    return [list(col) for col in zip(*A)]


def matmul(A: Sequence[Sequence[Fraction]], B: Sequence[Sequence[Fraction]]) -> Matrix:
    Bt = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in Bt] for row in A]


def matvec(A: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> Vector:
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def det(A: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant by fraction-free-enough Gaussian elimination."""
    n = len(A)
    M = [list(map(Fraction, row)) for row in A]
    sign = 1
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if M[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            M[col], M[pivot] = M[pivot], M[col]
            sign = -sign
        p = M[col][col]
        result *= p
        for r in range(col + 1, n):
            if M[r][col]:
                f = M[r][col] / p
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return sign * result


def inverse(A: Sequence[Sequence[Fraction]]) -> Matrix:
    """Gauss-Jordan inverse; raises Degenerate on a singular matrix."""
    n = len(A)
    M = [list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(A)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if M[r][col]), None)
        if pivot is None:
            raise Degenerate("matrix is singular")
        M[col], M[pivot] = M[pivot], M[col]
        p = M[col][col]
        M[col] = [x / p for x in M[col]]
        for r in range(n):
            if r != col and M[r][col]:
                f = M[r][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return [row[n:] for row in M]


def solve(A: Sequence[Sequence[Fraction]], b: Sequence[Fraction]) -> Vector:
    return matvec(inverse(A), list(b))


def is_integral(A: Sequence[Sequence[Fraction]]) -> bool:
    return all(Fraction(x).denominator == 1 for row in A for x in row)


def scale(A: Sequence[Sequence[Fraction]], c) -> Matrix:
    c = Fraction(c)
    return [[c * x for x in row] for row in A]


def clear_denominators(A: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """(N, d) with A = N / d: d the lcm of the entries' denominators and N
    an integer matrix."""
    A = [[Fraction(x) for x in row] for row in A]
    d = math.lcm(*(x.denominator for row in A for x in row))
    return [[int(x * d) for x in row] for row in A], d


# ---------------------------------------------------------------------------
# integer normal forms


def integer_snf(A: Sequence[Sequence[int]]) -> list[int]:
    """Elementary divisors d_1 | d_2 | ... of an integer matrix.

    Classic pivoting algorithm: move the smallest nonzero entry to the
    corner, clear its row and column by division with remainder, fold any
    non-divisible entry of the remaining block into the pivot row, repeat.
    Returns nonnegative divisors including zeros for rank deficiency.
    """
    M = [[int(x) for x in row] for row in A]
    n = len(M)
    m = len(M[0]) if n else 0
    divisors: list[int] = []
    for top in range(min(n, m)):
        while True:
            best = None
            for i in range(top, n):
                for j in range(top, m):
                    if M[i][j] and (best is None or abs(M[i][j]) < abs(M[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                divisors.extend([0] * (min(n, m) - top))
                return divisors
            bi, bj = best
            M[top], M[bi] = M[bi], M[top]
            if bj != top:
                for row in M:
                    row[top], row[bj] = row[bj], row[top]
            p = M[top][top]
            dirty = False
            for i in range(top + 1, n):
                q = M[i][top] // p
                if q:
                    M[i] = [x - q * y for x, y in zip(M[i], M[top])]
                if M[i][top]:
                    dirty = True
            for j in range(top + 1, m):
                q = M[top][j] // p
                if q:
                    for i in range(top, n):
                        M[i][j] -= q * M[i][top]
                if M[top][j]:
                    dirty = True
            if dirty:
                continue
            bad = None
            for i in range(top + 1, n):
                for j in range(top + 1, m):
                    if M[i][j] % p:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            M[top] = [x + y for x, y in zip(M[top], M[bad])]
        divisors.append(abs(M[top][top]))
    return divisors


def column_lattice_basis(A: Sequence[Sequence[int]]) -> list[list[int]]:
    """Z-basis of the column span of an integer matrix, as a lower-triangular
    n x r matrix (columns are the basis vectors).

    Euclidean column reduction from the top row down; the input columns may
    be redundant.
    """
    n = len(A)
    cols = [list(c) for c in zip(*A)]
    r = 0
    for row in range(n):
        while True:
            idx = [j for j in range(r, len(cols)) if cols[j][row]]
            if len(idx) <= 1:
                break
            idx.sort(key=lambda j: abs(cols[j][row]))
            j0 = idx[0]
            for j in idx[1:]:
                q = cols[j][row] // cols[j0][row]
                cols[j] = [a - q * b for a, b in zip(cols[j], cols[j0])]
        idx = [j for j in range(r, len(cols)) if cols[j][row]]
        if idx:
            cols[r], cols[idx[0]] = cols[idx[0]], cols[r]
            r += 1
    return [[cols[j][i] for j in range(r)] for i in range(n)]


def rational_lattice_basis(generators: Sequence[Sequence[Fraction]]) -> Matrix:
    """Basis (columns) of the Z-module generated by rational column vectors.

    Clears denominators, runs the integer column reduction, restores scale.
    """
    if not generators:
        return []
    cols, denom = clear_denominators(generators)
    B = column_lattice_basis(transpose(cols))
    return [[Fraction(x, denom) for x in row] for row in B]
