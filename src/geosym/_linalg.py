"""Exact linear algebra: one elimination, :func:`rref`, and what is read
off it.

One code path for any exact field whose elements support ``bool`` (false
exactly for zero) and ``/``: :class:`fractions.Fraction` matrices (Lie
algebra work, and the integer coefficient rows of closure, whose ``int``
entries :func:`rref` makes ``Fraction``; symbol ranks are taken mod p in
:mod:`geosym.prolong`) and matrices of kernel ``Expr`` values, whose
zero test is their normal form.  :func:`rank` counts the pivots and
:func:`nullspace` reads a kernel basis off the reduced rows.  There is
no separate solver: A x = b is asked as the kernel of [A | -b], whose
vector with last entry 1 is a solution (:func:`geosym.liealg.vanishing_locus`),
and coordinates in a basis are the non-pivot columns of one reduced
matrix (:func:`geosym.liealg.closure_from_fields`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple


def rref(rows: Sequence[Sequence]) -> Tuple[List[List], List[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices).

    Works over any exact field; rows are copied, with ``int`` entries
    made ``Fraction`` so that ``/`` stays exact.  A column is a pivot
    exactly when it is not in the span of the columns before it.
    """
    m = [[Fraction(x) if isinstance(x, int) else x for x in r] for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(rows: Sequence[Sequence]) -> int:
    return len(rref(rows)[1])


def nullspace(rows: Sequence[Sequence], ncols: int) -> List[List]:
    """Basis of the right kernel of the matrix, one vector per free
    column in column order; free entries are ``Fraction`` 1 and 0."""
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(v)
    return basis
