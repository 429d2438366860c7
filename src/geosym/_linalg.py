"""Exact linear algebra helpers shared across modules.

One code path for any exact field whose elements support ``bool`` (false
exactly for zero) and ``/``: :class:`fractions.Fraction` matrices (Lie
algebra work, and the integer coefficient rows of closure, whose ``int``
entries :func:`rref` makes ``Fraction``; symbol ranks are taken mod p in
:mod:`geosym.prolong`) and matrices of kernel ``Expr`` values, whose
zero test is their normal form.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple


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


def nullspace(rows: Sequence[Sequence], ncols: int, one=Fraction(1)) -> List[List]:
    """Basis of the right kernel of the matrix."""
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    zero = one - one
    for f in free:
        v = [zero] * ncols
        v[f] = one
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(v)
    return basis


def solve(rows: Sequence[Sequence], rhs: Sequence) -> Optional[List]:
    """One solution of A x = b, or None if inconsistent."""
    if not rows:
        return []
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    if ncols in pivots:
        return None
    zero = rhs[0] - rhs[0] if len(rhs) else Fraction(0)
    x = [zero] * ncols
    for r, p in enumerate(pivots):
        x[p] = red[r][ncols]
    return x
