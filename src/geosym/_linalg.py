"""Exact linear algebra helpers shared across modules.

Two element regimes: plain :class:`fractions.Fraction` matrices (Lie
algebra work and closure sampling; symbol ranks are taken mod p in
:mod:`geosym.prolong`) and matrices of kernel ``Expr`` values, where
zero-testing goes through the ideal reduction.  The generic routines
take an explicit ``is_zero`` predicate so both work.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple


def _default_is_zero(x) -> bool:
    return x == 0


def rref(
    rows: Sequence[Sequence],
    is_zero: Callable = _default_is_zero,
) -> Tuple[List[List], List[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices).

    Works over any exact field; rows are copied.
    """
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(m)):
            if not is_zero(m[i][c]):
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and not is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(rows: Sequence[Sequence], is_zero: Callable = _default_is_zero) -> int:
    return len(rref(rows, is_zero)[1])


def nullspace(
    rows: Sequence[Sequence],
    ncols: int,
    is_zero: Callable = _default_is_zero,
    one=Fraction(1),
) -> List[List]:
    """Basis of the right kernel of the matrix."""
    red, pivots = rref(rows, is_zero)
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


def solve(
    rows: Sequence[Sequence],
    rhs: Sequence,
    is_zero: Callable = _default_is_zero,
) -> Optional[List]:
    """One solution of A x = b, or None if inconsistent."""
    if not rows:
        return []
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug, is_zero)
    if ncols in pivots:
        return None
    zero = rhs[0] - rhs[0] if len(rhs) else Fraction(0)
    x = [zero] * ncols
    for r, p in enumerate(pivots):
        x[p] = red[r][ncols]
    return x


def independent_rows(
    rows: Sequence[Sequence],
    is_zero: Callable = _default_is_zero,
) -> List[int]:
    """Indices of a maximal linearly independent subset of rows (greedy)."""
    kept: List[List] = []
    kept_idx: List[int] = []
    pivots: List[int] = []
    for i, row in enumerate(rows):
        v = list(row)
        for krow, p in zip(kept, pivots):
            if not is_zero(v[p]):
                f = v[p]
                v = [a - f * b for a, b in zip(v, krow)]
        p = next((c for c in range(len(v)) if not is_zero(v[c])), None)
        if p is None:
            continue
        pv = v[p]
        v = [x / pv for x in v]
        kept.append(v)
        pivots.append(p)
        kept_idx.append(i)
    return kept_idx

