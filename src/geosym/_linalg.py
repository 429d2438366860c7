"""Exact linear algebra over ``Fraction`` (``int`` is made one) or kernel
``Expr`` entries: one fraction-free elimination, :func:`_eliminate`, and
what is read off it, det M and M^-1 included.  Dividing by the pivots
instead cleared quadratic generators at every step: seconds to minutes
on 4 x 4 matrices over trig and root charts.  An ``Expr`` update is one
canonical normal form (``Chart.sum_products``), not one per ``*``,
``-`` and ``/``: two per update took 20 s on a dense 8 x 8 metric."""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .exprfield import Expr


def _eliminate(rows: Sequence[Sequence]):
    """Fraction-free Gauss-Jordan elimination (Bareiss): (rows, pivot
    columns, each row's divisor q, the sign of the row swaps).  A step
    with pivot p takes each row with f != 0 in the pivot column to
    (p row - f pivot_row) / q and makes p its q; a row with f = 0 waits
    until it is the pivot row, then is scaled to the last pivot d.  Every
    entry is a minor, and d the minor of the pivot rows and columns.  One
    divisor for all rows, rescaling each row at every step, took 4.0 %
    more solve_s on eh-certify (10 of 10 pairs) and 1.5 % on eh-bound."""
    m = [[Fraction(x) if isinstance(x, int) else x for x in r] for r in rows]
    d, sign, pivots = Fraction(1), 1, []
    q = [d] * len(m)
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr], q[r], q[pr], sign = m[pr], m[r], q[pr], q[r], -sign
        if q[r] is not d:
            m[r] = _scaled(m[r], d / q[r])
        p = m[r][c]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f:
                inv = 1 / q[i]
                m[i] = [_step(p, a, f, b, inv) if a or b else a for a, b in zip(m[i], m[r])]
                q[i] = p
        q[r] = d = p
        pivots.append(c)
        if len(pivots) == len(m):
            break
    return m[:len(pivots)], pivots, q, sign


def _step(p, a, f, b, inv):
    for x in (p, a, f, b):  # one normal form for an Expr entry
        if isinstance(x, Expr):
            return x.chart.sum_products([(p, a, inv), (-1, f, b, inv)])
    return (p * a - f * b) * inv


def _scaled(row: List, s) -> List:
    return [x * s if x else x for x in row]


def rref(rows: Sequence[Sequence]) -> Tuple[List[List], List[int]]:
    """Reduced row echelon form and the pivot columns, each not in the
    span of the columns before it."""
    red, pivots, q, _ = _eliminate(rows)
    return [_scaled(row, 1 / d) for row, d in zip(red, q)], pivots


def pivot_columns(rows: Sequence[Sequence]) -> List[int]:
    return _eliminate(rows)[1]  # no row divided


def rank(rows: Sequence[Sequence]) -> int:
    return len(pivot_columns(rows))


def det(rows: Sequence[Sequence]):
    """det M, the last pivot signed by the row swaps; ``Fraction(0)``
    for a singular M."""
    _, pivots, q, sign = _eliminate(rows)
    return Fraction(0) if len(pivots) < len(rows) else q[-1] if sign > 0 else -q[-1]


def det_inverse(rows: Sequence[Sequence]) -> Tuple[object, Optional[List[List]]]:
    """(det M, M^-1) off one elimination of [M | I], read like
    :func:`det`; ``(Fraction(0), None)`` for a singular M."""
    n = len(rows)
    red, pivots, q, sign = _eliminate(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)])
    if pivots != list(range(n)):
        return Fraction(0), None
    return q[-1] if sign > 0 else -q[-1], [_scaled(row[n:], 1 / x) for row, x in zip(red, q)]


def nullspace(rows: Sequence[Sequence], ncols: int) -> List[List]:
    """Basis of the right kernel, one vector per free column in column
    order; free entries are ``Fraction`` 1 and 0."""
    red, pivots = rref(rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(int(c == f)) for c in range(ncols)]
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(v)
    return basis
