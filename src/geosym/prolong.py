"""Prolongation–projection engine for linear homogeneous PDE systems.

Systems are linear in the jet coordinates X^a_alpha of the unknown
vector-field components, with polynomial coefficients (each equation
times the lcm of its denominators, a common factor of its coefficients
kept).  Prolongation appends total derivatives;
symbol dimensions are computed by elimination mod a prime of the system
evaluated at seeded :class:`~geosym.exprfield.GenericPoint` s, graded by
jet order with the highest order eliminated first.  Each point carries
its prime: 2^61 - 1, or the first prime below it at which the seed's
stream has a point whose root radicands are nonzero squares.
:func:`prolong` differentiates symbolically; :func:`solution_bound`
never does: a prolonged row is the pair (E, beta) of an equation and a
multi-index, and the row of D^beta E at a point comes from the Taylor
coefficients of E's coefficients there
(:class:`~geosym.exprfield.TaylorMap`).  Equations compare by
identity, so any list of equations is a system, a concatenation of two
systems included.

Rows are sparse dicts from integer column codes to residues
(:class:`_Columns`): the code of X^a_alpha is
-|alpha| m B^n + a B^n + sum_i alpha_i B^(n-1-i), for n coordinates, m
unknowns and B above every jet order met, so codes sort like the graded
keys (-|alpha|, a, alpha) and the column of X^a_(alpha+beta-gamma) is
that of X^a_alpha plus a shift fixed by beta - gamma.  The elimination
(:class:`_GradedElimination`) keeps its stored rows in reduced row
echelon form (RREF): no stored tail holds a pivot column.  A new row is
reduced in one pass over its own keys, and its pivot is then cleared
from the stored tails that hold it, found through an index from each
non-pivot column to the stored rows that hold it.  Tail entries stay integers congruent to
their residues until they are read as a multiplier.  The RREF of a row
space is unique and its pivot set is the column rank profile; an
order-preserving relabelling of the columns and a later reduction mod p
change neither, so pivots, ranks and tables are those of elimination on
the graded keys with every step reduced.

:func:`solution_bound` adds each batch of rows lowest jet order first:
in descending order of the leading code read from each row (E, beta)
(the least code of E's coefficients plus that of beta).  New pivots
then appear from the largest code down, so a stored tail, which holds
only codes above its own pivot, seldom holds a new pivot, and little
back-substitution is left.  The order changes no pivot at one point,
since the RREF is unique.  It does change which dependent rows are
dropped, and so which rows the next stage differentiates; but any
retained set has the same prolonged span over the function field, so
the tables at a generic point do not change, and at any point the bound
stays an upper bound by the argument below.

Soundness of the elimination mod p.  The Taylor map at a point, to
order K and mod its prime p, is a ring homomorphism from the coordinate
ring, whose coefficients are integers, to GF(p)[[t]] / m^(K+1), and it
commutes with each d/dx_i up to the truncation.  Its constant term is
evaluation at the point.  So the row of D^beta E it gives, for
|beta| <= K, is the image of the true prolonged row.  A homomorphic
image of a matrix has rank at most the rank of the matrix, so each rank
can only drop, each dim g_k can only grow, and the bound stays an upper
bound.  Dropping an equation that is dependent mod p at
every point can also only loosen the bound.  None of this depends on
how likely a point is to be generic; only the tightness of the bound
does.  The sample values come from small sets, so a nonzero polynomial
vanishes at a point with probability up to
sum_x deg_x / 18 + sum_pairs 2 deg_pair / 9, not deg/p
(:class:`~geosym.exprfield.GenericPoint`); the tables are taken at
several points.  A common factor of an equation's coefficients is one
more polynomial that may vanish at a point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import comb, perm, prod
from typing import Dict, List, Optional, Sequence, Tuple

from .exprfield import (_ONE, PRIME, Chart, Expr, ExprError, GenericPoint, Poly, TaylorMap,
                        _clear_denominators, _derivation_rules, _poly_total_derivative)

JetKey = Tuple[int, Tuple[int, ...]]  # (unknown index, derivative exponents)


class ProlongError(ExprError):
    pass


@dataclass(eq=False)
class Equation:
    """One linear homogeneous equation sum c_{a,alpha} X^a_alpha = 0.

    Each coefficient c_{a,alpha} is a :class:`~geosym.exprfield.Poly` in
    the chart's variables, reduced modulo the generator relations.  An
    equation is multiplied by the lcm of its coefficients' denominators
    once, when built, and stays polynomial under total derivatives.  Its
    coefficients may share a polynomial factor, and a derived row of
    :func:`prolong` may carry one: multiplying an equation by a nonzero
    function changes neither its solution space nor its symbol spaces
    over the function field.

    Equations compare and hash by identity, so the row of D^beta E is
    the pair (E, beta) itself, and two systems over one chart join by
    concatenating their lists of equations.
    """

    coeffs: Dict[JetKey, Poly]

    @property
    def order(self) -> int:
        return max((sum(alpha) for (_, alpha) in self.coeffs), default=0)

    def evaluate_sparse(self, beta: Tuple[int, ...], taylor: TaylorMap,
                        columns: _Columns) -> Dict[int, int]:
        """Row of the total derivative D^beta of this equation at the point
        of ``taylor`` in GF(taylor.prime), keyed by the integer column code
        of ``columns``, whose order is the order of elimination.

        By Leibniz, D^beta (c X^a_alpha) is the sum over gamma <= beta of
        beta!/(beta-gamma)! T_gamma(c) X^a_(alpha+beta-gamma), where
        T_gamma(c) is the Taylor coefficient of c at the point: ``taylor``,
        the point's :class:`~geosym.exprfield.TaylorMap` of order |beta|
        at least, supplies it.  With beta = 0 this is c(point) X^a_alpha.
        The code of X^a_(alpha+beta-gamma) is the code of X^a_alpha plus a
        shift that depends on beta - gamma only; the codes of X^a_alpha
        are those of :meth:`_Columns.coded`, taken once per equation."""
        prime = taylor.prime
        order, _, terms = columns.coded(self)
        if order + sum(beta) >= columns.base:
            raise ProlongError("jet order beyond the column coding")
        shifts = columns.shifts(beta)
        row: Dict[int, int] = {}
        for key, c in terms:
            jet = taylor(c)
            for gamma, weight, delta in shifts:
                t = jet.get(gamma)
                if t:
                    k = key + delta
                    row[k] = row.get(k, 0) + weight * t
        return {k: r for k, v in row.items() if (r := v % prime)}


class _Columns:
    """Integer codes of the jet coordinates X^a_alpha (n coordinates, m
    unknowns, orders below ``base`` B):

        code(a, alpha) = -|alpha| m B^n + a B^n + sum_i alpha_i B^(n-1-i).

    Each alpha_i is below B, so the last sum is a base-B numeral below
    B^n and a below m: codes sort exactly like the keys
    (-|alpha|, a, alpha), highest order first, and the order is
    -(code // (m B^n)).  The code is linear in alpha, so the column of
    X^a_(alpha+beta-gamma) is code(a, alpha) + code(0, beta-gamma).
    """

    def __init__(self, n: int, m: int, top: int):
        self.base = top + 1  # every jet order met is at most ``top``
        self._radix = tuple(self.base ** (n - 1 - i) for i in range(n))
        self._block = self.base ** n
        self._unit = m * self._block
        self._shifts: Dict[Tuple[int, ...], Tuple[Tuple[Tuple[int, ...], int, int], ...]] = {}
        self._coded: Dict[Equation, Tuple[int, int, Tuple[Tuple[int, Poly], ...]]] = {}

    def code(self, a: int, alpha: Sequence[int]) -> int:
        return (-sum(alpha) * self._unit + a * self._block
                + sum(x * r for x, r in zip(alpha, self._radix)))

    def coded(self, eq: Equation) -> Tuple[int, int, Tuple[Tuple[int, Poly], ...]]:
        """(order, leading code, ((code(a, alpha), c_{a,alpha}), ...)) of
        ``eq``, computed once per equation.  The leading code is the least
        code of its coefficients (0 for an equation without any)."""
        entry = self._coded.get(eq)
        if entry is None:
            terms = tuple((self.code(a, alpha), c) for (a, alpha), c in eq.coeffs.items())
            lead = min((k for k, _ in terms), default=0)
            entry = self._coded[eq] = (eq.order, lead, terms)
        return entry

    def lead(self, row: Row) -> int:
        """Leading column code of the row (E, beta) of D^beta E: E's
        leading code plus code(0, beta), the code of X^a_(alpha+beta)
        for E's leading X^a_alpha.  At a point where E's leading
        coefficient vanishes the row's actual leading code is larger."""
        eq, beta = row
        return self.coded(eq)[1] + self.code(0, beta)

    def order(self, code: int) -> int:
        return -(code // self._unit)

    def shifts(self, beta: Tuple[int, ...]) -> Tuple[Tuple[Tuple[int, ...], int, int], ...]:
        """The Leibniz terms of D^beta: (gamma, beta!/(beta-gamma)!,
        code(0, beta-gamma)) for each multi-index gamma <= beta, the last
        entry being the shift the term adds to a column code."""
        out = self._shifts.get(beta)
        if out is None:
            out = self._shifts[beta] = tuple(
                (gamma, prod(perm(b, g) for b, g in zip(beta, gamma)),
                 self.code(0, [b - g for b, g in zip(beta, gamma)]))
                for gamma in product(*(range(b + 1) for b in beta)))
        return out


class LinearPDESystem:
    """Immutable bundle of equations over one chart."""

    def __init__(self, chart: Chart, n_unknowns: int, equations: Sequence[Equation]):
        self.chart = chart
        self.n_unknowns = n_unknowns
        self.equations = list(equations)

    @property
    def order(self) -> int:
        return max((e.order for e in self.equations), default=0)

    def __len__(self):
        return len(self.equations)

    @staticmethod
    def from_coefficient_maps(chart: Chart, n_unknowns: int,
                              maps: Sequence[Dict[JetKey, Expr]]) -> "LinearPDESystem":
        """One equation per nonzero map: its coefficients times the lcm
        of their denominators (:func:`_clear_denominators`)."""
        eqs = []
        for m in maps:
            nonzero = {k: v for k, v in m.items() if not v.is_zero()}
            if nonzero:
                _, nums = _clear_denominators(chart, list(nonzero.values()))
                eqs.append(Equation(dict(zip(nonzero, nums))))
        return LinearPDESystem(chart, n_unknowns, eqs)


def _total_derivative(chart: Chart, eq: Equation, i: int) -> Dict[JetKey, Poly]:
    """Coefficients of s * D_i(eq), where s clears the denominators of
    the generator derivation rules (s = 1 without root generators)."""
    s, rules = _derivation_rules(chart, chart.coordinates[i], eq.coeffs.values())
    out: Dict[JetKey, Poly] = {}
    for (a, alpha), c in eq.coeffs.items():
        dc = _poly_total_derivative(chart, c, rules)
        out[(a, alpha)] = out.get((a, alpha), Poly()) + dc
        up = list(alpha)
        up[i] += 1
        out[(a, tuple(up))] = out.get((a, tuple(up)), Poly()) + s * c
    out = {k: chart._reduce_poly(p) for k, p in out.items() if p}
    return {k: p for k, p in out.items() if p}


Row = Tuple[Equation, Tuple[int, ...]]  # (equation, beta): the row of D^beta of it


def _next_derivatives(frontier: Sequence[Row]) -> List[Row]:
    """The first total derivatives of the frontier rows, each once: a
    mixed partial reached along two paths is one row (E, beta)."""
    seen = set()
    out = []
    for eq, beta in frontier:
        for i in range(len(beta)):
            row = (eq, beta[:i] + (beta[i] + 1,) + beta[i + 1:])
            if row not in seen:
                seen.add(row)
                out.append(row)
    return out


def prolong(system: LinearPDESystem, order: int) -> LinearPDESystem:
    """The system's equations, then each total derivative D^beta E of
    one of them with 1 <= |beta| <= order, once each, lowest |beta|
    first.  D^beta E is D_i of D^(beta - e_i) E for the first i with
    beta_i > 0, taken on the polynomial row, so it is the true one times
    a product of the polynomials s of :func:`_total_derivative`."""
    chart, eqs = system.chart, system.equations
    zero = (0,) * chart.dim
    derived = {(e, zero): e for e in eqs}
    frontier = list(derived)
    out = list(eqs)
    for _ in range(order):
        frontier = _next_derivatives(frontier)
        for eq, beta in frontier:
            i = next(j for j, b in enumerate(beta) if b)
            parent = derived[eq, beta[:i] + (beta[i] - 1,) + beta[i + 1:]]
            derived[eq, beta] = Equation(_total_derivative(chart, parent, i))
            out.append(derived[eq, beta])
    return LinearPDESystem(chart, system.n_unknowns, out)


@dataclass
class SymbolTable:
    """Symbol dimensions dim g_k at one prolongation stage.

    ``dims`` is ordered top jet order first, matching the printed
    tables (g_M, ..., g_0)."""

    stage: int
    dims: Tuple[int, ...]

    @property
    def top_order(self) -> int:
        return len(self.dims) - 1

    def dim(self, k: int) -> int:
        return self.dims[self.top_order - k]

    def total(self) -> int:
        return sum(self.dims)


class _GradedElimination:
    """Incremental reduced row echelon form (RREF) over sparse GF(prime)
    rows keyed by the integer column codes of :class:`_Columns`,
    smallest code (highest jet order) eliminated first.

    ``rows`` maps each pivot to the rest of its stored row, a dict from
    key to entry; the pivot entry is 1.  The invariant is that no stored
    tail holds a pivot key, so a new row is reduced by one pass over its
    own keys, and a new pivot is cleared from the stored tails that hold
    it (back-substitution).  ``_holders`` names those tails: for each
    column that is not a pivot, the pivots whose tails hold it, appended
    to as tails gain the column and dropped when it becomes a pivot.
    Tail entries are integers congruent to their residues, reduced when
    read as a multiplier, so an entry may read 0.

    The RREF of a row space is unique and its pivot set is the column
    rank profile: a column is a pivot exactly when it enlarges the rank
    of the leading column block.  So the pivots, rank and tables depend
    only on the row space, not on the order the rows arrive in.  The
    cost does depend on it: back-substitution touches the stored tails
    that hold the new pivot, and those hold only codes above their own
    pivots.  Rows that arrive largest leading code first (lowest jet
    order first, as :func:`solution_bound` adds them) mostly find new
    pivots below the stored ones, which no stored tail holds.
    """

    def __init__(self, prime: int, columns: _Columns):
        self.prime = prime
        self.columns = columns
        self.rows: Dict[int, Dict[int, int]] = {}
        self._holders: Dict[int, List[int]] = {}

    def add(self, row: Dict[int, int]) -> Optional[int]:
        """Reduce the row (integers, read mod the prime); store it (pivot
        entry 1) and return its pivot key, or return None if it is
        dependent on the rows seen so far.

        Each key of the row that is a pivot contributes its entry times
        that pivot's tail, every other key is copied, and the sum is
        reduced mod the prime once: stored tails hold no pivot key, so
        the result is zero on every pivot and its least key is the new
        pivot.  The new row, scaled to pivot entry 1, is then subtracted
        from each stored tail that holds its pivot."""
        prime, rows, holders = self.prime, self.rows, self._holders
        out: Dict[int, int] = {}
        for k, v in row.items():
            tail = rows.get(k)
            if tail is None:
                out[k] = out.get(k, 0) + v
            elif f := v % prime:
                for j, t in tail.items():
                    out[j] = out.get(j, 0) - f * t
        out = {k: r for k, v in out.items() if (r := v % prime)}
        if not out:
            return None
        p = min(out)
        inv = pow(out.pop(p), prime - 2, prime)
        new = {k: v * inv % prime for k, v in out.items()}
        for q in holders.pop(p, ()):
            tail = rows[q]
            f = tail.pop(p) % prime
            if not f:
                continue
            for k, t in new.items():
                old = tail.get(k)
                if old is None:
                    tail[k] = -f * t
                    holders.setdefault(k, []).append(q)
                else:
                    tail[k] = old - f * t
        rows[p] = new
        for k in new:
            holders.setdefault(k, []).append(p)
        return p

    def pivots_per_order(self) -> Dict[int, int]:
        out: Dict[int, int] = {}
        order = self.columns.order
        for p in self.rows:
            k = order(p)
            out[k] = out.get(k, 0) + 1
        return out


def _symbol_table(elim: _GradedElimination, system: LinearPDESystem,
                  stage: int, max_order: int) -> SymbolTable:
    """dim g_k = (order-k jet coordinates) - (pivots of order k), listed
    from ``max_order`` down to 0."""
    n, m = system.chart.dim, system.n_unknowns
    per_order = elim.pivots_per_order()
    return SymbolTable(stage, tuple(m * comb(n + k - 1, k) - per_order.get(k, 0)
                                    for k in range(max_order, -1, -1)))


def symbol_dimensions(system: LinearPDESystem, point: GenericPoint,
                      stage: int = 1) -> SymbolTable:
    """dim g_k for k = 0..order: order-k jet freedom left after
    elimination mod the point's prime of the evaluated system, higher
    orders eliminated first."""
    columns = _Columns(system.chart.dim, system.n_unknowns, system.order)
    elim = _GradedElimination(point.prime, columns)
    taylor, zero = TaylorMap(system.chart, point, 0), (0,) * system.chart.dim
    for eq in system.equations:
        elim.add(eq.evaluate_sparse(zero, taylor, columns))
    return _symbol_table(elim, system, stage, system.order)


@dataclass
class BoundResult:
    """Outcome of iterated prolongation–projection."""

    bound: Optional[int]
    conclusive: bool
    tables: List[SymbolTable]
    points: List[int] = field(default_factory=list)  # seeds used
    point_independent: bool = True
    primes: List[int] = field(default_factory=list)  # each point's prime

    @property
    def final_table(self) -> SymbolTable:
        return self.tables[-1]


_DEFAULT_SEEDS = (101, 202, 303)


def _finite_type(table: SymbolTable) -> bool:
    # Guard against an accidental single zero: require the two top
    # symbol dimensions to vanish simultaneously.
    return len(table.dims) >= 2 and table.dims[0] == 0 and table.dims[1] == 0


def solution_bound(system: LinearPDESystem, max_stage: int = 6,
                   seeds: Sequence[int] = _DEFAULT_SEEDS) -> BoundResult:
    """Iterate prolongation and symbol projection until finite type.

    A prolonged row is the pair (E, beta): the row of D^beta E at a
    point comes from the Taylor coefficients of E's own coefficients
    there (:meth:`Equation.evaluate_sparse`), so no derivative is taken
    symbolically.  Only the rows independent at some sample point are
    carried forward: derivatives of a dependent row are spanned by
    derivatives of the retained ones plus the retained lower-order rows,
    so the symbol tables are unchanged.

    Each batch (the system, then each stage's new derivatives) is added
    lowest jet order first, in descending order of the leading codes
    read from the rows (E, beta); the equations' column codes and
    orders are taken once per call (:meth:`_Columns.coded`).  At one
    point the order of the rows changes no pivot, because the RREF is
    unique.  It does change which dependent rows are dropped, and so
    which rows the next stage differentiates; but every retained set
    has the same prolonged span over the function field, so the tables
    at a generic point do not change, and at any point the bound stays
    an upper bound by the argument above.  A system with no equation left
    (say, of an all-zero metric) is not of finite type: the search stops
    with the stage-1 table and is inconclusive.
    """
    if max_stage < 1:
        raise ProlongError("max_stage must be at least 1")
    chart = system.chart
    points = [GenericPoint.sample(chart, s) for s in seeds]
    columns = _Columns(chart.dim, system.n_unknowns, system.order + max_stage)
    elims = [_GradedElimination(p.prime, columns) for p in points]

    def admit(rows: Sequence[Row]) -> List[Row]:
        """Add the rows at all points, through Taylor maps of the rows'
        order, lowest jet order first: in descending order of their
        leading codes (:meth:`_Columns.lead`), ties in the given order.
        Keep the rows independent at some point (one dependent at every
        point adds nothing to any symbol table: its derivatives stay in
        the prolonged span of the retained ones)."""
        order = max((sum(beta) for _, beta in rows), default=0)
        taylors = [TaylorMap(chart, p, order) for p in points]
        kept = []
        for eq, beta in sorted(rows, key=columns.lead, reverse=True):
            pivots = [el.add(eq.evaluate_sparse(beta, tm, columns))
                      for el, tm in zip(elims, taylors)]
            if any(pv is not None for pv in pivots):
                kept.append((eq, beta))
        return kept

    def result(bound: Optional[int]) -> BoundResult:
        return BoundResult(bound, bound is not None, tables, [p.seed for p in points],
                           point_independent, [p.prime for p in points])

    tables: List[SymbolTable] = []
    point_independent = True
    zero = (0,) * chart.dim
    active = admit([(e, zero) for e in system.equations])
    frontier = list(active)
    for stage in range(1, max_stage + 1):
        max_order = max((columns.coded(eq)[0] + sum(beta) for eq, beta in active), default=0)
        stage_tables = [_symbol_table(el, system, stage, max_order) for el in elims]
        best = min(stage_tables, key=lambda t: t.total())  # min dims = max rank
        if any(t.dims != best.dims for t in stage_tables):
            point_independent = False
        tables.append(best)
        if _finite_type(best):
            return result(best.total())
        if stage == max_stage:
            break
        new_rows = _next_derivatives(frontier)
        if not new_rows:
            break
        kept = admit(new_rows)
        active = active + kept
        frontier = kept
    return result(None)


def verify_solution(system: LinearPDESystem,
                    components: Sequence[Expr]) -> Tuple[bool, List[Expr]]:
    """Substitute a concrete field into every equation; returns
    (all zero, residuals).  Residuals are those of the cleared equations,
    so each is the raw residual times the lcm of its equation's
    coefficient denominators, and zero exactly when the raw residual is."""
    chart = system.chart
    if len(components) != system.n_unknowns:
        raise ProlongError("component count does not match the system unknowns")
    cache: Dict[JetKey, Expr] = {}

    def jet_value(a: int, alpha: Tuple[int, ...]) -> Expr:
        key = (a, alpha)
        if key in cache:
            return cache[key]
        if sum(alpha) == 0:
            val = chart.expr(components[a])
        else:
            i = next(j for j, e in enumerate(alpha) if e)
            down = list(alpha)
            down[i] -= 1
            val = jet_value(a, tuple(down)).differentiate(chart.coordinates[i])
        cache[key] = val
        return val

    residuals = []
    ok = True
    for eq in system.equations:
        r = chart.sum_products((Expr(chart, c, _ONE), jet_value(a, alpha))
                               for (a, alpha), c in eq.coeffs.items())
        residuals.append(r)
        if not r.is_zero():
            ok = False
    return ok, residuals
