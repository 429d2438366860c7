"""Generators of the linear PDE systems whose solutions are
infinitesimal symmetries of metrics, quaternionic bundles, and
c-projective classes.

Equations are produced directly in jet-coordinate form (coefficients of
X^a_alpha); the substitution route through geometry.lie_derivative is
used by the tests as an independent cross-check.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Sequence, Tuple

from . import _linalg
from .exprfield import Chart, Expr, ExprError
from .geometry import (Connection, TensorField, check_hypercomplex_frame,
                       connection_shift, covariant_derivative)
from .prolong import JetKey, LinearPDESystem


class SymSysError(ExprError):
    pass


def _unit(i: int, n: int) -> Tuple[int, ...]:
    e = [0] * n
    e[i] = 1
    return tuple(e)


def _collect(chart: Chart, keyed_terms: Iterable[Tuple[JetKey, tuple]]) -> Dict[JetKey, Expr]:
    """Coefficient map {key: sum of the products of its terms} of
    (key, factors) pairs, one :meth:`Chart.sum_products` per key; a term
    with a zero factor adds no key."""
    terms: Dict[JetKey, list] = {}
    for key, factors in keyed_terms:
        if all(factors):
            terms.setdefault(key, []).append(factors)
    return {key: chart.sum_products(t) for key, t in terms.items()}


def _contract(chart: Chart, omega: Sequence[Expr], slots: Sequence,
              jets: Dict[Tuple[int, ...], Dict[JetKey, Expr]]) -> Dict[JetKey, Expr]:
    """Coefficient map of sum_s omega_s * (jet map of slot s): an
    annihilator row applied to the per-slot jet maps."""
    return _collect(chart, ((key, (c, w)) for w, s in zip(omega, slots) if w
                            for key, c in jets[s].items()))


def lie_derivative_jet(T: TensorField) -> Dict[Tuple[int, ...], Dict[JetKey, Expr]]:
    """Jet-linear coefficient maps of (L_X T)_idx, one per component."""
    chart = T.chart
    n = chart.dim
    zero_a = (0,) * n
    out: Dict[Tuple[int, ...], Dict[JetKey, Expr]] = {}
    for idx in T.indices():
        base = T.comp(*idx)
        terms = [((mm, zero_a), (base.differentiate(chart.coordinates[mm]),))
                 for mm in range(n)]
        for p, v in enumerate(T.variance):
            for mm in range(n):
                t = T.comp(*idx[:p], mm, *idx[p + 1:])
                if v == "d":
                    # + (d_{idx_p} X^m) T(..m..)
                    terms.append(((mm, _unit(idx[p], n)), (t,)))
                else:
                    # - (d_m X^{idx_p}) T(..m..)
                    terms.append(((idx[p], _unit(mm, n)), (-1, t)))
        out[idx] = _collect(chart, terms)
    return out


def invariance_system(T: TensorField) -> LinearPDESystem:
    """L_X T = 0 componentwise; first order in X."""
    chart = T.chart
    maps = list(lie_derivative_jet(T).values())
    return LinearPDESystem.from_coefficient_maps(chart, chart.dim, maps)


def lie_derivative_connection_jet(D: Connection) -> Dict[Tuple[int, int, int], Dict[JetKey, Expr]]:
    """Jet-linear maps of (L_X D)^a_{ij}; second order in X."""
    chart = D.chart
    n = chart.dim
    zero_a = (0,) * n
    out: Dict[Tuple[int, int, int], Dict[JetKey, Expr]] = {}
    for a, i, j in itertools.product(range(n), repeat=3):
        if i > j:
            continue  # symmetric in (i, j) for torsion-free D
        terms = []
        for mm in range(n):
            terms += [((mm, zero_a), (D.comp(a, i, j).differentiate(chart.coordinates[mm]),)),
                      ((a, _unit(mm, n)), (-1, D.comp(mm, i, j))),
                      ((mm, _unit(i, n)), (D.comp(a, mm, j),)),
                      ((mm, _unit(j, n)), (D.comp(a, i, mm),))]
        ei = list(zero_a)
        ei[i] += 1
        ei[j] += 1
        terms.append(((a, tuple(ei)), (1,)))
        out[(a, i, j)] = _collect(chart, terms)
    return out


def _endo_annihilator_full(frame: Sequence[TensorField], chart: Chart) -> List[List[Expr]]:
    """Basis of functionals on End(TM) vanishing on span(frame), via the
    trace pairing; each returned row is omega flattened as omega[b][a]
    pairing with A^a_b (tr(omega A) = sum omega_{ba} A^a_b)."""
    n = chart.dim
    rows = []
    for A in frame:
        # <omega, A> = sum_{a,b} omega_flat[(b,a)] A^a_b; unknowns omega_flat
        rows.append([A.comp(a, b) for (b, a) in itertools.product(range(n), repeat=2)])
    return _linalg.nullspace(rows, n * n, one=chart.one())  # entries in (b, a) order


def quaternionic_symmetry_system(frame: Sequence[TensorField],
                                 g: TensorField) -> LinearPDESystem:
    """omega(L_X I_j) = 0 for every annihilator element omega of span(frame)
    in End(TM) and every frame element; first order in X.

    The annihilator is taken inside all endomorphisms (trace pairing),
    not only the skew ones: the skew-part conditions alone degenerate on
    conformally flat structures.
    """
    chart = g.chart
    n = chart.dim
    ann = _endo_annihilator_full(frame, chart)
    if len(ann) != n * n - 3:  # the frame's rank is n^2 minus the nullity
        raise SymSysError("frame does not span a rank-3 bundle")
    # omega is indexed like the (b, a) product; jet maps are keyed (a, b)
    slots = [(a, b) for b, a in itertools.product(range(n), repeat=2)]
    maps: List[Dict[JetKey, Expr]] = []
    for A in frame:
        jets = lie_derivative_jet(A)
        maps += [_contract(chart, omega, slots, jets) for omega in ann]
    return LinearPDESystem.from_coefficient_maps(chart, n, maps)


def cprojective_symmetry_system(J: TensorField, D: Connection) -> LinearPDESystem:
    """L_X J = 0 plus: L_X D lies pointwise in the c-projective shift
    subspace.  The latter is imposed through an exact annihilator basis
    of the shift subspace and is second order in X."""
    chart = J.chart
    n = chart.dim
    if not D.is_torsion_free():
        raise SymSysError("connection has torsion")
    if not covariant_derivative(D, J).is_zero():
        raise SymSysError("connection does not preserve J")

    maps: List[Dict[JetKey, Expr]] = list(lie_derivative_jet(J).values())

    # the shift subspace is spanned by the c-projective shifts of the zero
    # connection by gamma = dx^k, read on i <= j
    slots = [(a, i, j) for a, i, j in itertools.product(range(n), repeat=3) if i <= j]
    flat = Connection(chart, {})
    shifts = [connection_shift(flat, TensorField(chart, ("d",), {(k,): chart.one()}),
                               "cprojective", J=J) for k in range(n)]
    rows = [[shift.comp(*s) for s in slots] for shift in shifts]
    ann = _linalg.nullspace(rows, len(slots), one=chart.one())
    ld = lie_derivative_connection_jet(D)
    maps += [_contract(chart, omega, slots, ld) for omega in ann]
    return LinearPDESystem.from_coefficient_maps(chart, n, maps)


def obata_solve(I: TensorField, J: TensorField, K: TensorField) -> Connection:
    """The unique torsion-free connection with DI = DJ = DK = 0.

    Solves the pointwise linear system for the Christoffel symbols;
    raises if the frame is not hypercomplex (inconsistent system) or the
    solution is not unique.
    """
    report = check_hypercomplex_frame(I, J, K)
    if not report.is_hypercomplex:
        raise SymSysError(f"frame is not hypercomplex: {report}")
    chart = I.chart
    n = chart.dim
    unknowns = [(k, i, j) for k in range(n) for i in range(n) for j in range(i, n)]
    col = {u: c for c, u in enumerate(unknowns)}
    rows: List[List[Expr]] = []

    def gamma_col(k: int, i: int, j: int) -> int:
        return col[(k, i, j)] if i <= j else col[(k, j, i)]

    for A in (I, J, K):
        for a, b, mm in itertools.product(range(n), repeat=3):
            # d_m A^a_b + G^a_{mc} A^c_b - G^c_{mb} A^a_c = 0
            row = [chart.zero()] * len(unknowns)
            for c in range(n):
                t = A.comp(c, b)
                if not t.is_zero():
                    cc = gamma_col(a, mm, c)
                    row[cc] = row[cc] + t
                t = A.comp(a, c)
                if not t.is_zero():
                    cc = gamma_col(c, mm, b)
                    row[cc] = row[cc] - t
            row.append(-A.comp(a, b).differentiate(chart.coordinates[mm]))
            rows.append(row)
    # one reduction of the augmented matrix [A | b]: the pivots left of
    # the last column give the nullity, a pivot on it inconsistency
    ncols = len(unknowns)
    red, pivots = _linalg.rref(rows)
    defect = ncols - len([p for p in pivots if p < ncols])
    if defect:
        raise SymSysError(
            f"parallelism system underdetermined: {defect}-dimensional defect")
    if ncols in pivots:
        raise SymSysError("parallelism system inconsistent; frame not hypercomplex")
    gamma = {}
    for (k, i, j), c in col.items():
        gamma[(k, i, j)] = red[c][ncols]
        gamma[(k, j, i)] = red[c][ncols]
    return Connection(chart, gamma)
