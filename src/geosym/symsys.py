"""Generators of the linear PDE systems whose solutions are
infinitesimal symmetries of metrics, quaternionic bundles, and
c-projective classes.

Equations are produced directly in jet-coordinate form (coefficients of
X^a_alpha); the substitution route through geometry.lie_derivative is
used by the tests as an independent cross-check.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

from . import _linalg
from .exprfield import Chart, Expr, ExprError, KernelInconsistency
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


def _endo_annihilator_full(frame: Sequence[TensorField], chart: Chart) -> List[List]:
    """Basis of functionals on End(TM) vanishing on span(frame), via the
    trace pairing; each returned row is omega flattened as omega[b][a]
    pairing with A^a_b (tr(omega A) = sum omega_{ba} A^a_b)."""
    n = chart.dim
    rows = []
    for A in frame:
        # <omega, A> = sum_{a,b} omega_flat[(b,a)] A^a_b; unknowns omega_flat
        rows.append([A.comp(a, b) for (b, a) in itertools.product(range(n), repeat=2)])
    return _linalg.nullspace(rows, n * n)  # entries in (b, a) order


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
                               [J]) for k in range(n)]
    rows = [[shift.comp(*s) for s in slots] for shift in shifts]
    ann = _linalg.nullspace(rows, len(slots))
    ld = lie_derivative_connection_jet(D)
    maps += [_contract(chart, omega, slots, ld) for omega in ann]
    return LinearPDESystem.from_coefficient_maps(chart, n, maps)


def obata_solve(I: TensorField, J: TensorField, K: TensorField) -> Connection:
    """The Obata connection, the unique torsion-free connection with
    DI = DJ = DK = 0, by its closed form
    D_X Y = ([X, Y] + I[IX, Y] - J[X, JY] + K[IX, JY]) / 2, which on
    coordinate fields reads Gamma^k_ij = (-I^k_a d_j I^a_i - J^k_a d_i J^a_j
    + K^k_c (I^a_i d_a J^c_j - J^a_j d_a I^c_i)) / 2.  Raises
    :class:`SymSysError` if the frame is not hypercomplex.

    Soundness.  The result is certified torsion-free with DI = DJ = DK = 0,
    else :class:`KernelInconsistency` is raised.  Two such connections
    differ by a tensor S with S_X Y = S_Y X and each S_X commuting with
    I, J and K; S is zero because the first prolongation of gl(n, H)
    vanishes.  So the certified connection is the Obata connection.
    """
    report = check_hypercomplex_frame(I, J, K)
    if not report.is_hypercomplex:
        raise SymSysError(f"frame is not hypercomplex: {report}")
    chart = I.chart
    n = chart.dim
    coords = chart.coordinates
    # dI[(a, b, m)] = d_m I^a_b, and likewise dJ
    dI, dJ = ({(a, b, m): e.differentiate(coords[m]) for (a, b), e in A.items()
               for m in range(n)} for A in (I, J))
    half = Fraction(1, 2)
    gamma = {}
    for k, i, j in itertools.product(range(n), repeat=3):
        terms = []
        for a in range(n):
            terms += [(-half, I.comp(k, a), dI.get((a, i, j), 0)),
                      (-half, J.comp(k, a), dJ.get((a, j, i), 0))]
            for c in range(n):
                terms += [(half, K.comp(k, c), I.comp(a, i), dJ.get((c, j, a), 0)),
                          (-half, K.comp(k, c), J.comp(a, j), dI.get((c, i, a), 0))]
        gamma[(k, i, j)] = chart.sum_products(terms)
    D = Connection(chart, gamma)
    if not (D.is_torsion_free()
            and all(covariant_derivative(D, A).is_zero() for A in (I, J, K))):
        raise KernelInconsistency("Obata connection fails its certificate; kernel bug")
    return D
