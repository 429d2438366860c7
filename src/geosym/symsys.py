"""Generators of the linear PDE systems whose solutions are
infinitesimal symmetries of metrics, quaternionic bundles, and
c-projective classes.

Every system is built by one routine in polynomial arithmetic: a tensor
or connection is cleared once, T = T^/d, :func:`lie_derivative_jet`
(:func:`lie_derivative_connection_jet`) gives the jet-linear maps of
S L_X T^ and S X(d), and :func:`_rows` contracts them with cleared
functionals: unit functionals for L_X g = 0 and L_X J = 0, and the
annihilator rows of the frame's span or of the c-projective shifts.
The tests keep the ``Expr`` jet maps as the reference, and
geometry.lie_derivative as an independent cross-check.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, NamedTuple, Sequence, Tuple

from . import _linalg
from .exprfield import (_ONE, Chart, Expr, ExprError, KernelInconsistency, Poly,
                        _clear_denominators, _derivation_rules, _poly_dot,
                        _poly_total_derivative)
from .geometry import (Connection, Index, TensorField, check_hypercomplex_frame,
                       connection_shift, covariant_derivative)
from .prolong import Equation, JetKey, LinearPDESystem


class SymSysError(ExprError):
    pass


def _cleared(chart: Chart, entries: Mapping) -> Tuple[Poly, Dict]:
    """(l, {k: w_k}) with entries[k] = w_k / l for one polynomial l, the
    lcm of the denominators (:func:`_clear_denominators`)."""
    lcm, nums = _clear_denominators(chart, list(entries.values()))
    return lcm, dict(zip(entries, nums))


def _functionals(chart: Chart, slots: Sequence[Index], ann: Sequence[Sequence]) -> List[Dict]:
    """Each row of ``ann`` as a cleared functional {slot: w}, w = l omega."""
    return [_cleared(chart, {s: chart.expr(x) for s, x in zip(slots, omega) if x})[1]
            for omega in ann]


class LieJets(NamedTuple):
    """L_X T of a cleared tensor T = ``hat``/``d`` in jet-linear form:
    ``maps[idx]`` = {(a, alpha): coefficient of X^a_alpha} of
    S (L_X T^)_idx, and ``xd`` that of S X(d), S = ``s`` the lcm of the
    derivation rules' denominators.  As L_X T = L_X(T^)/d - X(d) T^/d^2,

        S d^2 (L_X T)_idx = d maps[idx] - hat[idx] xd,

    also for a connection, whose ``maps`` hold d S d_i d_j X^a.
    ``hat`` holds the nonzero components; coefficients are unreduced,
    and one whose terms cancel stays as the zero polynomial."""

    d: Poly
    s: Poly
    hat: Dict[Index, Poly]
    maps: Dict[Index, Dict[JetKey, Poly]]
    xd: Dict[JetKey, Poly]


def _lie_jets(chart: Chart, variance: Sequence[str], comps: Mapping[Index, Expr],
              slots: Iterable[Index]) -> LieJets:
    """:class:`LieJets` of a tensor of ``variance``, one map per slot:
    S (L_X T^)_idx = X^m (S/s_m)(s_m d_m T^_idx), s_m the denominator of
    x_m's rules (:func:`_derivation_rules`), plus for each place p of
    idx, the last place first, S T^(..m..) at d_(idx_p) X^m (p
    covariant) or its negative at d_m X^(idx_p) (p contravariant), with
    m in place p."""
    n = chart.dim
    zero = (0,) * n
    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    d, hat = _cleared(chart, comps)
    rules = [_derivation_rules(chart, x, [*hat.values(), d]) for x in chart.coordinates]
    big_s, scales = chart._lcm([s for s, _ in rules])
    rest: List[Dict[Index, list]] = [{} for _ in variance]  # idx without p -> (idx_p, S T^_idx)
    for idx, p in hat.items():
        sp = p * big_s
        for k, by_rest in enumerate(rest):
            by_rest.setdefault(idx[:k] + idx[k + 1:], []).append((idx[k], sp))

    def derivatives(p: Poly) -> Dict[JetKey, Poly]:
        return {(m, zero): q * scales[m] for m, (_, r) in enumerate(rules)
                if (q := _poly_total_derivative(chart, p, r))}

    maps: Dict[Index, Dict[JetKey, Poly]] = {}
    for idx in slots:
        coeffs = maps[idx] = derivatives(hat[idx]) if idx in hat else {}
        for k in reversed(range(len(variance))):
            for m, t in rest[k].get(idx[:k] + idx[k + 1:], ()):
                if variance[k] == "d":
                    key = (m, units[idx[k]])
                else:
                    key, t = (idx[k], units[m]), -t
                coeffs[key] = coeffs[key] + t if key in coeffs else t
    return LieJets(d, big_s, hat, maps, derivatives(d))


def lie_derivative_jet(T: TensorField) -> LieJets:
    """:class:`LieJets` of L_X T, a map for each index of T."""
    return _lie_jets(T.chart, T.variance, dict(T.items()), T.indices())


def lie_derivative_connection_jet(D: Connection) -> LieJets:
    """:class:`LieJets` of (L_X D)^a_ij for i <= j (symmetric for
    torsion-free D): L_X of Gamma as a (1,2) tensor, plus d S at
    X^a_(e_i + e_j); second order in X."""
    n = D.chart.dim
    slots = [(a, i, j) for a, i, j in itertools.product(range(n), repeat=3) if i <= j]
    jets = _lie_jets(D.chart, ("u", "d", "d"), D.gamma, slots)
    ds = jets.d * jets.s
    for a, i, j in slots:
        jets.maps[(a, i, j)][(a, tuple((k == i) + (k == j) for k in range(n)))] = ds
    return jets


def _rows(chart: Chart, jets: LieJets, functionals: Iterable[Mapping[Index, Poly]]
          ) -> List[Equation]:
    """The equations omega(L_X T) = 0, in order, for cleared functionals
    w = lambda omega given as {idx: w_idx}: the row
    d w(S L_X T^) - w(T^) S X(d), or w(S L_X T^) when w(T^) reduces to
    zero.  A caller that knows w(T^) = 0 for every functional passes the
    jets with ``hat`` empty, and no w(T^) is built.  Each coefficient is
    one :func:`_poly_dot`, reduced once, a zero cross-checked
    (:meth:`Chart._reduce_checked`); zero coefficients and rows are
    dropped.

    Soundness.  By the identity of :class:`LieJets` the row is
    omega(L_X T) times lambda S d^2, or lambda S d without the factor d:
    a product of nonzero denominators.  That changes neither the
    solution space nor the symbol spaces over the function field
    (:class:`~geosym.prolong.Equation`), nor any coefficient's zeroness."""
    eqs = []
    for w in functionals:
        w_hat = jets.hat and chart._reduce_checked(
            _poly_dot((v, jets.hat[s]) for s, v in w.items() if s in jets.hat))
        terms: Dict[JetKey, list] = {}  # key -> the (factor, coefficient) pairs of its sum
        for s, v in w.items():
            v = v * jets.d if w_hat else v
            for key, c in jets.maps[s].items():
                terms.setdefault(key, []).append((v, c))
        for key, c in jets.xd.items() if w_hat else ():
            terms.setdefault(key, []).append((-w_hat, c))
        coeffs: Dict[JetKey, Poly] = {}
        for key, pairs in terms.items():
            if p := chart._reduce_checked(_poly_dot(pairs)):
                coeffs[key] = p
        if coeffs:
            eqs.append(Equation(coeffs))
    return eqs


def invariance_system(T: TensorField) -> LinearPDESystem:
    """L_X T = 0 componentwise (:func:`_rows` with unit functionals);
    first order in X.  A row equal to an earlier one is dropped, so a
    symmetric T gives one per pair i <= j."""
    unique: Dict[frozenset, Equation] = {}
    for eq in _rows(T.chart, lie_derivative_jet(T), ({i: _ONE} for i in T.indices())):
        unique.setdefault(frozenset(eq.coeffs.items()), eq)
    return LinearPDESystem(T.chart, T.chart.dim, list(unique.values()))


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
    """omega(L_X A) = 0 for every annihilator element omega of span(frame)
    in End(TM) and every frame element A; first order in X.  Equations
    are listed frame element by frame element, each in the order of the
    annihilator rows.

    The annihilator is taken inside all endomorphisms (trace pairing),
    not only the skew ones: the skew-part conditions alone degenerate on
    conformally flat structures.

    Each annihilator row is cleared, omega = w/l, and contracted with
    each frame element's jet maps (:func:`_rows`); w(A^) = 0 by the
    annihilator's construction, so the jets go without ``hat``, d drops
    and the row is omega(L_X A) times l d S.
    """
    chart = g.chart
    n = chart.dim
    ann = _endo_annihilator_full(frame, chart)
    if len(ann) != n * n - 3:  # the frame's rank is n^2 minus the nullity
        raise SymSysError("frame does not span a rank-3 bundle")
    # omega is indexed like the (b, a) product; w[(a, b)] pairs with A^a_b
    omegas = _functionals(chart, [(a, b) for b, a in itertools.product(range(n), repeat=2)], ann)
    eqs: List[Equation] = []
    for A in frame:
        eqs += _rows(chart, lie_derivative_jet(A)._replace(hat={}), omegas)
    return LinearPDESystem(chart, n, eqs)


def cprojective_symmetry_system(J: TensorField, D: Connection) -> LinearPDESystem:
    """L_X J = 0 plus: L_X D lies pointwise in the c-projective shift
    subspace.  The latter is imposed through an exact annihilator basis
    of the shift subspace and is second order in X.  Both are
    :func:`_rows`, of unit functionals on L_X J and the annihilator on
    L_X D."""
    chart = J.chart
    n = chart.dim
    if not D.is_torsion_free():
        raise SymSysError("connection has torsion")
    if not covariant_derivative(D, J).is_zero():
        raise SymSysError("connection does not preserve J")
    eqs = _rows(chart, lie_derivative_jet(J), ({i: _ONE} for i in J.indices()))
    # the shift subspace is spanned by the c-projective shifts of the zero
    # connection by gamma = dx^k, read on i <= j
    slots = [(a, i, j) for a, i, j in itertools.product(range(n), repeat=3) if i <= j]
    flat = Connection(chart, {})
    shifts = [connection_shift(flat, TensorField(chart, ("d",), {(k,): chart.one()}),
                               [J]) for k in range(n)]
    ann = _linalg.nullspace([[shift.comp(*s) for s in slots] for shift in shifts], len(slots))
    eqs += _rows(chart, lie_derivative_connection_jet(D), _functionals(chart, slots, ann))
    return LinearPDESystem(chart, n, eqs)


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
