"""Tensor calculus over a chart.

Components are kernel expressions stored sparsely by index tuple, and
loops run densely over ``itertools.product`` of the index ranges: n^r
steps for r slots on n coordinates (flat R^8 with 3 slots is 512).  The
determinant of :func:`_det` is a cofactor expansion of up to n! terms
(zero entries are skipped), the cost that limits the chart size of a
dense metric.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from . import _linalg
from .exprfield import _POOL_SEED, Chart, Expr, ExprError, exact_sqrt

Index = Tuple[int, ...]
TwoFormMetric = Dict[Tuple[Tuple[int, int], Tuple[int, int]], Expr]  # see _two_form_metric


class GeometryError(ExprError):
    pass


class TensorField:
    """Dense-logic, sparsely stored tensor field.

    ``variance`` is a tuple of 'u'/'d' flags, one per slot.  Missing
    component entries are zero.  Instances are treated as immutable.
    """

    __slots__ = ("chart", "variance", "_comps")

    def __init__(self, chart: Chart, variance: Sequence[str],
                 comps: Mapping[Index, Expr]):
        variance = tuple(variance)
        if any(v not in ("u", "d") for v in variance):
            raise GeometryError(f"bad variance {variance!r}")
        n = chart.dim
        clean: Dict[Index, Expr] = {}
        for idx, e in comps.items():
            idx = tuple(idx)
            if len(idx) != len(variance) or any(not 0 <= i < n for i in idx):
                raise GeometryError(f"index {idx} out of range for rank {len(variance)}")
            e = chart.expr(e)
            if e._num:
                clean[idx] = e
        self.chart = chart
        self.variance = variance
        self._comps = clean

    @property
    def rank(self) -> int:
        return len(self.variance)

    def comp(self, *idx: int) -> Expr:
        """The entry at ``idx``; a missing entry is the chart's one
        shared zero (:meth:`Chart.zero`), so asking builds no ``Expr``."""
        e = self._comps.get(idx)
        return self.chart.zero() if e is None else e

    def items(self):
        return self._comps.items()

    def indices(self) -> Iterable[Index]:
        return itertools.product(range(self.chart.dim), repeat=self.rank)

    def map(self, f) -> "TensorField":
        return TensorField(self.chart, self.variance,
                           {i: f(e) for i, e in self._comps.items()})

    def __add__(self, other: "TensorField") -> "TensorField":
        self._compat(other)
        out = dict(self._comps)
        for i, e in other._comps.items():
            out[i] = out[i] + e if i in out else e
        return TensorField(self.chart, self.variance, out)

    def __sub__(self, other: "TensorField") -> "TensorField":
        return self + other.map(lambda e: -e)

    def __neg__(self) -> "TensorField":
        return self.map(lambda e: -e)

    def scale(self, s) -> "TensorField":
        s = self.chart.expr(s)
        return self.map(lambda e: e * s)

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self._comps.values())

    def equals(self, other: "TensorField") -> bool:
        return (self - other).is_zero()

    def _compat(self, other: "TensorField"):
        if other.chart is not self.chart or other.variance != self.variance:
            raise GeometryError("tensor shapes/charts incompatible")

    def __repr__(self):
        sig = "".join(self.variance)
        return f"TensorField({sig}, {len(self._comps)} nonzero comps)"


def vector(chart: Chart, comps: Sequence) -> TensorField:
    return TensorField(chart, ("u",), {(i,): chart.expr(c) for i, c in enumerate(comps)})


def one_form(chart: Chart, comps: Sequence) -> TensorField:
    return TensorField(chart, ("d",), {(i,): chart.expr(c) for i, c in enumerate(comps)})


def endomorphism(chart: Chart, matrix: Sequence[Sequence]) -> TensorField:
    """(1,1) tensor from a row-major matrix A[a][b] = A^a_b."""
    comps = {}
    for a, row in enumerate(matrix):
        for b, e in enumerate(row):
            comps[(a, b)] = chart.expr(e)
    return TensorField(chart, ("u", "d"), comps)


def identity_endo(chart: Chart) -> TensorField:
    return TensorField(chart, ("u", "d"),
                       {(i, i): chart.one() for i in range(chart.dim)})


def endo_mul(A: TensorField, B: TensorField) -> TensorField:
    n = A.chart.dim
    comps = {(a, b): A.chart.sum_products((A.comp(a, m), B.comp(m, b)) for m in range(n))
             for a, b in itertools.product(range(n), repeat=2)}
    return TensorField(A.chart, ("u", "d"), comps)


@dataclass
class Connection:
    """Christoffel symbols Gamma^k_{ij} of an affine connection."""

    chart: Chart
    gamma: Dict[Index, Expr]

    def __post_init__(self):
        self.gamma = {tuple(i): self.chart.expr(e) for i, e in self.gamma.items()
                      if self.chart.expr(e)._num}

    def comp(self, k: int, i: int, j: int) -> Expr:
        e = self.gamma.get((k, i, j))
        return self.chart.zero() if e is None else e

    def is_torsion_free(self) -> bool:
        return all((self.comp(k, i, j) - self.comp(k, j, i)).is_zero()
                   for k, i, j in itertools.product(range(self.chart.dim), repeat=3)
                   if i < j)


def metric_det(g: TensorField) -> Expr:
    n = g.chart.dim
    return _det([[g.comp(i, j) for j in range(n)] for i in range(n)], g.chart)


def _det(m: List[List[Expr]], chart: Chart) -> Expr:
    if len(m) == 1:
        return m[0][0]
    return chart.sum_products(
        ((-1) ** j, e, _det([row[:j] + row[j + 1:] for row in m[1:]], chart))
        for j, e in enumerate(m[0]) if e)


def metric_inverse(g: TensorField) -> TensorField:
    return _inverse(g, metric_det(g))


def _inverse(g: TensorField, det: Expr) -> TensorField:
    """g^{-1} from the cofactors of g and its determinant ``det``."""
    n = g.chart.dim
    if det.is_zero():
        raise GeometryError("metric degenerate: determinant reduces to zero")
    comps = {}
    m = [[g.comp(i, j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[m[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
            cof = _det(minor, g.chart) if n > 1 else g.chart.one()
            sign = 1 if (i + j) % 2 == 0 else -1
            comps[(j, i)] = cof * g.chart.const(sign) / det
    return TensorField(g.chart, ("u", "u"), comps)


def levi_civita(g: TensorField) -> Connection:
    """Unique torsion-free metric connection of ``g``."""
    if g.variance != ("d", "d"):
        raise GeometryError("levi_civita expects a (0,2) tensor")
    n = g.chart.dim
    ginv = metric_inverse(g)
    gamma: Dict[Index, Expr] = {}
    dg = {}  # dg[(i, j, l)] = d_l g_ij
    for i, j in itertools.product(range(n), repeat=2):
        for l in range(n):
            dg[(i, j, l)] = g.comp(i, j).differentiate(g.chart.coordinates[l])
    half = Fraction(1, 2)
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                s = g.chart.sum_products(
                    t for l in range(n) for t in (
                        (half, ginv.comp(k, l), dg[(l, j, i)]),
                        (half, ginv.comp(k, l), dg[(l, i, j)]),
                        (-half, ginv.comp(k, l), dg[(i, j, l)])))
                gamma[(k, i, j)] = s
                gamma[(k, j, i)] = s
    return Connection(g.chart, gamma)


def covariant_derivative(D: Connection, T: TensorField) -> TensorField:
    """nabla T with the derivative index appended as a new last 'd' slot."""
    n = T.chart.dim
    coords = T.chart.coordinates
    comps: Dict[Index, Expr] = {}
    for idx in T.indices():
        base = T.comp(*idx)
        for i in range(n):
            terms = [(base.differentiate(coords[i]),)]
            for p, v in enumerate(T.variance):
                for m in range(n):
                    t = T.comp(*idx[:p], m, *idx[p + 1:])
                    terms.append((D.comp(idx[p], i, m), t) if v == "u"
                                 else (-1, D.comp(m, i, idx[p]), t))
            comps[idx + (i,)] = T.chart.sum_products(terms)
    return TensorField(T.chart, T.variance + ("d",), comps)


def curvature(D: Connection) -> TensorField:
    """R^a_{b i j}: value index a, argument Z = partial_b, form slots (i, j).

    R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z.
    """
    n = D.chart.dim
    coords = D.chart.coordinates
    dG: Dict[Index, Expr] = {}
    for (k, i, j), e in D.gamma.items():
        for l in range(n):
            dG[(k, i, j, l)] = e.differentiate(coords[l])
    comps: Dict[Index, Expr] = {}
    for a, b, i, j in itertools.product(range(n), repeat=4):
        if i >= j:
            continue
        terms = [(dG.get((a, j, b, i), 0),), (-1, dG.get((a, i, b, j), 0))]
        for m in range(n):
            terms += [(D.comp(a, i, m), D.comp(m, j, b)), (-1, D.comp(a, j, m), D.comp(m, i, b))]
        s = D.chart.sum_products(terms)
        comps[(a, b, i, j)] = s
        comps[(a, b, j, i)] = -s
    return TensorField(D.chart, ("u", "d", "d", "d"), comps)


def ricci(D: Connection) -> TensorField:
    """Ric_{bj} = R^a_{b a j} of the connection, summed over a, as one
    :meth:`Chart.sum_products` per entry straight from the Christoffel
    symbols (the curvature tensor is never built):

        Ric_bj = sum_{a != j} (d_a G^a_jb - d_j G^a_ab
                               + sum_m (G^a_am G^m_jb - G^a_jm G^m_ab)).

    The a = j term is R^j_{b j j} = 0, as R is antisymmetric in its form
    slots.  Each derivative d_l G^k_ij that occurs is taken once."""
    chart = D.chart
    n = chart.dim
    coords = chart.coordinates
    dG: Dict[Index, Expr] = {}

    def d(k: int, i: int, j: int, l: int):
        key = (k, i, j, l)
        if key not in dG:
            e = D.gamma.get((k, i, j))
            dG[key] = e.differentiate(coords[l]) if e else 0
        return dG[key]

    comps = {}
    for b, j in itertools.product(range(n), repeat=2):
        terms = []
        for a in range(n):
            if a == j:
                continue
            terms += [(d(a, j, b, a),), (-1, d(a, a, b, j))]
            for m in range(n):
                terms += [(D.comp(a, a, m), D.comp(m, j, b)),
                          (-1, D.comp(a, j, m), D.comp(m, a, b))]
        comps[(b, j)] = chart.sum_products(terms)
    return TensorField(chart, ("d", "d"), comps)


def lie_derivative(T: TensorField, X: TensorField) -> TensorField:
    """L_X T for any variance of T; X must be a vector field."""
    if X.variance != ("u",):
        raise GeometryError("second argument must be a vector field")
    n = T.chart.dim
    coords = T.chart.coordinates
    dX = [[X.comp(m).differentiate(coords[i]) for i in range(n)] for m in range(n)]
    comps: Dict[Index, Expr] = {}
    for idx in T.indices():
        terms = [(X.comp(m), T.comp(*idx).differentiate(coords[m]))
                 for m in range(n) if X.comp(m)]
        for p, v in enumerate(T.variance):
            for m in range(n):
                t = T.comp(*idx[:p], m, *idx[p + 1:])
                terms.append((dX[m][idx[p]], t) if v == "d" else (-1, dX[idx[p]][m], t))
        comps[idx] = T.chart.sum_products(terms)
    return TensorField(T.chart, T.variance, comps)


def bracket(X: TensorField, Y: TensorField) -> TensorField:
    """Lie bracket [X, Y] = L_X Y of vector fields."""
    return lie_derivative(Y, X)


def nijenhuis(J: TensorField) -> TensorField:
    """Nijenhuis tensor N_J as a (1,2) tensor field."""
    n = J.chart.dim
    coords = J.chart.coordinates
    dJ = {}
    for (a, b), e in J.items():
        for m in range(n):
            dJ[(a, b, m)] = e.differentiate(coords[m])
    comps = {}
    for a, i, j in itertools.product(range(n), repeat=3):
        if i >= j:
            continue
        s = J.chart.sum_products(
            t for m in range(n) for t in (
                (J.comp(m, i), dJ.get((a, j, m), 0)),
                (-1, J.comp(m, j), dJ.get((a, i, m), 0)),
                (-1, J.comp(a, m), dJ.get((m, j, i), 0)),
                (J.comp(a, m), dJ.get((m, i, j), 0))))
        comps[(a, i, j)] = s
        comps[(a, j, i)] = -s
    return TensorField(J.chart, ("u", "d", "d"), comps)


@dataclass
class FrameReport:
    squares: bool
    anticommute: bool
    quaternion_relation: bool
    nijenhuis_vanishes: Tuple[bool, bool, bool]

    @property
    def is_quaternionic_frame(self) -> bool:
        return self.squares and self.anticommute and self.quaternion_relation

    @property
    def is_hypercomplex(self) -> bool:
        return self.is_quaternionic_frame and all(self.nijenhuis_vanishes)


def check_hypercomplex_frame(I: TensorField, J: TensorField, K: TensorField) -> FrameReport:
    """Verify squares, anticommutation, IJ=K, and integrability."""
    chart = I.chart
    minus_id = identity_endo(chart).map(lambda e: -e)
    squares = all(endo_mul(A, A).equals(minus_id) for A in (I, J, K))
    anticommute = all(
        (endo_mul(A, B) + endo_mul(B, A)).is_zero()
        for A, B in ((I, J), (J, K), (K, I)))
    quat = endo_mul(I, J).equals(K)
    nij = tuple(nijenhuis(A).is_zero() for A in (I, J, K))
    return FrameReport(squares, anticommute, quat, nij)


def connection_shift(D: Connection, gamma_form: TensorField,
                     structures: Sequence[TensorField]) -> Connection:
    """Change of connection within a projective-type class, its kind set
    by the complex structures S_i passed:

    none (projective):        D' = D + gm(Y)Z + gm(Z)Y
    [J] (c-projective) or a
    frame (quaternionic):     D' = D + (gm(Y)Z + gm(Z)Y
                                       - sum_i gm(S_iY)S_iZ + gm(S_iZ)S_iY)/2
    """
    chart = D.chart
    n = chart.dim
    new = {}
    h = Fraction(1, 2) if structures else Fraction(1)
    gm = [gamma_form.comp(i) for i in range(n)]
    for k, i, j in itertools.product(range(n), repeat=3):
        # gm(Y)Z + gm(Z)Y with Y = e_i, Z = e_j, output slot k
        terms = [(D.comp(k, i, j),)]
        if k == j:
            terms.append((h, gm[i]))
        if k == i:
            terms.append((h, gm[j]))
        for S, m in itertools.product(structures, range(n)):
            # - gm(SY) SZ - gm(SZ) SY
            terms += [(-h, gm[m], S.comp(m, i), S.comp(k, j)),
                      (-h, gm[m], S.comp(m, j), S.comp(k, i))]
        new[(k, i, j)] = chart.sum_products(terms)
    return Connection(chart, new)


@dataclass
class CurvatureSplit:
    """J-type decomposition of a curvature tensor in its 2-form slots."""

    r20: TensorField
    r11: TensorField
    r02: TensorField


def curvature_type_split(R: TensorField, J: TensorField) -> CurvatureSplit:
    """Split R by J-type: the (1,1) part is invariant under (X,Y) -> (JX,JY);
    the remainder is split by J-commutation through the value slot."""
    chart = R.chart
    n = chart.dim
    if not endo_mul(J, J).equals(identity_endo(chart).map(lambda e: -e)):
        raise GeometryError("J is not an almost complex structure")

    def pull_forms(T: TensorField) -> TensorField:
        comps = {(a, b, i, j): chart.sum_products(
            (T.comp(a, b, k, l), J.comp(k, i), J.comp(l, j))
            for k, l in itertools.product(range(n), repeat=2))
            for a, b, i, j in itertools.product(range(n), repeat=4)}
        return TensorField(chart, T.variance, comps)

    r11 = (R + pull_forms(R)).map(lambda e: e / 2)
    rm = R - r11

    def value_twist(T: TensorField) -> TensorField:
        # X -> JX in the first form slot, then J in the value slot
        comps = {(a, b, i, j): chart.sum_products(
            (T.comp(c, b, k, j), J.comp(a, c), J.comp(k, i))
            for c, k in itertools.product(range(n), repeat=2))
            for a, b, i, j in itertools.product(range(n), repeat=4)}
        return TensorField(chart, T.variance, comps)

    tw = value_twist(rm)
    r20 = (rm - tw).map(lambda e: e / 2)
    r02 = (rm + tw).map(lambda e: e / 2)
    return CurvatureSplit(r20, r11, r02)


# -- two-form machinery for the quaternionic bundle ------------------------


def _two_form_basis(n: int) -> List[Tuple[int, int]]:
    return [(a, b) for a in range(n) for b in range(a + 1, n)]


def volume_root(g: TensorField) -> Expr:
    """sqrt(det g) within the field, positive at the rational point
    ``chart.sample_point(random.Random(_POOL_SEED))``.

    The determinant must be a perfect square (possibly via a declared
    root generator whose relation matches it)."""
    return _volume_root(metric_det(g))


def _volume_root(det: Expr) -> Expr:
    """:func:`volume_root` of a metric whose determinant is ``det``."""
    W = exact_sqrt(det)
    if W is None:
        raise GeometryError(
            "det(g) is not a perfect square in the field; "
            "declare a volume-root generator with relation W^2 = det(g)")
    try:
        value = W.evaluate(det.chart.sample_point(random.Random(_POOL_SEED)))
    except ExprError as ex:
        raise GeometryError(
            f"the sign of sqrt(det g) = {W} cannot be fixed at a rational "
            f"sample point: {ex}") from ex
    return -W if value < 0 else W


def hodge_star_matrix(g: TensorField) -> List[List[Expr]]:
    """Matrix of the Hodge star on 2-forms in the basis dx^a ^ dx^b, a<b."""
    if g.chart.dim != 4:
        raise GeometryError("Hodge-star machinery implemented for dimension 4")
    det = metric_det(g)
    return _hodge_star(_volume_root(det), _two_form_metric(_inverse(g, det)))


def _two_form_metric(ginv: TensorField) -> TwoFormMetric:
    """The metric on 2-forms in the basis dx^k ^ dx^l, k<l:
    lam[(k, l), (a, b)] = g^ka g^lb - g^kb g^la for the inverse metric
    ``ginv``.  It is symmetric, so each of its distinct entries (21 in
    dimension 4) is built once and stored under both keys."""
    chart = ginv.chart
    basis = _two_form_basis(chart.dim)
    lam: TwoFormMetric = {}
    for r, (k, l) in enumerate(basis):
        for (a, b) in basis[r:]:
            lam[(k, l), (a, b)] = lam[(a, b), (k, l)] = chart.sum_products(
                [(ginv.comp(k, a), ginv.comp(l, b)), (-1, ginv.comp(k, b), ginv.comp(l, a))])
    return lam


def _two_form_inner(chart: Chart, lam: TwoFormMetric, f1: Mapping[Tuple[int, int], Expr],
                    f2: Mapping[Tuple[int, int], Expr]) -> Expr:
    """<f1, f2> = 1/2 f1_{ij} f2^{ij} = sum of f1_{ab} f2_{cd} lam[(a, b), (c, d)]
    for two 2-forms given by their entries at pairs a < b."""
    return chart.sum_products(
        (e1, e2, lam[p1, p2]) for (p1, e1), (p2, e2) in itertools.product(f1.items(), f2.items()))


def _hodge_star(W: Expr, lam: TwoFormMetric) -> List[List[Expr]]:
    """:func:`hodge_star_matrix` of a 4-dimensional metric with volume
    root ``W`` and 2-form metric ``lam`` (:func:`_two_form_metric`).

    The image of omega = dx^a ^ dx^b has the entries
    (*omega)_{ij} = 1/2 W eps_{ijkl} omega^{kl} = W eps_{ijkl} omega^{kl},
    for the one pair k < l besides i, j, and omega^{kl} is
    lam[(k, l), (a, b)]; so each entry is +-W times one entry of lam."""
    chart = W.chart
    basis = _two_form_basis(4)
    cols = []
    for ab in basis:
        col = []
        for (i, j) in basis:
            k, l = (x for x in range(4) if x not in (i, j))
            col.append(chart.sum_products([(_perm_sign((i, j, k, l)), W, lam[(k, l), ab])]))
        cols.append(col)
    # columns were computed; return matrix rows
    return [[cols[c][r] for c in range(6)] for r in range(6)]


def _perm_sign(perm: Sequence[int]) -> int:
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def _form_to_endo(g_inv: TensorField, comps2: Mapping[Tuple[int, int], Expr],
                  chart: Chart) -> TensorField:
    """Raise the first index of an antisymmetric 2-form."""
    n = chart.dim
    full: Dict[Tuple[int, int], Expr] = {}
    for (a, b), e in comps2.items():
        full[(a, b)] = e
        full[(b, a)] = -e
    out = {(i, j): chart.sum_products((g_inv.comp(i, k), full[(k, j)])
                                      for k in range(n) if (k, j) in full)
           for i, j in itertools.product(range(n), repeat=2)}
    return TensorField(chart, ("u", "d"), out)


def _asd_orthogonal(g: TensorField, orientation: int):
    """Trace-orthogonal (unnormalized) basis of the (anti-)self-dual
    2-forms, as (form dict, squared norm) pairs, plus the inverse metric."""
    chart = g.chart
    if chart.dim != 4:
        raise GeometryError("ASD machinery requires a 4-dimensional chart")
    if orientation not in (1, -1):
        raise GeometryError("orientation must be +1 or -1")
    det = metric_det(g)
    W = _volume_root(det)
    ginv = _inverse(g, det)
    lam = _two_form_metric(ginv)
    star = _hodge_star(W, lam)
    basis = _two_form_basis(4)
    # projector (Id - orientation * star)/2 maps onto the ASD forms
    proj = [[chart.sum_products([(Fraction(int(r == c), 2),),
                                 (Fraction(-orientation, 2), star[r][c])])
             for c in range(6)] for r in range(6)]
    keep = _linalg.rref(proj)[1]  # the columns outside the span of those before
    if len(keep) != 3:
        raise GeometryError("ASD projector rank is not 3; metric degenerate?")
    forms = [{basis[r]: proj[r][c] for r in range(6)} for c in keep]

    # Gram-Schmidt without normalization keeps everything rational
    ortho = []
    for f in forms:
        cur = dict(f)
        for prev, nrm in ortho:
            c = _two_form_inner(chart, lam, cur, prev) / nrm
            if c.is_zero():
                continue
            for key in set(cur) | set(prev):
                cur[key] = chart.sum_products([(cur.get(key, 0),), (-1, c, prev.get(key, 0))])
        nrm = _two_form_inner(chart, lam, cur, cur)
        if nrm.is_zero():
            raise GeometryError("degenerate inner product on ASD forms")
        ortho.append((cur, nrm))
    return ortho, ginv


def asd_span(g: TensorField, orientation: int = 1) -> List[TensorField]:
    """Trace-orthogonal unnormalized triple spanning the (anti-)self-dual
    skew endomorphisms; stays inside the chart's field (no adjoined
    roots), which makes it the right input for PDE generation."""
    ortho, ginv = _asd_orthogonal(g, orientation)
    return [_form_to_endo(ginv, f, g.chart) for f, _ in ortho]

