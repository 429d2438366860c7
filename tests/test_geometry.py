"""Tensor calculus checks against independent oracles: sympy Christoffel
symbols, finite-difference flows for the Lie derivative, and the Bianchi
identities."""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from geosym import _linalg
from geosym import geometry as G
from geosym.exprfield import _POOL_SEED, Chart, Expr, parse_expr

from conftest import (build_eh_chart, build_eh_metric, cofactor_inverse, laplace_det,
                      standard_triple)

SRC = Path(__file__).resolve().parent.parent / "src"
MODELS = SRC / "geosym" / "models"


# ---------------------------------------------------------------------------
# Levi-Civita against sympy
# ---------------------------------------------------------------------------

def _sympy_christoffels(coords, g):
    n = len(coords)
    ginv = sympy.Matrix(g).inv()
    gamma = {}
    for k, i, j in itertools.product(range(n), repeat=3):
        total = 0
        for m in range(n):
            total += ginv[k, m] * (sympy.diff(g[i][m], coords[j])
                                   + sympy.diff(g[j][m], coords[i])
                                   - sympy.diff(g[i][j], coords[m]))
        gamma[(k, i, j)] = sympy.simplify(total / 2)
    return gamma


def test_levi_civita_matches_sympy_polynomial_metric():
    chart = Chart(["x", "y"])
    g = G.TensorField(chart, ("d", "d"), {
        (0, 0): chart.one(),
        (1, 1): parse_expr(chart, "1 + x^2"),
    })
    D = G.levi_civita(g)

    x, y = sympy.symbols("x y")
    gamma_s = _sympy_christoffels((x, y), [[1, 0], [0, 1 + x**2]])
    for seed in (5, 6, 7):
        pt = chart.sample_point(random.Random(seed))
        subs = {x: sympy.Rational(pt["x"]), y: sympy.Rational(pt["y"])}
        for key, expr_s in gamma_s.items():
            ours = D.comp(*key).evaluate(pt)
            theirs = Fraction(str(sympy.nsimplify(expr_s.subs(subs))))
            assert ours == theirs, (key, ours, theirs)


def _dense_metric(n):
    """g = 2 Id + x x^T on n coordinates, whose determinant
    2^(n-1) (x.x + 2) is irreducible."""
    chart = Chart([f"x{i}" for i in range(n)])
    xs = [chart.var(v) for v in chart.coordinates]
    return chart, G.TensorField(chart, ("d", "d"), {
        (i, j): xs[i] * xs[j] + (2 if i == j else 0) for i in range(n) for j in range(n)})


def test_dense_metric_inverse_is_the_inverse():
    """g g^-1 = Id for the dense metric on six coordinates."""
    n = 6
    chart, g = _dense_metric(n)
    ginv = G.metric_inverse(g)
    for i, j in itertools.product(range(n), repeat=2):
        entry = chart.sum_products((g.comp(i, k), ginv.comp(k, j)) for k in range(n))
        assert entry == (1 if i == j else 0), (i, j)


def test_dense_metric_inverse_in_dimension_seven_finishes_promptly():
    """Factoring the determinant of the dense metric on seven coordinates
    ran for minutes; by gcds its inverse takes well under a second, so a
    fresh interpreter computes it well inside the timeout."""
    code = ("from geosym import geometry as G\n"
            "from geosym.exprfield import Chart\n"
            "chart = Chart([f'x{i}' for i in range(7)])\n"
            "xs = [chart.var(v) for v in chart.coordinates]\n"
            "G.metric_inverse(G.TensorField(chart, ('d', 'd'), {\n"
            "    (i, j): xs[i] * xs[j] + (2 if i == j else 0)\n"
            "    for i in range(7) for j in range(7)}))\n")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                   env={**os.environ, "PYTHONPATH": str(SRC)})


def test_dense_metric_in_dimension_eight_takes_one_elimination():
    """det g and g^-1 of the dense metric on eight coordinates come from
    one elimination of at most 2 n^3 normal forms (a Laplace expansion
    and its cofactors built 229,982); g g^-1 = Id and det g = 2^7 (x.x + 2)."""
    n = 8
    chart, g = _dense_metric(n)
    built = []
    init = Expr.__init__
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Expr, "__init__", lambda self, *args: built.append(1) or init(self, *args))
        det, ginv = G._det_inverse(g)
    assert len(built) <= 2 * n ** 3
    xs = [chart.var(v) for v in chart.coordinates]
    assert det == chart.sum_products([(2 ** 7, x, x) for x in xs] + [(2 ** 8,)])
    for i, j in itertools.product(range(n), repeat=2):
        entry = chart.sum_products((g.comp(i, k), ginv.comp(k, j)) for k in range(n))
        assert entry == (1 if i == j else 0), (i, j)


def _square_charts(n):
    coords = [f"x{i}" for i in range(n)]
    charts = [Chart(coords, trig_pairs=[coords[0]]), Chart(coords, roots=[("W", "x0^2 + 1")])]
    return charts + [build_eh_chart()] * (n == 4)


SQUARE_CHARTS = [chart for n in range(1, 5) for chart in _square_charts(n)]


@st.composite
def square_metrics(draw):
    """(chart, matrix, singular): a chart of dimension n <= 4 (trig, root
    or Eguchi-Hanson) and an n x n matrix over it with entries c + c' a b,
    a and b drawn from 1 and at most four variables of the chart, for
    n <= 3 some of them divided by 1 + a^2.  When ``singular``, one row
    is a combination of the others (a zero row for n = 1).  More
    variables, or denominators at n = 4, make single gcds of the
    reference and the elimination alike take seconds to minutes."""
    chart = draw(st.sampled_from(SQUARE_CHARTS))
    n = chart.dim
    names = (["rho", "sin_phi", "cos_phi", "cos_psi"] if "rho" in chart.var_names else
             [v for v in chart.var_names if v not in chart.coordinates[2:]])
    atoms = st.sampled_from([chart.one()] + [chart.var(v) for v in names])
    small = st.integers(-2, 2)

    def entry():
        e = chart.expr(draw(small) + draw(small) * draw(atoms) * draw(atoms))
        return e / (1 + draw(atoms) ** 2) if n <= 3 and draw(st.booleans()) else e

    m = [[entry() for _ in range(n)] for _ in range(n)]
    singular = draw(st.booleans())
    if singular:
        k = draw(st.integers(0, n - 1))
        coeffs = [(draw(small), draw(atoms)) for _ in range(n)]
        m[k] = [chart.sum_products((c0, a, m[r][c]) for r, (c0, a) in enumerate(coeffs) if r != k)
                for c in range(n)]
    return chart, m, singular


@settings(max_examples=25, deadline=None)
@given(drawn=square_metrics())
def test_det_and_inverse_equal_the_laplace_and_cofactor_reference(drawn):
    """metric_det and metric_inverse equal the Laplace determinant and the
    cofactor inverse exactly, entry by entry; a singular matrix has
    determinant zero and its inverse raises."""
    chart, m, singular = drawn
    n = chart.dim
    g = G.TensorField(chart, ("d", "d"), {(i, j): m[i][j] for i in range(n) for j in range(n)})
    assert G.metric_det(g) == laplace_det(m, chart)
    inverse = cofactor_inverse(m, chart)
    assert inverse is None or not singular
    if inverse is None:
        with pytest.raises(G.GeometryError, match="^metric degenerate: determinant reduces to zero$"):
            G.metric_inverse(g)
    else:
        ginv = G.metric_inverse(g)
        for i, j in itertools.product(range(n), repeat=2):
            assert ginv.comp(i, j) == inverse[i][j], (i, j)


def test_levi_civita_matches_sympy_sphere(sphere):
    chart, g = sphere
    D = G.levi_civita(g)
    th, ph = sympy.symbols("th ph")
    gamma_s = _sympy_christoffels((th, ph), [[1, 0], [0, sympy.sin(th)**2]])
    for seed in (11, 12, 13):
        pt = chart.sample_point(random.Random(seed))
        subs = {sympy.sin(th): sympy.Rational(pt["sin_th"]),
                sympy.cos(th): sympy.Rational(pt["cos_th"])}
        for key, expr_s in gamma_s.items():
            ours = D.comp(*key).evaluate(pt)
            rewritten = sympy.expand_trig(expr_s.rewrite(sympy.sin))
            theirs = Fraction(str(sympy.nsimplify(rewritten.subs(subs))))
            assert ours == theirs, (key, ours, theirs)


def test_levi_civita_properties(sphere):
    chart, g = sphere
    D = G.levi_civita(g)
    assert D.is_torsion_free()
    assert G.covariant_derivative(D, g).is_zero()


def test_sphere_is_einstein(sphere):
    # unit sphere: Ric = g exactly
    chart, g = sphere
    ric = G.ricci(G.levi_civita(g))
    assert ric.equals(g)


def _conformally_flat(chart, factor):
    n = chart.dim
    return G.TensorField(chart, ("d", "d"),
                         {(i, i): parse_expr(chart, factor) for i in range(n)})


def test_round_sphere_in_stereographic_coordinates_has_ric_equal_to_g():
    """g = 4 (dx^2 + dy^2) / (1 + x^2 + y^2)^2 is the unit sphere, whose
    Gaussian curvature 1 gives Ric = g."""
    chart = Chart(["x", "y"])
    g = _conformally_flat(chart, "4/(1 + x^2 + y^2)^2")
    assert G.ricci(G.levi_civita(g)).equals(g)


def test_upper_half_space_has_ric_equal_to_minus_two_g():
    """g = (dx^2 + dy^2 + dz^2) / z^2 is hyperbolic 3-space, of sectional
    curvature -1, so Ric = (n - 1)(-1) g = -2 g."""
    chart = Chart(["x", "y", "z"])
    g = _conformally_flat(chart, "1/z^2")
    assert G.ricci(G.levi_civita(g)).equals(g.scale(-2))


def _contracted_curvature(D):
    """Ric_bj = sum_a R^a_{b a j} read off the full curvature tensor."""
    chart = D.chart
    n = chart.dim
    R = G.curvature(D)
    return G.TensorField(chart, ("d", "d"), {
        (b, j): sum((R.comp(a, b, a, j) for a in range(n)), chart.zero())
        for b, j in itertools.product(range(n), repeat=2)})


def _skew_connection():
    """A connection on R^3 with torsion and a non-symmetric Ricci tensor:
    Gamma^k_ij = x_k x_i + (i - j) x_j + k."""
    chart = Chart(["x", "y", "z"])
    xs = [chart.var(v) for v in chart.coordinates]
    return G.Connection(chart, {
        (k, i, j): xs[k] * xs[i] + (i - j) * xs[j] + k
        for k, i, j in itertools.product(range(3), repeat=3)})


def test_ricci_is_the_contraction_of_the_curvature(eh_metric):
    """The sums straight from the Christoffel symbols equal the
    contraction of curvature() on the Eguchi-Hanson Levi-Civita
    connection (Ricci-flat, curved), on the submaximal c-projective
    connection (Ricci-flat, curved) and on a connection with torsion
    whose Ricci tensor is not symmetric."""
    from geosym.modelfile import load_model

    model = load_model(str(MODELS / "submax_cprojective_n2.model"))
    skew = _skew_connection()
    for D in (G.levi_civita(eh_metric), model.connections["D"], skew):
        assert not G.curvature(D).is_zero()
        assert G.ricci(D).equals(_contracted_curvature(D))
    ric = G.ricci(skew)
    assert not (ric.comp(0, 1) - ric.comp(1, 0)).is_zero()


def test_ricci_builds_one_sum_per_entry(eh_metric, monkeypatch):
    """A count, not a timing: Ricci of the Eguchi-Hanson connection is
    n^2 = 16 calls of Chart.sum_products and builds no curvature tensor."""
    D = G.levi_civita(eh_metric)
    calls = []
    sum_products = Chart.sum_products
    monkeypatch.setattr(Chart, "sum_products",
                        lambda self, terms: calls.append(1) or sum_products(self, terms))
    monkeypatch.setattr(G, "curvature", None)
    G.ricci(D)
    assert len(calls) == 16


def test_asd_span_takes_one_determinant_and_one_inverse(eh_metric, monkeypatch):
    """asd_span reads det g and g^-1 off one elimination of [g | I], for
    the volume root, the Hodge star, the inner product and the raised
    forms alike."""
    calls = []
    det_inverse = _linalg.det_inverse
    monkeypatch.setattr(_linalg, "det_inverse",
                        lambda rows: calls.append(len(rows)) or det_inverse(rows))
    G.asd_span(eh_metric, orientation=1)
    assert calls == [4]


def test_metric_det_eliminates_the_metric_alone(eh_metric, monkeypatch):
    """det g is read off an elimination of g, not of [g | I]."""
    widths = []
    eliminate = _linalg._eliminate
    monkeypatch.setattr(_linalg, "_eliminate",
                        lambda rows: widths.append(len(rows[0])) or eliminate(rows))
    assert G.metric_det(eh_metric) == G._det_inverse(eh_metric)[0]
    assert widths == [4, 8]


# ---------------------------------------------------------------------------
# Lie derivative against a finite-difference flow oracle
# ---------------------------------------------------------------------------

def _floats(chart, pt):
    return {c: float(pt[c]) for c in chart.coordinates}


def _flow(chart, X, p, t, steps=1):
    """RK4 integration of the flow of X starting at p (dict of floats)."""
    coords = chart.coordinates

    def f(q):
        qq = {c: Fraction(v).limit_denominator(10**12) for c, v in q.items()}
        return [float(X.comp(i).evaluate(qq)) for i in range(len(coords))]

    q = dict(p)
    h = t / steps
    for _ in range(steps):
        v = [q[c] for c in coords]
        k1 = f(q)
        k2 = f({c: v[i] + h / 2 * k1[i] for i, c in enumerate(coords)})
        k3 = f({c: v[i] + h / 2 * k2[i] for i, c in enumerate(coords)})
        k4 = f({c: v[i] + h * k3[i] for i, c in enumerate(coords)})
        q = {c: v[i] + h / 6 * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i])
             for i, c in enumerate(coords)}
    return q


def _jacobian(chart, X, p, t, h=1e-6):
    coords = chart.coordinates
    n = len(coords)
    J = [[0.0] * n for _ in range(n)]
    for j, cj in enumerate(coords):
        pp = dict(p); pp[cj] += h
        pm = dict(p); pm[cj] -= h
        fp = _flow(chart, X, pp, t)
        fm = _flow(chart, X, pm, t)
        for i, ci in enumerate(coords):
            J[i][j] = (fp[ci] - fm[ci]) / (2 * h)
    return J


def _pullback_at(chart, T, X, p, t):
    """(phi_t^* T)(p) for a tensor with arbitrary 'u'/'d' variance."""
    import numpy as np

    coords = chart.coordinates
    n = len(coords)
    q = _flow(chart, X, p, t)
    qq = {c: Fraction(v).limit_denominator(10**12) for c, v in q.items()}
    J = np.array(_jacobian(chart, X, p, t))
    Jinv = np.linalg.inv(J)
    out = {}
    for idx in itertools.product(range(n), repeat=T.rank):
        total = 0.0
        for src in itertools.product(range(n), repeat=T.rank):
            val = float(T.comp(*src).evaluate(qq))
            if val == 0.0:
                continue
            w = 1.0
            for slot, (a, b) in enumerate(zip(idx, src)):
                if T.variance[slot] == "u":
                    w *= Jinv[a, b]
                else:
                    w *= J[b, a]
            total += w * val
        out[idx] = total
    return out


def _fd_lie_derivative(chart, T, X, p, t=1e-4):
    plus = _pullback_at(chart, T, X, p, t)
    minus = _pullback_at(chart, T, X, p, -t)
    return {idx: (plus[idx] - minus[idx]) / (2 * t) for idx in plus}


@pytest.mark.parametrize("variance", [("d", "d"), ("u",), ("u", "d")])
def test_lie_derivative_matches_flow_oracle(variance):
    chart = Chart(["x", "y"])
    e = lambda s: parse_expr(chart, s)
    X = G.vector(chart, [e("y + x^2/4"), e("x - y^2/8")])
    comps = {
        ("d", "d"): {(0, 0): e("1 + x^2"), (0, 1): e("x*y/2"),
                     (1, 0): e("x*y/2"), (1, 1): e("2 + y^2")},
        ("u",): {(0,): e("x^2 - y"), (1,): e("x + y^2/3")},
        ("u", "d"): {(0, 0): e("x"), (0, 1): e("y^2"),
                     (1, 0): e("1 - x*y"), (1, 1): e("y")},
    }[variance]
    T = G.TensorField(chart, variance, comps)
    L = G.lie_derivative(T, X)
    p = {"x": 0.3, "y": -0.2}
    pq = {"x": Fraction(3, 10), "y": Fraction(-1, 5)}
    fd = _fd_lie_derivative(chart, T, X, p)
    scale = max(abs(v) for v in fd.values())
    for idx, approx in fd.items():
        exact = float(L.comp(*idx).evaluate(pq))
        assert abs(exact - approx) <= 1e-6 * max(scale, 1.0), (idx, exact, approx)


def test_lie_derivative_of_metric_for_killing_field(flat2):
    chart, g = flat2
    rot = G.vector(chart, [parse_expr(chart, "-y"), parse_expr(chart, "x")])
    assert G.lie_derivative(g, rot).is_zero()
    stretch = G.vector(chart, [parse_expr(chart, "x"), chart.zero()])
    assert not G.lie_derivative(g, stretch).is_zero()


def test_bracket_antisymmetry_and_jacobi():
    chart = Chart(["x", "y"])
    e = lambda s: parse_expr(chart, s)
    X = G.vector(chart, [e("x*y"), e("1 + x")])
    Y = G.vector(chart, [e("y^2"), e("x - y")])
    Z = G.vector(chart, [e("1"), e("x*y")])
    assert (G.bracket(X, Y) + G.bracket(Y, X)).is_zero()
    jac = (G.bracket(X, G.bracket(Y, Z))
           + G.bracket(Y, G.bracket(Z, X))
           + G.bracket(Z, G.bracket(X, Y)))
    assert jac.is_zero()


# ---------------------------------------------------------------------------
# Curvature identities
# ---------------------------------------------------------------------------

def _first_bianchi(R):
    n = R.chart.dim
    for a, b, i, j in itertools.product(range(n), repeat=4):
        s = (R.comp(a, b, i, j) + R.comp(a, i, j, b) + R.comp(a, j, b, i))
        if not s.is_zero():
            return False
    return True


def test_first_bianchi_sphere(sphere):
    chart, g = sphere
    assert _first_bianchi(G.curvature(G.levi_civita(g)))


def test_second_bianchi_sphere(sphere):
    chart, g = sphere
    D = G.levi_civita(g)
    R = G.curvature(D)
    DR = G.covariant_derivative(D, R)  # last slot is the derivative
    n = chart.dim
    for a, b, i, j, k in itertools.product(range(n), repeat=5):
        s = (DR.comp(a, b, i, j, k) + DR.comp(a, b, j, k, i)
             + DR.comp(a, b, k, i, j))
        assert s.is_zero()


def test_curvature_antisymmetry(sphere):
    chart, g = sphere
    R = G.curvature(G.levi_civita(g))
    n = chart.dim
    for a, b, i, j in itertools.product(range(n), repeat=4):
        assert (R.comp(a, b, i, j) + R.comp(a, b, j, i)).is_zero()


def test_flat_connection_curvature_vanishes():
    chart = Chart(["x", "y", "z"])
    D = G.Connection(chart, {})
    assert G.curvature(D).is_zero()


# ---------------------------------------------------------------------------
# Hypercomplex frames and anti-self-dual spans
# ---------------------------------------------------------------------------

def test_standard_triple_is_hypercomplex(flat4):
    chart, g = flat4
    I, J, K = standard_triple(chart)
    rep = G.check_hypercomplex_frame(I, J, K)
    assert rep.is_hypercomplex


def test_asd_span_flat(flat4):
    chart, g = flat4
    span = G.asd_span(g)
    assert len(span) == 3
    for A in span:
        # g-skewness: g(AX, Y) = -g(X, AY)
        for i, j in itertools.product(range(4), repeat=2):
            s = chart.zero()
            for k in range(4):
                s = s + g.comp(k, j) * A.comp(k, i) + g.comp(i, k) * A.comp(k, j)
            assert s.is_zero()


def _fold_matmul(chart, A, B):
    """Matrix product by ``+`` and ``*`` alone, independent of
    Chart.sum_products."""
    n = len(A)
    out = [[chart.zero()] * n for _ in range(n)]
    for i, j, k in itertools.product(range(n), repeat=3):
        out[i][j] = out[i][j] + A[i][k] * B[k][j]
    return out


def _rows(A):
    return [[A.comp(a, b) for b in range(4)] for a in range(4)]


def test_hodge_star_squares_to_the_identity_on_eguchi_hanson(eh_metric):
    """On 2-forms of a Riemannian 4-manifold ** = Id, and * has the
    eigenvalues +1 and -1 three times each, so its trace is 0."""
    chart = eh_metric.chart
    star = G.hodge_star_matrix(eh_metric)
    square = _fold_matmul(chart, star, star)
    for r, c in itertools.product(range(6), repeat=2):
        assert square[r][c] == (1 if r == c else 0)
    trace = chart.zero()
    for r in range(6):
        trace = trace + star[r][r]
    assert trace.is_zero()


def test_comp_of_a_missing_entry_builds_no_expr(monkeypatch):
    """A missing entry of a tensor or a connection is the chart's one
    zero, not a new Expr."""
    chart = Chart(["x", "y"])
    T = G.TensorField(chart, ("u", "d"), {(0, 1): chart.var("x")})
    D = G.Connection(chart, {(0, 0, 1): chart.var("y")})
    zero = chart.zero()
    built = []
    init = G.Expr.__init__

    def recording_init(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(G.Expr, "__init__", recording_init)
    assert T.comp(1, 0) is zero and D.comp(1, 1, 0) is zero
    assert T.comp(0, 1) == chart.var("x") and D.comp(0, 0, 1) == chart.var("y")
    assert len(built) == 2  # the two var calls only


def _four_factor_hodge_star(W, ginv):
    """The Hodge star with each entry written out as
    e W g^ka g^lb - e W g^kb g^la."""
    chart = ginv.chart
    basis = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    rows = [[None] * 6 for _ in range(6)]
    for c, (a, b) in enumerate(basis):
        for r, (i, j) in enumerate(basis):
            k, l = (x for x in range(4) if x not in (i, j))
            e = G._perm_sign((i, j, k, l))
            rows[r][c] = chart.sum_products([(e, W, ginv.comp(k, a), ginv.comp(l, b)),
                                             (-e, W, ginv.comp(k, b), ginv.comp(l, a))])
    return rows


def _four_factor_inner(ginv, f1, f2):
    """<f1, f2> = 1/2 f1_ij f2^ij written out as
    f1_ab f2_cd (g^ac g^bd - g^ad g^bc)."""
    return ginv.chart.sum_products(
        t for ((a, b), e1), ((c, d), e2) in itertools.product(f1.items(), f2.items())
        for t in ((e1, e2, ginv.comp(a, c), ginv.comp(b, d)),
                  (-1, e1, e2, ginv.comp(a, d), ginv.comp(b, c))))


def _flat_r4_metric():
    chart = Chart(["x0", "x1", "x2", "x3"])
    return G.TensorField(chart, ("d", "d"), {(i, i): chart.one() for i in range(4)})


@pytest.mark.parametrize("which", ["eguchi-hanson", "flat-r4"])
def test_two_form_metric_gives_the_four_factor_star_and_inner_products(which, eh_metric):
    """The Hodge star and the inner products of 2-forms, built from the
    2-form metric lam, equal the four-factor formulas: on the star's
    columns, on the ASD forms, and for the Gram-Schmidt triple, which is
    orthogonal with the returned squared norms."""
    g = eh_metric if which == "eguchi-hanson" else _flat_r4_metric()
    chart = g.chart
    det = G.metric_det(g)
    W, ginv = G._volume_root(det), G.metric_inverse(g)
    lam = G._two_form_metric(ginv)
    assert len(lam) == 36 and all(lam[p, q] is lam[q, p] for p, q in lam)
    star = G._hodge_star(W, lam)
    assert star == _four_factor_hodge_star(W, ginv)
    assert star == G.hodge_star_matrix(g)
    basis = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    forms = [{basis[r]: star[r][c] for r in range(6)} for c in range(6)]
    forms += [{basis[r]: chart.const(r + 2 * c - 3) for r in range(6)} for c in range(2)]
    for f1, f2 in itertools.product(forms, repeat=2):
        assert G._two_form_inner(chart, lam, f1, f2) == _four_factor_inner(ginv, f1, f2)
    for orientation in (1, -1):
        ortho, _ = G._asd_orthogonal(g, orientation)
        for (f1, n1), (f2, _) in itertools.product(ortho, repeat=2):
            expected = n1 if f1 is f2 else 0
            assert _four_factor_inner(ginv, f1, f2) == expected


@pytest.fixture(scope="module")
def eh_asd_span(eh_metric):
    return G.asd_span(eh_metric, orientation=1)


def test_asd_span_is_g_skew_on_eguchi_hanson(eh_metric, eh_asd_span):
    chart = eh_metric.chart
    g = [[eh_metric.comp(i, j) for j in range(4)] for i in range(4)]
    for A in eh_asd_span:
        gA = _fold_matmul(chart, g, _rows(A))  # (gA)_ij = g(e_i, A e_j)
        for i, j in itertools.product(range(4), repeat=2):
            assert (gA[i][j] + gA[j][i]).is_zero()


def test_asd_span_is_a_quaternion_like_triple_on_eguchi_hanson(eh_metric, eh_asd_span):
    """Pairwise trace-orthogonal, pairwise anticommuting, and A^2 = -lam Id
    with lam > 0 where the metric is positive definite (rho > 1)."""
    chart = eh_metric.chart
    point = {"rho": 2, "sin_phi": Fraction(5, 13), "cos_phi": Fraction(12, 13),
             "sin_psi": Fraction(3, 5), "cos_psi": Fraction(4, 5),
             "sin_theta": Fraction(8, 17), "cos_theta": Fraction(15, 17)}
    rows = [_rows(A) for A in eh_asd_span]
    for p, q in itertools.product(range(3), repeat=2):
        if p > q:
            continue
        pq = _fold_matmul(chart, rows[p], rows[q])
        if p == q:
            lam = -pq[0][0]
            assert lam.evaluate(point) > 0
            for a, b in itertools.product(range(4), repeat=2):
                assert pq[a][b] == (-lam if a == b else 0)
            continue
        qp = _fold_matmul(chart, rows[q], rows[p])
        trace = chart.zero()
        for a in range(4):
            trace = trace + pq[a][a]
        assert trace.is_zero()
        for a, b in itertools.product(range(4), repeat=2):
            assert (pq[a][b] + qp[a][b]).is_zero()


def test_volume_root_squares_to_det(sphere):
    chart, g = sphere
    w = G.volume_root(g)
    assert (w * w - G.metric_det(g)).is_zero()


def test_volume_root_is_positive_at_the_rational_point_of_the_pool_seed(sphere):
    """The sign of sqrt(det g) is fixed at the rational point
    ``sample_point(random.Random(_POOL_SEED))``, on a chart with a root
    generator too (whose radicand may be no square there): Eguchi-Hanson
    gives rho sin(psi) sin(phi)^2 / 2, the round sphere sin(th), and
    cos(y) W dx^2 + cos(y) / W dy^2 gives cos(y), positive there."""
    eh = build_eh_chart()
    assert G.volume_root(build_eh_metric(eh)) == \
        parse_expr(eh, "rho*sin(psi)*(1 - cos(phi)^2)/2")
    chart, g = sphere
    assert G.volume_root(g) == parse_expr(chart, "sin(th)")
    for radicand in ("x^2 + 1", "x - 3", 3, -1):
        chart = Chart(["x", "y"], trig_pairs=["y"], roots=[("W", radicand)])
        g = G.TensorField(chart, ("d", "d"), {(0, 0): parse_expr(chart, "cos(y)*W"),
                                              (1, 1): parse_expr(chart, "cos(y)/W")})
        assert chart.sample_point(random.Random(_POOL_SEED))["cos_y"] > 0
        assert G.volume_root(g) == parse_expr(chart, "cos(y)")


def test_volume_root_sign_needs_a_rational_value():
    # sqrt(det g) is the root W itself, which has no rational value at a
    # sample point, so its sign cannot be fixed
    chart = Chart(["x", "y"], roots=[("W", "x^2 + 1")])
    W = chart.var("W")
    g = G.TensorField(chart, ("d", "d"), {(0, 0): W, (1, 1): W})
    with pytest.raises(G.GeometryError, match="cannot be fixed"):
        G.volume_root(g)


def test_connection_shift_projective():
    chart = Chart(["x", "y"])
    D = G.Connection(chart, {})
    gamma = G.one_form(chart, [parse_expr(chart, "x"), chart.one()])
    D2 = G.connection_shift(D, gamma, [])
    assert D2.is_torsion_free()
    # shifted symbols: Gamma^k_{ij} = gamma_i delta^k_j + gamma_j delta^k_i
    for k, i, j in itertools.product(range(2), repeat=3):
        want = chart.zero()
        if k == j:
            want = want + gamma.comp(i)
        if k == i:
            want = want + gamma.comp(j)
        assert (D2.comp(k, i, j) - want).is_zero()


@pytest.mark.parametrize("gamma", [
    ["1", "0", "0", "0"],
    ["x1", "x0", "0", "0"],
    ["x2*x3", "0", "x0", "1"],
])
def test_connection_shift_quaternionic_preserves_the_quaternionic_bundle(gamma):
    """Shifting the flat connection of R^4 by a quaternionic shift keeps
    it torsion-free and keeps span(I, J, K) parallel, but not I itself."""
    chart = Chart([f"x{i}" for i in range(4)])
    frame = standard_triple(chart)
    D = G.connection_shift(G.Connection(chart, {}),
                           G.one_form(chart, [parse_expr(chart, c) for c in gamma]),
                           frame)
    assert D.is_torsion_free()
    for A in frame:
        DA = G.covariant_derivative(D, A)
        for i in range(4):
            X = G.TensorField(chart, ("u", "d"),
                              {(a, b): DA.comp(a, b, i) for a, b in itertools.product(range(4), repeat=2)})
            # the frame is orthonormal for the trace pairing: tr(AB) = -4 delta
            residual = X
            for B in frame:
                c = chart.sum_products((Fraction(1, 4), X.comp(a, b), B.comp(b, a))
                                       for a, b in itertools.product(range(4), repeat=2))
                residual = residual + B.scale(c)
            assert residual.is_zero()
    assert not G.covariant_derivative(D, frame[0]).is_zero()
