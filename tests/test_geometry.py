"""Tensor calculus checks against independent oracles: sympy Christoffel
symbols, finite-difference flows for the Lie derivative, and the Bianchi
identities."""

import itertools
import random
from fractions import Fraction

import pytest
import sympy

from geosym import geometry as G
from geosym.exprfield import Chart, parse_expr

from conftest import standard_triple


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
    ric = G.ricci(G.curvature(G.levi_civita(g)))
    assert ric.equals(g)


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
