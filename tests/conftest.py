"""Shared fixtures: charts, metrics, and fields reused across the suite.

The Eguchi-Hanson objects are session-scoped because building the
symmetry systems is the expensive part of the suite.
"""

import pytest

from geosym import _linalg
from geosym import geometry as G
from geosym import symsys as S
from geosym.exprfield import Chart, parse_expr


EH_METRIC_COMPONENTS = {
    ("rho", "rho"): "rho/(4*(rho^2-1))",
    ("phi", "phi"): "(rho^2-cos(psi)^2)/rho",
    ("phi", "psi"): "cos(psi)*cos(phi)*sin(psi)*sin(phi)/rho",
    ("phi", "theta"): "-sin(psi)^2*sin(phi)^2*cos(psi)/rho",
    ("psi", "psi"): "sin(phi)^2*(cos(psi)^2*cos(phi)^2+rho^2-cos(phi)^2)/rho",
    ("psi", "theta"): "sin(phi)^3*sin(psi)^3*cos(phi)/rho",
    ("theta", "theta"):
        "-sin(psi)^2*sin(phi)^2*(cos(psi)^2*cos(phi)^2-rho^2+1"
        "-cos(psi)^2-cos(phi)^2)/rho",
}

EH_KILLING_FIELDS = {
    "v1": {
        "phi": "cos(psi)",
        "psi": "-sin(psi)*cos(phi)/sin(phi)",
        "theta": "1",
    },
    "v2": {
        "phi": "sin(psi)*cos(theta)",
        "psi": "sin(phi)*sin(psi)^2*(cos(theta)*cos(psi)*cos(phi)"
               "+sin(phi)*sin(theta))"
               "/(cos(psi)^2*cos(phi)^2-cos(psi)^2-cos(phi)^2+1)",
        "theta": "(sin(phi)*cos(theta)*cos(psi)-sin(theta)*cos(phi))"
                 "/(sin(phi)*sin(psi))",
    },
    "v3": {
        "phi": "sin(psi)*sin(theta)",
        "psi": "-sin(phi)*sin(psi)^2*(sin(phi)*cos(theta)"
               "-sin(theta)*cos(phi)*cos(psi))"
               "/(cos(psi)^2*cos(phi)^2-cos(psi)^2-cos(phi)^2+1)",
        "theta": "(sin(phi)*sin(theta)*cos(psi)+cos(theta)*cos(phi))"
                 "/(sin(phi)*sin(psi))",
    },
    "v4": {
        "phi": "cos(psi)",
        "psi": "sin(psi)*sin(phi)*cos(phi)/(cos(phi)^2-1)",
        "theta": "-(cos(psi)^2*cos(phi)^2-cos(psi)^2-cos(phi)^2+1)"
                 "/(sin(phi)^2*sin(psi)^2)",
    },
}


def build_eh_chart() -> Chart:
    return Chart(["rho", "phi", "psi", "theta"], trig_pairs=["phi", "psi", "theta"])


def build_eh_metric(chart: Chart) -> G.TensorField:
    coords = chart.coordinates
    comps = {}
    for (a, b), src in EH_METRIC_COMPONENTS.items():
        i, j = coords.index(a), coords.index(b)
        e = parse_expr(chart, src)
        comps[(i, j)] = e
        comps[(j, i)] = e
    return G.TensorField(chart, ("d", "d"), comps)


def build_eh_fields(chart: Chart):
    coords = chart.coordinates
    fields = []
    for name in ("v1", "v2", "v3", "v4"):
        comps = [chart.zero()] * 4
        for coord, src in EH_KILLING_FIELDS[name].items():
            comps[coords.index(coord)] = parse_expr(chart, src)
        fields.append(G.vector(chart, comps))
    return fields


@pytest.fixture(scope="session")
def eh_chart():
    return build_eh_chart()


@pytest.fixture(scope="session")
def eh_metric(eh_chart):
    return build_eh_metric(eh_chart)


@pytest.fixture(scope="session")
def eh_fields(eh_chart):
    return build_eh_fields(eh_chart)


@pytest.fixture(scope="session")
def eh_quaternionic_system(eh_metric):
    span = G.asd_span(eh_metric, orientation=1)
    return S.quaternionic_symmetry_system(span, eh_metric)


@pytest.fixture(scope="session")
def sphere():
    chart = Chart(["th", "ph"], trig_pairs=["th"])
    g = G.TensorField(chart, ("d", "d"), {
        (0, 0): chart.one(),
        (1, 1): parse_expr(chart, "sin(th)^2"),
    })
    return chart, g


@pytest.fixture()
def flat2():
    chart = Chart(["x", "y"])
    g = G.TensorField(chart, ("d", "d"),
                      {(0, 0): chart.one(), (1, 1): chart.one()})
    return chart, g


def block_endomorphism(chart: Chart, block):
    """The constant endomorphism repeating ``block`` along the diagonal."""
    k, dim = len(block), chart.dim
    return G.endomorphism(chart, [
        [chart.const(block[i % k][j % k] if i // k == j // k else 0)
         for j in range(dim)] for i in range(dim)])


def standard_triple(chart: Chart):
    """The constant hypercomplex triple on a 4n-dimensional chart: the
    standard one on each R^4 block."""
    I = block_endomorphism(
        chart, [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    J = block_endomorphism(
        chart, [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]])
    K = G.endo_mul(I, J)
    return I, J, K


def nested_root_chart() -> Chart:
    """Chart (x, y) with W^2 = x^2 + 1 and V^2 = W + y^2 + 3: a root
    over a root."""
    return Chart(["x", "y"], roots=[("W", "x^2 + 1"), ("V", "W + y^2 + 3")])


def flat_chart(dim: int):
    """Chart x0..x(dim-1) with the Euclidean metric."""
    chart = Chart([f"x{i}" for i in range(dim)])
    g = G.TensorField(chart, ("d", "d"),
                      {(i, i): chart.one() for i in range(dim)})
    return chart, g


@pytest.fixture()
def flat4():
    return flat_chart(4)


def shear_map(dim: int):
    """The shear phi_i = x_i + x_(i+1)^2 of R^dim, the last coordinate
    kept, as component strings."""
    return [f"x{i} + x{i + 1}^2" for i in range(dim - 1)] + [f"x{dim - 1}"]


def flat_quaternionic_pullback(phi):
    """The flat quaternionic structure on R^(4n) (Euclidean metric,
    standard triple) pulled back by the polynomial map ``phi``, one
    component string per coordinate x0, x1, ...: g = Jac^T Jac and
    A -> Jac^-1 A Jac, with Jac^l_j = d_j phi^l.  Returns
    ``(chart, jac, inv, g, triple)``; ``jac`` and its inverse ``inv``
    are lists of rows."""
    chart, _ = flat_chart(len(phi))
    dim = chart.dim
    comps = [parse_expr(chart, p) for p in phi]
    jac = [[f.differentiate(c) for c in chart.coordinates] for f in comps]
    red, pivots = _linalg.rref([row + [chart.one() if j == i else chart.zero()
                                       for j in range(dim)] for i, row in enumerate(jac)])
    assert pivots == list(range(dim)), "phi is not a local diffeomorphism"
    inv = [row[dim:] for row in red]
    g = G.TensorField(chart, ("d", "d"), {
        (i, j): chart.sum_products((jac[k][i], jac[k][j]) for k in range(dim))
        for i in range(dim) for j in range(dim)})
    triple = [G.endomorphism(chart, [[chart.sum_products(
        (inv[i][k], A.comp(k, l), jac[l][j]) for k in range(dim) for l in range(dim)
        if not A.comp(k, l).is_zero()) for j in range(dim)] for i in range(dim)])
        for A in standard_triple(chart)]
    return chart, jac, inv, g, triple


def reference_residuals(system, components):
    """The certificate residuals of ``prolong.verify_solution`` as they
    were first built: each jet of the field an ``Expr`` (cached, each
    one derivative of a lower jet), and each residual the
    ``Chart.sum_products`` of the equation's coefficients times those
    jets, one normalized sum per equation."""
    chart = system.chart
    jets = {(a, (0,) * chart.dim): chart.expr(c) for a, c in enumerate(components)}

    def jet(a, alpha):
        if (a, alpha) not in jets:
            i = next(j for j, e in enumerate(alpha) if e)
            lower = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]
            jets[a, alpha] = jet(a, lower).differentiate(chart.coordinates[i])
        return jets[a, alpha]

    return [chart.sum_products((c, jet(a, alpha)) for (a, alpha), c in eq.coeffs.items())
            for eq in system.equations]
