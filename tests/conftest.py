"""Shared fixtures: charts, metrics, and fields reused across the suite.

The Eguchi-Hanson objects are session-scoped because building the
symmetry systems is the expensive part of the suite.
"""

import itertools
import random

import pytest

from geosym import _linalg
from geosym import geometry as G
from geosym import symsys as S
from geosym.exprfield import PRIME, Chart, GenericPoint, Poly, parse_expr


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


def planted_point(chart: Chart, seed: int) -> GenericPoint:
    """The rational point ``chart.sample_point(random.Random(seed))`` of a
    chart without roots, reduced mod PRIME = 2^61 - 1, as a GenericPoint
    of that seed.  Its values have small numerators and denominators, so
    such points are far more often degenerate than uniform GF(p) points."""
    values = chart.sample_point(random.Random(seed))
    return GenericPoint(seed, [v.numerator * pow(v.denominator, -1, PRIME) % PRIME
                               for v in (values[name] for name in chart.var_names)], PRIME)


def plant(monkeypatch, point: GenericPoint) -> None:
    """Make ``GenericPoint.sample`` return ``point`` for its seed; every
    other seed samples as before."""
    sample = GenericPoint.sample
    monkeypatch.setattr(GenericPoint, "sample", staticmethod(
        lambda chart, seed, taken=(): point if seed == point.seed
        else sample(chart, seed, taken)))


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


def root_chart_metric():
    """ds^2 + 2(t/W) ds dt + (t^2/W^2 + 1) dt^2 with W^2 = t^2 + 1: since
    dW = (t/W) dt this is d(s + W)^2 + dt^2, a flat metric."""
    chart = Chart(["s", "t"], roots=[("W", "t^2 + 1")])
    W = chart.var("W")
    t = chart.var("t")
    return chart, G.TensorField(chart, ("d", "d"), {
        (0, 0): chart.one(), (0, 1): t / W, (1, 0): t / W,
        (1, 1): t * t / (W * W) + 1})


def laplace_det(m, chart: Chart):
    """Reference determinant: the Laplace expansion along the first row,
    up to n! products (zero entries skipped)."""
    if len(m) == 1:
        return m[0][0]
    return chart.sum_products(
        ((-1) ** j, e, laplace_det([row[:j] + row[j + 1:] for row in m[1:]], chart))
        for j, e in enumerate(m[0]) if e)


def cofactor_inverse(m, chart: Chart):
    """Reference inverse: the transposed cofactors over the Laplace
    determinant; None when that determinant is zero."""
    n = len(m)
    det = laplace_det(m, chart)
    if det.is_zero():
        return None

    def cofactor(i, j):
        minor = [[m[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
        return chart.const((-1) ** (i + j)) * (laplace_det(minor, chart) if n > 1 else chart.one())
    return [[cofactor(j, i) / det for j in range(n)] for i in range(n)]


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


def _jacobian(phi):
    """(chart, jac, inv) for the polynomial map ``phi``, one component
    string per coordinate x0, x1, ...: Jac^l_j = d_j phi^l and its
    inverse, as lists of rows."""
    chart, _ = flat_chart(len(phi))
    comps = [parse_expr(chart, p) for p in phi]
    jac = [[f.differentiate(c) for c in chart.coordinates] for f in comps]
    _, inv = _linalg.det_inverse(jac)
    assert inv is not None, "phi is not a local diffeomorphism"
    return chart, jac, inv


def _pulled_back_endomorphism(chart, jac, inv, A):
    """Jac^-1 A Jac."""
    dim = chart.dim
    return G.endomorphism(chart, [[chart.sum_products(
        (inv[i][k], A.comp(k, l), jac[l][j]) for k in range(dim) for l in range(dim)
        if not A.comp(k, l).is_zero()) for j in range(dim)] for i in range(dim)])


def flat_quaternionic_pullback(phi):
    """The flat quaternionic structure on R^(4n) (Euclidean metric,
    standard triple) pulled back by the polynomial map ``phi``, one
    component string per coordinate x0, x1, ...: g = Jac^T Jac and
    A -> Jac^-1 A Jac, with Jac^l_j = d_j phi^l.  Returns
    ``(chart, jac, inv, g, triple)``; ``jac`` and its inverse ``inv``
    are lists of rows."""
    chart, jac, inv = _jacobian(phi)
    dim = chart.dim
    g = G.TensorField(chart, ("d", "d"), {
        (i, j): chart.sum_products((jac[k][i], jac[k][j]) for k in range(dim))
        for i in range(dim) for j in range(dim)})
    triple = [_pulled_back_endomorphism(chart, jac, inv, A) for A in standard_triple(chart)]
    return chart, jac, inv, g, triple


def flat_cprojective_pullback(phi):
    """The flat c-projective structure on C^n = R^(2n) (the standard
    complex structure, the flat connection) pulled back by ``phi`` as in
    :func:`flat_quaternionic_pullback`: J -> Jac^-1 J Jac and
    Gamma^k_ij = (Jac^-1)^k_l d_i Jac^l_j.  Returns ``(chart, J, D)``."""
    chart, jac, inv = _jacobian(phi)
    dim = chart.dim
    J = _pulled_back_endomorphism(chart, jac, inv,
                                  block_endomorphism(chart, [[0, -1], [1, 0]]))
    D = G.Connection(chart, {
        (k, i, j): chart.sum_products((inv[k][l], jac[l][j].differentiate(chart.coordinates[i]))
                                      for l in range(dim))
        for k in range(dim) for i in range(dim) for j in range(dim)})
    return chart, J, D


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


# -- Expr jet maps: the reference for the polynomial rows of symsys ----------


def _collect(chart, keyed_terms):
    """Coefficient map {key: sum of the products of its terms} of
    (key, factors) pairs, one ``Chart.sum_products`` per key; a term
    with a zero factor adds no key."""
    terms = {}
    for key, factors in keyed_terms:
        if all(factors):
            terms.setdefault(key, []).append(factors)
    return {key: chart.sum_products(t) for key, t in terms.items()}


def _unit(i, n):
    return tuple(1 if j == i else 0 for j in range(n))


def expr_lie_derivative_jet(T):
    """Jet-linear ``Expr`` coefficient maps of (L_X T)_idx, one per
    component."""
    chart = T.chart
    n = chart.dim
    zero = (0,) * n
    out = {}
    for idx in T.indices():
        base = T.comp(*idx)
        terms = [((mm, zero), (base.differentiate(chart.coordinates[mm]),))
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


def expr_lie_derivative_connection_jet(D):
    """Jet-linear ``Expr`` maps of (L_X D)^a_ij for i <= j; second order
    in X."""
    chart = D.chart
    n = chart.dim
    zero = (0,) * n
    out = {}
    for a, i, j in itertools.product(range(n), repeat=3):
        if i > j:
            continue  # symmetric in (i, j) for torsion-free D
        terms = []
        for mm in range(n):
            terms += [((mm, zero), (D.comp(a, i, j).differentiate(chart.coordinates[mm]),)),
                      ((a, _unit(mm, n)), (-1, D.comp(mm, i, j))),
                      ((mm, _unit(i, n)), (D.comp(a, mm, j),)),
                      ((mm, _unit(j, n)), (D.comp(a, i, mm),))]
        alpha = [0] * n
        alpha[i] += 1
        alpha[j] += 1
        terms.append(((a, tuple(alpha)), (1,)))
        out[(a, i, j)] = _collect(chart, terms)
    return out


def expr_contract(chart, omega, slots, jets):
    """Coefficient map of sum_s omega_s * (jet map of slot s): a
    functional applied to the per-slot ``Expr`` jet maps."""
    return _collect(chart, ((key, (c, w)) for w, s in zip(omega, slots) if w
                            for key, c in jets[s].items()))


def expr_rows(maps):
    """The nonzero entries of each coefficient map, the maps left empty
    dropped: the rows of a system built from ``Expr`` maps."""
    rows = [{k: v for k, v in m.items() if v} for m in maps]
    return [row for row in rows if row]


# -- rule-by-rule reduction: the reference for Chart._reduce_poly ------------


def rule_by_rule_reduce(chart, p):
    """p reduced by each rule g^2 -> rhs once, latest-declared g first,
    over the whole polynomial: each term c * m * g^e with e >= 2 becomes
    c * m * g^(e mod 2) * rhs^(e // 2).  This is how ``Chart._reduce_poly``
    reduced before it read memoized normal forms of generator monomials;
    the powers of each rhs are this call's own."""
    exp = 2 ** 16 - 1
    for g in reversed(chart.generators):
        if g.square_rhs is None:
            continue
        shift = chart._shift[chart._index[g.name]]
        high = (exp - 1) << shift  # the bits of exponents of g of 2 and more
        if not p.bits & high:
            continue
        powers = [Poly({0: 1}), g.square_rhs._num]
        out = {}
        for m, c in p.items():
            if not m & high:
                out[m] = out.get(m, 0) + c
                continue
            k = (m >> shift & exp) >> 1
            while len(powers) <= k:
                powers.append(powers[-1] * powers[1])
            base = m - (k << shift + 1)  # g^e becomes g^(e mod 2)
            for pm, pc in powers[k].items():
                out[base + pm] = out.get(base + pm, 0) + c * pc
        p = Poly({m: c for m, c in out.items() if c})
    return p
