"""Symmetry PDE generators: invariance systems, quaternionic and
c-projective systems, and the Obata connection."""

import itertools

import pytest

from geosym import _linalg
from geosym import geometry as G
from geosym import prolong as P
from geosym import symsys as S
from geosym.exprfield import _ONE, Chart, Expr, KernelInconsistency, Poly, parse_expr

from conftest import (block_endomorphism, build_eh_chart, build_eh_fields, build_eh_metric,
                      expr_contract, expr_lie_derivative_connection_jet,
                      expr_lie_derivative_jet, expr_rows, flat_chart, flat_cprojective_pullback,
                      flat_quaternionic_pullback, nested_root_chart, root_chart_metric,
                      shear_map, standard_triple)


def test_invariance_system_counts(flat2):
    chart, g = flat2
    ks = S.invariance_system(g)
    # one first-order equation per symmetric pair: (0, 1) and (1, 0) give
    # the same row, and the repeat is dropped
    assert len(ks) == 3
    ok, _ = P.verify_solution(ks, [chart.one(), chart.zero()])
    assert ok


@pytest.mark.parametrize("n", [1, 2])
def test_flat_quaternionic_bound_is_maximal(n):
    # flat H^n: sl(n+1, H) = H^n + (gl(n, H) + sp(1)) + (H^n)*, of
    # dimension 4(n+1)^2 - 1
    chart, g = flat_chart(4 * n)
    qs = S.quaternionic_symmetry_system(list(standard_triple(chart)), g)
    res = P.solution_bound(qs, max_stage=6)
    assert res.conclusive
    assert res.bound == 4 * (n + 1) ** 2 - 1
    assert res.final_table.dims == (0, 0, 4 * n, 4 * n * n + 3, 4 * n)


@pytest.mark.parametrize("n", [2, 3])
def test_flat_cprojective_bound(n):
    # flat C^n: sl(n+1, C) = C^n + gl(n, C) + (C^n)*, of real dimension
    # 2((n+1)^2 - 1)
    chart, _ = flat_chart(2 * n)
    J = block_endomorphism(chart, [[0, -1], [1, 0]])
    cs = S.cprojective_symmetry_system(J, G.Connection(chart, {}))
    res = P.solution_bound(cs, max_stage=6)
    assert res.conclusive
    assert res.bound == 2 * ((n + 1) ** 2 - 1)
    assert res.final_table.dims == (0, 0, 2 * n, 2 * n * n, 2 * n)


def test_quaternionic_system_rejects_bad_frame(flat4):
    chart, g = flat4
    I, J, K = standard_triple(chart)
    with pytest.raises(S.SymSysError):
        S.quaternionic_symmetry_system([I, I, I], g)
    # (I, J, I) spans rank 2: its annihilator in End(TM) has dimension 14, not 16 - 3
    with pytest.raises(S.SymSysError, match="rank-3"):
        S.quaternionic_symmetry_system([I, J, I], g)


def test_cprojective_system_preconditions(flat4):
    chart, g = flat4
    I, _, _ = standard_triple(chart)
    torsion = G.Connection(chart, {(0, 0, 1): chart.one()})
    with pytest.raises(S.SymSysError):
        S.cprojective_symmetry_system(I, torsion)


def test_obata_flat_triple_gives_flat_connection(flat4):
    chart, g = flat4
    I, J, K = standard_triple(chart)
    D = S.obata_solve(I, J, K)
    assert not D.gamma
    for A in (I, J, K):
        assert G.covariant_derivative(D, A).is_zero()


def test_obata_requires_hypercomplex(flat4):
    chart, g = flat4
    I, J, K = standard_triple(chart)
    with pytest.raises(S.SymSysError):
        S.obata_solve(I, J, J)


def _on_field(chart, coeffs, X):
    """sum c X^a_alpha over the coefficient map {(a, alpha): c} of
    polynomials, for the concrete vector field X."""
    def jet(a, alpha):
        e = X.comp(a)
        for i, k in enumerate(alpha):
            for _ in range(k):
                e = e.differentiate(chart.coordinates[i])
        return e
    return chart.sum_products((c, jet(a, alpha)) for (a, alpha), c in coeffs.items())


def _jets_on_field(jets, idx, X):
    """(d maps[idx] - hat[idx] xd)(X) / (S d^2): (L_X T)_idx by the
    identity of :class:`~geosym.symsys.LieJets`."""
    chart = X.chart
    top = chart.sum_products([(jets.d, _on_field(chart, jets.maps[idx], X)),
                              (-1, jets.hat.get(idx, Poly()), _on_field(chart, jets.xd, X))])
    return top / Expr(chart, jets.s * jets.d * jets.d, _ONE)


def _flat2_case():
    chart = Chart(["x", "y"])
    g = G.TensorField(chart, ("d", "d"), {(0, 0): chart.one(), (1, 1): chart.one()})
    return g, G.vector(chart, [parse_expr(chart, "x*y"), parse_expr(chart, "y^2")])


def _eh_case():
    """The Eguchi-Hanson metric and a field that is no Killing field."""
    chart = build_eh_chart()
    return build_eh_metric(chart), G.vector(chart, [parse_expr(chart, c) for c in (
        "rho*cos(phi)", "sin(psi)/rho", "rho^2", "cos(theta)*sin(phi)")])


def _root_chart_case():
    chart, g = root_chart_metric()
    return g, G.vector(chart, [parse_expr(chart, c) for c in ("s*t", "W*s")])


def _nested_root_case():
    """V dx^2 + W dy^2 on the chart with W^2 = x^2 + 1, V^2 = W + y^2 + 3:
    the rules of x and of y have different denominators."""
    chart = nested_root_chart()
    g = G.TensorField(chart, ("d", "d"), {(0, 0): chart.var("V"), (1, 1): chart.var("W")})
    return g, G.vector(chart, [parse_expr(chart, c) for c in ("x*y", "V*x")])


def _root_pullback_case():
    chart, _, frame = _root_pullback_r4()
    return frame[0], G.vector(chart, [parse_expr(chart, c) for c in
                                      ("x1*W", "x0^2", "x3/W", "x2")])


@pytest.mark.parametrize("build", [_flat2_case, _eh_case, _root_chart_case, _nested_root_case,
                                   _root_pullback_case],
                         ids=["flat2", "eguchi-hanson", "root-chart", "nested-root",
                              "root-pullback-r4"])
def test_lie_derivative_jet_matches_direct_computation(build):
    """The jet-linear form of L_X T evaluated on a concrete field equals
    the geometric Lie derivative: (d maps - T^ xd)(X) = S d^2 L_X T.  On
    the curved charts d is not 1, and on the root charts S is not; on the
    nested roots S / s_m is not 1 either."""
    T, X = build()
    jets = S.lie_derivative_jet(T)
    L = G.lie_derivative(T, X)
    assert set(jets.maps) == set(T.indices())
    for idx in T.indices():
        assert _jets_on_field(jets, idx, X).equals(L.comp(*idx)), idx


def _submax_model():
    from pathlib import Path

    from geosym.modelfile import load_model

    return load_model(str(Path(P.__file__).parent / "models" / "submax_cprojective_n2.model"))


def _levi_civita_case(metric):
    def build():
        g, X = metric()
        return G.levi_civita(g), X
    return build


def _submax_case():
    model = _submax_model()
    return model.connections["D"], G.vector(model.chart, [parse_expr(model.chart, c) for c in
                                                          ("x1*y2", "x1^2", "y1", "x2*y1")])


@pytest.mark.parametrize("build", [_levi_civita_case(_eh_case), _levi_civita_case(_root_chart_case),
                                   _submax_case],
                         ids=["eguchi-hanson", "root-chart", "submax-cprojective-n2"])
def test_lie_derivative_connection_jet_matches_brackets(build):
    """(L_X D)(d_i, d_j) = [X, D_(d_i) d_j] - D_([X, d_i]) d_j - D_(d_i) [X, d_j],
    built from brackets of vector fields (``geometry.bracket``), equals
    the jet-linear form of L_X D on the field X."""
    D, X = build()
    chart = D.chart
    n = chart.dim
    jets = S.lie_derivative_connection_jet(D)
    units = [G.vector(chart, [1 if j == i else 0 for j in range(n)]) for i in range(n)]
    moved = [G.bracket(X, e) for e in units]  # [X, d_i]
    for i, j in itertools.product(range(n), repeat=2):
        if i > j:
            continue
        along = G.bracket(X, G.vector(chart, [D.comp(k, i, j) for k in range(n)]))
        for k in range(n):
            oracle = chart.sum_products(
                [(along.comp(k),)]
                + [(-1, moved[i].comp(m), D.comp(k, m, j)) for m in range(n)]
                + [(-1, moved[j].comp(k).differentiate(chart.coordinates[i]))]
                + [(-1, D.comp(k, i, m), moved[j].comp(m)) for m in range(n)])
            assert _jets_on_field(jets, (k, i, j), X).equals(oracle), (k, i, j)


def test_translations_solve_every_flat_system(flat4):
    chart, g = flat4
    I, J, K = standard_triple(chart)
    qs = S.quaternionic_symmetry_system([I, J, K], g)
    cs = S.cprojective_symmetry_system(I, G.Connection(chart, {}))
    for i in range(4):
        comps = [chart.one() if j == i else chart.zero() for j in range(4)]
        for system in (qs, cs):
            ok, _ = P.verify_solution(system, comps)
            assert ok


def test_rotation_in_quaternionic_but_scaling_too(flat4):
    chart, g = flat4
    I, J, K = standard_triple(chart)
    qs = S.quaternionic_symmetry_system([I, J, K], g)
    # the Euler field is a quaternionic symmetry (not an isometry)
    euler = [parse_expr(chart, c) for c in ("x0", "x1", "x2", "x3")]
    ok, _ = P.verify_solution(qs, euler)
    assert ok
    ks = S.invariance_system(g)
    ok, _ = P.verify_solution(ks, euler)
    assert not ok


def test_obata_of_a_non_constant_triple(flat4):
    # the standard triple pushed forward by (x0, x1) -> (x0 + x1^2, x1);
    # its Obata connection is the flat one in the new coordinates, whose
    # only Christoffel symbol is Gamma^0_{11} = d^2(x0 - x1^2)/dx1^2 = -2
    chart, g = flat4
    dphi = G.endomorphism(chart, [[1, "2*x1", 0, 0], [0, 1, 0, 0],
                                  [0, 0, 1, 0], [0, 0, 0, 1]])
    dphi_inv = G.endomorphism(chart, [[1, "-2*x1", 0, 0], [0, 1, 0, 0],
                                      [0, 0, 1, 0], [0, 0, 0, 1]])
    I, J, K = (G.endo_mul(G.endo_mul(dphi, A), dphi_inv)
               for A in standard_triple(chart))
    D = S.obata_solve(I, J, K)
    assert D.gamma
    assert D.comp(0, 1, 1).equals(chart.const(-2))
    for A in (I, J, K):
        assert G.covariant_derivative(D, A).is_zero()
    assert G.curvature(D).is_zero()


@pytest.mark.parametrize("phi", [
    shear_map(4),
    ["x0 + x1^2", "x1 + x2*x3", "x2 + x3^2", "x3"],
    pytest.param(shear_map(8), marks=pytest.mark.slow),
], ids=["sheared-r4", "coupled-r4", "sheared-r8"])
def test_obata_of_a_pulled_back_frame_is_the_pulled_back_flat_connection(phi):
    """The Obata connection of a pulled-back flat triple is the pullback
    of the flat connection, Gamma^k_ij = (Jac^-1)^k_l d_i Jac^l_j: an
    oracle that shares no code with the closed form."""
    chart, jac, inv, _, triple = flat_quaternionic_pullback(phi)
    n = chart.dim
    D = S.obata_solve(*triple)
    assert D.gamma
    for k, i, j in itertools.product(range(n), repeat=3):
        oracle = chart.sum_products((inv[k][l], jac[l][j].differentiate(chart.coordinates[i]))
                                    for l in range(n))
        assert D.comp(k, i, j).equals(oracle), (k, i, j)
    assert G.curvature(D).is_zero()


# -- quaternionic rows in polynomial arithmetic -------------------------------


def _root_r4():
    """Flat R^4 over a chart with W^2 = x0^2 + 1, its frame rescaled by
    W and 1/(x1^2 + 1): the derivation rule of x0 has a denominator."""
    chart = Chart([f"x{i}" for i in range(4)], roots=[("W", "x0^2 + 1")])
    g = G.TensorField(chart, ("d", "d"), {(i, i): chart.one() for i in range(4)})
    I, J, K = standard_triple(chart)
    return chart, g, [I.scale(chart.var("W")), J, K.scale(parse_expr(chart, "1/(x1^2 + 1)"))]


def _root_pullback_r4():
    """The standard triple of R^4 pulled back by (x0, x1 + W x2, x2, x3),
    W^2 = x0^2 + 1: A -> Jac^-1 A Jac.  Its entries hold W, and their
    derivatives by x0 leave the span."""
    chart = Chart([f"x{i}" for i in range(4)], roots=[("W", "x0^2 + 1")])
    g = G.TensorField(chart, ("d", "d"), {(i, i): chart.one() for i in range(4)})
    jac, inv = (G.endomorphism(chart, [[1, 0, 0, 0], [f"{sign}x0*x2/W", 1, f"{sign}W", 0],
                                       [0, 0, 1, 0], [0, 0, 0, 1]]) for sign in ("", "-"))
    return chart, g, [G.endo_mul(G.endo_mul(inv, A), jac) for A in standard_triple(chart)]


def _eh():
    chart = build_eh_chart()
    g = build_eh_metric(chart)
    return chart, g, G.asd_span(g, orientation=1)


def _flat_r4():
    chart, g = flat_chart(4)
    return chart, g, list(standard_triple(chart))


def _sheared_r4():
    chart, _, _, g, triple = flat_quaternionic_pullback(shear_map(4))
    return chart, g, triple


def _assert_rows_times_one_function(system, reference):
    """Each polynomial row is its reference row of ``Expr`` s times one
    nonzero function: the key sets are equal, and c_k r_l = c_l r_k for
    any two keys after reduction."""
    chart = system.chart
    assert len(system) == len(reference)
    for eq, ref in zip(system.equations, reference):
        assert eq.coeffs.keys() == ref.keys()
        c = {k: Expr(chart, p, _ONE) for k, p in eq.coeffs.items()}
        first = next(iter(ref))
        for k in ref:
            assert c[k] * ref[first] == c[first] * ref[k], k


@pytest.mark.parametrize("build", [_eh, _flat_r4, _sheared_r4, _root_r4, _root_pullback_r4],
                         ids=["eguchi-hanson", "flat-r4", "sheared-r4", "root-r4",
                              "root-pullback-r4"])
def test_quaternionic_rows_are_the_expr_rows_times_one_function(build):
    """Each polynomial row is the Expr row omega(L_X A) of the jet maps
    (the reference), frame element by frame element and annihilator row
    by annihilator row, times one nonzero function."""
    chart, g, frame = build()
    n = chart.dim
    slots = [(a, b) for b, a in itertools.product(range(n), repeat=2)]
    ann = S._endo_annihilator_full(frame, chart)
    reference = expr_rows(expr_contract(chart, omega, slots, expr_lie_derivative_jet(A))
                          for A in frame for omega in ann)
    _assert_rows_times_one_function(S.quaternionic_symmetry_system(frame, g), reference)


@pytest.mark.parametrize("build", [_eh, _sheared_r4, _root_r4],
                         ids=["eguchi-hanson", "sheared-r4", "root-r4"])
def test_quaternionic_rows_skip_the_known_zero_pairing(build):
    """w(A^) = 0 for each cleared annihilator row w and frame element A,
    so the builder contracts jets without A^: its rows equal those that
    :func:`~geosym.symsys._rows` builds with A^, which find each w(A^)
    zero by reduction."""
    chart, g, frame = build()
    n = chart.dim
    slots = [(a, b) for b, a in itertools.product(range(n), repeat=2)]
    omegas = S._functionals(chart, slots, S._endo_annihilator_full(frame, chart))
    for A in frame:
        jets = S.lie_derivative_jet(A)
        assert all(not chart._reduce_poly(sum((v * jets.hat[s] for s, v in w.items()
                                               if s in jets.hat), Poly()))
                   for w in omegas)
    with_hat = [eq.coeffs for A in frame
                for eq in S._rows(chart, S.lie_derivative_jet(A), omegas)]
    assert [eq.coeffs for eq in S.quaternionic_symmetry_system(frame, g).equations] == with_hat


def _killing_case(metric):
    def build():
        g = metric()
        maps = expr_rows(expr_lie_derivative_jet(g).values())
        # a row equal to an earlier one is dropped, as invariance_system does
        reference = [row for k, row in enumerate(maps) if row not in maps[:k]]
        return S.invariance_system(g), reference
    return build


def _cprojective_case(structure):
    def build():
        J, D = structure()
        chart = J.chart
        n = chart.dim
        slots = [(a, i, j) for a, i, j in itertools.product(range(n), repeat=3) if i <= j]
        shifts = [G.connection_shift(G.Connection(chart, {}), G.one_form(
            chart, [1 if j == k else 0 for j in range(n)]), [J]) for k in range(n)]
        ann = _linalg.nullspace([[shift.comp(*s) for s in slots] for shift in shifts],
                                  len(slots))
        jets = expr_lie_derivative_connection_jet(D)
        reference = expr_rows(list(expr_lie_derivative_jet(J).values())
                              + [expr_contract(chart, omega, slots, jets) for omega in ann])
        return S.cprojective_symmetry_system(J, D), reference
    return build


def _sphere_metric():
    chart = Chart(["th", "ph"], trig_pairs=["th"])
    return G.TensorField(chart, ("d", "d"), {(0, 0): chart.one(),
                                             (1, 1): parse_expr(chart, "sin(th)^2")})


def _flat_c2():
    chart, _ = flat_chart(4)
    return block_endomorphism(chart, [[0, -1], [1, 0]]), G.Connection(chart, {})


def _submax_structure():
    model = _submax_model()
    return model.endomorphisms["J"], model.connections["D"]


def _pulled_back_c2():
    _, J, D = flat_cprojective_pullback(["x0 + x0^3", "x1", "x2 + x0*x3", "x3"])
    return J, D


@pytest.mark.parametrize("build", [
    _killing_case(lambda: build_eh_metric(build_eh_chart())),
    _killing_case(lambda: root_chart_metric()[1]),
    _killing_case(_sphere_metric),
    _cprojective_case(_submax_structure),
    _cprojective_case(_flat_c2),
    _cprojective_case(_pulled_back_c2),
], ids=["killing-eguchi-hanson", "killing-root-chart", "killing-sphere",
        "cprojective-submax-n2", "cprojective-flat-c2", "cprojective-pulled-back-c2"])
def test_killing_and_cprojective_rows_are_the_expr_rows_times_one_function(build):
    """The Killing rows (unit functionals on L_X g) and the c-projective
    rows (unit functionals on L_X J, then the shift annihilator on L_X D)
    are the Expr rows of the reference jet maps, in order, each times one
    nonzero function.  The pulled-back C^2 has a connection with
    denominators, so d is not 1 there."""
    system, reference = build()
    _assert_rows_times_one_function(system, reference)


def test_pulled_back_c2_has_the_flat_cprojective_bound():
    """The flat C^2 pulled back by a map with a non-constant Jacobian
    determinant keeps the flat bound 16 and its tables."""
    res = P.solution_bound(S.cprojective_symmetry_system(*_pulled_back_c2()), max_stage=6)
    flat = P.solution_bound(S.cprojective_symmetry_system(*_flat_c2()), max_stage=6)
    assert res.conclusive and res.bound == 16
    assert [t.dims for t in res.tables] == [t.dims for t in flat.tables]


@pytest.mark.parametrize("seed", [1, 101, 102])
def test_eguchi_hanson_bound_does_not_see_a_rescaled_frame(seed):
    """Rescaling frame elements by nonzero functions keeps their span, so
    the system has the same equations, tables and bound, and v1..v4
    still solve it."""
    chart, g, (A1, A2, A3) = _eh()
    rho = chart.var("rho")
    system = S.quaternionic_symmetry_system([A1.scale(rho ** 2 + 1), A2.scale(1 / rho), A3], g)
    assert len(system) == 37
    res = P.solution_bound(system, max_stage=5, seeds=(seed, seed + 101, seed + 202))
    assert [t.dims for t in res.tables] == [
        (7, 4), (4, 7, 4), (0, 4, 4, 4), (0, 0, 0, 1, 3)]
    assert res.conclusive and res.bound == 4
    for v in build_eh_fields(chart):
        ok, _ = P.verify_solution(system, [v.comp(i) for i in range(4)])
        assert ok


def test_root_chart_frame_has_the_flat_tables():
    """On a chart with W^2 = x0^2 + 1, whose derivation rules carry a
    denominator, the rescaled flat frame (W I, J, K / (x1^2 + 1)) has
    the flat quaternionic bound and tables, and the translations and the
    Euler field solve its system."""
    chart, g, frame = _root_r4()
    system = S.quaternionic_symmetry_system(frame, g)
    res = P.solution_bound(system, max_stage=6)
    _, flat_g, flat_frame = _flat_r4()
    flat = P.solution_bound(S.quaternionic_symmetry_system(flat_frame, flat_g), max_stage=6)
    assert res.conclusive and res.bound == 15
    assert [t.dims for t in res.tables] == [t.dims for t in flat.tables]
    fields = [[chart.one() if j == i else chart.zero() for j in range(4)] for i in range(4)]
    fields.append([chart.var(f"x{i}") for i in range(4)])
    for comps in fields:
        ok, _ = P.verify_solution(system, comps)
        assert ok


def test_eguchi_hanson_quaternionic_rows_build_few_exprs(monkeypatch):
    """Past the annihilator, the Eguchi-Hanson build makes few Exprs (the
    derivation rules' and the annihilator rows' rational entries): no
    coefficient is an Expr sum."""
    chart, g, frame = _eh()
    built = []
    inside = []
    init = Expr.__init__
    annihilator = S._endo_annihilator_full

    def recording_init(self, *args):
        init(self, *args)
        if not inside:
            built.append(self)

    def annihilator_uncounted(*args):
        inside.append(True)
        try:
            return annihilator(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(Expr, "__init__", recording_init)
    monkeypatch.setattr(S, "_endo_annihilator_full", annihilator_uncounted)
    S.quaternionic_symmetry_system(frame, g)
    assert len(built) <= 50


def test_eguchi_hanson_killing_system_builds_no_expr(monkeypatch):
    """Once the chart holds its derivation rules (built by the first
    build and cached), building the Eguchi-Hanson Killing system makes
    no Expr: every row is polynomial from the cleared metric."""
    chart = build_eh_chart()
    g = build_eh_metric(chart)
    first = S.invariance_system(g)
    built = []
    init = Expr.__init__

    def recording_init(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(Expr, "__init__", recording_init)
    again = S.invariance_system(g)
    assert built == []
    assert len(again) == len(first) == 10


def test_a_quaternionic_coefficient_that_reduces_to_zero_is_cross_checked(monkeypatch):
    """The build sends each coefficient through the chart's one zero
    cross-check (:meth:`Chart._reduce_checked`): a planted reduction that
    zeroes a nonzero coefficient raises there, called by the builder.
    The sheared chart has no relations, so its coefficients are the
    unreduced sums; the longest is no numerator of an Expr of the build.
    The builder's contraction, :func:`~geosym.symsys._rows`, calls the
    check."""
    chart, g, frame = _sheared_r4()
    system = S.quaternionic_symmetry_system(frame, g)
    target = max((c for eq in system.equations for c in eq.coeffs.values()), key=len)
    reduce_poly = Chart._reduce_poly
    monkeypatch.setattr(Chart, "_reduce_poly",
                        lambda self, p: Poly() if p == target else reduce_poly(self, p))
    with pytest.raises(KernelInconsistency) as info:
        S.quaternionic_symmetry_system(frame, g)
    assert [e.name for e in info.traceback[-2:]] == ["_rows", "_reduce_checked"]

