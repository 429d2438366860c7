"""Prolongation-projection engine: symbol tables, bounds, and solution
verification."""

import gc
import random
from fractions import Fraction
from itertools import product
from math import comb, perm, prod

import pytest
from hypothesis import given, settings, strategies as st

from geosym import _linalg
from geosym import geometry as G
from geosym import prolong as P
from geosym import symsys as S
from geosym.exprfield import (_ONE, Chart, Expr, KernelInconsistency, Poly, _crt_basis,
                              _derivation_rules, _poly_mod, _prime, _residues, _series_key,
                              parse_expr)

from conftest import (flat_chart, flat_cprojective_pullback, flat_quaternionic_pullback,
                      nested_root_chart, plant, planted_point, reference_residuals,
                      root_chart_metric, shear_map, standard_triple)


def _monotone_tables(tables):
    """dim g_k never increases from one stage to the next (aligned by
    jet order, counted from the low end of each table)."""
    for prev, cur in zip(tables, tables[1:]):
        for k in range(len(prev.dims)):
            assert cur.dim(k) <= prev.dim(k) if k <= cur.top_order else True


def test_prolong_adds_first_derivatives():
    """prolong(S, k) holds S and one D^beta E per equation E and each
    beta with 1 <= |beta| <= k: the mixed partial D_x D_y E once."""
    chart = Chart(["x", "y"])
    sys1 = P.LinearPDESystem.from_coefficient_maps(
        chart, 2, [{(0, (1, 0)): chart.one()}])
    assert [e.order for e in P.prolong(sys1, 0).equations] == [1]
    assert [e.order for e in P.prolong(sys1, 1).equations] == [1, 2, 2]
    assert [e.order for e in P.prolong(sys1, 2).equations] == [1, 2, 2, 3, 3, 3]


def test_prolonged_rows_are_scaled_total_derivatives():
    """With nested roots in the coefficients, each derived row of
    prolong(S) is s times the total derivative of its parent row taken
    with Expr.differentiate, s clearing the roots' derivation rules."""
    ch = nested_root_chart()
    x, W, V = ch.var("x"), ch.var("W"), ch.var("V")
    system = P.LinearPDESystem.from_coefficient_maps(ch, 2, [
        {(0, (1, 0)): V, (0, (0, 0)): W * x, (1, (0, 1)): V / (x - W)},
        {(1, (1, 0)): W * V, (0, (0, 1)): parse_expr(ch, "y^2")}])
    as_expr = lambda p: Expr(ch, p, _ONE)
    derived = P.prolong(system, 1).equations[len(system):]
    assert len(derived) == 4
    # each equation's derivatives follow it, one per coordinate in turn
    for (parent, i), eq in zip(product(system.equations, range(2)), derived):
        coord = ch.coordinates[i]
        ref = {}
        for (a, alpha), c in parent.coeffs.items():
            up = list(alpha)
            up[i] += 1
            for key, v in (((a, alpha), as_expr(c).differentiate(coord)),
                           ((a, tuple(up)), as_expr(c))):
                ref[key] = ref.get(key, ch.zero()) + v
        ref = {k: v for k, v in ref.items() if not v.is_zero()}
        s, _ = _derivation_rules(ch, coord, parent.coeffs.values())
        assert not s.is_ground
        assert set(eq.coeffs) == set(ref)
        for key, v in ref.items():
            assert type(eq.coeffs[key]) is Poly
            assert as_expr(eq.coeffs[key]) / as_expr(s) == v


def test_symbol_dimensions_trivial():
    chart = Chart(["x", "y"])
    # u_x = 0 for a single scalar unknown: g_1 loses one of two slots
    system = P.LinearPDESystem.from_coefficient_maps(
        chart, 1, [{(0, (1, 0)): chart.one()}])
    table = P.solution_bound(system, max_stage=1, seeds=(17,)).tables[0]
    assert table.dims == (1, 1)  # (dim g_1, dim g_0)


def test_flat_killing_bound(flat2):
    chart, g = flat2
    res = P.solution_bound(S.invariance_system(g))
    assert res.conclusive
    assert res.bound == 3
    _monotone_tables(res.tables)


def test_sphere_killing_bound(sphere):
    chart, g = sphere
    res = P.solution_bound(S.invariance_system(g))
    assert res.conclusive
    assert res.bound == 3
    assert res.point_independent
    _monotone_tables(res.tables)


def test_point_independence_uses_at_least_three_points(flat2):
    chart, g = flat2
    res = P.solution_bound(S.invariance_system(g))
    assert len(res.points) >= 3
    assert res.point_independent


def test_bound_changes_with_metric():
    # a generic non-symmetric metric admits no Killing fields
    chart = Chart(["x", "y"])
    g = G.TensorField(chart, ("d", "d"), {
        (0, 0): parse_expr(chart, "1 + x^2 + y^4"),
        (1, 1): parse_expr(chart, "1 + x^4 + x*y^2"),
    })
    res = P.solution_bound(S.invariance_system(g))
    assert res.conclusive
    # strictly below the maximal value 3 attained by constant-curvature
    # metrics; the bound is an upper estimate, not the exact dimension
    assert res.bound < 3


def test_inconclusive_when_capped(flat2):
    chart, g = flat2
    res = P.solution_bound(S.invariance_system(g), max_stage=1)
    assert not res.conclusive
    assert res.bound is None


def test_max_stage_validation(flat2):
    chart, g = flat2
    with pytest.raises(P.ProlongError):
        P.solution_bound(S.invariance_system(g), max_stage=0)
    with pytest.raises(P.ProlongError, match="at least one seed"):
        P.solution_bound(S.invariance_system(g), seeds=())


def test_verify_solution(flat2):
    chart, g = flat2
    ks = S.invariance_system(g)
    ok, residuals = P.verify_solution(
        ks, [parse_expr(chart, "-y"), parse_expr(chart, "x")])
    assert ok
    assert all(r.is_zero() for r in residuals)
    ok, _ = P.verify_solution(ks, [parse_expr(chart, "x"), chart.zero()])
    assert not ok


def test_verify_solution_arity(flat2):
    chart, g = flat2
    ks = S.invariance_system(g)
    with pytest.raises(P.ProlongError):
        P.verify_solution(ks, [chart.one()])


def test_verify_solution_leaves_no_reference_cycle(flat2):
    """A certificate's jets are freed by reference counting when it
    returns; it leaves nothing for the cyclic garbage collector."""
    chart, g = flat2
    ks = S.invariance_system(g)
    field = [parse_expr(chart, "x^2*y - y"), parse_expr(chart, "x")]
    gc.collect()
    gc.disable()
    try:
        ok, _ = P.verify_solution(ks, field)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert not ok


def _residuals_match_the_reference(system, components):
    """verify_solution's residuals equal, as normal forms, the
    sum_products residuals of the Expr jets (conftest's reference);
    returns its verdict."""
    ok, residuals = P.verify_solution(system, components)
    reference = reference_residuals(system, components)
    assert len(residuals) == len(reference)
    for r, ref in zip(residuals, reference):
        assert r._num == ref._num and r._den == ref._den
    assert ok == all(ref.is_zero() for ref in reference)
    return ok


def _eh_perturbed(chart, v):
    """v plus cos(theta)/rho d_phi - rho sin(psi) d_rho: no symmetry."""
    comps = [v.comp(i) for i in range(4)]
    comps[1] = comps[1] + parse_expr(chart, "cos(theta)/rho")
    comps[0] = comps[0] - parse_expr(chart, "rho*sin(psi)")
    return comps


@pytest.mark.parametrize("structure", ["killing", "quaternionic"])
def test_eguchi_hanson_residuals_are_the_sum_products_residuals(
        structure, eh_chart, eh_metric, eh_fields, eh_quaternionic_system):
    """On Eguchi-Hanson, for v1..v4 (all zero) and two perturbed fields
    (not all zero), each residual of the polynomial certificate is the
    normal form of the sum of products over the Expr jets."""
    system = (S.invariance_system(eh_metric) if structure == "killing"
              else eh_quaternionic_system)
    for v in eh_fields:
        assert _residuals_match_the_reference(system, [v.comp(i) for i in range(4)])
    for v in eh_fields[:2]:
        assert not _residuals_match_the_reference(system, _eh_perturbed(eh_chart, v))


def test_root_chart_residuals_are_the_sum_products_residuals():
    """On a chart with W^2 = x0^2 + 1, whose jets carry W in their
    denominators, the residuals of the Killing system of a warped metric
    and of the quaternionic system of a rescaled frame equal the
    sum_products residuals, for solutions and for fields that are none."""
    chart = Chart([f"x{i}" for i in range(4)], roots=[("W", "x0^2 + 1")])
    W = chart.var("W")
    warped = G.TensorField(chart, ("d", "d"), {
        (0, 0): chart.one(), (1, 1): W, (2, 2): chart.one(), (3, 3): W})
    flat = G.TensorField(chart, ("d", "d"), {(i, i): chart.one() for i in range(4)})
    I, J, K = standard_triple(chart)
    frame = [I.scale(W), J, K.scale(parse_expr(chart, "1/(x1^2 + 1)"))]
    fields = [[parse_expr(chart, s) for s in comps] for comps in (
        ["0", "1", "0", "0"], ["0", "-x3", "0", "x1"], ["0", "0", "1", "0"],
        ["W", "x1/(W + x2)", "0", "x3*W"], ["1/W", "0", "x0*x2", "x1^2/(W - x3)"])]
    verdicts = {}
    for name, system in (("killing", S.invariance_system(warped)),
                         ("quaternionic", S.quaternionic_symmetry_system(frame, flat))):
        verdicts[name] = [_residuals_match_the_reference(system, comps) for comps in fields]
    assert verdicts == {"killing": [True, True, True, False, False],
                        "quaternionic": [True, True, True, False, False]}


def test_cprojective_residuals_are_the_sum_products_residuals():
    """The second-order c-projective system of the submaximal model: its
    8 fields and a perturbed one give the sum_products residuals."""
    from pathlib import Path

    from geosym.modelfile import load_model

    model = load_model(str(Path(P.__file__).parent / "models" / "submax_cprojective_n2.model"))
    system = S.cprojective_symmetry_system(model.endomorphisms["J"], model.connections["D"])
    assert system.order == 2
    chart = model.chart
    assert len(model.vectors) == 8
    for v in model.vectors.values():
        assert _residuals_match_the_reference(system, [v.comp(i) for i in range(4)])
    C = model.vectors["C"]
    perturbed = [C.comp(0) * chart.var("x1"), C.comp(1), C.comp(2), C.comp(3) + chart.one()]
    assert not _residuals_match_the_reference(system, perturbed)


def test_a_residual_that_reduces_to_zero_falsely_is_cross_checked(monkeypatch,
                                                                    eh_chart, eh_fields,
                                                                    eh_quaternionic_system):
    """Each residual polynomial goes through Chart._reduce_checked: a
    planted reduction that zeroes the dot product of a nonzero residual
    raises KernelInconsistency through verify_solution."""
    comps = _eh_perturbed(eh_chart, eh_fields[0])
    dots = []
    poly_dot = P._poly_dot

    def recording_dot(pairs):
        dots.append(poly_dot(pairs))
        return dots[-1]

    monkeypatch.setattr(P, "_poly_dot", recording_dot)
    ok, residuals = P.verify_solution(eh_quaternionic_system, comps)
    assert not ok and len(dots) == len(residuals)
    target = next(p for p, r in zip(dots, residuals) if not r.is_zero())
    monkeypatch.undo()
    reduce_poly = Chart._reduce_poly
    monkeypatch.setattr(Chart, "_reduce_poly",
                        lambda self, p: Poly() if p == target else reduce_poly(self, p))
    with pytest.raises(KernelInconsistency):
        P.verify_solution(eh_quaternionic_system, comps)


def test_solution_space_dimensions_match_known_algebras(flat4):
    # flat R^4: isometry algebra has dimension 10
    chart, g = flat4
    res = P.solution_bound(S.invariance_system(g))
    assert res.conclusive
    assert res.bound == 10


def test_clear_denominators_preserves_solutions():
    chart = Chart(["x"])
    e = parse_expr(chart, "1/(1 + x^2)")
    system = P.LinearPDESystem.from_coefficient_maps(
        chart, 1, [{(0, (1,)): e, (0, (0,)): e * parse_expr(chart, "-1")}])
    # u' = u has solutions; the cleared system must keep u = e^x jets free
    res = P.solution_bound(system)
    assert res.conclusive
    assert res.bound == 1
    ok, _ = P.verify_solution(system, [chart.zero()])
    assert ok


def test_a_common_factor_of_the_coefficients_is_kept():
    """Clearing multiplies an equation by the lcm of its denominators and
    divides by nothing: x^2 + x and x keep their common factor x, a
    nonzero function, which leaves the bound as it is."""
    chart = Chart(["x"])
    x = chart.var("x")
    system = P.LinearPDESystem.from_coefficient_maps(
        chart, 1, [{(0, (1,)): x ** 2 + x, (0, (0,)): x}])
    assert system.equations[0].coeffs == {(0, (1,)): (x ** 2 + x)._num, (0, (0,)): x._num}
    divided = P.LinearPDESystem.from_coefficient_maps(
        chart, 1, [{(0, (1,)): x + 1, (0, (0,)): chart.one()}])
    assert P.solution_bound(system).bound == P.solution_bound(divided).bound == 1


def test_the_eguchi_hanson_certificates_take_no_polynomial_gcd(monkeypatch):
    """With sympy's polynomial gcds switched off (the kernel's own
    polynomials have none), the Eguchi-Hanson quaternionic system still
    builds, v1..v4 still solve it and close into a 4-dimensional algebra:
    denominators are put over their lcm and cancelled by trial division
    against the table of irreducibles."""
    from sympy import Poly as SympyPoly
    from sympy.polys.rings import PolyElement

    from conftest import build_eh_chart, build_eh_fields, build_eh_metric
    from geosym import liealg as L

    def no_gcd(*args, **kwargs):
        raise AssertionError("a polynomial gcd was taken")

    assert not hasattr(Poly, "gcd") and not hasattr(Poly, "cofactors")
    for cls in (PolyElement, SympyPoly):
        monkeypatch.setattr(cls, "gcd", no_gcd)
        monkeypatch.setattr(cls, "cofactors", no_gcd)
    chart = build_eh_chart()
    metric = build_eh_metric(chart)
    system = S.quaternionic_symmetry_system(G.asd_span(metric, orientation=1), metric)
    fields = build_eh_fields(chart)
    for v in fields:
        ok, _ = P.verify_solution(system, [v.comp(i) for i in range(4)])
        assert ok
    assert L.closure_from_fields(fields).dimension == 4


def test_cleared_coefficients_hash_like_fresh_polynomials():
    """Coefficients divided by a gcd (in ``Expr``) or multiplied by a
    quotient of the lcm of their denominators (in clearing) carry the
    hash of their value, so memo lookups by polynomial find them."""
    chart = Chart(["x", "y"])
    maps = [{(0, (1, 0)): "(x^2-1)/(x-1)", (0, (0, 1)): "x"},
            {(0, (1, 0)): "x*y + y", (1, (0, 1)): "x^2 - 1"},
            {(0, (0, 0)): "1/(x*y)", (1, (1, 0)): "(x+y)/(x^2*y+x*y^2)"}]
    system = P.LinearPDESystem.from_coefficient_maps(
        chart, 2, [{k: parse_expr(chart, v) for k, v in m.items()} for m in maps])
    for eq in P.prolong(system, 1).equations:
        for c in eq.coeffs.values():
            assert hash(c) == hash(Poly(c))


def test_tables_deterministic_for_seed(sphere):
    chart, g = sphere
    r1 = P.solution_bound(S.invariance_system(g), seeds=(7, 8, 9))
    r2 = P.solution_bound(S.invariance_system(g), seeds=(7, 8, 9))
    assert [t.dims for t in r1.tables] == [t.dims for t in r2.tables]
    assert r1.bound == r2.bound


def _nested_root_system():
    """Killing system of V dx^2 + W dy^2 on the nested root chart
    (W^2 = x^2 + 1, V^2 = W + y^2 + 3)."""
    chart = nested_root_chart()
    return S.invariance_system(G.TensorField(chart, ("d", "d"), {
        (0, 0): chart.var("V"), (1, 1): chart.var("W")}))


@pytest.mark.parametrize("seed", [1, 7, 17, 101])
@pytest.mark.parametrize("case", ["sphere", "flat2", "flat3", "root-chart",
                                  "flat-quaternionic", "nested-root"])
def test_dropping_dependent_equations_keeps_tables(request, case, seed):
    """solution_bound carries only rows independent at the sample point
    forward and takes them from Taylor jets; its tables equal those of
    the full symbolic prolongations evaluated at the same point."""
    if case == "root-chart":
        system = S.invariance_system(root_chart_metric()[1])
    elif case == "nested-root":
        system = _nested_root_system()
    else:
        system = _oracle_system(request, case)
    res = P.solution_bound(system, max_stage=3, seeds=(seed,))
    for k, table in enumerate(res.tables):
        assert _stage_one_dims(P.prolong(system, k), seed) == table.dims


def _stage_one_dims(system, seed):
    """The stage-1 symbol table of ``system`` at the point of ``seed``."""
    return P.solution_bound(system, max_stage=1, seeds=(seed,)).tables[0].dims


def _graded_columns(system):
    """The system's jet keys (a, alpha) as graded keys (-|alpha|, a,
    alpha), which sort highest jet order first."""
    return sorted({(-sum(alpha), a, alpha) for eq in system.equations for a, alpha in eq.coeffs})


def _table_from_pivots(system, pivots):
    """dim g_k from the pivot columns of an RREF over graded keys: with
    the columns sorted highest jet order first, the pivots of one reduced
    row echelon form are the column rank profile, so the order-k pivots
    number rank(columns of order >= k) - rank(columns of order > k)."""
    orders = [-key[0] for key in pivots]
    n, m = system.chart.dim, system.n_unknowns
    return tuple(m * comb(n + k - 1, k) - orders.count(k)
                 for k in range(system.order, -1, -1))


def _rational_table(system, values):
    """Reference dim g_k from exact rational ranks at the rational point
    ``values``."""
    chart = system.chart
    cols = _graded_columns(system)
    rows = [[Expr(chart, eq.coeffs[a, alpha], _ONE).evaluate(values)
             if (a, alpha) in eq.coeffs else Fraction(0) for _, a, alpha in cols]
            for eq in system.equations]
    return _table_from_pivots(system, [cols[p] for p in _linalg.pivot_columns(rows)])


def _dense_table(system, point):
    """Reference dim g_k from dense ranks in GF(p) at a GenericPoint: each
    coefficient of the symbolic rows evaluated at the point's residues
    (``_poly_mod``), then dense elimination mod its prime
    (:func:`_dense_pivots`)."""
    rows = [{(-sum(alpha), a, alpha): _poly_mod(c, point.residues, point.prime)
             for (a, alpha), c in eq.coeffs.items()} for eq in system.equations]
    return _table_from_pivots(system, _dense_pivots(rows, _graded_columns(system),
                                                    point.prime)[0])


def _oracle_system(request, case):
    if case == "flat3":
        return S.invariance_system(flat_chart(3)[1])
    if case == "flat-quaternionic":
        chart, g = flat_chart(4)
        return S.quaternionic_symmetry_system(list(standard_triple(chart)), g)
    return S.invariance_system(request.getfixturevalue(case)[1])


@pytest.mark.parametrize("seed", [3, 17, 101])
@pytest.mark.parametrize("case", ["sphere", "flat2", "flat3",
                                  pytest.param("flat-quaternionic", marks=pytest.mark.slow)])
def test_symbol_tables_mod_p_match_rational_ranks(request, monkeypatch, case, seed):
    """The GF(p) tables of the system and its prolongations equal those of
    dense elimination mod p of the symbolic rows at the same point; at
    the rational point of the seed, reduced mod 2^61 - 1, they equal the
    tables from exact rational elimination too."""
    system = _oracle_system(request, case)
    point = P.GenericPoint.sample(system.chart, seed)
    planted = planted_point(system.chart, seed)
    values = system.chart.sample_point(random.Random(seed))
    for stage in (1, 2, 3):
        prolonged = P.prolong(system, stage - 1)
        assert _stage_one_dims(prolonged, seed) == _dense_table(prolonged, point)
        with monkeypatch.context() as m:
            plant(m, planted)
            assert _stage_one_dims(prolonged, seed) == _dense_table(prolonged, planted) \
                == _rational_table(prolonged, values)


def test_coefficient_denominator_divisible_by_prime_clears_to_integers(monkeypatch):
    """X' / PRIME + x X = 0 clears to X' + PRIME x X = 0, integer
    coefficients that reduce mod 2^61 - 1 = PRIME without error.  Its
    table there is no smaller than the rational one at the same point
    (here the two are equal), so the bound stays an upper bound."""
    chart = Chart(["x"])
    system = P.LinearPDESystem.from_coefficient_maps(chart, 1, [{
        (0, (1,)): chart.const(Fraction(1, P.PRIME)),
        (0, (0,)): parse_expr(chart, "x")}])
    x = chart._gens[0]
    assert system.equations[0].coeffs == {(0, (1,)): _ONE, (0, (0,)): P.PRIME * x}
    point = P.GenericPoint.sample(chart, 1)
    assert point.prime == P.PRIME
    table = _stage_one_dims(system, 1)
    assert table == _dense_table(system, point) == (0, 1)
    plant(monkeypatch, planted_point(chart, 1))
    assert _stage_one_dims(system, 1) == (0, 1) == \
        _rational_table(system, chart.sample_point(random.Random(1)))
    res = P.solution_bound(system)
    assert res.conclusive and res.bound == 1


@pytest.mark.parametrize("seeds", [(101, 202, 303), (1, 102, 203), (7, 108, 209)])
def test_killing_bound_on_a_root_generator_chart(seeds):
    chart, g = root_chart_metric()
    res = P.solution_bound(S.invariance_system(g), seeds=seeds)
    assert res.conclusive
    assert res.bound == 3
    assert [t.dims for t in res.tables] == [(1, 2), (0, 1, 2), (0, 0, 1, 2)]


@pytest.mark.parametrize("radicand", [3, 15, -1])
def test_killing_bound_with_a_root_that_is_no_square_mod_the_first_prime(radicand):
    """W dx^2 + W dy^2 with a constant W^2 is flat; 3, 15 and -1 are not
    squares mod 2^61-1, so its points lie at another prime."""
    chart = Chart(["x", "y"], roots=[("W", radicand)])
    W = chart.var("W")
    g = G.TensorField(chart, ("d", "d"), {(0, 0): W, (1, 1): W})
    res = P.solution_bound(S.invariance_system(g))
    assert res.conclusive
    assert res.bound == 3
    assert [t.dims for t in res.tables] == [(1, 2), (0, 1, 2), (0, 0, 1, 2)]
    assert P.GenericPoint.sample(chart, 101).prime != P.PRIME
    assert P.PRIME not in res.primes and len(set(res.primes)) == 3


def test_formal_roots_map_to_square_roots_mod_p():
    """A formal root W is sent to a square root of its radicand mod p; a
    point whose radicand is not a square mod p is replaced by the next
    point of the seed's stream."""
    chart, _ = root_chart_metric()
    t, W = (chart.var_names.index(v) for v in ("t", "W"))
    resampled = 0
    for seed in range(1, 12):
        point = P.GenericPoint.sample(chart, seed)
        r = point.residues
        assert r[W] * r[W] % P.PRIME == (r[t] * r[t] + 1) % P.PRIME
        # the stream's first draw, or the first whose radicand is a square
        rng = random.Random(seed)
        first = _residues(chart, rng, P.PRIME)
        while first is None:
            resampled += 1
            first = _residues(chart, rng, P.PRIME)
        assert first == r
    assert resampled
    # a taken prime is skipped: the point takes the next prime of the
    # chain at which its stream has square radicands
    for seed in range(1, 6):
        point = P.GenericPoint.sample(chart, seed, taken=(P.PRIME,))
        assert point.prime == _prime(1)
        r = point.residues
        assert r[W] * r[W] % point.prime == (r[t] * r[t] + 1) % point.prime
    # 3 is not a square mod 2^61-1: W^2 = 3 samples the stream's first
    # draw at the next prime below it (which is 1 mod 4), and the
    # relation holds there; with that prime taken too, at the next prime
    # where 3 is a square
    chart = Chart(["x"], roots=[("W", 3)])
    for seed in (1, 2):
        point = P.GenericPoint.sample(chart, seed)
        assert point.prime == _prime(1) != P.PRIME
        assert point.prime % 4 == 1
        assert point.residues[0] == random.Random(seed).randrange(point.prime)
        assert point.residues[1] ** 2 % point.prime == 3
        other = P.GenericPoint.sample(chart, seed, taken=(point.prime,))
        assert other.prime < point.prime
        assert other.residues[0] == random.Random(seed).randrange(other.prime)
        assert other.residues[1] ** 2 % other.prime == 3


def _multi_indices(n, top):
    """Every alpha in N^n with |alpha| <= top."""
    if n == 0:
        return [()]
    return [(i,) + rest for i in range(top + 1) for rest in _multi_indices(n - 1, top - i)]


def _graded_keys(n, m, top):
    """Every graded key (-|alpha|, a, alpha) with |alpha| <= top."""
    return [(-sum(alpha), a, alpha) for alpha in _multi_indices(n, top) for a in range(m)]


# (n, m, top): small charts, and the flat R^8 quaternionic system
# (n = m = 8, first order, max_stage 6) as solution_bound codes it
@pytest.mark.parametrize("n, m, top", [(1, 1, 0), (1, 3, 5), (2, 2, 7), (3, 4, 5),
                                       (4, 8, 4), (8, 8, 7)])
def test_column_codes_sort_like_graded_keys(n, m, top):
    cols = P._Columns(n, m, top)
    keys = _graded_keys(n, m, top)
    code = {key: cols.code(key[1], key[2]) for key in keys}
    assert sorted(keys, key=code.get) == sorted(keys)
    assert all(cols.order(code[key]) == -key[0] for key in keys)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_column_codes_and_shifts_for_any_size(data):
    """For n, m <= 8 and any top order: two codes compare like their
    graded keys, the order decodes, and the Leibniz terms of D^beta are
    one per gamma <= beta, keyed by gamma's packed Taylor key, each
    with its weight and the shift of beta - gamma, which moves the
    column of X^a_alpha to that of X^a_(alpha+beta-gamma)."""
    n, m = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
    top = data.draw(st.integers(0, 12))
    cols = P._Columns(n, m, top)

    def key():
        a = data.draw(st.integers(0, m - 1))
        alpha = [0] * n
        for _ in range(data.draw(st.integers(0, top))):
            alpha[data.draw(st.integers(0, n - 1))] += 1
        return (-sum(alpha), a, tuple(alpha))

    k1, k2 = key(), key()
    c1, c2 = cols.code(k1[1], k1[2]), cols.code(k2[1], k2[2])
    assert (c1 < c2) == (k1 < k2) and (c1 == c2) == (k1 == k2)
    assert cols.order(c1) == -k1[0]
    alpha, beta = k1[2], k2[2]
    if sum(alpha) + sum(beta) <= top:
        shifts = cols.shifts(beta)
        gammas = {_series_key(gamma): gamma
                  for gamma in product(*(range(b + 1) for b in beta))}
        assert sorted(key for key, _, _ in shifts) == sorted(gammas)
        for key, weight, delta in shifts:
            gamma = gammas[key]
            up = tuple(x + b - g for x, b, g in zip(alpha, beta, gamma))
            assert c1 + delta == cols.code(k1[1], up)
            assert weight == prod(perm(b, g) for b, g in zip(beta, gamma))


def _dense_pivots(rows, columns, prime):
    """Pivot columns of the reduced row echelon form mod prime of the
    dense matrix whose columns are ``columns`` in ascending order, and
    that form's rows: a map from each pivot to the nonzero entries of
    its row other than the pivot entry 1."""
    mat = [[r.get(c, 0) % prime for c in columns] for r in rows]
    pivots = []
    for j, c in enumerate(columns):
        rank = len(pivots)
        i = next((i for i in range(rank, len(mat)) if mat[i][j]), None)
        if i is None:
            continue
        mat[rank], mat[i] = mat[i], mat[rank]
        inv = pow(mat[rank][j], prime - 2, prime)
        mat[rank] = [v * inv % prime for v in mat[rank]]
        for i, r in enumerate(mat):
            if i != rank and r[j]:
                mat[i] = [(x - r[j] * y) % prime for x, y in zip(r, mat[rank])]
        pivots.append(c)
    return pivots, {p: {c: v for c, v in zip(columns, r) if v and c != p}
                    for p, r in zip(pivots, mat)}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_graded_elimination_matches_dense_reference(data):
    """Random sparse integer rows (read mod p, so entries may be
    unreduced or multiples of p), some of them combinations of earlier
    rows that cancel to 0 mod p: the pivot keys, per-order counts and
    rank equal those of dense elimination mod p, whatever order the
    rows are added in, and every stored row, read mod p with zeros
    dropped, is the row of the reduced row echelon form with its pivot."""
    prime = data.draw(st.sampled_from([7, P.PRIME]))
    n, m, top = (data.draw(st.integers(1, 3)) for _ in range(3))
    cols = P._Columns(n, m, top)
    keys = sorted(cols.code(a, alpha) for _, a, alpha in _graded_keys(n, m, top))
    pool = data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=10, unique=True))
    entry = st.one_of(st.integers(-3 * prime, 3 * prime), st.sampled_from([0, prime, -prime]))
    rows = []
    for _ in range(data.draw(st.integers(1, 12))):
        if len(rows) >= 2 and data.draw(st.booleans()):
            r1, r2 = data.draw(st.sampled_from(rows)), data.draw(st.sampled_from(rows))
            f1, f2 = data.draw(entry), data.draw(entry)
            row = {k: f1 * r1.get(k, 0) + f2 * r2.get(k, 0) for k in set(r1) | set(r2)}
        else:
            row = data.draw(st.dictionaries(st.sampled_from(pool), entry, min_size=1))
        rows.append({k: v for k, v in row.items() if v})
    ref, ref_rows = _dense_pivots(rows, sorted({k for r in rows for k in r}), prime)
    ref_orders = {}
    for c in ref:
        ref_orders[cols.order(c)] = ref_orders.get(cols.order(c), 0) + 1
    for ordered in (rows, data.draw(st.permutations(rows))):
        elim = P._GradedElimination((prime,), cols)
        pivots = [elim.add(r) for r in ordered]
        assert sorted(p for p in pivots if p is not None) == sorted(elim.rows) == ref
        assert elim.pivots_per_order() == ref_orders
        for p, tail in elim.rows.items():
            assert {k: r for k, v in tail.items() if (r := v % prime)} == ref_rows[p]


def test_graded_elimination_back_substitutes_new_pivots():
    """A new pivot held in earlier stored tails is cleared from them,
    also when the back-substituted entry is left a nonzero multiple of
    p; such an entry reads as 0 and is skipped when its column becomes
    a pivot."""
    prime = 7
    elim = P._GradedElimination((prime,), P._Columns(1, 1, 3))
    rows = [{0: 1, 1: 2, 3: 1}, {1: 1, 3: 4}, {3: 1, 5: 1}]
    assert [elim.add(r) for r in rows] == [0, 1, 3]
    # {1: 1, 3: 4} cleared column 1 from row 0: 1 - 2 * 4 = -7 at column 3
    assert elim.rows[0] == {}
    assert elim.rows[1] == {5: -4} and elim.rows[3] == {5: 1}
    _, ref_rows = _dense_pivots(rows, [0, 1, 3, 5], prime)
    assert {p: {k: v % prime for k, v in t.items()} for p, t in elim.rows.items()} == ref_rows
    assert elim.add({0: 8, 1: -1}) == 5  # 8 e0 - e1 = row 0 - row 1 - 4 e5 mod 7
    assert elim.rows == {0: {}, 1: {}, 3: {}, 5: {}}
    assert elim.add({0: 3, 3: 9, 5: 7}) is None and len(elim.rows) == 4



_LANES = (7, 11, 13)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_graded_elimination_over_lanes_matches_dense_reference_per_lane(data):
    """Rows over Z/(7 * 11 * 13), drawn lane by lane: a random sparse
    integer row whose image in some lanes is zero or loses some entries,
    or a combination of earlier rows.  In each lane the reference is
    dense elimination mod that lane's prime of the rows so far.  A lane
    is dropped exactly when a row's new pivot in some lane left comes
    before the lane's own (or the row is dependent there), that is when
    the row's least reduced entry vanishes in it first; add returns None
    exactly when the row is dependent in every lane left.  Read in each
    surviving lane, the pivots, per-order counts and stored rows (read
    mod the lane's prime) are those of dense elimination of all rows mod
    that prime, whatever order the rows are added in."""
    modulus, basis = _crt_basis(_LANES)
    n, m, top = (data.draw(st.integers(1, 3)) for _ in range(3))
    cols = P._Columns(n, m, top)
    keys = sorted(cols.code(a, alpha) for _, a, alpha in _graded_keys(n, m, top))
    pool = data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=8, unique=True))
    entry = st.integers(-3 * modulus, 3 * modulus)
    rows = []
    for _ in range(data.draw(st.integers(1, 12))):
        if len(rows) >= 2 and data.draw(st.booleans()):
            r1, r2 = data.draw(st.sampled_from(rows)), data.draw(st.sampled_from(rows))
            f1, f2 = data.draw(entry), data.draw(entry)
            row = {k: f1 * r1.get(k, 0) + f2 * r2.get(k, 0) for k in set(r1) | set(r2)}
        else:
            base = data.draw(st.dictionaries(st.sampled_from(pool), st.integers(-20, 20),
                                             min_size=1))
            row = {}
            for e in basis:
                kind = data.draw(st.sampled_from(["all", "zero", "some"]))
                kept = (base if kind == "all" else {} if kind == "zero" else
                        {k: v for k, v in base.items() if data.draw(st.booleans())})
                for k, v in kept.items():
                    row[k] = row.get(k, 0) + v * e
        rows.append({k: v for k, v in row.items() if v % modulus})
    columns = sorted({k for r in rows for k in r})
    for ordered in (rows, data.draw(st.permutations(rows))):
        elim = P._GradedElimination(_LANES, cols)
        alive = list(_LANES)
        for i, row in enumerate(ordered):
            # each lane's own new pivot: the pivot set grows by at most one
            new = {p: set(_dense_pivots(ordered[:i + 1], columns, p)[0])
                   - set(_dense_pivots(ordered[:i], columns, p)[0]) for p in alive}
            least = min((min(v) for v in new.values() if v), default=None)
            assert elim.add(row) == least
            if least is not None:
                alive = [p for p in alive if new[p] == {least}]
            assert elim.primes == alive and elim.modulus == prod(alive)
        for prime in alive:
            ref, ref_rows = _dense_pivots(ordered, columns, prime)
            ref_orders = {}
            for c in ref:
                ref_orders[cols.order(c)] = ref_orders.get(cols.order(c), 0) + 1
            assert sorted(elim.rows) == ref
            assert elim.pivots_per_order() == ref_orders
            for p in ref:
                assert {k: r for k, v in elim.rows[p].items() if (r := v % prime)} == \
                    ref_rows[p]


def test_graded_elimination_drops_the_lanes_where_a_pivot_vanishes():
    """Over the lanes GF(7) x GF(11), the row 7 e0 + e2 has pivot 0 mod 11
    but pivot 2 mod 7: the lane of 7 is dropped, and the elimination goes
    on mod 11 alone, the rows stored before unchanged.  A row whose least
    entry is a unit in every lane left drops none."""
    elim = P._GradedElimination((7, 11), P._Columns(1, 1, 2))
    assert elim.add({1: 1, 2: 5}) == 1
    assert elim.primes == [7, 11] and elim.modulus == 77
    assert elim.add({0: 7, 2: 1}) == 0
    assert elim.primes == [11] and elim.modulus == 11
    assert elim.rows == {1: {2: 5}, 0: {2: pow(7, -1, 11)}}
    assert elim.pivots_per_order() == {0: 2}
    assert elim.add({2: 77 + 3}) == 2
    assert elim.primes == [11] and elim.rows == {0: {}, 1: {}, 2: {}}
    assert elim.add({0: 5, 1: 3}) is None

def test_columns_code_each_equation_once_and_lead_its_derivatives():
    """coded gives an equation's order, least code and coded terms, the
    same object on a second call; lead of (E, beta) is the least code of
    the row of D^beta E, that of X^a_(alpha+beta) for E's leading
    X^a_alpha."""
    chart = Chart(["x", "y"])
    x = parse_expr(chart, "x")
    eq = P.LinearPDESystem.from_coefficient_maps(chart, 2, [
        {(1, (0, 1)): x, (0, (0, 0)): chart.one(), (0, (1, 0)): x * x}]).equations[0]
    cols = P._Columns(2, 2, 4)
    order, lead, terms = cols.coded(eq)
    assert cols.coded(eq)[2] is terms
    assert order == eq.order == 1
    assert [k for k, _ in terms] == [cols.code(a, alpha) for a, alpha in eq.coeffs]
    assert lead == min(k for k, _ in terms) == cols.code(0, (1, 0))
    taylor = P.TaylorMap(chart, [P.GenericPoint.sample(chart, 3)], 2)
    for beta in [(0, 0), (1, 0), (0, 2), (1, 1)]:
        assert cols.lead((eq, beta)) == min(eq.evaluate_sparse(beta, taylor, cols))
        assert cols.order(cols.lead((eq, beta))) == eq.order + sum(beta)


def test_solution_bound_adds_each_batch_lowest_jet_order_first(monkeypatch, sphere):
    """Within each batch (the rows of one total derivative order |beta|)
    the rows reach the elimination in descending order of leading code,
    so the lowest jet order comes first."""
    seen = {}
    evaluate = P.Equation.evaluate_sparse

    def record(self, beta, taylor, columns):
        seen.setdefault(sum(beta), []).append(columns.lead((self, beta)))
        return evaluate(self, beta, taylor, columns)

    monkeypatch.setattr(P.Equation, "evaluate_sparse", record)
    res = P.solution_bound(S.invariance_system(sphere[1]))
    assert res.bound == 3 and len(seen) == len(res.tables)
    for leads in seen.values():
        assert leads == sorted(leads, reverse=True)
        assert len(set(leads)) > 1


@pytest.mark.parametrize("seed", [1, 7, 101])
@pytest.mark.parametrize("case", ["flat2", "sphere", "root-chart", "flat-quaternionic"])
def test_tables_do_not_depend_on_the_order_of_the_equations(request, case, seed):
    """The system's equations reversed, or shuffled, give the same
    tables, bound and point independence: each batch is sorted by
    leading code, ties keep the given order, and any order of the rows
    gives the same pivots at a point and the same prolonged span."""
    if case == "root-chart":
        system = S.invariance_system(root_chart_metric()[1])
    else:
        system = _oracle_system(request, case)
    seeds = (seed, seed + 101, seed + 202)
    ref = P.solution_bound(system, seeds=seeds)
    shuffled = list(system.equations)
    random.Random(seed).shuffle(shuffled)
    for equations in (system.equations[::-1], shuffled):
        res = P.solution_bound(P.LinearPDESystem(system.chart, system.n_unknowns, equations),
                               seeds=seeds)
        assert [t.dims for t in res.tables] == [t.dims for t in ref.tables]
        assert (res.bound, res.point_independent) == (ref.bound, ref.point_independent)


def _sheared_flat_quaternionic(n):
    """The quaternionic systems of the flat structure on R^(4n) pulled
    back by the shear phi_i = x_i + x_(i+1)^2, and of the flat one."""
    chart, _, _, g, triple = flat_quaternionic_pullback(shear_map(4 * n))
    flat_g = G.TensorField(chart, ("d", "d"), {(i, i): chart.one() for i in range(chart.dim)})
    return S.quaternionic_symmetry_system(triple, g), S.quaternionic_symmetry_system(
        list(standard_triple(chart)), flat_g)


def test_sheared_flat_r4_has_the_flat_quaternionic_bound_and_tables():
    """A coordinate change leaves the bound and the symbol tables at a
    generic point unchanged: the sheared R^4 gives the flat 15 =
    dim sl(2, H) and the flat tables, from coefficients it shares with no
    flat row."""
    sheared, flat = _sheared_flat_quaternionic(1)
    assert any(not c.is_ground for eq in sheared.equations for c in eq.coeffs.values())
    res, ref = P.solution_bound(sheared), P.solution_bound(flat)
    assert res.conclusive and res.bound == ref.bound == 15
    assert [t.dims for t in res.tables] == [t.dims for t in ref.tables]
    assert res.point_independent


@pytest.mark.slow
def test_sheared_flat_r8_has_the_flat_quaternionic_bound():
    """The sheared R^8: bound 35 = dim sl(3, H), final table (0,0,8,19,8)."""
    sheared, _ = _sheared_flat_quaternionic(2)
    res = P.solution_bound(sheared)
    assert res.conclusive and res.bound == 35
    assert res.final_table.dims == (0, 0, 8, 19, 8)
    assert res.point_independent


def _joined(*systems):
    """The systems over one chart joined by concatenating their equations."""
    chart, m = systems[0].chart, systems[0].n_unknowns
    return P.LinearPDESystem(chart, m, [eq for s in systems for eq in s.equations])


@pytest.mark.parametrize("field, bound, tables", [
    (0, 4, [(3, 4), (0, 1, 3), (0, 0, 1, 3)]),
    (1, 2, [(3, 4), (0, 1, 3), (0, 0, 0, 2)]),
])
def test_eguchi_hanson_symmetries_commuting_with_a_killing_field(
        eh_quaternionic_system, eh_fields, field, bound, tables):
    """The quaternionic system joined with L_X v = 0: each derivative of
    either system's equations is its own row, so the join keeps them all
    (v1 generates the centre of u(2), v2 does not)."""
    res = P.solution_bound(_joined(eh_quaternionic_system,
                                   S.invariance_system(eh_fields[field])))
    assert res.conclusive and res.bound == bound
    assert [t.dims for t in res.tables] == tables
    assert res.point_independent


@pytest.mark.parametrize("n, bound, tables", [
    (1, 7, [(3, 4), (0, 3, 4), (0, 0, 3, 4)]),
    (2, 17, [(11, 8), (0, 9, 8), (0, 0, 9, 8)]),
    (3, 31, [(27, 12), (0, 19, 12), (0, 0, 19, 12)]),
    (4, 49, [(51, 16), (0, 33, 16), (0, 0, 33, 16)]),
])
def test_flat_quaternionic_symmetries_commuting_with_a_rotation(n, bound, tables):
    """Flat H^n with the standard triple, joined with L_X v = 0 for
    v = x2 d3 - x3 d2 on each R^4 block, whose zero set is C^n: the
    bound is 2(n+1)^2 - 1 = dim(sl(n+1, C) + u(1))."""
    chart, g = flat_chart(4 * n)
    comps = [chart.zero()] * chart.dim
    for b in range(0, chart.dim, 4):
        comps[b + 2], comps[b + 3] = -chart.var(f"x{b + 3}"), chart.var(f"x{b + 2}")
    res = P.solution_bound(_joined(
        S.quaternionic_symmetry_system(list(standard_triple(chart)), g),
        S.invariance_system(G.vector(chart, comps))))
    assert res.conclusive and res.bound == bound == 2 * (n + 1) ** 2 - 1
    assert [t.dims for t in res.tables] == tables
    assert res.point_independent


@pytest.mark.parametrize("n", [2, 3, 4])
def test_flat_cprojective_bound_of_the_fixed_point_set(n):
    """C^n, the zero set of the rotation above in flat H^n, with its flat
    c-projective structure (built by pulling back along the identity
    map): the bound is 2n^2 + 4n = dim sl(n+1, C), one less than the
    commuting bound 2(n+1)^2 - 1, so every flat c-projective symmetry of
    the fixed-point set extends, and the rotation itself is the rest."""
    _, J, D = flat_cprojective_pullback([f"x{i}" for i in range(2 * n)])
    res = P.solution_bound(S.cprojective_symmetry_system(J, D))
    assert res.conclusive and res.bound == 2 * n * n + 4 * n == 2 * (n + 1) ** 2 - 2
    assert res.final_table.dims == (0, 0, 2 * n, 2 * n * n, 2 * n)
    assert res.point_independent


def test_a_bound_search_builds_one_taylor_map(monkeypatch, eh_quaternionic_system):
    """solution_bound builds one Taylor map per call and extends it stage
    by stage (orders 0 to 3 on Eguchi-Hanson), not one map per stage."""
    built = []

    class Counted(P.TaylorMap):
        def __init__(self, *args):
            built.append(args[-1])
            super().__init__(*args)

    monkeypatch.setattr(P, "TaylorMap", Counted)
    res = P.solution_bound(eh_quaternionic_system)
    assert res.bound == 4 and len(res.tables) == 4
    assert built == [0]
    P.solution_bound(eh_quaternionic_system, max_stage=2)
    assert built == [0, 0]


@pytest.mark.parametrize("seed", [1, 7, 101, 102])
def test_eguchi_hanson_bound_at_three_points_of_distinct_primes(eh_quaternionic_system, seed):
    """The three points of a bound search carry distinct primes; the
    Eguchi-Hanson bound, its tables and point independence are those each
    point's own elimination gives.  Its rational points reduced mod p
    were degenerate at seeds 1, 7 and 102; uniform GF(p) points are not."""
    res = P.solution_bound(eh_quaternionic_system, max_stage=5,
                           seeds=(seed, seed + 101, seed + 202))
    assert res.primes == [P.PRIME, _prime(1), _prime(2)]
    assert res.bound == 4
    assert [t.dims for t in res.tables] == [(7, 4), (4, 7, 4), (0, 4, 4, 4), (0, 0, 0, 1, 3)]
    assert res.point_independent
