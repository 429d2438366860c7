"""Symmetry PDE generators: invariance systems, quaternionic and
c-projective systems, and the Obata connection."""

import itertools

import pytest

from geosym import geometry as G
from geosym import prolong as P
from geosym import symsys as S
from geosym.exprfield import Chart, parse_expr

from conftest import (block_endomorphism, flat_chart, flat_quaternionic_pullback, shear_map,
                      standard_triple)


def test_invariance_system_counts(flat2):
    chart, g = flat2
    ks = S.invariance_system(g)
    # one first-order equation per independent symmetric pair
    assert len(ks) == 3 or len(ks) == 4  # zero components may drop out
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


def test_lie_derivative_jet_matches_direct_computation(flat2):
    chart, g = flat2
    # the jet-linear form of L_X g evaluated on a concrete field equals
    # the geometric Lie derivative
    X = G.vector(chart, [parse_expr(chart, "x*y"), parse_expr(chart, "y^2")])
    jets = S.lie_derivative_jet(g)
    L = G.lie_derivative(g, X)
    for idx, coeff_map in jets.items():
        total = chart.zero()
        for (a, alpha), c in coeff_map.items():
            term = X.comp(a)
            for i, k in enumerate(alpha):
                for _ in range(k):
                    term = term.differentiate(chart.coordinates[i])
            total = total + c * term
        assert (total - L.comp(*idx)).is_zero()


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
