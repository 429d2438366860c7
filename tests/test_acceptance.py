"""Acceptance suite: the seven headline results, one pass/fail line each.

Each test prints ``[criterion N] PASS`` (or FAIL) so the suite output
can be scanned at a glance; run with ``pytest -v -s`` to see the lines.
"""

import itertools
import time
from contextlib import contextmanager
from fractions import Fraction

from geosym import _linalg
from geosym import geometry as G
from geosym import liealg as L
from geosym import prolong as P
from geosym import symsys as S
from geosym.exprfield import Chart, parse_expr
from geosym.modelfile import load_model

import importlib.resources

import pytest

import test_geometry
from conftest import plant, planted_point


@contextmanager
def criterion(n, description):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {n}] FAIL — {description}")
        raise
    print(f"\n[criterion {n}] PASS — {description}")


def _bundled(name):
    return str(importlib.resources.files("geosym") / "models" / name)


@pytest.mark.slow
def test_criterion_1_eguchi_hanson_symbol_tables(eh_quaternionic_system):
    with criterion(1, "Eguchi-Hanson stage tables and bound 4"):
        t0 = time.monotonic()
        res = P.solution_bound(eh_quaternionic_system, max_stage=5)
        elapsed = time.monotonic() - t0
        assert [t.dims for t in res.tables] == [
            (7, 4), (4, 7, 4), (0, 4, 4, 4), (0, 0, 0, 1, 3)]
        assert res.conclusive
        assert res.bound == 4
        assert elapsed < 300.0


@pytest.mark.slow
@pytest.mark.parametrize("seed", [6, 14, 102])
def test_eguchi_hanson_tables_when_a_sample_point_is_degenerate(
        eh_quaternionic_system, monkeypatch, seed):
    """The rational point of each of these seeds, reduced mod 2^61 - 1, is
    not generic: its own stage-1 table is (10, 3).  Joined with two
    sampled points it is dropped, and the tables and the bound are the
    generic ones, with ``point_independent`` false."""
    plant(monkeypatch, planted_point(eh_quaternionic_system.chart, seed))
    first = P.solution_bound(eh_quaternionic_system, max_stage=1, seeds=(seed,))
    assert first.tables[0].dims == (10, 3)
    assert first.point_independent
    res = P.solution_bound(eh_quaternionic_system, max_stage=5,
                           seeds=(seed, seed + 101, seed + 202))
    assert [t.dims for t in res.tables] == [
        (7, 4), (4, 7, 4), (0, 4, 4, 4), (0, 0, 0, 1, 3)]
    assert res.conclusive
    assert res.bound == 4
    assert not res.point_independent


def test_criterion_2_eguchi_hanson_isometries(
        eh_chart, eh_metric, eh_fields, eh_quaternionic_system):
    with criterion(2, "EH fields certified; closure u(2) with center v1"):
        killing = S.invariance_system(eh_metric)
        for v in eh_fields:
            comps = [v.comp(i) for i in range(4)]
            ok, _ = P.verify_solution(killing, comps)
            assert ok
            ok, _ = P.verify_solution(eh_quaternionic_system, comps)
            assert ok
        alg = L.closure_from_fields(eh_fields)
        assert alg.dimension == 4
        center = alg.center()
        assert len(center) == 1
        assert center[0][1] == center[0][2] == center[0][3] == 0
        assert center[0][0] != 0
        assert len(alg.derived_algebra()) == 3


def test_criterion_3_flat_quaternionic_bound(flat4):
    with criterion(3, "flat quaternionic bound 15 = 4(n+1)^2 - 1 at n=1"):
        from conftest import standard_triple
        chart, g = flat4
        I, J, K = standard_triple(chart)
        res = P.solution_bound(
            S.quaternionic_symmetry_system([I, J, K], g), max_stage=6)
        assert res.conclusive
        assert res.bound == 15


def test_criterion_4_submaximal_cprojective_model():
    with criterion(4, "submaximal c-projective n=2: fields, closure 8, "
                      "unique invariant connection, (1,1) curvature"):
        model = load_model(_bundled("submax_cprojective_n2.model"))
        chart = model.chart
        J = model.endomorphisms["J"]
        D = model.connections["D"]
        system = S.cprojective_symmetry_system(J, D)
        names = ["A", "B", "T2x", "T2y", "C", "R", "E", "F"]
        fields = [model.vectors[n] for n in names]
        for v in fields:
            ok, _ = P.verify_solution(system, [v.comp(i) for i in range(4)])
            assert ok
        alg = L.closure_from_fields(fields)
        assert alg.dimension == 8
        unit = lambda i: [Fraction(int(i == k)) for k in range(8)]
        rep = L.reductive_isotropy(
            alg, [unit(i) for i in range(4, 8)], [unit(i) for i in range(4)])
        assert len(L.equivariant_tensors(rep, (2, 1))) == 0
        split = G.curvature_type_split(G.curvature(D), J)
        assert split.r20.is_zero()
        assert split.r02.is_zero()
        assert not split.r11.is_zero()


def test_criterion_5_block_operator_and_vanishing_locus():
    with criterion(5, "summed block operator kernel and the zero set of v"):
        model = load_model(_bundled("blocks_v.model"))
        m1, m2 = model.matrices["M1"], model.matrices["M2"]
        block = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(m1, m2)]
        triv = L.LieAlgebra.from_structure([[[0]]])
        rep = L.Representation.from_matrices(triv, [block])
        assert len(_linalg.nullspace(rep.rho([1]), rep.module_dimension)) == 2
        # block-diagonal operator on the 8-dimensional module (n = 2):
        # kernel dimension 2 per block, 2n = 4 overall
        big = [[Fraction(0)] * 8 for _ in range(8)]
        for off in (0, 4):
            for i in range(4):
                for j in range(4):
                    big[off + i][off + j] = Fraction(block[i][j])
        rep8 = L.Representation.from_matrices(triv, [big])
        assert len(_linalg.nullspace(rep8.rho([1]), rep8.module_dimension)) == 4
        loc = L.vanishing_locus(model.vectors["v"])
        assert not loc.is_empty
        assert loc.dimension == 4
        assert loc.zero_coordinates == ("h3", "h4", "h7", "h8")


def test_criterion_6_ricci_flatness(eh_metric):
    with criterion(6, "Ricci of the EH Levi-Civita connection is zero"):
        D = G.levi_civita(eh_metric)
        ric = G.ricci(D)
        assert ric.is_zero()


def test_criterion_7_property_suites(sphere, flat2):
    with criterion(7, "kernel laws, Leibniz, Bianchi, flow oracle, "
                      "symbol monotonicity, point independence"):
        # kernel algebra laws
        ch = Chart(["x", "t"], trig_pairs=["t"])
        a = parse_expr(ch, "(x + sin(t))^2")
        b = parse_expr(ch, "x - cos(t)")
        assert ((a + b) * (a - b) - (a * a - b * b)).is_zero()
        assert (a / b * b - a).is_zero()
        # Leibniz
        da, db = a.differentiate("x"), b.differentiate("x")
        assert ((a * b).differentiate("x") - (da * b + a * db)).is_zero()
        # first Bianchi on the sphere
        chart, g = sphere
        R = G.curvature(G.levi_civita(g))
        n = chart.dim
        for idx in itertools.product(range(n), repeat=4):
            a_, b_, i, j = idx
            s = (R.comp(a_, b_, i, j) + R.comp(a_, i, j, b_)
                 + R.comp(a_, j, b_, i))
            assert s.is_zero()
        # finite-difference flow oracle for the Lie derivative
        test_geometry.test_lie_derivative_matches_flow_oracle(("d", "d"))
        # symbol monotonicity and >= 3 point independence
        fchart, fg = flat2
        res = P.solution_bound(S.invariance_system(fg))
        for prev, cur in zip(res.tables, res.tables[1:]):
            for k in range(min(len(prev.dims), len(cur.dims))):
                if k <= cur.top_order and k <= prev.top_order:
                    assert cur.dim(k) <= prev.dim(k)
        assert len(res.points) >= 3
        assert res.point_independent
