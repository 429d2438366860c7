"""Kernel laws for the exact expression field: normal forms, arithmetic,
derivations, relation handling, and evaluation."""

import importlib
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy import QQ, ZZ
from sympy.polys.orderings import lex
from sympy.polys.rings import ring

from geosym import cli, exprfield, modelfile
from geosym.exprfield import (
    _ONE,
    Chart,
    DivisionByZero,
    Expr,
    ExprError,
    ExprParseError,
    GenericPoint,
    KernelInconsistency,
    _MAX_PRIMES,
    PRIME,
    PoleError,
    Poly,
    TaylorMap,
    _clear_denominators,
    _coprime_base,
    _derivation_rules,
    _divide,
    _ground,
    _is_prime,
    _poly_dot,
    _poly_mod,
    _poly_total_derivative,
    _prime,
    _residues,
    _sqrt_mod,
    _square_root,
    exact_sqrt,
    parse_expr,
)
from geosym.cli import _symmetry_system
from geosym.modelfile import parse_model

from conftest import build_eh_chart, nested_root_chart

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _make_chart():
    return Chart(["x", "y", "t"], trig_pairs=["t"])


# a chart shared by the hypothesis tests (charts are immutable once built)
_CHART = _make_chart()


@pytest.fixture()
def chart():
    return _CHART


# -- sympy as the oracle ----------------------------------------------------


def _to_sympy(chart, p, domain=ZZ):
    """p as an element of sympy's lex polynomial ring of the chart's
    variables over ``domain``."""
    R = ring(",".join(chart.var_names), domain, lex)[0]
    return R.from_dict({chart._unpack(m): c for m, c in p.items()})


def _from_sympy(chart, q):
    """The Poly of a sympy ring element with integer coefficients."""
    assert all(c == int(c) for c in q.values())
    return chart._poly({m: int(c) for m, c in q.items()})


ATOMS = ["0", "1", "2", "-3", "1/2", "x", "y", "sin(t)", "cos(t)",
         "x*y", "x+1", "sin(t)*x", "x^2-y"]


def _expr_strategy(chart):
    atom = st.sampled_from(ATOMS).map(lambda s: parse_expr(chart, s))

    def combine(children):
        return st.tuples(st.sampled_from("+-*"), children, children).map(
            lambda t: t[1] + t[2] if t[0] == "+"
            else (t[1] - t[2] if t[0] == "-" else t[1] * t[2]))

    return st.recursive(atom, combine, max_leaves=6)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_field_axioms(data):
    chart = _CHART
    expr = _expr_strategy(chart)
    a = data.draw(expr)
    b = data.draw(expr)
    c = data.draw(expr)
    assert ((a + b) - b - a).is_zero()
    assert (a * b - b * a).is_zero()
    assert ((a + b) * c - (a * c + b * c)).is_zero()
    assert ((a * b) * c - a * (b * c)).is_zero()
    if not a.is_zero():
        assert (a / a - chart.one()).is_zero()
        assert (b / a * a - b).is_zero()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_derivation_laws(data):
    chart = _CHART
    expr = _expr_strategy(chart)
    a = data.draw(expr)
    b = data.draw(expr)
    coord = data.draw(st.sampled_from(chart.coordinates))
    da, db = a.differentiate(coord), b.differentiate(coord)
    # Leibniz rule
    assert ((a * b).differentiate(coord) - (da * b + a * db)).is_zero()
    # linearity
    assert ((a + b).differentiate(coord) - (da + db)).is_zero()
    # quotient rule, via the product form
    if not b.is_zero():
        q = a / b
        assert ((q * b).differentiate(coord)
                - (q.differentiate(coord) * b + q * db)).is_zero()


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_mixed_partials_commute(data):
    chart = _CHART
    a = data.draw(_expr_strategy(chart))
    c1 = data.draw(st.sampled_from(chart.coordinates))
    c2 = data.draw(st.sampled_from(chart.coordinates))
    d12 = a.differentiate(c1).differentiate(c2)
    d21 = a.differentiate(c2).differentiate(c1)
    assert (d12 - d21).is_zero()


def test_trig_relation_normalizes(chart):
    e = parse_expr(chart, "sin(t)^2 + cos(t)^2 - 1")
    assert e.is_zero()
    # high powers reduce too
    e = parse_expr(chart, "sin(t)^4 + 2*sin(t)^2*cos(t)^2 + cos(t)^4 - 1")
    assert e.is_zero()


def test_trig_derivatives(chart):
    s = parse_expr(chart, "sin(t)")
    c = parse_expr(chart, "cos(t)")
    assert (s.differentiate("t") - c).is_zero()
    assert (c.differentiate("t") + s).is_zero()
    assert s.differentiate("x").is_zero()


def test_division_by_zero_raises(chart):
    one = chart.one()
    zero = parse_expr(chart, "sin(t)^2 + cos(t)^2 - 1")
    with pytest.raises(DivisionByZero):
        one / zero


def test_canonical_normal_form(chart):
    a = parse_expr(chart, "(x^2 - y^2)/(x - y)")
    b = parse_expr(chart, "x + y")
    assert (a - b).is_zero()
    # equal expressions share the canonical representation
    assert (a._num, a._den) == (b._num, b._den)


def test_evaluate_exact(chart):
    e = parse_expr(chart, "(x + y)^2 / x")
    pt = {"x": Fraction(2), "y": Fraction(1, 2), "t": Fraction(0),
          "sin_t": Fraction(3, 5), "cos_t": Fraction(4, 5)}
    assert e.evaluate(pt) == Fraction(25, 8)


def test_evaluate_pole(chart):
    e = parse_expr(chart, "1/(x - 1)")
    with pytest.raises(PoleError):
        e.evaluate({"x": Fraction(1), "y": Fraction(0), "t": Fraction(0),
                    "sin_t": Fraction(0), "cos_t": Fraction(1)})


def test_evaluate_respects_relations(chart):
    import random
    pt = chart.sample_point(random.Random(7))
    # relation sin^2 + cos^2 = 1 holds exactly at every sampled point
    assert pt["sin_t"] ** 2 + pt["cos_t"] ** 2 == 1


def test_parse_rejects_unknown_symbols(chart):
    with pytest.raises(ExprParseError):
        parse_expr(chart, "z + 1")
    with pytest.raises(ExprParseError):
        parse_expr(chart, "sin(x)")  # no trig pair declared for x


def test_parse_rejects_bad_syntax(chart):
    with pytest.raises(ExprParseError):
        parse_expr(chart, "x +")
    with pytest.raises(ExprParseError):
        parse_expr(chart, "__import__('os')")
    # an exponent is k or -k for an int literal k: no other unary
    # operator, no float and no bool (True is an int to isinstance)
    for source in ("x^+2", "x**~2", "x^-(1.5)", "x^-True", "x^True", "True * x"):
        with pytest.raises(ExprParseError):
            parse_expr(chart, source)
    assert parse_expr(chart, "x^-(2)") == 1 / parse_expr(chart, "x^2")


def test_root_generator_derivatives():
    ch = nested_root_chart()
    x, W, V = ch.var("x"), ch.var("W"), ch.var("V")
    assert 2 * W * W.differentiate("x") == parse_expr(ch, "x^2 + 1").differentiate("x")
    assert 2 * V * V.differentiate("y") == parse_expr(ch, "W + y^2 + 3").differentiate("y")
    assert 2 * V * V.differentiate("x") == W.differentiate("x")  # chain rule
    f = V ** 3 / (x - W)
    for coord in ch.coordinates:
        dV, dD = V.differentiate(coord), (x - W).differentiate(coord)
        assert f.differentiate(coord) == \
            (3 * V ** 2 * dV * (x - W) - V ** 3 * dD) / (x - W) ** 2


def _w_chart():
    """Chart (x0, x1) with W^2 = x0^2 + 1."""
    return Chart(["x0", "x1"], roots=[("W", "x0^2 + 1")])


def test_cached_derivation_rules_are_the_freshly_built_ones():
    """Each (coordinate, occurring variables) builds its rules once; the
    cached pair is the one built afresh, and differentiation through it
    follows dW/dx0 = x0/W."""
    ch = _w_chart()
    x0, x1, w = (ch._gens[ch._index[v]] for v in ("x0", "x1", "W"))
    for coord in ch.coordinates:
        for polys in ([w], [x0], [w * x1], [x0 * x1, w + 1], [_ONE]):
            got = _derivation_rules(ch, coord, polys)
            assert _derivation_rules(ch, coord, polys) is got
            ch._derivation_cache.clear()
            fresh = _derivation_rules(ch, coord, polys)
            assert fresh == got and fresh is not got
    W, X0 = ch.var("W"), ch.var("x0")
    assert W.differentiate("x0") == X0 / W and W.differentiate("x1").is_zero()


def test_relate_drops_the_cached_derivation_rules():
    """A new radicand changes a root's derivative: after _relate the cache
    is empty, and dW/dx1 follows W^2 = x0^2 + x1, not the cached
    dW/dx1 = 0 of W^2 = x0^2 + 1."""
    ch = _w_chart()
    assert ch.var("W").differentiate("x1").is_zero()
    assert ch._derivation_cache
    ch._relate(ch._gens_by_name["W"], parse_expr(ch, "x0^2 + x1"))
    assert ch._derivation_cache == {}
    W = ch.var("W")
    assert W.differentiate("x1") == 1 / (2 * W)
    assert 2 * W * W.differentiate("x0") == 2 * ch.var("x0")


def test_evaluate_at_formal_roots():
    ch = nested_root_chart()
    W, V = ch.var("W"), ch.var("V")
    point = GenericPoint.sample(ch, 3)
    p = point.prime
    r = dict(zip(ch.var_names, point.residues))
    x, y = r["x"], r["y"]
    # the residues of the roots satisfy the relations mod the point's prime
    assert r["W"] ** 2 % p == (x * x + 1) % p
    assert r["V"] ** 2 % p == (r["W"] + y * y + 3) % p
    # V*V - W reduces to y^2 + 3, and so does its value mod p
    e = V * V - W
    assert e == parse_expr(ch, "y^2 + 3")
    assert _poly_mod(e._num, point.residues, p) == (y * y + 3) % p
    # rational evaluation needs only the variables that occur
    values = ch.sample_point(random.Random(3))
    assert "W" not in values and e.evaluate(values) == values["y"] ** 2 + 3


def _degree(key, n):
    """The total degree |gamma| of the packed multi-index key of a
    series over n coordinates."""
    return key >> 16 * n


def _entry(key, n, i):
    """gamma_i of the packed multi-index key of a series over n coordinates."""
    return key >> 16 * (n - 1 - i) & 0xFFFF


def _truncated_product(a, b, order, prime, n):
    out = {}
    for ga, va in a.items():
        for gb, vb in b.items():
            g = ga + gb
            if _degree(g, n) <= order:
                out[g] = (out.get(g, 0) + va * vb) % prime
    return {g: v for g, v in out.items() if v}


def _key(*gamma):
    return exprfield._series_key(gamma)


def test_series_keys_add_like_multi_indices_and_sort_by_degree():
    """The packed key of gamma + delta is the sum of the keys; the degree
    and each entry read back; a key of lower degree is smaller."""
    gammas = list(itertools.product(range(4), repeat=3))
    for a, b in itertools.product(gammas, repeat=2):
        assert _key(*a) + _key(*b) == _key(*(x + y for x, y in zip(a, b)))
        assert (sum(a) < sum(b)) <= (_key(*a) < _key(*b))
    for a in gammas:
        assert _degree(_key(*a), 3) == sum(a)
        assert tuple(_entry(_key(*a), 3, i) for i in range(3)) == a


def _series_charts():
    """The trig chart and the nested-root chart, whose root series grow
    degree by degree from their radicands', each with a polynomial f and
    its relations: sin^2 + cos^2, which must map to 1, and the two root
    relations, which must map to 0."""
    out = []
    for ch in (_make_chart(), nested_root_chart()):
        v = dict(zip(ch.var_names, ch._gens))  # unreduced ring elements
        if "sin_t" in v:
            relations = [(v["sin_t"] ** 2 + v["cos_t"] ** 2, {0: 1})]
            f = v["sin_t"] ** 3 * v["x"] + v["cos_t"] * v["t"] ** 2 * v["y"]
        else:
            relations = [(v["W"] ** 2 - v["x"] ** 2 - 1, {}),
                         (v["V"] ** 2 - v["W"] - v["y"] ** 2 - 3, {})]
            f = v["V"] ** 3 * v["x"] + v["W"] * v["y"] ** 2 + v["V"] * v["W"]
        out.append((ch, v, relations, f))
    return out


@pytest.mark.parametrize("seed", [1, 5, 101])
def test_taylor_map_keeps_relations_and_derivations(seed):
    """To order K mod p, the series of sin^2 + cos^2 is 1 and those of
    W^2 - (x^2 + 1) and of the nested V^2 - (W + y^2 + 3) are 0; the
    series of s * dp/dx (the derivation rules, s clearing their roots'
    denominators) is that of s times the termwise derivative of p's
    series, one order lower; order 0 is evaluation at the point.  Keys
    are packed multi-indices: d/dx_i lowers gamma_i, so it subtracts the
    key of the unit multi-index e_i."""
    K = 4
    for ch, v, relations, f in _series_charts():
        n = ch.dim
        point = GenericPoint.sample(ch, seed)
        p = point.prime
        taylor = TaylorMap(ch, [point], K)
        for relation, image in relations:
            assert taylor(relation) == image
        assert TaylorMap(ch, [point], 0)(f) == {0: _poly_mod(f, point.residues, p)}
        series = taylor(f)
        for i, coord in enumerate(ch.coordinates):
            s, rules = _derivation_rules(ch, coord, [f])
            unit = _key(*(int(j == i) for j in range(n)))
            d_series = {g - unit: _entry(g, n, i) * c % p
                        for g, c in series.items() if _entry(g, n, i)}
            expected = _truncated_product(taylor(s), d_series, K - 1, p, n)
            got = taylor(_poly_total_derivative(ch, f, rules))
            assert {g: c for g, c in got.items() if _degree(g, n) < K} == expected


@pytest.mark.parametrize("seed", [1, 101])
def test_an_extended_taylor_map_equals_a_fresh_one(seed):
    """A map extended one order at a time from 0 to K equals a fresh map
    of order K, for a polynomial read at each order (its memo extended)
    and one first read at order K; the relations still hold after each
    extension.  Orders of 2^16 and above do not fit the packed keys."""
    K = 4
    for ch, v, relations, f in _series_charts():
        point = GenericPoint.sample(ch, seed)
        g = f * v["x"] + v["y"] ** 2
        taylor = TaylorMap(ch, [point], 0)
        for order in range(K + 1):
            taylor.extend(order)
            assert taylor.order == order
            assert dict(taylor(f)) == TaylorMap(ch, [point], order)(f)
            for relation, image in relations:
                assert taylor(relation) == image
        taylor.extend(2)  # a lower order changes nothing
        assert taylor.order == K
        fresh = TaylorMap(ch, [point], K)
        assert taylor(f) == fresh(f) and taylor(g) == fresh(g)
        with pytest.raises(ExprError):
            TaylorMap(ch, [point], 1 << 16)
        with pytest.raises(ExprError):
            taylor.extend(1 << 16)


@pytest.mark.parametrize("seed", [1, 101])
def test_taylor_map_of_several_points_reads_each_point_mod_its_prime(seed):
    """Points of distinct primes share one map mod the product of the
    primes; read mod the i-th prime it is point i's own map (Chinese
    remainder theorem), and read mod p_1 p_3, after the middle point is
    dropped, it is the map of points 1 and 3.  Points that share a
    prime are refused."""
    K = 3
    for ch in (_make_chart(), nested_root_chart()):
        points = []
        for s in (seed, seed + 101, seed + 202):
            points.append(GenericPoint.sample(ch, s, taken=[q.prime for q in points]))
        primes = [q.prime for q in points]
        assert len(set(primes)) == 3
        taylor = TaylorMap(ch, points, 1)
        assert taylor.modulus == primes[0] * primes[1] * primes[2]
        v = dict(zip(ch.var_names, ch._gens))
        f = (v["x"] ** 2 * v["y"] + 3 * v["y"] ** 3
             + (v["sin_t"] * v["cos_t"] ** 2 if "sin_t" in v else v["V"] * v["W"] * v["x"]))
        taylor(f)
        taylor.extend(K)
        series = taylor(f)
        for point in points:
            p = point.prime
            own = TaylorMap(ch, [point], K)(f)
            assert {g: r for g, c in series.items() if (r := c % p)} == own
        kept = primes[0] * primes[2]
        outer = TaylorMap(ch, [points[0], points[2]], K)(f)
        assert {g: r for g, c in series.items() if (r := c % kept)} == outer
        with pytest.raises(ExprError):
            TaylorMap(ch, [points[0], points[0]], K)


class _PlantedRandom(random.Random):
    """A ``random.Random`` stream whose first draws ``randrange(n)`` for
    each n in ``planted`` are ``planted[n]`` (popped as drawn), the
    stream's own draws after them."""

    planted = {}

    def randrange(self, n):
        draws = self.planted.get(n)
        return draws.pop(0) if draws else super().randrange(n)


def test_points_with_a_vanishing_radicand_are_resampled(monkeypatch):
    """W^2 = x - 2 vanishes where x = 2; such a point is replaced by the
    next one of its seed's stream, like a point with a nonsquare
    radicand, so W stays a unit of the Taylor series."""
    ch = Chart(["x"], roots=[("W", "x - 2")])
    monkeypatch.setattr(_PlantedRandom, "planted", {PRIME: [2]})
    monkeypatch.setattr(exprfield.random, "Random", _PlantedRandom)
    point = GenericPoint.sample(ch, 5)
    assert point.prime == PRIME
    x, w = point.residues
    assert x != 2 and w and w * w % PRIME == (x - 2) % PRIME
    # the stream after the planted draw: its first draws, until the
    # radicand is a nonzero square
    rng = random.Random(5)
    while (x0 := rng.randrange(PRIME)) != x:
        assert not _sqrt_mod(x0 - 2, PRIME)


@pytest.mark.parametrize("seed", [1, 2, 3, 101])
def test_residues_satisfy_the_relations_and_skip_the_poles_of_the_circle(seed, monkeypatch):
    """sin^2 + cos^2 = 1 and W^2 = radicand hold mod the point's prime.
    3 is no square mod 2^61 - 1, so W^2 = 3 puts the points at the next
    prime, which is 1 mod 4: there 1 + t^2 = 0 has two roots, and a t
    drawn at one is drawn again."""
    ch = Chart(["x", "y"], trig_pairs=["y"], roots=[("W", 3), ("V", "x*sin(y) + W")])
    point = GenericPoint.sample(ch, seed)
    q = point.prime
    assert q == _prime(1) and q % 4 == 1
    r = dict(zip(ch.var_names, point.residues))
    assert (r["sin_y"] ** 2 + r["cos_y"] ** 2) % q == 1
    assert r["W"] ** 2 % q == 3
    assert r["V"] ** 2 % q == (r["x"] * r["sin_y"] + r["W"]) % q
    # plant a root i of 1 + t^2 as the first t at q: the next draw is taken
    ch = Chart(["x", "y"], trig_pairs=["y"], roots=[("W", 3)])
    i = _sqrt_mod(-1, q)
    assert (1 + i * i) % q == 0
    monkeypatch.setattr(_PlantedRandom, "planted", {q: [3, 4, i]})
    monkeypatch.setattr(exprfield.random, "Random", _PlantedRandom)
    point = GenericPoint.sample(ch, seed)
    t = random.Random(seed).randrange(q)
    inv = pow(1 + t * t, -1, q)
    assert point.prime == q
    assert point.residues[:4] == [3, 4, 2 * t * inv % q, (1 - t * t) * inv % q]
    assert point.residues[4] ** 2 % q == 3


@pytest.mark.parametrize("radicand", [None, 3, 15, -1])
def test_is_zero_cross_check_catches_a_planted_disagreement(radicand, monkeypatch):
    """A reduction that sends x to zero must fail the evaluation
    cross-check when the zero normal form is built, also on charts with
    W^2 = 3, 15 or -1, none a square mod 2^61-1; a true zero there
    passes it."""
    ch = Chart(["x", "y"], roots=[] if radicand is None else [("W", radicand)])
    if radicand is not None:
        W = ch.var("W")
        assert (W * W - radicand).is_zero()
    x = ch._gens[0]
    reduce_poly = ch._reduce_poly
    monkeypatch.setattr(ch, "_reduce_poly",
                        lambda p: Poly() if p == x else reduce_poly(p))
    if radicand is not None:
        assert (W * W - radicand).is_zero()
    with pytest.raises(KernelInconsistency):
        Expr(ch, x, _ONE)


def test_a_zero_numerator_is_checked_at_two_points_whatever_its_denominator(monkeypatch):
    """With W^2 = 3, W*W - 3 over x reduces to zero: the numerator alone
    is evaluated, once, mod p_1 p_2 for the first two pool points, whose
    primes differ, and x never is."""
    import geosym.exprfield as exprfield

    ch = Chart(["x"], roots=[("W", 3)])
    x, W = ch._gens
    p1, p2 = (point.prime for point in ch._check_pool(2))
    assert p1 != p2
    evaluated = []
    poly_mod = exprfield._poly_mod
    monkeypatch.setattr(exprfield, "_poly_mod",
                        lambda p, residues, modulus: evaluated.append((p, modulus))
                        or poly_mod(p, residues, modulus))
    assert Expr(ch, W * W - 3, x).is_zero()
    assert evaluated == [(W * W - 3, p1 * p2)]
    assert Expr(ch, W * W - 3, _ONE).is_zero()  # the combined residues are kept
    assert ch._check_residues is not None and len(evaluated) == 2


def test_a_planted_reduction_fault_raises_through_arithmetic(monkeypatch):
    """A _reduce_poly that sends the nonzero x*y + 1 to zero is caught
    when the sum x*y + 1 is built."""
    ch = Chart(["x", "y"])
    x, y = ch.var("x"), ch.var("y")
    target = _poly(ch, "x*y + 1")
    reduce_poly = Chart._reduce_poly
    monkeypatch.setattr(Chart, "_reduce_poly",
                        lambda self, p: Poly() if p == target else reduce_poly(self, p))
    with pytest.raises(KernelInconsistency):
        x * y + 1


@pytest.mark.parametrize("radicand", [None, 3])
def test_a_numerator_vanishing_at_the_first_point_only_still_raises(radicand, monkeypatch):
    """x - r, with r the first pool point's residue of x, vanishes in
    lane 1 of the combined evaluation and not in lane 2; reported zero,
    it must raise."""
    ch = Chart(["x"], roots=[] if radicand is None else [("W", radicand)])
    first, second = ch._check_pool(2)
    r = first.residues[0]
    fault = ch._gens[0] - r
    assert _poly_mod(fault, first.residues, first.prime) == 0
    assert _poly_mod(fault, second.residues, second.prime) != 0
    reduce_poly = ch._reduce_poly
    monkeypatch.setattr(ch, "_reduce_poly",
                        lambda p: Poly() if p == fault else reduce_poly(p))
    with pytest.raises(KernelInconsistency):
        Expr(ch, fault, _ONE)


def test_the_prime_chain_is_the_chain_of_previous_primes():
    p = 2 ** 61 - 1
    for i in range(_MAX_PRIMES):
        assert _prime(i) == p
        p = sympy.prevprime(p)


def test_miller_rabin_matches_sympy_on_pseudoprimes():
    """Small numbers, Carmichael numbers and strong pseudoprimes to many
    of the first prime bases."""
    spsp = [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
            341550071728321, 3825123056546413051]
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265]
    for n in list(range(-2, 2000)) + spsp + carmichael + [2 ** 61 - 1, 2 ** 61 + 1]:
        assert _is_prime(n) == sympy.isprime(n), n


@pytest.mark.parametrize("p", [5, 13, 17, 97, 7681, 65537, 998244353, 2013265921,
                               2305843009213693921])
def test_tonelli_shanks_matches_sympy_sqrt_mod(p):
    """Primes = 1 mod 4, some with a high power of 2 in p - 1: the root
    is sympy's, the one at most p // 2, or None for a non-residue."""
    from sympy.ntheory import sqrt_mod

    assert sympy.isprime(p) and p % 4 == 1
    rng = __import__("random").Random(p)
    qs = list(range(min(p, 60))) + [rng.randrange(p) for _ in range(60)] + [p - 1, p + 3]
    residues = nonresidues = 0
    for q in qs:
        w = _sqrt_mod(q, p)
        assert w == sqrt_mod(q, p)
        residues, nonresidues = residues + (w is not None), nonresidues + (w is None)
    assert residues and nonresidues


def test_square_roots_mod_the_searched_primes():
    primes = [_prime(i) for i in range(6)]
    assert primes == sorted(primes, reverse=True) and primes[0] == 2 ** 61 - 1
    assert all(sympy.isprime(p) for p in primes)
    assert {p % 4 for p in primes} == {1, 3}
    for p in primes:
        for q in (0, 1, 2, 3, 15, p - 1, 12345678901234567):
            w = _sqrt_mod(q, p)
            square = pow(q, (p - 1) // 2, p) in (0, 1)
            assert (w is not None) == square
            assert w is None or w * w % p == q


def test_constants_hash_like_the_rationals_they_equal():
    ch = Chart(["x"])
    for c in (3, -2, 0, 1, Fraction(1, 2), Fraction(-7, 3)):
        e = ch.const(c)
        assert e == c and hash(e) == hash(c)
        assert e in {c} and c in {e}
    x = ch.var("x")
    assert x / 2 == ch.expr("x/2") and hash(x / 2) == hash(ch.expr("x/2"))
    assert hash(x) == hash(ch.expr("(x^2 + x)/(x + 1)"))


@pytest.mark.parametrize("source, text", [
    ("0", "0"),
    ("-3", "-3"),
    ("1/2", "(1)/(2)"),
    ("-x", "-x"),
    ("x^2*y - 3*x + 1", "x**2*y - 3*x + 1"),
    ("(x^2 - y)/(2*x + 3)", "(x**2 - y)/(2*x + 3)"),
    ("sin(t)^3 - cos(t)/x", "(-x*sin_t*cos_t**2 + x*sin_t - cos_t)/(x)"),
    ("-(x + 1)/(6*y^2)", "(-x - 1)/(6*y**2)"),
    ("x^12 - 1/7", "(7*x**12 - 1)/(7)"),
])
def test_repr_of_fixed_expressions(chart, source, text):
    assert repr(parse_expr(chart, source)) == text


@pytest.mark.parametrize("radicand, text", [
    ("(x^2 + 1)/6", "radicand of 'W' has the rational content 1/6; adjoin a root "
                    "of 6*(x**2 + 1) instead and divide it by 6"),
    ("-(x*y - 2)/4", "radicand of 'W' has the rational content 1/4; adjoin a root "
                     "of 4*(-x*y + 2) instead and divide it by 4"),
    ("x/(y + 1)", "radicand must be denominator-free"),
    ("4*x^2", "radicand of 'W' is a perfect square; use the field element"),
    ("x - x", "radicand reduces to zero"),
])
def test_radicand_errors_keep_their_text(radicand, text):
    with pytest.raises(ExprError) as info:
        Chart(["x", "y"], roots=[("W", radicand)])
    assert str(info.value) == text


def test_exact_sqrt():
    ch = Chart(["x", "y"])
    sq = parse_expr(ch, "(x + y)^2 * 4")
    r = exact_sqrt(sq)
    assert r is not None
    assert (r * r - sq).is_zero()
    assert exact_sqrt(parse_expr(ch, "x")) is None


@pytest.mark.parametrize("source, k", [("1/2", 2), ("x/2", 2), ("(x^2 + 1)/6", 6)])
def test_a_radicand_with_rational_content_is_rejected_with_the_fix(source, k):
    """sqrt(n / k) = sqrt(k * n) / k: the error names that fix, which
    then works."""
    with pytest.raises(ExprError, match=f"adjoin a root of {k}\\*"):
        Chart(["x"], roots=[("W", source)])
    ch = Chart(["x"], roots=[("V", f"{k}^2 * ({source})")])
    assert (ch.var("V") / k) ** 2 == ch.expr(source)


def test_exact_sqrt_divides_by_a_relation_with_integer_content():
    """With W^2 = 2x, 8x is the radicand 2x times the square 4, so
    sqrt(8x) = 2W."""
    ch = Chart(["x"], roots=[("W", "2*x")])
    W = ch.var("W")
    assert exact_sqrt(parse_expr(ch, "8*x")) == 2 * W
    assert exact_sqrt(parse_expr(ch, "2*x^3")) == W * ch.var("x")
    assert exact_sqrt(parse_expr(ch, "x")) is None


def test_a_radicand_that_is_a_quotient_of_radicands_is_rejected():
    """With W^2 = x and V^2 = x*y, y = (V*W/x)^2 is a square in the
    field, so a root U of y would make the relation ideal non-prime; it
    is rejected as a perfect square, and sqrt(y) is V*W/x."""
    with pytest.raises(ExprError, match="perfect square"):
        Chart(["x", "y"], roots=[("W", "x"), ("V", "x*y"), ("U", "y")])
    ch = Chart(["x", "y"], roots=[("W", "x"), ("V", "x*y")])
    W, V, x = ch.var("W"), ch.var("V"), ch.var("x")
    assert exact_sqrt(parse_expr(ch, "y")) == V * W / x
    assert exact_sqrt(parse_expr(ch, "4*y^3/x")) == 2 * ch.var("y") * V / x
    assert exact_sqrt(parse_expr(ch, "-y")) is None


def test_a_constant_radicand_times_a_square_is_rejected_and_its_sqrt_parses():
    """With W^2 = 3, 12 = (2W)^2: a root of 12 would make the relation
    ideal non-prime ((V - 2W)(V + 2W) = 0), so it is rejected as a
    perfect square, and sqrt(12) parses to 2W.  With W^2 = 2 and V^2 = 3,
    sqrt(6) is W*V, and sqrt(5) stays outside the field."""
    with pytest.raises(ExprError, match="perfect square"):
        Chart(["x"], roots=[("W", 3), ("V", 12)])
    ch = Chart(["x"], roots=[("W", 3)])
    assert parse_expr(ch, "sqrt(12)") == 2 * ch.var("W")
    assert exact_sqrt(parse_expr(ch, "-3")) is None
    ch = Chart(["x"], roots=[("W", 2), ("V", 3)])
    assert exact_sqrt(parse_expr(ch, "6*x^2")) == ch.var("W") * ch.var("V") * ch.var("x")
    assert exact_sqrt(parse_expr(ch, "5")) is None


def test_equal_elements_through_a_root_compare_and_hash_equal():
    """With every generator declared by the constructor, x/2 compares
    and hashes the same however it was built, also through V^2 = 2x."""
    ch = Chart(["x"], roots=[("V", "2*x")])
    half = (ch.var("V") / 2) ** 2
    assert half == ch.expr("x/2") == ch.var("x") / 2
    assert hash(half) == hash(ch.expr("x/2"))
    assert {ch.expr("x/2"): "found"}[half] == "found"


@pytest.mark.parametrize("roots, named", [
    ([("W", "W + x")], "W"),
    ([("W", "x^2 + 1"), ("V", "V*W + 1")], "V"),
    ([("W", "V + x"), ("V", "x^2 + 1")], "V"),
    ([("W", "x + 1"), ("V", "x/(U + 1) + W"), ("U", "x")], "U"),
])
def test_a_radicand_naming_its_own_or_a_later_root_is_rejected(roots, named):
    with pytest.raises(ExprError, match=f"names \\['{named}'\\]; it may use only"):
        Chart(["x"], roots=roots)


def test_the_zero_cross_check_runs_inside_a_radicand_parse(monkeypatch):
    """With W^2 = 3 the radicand (W - 1)*(W + 1) - 2 of U is zero.  The
    relation ideal is prime, so a product of reduced nonzero polynomials
    is nonzero and the parse builds that zero as the zero polynomial,
    which needs no cross-check.  A sum of products that cancels only
    after reduction, W*W - 3 from :meth:`Chart.sum_products`, built while
    U's radicand is parsed, is cross-checked at points where U and T,
    still without rules, are free variables.  sin(x)^2 + cos(x)^2 - 1 is
    built as the zero polynomial too, and is rejected as zero."""
    checked = []
    check_pool = Chart._check_pool
    radicand = Chart._radicand

    def recording_pool(self, k):
        points = check_pool(self, k)
        # the generators with a rule, whose residues are square roots of
        # their radicands'; the others get uniform residues
        checked.append({g.name for g in self.generators if g.square_rhs is not None})
        for point in points:
            assert len(point.residues) == len(self.var_names)
            assert point.residues[self._index["W"]] ** 2 % point.prime == 3
        return points

    def radicand_with_a_cancelling_sum(self, name, source):
        if name == "U":
            W = self.var("W")
            assert self.sum_products([(W, W), (-3,)]).is_zero()
        return radicand(self, name, source)

    monkeypatch.setattr(Chart, "_check_pool", recording_pool)
    monkeypatch.setattr(Chart, "_radicand", radicand_with_a_cancelling_sum)
    with pytest.raises(ExprError, match="radicand reduces to zero"):
        Chart(["x"], roots=[("W", 3), ("U", "(W - 1)*(W + 1) - 2"), ("T", "x")])
    assert checked == [{"W"}]
    with pytest.raises(ExprError, match="radicand reduces to zero"):
        Chart(["x"], trig_pairs=["x"], roots=[("W", "sin(x)^2 + cos(x)^2 - 1")])


def _assert_integer_normal_form(e):
    n, d = e._num, e._den
    assert type(n) is Poly and type(d) is Poly
    assert all(type(c) is int for c in list(n.values()) + list(d.values()))
    assert math.gcd(*n.values(), *d.values()) == 1 and d.LC > 0


def test_eguchi_hanson_expressions_are_in_integer_normal_form(monkeypatch):
    """Every Expr built for the Eguchi-Hanson chart, metric, Killing
    fields, quaternionic and Killing systems and the certificates against
    them, of the fields and of fields that are no symmetry (whose
    residuals are not zero), has integer coefficients of gcd 1 and a
    denominator with positive leading coefficient."""
    from conftest import build_eh_fields, build_eh_metric
    from geosym import geometry as G, prolong as P, symsys as S

    built = []
    init = Expr.__init__

    def recording_init(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(Expr, "__init__", recording_init)
    chart = build_eh_chart()
    metric = build_eh_metric(chart)
    fields = build_eh_fields(chart)
    system = S.quaternionic_symmetry_system(G.asd_span(metric, orientation=1), metric)
    killing = S.invariance_system(metric)
    rho = chart.var("rho")
    for X in fields:
        comps = [X.comp(i) for i in range(4)]
        assert P.verify_solution(system, comps)[0]
        assert P.verify_solution(killing, comps)[0]
        comps[0] = comps[0] + comps[1] / rho
        assert not P.verify_solution(system, comps)[0]
        assert not P.verify_solution(killing, comps)[0]
    assert len(built) > 1000
    assert any(not e._den.is_ground for e in built)
    assert any(e._den.is_ground and not e._den.is_one for e in built)
    for e in built:
        _assert_integer_normal_form(e)


def test_sample_points_deterministic(chart):
    import random
    p1 = chart.sample_point(random.Random(42))
    p2 = chart.sample_point(random.Random(42))
    assert p1 == p2


# -- sum_products -----------------------------------------------------------


def _root_chart():
    return Chart(["x", "y", "z"], roots=[("W", "x^2 + 1")])


# charts with atoms whose denominators are distinct, share factors, and
# carry generators that the normal form clears
_SUM_CHARTS = {
    "trig": (_CHART, ["x", "sin(t)", "1/x", "1/(x*y)", "1/(x*cos(t))",
                      "(x+1)/(y*cos(t)+1)", "sin(t)/(x^2-y)", "1/(1+sin(t))"]),
    "root": (_root_chart(), ["W", "x", "1/(x*y)", "1/(x*z)", "W/(x+y)",
                             "1/(W+1)", "(W-x)/(y*z)"]),
    "eguchi-hanson": (build_eh_chart(), [
        "rho", "sin(phi)", "1/(rho^2-1)", "cos(psi)*cos(phi)/rho",
        "1/(sin(phi)*sin(psi))", "(rho^2-cos(psi)^2)/rho",
        "sin(psi)*sin(phi)*cos(phi)/(cos(phi)^2-1)"]),
}


# the charts of sum_products and a root over a root
_CLEAR_CHARTS = {**_SUM_CHARTS, "nested-root": (nested_root_chart(), [
    "V", "W", "x", "1/V", "x/(W+y)", "(V-W)/(x*y+1)", "1/(V+1)", "y/(x^2+1)"])}


@pytest.mark.parametrize("name", sorted(_CLEAR_CHARTS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_clear_denominators_gives_reduced_numerators_over_the_lcm(name, data):
    """_clear_denominators returns L and N_k with N_k / L = e_k and each
    N_k already reduced, which is why it need not call _reduce_poly."""
    chart, atoms = _CLEAR_CHARTS[name]
    factor = st.one_of(st.sampled_from(atoms).map(lambda s: parse_expr(chart, s)),
                       st.sampled_from([1, -2, Fraction(3, 4)]))
    expr = st.lists(st.lists(factor, min_size=1, max_size=3).map(tuple),
                    max_size=3).map(chart.sum_products)
    exprs = data.draw(st.lists(expr, max_size=5))
    lcm, nums = _clear_denominators(chart, exprs)
    assert len(nums) == len(exprs)
    for e, n in zip(exprs, nums):
        assert chart._reduce_poly(n) == n
        assert Expr(chart, n, lcm) == e


def _fold(chart, terms):
    """The left fold of ``+`` and ``*`` that sum_products replaces."""
    s = chart.zero()
    for factors in terms:
        p = chart.one()
        for f in factors:
            p = p * f
        s = s + p
    return s


def _same_normal_form(a, b):
    return a._num == b._num and a._den == b._den


@pytest.mark.parametrize("name", sorted(_SUM_CHARTS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_sum_products_matches_the_left_fold(name, data):
    chart, atoms = _SUM_CHARTS[name]
    factor = st.one_of(
        st.sampled_from(atoms).map(lambda s: parse_expr(chart, s)),
        st.sampled_from([0, 1, -2, Fraction(1, 3), Fraction(-5, 7)]),
        st.just(chart.zero()))
    terms = data.draw(st.lists(st.lists(factor, max_size=3).map(tuple), max_size=5))
    # a term and its negation make a sum that cancels
    if terms and data.draw(st.booleans()):
        terms.append((-1,) + terms[0])
    assert _same_normal_form(chart.sum_products(terms), _fold(chart, terms))


def test_sum_products_of_the_inner_product_shape(eh_metric):
    """<w, e> = 1/2 w_ij e^ij over pairs of 2-form components: many
    products, many distinct denominators."""
    from geosym.geometry import metric_inverse

    chart = eh_metric.chart
    ginv = metric_inverse(eh_metric)
    pairs = [(0, 1), (0, 2), (1, 3), (2, 3)]
    terms = []
    for (a, b), (c, d) in itertools.product(pairs, repeat=2):
        e1, e2 = eh_metric.comp(a, c), eh_metric.comp(b, d) + eh_metric.comp(a, b)
        terms += [(e1, e2, ginv.comp(a, c), ginv.comp(b, d)),
                  (-1, e1, e2, ginv.comp(a, d), ginv.comp(b, c))]
    assert len({f._den for t in terms for f in t if isinstance(f, Expr)}) > 5
    assert _same_normal_form(chart.sum_products(terms), _fold(chart, terms))


def test_sum_products_combines_over_the_lcm():
    ch, _ = _SUM_CHARTS["root"]
    x, y, z = (ch.var(v) for v in "xyz")
    s = ch.sum_products([(1 / (x * y),), (1 / (x * z),)])
    assert _same_normal_form(s, 1 / (x * y) + 1 / (x * z))
    assert s == (y + z) / (x * y * z)


def test_sum_products_edge_cases(chart):
    x, y = chart.var("x"), chart.var("y")
    a, b = 1 / (x + y), parse_expr(chart, "sin(t)/x")
    assert chart.sum_products([]).is_zero()
    assert chart.sum_products([(a, 0), (chart.zero(), b), (a,)]) == a
    cancel = chart.sum_products([(a, b), (-1, b, a)])
    assert cancel.is_zero() and cancel._den.is_one
    assert chart.sum_products([(2, a), (Fraction(1, 3), b), (Fraction(3, 4),)]) \
        == 2 * a + b / 3 + Fraction(3, 4)
    with pytest.raises(ExprError):
        chart.sum_products([(a, _root_chart().var("x"))])


def _relation_multiple(chart):
    """A nonzero polynomial of the relation ideal: W^2 - (x^2 + 1) times x."""
    x, w = (chart._gens[chart._index[v]] for v in ("x", "W"))
    return (w * w - x * x - 1) * x


@pytest.mark.parametrize("name", sorted(_SUM_CHARTS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_sum_products_takes_a_poly_factor_as_the_polynomial_over_one(name, data):
    """A Poly factor p stands for p/1: the sum equals the one with each
    Poly replaced by Expr(chart, p, 1), the zero Poly included, and on the
    root chart a Poly of the relation ideal, which is zero there."""
    chart, atoms = _SUM_CHARTS[name]
    polys = [parse_expr(chart, s)._num for s in atoms] + [Poly(), _ground(-3)]
    if "W" in chart._index:
        polys.append(_relation_multiple(chart))
    factor = st.one_of(
        st.sampled_from(atoms).map(lambda s: parse_expr(chart, s)),
        st.sampled_from([0, 1, -2, Fraction(1, 3)]),
        st.sampled_from(polys))
    terms = data.draw(st.lists(st.lists(factor, max_size=3).map(tuple), max_size=5))
    as_exprs = [tuple(Expr(chart, f, _ONE) if isinstance(f, Poly) else f for f in t)
                for t in terms]
    assert _same_normal_form(chart.sum_products(terms), chart.sum_products(as_exprs))


def test_sum_products_poly_factor_edge_cases():
    """A Poly is a numerator: a zero Poly or one of the relation ideal
    makes its term zero and never divides, where the Expr of the latter is
    zero and dividing by it raises DivisionByZero."""
    chart, _ = _SUM_CHARTS["root"]
    x, w = chart.var("x"), chart.var("W")
    ideal = _relation_multiple(chart)
    as_expr = Expr(chart, ideal, _ONE)
    assert as_expr.is_zero()
    with pytest.raises(DivisionByZero):
        1 / as_expr
    assert chart.sum_products([(ideal, 1 / x)]).is_zero()
    assert chart.sum_products([(ideal, w), (Poly(), x), (x._num, 1 / w)]) == x / w
    assert chart.sum_products([(Poly(),)]) is chart.zero()
    assert chart.sum_products([(x._num,), (w._num, Fraction(1, 2))]) == x + w / 2


def test_zero_is_built_once_per_chart():
    chart = _make_chart()
    assert chart.zero() is chart.zero() and chart.zero().is_zero()
    assert chart.sum_products([]) is chart.zero()
    assert _make_chart().zero() is not chart.zero()


@pytest.mark.parametrize("name", ["trig", "root"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_subtraction_is_the_sum_with_the_negation_in_one_expr(name, data):
    """a - b is the normal form of a + (-b), built as one Expr; c - a
    for a rational c is (-a) + c."""
    chart, atoms = _SUM_CHARTS[name]
    factor = st.one_of(st.sampled_from(atoms).map(lambda s: parse_expr(chart, s)),
                       st.sampled_from([0, 1, -2, Fraction(3, 4)]))
    expr = st.lists(st.lists(factor, min_size=1, max_size=3).map(tuple),
                    max_size=3).map(chart.sum_products)
    a, b = data.draw(expr), data.draw(expr)
    if data.draw(st.booleans()):
        b = a  # a difference that cancels
    c = data.draw(st.sampled_from([0, 2, Fraction(-5, 3)]))
    assert _same_normal_form(a - b, a + (-b))
    assert _same_normal_form(c - a, (-a) + c)
    built = []
    init = Expr.__init__

    def recording_init(self, *args):
        init(self, *args)
        built.append(self)

    Expr.__init__ = recording_init
    try:
        diff = a - b
    finally:
        Expr.__init__ = init
    assert built == [diff]


# -- factored denominators --------------------------------------------------


def _poly(chart, source):
    e = parse_expr(chart, source)
    assert e._den.is_one
    return e._num


def _gcd_oracle(chart, num, den):
    """The normal form by sympy's gcd over QQ: reduce, clear quadratic
    generators from the denominator, cancel the gcd over QQ, then scale
    the pair to integer coefficients whose gcd is 1, with the
    denominator's leading coefficient positive.  The gcd is sympy's dense
    one, which falls back to a remainder sequence where its heuristic
    gcd fails (the sparse ``cofactors`` raises ``HeuristicGCDFailed``
    on some inputs, such as the denominator (cos t + 1)^3 (cos t - 1)^3
    over the trig chart)."""
    n, d = chart._derationalize(chart._reduce_poly(num), chart._reduce_poly(den))
    if not n:
        return n, _ONE
    n, d = _to_sympy(chart, n, QQ), _to_sympy(chart, d, QQ)
    _, n, d = n.ring.dmp_inner_gcd(n, d)
    coeffs = [Fraction(int(c.numerator), int(c.denominator))
              for c in list(n.values()) + list(d.values())]
    scale = Fraction(math.lcm(*(c.denominator for c in coeffs)),
                     math.gcd(*(c.numerator for c in coeffs)))
    scale = QQ.convert(scale if d.LC > 0 else -scale)
    return tuple(_from_sympy(chart, p.mul_ground(scale)) for p in (n, d))


def _same_as_oracle(e, num, den):
    n, d = _gcd_oracle(e.chart, num, den)
    return e._num == n and e._den == d


# (chart, irreducible denominator factors, numerator atoms): non-monic
# factors, a root in a denominator, and the Eguchi-Hanson table
_CANCEL_CHARTS = {
    "trig": (_make_chart(), ["x", "y", "x + 1", "x^2 - y", "cos(t) + 1", "cos(t) - 1",
                             "x*cos(t) + y", "2*x + 3"],
             ["1", "sin(t)", "x - y", "sin(t)*y + 2", "-3"]),
    "root": (_root_chart(), ["x", "y", "z", "x + y", "y*z + 1", "x^2 + 1", "3*z - 1",
                             "W + 1"],
             ["W", "W*x - 1", "z", "2"]),
    "eguchi-hanson": (build_eh_chart(), [
        "rho", "rho - 1", "rho + 1", "cos(phi) + 1", "cos(phi) - 1", "cos(psi) + 1",
        "cos(psi) - 1", "rho^2 + cos(psi)^2 - 1",
        "rho^2 - cos(phi)^2*cos(psi)^2 + cos(phi)^2 + cos(psi)^2 - 1"],
        ["sin(phi)", "sin(psi)*cos(theta)", "rho^3 - 2", "1"]),
}


@pytest.mark.parametrize("name", sorted(_CANCEL_CHARTS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_cancellation_matches_the_gcd_oracle(name, data):
    chart, irreducibles, atoms = _CANCEL_CHARTS[name]

    def power_product():
        powers = data.draw(st.lists(st.tuples(st.sampled_from(irreducibles),
                                              st.integers(1, 3)), max_size=4))
        return prod((_poly(chart, p) ** e for p, e in powers), start=_ONE)

    atoms = data.draw(st.lists(st.sampled_from(atoms), min_size=1, max_size=3))
    num = sum((_poly(chart, a) for a in atoms), Poly()) * power_product()
    den = power_product()
    # the pair scaled by a rational a / b: integer contents to cancel, a sign to fix
    a, b = data.draw(st.sampled_from([(1, 1), (-2, 1), (3, 5), (6, -4), (1, 12)]))
    num, den = num.mul_ground(a), den.mul_ground(b)
    assert _same_as_oracle(Expr(chart, num, den), num, den)


def test_lcm_is_built_pairwise_with_exact_quotients():
    ch = Chart(["x", "y"])
    x, y = (_poly(ch, v) for v in "xy")
    lcm, quotients = ch._lcm([2 * x + 2, x ** 2 - 1, _ONE, x * y])
    assert lcm == 2 * (x ** 2 - 1) * x * y
    assert quotients == [(x - 1) * x * y, 2 * x * y, lcm, 2 * (x ** 2 - 1)]
    # the lcm of the contents -3 and 2 is 6; a negative content flips the quotient
    assert ch._lcm([-3 * y, 2 * x * y]) == (6 * x * y, [-2 * x, Poly({0: 3})])
    assert ch._lcm([]) == (_ONE, [])
    # inputs whose leading coefficients are all negative still give a positive lcm
    assert ch._lcm([-x - 1, -(x ** 2) + 1]) == (x ** 2 - 1, [-x + 1, _ground(-1)])


@pytest.mark.parametrize("name", sorted(_CANCEL_CHARTS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_lcm_and_its_quotients_match_sympy(name, data):
    """l <- l * p / gcd(l, p) over signed products of the chart's
    irreducibles with integer contents is sympy's lcm with a positive
    leading coefficient, and each quotient times its input is l."""
    chart, irreducibles, _ = _CANCEL_CHARTS[name]
    factor = st.tuples(st.sampled_from(irreducibles), st.integers(1, 3))
    content = st.sampled_from([1, -1, 2, -6, 15])
    drawn = data.draw(st.lists(st.tuples(content, st.lists(factor, max_size=3)), max_size=4))
    polys = [prod((_poly(chart, f) ** e for f, e in fs), start=_ground(c)) for c, fs in drawn]
    lcm, quotients = chart._lcm(polys)
    want = _ONE
    for p in polys:
        want = _from_sympy(chart, _to_sympy(chart, want).lcm(_to_sympy(chart, p)))
    assert lcm == (want if want.LC > 0 else -want)
    assert [q * p for q, p in zip(quotients, polys)] == [lcm] * len(polys)


def test_setting_a_rule_drops_the_rules_and_the_pool_and_keeps_the_gcd_memo(monkeypatch):
    """Radicands are parsed in the chart's one ring.  Each rule drops the
    cached rules and the sample pool with its combined residues, which
    depend on the radicands; the memo of gcds filled while parsing them
    is kept, and expressions built afterwards still match the gcd
    oracle."""
    relate = Chart._relate

    def checked_relate(self, g, rhs):
        self._cross_check_point()
        self._relation_powers()
        relate(self, g, rhs)
        assert self._relations is None and not self._sample_pool
        assert self._check_residues is None

    monkeypatch.setattr(Chart, "_relate", checked_relate)
    ch = Chart(["x", "y"], roots=[("W", "(x^3 - x)/(x^2 - 1) + y^2 + 1"),
                                  ("V", "W*(x + 1)^2/(x^2 + 2*x + 1) + 3")])
    assert ch._gcds
    W, V, x, y = (ch.var(v) for v in "WVxy")
    assert W ** 2 == x + y ** 2 + 1 and V ** 2 == W + 3
    old = [ch.expr(s) for s in ("1/(x^2 - 1)", "(x + y)/(x*y + x)", "y/(x + 1)^2")]
    old.append(ch.sum_products([(old[0],), (old[2],)]))
    for a in old:
        for b in (W / (x + 1), (x - 1) / (W + y), V / (V + x)):
            n1, d1, n2, d2 = a._num, a._den, b._num, b._den
            assert _same_as_oracle(a * b, n1 * n2, d1 * d2)
            assert _same_as_oracle(a + b, n1 * d2 + n2 * d1, d1 * d2)
    for point in ch._check_pool(2):
        r, q = point.residues, point.prime
        assert r[2] ** 2 % q == (r[0] + r[1] ** 2 + 1) % q
        assert r[3] ** 2 % q == (r[2] + 3) % q


def test_quotients_of_a_shared_factor_hash_like_fresh_polynomials():
    ch = Chart(["x", "y"])
    x, y = (_poly(ch, v) for v in "xy")
    ch.one() / ch.expr("x + 1")  # a first gcd in the chart's memo
    for c in (1, 2, -2):  # contents 1 and 2 keep the quotients themselves
        e = Expr(ch, (x + 1) ** 2 * (x + y), c * (x + 1) * y)
        assert e._den == abs(c) * y and e._num == (x + 1) * (x + y) * (c // abs(c))
        for p in (e._num, e._den):
            assert hash(p) == hash(Poly(p))


def _workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


def _flat8_model():
    return parse_model(_workloads().flat_quaternionic_model(2), "flat8-quaternionic")


def test_constant_coefficient_systems_take_no_polynomial_gcd(monkeypatch):
    def refuse(self, f, g):
        raise AssertionError(f"a polynomial gcd of {f} and {g}")

    monkeypatch.setattr(Chart, "_heuristic_gcd", refuse)
    model = _flat8_model()
    _symmetry_system(model, model.tasks["bound"].params)


def test_an_eguchi_hanson_certify_job_memoizes_its_gcds():
    """One eh-certify job of the benchmark (the structure check with
    Ricci-flatness, both certificate tasks and the closure) gives the
    right answers, and its gcds go through the chart's memo."""
    workloads = _workloads()
    workload = workloads.WORKLOADS["eh-certify"]
    model = workload.build(modelfile, str(PERFBENCH.parent))
    for task in workload.tasks:
        report, _ = cli.run_task(model, model.tasks[task], [101])
        assert all(ok for _, ok in workloads.check(workload, task, report)), task
    assert model.chart._gcds


def test_a_second_exact_sqrt_takes_its_gcds_from_the_memo(monkeypatch):
    """exact_sqrt splits the radicands by gcds, and the target's
    denominators are cancelled when it is built, all through the chart's
    memo of gcds: on the Eguchi-Hanson chart the first call computes
    gcds, a second call of the same target computes none."""
    ch = build_eh_chart()
    calls = []
    cofactors = Chart._cofactors
    monkeypatch.setattr(Chart, "_cofactors",
                        lambda self, f, g: calls.append(f) or cofactors(self, f, g))
    target = ch.expr("4*(1 - cos(phi)^2)^3*(1 - cos(psi)^2)/(rho^2 - 1)^2")
    first = exact_sqrt(target)
    assert calls and first ** 2 == target
    calls.clear()
    assert exact_sqrt(target) == first and not calls
    assert exact_sqrt(ch.expr("1 - cos(theta)^2")) == ch.var("sin_theta") and not calls


def test_exact_sqrt_splits_only_the_radicands(monkeypatch):
    """The target is trial-divided by a squarefree base of the radicands
    and its cofactor square-rooted: on a trig chart the base is built
    from the radicand 1 - cos(t)^2 alone, whatever the target."""
    ch = _make_chart()
    calls = []
    base = exprfield._squarefree_base
    monkeypatch.setattr(exprfield, "_squarefree_base",
                        lambda chart, polys: calls.append(list(polys)) or base(chart, polys))
    target = ch.expr("(x^2 + y^3 + 7)^2 * (1 - cos(t)^2)")
    assert exact_sqrt(target) == ch.expr("(x^2 + y^3 + 7) * sin_t")
    assert exact_sqrt(ch.expr("(x^2 + y^3 + 7) * (1 - cos(t)^2)")) is None
    assert exact_sqrt(ch.const(_SEMIPRIME)) is None
    assert calls == [[ch.expr("1 - cos(t)^2")._num]] * 3


_SQUARE_CHART = Chart(["x", "y", "z"])


@st.composite
def _polys(draw, max_terms=4, max_exp=3):
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, max_exp)] * 3), st.integers(-9, 9).filter(bool),
        min_size=1, max_size=max_terms))
    return _SQUARE_CHART._poly(terms)


@settings(max_examples=200, deadline=None)
@given(s=_polys())
def test_square_root_of_a_square_is_its_root_with_positive_leading_coefficient(s):
    """_square_root(s^2) is +-s with a positive leading coefficient, and
    s^2 + 1 and s^2 * x (s nonzero) are not squares."""
    root = _square_root(s * s)
    assert root == (s if s.LC > 0 else -s)
    assert _square_root(s * s + 1) is None
    assert _square_root(s * s * _SQUARE_CHART._gens[0]) is None


def test_square_root_refuses_non_squares_at_each_test():
    """A leading term that is not a square, a quotient coefficient that
    is not an integer, a leading monomial that LM(s) does not divide, and
    a term beyond half of f's degrees."""
    ch = _SQUARE_CHART
    for source in ("-x^2", "2*x^2", "x^3", "x^2 + 1", "x^2 + y", "x^2 + 2*x*y^3 + y",
                   "4*x^2 + 2*x + 1", "x^2*y^2 + y^4"):
        assert _square_root(_poly(ch, source)) is None, source
    assert _square_root(_poly(ch, "9")) == _poly(ch, "3")
    assert _square_root(_poly(ch, "x^2*y^2 - 2*x*y*z + z^2")) == _poly(ch, "x*y - z")


# two 25-digit primes and their product, which factorint cannot split in useful time
_BIG_PRIMES = (10 ** 24 + 7, 3 * 10 ** 24 + 7)
_SEMIPRIME = 3000000000000000000000028000000000000000000000049


def _squarefree_part(n):
    """The product of n's primes of odd exponent: the big primes divided
    out first, the rest by sympy's factorint."""
    assert _BIG_PRIMES[0] * _BIG_PRIMES[1] == _SEMIPRIME and all(map(sympy.isprime, _BIG_PRIMES))
    exponents = {}
    for p in _BIG_PRIMES:
        while n % p == 0:
            n, exponents[p] = n // p, exponents.get(p, 0) + 1
    for p, e in sympy.factorint(n).items():
        exponents[p] = exponents.get(p, 0) + e
    return prod(p for p, e in exponents.items() if e % 2)


def _assert_coprime_base_decides_square_classes(numbers):
    """With sympy's factorint as the oracle: the base is pairwise
    coprime and holds no square, each number is +- a product of powers
    of it, and equal parity vectors mean equal squarefree parts."""
    base = _coprime_base(numbers)
    assert all(b > 1 and math.isqrt(b) ** 2 != b for b in base)
    assert all(math.gcd(a, b) == 1 for a, b in itertools.combinations(base, 2))
    parities = {}
    for n in numbers:
        rest, vector = abs(n), []
        for b in base:
            e = 0
            while rest % b == 0:
                rest, e = rest // b, e + 1
            vector.append(e % 2)
        assert rest == 1
        parities.setdefault(tuple(vector), set()).add(_squarefree_part(abs(n)))
    assert all(len(parts) == 1 for parts in parities.values())
    assert len(set().union(*parities.values())) == len(parities)


@pytest.mark.parametrize("numbers", [
    [12], [18], [8 * 27], [-3], [_SEMIPRIME], [12, 18, 8 * 27, -3, _SEMIPRIME],
    [2 * 3, 3 * 5, 5 * 2, 30], [2 ** 5 * 7 ** 3, 7 * 11, 121], [1, -1], [6, 10, 15, 4, 9]])
def test_coprime_base_decides_square_classes_like_factorint(numbers):
    _assert_coprime_base_decides_square_classes(numbers)


@settings(max_examples=100, deadline=None)
@given(numbers=st.lists(st.integers(-(10 ** 6), 10 ** 6).filter(bool), min_size=1, max_size=5))
def test_coprime_base_decides_square_classes_on_random_integers(numbers):
    _assert_coprime_base_decides_square_classes(numbers)


# -- gcds by GCDHEU, with sympy as the oracle


def _sympy_gcd(chart, f, g):
    """sympy's gcd over ZZ, signed to a positive leading coefficient in
    the chart's lex order."""
    h = _from_sympy(chart, _to_sympy(chart, f).gcd(_to_sympy(chart, g)))
    return h if h.LC > 0 else -h


def _assert_gcd_matches_sympy(chart, f, g):
    h, qf, qg = chart._gcd(f, g)
    assert h == _sympy_gcd(chart, f, g)
    assert h * qf == f and h * qg == g


_GCD_CHARTS = {k: [f"x{i}" for i in range(k)] for k in range(1, 5)}


def _gcd_inputs(data, k, max_size=5, max_exp=2):
    """A fresh chart on k variables (an empty memo) and (f, g, c): f and
    g random, nonzero, with coefficients of up to 20 digits, and c a
    random nonzero factor to plant in both."""
    chart = Chart(_GCD_CHARTS[k])
    monom = st.tuples(*[st.integers(0, max_exp)] * k)
    coeff = st.integers(-30, 30).filter(bool) | st.sampled_from([7 * 10 ** 19, -1])
    poly = st.dictionaries(monom, coeff, min_size=1, max_size=max_size).map(chart._poly)
    f, g, c = (data.draw(poly.filter(bool)) for _ in range(3))
    return chart, f, g, c


@settings(max_examples=80, deadline=None)
@given(data=st.data(), k=st.integers(1, 4))
def test_gcd_matches_sympy(data, k):
    """Random pairs in 1-4 variables, mostly coprime, and the same pairs
    times a planted common factor, are sympy's gcd, with the cofactors."""
    chart, f, g, c = _gcd_inputs(data, k)
    _assert_gcd_matches_sympy(chart, f, g)
    _assert_gcd_matches_sympy(chart, f * c, g * c)
    _assert_gcd_matches_sympy(chart, f * c * c, g * c)


def _special_gcd_pairs(chart):
    """Named pairs on the chart in x, y, z: contents in the main variable
    (y^2 - 1), a variable in one input only, a coprime pair, and Knuth's
    example of degree drops by 2 after the first remainder step (degrees
    8, 6, 4, 2, 1, 0), each bare and times a common factor."""
    x, y, z = (_poly(chart, v) for v in "xyz")
    u = _poly(chart, "x^8 + x^6 - 3*x^4 - 3*x^3 + 8*x^2 + 2*x - 5")
    v = _poly(chart, "3*x^6 + 5*x^4 - 4*x^2 - 9*x + 21")
    w = _poly(chart, "x^3 - 2*x + 7")
    return {"contents": ((y ** 2 - 1) * (x + y) * (x * z - 2), (y + 1) * (x + y) ** 2 * z),
            "one input": ((x + 1) * (y * z + 3), (y * z + 3) * 6),
            "coprime": (x * x + y, x * y + z),
            "coprime times a factor": (6 * x * (y + z), 4 * (y + z) ** 2 * x ** 3),
            "Knuth": (u, v), "Knuth times a factor": (u * w, v * w)}


def test_gcd_handles_contents_and_a_variable_in_one_input():
    """Contents in the main variable, a variable in one input only, a
    coprime pair and Knuth's degree-drop example, bare and times a
    common factor, are sympy's gcd, with the cofactors."""
    chart = Chart(["x", "y", "z"])
    for f, g in _special_gcd_pairs(chart).values():
        _assert_gcd_matches_sympy(chart, f, g)


def _refuse_first_reads(monkeypatch, count, chart):
    """Make exprfield._interpolate refuse its first ``count`` reads in the
    chart's first variable, as if each of those points had needed a digit
    beyond the degree bound.  That variable is the main one of a gcd in
    which it occurs; the gcds of the images are in the other variables,
    so every refused read costs the outermost gcd a point."""
    interpolate, refused = exprfield._interpolate, []

    def refusing(p, shift, xi, top):
        if len(refused) < count and shift == chart._shift[0]:
            refused.append(xi)
            return None
        return interpolate(p, shift, xi, top)

    monkeypatch.setattr(exprfield, "_interpolate", refusing)
    return refused


@pytest.mark.parametrize("name", ["Knuth times a factor", "contents"])
def test_gcd_answers_after_more_refused_points_than_a_fixed_cap(name, monkeypatch):
    """GCDHEU takes as many points as it needs: with its first 7 reads
    refused, more points than the 6 a capped loop would try, Knuth's
    pair and the contents pair still give sympy's gcd and the exact
    cofactors."""
    chart = Chart(["x", "y", "z"])
    f, g = _special_gcd_pairs(chart)[name]
    refused = _refuse_first_reads(monkeypatch, 7, chart)
    _assert_gcd_matches_sympy(chart, f, g)
    assert len(refused) == 7


def _wide_coefficient_pairs(count):
    """The chart on a, b, c, d and its first ``count`` pairs (f c, g c),
    f, g and c drawn in that order from random.Random(1), each the sum of
    5 draws of (exponents 0-2 per variable, a coefficient of up to 20
    digits)."""
    chart = Chart(["a", "b", "c", "d"])
    rng = random.Random(1)

    def poly():
        return chart._poly({tuple(rng.randint(0, 2) for _ in range(4)):
                            rng.randint(-10 ** 20, 10 ** 20) for _ in range(5)})

    triples = [(poly(), poly(), poly()) for _ in range(count)]
    return chart, [(f * c, g * c) for f, g, c in triples]


def _check_wide_coefficient_gcds_with_refused_reads(indices):
    """Each pair of :func:`_wide_coefficient_pairs` named by ``indices``,
    with an empty memo and the first 7 reads refused, is sympy's gcd,
    with the cofactors."""
    chart, pairs = _wide_coefficient_pairs(max(indices) + 1)
    for k in indices:
        chart._gcds.clear()
        with pytest.MonkeyPatch.context() as mp:
            refused = _refuse_first_reads(mp, 7, chart)
            _assert_gcd_matches_sympy(chart, *pairs[k])
        assert len(refused) == 7, k


def test_wide_coefficient_gcds_finish_with_refused_reads():
    """Pairs 5, 15 and 18 of :func:`_wide_coefficient_pairs` each took
    Collins' subresultant sequence, the kernel's former fallback, over
    4 s on a 2-vCPU host, and the three together over 20 s when GCDHEU
    handed them on after 6 refused points; with its first 7 reads
    refused GCDHEU answers them, import included, in about 3 s there,
    well inside the timeout."""
    tests = Path(__file__).resolve().parent
    code = ("import test_exprfield\n"
            "test_exprfield._check_wide_coefficient_gcds_with_refused_reads([5, 15, 18])\n")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=15, cwd=tests,
                   env={**os.environ, "PYTHONPATH": os.pathsep.join(
                       [str(tests.parent / "src"), str(tests)])})


@pytest.mark.parametrize("name", sorted(_CANCEL_CHARTS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_gcd_on_trig_and_root_charts_matches_sympy(name, data):
    """Products of the chart's irreducibles (on Eguchi-Hanson, those of
    its denominators; the generators are free variables of ZZ[vars]
    here) times numerator atoms, with common powers planted, are sympy's
    gcd."""
    chart, irreducibles, atoms = _CANCEL_CHARTS[name]

    def product():
        powers = data.draw(st.lists(st.tuples(st.sampled_from(irreducibles),
                                              st.integers(1, 3)), max_size=3))
        atom = data.draw(st.sampled_from(atoms))
        return prod((_poly(chart, p) ** e for p, e in powers), start=_poly(chart, atom))

    common = product()
    f, g = product() * common, product() * common
    if f and g:
        _assert_gcd_matches_sympy(chart, f, g)


@pytest.mark.parametrize("p, q", [("x^2 + y", "x*y + 1"), ("x + 1", "x - 1"),
                                  ("3*x + y^2", "x^3 - 2*y")])
def test_exact_sqrt_decides_parities_over_a_squarefree_base(p, q):
    """With W^2 = p q the squarefree base is {p q}: p^3 q = p^2 (p q) and
    p q^3 have the roots p W and q W, p^2 q^2 the root p q, and p^2 q and
    p have none, as sympy's factorization decides.  A constant factor 4
    or 3 goes along."""
    ch = Chart(["x", "y"], roots=[("W", f"({p})*({q})")])
    P, Q = ch.expr(p), ch.expr(q)
    pq = _to_sympy(ch, (P * Q)._num)
    for a, b in [(3, 1), (2, 1), (1, 3), (1, 0), (2, 2)]:
        for c in (1, 4, 3):
            target = P ** a * Q ** b * c
            content, factors = _to_sympy(ch, target._num).factor_list()
            odd = {f for f, e in factors if e % 2}
            square = content > 0 and sympy.sqrt(content).is_Integer
            root = exact_sqrt(target)
            if not square or odd not in (set(), {f for f, _ in pq.factor_list()[1]}):
                assert root is None, (a, b, c)
                continue
            s = _from_sympy(ch, prod((f ** (e // 2) for f, e in factors), start=pq.ring.one))
            s = Expr(ch, s.mul_ground(math.isqrt(int(content))) * (1 if s.LC > 0 else -1), _ONE)
            assert root == (s * ch.var("W") if odd else s), (a, b, c)


def test_exact_sqrt_splits_a_square_factor_off_a_radicand():
    """W^2 = p^2 q: the base splits into p and q (gcd(n, dn/dx) = p), so
    q, whose class is W's, has the root W / p, and p q has none."""
    ch = Chart(["x", "y"], roots=[("W", "(x^2 + y)^2*(x*y + 1)")])
    p, q, w = ch.expr("x^2 + y"), ch.expr("x*y + 1"), ch.var("W")
    assert exact_sqrt(q) == w / p
    assert exact_sqrt(4 * q * p ** 4) == 2 * w * p
    assert exact_sqrt(p * q) is None


def test_exact_sqrt_refines_radicands_that_share_a_factor():
    """W^2 = (x + 1)(x + y) and V^2 = (x + 1)(x - y) are squarefree and
    share x + 1: refined, the base is x + 1, x + y and x - y, so
    x^2 - y^2, the class of W V, has the root W V / (x + 1)."""
    ch = Chart(["x", "y"], roots=[("W", "(x + 1)*(x + y)"), ("V", "(x + 1)*(x - y)")])
    w, v = ch.var("W"), ch.var("V")
    assert exact_sqrt(ch.expr("x^2 - y^2")) == w * v / ch.expr("x + 1")
    assert exact_sqrt(ch.expr("(x^2 - y^2)*(x + 1)")) is None


# -- one-pass reduction and primitive division --------------------------------


def _fixpoint_reduce(chart, p):
    """Rewrite g^k -> g^(k mod 2) * rhs^(k//2), one monomial at a time, in
    declaration order until nothing changes, in sympy's polynomial ring:
    the reduction that the one-pass ``Chart._reduce_poly`` replaces."""
    p = _to_sympy(chart, p)
    rules = [(chart._index[g.name], _to_sympy(chart, g.square_rhs._num))
             for g in chart.generators if g.square_rhs is not None]
    changed = True
    while changed:
        changed = False
        for idx, rhs in rules:
            if p.degree(idx) < 2:
                continue
            out = p.ring.zero
            for monom, coeff in p.terms():
                e = monom[idx]
                if e >= 2:
                    m = list(monom)
                    m[idx] = e % 2
                    out += p.ring.from_dict({tuple(m): coeff}) * rhs ** (e // 2)
                    changed = True
                else:
                    out += p.ring.from_dict({monom: coeff})
            p = out
    return _from_sympy(chart, p)


def _trig_root_chart():
    """A root declared after a trig pair, over sin: W^2 = sin(t) + x + 2."""
    return Chart(["x", "t"], trig_pairs=["t"], roots=[("W", "sin(t) + x + 2")])


_REDUCE_CHARTS = {
    "trig": _make_chart(),
    "root": _root_chart(),
    "nested-root": nested_root_chart(),
    "eguchi-hanson": build_eh_chart(),
    "trig-then-root": _trig_root_chart(),
}


def _same_poly(a, b):
    return type(a) is Poly and a == b and hash(a) == hash(Poly(b))


@pytest.mark.parametrize("name", sorted(_REDUCE_CHARTS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_one_pass_reduction_matches_the_fixpoint(name, data):
    """Exponents up to 6, so rhs^2 and rhs^3 are taken from the powers."""
    chart = _REDUCE_CHARTS[name]
    n = len(chart.var_names)
    monom = st.tuples(*[st.integers(0, 6)] * n)
    coeff = st.sampled_from([1, -1, 2, 3, -7, 5 * 10 ** 20])
    terms = data.draw(st.dictionaries(monom, coeff, max_size=5))
    p = chart._poly(terms)
    assert _same_poly(chart._reduce_poly(p), _fixpoint_reduce(chart, p))


def test_reduction_uses_cached_powers_of_each_rule():
    ch = nested_root_chart()
    W, V = (ch._gens[ch._index[g]] for g in "WV")
    p = W ** 5 * V ** 7 + V ** 6
    assert _same_poly(ch._reduce_poly(p), _fixpoint_reduce(ch, p))
    # V (latest first) up to rhs^3 for V^6, V^7; W up to rhs^4 for the
    # W^5 * W^3 that V's rhs^3 = (W + y^2 + 3)^3 leaves
    assert [len(powers) for _, powers in ch._relation_powers()] == [4, 5]
    p = W * V + _ONE
    assert ch._reduce_poly(p) is p  # nothing to rewrite


def test_a_root_declared_after_a_trig_pair_is_reduced_by_both_rules():
    ch = _trig_root_chart()
    W = ch._gens[ch._index["W"]]
    # W^4 = (sin + x + 2)^2 and sin^2 = 1 - cos^2
    want = _poly(ch, "2*sin(t)*(x + 2) + (x + 2)^2 + 1 - cos(t)^2")
    assert _same_poly(ch._reduce_poly(W ** 4), want)
    assert _same_poly(ch._reduce_poly(W ** 4), _fixpoint_reduce(ch, W ** 4))
    assert ch.var("W") ** 4 == ch.expr("2*sin(t)*(x + 2) + (x + 2)^2 + 1 - cos(t)^2")


def test_relations_are_lifted_once_per_rule_set(monkeypatch):
    """The rules are built once per set of rules, by the first reduction
    after a rule is set, and not again by the ``_reduce_poly`` calls
    that find them cached."""
    built, reductions = [], []
    powers, reduce_poly = Chart._relation_powers, Chart._reduce_poly

    def counting_powers(self):
        if self._relations is None:
            built.append([g.name for g in self.generators if g.square_rhs is not None])
        return powers(self)

    def counting_reduce(self, p):
        reductions.append(p)
        return reduce_poly(self, p)

    monkeypatch.setattr(Chart, "_relation_powers", counting_powers)
    monkeypatch.setattr(Chart, "_reduce_poly", counting_reduce)
    ch = nested_root_chart()
    # W's radicand is parsed under no rule, V's under {W}
    assert built == [[], ["W"]]
    for k in range(1, 6):
        parse_expr(ch, f"(W + V*x)^{k} / (x + y^{k}) + V^{k + 1}*W")
    assert built == [[], ["W"], ["W", "V"]] and len(reductions) > 20


@pytest.mark.parametrize("name", sorted(_CANCEL_CHARTS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_monic_division_matches_sympy_div(name, data):
    """_divide by a primitive divisor returns the quotient, hashing like a
    fresh polynomial, exactly when sympy's remainder over QQ is 0, for
    table irreducibles, random primitive divisors, their products and
    non-monic multiples whose leading coefficient need not divide the
    dividend's."""
    chart, irreducibles, _ = _CANCEL_CHARTS[name]
    n = len(chart.var_names)

    def poly(max_size):
        monom = st.tuples(*[st.integers(0, 2)] * n)
        coeff = st.sampled_from([1, -1, 3, 2, -14])
        return chart._poly(data.draw(st.dictionaries(monom, coeff, max_size=max_size)))

    f = _poly(chart, data.draw(st.sampled_from(irreducibles)))
    g = poly(3)
    if g and data.draw(st.booleans()):
        g = _from_sympy(chart, _to_sympy(chart, g).primitive()[1])
        f = g * (f if data.draw(st.booleans()) else 1)
    if data.draw(st.booleans()):  # a non-monic primitive divisor
        f = f * (3 * chart._gens[0] + 2)
    p = f * poly(4) + (poly(2) if data.draw(st.booleans()) else Poly())
    assert _to_sympy(chart, f).primitive()[0] == 1
    quotient, remainder = _to_sympy(chart, p, QQ).div(_to_sympy(chart, f, QQ))
    got = _divide(p, f)
    if remainder:
        assert got is None
    else:
        assert got is not None and _same_poly(got, _from_sympy(chart, quotient))


def test_division_stops_at_a_coefficient_the_leading_one_does_not_divide():
    ch = Chart(["x", "y"])
    x, y = (_poly(ch, v) for v in "xy")
    f = 2 * x + 3 * y
    assert _same_poly(_divide(f * (x - 5 * y), f), x - 5 * y)
    assert _divide(3 * x ** 2 + 2 * y, f) is None  # LC 3 is not a multiple of 2
    assert _divide(x * f + y, f) is None  # exact leading steps, then a remainder
    assert _divide(f * (x - 5 * y) + 2 * y ** 2, f) is None


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_charts_order_monomials_by_lex(data):
    """Packed keys compare like their exponent tuples, lex with the first
    variable highest, and unpack to them."""
    for chart in _REDUCE_CHARTS.values():
        exps = st.tuples(*[st.integers(0, 2 ** 16 - 1)] * len(chart.var_names))
        a, b = data.draw(exps), data.draw(exps)
        assert (chart._pack(a) < chart._pack(b)) == (a < b)
        assert chart._unpack(chart._pack(a)) == a


def test_a_constant_differentiates_to_the_shared_zero_building_no_expr(monkeypatch):
    """A constant's derivative is the chart's zero, the quotient rule's
    normal form, with no Expr built; a name that is no coordinate still
    raises, for a constant too."""
    for ch in (_make_chart(), _w_chart()):
        consts = [ch.zero(), ch.one(), ch.const(Fraction(-3, 7)), ch.const(5)]
        quotient_rule = {}
        for c in consts:
            for coord in ch.coordinates:
                n, d = c._num, c._den
                s, rules = _derivation_rules(ch, coord, [n, d])
                dn, dd = (_poly_total_derivative(ch, p, rules) for p in (n, d))
                quotient_rule[id(c), coord] = Expr(ch, dn * d - n * dd, s * d * d)
        built = []
        init = Expr.__init__

        def recording_init(self, *args):
            init(self, *args)
            built.append(self)

        monkeypatch.setattr(Expr, "__init__", recording_init)
        for c in consts:
            for coord in ch.coordinates:
                got = c.differentiate(coord)
                assert got is ch.zero()
                old = quotient_rule[id(c), coord]
                assert got._num == old._num and got._den == old._den
            with pytest.raises(ExprError, match="not a coordinate"):
                c.differentiate(ch.var_names[-1])
            with pytest.raises(ExprError, match="not a coordinate"):
                c.differentiate("nowhere")
        assert built == []
        monkeypatch.undo()


# -- the packed polynomial type against sympy ----------------------------------


_PACKED_CHARTS = {k: Chart([f"x{i}" for i in range(k)]) for k in range(1, 11)}


def _draw_poly(data, chart, max_size=6, max_exp=4):
    n = len(chart.var_names)
    monom = st.tuples(*[st.integers(0, max_exp)] * n)
    coeff = st.integers(-10 ** 6, 10 ** 6) | st.sampled_from([1, -1, 5 * 10 ** 20])
    return chart._poly(data.draw(st.dictionaries(monom, coeff, max_size=max_size)))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), k=st.integers(1, 10))
def test_packed_arithmetic_matches_sympy(data, k):
    """Sums, differences, products, powers and ground multiples, with
    an int operand too, are sympy's."""
    chart = _PACKED_CHARTS[k]
    a, b = _draw_poly(data, chart), _draw_poly(data, chart)
    A, B = _to_sympy(chart, a), _to_sympy(chart, b)
    e = data.draw(st.integers(0 if a else 1, 3))  # sympy refuses 0**0
    c = data.draw(st.integers(-7, 7))
    pairs = [(a + b, A + B), (a - b, A - B), (-a, -A), (a * b, A * B), (a ** e, A ** e),
             (a.mul_ground(c), A.mul_ground(c)), (c * a, c * A), (a * c, A * c),
             (a + c, A + c), (a - c, A - c)]
    for got, want in pairs:
        assert _same_poly(got, _from_sympy(chart, want))
    if c:
        assert _same_poly(a.mul_ground(c).quo_ground(c), a)
        assert _same_poly((a * c).quo_ground(-c), -a)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), k=st.integers(1, 10))
def test_packed_division_matches_sympy(data, k):
    """_divide returns sympy's quotient over QQ exactly when the
    remainder is zero and the quotient is integral."""
    chart = _PACKED_CHARTS[k]
    f = _draw_poly(data, chart, max_size=3, max_exp=2)
    if not f:
        return
    p = f * _draw_poly(data, chart, max_size=4, max_exp=2)
    if data.draw(st.booleans()):
        p = p + _draw_poly(data, chart, max_size=2, max_exp=3)
    quotient, remainder = _to_sympy(chart, p, QQ).div(_to_sympy(chart, f, QQ))
    got = _divide(p, f)
    if remainder or any(c != int(c) for c in quotient.values()):
        assert got is None
    else:
        assert got is not None and _same_poly(got, _from_sympy(chart, quotient))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), k=st.integers(1, 10))
def test_packed_leading_term_degrees_derivatives_values_and_text_match_sympy(data, k):
    """The lex leading term is the max key; a variable's field of
    ``bits`` is nonzero exactly for degree >= 1 and holds a higher bit
    exactly for degree >= 2; the unpacked exponents give sympy's degree
    per variable; ``_diff`` is sympy's derivative, ``_poly_mod`` its
    value mod a prime and ``_poly_str`` its printed form."""
    chart = _PACKED_CHARTS[k]
    a = _draw_poly(data, chart)
    A = _to_sympy(chart, a)
    R = A.ring
    assert chart._poly_str(a) == str(A)
    if a:
        assert chart._unpack(max(a)) == A.LM and a.LC == A.LC
    for i in range(k):
        degree = max((chart._unpack(m)[i] for m in a), default=-math.inf)
        assert degree == A.degree(i)
        field = a.bits >> chart._shift[i] & (2 ** 16 - 1)
        assert (field != 0) == (degree >= 1) and (field > 1) == (degree >= 2)
        assert _same_poly(chart._diff(a, i), _from_sympy(chart, A.diff(R.gens[i])))
    prime = data.draw(st.sampled_from([_prime(0), _prime(1), 101]))
    residues = data.draw(st.lists(st.integers(0, prime - 1), min_size=k, max_size=k))
    assert _poly_mod(a, residues, prime) == int(A(*residues)) % prime


def test_exponents_past_the_packing_raise():
    """x^(2^16 - 1) fits its 16-bit field; x^(2^15) * x^(2^15), a power
    past the field and a reduction that raises x past it are refused."""
    ch = Chart(["x", "y"], roots=[("W", "x")])
    x, W = ch._gens[0], ch._gens[2]
    top = x ** (2 ** 16 - 1)
    assert ch._unpack(max(top)) == (2 ** 16 - 1, 0, 0) and top.bits == max(top)
    half = x ** (2 ** 15)
    with pytest.raises(KernelInconsistency):
        half * half
    with pytest.raises(KernelInconsistency):
        top * (x + 1)
    with pytest.raises(KernelInconsistency):
        ch.var("x") ** (2 ** 16)
    with pytest.raises(KernelInconsistency):
        ch._reduce_poly(top * W ** 2)
    with pytest.raises(KernelInconsistency):
        ch._pack((2 ** 16, 0, 0))
    with pytest.raises(KernelInconsistency):
        _poly_dot([(x, x), (half, half)])
    with pytest.raises(KernelInconsistency):
        _poly_dot([(x + 1, top)])
    assert _poly_dot([(top, _ONE)]) == top
    assert _divide(top, x) == x ** (2 ** 16 - 2)


def test_poly_dot_is_the_sum_of_the_products():
    """Terms multiplied out into one dict, cancellations dropped."""
    ch = Chart(["x", "y"])
    x, y = (_poly(ch, v) for v in "xy")
    pairs = [(x + 1, y - 1), (_ONE, x * y), (-(x + 1), y - 1), (x * x - y, x + y * y),
             (Poly(), x), (y * 3, _ground(-2))]
    assert _poly_dot(pairs) == sum((p * q for p, q in pairs), Poly())
    assert _poly_dot([(x, y), (-y, x)]) == Poly() and _poly_dot([]) == Poly()


def _poly_mod_one_variable_at_a_time(p, residues, modulus):
    """The value mod ``modulus`` of p at ``residues``, each term's packed
    fields read one variable at a time, each power memoized by its
    field's bits for this call."""
    shifts = range(17 * (len(residues) - 1), -1, -17)
    fields = [((2 ** 16 - 1) << s, s, r) for s, r in zip(shifts, residues)]
    powers = {}
    total = 0
    for m, coeff in p.items():
        term = coeff % modulus
        for mask, s, r in fields:
            if f := m & mask:
                v = powers.get(f)
                if v is None:
                    v = powers[f] = pow(r, f >> s, modulus)
                term = term * v % modulus
        total += term
    return total % modulus


@pytest.mark.parametrize("k", [1, 3, 10])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_poly_mod_reads_pairs_of_variables_like_one_at_a_time(k, data):
    """_poly_mod, which reads the packed fields two at a time (the last
    alone for an odd count), gives the one-variable evaluator's value,
    at exponents up to 2^16 - 1, mod one prime and mod a product of two;
    a second call at other residues memoizes nothing of the first."""
    chart = _PACKED_CHARTS[k]
    exponent = st.integers(0, 3) | st.integers(0, 2 ** 16 - 1)
    monom = st.tuples(*[exponent] * k)
    coeff = st.integers(-10 ** 6, 10 ** 6) | st.sampled_from([1, -1, 5 * 10 ** 20])
    terms = data.draw(st.dictionaries(monom, coeff, max_size=8))
    # terms that share one pair's exponents but differ in the other's
    base = data.draw(monom)
    for i in data.draw(st.lists(st.integers(0, k - 1), max_size=4)):
        terms[base[:i] + (data.draw(exponent),) + base[i + 1:]] = data.draw(coeff)
    p = chart._poly(terms)
    modulus = data.draw(st.sampled_from([_prime(0), _prime(1) * _prime(2), 101]))
    for _ in range(2):
        residues = data.draw(st.lists(st.integers(0, modulus - 1), min_size=k, max_size=k))
        assert _poly_mod(p, residues, modulus) == \
            _poly_mod_one_variable_at_a_time(p, residues, modulus)
