"""Exact Lie-algebra toolkit: closures, subalgebras, representations,
equivariant tensors, and vanishing loci."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from geosym import _linalg
from geosym import geometry as G
from geosym import liealg as L
from geosym.exprfield import Chart, parse_expr


SO3 = L.LieAlgebra.from_structure([
    [[0, 0, 0], [0, 0, 1], [0, -1, 0]],
    [[0, 0, -1], [0, 0, 0], [1, 0, 0]],
    [[0, 1, 0], [-1, 0, 0], [0, 0, 0]],
])

HEIS = L.LieAlgebra.from_structure([
    [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
    [[0, 0, -1], [0, 0, 0], [0, 0, 0]],
    [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
])


def test_structure_invariants_enforced():
    with pytest.raises(L.LieAlgError):
        # breaks antisymmetry
        L.LieAlgebra.from_structure([
            [[0, 0], [1, 0]],
            [[1, 0], [0, 0]],
        ])
    with pytest.raises(L.LieAlgError):
        # antisymmetric but violates Jacobi:
        # [e0,e1] = e1, [e1,e2] = e0, [e2,e0] = 0
        L.LieAlgebra.from_structure([
            [[0, 0, 0], [0, 1, 0], [0, 0, 0]],
            [[0, -1, 0], [0, 0, 0], [1, 0, 0]],
            [[0, 0, 0], [-1, 0, 0], [0, 0, 0]],
        ])


def test_closure_heisenberg():
    chart = Chart(["x", "y"])
    f1 = G.vector(chart, [chart.one(), chart.zero()])
    f2 = G.vector(chart, [chart.zero(), chart.one()])
    f3 = G.vector(chart, [chart.zero(), parse_expr(chart, "x")])
    alg = L.closure_from_fields([f1, f2, f3])
    assert alg.dimension == 3
    assert alg.bracket_basis(0, 2) == [0, 1, 0]
    assert len(alg.center()) == 1


def test_closure_rejects_dependent_fields():
    chart = Chart(["x", "y"])
    X = G.vector(chart, [chart.var("y"), chart.one()])
    for fields in ([X, X], [X, X.scale(chart.const(2))]):
        with pytest.raises(L.LieAlgError, match="linearly dependent over the rationals"):
            L.closure_from_fields(fields)


def test_closure_rejects_non_closed_span():
    chart = Chart(["x"])
    f1 = G.vector(chart, [chart.one()])
    f2 = G.vector(chart, [parse_expr(chart, "x^2")])
    with pytest.raises(L.LieAlgError, match="not closed"):
        L.closure_from_fields([f1, f2])


def test_closure_names_the_first_pair_outside_the_span():
    """x^k d/dx for k = 0..3: every bracket but [x^2 d/dx, x^3 d/dx] =
    x^4 d/dx lies in the span."""
    chart = Chart(["x"])
    fields = [G.vector(chart, [parse_expr(chart, f"x^{k}")]) for k in range(4)]
    with pytest.raises(L.LieAlgError, match=r"not closed: \[field 2, field 3\]"):
        L.closure_from_fields(fields)


def _pole_fields(pole):
    """a = d/dy and b = 1/(x - pole) d/dy: an abelian pair."""
    chart = Chart(["x", "y"])
    a = G.vector(chart, [chart.zero(), chart.one()])
    b = G.vector(chart, [chart.zero(), parse_expr(chart, f"1/(x-{pole})")])
    return chart, [a, b]


@pytest.mark.parametrize("pole", [2, 3])
def test_closure_of_fields_with_a_pole(pole):
    """b has a pole on the line x = pole; the coefficient comparison
    evaluates nothing there, and a, b close to an abelian pair."""
    _, fields = _pole_fields(pole)
    alg = L.closure_from_fields(fields)
    assert alg.dimension == 2
    assert len(alg.center()) == 2


def test_closure_on_a_chart_with_a_root_generator():
    """With W^2 = t^2 + 1, [s d/ds, W d/ds] = -W d/ds: a 2-dimensional
    algebra whose derived algebra is spanned by W d/ds."""
    chart = Chart(["s", "t"], roots=[("W", "t^2 + 1")])
    s_ds = G.vector(chart, [chart.var("s"), chart.zero()])
    w_ds = G.vector(chart, [chart.var("W"), chart.zero()])
    alg = L.closure_from_fields([s_ds, w_ds])
    assert alg.dimension == 2
    assert alg.bracket_basis(0, 1) == [0, -1]
    assert alg.derived_algebra() == [[0, 1]]


def test_closure_of_fields_dependent_over_the_function_field():
    """d/dx and x d/dx are independent over Q although x d/dx = x * d/dx:
    [d/dx, x d/dx] = d/dx."""
    chart = Chart(["x"])
    alg = L.closure_from_fields([G.vector(chart, [chart.one()]),
                                 G.vector(chart, [chart.var("x")])])
    assert alg.bracket_basis(0, 1) == [1, 0]


def _combine(fields, P):
    chart = fields[0].chart
    out = []
    for row in P:
        acc = fields[0].scale(chart.const(row[0]))
        for c, f in zip(row[1:], fields[1:]):
            acc = acc + f.scale(chart.const(c))
        out.append(acc)
    return out


def _flat2_fields():
    chart = Chart(["x", "y"])
    x, y = chart.var("x"), chart.var("y")
    return [G.vector(chart, [chart.one(), chart.zero()]),
            G.vector(chart, [chart.zero(), chart.one()]),
            G.vector(chart, [-y, x])]


_RATIONALS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@pytest.mark.parametrize("case", ["flat2", "eguchi-hanson"])
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_structure_constants_transform_under_a_change_of_basis(eh_fields, case, data):
    """For Y_i = sum_k P_ik X_k with P invertible, the constants c' of
    the Y satisfy sum_n c'^n_ij P_nm = sum_kl P_ik P_jl c^m_kl."""
    fields = _flat2_fields() if case == "flat2" else eh_fields
    d = len(fields)
    P = data.draw(st.lists(st.lists(_RATIONALS, min_size=d, max_size=d),
                           min_size=d, max_size=d))
    assume(_linalg.rank(P) == d)
    c = L.closure_from_fields(fields).structure
    c2 = L.closure_from_fields(_combine(fields, P)).structure
    for i in range(d):
        for j in range(i + 1, d):
            for m in range(d):
                assert sum(c2[i][j][n] * P[n][m] for n in range(d)) == sum(
                    P[i][k] * P[j][l] * c[k][l][m] for k in range(d) for l in range(d))


def test_derived_algebra():
    assert len(SO3.derived_algebra()) == 3
    assert len(HEIS.derived_algebra()) == 1
    assert not SO3.is_abelian()


def test_representation_checks_homomorphism():
    bad = [[[0, 1], [0, 0]]] * 3
    with pytest.raises(L.LieAlgError):
        L.Representation.from_matrices(SO3, bad)


def test_so3_standard_representation():
    mats = [
        [[0, 0, 0], [0, 0, -1], [0, 1, 0]],
        [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
        [[0, -1, 0], [1, 0, 0], [0, 0, 0]],
    ]
    rep = L.Representation.from_matrices(SO3, mats)
    # kernel of a rotation generator is its axis
    assert len(_linalg.nullspace(rep.rho([1, 0, 0]), rep.module_dimension)) == 1
    assert len(_linalg.nullspace(rep.rho([0, 0, 0]), rep.module_dimension)) == 3


TRIV = L.LieAlgebra.from_structure([[[0]]])


def test_zero_eigenspace_of_invertible_map():
    rep = L.Representation.from_matrices(TRIV, [[[1, 0], [0, 2]]])
    assert _linalg.nullspace(rep.rho([1]), rep.module_dimension) == []


def test_block_sum_kernel():
    m1 = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
    m2 = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    total = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(m1, m2)]
    rep = L.Representation.from_matrices(TRIV, [total])
    assert len(_linalg.nullspace(rep.rho([1]), rep.module_dimension)) == 2
    hits = L.block_parameter_search(m1, m2, 2)
    assert Fraction(1) in hits


def test_equivariant_tensors_trivial_action():
    rep = L.Representation.from_matrices(TRIV, [[[0, 0], [0, 0]]])
    assert len(L.equivariant_tensors(rep, (1, 1))) == 4


def test_equivariant_tensors_so2():
    rep = L.Representation.from_matrices(TRIV, [[[0, -1], [1, 0]]])
    basis = L.equivariant_tensors(rep, (1, 1))
    # complex-linear maps on R^2: the identity and the rotation
    assert len(basis) == 2


def test_equivariant_tensors_size_guard():
    rep = L.Representation.from_matrices(TRIV, [[[0] * 9 for _ in range(9)]])
    with pytest.raises(L.LieAlgError, match="guard"):
        L.equivariant_tensors(rep, (4, 1))


def test_reductive_isotropy_so3_on_itself():
    # adjoint representation via the decomposition h = span{e0}, m = rest
    rep = L.reductive_isotropy(
        SO3, [[Fraction(1), Fraction(0), Fraction(0)]],
        [[Fraction(0), Fraction(1), Fraction(0)],
         [Fraction(0), Fraction(0), Fraction(1)]])
    assert rep.module_dimension == 2
    assert len(_linalg.nullspace(rep.rho([Fraction(1)]), rep.module_dimension)) == 0


AFF = L.LieAlgebra.from_structure([[[0, 0], [0, 1]], [[0, -1], [0, 0]]])  # [e0, e1] = e1


@pytest.mark.parametrize("algebra, h, m, message", [
    (SO3, [[1, 0, 0]], [[0, 1, 0]], "do not form a direct-sum decomposition"),
    (SO3, [[1, 0, 0]], [[1, 1, 0], [0, 1, 0]], "do not form a direct-sum decomposition"),
    (SO3, [[1, 0, 0], [0, 1, 0]], [[0, 0, 1]], "h is not a subalgebra"),
    (AFF, [[0, 1]], [[1, 0]], r"\[h, m\] is not contained in m"),
])
def test_reductive_isotropy_rejects(algebra, h, m, message):
    with pytest.raises(L.LieAlgError, match=message):
        L.reductive_isotropy(algebra, h, m)


def test_each_question_is_one_elimination(monkeypatch, eh_fields):
    """Closure, isotropy and a vanishing locus each reduce one matrix."""
    calls = []
    rref = _linalg.rref
    monkeypatch.setattr(_linalg, "rref", lambda rows: calls.append(rows) or rref(rows))
    chart = Chart(["x", "y"])
    line = G.vector(chart, [parse_expr(chart, "x + y")] * 2)
    for question in (lambda: L.closure_from_fields(eh_fields),
                     lambda: L.reductive_isotropy(SO3, [[1, 0, 0]], [[0, 1, 0], [0, 0, 1]]),
                     lambda: L.vanishing_locus(line)):
        calls.clear()
        question()
        assert len(calls) == 1


def test_vanishing_locus_cases():
    chart = Chart(["x", "y"])
    empty = L.vanishing_locus(G.vector(chart, [chart.one(), chart.zero()]))
    assert empty.is_empty

    origin = L.vanishing_locus(G.vector(
        chart, [parse_expr(chart, "x"), parse_expr(chart, "y")]))
    assert origin.dimension == 0
    assert origin.offset == (0, 0)
    assert origin.zero_coordinates == ("x", "y")

    axis = L.vanishing_locus(G.vector(
        chart, [parse_expr(chart, "x"), chart.zero()]))
    assert axis.dimension == 1
    assert axis.zero_coordinates == ("x",)

    shifted = L.vanishing_locus(G.vector(
        chart, [parse_expr(chart, "x - 1"), parse_expr(chart, "y + 2")]))
    assert shifted.dimension == 0
    assert shifted.offset == (1, -2)
    assert shifted.zero_coordinates == ()

    line = L.vanishing_locus(G.vector(chart, [parse_expr(chart, "x + y")] * 2))
    assert not line.is_empty and line.dimension == 1
    assert line.offset == (0, 0) and line.directions == ((-1, 1),)
    assert line.zero_coordinates == ()
    assert line.describe() == "affine subspace of dimension 1"

    # z = 0 on the line x + y = z = 0 in R^3, but x + y = 0 is no coordinate
    chart3 = Chart(["x", "y", "z"])
    line3 = L.vanishing_locus(G.vector(
        chart3, [parse_expr(chart3, "x + y"), chart3.var("z"), chart3.zero()]))
    assert line3.dimension == 1 and line3.zero_coordinates == ()

    parallel = L.vanishing_locus(G.vector(
        chart, [parse_expr(chart, "x + y"), parse_expr(chart, "x + y + 1")]))
    assert parallel.is_empty and parallel.dimension == -1
    assert parallel.describe() == "empty"


_SMALL_ROWS = st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3),
                       min_size=3, max_size=3)


@settings(max_examples=25, deadline=None)
@given(A=_SMALL_ROWS, x0=st.lists(st.integers(-3, 3), min_size=3, max_size=3))
def test_vanishing_locus_of_a_field_with_a_chosen_zero(A, x0):
    """X = A (x - x0) vanishes on x0 + ker A: the offset and the offset
    plus each direction are zeros, and the dimension is 3 - rank A."""
    chart = Chart(["x", "y", "z"])
    b = [sum(a * v for a, v in zip(row, x0)) for row in A]
    X = G.vector(chart, [chart.sum_products(
        [(a, chart.var(c)) for a, c in zip(row, chart.coordinates)] + [(-bi,)])
        for row, bi in zip(A, b)])
    loc = L.vanishing_locus(X)
    assert not loc.is_empty and loc.dimension == 3 - _linalg.rank(A)
    for v in ((0, 0, 0),) + loc.directions:
        point = [o + e for o, e in zip(loc.offset, v)]
        assert [sum(a * p for a, p in zip(row, point)) for row in A] == b


def test_vanishing_locus_rejects_nonlinear():
    chart = Chart(["x"])
    with pytest.raises(L.LieAlgError):
        L.vanishing_locus(G.vector(chart, [parse_expr(chart, "x^2")]))
    # d/dx (W x) = W with W^2 = 3, and d/dx sin(x) = cos(x): not rational constants
    for chart, component in ((Chart(["x"], roots=[("W", 3)]), "W*x"),
                             (Chart(["x"], trig_pairs=["x"]), "sin(x)")):
        with pytest.raises(L.LieAlgError, match="not affine-linear"):
            L.vanishing_locus(G.vector(chart, [parse_expr(chart, component)]))


@settings(max_examples=25, deadline=None)
@given(x=st.lists(st.integers(-4, 4), min_size=3, max_size=3),
       y=st.lists(st.integers(-4, 4), min_size=3, max_size=3))
def test_so3_bracket_is_cross_product_like(x, y):
    xv = [Fraction(v) for v in x]
    yv = [Fraction(v) for v in y]
    br = SO3.bracket(xv, yv)
    # antisymmetry and the invariance <[x,y], x> = 0 of the Killing form
    assert SO3.bracket(yv, xv) == [-v for v in br]
    assert sum(b * v for b, v in zip(br, xv)) == 0
