"""Exact linear algebra helpers."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from geosym import _linalg
from geosym.exprfield import Chart


frac = st.integers(-6, 6).map(Fraction)
matrix = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(frac, min_size=n, max_size=n), min_size=1, max_size=5))


@settings(max_examples=50, deadline=None)
@given(m=matrix)
def test_rank_nullity(m):
    ncols = len(m[0])
    assert _linalg.rank(m) + len(_linalg.nullspace(m, ncols)) == ncols


@settings(max_examples=50, deadline=None)
@given(m=matrix)
def test_nullspace_vectors_annihilate(m):
    ncols = len(m[0])
    for v in _linalg.nullspace(m, ncols):
        for row in m:
            assert sum(r * x for r, x in zip(row, v)) == 0


def test_int_matrices_are_reduced_exactly():
    # float division would merge the two rows (10**17 + 1 == 10**17 as floats)
    assert _linalg.rank([[10 ** 17, 1], [10 ** 17 + 1, 1]]) == 2
    # 3x + y = 1, x + 2y = 1 as the kernel of [A | -b]: (1/5, 2/5, 1)
    (v,) = _linalg.nullspace([[3, 1, -1], [1, 2, -1]], 3)
    assert v == [Fraction(1, 5), Fraction(2, 5), 1]
    assert all(type(x) is Fraction for x in v)


@settings(max_examples=50, deadline=None)
@given(m=matrix)
def test_rref_pivots_are_the_greedy_independent_columns(m):
    """The pivot columns span the column space, and each non-pivot column
    lies in the span of the pivot columns before it."""
    _, pivots = _linalg.rref(m)
    cols = [list(c) for c in zip(*m)]
    assert _linalg.rank([cols[c] for c in pivots]) == len(pivots) == _linalg.rank(m)
    for c in range(len(cols)):
        if c not in pivots:
            before = [cols[p] for p in pivots if p < c]
            assert _linalg.rank(before + [cols[c]]) == len(before)


def test_expr_matrix_dependent_through_a_relation():
    """Rows dependent only through sin^2 + cos^2 = 1: rank 1, and one
    kernel vector annihilating both rows."""
    ch = Chart(["t"], trig_pairs=["t"])
    s, c = ch.trig_pair("t")
    m = [[s, 1 + c], [1 - c, s]]
    assert _linalg.rank(m) == 1
    (v,) = _linalg.nullspace(m, 2)
    assert v[1] == Fraction(1) and type(v[1]) is Fraction  # the free entry
    for row in m:
        assert (row[0] * v[0] + row[1] * v[1]).is_zero()


def test_rref_idempotent():
    m = [[Fraction(2), Fraction(4)], [Fraction(1), Fraction(3)]]
    red, pivots = _linalg.rref(m)
    red2, pivots2 = _linalg.rref(red)
    assert red == red2 and pivots == pivots2
