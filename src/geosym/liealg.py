"""Exact finite-dimensional Lie-algebra toolkit.

Closure of explicit vector fields into abstract algebras with rational
structure constants, representation kernels, equivariant tensors (the
Nomizu computation), and vanishing loci of affine-linear vector
fields.  All arithmetic is over
:class:`fractions.Fraction`; no floating point, no algebraic-number
extensions.  Closure and vanishing loci read their rational equations
off the fields' normal forms and evaluate nothing at points, so they
work on any chart, root generators included.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import _linalg
from .exprfield import Chart, Expr, ExprError, KernelInconsistency, _clear_denominators
from .geometry import TensorField, bracket

__all__ = [
    "LieAlgError",
    "LieAlgebra",
    "Representation",
    "VanishingLocus",
    "closure_from_fields",
    "reductive_isotropy",
    "equivariant_tensors",
    "vanishing_locus",
    "block_parameter_search",
]

_ZERO = Fraction(0)


class LieAlgError(ExprError):
    pass


def _frac_matrix(rows: Sequence[Sequence]) -> List[List[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


@dataclass(frozen=True)
class LieAlgebra:
    """Structure constants c^k_{ij} with exact antisymmetry and Jacobi.

    ``structure[i][j][k]`` is the coefficient of e_k in [e_i, e_j].
    """

    dimension: int
    structure: Tuple[Tuple[Tuple[Fraction, ...], ...], ...]

    def __post_init__(self):
        d = self.dimension
        c = self.structure
        if len(c) != d or any(len(ci) != d for ci in c) or any(
            len(cij) != d for ci in c for cij in ci
        ):
            raise LieAlgError("structure constants have wrong shape")
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    if c[i][j][k] != -c[j][i][k]:
                        raise LieAlgError(
                            f"antisymmetry fails at c^{k}_{{{i}{j}}}")
        for i, j, k in itertools.combinations(range(d), 3):
            acc = [_ZERO] * d
            for (a, b, e) in ((i, j, k), (j, k, i), (k, i, j)):
                inner = self.bracket_basis(a, b)
                for m in range(d):
                    if inner[m]:
                        for p in range(d):
                            acc[p] += inner[m] * c[m][e][p]
            if any(acc):
                raise LieAlgError(f"Jacobi identity fails on ({i},{j},{k})")

    @classmethod
    def from_structure(cls, structure: Sequence[Sequence[Sequence]]) -> "LieAlgebra":
        c = tuple(tuple(tuple(Fraction(x) for x in cij) for cij in ci)
                  for ci in structure)
        return cls(len(c), c)

    def bracket_basis(self, i: int, j: int) -> List[Fraction]:
        return list(self.structure[i][j])

    def bracket(self, x: Sequence[Fraction],
                y: Sequence[Fraction]) -> List[Fraction]:
        d = self.dimension
        out = [_ZERO] * d
        for i in range(d):
            if not x[i]:
                continue
            for j in range(d):
                if not y[j]:
                    continue
                f = x[i] * y[j]
                for k in range(d):
                    if self.structure[i][j][k]:
                        out[k] += f * self.structure[i][j][k]
        return out

    def center(self) -> List[List[Fraction]]:
        d = self.dimension
        rows = []
        for j in range(d):
            for k in range(d):
                rows.append([self.structure[i][j][k] for i in range(d)])
        return _linalg.nullspace(rows, d)

    def derived_algebra(self) -> List[List[Fraction]]:
        d = self.dimension
        rows = [self.bracket_basis(i, j)
                for i in range(d) for j in range(i + 1, d)]
        red, _ = _linalg.rref(rows)
        return red

    def is_abelian(self) -> bool:
        return not self.derived_algebra()


@dataclass(frozen=True)
class Representation:
    """Exact matrices per basis element, checked against the brackets."""

    algebra: LieAlgebra
    module_dimension: int
    matrices: Tuple[Tuple[Tuple[Fraction, ...], ...], ...]

    def __post_init__(self):
        d = self.algebra.dimension
        n = self.module_dimension
        if len(self.matrices) != d or any(
            len(m) != n or any(len(r) != n for r in m) for m in self.matrices
        ):
            raise LieAlgError("representation matrices have wrong shape")
        for i in range(d):
            for j in range(i + 1, d):
                comm = _mat_sub(
                    _mat_mul(self.matrices[i], self.matrices[j]),
                    _mat_mul(self.matrices[j], self.matrices[i]))
                want = self.rho(self.algebra.bracket_basis(i, j))
                if comm != want:
                    raise LieAlgError(
                        f"rho([e_{i}, e_{j}]) != [rho(e_{i}), rho(e_{j})]")

    @classmethod
    def from_matrices(cls, algebra: LieAlgebra,
                      matrices: Sequence[Sequence[Sequence]]) -> "Representation":
        mats = tuple(tuple(tuple(Fraction(x) for x in row) for row in m)
                     for m in matrices)
        n = len(mats[0]) if mats else 0
        return cls(algebra, n, mats)

    def rho(self, x: Sequence[Fraction]) -> List[List[Fraction]]:
        n = self.module_dimension
        out = [[_ZERO] * n for _ in range(n)]
        for i, xi in enumerate(x):
            if not xi:
                continue
            m = self.matrices[i]
            for a in range(n):
                row = m[a]
                for b in range(n):
                    if row[b]:
                        out[a][b] += xi * row[b]
        return out


def reductive_isotropy(A: LieAlgebra, h_basis: Sequence[Sequence],
                       m_basis: Sequence[Sequence]) -> Representation:
    """Isotropy representation of the subalgebra h on the complement m.

    Requires the reductive condition [h, m] subset of m; the matrices
    are ad(h) restricted to m in the given m basis.

    One elimination answers every question: the columns are the basis
    b = (h, m), then [h_i, b_j] for each i and j.  h + m is a direct sum
    iff the first d columns are pivots; the reduced rows then hold the
    unique coordinates of each bracket in b, the first dim h of them on
    h.  h is a subalgebra iff every [h_i, h_j] has zero m-coordinates,
    whose h-coordinates are h's structure constants, and the pair is
    reductive iff every [h_i, m_k] has zero h-coordinates.
    """
    d = A.dimension
    h = _frac_matrix(h_basis)
    basis = h + _frac_matrix(m_basis)
    cols = basis + [A.bracket(x, y) for x in h for y in basis]
    red, pivots = _linalg.rref(list(zip(*cols)))
    if len(basis) != d or pivots[:d] != list(range(d)):
        raise LieAlgError("h and m do not form a direct-sum decomposition")
    nh = len(h)
    # coords[i][j]: the coordinates of [h_i, b_j] in b
    coords = [[[row[d + i * d + j] for row in red] for j in range(d)] for i in range(nh)]
    if any(x for i in range(nh) for j in range(nh) for x in coords[i][j][nh:]):
        raise LieAlgError("h is not a subalgebra")
    h_alg = LieAlgebra.from_structure(
        [[coords[i][j][:nh] for j in range(nh)] for i in range(nh)])
    if any(x for i in range(nh) for j in range(nh, d) for x in coords[i][j][:nh]):
        raise LieAlgError("[h, m] is not contained in m")
    mats = tuple(tuple(tuple(coords[i][j][a] for j in range(nh, d)) for a in range(nh, d))
                 for i in range(nh))
    return Representation(h_alg, d - nh, mats)


def _mat_mul(a, b):
    n = len(a)
    p = len(b[0]) if b else 0
    out = [[_ZERO] * p for _ in range(n)]
    for i in range(n):
        for k, aik in enumerate(a[i]):
            if aik:
                brow = b[k]
                for j in range(p):
                    if brow[j]:
                        out[i][j] += aik * brow[j]
    return [[Fraction(x) for x in row] for row in out]


def _mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


# ---------------------------------------------------------------------------
# Closure of explicit vector fields
# ---------------------------------------------------------------------------

def _coefficient_rows(chart: Chart, columns: Sequence[Sequence[Expr]]) -> List[Tuple[int, ...]]:
    """The integer rows of the Q-linear equations sum_k c_k e_k = 0 for
    the columns e_k of ``columns[a]``, one list of ``Expr`` per
    component a: one row per component and monomial of the numerators
    over the component's lcm of denominators (:func:`_clear_denominators`),
    duplicates dropped.

    Soundness.  Each column is num_k / den_k = N_k / L with L != 0 and
    N_k = num_k * (L / den_k) already reduced.  The normal form modulo a
    Groebner basis is canonical and
    Q-linear, so sum_k c_k N_k is the normal form of the combination's
    numerator, zero exactly when the combination is: these rows are
    exact, with no sample point and no pole."""
    rows: List[Tuple[int, ...]] = []
    for exprs in columns:
        _, nums = _clear_denominators(chart, exprs)
        rows += (tuple(p.get(m, 0) for p in nums) for m in {m for p in nums for m in p})
    return list(dict.fromkeys(rows))


def closure_from_fields(fields: Sequence[TensorField]) -> LieAlgebra:
    """Abstract Lie algebra spanned by the given vector fields.

    Succeeds iff the fields are independent over Q and each pairwise
    bracket is a rational-constant combination of them.  Both are read
    off one exact elimination over the columns (fields, brackets), whose
    rows compare the coefficients of the components' numerators
    (:func:`_coefficient_rows`).  A column is a pivot iff it is outside
    the span of the columns before it, so the fields are independent iff
    the first d columns are pivots, and closed iff no later column is;
    the first such pivot is the first bracket outside the span.  The
    reduced rows then hold each bracket's structure constants, which are
    re-verified symbolically as a certificate.
    """
    if not fields:
        raise LieAlgError("no fields given")
    chart = fields[0].chart
    for f in fields:
        if f.variance != ("u",):
            raise LieAlgError("closure_from_fields expects vector fields")
        if f.chart is not chart:
            raise LieAlgError("fields live on different charts")
    d = len(fields)
    pairs = list(itertools.combinations(range(d), 2))
    brackets = [bracket(fields[i], fields[j]) for i, j in pairs]
    comps = [[f.comp(a) for f in fields] for a in range(chart.dim)]
    red, pivots = _linalg.rref(_coefficient_rows(
        chart, [cs + [br.comp(a) for br in brackets] for a, cs in enumerate(comps)]))
    if pivots[:d] != list(range(d)):
        raise LieAlgError("input fields are linearly dependent over the rationals")
    if len(pivots) > d:
        i, j = pairs[pivots[d] - d]
        raise LieAlgError(
            f"not closed: [field {i}, field {j}] is not a "
            "rational-constant combination of the inputs")
    structure = [[[_ZERO] * d for _ in range(d)] for _ in range(d)]
    for col, ((i, j), br) in enumerate(zip(pairs, brackets), d):
        c = [row[col] for row in red]
        if any(chart.sum_products([(br.comp(a),)] + [(-ck, X) for ck, X in zip(c, cs)])
               for a, cs in enumerate(comps)):
            raise KernelInconsistency(
                f"[field {i}, field {j}] fails its symbolic certificate; kernel bug")
        for k in range(d):
            structure[i][j][k], structure[j][i][k] = c[k], -c[k]
    return LieAlgebra.from_structure(structure)


# ---------------------------------------------------------------------------
# Equivariant tensors
# ---------------------------------------------------------------------------

_TENSOR_SIZE_GUARD = 20000


def equivariant_tensors(R: Representation,
                        tensor_type: Tuple[int, int]) -> List[Dict[tuple, Fraction]]:
    """Basis of h-invariant tensors with ``tensor_type = (r, s)``:
    r dual (lower) slots and s module (upper) slots.

    The induced action is the Leibniz rule with sign ``-rho`` transposed
    on dual slots.  Each returned tensor is a sparse mapping from an
    index tuple ``(upper..., lower...)`` to its coefficient.
    """
    r, s = tensor_type
    n = R.module_dimension
    total = n ** (r + s)
    if total > _TENSOR_SIZE_GUARD:
        raise LieAlgError(
            f"tensor space dimension {total} exceeds the size guard")
    slots = r + s
    indices = list(itertools.product(range(n), repeat=slots))
    col = {idx: c for c, idx in enumerate(indices)}
    rows = []
    for mat in R.matrices:
        for idx in indices:
            row = [_ZERO] * total
            for pos in range(slots):
                upper = pos < s
                for b in range(n):
                    src = list(idx)
                    src[pos] = b
                    if upper:
                        coeff = mat[idx[pos]][b]
                    else:
                        coeff = -mat[b][idx[pos]]
                    if coeff:
                        row[col[tuple(src)]] += coeff
            rows.append(row)
    basis_vecs = _linalg.nullspace(rows, total)
    # re-check: every basis element annihilated by every invariance row
    if any(sum(a * b for a, b in zip(row, v) if a) for v in basis_vecs for row in rows):
        raise LieAlgError("invariance re-check failed")
    return [{idx: v[col[idx]] for idx in indices if v[col[idx]]} for v in basis_vecs]


# the nonzero rationals p/q with |p|, q in 1..4, in increasing order
_CANDIDATES = sorted({s * Fraction(p, q)
                      for s in (1, -1) for p in range(1, 5) for q in range(1, 5)})


def block_parameter_search(block_a: Sequence[Sequence],
                           block_b: Sequence[Sequence],
                           target_kernel_dim: int) -> List[Fraction]:
    """Rational a with dim ker(block_a + a*block_b) == target, a != 0.

    Searches the small rationals of ``_CANDIDATES`` and reports every
    hit; nothing is asserted about uniqueness.
    """
    A = _frac_matrix(block_a)
    B = _frac_matrix(block_b)
    n = len(A)
    hits = []
    for a in _CANDIDATES:
        m = [[A[i][j] + a * B[i][j] for j in range(n)] for i in range(n)]
        if n - _linalg.rank(m) == target_kernel_dim:
            hits.append(a)
    return hits


# ---------------------------------------------------------------------------
# Vanishing locus of affine-linear vector fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VanishingLocus:
    """Exact zero set of an affine-linear vector field.

    ``offset + span(directions)`` when non-empty; ``dimension`` is -1
    for the empty locus.  ``zero_coordinates`` lists coordinates whose
    vanishing defines the locus when it has that simple form.
    """

    is_empty: bool
    dimension: int
    offset: Optional[Tuple[Fraction, ...]]
    directions: Tuple[Tuple[Fraction, ...], ...]
    zero_coordinates: Tuple[str, ...] = field(default=())

    def describe(self) -> str:
        if self.is_empty:
            return "empty"
        if self.zero_coordinates:
            eqs = ", ".join(f"{c} = 0" for c in self.zero_coordinates)
            return f"{{{eqs}}} (dimension {self.dimension})"
        return f"affine subspace of dimension {self.dimension}"


def vanishing_locus(X: TensorField) -> VanishingLocus:
    """Solve X = 0 exactly for a vector field with affine-linear components.

    Each component X^i must have rational-constant derivatives a_ij, and
    c_i = X^i - sum_j a_ij x_j must be a rational constant; both are read
    off the normal forms, so no point is evaluated.  X(x) = 0 iff (x, 1)
    lies in the kernel of [A | c], so one kernel basis answers everything:
    the locus is empty iff no kernel vector has last entry 1 (the last
    column is a pivot), that vector is the offset, and the others are the
    directions.  The locus is {x_k = 0} for the coordinates outside every
    direction exactly when the offset is 0 and each direction is a unit
    vector, that is when the reduced rows are coordinate functionals."""
    if X.variance != ("u",):
        raise LieAlgError("vanishing_locus expects a vector field")
    chart = X.chart
    coords = chart.coordinates
    n = len(coords)
    rows: List[List[Fraction]] = []
    for i in range(n):
        comp = X.comp(i)
        derivs = [comp.differentiate(c) for c in coords]
        if not all(dv.is_constant() for dv in derivs):
            raise LieAlgError(
                f"component {i} is not affine-linear in the coordinates")
        row = [dv.as_fraction() for dv in derivs]
        const = chart.sum_products([(comp,)] + [(-aij, chart.var(c))
                                                for aij, c in zip(row, coords) if aij])
        if not const.is_constant():
            raise LieAlgError(f"component {i} is not affine-linear")
        rows.append(row + [const.as_fraction()])
    kernel = _linalg.nullspace(rows, n + 1)
    if not kernel or not kernel[-1][n]:
        return VanishingLocus(True, -1, None, ())
    offset = tuple(kernel[-1][:n])
    directions = tuple(tuple(v[:n]) for v in kernel[:-1])
    zero_coords: Tuple[str, ...] = ()
    if not any(offset) and all(sum(map(bool, v)) == 1 for v in directions):
        zero_coords = tuple(c for k, c in enumerate(coords) if not any(v[k] for v in directions))
    return VanishingLocus(False, len(directions), offset, directions, zero_coords)
