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
    "zero_eigenspace",
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
    labels: Optional[Tuple[str, ...]] = None

    def __post_init__(self):
        d = self.dimension
        c = self.structure
        if len(c) != d or any(len(ci) != d for ci in c) or any(
            len(cij) != d for ci in c for cij in ci
        ):
            raise LieAlgError("structure constants have wrong shape")
        if self.labels is not None and len(self.labels) != d:
            raise LieAlgError("label count does not match dimension")
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
    def from_structure(cls, structure: Sequence[Sequence[Sequence]],
                       labels: Optional[Sequence[str]] = None) -> "LieAlgebra":
        c = tuple(tuple(tuple(Fraction(x) for x in cij) for cij in ci)
                  for ci in structure)
        return cls(len(c), c, tuple(labels) if labels is not None else None)

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
    """
    d = A.dimension
    h = _frac_matrix(h_basis)
    m = _frac_matrix(m_basis)
    if len(h) + len(m) != d or _linalg.rank(h + m) != d:
        raise LieAlgError("h and m do not form a direct-sum decomposition")
    # structure constants of h in its own basis (needed for the check in
    # Representation): brackets of h elements expressed in the h basis
    h_struct = [[[_ZERO] * len(h) for _ in range(len(h))]
                for _ in range(len(h))]
    for i in range(len(h)):
        for j in range(len(h)):
            br = A.bracket(h[i], h[j])
            sol = _linalg.solve([list(col) for col in zip(*h)], br)
            if sol is None:
                raise LieAlgError("h is not a subalgebra")
            h_struct[i][j] = [Fraction(x) for x in sol]
    h_alg = LieAlgebra.from_structure(h_struct)
    m_cols = [list(col) for col in zip(*m)]
    mats = []
    for x in h:
        cols = []
        for y in m:
            br = A.bracket(x, y)
            sol = _linalg.solve(m_cols, br)
            if sol is None:
                raise LieAlgError("[h, m] is not contained in m")
            cols.append([Fraction(v) for v in sol])
        mats.append(tuple(tuple(cols[j][a] for j in range(len(m)))
                          for a in range(len(m))))
    return Representation(h_alg, len(m), tuple(mats))


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


def closure_from_fields(fields: Sequence[TensorField],
                        labels: Optional[Sequence[str]] = None) -> LieAlgebra:
    """Abstract Lie algebra spanned by the given vector fields.

    Succeeds iff the fields are independent over Q and each pairwise
    bracket is a rational-constant combination of them.  Both are read
    off exactly, by comparing the coefficients of the components'
    numerators (:func:`_coefficient_rows`); each solved combination is
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
    comps = [[f.comp(a) for f in fields] for a in range(chart.dim)]
    if _linalg.rank(_coefficient_rows(chart, comps)) < d:
        raise LieAlgError("input fields are linearly dependent over the rationals")
    structure = [[[_ZERO] * d for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            br = bracket(fields[i], fields[j])
            rows = _coefficient_rows(chart, [cs + [br.comp(a)] for a, cs in enumerate(comps)])
            c = _linalg.solve([r[:-1] for r in rows], [r[-1] for r in rows])
            if c is None:
                raise LieAlgError(
                    f"not closed: [field {i}, field {j}] is not a "
                    "rational-constant combination of the inputs")
            if any(chart.sum_products([(br.comp(a),)] + [(-ck, X) for ck, X in zip(c, cs)])
                   for a, cs in enumerate(comps)):
                raise KernelInconsistency(
                    f"[field {i}, field {j}] fails its symbolic certificate; kernel bug")
            for k in range(d):
                structure[i][j][k], structure[j][i][k] = c[k], -c[k]
    return LieAlgebra.from_structure(
        structure, labels if labels is not None else None)


# ---------------------------------------------------------------------------
# Representation kernels and equivariant tensors
# ---------------------------------------------------------------------------

def zero_eigenspace(R: Representation, x: Sequence) -> List[List[Fraction]]:
    """Exact kernel of rho(x) in the module."""
    xv = [Fraction(v) for v in x]
    mat = R.rho(xv)
    basis = _linalg.nullspace(mat, R.module_dimension)
    if len(basis) + _linalg.rank(mat) != R.module_dimension:
        raise LieAlgError("rank-nullity check failed")
    return basis


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


def block_parameter_search(block_a: Sequence[Sequence],
                           block_b: Sequence[Sequence],
                           target_kernel_dim: int,
                           candidates: Optional[Sequence] = None) -> List[Fraction]:
    """Rational a with dim ker(block_a + a*block_b) == target, a != 0.

    Searches the candidate list (default: small rationals) and reports
    every hit; nothing is asserted about uniqueness.
    """
    A = _frac_matrix(block_a)
    B = _frac_matrix(block_b)
    n = len(A)
    if candidates is None:
        base = [Fraction(p, q) for p in range(1, 5) for q in range(1, 5)]
        candidates = sorted(set(base + [-c for c in base]))
    hits = []
    for a in candidates:
        a = Fraction(a)
        if not a:
            continue
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
    X^i - sum_j a_ij x_j must be a rational constant; both are read off
    the normal forms, so no point is evaluated."""
    if X.variance != ("u",):
        raise LieAlgError("vanishing_locus expects a vector field")
    chart = X.chart
    coords = chart.coordinates
    n = len(coords)
    A: List[List[Fraction]] = []
    b: List[Fraction] = []
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
        A.append(row)
        b.append(-const.as_fraction())
    sol = _linalg.solve(A, b)
    if sol is None:
        return VanishingLocus(True, -1, None, ())
    directions = _linalg.nullspace(A, n)
    zero_coords: Tuple[str, ...] = ()
    if all(x == 0 for x in sol):
        forced = []
        free = set()
        for v in directions:
            for k in range(n):
                if v[k]:
                    free.add(k)
        for k in range(n):
            if k not in free:
                forced.append(k)
        # the locus is {x_k = 0 for forced k} iff the constraint rows span
        # exactly the forced coordinate functionals
        red, pivots = _linalg.rref(A)
        if pivots == forced and all(
            red[r][c] == (1 if c == p else 0)
            for r, p in enumerate(pivots) for c in range(n)
        ):
            zero_coords = tuple(coords[k] for k in forced)
    return VanishingLocus(
        False, len(directions), tuple(Fraction(x) for x in sol),
        tuple(tuple(Fraction(x) for x in v) for v in directions),
        zero_coords)
