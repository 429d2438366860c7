"""geosym: an exact symbolic workbench for symmetry bounds of
quaternionic and c-projective structures.

Modules:

- :mod:`geosym.exprfield` — exact expression kernel (rational functions
  modulo generator relations such as trig identities and square roots)
- :mod:`geosym.geometry` — tensor fields, connections, curvature,
  Lie derivatives, anti-self-dual two-form frames
- :mod:`geosym.symsys` — symmetry PDE systems (Killing, quaternionic,
  c-projective) as jet-linear equation sets
- :mod:`geosym.prolong` — prolongation-projection engine producing
  symbol tables and solution-space bounds
- :mod:`geosym.liealg` — exact Lie-algebra toolkit (closure of vector
  fields, equivariant tensors, vanishing loci)
- :mod:`geosym.modelfile` / :mod:`geosym.cli` — declarative model files
  and the ``geosym`` command-line front end
"""

from .exprfield import (
    Chart,
    DivisionByZero,
    Expr,
    ExprError,
    ExprParseError,
    KernelInconsistency,
    PoleError,
    RelationViolation,
    exact_sqrt,
    parse_expr,
)
from .geometry import (
    Connection,
    CurvatureSplit,
    FrameReport,
    GeometryError,
    TensorField,
    asd_span,
    bracket,
    check_hypercomplex_frame,
    connection_shift,
    covariant_derivative,
    curvature,
    curvature_type_split,
    endo_mul,
    endomorphism,
    hodge_star_matrix,
    identity_endo,
    levi_civita,
    lie_derivative,
    metric_det,
    metric_inverse,
    nijenhuis,
    one_form,
    ricci,
    vector,
    volume_root,
)
from .liealg import (
    LieAlgError,
    LieAlgebra,
    Representation,
    VanishingLocus,
    block_parameter_search,
    closure_from_fields,
    equivariant_tensors,
    reductive_isotropy,
    vanishing_locus,
)
from .modelfile import Model, ModelError, Task, load_model, parse_model
from .prolong import (
    BoundResult,
    Equation,
    GenericPoint,
    LinearPDESystem,
    ProlongError,
    SymbolTable,
    solution_bound,
    verify_solution,
)
from .symsys import (
    SymSysError,
    cprojective_symmetry_system,
    invariance_system,
    lie_derivative_connection_jet,
    lie_derivative_jet,
    obata_solve,
    quaternionic_symmetry_system,
)

__version__ = "0.1.0"
