"""Progression-free subsets of F_p^n: constructions, verification,
counting bounds, infeasibility certificates, and exact search."""

from .geometry import (
    ResourceBudgetError,
    SpaceSpec,
    canonical_direction,
    directions,
    index_point,
    point_index,
)
from .pointset import (
    GridDocument,
    GridFormatError,
    PointSet,
    apply_affine,
    from_layers,
    layer,
    parse_grid,
    parse_grid_document,
    product,
    render_grid,
)
from .verifier import (
    LineBounds,
    LineProfile,
    PlaneProfile,
    ProgressionWitness,
    degree_line_bound,
    find_progression,
    identity_check,
    line_profile,
    lp_line_bounds,
    plane_profile,
    verification_report,
)
from .constructions import (
    box,
    hypercube,
    layered,
    load_reference_set,
    qr_construction,
    quadratic_residues,
    sqrt_construction,
)
from .bounds import (
    BoundsReport,
    CubicBound,
    Rate,
    RateTable,
    RecursiveBound,
    RootExpression,
    SimpleBounds,
    alpha_fgr,
    alpha_from_set,
    best_lower,
    bounds_report,
    certified_upper,
    lower_closed_forms,
    table1,
    upper_cubic,
    upper_recursive,
    upper_simple,
)
from .certify import (
    INFEASIBLE,
    UNKNOWN,
    Certificate,
    ExclusionInstance,
    NullSpaceError,
    make_instance,
    prove_infeasible,
)
from .search import (
    SearchConfig,
    SearchResult,
    brute_force_oracle,
    heuristic_lower,
    max_free_exact,
    one_dim_cap,
)

__version__ = "0.1.0"
