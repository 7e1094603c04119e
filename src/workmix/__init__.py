"""Deterministic models of how work splits between people and machines.

Four complementary views of the same question, from coarse to fine:

* :mod:`workmix.aggregate` — a single adoption/reversion recurrence for the
  economy-wide automated share.
* :mod:`workmix.replicator` — two task categories whose shares respond to
  payoff gaps that drift over calendar time.
* :mod:`workmix.boundary` — a continuum of tasks indexed by complexity,
  split by a moving indifference threshold under a Beta task-mass.
* :mod:`workmix.lattice` — a finite task set delegated by exact payoff
  comparison, iterated to a fixed point on the allocation lattice.

:mod:`workmix.sweep` scans the continuous model over task-mass shapes and
improvement rates; :mod:`workmix.cli` exposes everything as a command-line
tool with CSV and SVG output.
"""

from .aggregate import (
    DEFAULT_AGGREGATE,
    AggregateParams,
    SharePoint,
    closed_form,
    convergence_time,
    equilibrium,
    simulate,
    step,
)
from .boundary import (
    DEFAULT_BOUNDARY,
    BoundaryPoint,
    ContinuousParams,
    advantage_grid,
    automated_share,
    automation_boundary,
    calibrate,
    payoff_human,
    payoff_machine,
    simulate_boundary,
)
from .errors import (
    BracketError,
    CalibrationError,
    ChartError,
    ComputationError,
    DomainError,
    InputError,
    MonotonicityError,
    ParamError,
    ParseError,
    RangeError,
    ValidationError,
    WorkmixError,
)
from .lattice import (
    Allocation,
    DelegationTrace,
    Task,
    TaskUniverse,
    beta_quantile_thetas,
    check_capability_growth,
    delegation_map,
    fixed_point_oracle,
    linear_universe,
    run_delegation,
    saturating_universe,
    table_universe,
)
from .numerics import (
    BetaShape,
    bisect_root,
    inv_reg_inc_beta,
    log_beta,
    log_gamma,
    oracle_beta_cdf,
    reg_inc_beta,
)
from .replicator import (
    DEFAULT_REPLICATOR,
    CategoryParams,
    ReplicatorParams,
    ReplicatorPoint,
    replicator_step,
    simulate_replicator,
)
from .sweep import DEFAULT_GRID, GridCell, GridSpec, cross50, run_grid

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "WorkmixError",
    "InputError",
    "ComputationError",
    "DomainError",
    "ParamError",
    "ParseError",
    "ValidationError",
    "ChartError",
    "RangeError",
    "BracketError",
    "CalibrationError",
    "MonotonicityError",
    # numerics
    "BetaShape",
    "log_gamma",
    "log_beta",
    "reg_inc_beta",
    "inv_reg_inc_beta",
    "oracle_beta_cdf",
    "bisect_root",
    # aggregate
    "AggregateParams",
    "SharePoint",
    "step",
    "equilibrium",
    "closed_form",
    "simulate",
    "convergence_time",
    "DEFAULT_AGGREGATE",
    # replicator
    "CategoryParams",
    "ReplicatorParams",
    "ReplicatorPoint",
    "replicator_step",
    "simulate_replicator",
    "DEFAULT_REPLICATOR",
    # boundary
    "ContinuousParams",
    "BoundaryPoint",
    "payoff_human",
    "payoff_machine",
    "automation_boundary",
    "automated_share",
    "simulate_boundary",
    "advantage_grid",
    "calibrate",
    "DEFAULT_BOUNDARY",
    # lattice
    "Task",
    "TaskUniverse",
    "Allocation",
    "DelegationTrace",
    "delegation_map",
    "fixed_point_oracle",
    "run_delegation",
    "check_capability_growth",
    "beta_quantile_thetas",
    "linear_universe",
    "saturating_universe",
    "table_universe",
    # sweep
    "GridSpec",
    "GridCell",
    "cross50",
    "run_grid",
    "DEFAULT_GRID",
]
