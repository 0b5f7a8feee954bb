"""Mixed finite elements for coupled Brinkman-Forchheimer/Darcy filtration in 2D.

The package solves the stationary filtration of a fluid through a porous
medium occupying two stacked rectangles: a Brinkman-Forchheimer region on
top of a Darcy region, coupled across the shared horizontal interface by
mass conservation and a normal-stress balance enforced with a Lagrange
multiplier.  Velocities are discretized with Bernardi-Raugel and lowest
order Raviart-Thomas elements, pressures with piecewise constants, and the
multiplier with continuous piecewise linears on a doubled interface grid.
"""

from .mesh import (
    Mesh,
    InterfaceData,
    MeshFormatError,
    MeshConformityError,
    generate_stacked_rect,
    build_interface,
    load_mesh,
    save_mesh,
)
from .elements import (
    QuadratureRule,
    quad_rule,
    edge_rule,
    interpolate_br,
    interpolate_rt0,
    project_p0,
)
from .assembly import (
    PhysicalParams,
    ProblemData,
    DofMap,
    build_dofmap,
    prescribed_values,
    assemble_rhs,
    apply_constraints,
    NewtonSystem,
)
from .solver import (
    Discretization,
    SolutionFields,
    SolveReport,
    SolverError,
    SingularSystemError,
    StaticSystem,
    newton_solve,
)
from .verification import (
    ExactSolution,
    ErrorReport,
    manufactured_problem,
    heterogeneous_flow_problem,
    compute_errors,
    convergence_csv,
    eoc,
    interface_flux_residual,
    interface_normal_trace,
    divergence_residual,
    pressure_mean,
    pointwise_property_suite,
)

__all__ = [
    "Mesh",
    "InterfaceData",
    "MeshFormatError",
    "MeshConformityError",
    "generate_stacked_rect",
    "build_interface",
    "load_mesh",
    "save_mesh",
    "QuadratureRule",
    "quad_rule",
    "edge_rule",
    "interpolate_br",
    "interpolate_rt0",
    "project_p0",
    "PhysicalParams",
    "ProblemData",
    "DofMap",
    "build_dofmap",
    "prescribed_values",
    "assemble_rhs",
    "apply_constraints",
    "NewtonSystem",
    "Discretization",
    "SolutionFields",
    "SolveReport",
    "SolverError",
    "SingularSystemError",
    "StaticSystem",
    "newton_solve",
    "ExactSolution",
    "ErrorReport",
    "manufactured_problem",
    "heterogeneous_flow_problem",
    "compute_errors",
    "convergence_csv",
    "eoc",
    "interface_flux_residual",
    "interface_normal_trace",
    "divergence_residual",
    "pressure_mean",
    "pointwise_property_suite",
]

__version__ = "0.1.0"
