"""Magnetic trajectories on the Heisenberg group H3.

Library and CLI for the canonical left-invariant metric and every
left-invariant Lorentz force: orbit classification of forces, quartic
discriminant classification of initial data, closed-form trajectories
through the identity, an independent ODE oracle with a natural
Lagrangian, and the machinery for periodic and lattice-periodic
trajectories on compact quotients.
"""

from .elliptic import complete_K, complete_Pi
from .errors import (
    BranchConsistencyError,
    ConvergenceError,
    DomainError,
    HeisenmagError,
    IntervalError,
    LambdaNotFoundError,
)
from .heisenberg import (
    AlgebraVector,
    CanonicalForce,
    CanonicalTag,
    HeisenbergPoint,
    IDENTITY,
    LorentzForce,
    classify_force,
    group_product,
    isotropy_member,
    j_map,
    potential_one_form,
)
from .oracle import (
    StateVector,
    euler_lagrange_residual,
    integrate_general,
    lagrangian_value,
    taylor_reduced,
)
from .periodic import (
    CdeCoordinates,
    GammaLattice,
    LatticeElement,
    build_periodic,
    cde_from_initial,
    energy_of_c,
    exact_periodic_family,
    find_lambda_periodic,
    initial_from_cde,
    lattice_obstruction_check,
    primitive_period,
    psi,
    psi_tilde,
    solve_c_for_energy,
    solve_dc,
)
from .quartic import (
    Branch,
    InitialData,
    QuarticProfile,
    build_profile,
    mu_r_closed_forms,
)
from .trajectory import (
    ExactTrajectory,
    TrajectorySolution,
    TranslatedTrajectory,
    make_solution,
)

__version__ = "0.1.0"
