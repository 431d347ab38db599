"""Stokes-Darcy solver laboratory.

Mixed finite elements for the coupled free-flow / porous-medium problem
with an interface Lagrange multiplier, a parameter-robust block
preconditioner built on fractional interface operators, spectral
condition-number studies, an instrumented MINRES with harmonic Ritz
diagnostics, and near-kernel deflation.
"""

__version__ = "0.1.0"

from .mesh import (BcConfig, ConfigurationError, DomainSpec, Mesh,
                   build_coupled_mesh, interface_chains, load_mesh, save_mesh,
                   side_by_side_domain, stacked_domain, tag_boundaries)
from .spaces import BlockLayout, build_layout, essential_dofs, essential_values
from .assembly import (BlockSystem, LoadData, PhysParams, apply_essential,
                       assemble_operator, assemble_rhs, assemble_riesz,
                       assemble_system, save_matrix_coo)
from .frac_interface import (InterfaceOperator, InterfaceSpectralBasis,
                             build_interface_basis, facet_laplacian,
                             fractional_matrix, interface_operator)
from .precond import (BlockPreconditioner, DeflatedPreconditioner, Deflation,
                      build_deflation, build_preconditioner, deflation_gamma,
                      deflation_vectors)
from .minres import (PreconditionerError, SolveLog, check_convergence_bound,
                     compute_Fk, detect_plateaus, harmonic_ritz, minres_solve)
from .spectrum import (DENSE_BUDGET, BudgetError, Spectrum,
                       contraction_factor, deflated_pencil_eigs,
                       generalized_eigs, two_interval_hull)
from .mms import ExactSolution, MmsReport, compute_errors, mms_case, run_convergence
