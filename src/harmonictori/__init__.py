"""Spectral data for equivariant harmonic 2-tori in the 3-sphere.

Subpackages by area:

- ``elliptic``       complete/incomplete Legendre integrals on the imaginary
                     axis and their lifts to the universal cover
- ``genus_zero``     homogeneous tori: maps, period lattice, holonomy,
                     branch points, differential scalars, energy
- ``curves``         genus-one branch pairs, Jacobi normalization, the
                     (p, k, u~, v~) coordinates, deck and symmetry maps
- ``differentials``  the differentials and their periods, gamma integrals,
                     closing-pair construction, monodromy tracking
- ``moduli``         the closing functions S, T0, T~, level-set solving,
                     component classification, rational detection
- ``cli``            command-line front end and file export
"""

from .config import DEFAULTS, RunConfig, load_config
from .elliptic import (
    complementary_KE, complementary_modulus, complete_E, complete_K,
    incomplete_E_reg_imag, incomplete_F_imag, legendre_defect, lifted_E,
    lifted_F, w_imag,
)
from .genus_zero import (
    Genus0Data, Genus0Map, PeriodLattice,
    branch_point, conformal_type, differential_scalars, eigenline_branch_points,
    energy, harmonic_map_eval, holonomy_B, invert_map, map_params,
    normalize_tau, period_lattice, su2_exp,
)
from .curves import (
    BranchPair, JacobiFrame, ModuliPoint,
    build_frame, chi_negate, circle_points, deck_iota_tilde, deck_lambda_tilde,
    forward_coords, inverse_coords, jacobi_modulus, lambda_swap,
)
from .differentials import (
    ClosingData, PathSpec,
    construct_psi, contour_integral, eta_plus, gamma0_path,
    hitchin_checklist, laurent_coefficients, loop_A, loop_B,
    monodromy_track, theta_E_gamma, theta_P_characterization_check,
    theta_P_gamma_closed,
)
from .moduli import (
    ComponentId, LevelSetMesh, ModuliSummary,
    S_value, T0_value, T_tilde, best_rational, classify_component,
    dT0_du, dT_tilde_du_tilde, moduli_summary, solve_level, spectral_test,
    sweep_level_set,
)

__version__ = "0.1.0"
