"""stringlab: a numerical laboratory for graph-like relativistic strings.

Exact global integration of the augmented string system by characteristics
and d'Alembert's formula, a finite-volume cross-check of the conservative
form, and measurable weak-* completion experiments in which relativistic
strings accumulate onto subrelativistic generalized ones.
"""

from .geometry import (
    DomainError,
    ManifoldParams,
    SIGN_BRANCHES,
    StateHQYZ,
    StateU,
    SuperluminalError,
    decompose_to_m_arrays,
    dual_fields,
    embed_state,
    from_rescaled,
    hamiltonian,
    in_cm,
    in_g,
    in_m,
    in_m_eps,
    in_s_kappa,
    lagrangian,
    to_rescaled,
)
from .profiles import CellField, Profile, read_snapshot, write_snapshot
from .waves import (
    StringGraph,
    WaveInitialData,
    check_relativistic_init,
    check_subrelativistic_init,
    dalembert_wave_solve,
    oscillatory_family_init,
    oscillatory_limit_init,
    oscillatory_limit_solution,
    wave_initial_from_functions,
    wave_to_augmented,
)
from .characteristics import (
    AdmissibilityWindow,
    CharacteristicFlow,
    InadmissibleDataError,
    admissibility,
    build_flow,
    evolve_cells,
    evolve_states,
    galilean_on_solution,
    reconstruct_string,
    residual_augmented,
    residual_string,
    solve_augmented,
    tau_slope_consistency,
    xi_evaluate,
    xi_time_inverse,
    xi_wave_residual,
)
from .finite_volume import (
    CFLError,
    ConservativeState,
    advance,
    conservation_totals,
    flux,
    from_profile,
    lax_friedrichs_step,
    max_signal_speed,
)
from .weak import (
    OscillationPlan,
    TestFunction,
    completion_experiment,
    default_family,
    extrapolate_tables,
    loglog_slope,
    oscillate_profile,
    pairing_matrix,
    pairing_tables,
    verify_generalized_solution,
)

__version__ = "0.1.0"
