"""Cavity-assisted bath engineering of a driven superconducting qubit.

Simulation (Lindblad master equation in the displaced dispersive frame) and
closed-form rate calculator for cooling a Rabi-driven qubit with the photon
shot noise of a detuned, driven cavity.
"""

__version__ = "0.1.0"

from .analysis import (  # noqa: E402,F401
    BlochVector,
    ComparisonReport,
    ExpFit,
    bloch_vector,
    compare_sim_analytic,
    dominant_frequency,
    fit_exponential,
    sigma_theta_projection,
)
from .dynamics import (  # noqa: E402,F401
    Trajectory,
    evolve,
    liouvillian_matrix,
    steady_state,
)
from .model import (  # noqa: E402,F401
    CollapseOp,
    DisplacedFrame,
    FRAMES,
    SystemParams,
    build_hamiltonian_displaced,
    build_hamiltonian_undisplaced,
    build_model,
    choose_fock_cutoff,
    collapse_ops,
    displacement,
    drive_for_photons,
)
from .rates import (  # noqa: E402,F401
    BlochPrediction,
    RatePair,
    cooling_condition,
    effective_temperature,
    golden_rule_rate,
    raman_rates,
    rates_general,
    rates_resonant,
    rates_sideband_limit,
    s_nn,
    steady_bloch,
)
from .sweep import (  # noqa: E402,F401
    SweepGrid,
    SweepTable,
    apply_tomography_scale,
    optimal_theta_detuning,
    run_sweep,
)
