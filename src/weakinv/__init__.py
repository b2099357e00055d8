"""Observables with conserved mean but spreading spectrum under CPTP
maps and their generator-level counterparts, with a classical
drift-diffusion mirror and an isoenergetic thermodynamics helper."""

from .channels import (
    QuantumChannel,
    adjoint_apply,
    apply,
    compose,
    kadison_gap,
    lindblad_step_channel,
    random_channel,
)
from .config import ConfigError, ExperimentConfig, default_config, load_config
from .errors import NumericalError, ValidationError, WeakInvError
from .fokker_planck import (
    ClassicalTrajectory,
    GridDistribution,
    PolyInvariant,
    classical_growth_rate,
    evolve,
    gaussian_profile,
    ou_invariant_coeffs,
)
from .lindblad import (
    LindbladGenerator,
    Trajectory,
    integrate,
    renyi_entropy,
    vn_entropy,
)
from .models import (
    OscillatorModel,
    SpinModel,
    exponential_field,
    oscillator_generator,
    oscillator_invariant_path,
    rational_decay,
    spin_generator,
)
from .operators import (
    DensityMatrix,
    Tolerances,
    dagger,
    expectation,
    variance,
)
from .scenarios import CheckRecord, ScenarioResult, run_scenario
from .thermo import (
    IsoenergeticPath,
    build_isoenergetic_path,
    canonical_state,
    check_specific_heat_relation,
    internal_energy,
    solve_isoenergetic_temperature,
    trace_distance,
)

__version__ = "0.1.0"
