"""Leakage bounds for classical data carried by quantum states under gentle probing."""

from .cloning import (
    CloningBoundResult,
    CloningSweep,
    cloning_lower_bound,
    lower_bound_sweep,
    region_quadratic_form,
    region_sqrt_form,
)
from .leakage import (
    GentleLeakageInterval,
    LeakageEstimate,
    depolarized_leakage,
    gentle_leakage_interval,
    leakage_upper_bound,
    maximal_quantum_leakage,
    sibson_infinity,
)
from .linalg import (
    ConvergenceError,
    NotPsdError,
    SchemaError,
    eig_hermitian,
    is_psd,
    psd_sqrt,
    trace_distance,
    trace_norm,
)
from .measurements import (
    GentlenessSpec,
    Povm,
    PovmImplementation,
    born_probabilities,
    certify_gentle,
    collapse,
    gentle_povm,
    max_certified_epsilon,
    post_measurement_state,
    projective_povm,
)
from .simulate import (
    EveStrategy,
    SimReport,
    exact_round_statistics,
    run_simulation,
    tradeoff_sweep,
)
from .states import (
    CqEnsemble,
    apply_unitary,
    average_state,
    bb84_ensemble,
    depolarize,
    ensemble_from_json,
    ensemble_to_json,
    pure_state,
    unitary_disturbance,
)

__version__ = "0.1.0"
