"""pbitqkd: private-state quantum key distribution, numerically.

Dense linear-algebra simulation of key distribution drawn from *private
states* (twisted maximally-entangled states whose key is protected by a
shield subsystem), including:

* construction of pbits/pdits, the hiding-state family rho_H(p, kappa), and
  the specific twisting whose untwisted marginal is an explicit two-qubit
  state (`states`, `twist`);
* a six-branch Kraus channel on the B/B' factors that binds key noise to the
  shield, reproducing rho_H exactly (`channels`);
* LOCC estimation of the twisted phase error via two-local product
  decompositions of the twisted observable (`estimation`);
* finite-size security-bound evaluators (kept verbatim, evaluated in log2
  space) and the protocol parameter solver (`bounds`);
* toy error correction and Toeplitz privacy amplification (`ecpa`);
* deterministic end-to-end protocol runs -- entanglement-based and
  prepare-and-measure -- emitting versioned JSON transcripts (`protocol`);
* a CLI front end (`cli`, console script ``pbitqkd``).
"""

from .linalg import (
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    TensorLayout,
    herm_eig,
    kron_all,
    partial_trace,
    partial_transpose,
    pauli_product_basis,
    random_density,
    random_unitary,
    trace_distance,
    trace_norm,
)
from .states import (
    AB_LAYOUT,
    KEY_SHIELD_LAYOUT,
    P_STAR,
    DensityState,
    bell_state,
    bell_vec,
    ccq_state,
    chi_minus_vec,
    chi_plus_vec,
    maximally_mixed,
    phi_d_vec,
    purify,
    rho_h,
    sigma_ab,
)
from .twist import (
    TwistingOp,
    build_u_h,
    gamma_x,
    gamma_z,
    identity_twisting,
    make_pdit,
    random_twisting,
    untwist_and_trace,
)
from .estimation import (
    EstimationResult,
    ProductDecomposition,
    decompose_two_local,
    estimate_eps_z_locc,
    joint_outcome_table,
    local_eigensystem,
    pm_signal_ensemble,
)
from .channels import (
    POVM_M0,
    POVM_M1,
    PauliNoiseModel,
    apply_channel,
    apply_pauli,
    binding_channel_apply,
    binding_channel_kraus,
    channel_branches,
)
from .bounds import (
    BoundParams,
    EstimationFailureTerms,
    FailureBound,
    ParamSolution,
    binary_entropy,
    choose_params,
    composable_insecurity,
    definetti_log2,
    estimation_failure_terms,
    frequency_deviation_log2,
    group_average_error_bound,
    key_rate,
    log2_hoeffding_tail,
    log2_substring_sampling_bound,
    protocol_failure_bound,
    relaxation_budget,
    substring_sampling_bound,
)
from .ecpa import (
    error_correct,
    pa_length,
    toeplitz_apply,
    toeplitz_seed,
)
from .protocol import (
    ProtocolConfig,
    SourceSpec,
    Transcript,
    run_estimate,
    run_pm,
    run_ppp,
    twisting_by_name,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # linalg
    "PAULI_I", "PAULI_X", "PAULI_Y", "PAULI_Z", "TensorLayout",
    "herm_eig", "kron_all", "partial_trace", "partial_transpose",
    "pauli_product_basis", "random_density", "random_unitary",
    "trace_distance", "trace_norm",
    # states
    "AB_LAYOUT", "KEY_SHIELD_LAYOUT", "P_STAR", "DensityState",
    "bell_state", "bell_vec", "ccq_state", "chi_minus_vec", "chi_plus_vec",
    "maximally_mixed", "phi_d_vec", "purify", "rho_h", "sigma_ab",
    # twist
    "TwistingOp", "build_u_h", "gamma_x", "gamma_z", "identity_twisting",
    "make_pdit", "random_twisting", "untwist_and_trace",
    # estimation
    "EstimationResult", "ProductDecomposition", "decompose_two_local",
    "estimate_eps_z_locc", "joint_outcome_table", "local_eigensystem",
    "pm_signal_ensemble",
    # channels
    "POVM_M0", "POVM_M1", "PauliNoiseModel", "apply_channel", "apply_pauli",
    "binding_channel_apply", "binding_channel_kraus", "channel_branches",
    # bounds
    "BoundParams", "EstimationFailureTerms", "FailureBound", "ParamSolution",
    "binary_entropy", "choose_params", "composable_insecurity",
    "definetti_log2", "estimation_failure_terms", "frequency_deviation_log2",
    "group_average_error_bound", "key_rate", "log2_hoeffding_tail",
    "log2_substring_sampling_bound", "protocol_failure_bound",
    "relaxation_budget", "substring_sampling_bound",
    # ecpa
    "error_correct", "pa_length", "toeplitz_apply", "toeplitz_seed",
    # protocol
    "ProtocolConfig", "SourceSpec", "Transcript", "run_estimate", "run_pm",
    "run_ppp", "twisting_by_name",
]
