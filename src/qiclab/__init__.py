"""Numerical laboratory for two-party quantum protocol information costs.

Simulates interactive protocols globally as pure states, computes their
communication and information costs, builds derived protocols (parallel
composition, input fixing, coherent mixtures, slot averaging), and ships
a seeded verification suite for every identity the package relies on.
"""

from .hilbert import (
    ALICE,
    BOB,
    IN_FLIGHT,
    REFERENCE,
    DEFAULT_MAX_DIM,
    ChannelOp,
    DensityOperator,
    Holder,
    Register,
    RegisterSystem,
    Stage,
    StateValidationError,
    StateVector,
    UnitaryOp,
    apply_unitary,
    canonical_classical_purification,
    canonical_purification,
    channel_from_kraus,
    chain_unitaries,
    classical_state,
    haar_random_unitary,
    measurement_channel,
    permute,
    purify,
    reduced_density,
    tensor,
)
from .measures import (
    cond_entropy,
    cond_mutual_info,
    entropy,
    mutual_info,
    trace_distance,
    trace_norm,
)
from .protocol import (
    MessageEntropies,
    ProtocolSpec,
    ProtocolValidationError,
    QuantumTask,
    Slot,
    Trajectory,
    nfold_error_check,
    pad_rounds,
    protocol_error,
    message_dims,
    message_entropies,
    purify_input,
    qcc,
    qic,
    qic_terms,
    run,
    suffix_protocol,
    validate,
)
from .constructions import (
    ConcavityReport,
    and_average_protocol,
    and_embed_protocol,
    concavity_check,
    controlled_permutation,
    convex_mix,
    fix_input,
    parallel_compose,
)
from .classical import (
    ClassicalFunctionPair,
    ClassicalProtocol,
    and_pair,
    classical_cc,
    classical_ic,
    classical_ic_prime,
    disjointness_pair,
    exact_protocol_for,
    failure_probability,
    function_channel,
    joint_distribution,
    noisy_protocol_for,
)
from .redistribution import (
    CompressionBudget,
    MessageRate,
    RateReport,
    compression_budget,
    protocol_step_rates,
    redist_rates,
)
from .fileio import FileFormatError, load, load_protocol, load_state, save
from .suite import ACCEPTANCE_MAP, CHECKS, SuiteResult, run_suite

__version__ = "0.1.0"
