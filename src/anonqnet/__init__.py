"""Simulator and analysis toolkit for anonymous transmission of quantum
messages over noisy N-node networks.

Layers:

* qcore: label-addressed dense states, projections, partial traces
* channels: single-qubit noise channels and a channel distance
* analytic: closed-form fidelities, success probabilities, thresholds
* protocols: round-level protocol execution (exact and sampling modes)
* security: adversary views, independence checks, guessing bounds
* cli: the `anonqnet` command line front end
"""

__version__ = "0.1.0"

from .qcore import (
    BELL_CORRECTIONS,
    DENSE_CAP,
    DenseCapError,
    DensityMatrix,
    Ket,
    bell_project,
    bell_state_vector,
    fidelity_with_pure,
    make_bell_pair,
    make_ghz_state,
    make_w_state,
    partial_trace,
    postselect,
    tensor,
    trace_distance,
)
from .channels import (
    QuantumChannel,
    apply_to,
    channel_distance,
    dephasing,
    depolarizing,
    identity_channel,
    parse_channel_map,
    parse_channel_spec,
)
from .analytic import (
    FidelityReport,
    ChannelMoments,
    PAIR_LABELS,
    channel_moments,
    crossover_n,
    f_ae_ghz_dephasing,
    f_ae_ghz_depolarizing,
    f_ae_relay_depolarizing,
    f_ae_w_dephasing,
    f_ae_w_depolarizing,
    f_ae_w_loss,
    fidelity_report,
    ghz_postselected_pair,
    p_success_w,
    p_success_w_loss,
    pair_target,
    structured_fidelity,
    threshold_q,
    w_postselected_pair,
)
from .protocols import (
    NetworkConfig,
    ProtocolImpossibleError,
    RunOutcome,
    Transcript,
    TranscriptEvent,
    collision_detection,
    parity_protocol,
    receiver_notification,
    run_ghz_protocol,
    run_protocol1,
    run_relay_protocol,
    sample_protocol1_runs,
    teleport_branches,
    teleport_exact,
    veto_protocol,
    w_loss_branch_average_dense,
)
from .security import (
    AdversaryScenario,
    LabeledEnsemble,
    adversary_view,
    epsilon_security_bound,
    guessing_probability,
    independence_check,
    permutation_invariance_check,
    security_report,
)

__all__ = [name for name in dir() if not name.startswith("_")]
