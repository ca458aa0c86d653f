"""Simulator and analysis toolkit for anonymous transmission of quantum
messages over noisy N-node networks.

Layers:

* qcore: label-addressed kets and density matrices, Bell states
* channels: single-qubit noise channels and channel distances
* analytic: closed-form fidelities, success probabilities, thresholds
* protocols: round-level protocol execution (exact and sampling modes)
* security: adversary views, independence checks, guessing bounds
* cli: the `anonqnet` command line front end
"""

__version__ = "0.1.0"

from .qcore import (
    BELL_CORRECTIONS,
    DensityMatrix,
    Ket,
    bell_state_vector,
    fidelity_with_pure,
    make_bell_pair,
)
from .channels import (
    QuantumChannel,
    channel_distance,
    dephasing,
    depolarizing,
    diamond_distance,
    identity_channel,
    parse_channel_map,
    parse_channel_spec,
)
from .analytic import (
    FidelityReport,
    PAIR_LABELS,
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
    exact_pair,
    parity_protocol,
    receiver_notification,
    run_ghz_protocol,
    run_protocol1,
    run_relay_protocol,
    sample_protocol1_runs,
    teleport_branches,
    veto_protocol,
    w_loss_branch_average_dense,
)
from .security import (
    epsilon_security_bound,
    guessing_probability,
    independence_check,
    security_report,
)

__all__ = [name for name in dir() if not name.startswith("_")]
