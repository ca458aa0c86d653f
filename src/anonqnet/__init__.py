"""Simulator and analysis toolkit for anonymous transmission of quantum
messages over noisy N-node networks.

Layers:

* qcore: Bell states and Paulis; labeled registers for the tests' reference
* channels: single-qubit noise channels and the diamond distance bound
* analytic: closed-form fidelities, success probabilities, thresholds
* protocols: round-level protocol execution (exact and sampling modes)
* security: adversary views as arrays, independence check, guessing bound
* cli: the `anonqnet` command line front end
"""

__version__ = "0.1.0"

from .qcore import BELL_CORRECTIONS, bell_state_vector
from .channels import (
    QuantumChannel,
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
    p_success_w,
    p_success_w_loss,
    pair_fidelity,
    pair_target,
    structured_pair,
    threshold_q,
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
    sample_ghz_runs,
    sample_protocol1_runs,
    sample_relay_runs,
    teleport_branches,
    veto_protocol,
    w_loss_branch_average_dense,
)
from .security import (
    adversary_views,
    epsilon_security_bound,
    guessing_probability,
    independence_check,
    security_report,
)

__all__ = [name for name in dir() if not name.startswith("_")]
