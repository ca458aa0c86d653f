"""Round-based simulation of anonymous transmission over an N-node network.

Three protocols share the same shape: a trusted source distributes an
entangled resource through each node's noise channel, local measurements
plus classical subroutines condense it into an anonymous entangled pair
between sender and receiver, and the message qubit is teleported with the
Bell outcome sent through masked parity announcements.

Two execution modes:

* exact: every measurement is branch-enumerated with Born weights, and
  because all later processing is linear and the only outcome dependence
  is a known Pauli correction, each branch is corrected and mixed back in
  immediately.  The W and GHZ routes pull each outcome back onto the 2^n
  resource ket (pullback_pair); only the relay (six live qubits at most),
  GHZ sampling and the three-qubit teleport conjugate dense states.
* sampling: one branch is drawn per run with the seeded generator; used
  for transcript-level statistics (abort rates, masking uniformity).

Classical subroutines follow the additive-sharing constructions: parity is
XOR secret sharing over pairwise private channels plus broadcast, veto is
S rounds of randomized parity.  Collision detection and receiver
notification are ideal functionalities (their outputs carry no protocol
data beyond one public bit / one private bit).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .channels import QuantumChannel, apply_to, identity_channel
from .qcore import (
    BELL_CORRECTIONS,
    DenseCapError,
    DensityMatrix,
    HADAMARD,
    ID2,
    Ket,
    PAULI_X,
    PAULI_Z,
    apply_op_dense,
    bell_project,
    fidelity_with_pure,
    make_bell_pair,
    make_ghz_state,
    make_w_state,
    partial_trace,
    postselect,
    tensor,
)
from .analytic import PAIR_LABELS, pair_target

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


class ProtocolImpossibleError(RuntimeError):
    """The requested protocol cannot run in this configuration at all."""


@dataclass
class TranscriptEvent:
    round: int
    kind: str  # broadcast | private_send | measurement | abort | teleport_correction
    actor: int  # node id; 0 is the source / ideal functionality
    payload: bytes
    visibility: str  # "public" or "private-to(<node>)"

    def to_json_dict(self) -> dict:
        return {
            "round": self.round,
            "kind": self.kind,
            "actor": self.actor,
            "visibility": self.visibility,
            "payload": self.payload.hex(),
        }


@dataclass
class Transcript:
    events: list = field(default_factory=list)

    def add(self, round_: int, kind: str, actor: int, payload: bytes,
            visibility: str = "public") -> None:
        if self.events and round_ < self.events[-1].round:
            raise ValueError("transcript rounds must be non-decreasing")
        self.events.append(TranscriptEvent(round_, kind, actor, payload, visibility))

    def public_events(self) -> list:
        return [e for e in self.events if e.visibility == "public"]

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(e.to_json_dict()) for e in self.events)

    @staticmethod
    def from_jsonl(text: str) -> "Transcript":
        t = Transcript()
        for line in text.splitlines():
            if not line.strip():
                continue
            d = json.loads(line)
            t.add(d["round"], d["kind"], d["actor"], bytes.fromhex(d["payload"]),
                  d["visibility"])
        return t


def _private(node: int) -> str:
    return f"private-to({node})"


@dataclass
class NetworkConfig:
    """Static description of one protocol run.

    per_qubit_channels maps node id (1-based) to its arrival channel;
    missing nodes get the identity.  lost_nodes stop responding before the
    source distributes anything: their qubit is traced out and they stay
    silent in every classical subroutine.
    """

    n_nodes: int
    sender: int
    receiver: int
    per_qubit_channels: Mapping[int, QuantumChannel] = field(default_factory=dict)
    message_state: Ket | None = None
    seed: int = 0
    veto_rounds: int = 20
    dense_cap: int = 12
    lost_nodes: frozenset = frozenset()

    def __post_init__(self):
        if self.n_nodes < 3:
            raise ValueError("need at least 3 nodes")
        nodes = set(self.nodes)
        if self.sender not in nodes or self.receiver not in nodes:
            raise ValueError("sender/receiver must be node ids in 1..n")
        if self.sender == self.receiver:
            raise ValueError("sender and receiver must differ")
        self.lost_nodes = frozenset(self.lost_nodes)
        if not self.lost_nodes <= nodes:
            raise ValueError("lost_nodes must be node ids")
        if self.lost_nodes & {self.sender, self.receiver}:
            raise ValueError("sender and receiver cannot be lost")
        if self.n_nodes - len(self.lost_nodes) < 3:
            raise ValueError("need at least 3 live nodes")
        if self.veto_rounds < 1:
            raise ValueError("veto needs at least one round")
        if self.message_state is None:
            plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
            self.message_state = Ket(plus, ("message",))
        if self.message_state.n_qubits != 1:
            raise ValueError("message must be a single qubit")

    @property
    def nodes(self) -> tuple:
        return tuple(range(1, self.n_nodes + 1))

    @property
    def live_nodes(self) -> tuple:
        return tuple(i for i in self.nodes if i not in self.lost_nodes)

    def channel_for(self, node: int) -> QuantumChannel:
        return self.per_qubit_channels.get(node) or identity_channel()


@dataclass
class RunOutcome:
    """Result of one protocol execution.

    In exact mode the quantum quantities are success-branch conditionals
    and analytic_success_probability is the exact Born weight of that
    branch; aborted is False.  In sampling mode aborted reflects the
    sampled veto and aborted runs carry no delivered fidelity (the sender
    keeps the message).
    """

    aborted: bool
    delivered_fidelity: float | None
    analytic_success_probability: float
    transcript: Transcript
    anonymous_entanglement: DensityMatrix | None
    ae_fidelity: float | None = None
    veto_output: int | None = None
    public_teleport_bits: tuple | None = None
    max_live_qubits: int | None = None

    def __post_init__(self):
        if self.aborted and self.delivered_fidelity is not None:
            raise ValueError("aborted runs deliver nothing")

    def to_json_dict(self, include_transcript: bool = True) -> dict:
        d = {
            "aborted": self.aborted,
            "delivered_fidelity": self.delivered_fidelity,
            "analytic_success_probability": self.analytic_success_probability,
            "ae_fidelity": self.ae_fidelity,
            "veto_output": self.veto_output,
            "public_teleport_bits": (
                list(self.public_teleport_bits)
                if self.public_teleport_bits is not None else None
            ),
            "max_live_qubits": self.max_live_qubits,
        }
        if self.anonymous_entanglement is not None:
            d["anonymous_entanglement"] = self.anonymous_entanglement.to_json_dict()
        if include_transcript:
            d["transcript"] = [e.to_json_dict() for e in self.transcript.events]
        return d


# ---------------------------------------------------------------------------
# classical subroutines


def parity_protocol(inputs: Mapping[int, int], rng: np.random.Generator,
                    transcript: Transcript | None = None,
                    start_round: int = 0) -> int:
    """Compute the XOR of all inputs without revealing any single one.

    Each node splits its bit into one random share per participant (XOR of
    shares equals the bit), sends share j to node j over the private
    channel, and broadcasts the XOR of the shares it received.  The XOR of
    the broadcasts is the parity.  No coalition missing a node learns that
    node's input beyond the public parity.
    """
    nodes = sorted(inputs)
    k = len(nodes)
    # row i holds node i's shares, drawn row by row from one (k, k) draw
    shares = rng.integers(0, 2, size=(k, k))
    bits = np.array([inputs[i] & 1 for i in nodes], dtype=shares.dtype)
    shares[:, -1] = shares[:, :-1].sum(axis=1) % 2 ^ bits
    received = shares.sum(axis=0) % 2
    if transcript is not None:
        for i, row in zip(nodes, shares.tolist()):
            for j, share in zip(nodes, row):
                transcript.add(start_round, "private_send", i, bytes([share]),
                               _private(j))
        for j, bit in zip(nodes, received.tolist()):
            transcript.add(start_round + 1, "broadcast", j, bytes([bit]))
    return int(received.sum() % 2)


def veto_protocol(inputs: Mapping[int, int], rng: np.random.Generator,
                  rounds: int = 20, transcript: Transcript | None = None,
                  start_round: int = 0) -> int:
    """OR of the inputs via repeated randomized parities.

    A node with input 1 contributes a fresh random bit each round, a node
    with input 0 contributes 0; the output is 1 iff any round's parity is
    1.  All-zero inputs give 0 with certainty; a single 1 is missed with
    probability 2**-rounds.
    """
    hit = 0
    for r in range(rounds):
        contributions = {
            i: (int(rng.integers(0, 2)) if inputs[i] else 0) for i in inputs
        }
        hit |= parity_protocol(contributions, rng, transcript,
                               start_round + 2 * r)
    return hit


def collision_detection(wish_bits: Mapping[int, int],
                        transcript: Transcript | None = None,
                        start_round: int = 0) -> int:
    """Ideal functionality: 0 iff exactly one node wishes to send.

    Only the public output bit enters the transcript.
    """
    out = 0 if sum(1 for b in wish_bits.values() if b) == 1 else 1
    if transcript is not None:
        transcript.add(start_round, "broadcast", 0, bytes([out]))
    return out


def receiver_notification(sender: int, receiver: int, nodes: Sequence[int],
                          transcript: Transcript | None = None,
                          start_round: int = 0) -> dict:
    """Ideal functionality: receiver's private bit is 1, everyone else's 0.

    Nothing public is recorded; the sender's identity appears nowhere.
    """
    if sender == receiver:
        raise ValueError("sender cannot notify itself")
    bits = {i: int(i == receiver) for i in nodes if i != sender}
    if transcript is not None:
        for i, b in bits.items():
            transcript.add(start_round, "private_send", 0, bytes([b]), _private(i))
    return bits


# ---------------------------------------------------------------------------
# shared quantum pieces


def _relabel(dm: DensityMatrix, old, new) -> DensityMatrix:
    labels = tuple(new if l == old else l for l in dm.labels)
    return DensityMatrix(dm.mat, labels, unnormalized=dm.unnormalized)


# Heisenberg pull-back: a node reading |v> off its noisy share acts on the
# pure resource ket through its effect Φ†(|v><v|) = Σ K†|v><v|K, so no 4^n
# density matrix is built.  Node i is axis i - 1 of the ket tensor.


def _resource_ket(config: NetworkConfig, make) -> np.ndarray:
    if config.n_nodes > config.dense_cap:
        raise DenseCapError(f"{config.n_nodes} qubits exceed the dense cap "
                            f"{config.dense_cap}; use the closed-form evaluators")
    return make(config.n_nodes).amps.reshape((2,) * config.n_nodes)


def _pull_back(ket: np.ndarray, node: int, channel: QuantumChannel,
               v: np.ndarray) -> np.ndarray:
    """Apply the effect of reading |v> through channel, as an operator, on
    one node's axis of the ket."""
    effect = sum(np.outer(r.conj(), r)
                 for r in (v.conj() @ k for k in channel.kraus_ops))
    return np.moveaxis(np.tensordot(effect, ket, axes=(1, node - 1)), 0,
                       node - 1)


def _noisy_pair(config: NetworkConfig, pulled: np.ndarray, ket: np.ndarray,
                sender: int, receiver: int) -> np.ndarray:
    """(Φ_S ⊗ Φ_R)(N M†) on (sender, receiver): M is the resource ket and N
    the pulled-back one, both with the pair axes first, shaped (4, 2^(n-2));
    contracting the other axes traces out every node without an effect."""
    n_mat, m_mat = (np.moveaxis(t, (sender - 1, receiver - 1), (0, 1))
                    .reshape(4, -1) for t in (pulled, ket))
    x = (n_mat @ m_mat.conj().T).reshape(2, 2, 2, 2)
    ks, kr = (np.array(config.channel_for(node).kraus_ops)
              for node in (sender, receiver))
    return np.einsum("asi,brj,ijkl,atk,bul->srtu", ks, kr, x, ks.conj(),
                     kr.conj()).reshape(4, 4)


def pullback_pair(config: NetworkConfig, outcomes: Mapping[int, int],
                  sender: int, receiver: int) -> np.ndarray:
    """Unnormalized (sender, receiver) state of the noisy W resource after
    each node in outcomes reads that standard-basis bit; its trace is the
    Born weight.  Every other node (lost, or summed over) is traced out."""
    ket = pulled = _resource_ket(config, make_w_state)
    for node, bit in outcomes.items():
        pulled = _pull_back(pulled, node, config.channel_for(node), ID2[bit])
    return _noisy_pair(config, pulled, ket, sender, receiver)


def _normalized_pair(raw: np.ndarray) -> tuple[float, DensityMatrix]:
    weight = float(np.trace(raw).real)
    return weight, DensityMatrix(raw / weight, PAIR_LABELS)


def _measure_out(rho: DensityMatrix, qubit, basis: str, outcome: int
                 ) -> DensityMatrix:
    """Condition one qubit on a basis outcome and remove it; the returned
    branch is unnormalized and its weight is the outcome's Born weight."""
    branch, _ = postselect(rho, qubit, basis, outcome)
    return partial_trace(branch, [qubit])


def _draw(rng: np.random.Generator, weights) -> int:
    """Sample an outcome index from Born weights (negative round-off
    clipped to 0)."""
    w = np.maximum(np.asarray(weights, dtype=float), 0.0)
    return int(rng.choice(len(w), p=w / w.sum()))


def _x_measure_sampled(rho: DensityMatrix, qubit, rng: np.random.Generator,
                       corr_label=None) -> tuple[int, DensityMatrix]:
    """Sample an X measurement of one qubit and remove it.  With corr_label,
    a '-' outcome flips the phase of that qubit.  Returns the outcome and
    the normalized remaining state."""
    plus = _measure_out(rho, qubit, "hadamard", 0)
    p_plus = min(max(plus.weight / rho.weight, 0.0), 1.0)
    if rng.random() < p_plus:
        return 0, plus.normalized()
    minus = _measure_out(rho, qubit, "hadamard", 1)
    if corr_label is not None:
        minus = apply_op_dense(minus, PAULI_Z, [corr_label])
    return 1, minus.normalized()


def _x_measure_mix(state: DensityMatrix, qubit, corr_label) -> DensityMatrix:
    """X-measure one qubit in exact mode: a '-' outcome flips the phase of
    corr_label, and both corrected branches are mixed (unnormalized)."""
    plus_red = _measure_out(state, qubit, "hadamard", 0)
    minus_red = apply_op_dense(_measure_out(state, qubit, "hadamard", 1),
                               PAULI_Z, [corr_label])
    return DensityMatrix(plus_red.mat + minus_red.mat, plus_red.labels,
                         unnormalized=True)


def teleport_branches(pair: DensityMatrix, message: Ket, sender_label,
                      receiver_label, resource: str) -> list:
    """The four Bell-outcome branches of teleporting message through pair.

    Returns (weight, corrected receiver branch) for m = 0..3: the Bell
    projection of (message, sender half) onto outcome m, with the outcome
    correction applied to the receiver half.  resource names the noiseless
    pair the corrections are calibrated for: "psi+" corrections are P_m X,
    "phi+" corrections P_m.  Each branch is unnormalized, with trace equal
    to its weight times the pair's weight.
    """
    msg = Ket(message.amps, ("message",)).to_density()
    joint = tensor(msg, pair, cap=pair.n_qubits + 1)
    flip = PAULI_X if resource == "psi+" else ID2
    out = []
    for m in range(4):
        branch, w = bell_project(joint, "message", sender_label, m)
        corr = BELL_CORRECTIONS[m] @ flip
        out.append((w, apply_op_dense(branch, corr, [receiver_label])))
    return out


def teleport_exact(ae: DensityMatrix, message: Ket, sender_label, receiver_label,
                   resource: str) -> tuple[DensityMatrix, list]:
    """Deterministic teleport through a (possibly noisy) pair state: the
    sum of the teleport_branches, with their weights."""
    branches = teleport_branches(ae, message, sender_label, receiver_label,
                                 resource)
    acc = None
    for _, fixed in branches:
        acc = fixed.mat if acc is None else acc + fixed.mat
    return (DensityMatrix(acc, (receiver_label,), unnormalized=True),
            [w for w, _ in branches])


def _delivered_fidelity(delivered: DensityMatrix, message: Ket) -> float:
    target = Ket(message.amps, delivered.labels)
    return fidelity_with_pure(delivered.normalized(), target)


def _ae_as_pair(rho: DensityMatrix, sender: int, receiver: int) -> DensityMatrix:
    ordered = rho.permuted((sender, receiver))
    return DensityMatrix(ordered.mat, PAIR_LABELS, unnormalized=ordered.unnormalized)


# ---------------------------------------------------------------------------
# Protocol 1 (W state)


def _protocol1_skeleton(config: NetworkConfig, transcript: Transcript) -> None:
    wish = {i: int(i == config.sender) for i in config.live_nodes}
    collision_detection(wish, transcript, start_round=0)
    receiver_notification(config.sender, config.receiver, config.live_nodes,
                          transcript, start_round=1)
    for node in config.live_nodes:
        transcript.add(2, "private_send", 0, b"\x01", _private(node))  # qubit hand-off


def run_protocol1(config: NetworkConfig, rng: np.random.Generator | None = None,
                  mode: str = "exact") -> RunOutcome:
    """Anonymous transmission through a W state.

    Steps: collision detection for the sender slot, receiver notification,
    source distribution through each node's channel, standard-basis
    measurement by every non-S/R live node, veto on the outcomes (abort on
    1), then teleportation of the message with the Bell outcome announced
    through two masked parity runs.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    if mode == "exact":
        return _protocol1_exact(config)
    if mode == "sampling":
        return _Protocol1Sampler(config).run(rng, record_transcript=True)
    raise ValueError(f"unknown mode {mode!r}")


def _protocol1_exact(config: NetworkConfig) -> RunOutcome:
    transcript = Transcript()
    _protocol1_skeleton(config, transcript)
    measuring = [i for i in config.live_nodes
                 if i not in (config.sender, config.receiver)]
    for node in measuring:
        transcript.add(3, "measurement", node, b"", _private(node))
    weight, ae = _normalized_pair(pullback_pair(
        config, dict.fromkeys(measuring, 0), config.sender, config.receiver))
    ae_fid = fidelity_with_pure(ae, pair_target("W"))
    delivered, _ = teleport_exact(ae, config.message_state, *PAIR_LABELS,
                                  resource="psi+")
    fid = _delivered_fidelity(delivered, config.message_state)
    return RunOutcome(
        aborted=False,
        delivered_fidelity=fid,
        analytic_success_probability=weight,
        transcript=transcript,
        anonymous_entanglement=ae,
        ae_fidelity=ae_fid,
        veto_output=0,
    )


class _Protocol1Sampler:
    """Reusable sampler: the exact branch table is computed once, after
    which each run only draws classical randomness.

    Branches are the joint standard-basis outcome strings of the measuring
    nodes, with exact Born weights and exact conditional (sender, receiver)
    states; per-branch teleport outcome weights and delivered fidelities
    are also precomputed.  A run samples a branch, runs the real veto on
    those outcome bits, and on veto 0 samples the Bell outcome and the
    masked announcement.
    """

    def __init__(self, config: NetworkConfig):
        self.config = config
        self.measuring = [i for i in config.live_nodes
                          if i not in (config.sender, config.receiver)]
        k = len(self.measuring)
        if 2**k > 4096:
            raise DenseCapError("branch table too large; lower the node count")
        self.exact_success = None
        self.branches = []  # (bits, weight, pair, per-m (w, fid), pair fid)
        for string in range(2**k):
            bits = tuple((string >> (k - 1 - i)) & 1 for i in range(k))
            raw = pullback_pair(config, dict(zip(self.measuring, bits)),
                                config.sender, config.receiver)
            w = float(np.trace(raw).real)
            if w < 1e-15:
                continue
            pair = DensityMatrix(raw / w, PAIR_LABELS)
            # an outcome incompatible with the message state delivers nothing
            delivered_by_m = [
                (bw, _delivered_fidelity(fixed, config.message_state))
                if bw >= 1e-15 else (0.0, 0.0)
                for bw, fixed in teleport_branches(
                    pair, config.message_state, *PAIR_LABELS, resource="psi+")
            ]
            self.branches.append((bits, w, pair, delivered_by_m,
                                  fidelity_with_pure(pair, pair_target("W"))))
            if not any(bits):
                self.exact_success = w
        self.branch_weights = np.array([b[1] for b in self.branches])
        self.branch_weights /= self.branch_weights.sum()

    def run(self, rng: np.random.Generator,
            record_transcript: bool = False) -> RunOutcome:
        """One sampled run.  Without a transcript, the classical
        subroutines are sampled from their exact output distributions
        instead of share by share (a parity of fresh uniform bits is
        uniform), so the two paths consume different amounts of
        randomness and are not seed-interchangeable."""
        config = self.config
        transcript = Transcript()
        if record_transcript:
            _protocol1_skeleton(config, transcript)
        idx = int(rng.choice(len(self.branches), p=self.branch_weights))
        bits, _, pair, delivered_by_m, ae_fid = self.branches[idx]
        if record_transcript:
            for node, b in zip(self.measuring, bits):
                transcript.add(3, "measurement", node, bytes([b]), _private(node))
        if record_transcript:
            veto_inputs = {node: b for node, b in zip(self.measuring, bits)}
            veto_inputs[config.sender] = 0
            veto_inputs[config.receiver] = 0
            veto = veto_protocol(veto_inputs, rng, rounds=config.veto_rounds,
                                 transcript=transcript, start_round=4)
        elif any(bits):
            veto = int(rng.integers(0, 2, size=config.veto_rounds).any())
        else:
            veto = 0
        base = 4 + 2 * config.veto_rounds
        if veto == 1:
            if record_transcript:
                transcript.add(base, "abort", 0, b"\x01")
            return RunOutcome(
                aborted=True, delivered_fidelity=None,
                analytic_success_probability=self.exact_success,
                transcript=transcript, anonymous_entanglement=None,
                veto_output=1,
            )
        m = _draw(rng, [w for w, _ in delivered_by_m])
        fid = delivered_by_m[m][1]
        m_bits = (m >> 1 & 1, m & 1)
        rand = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
        public = []
        for j in range(2):
            if record_transcript:
                inputs = {i: 0 for i in config.live_nodes}
                inputs[config.sender] = m_bits[j]
                inputs[config.receiver] = rand[j]
                public.append(parity_protocol(inputs, rng, transcript,
                                              start_round=base + 2 * j))
            else:
                public.append(m_bits[j] ^ rand[j])
        if record_transcript:
            transcript.add(base + 4, "teleport_correction", config.receiver,
                           bytes([m]), _private(config.receiver))
        return RunOutcome(
            aborted=False, delivered_fidelity=fid,
            analytic_success_probability=self.exact_success,
            transcript=transcript, anonymous_entanglement=pair,
            ae_fidelity=ae_fid, veto_output=0,
            public_teleport_bits=tuple(public),
        )


def sample_protocol1_runs(config: NetworkConfig, n_samples: int,
                          rng: np.random.Generator | None = None,
                          record_transcripts: bool = False) -> tuple[list, dict]:
    """Draw many seeded sampled runs cheaply (the branch table is built
    once).  Returns the outcomes and an aggregate summary."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    sampler = _Protocol1Sampler(config)
    outcomes = [sampler.run(rng, record_transcript=record_transcripts)
                for _ in range(n_samples)]
    aborts = sum(1 for o in outcomes if o.aborted)
    fids = [o.delivered_fidelity for o in outcomes if not o.aborted]
    aggregate = {
        "runs": n_samples,
        "aborts": aborts,
        "abort_rate": aborts / n_samples if n_samples else 0.0,
        "mean_delivered_fidelity": float(np.mean(fids)) if fids else None,
        "exact_success_probability": sampler.exact_success,
    }
    return outcomes, aggregate


# ---------------------------------------------------------------------------
# GHZ protocol


def run_ghz_protocol(config: NetworkConfig, rng: np.random.Generator | None = None,
                     mode: str = "exact") -> RunOutcome:
    """Anonymous transmission through a GHZ state.

    Non-S/R nodes measure in the X basis; the parity of their outcomes is
    announced through a parity run and the receiver applies the matching Z
    correction, so the protocol never aborts.  A lost node makes the
    protocol impossible outright (the remaining state is separable).
    """
    if config.lost_nodes:
        raise ProtocolImpossibleError(
            "a lost node leaves the GHZ protocol with a separable state;"
            " it cannot be carried out"
        )
    if rng is None:
        rng = np.random.default_rng(config.seed)
    ket = _resource_ket(config, make_ghz_state)
    transcript = Transcript()
    _protocol1_skeleton(config, transcript)
    measuring = [i for i in config.nodes
                 if i not in (config.sender, config.receiver)]

    if mode == "exact":
        # a '-' outcome flips the receiver's phase, so the pulled-back kets
        # are carried per outcome parity and the odd pair gets Z_R
        even, odd = ket, np.zeros_like(ket)
        for node in measuring:
            transcript.add(3, "measurement", node, b"", _private(node))
            (e_p, e_m), (o_p, o_m) = (
                [_pull_back(t, node, config.channel_for(node), v)
                 for v in HADAMARD] for t in (even, odd))
            even, odd = e_p + o_m, e_m + o_p
        even, odd = (_noisy_pair(config, t, ket, config.sender,
                                 config.receiver) for t in (even, odd))
        z_r = np.kron(ID2, PAULI_Z)
        _, ae = _normalized_pair(even + z_r @ odd @ z_r)
        ae_fid = fidelity_with_pure(ae, pair_target("GHZ"))
        delivered, _ = teleport_exact(ae, config.message_state, *PAIR_LABELS,
                                      resource="phi+")
        fid = _delivered_fidelity(delivered, config.message_state)
        return RunOutcome(
            aborted=False, delivered_fidelity=fid,
            analytic_success_probability=1.0,
            transcript=transcript, anonymous_entanglement=ae,
            ae_fidelity=ae_fid, veto_output=0,
        )

    if mode != "sampling":
        raise ValueError(f"unknown mode {mode!r}")
    rho = make_ghz_state(config.n_nodes, labels=config.nodes).to_density()
    for node in config.nodes:
        rho = apply_to(config.channel_for(node), rho, node)
    outcome_bits = {}
    for node in measuring:
        outcome_bits[node], rho = _x_measure_sampled(rho, node, rng)
        transcript.add(3, "measurement", node, bytes([outcome_bits[node]]),
                       _private(node))
    announce_inputs = {i: outcome_bits.get(i, 0) for i in config.nodes}
    parity = parity_protocol(announce_inputs, rng, transcript, start_round=4)
    if parity:
        rho = apply_op_dense(rho, PAULI_Z, [config.receiver])
        rho = DensityMatrix(rho.mat, rho.labels)
    ae = _ae_as_pair(rho, config.sender, config.receiver)
    ae_fid = fidelity_with_pure(ae, pair_target("GHZ"))
    branches = teleport_branches(ae, config.message_state, *PAIR_LABELS,
                                 resource="phi+")
    m = _draw(rng, [w for w, _ in branches])
    fid = _delivered_fidelity(branches[m][1], config.message_state)
    m_bits = (m >> 1 & 1, m & 1)
    rand = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
    public = []
    for j in range(2):
        inputs = {i: 0 for i in config.nodes}
        inputs[config.sender] = m_bits[j]
        inputs[config.receiver] = rand[j]
        public.append(parity_protocol(inputs, rng, transcript,
                                      start_round=6 + 2 * j))
    transcript.add(10, "teleport_correction", config.receiver, bytes([m]),
                   _private(config.receiver))
    return RunOutcome(
        aborted=False, delivered_fidelity=fid,
        analytic_success_probability=1.0,
        transcript=transcript, anonymous_entanglement=ae,
        ae_fidelity=ae_fid, veto_output=0,
        public_teleport_bits=tuple(public),
    )


# ---------------------------------------------------------------------------
# relay protocol


def run_relay_protocol(config: NetworkConfig,
                       rng: np.random.Generator | None = None,
                       mode: str = "exact") -> RunOutcome:
    """Bell-pair relay along the chain 1..n.

    Every node prepares a local noiseless Bell pair and forwards one half;
    each transmitted qubit passes through the recipient's channel once.
    Intermediate nodes swap entanglement with a Bell measurement and
    broadcast the outcome; the next holder applies the Pauli correction.
    Sender and receiver splice a fresh ancilla into the through-line with a
    CNOT, so the two ancillas end up anonymously entangled.  Nodes 1 and n
    close the chain with X measurements whose parity fixes a final Z.

    Eager contraction keeps the live register at six qubits or fewer.
    """
    if config.n_nodes < 4:
        raise ValueError("relay needs at least 4 nodes")
    if config.lost_nodes:
        raise ValueError("relay does not support lost nodes")
    if rng is None:
        rng = np.random.default_rng(config.seed)
    if mode not in ("exact", "sampling"):
        raise ValueError(f"unknown mode {mode!r}")
    sampling = mode == "sampling"

    transcript = Transcript()
    # pair hand-offs are deterministic, so both modes record them; swap
    # outcomes are only concrete (and broadcast) in sampling mode
    for j in range(1, config.n_nodes):
        transcript.add(0, "private_send", j, b"\x01", _private(j + 1))
    anc_label = {config.sender: "anc_sender", config.receiver: "anc_receiver"}
    # phase corrections from the closing X measurements land on the anc that
    # was spliced in first along the chain
    first_anc = anc_label[min(config.sender, config.receiver)]
    zero = Ket(np.array([1, 0], dtype=complex), ("z",))

    max_live = 0

    def note(dm):
        nonlocal max_live
        max_live = max(max_live, dm.n_qubits)
        return dm

    def close(state, qubit, round_, actor):
        # X measurements at the chain ends; sampled outcomes are broadcast
        if not sampling:
            return _x_measure_mix(state, qubit, first_anc)
        outcome, state = _x_measure_sampled(state, qubit, rng, first_anc)
        transcript.add(round_, "broadcast", actor, bytes([outcome]))
        return state

    state = note(make_bell_pair(("keep", "travel")).to_density())
    if 1 in anc_label:
        state = note(tensor(state, _relabel(zero.to_density(), "z", anc_label[1])))
        state = apply_op_dense(state, CNOT, ["keep", anc_label[1]])
        state = DensityMatrix(state.mat, state.labels)

    pending: list | None = None  # Bell branches awaiting hop + correction

    for j in range(2, config.n_nodes + 1):
        chan = config.channel_for(j)
        if pending is None:
            state = apply_to(chan, state, "travel")
        else:
            acc = None
            labels = None
            for m, branch in pending:
                hopped = apply_to(chan, branch, "travel")
                fixed = apply_op_dense(hopped, BELL_CORRECTIONS[m], ["travel"])
                acc = fixed.mat if acc is None else acc + fixed.mat
                labels = fixed.labels
            state = note(DensityMatrix(acc, labels))
            pending = None
        if j in anc_label:
            state = note(tensor(state, _relabel(zero.to_density(), "z", anc_label[j])))
            state = apply_op_dense(state, CNOT, ["travel", anc_label[j]])
            state = DensityMatrix(state.mat, state.labels)
        if j < config.n_nodes:
            pair = make_bell_pair((f"a{j}", f"b{j}")).to_density()
            state = note(tensor(state, pair))
            swaps = [bell_project(state, "travel", f"a{j}", m) for m in range(4)]
            if sampling:
                m = _draw(rng, [w for _, w in swaps])
                transcript.add(j, "broadcast", j, bytes([m]))
                pending = [(m, swaps[m][0].normalized())]
            else:
                pending = [(m, reduced) for m, (reduced, _) in enumerate(swaps)]
            pending = [(m, _relabel(b, f"b{j}", "travel")) for m, b in pending]
        else:
            state = close(state, "travel", round_=j, actor=j)
    state = close(state, "keep", round_=config.n_nodes + 1, actor=1)
    state = state.normalized() if sampling else DensityMatrix(state.mat, state.labels)
    ae = _ae_as_pair(state, "anc_sender", "anc_receiver")
    ae_fid = fidelity_with_pure(ae, pair_target("GHZ"))
    delivered, _ = teleport_exact(ae, config.message_state, *PAIR_LABELS,
                                  resource="phi+")
    fid = _delivered_fidelity(delivered, config.message_state)
    return RunOutcome(
        aborted=False, delivered_fidelity=fid,
        analytic_success_probability=1.0,
        transcript=transcript, anonymous_entanglement=ae,
        ae_fidelity=ae_fid, veto_output=None,
        max_live_qubits=max_live,
    )


# ---------------------------------------------------------------------------
# exact cross-check used by the CLI's exact sweep for the loss formulas


def w_loss_branch_average_dense(channel: QuantumChannel, n: int) -> float:
    """Exact evaluation, through the pull-back engine, of the
    loss-branch-averaged pair fidelity (the quantity the closed-form loss
    formulas compute; see f_ae_w_loss).

    With one lost measuring node the distributed state splits into the
    excitation-survived branch (weight (n-1)/n) and the excitation-lost
    branch (weight 1/n); the former is scored at the full-network no-loss
    fidelity, the latter as the channel-noised vacuum pair.
    """
    cfg = NetworkConfig(n_nodes=n, sender=1, receiver=2,
                        per_qubit_channels={i: channel for i in range(1, n + 1)})
    _, pair = _normalized_pair(
        pullback_pair(cfg, dict.fromkeys(range(3, n + 1), 0), 1, 2))
    f_noloss = fidelity_with_pure(pair, pair_target("W"))
    vac = channel(np.array([[1, 0], [0, 0]], dtype=complex))
    pair_lost = DensityMatrix(np.kron(vac, vac), PAIR_LABELS)
    f_lost = fidelity_with_pure(pair_lost, pair_target("W"))
    return (n - 1) / n * f_noloss + f_lost / n
