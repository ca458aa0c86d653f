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
  immediately.  The W and GHZ routes contract the resource, a
  bond-dimension-2 matrix product state, with each node's measurement
  effect in one O(n) pass of 4x4 transfer matrices (pullback_pair), so
  they run at any node count.  The relay holds a fixed four-qubit
  register for any chain length and builds one hop superoperator per
  distinct channel, and a teleport branch is one 2x4 operator on the
  pair; the tests check all three against tests/dense_reference.py.
  exact_pair stops at the pair and its Born weight: the exact tables
  print nothing of the transcript or the teleport.
* sampling: one branch is drawn per run with the seeded generator; used
  for transcript-level statistics (abort rates, masking uniformity).  W
  and GHZ draw the outcome string node by node on the transfer engine and
  memoise each string's pair (an unrecorded GHZ batch whose strings all
  give one corrected pair draws none); the relay builds each hop's
  superoperator once per swap outcome.  Equal unrecorded runs share one
  outcome, and a recording over a transcript event budget is refused.
  Recorded runs call the Generator itself, and a relay run makes one
  random(n) call.  Unrecorded W and GHZ batches decode chunks of raw
  generator words as arrays, into exactly the Generator's draws, so seeded
  outputs are unchanged: a run's word count is fixed by its type and by
  whether a 32-bit half is buffered when it starts.  PCG64, PCG64DXSM,
  Philox and SFC64 bit generators are supported.

Classical subroutines follow the additive-sharing constructions: parity is
XOR secret sharing over pairwise private channels plus broadcast, veto is
S rounds of randomized parity.  Collision detection and receiver
notification are ideal functionalities (their outputs carry no protocol
data beyond one public bit / one private bit).
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .channels import QuantumChannel, identity_channel, z_defect
from .qcore import (
    BELL_CORRECTIONS,
    DensityMatrix,
    HADAMARD,
    ID2,
    Ket,
    PAULI_X,
    PAULI_Z,
    apply_op_dense,  # unused here; bench/tests reads it as a re-imported name
    bell_state_vector,
    fidelity_with_pure,
)
from .analytic import PAIR_LABELS, pair_target

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


_IDENTITY = identity_channel()  # one object, so memos keyed on channels hit
_PLUS = Ket(np.array([1, 1], dtype=complex) / np.sqrt(2), ("message",))  # default message


def _private(node: int) -> str:
    return f"private-to({node})"


@dataclass
class NetworkConfig:
    """Static description of one protocol run.

    per_qubit_channels maps node id (1-based) to its arrival channel;
    missing nodes get the identity.  lost_nodes stop responding before the
    source distributes anything: their qubit is traced out and they stay
    silent in every classical subroutine.  Every route takes any node
    count; recorded sampled runs have a transcript budget (see _Sampler).
    """

    n_nodes: int
    sender: int
    receiver: int
    per_qubit_channels: Mapping[int, QuantumChannel] = field(default_factory=dict)
    message_state: Ket | None = None
    seed: int = 0
    veto_rounds: int = 20
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
            self.message_state = _PLUS
        if self.message_state.n_qubits != 1:
            raise ValueError("message must be a single qubit")

    @property
    def nodes(self) -> tuple:
        return tuple(range(1, self.n_nodes + 1))

    @property
    def live_nodes(self) -> tuple:
        return tuple(i for i in self.nodes if i not in self.lost_nodes)

    def channel_for(self, node: int) -> QuantumChannel:
        return self.per_qubit_channels.get(node) or _IDENTITY


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


# Transfer contraction: both resources are bond-dimension-2 matrix product
# states, psi(p_1..p_n) = l A[p_1] ... A[p_n] r, so the (sender, receiver)
# state left after every other node applies an effect E is a product of 4x4
# transfer matrices Σ E[q,p] A[p] ⊗ conj(A[q]) (Verstraete, García-Ripoll,
# Cirac, arXiv:cond-mat/0406426); nothing of size 2^n is built.  A node
# reading an observable O off its noisy share applies the effect Φ†(O),
# e.g. Φ†(|b><b|) for an outcome b; a node without an outcome (lost, or
# summed over) applies the identity.


class _Mps:
    """Tensors A[p] and boundary vectors l, r of a resource, held as the
    maps a node applies to the (ket bond, bra bond) environment."""

    def __init__(self, a, left, right):
        site = np.einsum("pac,qbd->abpqcd", a, a.conj()).reshape(4, 2, 2, 4)
        self.open = site.reshape(4, 16)  # the node's (p, q) indices stay open
        self.lift = site.transpose(0, 3, 2, 1).reshape(16, 4)  # E -> transfer
        self.identity = self.transfer(ID2)
        self.left = np.kron(left, left.conj())[None, :]
        self.right = np.kron(right, right.conj())

    def transfer(self, effect: np.ndarray) -> np.ndarray:
        return (self.lift @ effect.reshape(4)).reshape(4, 4)


# W: A[0] = I, A[1] = |0><1|, l = e_0, r = e_1 (squared norm n); GHZ:
# A[p] = |p><p|, l = r = (1, 1) (squared norm 2)
_W = _Mps(np.array([ID2, np.outer(ID2[0], ID2[1])]), ID2[0], ID2[1])
_GHZ = _Mps(np.array([np.outer(v, v) for v in ID2]), ID2[0] + ID2[1],
            ID2[0] + ID2[1])
_Z_R = np.kron(ID2, PAULI_Z)
_READ = tuple(np.outer(v, v) for v in ID2)  # |b><b|
_X_READ = tuple(np.outer(v, v) for v in HADAMARD)  # |±><±|


def _heisenberg(channel: QuantumChannel, op: np.ndarray) -> np.ndarray:
    """Φ†(op) = Σ K† op K."""
    ks = channel.kraus_ops
    return np.einsum("kji,jl,klm->im", ks.conj(), op, ks)


def _contract(config: NetworkConfig, mps: _Mps, reads: Mapping, sender: int,
              receiver: int, norm: float, transfers: dict | None = None
              ) -> np.ndarray:
    """(Φ_S ⊗ Φ_R) of the unnormalized (sender, receiver) state after each
    node in reads reads its observable; every other node is traced out.
    transfers memoises a transfer per (channel, observable) if given."""
    env, transfers = mps.left, {} if transfers is None else transfers
    for node in config.nodes:
        if node in (sender, receiver):
            env = (env @ mps.open).reshape(-1, 4)
        elif node not in reads:
            env = env @ mps.identity
        else:
            key = (config.channel_for(node), id(reads[node]))
            if key not in transfers:
                transfers[key] = mps.transfer(_heisenberg(key[0], reads[node]))
            env = env @ transfers[key]
    x = (env @ mps.right).reshape(2, 2, 2, 2) / norm  # (p, q) per open node
    x = x.transpose((0, 2, 1, 3) if sender < receiver else (2, 0, 3, 1))
    ks, kr = (config.channel_for(node).kraus_ops for node in (sender, receiver))
    return np.einsum("asi,brj,ijkl,atk,bul->srtu", ks, kr, x, ks.conj(),
                     kr.conj()).reshape(4, 4)


def pullback_pair(config: NetworkConfig, outcomes: Mapping[int, int],
                  sender: int, receiver: int) -> np.ndarray:
    """Unnormalized (sender, receiver) state of the noisy W resource after
    each node in outcomes reads that standard-basis bit; its trace is the
    Born weight.  Every other node (lost, or summed over) is traced out."""
    reads = {node: _READ[bit] for node, bit in outcomes.items()}
    return _contract(config, _W, reads, sender, receiver, config.n_nodes)


def outcome_transfers(config: NetworkConfig,
                      strings: Sequence[Mapping[int, int]]) -> np.ndarray:
    """B x n x 4 x 4 W transfer strings for pullback_pairs: node i reads the
    standard-basis bit strings[b][i], or is traced out without one.  Each
    (channel, bit) transfer is built once."""
    @lru_cache(maxsize=None)
    def transfer(channel, bit):
        return (_W.identity if bit is None
                else _W.transfer(_heisenberg(channel, _READ[bit])))
    return np.array([[transfer(config.channel_for(i), s.get(i))
                      for i in config.nodes] for s in strings])


def pullback_pairs(config: NetworkConfig, transfers: np.ndarray, fixed: int,
                   opens: Sequence[int]) -> np.ndarray:
    """pullback_pair(config, ·, open, fixed) of B transfer strings (B x n x 4
    x 4, see outcome_transfers; entries at fixed and opens unread) for every
    open node at once: B x len(opens) x 4 x 4.  One O(n) sweep builds each
    site's left and right environments, which carry the fixed site's (p, q)
    index once past it (Schollwöck, arXiv:1008.3477, §4); each (open
    channel, fixed channel) gets one 16x16 pair superoperator."""
    b, f = len(transfers), fixed - 1
    site = _W.open.reshape(4, 4, 4)  # (ket, bra) bond in, (p, q), bond out
    lefts, env = [], np.broadcast_to(_W.left, (b, 1, 4))
    for k in range(config.n_nodes):
        lefts.append(env)
        env = ((env @ _W.open).reshape(b, 4, 4) if k == f
               else env @ transfers[:, k])
    rights, env = lefts[:], np.broadcast_to(_W.right[:, None], (b, 4, 1))
    for k in reversed(range(config.n_nodes)):
        rights[k] = env
        env = (np.einsum("apc,bc->bap", site, env[..., 0]) if k == f
               else transfers[:, k] @ env)
    out, sups = np.empty((b, len(opens), 4, 4), dtype=complex), {}
    for j, node in enumerate(opens):
        x = np.einsum("bia,apc,bcj->bipj", lefts[node - 1], site,
                      rights[node - 1]).reshape(b, 2, 2, 2, 2)
        # (p, q) of the earlier site first -> row-major (p_o p_f, q_o q_f)
        x = x.transpose((0, 1, 3, 2, 4) if node < fixed else (0, 3, 1, 4, 2))
        key = (config.channel_for(node), config.channel_for(fixed))
        if key not in sups:  # Φ_open ⊗ Φ_fixed, transposed, over the norm
            t_o, t_f = (np.einsum("aip,akq->ikpq", ch.kraus_ops,
                                  ch.kraus_ops.conj()) for ch in key)
            sups[key] = np.einsum("ikpr,jlqs->pqrsijkl", t_o, t_f).reshape(
                16, 16) / config.n_nodes
        out[:, j] = (x.reshape(b, 16) @ sups[key]).reshape(b, 4, 4)
    return out


def _normalized_pair(raw: np.ndarray) -> tuple[float, DensityMatrix]:
    """Born weight and normalized pair; a weight that is not a positive
    normal float (the W weight falls like ((1 + q)/2)^N) is refused."""
    weight = float(np.trace(raw).real)
    if not weight >= np.finfo(float).tiny:
        raise ValueError(f"Born weight {weight:g} underflows double "
                         "precision; use the closed-form evaluators")
    return weight, DensityMatrix(raw / weight, PAIR_LABELS)


def _cdf(weights) -> np.ndarray:
    """Cumulative distribution of Born weights (negative round-off clipped
    to 0), in Generator.choice's arithmetic: _draw(rng, _cdf(w)) returns
    what rng.choice(len(w), p=w / w.sum()) would, from the same draw."""
    w = np.maximum(np.asarray(weights, dtype=float), 0.0)
    cdf = (w / w.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def _draw(rng: np.random.Generator, cdf: list) -> int:
    """Sample an outcome index from a _cdf with one rng.random() call."""
    return bisect_right(cdf, rng.random())


_BELL = np.array([bell_state_vector(m) for m in range(4)]).reshape(4, 2, 2)


@lru_cache(maxsize=64)
def _teleport_ops(amps: bytes, resource: str) -> np.ndarray:
    """The operators W_m of teleport_branches for a message's amplitudes."""
    flip = PAULI_X if resource == "psi+" else ID2
    bras = np.einsum("i,mis->ms", np.frombuffer(amps, dtype=complex),
                     _BELL.conj())
    ops = np.array([np.kron(v[None, :], c @ flip)
                    for v, c in zip(bras, BELL_CORRECTIONS)])
    ops.flags.writeable = False  # one array serves every caller
    return ops


def teleport_branches(pair: DensityMatrix, message: Ket, resource: str) -> list:
    """The four Bell-outcome branches of teleporting message through pair.

    Returns (weight, corrected receiver branch) for m = 0..3: the Bell
    projection of (message, sender half pair.labels[0]) onto outcome m,
    with the outcome correction applied to the receiver half
    pair.labels[1].  resource names the noiseless pair the corrections are
    calibrated for: "psi+" corrections are P_m X, "phi+" corrections P_m.
    Each branch is unnormalized, with trace equal to its weight times the
    pair's weight.

    Branch m is W_m rho W_m† with the 2x4 operator W_m = V_m ⊗ C_m, where
    V_m = <β_m|_{message,S} |ψ>_message is a bra on the sender half and C_m
    the correction, so no three-qubit register is built.
    """
    ops = _teleport_ops(message.amps.tobytes(), resource)
    total = pair.weight
    out = []
    for branch in ops @ pair.mat @ ops.conj().transpose(0, 2, 1):
        w = float(np.trace(branch).real) / total if total > 0 else 0.0
        out.append((w, DensityMatrix(branch, pair.labels[1:],
                                     unnormalized=True)))
    return out


def _delivered_fidelity(delivered: DensityMatrix, message: Ket) -> float:
    target = Ket(message.amps, delivered.labels)
    return fidelity_with_pure(delivered.normalized(), target)


def _teleport(config: NetworkConfig, pair: DensityMatrix, protocol: str) -> tuple:
    """The message's teleport_branches through pair, corrected for the
    protocol's resource, and the pair's fidelity with its target."""
    resource = "psi+" if protocol == "W" else "phi+"
    return (teleport_branches(pair, config.message_state, resource),
            fidelity_with_pure(pair, pair_target(protocol)))


def _teleported(config: NetworkConfig, ae: DensityMatrix, protocol: str,
                transcript: Transcript, weight: float = 1.0,
                **extra) -> RunOutcome:
    """Exact-mode outcome: the message teleported through the pair ae,
    which is scored against the protocol's target pair."""
    branches, ae_fidelity = _teleport(config, ae, protocol)
    acc = branches[0][1].mat
    for _, fixed in branches[1:]:
        acc = acc + fixed.mat
    delivered = DensityMatrix(acc, ae.labels[1:], unnormalized=True)
    return RunOutcome(
        aborted=False,
        delivered_fidelity=_delivered_fidelity(delivered, config.message_state),
        analytic_success_probability=weight, transcript=transcript,
        anonymous_entanglement=ae, ae_fidelity=ae_fidelity, **extra)


def _branch_plan(config: NetworkConfig, pair: DensityMatrix, protocol: str) -> tuple:
    """(pair, (Bell-outcome CDF, delivered fidelities), pair fidelity) of a
    sampled branch's normalized pair; an outcome below 1e-15 gets 0s."""
    branches, fidelity = _teleport(config, pair, protocol)
    table = [(w, _delivered_fidelity(fixed, config.message_state))
             if w >= 1e-15 else (0.0, 0.0) for w, fixed in branches]
    return pair, (_cdf([w for w, _ in table]), [f for _, f in table]), fidelity


def _announce(config: NetworkConfig, m: int, rng: np.random.Generator,
              transcript: Transcript, start_round: int) -> tuple:
    """Announce Bell outcome m through two masked parity runs (the sender
    inputs a bit of m, the receiver a fresh mask) and hand m to the
    receiver privately; returns the public bits."""
    m_bits = (m >> 1 & 1, m & 1)
    rand = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
    public = (m_bits[0] ^ rand[0], m_bits[1] ^ rand[1])  # the parities' outputs
    for j in range(2):
        inputs = dict.fromkeys(config.live_nodes, 0)
        inputs[config.sender] = m_bits[j]
        inputs[config.receiver] = rand[j]
        parity_protocol(inputs, rng, transcript, start_round=start_round + 2 * j)
    transcript.add(start_round + 4, "teleport_correction",
                   config.receiver, bytes([m]), _private(config.receiver))
    return public


# ---------------------------------------------------------------------------
# Protocol 1 (W state)


def _protocol1_skeleton(config: NetworkConfig, bits: Sequence | None = None) -> Transcript:
    """Collision detection, receiver notification, qubit hand-offs and each
    measuring node's private outcome record (empty in exact mode: no bits)."""
    transcript = Transcript()
    wish = {i: int(i == config.sender) for i in config.live_nodes}
    collision_detection(wish, transcript, start_round=0)
    receiver_notification(config.sender, config.receiver, config.live_nodes,
                          transcript, start_round=1)
    for node in config.live_nodes:
        transcript.add(2, "private_send", 0, b"\x01", _private(node))  # qubit hand-off
    for i, node in enumerate(_measuring(config)):
        transcript.add(3, "measurement", node, b"" if bits is None else bytes([bits[i]]),
                       _private(node))
    return transcript


def run_protocol1(config: NetworkConfig, rng: np.random.Generator | None = None,
                  mode: str = "exact") -> RunOutcome:
    """Anonymous transmission through a W state.

    Steps: collision detection for the sender slot, receiver notification,
    source distribution through each node's channel, standard-basis
    measurement by every non-S/R live node, veto on the outcomes (abort on
    1), then teleportation of the message with the Bell outcome announced
    through two masked parity runs.  rng is read only in sampling mode,
    where it defaults to a Generator seeded with the config's seed.
    """
    if mode == "exact":
        return _exact_run(config, "W")
    if mode == "sampling":
        return _Protocol1Sampler(config).run(rng)
    raise ValueError(f"unknown mode {mode!r}")


def _measuring(config: NetworkConfig) -> list:
    """The live nodes other than sender and receiver, which measure."""
    return [i for i in config.live_nodes if i not in (config.sender, config.receiver)]


def exact_pair(config: NetworkConfig, protocol: str) -> tuple[float, DensityMatrix]:
    """Born weight and normalized (sender, receiver) pair of the success
    branch of an exact "W", "GHZ" or "relay" run, without its transcript or
    teleport; GHZ and the relay never abort, so their weight is 1."""
    if protocol == "W":
        return _normalized_pair(pullback_pair(
            config, dict.fromkeys(_measuring(config), 0), config.sender, config.receiver))
    if protocol == "relay":
        relay = _Relay(config)
        return 1.0, relay.pair(relay.mixed())
    if protocol != "GHZ":
        raise ValueError(f"unknown protocol {protocol!r}")
    # a '-' outcome flips the receiver's phase: with E_± = Φ†(|±><±|), the
    # even-parity sum over outcome strings is (P + Q)/2 and the odd one,
    # which gets Z_R, is (P - Q)/2, where P takes E_+ + E_- = Φ†(I) and Q
    # takes E_+ - E_- = Φ†(X) at every measuring node
    measuring = _ghz_measuring(config)
    p, q = (_contract(config, _GHZ, dict.fromkeys(measuring, op),
                      config.sender, config.receiver, 2)
            for op in (ID2, PAULI_X))
    return 1.0, _normalized_pair((p + q) / 2 + _Z_R @ (p - q) @ _Z_R / 2)[1]


def _exact_run(config: NetworkConfig, protocol: str) -> RunOutcome:
    """A W or GHZ run in exact mode: the exact_pair, teleported."""
    weight, ae = exact_pair(config, protocol)
    return _teleported(config, ae, protocol, _protocol1_skeleton(config), weight,
                       veto_output=0)


def _halves(has: int, k: int) -> tuple:
    """(words read, has_uint32 after) of k >= 1 integers(0, 2) draws."""
    return (k - has + 1) >> 1, (k - has) & 1


class Batch(list):
    """Sampled runs' outcomes in run order, distinct[i] for i in slots:
    distinct holds each shared outcome once, slots (np.intp) a run's index."""

    def __init__(self, distinct: list, slots):
        self.distinct, self.slots = distinct, np.asarray(slots, dtype=np.intp)
        super().__init__(np.array(distinct, dtype=object)[self.slots].tolist())


class _Sampler:
    """A protocol's sampling plan for one config.  run records one run and
    returns a fresh outcome; batch records none: its distinct outcomes are
    the read-only ones (empty transcript) of result keys, None (abort) or
    (branch key, Bell outcome, public bits).  W and GHZ batches decode raw
    words as arrays to a result code per run; recorded runs and relay batches
    call the Generator.  Either leaves rng (default: a Generator on the
    config's seed) where the runs' Generator calls leave it."""
    TRANSCRIPT_BUDGET = 2**18  # events a recording may hold; ~1.5 KiB each printed
    CHUNK_WORDS = 2**16  # bounds runs * max_words per chunk; one run if max_words exceeds it

    def run(self, rng: np.random.Generator | None) -> RunOutcome:
        if self.events_per_run > self.TRANSCRIPT_BUDGET:  # an upper bound
            raise ValueError(f"recording 1 run(s) may take {self.events_per_run} transcript"
                             f" events, over the budget of {self.TRANSCRIPT_BUDGET}")
        return self._run(self._generator(rng))

    def batch(self, n_samples: int, rng: np.random.Generator | None = None) -> Batch:
        """n_samples unrecorded runs; runs with equal results share one outcome."""
        return self._unrecorded(self._generator(rng), n_samples)

    def _generator(self, rng: np.random.Generator | None) -> np.random.Generator:
        if rng is None:
            rng = np.random.default_rng(self.config.seed)
        state = rng.bit_generator.state
        if "has_uint32" not in state:  # the unrecorded decoders need the buffer
            raise ValueError("sampling needs a PCG64, PCG64DXSM, Philox or SFC64"
                             f" bit generator, not {state['bit_generator']}")
        return rng

    def _unrecorded(self, rng: np.random.Generator, n: int) -> Batch:
        """n unrecorded runs, decoded from raw words: random() is (word >> 11)
        * 2**-53, integers(0, 2) the top bit of a 32-bit half (a range of 2
        is never rejected), low half first.  words[0] is the last word split
        into halves (its high half the buffered one), p the next run's first
        word and h has_uint32.  A chunk tops its unread words up to runs *
        max_words, the most its runs spend, so _decode(words, p, h, runs)
        returns the result codes of exactly runs runs (see _codes; -1 is an
        abort), their branch keys, and the next p, h and words[0]; unread
        words carry over.  rng ends past the words read."""
        bitgen = rng.bit_generator
        start = bitgen.state
        h, p, fetched, done = start["has_uint32"], 1, 0, 0
        words = np.array([start["uinteger"] << 32], dtype=np.uint64)
        seen, slots = {}, [np.zeros(0, np.intp)]
        while done < n:
            runs = min(self.chunk, n - done)
            size = max(0, runs * self.max_words - (len(words) - p))
            words = np.concatenate([words, bitgen.random_raw(size)])
            fetched += size
            codes, bkeys, p, h, last = self._decode(words, p, h, runs)
            table = np.empty(16 * len(bkeys) + 1, np.intp)  # code -> slot; -1 the last
            for c in (np.flatnonzero(np.bincount(codes + 1)) - 1).tolist():
                table[c] = seen.setdefault(None if c < 0 else (
                    bkeys[c >> 4], c >> 2 & 3, (c >> 1 & 1, c & 1)), len(seen))
            slots.append(table[codes])
            words, p, done = words[last:], p - last, done + runs
        bitgen.state = start
        bitgen.random_raw(fetched - (len(words) - p), output=False)  # the words read
        bitgen.state = {**bitgen.state, "has_uint32": h, "uinteger": int(words[0] >> 32)}
        return Batch(list(map(self._finish, seen)), np.concatenate(slots))

    def _plan(self, bits: tuple) -> tuple:
        """The memoised _branch_plan of a branch key."""
        if bits not in self.branches:
            self.branches[bits] = _branch_plan(self.config, self._pair(bits),
                                               self.protocol)
        return self.branches[bits]

    def _codes(self, words, bkeys, bidx, q, hm) -> np.ndarray:
        """Result codes 16 * branch + 4 * m + public bits of delivered runs:
        a run takes branch bkeys[bidx], draws its Bell outcome m from word q
        and its masks from the halves after it, the first one buffered (from
        word q - hm) if hm > 0."""
        cdfs = np.array([self._plan(bits)[1][0] for bits in bkeys])
        m = (cdfs[bidx] <= ((words[q] >> 11) * 2.0**-53)[:, None]).sum(axis=1)
        low, high = ((words[q + 1] >> b & 1).astype(np.intp) for b in (31, 63))
        r0 = np.where(hm, (words[q - hm] >> 63).astype(np.intp), low)
        return bidx << 4 | m << 2 | (m >> 1 ^ r0) << 1 | (m & 1 ^ np.where(hm, low, high))

    def _finish(self, key) -> RunOutcome:
        """The one unrecorded outcome of a result key."""
        if key not in self.outcomes:
            self.outcomes[key] = self._outcome(key, Transcript())
        return self.outcomes[key]

    def _outcome(self, key, transcript: Transcript) -> RunOutcome:
        if key is None:
            return RunOutcome(aborted=True, delivered_fidelity=None,
                              analytic_success_probability=self.exact_success,
                              transcript=transcript, anonymous_entanglement=None,
                              veto_output=1)
        branch, m, public = key
        pair, (_, fids), ae_fid = self.branches[branch]
        return RunOutcome(aborted=False, delivered_fidelity=fids[m],
                          analytic_success_probability=self.exact_success,
                          transcript=transcript, anonymous_entanglement=pair,
                          ae_fidelity=ae_fid, veto_output=0,
                          public_teleport_bits=public)


class _Protocol1Sampler(_Sampler):
    """W plan: a run draws one u and walks the nodes in order, carrying one
    left environment of the bits read (a walk costs O(n)); a measuring node
    reads 0 while u is below lo, the mass of the strings passed, plus its
    0-branch's weight.  So it draws what Generator.choice would from the
    lexicographic table of all k-bit outcome strings, up to an ulp at a boundary.

    Unrecorded runs take the veto's and the parities' exact outputs, so a
    run's word count is fixed by its type and by h, whether a half is
    buffered when it starts (full words never touch it).  An accept (u
    below zero_cut: all zeros) reads u, the Bell-outcome word and two
    halves; an abort reads u and veto_rounds halves; a veto miss (every
    veto bit 0) reads those, walks, then reads the Bell-outcome word and
    two halves.  The veto halves of a run are a fixed window after u, so
    whether one has its top bit set is an OR over that window, taken for
    every start word of a chunk at once from spans of doubling length."""
    protocol = "W"

    def __init__(self, config: NetworkConfig):
        self.config, self.outcomes, self.branches = config, {}, {}
        self.measuring = _measuring(config)
        live = len(config.live_nodes)
        self.events_per_run = (config.veto_rounds + 2) * live * (live + 1) + 3 * live
        self.zeros, s = (0,) * len(self.measuring), config.veto_rounds
        self.max_words = 3 + _halves(0, s)[0]  # a veto miss from h = 0
        self.chunk = max(1, self.CHUNK_WORDS // self.max_words)
        # 2 * words + h after - h before of a veto miss, from h = 0 and 1; an
        # abort moves 4 less (no Bell-outcome word or masks), an accept 6
        self.misses = np.array([2 * vw + 6 + after - h for h, (vw, after)
                                in enumerate(_halves(h, s) for h in (0, 1))], np.int32)
        # node i's read-0 and read-1 transfers (the identity where i does not read)
        self.reads = outcome_transfers(config, [dict.fromkeys(self.measuring, b)
                                                for b in (0, 1)])
        w = float(np.trace(self._raw(self.zeros)).real)
        self.exact_success = w if w >= np.finfo(float).tiny else None
        self.zero_cut = self._walk(-math.inf)[1]  # below zero_cut, the walk reads zeros
        accept = min(max(self.zero_cut, 0.0), 1.0)
        self.cut = math.ceil(accept * 2**53)  # u < zero_cut iff word >> 11 < cut

    def _raw(self, bits: tuple) -> np.ndarray:
        """pullback_pair after the first len(bits) measuring nodes read bits."""
        return pullback_pair(self.config, dict(zip(self.measuring, bits)),
                             self.config.sender, self.config.receiver)

    def _pair(self, bits: tuple) -> DensityMatrix:
        return _normalized_pair(self._raw(bits))[1]

    def _walk(self, u: float) -> tuple:
        """The string u lands on and the least boundary passed (zero_cut from
        u = -inf, which reads zeros while it can).  With m later sites traced,
        a prefix weighs (m env[0] + env[3]) / n: each traced W site adds 1 to
        the right environment's (0, 0) entry.  No branch under 1e-15 is entered."""
        n, measuring = self.config.n_nodes, set(self.measuring)
        env, bits, lo, prefix, least = _W.left[0], (), 0.0, 1.0, math.inf
        for node, read0, read1 in zip(self.config.nodes, *self.reads):
            zero, bit = env @ read0, 0
            if node in measuring:
                weight = float(((n - node) * zero[0] + zero[3]).real) / n
                bound = lo + (weight if min(weight, prefix - weight) >= 1e-15 else
                              math.inf if weight >= prefix - weight else -math.inf)
                bit, least = int(u >= bound), min(least, bound)
                bits, lo = bits + (bit,), lo + bit * weight
                prefix = prefix - weight if bit else weight
            env = env @ read1 if bit else zero
        return bits, least

    def _run(self, rng: np.random.Generator) -> RunOutcome:
        config = self.config
        bits = self._walk(rng.random())[0]
        transcript = _protocol1_skeleton(config, bits)
        veto = veto_protocol({**dict(zip(self.measuring, bits)),
                              config.sender: 0, config.receiver: 0}, rng,
                             config.veto_rounds, transcript, start_round=4)
        base = 4 + 2 * config.veto_rounds
        if veto:
            transcript.add(base, "abort", 0, b"\x01")
            return self._outcome(None, transcript)
        m = _draw(rng, self._plan(bits)[1][0])
        public = _announce(config, m, rng, transcript, base)
        return self._outcome((bits, m, public), transcript)

    def _decode(self, words: np.ndarray, p: int, h: int, runs: int) -> tuple:
        s, fits = self.config.veto_rounds, len(words) - self.max_words + 1
        # each 32-bit half's top bit in draw order (low half first).  A run at
        # word p reads its veto halves from half 2p + 2 on: s of them from h = 0;
        # from h = 1 the buffered one (word p - 1's high, half 2p - 1), then s - 1
        top = words.astype("<u8", copy=False).view("<u4") >= 2**31
        veto = words[:fits] >> 11 >= self.cut  # not an accept: the veto is run
        reach = (1, 0) if s & 1 else (h,)  # runs move 6, s + 2 or s + 6 halves
        hits = np.zeros((2, fits), bool)  # a veto bit set, from h = 0 and 1
        ors, span = top, 1  # ors[i]: a set bit among top[i:i + span]
        for has in reach:  # windows of k = s - has halves, the shorter first
            k = s - has
            while 2 * span <= k:
                ors, span = ors[:-span] | ors[span:], 2 * span
            if k:  # two spans cover the window top[2p + 2:2p + 2 + k]
                np.bitwise_or(ors[2::2][:fits], ors[2 + k - span::2][:fits], out=hits[has])
        hits[1, 1:] |= top[1:2 * fits - 2:2]
        moves = np.empty((fits, 2), np.int32)  # indexed by 2p + h
        for has in reach:  # an accept moves 6
            moves[:, has] = veto * (self.misses[has] - 6) - (hits[has] & veto) * np.int32(4) + 6
        moves = memoryview(moves.ravel())
        state, starts = 2 * p + h, []
        for _ in range(runs):  # the one sequential step: where each run starts
            starts.append(state)
            state += moves[state]
        ps, hs = np.divmod(np.array(starts), 2)
        acc = ~veto[ps]
        live = acc | ~hits[hs, ps]  # not aborted
        miss = live & ~acc
        walks = [self._walk(u)[0] for u in ((words[ps[miss]] >> 11) * 2.0**-53).tolist()]
        bkeys = list(dict.fromkeys([self.zeros] * bool(acc.any()) + walks))
        bidx = np.zeros(len(ps), dtype=np.intp)
        bidx[miss] = [bkeys.index(bits) for bits in walks]
        codes = np.full(len(ps), -1)
        codes[live] = self._codes(words, bkeys, bidx[live],
                                  np.where(acc, ps + 1, ps + 1 + ((s - hs + 1) >> 1))[live],
                                  np.where(acc, 2 * hs, (s - hs) & 1)[live])
        p = state >> 1
        # a one-word run (an abort on the buffered half alone) splits no word
        return codes, bkeys, p, state & 1, p - 1 - (p - starts[-1] // 2 == 1)


def sample_protocol1_runs(config: NetworkConfig, n_samples: int,
                          rng: np.random.Generator | None = None) -> tuple[Batch, dict]:
    """Draw many seeded unrecorded runs cheaply (each delivered outcome
    string is planned once).  Returns their Batch, whose runs with equal
    results share one outcome (empty transcript), and an aggregate summary."""
    sampler = _Protocol1Sampler(config)
    outcomes = sampler.batch(n_samples, rng)
    return outcomes, {**batch_summary(outcomes),
                      "exact_success_probability": sampler.exact_success}


def batch_summary(batch: Batch) -> dict:
    """Run count, aborts, abort rate and mean delivered fidelity of a batch:
    each distinct outcome is read once, then gathered by the slots."""
    aborted = np.array([o.aborted for o in batch.distinct], dtype=bool)[batch.slots]
    fids = np.array([o.delivered_fidelity or 0.0 for o in batch.distinct])[batch.slots[~aborted]]
    runs, aborts = len(aborted), int(aborted.sum())
    return {"runs": runs, "aborts": aborts, "abort_rate": aborts / runs if runs else 0.0,
            "mean_delivered_fidelity": float(np.mean(fids)) if len(fids) else None}


# ---------------------------------------------------------------------------
# GHZ protocol


def _ghz_measuring(config: NetworkConfig) -> list:
    """The X-measuring nodes; a lost node leaves a separable state."""
    if config.lost_nodes:
        raise ProtocolImpossibleError("a lost node leaves the GHZ protocol with"
                                      " a separable state; it cannot be carried out")
    return _measuring(config)


def run_ghz_protocol(config: NetworkConfig, rng: np.random.Generator | None = None,
                     mode: str = "exact") -> RunOutcome:
    """Anonymous transmission through a GHZ state.

    Non-S/R nodes measure in the X basis; the parity of their outcomes is
    announced through a parity run and the receiver applies the matching Z
    correction, so the protocol never aborts.  A lost node makes the
    protocol impossible outright (the remaining state is separable).  rng
    is read only in sampling mode, where it defaults to a Generator seeded
    with the config's seed.
    """
    if mode == "sampling":
        return _GhzSampler(config).run(rng)
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    return _exact_run(config, "GHZ")


class _GhzSampler(_Sampler):
    """GHZ plan: each measuring node's diag(Φ†(|±><±|)) is built once; the
    corrected pair, its teleport plan and fidelity are memoised per
    X-outcome string (the branch key).  Recorded or not, a run spends the
    same words, in order: the walk's, the parity's shares, the Bell-outcome
    word, the masks and the announcing parities' shares (n^2 shares flip
    the buffered half for odd n, so two strides alternate).  With z_defect
    exactly 0 at every measuring node and R, every string's Z-corrected
    pair is the all-'+' one, bit for bit: unrecorded runs skip the walk."""
    protocol = "GHZ"

    def __init__(self, config: NetworkConfig):
        self.config, self.outcomes = config, {}
        self.measuring = _ghz_measuring(config)
        self.events_per_run = 3 * config.n_nodes * (config.n_nodes + 2)
        self.diags = [[np.diag(_heisenberg(config.channel_for(node), op)).real
                       for op in _X_READ] for node in self.measuring]
        self.branches, self.exact_success, self.transfers = {}, 1.0, {}
        shares = config.n_nodes ** 2
        self.flip = shares & 1
        # words before the Bell-outcome word, and words per run, from h
        self.skips = len(self.measuring) + np.array([_halves(h, shares)[0] for h in (0, 1)])
        self.strides = self.skips + 1 + np.array(
            [_halves(h ^ self.flip, 2 + 2 * shares)[0] for h in (0, 1)])
        self.max_words = int(self.strides.max())
        self.chunk = max(1, self.CHUNK_WORDS // self.max_words)
        self.one_pair = all(z_defect(channel) == 0 for channel in
                            set(map(config.channel_for, [*self.measuring, config.receiver])))
        if self.one_pair:  # an underflowing pair is refused before a draw
            self._plan((0,) * len(self.measuring))

    def _pair(self, bits: tuple) -> DensityMatrix:
        reads = {node: _X_READ[b] for node, b in zip(self.measuring, bits)}
        raw = _contract(self.config, _GHZ, reads, self.config.sender,
                        self.config.receiver, 2, self.transfers)
        return _normalized_pair(_Z_R @ raw @ _Z_R if sum(bits) % 2 else raw)[1]

    def _walks(self, u: np.ndarray) -> tuple:
        """The X-outcome strings of runs drawing u (runs x k): the distinct
        strings and each run's index into them.  An outcome prefix x has
        weight (Π E_x[0,0] + Π E_x[1,1]) / 2, so each node's '+' probability
        is an O(1) update of the two products, made once per prefix."""
        idx, prefixes = np.zeros(len(u), dtype=np.intp), [((), np.ones(2))]
        for j, diags in enumerate(self.diags):
            plus = np.array([w_plus / (w_plus + w_minus) for w_plus, w_minus in
                             ((products @ d for d in diags) for _, products in prefixes)])
            pairs, idx = np.unique(2 * idx + (u[:, j] >= plus[idx]), return_inverse=True)
            prefixes = [(prefixes[i >> 1][0] + (i & 1,), prefixes[i >> 1][1] * diags[i & 1])
                        for i in pairs.tolist()]
        return [bits for bits, _ in prefixes], idx

    def _run(self, rng: np.random.Generator) -> RunOutcome:
        config = self.config
        (bits,), _ = self._walks(rng.random((1, len(self.measuring))))
        transcript = _protocol1_skeleton(config, bits)
        # the announced parity is the XOR of the bits, which fix the pair
        inputs = dict.fromkeys(config.nodes, 0) | dict(zip(self.measuring, bits))
        parity_protocol(inputs, rng, transcript, start_round=4)
        m = _draw(rng, self._plan(bits)[1][0])
        public = _announce(config, m, rng, transcript, start_round=6)
        return self._outcome((bits, m, public), transcript)

    def _decode(self, words: np.ndarray, p: int, h: int, runs: int) -> tuple:
        hs = h ^ (np.arange(runs) & self.flip)
        starts = p + np.cumsum(self.strides[hs]) - self.strides[hs]
        bkeys, bidx = ([(0,) * len(self.measuring)], 0) if self.one_pair else self._walks(
            (words[starts[:, None] + np.arange(len(self.measuring))] >> 11) * 2.0**-53)
        codes = self._codes(words, bkeys, bidx, starts + self.skips[hs], hs ^ self.flip)
        p = int(starts[-1] + self.strides[hs[-1]])
        return codes, bkeys, p, h ^ (runs & self.flip), p - 1


def sample_ghz_runs(config: NetworkConfig, n_samples: int,
                    rng: np.random.Generator | None = None) -> tuple[Batch, dict]:
    """sample_protocol1_runs for GHZ, with run_ghz_protocol's draws."""
    outcomes = _GhzSampler(config).batch(n_samples, rng)
    return outcomes, batch_summary(outcomes)


# ---------------------------------------------------------------------------
# relay protocol

# The relay register is (keep, anc_sender, anc_receiver, travel), keep the
# most significant qubit: one 16x16 density matrix for any chain length.
_TRAVEL = 3
# Swapping travel through a fresh pair (a, b) with Bell outcome m leaves b,
# the new travel qubit, as K_m = <β_m|_{travel,a} |Φ+>_{a,b} applied to the
# old one; each outcome has weight 1/4 whatever the state.
_SWAPS = np.einsum("mta,ab->mbt", _BELL.conj(), _BELL[0])
_CORRECTIONS = np.array(BELL_CORRECTIONS)
_SWAP_CDF = _cdf(np.ones(4))
# a hop's swap branch: none (None) into node 2, one outcome m renormalized
# (sampling), or all four mixed (exact)
_BRANCHES = {None: (ID2[None], ID2[None]), "mixed": (_SWAPS, _CORRECTIONS)} | {
    m: (2 * _SWAPS[m:m + 1], _CORRECTIONS[m:m + 1]) for m in range(4)}


def _superop(ops) -> np.ndarray:
    """rho -> Σ_k K_k rho K_k† for 2x2 operators K_k, summed over k."""
    ops = np.asarray(ops)
    return np.einsum("xij,xkl->ikjl", ops, ops.conj())


def _on_qubit(rho: np.ndarray, sup: np.ndarray, qubit: int) -> np.ndarray:
    """A _superop applied to one qubit of the relay register."""
    r = rho.reshape(2**qubit, 2, 2**(3 - qubit), 2**qubit, 2, 2**(3 - qubit))
    return np.einsum("ikjl,ajbcld->aibckd", sup, r).reshape(16, 16)


def _hop(kraus: np.ndarray, swaps, corrections) -> np.ndarray:
    """A hop's superoperator: a channel's Kraus operators between swap
    branches and their corrections."""
    hops = corrections[:, None] @ kraus @ swaps[:, None]
    return _superop(hops.reshape(-1, 2, 2))


_X_SUPS = tuple(_superop([e]) for e in _X_READ)
_Z_SUP = _superop([PAULI_Z])


class _Relay:
    """The chain 1..n of one config on the relay register."""

    def __init__(self, config: NetworkConfig):
        if config.n_nodes < 4:
            raise ValueError("relay needs at least 4 nodes")
        if config.lost_nodes:
            raise ValueError("relay does not support lost nodes")
        self.config, n = config, config.n_nodes
        self.anc = {config.sender: 1, config.receiver: 2}  # register qubit per node
        # phase corrections from the closing X measurements land on the anc
        # that was spliced in first along the chain
        self.first_anc = self.anc[min(self.anc)]
        # keep, travel, the ancillas spliced by the last swap and its fresh pair
        self.max_live = 4 + sum(node < n for node in self.anc)
        ket = np.zeros((2, 2, 2, 2), dtype=complex)
        ket[:, 0, 0, :] = _BELL[0]  # Bell(keep, travel), ancillas in |0>
        self.start = self.splice(np.outer(ket.ravel(), ket.ravel().conj()), 0, 1)
        self.built, self.sups = {}, {}  # (Kraus bytes, branch) -> id -> (id, superop)

    def hop(self, node: int, branch) -> bytes:
        """The id of the hop into node on a swap branch of _BRANCHES: its
        superoperator's bytes, built once per (Kraus bytes, branch).  Equal
        superoperators share one id object, so equal chains compare fast."""
        kraus = self.config.channel_for(node).kraus_ops
        key = (kraus.tobytes(), branch)  # all a hop depends on
        if key not in self.built:
            sup = _hop(kraus, *_BRANCHES[branch])
            data = sup.tobytes()
            self.built[key] = self.sups.setdefault(data, (data, sup))[0]
        return self.built[key]

    def register(self, hops: Sequence) -> np.ndarray:
        """The register after the hops (ids) into nodes 2..n."""
        rho = self.start
        for j, hop in enumerate(hops, 2):
            rho = self.splice(_on_qubit(rho, self.sups[hop][1], _TRAVEL), _TRAVEL, j)
        return rho

    def mixed(self) -> np.ndarray:
        """The exact register: every swap and closing branch mixed."""
        rho = self.register([self.hop(j, None if j == 2 else "mixed")
                             for j in range(2, self.config.n_nodes + 1)])
        for qubit in (_TRAVEL, 0):
            rho = np.add(*self.close(rho, qubit))
        return rho

    def splice(self, rho: np.ndarray, control: int, node: int) -> np.ndarray:
        # CNOT onto the node's |0> ancilla, if any: a permutation of indices
        if node not in self.anc:
            return rho
        idx = np.arange(16)
        idx ^= (idx >> (3 - control) & 1) << (3 - self.anc[node])
        return rho[np.ix_(idx, idx)]

    def close(self, rho: np.ndarray, qubit: int) -> tuple:
        """The two unnormalized branches of a closing X measurement; a '-'
        outcome flips the phase of first_anc."""
        plus = _on_qubit(rho, _X_SUPS[0], qubit)
        minus = _on_qubit(_on_qubit(rho, _X_SUPS[1], qubit), _Z_SUP, self.first_anc)
        return plus, minus

    def transcript(self, casts: Sequence = ()) -> Transcript:
        """The pair hand-offs, which both modes record, then the
        (round, actor, bit) broadcasts of a sampled run's outcomes."""
        transcript = Transcript()
        for j in range(1, self.config.n_nodes):
            transcript.add(0, "private_send", j, b"\x01", _private(j + 1))
        for round_, actor, bit in casts:
            transcript.add(round_, "broadcast", actor, bytes([bit]))
        return transcript

    def pair(self, rho: np.ndarray) -> DensityMatrix:
        """The (sender, receiver) ancillas of a closed register."""
        pair = np.einsum("iabjicdj->abcd", rho.reshape((2,) * 8)).reshape(4, 4)
        return DensityMatrix(pair, PAIR_LABELS)

    def delivered(self, rho: np.ndarray, transcript: Transcript) -> RunOutcome:
        return _teleported(self.config, self.pair(rho), "relay", transcript,
                           max_live_qubits=self.max_live)


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

    The register stays at four qubits: node 1's kept half, the two
    ancillas and the travelling qubit.  A hop is one superoperator on the
    travelling qubit, with the next node's channel between a swap branch
    and its correction; exact mode mixes all branches, and sampling mode
    is a run of the relay's sampling plan.  max_live_qubits counts the
    protocol's live qubits, the fresh pair during a swap included.  rng is
    read only in sampling mode, where it defaults to a Generator seeded
    with the config's seed.
    """
    if mode == "sampling":
        return _RelaySampler(config).run(rng)
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    relay = _Relay(config)
    return relay.delivered(relay.mixed(), relay.transcript())


class _RelaySampler(_Relay, _Sampler):
    """Relay plan: a run's chain key is its tuple of hop ids, one per swap
    outcome; under a Pauli channel every run has one chain.  Only the
    current chain is kept: its register and, per prefix of closing X
    outcomes, the normalized register, p_plus and the two branches.  A new
    chain gets a new number; the result key is (chain number, X outcomes)."""

    def __init__(self, config: NetworkConfig):
        super().__init__(config)
        self.hops = [[self.hop(j, m) for m in ([None] if j == 2 else range(4))]
                     for j in range(2, config.n_nodes + 1)]
        self.events_per_run, self.outcomes = 2 * config.n_nodes, {}
        self.key, self.chain = None, 0

    def _unrecorded(self, rng: np.random.Generator, n: int) -> Batch:
        seen, slots = {}, []  # result key -> slot
        for _ in range(n):  # a key is finished while its chain's registers are kept
            self._finish(key := self._draw_run(rng)[0])
            slots.append(seen.setdefault(key, len(seen)))
        return Batch(list(map(self._finish, seen)), slots)

    def _run(self, rng: np.random.Generator) -> RunOutcome:
        key, swaps = self._draw_run(rng)
        n, bits = self.config.n_nodes, key[1]
        return self._outcome(key, self.transcript(
            [*zip(range(2, n), range(2, n), swaps), (n, n, bits[0]), (n + 1, 1, bits[1])]))

    def _draw_run(self, rng: np.random.Generator) -> tuple:
        """A run's result key and its swap outcomes."""
        n = self.config.n_nodes
        *swap_us, u_close, u_open = rng.random(n).tolist()
        swaps = [bisect_right(_SWAP_CDF, u) for u in swap_us]
        key = tuple(map(list.__getitem__, self.hops, [0, *swaps]))
        if key != self.key:
            self.key, self.chain = key, self.chain + 1
            self.closed, self.closing = {(): self.register(key)}, {}
        bits = ()
        for qubit, u in ((_TRAVEL, u_close), (0, u_open)):
            if bits not in self.closing:
                rho = self.closed[bits]
                plus, minus = self.close(rho, qubit)
                p = np.trace(plus).real / np.trace(rho).real
                self.closing[bits] = min(max(p, 0.0), 1.0), (plus, minus)
            p_plus, branches = self.closing[bits]
            b = 0 if u < p_plus else 1
            bits += (b,)
            if bits not in self.closed:
                self.closed[bits] = branches[b] / np.trace(branches[b]).real
        return (self.chain, bits), swaps

    def _outcome(self, key, transcript: Transcript) -> RunOutcome:
        return self.delivered(self.closed[key[1]], transcript)


def sample_relay_runs(config: NetworkConfig, n_samples: int,
                      rng: np.random.Generator | None = None) -> tuple[Batch, dict]:
    """sample_protocol1_runs for the relay, with run_relay_protocol's draws."""
    outcomes = _RelaySampler(config).batch(n_samples, rng)
    return outcomes, batch_summary(outcomes)


# ---------------------------------------------------------------------------
# exact cross-check used by the CLI's exact sweep for the loss formulas


def w_loss_branch_average_dense(channel: QuantumChannel, n: int,
                                f_noloss: float | None = None) -> float:
    """Exact evaluation, through the transfer engine, of the
    loss-branch-averaged pair fidelity (the quantity the closed-form loss
    formulas compute; see f_ae_w_loss).

    With one lost measuring node the distributed state splits into the
    excitation-survived branch (weight (n-1)/n) and the excitation-lost
    branch (weight 1/n); the former is scored at the full-network no-loss
    fidelity (f_noloss, contracted here unless given), the latter as the
    channel-noised vacuum pair.
    """
    if f_noloss is None:
        cfg = NetworkConfig(n, 1, 2, dict.fromkeys(range(1, n + 1), channel))
        f_noloss = fidelity_with_pure(exact_pair(cfg, "W")[1], pair_target("W"))
    vac = channel(np.array([[1, 0], [0, 0]], dtype=complex))
    pair_lost = DensityMatrix(np.kron(vac, vac), PAIR_LABELS)
    f_lost = fidelity_with_pure(pair_lost, pair_target("W"))
    return (n - 1) / n * f_noloss + f_lost / n
