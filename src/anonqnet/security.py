"""Anonymity analysis for the W-state protocol.

The central object is the adversary view: everything a passive coalition
observes in one run, for a hypothesised sender (or receiver) identity, as
a plain dict label -> (weight, weight x quantum block).  Labels collect
the classical data

* the coalition's notification bits,
* the coalition's own measurement outcomes,
* whether the honest measuring nodes saw any 1 (the veto rounds leak the
  honest-side OR to a participating coalition, so counting it is the
  conservative choice),
* the veto output,
* the masked teleport announcement: the raw Bell outcome when the
  receiver itself is corrupt, otherwise the two public masked bits,

and the block is the coalition's quantum side (the receiver's carrier
qubit when the receiver is corrupt, trivial otherwise).  Shares from the
XOR-sharing subroutines are excluded: for any coalition missing at least
one node they are uniform and carry no input dependence.

Anonymity holds when views for different hypotheses coincide; the checks
below quantify any gap and convert it into a guessing-probability bound.
When node channels deviate from a common base, the verdict adds the
diamond-distance perturbation bound, which stays sound for the W state's
entangled inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Mapping, Sequence

import numpy as np

from .channels import QuantumChannel, channel_distance, diamond_distance
from .qcore import DensityMatrix
from .protocols import NetworkConfig, pullback_pair, teleport_branches

_TINY = 1e-14

ADVERSARY_NODE_CAP = 7


def _tracenorm(x: np.ndarray) -> float:
    sym = (x + x.conj().T) / 2
    return float(np.abs(np.linalg.eigvalsh(sym)).sum())


_TRIVIAL = np.array([[1.0 + 0j]])


@dataclass(frozen=True)
class AdversaryScenario:
    """A passive coalition: it follows the protocol but pools every record."""

    adversary_set: frozenset

    def __post_init__(self):
        object.__setattr__(self, "adversary_set", frozenset(self.adversary_set))


def effective_roles(config: NetworkConfig, hypothesis: int, role: str
                    ) -> tuple[int, int]:
    """Sender/receiver pair realizing the hypothesis.

    When the hypothesised sender happens to be the configured receiver the
    two roles swap (some node must still receive); symmetrically for
    receiver hypotheses.  This keeps every non-adversary node a valid
    hypothesis, which is what a uniform prior over candidates needs.
    """
    if role == "sender":
        if hypothesis == config.receiver:
            return config.receiver, config.sender
        return hypothesis, config.receiver
    if role == "receiver":
        if hypothesis == config.sender:
            return config.receiver, config.sender
        return config.sender, hypothesis
    raise ValueError(f"unknown role {role!r}")


def adversary_view(config: NetworkConfig, scenario: AdversaryScenario,
                   hypothesis: int, role: str = "sender") -> dict:
    """Exact run-level view of the coalition under one identity hypothesis,
    as a dict label -> (weight, weight x block).

    Enumerates the coalition's measurement outcomes, the honest-side
    all-zero/not-all-zero split (the complement is obtained by subtraction,
    avoiding a 2^N blowup), and the teleport announcement branches.
    Branches with the same label merge by summing.  Branch weights over
    each view sum to 1.
    """
    if config.n_nodes > ADVERSARY_NODE_CAP:
        raise ValueError(
            f"adversary analysis is capped at {ADVERSARY_NODE_CAP} nodes"
        )
    adv = scenario.adversary_set
    if not adv <= set(config.live_nodes):
        raise ValueError("adversaries must be live nodes")
    if hypothesis in adv:
        raise ValueError("hypothesis must be a non-adversary node")
    if hypothesis not in config.live_nodes:
        raise ValueError("hypothesis must be a live node")
    eff_sender, eff_receiver = effective_roles(config, hypothesis, role)
    if eff_sender in adv:
        raise ValueError("a corrupt sender knows its own identity already")

    receiver_corrupt = eff_receiver in adv
    live = config.live_nodes
    measuring = [i for i in live if i not in (eff_sender, eff_receiver)]
    adv_meas = [i for i in measuring if i in adv]
    honest_meas = [i for i in measuring if i not in adv]
    rn_bits = tuple(int(i == eff_receiver) for i in sorted(adv))
    view = {}

    def add(label, weight, block):
        if weight >= _TINY:
            w, acc = view.get(label, (0.0, 0.0))
            view[label] = (w + weight, acc + weight * block)

    def abort(label, mat, weight):
        # a corrupt receiver keeps its carrier qubit, anyone else nothing
        if receiver_corrupt:
            carrier = np.trace(mat.reshape(2, 2, 2, 2), axis1=0, axis2=2)
            add(label, weight, carrier / weight)
        else:
            add(label, weight, _TRIVIAL)

    for mu in product((0, 1), repeat=len(adv_meas)):
        coalition = dict(zip(adv_meas, mu))
        # (sender, receiver) pairs with the honest outcomes summed over
        # (total) and all zero
        total = pullback_pair(config, coalition, eff_sender, eff_receiver)
        w_mu = float(np.trace(total).real)
        if w_mu < _TINY:
            continue
        zero = pullback_pair(config, {**coalition,
                                      **dict.fromkeys(honest_meas, 0)},
                             eff_sender, eff_receiver)
        w_zero = float(np.trace(zero).real)
        w_rest = w_mu - w_zero

        base = (rn_bits, mu)
        # honest saw a 1: always abort
        if w_rest > _TINY:
            abort(base + (1, 1, None), total - zero, w_rest)
        if w_zero < _TINY:
            continue
        if any(mu):
            # coalition outcome forces the abort even though honest side
            # read all zeros
            abort(base + (0, 1, None), zero, w_zero)
        elif receiver_corrupt:
            # success: the corrupt receiver sees the raw Bell outcome and
            # keeps the teleported carrier
            pair = DensityMatrix(zero / w_zero, (eff_sender, eff_receiver))
            for m, (w_m, fixed) in enumerate(teleport_branches(
                    pair, config.message_state, eff_sender, eff_receiver,
                    "psi+")):
                if w_m >= _TINY:
                    add(base + (0, 0, ("m", m)), w_zero * w_m,
                        fixed.mat / w_m)
        else:
            # success, masked announcement: uniform two public bits
            for t in range(4):
                add(base + (0, 0, ("T", t)), w_zero / 4, _TRIVIAL)
    return view


def _aligned(views: Sequence[dict]) -> list:
    """Each view's (weight, weighted block) over every (label, block shape)
    key of the views, in first-seen order, zero where a view lacks the key.
    A label carried on two registers is thus two orthogonal sectors."""
    keys = dict.fromkeys((label, block.shape) for v in views
                         for label, (_, block) in v.items())
    return [[v[label] if label in v and v[label][1].shape == shape
             else (0.0, np.zeros(shape, dtype=complex))
             for label, shape in keys] for v in views]


def independence_check(views: Sequence[dict]) -> float:
    """Worst pairwise deviation between views: total variation distance of
    the label/weight distributions plus the largest per-label trace
    distance between attached states.  0 means the coalition's view does
    not depend on the hypothesis at all."""
    aligned = _aligned(views)
    worst = 0.0
    for i, a in enumerate(aligned):
        for b in aligned[i + 1:]:
            tv = 0.5 * sum(abs(wa - wb) for (wa, _), (wb, _) in zip(a, b))
            td = max((0.5 * _tracenorm(ma / wa - mb / wb)
                      for (wa, ma), (wb, mb) in zip(a, b) if wa and wb),
                     default=0.0)
            worst = max(worst, tv + td)
    return worst


def guessing_probability(views: Sequence[dict],
                         priors: Sequence[float]) -> tuple[float, str]:
    """Optimal (or safely bounded) identification probability.

    * views independent of the hypothesis: the coalition can only output
      the most likely candidate a priori ("state-independence").
    * exactly two candidates: closed-form optimal discrimination over the
      labeled blocks ("helstrom").
    * otherwise: max prior plus the prior-weighted trace-norm deviation of
      each view from the prior-averaged view, a valid upper bound
      ("bound-only").
    """
    return _guessing_probability(views, priors, independence_check(views))


def _guessing_probability(views: Sequence[dict], priors: Sequence[float],
                          dev: float) -> tuple[float, str]:
    """guessing_probability given the views' independence deviation."""
    if len(views) != len(priors) or not views:
        raise ValueError("need one prior per view")
    priors = [float(p) for p in priors]
    if abs(sum(priors) - 1.0) > 1e-9 or min(priors) < 0:
        raise ValueError("priors must form a distribution")
    if dev <= 1e-9:
        return max(priors), "state-independence"
    blocks = [[m for _, m in v] for v in _aligned(views)]
    if len(views) == 2:
        (pa, pb), total = priors, 0.0
        for ma, mb in zip(*blocks):
            a, b = pa * ma, pb * mb
            total += (0.5 * (a.trace().real + b.trace().real)
                      + 0.5 * _tracenorm(a - b))
        return float(total), "helstrom"
    reference = [sum(p * m for p, m in zip(priors, col))
                 for col in zip(*blocks)]
    bound = max(priors)
    for v, p in zip(blocks, priors):
        bound += p * sum(_tracenorm(m - ref) for m, ref in zip(v, reference))
    return float(bound), "bound-only"


def epsilon_security_bound(base: QuantumChannel,
                           per_node: Mapping[int, QuantumChannel],
                           distance=None) -> float:
    """Anonymity degradation bound when node channels deviate from a
    common base: (number of nodes) x (largest single-channel distance),
    channel_distance unless another distance is given.  With
    diamond_distance the bound is sound for inputs entangled with the
    other nodes, as the W state's are."""
    if not per_node:
        return 0.0
    distance = distance or channel_distance  # looked up per call
    worst = max(distance(base, ch) for ch in per_node.values())
    return len(per_node) * worst


def security_report(config: NetworkConfig, adversaries: Sequence[int],
                    role: str = "sender",
                    base_channel: QuantumChannel | None = None) -> dict:
    """Full anonymity audit for a coalition: per-hypothesis views, the
    independence deviation, the guessing probability under the uniform
    prior, and (when a base channel is named) the perturbation bounds:
    epsilon_bound from the unstabilized channel distance, and the sound
    diamond_epsilon_bound from the diamond distance bound."""
    scenario = AdversaryScenario(frozenset(adversaries))
    candidates = [i for i in config.live_nodes if i not in scenario.adversary_set]
    candidates = [c for c in candidates
                  if effective_roles(config, c, role)[0] not in
                  scenario.adversary_set]
    if not candidates:
        raise ValueError("no admissible hypotheses for this coalition")
    views = [adversary_view(config, scenario, c, role) for c in candidates]
    priors = [1.0 / len(candidates)] * len(candidates)
    dev = independence_check(views)
    p_guess, certificate = _guessing_probability(views, priors, dev)
    report = {
        "role": role,
        "adversaries": sorted(scenario.adversary_set),
        "candidates": candidates,
        "uniform_prior": priors[0],
        "independence_deviation": dev,
        "guessing_probability": p_guess,
        "certificate": certificate,
        "view_total_weights": [float(sum(w for w, _ in v.values()))
                               for v in views],
    }
    if base_channel is not None:
        per_node = {i: config.channel_for(i) for i in config.live_nodes}
        eps = epsilon_security_bound(base_channel, per_node)
        report["epsilon_bound"] = eps
        report["bounded_guessing_probability"] = priors[0] + eps
        report["diamond_epsilon_bound"] = epsilon_security_bound(
            base_channel, per_node, diamond_distance)
    return report
