"""Anonymity analysis for the W-state protocol.

The central object is the adversary view: a labeled ensemble describing
everything a passive coalition observes in one run, for a hypothesised
sender (or receiver) identity.  Labels collect the classical data

* the coalition's notification bits,
* the coalition's own measurement outcomes,
* whether the honest measuring nodes saw any 1 (the veto rounds leak the
  honest-side OR to a participating coalition, so counting it is the
  conservative choice),
* the veto output,
* the masked teleport announcement: the raw Bell outcome when the
  receiver itself is corrupt, otherwise the two public masked bits,

and the attached state is the coalition's quantum side (the receiver's
carrier qubit when the receiver is corrupt, trivial otherwise).  Shares
from the XOR-sharing subroutines are excluded: for any coalition missing
at least one node they are uniform and carry no input dependence.

Anonymity holds when views for different hypotheses coincide; the checks
below quantify any gap and convert it into a guessing-probability bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Mapping, Sequence

import numpy as np

from .channels import QuantumChannel, channel_distance, diamond_distance
from .qcore import DensityMatrix, trace_distance
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


@dataclass
class LabeledEnsemble:
    """Classical label -> (weight, state) map with weight-merged insertion.

    Internally stores weight-absorbed matrices so that merging two branches
    with the same label is a plain sum.
    """

    branches: dict = field(default_factory=dict)  # label -> [weight, w*mat, labels]

    def add(self, label, weight: float, mat: np.ndarray, labels: tuple) -> None:
        if weight < _TINY:
            return
        entry = self.branches.get(label)
        if entry is None:
            self.branches[label] = [weight, weight * mat, labels]
        else:
            if entry[2] != labels:
                raise ValueError(f"label {label!r} used with mismatched registers")
            entry[0] += weight
            entry[1] = entry[1] + weight * mat

    def labels(self):
        return set(self.branches)

    def weight(self, label) -> float:
        entry = self.branches.get(label)
        return entry[0] if entry else 0.0

    def weighted_mat(self, label) -> np.ndarray | None:
        entry = self.branches.get(label)
        return entry[1] if entry else None

    def state(self, label) -> DensityMatrix:
        w, wmat, labels = self.branches[label]
        return DensityMatrix(wmat / w, labels)

    @property
    def total_weight(self) -> float:
        return float(sum(e[0] for e in self.branches.values()))


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
                   hypothesis: int, role: str = "sender") -> LabeledEnsemble:
    """Exact run-level view of the coalition under one identity hypothesis.

    Enumerates the coalition's measurement outcomes, the honest-side
    all-zero/not-all-zero split (the complement is obtained by subtraction,
    avoiding a 2^N blowup), and the teleport announcement branches.
    Branch weights over each view sum to 1.
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

    def abort_view(mat, weight):
        # a corrupt receiver keeps its carrier qubit, anyone else nothing
        if not receiver_corrupt:
            return _TRIVIAL, ()
        carrier = np.trace(mat.reshape(2, 2, 2, 2), axis1=0, axis2=2)
        return carrier / weight, ("carrier",)

    view = LabeledEnsemble()
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
            view.add(base + (1, 1, None), w_rest,
                     *abort_view(total - zero, w_rest))
        if w_zero < _TINY:
            continue
        if any(mu):
            # coalition outcome forces the abort even though honest side
            # read all zeros
            view.add(base + (0, 1, None), w_zero, *abort_view(zero, w_zero))
            continue

        # success: anonymous pair on (eff_sender, eff_receiver), teleport
        pair = DensityMatrix(zero / w_zero, (eff_sender, eff_receiver))
        if receiver_corrupt:
            branches = teleport_branches(pair, config.message_state,
                                         eff_sender, eff_receiver, "psi+")
            for m, (w_m, fixed) in enumerate(branches):
                if w_m < _TINY:
                    continue
                view.add(base + (0, 0, ("m", m)), w_zero * w_m,
                         fixed.mat / w_m, ("carrier",))
        else:
            # masked announcement: uniform two public bits
            for t in range(4):
                view.add(base + (0, 0, ("T", t)), w_zero / 4, _TRIVIAL, ())
    return view


def independence_check(views: Sequence[LabeledEnsemble]) -> float:
    """Worst pairwise deviation between views: total variation distance of
    the label/weight distributions plus the largest per-label trace
    distance between attached states.  0 means the coalition's view does
    not depend on the hypothesis at all."""
    worst = 0.0
    states = [{l: v.state(l) for l in v.labels() if v.weight(l) > _TINY}
              for v in views]
    for i in range(len(views)):
        for j in range(i + 1, len(views)):
            a, b = views[i], views[j]
            labels = a.labels() | b.labels()
            tv = 0.5 * sum(abs(a.weight(l) - b.weight(l)) for l in labels)
            td = 0.0
            for l in labels:
                if l in states[i] and l in states[j]:
                    sa, sb = states[i][l], states[j][l]
                    if sa.labels != sb.labels:
                        # mismatched registers under one label are
                        # perfectly distinguishable
                        td = 1.0
                    else:
                        td = max(td, trace_distance(sa, sb))
            worst = max(worst, tv + td)
    return worst


def _pair_helstrom(a: LabeledEnsemble, b: LabeledEnsemble,
                   pa: float, pb: float) -> float:
    total = 0.0
    for l in a.labels() | b.labels():
        wa = a.weighted_mat(l)
        wb = b.weighted_mat(l)
        if wa is None:
            wa = np.zeros(wb.shape, dtype=complex)
        if wb is None:
            wb = np.zeros(wa.shape, dtype=complex)
        A = pa * wa
        B = pb * wb
        if A.shape != B.shape:
            # different registers under one label: fully distinguishable
            total += A.trace().real + B.trace().real
            continue
        total += 0.5 * (A.trace().real + B.trace().real) + 0.5 * _tracenorm(A - B)
    return float(total)


def guessing_probability(views: Sequence[LabeledEnsemble],
                         priors: Sequence[float]) -> tuple[float, str]:
    """Optimal (or safely bounded) identification probability.

    * views independent of the hypothesis: the coalition can only output
      the most likely candidate a priori ("state-independence").
    * exactly two candidates: closed-form optimal discrimination over the
      labeled ensembles ("helstrom").
    * otherwise: max prior plus the prior-weighted trace-norm deviation of
      each view from the prior-averaged view, a valid upper bound
      ("bound-only").
    """
    return _guessing_probability(views, priors, independence_check(views))


def _guessing_probability(views: Sequence[LabeledEnsemble],
                          priors: Sequence[float], dev: float
                          ) -> tuple[float, str]:
    """guessing_probability given the views' independence deviation."""
    if len(views) != len(priors) or not views:
        raise ValueError("need one prior per view")
    priors = [float(p) for p in priors]
    if abs(sum(priors) - 1.0) > 1e-9 or min(priors) < 0:
        raise ValueError("priors must form a distribution")
    if dev <= 1e-9:
        return max(priors), "state-independence"
    if len(views) == 2:
        return _pair_helstrom(views[0], views[1], priors[0], priors[1]), "helstrom"
    # registers of different shape under one label are orthogonal sectors
    sectors = set()
    for v in views:
        for l in v.labels():
            sectors.add((l, v.weighted_mat(l).shape))
    reference = {}
    for l, shape in sectors:
        acc = np.zeros(shape, dtype=complex)
        for v, p in zip(views, priors):
            m = v.weighted_mat(l)
            if m is not None and m.shape == shape:
                acc += p * m
        reference[(l, shape)] = acc
    bound = max(priors)
    for v, p in zip(views, priors):
        deviation = 0.0
        for (l, shape), ref in reference.items():
            m = v.weighted_mat(l)
            if m is None or m.shape != shape:
                m = np.zeros(shape, dtype=complex)
            deviation += _tracenorm(m - ref)
        bound += p * deviation
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


def permutation_invariance_check(rho: DensityMatrix, subset: Sequence) -> float:
    """Largest trace distance between the state and any transposition of
    two subset qubits; 0 certifies permutation invariance over the subset."""
    subset = list(subset)
    for q in subset:
        if q not in rho.labels:
            raise ValueError(f"{q!r} is not a register label")
    worst = 0.0
    for i in range(len(subset)):
        for j in range(i + 1, len(subset)):
            order = list(rho.labels)
            ia, ib = order.index(subset[i]), order.index(subset[j])
            order[ia], order[ib] = order[ib], order[ia]
            swapped = DensityMatrix(rho.permuted(tuple(order)).mat, rho.labels)
            worst = max(worst, trace_distance(rho, swapped))
    return worst


def security_report(config: NetworkConfig, adversaries: Sequence[int],
                    role: str = "sender",
                    base_channel: QuantumChannel | None = None) -> dict:
    """Full anonymity audit for a coalition: per-hypothesis views, the
    independence deviation, the guessing probability under the uniform
    prior, and (when a base channel is named) the perturbation bounds:
    epsilon_bound from the unstabilized channel distance and, when every
    channel is a Pauli channel, diamond_epsilon_bound from the diamond
    distance."""
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
        "view_total_weights": [v.total_weight for v in views],
    }
    if base_channel is not None:
        per_node = {i: config.channel_for(i) for i in config.live_nodes}
        eps = epsilon_security_bound(base_channel, per_node)
        report["epsilon_bound"] = eps
        report["bounded_guessing_probability"] = priors[0] + eps
        try:
            report["diamond_epsilon_bound"] = epsilon_security_bound(
                base_channel, per_node, diamond_distance)
        except ValueError:
            pass  # a non-Pauli channel: no sound value, so none is reported
    return report
