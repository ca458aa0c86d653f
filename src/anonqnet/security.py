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

With an honest sender every hypothesis shares one site, so one
pullback_pairs sweep gives all views (adversary_views).  Anonymity holds
when views for different hypotheses coincide; the checks below quantify any
gap over all views at once, with closed-form trace norms, and convert it
into a guessing-probability bound.  security_report's verdict adds, when
node channels deviate from a common base, the diamond-distance perturbation
bound, which stays sound for the W state's entangled inputs.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Mapping, Sequence

import numpy as np

from .analytic import BELL_RESOURCE
from .channels import QuantumChannel, channel_distance, diamond_distance
from .protocols import (NetworkConfig, outcome_transfers, pullback_pairs,
                        teleport_branches)

_TINY = 1e-14

ADVERSARY_NODE_CAP = 7  # guards no cost now; bench/tests pins the refusal


_TRIVIAL = np.array([[1.0 + 0j]])
_CORRUPT_SENDER = "a corrupt sender knows its own identity already"


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


def adversary_views(config: NetworkConfig, adversaries: Sequence[int],
                    hypotheses: Sequence[int], role: str = "sender") -> list:
    """Exact run-level views of the coalition (its node ids), one per
    identity hypothesis, each a dict label -> (weight, weight x block).

    Enumerates the coalition's measurement outcomes, the honest-side
    all-zero/not-all-zero split (the complement is obtained by subtraction,
    avoiding a 2^N blowup), and the teleport announcement branches.  The
    coalition outcome mu is in every label, so each label arises once, and
    a view's weights sum to 1.  The sender must be honest, so all hypotheses
    share one fixed site and one pullback_pairs sweep reads every pair.
    """
    if config.n_nodes > ADVERSARY_NODE_CAP:
        raise ValueError(
            f"adversary analysis is capped at {ADVERSARY_NODE_CAP} nodes"
        )
    adv = frozenset(adversaries)
    if not adv <= set(config.live_nodes):
        raise ValueError("adversaries must be live nodes")
    roles = []
    for h in hypotheses:
        if h in adv or h not in config.live_nodes:
            raise ValueError("hypothesis must be a live non-adversary node")
        roles.append(effective_roles(config, h, role))
    if config.sender in adv or any(s in adv for s, _ in roles):
        raise ValueError(_CORRUPT_SENDER)
    fixed = config.receiver if role == "sender" else config.sender
    adv_meas = [i for i in config.live_nodes if i in adv and i != fixed]
    honest = [i for i in config.live_nodes if i not in adv and i != fixed]
    mus = list(product((0, 1), repeat=len(adv_meas)))
    # per outcome mu: the honest outcomes summed over (total), all zero
    strings = []
    for mu in mus:
        coalition = dict(zip(adv_meas, mu))
        strings += [coalition, {**coalition, **dict.fromkeys(honest, 0)}]
    pairs = pullback_pairs(config, outcome_transfers(config, strings), fixed,
                           [r if s == fixed else s for s, r in roles])
    views = []
    for j, (s, r) in enumerate(roles):
        x = pairs[:, j]
        if s == fixed:  # (open, fixed) = (receiver, sender): swap
            x = x[:, [0, 2, 1, 3]][..., [0, 2, 1, 3]]
        views.append(_view(config, adv, r, mus, x[0::2], x[1::2]))
    return views


def _view(config: NetworkConfig, adv: frozenset, eff_receiver: int, mus: list,
          totals: np.ndarray, zeros: np.ndarray) -> dict:
    """One hypothesis's view from its pairs per coalition outcome mu."""
    receiver_corrupt = eff_receiver in adv
    rn_bits = tuple(int(i == eff_receiver) for i in sorted(adv))
    view = {}

    def add(label, weight, block):
        if weight >= _TINY:
            view[label] = (weight, weight * block)

    def abort(label, mat, weight):
        # a corrupt receiver keeps its carrier qubit, anyone else nothing
        if receiver_corrupt:
            carrier = np.trace(mat.reshape(2, 2, 2, 2), axis1=0, axis2=2)
            add(label, weight, carrier / weight)
        else:
            add(label, weight, _TRIVIAL)

    for mu, total, zero in zip(mus, totals, zeros):
        w_mu = float(np.trace(total).real)
        if w_mu < _TINY:
            continue
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
            weights, branches = teleport_branches(
                zero / w_zero, config.message_state.amps, BELL_RESOURCE["W"])
            for m, (w_m, fixed) in enumerate(zip(weights, branches)):
                if w_m >= _TINY:
                    add(base + (0, 0, ("m", m)), w_zero * w_m, fixed / w_m)
        else:
            # success, masked announcement: uniform two public bits
            for t in range(4):
                add(base + (0, 0, ("T", t)), w_zero / 4, _TRIVIAL)
    return view


def _stacked(views: Sequence[dict]) -> tuple[np.ndarray, np.ndarray]:
    """The views over every (label, block shape) key, in first-seen order:
    C x K weights and C x K x d x d weighted blocks (a 1x1 block in the
    corner when d = 2), zero where a view lacks the key.  A label carried
    on two registers is thus two orthogonal sectors.  A report stacks its
    _Views once."""
    if getattr(views, "stacking", None):
        return views.stacking
    keys = dict.fromkeys((label, block.shape) for v in views
                         for label, (_, block) in v.items())
    d = max((shape[0] for _, shape in keys), default=1)
    weights = np.zeros((len(views), len(keys)))
    blocks = np.zeros((len(views), len(keys), d, d), dtype=complex)
    for c, v in enumerate(views):
        for k, (label, (r, s)) in enumerate(keys):
            if label in v and v[label][1].shape == (r, s):
                weights[c, k] = v[label][0]
                blocks[c, k, :r, :s] = v[label][1]
    if isinstance(views, _Views):
        views.stacking = weights, blocks
    return weights, blocks


class _Views(list):
    stacking = None  # one report's views keep their _stacked arrays


def _trace_norms(x: np.ndarray) -> np.ndarray:
    """Trace norms of the Hermitian parts of stacked 1x1 or 2x2 blocks, in
    closed form: |a|, or max(|a + d|, sqrt((a - d)^2 + 4|b|^2))."""
    a = x[..., 0, 0].real
    if x.shape[-1] == 1:
        return np.abs(a)
    d, b = x[..., 1, 1].real, (x[..., 0, 1] + x[..., 1, 0].conj()) / 2
    return np.maximum(np.abs(a + d), np.hypot(a - d, 2 * np.abs(b)))


def independence_check(views: Sequence[dict]) -> float:
    """Worst pairwise deviation between views: total variation distance of
    the label/weight distributions plus the largest per-label trace
    distance between attached states.  0 means the coalition's view does
    not depend on the hypothesis at all."""
    weights, blocks = _stacked(views)
    states = blocks / np.where(weights > 0, weights, 1.0)[..., None, None]
    tv = 0.5 * np.abs(weights[:, None] - weights[None]).sum(-1)
    both = (weights[:, None] > 0) & (weights[None] > 0)
    td = 0.5 * np.where(both, _trace_norms(states[:, None] - states[None]),
                        0.0).max(-1, initial=0.0)
    return float((tv + td).max(initial=0.0))


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
    priors = np.asarray(priors, dtype=float)
    if abs(priors.sum() - 1.0) > 1e-9 or priors.min() < 0:
        raise ValueError("priors must form a distribution")
    if dev <= 1e-9:
        return float(priors.max()), "state-independence"
    _, blocks = _stacked(views)
    if len(views) == 2:
        a, b = priors[:, None, None, None] * blocks
        return (float(0.5 * np.trace(a + b, axis1=1, axis2=2).real.sum()
                      + 0.5 * _trace_norms(a - b).sum()), "helstrom")
    reference = np.einsum("c,ckij->kij", priors, blocks)
    bound = priors.max() + priors @ _trace_norms(blocks - reference).sum(-1)
    return float(bound), "bound-only"


@lru_cache(maxsize=16)  # an audit's at most 7 channels under 2 distances
def _measured(distance, a: QuantumChannel, b: QuantumChannel) -> float:
    """distance(a, b), kept per (distance, a, b): the roles of one audit
    measure the same channels, whose Kraus operators are read-only."""
    return distance(a, b)


def epsilon_security_bound(base: QuantumChannel,
                           per_node: Mapping[int, QuantumChannel],
                           distance=None) -> float:
    """Anonymity degradation bound when node channels deviate from a
    common base: (number of nodes) x (largest single-channel distance),
    channel_distance unless another distance is given.  With
    diamond_distance the bound is sound for inputs entangled with the
    other nodes, as the W state's are.  Each distinct channel object is
    measured once; one with the base's Kraus operators is at distance 0."""
    distance = distance or channel_distance  # looked up per call
    worst = max((_measured(distance, base, ch) for ch in dict.fromkeys(per_node.values())
                 if not np.array_equal(ch.kraus_ops, base.kraus_ops)),
                default=0.0)
    return len(per_node) * worst


def security_report(config: NetworkConfig, adversaries: Sequence[int],
                    role: str = "sender",
                    base_channel: QuantumChannel | None = None) -> dict:
    """Full anonymity audit for a coalition: per-hypothesis views, the
    independence deviation, the guessing probability under the uniform
    prior, and (when a base channel is named) the perturbation bounds:
    epsilon_bound from the unstabilized channel distance, and the sound
    diamond_epsilon_bound from the diamond distance bound.  Last comes the
    verdict holds: guess <= prior + diamond bound (0 with no base channel)."""
    adv = frozenset(adversaries)
    if config.sender in adv:
        raise ValueError(_CORRUPT_SENDER)
    candidates = [c for c in config.live_nodes if c not in adv
                  and effective_roles(config, c, role)[0] not in adv]
    if not candidates:
        raise ValueError("no admissible hypotheses for this coalition")
    views = _Views(adversary_views(config, adv, candidates, role))
    priors = [1.0 / len(candidates)] * len(candidates)
    dev = independence_check(views)
    p_guess, certificate = _guessing_probability(views, priors, dev)
    report = {
        "role": role,
        "adversaries": sorted(adv),
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
    report["holds"] = (p_guess <= priors[0]
                       + report.get("diamond_epsilon_bound", 0.0) + 1e-9)
    return report
