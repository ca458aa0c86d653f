"""Anonymity analysis for the W-state protocol.

The central object is the adversary view: everything a passive coalition
observes in one run, for a hypothesised sender (or receiver) identity:
a weight and a weighted quantum block per label.  Labels collect the
classical data

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
pullback_pairs sweep gives all views, and adversary_views returns them
as arrays over one list of labels (C x K weights, C x K x d x d weighted
blocks), the one format the checks read.  Anonymity holds when views for
different hypotheses coincide; independence_check and
guessing_probability quantify any gap over all views at once, with
closed-form trace norms, as a guessing-probability bound.
security_report's verdict adds, when node channels deviate from a common
base, the perturbation bound: the sum of the nodes' diamond distances to
the base, which stays sound for the W state's entangled inputs.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Mapping, Sequence

import numpy as np

from .analytic import BELL_RESOURCE
from .channels import QuantumChannel, diamond_distance
from .protocols import (NetworkConfig, _teleport_ops, outcome_transfers,
                        pullback_pairs)

_TINY = 1e-14
ADVERSARY_NODE_CAP = 7  # guards no cost now; bench/tests pins the refusal
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
                    hypotheses: Sequence[int], role: str = "sender"
                    ) -> tuple[list, np.ndarray, np.ndarray]:
    """Exact run-level views of the coalition (its node ids), one per
    identity hypothesis, as (labels, weights, blocks) over one list of
    labels: C x K weights and C x K x d x d weighted blocks, 0 where a
    label weighs under _TINY.  The block is the corrupt receiver's carrier
    qubit (d = 2), or trivial (d = 1).

    Enumerates the coalition's measurement outcomes mu, the honest-side
    all-zero/not-all-zero split (the complement is obtained by subtraction,
    avoiding a 2^N blowup), and the teleport announcement branches.  The
    coalition outcome mu is in every label, so each label arises once, and
    a view's weights sum to 1.  The sender must be honest, so all hypotheses
    share one fixed site and one pullback_pairs sweep reads every pair.
    """
    adv = frozenset(adversaries)
    if config.n_nodes > ADVERSARY_NODE_CAP:
        raise ValueError(f"adversary analysis is capped at {ADVERSARY_NODE_CAP} nodes")
    live = config.live_nodes
    if not adv <= set(live):
        raise ValueError("adversaries must be live nodes")
    roles = []
    for h in hypotheses:
        if h in adv or h not in live:
            raise ValueError("hypothesis must be a live non-adversary node")
        roles.append(effective_roles(config, h, role))
    if config.sender in adv or any(s in adv for s, _ in roles):
        raise ValueError(_CORRUPT_SENDER)
    # the fixed site is the configured receiver (sender role) or the honest
    # sender; the effective receiver is corrupt exactly when it is fixed
    fixed = config.receiver if role == "sender" else config.sender
    corrupt = fixed in adv
    adv_meas = [i for i in live if i in adv and i != fixed]
    honest = [i for i in live if i not in adv and i != fixed]
    mus = list(product((0, 1), repeat=len(adv_meas)))
    # per outcome mu: the honest outcomes summed over (total), all zero
    strings = []
    for mu in mus:
        coalition = dict(zip(adv_meas, mu))
        strings += [coalition, {**coalition, **dict.fromkeys(honest, 0)}]
    # (open, fixed) pairs: with a corrupt receiver the open site is the
    # sender, else only the traces are read, so no pair is swapped
    pairs = pullback_pairs(config, outcome_transfers(config, strings), fixed,
                           [r if s == fixed else s for s, r in roles]).swapaxes(0, 1)
    traces = np.einsum("cbii->cb", pairs).real
    w_mu, w_zero = traces[:, 0::2], traces[:, 1::2]
    seen = w_mu >= _TINY
    w_rest = np.where(seen & (w_mu - w_zero > _TINY), w_mu - w_zero, 0.0)
    w_zero = np.where(seen & (w_zero >= _TINY), w_zero, 0.0)
    rn_bits = tuple(int(i == fixed) for i in sorted(adv))
    # the events, each a slice of the labels: the honest side saw a 1; the
    # coalition's outcome forces the abort; success (mu all zero) with the
    # raw Bell outcome m (corrupt receiver) or the masked announcement t
    labels = ([(rn_bits, mu, 1, 1, None) for mu in mus]
              + [(rn_bits, mu, 0, 1, None) for mu in mus[1:]]
              + [(rn_bits, mus[0], 0, 0, ("m" if corrupt else "T", t))
                 for t in range(4)])
    if corrupt:  # the receiver keeps its carrier qubit
        carriers = np.einsum("cbsasd->cbad", pairs.reshape(-1, len(strings), 2, 2, 2, 2))
        ops = _teleport_ops(config.message_state.tobytes(), BELL_RESOURCE["W"])
        success = ops @ pairs[:, 1, None] @ ops.conj().transpose(0, 2, 1)
        blocks = np.concatenate([carriers[:, 0::2] - carriers[:, 1::2],
                                 carriers[:, 3::2], success], 1)
        w_success = np.einsum("ctii->ct", success).real
    else:
        w_success = np.repeat(w_zero[:, :1] / 4, 4, 1)
    weights = np.concatenate([w_rest, w_zero[:, 1:], np.where(
        (w_zero[:, :1] > 0) & (w_success >= _TINY), w_success, 0.0)], 1)
    if corrupt:
        return labels, weights, np.where(weights[..., None, None] > 0, blocks, 0)
    return labels, weights, weights[..., None, None].astype(complex)


def _check(blocks: np.ndarray, weights: np.ndarray | None = None) -> None:
    """Refuses blocks other than C x K x d x d, d = 1 or 2, over C x K weights."""
    if blocks.shape[2:] not in ((1, 1), (2, 2)):
        raise ValueError("blocks must be C x K x d x d with d = 1 or 2")
    if weights is not None and weights.shape != blocks.shape[:2]:
        raise ValueError("weights must be C x K, the first axes of blocks")


def _trace_norms(x: np.ndarray) -> np.ndarray:
    """Trace norms of the Hermitian parts of stacked 1x1 or 2x2 blocks, in
    closed form: |a|, or max(|a + d|, sqrt((a - d)^2 + 4|b|^2))."""
    a = x[..., 0, 0].real
    if x.shape[-1] == 1:
        return np.abs(a)
    d, b = x[..., 1, 1].real, (x[..., 0, 1] + x[..., 1, 0].conj()) / 2
    return np.maximum(np.abs(a + d), np.hypot(a - d, 2 * np.abs(b)))


def independence_check(weights: np.ndarray, blocks: np.ndarray) -> float:
    """Worst pairwise deviation between views, adversary_views' weights and
    blocks: total variation distance of the label/weight distributions plus
    the largest per-label trace distance between attached states.  0 means
    the coalition's view does not depend on the hypothesis at all."""
    _check(blocks, weights)
    states = blocks / np.where(weights > 0, weights, 1.0)[..., None, None]
    tv = 0.5 * np.abs(weights[:, None] - weights[None]).sum(-1)
    both = (weights[:, None] > 0) & (weights[None] > 0)
    td = 0.5 * np.where(both, _trace_norms(states[:, None] - states[None]),
                        0.0).max(-1, initial=0.0)
    return float((tv + td).max(initial=0.0))


def guessing_probability(blocks: np.ndarray, priors: Sequence[float],
                         deviation: float) -> tuple[float, str]:
    """Optimal (or safely bounded) identification probability from the
    views' weighted blocks, given their independence_check deviation.

    * views independent of the hypothesis, by deviation and by the blocks'
      largest entrywise spread from the first view: the coalition can only
      output the most likely candidate a priori ("state-independence").
    * exactly two candidates: closed-form optimal discrimination over the
      labeled blocks ("helstrom").
    * otherwise: max prior plus the prior-weighted trace-norm deviation of
      each view from the prior-averaged view, a valid upper bound
      ("bound-only").
    """
    _check(blocks)
    if len(blocks) != len(priors) or not len(blocks):
        raise ValueError("need one prior per view")
    priors = np.asarray(priors, dtype=float)
    if abs(priors.sum() - 1.0) > 1e-9 or priors.min() < 0:
        raise ValueError("priors must form a distribution")
    if deviation <= 1e-9 and np.abs(blocks - blocks[0]).max(initial=0.0) <= 1e-9:
        return float(priors.max()), "state-independence"
    if len(blocks) == 2:
        a, b = priors[:, None, None, None] * blocks
        return (float(0.5 * np.trace(a + b, axis1=1, axis2=2).real.sum()
                      + 0.5 * _trace_norms(a - b).sum()), "helstrom")
    reference = np.einsum("c,ckij->kij", priors, blocks)
    bound = priors.max() + priors @ _trace_norms(blocks - reference).sum(-1)
    return float(bound), "bound-only"


@lru_cache(maxsize=16)  # an audit's at most 7 channels
def _measured(a: QuantumChannel, b: QuantumChannel) -> float:
    """diamond_distance(a, b), kept per (a, b): the roles of one audit
    measure the same channels, whose Kraus operators are read-only."""
    return diamond_distance(a, b)


def epsilon_security_bound(base: QuantumChannel,
                           per_node: Mapping[int, QuantumChannel]) -> float:
    """Anonymity degradation bound when node channels deviate from a
    common base: the sum over nodes of diamond_distance(base, channel).

    Each view post-processes the network state, so swapping one node's
    channel for the base at a time moves view c by
    ||sigma_c - sigma_c^base||_1 <= sum_i ||Phi_i - Phi_base||_diamond,
    which holds on inputs entangled with the other nodes, as the W
    state's are.  Each distinct channel object is measured once; one
    with the base's Kraus operators is at distance 0."""
    return sum((_measured(base, ch) for ch in per_node.values()
                if not np.array_equal(ch.kraus_ops, base.kraus_ops)), 0.0)


def security_report(config: NetworkConfig, adversaries: Sequence[int],
                    role: str = "sender",
                    base_channel: QuantumChannel | None = None) -> dict:
    """Full anonymity audit for a coalition: per-hypothesis views, the
    independence deviation, the guessing probability under the uniform
    prior, and (when a base channel is named) diamond_epsilon_bound, the
    perturbation bound of epsilon_security_bound over the live nodes.  Last
    comes the verdict holds: guess <= prior + that bound (0 with no base
    channel)."""
    adv = frozenset(adversaries)
    if config.sender in adv:
        raise ValueError(_CORRUPT_SENDER)
    candidates = [c for c in config.live_nodes if c not in adv
                  and effective_roles(config, c, role)[0] not in adv]
    if not candidates:
        raise ValueError("no admissible hypotheses for this coalition")
    _, weights, blocks = adversary_views(config, adv, candidates, role)
    priors = [1.0 / len(candidates)] * len(candidates)
    dev = independence_check(weights, blocks)
    p_guess, certificate = guessing_probability(blocks, priors, dev)
    report = {
        "role": role,
        "adversaries": sorted(adv),
        "candidates": candidates,
        "uniform_prior": priors[0],
        "independence_deviation": dev,
        "guessing_probability": p_guess,
        "certificate": certificate,
        "view_total_weights": weights.sum(1).tolist(),
    }
    if base_channel is not None:
        per_node = {i: config.channel_for(i) for i in config.live_nodes}
        report["diamond_epsilon_bound"] = epsilon_security_bound(base_channel, per_node)
    report["holds"] = (p_guess <= priors[0]
                       + report.get("diamond_epsilon_bound", 0.0) + 1e-9)
    return report
