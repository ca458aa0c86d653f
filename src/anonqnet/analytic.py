"""Closed-form fidelity and success-probability results for the anonymous
entanglement protocols, plus a structured evaluator (structured_pair) that
sums the post-selected sender-receiver pair of any NetworkConfig, one
single-qubit channel per node and lost nodes included, independently of
the protocols module's transfer engine, and threshold root finding.

Formula conventions: q is the noise parameter (q=1 noiseless), n the node
count.  Fidelity is always against the protocol's maximally entangled
target; "useful" means fidelity strictly above 1/2.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .channels import z_defect

PAIR_LABELS = ("sender", "receiver")

W_DEPOL = ("W", "depolarizing")
GHZ_DEPOL = ("GHZ", "depolarizing")
W_DEPH = ("W", "dephasing")
GHZ_DEPH = ("GHZ", "dephasing")


@dataclass(frozen=True)
class FidelityReport:
    """Analytic summary for one (protocol, channel, n) point."""

    protocol: str  # "W" | "GHZ" | "W_loss"
    channel: str
    n_nodes: int
    fidelity: float
    success_probability: float

    def __post_init__(self):
        if not -1e-12 <= self.fidelity <= 1 + 1e-12:
            raise ValueError(f"fidelity {self.fidelity} outside [0,1]")
        if not -1e-12 <= self.success_probability <= 1 + 1e-12:
            raise ValueError(
                f"success probability {self.success_probability} outside [0,1]"
            )

    @property
    def useful(self) -> bool:
        return self.fidelity > 0.5


def f_ae_w_dephasing(q: float) -> float:
    """Pair fidelity for the W protocol under uniform dephasing; independent
    of the network size."""
    return 1 - 2 * q * (1 - q)


def f_ae_ghz_dephasing(q: float, n: int) -> float:
    return (1 + (2 * q - 1) ** n) / 2


def f_ae_w_depolarizing(q: float, n: int) -> float:
    return (1 + q) * (n * (q - 1) ** 2 + 4 * q * (1 + q)) / (4 * (n * (1 - q) + 4 * q))


def f_ae_ghz_depolarizing(q: float, n: int) -> float:
    return (2 * q**n + q**2 + 1) / 4


def p_success_w(channel: str, q: float, n: int) -> float:
    """Probability that all n-2 measuring nodes read 0 in the W protocol.

    Dephasing preserves computational-basis populations, so the value is
    exactly 2/n for every q.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if channel == "dephasing":
        return 2.0 / n
    if channel == "depolarizing":
        return ((q + 1) / 2) ** (n - 3) * (n * (1 - q) + 4 * q) / (2 * n)
    raise ValueError(f"unsupported channel {channel!r}")


def f_ae_w_loss(channel: str, q: float, n: int) -> float:
    """Closed-form pair fidelity for the W protocol with one lost measuring
    node.

    Note on semantics: this is the loss-branch-averaged fidelity
    ((n-1)/n) * F_noloss(q, n) + (1/n) * <pair| L(|0><0|) x L(|0><0|) |pair>,
    i.e. the no-loss fidelity mixed with the lost-excitation term at the
    a-priori loss weights.  It is NOT the fidelity of the conditional
    post-selected state (run the protocol simulator for that); at q=1 the
    conditional value is 2/3 while this average is (n-1)/n.
    """
    if n < 4:
        raise ValueError("need n >= 4 with one lost measuring node")
    if channel == "dephasing":
        return (n - 1) / n * (1 - 2 * q * (1 - q))
    if channel == "depolarizing":
        return (
            (1 + q)
            * (n**2 * (q - 1) ** 2 - 8 * q**2 + 4 * n * q * (1 + q))
            / (4 * n * (n * (1 - q) + 4 * q))
        )
    raise ValueError(f"unsupported channel {channel!r}")


def p_success_w_loss(channel: str, q: float, n: int) -> float:
    """Exact Born weight of the all-zeros branch with one lost measuring
    node: the survivors hold ((n-1)/n) W_{n-1} + (1/n) vacuum, so the weight
    is ((n-1)/n) P_noloss(n-1) + (1/n) tr00^(n-3).  Equals 3/n at q=1."""
    if n < 4:
        raise ValueError("need n >= 4 with one lost measuring node")
    if channel == "dephasing":
        tr00_pow = 1.0
    elif channel == "depolarizing":
        tr00_pow = ((1 + q) / 2) ** (n - 3)
    else:
        raise ValueError(f"unsupported channel {channel!r}")
    return (n - 1) / n * p_success_w(channel, q, n - 1) + tr00_pow / n


class ProtocolImpossibleError(RuntimeError):
    """The requested protocol cannot run in this configuration at all."""


def _refuse_lost_ghz(config) -> None:
    """The one refusal of a GHZ pair with a lost node, for every route."""
    if config.lost_nodes:
        raise ProtocolImpossibleError("a lost node leaves the GHZ protocol with"
                                      " a separable state; it cannot be carried out")


def _normalized_pair(raw: np.ndarray) -> tuple[float, np.ndarray]:
    """Born weight and normalized 4x4 pair; a weight that is not a positive
    normal float (the W weight falls like ((1 + q)/2)^N) is refused."""
    weight = float(np.trace(raw).real)
    if not weight >= np.finfo(float).tiny:
        raise ValueError(f"Born weight {weight:g} underflows double "
                         "precision; use the closed-form evaluators")
    return weight, raw / weight


_UNITS = np.eye(4).reshape(2, 2, 2, 2)  # |x><y| at [x, y]


def structured_pair(config, protocol: str) -> tuple[float, np.ndarray]:
    """Born weight and normalized (sender, receiver) pair of a "W" or "GHZ"
    NetworkConfig's post-selected branch, as sums and products over the
    nodes: an independent route to protocols.exact_pair, which walks a
    transfer environment node by node.  Measuring nodes read 0 (W) or +
    (GHZ), lost nodes are traced out, and each distinct channel object is
    read once, with its node count as an exponent or a multiplicity.  The
    sender's and receiver's channels give out_xy = Φ(|x><y|) in each sum.

    W: each measuring node j contributes t_xy,j = <0|Φ_j(|x><y|)|0>, a lost
    node the trace (1, 0, 0, 1).  With P = Π t00_j, r_xy = Σ t_xy,j / t00_j
    and c = Σ t10,j t01,j / t00_j², n times the raw pair is

        P [ (r10 r01 - c + r11) out00 x out00 + r10 (out01 x out00
            + out00 x out01) + r01 (out10 x out00 + out00 x out10)
            + out01 x out10 + out10 x out01 + out00 x out11 + out11 x out00 ]

    (the excitation on S, R or a node j, in the ket and in the bra).  A
    node with t00 = 0 is refused.

    GHZ: the all-|+> branch, (1/2) Σ_xy Π_j <+|Φ_j(|x><y|)|+> out_xy x
    out_xy.  Each factor is summed doubled, so the pair stays in range at
    any n, and the weight is halved back: 2^-(n-2) under covariant channels,
    0.0 once that leaves the double range.  Every node but the sender must
    commute with Z conjugation, Z out_xy Z = (-1)^(x+y) out_xy (Pauli
    channels, amplitude damping), to z_defect 1e-12: the protocol then
    corrects every branch onto this pair, so it never aborts (exact_pair's
    weight is 1).  A lost node is refused as exact_pair refuses it.
    """
    s, r = config.sender, config.receiver
    counts = Counter(config.channel_for(j) for j in config.live_nodes if j not in (s, r))
    out_s, out_r = config.channel_for(s)(_UNITS), config.channel_for(r)(_UNITS)
    if protocol == "W":
        ts = [(ch(_UNITS)[..., 0, 0], m) for ch, m in counts.items()]
        if any(t[0, 0] == 0 for t, _ in ts):
            raise ValueError("a measuring node's channel sends |0> wholly to |1>"
                             " (t00 = 0); use protocols.exact_pair")
        ratio = len(config.lost_nodes) * np.eye(2) + sum(m * t / t[0, 0] for t, m in ts)
        # [x_S, x_R] of the ket's excitation: on a node j (r10), on R or on S;
        # the bra's alike with r01, and on one node j in both, r11 - c
        ket, bra = np.array([[ratio[1, 0], 1], [1, 0]]), np.array([[ratio[0, 1], 1], [1, 0]])
        coef = np.einsum("ac,bd->abcd", ket, bra)  # [x_S, y_S, x_R, y_R]
        coef[0, 0, 0, 0] += ratio[1, 1] - sum(m * t[1, 0] * t[0, 1] / t[0, 0] ** 2 for t, m in ts)
        coef *= np.prod([t[0, 0] ** m for t, m in ts]) / config.n_nodes
    elif protocol == "GHZ":
        _refuse_lost_ghz(config)
        if any(z_defect(ch) > 1e-12 for ch in {*counts, config.channel_for(r)}):
            raise ValueError("the structured GHZ pair needs channels that commute with"
                             " Z conjugation at every node but the sender; use"
                             " protocols.exact_pair")
        plus = np.prod([ch(_UNITS).sum((2, 3)) ** m for ch, m in counts.items()], 0)
        coef = np.einsum("ab,ac,bd->abcd", plus / 2, np.eye(2), np.eye(2))
    else:
        raise ValueError(f"unsupported protocol {protocol!r}")
    weight, pair = _normalized_pair(np.einsum("abcd,abij,cdkl->ikjl", coef, out_s,
                                              out_r).reshape(4, 4))
    # GHZ's factors are 2<+|Φ_j(|x><y|)|+>: its weight halves back once per node
    return (math.ldexp(weight, -sum(counts.values())) if protocol == "GHZ" else weight), pair


# pair fidelity (q, n) -> F per (protocol, channel family)
_FORMULAS = {
    W_DEPOL: f_ae_w_depolarizing,
    GHZ_DEPOL: f_ae_ghz_depolarizing,
    W_DEPH: lambda q, n: f_ae_w_dephasing(q),
    GHZ_DEPH: f_ae_ghz_dephasing,
}


def fidelity_report(protocol: str, channel: str, q: float, n: int) -> FidelityReport:
    """Closed-form FidelityReport for the named protocol/channel families."""
    if protocol == "W_loss":
        f, p = f_ae_w_loss(channel, q, n), p_success_w_loss(channel, q, n)
    elif (protocol, channel) in _FORMULAS:
        f = _FORMULAS[protocol, channel](q, n)
        # GHZ is deterministic: every measurement branch is corrected
        p = p_success_w(channel, q, n) if protocol == "W" else 1.0
    else:
        raise ValueError(f"unsupported protocol {protocol!r} or channel {channel!r}")
    return FidelityReport(protocol, f"{channel}:q={q:g}", n, f, p)


def threshold_q(formula: tuple, n):
    """Smallest q in [0.5, 1] with pair fidelity 1/2 (usefulness threshold).

    ``formula`` is a (protocol, channel family) pair such as W_DEPOL, i.e.
    ("W", "depolarizing"); the four pairs of W or GHZ with dephasing or
    depolarizing noise are supported.

    All supported formulas are nondecreasing in q on [0.5, 1], so when the
    left edge already sits at or above 1/2 (the dephasing forms touch 1/2
    exactly at q=0.5) the threshold is the edge itself; otherwise bisection
    halves [0.5, 1] to a bracket at most 1e-12 wide and returns its midpoint.
    The search is restricted to [0.5, 1] because the dephasing-W formula is
    symmetric about q=0.5 and the interesting regime is high q.

    ``n`` is the node count, an int (giving a float) or an integer array
    (giving an array): the source prepares an n-qubit resource state and
    each qubit crosses one channel.  An array is bisected in one pass, each
    bracket its lower end plus the one width all share, so each value has
    the bits it has alone.  A dense n-node run at the returned q gives a pair
    fidelity of 1/2 (checked against the dense simulator).
    """
    ns = np.atleast_1d(n)
    if np.any(ns < 3):
        raise ValueError("need n >= 3")
    if formula not in _FORMULAS:
        raise ValueError(f"unknown formula {formula!r}")
    f = _FORMULAS[formula]
    if np.any(f(np.ones(ns.shape), ns) < 0.5):
        raise ValueError("fidelity below 1/2 at q=1; no usefulness threshold")
    qs = np.full(ns.shape, 0.5)
    inner = f(qs, ns) - 0.5 < -1e-12  # the rest sit at the edge q=0.5
    m = ns[inner].astype(float)  # cast once, not in every step
    # [lo, lo + width] halves from [0.5, 1]: its dyadic ends add exactly
    lo, width = np.full(m.shape, 0.5), 0.5
    while m.size and width > 1e-12:
        width /= 2
        mid = lo + width
        lo = np.where(f(mid, m) <= 0.5, mid, lo)
    qs[inner] = lo + width / 2
    return float(qs[0]) if np.ndim(n) == 0 else qs


def crossover_n(n_max: int = 400, table: tuple | None = None) -> int:
    """Smallest network size at which the W protocol's depolarizing
    usefulness threshold exceeds the GHZ protocol's.

    The size is the node count of :func:`threshold_q`: an n-qubit resource
    state with one channel per qubit, checked against the dense simulator.
    Both families are bisected once over all sizes 4..n_max, with the same
    bits as one size at a time, unless table gives (ascending sizes, W
    thresholds, GHZ thresholds) already bisected over sizes covering them.
    """
    if table is None:
        ns = np.arange(4, n_max + 1)
        table = ns, threshold_q(W_DEPOL, ns), threshold_q(GHZ_DEPOL, ns)
    ns, qw, qg = table
    later = np.flatnonzero((qw > qg) & (ns <= n_max))
    if not later.size:
        raise RuntimeError(f"no crossover found up to n={n_max}")
    return int(ns[later[0]])


# the Bell pair a noiseless run shares, which its teleport corrections assume
BELL_RESOURCE = {"W": "psi+", "W_loss": "psi+", "GHZ": "phi+", "relay": "phi+"}
_TARGETS = {"psi+": np.array([0, 1, 1, 0]) / np.sqrt(2) + 0j,
            "phi+": np.array([1, 0, 0, 1]) / np.sqrt(2) + 0j}
for _target in _TARGETS.values():
    _target.flags.writeable = False  # pair_target hands these to every caller


def pair_target(protocol: str) -> np.ndarray:
    """The amplitudes of the Bell pair the fidelity is measured against:
    (|01>+|10>)/sqrt(2) for the W protocol, (|00>+|11>)/sqrt(2) otherwise."""
    return _TARGETS[BELL_RESOURCE[protocol]]


def pair_fidelity(pair: np.ndarray, protocol: str) -> float:
    """<t| pair |t> of a normalized 4x4 (sender, receiver) pair, sender the
    high bit, with the protocol's target t."""
    t = pair_target(protocol)
    return float(np.real(t.conj() @ pair @ t))


def f_ae_relay_depolarizing(q: float, n: int, sender: int, receiver: int) -> float:
    """Pair fidelity of the Bell-pair relay under uniform depolarizing noise.

    Every transmitted half crosses one channel, so the link left of the
    first special node carries q**(s-1), the middle stretch q**(r-s), and
    the right stretch q**(n-r) (positions 1-based along the chain).  A
    depolarizing survivor contributes perfect correlation; the orthogonal
    Pauli part averages to 1/2 across the middle stretch and to 1/4 when
    the middle itself depolarized.
    """
    if not 1 <= sender <= n or not 1 <= receiver <= n or sender == receiver:
        raise ValueError("relay endpoints must be distinct chain positions")
    s, r = sorted((sender, receiver))
    p_left = q ** (s - 1)
    p_mid = q ** (r - s)
    p_right = q ** (n - r)
    return (p_left * p_mid * p_right
            + p_mid / 2 * (1 - p_left * p_right)
            + (1 - p_mid) / 4)
