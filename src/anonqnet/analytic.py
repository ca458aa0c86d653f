"""Closed-form fidelity and success-probability results for the anonymous
entanglement protocols, plus a structured evaluator that assembles the
post-selected sender-receiver pair state for arbitrary network size and
arbitrary single-qubit noise, and threshold root finding.

Formula conventions: q is the noise parameter (q=1 noiseless), n the node
count.  Fidelity is always against the protocol's maximally entangled
target; "useful" means fidelity strictly above 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import QuantumChannel, z_defect
from .qcore import DensityMatrix, Ket, fidelity_with_pure, make_bell_pair

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


def _outputs(channel: QuantumChannel) -> list:
    """The channel's outputs on |0><0|, |0><1|, |1><0| and |1><1|: all the
    structured evaluators need, so any user-defined channel works, not
    only the named ones."""
    return [channel(np.eye(4, dtype=complex)[k].reshape(2, 2)) for k in range(4)]


def w_postselected_pair(channel: QuantumChannel, n: int) -> tuple[DensityMatrix, float]:
    """Sender-receiver pair state after the W protocol's post-selection,
    assembled combinatorially from the channel's outputs out_xy on |x><y|
    and their <0|.|0> entries tr_xy.

    The W state has one excitation spread over n qubits; conditioning the
    n-2 measured qubits on |0> leaves six families of terms, indexed by
    where the |1> bra/ket indices sit (both measured, one measured, none).
    Collecting them with multiplicities:

        (n-2)(n-3) tr01 tr10 tr00^(n-4) out00 x out00
      + (n-2) tr10 tr00^(n-3) (out01 x out00 + out00 x out01)
      + (n-2) tr01 tr00^(n-3) (out10 x out00 + out00 x out10)
      + (n-2) tr11 tr00^(n-3) out00 x out00
      + tr00^(n-2) (out01 x out10 + out10 x out01
                    + out00 x out11 + out11 x out00)

    divided by n (the W normalization).  The trace of that matrix is the
    success probability; the normalized matrix is the pair state.  Requires
    n >= 4 because of the (n-3) multiplicity; use protocols.exact_pair
    for n=3.
    """
    if n < 4:
        raise ValueError("structured evaluation needs n >= 4; use protocols.exact_pair")
    out00, out01, out10, out11 = outs = _outputs(channel)
    tr00, tr01, tr10, tr11 = (complex(o[0, 0]) for o in outs)
    acc = (n - 2) * (n - 3) * tr01 * tr10 * tr00 ** (n - 4) * np.kron(out00, out00)
    acc = acc + (n - 2) * tr10 * tr00 ** (n - 3) * (
        np.kron(out01, out00) + np.kron(out00, out01)
    )
    acc = acc + (n - 2) * tr01 * tr00 ** (n - 3) * (
        np.kron(out10, out00) + np.kron(out00, out10)
    )
    acc = acc + (n - 2) * tr11 * tr00 ** (n - 3) * np.kron(out00, out00)
    acc = acc + tr00 ** (n - 2) * (
        np.kron(out01, out10) + np.kron(out10, out01)
        + np.kron(out00, out11) + np.kron(out11, out00)
    )
    acc = acc / n
    weight = float(np.real(np.trace(acc)))
    state = DensityMatrix(acc / weight, PAIR_LABELS)
    return state, weight


def ghz_postselected_pair(channel: QuantumChannel, n: int) -> tuple[DensityMatrix, float]:
    """Sender-receiver pair state for the GHZ protocol's all-|+> branch.

    The GHZ state has two global components; projecting each measured qubit
    onto |+> factorizes into <+|.|+> moments:

        (1/2) [ p00^(n-2) out00 x out00 + p01^(n-2) out01 x out01
              + p10^(n-2) out10 x out10 + p11^(n-2) out11 x out11 ]

    with p_xy = <+|channel(|x><y|)|+>: the all-|+> branch and its weight.
    The channel must commute with Z conjugation, Z out_xy Z = (-1)^(x+y)
    out_xy (Pauli channels, amplitude damping): the protocol then corrects
    every other branch onto this state, so it always succeeds.  A z_defect
    up to 1e-12 passes: approximate, where _GhzSampler's gate is exact.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if z_defect(channel) > 1e-12:
        raise ValueError("the structured GHZ pair needs a channel that commutes"
                         " with Z conjugation; use protocols.exact_pair")
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    acc = 0.5 * sum(complex(plus.conj() @ u @ plus) ** (n - 2) * np.kron(u, u)
                    for u in _outputs(channel))
    weight = float(np.real(np.trace(acc)))
    state = DensityMatrix(acc / weight, PAIR_LABELS)
    return state, weight


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
_TARGETS = {kind: make_bell_pair(PAIR_LABELS, kind=kind) for kind in ("psi+", "phi+")}


def pair_target(protocol: str) -> Ket:
    """Maximally entangled target the fidelity is measured against:
    (|01>+|10>)/sqrt(2) for the W protocol, (|00>+|11>)/sqrt(2) otherwise."""
    return _TARGETS[BELL_RESOURCE[protocol]]


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


def structured_fidelity(protocol: str, channel: QuantumChannel, n: int) -> float:
    """Fidelity of the structured pair state against the protocol target."""
    if protocol == "W":
        state, _ = w_postselected_pair(channel, n)
    elif protocol == "GHZ":
        state, _ = ghz_postselected_pair(channel, n)
    else:
        raise ValueError(f"unsupported protocol {protocol!r}")
    return fidelity_with_pure(state, pair_target(protocol))
