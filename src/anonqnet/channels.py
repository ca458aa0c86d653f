"""Single-qubit CPTP maps as Kraus operator sets.

Provides the two named noise families (dephasing, depolarizing), identity,
arbitrary user Kraus sets, and two un-halved channel distances:
channel_distance, the exact induced trace norm over inputs without an
ancilla, read off the Bloch-affine form (t, M) of a qubit map,
Phi((I + r.sigma)/2) = (I + (t + M r).sigma)/2 (King and Ruskai,
arXiv:quant-ph/9911079), and diamond_distance, an upper bound on the
stabilized norm from the Choi matrix, sound for every pair of qubit
channels and exact for Pauli channels.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .qcore import ID2, PAULI_X, PAULI_Y, PAULI_Z


class QuantumChannel:
    """Single-qubit channel defined by its Kraus operators.

    Args:
        kraus_ops: list of 2x2 complex arrays K_i with sum K_i† K_i = I
            (checked to 1e-12), kept as one read-only k x 2 x 2 array.
        name: short descriptor, e.g. "dephasing".
        params: named real parameters, e.g. {"q": 0.9}.
    """

    def __init__(self, kraus_ops: Sequence[np.ndarray], name: str = "custom",
                 params: Mapping[str, float] | None = None):
        self.kraus_ops = np.array(kraus_ops, dtype=complex)
        if not self.kraus_ops.size:
            raise ValueError("need at least one Kraus operator")
        if self.kraus_ops.shape[1:] != (2, 2):
            raise ValueError("Kraus operators must be 2x2")
        self.kraus_ops.flags.writeable = False  # memos key on the channel
        total = sum(k.conj().T @ k for k in self.kraus_ops)
        if not np.allclose(total, ID2, atol=1e-12):
            raise ValueError("Kraus set is not trace preserving")
        self.name = name
        self.params = dict(params or {})

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        """Apply the channel to a bare 2x2 matrix (not necessarily a state)."""
        rho = np.asarray(rho, dtype=complex)
        return sum(k @ rho @ k.conj().T for k in self.kraus_ops)

    def spec_string(self) -> str:
        if not self.params:
            return self.name
        inner = ",".join(f"{k}={v:g}" for k, v in sorted(self.params.items()))
        return f"{self.name}:{inner}"

    def __repr__(self):
        return f"QuantumChannel({self.spec_string()})"


def z_defect(channel: QuantumChannel) -> float:
    """max |Z out_xy Z - (-1)^(x+y) out_xy| over out_xy = channel(|x><y|)."""
    outs, signs = channel(np.eye(4).reshape(4, 2, 2)), np.array([1, -1, -1, 1])
    return float(np.abs(PAULI_Z @ outs @ PAULI_Z - signs[:, None, None] * outs).max())


def identity_channel() -> QuantumChannel:
    return QuantumChannel([ID2], name="identity")


def dephasing(q: float) -> QuantumChannel:
    """Phase noise: keeps the state with probability q, applies Z otherwise.

    Kraus set {sqrt(q) I, sqrt(1-q) Z}.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q={q} outside [0, 1]")
    return QuantumChannel(
        [np.sqrt(q) * ID2, np.sqrt(1 - q) * PAULI_Z],
        name="dephasing", params={"q": q},
    )


def depolarizing(q: float) -> QuantumChannel:
    """White noise: q rho + (1-q) I/2 in the standard Pauli Kraus form."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q={q} outside [0, 1]")
    return QuantumChannel(
        [
            np.sqrt((1 + 3 * q) / 4) * ID2,
            np.sqrt((1 - q) / 4) * PAULI_X,
            np.sqrt((1 - q) / 4) * PAULI_Y,
            np.sqrt((1 - q) / 4) * PAULI_Z,
        ],
        name="depolarizing", params={"q": q},
    )


_PAULIS = np.array([ID2, PAULI_X, PAULI_Y, PAULI_Z])


def _bloch_affine(channel: QuantumChannel) -> np.ndarray:
    """The 3x4 Bloch-affine form [t | M] of a qubit map.

    Entry (i, j) is 1/2 tr(sigma_i Phi(sigma_j)) with sigma_0 = I, so
    Phi((I + r.sigma)/2) = (I + (t + M r).sigma)/2.
    """
    k = channel.kraus_ops
    return 0.5 * np.einsum("iab,kbc,jcd,kad->ij",
                           _PAULIS[1:], k, _PAULIS, k.conj()).real


def channel_distance(a: QuantumChannel, b: QuantumChannel) -> float:
    """Induced trace norm of the channel difference, max over pure inputs.

    The difference maps Bloch vector r to (dt + dM r).sigma/2, of trace
    norm |dt + dM r|, so the distance is the exact max of that over the
    unit sphere.  With H = dM^T dM and g = dM^T dt the maximiser is
    r = (mu I - H)^+ g, mu the largest real eigenvalue of
    [[H, I], [g g^T, H]] floored at lambda_max(H), completed along the top
    eigenvector of H when it falls inside the sphere (g orthogonal to it).
    The norm is taken at r itself, so an error in mu enters to second order.
    """
    d = _bloch_affine(a) - _bloch_affine(b)
    dt, dm = d[:, 0], d[:, 1:]
    lam, vecs = np.linalg.eigh(dm.T @ dm)
    g = vecs.T @ (dm.T @ dt)  # in the eigenbasis of H
    ev = np.linalg.eigvals(np.block([[np.diag(lam), np.eye(3)],
                                     [np.outer(g, g), np.diag(lam)]]))
    mu = ev.real[ev.imag == 0].max(initial=lam[-1])
    gap = mu - lam
    r = np.divide(g, gap, out=np.zeros(3), where=gap > 0)
    r[-1] += np.copysign(np.sqrt(max(1.0 - r @ r, 0.0)), g[-1])
    return float(np.linalg.norm(dt + dm @ (vecs @ (r / np.linalg.norm(r)))))


def _choi(channel: QuantumChannel) -> np.ndarray:
    """Unnormalized Choi matrix sum_ij |i><j| (x) Phi(|i><j|), input first."""
    vecs = np.transpose(channel.kraus_ops, (0, 2, 1)).reshape(-1, 4)
    return vecs.T @ vecs.conj()


def diamond_distance(a: QuantumChannel, b: QuantumChannel) -> float:
    """Upper bound on the diamond (stabilized) norm of the channel
    difference, un-halved like channel_distance.

    J+, the positive part of the difference's Choi matrix J, is feasible
    for Watrous's dual SDP (arXiv:1207.5726), so 2 ||Tr_out J+||_inf bounds
    the norm; it is clipped at 2, which no difference of channels exceeds.
    On Pauli channels J is Bell-diagonal and the bound is exact: the l1
    distance of the Pauli weights.  Elsewhere it may exceed the diamond
    norm, but it is never below it, so unlike channel_distance it bounds
    the effect on a qubit entangled with others.
    """
    lam, vecs = np.linalg.eigh(_choi(a) - _choi(b))
    pos = (vecs * np.maximum(lam, 0.0)) @ vecs.conj().T
    marginal = np.trace(pos.reshape(2, 2, 2, 2), axis1=1, axis2=3)
    return float(min(2.0 * np.linalg.eigvalsh(marginal)[-1], 2.0))


def parse_channel_spec(spec: str) -> QuantumChannel:
    """Parse a channel spec string: `identity`, `dephasing:q=0.9`,
    `depolarizing:q=0.8`.  A missing, unknown or repeated parameter is an
    error naming the spec."""
    spec = spec.strip()
    if spec == "identity":
        return identity_channel()
    if ":" not in spec:
        raise ValueError(f"malformed channel spec {spec!r}")
    name, _, args = spec.partition(":")
    params = []
    for part in args.split(","):
        key, _, val = part.partition("=")
        if not val:
            raise ValueError(f"malformed channel parameter {part!r} in {spec!r}")
        params.append((key.strip(), float(val)))
    name = name.strip()
    if name not in ("dephasing", "depolarizing"):
        raise ValueError(f"unknown channel {name!r}")
    if [key for key, _ in params] != ["q"]:
        raise ValueError(f"channel spec {spec!r} must set q once and nothing else")
    return (dephasing if name == "dephasing" else depolarizing)(params[0][1])


def parse_channel_map(base_spec: str, overrides, nodes) -> dict:
    """Build a node -> QuantumChannel map from a base spec plus per-node
    overrides given as "3=depolarizing:q=0.75" strings."""
    base = parse_channel_spec(base_spec)
    chans = {node: base for node in nodes}
    for item in overrides:
        key, sep, spec = item.partition("=")
        if not sep or not key.strip() or not spec.strip():
            raise ValueError(f"override {item!r} must look like <node>=<spec>")
        try:
            node = int(key.strip())
        except ValueError as exc:
            raise ValueError(f"bad node id in override {item!r}") from exc
        if node not in chans:
            raise ValueError(f"override for unknown node {node}")
        chans[node] = parse_channel_spec(spec.strip())
    return chans
