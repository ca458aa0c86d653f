"""Dense 2^n reference simulator for the tests.

No protocol route builds a dense register: W and GHZ run on the O(n)
transfer engine in anonqnet.protocols, and the relay and teleport on
fixed four-qubit and two-qubit kernels.  The tests check those kernels
against this independent route, which builds whole labeled registers
from the package's DensityMatrix and Ket and applies channels,
projections and partial traces qubit by qubit.  Registers larger than
``DENSE_CAP`` qubits (12) are refused.

It also keeps random_kraus_channel; unstabilized_distance, the exact
channel distance over inputs without an ancilla: a lower bound the tests
hold the package's diamond distance bound against; and as_dicts, the
label-by-label form of adversary views the tests compare.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from anonqnet.channels import QuantumChannel
from anonqnet.qcore import (
    ID2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DensityMatrix,
    Ket,
    _positions,
    apply_op_dense,
    bell_state_vector,
)

DENSE_CAP = 12


class DenseCapError(RuntimeError):
    """Register would exceed the dense-representation qubit cap."""


def make_w_state(n: int, labels: Sequence | None = None) -> Ket:
    """Equal superposition of all weight-1 computational basis states.

    Parameters
    ----------
    n : int
        Number of qubits, n >= 2.
    labels : sequence, optional
        Qubit labels; defaults to 0..n-1.
    """
    if n < 2:
        raise ValueError("need at least 2 qubits")
    amps = np.zeros(2**n, dtype=complex)
    for i in range(n):
        amps[1 << (n - 1 - i)] = 1.0
    amps /= np.sqrt(n)
    return Ket(amps, tuple(labels) if labels is not None else tuple(range(n)))


def make_ghz_state(n: int, labels: Sequence | None = None) -> Ket:
    """(|0...0> + |1...1>)/sqrt(2) on n >= 2 qubits."""
    if n < 2:
        raise ValueError("need at least 2 qubits")
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = 1 / np.sqrt(2)
    return Ket(amps, tuple(labels) if labels is not None else tuple(range(n)))


def tensor(a: DensityMatrix, b: DensityMatrix, cap: int = DENSE_CAP) -> DensityMatrix:
    """Kronecker product of disjointly labeled registers."""
    if set(a.labels) & set(b.labels):
        raise ValueError("label collision in tensor product")
    if a.n_qubits + b.n_qubits > cap:
        raise DenseCapError(
            f"tensor would create {a.n_qubits + b.n_qubits} qubits, cap {cap};"
            " use the closed-form evaluators for large registers"
        )
    return DensityMatrix(
        np.kron(a.mat, b.mat),
        a.labels + b.labels,
        unnormalized=a.unnormalized or b.unnormalized,
    )


def partial_trace(dm: DensityMatrix, discard: Iterable) -> DensityMatrix:
    """Trace out the listed labels; remaining labels keep their order."""
    discard = list(discard)
    pos = sorted(_positions(dm, discard), reverse=True)
    n = dm.n_qubits
    t = dm.mat.reshape((2,) * (2 * n))
    m = n
    for p in pos:
        t = np.trace(t, axis1=p, axis2=p + m)
        m -= 1
    keep = tuple(l for l in dm.labels if l not in discard)
    return DensityMatrix(t.reshape(2**m, 2**m), keep, unnormalized=dm.unnormalized)


_BASIS_VECTORS = {
    "standard": (np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)),
    "hadamard": (
        np.array([1, 1], dtype=complex) / np.sqrt(2),
        np.array([1, -1], dtype=complex) / np.sqrt(2),
    ),
}


def postselect(
    dm: DensityMatrix, qubit, basis: str, outcome: int
) -> tuple[DensityMatrix, float]:
    """Project one qubit onto a basis outcome without tracing it out.

    Returns the unnormalized branch (Pi rho Pi) and its weight Tr[Pi rho]
    (the branch probability when the input is normalized).  A weight below
    1e-15 signals an impossible outcome; the caller must not normalize.
    """
    if basis not in _BASIS_VECTORS:
        raise ValueError(f"unsupported basis {basis!r}")
    vec = _BASIS_VECTORS[basis][outcome]
    proj = np.outer(vec, vec.conj())
    out = apply_op_dense(dm, proj, [qubit])
    return out, out.weight


def bell_project(
    dm: DensityMatrix, q1, q2, m: int
) -> tuple[DensityMatrix, float]:
    """Project qubits (q1, q2) onto the m-th Bell state and remove them.

    Returns the unnormalized remaining-register branch and its probability
    relative to the input weight.
    """
    vec = bell_state_vector(m)
    proj = np.outer(vec, vec.conj())
    projected = apply_op_dense(dm, proj, [q1, q2])
    reduced = partial_trace(projected, [q1, q2])
    return reduced, reduced.weight / dm.weight if dm.weight > 0 else 0.0


def apply_to(channel: QuantumChannel, rho: DensityMatrix, qubit) -> DensityMatrix:
    """Apply a single-qubit channel to one labeled qubit of a register."""
    acc = None
    for k in channel.kraus_ops:
        term = apply_op_dense(rho, k, [qubit])
        acc = term.mat if acc is None else acc + term.mat
    # CPTP: trace preserved, so the input's normalization status carries over
    return DensityMatrix(acc, rho.labels, unnormalized=rho.unnormalized)


def random_kraus_channel(rng: np.random.Generator, n_ops: int) -> QuantumChannel:
    """Kraus operators cut from a random complex 2 n_ops x 2 isometry."""
    g = rng.normal(size=(2 * n_ops, 2)) + 1j * rng.normal(size=(2 * n_ops, 2))
    iso, _ = np.linalg.qr(g)
    return QuantumChannel(list(iso.reshape(n_ops, 2, 2)))


_PAULIS = np.array([ID2, PAULI_X, PAULI_Y, PAULI_Z])


def _bloch_affine(channel: QuantumChannel) -> np.ndarray:
    """The 3x4 Bloch-affine form [t | M] of a qubit map.

    Entry (i, j) is 1/2 tr(sigma_i Phi(sigma_j)) with sigma_0 = I, so
    Phi((I + r.sigma)/2) = (I + (t + M r).sigma)/2 (King and Ruskai,
    arXiv:quant-ph/9911079).
    """
    k = channel.kraus_ops
    return 0.5 * np.einsum("iab,kbc,jcd,kad->ij",
                           _PAULIS[1:], k, _PAULIS, k.conj()).real


def unstabilized_distance(a: QuantumChannel, b: QuantumChannel) -> float:
    """Induced trace norm of the channel difference, max over pure inputs
    without an ancilla, un-halved.

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


def as_dicts(labels: list, weights: np.ndarray, blocks: np.ndarray) -> list:
    """adversary_views' arrays as one dict label -> (weight, weighted
    block) per view, over the labels that weigh anything."""
    return [{labels[k]: (w[k], b[k]) for k in np.flatnonzero(w)}
            for w, b in zip(weights.tolist(), blocks)]
