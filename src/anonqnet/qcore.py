"""Exact dense quantum state representation for small labeled registers.

Kets and density matrices carry an ordered tuple of qubit labels; every
operation addresses qubits by label, never by position, because the
protocols create and destroy qubits constantly and positional indexing
breeds bugs.  Convention: labels[0] is the most significant bit of the
computational-basis index.

Density matrices are dense complex128 arrays.  Registers larger than
``DENSE_CAP`` qubits (default 12) are refused: exactness is the point of
this module, and the closed-form evaluators cover large networks.  The
exact W and GHZ routes use the pull-back engine in protocols instead;
the tests check that engine against dense references built from here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

DENSE_CAP = 12

ID2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

# Bell outcome m in {0,1,2,3} indexes (I, X, Z, XZ) applied to the first
# qubit of (|00>+|11>)/sqrt(2).  Fixed convention; m=0 is |phi+> itself.
BELL_CORRECTIONS = (ID2, PAULI_X, PAULI_Z, PAULI_X @ PAULI_Z)


class DenseCapError(RuntimeError):
    """Register would exceed the dense-representation qubit cap."""


def bell_state_vector(m: int) -> np.ndarray:
    """Return the 4-amplitude vector of the m-th Bell state."""
    phi_plus = np.zeros(4, dtype=complex)
    phi_plus[0] = phi_plus[3] = 1 / np.sqrt(2)
    return np.kron(BELL_CORRECTIONS[m], ID2) @ phi_plus


def _check_labels(labels: Sequence) -> tuple:
    labels = tuple(labels)
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate qubit labels: {labels}")
    return labels


@dataclass(frozen=True)
class Ket:
    """Pure state of a labeled qubit register.

    Attributes
    ----------
    amps : np.ndarray
        Complex amplitudes, length 2**n, unit norm within 1e-12.
    labels : tuple
        Qubit labels; labels[0] is the most significant bit.
    """

    amps: np.ndarray
    labels: tuple

    def __post_init__(self):
        object.__setattr__(self, "amps", np.asarray(self.amps, dtype=complex))
        object.__setattr__(self, "labels", _check_labels(self.labels))
        n = len(self.labels)
        if self.amps.shape != (2**n,):
            raise ValueError(f"amplitude length {self.amps.shape} != 2**{n}")
        norm = np.linalg.norm(self.amps)
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"ket norm {norm} is not 1")

    @property
    def n_qubits(self) -> int:
        return len(self.labels)

    def to_density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amps, self.amps.conj()), self.labels)

    def to_json_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "amplitudes": [[float(a.real), float(a.imag)] for a in self.amps],
        }


@dataclass
class DensityMatrix:
    """Mixed state of a labeled qubit register.

    ``unnormalized=True`` marks an explicit post-selection branch whose
    trace is the branch weight; otherwise the trace must be 1 within
    1e-12.  Hermiticity is always enforced.
    """

    mat: np.ndarray
    labels: tuple
    unnormalized: bool = field(default=False)

    def __post_init__(self):
        self.mat = np.asarray(self.mat, dtype=complex)
        self.labels = _check_labels(self.labels)
        n = len(self.labels)
        if self.mat.shape != (2**n, 2**n):
            raise ValueError(f"matrix shape {self.mat.shape} != (2**{n}, 2**{n})")
        # a small max deviation implies allclose, and is cheaper to test
        adj = self.mat.conj().T
        if not (abs(self.mat - adj).max() <= 1e-10
                or np.allclose(self.mat, adj, atol=1e-10)):
            raise ValueError("density matrix is not Hermitian")
        if not self.unnormalized and abs(self.weight - 1.0) > 1e-10:
            raise ValueError(f"trace {self.weight} is not 1")

    @property
    def n_qubits(self) -> int:
        return len(self.labels)

    @property
    def weight(self) -> float:
        """Trace; the branch weight for unnormalized post-selection branches."""
        return float(np.real(np.trace(self.mat)))

    def normalized(self) -> "DensityMatrix":
        w = self.weight
        if w < 1e-15:
            raise ValueError("cannot normalize a zero-weight branch")
        return DensityMatrix(self.mat / w, self.labels)

    def permuted(self, new_order: Sequence) -> "DensityMatrix":
        """Reorder the label tuple (same physical state)."""
        new_order = tuple(new_order)
        if set(new_order) != set(self.labels):
            raise ValueError("permutation must use the same labels")
        n = self.n_qubits
        perm = [self.labels.index(l) for l in new_order]
        t = self.mat.reshape((2,) * (2 * n))
        t = np.transpose(t, perm + [n + p for p in perm])
        return DensityMatrix(t.reshape(2**n, 2**n), new_order, self.unnormalized)

    def to_json_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "entries": [
                [[float(v.real), float(v.imag)] for v in row] for row in self.mat
            ],
        }


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


def make_bell_pair(labels: Sequence = (0, 1), kind: str = "phi+") -> Ket:
    """Two-qubit maximally entangled state, |phi+> = (|00>+|11>)/sqrt(2)
    or |psi+> = (|01>+|10>)/sqrt(2)."""
    amps = np.zeros(4, dtype=complex)
    if kind == "phi+":
        amps[0] = amps[3] = 1 / np.sqrt(2)
    elif kind == "psi+":
        amps[1] = amps[2] = 1 / np.sqrt(2)
    else:
        raise ValueError(f"unknown Bell pair kind {kind!r}")
    return Ket(amps, tuple(labels))


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


def _positions(dm: DensityMatrix, labels: Iterable) -> list[int]:
    pos = []
    for l in labels:
        if l not in dm.labels:
            raise ValueError(f"unknown qubit label {l!r}")
        pos.append(dm.labels.index(l))
    return pos


def apply_op_dense(dm: DensityMatrix, op: np.ndarray, qubits: Sequence) -> DensityMatrix:
    """Conjugate the state by an operator acting on the given qubits: op rho op†.

    op is 2^k x 2^k acting on k qubits in the listed order.  Not trace
    preserving for non-unitary op (used for projections too).
    """
    pos = _positions(dm, qubits)
    n = dm.n_qubits
    k = len(pos)
    t = dm.mat.reshape((2,) * (2 * n))
    op_t = np.asarray(op, dtype=complex).reshape((2,) * (2 * k))
    # left action on the row axes
    t = np.tensordot(op_t, t, axes=(list(range(k, 2 * k)), pos))
    t = np.moveaxis(t, list(range(k)), pos)
    # right action: rho op† contracts the column axes with conj(op)
    col = [n + p for p in pos]
    t = np.tensordot(t, op_t.conj(), axes=(col, list(range(k, 2 * k))))
    t = np.moveaxis(t, list(range(2 * n - k, 2 * n)), col)
    return DensityMatrix(t.reshape(2**n, 2**n), dm.labels, unnormalized=True)


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


def fidelity_with_pure(dm: DensityMatrix, target: Ket) -> float:
    """<target| rho |target> for a normalized rho, aligned by labels."""
    if set(dm.labels) != set(target.labels):
        raise ValueError("label sets differ")
    aligned = dm if dm.labels == target.labels else dm.permuted(target.labels)
    val = np.real(target.amps.conj() @ aligned.mat @ target.amps)
    return float(val)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """(1/2) * sum of |eigenvalues| of (a - b)."""
    if set(a.labels) != set(b.labels):
        raise ValueError("label sets differ")
    bb = b if b.labels == a.labels else b.permuted(a.labels)
    eig = np.linalg.eigvalsh(a.mat - bb.mat)
    return float(0.5 * np.sum(np.abs(eig)))


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
