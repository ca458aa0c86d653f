import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anonqnet.qcore import (
    BELL_CORRECTIONS,
    DensityMatrix,
    ID2,
    Ket,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    apply_op_dense,
    bell_state_vector,
    fidelity_with_pure,
    make_bell_pair,
)
from dense_reference import (
    DenseCapError,
    bell_project,
    make_ghz_state,
    make_w_state,
    partial_trace,
    postselect,
    tensor,
)


def random_density(rng, n, rank=2):
    dim = 2**n
    mat = np.zeros((dim, dim), dtype=complex)
    probs = rng.dirichlet(np.ones(rank))
    for p in probs:
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        mat += p * np.outer(v, v.conj())
    return DensityMatrix(mat, tuple(range(n)))


def test_w_state_amplitudes():
    w = make_w_state(4)
    dense = w.amps
    for idx in range(16):
        weight = bin(idx).count("1")
        if weight == 1:
            assert dense[idx] == pytest.approx(0.5)
        else:
            assert dense[idx] == 0


def test_ghz_state_amplitudes():
    g = make_ghz_state(3)
    assert g.amps[0] == pytest.approx(1 / np.sqrt(2))
    assert g.amps[7] == pytest.approx(1 / np.sqrt(2))
    assert np.count_nonzero(g.amps) == 2


def test_ket_rejects_unnormalized():
    with pytest.raises(ValueError):
        Ket(np.array([1.0, 1.0], dtype=complex), ("a",))


def test_bell_pair_kinds():
    phi = make_bell_pair(("x", "y"))
    psi = make_bell_pair(("x", "y"), kind="psi+")
    assert phi.amps[0] == pytest.approx(1 / np.sqrt(2))
    assert phi.amps[3] == pytest.approx(1 / np.sqrt(2))
    assert psi.amps[1] == pytest.approx(1 / np.sqrt(2))
    assert psi.amps[2] == pytest.approx(1 / np.sqrt(2))


def test_bell_state_vector_matches_corrections():
    # B_m = (P_m (x) I)|phi+>
    phi = bell_state_vector(0)
    for m in range(4):
        op = np.kron(BELL_CORRECTIONS[m], ID2)
        got = bell_state_vector(m)
        overlap = abs(np.vdot(got, op @ phi))
        assert overlap == pytest.approx(1.0, abs=1e-12)


def test_tensor_and_partial_trace_roundtrip():
    rng = np.random.default_rng(0)
    a = random_density(rng, 1)
    b = DensityMatrix(random_density(rng, 2).mat, ("p", "q"))
    joint = tensor(a, b)
    assert joint.labels == (0, "p", "q")
    back = partial_trace(joint, ["p", "q"])
    assert np.allclose(back.mat, a.mat, atol=1e-12)
    other = partial_trace(joint, [0])
    assert np.allclose(other.mat, b.mat, atol=1e-12)


def test_partial_trace_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(1)
    rho = random_density(rng, 3, rank=4)
    red = partial_trace(rho, [1])
    assert red.labels == (0, 2)
    assert red.weight == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(red.mat, red.mat.conj().T, atol=1e-12)


def test_tensor_respects_cap():
    a = make_w_state(6).to_density()
    b = make_w_state(7, labels=tuple(f"b{i}" for i in range(7))).to_density()
    with pytest.raises(DenseCapError):
        tensor(a, b)


def test_apply_op_dense_single_qubit_unitary():
    rho = make_bell_pair(("a", "b")).to_density()
    flipped = apply_op_dense(rho, PAULI_X, ["a"])
    # X on one half of phi+ gives psi+
    target = make_bell_pair(("a", "b"), kind="psi+")
    assert fidelity_with_pure(
        DensityMatrix(flipped.mat, flipped.labels), target
    ) == pytest.approx(1.0, abs=1e-12)


def test_apply_op_dense_two_qubit_op_order():
    # CNOT with control listed first: |10> -> |11>
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        dtype=complex,
    )
    amps = np.zeros(4, dtype=complex)
    amps[2] = 1.0  # |1>|0> with first label the control
    ket = Ket(amps, ("c", "t"))
    out = apply_op_dense(ket.to_density(), cnot, ["c", "t"])
    assert out.mat[3, 3] == pytest.approx(1.0)


def test_postselect_weights_and_state():
    w = make_w_state(3).to_density()
    branch, prob = postselect(w, 0, "standard", 0)
    assert prob == pytest.approx(2 / 3, abs=1e-12)
    # surviving excitation lives on the other two qubits
    reduced = partial_trace(branch, [0]).normalized()
    target = make_bell_pair((1, 2), kind="psi+")
    assert fidelity_with_pure(reduced, target) == pytest.approx(1.0, abs=1e-12)


def test_postselect_hadamard_on_plus():
    plus = Ket(np.array([1, 1], dtype=complex) / np.sqrt(2), ("a",))
    _, p0 = postselect(plus.to_density(), "a", "hadamard", 0)
    _, p1 = postselect(plus.to_density(), "a", "hadamard", 1)
    assert p0 == pytest.approx(1.0, abs=1e-12)
    assert p1 == pytest.approx(0.0, abs=1e-12)


def test_bell_project_probabilities_sum():
    rng = np.random.default_rng(3)
    rho = random_density(rng, 3, rank=3)
    probs = [bell_project(rho, 0, 1, m)[1] for m in range(4)]
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)
    reduced, _ = bell_project(rho, 0, 1, 0)
    assert reduced.labels == (2,)


def test_permuted_reorders_representation():
    psi = make_bell_pair(("a", "b"), kind="psi+").to_density()
    asym = apply_op_dense(psi, np.diag([1.0, 0.5]).astype(complex), ["a"])
    asym = DensityMatrix(asym.mat / asym.weight, asym.labels)
    flipped = asym.permuted(("b", "a"))
    assert flipped.labels == ("b", "a")
    back = flipped.permuted(("a", "b"))
    assert np.allclose(back.mat, asym.mat, atol=1e-14)


@pytest.mark.parametrize("defect, ok", [(1e-11, True), (1e-9, False),
                                        (np.nan, False)])
def test_density_matrix_hermiticity_check(defect, ok):
    # an anti-Hermitian perturbation on zero off-diagonal entries
    mat = np.eye(4, dtype=complex) / 4
    mat[0, 3] += defect
    mat[3, 0] -= defect
    if ok:
        DensityMatrix(mat, ("a", "b"))
    else:
        with pytest.raises(ValueError, match="not Hermitian"):
            DensityMatrix(mat, ("a", "b"))


def test_density_matrix_json_roundtrip():
    mat = np.array([[0.5, 0.25 - 0.25j], [0.25 + 0.25j, 0.5]])
    d = DensityMatrix(mat, ("s",)).to_json_dict()
    assert d == {"labels": ["s"],
                 "entries": [[[0.5, 0.0], [0.25, -0.25]],
                             [[0.25, 0.25], [0.5, 0.0]]]}
    pair = make_w_state(2, labels=("s", "r")).to_density().to_json_dict()
    assert pair["labels"] == ["s", "r"]
    assert pair["entries"][1][2] == [pytest.approx(0.5, abs=1e-15), 0.0]


def test_ket_json_roundtrip():
    d = make_ghz_state(3, labels=("a", 1, "c")).to_json_dict()
    assert d["labels"] == ["a", 1, "c"]
    amp = 1 / np.sqrt(2)
    assert d["amplitudes"] == [[amp, 0.0]] + [[0.0, 0.0]] * 6 + [[amp, 0.0]]


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4), st.integers(0, 10**6))
def test_partial_trace_any_qubit_keeps_unit_trace(n, seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, n, rank=2)
    victim = int(rng.integers(0, n))
    red = partial_trace(rho, [victim])
    assert red.weight == pytest.approx(1.0, abs=1e-10)
    assert len(red.labels) == n - 1


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 3), st.integers(0, 10**6))
def test_bell_projection_then_correction_restores_phi_plus(m, seed):
    # teleport identity: project (msg, a) onto B_m, correct b with P_m
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    msg = Ket(v, ("m",)).to_density()
    pair = make_bell_pair(("a", "b")).to_density()
    joint = tensor(msg, pair)
    branch, prob = bell_project(joint, "m", "a", m)
    assert prob == pytest.approx(0.25, abs=1e-12)
    fixed = apply_op_dense(branch, BELL_CORRECTIONS[m], ["b"])
    delivered = DensityMatrix(fixed.mat / prob, fixed.labels)
    assert fidelity_with_pure(delivered, Ket(v, ("b",))) == pytest.approx(
        1.0, abs=1e-12)


def test_pauli_algebra_constants():
    assert np.allclose(PAULI_X @ PAULI_X, ID2)
    assert np.allclose(PAULI_Z @ PAULI_Z, ID2)
    assert np.allclose(PAULI_X @ PAULI_Z, -PAULI_Z @ PAULI_X)
    assert np.allclose(PAULI_X @ PAULI_Z, -1j * PAULI_Y)


_PAIR = make_bell_pair(("a", "b")).to_density()


@pytest.mark.parametrize("call, message", [
    (lambda: Ket(np.array([1, 0], dtype=complex), ("a", "a")),
     "duplicate qubit labels: ('a', 'a')"),
    (lambda: Ket(np.ones(4) / 2, ("a",)), "amplitude length (4,) != 2**1"),
    (lambda: DensityMatrix(np.eye(2) / 2, ("a", "b")),
     "matrix shape (2, 2) != (2**2, 2**2)"),
    (lambda: DensityMatrix(np.eye(2), ("a",)), "trace 2.0 is not 1"),
    (lambda: DensityMatrix(np.zeros((2, 2)), ("a",), unnormalized=True).normalized(),
     "cannot normalize a zero-weight branch"),
    (lambda: _PAIR.permuted(("a", "c")), "permutation must use the same labels"),
    (lambda: make_w_state(1), "need at least 2 qubits"),
    (lambda: make_ghz_state(1), "need at least 2 qubits"),
    (lambda: make_bell_pair(kind="psi-"), "unknown Bell pair kind 'psi-'"),
    (lambda: tensor(_PAIR, _PAIR), "label collision in tensor product"),
    (lambda: partial_trace(_PAIR, ["c"]), "unknown qubit label 'c'"),
    (lambda: postselect(_PAIR, "a", "diagonal", 0), "unsupported basis 'diagonal'"),
    (lambda: fidelity_with_pure(_PAIR, make_bell_pair(("a", "c"))),
     "label sets differ"),
])
def test_malformed_inputs_are_refused(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
