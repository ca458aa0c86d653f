import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anonqnet.channels import (
    QuantumChannel,
    channel_distance,
    dephasing,
    depolarizing,
    diamond_distance,
    identity_channel,
    parse_channel_map,
    parse_channel_spec,
)
from anonqnet.qcore import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    make_bell_pair,
)
from dense_reference import (
    apply_to,
    partial_trace,
)


def test_kraus_completeness_enforced():
    bad = [np.array([[1, 0], [0, 0.5]], dtype=complex)]
    with pytest.raises(ValueError):
        QuantumChannel(bad, name="broken")


def test_kraus_ops_are_one_read_only_array():
    channel = dephasing(0.9)
    assert channel.kraus_ops.shape == (2, 2, 2)
    assert channel.kraus_ops.dtype == complex
    with pytest.raises(ValueError):  # memos are keyed on the channel object
        channel.kraus_ops[1, 0, 0] = 0
    for bad in ([], [np.eye(2), np.eye(3)], [np.eye(3)], [[1, 0]]):
        with pytest.raises(ValueError):
            QuantumChannel(bad)


def test_identity_channel_is_noop():
    rho = np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]], dtype=complex)
    assert np.allclose(identity_channel()(rho), rho)


def test_dephasing_kills_coherence_linearly():
    rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    q = 0.8
    out = dephasing(q)(rho)
    # off-diagonals shrink by 2q-1; populations untouched
    assert out[0, 0] == pytest.approx(0.5)
    assert out[0, 1] == pytest.approx(0.5 * (2 * q - 1))


def test_depolarizing_mixes_toward_identity():
    rho = np.array([[1, 0], [0, 0]], dtype=complex)
    q = 0.6
    out = depolarizing(q)(rho)
    expected = q * rho + (1 - q) * np.eye(2) / 2
    assert np.allclose(out, expected, atol=1e-12)


def test_depolarizing_extremes():
    rho = np.array([[0.2, 0.1], [0.1, 0.8]], dtype=complex)
    assert np.allclose(depolarizing(1.0)(rho), rho, atol=1e-12)
    assert np.allclose(depolarizing(0.0)(rho), np.eye(2) / 2, atol=1e-12)


def test_apply_to_targets_one_qubit():
    pair = make_bell_pair(("a", "b")).to_density()
    out = apply_to(depolarizing(0.0), pair, "a")
    # fully depolarizing one half leaves the product of maximally mixed states
    assert np.allclose(out.mat, np.eye(4) / 4, atol=1e-12)
    marg = partial_trace(out, ["a"])
    assert np.allclose(marg.mat, np.eye(2) / 2, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(0, 1),
    st.sampled_from(["dephasing", "depolarizing"]),
    st.integers(0, 10**6),
)
def test_channels_preserve_trace_and_positivity(q, family, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    rho = np.outer(v, v.conj())
    chan = dephasing(q) if family == "dephasing" else depolarizing(q)
    out = chan(rho)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(out).min() > -1e-12


@pytest.mark.parametrize("qa,qb", [(0.9, 0.8), (1.0, 0.7), (0.55, 0.5)])
def test_channel_distance_dephasing_closed_form(qa, qb):
    # induced trace norm between dephasing channels is 2|q - q'|
    got = channel_distance(dephasing(qa), dephasing(qb))
    assert got == pytest.approx(2 * abs(qa - qb), abs=1e-12)


@pytest.mark.parametrize("qa,qb", [(0.9, 0.8), (1.0, 0.6), (0.75, 0.7)])
def test_channel_distance_depolarizing_closed_form(qa, qb):
    # worst input is pure; the difference scales the Bloch vector by q - q'
    got = channel_distance(depolarizing(qa), depolarizing(qb))
    assert got == pytest.approx(abs(qa - qb), abs=1e-12)


def test_channel_distance_identical_channels_is_zero():
    assert channel_distance(dephasing(0.77), dephasing(0.77)) == 0.0


def test_channel_distance_symmetry():
    pairs = [(depolarizing(0.9), dephasing(0.9)),
             (damp_then_rotate(0.3, 0.7), damp_then_rotate(0.2, -1.1)),
             (damp_then_rotate(0.35, 0.8, PAULI_Z), depolarizing(0.9))]
    for a, b in pairs:
        assert abs(channel_distance(a, b) - channel_distance(b, a)) <= 1e-15


def rotation(theta, axis):
    return np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * axis


def damp_then_rotate(gamma, theta, axis=PAULI_X):
    """Amplitude damping followed by a rotation: non-unital, complex Kraus
    operators (the channels of the dense-reference tests in test_protocols)."""
    k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
    u = rotation(theta, axis)
    return QuantumChannel([u @ k0, u @ k1], name="damp-rotate")


def framed(channel, u, v):
    """rho -> u channel(v rho v^dag) u^dag: the distance between two
    channels framed alike is unchanged."""
    return QuantumChannel([u @ k @ v for k in channel.kraus_ops])


def brute_force_distance(a, b, samples=200_000, seed=0):
    """Max output trace norm of (a - b) over random pure inputs, applied
    through the Kraus operators."""
    r = np.random.default_rng(seed).normal(size=(samples, 3))
    r /= np.linalg.norm(r, axis=1, keepdims=True)
    rho = (np.eye(2) + np.einsum("ni,iab->nab", r,
                                 np.array([PAULI_X, PAULI_Y, PAULI_Z]))) / 2
    out = [sum(np.einsum("ab,nbc,dc->nad", k, rho, k.conj(), optimize=True)
               for k in ch.kraus_ops) for ch in (a, b)]
    diff = out[0] - out[1]
    # traceless Hermitian [[d, c], [c*, -d]] has eigenvalues +-sqrt(d^2+|c|^2)
    return float(2 * np.sqrt(diff[:, 0, 0].real ** 2
                             + np.abs(diff[:, 0, 1]) ** 2).max())


# the non-unital channels of the dense-reference mix in test_protocols
MIX = [damp_then_rotate(0.3, 0.7), damp_then_rotate(0.2, -1.1),
       damp_then_rotate(0.25, 0.4), damp_then_rotate(0.35, 0.8, PAULI_Z),
       depolarizing(0.9)]


@pytest.mark.parametrize("i,j", [(i, j) for i in range(len(MIX))
                                 for j in range(i + 1, len(MIX))])
def test_channel_distance_matches_brute_force(i, j):
    exact = channel_distance(MIX[i], MIX[j])
    ref = brute_force_distance(MIX[i], MIX[j], seed=i * len(MIX) + j)
    assert ref <= exact + 1e-12
    assert exact - ref <= 1e-4


def damping_distance(ga, gb):
    """Closed form for two amplitude dampings.  With d1 the change of
    sqrt(1 - gamma) and d2 = |ga - gb|, the norm at input polar cosine c is
    d1^2 (1 - c^2) + d2^2 (1 - c)^2; for d1 > d2 its maximiser is interior
    (c = -d2^2 / (d1^2 - d2^2)) unless that falls below -1."""
    d1 = (np.sqrt(1 - ga) - np.sqrt(1 - gb)) ** 2
    d2 = (ga - gb) ** 2
    c = max(-1.0, -d2 / (d1 - d2)) if d1 > d2 else -1.0
    return np.sqrt(d1 * (1 - c * c) + d2 * (1 - c) ** 2)


def damping(gamma):
    return damp_then_rotate(gamma, 0.0)


@pytest.mark.parametrize("ga,gb", [(0.99, 0.98), (0.9, 0.8), (0.3, 0.1),
                                   (0.6, 0.58)])
@pytest.mark.parametrize("frame", [(0.0, 0.0), (0.7, -1.3)])
def test_channel_distance_hard_case_closed_form(ga, gb, frame):
    # dt lies on z and dM is diagonal with a doubly degenerate (x, y) block,
    # so for d1 > d2 the vector g = dM^T dt is orthogonal to the top
    # eigenvectors of H (the hard case); rotated frames make H non-diagonal
    u = rotation(frame[0], PAULI_Y) @ rotation(frame[1], PAULI_Z)
    v = rotation(frame[1], PAULI_X)
    a, b = framed(damping(ga), u, v), framed(damping(gb), u, v)
    assert channel_distance(a, b) == pytest.approx(damping_distance(ga, gb),
                                                   abs=1e-12)


@pytest.mark.parametrize("theta", [0.0, 0.9, 2.3])
def test_channel_distance_degenerate_unital_hard_case(theta):
    # g = 0 and H = dq^2 I: every input is a maximiser
    u = rotation(theta, PAULI_Y) @ rotation(0.4, PAULI_X)
    a = framed(depolarizing(0.8), u, u.conj().T @ rotation(theta, PAULI_Z))
    b = framed(depolarizing(0.7), u, u.conj().T @ rotation(theta, PAULI_Z))
    assert channel_distance(a, b) == pytest.approx(0.1, abs=1e-12)


def choi(channel):
    """(I (x) channel)(|phi+><phi+|) with |phi+> normalized."""
    phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    rho = np.outer(phi, phi.conj())
    return sum(np.kron(np.eye(2), k) @ rho @ np.kron(np.eye(2), k).conj().T
               for k in channel.kraus_ops)


def pauli_channel(weights):
    paulis = [np.eye(2), PAULI_X, PAULI_Y, PAULI_Z]
    return QuantumChannel([np.sqrt(w) * p for w, p in zip(weights, paulis)])


def test_diamond_distance_pauli_values():
    assert diamond_distance(depolarizing(0.8), depolarizing(0.83)) == \
        pytest.approx(0.045, abs=1e-12)
    assert channel_distance(depolarizing(0.8), depolarizing(0.83)) == \
        pytest.approx(0.030, abs=1e-12)
    for dist in (diamond_distance, channel_distance):
        assert dist(dephasing(0.8), dephasing(0.83)) == pytest.approx(
            0.060, abs=1e-12)
    assert diamond_distance(dephasing(0.77), dephasing(0.77)) == 0.0


def test_diamond_distance_matches_choi_trace_norm():
    rng = np.random.default_rng(3)
    pairs = [(depolarizing(0.8), depolarizing(0.83)),
             (dephasing(0.9), identity_channel()),
             (dephasing(0.6), depolarizing(0.7))]
    pairs += [(pauli_channel(rng.dirichlet(np.ones(4))),
               pauli_channel(rng.dirichlet(np.ones(4)))) for _ in range(20)]
    for a, b in pairs:
        ref = np.abs(np.linalg.eigvalsh(choi(a) - choi(b))).sum()
        got = diamond_distance(a, b)
        assert got == pytest.approx(ref, abs=1e-12)
        # stabilizing can only help the distinguisher
        assert got >= channel_distance(a, b) - 1e-12


# rows I, X, Y, Z: Pauli weight = row . (1, Mxx, Myy, Mzz) / 4
PAULI_SIGNS = np.array([[1, 1, 1, 1], [1, 1, -1, -1],
                        [1, -1, 1, -1], [1, -1, -1, 1]])


def pauli_weight_distance(a, b):
    """l1 distance of the Pauli weights of two Pauli channels, read off
    the diagonal M_ii = 1/2 tr(sigma_i Phi(sigma_i)): their exact diamond
    distance, as the Choi matrices are Bell-diagonal."""
    def weights(channel):
        diag = [0.5 * np.trace(p @ channel(p)).real
                for p in (PAULI_X, PAULI_Y, PAULI_Z)]
        return PAULI_SIGNS @ np.append(1.0, diag) / 4
    return np.abs(weights(a) - weights(b)).sum()


def test_diamond_distance_matches_pauli_weight_distance():
    rng = np.random.default_rng(5)
    pairs = [(depolarizing(0.8), depolarizing(0.83)),
             (dephasing(0.9), identity_channel()),
             (dephasing(0.6), depolarizing(0.7))]
    pairs += [(pauli_channel(rng.dirichlet(np.ones(4))),
               pauli_channel(rng.dirichlet(np.ones(4)))) for _ in range(200)]
    for a, b in pairs:
        assert abs(diamond_distance(a, b) - pauli_weight_distance(a, b)) \
            <= 1e-12


def random_kraus_channel(rng, n_ops):
    """Kraus operators cut from a random complex 2 n_ops x 2 isometry."""
    g = rng.normal(size=(2 * n_ops, 2)) + 1j * rng.normal(size=(2 * n_ops, 2))
    iso, _ = np.linalg.qr(g)
    return QuantumChannel(list(iso.reshape(n_ops, 2, 2)))


def test_diamond_distance_bounds_general_channels():
    rng = np.random.default_rng(11)
    rotated = framed(depolarizing(0.9), rotation(0.3, PAULI_X), np.eye(2))
    channels = [damping(0.2), damp_then_rotate(0.3, 0.7), rotated,
                depolarizing(0.9)]
    channels += [random_kraus_channel(rng, n) for n in (1, 2, 3, 4)
                 for _ in range(5)]
    for i, a in enumerate(channels):
        assert diamond_distance(a, a) == 0.0
        for b in channels[i + 1:]:
            got = diamond_distance(a, b)
            # the maximally entangled input and inputs without an ancilla
            # give lower bounds on the diamond norm
            entangled = np.abs(np.linalg.eigvalsh(choi(a) - choi(b))).sum()
            assert got >= entangled - 1e-12
            assert got >= channel_distance(a, b) - 1e-12
            assert got <= 2.0


def test_parse_channel_spec():
    ch = parse_channel_spec("dephasing:q=0.9")
    assert ch.name == "dephasing"
    assert ch.params["q"] == pytest.approx(0.9)
    assert parse_channel_spec("identity").name == "identity"
    with pytest.raises(ValueError):
        parse_channel_spec("dephasing")
    with pytest.raises(ValueError):
        parse_channel_spec("amplitude:q=0.5")
    for spec in ("depolarizing:q=1.5", "dephasing:q=1.5"):
        with pytest.raises(ValueError, match=re.escape("q=1.5 outside [0, 1]")):
            parse_channel_spec(spec)
    # a missing, unknown or repeated parameter names the spec
    for spec in ("dephasing:p=0.9", "dephasing:q=0.9,x=1",
                 "depolarizing:q=0.9,q=0.5"):
        with pytest.raises(ValueError, match=re.escape(repr(spec))):
            parse_channel_spec(spec)


def test_parse_channel_map_overrides():
    chans = parse_channel_map("dephasing:q=0.9", ["2=depolarizing:q=0.8"],
                              nodes=(1, 2, 3))
    assert chans[1].name == "dephasing"
    assert chans[2].name == "depolarizing"
    assert chans[3].name == "dephasing"
    with pytest.raises(ValueError):
        parse_channel_map("identity", ["9=identity"], nodes=(1, 2, 3))


def test_spec_string_roundtrip():
    ch = depolarizing(0.8)
    again = parse_channel_spec(ch.spec_string())
    assert again.name == ch.name
    assert again.params == ch.params
    assert repr(identity_channel()) == "QuantumChannel(identity)"
    assert repr(dephasing(0.9)) == "QuantumChannel(dephasing:q=0.9)"
