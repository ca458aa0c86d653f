import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anonqnet.analytic import (
    f_ae_ghz_dephasing,
    f_ae_ghz_depolarizing,
    f_ae_relay_depolarizing,
    f_ae_w_dephasing,
    f_ae_w_depolarizing,
    f_ae_w_loss,
    p_success_w,
    p_success_w_loss,
    pair_target,
)
from anonqnet.channels import (
    QuantumChannel,
    apply_to,
    dephasing,
    depolarizing,
    identity_channel,
)
from anonqnet.protocols import (
    NetworkConfig,
    ProtocolImpossibleError,
    RunOutcome,
    Transcript,
    _Protocol1Sampler,
    collision_detection,
    parity_protocol,
    receiver_notification,
    run_ghz_protocol,
    run_protocol1,
    run_relay_protocol,
    sample_protocol1_runs,
    teleport_branches,
    teleport_exact,
    veto_protocol,
    w_loss_branch_average_dense,
)
from anonqnet.qcore import (
    PAULI_X,
    PAULI_Z,
    DenseCapError,
    DensityMatrix,
    Ket,
    apply_op_dense,
    fidelity_with_pure,
    make_bell_pair,
    make_ghz_state,
    make_w_state,
    partial_trace,
    postselect,
)
from anonqnet.security import AdversaryScenario, adversary_view


def uniform(channel, n):
    return {i: channel for i in range(1, n + 1)}


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    with pytest.raises(ValueError):
        NetworkConfig(n_nodes=2, sender=1, receiver=2)
    with pytest.raises(ValueError):
        NetworkConfig(n_nodes=4, sender=1, receiver=1)
    with pytest.raises(ValueError):
        NetworkConfig(n_nodes=4, sender=1, receiver=2, lost_nodes={2})
    with pytest.raises(ValueError):
        NetworkConfig(n_nodes=4, sender=1, receiver=2, lost_nodes={3, 4})
    cfg = NetworkConfig(n_nodes=5, sender=2, receiver=4, lost_nodes={5})
    assert cfg.live_nodes == (1, 2, 3, 4)
    assert cfg.channel_for(3).name == "identity"


def test_outcome_invariant():
    with pytest.raises(ValueError):
        RunOutcome(aborted=True, delivered_fidelity=0.9,
                   analytic_success_probability=0.5,
                   transcript=Transcript(), anonymous_entanglement=None)


# ---------------------------------------------------------------------------
# classical subroutines


def test_parity_equals_xor_small():
    rng = np.random.default_rng(0)
    inputs = {1: 1, 2: 0, 3: 1, 4: 1}
    for _ in range(50):
        assert parity_protocol(inputs, rng) == 1


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=8),
       st.integers(0, 10**6))
def test_parity_equals_xor_property(bits, seed):
    rng = np.random.default_rng(seed)
    inputs = {i + 1: b for i, b in enumerate(bits)}
    want = 0
    for b in bits:
        want ^= b
    assert parity_protocol(inputs, rng) == want


def test_parity_transcript_shape():
    rng = np.random.default_rng(1)
    t = Transcript()
    parity_protocol({1: 1, 2: 0, 3: 0}, rng, transcript=t)
    sends = [e for e in t.events if e.kind == "private_send"]
    casts = [e for e in t.events if e.kind == "broadcast"]
    assert len(sends) == 9  # one share per (owner, recipient) pair
    assert len(casts) == 3
    assert all(e.visibility.startswith("private-to(") for e in sends)
    assert all(e.visibility == "public" for e in casts)


def test_veto_completeness_exact():
    rng = np.random.default_rng(2)
    for _ in range(200):
        assert veto_protocol({1: 0, 2: 0, 3: 0, 4: 0}, rng, rounds=20) == 0


def test_veto_detects_single_one():
    rng = np.random.default_rng(3)
    hits = sum(veto_protocol({1: 0, 2: 1, 3: 0}, rng, rounds=20)
               for _ in range(500))
    assert hits == 500  # miss probability 2^-20 per trial


def test_veto_round_count_controls_soundness():
    # with a single round, a lone 1 is missed half the time
    rng = np.random.default_rng(4)
    hits = sum(veto_protocol({1: 1, 2: 0}, rng, rounds=1) for _ in range(2000))
    assert abs(hits / 2000 - 0.5) < 0.05


def test_collision_detection_logic():
    assert collision_detection({1: 1, 2: 0, 3: 0}) == 0
    assert collision_detection({1: 1, 2: 1, 3: 0}) == 1
    assert collision_detection({1: 0, 2: 0, 3: 0}) == 1


def test_receiver_notification_bits_and_privacy():
    t = Transcript()
    bits = receiver_notification(1, 3, (1, 2, 3, 4), transcript=t)
    assert bits == {2: 0, 3: 1, 4: 0}
    assert all(e.visibility.startswith("private-to(") for e in t.events)
    assert not [e for e in t.events if e.visibility == "public"]


# ---------------------------------------------------------------------------
# Protocol 1 exact mode


def test_protocol1_exact_identity_all_pairs():
    cfg = NetworkConfig(n_nodes=6, sender=3, receiver=5)
    out = run_protocol1(cfg, mode="exact")
    assert out.analytic_success_probability == pytest.approx(2 / 6, abs=1e-12)
    assert out.ae_fidelity == pytest.approx(1.0, abs=1e-12)
    assert out.delivered_fidelity == pytest.approx(1.0, abs=1e-12)
    assert out.anonymous_entanglement.labels == ("sender", "receiver")


@pytest.mark.parametrize("q", [0.7, 0.9, 1.0])
@pytest.mark.parametrize("family,make", [("dephasing", dephasing),
                                         ("depolarizing", depolarizing)])
def test_protocol1_exact_matches_closed_forms(q, family, make):
    n = 5
    cfg = NetworkConfig(n_nodes=n, sender=1, receiver=4,
                        per_qubit_channels=uniform(make(q), n))
    out = run_protocol1(cfg, mode="exact")
    want_f = (f_ae_w_dephasing(q) if family == "dephasing"
              else f_ae_w_depolarizing(q, n))
    assert out.ae_fidelity == pytest.approx(want_f, abs=1e-12)
    assert out.analytic_success_probability == pytest.approx(
        p_success_w(family, q, n), abs=1e-12)


def test_protocol1_exact_mixed_channels_runs():
    chans = {1: dephasing(0.9), 2: depolarizing(0.8), 3: identity_channel(),
             4: dephasing(0.7), 5: depolarizing(0.95)}
    cfg = NetworkConfig(n_nodes=5, sender=1, receiver=2,
                        per_qubit_channels=chans)
    out = run_protocol1(cfg, mode="exact")
    assert 0 < out.analytic_success_probability < 1
    assert 0 <= out.ae_fidelity <= 1


def test_protocol1_transcript_hides_roles():
    cfg = NetworkConfig(n_nodes=5, sender=2, receiver=4)
    out = run_protocol1(cfg, mode="exact")
    public = out.transcript.public_events()
    # collision output is the only public event before measurements, and
    # nothing public is attributed to sender or receiver
    assert all(e.actor == 0 for e in public)
    assert all(e.payload in (b"\x00", b"\x01") for e in public)


def test_protocol1_dense_cap():
    cfg = NetworkConfig(n_nodes=13, sender=1, receiver=2)
    with pytest.raises(DenseCapError):
        run_protocol1(cfg, mode="exact")
    small = NetworkConfig(n_nodes=5, sender=1, receiver=2, dense_cap=4)
    with pytest.raises(DenseCapError):
        run_protocol1(small, mode="exact")


# ---------------------------------------------------------------------------
# Protocol 1 with a lost node


def test_protocol1_loss_identity_conditional():
    for n in (4, 5, 6):
        cfg = NetworkConfig(n_nodes=n, sender=1, receiver=2,
                            lost_nodes={n})
        out = run_protocol1(cfg, mode="exact")
        assert out.ae_fidelity == pytest.approx(2 / 3, abs=1e-12)
        assert out.analytic_success_probability == pytest.approx(
            3 / n, abs=1e-12)


def test_protocol1_loss_noisy_frozen_point():
    cfg = NetworkConfig(n_nodes=5, sender=1, receiver=2, lost_nodes={5},
                        per_qubit_channels=uniform(depolarizing(0.9), 5))
    out = run_protocol1(cfg, mode="exact")
    assert out.ae_fidelity == pytest.approx(0.5691949152542372, abs=1e-12)
    assert out.analytic_success_probability == pytest.approx(0.5605, abs=1e-12)


def test_loss_closed_form_is_branch_average():
    # the closed forms score the lost-excitation branch into the average
    # rather than conditioning on post-selection
    for q in (0.8, 1.0):
        for family, make in (("dephasing", dephasing),
                             ("depolarizing", depolarizing)):
            dense = w_loss_branch_average_dense(make(q), 5)
            assert dense == pytest.approx(f_ae_w_loss(family, q, 5), abs=1e-9)


def test_loss_success_probability_formula():
    cfg = NetworkConfig(n_nodes=6, sender=2, receiver=3, lost_nodes={6},
                        per_qubit_channels=uniform(depolarizing(0.85), 6))
    out = run_protocol1(cfg, mode="exact")
    assert out.analytic_success_probability == pytest.approx(
        p_success_w_loss("depolarizing", 0.85, 6), abs=1e-12)


# ---------------------------------------------------------------------------
# GHZ protocol


@pytest.mark.parametrize("q,family,make", [
    (0.9, "dephasing", dephasing), (0.8, "depolarizing", depolarizing)])
def test_ghz_exact_matches_closed_forms(q, family, make):
    n = 6
    cfg = NetworkConfig(n_nodes=n, sender=2, receiver=5,
                        per_qubit_channels=uniform(make(q), n))
    out = run_ghz_protocol(cfg, mode="exact")
    want = (f_ae_ghz_dephasing(q, n) if family == "dephasing"
            else f_ae_ghz_depolarizing(q, n))
    assert out.ae_fidelity == pytest.approx(want, abs=1e-12)
    assert out.analytic_success_probability == 1.0
    assert not out.aborted


def test_ghz_identity_perfect():
    cfg = NetworkConfig(n_nodes=4, sender=1, receiver=4)
    out = run_ghz_protocol(cfg, mode="exact")
    assert out.ae_fidelity == pytest.approx(1.0, abs=1e-12)
    assert out.delivered_fidelity == pytest.approx(1.0, abs=1e-12)


def test_ghz_loss_impossible():
    cfg = NetworkConfig(n_nodes=5, sender=1, receiver=2, lost_nodes={3})
    with pytest.raises(ProtocolImpossibleError):
        run_ghz_protocol(cfg)


def test_ghz_sampling_agrees_with_exact_dephasing():
    n, q = 5, 0.9
    cfg = NetworkConfig(n_nodes=n, sender=1, receiver=3,
                        per_qubit_channels=uniform(dephasing(q), n))
    exact = run_ghz_protocol(cfg, mode="exact")
    rng = np.random.default_rng(17)
    fids = [run_ghz_protocol(cfg, rng=rng, mode="sampling").delivered_fidelity
            for _ in range(50)]
    # every corrected branch delivers the same fidelity under dephasing
    assert np.mean(fids) == pytest.approx(exact.delivered_fidelity, abs=1e-10)


# ---------------------------------------------------------------------------
# relay protocol


def test_relay_exact_matches_closed_form_various_placements():
    for (n, s, r, q) in [(4, 1, 4, 0.9), (5, 2, 4, 0.8), (6, 3, 4, 0.95),
                         (6, 5, 2, 0.9)]:
        cfg = NetworkConfig(n_nodes=n, sender=s, receiver=r,
                            per_qubit_channels=uniform(depolarizing(q), n))
        out = run_relay_protocol(cfg, mode="exact")
        assert out.ae_fidelity == pytest.approx(
            f_ae_relay_depolarizing(q, n, s, r), abs=1e-10), (n, s, r, q)


def test_relay_live_register_capped_at_six():
    for (s, r) in [(1, 2), (2, 5), (3, 4), (1, 6), (5, 6)]:
        cfg = NetworkConfig(n_nodes=6, sender=s, receiver=r,
                            per_qubit_channels=uniform(depolarizing(0.9), 6))
        out = run_relay_protocol(cfg, mode="exact")
        assert out.max_live_qubits <= 6


def test_relay_identity_perfect_even_at_endpoints():
    for (s, r) in [(1, 6), (1, 2), (4, 6)]:
        cfg = NetworkConfig(n_nodes=6, sender=s, receiver=r)
        out = run_relay_protocol(cfg, mode="exact")
        assert out.ae_fidelity == pytest.approx(1.0, abs=1e-12)
        assert out.delivered_fidelity == pytest.approx(1.0, abs=1e-12)


def test_relay_rejects_small_or_lossy():
    with pytest.raises(ValueError):
        run_relay_protocol(NetworkConfig(n_nodes=3, sender=1, receiver=2))
    with pytest.raises(ValueError):
        run_relay_protocol(NetworkConfig(n_nodes=5, sender=1, receiver=2,
                                         lost_nodes={4}))


def test_relay_sampling_mixes_to_exact():
    cfg = NetworkConfig(n_nodes=5, sender=2, receiver=4,
                        per_qubit_channels=uniform(depolarizing(0.9), 5))
    exact = run_relay_protocol(cfg, mode="exact")
    rng = np.random.default_rng(23)
    fids = [run_relay_protocol(cfg, rng=rng, mode="sampling").ae_fidelity
            for _ in range(60)]
    assert np.mean(fids) == pytest.approx(exact.ae_fidelity, abs=1e-9)
    # swap outcomes are broadcast publicly
    out = run_relay_protocol(cfg, rng=np.random.default_rng(1),
                             mode="sampling")
    casts = [e for e in out.transcript.events if e.kind == "broadcast"]
    assert casts


# ---------------------------------------------------------------------------
# teleportation


def test_teleport_exact_identity_any_message():
    rng = np.random.default_rng(5)
    pair = make_bell_pair(("s", "r"), kind="psi+").to_density()
    for _ in range(10):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        msg = Ket(v, ("message",))
        delivered, weights = teleport_exact(pair, msg, "s", "r",
                                            resource="psi+")
        assert sum(weights) == pytest.approx(1.0, abs=1e-12)
        assert fidelity_with_pure(delivered.normalized(),
                                  Ket(v, ("r",))) == pytest.approx(
            1.0, abs=1e-12)


@pytest.mark.parametrize("kind", ["psi+", "phi+"])
def test_teleport_branches_each_outcome_delivers(kind):
    pair = make_bell_pair(("s", "r"), kind=kind).to_density()
    v = np.array([0.6, 0.8j])
    branches = teleport_branches(pair, Ket(v, ("message",)), "s", "r",
                                 resource=kind)
    assert len(branches) == 4
    for w, fixed in branches:
        assert w == pytest.approx(0.25, abs=1e-12)
        assert fixed.labels == ("r",)
        assert fidelity_with_pure(fixed.normalized(),
                                  Ket(v, ("r",))) == pytest.approx(
            1.0, abs=1e-12)


def test_teleport_exact_phi_resource():
    pair = make_bell_pair(("s", "r"), kind="phi+").to_density()
    v = np.array([0.6, 0.8j])
    msg = Ket(v, ("message",))
    delivered, _ = teleport_exact(pair, msg, "s", "r", resource="phi+")
    assert fidelity_with_pure(delivered.normalized(),
                              Ket(v, ("r",))) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# sampling mode


def test_sampled_abort_rate_tracks_success_probability():
    cfg = NetworkConfig(n_nodes=5, sender=1, receiver=2, seed=41)
    outs, agg = sample_protocol1_runs(cfg, 4000)
    p = agg["exact_success_probability"]
    assert p == pytest.approx(0.4, abs=1e-12)
    sigma = np.sqrt(p * (1 - p) / 4000)
    assert abs((1 - agg["abort_rate"]) - p) < 3 * sigma


def test_sampled_runs_reproducible_for_fixed_seed():
    cfg = NetworkConfig(n_nodes=5, sender=1, receiver=3, seed=99,
                        per_qubit_channels=uniform(depolarizing(0.9), 5))
    _, agg1 = sample_protocol1_runs(cfg, 300)
    _, agg2 = sample_protocol1_runs(cfg, 300)
    assert agg1 == agg2


# Seeded outputs pinned at their values before the measurement helpers were
# shared and parity was vectorized; only discrete data is pinned.
PINNED_TRANSCRIPTS = [
    (run_protocol1, 5, 1, 2, 2, False,
     "0ac7b89437c841ffc58449335b9ea67d93da5b791fcc391b8a63feebc397da92"),
    (run_protocol1, 5, 1, 2, 7, True,
     "8dc59c64071275fb180e944dde010cf97005f4a04cb43fd221f8abd463a016d6"),
    (run_ghz_protocol, 5, 1, 2, 7, False,
     "54c97cefbca86ae08879ef55b0dbc3c8152b75b90e871627e8070948f732e25e"),
    (run_relay_protocol, 6, 2, 5, 7, False,
     "d4d960d77ccc21f906edb6ec19aba6018dfec6f2bf4b6219dbb71ce126db3da0"),
]

# sample_protocol1_runs(n=6, seed=11, 300 runs): "A" is an abort, a digit
# d the public teleport bits (d >> 1, d & 1)
PINNED_BATCH = (
    "213AA3AAAA1AAAAAA3112AAAAA2A2AAAAAAAA2A3A2AAAAAAAA2AA0AA1A2AAAAAAAA3A0A3"
    "AAAA0AAAAAAA3A2AAAAAAA3AAAAAAAAAA2AAAA1AA12AA0A30AAAAAAAAAA313AAAAAAAAAA"
    "A32AAAAAA23A22AAAAA0A2AAA0AA2AA0A11A2AA2A0AA1AAAAAA0A2A0AAA2AA0AAAA121AA"
    "0AAA131A12AA1AA23110AAAA0AAA2AAAAAAAAAA11AA20AA0AAAA1AAAAAAAA0AAAA1A1AAA"
    "AAA3AAA3A01A"
)


@pytest.mark.parametrize("runner, n, s, r, seed, aborted, digest",
                         PINNED_TRANSCRIPTS)
def test_seeded_transcript_pinned(runner, n, s, r, seed, aborted, digest):
    cfg = NetworkConfig(n_nodes=n, sender=s, receiver=r, seed=seed,
                        per_qubit_channels=uniform(depolarizing(0.9), n))
    out = runner(cfg, mode="sampling")
    assert out.aborted is aborted
    text = out.transcript.to_jsonl()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_seeded_batch_pinned():
    cfg = NetworkConfig(n_nodes=6, sender=1, receiver=2, seed=11,
                        per_qubit_channels=uniform(depolarizing(0.9), 6))
    outs, agg = sample_protocol1_runs(cfg, 300)
    got = "".join("A" if o.aborted else
                  str(2 * o.public_teleport_bits[0] + o.public_teleport_bits[1])
                  for o in outs)
    assert got == PINNED_BATCH
    assert agg["aborts"] == 213


def test_sampled_aborted_run_has_no_delivery():
    cfg = NetworkConfig(n_nodes=5, sender=1, receiver=2, seed=0)
    outs, _ = sample_protocol1_runs(cfg, 200)
    aborted = [o for o in outs if o.aborted]
    assert aborted
    assert all(o.delivered_fidelity is None for o in aborted)
    assert all(o.anonymous_entanglement is None for o in aborted)


def test_single_sampling_run_records_full_transcript():
    cfg = NetworkConfig(n_nodes=4, sender=1, receiver=2, seed=12)
    out = run_protocol1(cfg, mode="sampling")
    kinds = {e.kind for e in out.transcript.events}
    assert "measurement" in kinds
    assert "broadcast" in kinds and "private_send" in kinds
    if out.aborted:
        assert "abort" in kinds
    else:
        assert "teleport_correction" in kinds


# ---------------------------------------------------------------------------
# transcripts


def test_transcript_jsonl_roundtrip():
    cfg = NetworkConfig(n_nodes=4, sender=1, receiver=2, seed=5)
    out = run_protocol1(cfg, mode="sampling")
    text = out.transcript.to_jsonl()
    again = Transcript.from_jsonl(text)
    assert len(again.events) == len(out.transcript.events)
    for a, b in zip(again.events, out.transcript.events):
        assert (a.round, a.kind, a.actor, a.payload, a.visibility) == (
            b.round, b.kind, b.actor, b.payload, b.visibility)
    # every line is standalone JSON with hex payload
    for line in text.splitlines():
        d = json.loads(line)
        bytes.fromhex(d["payload"])


def test_transcript_rounds_must_not_decrease():
    t = Transcript()
    t.add(3, "broadcast", 1, b"\x00")
    with pytest.raises(ValueError):
        t.add(2, "broadcast", 1, b"\x00")


# ---------------------------------------------------------------------------
# exact routes against a dense reference built here from qcore primitives


def damp_then_rotate(gamma, theta, axis=PAULI_X):
    """Amplitude damping followed by exp(-i theta axis / 2): a non-unital
    channel with complex Kraus operators, so its effects are neither real
    nor symmetric and Φ differs from Φ†."""
    k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
    u = np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * axis
    return QuantumChannel([u @ k0, u @ k1], name="damp-rotate")


# n = 6, sender 4 > receiver 2, not adjacent; both ends and three measured
# nodes see a non-unital complex channel (an X rotation leaves the X-basis
# effects real, so node 5 turns about Z for the GHZ case)
HETERO = {1: damp_then_rotate(0.3, 0.7), 2: damp_then_rotate(0.2, -1.1),
          3: depolarizing(0.9), 4: damp_then_rotate(0.25, 0.4),
          5: damp_then_rotate(0.35, 0.8, PAULI_Z),
          6: damp_then_rotate(0.5, 0.3)}
HS, HR = 4, 2


def hetero_config(**kw):
    return NetworkConfig(n_nodes=6, sender=HS, receiver=HR,
                         per_qubit_channels=HETERO, **kw)


def dense_noisy(make, lost=()):
    rho = make(6, labels=range(1, 7)).to_density()
    if lost:
        rho = partial_trace(rho, lost)
    for node in rho.labels:
        rho = apply_to(HETERO[node], rho, node)
    return rho


def dense_measure(rho, outcomes, basis="standard"):
    for node, bit in outcomes.items():
        branch, _ = postselect(rho, node, basis, bit)
        rho = partial_trace(branch, [node])
    return rho


def as_pair(rho):
    """Unnormalized (sender, receiver) matrix of a two-node register."""
    return rho.permuted((HS, HR)).mat


@pytest.mark.parametrize("lost", [(), (5,)])
def test_w_exact_matches_dense_under_complex_nonunital_noise(lost):
    out = run_protocol1(hetero_config(lost_nodes=set(lost)), mode="exact")
    measured = {i: 0 for i in (1, 3, 5, 6) if i not in lost}
    ref = as_pair(dense_measure(dense_noisy(make_w_state, lost), measured))
    weight = np.trace(ref).real
    assert out.analytic_success_probability == pytest.approx(weight, abs=1e-12)
    assert np.abs(out.anonymous_entanglement.mat - ref / weight).max() < 1e-12


def test_ghz_exact_matches_dense_under_complex_nonunital_noise():
    out = run_ghz_protocol(hetero_config(), mode="exact")
    rho = dense_noisy(make_ghz_state)
    for node in (1, 3, 5, 6):
        plus = dense_measure(rho, {node: 0}, "hadamard")
        minus = apply_op_dense(dense_measure(rho, {node: 1}, "hadamard"),
                               PAULI_Z, [HR])
        rho = DensityMatrix(plus.mat + minus.mat, plus.labels,
                            unnormalized=True)
    ref = as_pair(rho)
    assert np.abs(out.anonymous_entanglement.mat - ref / np.trace(ref).real
                  ).max() < 1e-12


def test_sampler_branches_match_dense_under_complex_nonunital_noise():
    sampler = _Protocol1Sampler(hetero_config())
    rho = dense_noisy(make_w_state)
    assert sampler.measuring == [1, 3, 5, 6]
    expected = []
    for string in range(16):
        bits = tuple((string >> (3 - i)) & 1 for i in range(4))
        ref = as_pair(dense_measure(rho, dict(zip(sampler.measuring, bits))))
        if np.trace(ref).real >= 1e-15:
            expected.append((bits, ref))
    assert [b[0] for b in sampler.branches] == [bits for bits, _ in expected]
    for (bits, w, pair, _, ae_fid), (_, ref) in zip(sampler.branches,
                                                    expected):
        assert w == pytest.approx(np.trace(ref).real, abs=1e-12)
        assert np.abs(pair.mat - ref / w).max() < 1e-12
        assert ae_fid == fidelity_with_pure(pair, pair_target("W"))


def test_adversary_view_matches_dense_enumeration_corrupt_receiver():
    # coalition {2, 5}: node 2 is the receiver, node 5 measures; the dense
    # reference enumerates every outcome string instead of subtracting
    cfg = hetero_config()
    view = adversary_view(cfg, AdversaryScenario(frozenset({2, 5})), HS)
    rho = dense_noisy(make_w_state)
    expected = {}

    def add(label, weighted):
        expected[label] = expected.get(label, 0) + weighted

    for string in range(16):
        bits = dict(zip((1, 3, 5, 6), ((string >> (3 - i)) & 1
                                       for i in range(4))))
        ref = dense_measure(rho, bits)
        base = ((1, 0), (bits[5],))
        if any(bits[i] for i in (1, 3, 6)) or bits[5]:
            honest = int(any(bits[i] for i in (1, 3, 6)))
            add(base + (honest, 1, None), partial_trace(ref, [HS]).mat)
            continue
        w = ref.weight
        pair = DensityMatrix(as_pair(ref) / w, (HS, HR))
        for m, (w_m, fixed) in enumerate(teleport_branches(
                pair, cfg.message_state, HS, HR, "psi+")):
            add(base + (0, 0, ("m", m)), w * fixed.mat)
    assert view.labels() == set(expected)
    for label, weighted in expected.items():
        assert view.weight(label) == pytest.approx(np.trace(weighted).real,
                                                   abs=1e-12)
        assert np.abs(view.weighted_mat(label) - weighted).max() < 1e-12


def test_exact_routes_build_no_density_matrix_wider_than_three(monkeypatch):
    widest = []
    post_init = DensityMatrix.__post_init__

    def recording(self):
        post_init(self)
        widest.append(len(self.labels))

    monkeypatch.setattr(DensityMatrix, "__post_init__", recording)
    chans = uniform(depolarizing(0.9), 9)
    run_protocol1(NetworkConfig(n_nodes=9, sender=1, receiver=2,
                                per_qubit_channels=chans), mode="exact")
    run_protocol1(NetworkConfig(n_nodes=9, sender=1, receiver=2,
                                per_qubit_channels=chans, lost_nodes={9}),
                  mode="exact")
    run_ghz_protocol(NetworkConfig(n_nodes=9, sender=3, receiver=7,
                                   per_qubit_channels=chans), mode="exact")
    w_loss_branch_average_dense(depolarizing(0.9), 9)
    adversary_view(NetworkConfig(n_nodes=7, sender=1, receiver=2,
                                 per_qubit_channels=uniform(dephasing(0.9), 7)),
                   AdversaryScenario(frozenset({2, 4})), 3)
    assert widest and max(widest) <= 3
