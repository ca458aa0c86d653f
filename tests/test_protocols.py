import collections
import hashlib
import itertools
import json
import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anonqnet.analytic import (
    GHZ_DEPOL,
    W_DEPOL,
    f_ae_ghz_dephasing,
    f_ae_ghz_depolarizing,
    f_ae_relay_depolarizing,
    f_ae_w_dephasing,
    f_ae_w_depolarizing,
    f_ae_w_loss,
    p_success_w,
    p_success_w_loss,
    pair_fidelity,
    structured_pair,
    threshold_q,
)
from anonqnet.channels import (
    QuantumChannel,
    dephasing,
    depolarizing,
    identity_channel,
    z_defect,
)
from anonqnet.protocols import (
    _GHZ,
    _W,
    _X_READ,
    _Z_R,
    Batch,
    NetworkConfig,
    ProtocolImpossibleError,
    RunOutcome,
    Transcript,
    _GhzSampler,
    _Protocol1Sampler,
    _RelaySampler,
    _Sampler,
    _branch_plan,
    _cdf,
    _contract,
    _heisenberg,
    _normalized_pair,
    batch_summary,
    collision_detection,
    exact_pair,
    outcome_transfers,
    parity_protocol,
    pullback_pair,
    pullback_pairs,
    receiver_notification,
    run_ghz_protocol,
    run_protocol1,
    run_relay_protocol,
    sample_ghz_runs,
    sample_protocol1_runs,
    sample_relay_runs,
    teleport_branches,
    veto_protocol,
    w_loss_branch_average_dense,
)
from anonqnet.qcore import (
    BELL_CORRECTIONS,
    ID2,
    PAULI_X,
    PAULI_Z,
    DensityMatrix,
    Ket,
    apply_op_dense,
    fidelity_with_pure,
    make_bell_pair,
)
from anonqnet.security import adversary_views, security_report
from dense_reference import (
    apply_to,
    as_dicts,
    bell_project,
    make_ghz_state,
    make_w_state,
    partial_trace,
    postselect,
    random_kraus_channel,
    tensor,
)


def uniform(channel, n):
    return {i: channel for i in range(1, n + 1)}


def ghz_steps(cfg, measuring, bits):
    """The GHZ transfer string of an X-outcome string, built node by node
    without the _transfer cache: Φ†(|±><±|) lifted, the identity elsewhere."""
    reads = dict(zip(measuring, bits))
    return np.array([_GHZ.transfer(_heisenberg(cfg.channel_for(i), _X_READ[reads[i]]))
                     if i in reads else _GHZ.identity for i in cfg.nodes])


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


def test_message_is_a_unit_complex_two_vector():
    plus = NetworkConfig(n_nodes=4, sender=1, receiver=2).message_state
    assert plus.dtype == complex and np.array_equal(plus, np.array([1, 1]) / np.sqrt(2))
    amps = np.array([0.6, 0.8j])
    cfg = NetworkConfig(n_nodes=4, sender=1, receiver=2, message_state=amps)
    assert cfg.message_state.dtype == complex and np.array_equal(cfg.message_state, amps)
    assert NetworkConfig(n_nodes=4, sender=1, receiver=2,  # a real list is cast
                         message_state=[0, 1]).message_state.dtype == complex
    NetworkConfig(n_nodes=4, sender=1, receiver=2, message_state=amps * (1 + 9e-11))
    for bad in (np.array([1, 0, 0, 0], dtype=complex), np.array([[0.6], [0.8]]), 1.0):
        with pytest.raises(ValueError, match="message must be a single qubit's 2 amplitudes"):
            NetworkConfig(n_nodes=4, sender=1, receiver=2, message_state=bad)
    for off in (1 + 2e-10, 1 - 2e-10, 0.0):
        with pytest.raises(ValueError, match="message norm .* is not 1"):
            NetworkConfig(n_nodes=4, sender=1, receiver=2, message_state=amps * off)


def test_equal_channels_walk_as_one_object(monkeypatch):
    # one depolarizing(0.9) object per node walks like one shared object:
    # as many Φ† evaluations and the same pair to the bit; None is identity
    import anonqnet.protocols as protocols

    calls = []
    real = protocols._heisenberg
    monkeypatch.setattr(protocols, "_heisenberg",
                        lambda ch, op: calls.append(1) or real(ch, op))
    shared = {**uniform(depolarizing(0.9), 40), 5: None}
    copies = {**{i: depolarizing(0.9) for i in range(1, 41)}, 5: None}
    configs = [NetworkConfig(40, 3, 17, chans) for chans in (shared, copies)]
    assert configs[1].channel_for(5) is configs[0].channel_for(5)
    for protocol in ("W", "GHZ"):
        runs = []
        for cfg in configs:
            protocols._transfer.cache_clear()  # both configs share the identity object
            calls.clear()
            runs.append((exact_pair(cfg, protocol), len(calls)))
        ((w0, pair0), n0), ((w1, pair1), n1) = runs
        assert n1 == n0 <= 4  # two channels (with the identity), two reads
        assert w1 == w0 and pair1.tobytes() == pair0.tobytes()


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
    assert out.to_json_dict()["anonymous_entanglement"]["labels"] == ["sender", "receiver"]


@pytest.mark.parametrize("q", [0.7, 0.9, 1.0])
@pytest.mark.parametrize("family,make,n,receiver", [
    ("dephasing", dephasing, 5, 4), ("depolarizing", depolarizing, 5, 4),
    ("dephasing", dephasing, 3, 3), ("depolarizing", depolarizing, 3, 3),
], ids=["dephasing-dephasing", "depolarizing-depolarizing",  # n = 5's earlier ids
        "dephasing-n3", "depolarizing-n3"])
def test_protocol1_exact_matches_closed_forms(q, family, make, n, receiver):
    cfg = NetworkConfig(n_nodes=n, sender=1, receiver=receiver,
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


@pytest.mark.parametrize("protocol,run,lost", [
    ("W", run_protocol1, ()), ("W", run_protocol1, (2, 6)),
    ("GHZ", run_ghz_protocol, ()), ("relay", run_relay_protocol, ())])
def test_exact_pair_is_the_exact_runs_pair(protocol, run, lost):
    chans = {i: (dephasing, depolarizing)[i % 2](0.99 - 0.02 * i) for i in range(1, 8)}
    cfg = NetworkConfig(n_nodes=7, sender=5, receiver=3, per_qubit_channels=chans,
                        lost_nodes=lost)
    weight, pair = exact_pair(cfg, protocol)
    out = run(cfg, mode="exact")
    assert weight == out.analytic_success_probability
    assert pair.shape == out.anonymous_entanglement.shape == (4, 4)
    assert np.array_equal(pair, out.anonymous_entanglement)
    with pytest.raises(ValueError, match="unknown protocol"):
        exact_pair(cfg, "W_loss")


def test_protocol1_transcript_hides_roles():
    cfg = NetworkConfig(n_nodes=5, sender=2, receiver=4)
    out = run_protocol1(cfg, mode="exact")
    public = out.transcript.public_events()
    # collision output is the only public event before measurements, and
    # nothing public is attributed to sender or receiver
    assert all(e.actor == 0 for e in public)
    assert all(e.payload in (b"\x00", b"\x01") for e in public)


def test_exact_routes_past_twelve_nodes_and_underflow_refusal():
    n, q = 13, 0.9
    cfg = NetworkConfig(n_nodes=n, sender=1, receiver=2,
                        per_qubit_channels=uniform(depolarizing(q), n))
    w = run_protocol1(cfg, mode="exact")
    assert w.ae_fidelity == pytest.approx(f_ae_w_depolarizing(q, n), abs=1e-10)
    assert w.analytic_success_probability == pytest.approx(
        p_success_w("depolarizing", q, n), abs=1e-10)
    ghz = run_ghz_protocol(cfg, mode="exact")
    assert ghz.ae_fidelity == pytest.approx(f_ae_ghz_depolarizing(q, n),
                                            abs=1e-10)
    # the W Born weight falls like ((1 + q)/2)^N: 0.75^3000 ~ 1e-375 is
    # not a normal double, so the run is refused instead of dividing by it
    n = 3000
    far = NetworkConfig(n_nodes=n, sender=1, receiver=2,
                        per_qubit_channels=uniform(depolarizing(0.5), n))
    with pytest.raises(ValueError, match="underflows"):
        run_protocol1(far, mode="exact")


@pytest.mark.parametrize("formula, runner", [(W_DEPOL, run_protocol1),
                                             (GHZ_DEPOL, run_ghz_protocol)],
                         ids=["W_depol-run_protocol1",
                              "GHZ_depol-run_ghz_protocol"])
def test_exact_pair_fidelity_is_half_at_threshold_n183(formula, runner):
    # N = 183 is the W/GHZ crossover; the exact engine reaches it directly
    n = 183
    cfg = NetworkConfig(n_nodes=n, sender=1, receiver=2,
                        per_qubit_channels=uniform(
                            depolarizing(threshold_q(formula, n)), n))
    assert runner(cfg, mode="exact").ae_fidelity == pytest.approx(0.5,
                                                                  abs=1e-10)


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


def test_recordings_over_the_transcript_budget_are_refused_before_any_draw(
        monkeypatch):
    # a recorded parity run over k nodes holds k (k + 1) events, so a
    # recording's size grows as the square of the node count
    budget = _Sampler.TRANSCRIPT_BUDGET
    small = NetworkConfig(n_nodes=6, sender=1, receiver=2)
    # W at 6 nodes: 22 parity runs of 6 x 7 events, and 18 others
    over = budget // (22 * 42 + 18) + 1
    for cap, sample in (
            (budget, lambda rng: run_protocol1(
                NetworkConfig(n_nodes=109, sender=1, receiver=2), rng=rng,
                mode="sampling")),
            (budget, lambda rng: run_ghz_protocol(
                NetworkConfig(n_nodes=295, sender=1, receiver=2), rng=rng,
                mode="sampling")),
            # a relay recording holds 2 n events, within the budget up to
            # 131,072 nodes, so its case lowers the budget
            (2 * 6 - 1, lambda rng: run_relay_protocol(small, rng=rng,
                                                       mode="sampling"))):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with monkeypatch.context() as patch, pytest.raises(
                ValueError, match=f"over the budget of {cap}$"):
            patch.setattr(_Sampler, "TRANSCRIPT_BUDGET", cap)
            sample(rng)
        assert rng.bit_generator.state == state
    # the largest recordings admitted: W at 108 live nodes and 20 veto
    # rounds, GHZ at 294 nodes
    for sampler in (_Protocol1Sampler(NetworkConfig(n_nodes=108, sender=1,
                                                    receiver=2)),
                    _Protocol1Sampler(NetworkConfig(n_nodes=109, sender=1,
                                                    receiver=2, lost_nodes={5})),
                    _GhzSampler(NetworkConfig(n_nodes=294, sender=1, receiver=2))):
        assert budget - 4000 < sampler.events_per_run <= budget
    # unrecorded batches hold no transcript, and no sampled route has a
    # node cap any more
    assert sample_protocol1_runs(small, over)[1]["runs"] == over
    cfg = NetworkConfig(n_nodes=13, sender=1, receiver=2, seed=2)
    assert run_ghz_protocol(cfg, mode="sampling").delivered_fidelity == (
        pytest.approx(1.0, abs=1e-12))
    out = run_protocol1(NetworkConfig(n_nodes=50, sender=1, receiver=2, seed=3,
                                      per_qubit_channels=uniform(depolarizing(0.9), 50)),
                        mode="sampling")
    assert 0 < len(out.transcript.events) <= budget


def test_w_sampler_plans_with_one_contraction_and_refuses_over_budget_recordings(
        monkeypatch):
    # the walk carries one environment through the nodes, so a plan makes
    # one _contract call (the all-zero string's Born weight) at any node
    # count and a walk makes none
    import anonqnet.protocols as protocols

    calls = []
    real = protocols._contract
    monkeypatch.setattr(protocols, "_contract",
                        lambda *args: calls.append(1) or real(*args))
    cfg = NetworkConfig(n_nodes=2000, sender=1, receiver=2)
    for sample in (lambda rng: run_protocol1(cfg, rng=rng, mode="sampling"),
                   lambda rng: _Protocol1Sampler(cfg).run(rng)):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="over the budget of 262144"):
            sample(rng)
        assert rng.bit_generator.state == state
    assert len(calls) == 2
    sampler = _Protocol1Sampler(cfg)
    assert len(calls) == 3
    assert sampler.exact_success == pytest.approx(p_success_w("dephasing", 1.0, 2000),
                                                  rel=1e-12)
    assert sampler.zero_cut == pytest.approx(sampler.exact_success, rel=1e-12)
    assert sampler.cut == math.ceil(sampler.zero_cut * 2**53)
    # noiseless: u below 2 / n reads zeros; above, the lexicographic table
    # puts the one 1 at bits index 1999 - floor(u n)
    for u in (0.0, 0.0005, 0.00175, 0.5001, 0.99995):
        bits = sampler._walk(u)[0]
        assert len(bits) == 1998 and sum(bits) == (u >= sampler.zero_cut)
        assert u < sampler.zero_cut or bits.index(1) == 1999 - math.floor(u * 2000)
    assert len(calls) == 3
    with pytest.raises(AttributeError):
        sampler.total


@pytest.mark.parametrize("call, message", [
    (lambda: run_protocol1(NetworkConfig(n_nodes=4, sender=1, receiver=2),
                           mode="fast"), "unknown mode 'fast'"),
    (lambda: run_ghz_protocol(NetworkConfig(n_nodes=4, sender=1, receiver=2),
                              mode="fast"), "unknown mode 'fast'"),
    (lambda: run_relay_protocol(NetworkConfig(n_nodes=4, sender=1, receiver=2),
                                mode="fast"), "unknown mode 'fast'"),
    (lambda: NetworkConfig(n_nodes=5, sender=9, receiver=2),
     "sender/receiver must be node ids in 1..n"),
    (lambda: NetworkConfig(n_nodes=5, sender=1, receiver=2, veto_rounds=0),
     "veto needs at least one round"),
    (lambda: NetworkConfig(n_nodes=5, sender=1, receiver=2,
                           message_state=np.array([1, 0, 0, 0], dtype=complex)),
     "message must be a single qubit"),
    (lambda: receiver_notification(3, 3, [1, 2, 3, 4], Transcript()),
     "sender cannot notify itself"),
])
def test_invalid_protocol_inputs_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("n", range(4, 13))
def test_events_per_run_bounds_recorded_transcripts(n):
    channels = uniform(depolarizing(0.9), n)
    cfg = NetworkConfig(n_nodes=n, sender=n - 1, receiver=2,
                        per_qubit_channels=channels, seed=n)
    for sampler in (_GhzSampler(cfg), _RelaySampler(cfg)):
        rng = np.random.default_rng(cfg.seed)
        outs = [sampler.run(rng) for _ in range(3)]
        assert max(len(o.transcript.events) for o in outs) <= sampler.events_per_run
    delivered = 0
    for veto_rounds in range(1, 21):
        for lost in ((), (n,)):
            sampler = _Protocol1Sampler(NetworkConfig(
                n_nodes=n, sender=n - 1, receiver=2, per_qubit_channels=channels,
                veto_rounds=veto_rounds, lost_nodes=lost, seed=veto_rounds))
            rng = np.random.default_rng(veto_rounds)
            outs = [sampler.run(rng) for _ in range(2)]
            assert max(len(o.transcript.events) for o in outs) <= sampler.events_per_run
            delivered += sum(not o.aborted for o in outs)
    assert delivered  # the bound covers the teleport's two parity runs


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


def test_ghz_sampling_builds_no_noisy_resource(monkeypatch):
    widest = []
    post_init = DensityMatrix.__post_init__

    def recording(self):
        post_init(self)
        widest.append(len(self.labels))

    monkeypatch.setattr(DensityMatrix, "__post_init__", recording)
    n = 6
    cfg = NetworkConfig(n_nodes=n, sender=2, receiver=5,
                        per_qubit_channels=uniform(depolarizing(0.9), n))
    rng = np.random.default_rng(4)
    outs = [run_ghz_protocol(cfg, rng=rng, mode="sampling") for _ in range(5)]
    # no labeled register at all: the pair and the receiver's branches are arrays
    assert widest == []
    # runs share nothing through the config: one stream of draws on one
    # config reads the same as on fresh copies of it
    fresh_rng = np.random.default_rng(4)
    for out in outs:
        fresh = NetworkConfig(n_nodes=n, sender=2, receiver=5,
                              per_qubit_channels=uniform(depolarizing(0.9), n))
        again = run_ghz_protocol(fresh, rng=fresh_rng, mode="sampling")
        assert again.transcript.to_jsonl() == out.transcript.to_jsonl()
        assert again.delivered_fidelity == out.delivered_fidelity


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


def test_uniform_exact_relay_builds_two_hops(monkeypatch):
    import anonqnet.protocols as protocols

    built, real = [], protocols._hop
    monkeypatch.setattr(protocols, "_hop", lambda *a: built.append(1) or real(*a))
    cfg = NetworkConfig(n_nodes=12, sender=3, receiver=8,
                        per_qubit_channels=uniform(depolarizing(0.9), 12))
    out = run_relay_protocol(cfg, mode="exact")
    # the hop into node 2 (no swap before it) and the mixed swap hop
    assert len(built) == 2
    _, pair = exact_pair(cfg, "relay")
    assert len(built) == 4
    assert np.array_equal(pair, out.anonymous_entanglement)
    # one hop per distinct channel past node 2
    cfg = NetworkConfig(n_nodes=12, sender=3, receiver=8,
                        per_qubit_channels={i: RELAY_CHANNELS["pauli"](i % 2)
                                            for i in range(1, 13)})
    run_relay_protocol(cfg, mode="exact")
    assert len(built) == 4 + 3


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


@pytest.mark.parametrize("kind", ["psi+", "phi+"])
def test_teleport_branches_sum_delivers_any_message(kind):
    rng = np.random.default_rng(5)
    pair = make_bell_pair(("s", "r"), kind=kind).to_density()
    for _ in range(10):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        weights, branches = teleport_branches(pair.mat, v, kind)
        assert sum(weights) == pytest.approx(1.0, abs=1e-12)
        delivered = DensityMatrix(branches.sum(axis=0), ("r",))
        assert fidelity_with_pure(delivered, Ket(v, ("r",))) == pytest.approx(
            1.0, abs=1e-12)


@pytest.mark.parametrize("kind", ["psi+", "phi+"])
def test_teleport_branches_each_outcome_delivers(kind):
    pair = make_bell_pair(("s", "r"), kind=kind).to_density()
    v = np.array([0.6, 0.8j])
    weights, branches = teleport_branches(pair.mat, v, resource=kind)
    assert len(weights) == 4 and branches.shape == (4, 2, 2)
    for w, fixed in zip(weights, branches):
        assert w == pytest.approx(0.25, abs=1e-12)
        assert fidelity_with_pure(DensityMatrix(fixed / w, ("r",)),
                                  Ket(v, ("r",))) == pytest.approx(
            1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# sampling mode


def test_package_exports_every_batch_sampler():
    from anonqnet import (sample_ghz_runs as ghz, sample_protocol1_runs as w,
                          sample_relay_runs as relay)
    assert (w, ghz, relay) == (sample_protocol1_runs, sample_ghz_runs,
                               sample_relay_runs)


def test_sampled_abort_rate_tracks_success_probability():
    cfg = NetworkConfig(n_nodes=5, sender=1, receiver=2, seed=41)
    outs, agg = sample_protocol1_runs(cfg, 4000)
    p = agg["exact_success_probability"]
    assert p == pytest.approx(0.4, abs=1e-12)
    sigma = np.sqrt(p * (1 - p) / 4000)
    assert abs((1 - agg["abort_rate"]) - p) < 3 * sigma


@pytest.mark.parametrize("n", [50, 183])
def test_unrecorded_w_batches_at_network_scale(n):
    q, runs = 0.9, 10_000
    cfg = NetworkConfig(n_nodes=n, sender=1, receiver=2, seed=n,
                        per_qubit_channels=uniform(depolarizing(q), n))
    _, agg = sample_protocol1_runs(cfg, runs)
    p = p_success_w("depolarizing", q, n)
    assert agg["exact_success_probability"] == pytest.approx(p, abs=1e-12)
    assert abs((1 - agg["abort_rate"]) - p) < 4 * np.sqrt(p * (1 - p) / runs)


@pytest.mark.parametrize("n", [700, 1000, 15_000])
def test_sampled_w_success_probability_is_reported_unless_it_underflows(n):
    # a floor of 1e-15 used to print null from about 650 nodes at q = 0.9;
    # the Born weight is reported while it is a normal double, as in exact mode
    cfg = NetworkConfig(n_nodes=n, sender=1, receiver=2, seed=n,
                        per_qubit_channels=uniform(depolarizing(0.9), n))
    outs, agg = sample_protocol1_runs(cfg, 2)
    p = p_success_w("depolarizing", 0.9, n)
    reported = agg["exact_success_probability"]
    assert [o.analytic_success_probability for o in outs] == [reported] * 2
    if p < np.finfo(float).tiny:  # 0.95^15000 / 2 is below the normal range
        assert reported is None
        return
    assert p < 1e-15
    assert reported == pytest.approx(p, rel=1e-9)
    assert reported == pytest.approx(run_protocol1(cfg).analytic_success_probability,
                                     rel=1e-9)


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


@pytest.mark.parametrize("n", range(4, 8))
@pytest.mark.parametrize("mixed", [False, True, "damp-x"])
def test_ghz_sampler_keeps_the_stream(n, mixed):
    channels = uniform(depolarizing(0.9), n)
    if mixed:
        channels.update({1: dephasing(0.8), 3: depolarizing(0.75),
                         n: dephasing(0.7)})
    if mixed == "damp-x":  # not covariant under Z: unrecorded runs keep the walk
        channels.update(dict.fromkeys(set(channels) - {n - 1, 2},
                                      damp_then_rotate(0.2, 0.7)))
    cfg = NetworkConfig(n_nodes=n, sender=n - 1, receiver=2,
                        per_qubit_channels=channels)
    sampler = _GhzSampler(cfg)
    rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
    batch = [sampler.batch(1, rng)[0] for _ in range(60)]
    recorded = [run_ghz_protocol(cfg, rng=ref_rng, mode="sampling")
                for _ in range(60)]

    def seen(o):
        return o.delivered_fidelity, o.ae_fidelity, o.public_teleport_bits

    assert [seen(o) for o in batch] == [seen(o) for o in recorded]
    assert rng.random() == ref_rng.random()
    if mixed == "damp-x":
        assert len(sampler.branches) > 1
    else:  # covariant: every unrecorded run reads the all-'+' pair
        assert list(sampler.branches) == [(0,) * len(sampler.measuring)]
    for bits, (pair, _, _) in sampler.branches.items():
        raw = _contract(cfg, _GHZ, ghz_steps(cfg, sampler.measuring, bits),
                        cfg.sender, cfg.receiver)
        if sum(bits) % 2:
            raw = _Z_R @ raw @ _Z_R
        assert np.abs(pair - raw / np.trace(raw).real).max() <= 1e-15


@pytest.mark.parametrize("make", [_Protocol1Sampler, _GhzSampler, _RelaySampler])
def test_unrecorded_runs_share_one_outcome_per_result(make):
    cfg = NetworkConfig(n_nodes=6, sender=2, receiver=5,
                        per_qubit_channels=uniform(depolarizing(0.9), 6))
    sampler = make(cfg)
    rng = np.random.default_rng(3)
    outs = [sampler.batch(1, rng)[0] for _ in range(300)]
    shared = {id(o): o for o in sampler.outcomes.values()}
    # every run returns the single outcome stored for its result key
    assert {id(o) for o in outs} == set(shared)
    assert len(shared) < len(outs)
    assert all(o.transcript.events == [] for o in shared.values())


@pytest.mark.parametrize("case", ["W", "GHZ", "GHZ-damp-x", "relay"])
def test_batches_are_distinct_outcomes_gathered_by_slots(case):
    # W with one veto round accepts, aborts and misses vetoes; GHZ on
    # depolarizing reads one pair, and damping then an X rotation at the
    # measuring nodes makes its runs walk their strings
    n = 6
    channels = uniform(depolarizing(0.85), n)
    if case == "GHZ-damp-x":
        channels.update(dict.fromkeys(set(channels) - {2, n - 1},
                                      damp_then_rotate(0.2, 0.7)))
    cfg = NetworkConfig(n_nodes=n, sender=2, receiver=n - 1, veto_rounds=1,
                        per_qubit_channels=channels)
    make = {"W": _Protocol1Sampler, "GHZ": _GhzSampler, "GHZ-damp-x": _GhzSampler,
            "relay": _RelaySampler}[case]
    sampler, rng = make(cfg), np.random.default_rng(3)
    batch = sampler.batch(400, rng)
    assert isinstance(batch, Batch) and batch.slots.dtype == np.intp
    assert [id(o) for o in batch] == [id(batch.distinct[i]) for i in batch.slots]
    assert list(batch) == [batch.distinct[i] for i in batch.slots]
    assert len({id(o) for o in batch.distinct}) == len(batch.distinct)
    assert set(batch.slots.tolist()) == set(range(len(batch.distinct)))
    key_of = {id(o): key for key, o in sampler.outcomes.items()}
    keys = [key_of[id(o)] for o in batch.distinct]
    if case == "W":  # an abort, an accept and a veto miss
        assert None in keys
        assert {key[0] == sampler.zeros for key in keys if key} == {True, False}
    if case.startswith("GHZ"):
        assert (len({key[0] for key in keys}) == 1) == (case == "GHZ")
    empty = sampler.batch(0, rng)
    assert empty == [] and empty.distinct == [] and len(empty.slots) == 0
    assert batch_summary(empty) == {"runs": 0, "aborts": 0, "abort_rate": 0.0,
                                    "mean_delivered_fidelity": None}


def test_an_all_abort_batch_has_no_mean_fidelity():
    cfg = NetworkConfig(n_nodes=30, sender=1, receiver=2,
                        per_qubit_channels=uniform(depolarizing(0.5), 30))
    outs, agg = sample_protocol1_runs(cfg, 500)
    assert agg["runs"] == agg["aborts"] == 500 and agg["abort_rate"] == 1.0
    assert agg["mean_delivered_fidelity"] is None
    assert len(outs.distinct) == 1 and outs.distinct[0].aborted


def test_recorded_runs_keep_their_own_transcripts():
    cfg = NetworkConfig(n_nodes=5, sender=1, receiver=2, seed=4,
                        per_qubit_channels=uniform(depolarizing(0.9), 5))
    sampler, rng = _Protocol1Sampler(cfg), np.random.default_rng(cfg.seed)
    outs = [sampler.run(rng) for _ in range(50)]
    assert len({id(o) for o in outs}) == len({id(o.transcript) for o in outs}
                                            ) == 50
    assert all(o.transcript.events for o in outs)
    ghz, agg = sample_ghz_runs(cfg, 20)
    assert agg["runs"] == 20 and agg["aborts"] == 0
    assert all(o.transcript.events == [] for o in ghz)
    again, _ = sample_ghz_runs(cfg, 20, np.random.default_rng(cfg.seed))
    assert [o.to_json_dict() for o in again] == [o.to_json_dict() for o in ghz]
    sampler, rng = _GhzSampler(cfg), np.random.default_rng(cfg.seed)
    recorded = [sampler.run(rng) for _ in range(20)]
    assert len({id(o) for o in recorded}) == len(
        {id(o.transcript) for o in recorded}) == 20
    assert all(o.transcript.events for o in recorded)


@pytest.mark.parametrize("make, runner", [(_Protocol1Sampler, run_protocol1),
                                          (_GhzSampler, run_ghz_protocol),
                                          (_RelaySampler, run_relay_protocol)])
def test_run_records_one_run_and_batch_records_none(make, runner):
    cfg = NetworkConfig(n_nodes=6, sender=2, receiver=5,
                        per_qubit_channels=uniform(depolarizing(0.9), 6))
    sampler = make(cfg)
    rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
    assert all(o.transcript.events == [] for o in sampler.batch(5, rng))
    make(cfg).batch(5, ref_rng)
    runs = [sampler.run(rng) for _ in range(3)]
    assert [o.transcript.to_jsonl() for o in runs] == [
        runner(cfg, rng=ref_rng, mode="sampling").transcript.to_jsonl() for _ in range(3)]
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    # fresh: no recorded run is a batch's shared outcome or shares a transcript
    assert all(o.transcript.events for o in runs)
    assert not {id(o) for o in runs} & {id(o) for o in sampler.outcomes.values()}
    assert len({id(o.transcript) for o in runs}) == 3


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
# the samplers' draws against numpy's own calls

BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox,
                  np.random.SFC64]


def test_draws_refuse_a_generator_without_the_32_bit_buffer():
    cfg = NetworkConfig(n_nodes=5, sender=1, receiver=2)
    for sample in (lambda rng: run_protocol1(cfg, rng=rng, mode="sampling"),
                   lambda rng: run_ghz_protocol(cfg, rng=rng, mode="sampling"),
                   lambda rng: run_relay_protocol(cfg, rng=rng, mode="sampling"),
                   lambda rng: sample_protocol1_runs(cfg, 5, rng=rng),
                   lambda rng: _GhzSampler(cfg).batch(5, rng),
                   lambda rng: sample_relay_runs(cfg, 5, rng=rng)):
        rng = np.random.Generator(np.random.MT19937(1))
        with pytest.raises(ValueError, match="PCG64, PCG64DXSM, Philox or SFC64"):
            sample(rng)
        # nothing was drawn
        assert rng.random() == np.random.Generator(np.random.MT19937(1)).random()
    # exact mode draws nothing, so any generator will do
    run_protocol1(cfg, rng=np.random.Generator(np.random.MT19937(1)))
    run_relay_protocol(cfg, rng=np.random.Generator(np.random.MT19937(1)))


def reference_w_batch(sampler, rng, n_runs):
    """The W batch loop as Generator calls, drawing from the table of all
    2^k outcome strings: (result key or None) per run."""
    cfg, table = sampler.config, []
    for bits in itertools.product((0, 1), repeat=len(sampler.measuring)):
        raw = pullback_pair(cfg, dict(zip(sampler.measuring, bits)), cfg.sender,
                            cfg.receiver)
        if np.trace(raw).real >= 1e-15:
            table.append((bits, raw))
    cdf = _cdf([np.trace(raw).real for _, raw in table])
    keys = []
    for _ in range(n_runs):
        bits, raw = table[bisect_right(cdf, rng.random())]
        if any(bits) and rng.integers(0, 2, size=cfg.veto_rounds).any():
            keys.append(None)
            continue
        if bits not in sampler.branches:
            _, pair = _normalized_pair(raw)
            sampler.branches[bits] = _branch_plan(cfg, pair, "W")
        m = bisect_right(sampler.branches[bits][1][0], rng.random())
        rand = int(rng.integers(0, 2)), int(rng.integers(0, 2))
        keys.append((bits, m, (m >> 1 ^ rand[0], m & 1 ^ rand[1])))
    return keys


def reference_ghz_batch(sampler, rng, n_runs):
    """The GHZ batch loop as Generator calls, parity shares included.  A
    one-pair sampler keys every string as all '+', with the pair of the
    first string drawn."""
    cfg, keys = sampler.config, []
    for _ in range(n_runs):
        bits, products = (), np.ones(2)
        for diags in sampler.diags:
            w_plus, w_minus = (products @ d for d in diags)
            bit = int(rng.random() >= w_plus / (w_plus + w_minus))
            products, bits = products * diags[bit], bits + (bit,)
        rng.integers(0, 2, size=(cfg.n_nodes, cfg.n_nodes))
        key = (0,) * len(bits) if sampler.one_pair else bits
        if key not in sampler.branches:
            raw = _contract(cfg, _GHZ, ghz_steps(cfg, sampler.measuring, bits),
                            cfg.sender, cfg.receiver)
            _, pair = _normalized_pair(_Z_R @ raw @ _Z_R if sum(bits) % 2 else raw)
            sampler.branches[key] = _branch_plan(cfg, pair, "GHZ")
        m = bisect_right(sampler.branches[key][1][0], rng.random())
        rand = int(rng.integers(0, 2)), int(rng.integers(0, 2))
        for _ in range(2):
            rng.integers(0, 2, size=(cfg.n_nodes, cfg.n_nodes))
        keys.append((key, m, (m >> 1 ^ rand[0], m & 1 ^ rand[1])))
    return keys


@pytest.mark.parametrize("protocol, veto_rounds",
                         [("W", 1), ("W", 3), ("W", 20), ("W", 33), ("W", 249), ("GHZ", 20)])
@pytest.mark.parametrize("buffered", [False, True])
def test_batches_keep_the_generator_call_stream(protocol, veto_rounds, buffered):
    cfg = NetworkConfig(n_nodes=6, sender=2, receiver=5, veto_rounds=veto_rounds,
                        per_qubit_channels=uniform(depolarizing(0.85), 6))
    make, reference = {"W": (_Protocol1Sampler, reference_w_batch),
                       "GHZ": (_GhzSampler, reference_ghz_batch)}[protocol]
    rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
    if buffered:  # the batch starts on a buffered 32-bit half
        assert rng.integers(0, 2) == ref_rng.integers(0, 2)
    # sample_protocol1_runs and sample_ghz_runs are this batch
    outs = make(cfg).batch(400, rng)
    ref = make(cfg)
    want = [ref._finish(key) for key in reference(ref, ref_rng, 400)]
    assert [o.to_json_dict() for o in outs] == [o.to_json_dict() for o in want]
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert rng.random() == ref_rng.random()
    assert rng.integers(0, 2) == ref_rng.integers(0, 2)


def same_state(a, b) -> bool:
    """Bit generator states equal, arrays (Philox) included."""
    return a.keys() == b.keys() and all(
        same_state(a[k], b[k]) if isinstance(a[k], dict) else np.array_equal(a[k], b[k])
        for k in a)


@pytest.mark.parametrize("protocol, param", [("W", s) for s in (1, 2, 3, 7, 20, 33)]
                         + [("GHZ", n) for n in range(4, 8)]
                         + [("GHZ-damp-x", n) for n in (5, 6)])
@pytest.mark.parametrize("buffered", [False, True])
def test_array_batches_match_generator_calls(monkeypatch, protocol, param, buffered):
    # W: param is veto_rounds (1 makes half the non-zero strings veto
    # misses); GHZ: param is n, odd n alternating the run's stride;
    # GHZ-damp-x: damping then an X rotation at the measuring nodes, which
    # fails the one-pair gate, so the runs walk their strings
    n, veto_rounds = (6, param) if protocol == "W" else (param, 20)
    channels = uniform(depolarizing(0.85), n)
    if protocol == "GHZ-damp-x":
        channels.update(dict.fromkeys(set(channels) - {2, n - 1},
                                      damp_then_rotate(0.2, 0.7)))
    cfg = NetworkConfig(n_nodes=n, sender=2, receiver=n - 1, veto_rounds=veto_rounds,
                        per_qubit_channels=channels)
    make, reference = {"W": (_Protocol1Sampler, reference_w_batch),
                       "GHZ": (_GhzSampler, reference_ghz_batch),
                       "GHZ-damp-x": (_GhzSampler, reference_ghz_batch)}[protocol]
    # the default chunk (2^16 words), 2^14, and one below a run's word bound:
    # one run per chunk, as in every GHZ batch from 148 nodes up
    for chunk_words in (_Sampler.CHUNK_WORDS, 2**14, 3):
        monkeypatch.setattr(_Sampler, "CHUNK_WORDS", chunk_words)
        sampler = make(cfg)
        if protocol != "W":
            assert sampler.one_pair == (protocol == "GHZ")
        assert (sampler.chunk == 1) == (chunk_words == 3)
        decode, decoded = sampler._decode, []

        def counted(words, p, h, runs):
            codes, *rest = decode(words, p, h, runs)
            assert len(codes) == runs  # a chunk decodes exactly its runs
            decoded.append(runs)
            return codes, *rest

        sampler._decode = counted
        c = sampler.chunk
        for i, runs in enumerate((1, c - 1, c, c + 1, 3 * c + 7)):
            rng, ref_rng = (np.random.Generator(BIT_GENERATORS[i % 4](runs))
                            for _ in range(2))
            if buffered:  # the batch starts on a buffered 32-bit half
                assert rng.integers(0, 2) == ref_rng.integers(0, 2)
            decoded.clear()
            outs = sampler.batch(runs, rng)
            assert sum(decoded) == runs
            ref = make(cfg)
            keys = reference(ref, ref_rng, runs)
            key_of = {id(o): key for key, o in sampler.outcomes.items()}
            assert [key_of[id(o)] for o in outs] == keys
            for o, key in {id(o): (o, key) for o, key in zip(outs, keys)}.values():
                assert o.to_json_dict() == ref._finish(key).to_json_dict()
            assert same_state(rng.bit_generator.state, ref_rng.bit_generator.state)
            assert rng.random() == ref_rng.random()
            assert rng.integers(0, 2) == ref_rng.integers(0, 2)


def test_w_decode_draws_the_bell_outcome_as_bisect_right():
    # _draw is bisect_right, so a u equal to a CDF entry passes it.  Entries
    # from 1/2 up are multiples of 2^-53, so a word can hold one exactly
    cfg = NetworkConfig(n_nodes=6, sender=2, receiver=5,
                        per_qubit_channels=uniform(depolarizing(0.85), 6))
    sampler = _Protocol1Sampler(cfg)
    cdf = sampler._plan(sampler.zeros)[1][0]
    edges = [int(c * 2**53) for c in cdf[:-1] if c >= 0.5]
    assert edges
    for u in [e + d for e in edges for d in (-1, 0)]:
        words = np.zeros(1 + sampler.max_words, np.uint64)  # word 1 is 0: an accept
        words[2] = u << 11  # the Bell-outcome word
        code = sampler._decode(words, 1, 0, 1)[0][0]
        assert code >> 2 & 3 == bisect_right(cdf, u * 2.0**-53)


def test_w_batch_replays_only_the_words_read_after_its_last_fetch():
    # the sampling benchmark's W batch fetches 204,370 words in four chunks;
    # it ends by restoring the state of its last fetch at or before the read
    # position and skipping the words read after it (at most one chunk's
    # fetch), not by skipping every word read from the batch's start
    class CountingPCG64(np.random.PCG64):  # Generator draws through C, not this
        def random_raw(self, size=None, output=True):
            words[output] += 1 if size is None else size
            return super().random_raw(size, output)

    words = {True: 0, False: 0}
    cfg = NetworkConfig(n_nodes=8, sender=1, receiver=2,
                        per_qubit_channels=uniform(depolarizing(0.9), 8))
    sampler = _Protocol1Sampler(cfg)
    rng, plain = np.random.Generator(CountingPCG64(1)), np.random.default_rng(1)
    outs = sampler.batch(20000, rng)
    assert np.array_equal(outs.slots, _Protocol1Sampler(cfg).batch(20000, plain).slots)
    assert 0 < words[False] <= sampler.chunk * sampler.max_words
    assert rng.bit_generator.state == {**plain.bit_generator.state,
                                       "bit_generator": "CountingPCG64"}


@pytest.mark.parametrize("veto_rounds", [1, 2, 20])
@pytest.mark.parametrize("h", [0, 1])
def test_w_decode_reads_halves_low_first_in_either_byte_order(veto_rounds, h):
    # the same chunk stored big-endian decodes to the same runs, branch
    # keys, next word, buffer state and carry as the native array
    cfg = NetworkConfig(n_nodes=6, sender=2, receiver=5, veto_rounds=veto_rounds,
                        per_qubit_channels=uniform(depolarizing(0.85), 6))
    sampler, runs = _Protocol1Sampler(cfg), 300
    words = np.random.PCG64(veto_rounds).random_raw(1 + runs * sampler.max_words)
    codes, *rest = sampler._decode(words, 1, h, runs)
    big_codes, *big_rest = sampler._decode(words.astype(">u8"), 1, h, runs)
    assert -1 in codes and codes.max() >= 0  # both aborts and deliveries
    assert np.array_equal(codes, big_codes)
    assert rest == big_rest


@pytest.mark.parametrize("veto_rounds", [1, 2, 20, 32, 33, 249, 250])
@pytest.mark.parametrize("h", [0, 1])
def test_w_decode_aborts_on_any_one_veto_bit(veto_rounds, h):
    # a run at word 1 that does not accept (word 1 all ones) reads its veto
    # halves from word 2 on, after word 0's high half if one is buffered;
    # it aborts iff one of their top bits is set.  Moves span 1 half (s = 1,
    # an abort from h = 1) to 257 (s = 249, a veto miss from h = 0), past a byte
    cfg = NetworkConfig(n_nodes=6, sender=2, receiver=5, veto_rounds=veto_rounds,
                        per_qubit_channels=uniform(depolarizing(0.85), 6))
    sampler = _Protocol1Sampler(cfg)
    veto = [1] * h + list(range(4, 4 + veto_rounds - h))  # half indices, low half first
    for bit in [None, *veto]:
        halves = np.zeros(2 * (1 + sampler.max_words), "<u4")
        halves[2:4] = 2**32 - 1
        if bit is not None:
            halves[bit] = 2**31
        codes = sampler._decode(halves.view("<u8"), 1, h, 1)[0]
        assert (codes[0] < 0) == (bit is not None)


# ---------------------------------------------------------------------------
# transcripts


def test_transcript_jsonl_roundtrip():
    cfg = NetworkConfig(n_nodes=4, sender=1, receiver=2, seed=5)
    out = run_protocol1(cfg, mode="sampling")
    text = out.transcript.to_jsonl()
    # blank lines, such as a file's trailing newline, are skipped
    again = Transcript.from_jsonl(text.replace("\n", "\n  \n", 1) + "\n")
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
    assert np.abs(out.anonymous_entanglement - ref / weight).max() < 1e-12


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
    assert np.abs(out.anonymous_entanglement - ref / np.trace(ref).real
                  ).max() < 1e-12


class MissedVeto:
    """Stands in for a recorded run's Generator: random() returns u, and
    every bit drawn is 0, so the veto misses and the run is delivered."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u

    def integers(self, low, high, size=None):
        return 0 if size is None else np.zeros(size, dtype=np.int64)


def test_sampler_branches_match_dense_under_complex_nonunital_noise():
    sampler = _Protocol1Sampler(hetero_config())
    rho = dense_noisy(make_w_state)
    assert sampler.measuring == [1, 3, 5, 6]
    table = []  # the dense table of outcome strings, in lexicographic order
    for bits in itertools.product((0, 1), repeat=4):
        ref = as_pair(dense_measure(rho, dict(zip(sampler.measuring, bits))))
        if np.trace(ref).real >= 1e-15:
            table.append((bits, ref))
    assert len(table) == 16
    weights = [np.trace(ref).real for _, ref in table]
    assert sampler.exact_success == pytest.approx(weights[0], abs=1e-12)
    cdf = _cdf(weights)
    # each string's memoised pair and fidelity, from a run whose draw lands
    # inside the string's interval
    for i, (bits, ref) in enumerate(table):
        out = sampler._run(MissedVeto((cdf[i] + (cdf[i - 1] if i else 0)) / 2))
        pair, _, ae_fid = sampler.branches[bits]
        assert np.abs(pair - ref / np.trace(ref).real).max() < 1e-12
        assert ae_fid == pair_fidelity(pair, "W")
        assert out.anonymous_entanglement is pair and out.ae_fidelity == ae_fid
    assert list(sampler.branches) == [bits for bits, _ in table]
    # the walk draws the dense table's string
    for u in np.random.default_rng(6).random(10_000):
        bits = sampler._walk(u)[0]
        assert bits == table[bisect_right(cdf, u)][0]
        assert (u < sampler.zero_cut) == (bits == sampler.zeros)


def test_adversary_view_matches_dense_enumeration_corrupt_receiver():
    # coalition {2, 5}: node 2 is the receiver, node 5 measures; the dense
    # reference enumerates every outcome string instead of subtracting
    cfg = hetero_config()
    labels, weights, blocks = adversary_views(cfg, frozenset({2, 5}), [HS])
    # the event order: the honest side saw a 1 (per mu), the forced
    # abort (per mu but all zero), the four raw Bell outcomes
    assert labels == [((1, 0), (0,), 1, 1, None), ((1, 0), (1,), 1, 1, None),
                      ((1, 0), (1,), 0, 1, None)] + [
                          ((1, 0), (0,), 0, 0, ("m", m)) for m in range(4)]
    view = as_dicts(labels, weights, blocks)[0]
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
        _, branches = teleport_branches(as_pair(ref) / w,
                                        cfg.message_state, "psi+")
        for m, fixed in enumerate(branches):
            add(base + (0, 0, ("m", m)), w * fixed)
    assert set(view) == set(expected)
    for label, weighted in expected.items():
        weight, block = view[label]
        assert weight == pytest.approx(np.trace(weighted).real, abs=1e-12)
        assert np.abs(block - weighted).max() < 1e-12


def test_adversary_views_skip_an_honest_side_that_never_reads_zeros():
    # node 5's X flip reads 1 unless it holds the excitation, so with the
    # coalition {3} reading 1 the honest side never reads all zeros: each
    # view goes without that abort label and still weighs 1
    chans = {1: depolarizing(0.9), 2: depolarizing(0.9),
             3: identity_channel(), 4: depolarizing(0.9),
             5: QuantumChannel([PAULI_X])}
    cfg = NetworkConfig(n_nodes=5, sender=1, receiver=2,
                        per_qubit_channels=chans)
    rho = make_w_state(5, labels=range(1, 6)).to_density()
    for node in rho.labels:
        rho = apply_to(chans[node], rho, node)
    labels, weights, blocks = adversary_views(cfg, frozenset({3}), [1, 4])
    # the event order, also for a label that weighs 0 in every view: the
    # honest side saw a 1, the forced abort, the four masked announcements
    assert labels == [((0,), (0,), 1, 1, None), ((0,), (1,), 1, 1, None),
                      ((0,), (1,), 0, 1, None)] + [
                          ((0,), (0,), 0, 0, ("T", t)) for t in range(4)]
    views = as_dicts(labels, weights, blocks)
    for sender, view in zip((1, 4), views, strict=True):
        measured = [i for i in range(1, 6) if i not in (sender, 2)]
        expected = collections.Counter()
        for bits in itertools.product((0, 1), repeat=len(measured)):
            outcomes = dict(zip(measured, bits))
            w = dense_measure(rho, outcomes).weight
            base = ((0,), (outcomes[3],))
            honest = int(any(b for i, b in outcomes.items() if i != 3))
            if honest or outcomes[3]:
                expected[base + (honest, 1, None)] += w
            else:
                for t in range(4):
                    expected[base + (0, 0, ("T", t))] += w / 4
        assert expected[((0,), (1,), 0, 1, None)] < 1e-14
        assert set(view) == {k for k, w in expected.items() if w >= 1e-14}
        for label, (weight, _) in view.items():
            assert weight == pytest.approx(expected[label], abs=1e-12)
        assert sum(w for w, _ in view.values()) == pytest.approx(1.0, abs=1e-12)


def test_exact_routes_build_no_density_matrix_wider_than_three(monkeypatch):
    # pairs are plain 4x4 arrays, so no exact route, loss average,
    # structured pair or adversary view builds a labeled register at all
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
    run_ghz_protocol(NetworkConfig(n_nodes=9, sender=3, receiver=7,
                                   per_qubit_channels=chans),
                     rng=np.random.default_rng(0), mode="sampling")
    w_loss_branch_average_dense(depolarizing(0.9), 9)
    structured_pair(hetero_config(lost_nodes={5}), "W")
    structured_pair(NetworkConfig(n_nodes=9, sender=3, receiver=7,
                                  per_qubit_channels=chans), "GHZ")
    for protocol, at in (("W", [7, 9]), ("GHZ", [7, 9]), ("relay", [2, 9])):
        exact_pairs(NetworkConfig(n_nodes=9, sender=3, receiver=7,
                                  per_qubit_channels=chans), protocol, at)
    adversary_views(NetworkConfig(n_nodes=7, sender=1, receiver=2,
                                  per_qubit_channels=uniform(dephasing(0.9), 7)),
                    frozenset({2, 4}), [3])[0]
    assert widest == []


def test_teleports_build_only_the_pair_state(monkeypatch):
    # a run's one state is its pair, a plain 4x4 array: exact runs, sampled
    # batches and the audit, teleport included, build no DensityMatrix
    built = []
    post_init = DensityMatrix.__post_init__

    def counting(self):
        post_init(self)
        built.append(self.labels)

    monkeypatch.setattr(DensityMatrix, "__post_init__", counting)
    for run in (run_protocol1, run_ghz_protocol, run_relay_protocol):
        outcome = run(hetero_config(), mode="exact")
        assert_pair(outcome.anonymous_entanglement, run)
        run(hetero_config(), rng=np.random.default_rng(1), mode="sampling")
        assert built == [], run
    for make in (_Protocol1Sampler, _GhzSampler):
        sampler = make(hetero_config(veto_rounds=1))
        sampler.batch(400, np.random.default_rng(3))
        assert len(sampler.branches) > 1, make
        assert built == [], make
    sample_relay_runs(hetero_config(), 50, np.random.default_rng(3))
    # the coalition holds the receiver, so every view teleports the message
    security_report(hetero_config(), [HR, 5])
    assert built == []


def assert_pair(pair, where):
    """The checks DensityMatrix made of every pair: a complex 4x4 array,
    Hermitian to 1e-10, its trace 1 within 1e-10."""
    assert isinstance(pair, np.ndarray) and pair.shape == (4, 4), where
    assert pair.dtype == complex, where
    assert np.abs(pair - pair.conj().T).max() <= 1e-10, where
    assert abs(np.trace(pair) - 1) <= 1e-10, where


def random_pair_network(rng, protocol, covariant=False):
    """A random per-node network, S after R about half the time: Pauli,
    damping (z-rotated, so covariant, or x-rotated) and random Kraus
    channels; W loses up to two measuring nodes.  covariant keeps every
    node but the sender Z-covariant, as the structured GHZ sum needs."""
    n = int(rng.integers(4, 9))
    paulis = [lambda: QuantumChannel([np.sqrt(w) * p for w, p in
                                      zip(rng.dirichlet(np.ones(4)), BELL_CORRECTIONS)]),
              lambda: damp_then_rotate(rng.uniform(0, 0.6), rng.uniform(-3, 3), PAULI_Z)]
    others = [lambda: damp_then_rotate(rng.uniform(0, 0.6), rng.uniform(-3, 3)),
              lambda: random_kraus_channel(rng, int(rng.integers(1, 4)))]
    makes = paulis if covariant else paulis + others
    chans = {i: makes[int(rng.integers(len(makes)))]() for i in range(1, n + 1)}
    s, r = (int(i) for i in rng.choice(np.arange(1, n + 1), 2, replace=False))
    chans[s] = random_kraus_channel(rng, 2)
    lost = set()
    if protocol == "W":
        measuring = [i for i in range(1, n + 1) if i not in (s, r)]
        lost = set(rng.choice(measuring, int(rng.integers(min(3, len(measuring)))),
                              replace=False).tolist())
    return NetworkConfig(n_nodes=n, sender=s, receiver=r, per_qubit_channels=chans,
                         lost_nodes=lost, veto_rounds=1)


def test_every_route_gives_a_hermitian_unit_trace_pair():
    rng = np.random.default_rng(43)
    samplers = {"W": _Protocol1Sampler, "GHZ": _GhzSampler, "relay": _RelaySampler}
    for trial in range(6):
        for protocol, make in samplers.items():
            cfg = random_pair_network(rng, protocol)
            pairs = {"exact_pair": exact_pair(cfg, protocol)[1]}
            if protocol == "relay":
                at = [i for i in cfg.nodes if i != cfg.sender]
            else:
                at = list(range(max(3, cfg.sender, cfg.receiver), cfg.n_nodes + 1))
            base = NetworkConfig(cfg.n_nodes, cfg.sender, cfg.receiver,
                                 per_qubit_channels=cfg.per_qubit_channels)
            tables = exact_pairs(base, protocol, at)
            if protocol == "W" and at[0] < cfg.n_nodes:
                tables += exact_pairs(base, "W", at[1:], lost=True)
            pairs |= {("exact_pairs", i): pair for i, (_, pair) in enumerate(tables)}
            if protocol != "relay":
                structured = cfg if protocol == "W" else random_pair_network(rng, "GHZ", True)
                pairs["structured_pair"] = structured_pair(structured, protocol)[1]
            sampler = make(cfg)
            outs = sampler.batch(300, np.random.default_rng(trial)).distinct
            pairs |= {("batch", i): o.anonymous_entanglement
                      for i, o in enumerate(outs) if not o.aborted}
            pairs |= {("branch", bits): plan[0]
                      for bits, plan in getattr(sampler, "branches", {}).items()}
            assert any(key[0] == "batch" for key in pairs if isinstance(key, tuple))
            for where, pair in pairs.items():
                assert_pair(pair, (trial, protocol, where))


def dense_teleport(pair, message, sender, receiver, resource):
    """teleport_branches on a dense three-qubit register: Bell-project
    (message, sender) and correct the receiver."""
    joint = tensor(Ket(message.amps, ("message",)).to_density(), pair)
    flip = PAULI_X if resource == "psi+" else ID2
    out = []
    for m in range(4):
        branch, w = bell_project(joint, "message", sender, m)
        out.append((w, apply_op_dense(branch, BELL_CORRECTIONS[m] @ flip,
                                      [receiver])))
    return out


@pytest.mark.parametrize("resource", ["psi+", "phi+"])
@pytest.mark.parametrize("labels", [(4, 2), (2, 4)])
def test_teleport_branches_match_dense_on_random_mixed_pairs(resource, labels):
    # the pair holds (sender, receiver), whichever node id is the larger
    sender, receiver = labels
    rng = np.random.default_rng(31)
    for _ in range(20):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        pair = DensityMatrix(g @ g.conj().T / np.trace(g @ g.conj().T).real,
                             labels)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        msg = Ket(v / np.linalg.norm(v), ("message",))
        weights, branches = teleport_branches(pair.mat, msg.amps, resource)
        want = dense_teleport(pair, msg, sender, receiver, resource)
        for w, fixed, (w_ref, ref) in zip(weights, branches, want, strict=True):
            assert ref.labels == (receiver,)
            assert abs(w - w_ref) < 1e-14
            assert np.abs(fixed - ref.mat).max() < 1e-14


CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                dtype=complex)


def dense_relay(config, rng=None):
    """The relay on dense labeled registers, sampled when rng is given:
    each hop tensors a fresh Bell pair onto the live register and
    Bell-projects it, each ancilla is tensored in and spliced with a CNOT,
    and each X measurement is a postselection and partial trace.  Returns
    the (sender, receiver) pair, the transcript and the peak register
    width."""
    sampling = rng is not None
    n = config.n_nodes
    transcript = Transcript()
    for j in range(1, n):
        transcript.add(0, "private_send", j, b"\x01", f"private-to({j + 1})")
    anc = {config.sender: "anc_sender", config.receiver: "anc_receiver"}
    first_anc = anc[min(anc)]
    widths = []

    def note(dm):
        widths.append(dm.n_qubits)
        return dm

    def splice(state, control, node):
        zero = Ket(np.array([1, 0], dtype=complex), (anc[node],))
        state = note(tensor(state, zero.to_density()))
        return DensityMatrix(apply_op_dense(state, CNOT,
                                            [control, anc[node]]).mat,
                             state.labels)

    def measure_x(state, qubit, outcome):
        branch, _ = postselect(state, qubit, "hadamard", outcome)
        branch = partial_trace(branch, [qubit])
        return (apply_op_dense(branch, PAULI_Z, [first_anc]) if outcome
                else branch)

    def close(state, qubit, round_, actor):
        plus, minus = (measure_x(state, qubit, b) for b in (0, 1))
        if not sampling:
            return DensityMatrix(plus.mat + minus.mat, plus.labels,
                                 unnormalized=True)
        p_plus = min(max(plus.weight / state.weight, 0.0), 1.0)
        outcome = 0 if rng.random() < p_plus else 1
        transcript.add(round_, "broadcast", actor, bytes([outcome]))
        return (minus if outcome else plus).normalized()

    def as_travel(dm, j):
        labels = tuple("travel" if l == f"b{j}" else l for l in dm.labels)
        return DensityMatrix(dm.mat, labels, unnormalized=dm.unnormalized)

    state = note(make_bell_pair(("keep", "travel")).to_density())
    if 1 in anc:
        state = splice(state, "keep", 1)
    pending = None  # Bell branches awaiting the hop and their correction
    for j in range(2, n + 1):
        chan = config.channel_for(j)
        if pending is None:
            state = apply_to(chan, state, "travel")
        else:
            acc = sum(apply_op_dense(apply_to(chan, branch, "travel"),
                                     BELL_CORRECTIONS[m], ["travel"]).mat
                      for m, branch in pending)
            state = note(DensityMatrix(acc, pending[0][1].labels))
        if j in anc:
            state = splice(state, "travel", j)
        if j == n:
            state = close(state, "travel", j, j)
            break
        pair = make_bell_pair((f"a{j}", f"b{j}")).to_density()
        state = note(tensor(state, pair))
        swaps = [bell_project(state, "travel", f"a{j}", m) for m in range(4)]
        if sampling:
            w = np.array([w for _, w in swaps])
            m = int(rng.choice(4, p=w / w.sum()))
            transcript.add(j, "broadcast", j, bytes([m]))
            pending = [(m, as_travel(swaps[m][0].normalized(), j))]
        else:
            pending = [(m, as_travel(b, j)) for m, (b, _) in enumerate(swaps)]
    state = close(state, "keep", n + 1, 1)
    state = state.normalized() if sampling else state
    return (state.permuted(("anc_sender", "anc_receiver")).mat, transcript,
            max(widths))


# Pauli channels, and amplitude damping followed by a node-dependent X or Z
# rotation (non-unital, complex Kraus operators)
RELAY_CHANNELS = {
    "pauli": lambda i: (depolarizing, dephasing)[i % 2](0.97 - 0.03 * i),
    "nonunital": lambda i: damp_then_rotate(0.05 * i, 0.4 * i - 1.3,
                                            (PAULI_X, PAULI_Z)[i % 2]),
}


@pytest.mark.parametrize("kind", sorted(RELAY_CHANNELS))
@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_relay_matches_dense_reference_every_placement(n, kind):
    chans = {i: RELAY_CHANNELS[kind](i) for i in range(1, n + 1)}
    for s, r in itertools.permutations(range(1, n + 1), 2):
        cfg = NetworkConfig(n_nodes=n, sender=s, receiver=r,
                            per_qubit_channels=chans)
        out = run_relay_protocol(cfg, mode="exact")
        ref, _, width = dense_relay(cfg)
        assert np.abs(out.anonymous_entanglement - ref).max() < 1e-12
        # the fresh pair of the last swap is live beside both ancillas
        # unless node n is one of the ends
        assert out.max_live_qubits == width == (6 if max(s, r) < n else 5)
        for seed in range(3):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            out = run_relay_protocol(cfg, rng=rng, mode="sampling")
            ref, transcript, _ = dense_relay(cfg, ref_rng)
            assert out.transcript.to_jsonl() == transcript.to_jsonl()
            assert rng.random() == ref_rng.random()
            assert np.abs(out.anonymous_entanglement - ref).max() < 1e-12


@pytest.mark.parametrize("kind", sorted(RELAY_CHANNELS))
@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_relay_batch_matches_successive_dense_runs(n, kind):
    chans = {i: RELAY_CHANNELS[kind](i) for i in range(1, n + 1)}
    for seed, (s, r) in enumerate([(1, 2), (n, 2), (2, n - 1)]):
        cfg = NetworkConfig(n_nodes=n, sender=s, receiver=r,
                            per_qubit_channels=chans)
        for record in (False, True):
            # a case's six batches draw from every bit generator, and a batch
            # starts on a buffered 32-bit half for every other n
            bit_generator = BIT_GENERATORS[(2 * seed + record) % 4]
            rng, ref_rng = (np.random.Generator(bit_generator(seed)) for _ in range(2))
            if (n + seed + record) % 2:
                assert rng.integers(0, 2) == ref_rng.integers(0, 2)
            sampler = _RelaySampler(cfg)
            outs = ([sampler.run(rng) for _ in range(10)] if record
                    else sample_relay_runs(cfg, 10, rng)[0])
            for out in outs:
                ref, transcript, _ = dense_relay(cfg, ref_rng)
                assert np.abs(out.anonymous_entanglement - ref).max() < 1e-12
                if record:
                    assert out.transcript.to_jsonl() == transcript.to_jsonl()
            assert same_state(rng.bit_generator.state, ref_rng.bit_generator.state)


def registers(obj) -> int:
    """The 16x16 relay registers held in obj, through lists, tuples and dicts."""
    if isinstance(obj, np.ndarray):
        return int(obj.shape == (16, 16))
    if isinstance(obj, dict):
        obj = list(obj.values())
    return sum(map(registers, obj)) if isinstance(obj, (list, tuple)) else 0


def test_relay_plan_keeps_the_registers_of_one_chain():
    # non-unital channels: nearly every run has its own chain of hops
    n = 30
    chans = {i: damp_then_rotate(0.01 * i, 0.4 * i - 1.3, (PAULI_X, PAULI_Z)[i % 2])
             for i in range(1, n + 1)}
    cfg = NetworkConfig(n_nodes=n, sender=4, receiver=17, per_qubit_channels=chans)
    sampler = _RelaySampler(cfg)
    outs = sampler.batch(500, np.random.default_rng(5))
    assert len({id(o) for o in outs}) > 400
    assert registers(vars(sampler)) <= n
    # reused registers and closing probabilities change no bit of a run
    ref_rng = np.random.default_rng(5)
    for out in outs[:60]:
        ref = _RelaySampler(cfg).batch(1, ref_rng)[0]
        assert np.array_equal(out.anonymous_entanglement, ref.anonymous_entanglement)


def test_relay_pauli_batch_shares_one_chain():
    cfg = NetworkConfig(n_nodes=8, sender=3, receiver=6, seed=2,
                        per_qubit_channels=uniform(depolarizing(0.9), 8))
    outs, _ = sample_relay_runs(cfg, 1000)
    # one chain, and two X outcomes closing it
    assert len({id(o) for o in outs}) <= 4


# ---------------------------------------------------------------------------
# the batched sweep behind the anonymity audit


def random_channel(rng, kraus=2):
    """A random complex qubit channel: the blocks of a random isometry."""
    z = rng.normal(size=(2 * kraus, 2)) + 1j * rng.normal(size=(2 * kraus, 2))
    q, _ = np.linalg.qr(z)
    return QuantumChannel(list(q.reshape(kraus, 2, 2)), name="random")


@pytest.mark.parametrize("n", range(4, 13))
def test_pullback_pairs_match_pullback_pair(n):
    rng = np.random.default_rng(n)
    mixed = [lambda i: RELAY_CHANNELS["nonunital"](i),
             lambda i: RELAY_CHANNELS["pauli"](i),
             lambda i: random_channel(rng, 1 + i % 3)]
    chans = {i: mixed[i % 3](i) for i in range(1, n + 1)}
    lost = frozenset({n - 1}) if n % 2 else frozenset()
    cfg = NetworkConfig(n_nodes=n, sender=1, receiver=2,
                        per_qubit_channels=chans, lost_nodes=lost)
    live = cfg.live_nodes
    strings = [{}, dict.fromkeys(live, 0),
               *({i: int(b) for i, b in zip(live, rng.integers(0, 2, len(live)))
                  if rng.random() < 0.7} for _ in range(4))]
    # fixed at an end and in the middle: open sites on both sides of it
    for fixed in (live[0], live[len(live) // 2], live[-1]):
        opens = [i for i in live if i != fixed]
        pairs = pullback_pairs(cfg, outcome_transfers(cfg, strings), fixed, opens)
        assert pairs.shape == (len(strings), len(opens), 4, 4)
        for b, outcomes in enumerate(strings):
            for j, node in enumerate(opens):
                reads = {i: v for i, v in outcomes.items() if i not in (node, fixed)}
                ref = pullback_pair(cfg, reads, node, fixed)
                assert np.abs(pairs[b, j] - ref).max() < 1e-12


def traced_tail_weight(sampler, bits):
    """The W walk's weight of the prefix bits: the environment carried
    through sampler.reads up to the node that reads bits[-1], times the
    closed-form right environment of the m later (traced) sites."""
    n, env, node, bits = sampler.config.n_nodes, _W.left[0], 0, list(bits)
    steps = zip(sampler.config.nodes, *sampler.reads)
    while bits:
        node, read0, read1 = next(steps)
        env = env @ (read1 if node in sampler.measuring and bits.pop(0) else read0)
    return float(((n - node) * env[0] + env[3]).real) / n


def walk_tree(sampler):
    """{boundary lo + weight: (prefix, taken)} of each measuring node's
    0-branch in the W walk's lexicographic table, in the walk's arithmetic
    (traced_tail_weight).  taken says whether the walk splits there: its
    prefix is reachable and neither branch weighs under 1e-15."""
    tree = {}

    def grow(bits, lo, prefix, reachable):
        if len(bits) == len(sampler.measuring):
            return
        weight = traced_tail_weight(sampler, bits + (0,))
        split = min(weight, prefix - weight) >= 1e-15
        tree[lo + weight] = (bits, reachable and split)
        grow(bits + (0,), lo, weight, reachable and (split or weight >= prefix - weight))
        grow(bits + (1,), lo + weight, prefix - weight,
             reachable and (split or weight < prefix - weight))

    grow((), 0.0, 1.0, True)
    return tree


def test_w_walk_never_lands_on_a_weight_zero_string():
    # u at each boundary of the lexicographic table, as the walk computes
    # it, and one ulp either side: a boundary after an empty 1-branch used
    # to let the walk read a string of weight 0 ("Born weight 0 underflows")
    families = [lambda i: dephasing(0.9), lambda i: dephasing(0.8 + 0.02 * i),
                RELAY_CHANNELS["nonunital"]]
    probes = splits = 0
    for family in families:
        for n in range(4, 10):
            for s, r in ((1, 2), (n, 2)):
                cfg = NetworkConfig(n_nodes=n, sender=s, receiver=r,
                                    per_qubit_channels={i: family(i) for i in
                                                        range(1, n + 1)})
                sampler = _Protocol1Sampler(cfg)
                for b, (prefix, taken) in walk_tree(sampler).items():
                    below = sampler._walk(float(np.nextafter(b, 0)))[0]
                    if taken:  # the walk splits exactly at b
                        splits += 1
                        assert below[:len(prefix) + 1] == prefix + (0,)
                        assert sampler._walk(b)[0][:len(prefix) + 1] == prefix + (1,)
                    for u in (np.nextafter(b, 0), b, np.nextafter(b, 2)):
                        if not 0 <= u < 1:
                            continue
                        probes += 1
                        out = sampler._run(MissedVeto(float(u)))
                        bits = sampler._walk(u)[0]
                        assert np.trace(sampler._raw(bits)).real >= 1e-15
                        assert (u < sampler.zero_cut) == (bits == sampler.zeros)
                        assert out.anonymous_entanglement is sampler.branches[bits][0]
    assert probes > 1000 and splits > 200


# channel of node i: Pauli, amplitude damping, and damping then a rotation
# (complex, non-unital); i is folded into 1..9 so any n is valid
W_TAIL_CHANNELS = {"pauli": RELAY_CHANNELS["pauli"],
                   "damping": lambda i: damp_then_rotate(0.04 * i, 0.0),
                   "nonunital": RELAY_CHANNELS["nonunital"]}


@pytest.mark.parametrize("kind", sorted(W_TAIL_CHANNELS))
def test_w_walk_prefix_weights_match_pullback_traces(kind):
    # (m env[0] + env[3]) / n against a full contraction of each prefix:
    # every prefix at n = 4-9 and random ones at n = 200; sender and
    # receiver at the ends and in the middle, and with a lost node
    def configs(n):
        mid = (n + 1) // 2
        chans = {i: W_TAIL_CHANNELS[kind](i % 9 + 1) for i in range(1, n + 1)}
        for s, r, lost in ((1, n, ()), (n, 1, ()), (mid, mid + 1, ()),
                           (2, n - 1, (1,)), (mid, 1, (n,))):
            cfg = NetworkConfig(n_nodes=n, sender=s, receiver=r, lost_nodes=lost,
                                per_qubit_channels=chans)
            yield cfg, _Protocol1Sampler(cfg)

    def check(cfg, sampler, bits):
        ref = np.trace(pullback_pair(cfg, dict(zip(sampler.measuring, bits)),
                                     cfg.sender, cfg.receiver)).real
        assert traced_tail_weight(sampler, bits) == pytest.approx(ref, rel=1e-12)

    checked = 0
    for n in range(4, 10):
        for cfg, sampler in configs(n):
            for j in range(len(sampler.measuring) + 1):
                for bits in itertools.product((0, 1), repeat=j):
                    check(cfg, sampler, bits)
                    checked += 1
    rng = np.random.default_rng(25)
    for cfg, sampler in configs(200):
        for j in rng.integers(0, len(sampler.measuring) + 1, 8):
            check(cfg, sampler, tuple(rng.integers(0, 2, j).tolist()))
        check(cfg, sampler, sampler.zeros)
        # the walk's empty prefix weighs 1: the channels preserve the trace
        assert traced_tail_weight(sampler, ()) == pytest.approx(1.0, rel=1e-12)
    # three configs with k = n - 2 measuring nodes, two (a lost node) with n - 3
    assert checked == sum(2**(n + 1) - 5 for n in range(4, 10))


def test_ghz_sampler_keeps_its_transfers(monkeypatch):
    import anonqnet.protocols as protocols

    calls = []
    real = protocols._heisenberg
    monkeypatch.setattr(protocols, "_heisenberg",
                        lambda ch, op: calls.append(1) or real(ch, op))
    # damping then an X rotation fails the one-pair gate, so the runs walk
    for channel, one_pair in ((damp_then_rotate(0.2, 0.7), False),
                              (depolarizing(0.9), True)):
        cfg = NetworkConfig(n_nodes=12, sender=3, receiver=9, seed=4,
                            per_qubit_channels=uniform(channel, 12))
        protocols._transfer.cache_clear()
        calls.clear()
        sampler = _GhzSampler(cfg)
        built = len(calls)
        sampler.batch(300)
        assert sampler.one_pair == one_pair
        if not one_pair:
            assert len(sampler.branches) > 50
            # one transfer per (channel, X outcome), whatever the outcome strings
            assert built == len(calls) == 2
        else:  # one pair, contracted on the all-'+' string at construction
            assert len(sampler.branches) == 1
            assert len(calls) == built == 2  # the '+' and '-' strings, none after


def test_ghz_sampler_reads_each_channel_once(monkeypatch):
    # three distinct channels on 40 nodes: building the sampler evaluates Φ†
    # twice per channel (|+><+| and |-><-|), not twice per measuring node,
    # and the walk's diagonals keep the bits of diag(Φ†(|±><±|))
    import anonqnet.protocols as protocols

    calls = []
    real = protocols._heisenberg
    monkeypatch.setattr(protocols, "_heisenberg",
                        lambda ch, op: calls.append(1) or real(ch, op))
    chans = [damp_then_rotate(0.2, 0.7), depolarizing(0.9), damp_then_rotate(0.05, 0.3)]
    cfg = NetworkConfig(n_nodes=40, sender=5, receiver=33, seed=3,
                        per_qubit_channels={i: chans[i % 3] for i in range(1, 41)})
    protocols._transfer.cache_clear()
    sampler = _GhzSampler(cfg)
    assert len(calls) == 6 and not sampler.one_pair
    want = [[np.diag(real(cfg.channel_for(node), op)).real for op in _X_READ]
            for node in sampler.measuring]
    assert [[d.tobytes() for d in diags] for diags in sampler.diags] == [
        [d.tobytes() for d in diags] for diags in want]

    def plus_probabilities(diags, bits):  # the walk's arithmetic along one string
        products, out = np.ones(2), []
        for d, bit in zip(diags, bits):
            w_plus, w_minus = (products @ e for e in d)
            out.append(w_plus / (w_plus + w_minus))
            products = products * d[bit]
        return out

    strings, _ = sampler._walks(np.random.default_rng(8).random((200, len(sampler.measuring))))
    assert len(strings) > 100
    for bits in strings:
        assert plus_probabilities(sampler.diags, bits) == plus_probabilities(want, bits)


def test_transfers_are_read_only():
    # one cached array serves every caller: lone and stacked reads and the
    # identity of a traced-out node alike
    from anonqnet.protocols import _transfer

    channel = damp_then_rotate(0.2, 0.7)
    for mps in (_W, _GHZ):
        for read in (None, *range(len(mps.effects))):
            t = _transfer(mps, channel, read)
            assert t is _transfer(mps, channel, read)
            assert t.shape == ((2, 4, 4) if mps is _GHZ and read == 2 else (4, 4))
            assert not t.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                t[..., 0, 0] = 1


# ---------------------------------------------------------------------------
# GHZ's one-pair route

# per-node channels that commute with Z conjugation, z_defect exactly 0
COVARIANT_MIXES = {
    "depolarizing": lambda i: depolarizing(0.9),
    "depolarizing-dephasing": lambda i: depolarizing(0.9) if i % 2 else dephasing(0.8),
    "random-depolarizing": lambda i: depolarizing(np.random.default_rng(i).uniform(0.7, 1)),
    "damping": lambda i: damp_then_rotate(0.2, 0.0),
    "damping-z": lambda i: (damp_then_rotate(0.05 * i, 0.4 * i - 1.3, PAULI_Z),
                            damp_then_rotate(0.2, 0.0), depolarizing(0.85))[i % 3],
}


def covariant_config(mix, n, **kw):
    """n nodes, S = n - 1 and R = 2, on a COVARIANT_MIXES mix; a "+x-sender"
    suffix gives S damping then an X rotation, which is not covariant."""
    name, _, x_sender = mix.partition("+")
    channels = {i: COVARIANT_MIXES[name](i) for i in range(1, n + 1)}
    if x_sender:
        channels[n - 1] = damp_then_rotate(0.3, 0.9)
    return NetworkConfig(n_nodes=n, sender=n - 1, receiver=2,
                         per_qubit_channels=channels, **kw)


def string_pairs(sampler) -> set:
    """The bytes of every X-outcome string's corrected pair."""
    return {sampler._pair(bits).tobytes() for bits in
            itertools.product((0, 1), repeat=len(sampler.measuring))}


@pytest.mark.parametrize("mix", [*COVARIANT_MIXES, "damping-z+x-sender"])
def test_covariant_ghz_strings_share_one_corrected_pair(mix):
    for n in range(4, 13):
        sampler = _GhzSampler(covariant_config(mix, n))
        assert sampler.one_pair, n
        assert len(string_pairs(sampler)) == 1, n


def test_one_pair_gate_is_exact():
    # damping then an X rotation by 1e-13 passes structured_pair's 1e-12
    # check, yet its strings' corrected pairs differ in the last bits
    near = damp_then_rotate(0.2, 1e-13)
    assert 0 < z_defect(near) <= 1e-12
    structured_pair(NetworkConfig(n_nodes=6, sender=1, receiver=2,
                                  per_qubit_channels=uniform(near, 6)), "GHZ")
    for n in (4, 6, 9):
        cfg = NetworkConfig(n_nodes=n, sender=n - 1, receiver=2, seed=n,
                            per_qubit_channels=uniform(near, n))
        sampler = _GhzSampler(cfg)
        assert not sampler.one_pair
        assert len(string_pairs(sampler)) > 1
        rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
        outs = sampler.batch(300, rng)
        ref = _GhzSampler(cfg)
        ref.one_pair = False
        want = [ref._finish(key) for key in reference_ghz_batch(ref, ref_rng, 300)]
        assert [o.to_json_dict() for o in outs] == [o.to_json_dict() for o in want]
        assert rng.random() == ref_rng.random()
    # the gate reads R's channel as well as the measuring nodes'
    channels = uniform(damp_then_rotate(0.2, 0.0), 6) | {2: damp_then_rotate(0.3, 0.9)}
    sampler = _GhzSampler(NetworkConfig(n_nodes=6, sender=5, receiver=2,
                                        per_qubit_channels=channels))
    assert not sampler.one_pair
    assert len(string_pairs(sampler)) > 1


@pytest.mark.parametrize("bitgen", [np.random.PCG64, np.random.Philox, np.random.SFC64])
@pytest.mark.parametrize("buffered", [False, True])
def test_one_pair_batches_equal_the_walk(bitgen, buffered):
    cfg = covariant_config("damping-z+x-sender", 7)
    fast, walk = _GhzSampler(cfg), _GhzSampler(cfg)
    assert fast.one_pair
    walk.one_pair = False  # the gate switched off: every run walks its string
    rng, ref_rng = (np.random.Generator(bitgen(5)) for _ in range(2))
    if buffered:  # the batch starts on a buffered 32-bit half
        assert rng.integers(0, 2) == ref_rng.integers(0, 2)
    runs = 2 * fast.chunk + 3
    outs, want = fast.batch(runs, rng), walk.batch(runs, ref_rng)
    assert [o.to_json_dict() for o in outs] == [o.to_json_dict() for o in want]
    assert len(fast.branches) == 1 and len(walk.branches) > 1
    assert same_state(rng.bit_generator.state, ref_rng.bit_generator.state)
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("channel", [identity_channel(), depolarizing(0.9)])
def test_underflowing_one_pair_batch_draws_nothing(channel):
    # the all-'+' raw weight underflows from 1,024 nodes; the sampler
    # contracts its one pair before a batch fetches a word
    cfg = NetworkConfig(n_nodes=1024, sender=1, receiver=2,
                        per_qubit_channels=uniform(channel, 1024))
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="underflows"):
        sample_ghz_runs(cfg, 2, rng)
    assert rng.bit_generator.state == state
    sample_ghz_runs(NetworkConfig(n_nodes=1023, sender=1, receiver=2,
                                  per_qubit_channels=uniform(channel, 1023)), 1, rng)


def test_one_pair_batch_reads_one_pair(monkeypatch):
    import anonqnet.protocols as protocols

    calls = collections.Counter()

    def counted(name, real):
        return lambda *args: calls.update([name]) or real(*args)

    for name in ("_contract", "z_defect"):
        monkeypatch.setattr(protocols, name, counted(name, getattr(protocols, name)))
    monkeypatch.setattr(_GhzSampler, "_walks", counted("_walks", _GhzSampler._walks))
    cfg = NetworkConfig(n_nodes=50, sender=7, receiver=31, seed=2,
                        per_qubit_channels=uniform(depolarizing(0.9), 50))
    outs, agg = sample_ghz_runs(cfg, 2000)
    assert calls == {"z_defect": 1, "_contract": 1}  # one channel, one pair
    assert agg["runs"] == 2000
    assert len({id(o) for o in outs}) <= 16


# ---------------------------------------------------------------------------
# exact tables: one walk per column


from anonqnet.protocols import exact_pairs  # noqa: E402

TABLE_CHANNELS = {
    "identity": identity_channel(),
    "dephasing": dephasing(0.9),
    "depolarizing": depolarizing(0.834),
    "damp-rotate": damp_then_rotate(0.2, 0.7),
    # a generic complex channel with three Kraus operators
    "random-kraus": random_kraus_channel(np.random.default_rng(38), 3),
}


def same_pair(got, want):
    return got[0] == want[0] and np.array_equal(got[1], want[1])


def one_network_raw(config, protocol):
    """The unnormalized pair of one network, walked node by node and closed
    once: the arithmetic of a table entry before tables shared their walk.
    S and R open with their channels folded in, so the close only reshapes."""
    from anonqnet.protocols import _READ, _heisenberg, _noisy_site

    def close(mps, reads, norm):
        env, s, r = mps.left, config.sender, config.receiver
        for node in config.nodes:
            if node in (s, r):
                env = (env @ _noisy_site(mps, config.channel_for(node))).reshape(-1, 4)
            elif node not in reads:
                env = env @ mps.identity
            else:
                env = env @ mps.transfer(_heisenberg(config.channel_for(node), reads[node]))
        x = (env @ mps.right).reshape(2, 2, 2, 2) / norm
        return x.transpose((0, 2, 1, 3) if s < r else (2, 0, 3, 1)).reshape(4, 4)

    measuring = [i for i in config.live_nodes if i not in (config.sender, config.receiver)]
    if protocol == "W":
        return close(_W, dict.fromkeys(measuring, _READ[0]), config.n_nodes)
    p, q = (close(_GHZ, dict.fromkeys(measuring, op), 2) for op in (ID2, PAULI_X))
    return (p + q) / 2 + _Z_R @ (p - q) @ _Z_R / 2


def one_placement_pair(config):
    """The relay pair of one placement on one 16x16 register, each qubit map
    one einsum: the arithmetic before placements shared a stacked walk."""
    from anonqnet.protocols import _BELL, _BRANCHES, _TRAVEL, _X_SUPS, _Z_SUP, _hop
    anc = {config.sender: 1, config.receiver: 2}

    def on(rho, sup, qubit):
        r = rho.reshape(2**qubit, 2, 2**(3 - qubit), 2**qubit, 2, 2**(3 - qubit))
        return np.einsum("ikjl,ajbcld->aibckd", sup, r).reshape(16, 16)

    def splice(rho, control, node):
        if node not in anc:
            return rho
        idx = np.arange(16)
        idx ^= (idx >> (3 - control) & 1) << (3 - anc[node])
        return rho[np.ix_(idx, idx)]

    ket = np.zeros((2, 2, 2, 2), dtype=complex)
    ket[:, 0, 0, :] = _BELL[0]
    rho = splice(np.outer(ket.ravel(), ket.ravel().conj()), 0, 1)
    for j in range(2, config.n_nodes + 1):
        branch = _BRANCHES[None if j == 2 else "mixed"]
        rho = splice(on(rho, _hop(config.channel_for(j).kraus_ops, *branch), _TRAVEL),
                     _TRAVEL, j)
    for qubit in (_TRAVEL, 0):
        rho = on(rho, _X_SUPS[0], qubit) + on(on(rho, _X_SUPS[1], qubit), _Z_SUP,
                                              anc[min(anc)])
    return np.einsum("iabjicdj->abcd", rho.reshape((2,) * 8)).reshape(4, 4)


@pytest.mark.parametrize("name", sorted(TABLE_CHANNELS) + ["sender-after-receiver"])
@pytest.mark.parametrize("protocol", ["W", "GHZ"])
def test_table_walk_matches_each_size_bit_for_bit(protocol, name):
    # S = 1, R = 2 under one channel; or S = 2 under damp-rotate after R = 1
    # under depolarizing, whose close takes the (2, 0, 3, 1) transpose
    after = name == "sender-after-receiver"
    channel, sizes = TABLE_CHANNELS["depolarizing" if after else name], list(range(3, 61))

    def network(n):
        chans = uniform(channel, n) | ({2: TABLE_CHANNELS["damp-rotate"]} if after else {})
        return NetworkConfig(n, *((2, 1) if after else (1, 2)), per_qubit_channels=chans)

    table = exact_pairs(network(60), protocol, sizes)
    assert len(table) == len(sizes)
    for n, got in zip(sizes, table):
        cfg = network(n)
        assert same_pair(got, exact_pair(cfg, protocol)), (protocol, name, n)
        raw = one_network_raw(cfg, protocol)
        assert np.array_equal(got[1], raw / np.trace(raw).real), (protocol, name, n)


@pytest.mark.parametrize("name", sorted(TABLE_CHANNELS))
def test_table_walk_closes_each_lost_network_bit_for_bit(name):
    # with lost, each size's W pair follows that of its network with node N
    # lost, whose weight an exact W_loss row prints
    channel, sizes = TABLE_CHANNELS[name], list(range(4, 61))
    table = exact_pairs(NetworkConfig(60, 1, 2, per_qubit_channels=uniform(channel, 60)),
                        "W", sizes, lost=True)
    assert len(table) == 2 * len(sizes)
    for n, lost, got in zip(sizes, table[::2], table[1::2]):
        chans = uniform(channel, n)
        assert same_pair(got, exact_pair(NetworkConfig(n, 1, 2, per_qubit_channels=chans),
                                         "W")), (name, n)
        lost_cfg = NetworkConfig(n, 1, 2, per_qubit_channels=chans, lost_nodes={n})
        assert same_pair(lost, exact_pair(lost_cfg, "W")), (name, n)
        assert lost[0] == float(np.trace(one_network_raw(lost_cfg, "W")).real), (name, n)


def test_table_walk_takes_sparse_sizes_and_matches_the_closed_form():
    sizes = [4, 7, 19, 183]
    table = exact_pairs(NetworkConfig(183, 1, 2, per_qubit_channels=uniform(
        depolarizing(0.95), 183)), "W", sizes)
    for n, (weight, pair) in zip(sizes, table):
        assert weight == pytest.approx(p_success_w("depolarizing", 0.95, n), rel=1e-12)
        assert pair_fidelity(pair, "W") == pytest.approx(
            f_ae_w_depolarizing(0.95, n), abs=1e-12)


@pytest.mark.parametrize("q", [0.0, 0.5, 0.834, 1.0])
@pytest.mark.parametrize("n", range(4, 13))
def test_relay_table_walk_matches_each_placement_bit_for_bit(n, q):
    chans = uniform(depolarizing(q), n)
    for s in dict.fromkeys([1, 2, n]):
        receivers = [r for r in range(1, n + 1) if r != s]
        table = exact_pairs(NetworkConfig(n, s, receivers[-1], per_qubit_channels=chans),
                            "relay", receivers)
        assert len(table) == len(receivers)
        for r, got in zip(receivers, table):
            cfg = NetworkConfig(n, s, r, per_qubit_channels=chans)
            assert same_pair(got, exact_pair(cfg, "relay")), (n, q, s, r)
            assert np.array_equal(got[1], one_placement_pair(cfg)), (n, q, s, r)


@pytest.mark.parametrize("kind", sorted(RELAY_CHANNELS))
def test_relay_table_walk_per_node_channels(kind):
    # every node its own channel: the trunk's hops differ node by node
    n = 7
    chans = {i: RELAY_CHANNELS[kind](i) for i in range(1, n + 1)}
    for s in (1, 4, 7):
        receivers = [r for r in range(1, n + 1) if r != s]
        table = exact_pairs(NetworkConfig(n, s, receivers[0], per_qubit_channels=chans),
                            "relay", receivers)
        for r, got in zip(receivers, table):
            cfg = NetworkConfig(n, s, r, per_qubit_channels=chans)
            assert same_pair(got, exact_pair(cfg, "relay")), (kind, s, r)
            assert np.array_equal(got[1], one_placement_pair(cfg)), (kind, s, r)


@pytest.mark.parametrize("protocol, at", [("W", [5, 4]), ("GHZ", [4, 4, 5]), ("W", [4, 7]),
                                          ("relay", [3, 2]), ("relay", [0, 2]),
                                          ("relay", [1, 2]), ("W", [1, 6]),
                                          ("GHZ", [1, 6]), ("GHZ", [2, 6])])
def test_table_points_are_increasing_node_ids_other_than_the_sender(protocol, at):
    # entries come back in node order, one per point of the config's chain
    cfg = NetworkConfig(6, 1, 2, per_qubit_channels=uniform(depolarizing(0.9), 6))
    with pytest.raises(ValueError, match="must be increasing node ids"):
        exact_pairs(cfg, protocol, at)


def test_lost_table_points_lie_past_the_sender_and_receiver():
    # with lost, point k's network loses node k, which must not be S or R
    cfg = NetworkConfig(6, 1, 2, per_qubit_channels=uniform(depolarizing(0.9), 6))
    with pytest.raises(ValueError, match="must be increasing node ids"):
        exact_pairs(cfg, "W", [2, 6], lost=True)
    assert len(exact_pairs(cfg, "W", [3, 6], lost=True)) == 4
    # GHZ and the relay have no lost tables: a lost node leaves GHZ separable
    for protocol in ("GHZ", "relay"):
        with pytest.raises(ValueError, match="W only"):
            exact_pairs(cfg, protocol, [3, 6], lost=True)
