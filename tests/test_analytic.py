import hashlib
import math
import re
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anonqnet
from anonqnet import analytic
from anonqnet.analytic import (
    GHZ_DEPH,
    GHZ_DEPOL,
    PAIR_LABELS,
    W_DEPH,
    W_DEPOL,
    FidelityReport,
    crossover_n,
    f_ae_ghz_dephasing,
    f_ae_ghz_depolarizing,
    f_ae_relay_depolarizing,
    f_ae_w_dephasing,
    f_ae_w_depolarizing,
    f_ae_w_loss,
    fidelity_report,
    p_success_w,
    p_success_w_loss,
    pair_fidelity,
    pair_target,
    structured_pair,
    threshold_q,
)
from anonqnet.channels import (
    QuantumChannel,
    dephasing,
    depolarizing,
    identity_channel,
)
from anonqnet.protocols import (NetworkConfig, ProtocolImpossibleError, exact_pair,
                                run_ghz_protocol)
from anonqnet.qcore import ID2, PAULI_X, PAULI_Y, PAULI_Z
from dense_reference import (
    apply_to,
    make_ghz_state,
    make_w_state,
    partial_trace,
    postselect,
    random_kraus_channel,
)


def test_noiseless_limits():
    for n in (4, 7, 12):
        assert f_ae_w_depolarizing(1.0, n) == pytest.approx(1.0, abs=1e-12)
        assert f_ae_ghz_depolarizing(1.0, n) == pytest.approx(1.0, abs=1e-12)
        assert f_ae_ghz_dephasing(1.0, n) == pytest.approx(1.0, abs=1e-12)
    assert f_ae_w_dephasing(1.0) == pytest.approx(1.0, abs=1e-12)


def test_w_dephasing_size_independent():
    # the dephasing pair fidelity carries no n dependence at all
    assert f_ae_w_dephasing(0.9) == pytest.approx(0.82, abs=1e-12)
    assert f_ae_w_dephasing(0.5) == pytest.approx(0.5, abs=1e-12)


def test_closed_form_spot_values():
    # frozen from the dense oracle
    assert f_ae_w_depolarizing(0.9, 5) == pytest.approx(
        0.7982317073170732, abs=1e-12)
    assert f_ae_ghz_depolarizing(0.9, 5) == pytest.approx(0.747745, abs=1e-12)
    assert f_ae_ghz_dephasing(0.8, 6) == pytest.approx(0.523328, abs=1e-12)
    assert f_ae_w_depolarizing(0.85, 6) == pytest.approx(
        0.6910610465116279, abs=1e-12)


def test_p_success_values():
    assert p_success_w("dephasing", 0.37, 8) == pytest.approx(0.25, abs=1e-15)
    assert p_success_w("depolarizing", 1.0, 6) == pytest.approx(2 / 6, abs=1e-12)
    assert p_success_w("depolarizing", 0.9, 5) == pytest.approx(
        0.370025, abs=1e-12)
    # fully depolarizing: every outcome string equally likely
    assert p_success_w("depolarizing", 0.0, 6) == pytest.approx(
        2.0**-4, abs=1e-12)
    with pytest.raises(ValueError):
        p_success_w("amplitude", 0.9, 5)


def uniform(channel, n, **kw):
    """An n-node network, S = 1 and R = 2, with one channel on every node."""
    return NetworkConfig(n_nodes=n, sender=1, receiver=2,
                         per_qubit_channels=dict.fromkeys(range(1, n + 1), channel), **kw)


def unit(x, y):
    """The matrix unit |x><y|."""
    mat = np.zeros((2, 2), dtype=complex)
    mat[x, y] = 1
    return mat


def test_channel_outputs_on_matrix_units():
    # the <0|.|0> entries the structured W evaluator reads
    depol, deph = depolarizing(0.8), dephasing(0.6)
    assert depol(unit(0, 0))[0, 0] == pytest.approx(0.9, abs=1e-12)  # (1+q)/2
    assert depol(unit(1, 1))[0, 0] == pytest.approx(0.1, abs=1e-12)
    assert np.trace(depol(unit(0, 0))).real == pytest.approx(1.0, abs=1e-12)
    assert deph(unit(0, 0))[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert deph(unit(0, 1))[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_w_postselected_pair_matches_closed_forms():
    for chan, q, closed in [
        (depolarizing(0.85), 0.85, f_ae_w_depolarizing(0.85, 6)),
        (dephasing(0.7), 0.7, f_ae_w_dephasing(0.7)),
    ]:
        weight, state = structured_pair(uniform(chan, 6), "W")
        fid = pair_fidelity(state, "W")
        assert fid == pytest.approx(closed, abs=1e-12)
        assert weight == pytest.approx(
            p_success_w(chan.name, q, 6), abs=1e-12)


def test_w_postselected_pair_frozen_point():
    weight, state = structured_pair(uniform(depolarizing(0.85), 6), "W")
    assert weight == pytest.approx(0.2836040364583332, abs=1e-12)
    assert pair_fidelity(state, "W") == pytest.approx(
        0.6910610465116277, abs=1e-12)


def test_ghz_postselected_pair_weight_is_branch_weight():
    # the all-plus branch carries weight 2^-(n-2) regardless of noise
    for n in (3, 4, 5):
        weight, _ = structured_pair(uniform(identity_channel(), n), "GHZ")
        assert weight == pytest.approx(2.0 ** -(n - 2), abs=1e-12)
    weight, state = structured_pair(uniform(dephasing(0.75), 5), "GHZ")
    assert weight == pytest.approx(0.125, abs=1e-12)
    assert pair_fidelity(state, "GHZ") == pytest.approx(
        0.515625, abs=1e-12)


def damping(gamma, theta=0.0):
    """Amplitude damping, then a rotation by theta about z: non-unital, with
    complex Kraus operators for theta != 0, and covariant under Z."""
    u = np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * PAULI_Z
    return QuantumChannel([u @ np.array([[1, 0], [0, np.sqrt(1 - gamma)]]),
                           u @ np.array([[0, np.sqrt(gamma)], [0, 0]])],
                          name="damping")


@pytest.mark.parametrize("channel", [damping(0.2), damping(0.35, 0.8)],
                         ids=["amplitude-damping", "damping-z-rotation"])
def test_structured_pairs_match_engine_on_non_pauli_channels(channel):
    for n in range(4, 13):
        cfg = uniform(channel, n)
        w_weight, w_pair = exact_pair(cfg, "W")
        _, ghz_pair = exact_pair(cfg, "GHZ")
        weight, state = structured_pair(cfg, "W")
        assert np.abs(state - w_pair).max() <= 1e-12, n
        assert abs(weight - w_weight) <= 1e-12, n
        _, state = structured_pair(cfg, "GHZ")
        assert np.abs(state - ghz_pair).max() <= 1e-12, n


@pytest.mark.parametrize("n", [4, 5, 8])
def test_structured_ghz_pair_refuses_channels_not_covariant_under_z(n):
    # damp_then_rotate(0.2, 0.7) of test_channels: the all-|+> branch is not
    # the protocol's pair (0.4463 against the engine's 0.5763 at n = 5)
    u = np.cos(0.35) * np.eye(2) - 1j * np.sin(0.35) * np.array([[0, 1], [1, 0]])
    channel = QuantumChannel([u @ k for k in damping(0.2).kraus_ops])
    with pytest.raises(ValueError, match="exact_pair"):
        structured_pair(uniform(channel, n), "GHZ")
    # every node but the sender is gated: R alone is refused, S alone is not
    covariant = dict.fromkeys(range(1, n + 1), damping(0.2))
    with pytest.raises(ValueError, match="exact_pair"):
        structured_pair(NetworkConfig(n_nodes=n, sender=1, receiver=2,
                                      per_qubit_channels=covariant | {2: channel}), "GHZ")
    cfg = NetworkConfig(n_nodes=n, sender=1, receiver=2,
                        per_qubit_channels=covariant | {1: channel})
    assert np.abs(structured_pair(cfg, "GHZ")[1]
                  - exact_pair(cfg, "GHZ")[1]).max() <= 1e-12


@pytest.mark.parametrize("n", [1000, 1100, 10_000])
def test_structured_ghz_pair_at_network_scale(n):
    # each node's factor is summed doubled, 2<+|Φ_j(|x><y|)|+>, so the pair
    # stays in range; the weight 2^-(n-2) reads 0.0 once it leaves the range
    cfg = uniform(depolarizing(0.9999), n)
    weight, pair = structured_pair(cfg, "GHZ")
    assert np.abs(pair - exact_pair(cfg, "GHZ")[1]).max() <= 1e-12
    assert pair_fidelity(pair, "GHZ") == pytest.approx(
        f_ae_ghz_depolarizing(0.9999, n), abs=1e-12)
    assert weight == pytest.approx(2.0 ** -(n - 2), rel=1e-12, abs=0.0)


def structured_fidelity(protocol, channel, n):
    pair = structured_pair(uniform(channel, n), protocol)[1]
    return pair_fidelity(pair, protocol)


def test_structured_fidelity_dispatch():
    assert structured_fidelity("W", depolarizing(0.9), 5) == pytest.approx(
        f_ae_w_depolarizing(0.9, 5), abs=1e-12)
    assert structured_fidelity("GHZ", dephasing(0.8), 6) == pytest.approx(
        f_ae_ghz_dephasing(0.8, 6), abs=1e-12)


def test_structured_pair_refuses_what_its_sums_cannot_give():
    flip = QuantumChannel([PAULI_X])  # sends |0> wholly to |1>: t00 = 0
    t00_zero = NetworkConfig(n_nodes=6, sender=1, receiver=2,
                             per_qubit_channels={3: depolarizing(0.9), 4: flip})
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused by name, before any NaN
        with pytest.raises(ValueError, match="Born weight 0 underflows double precision"):
            structured_pair(uniform(depolarizing(0.5), 3000), "W")
        with pytest.raises(ValueError, match=re.escape("(t00 = 0); use protocols.exact_pair")):
            structured_pair(t00_zero, "W")
    assert exact_pair(t00_zero, "W")[0] > 0  # where the message points
    refusals = []
    for route in (structured_pair, exact_pair):
        with pytest.raises(ProtocolImpossibleError, match="separable state") as info:
            route(uniform(depolarizing(0.9), 6, lost_nodes={4}), "GHZ")
        refusals.append((type(info.value), str(info.value)))
    # one refusal: the same class, re-exported as one object, and message
    assert refusals[0] == refusals[1]
    assert analytic.ProtocolImpossibleError is ProtocolImpossibleError
    assert anonqnet.ProtocolImpossibleError is ProtocolImpossibleError


@pytest.mark.parametrize("n_nodes", [8, 20, 183])
def test_noiseless_w_pair_with_lost_nodes_has_fidelity_two_over_two_plus_l(n_nodes):
    # the paper's "tolerates one non-responsive node", on two routes: L lost
    # nodes leave the pair at fidelity 2/(2 + L), so one is the most
    for lost in range(5):
        cfg = NetworkConfig(n_nodes=n_nodes, sender=n_nodes // 2, receiver=1,
                            lost_nodes=set(range(n_nodes - lost + 1, n_nodes + 1)))
        for route in (structured_pair, exact_pair):
            weight, pair = route(cfg, "W")
            assert pair_fidelity(pair, "W") == pytest.approx(
                2 / (2 + lost), abs=1e-12), (route, lost)
            assert weight == pytest.approx((2 + lost) / n_nodes, abs=1e-12)


def random_pauli(rng):
    weights = rng.dirichlet(np.ones(4))
    return QuantumChannel([np.sqrt(w) * p for w, p in
                           zip(weights, (ID2, PAULI_X, PAULI_Y, PAULI_Z))])


def random_network(rng, n, protocol):
    """n nodes, S and R in either order, each node one of a few channels:
    Pauli, z-rotated damping or (W only, and GHZ's sender) a random complex
    Kraus set; W loses up to three of its measuring nodes."""
    makes = [random_pauli, lambda g: damping(g.uniform(0, 0.6), g.uniform(-3, 3))]
    if protocol == "W":
        makes.append(lambda g: random_kraus_channel(g, int(g.integers(1, 4))))
    pool = [makes[i % len(makes)](rng) for i in range(6)]
    channels = {i: pool[rng.integers(len(pool))] for i in range(1, n + 1)}
    s, r = (int(i) for i in rng.choice(np.arange(1, n + 1), 2, replace=False))
    others = [i for i in range(1, n + 1) if i not in (s, r)]
    lost = set()
    if protocol == "W":
        lost = set(rng.choice(others, min(len(others) - 1, int(rng.integers(4))),
                              replace=False).tolist())
    else:
        channels[s] = random_kraus_channel(rng, 2)
    return NetworkConfig(n_nodes=n, sender=s, receiver=r, per_qubit_channels=channels,
                         lost_nodes=lost)


@pytest.mark.parametrize("protocol", ["W", "GHZ"])
def test_structured_pair_matches_engine_on_random_per_node_networks(protocol):
    rng = np.random.default_rng(41)
    for n in (3, 3, 4, 5, 7, 11, 19, 37, 64, 120, 183, 250, 400):
        cfg = random_network(rng, n, protocol)
        weight, pair = structured_pair(cfg, protocol)
        ref_weight, ref = exact_pair(cfg, protocol)
        assert np.abs(pair - ref).max() <= 1e-12, n
        if protocol == "W":  # GHZ's weight is its all-|+> branch's; the run's is 1
            assert abs(weight / ref_weight - 1) <= 1e-12, n


@pytest.mark.parametrize("protocol", ["W", "GHZ"])
def test_structured_pair_matches_dense_reference(protocol):
    rng = np.random.default_rng(7)
    basis = "standard" if protocol == "W" else "hadamard"
    make = make_w_state if protocol == "W" else make_ghz_state
    for n in (3, 4, 5, 6, 7, 7):
        cfg = random_network(rng, n, protocol)
        rho = partial_trace(make(n, labels=cfg.nodes).to_density(), cfg.lost_nodes)
        for node in cfg.live_nodes:
            rho = apply_to(cfg.channel_for(node), rho, node)
            if node not in (cfg.sender, cfg.receiver):  # reads 0, or +
                rho = partial_trace(postselect(rho, node, basis, 0)[0], [node])
        raw = rho.permuted((cfg.sender, cfg.receiver)).mat
        weight, pair = structured_pair(cfg, protocol)
        assert weight == pytest.approx(np.trace(raw).real, abs=1e-12), n
        assert np.abs(pair - raw / np.trace(raw).real).max() <= 1e-12, n


def test_fidelity_report_fields():
    rep = fidelity_report("W", "depolarizing", 0.9, 5)
    assert rep.useful
    assert rep.success_probability == pytest.approx(0.370025, abs=1e-12)
    rep_ghz = fidelity_report("GHZ", "dephasing", 0.9, 5)
    # the GHZ protocol corrects every branch, so it never discards a run
    assert rep_ghz.success_probability == 1.0
    with pytest.raises(ValueError):
        FidelityReport("W", "dephasing", 5, 1.7, 0.5)


def test_threshold_monotone_root():
    # F(q*) = 1/2 by construction
    for formula, n in [(W_DEPOL, 50), (GHZ_DEPOL, 50), (W_DEPOL, 182)]:
        qs = threshold_q(formula, n)
        f = (f_ae_w_depolarizing if formula == W_DEPOL
             else f_ae_ghz_depolarizing)
        assert f(qs, n) == pytest.approx(0.5, abs=1e-9)


def test_threshold_dephasing_degenerate_at_half():
    # 1 - 2q(1-q) touches 1/2 only at q = 1/2; same for the GHZ form
    assert threshold_q(W_DEPH, 10) == pytest.approx(0.5, abs=1e-9)
    assert threshold_q(GHZ_DEPH, 10) == pytest.approx(0.5, abs=1e-9)


def test_threshold_frozen_values_near_crossover():
    # frozen from the bisection oracle at tol 1e-12, bit for bit
    assert threshold_q(W_DEPOL, 182) == 0.9789472681109146
    assert threshold_q(GHZ_DEPOL, 182) == 0.9789524119037196
    assert threshold_q(W_DEPOL, 183) == 0.9790574934081633
    assert threshold_q(GHZ_DEPOL, 183) == 0.9790433054208734


# sha256 of the float64 bytes of [threshold_q(f, n) for n in 4..400], taken
# when every size was bisected on its own
THRESHOLD_SHA256 = {
    W_DEPOL: "f5055826229546fa56af860c3bedbfeaf6cd18fe3f06c5a4d2cdc460fa6db7c6",
    GHZ_DEPOL: "01be4b179c650d4704f91116eec2cc2c8f0eb16d47e942dd31a31db37829a859",
    W_DEPH: "7c1a00d52b9f641c4c73ba80f735090f57eb7ddb46c36517e85f787c229c62fe",
    GHZ_DEPH: "7c1a00d52b9f641c4c73ba80f735090f57eb7ddb46c36517e85f787c229c62fe",
}


@pytest.mark.parametrize("formula", list(THRESHOLD_SHA256),
                         ids=lambda f: "-".join(f))
def test_threshold_array_is_bitwise_the_scalar_bisection(formula):
    ns = np.arange(4, 401)
    qs = threshold_q(formula, ns)
    assert qs.dtype == np.float64 and qs.shape == ns.shape
    one_by_one = [threshold_q(formula, int(n)) for n in ns]
    assert all(type(q) is float for q in one_by_one)
    assert qs.tobytes() == np.array(one_by_one).tobytes()
    assert hashlib.sha256(qs.tobytes()).hexdigest() == THRESHOLD_SHA256[formula]


def test_threshold_array_errors_and_edge(monkeypatch):
    with pytest.raises(ValueError, match="n >= 3"):
        threshold_q(W_DEPOL, np.array([4, 2, 5]))
    with pytest.raises(RuntimeError, match="no crossover"):
        crossover_n(182)
    # sizes already at the edge q=0.5 are never bisected: the q=1 check
    # and the edge check are the only two evaluations of a dephasing table
    calls = []
    f = analytic._FORMULAS[GHZ_DEPH]
    monkeypatch.setitem(analytic._FORMULAS, GHZ_DEPH,
                        lambda q, n: calls.append(q.size) or f(q, n))
    assert (threshold_q(GHZ_DEPH, np.arange(4, 51)) == 0.5).all()
    assert calls == [47, 47]
    monkeypatch.setitem(analytic._FORMULAS, GHZ_DEPH, lambda q, n: 0.4 * q)
    with pytest.raises(ValueError, match="no usefulness threshold"):
        threshold_q(GHZ_DEPH, np.array([4, 5]))


def test_crossover_is_first_sign_change():
    n = crossover_n()
    assert n == 183
    assert threshold_q(W_DEPOL, n - 1) < threshold_q(GHZ_DEPOL, n - 1)
    assert threshold_q(W_DEPOL, n) > threshold_q(GHZ_DEPOL, n)


def test_loss_formulas_spot_values():
    # identity: the lost-excitation branch drags the average below 1
    for n in (4, 6, 8):
        expected = (n - 1) / n  # (n-1)/n * 1 + 1/n * 0
        assert f_ae_w_loss("dephasing", 1.0, n) == pytest.approx(
            expected, abs=1e-12)
        assert f_ae_w_loss("depolarizing", 1.0, n) == pytest.approx(
            expected, abs=1e-12)
    assert f_ae_w_loss("depolarizing", 0.9, 5) == pytest.approx(
        0.6480853658536584, abs=1e-12)


def test_p_success_w_loss_values():
    # identity: 3/n (survived branch 2/(n-1) weighted (n-1)/n, plus 1/n)
    for n in (4, 5, 8):
        assert p_success_w_loss("dephasing", 1.0, n) == pytest.approx(
            3 / n, abs=1e-12)
        assert p_success_w_loss("depolarizing", 1.0, n) == pytest.approx(
            3 / n, abs=1e-12)
    assert p_success_w_loss("depolarizing", 0.9, 5) == pytest.approx(
        0.5605, abs=1e-12)


def test_p_success_w_depolarizing_matches_exact_rationals_at_any_size():
    # n * 2**(n - 2) passes the largest double from n = 1,017, and
    # (q + 1)**(n - 3) from about n = 1,106 at q = 0.9; the ratio does not.
    # Any double evaluation rounds q + 1 before the power, which scales
    # that rounding by n - 3, so the exact reference starts from it too
    qs = np.linspace(0.0, 1.0, 21).tolist() + [0.93, 0.97, 0.99]
    for n in (4, 50, 183, 1016, 1017, 1100, 5000):
        for q in qs:
            x = Fraction(q)
            exact = (Fraction(q + 1) ** (n - 3) * (n * (1 - x) + 4 * x)
                     / (n * 2 ** (n - 2)))
            if exact >= sys.float_info.min:
                assert p_success_w("depolarizing", q, n) == pytest.approx(
                    float(exact), rel=1e-14, abs=0)
    # within 4 ulp of the integer-power form wherever that one is finite
    for n in range(3, 1017):
        for q in qs:
            old = (q + 1) ** (n - 3) * (n * (1 - q) + 4 * q) / (n * 2 ** (n - 2))
            assert abs(p_success_w("depolarizing", q, n) - old) <= 4 * math.ulp(old)


@pytest.mark.parametrize("call, message", [
    (lambda: p_success_w("damping", 0.9, 5), "unsupported channel 'damping'"),
    (lambda: f_ae_w_loss("damping", 0.9, 5), "unsupported channel 'damping'"),
    (lambda: p_success_w_loss("damping", 0.9, 5), "unsupported channel 'damping'"),
    (lambda: p_success_w("depolarizing", 0.9, 2), "need n >= 3"),
    (lambda: f_ae_w_loss("depolarizing", 0.9, 3),
     "need n >= 4 with one lost measuring node"),
    (lambda: p_success_w_loss("depolarizing", 0.9, 3),
     "need n >= 4 with one lost measuring node"),
    (lambda: FidelityReport("W", "depolarizing", 5, 0.9, 1.5),
     "success probability 1.5 outside [0,1]"),
    (lambda: fidelity_report("relay", "depolarizing", 0.9, 5),
     "unsupported protocol 'relay' or channel 'depolarizing'"),
    (lambda: structured_pair(uniform(depolarizing(0.9), 5), "relay"),
     "unsupported protocol 'relay'"),
    (lambda: threshold_q(("W", "damping"), 5),
     "unknown formula ('W', 'damping')"),
    (lambda: f_ae_relay_depolarizing(0.9, 5, 3, 3),
     "relay endpoints must be distinct chain positions"),
])
def test_unsupported_families_and_sizes_are_refused(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_relay_closed_form_printed_values():
    expected_08 = [0.61384, 0.57384, 0.54184, 0.51624, 0.49576]
    expected_095 = [0.8743905, 0.8625155, 0.8512342, 0.8405170, 0.8303357]
    for r, want in zip(range(2, 7), expected_08):
        assert f_ae_relay_depolarizing(0.8, 6, 1, r) == pytest.approx(
            want, abs=1e-6)
    for r, want in zip(range(2, 7), expected_095):
        assert f_ae_relay_depolarizing(0.95, 6, 1, r) == pytest.approx(
            want, abs=1e-6)


def test_relay_closed_form_order_symmetric():
    assert f_ae_relay_depolarizing(0.9, 6, 2, 5) == pytest.approx(
        f_ae_relay_depolarizing(0.9, 6, 5, 2), abs=1e-15)


def test_relay_noiseless_perfect():
    assert f_ae_relay_depolarizing(1.0, 8, 3, 6) == pytest.approx(
        1.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.5, 1.0), st.integers(4, 12))
def test_w_depolarizing_fidelity_in_unit_interval(q, n):
    f = f_ae_w_depolarizing(q, n)
    assert -1e-12 <= f <= 1 + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 1.0), st.integers(4, 10))
def test_structured_weight_equals_formula(q, n):
    weight, _ = structured_pair(uniform(depolarizing(q), n), "W")
    assert weight == pytest.approx(p_success_w("depolarizing", q, n),
                                   abs=1e-12)


def test_pair_targets_are_read_only():
    # every caller shares one array per target, so a write through
    # pair_target would skew every later pair_fidelity in the process
    with pytest.raises(ValueError, match="read-only"):
        pair_target("W")[1] = 0
    with pytest.raises(ValueError, match="read-only"):
        pair_target("GHZ")[0] = 0
    noiseless = NetworkConfig(n_nodes=5, sender=2, receiver=4)
    assert pair_fidelity(exact_pair(noiseless, "W")[1], "W") == pytest.approx(1.0, abs=1e-12)


def test_pair_target_labels():
    # targets and pairs are (sender, receiver) arrays, the sender the high bit,
    # the order a run's JSON names with PAIR_LABELS
    t = pair_target("W")
    assert t.shape == (4,) and t.dtype == complex
    assert abs(t[1]) == pytest.approx(1 / np.sqrt(2))
    g = pair_target("GHZ")
    assert abs(g[0]) == pytest.approx(1 / np.sqrt(2))
    # damping at the sender alone mixes the high bit's half, not the low one's
    cfg = NetworkConfig(n_nodes=4, sender=3, receiver=1, per_qubit_channels={3: damping(0.5)})
    halves = exact_pair(cfg, "GHZ")[1].reshape(2, 2, 2, 2)
    assert np.abs(np.einsum("ajbj->ab", halves) - np.diag([0.75, 0.25])).max() <= 1e-12
    assert np.abs(np.einsum("jajb->ab", halves) - np.eye(2) / 2).max() <= 1e-12
    out = run_ghz_protocol(cfg, mode="exact").to_json_dict()
    assert out["anonymous_entanglement"]["labels"] == list(PAIR_LABELS)
