import hashlib
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    ghz_postselected_pair,
    p_success_w,
    p_success_w_loss,
    pair_target,
    structured_fidelity,
    threshold_q,
    w_postselected_pair,
)
from anonqnet.channels import (
    QuantumChannel,
    dephasing,
    depolarizing,
    identity_channel,
)
from anonqnet.protocols import NetworkConfig, exact_pair
from anonqnet.qcore import PAULI_Z, fidelity_with_pure


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
        state, weight = w_postselected_pair(chan, 6)
        fid = fidelity_with_pure(state, pair_target("W"))
        assert fid == pytest.approx(closed, abs=1e-12)
        assert weight == pytest.approx(
            p_success_w(chan.name, q, 6), abs=1e-12)


def test_w_postselected_pair_frozen_point():
    state, weight = w_postselected_pair(depolarizing(0.85), 6)
    assert weight == pytest.approx(0.2836040364583332, abs=1e-12)
    assert fidelity_with_pure(state, pair_target("W")) == pytest.approx(
        0.6910610465116277, abs=1e-12)


def test_ghz_postselected_pair_weight_is_branch_weight():
    # the all-plus branch carries weight 2^-(n-2) regardless of noise
    for n in (3, 4, 5):
        _, weight = ghz_postselected_pair(identity_channel(), n)
        assert weight == pytest.approx(2.0 ** -(n - 2), abs=1e-12)
    state, weight = ghz_postselected_pair(dephasing(0.75), 5)
    assert weight == pytest.approx(0.125, abs=1e-12)
    assert fidelity_with_pure(state, pair_target("GHZ")) == pytest.approx(
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
        cfg = NetworkConfig(n_nodes=n, sender=1, receiver=2,
                            per_qubit_channels=dict.fromkeys(range(1, n + 1),
                                                             channel))
        w_weight, w_pair = exact_pair(cfg, "W")
        _, ghz_pair = exact_pair(cfg, "GHZ")
        state, weight = w_postselected_pair(channel, n)
        assert np.abs(state.mat - w_pair.mat).max() <= 1e-12, n
        assert abs(weight - w_weight) <= 1e-12, n
        state, _ = ghz_postselected_pair(channel, n)
        assert np.abs(state.mat - ghz_pair.mat).max() <= 1e-12, n


@pytest.mark.parametrize("n", [4, 5, 8])
def test_structured_ghz_pair_refuses_channels_not_covariant_under_z(n):
    # damp_then_rotate(0.2, 0.7) of test_channels: the all-|+> branch is not
    # the protocol's pair (0.4463 against the engine's 0.5763 at n = 5)
    u = np.cos(0.35) * np.eye(2) - 1j * np.sin(0.35) * np.array([[0, 1], [1, 0]])
    channel = QuantumChannel([u @ k for k in damping(0.2).kraus_ops])
    with pytest.raises(ValueError, match="exact_pair"):
        ghz_postselected_pair(channel, n)
    with pytest.raises(ValueError, match="exact_pair"):
        structured_fidelity("GHZ", channel, n)


def test_structured_fidelity_dispatch():
    assert structured_fidelity("W", depolarizing(0.9), 5) == pytest.approx(
        f_ae_w_depolarizing(0.9, 5), abs=1e-12)
    assert structured_fidelity("GHZ", dephasing(0.8), 6) == pytest.approx(
        f_ae_ghz_dephasing(0.8, 6), abs=1e-12)


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
    (lambda: ghz_postselected_pair(depolarizing(0.9), 2), "need n >= 3"),
    (lambda: w_postselected_pair(depolarizing(0.9), 3),
     "structured evaluation needs n >= 4"),
    (lambda: FidelityReport("W", "depolarizing", 5, 0.9, 1.5),
     "success probability 1.5 outside [0,1]"),
    (lambda: fidelity_report("relay", "depolarizing", 0.9, 5),
     "unsupported protocol 'relay' or channel 'depolarizing'"),
    (lambda: structured_fidelity("relay", depolarizing(0.9), 5),
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
    _, weight = w_postselected_pair(depolarizing(q), n)
    assert weight == pytest.approx(p_success_w("depolarizing", q, n),
                                   abs=1e-12)


def test_pair_target_labels():
    t = pair_target("W")
    assert t.labels == PAIR_LABELS
    assert abs(t.amps[1]) == pytest.approx(1 / np.sqrt(2))
    g = pair_target("GHZ")
    assert abs(g.amps[0]) == pytest.approx(1 / np.sqrt(2))
