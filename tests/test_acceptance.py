"""End-to-end acceptance checks, one test per criterion.

Each test is self-contained, pins its tolerances explicitly, and asserts
its own runtime envelope, so a plain `pytest -v tests/test_acceptance.py`
reads as a pass/fail line per criterion.
"""

import time

import numpy as np
import pytest
from scipy.stats import chisquare

from anonqnet.analytic import (
    GHZ_DEPOL,
    W_DEPOL,
    crossover_n,
    f_ae_ghz_dephasing,
    f_ae_ghz_depolarizing,
    f_ae_relay_depolarizing,
    f_ae_w_dephasing,
    f_ae_w_depolarizing,
    f_ae_w_loss,
    ghz_postselected_pair,
    p_success_w,
    threshold_q,
    w_postselected_pair,
)
from anonqnet.channels import dephasing, depolarizing, identity_channel
from anonqnet.protocols import (
    NetworkConfig,
    ProtocolImpossibleError,
    parity_protocol,
    run_ghz_protocol,
    run_protocol1,
    run_relay_protocol,
    sample_protocol1_runs,
    veto_protocol,
    w_loss_branch_average_dense,
)
from anonqnet.qcore import (
    BELL_CORRECTIONS,
    Ket,
    PAULI_X,
    apply_op_dense,
    fidelity_with_pure,
    make_bell_pair,
)
from anonqnet.security import security_report
from dense_reference import (
    bell_project,
    tensor,
)

Q_GRID = [i / 10 for i in range(11)]


def uniform(channel, n):
    return {i: channel for i in range(1, n + 1)}


def test_criterion_1_success_probability_two_over_n():
    start = time.monotonic()
    for n in range(4, 11):
        cfg = NetworkConfig(n_nodes=n, sender=1, receiver=2)
        out = run_protocol1(cfg, mode="exact")
        assert out.analytic_success_probability == pytest.approx(
            2 / n, abs=1e-12)
    cfg = NetworkConfig(n_nodes=5, sender=1, receiver=2, seed=424)
    _, agg = sample_protocol1_runs(cfg, 10000)
    p_abort = 1 - 2 / 5
    sigma = np.sqrt(p_abort * (1 - p_abort) / 10000)
    assert abs(agg["abort_rate"] - p_abort) <= 3 * sigma
    assert time.monotonic() - start < 10.0


def test_criterion_2_fidelity_grid_matches_closed_forms():
    start = time.monotonic()
    for n in range(4, 9):
        for q in Q_GRID:
            for family, make in (("dephasing", dephasing),
                                 ("depolarizing", depolarizing)):
                ch = make(q)
                chans = uniform(ch, n)
                w = run_protocol1(
                    NetworkConfig(n_nodes=n, sender=1, receiver=2,
                                  per_qubit_channels=chans), mode="exact")
                g = run_ghz_protocol(
                    NetworkConfig(n_nodes=n, sender=1, receiver=2,
                                  per_qubit_channels=chans), mode="exact")
                fw = (f_ae_w_dephasing(q) if family == "dephasing"
                      else f_ae_w_depolarizing(q, n))
                fg = (f_ae_ghz_dephasing(q, n) if family == "dephasing"
                      else f_ae_ghz_depolarizing(q, n))
                assert abs(w.ae_fidelity - fw) <= 1e-10, (family, n, q)
                assert abs(g.ae_fidelity - fg) <= 1e-10, (family, n, q)
                ws, _ = w_postselected_pair(ch, n)
                gs, _ = ghz_postselected_pair(ch, n)
                assert np.max(np.abs(
                    w.anonymous_entanglement.mat - ws.mat)) <= 1e-10
                assert np.max(np.abs(
                    g.anonymous_entanglement.mat - gs.mat)) <= 1e-10
    assert time.monotonic() - start < 120.0


def test_criterion_3_threshold_crossover_printed_values():
    start = time.monotonic()
    # N counts nodes: the source prepares an N-qubit resource state and
    # every qubit crosses one channel.  Under this count the reference's
    # printed pair (W above GHZ) sits at N = 183, the first size at which
    # the W threshold exceeds the GHZ one; the reference labels it 182.
    qw = threshold_q(W_DEPOL, 183)
    qg = threshold_q(GHZ_DEPOL, 183)
    cross = crossover_n()
    assert qw == pytest.approx(0.979057, abs=1e-5)
    assert qg == pytest.approx(0.979043, abs=1e-5)
    assert cross == 183
    # The dense simulator fixes the count: an n-node run at
    # q = threshold_q(formula, n) leaves a pair fidelity of exactly 1/2,
    # while the (n + 1)-labelled threshold misses 1/2 by 2e-2 to 4e-2.
    for formula, run in ((W_DEPOL, run_protocol1),
                         (GHZ_DEPOL, run_ghz_protocol)):
        for n in range(4, 8):
            at_n, at_next = (
                run(NetworkConfig(n_nodes=n, sender=1, receiver=2,
                                  per_qubit_channels=uniform(
                                      depolarizing(threshold_q(formula, m)),
                                      n)),
                    mode="exact").ae_fidelity
                for m in (n, n + 1))
            assert abs(at_n - 0.5) <= 1e-9, (formula, n)
            assert abs(at_next - 0.5) > 1e-3, (formula, n)
    assert time.monotonic() - start < 5.0


def test_criterion_4_relay_table_n6():
    start = time.monotonic()
    printed = {
        0.8: [0.61384, 0.57384, 0.54184, 0.51624, 0.49576],
        0.95: [0.8743905, 0.8625155, 0.8512342, 0.8405170, 0.8303357],
    }
    for q, values in printed.items():
        fids = []
        for s in range(1, 7):
            for r in range(1, 7):
                if s == r:
                    continue
                cfg = NetworkConfig(n_nodes=6, sender=s, receiver=r,
                                    per_qubit_channels=uniform(
                                        depolarizing(q), 6))
                out = run_relay_protocol(cfg, mode="exact")
                assert out.max_live_qubits <= 6
                fids.append(out.ae_fidelity)
        for v in values:
            assert any(abs(f - v) <= 1e-3 for f in fids), (q, v)
    assert time.monotonic() - start < 60.0


def test_criterion_5_particle_loss():
    start = time.monotonic()
    for n in range(4, 9):
        cfg = NetworkConfig(n_nodes=n, sender=1, receiver=2,
                            lost_nodes={n})
        out = run_protocol1(cfg, mode="exact")
        assert out.ae_fidelity == pytest.approx(2 / 3, abs=1e-12)
    for n in range(4, 9):
        for q in Q_GRID:
            for family, make in (("dephasing", dephasing),
                                 ("depolarizing", depolarizing)):
                dense = w_loss_branch_average_dense(make(q), n)
                assert abs(dense - f_ae_w_loss(family, q, n)) <= 1e-9, (
                    family, n, q)
    with pytest.raises(ProtocolImpossibleError):
        run_ghz_protocol(NetworkConfig(n_nodes=5, sender=1, receiver=2,
                                       lost_nodes={4}))
    assert time.monotonic() - start < 30.0


def test_criterion_6_success_probability_formulas():
    start = time.monotonic()
    for n in range(4, 9):
        for q in Q_GRID:
            cfg = NetworkConfig(n_nodes=n, sender=1, receiver=2,
                                per_qubit_channels=uniform(depolarizing(q), n))
            got = run_protocol1(cfg, mode="exact").analytic_success_probability
            want = (q + 1) ** (n - 3) * (n * (1 - q) + 4 * q) / (n * 2 ** (n - 2))
            assert abs(got - want) <= 1e-12, ("depolarizing", n, q)
            assert abs(p_success_w("depolarizing", q, n) - want) <= 1e-12
            cfg = NetworkConfig(n_nodes=n, sender=1, receiver=2,
                                per_qubit_channels=uniform(dephasing(q), n))
            got = run_protocol1(cfg, mode="exact").analytic_success_probability
            assert got == pytest.approx(2 / n, abs=1e-12), ("dephasing", n, q)
    assert time.monotonic() - start < 30.0


def test_criterion_7_anonymity_independence_and_bounds():
    start = time.monotonic()
    channels = [identity_channel(), dephasing(0.9), depolarizing(0.8)]
    for n in (5, 6):
        for adv in ([3], [3, 4]):
            t = len(adv)
            for ch in channels:
                cfg = NetworkConfig(n_nodes=n, sender=1, receiver=2,
                                    per_qubit_channels=uniform(ch, n))
                for role in ("sender", "receiver"):
                    rep = security_report(cfg, adv, role=role)
                    assert rep["independence_deviation"] <= 1e-10, (
                        n, adv, ch.name, role)
                    assert rep["guessing_probability"] == pytest.approx(
                        1 / (n - t), abs=1e-12)
                    assert rep["certificate"] == "state-independence"
    rng = np.random.default_rng(99)
    for trial in range(50):
        if trial % 2 == 0:
            base, mk, half = dephasing(0.9), dephasing, 0.025
        else:
            base, mk, half = depolarizing(0.8), depolarizing, 0.05
        chans = {i: mk(base.params["q"] + rng.uniform(-half, half))
                 for i in range(1, 6)}
        adv = [3] if trial % 2 else [3, 4]
        cfg = NetworkConfig(n_nodes=5, sender=1, receiver=2,
                            per_qubit_channels=chans)
        rep = security_report(cfg, adv, base_channel=base)
        assert rep["epsilon_bound"] <= 5 * 0.05 + 1e-6
        assert rep["guessing_probability"] <= (
            rep["uniform_prior"] + rep["epsilon_bound"] + 1e-9), trial
    assert time.monotonic() - start < 300.0


def test_criterion_8_teleport_branches_and_masking_uniformity():
    rng = np.random.default_rng(88)
    pair = make_bell_pair(("sender", "receiver"), kind="psi+").to_density()
    for _ in range(20):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        joint = tensor(Ket(v, ("message",)).to_density(), pair, cap=3)
        for m in range(4):
            branch, w = bell_project(joint, "message", "sender", m)
            assert w > 1e-15
            corr = BELL_CORRECTIONS[m] @ PAULI_X
            fixed = apply_op_dense(branch, corr, ["receiver"])
            f = fidelity_with_pure(fixed.normalized(), Ket(v, ("receiver",)))
            assert f == pytest.approx(1.0, abs=1e-12)
    for amps, seed in ((np.array([1, 1]) / np.sqrt(2), 2026),
                       (np.array([0.0, 1.0]), 2027)):
        cfg = NetworkConfig(n_nodes=5, sender=1, receiver=3, seed=seed,
                            message_state=Ket(amps.astype(complex),
                                              ("message",)))
        outs, _ = sample_protocol1_runs(cfg, 10000)
        counts = np.zeros(4)
        for o in outs:
            if not o.aborted:
                b = o.public_teleport_bits
                counts[2 * b[0] + b[1]] += 1
        assert chisquare(counts).pvalue > 0.01


def test_criterion_9_classical_subroutines():
    rng = np.random.default_rng(7)
    for size in range(2, 9):
        for _ in range(50):
            assert veto_protocol({i: 0 for i in range(1, size + 1)}, rng,
                                 rounds=20) == 0
    misses = 0
    for _ in range(10**4):
        inputs = {i: int(rng.integers(0, 2)) for i in range(1, 6)}
        if not any(inputs.values()):
            inputs[1] = 1
        misses += 1 - veto_protocol(inputs, rng, rounds=20)
    assert misses == 0
    for _ in range(1000):
        k = int(rng.integers(1, 11))
        bits = [int(rng.integers(0, 2)) for _ in range(k)]
        want = 0
        for b in bits:
            want ^= b
        got = parity_protocol({i + 1: b for i, b in enumerate(bits)}, rng)
        assert got == want
