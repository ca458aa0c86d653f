import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from anonqnet.channels import (
    QuantumChannel,
    dephasing,
    depolarizing,
    identity_channel,
)
from anonqnet.cli import main
from anonqnet.protocols import NetworkConfig
from anonqnet.security import (
    AdversaryScenario,
    _trace_norms,
    adversary_view,
    adversary_views,
    effective_roles,
    epsilon_security_bound,
    guessing_probability,
    independence_check,
    security_report,
)

KET0 = np.array([[1, 0], [0, 0]], dtype=complex)
MIXED = np.eye(2, dtype=complex) / 2


def uniform(channel, n):
    return {i: channel for i in range(1, n + 1)}


def single_label(mat):
    return {"x": (1.0, mat)}


# ---------------------------------------------------------------------------
# views and measures


def test_independence_zero_for_identical_views():
    assert independence_check([single_label(KET0), single_label(KET0)]) == 0.0


def test_independence_sees_weight_and_state_gaps():
    a = {"x": (0.5, 0.5 * KET0), "y": (0.5, 0.5 * KET0)}
    b = {"x": (0.7, 0.7 * KET0), "y": (0.3, 0.3 * MIXED)}
    # tv = 0.2, worst per-label trace distance = 0.5
    assert independence_check([a, b]) == pytest.approx(0.7, abs=1e-12)


def test_guessing_probability_helstrom_anchor():
    # distinguishing |0><0| from I/2 at equal priors: 1/2 + 1/4 * 1
    p, cert = guessing_probability(
        [single_label(KET0), single_label(MIXED)], [0.5, 0.5])
    assert cert == "helstrom"
    assert p == pytest.approx(0.75, abs=1e-12)


def test_label_on_two_registers_is_two_orthogonal_sectors():
    # one label on a trivial block in one view and on a qubit in the other:
    # the registers themselves tell the views apart
    views = [single_label(np.ones((1, 1), dtype=complex)), single_label(MIXED)]
    assert independence_check(views) == pytest.approx(1.0, abs=1e-12)
    p, cert = guessing_probability(views, [0.5, 0.5])
    assert cert == "helstrom"
    assert p == pytest.approx(1.0, abs=1e-12)


def test_guessing_probability_orthogonal_states_certain():
    ket1 = np.array([[0, 0], [0, 1]], dtype=complex)
    p, cert = guessing_probability(
        [single_label(KET0), single_label(ket1)], [0.5, 0.5])
    assert cert == "helstrom"
    assert p == pytest.approx(1.0, abs=1e-12)


def test_guessing_probability_state_independence():
    p, cert = guessing_probability(
        [single_label(MIXED), single_label(MIXED)], [0.3, 0.7])
    assert cert == "state-independence"
    assert p == pytest.approx(0.7)


def test_guessing_probability_bound_only_three_views():
    plus = np.full((2, 2), 0.5, dtype=complex)
    ket1 = np.array([[0, 0], [0, 1]], dtype=complex)
    views = [single_label(KET0), single_label(ket1), single_label(plus)]
    p, cert = guessing_probability(views, [1 / 3] * 3)
    assert cert == "bound-only"
    # a bound, not an optimum: must dominate the best pairwise value
    two, _ = guessing_probability(views[:2], [0.5, 0.5])
    assert p >= 2 / 3 * two - 1e-12
    assert p >= 1 / 3


def test_closed_form_trace_norm_matches_eigvalsh():
    rng = np.random.default_rng(13)
    for d in (1, 2):
        x = (rng.normal(size=(1000, d, d))
             + 1j * rng.normal(size=(1000, d, d))) * rng.choice(
                 [1e-6, 1.0, 3.0], size=(1000, 1, 1))
        sym = (x + x.conj().transpose(0, 2, 1)) / 2
        ref = np.abs(np.linalg.eigvalsh(sym)).sum(-1)
        assert np.abs(_trace_norms(x) - ref).max() < 1e-12
        # a difference of two states, as the checks form it
        states = sym @ sym.conj().transpose(0, 2, 1)
        states /= np.trace(states, axis1=1, axis2=2)[:, None, None]
        diff = states[:500] - states[500:]
        ref = np.abs(np.linalg.eigvalsh(diff)).sum(-1)
        assert np.abs(_trace_norms(diff) - ref).max() < 1e-12


def test_guessing_probability_prior_validation():
    with pytest.raises(ValueError):
        guessing_probability([single_label(KET0)], [0.5, 0.5])
    with pytest.raises(ValueError):
        guessing_probability([single_label(KET0), single_label(KET0)],
                             [0.8, 0.8])


# ---------------------------------------------------------------------------
# role bookkeeping


def test_effective_roles_swap_rule():
    cfg = NetworkConfig(n_nodes=5, sender=1, receiver=2)
    assert effective_roles(cfg, 3, "sender") == (3, 2)
    assert effective_roles(cfg, 2, "sender") == (2, 1)
    assert effective_roles(cfg, 4, "receiver") == (1, 4)
    assert effective_roles(cfg, 1, "receiver") == (2, 1)
    with pytest.raises(ValueError):
        effective_roles(cfg, 3, "warden")


# ---------------------------------------------------------------------------
# adversary views


def test_adversary_view_weights_sum_to_one():
    cfg = NetworkConfig(n_nodes=5, sender=1, receiver=2,
                        per_qubit_channels=uniform(depolarizing(0.8), 5))
    view = adversary_view(cfg, AdversaryScenario(frozenset({3, 4})), 5)
    assert sum(w for w, _ in view.values()) == pytest.approx(1.0, abs=1e-10)


def test_adversary_view_validation():
    cfg = NetworkConfig(n_nodes=5, sender=1, receiver=2)
    with pytest.raises(ValueError):
        adversary_view(cfg, AdversaryScenario(frozenset({3})), 3)
    with pytest.raises(ValueError):
        adversary_view(NetworkConfig(n_nodes=5, sender=1, receiver=2,
                                     lost_nodes={5}),
                       AdversaryScenario(frozenset({5})), 3)
    # receiver hypotheses need an honest sender
    with pytest.raises(ValueError):
        adversary_view(cfg, AdversaryScenario(frozenset({1})), 3,
                       role="receiver")
    big = NetworkConfig(n_nodes=8, sender=1, receiver=2)
    with pytest.raises(ValueError):
        adversary_view(big, AdversaryScenario(frozenset({3})), 4)


@pytest.mark.parametrize("role", ["sender", "receiver"])
def test_adversary_views_match_one_view_at_a_time(role):
    # each view alone is a sweep over one candidate: the batched groups
    # (one per fixed site, the swapped hypothesis on its own) agree with it
    chans = uniform(depolarizing(0.9), 6)
    chans[3], chans[5] = dephasing(0.8), depolarizing(0.75)
    cfg = NetworkConfig(n_nodes=6, sender=1, receiver=2,
                        per_qubit_channels=chans, lost_nodes={6})
    scenario = AdversaryScenario(frozenset({4}))
    candidates = [1, 2, 3, 5]
    views = adversary_views(cfg, scenario, candidates, role)
    for c, view in zip(candidates, views):
        alone = adversary_view(cfg, scenario, c, role)
        assert list(view) == list(alone)
        for label, (w, block) in alone.items():
            assert view[label][0] == pytest.approx(w, abs=1e-14)
            assert np.abs(view[label][1] - block).max() < 1e-14


@pytest.mark.parametrize("role", ["sender", "receiver"])
@pytest.mark.parametrize("channel", [identity_channel(), dephasing(0.9),
                                     depolarizing(0.8)])
def test_uniform_network_views_are_hypothesis_independent(role, channel):
    n = 5
    cfg = NetworkConfig(n_nodes=n, sender=1, receiver=2,
                        per_qubit_channels=uniform(channel, n))
    scenario = AdversaryScenario(frozenset({4}))
    candidates = [c for c in cfg.live_nodes if c != 4
                  if effective_roles(cfg, c, role)[0] != 4]
    views = [adversary_view(cfg, scenario, c, role) for c in candidates]
    assert independence_check(views) <= 1e-10


def test_corrupt_receiver_still_independent_under_uniform_noise():
    n = 5
    cfg = NetworkConfig(n_nodes=n, sender=1, receiver=2,
                        per_qubit_channels=uniform(dephasing(0.9), n))
    rep = security_report(cfg, [2], role="sender")
    assert rep["certificate"] == "state-independence"
    assert rep["guessing_probability"] == pytest.approx(1 / 4, abs=1e-12)
    # carrier branches are actually present for a corrupt receiver
    view = adversary_view(cfg, AdversaryScenario(frozenset({2})), 3)
    assert any(lbl[-1] and lbl[-1][0] == "m" for lbl in view)


# ---------------------------------------------------------------------------
# reports and bounds


@pytest.mark.parametrize("adv,n", [((3,), 5), ((3, 4), 5), ((2, 5), 6)])
def test_security_report_uniform_noise(adv, n):
    cfg = NetworkConfig(n_nodes=n, sender=1, receiver=n - 1 if n - 1 not in adv
                        else n, per_qubit_channels=uniform(depolarizing(0.8), n))
    rep = security_report(cfg, list(adv))
    t = len(adv)
    assert rep["independence_deviation"] <= 1e-10
    assert rep["guessing_probability"] == pytest.approx(1 / (n - t), abs=1e-12)
    assert rep["certificate"] == "state-independence"
    assert rep["uniform_prior"] == pytest.approx(1 / (n - t))
    assert len(rep["candidates"]) == n - t
    for w in rep["view_total_weights"]:
        assert w == pytest.approx(1.0, abs=1e-10)


def test_security_report_receiver_role():
    cfg = NetworkConfig(n_nodes=6, sender=2, receiver=5,
                        per_qubit_channels=uniform(dephasing(0.85), 6))
    rep = security_report(cfg, [3], role="receiver")
    assert rep["guessing_probability"] == pytest.approx(1 / 5, abs=1e-12)
    assert rep["certificate"] == "state-independence"


def test_security_report_checks_independence_once(monkeypatch):
    import anonqnet.security as security

    calls = []
    real = security.independence_check
    monkeypatch.setattr(security, "independence_check",
                        lambda views: calls.append(1) or real(views))
    cfg = NetworkConfig(n_nodes=5, sender=1, receiver=2,
                        per_qubit_channels=uniform(depolarizing(0.9), 5))
    rep = security_report(cfg, [4])
    assert calls == [1]
    assert rep["certificate"] == "state-independence"


def test_perturbed_network_respects_epsilon_bound():
    n = 5
    base = dephasing(0.9)
    chans = uniform(base, n)
    chans[2] = dephasing(0.88)
    cfg = NetworkConfig(n_nodes=n, sender=1, receiver=2,
                        per_qubit_channels=chans)
    rep = security_report(cfg, [4], base_channel=base)
    eps = rep["epsilon_bound"]
    assert eps == pytest.approx(n * 2 * 0.02, abs=1e-5)
    assert rep["guessing_probability"] <= rep["uniform_prior"] + eps + 1e-9
    assert rep["bounded_guessing_probability"] == pytest.approx(
        rep["uniform_prior"] + eps)


def test_diamond_bound_reported_for_pauli_channels():
    n = 5
    base = depolarizing(0.8)
    chans = uniform(base, n)
    chans[3] = depolarizing(0.83)
    cfg = NetworkConfig(n_nodes=n, sender=1, receiver=2,
                        per_qubit_channels=chans)
    rep = security_report(cfg, [4], base_channel=base)
    # the stabilized distance is 1.5x the unstabilized one for depolarizing
    assert rep["epsilon_bound"] == pytest.approx(n * 0.030, abs=1e-12)
    assert rep["diamond_epsilon_bound"] == pytest.approx(n * 0.045, abs=1e-12)
    assert "diamond_epsilon_bound" not in security_report(cfg, [4])


def test_diamond_bound_reported_for_non_pauli_channel():
    gamma = 0.1
    damping = QuantumChannel(
        [np.array([[1, 0], [0, np.sqrt(1 - gamma)]]),
         np.array([[0, np.sqrt(gamma)], [0, 0]])], name="damping")
    chans = uniform(dephasing(0.9), 5)
    chans[3] = damping
    cfg = NetworkConfig(n_nodes=5, sender=1, receiver=2,
                        per_qubit_channels=chans)
    rep = security_report(cfg, [4], base_channel=dephasing(0.9))
    assert rep["epsilon_bound"] > 0
    # the stabilized bound can only exceed the unstabilized one
    assert rep["diamond_epsilon_bound"] >= rep["epsilon_bound"] - 1e-12


def test_epsilon_bound_looks_up_channel_distance_per_call(monkeypatch):
    # wrappers installed on the module (tracing, profiling) must see calls
    import anonqnet.security as security

    calls = []
    real = security.channel_distance
    monkeypatch.setattr(security, "channel_distance",
                        lambda a, b: calls.append(1) or real(a, b))
    epsilon_security_bound(dephasing(0.9), {1: dephasing(0.8)})
    assert calls == [1]


def test_epsilon_bound_measures_each_distinct_channel_once(monkeypatch):
    import anonqnet.security as security

    seen = []
    real = security.channel_distance
    monkeypatch.setattr(security, "channel_distance",
                        lambda a, b: seen.append(b) or real(a, b))
    base, drift = dephasing(0.9), dephasing(0.85)
    per_node = {1: base, 2: drift, 3: dephasing(0.9), 4: drift, 5: base}
    got = epsilon_security_bound(base, per_node)
    assert got == pytest.approx(5 * 2 * 0.05, abs=1e-5)
    # the base, and a copy with its Kraus operators, are at distance 0
    assert seen == [drift]
    assert epsilon_security_bound(base, {1: base, 2: dephasing(0.9)}) == 0.0
    assert seen == [drift]


def test_epsilon_bound_closed_forms():
    assert epsilon_security_bound(dephasing(0.9), {}) == 0.0
    got = epsilon_security_bound(
        dephasing(0.9), {1: dephasing(0.9), 2: dephasing(0.85)})
    assert got == pytest.approx(2 * 2 * 0.05, abs=1e-5)
    got = epsilon_security_bound(
        depolarizing(0.8), {i: depolarizing(0.75) for i in range(1, 4)})
    assert got == pytest.approx(3 * 0.05, abs=1e-5)



# ---------------------------------------------------------------------------
# golden audits: reports recorded before the audit ran on pullback_pairs
# (seed-1 bench audits, a corrupt receiver, lost nodes, a 3-node coalition,
# sender 4, two-candidate Helstrom audits and the receiver role)

GOLDEN = json.loads((Path(__file__).parent / "data" / "security_golden.json")
                    .read_text())


def assert_close(got, want, path="reports"):
    if isinstance(want, dict):
        assert list(got) == list(want), path
        for key in want:
            assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{path}[{i}]")
    elif isinstance(want, float) and not isinstance(got, bool):
        assert abs(got - want) <= 1e-12, (path, got, want)
    else:
        assert got == want and type(got) is type(want), (path, got, want)


@pytest.mark.parametrize("args", list(GOLDEN))
def test_security_golden_audit(args):
    want = GOLDEN[args]
    res = CliRunner().invoke(main, ["security", *args.split()])
    assert res.exit_code == want["exit_code"], res.output
    body = json.loads(res.output)
    assert body["holds"] is want["holds"]
    assert_close(body["reports"], want["reports"])


def test_security_nine_nodes_still_refused():
    res = CliRunner().invoke(main, ["security", "--nodes", "9",
                                    "--adversaries", "3"])
    assert res.exit_code == 2
