import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from anonqnet.channels import (
    QuantumChannel,
    dephasing,
    depolarizing,
    diamond_distance,
    identity_channel,
)
from anonqnet.cli import main
from anonqnet.protocols import (NetworkConfig, outcome_transfers, pullback_pairs,
                                teleport_branches)
from anonqnet.qcore import PAULI_X, PAULI_Y, PAULI_Z
from anonqnet.security import (
    _trace_norms,
    adversary_views,
    effective_roles,
    epsilon_security_bound,
    guessing_probability,
    independence_check,
    security_report,
)
from dense_reference import as_dicts, random_kraus_channel, unstabilized_distance

KET0 = np.array([[1, 0], [0, 0]], dtype=complex)
MIXED = np.eye(2, dtype=complex) / 2


def uniform(channel, n):
    return {i: channel for i in range(1, n + 1)}


def single_label(*mats):
    """Views of one label each, of weight 1, as (weights, blocks)."""
    blocks = np.array(mats, dtype=complex)[:, None]
    return np.ones(blocks.shape[:2]), blocks


def guess(weights, blocks, priors):
    return guessing_probability(blocks, priors, independence_check(weights, blocks))


# ---------------------------------------------------------------------------
# views and measures


def test_independence_zero_for_identical_views():
    assert independence_check(*single_label(KET0, KET0)) == 0.0


def test_independence_sees_weight_and_state_gaps():
    # labels x and y
    weights = np.array([[0.5, 0.5], [0.7, 0.3]])
    blocks = np.array([[0.5 * KET0, 0.5 * KET0], [0.7 * KET0, 0.3 * MIXED]])
    # tv = 0.2, worst per-label trace distance = 0.5
    assert independence_check(weights, blocks) == pytest.approx(0.7, abs=1e-12)


def test_guessing_probability_helstrom_anchor():
    # distinguishing |0><0| from I/2 at equal priors: 1/2 + 1/4 * 1
    p, cert = guess(*single_label(KET0, MIXED), [0.5, 0.5])
    assert cert == "helstrom"
    assert p == pytest.approx(0.75, abs=1e-12)


def test_checks_refuse_blocks_they_cannot_measure():
    # two orthogonal 4x4 states: the closed-form trace norms read only a
    # block's top-left 2x2 corner, which is 0 for both, so they would be
    # called identical; the checks refuse before any arithmetic
    ket2, ket3 = np.diag([0, 0, 1, 0]), np.diag([0, 0, 0, 1])
    weights, blocks = single_label(ket2, ket3)
    with pytest.raises(ValueError, match="d = 1 or 2"):
        independence_check(weights, blocks)
    with pytest.raises(ValueError, match="d = 1 or 2"):
        guessing_probability(blocks, [0.5, 0.5], 0.0)
    with pytest.raises(ValueError, match="d = 1 or 2"):
        guessing_probability(blocks[:, 0], [0.5, 0.5], 0.0)
    # weights over other labels or views than the blocks'
    weights, blocks = single_label(KET0, MIXED)
    for bad in (np.ones((2, 2)), np.ones((1, 1)), np.ones(2)):
        with pytest.raises(ValueError, match="C x K"):
            independence_check(bad, blocks)


def test_guessing_probability_orthogonal_states_certain():
    ket1 = np.array([[0, 0], [0, 1]], dtype=complex)
    p, cert = guess(*single_label(KET0, ket1), [0.5, 0.5])
    assert cert == "helstrom"
    assert p == pytest.approx(1.0, abs=1e-12)


def test_guessing_probability_reads_the_blocks_before_certifying_independence():
    # a deviation of 0 that does not match the blocks certifies nothing
    ket1 = np.array([[0, 0], [0, 1]], dtype=complex)
    _, blocks = single_label(KET0, ket1)
    p, cert = guessing_probability(blocks, [0.5, 0.5], 0.0)
    assert cert == "helstrom"
    assert p == pytest.approx(1.0, abs=1e-12)
    _, blocks = single_label(KET0, ket1, MIXED)
    assert guessing_probability(blocks, [0.2, 0.3, 0.5], 0.0)[1] == "bound-only"


def test_guessing_probability_state_independence():
    p, cert = guess(*single_label(MIXED, MIXED), [0.3, 0.7])
    assert cert == "state-independence"
    assert p == pytest.approx(0.7)


def test_guessing_probability_bound_only_three_views():
    plus = np.full((2, 2), 0.5, dtype=complex)
    ket1 = np.array([[0, 0], [0, 1]], dtype=complex)
    weights, blocks = single_label(KET0, ket1, plus)
    p, cert = guess(weights, blocks, [1 / 3] * 3)
    assert cert == "bound-only"
    # a bound, not an optimum: must dominate the best pairwise value
    two, _ = guess(weights[:2], blocks[:2], [0.5, 0.5])
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
        guess(*single_label(KET0), [0.5, 0.5])
    with pytest.raises(ValueError):
        guess(*single_label(KET0, KET0), [0.8, 0.8])


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
    view = as_dicts(*adversary_views(cfg, frozenset({3, 4}), [5]))[0]
    assert sum(w for w, _ in view.values()) == pytest.approx(1.0, abs=1e-10)


def test_adversary_view_validation():
    cfg = NetworkConfig(n_nodes=5, sender=1, receiver=2)
    with pytest.raises(ValueError):
        adversary_views(cfg, frozenset({3}), [3])[0]
    with pytest.raises(ValueError):
        adversary_views(NetworkConfig(n_nodes=5, sender=1, receiver=2,
                                      lost_nodes={5}),
                        frozenset({5}), [3])[0]
    # receiver hypotheses need an honest sender
    with pytest.raises(ValueError):
        adversary_views(cfg, frozenset({1}), [3],
                        role="receiver")[0]
    big = NetworkConfig(n_nodes=8, sender=1, receiver=2)
    with pytest.raises(ValueError):
        adversary_views(big, frozenset({3}), [4])[0]


@pytest.mark.parametrize("role", ["sender", "receiver"])
def test_adversary_views_match_one_view_at_a_time(role):
    # each view alone is a sweep over one candidate: the batched sweep
    # (one fixed site, the swapped hypothesis read from its other end)
    # agrees with it
    chans = uniform(depolarizing(0.9), 6)
    chans[3], chans[5] = dephasing(0.8), depolarizing(0.75)
    cfg = NetworkConfig(n_nodes=6, sender=1, receiver=2,
                        per_qubit_channels=chans, lost_nodes={6})
    scenario = frozenset({4})
    candidates = [1, 2, 3, 5]
    views = as_dicts(*adversary_views(cfg, scenario, candidates, role))
    for c, view in zip(candidates, views):
        alone = as_dicts(*adversary_views(cfg, scenario, [c], role))[0]
        assert list(view) == list(alone)
        for label, (w, block) in alone.items():
            assert view[label][0] == pytest.approx(w, abs=1e-14)
            assert np.abs(view[label][1] - block).max() < 1e-14


@pytest.mark.parametrize("role", ["sender", "receiver"])
def test_adversary_views_take_one_sweep(monkeypatch, role):
    # 2 is the swapped sender hypothesis and 1 the swapped receiver
    # hypothesis: both share the role's fixed site with the others
    import anonqnet.security as security

    fixed_sites = []
    real = security.pullback_pairs
    monkeypatch.setattr(security, "pullback_pairs",
                        lambda *args: fixed_sites.append(args[2]) or real(*args))
    chans = uniform(depolarizing(0.9), 6)
    chans[3] = dephasing(0.8)
    cfg = NetworkConfig(n_nodes=6, sender=1, receiver=2,
                        per_qubit_channels=chans)
    views = as_dicts(*adversary_views(cfg, frozenset({4}),
                                      [1, 2, 3, 5, 6], role))
    assert len(views) == 5
    assert fixed_sites == [2 if role == "sender" else 1]


@pytest.mark.parametrize("role", ["sender", "receiver"])
def test_adversary_views_of_no_hypotheses_are_empty(role):
    cfg = NetworkConfig(n_nodes=5, sender=1, receiver=2,
                        per_qubit_channels=uniform(depolarizing(0.9), 5))
    assert as_dicts(*adversary_views(cfg, {4}, [], role)) == []


@pytest.mark.parametrize("role", ["sender", "receiver"])
def test_coalition_holding_the_sender_is_refused(role):
    cfg = NetworkConfig(n_nodes=5, sender=1, receiver=2)
    with pytest.raises(ValueError, match="corrupt sender"):
        security_report(cfg, [1, 3], role)
    with pytest.raises(ValueError, match="corrupt sender"):
        adversary_views(cfg, frozenset({1}), [3], role)


@pytest.mark.parametrize("role", ["sender", "receiver"])
@pytest.mark.parametrize("channel", [identity_channel(), dephasing(0.9),
                                     depolarizing(0.8)])
def test_uniform_network_views_are_hypothesis_independent(role, channel):
    n = 5
    cfg = NetworkConfig(n_nodes=n, sender=1, receiver=2,
                        per_qubit_channels=uniform(channel, n))
    scenario = frozenset({4})
    candidates = [c for c in cfg.live_nodes if c != 4
                  if effective_roles(cfg, c, role)[0] != 4]
    # one audit per candidate; the audits share their labels
    views = [adversary_views(cfg, scenario, [c], role) for c in candidates]
    assert all(labels == views[0][0] for labels, _, _ in views)
    weights, blocks = (np.concatenate(x) for x in list(zip(*views))[1:])
    assert independence_check(weights, blocks) <= 1e-10


def test_corrupt_receiver_still_independent_under_uniform_noise():
    n = 5
    cfg = NetworkConfig(n_nodes=n, sender=1, receiver=2,
                        per_qubit_channels=uniform(dephasing(0.9), n))
    rep = security_report(cfg, [2], role="sender")
    assert rep["certificate"] == "state-independence"
    assert rep["guessing_probability"] == pytest.approx(1 / 4, abs=1e-12)
    # carrier branches are actually present for a corrupt receiver
    view = as_dicts(*adversary_views(cfg, frozenset({2}), [3]))[0]
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

    # the report reads its views as arrays, through independence_check
    calls = []
    real = security.independence_check
    monkeypatch.setattr(security, "independence_check",
                        lambda *arrays: calls.append(1) or real(*arrays))
    cfg = NetworkConfig(n_nodes=5, sender=1, receiver=2,
                        per_qubit_channels=uniform(depolarizing(0.9), 5))
    rep = security_report(cfg, [4])
    assert calls == [1]
    assert rep["certificate"] == "state-independence"


@pytest.mark.parametrize("role", ["sender", "receiver"])
@pytest.mark.parametrize("slack, holds", [(0.05, True), (-0.05, False)])
def test_security_report_verdict_uses_diamond_bound(monkeypatch, role, slack,
                                                    holds):
    import anonqnet.security as security

    chans = uniform(depolarizing(0.9), 5)
    chans[3] = depolarizing(0.3)
    cfg = NetworkConfig(n_nodes=5, sender=1, receiver=2,
                        per_qubit_channels=chans)
    rep = security_report(cfg, [4], role)
    margin = rep["guessing_probability"] - rep["uniform_prior"]
    assert margin > 0.05 and rep["holds"] is False  # no base channel: eps 0
    # the one deviating channel's distance is the whole bound: just above
    # the margin the verdict holds, just below it fails
    monkeypatch.setattr(security, "diamond_distance",
                        lambda a, b: margin + slack)
    rep = security_report(cfg, [4], role, base_channel=depolarizing(0.9))
    assert rep["diamond_epsilon_bound"] == pytest.approx(margin + slack)
    assert "epsilon_bound" not in rep
    assert list(rep)[-1] == "holds"
    assert rep["holds"] is holds


def test_perturbed_network_respects_epsilon_bound():
    n = 5
    base = dephasing(0.9)
    chans = uniform(base, n)
    chans[2] = dephasing(0.88)
    cfg = NetworkConfig(n_nodes=n, sender=1, receiver=2,
                        per_qubit_channels=chans)
    rep = security_report(cfg, [4], base_channel=base)
    eps = rep["diamond_epsilon_bound"]
    assert eps == pytest.approx(2 * 0.02, abs=1e-5)
    assert rep["guessing_probability"] <= rep["uniform_prior"] + eps + 1e-9
    assert "bounded_guessing_probability" not in rep


def test_diamond_bound_reported_for_pauli_channels():
    n = 5
    base = depolarizing(0.8)
    chans = uniform(base, n)
    chans[3] = depolarizing(0.83)
    cfg = NetworkConfig(n_nodes=n, sender=1, receiver=2,
                        per_qubit_channels=chans)
    rep = security_report(cfg, [4], base_channel=base)
    # one deviating node: the stabilized distance, 1.5x the unstabilized
    # one for depolarizing
    assert rep["diamond_epsilon_bound"] == pytest.approx(0.045, abs=1e-12)
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
    unstabilized = unstabilized_distance(dephasing(0.9), damping)
    assert unstabilized > 0
    # the stabilized bound can only exceed the unstabilized distance
    assert rep["diamond_epsilon_bound"] == diamond_distance(dephasing(0.9), damping)
    assert rep["diamond_epsilon_bound"] >= unstabilized - 1e-12


def test_epsilon_bound_looks_up_channel_distance_per_call(monkeypatch):
    # wrappers installed on the module (tracing, profiling) must see calls
    import anonqnet.security as security

    calls = []
    real = security.diamond_distance
    monkeypatch.setattr(security, "diamond_distance",
                        lambda a, b: calls.append(1) or real(a, b))
    epsilon_security_bound(dephasing(0.9), {1: dephasing(0.8)})
    assert calls == [1]


def test_epsilon_bound_measures_each_distinct_channel_once(monkeypatch):
    import anonqnet.security as security

    seen = []
    real = security.diamond_distance
    monkeypatch.setattr(security, "diamond_distance",
                        lambda a, b: seen.append(b) or real(a, b))
    base, drift = dephasing(0.9), dephasing(0.85)
    per_node = {1: base, 2: drift, 3: dephasing(0.9), 4: drift, 5: base}
    got = epsilon_security_bound(base, per_node)
    assert got == pytest.approx(2 * 2 * 0.05, abs=1e-5)  # both drift nodes
    # the base, and a copy with its Kraus operators, are at distance 0
    assert seen == [drift]
    assert epsilon_security_bound(base, {1: base, 2: dephasing(0.9)}) == 0.0
    assert seen == [drift]


def test_epsilon_bound_closed_forms():
    assert epsilon_security_bound(dephasing(0.9), {}) == 0.0
    got = epsilon_security_bound(
        dephasing(0.9), {1: dephasing(0.9), 2: dephasing(0.85)})
    assert got == pytest.approx(2 * 0.05, abs=1e-5)
    got = epsilon_security_bound(
        depolarizing(0.8), {i: depolarizing(0.75) for i in range(1, 4)})
    assert got == pytest.approx(3 * 1.5 * 0.05, abs=1e-5)



def mixed_into(base, other, t):
    """(1 - t) base + t other, as one Kraus set: at diamond distance at most
    2t from the base."""
    return QuantumChannel([np.sqrt(1 - t) * k for k in base.kraus_ops]
                          + [np.sqrt(t) * k for k in other.kraus_ops])


def test_diamond_sum_bounds_random_networks():
    # per-node Pauli, damping and random complex Kraus deviations from a
    # depolarizing base: the guess's excess over the prior stays within the
    # per-node diamond sum, which never exceeds N x the largest distance
    rng = np.random.default_rng(37)
    paulis = [np.eye(2), PAULI_X, PAULI_Y, PAULI_Z]
    excesses = []
    for trial in range(16):
        n = int(rng.integers(4, 8))
        s, r = (int(x) for x in rng.choice(np.arange(1, n + 1), 2, replace=False))
        rest = [i for i in range(1, n + 1) if i not in (s, r)]
        lost = [int(rng.choice(rest))] if trial % 2 else []
        live = [i for i in range(1, n + 1) if i not in lost]
        base = depolarizing(rng.uniform(0.8, 1.0))
        gamma = rng.uniform(0.05, 0.5)
        others = [QuantumChannel([np.sqrt(w) * p for w, p in
                                  zip(rng.dirichlet(np.ones(4)), paulis)]),
                  QuantumChannel([[[1, 0], [0, np.sqrt(1 - gamma)]],
                                  [[0, np.sqrt(gamma)], [0, 0]]]),
                  random_kraus_channel(rng, int(rng.integers(1, 5)))]
        chans = {i: base if rng.random() < 0.4 else
                 mixed_into(base, others[rng.integers(3)], rng.uniform(0, 0.1))
                 for i in range(1, n + 1)}
        # two adversaries need four live nodes to leave every role a candidate
        adv = [int(a) for a in rng.choice([i for i in live if i != s],
                                          1 + (len(live) > 3), replace=False)]
        cfg = NetworkConfig(n, s, r, per_qubit_channels=chans, lost_nodes=lost)
        dists = [diamond_distance(base, chans[i]) for i in live
                 if chans[i] is not base]
        for role in ("sender", "receiver"):
            rep = security_report(cfg, adv, role, base_channel=base)
            eps = rep["diamond_epsilon_bound"]
            excess = rep["guessing_probability"] - rep["uniform_prior"]
            assert eps == pytest.approx(sum(dists), abs=1e-12), (trial, role)
            assert excess <= eps + 1e-9, (trial, role)
            assert eps <= len(live) * max(dists, default=0.0) + 1e-12
            assert rep["holds"] is True, (trial, role)
            excesses.append(excess)
    assert max(excesses) > 1e-3  # some coalition learns something


# ---------------------------------------------------------------------------
# the array route against the dict route it replaced: reference_views is
# adversary_views with the per-label _view it used to build each dict


def reference_views(config, adv, hypotheses, role):
    roles = [effective_roles(config, h, role) for h in hypotheses]
    fixed = config.receiver if role == "sender" else config.sender
    adv_meas = [i for i in config.live_nodes if i in adv and i != fixed]
    honest = [i for i in config.live_nodes if i not in adv and i != fixed]
    mus = list(itertools.product((0, 1), repeat=len(adv_meas)))
    strings = []
    for mu in mus:
        coalition = dict(zip(adv_meas, mu))
        strings += [coalition, {**coalition, **dict.fromkeys(honest, 0)}]
    pairs = pullback_pairs(config, outcome_transfers(config, strings), fixed,
                           [r if s == fixed else s for s, r in roles])
    views = []
    for j, (s, r) in enumerate(roles):
        x = pairs[:, j]
        if s == fixed:  # (open, fixed) = (receiver, sender): swap
            x = x[:, [0, 2, 1, 3]][..., [0, 2, 1, 3]]
        views.append(reference_view(config, adv, r, mus, x[0::2], x[1::2]))
    return views


def reference_view(config, adv, eff_receiver, mus, totals, zeros):
    receiver_corrupt = eff_receiver in adv
    rn_bits = tuple(int(i == eff_receiver) for i in sorted(adv))
    view = {}

    def add(label, weight, block):
        if weight >= 1e-14:
            view[label] = (weight, weight * block)

    def abort(label, mat, weight):
        if receiver_corrupt:
            carrier = np.trace(mat.reshape(2, 2, 2, 2), axis1=0, axis2=2)
            add(label, weight, carrier / weight)
        else:
            add(label, weight, np.array([[1.0 + 0j]]))

    for mu, total, zero in zip(mus, totals, zeros):
        w_mu = float(np.trace(total).real)
        if w_mu < 1e-14:
            continue
        w_zero = float(np.trace(zero).real)
        w_rest = w_mu - w_zero
        base = (rn_bits, mu)
        if w_rest > 1e-14:
            abort(base + (1, 1, None), total - zero, w_rest)
        if w_zero < 1e-14:
            continue
        if any(mu):
            abort(base + (0, 1, None), zero, w_zero)
        elif receiver_corrupt:
            weights, branches = teleport_branches(
                zero / w_zero, config.message_state, "psi+")
            for m, (w_m, fixed) in enumerate(zip(weights, branches)):
                if w_m >= 1e-14:
                    add(base + (0, 0, ("m", m)), w_zero * w_m, fixed / w_m)
        else:
            for t in range(4):
                add(base + (0, 0, ("T", t)), w_zero / 4, np.array([[1.0 + 0j]]))
    return view


def amplitude_damping(gamma):
    return QuantumChannel([np.diag([1, np.sqrt(1 - gamma)]),
                           np.array([[0, np.sqrt(gamma)], [0, 0]])],
                          name="amplitude", params={"gamma": gamma})


def random_kraus(rng, k):
    z = rng.normal(size=(2 * k, 2)) + 1j * rng.normal(size=(2 * k, 2))
    return QuantumChannel(list(np.linalg.qr(z)[0].reshape(k, 2, 2)))


def random_audit(seed):
    """A seeded network (4-7 nodes, maybe a lost node, per-node overrides
    of every kind, a random message) and a 1-3 node coalition that holds
    the receiver every third seed."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 8))
    sender, receiver = (int(i) for i in rng.choice(np.arange(1, n + 1), 2, replace=False))
    rest = [i for i in range(1, n + 1) if i not in (sender, receiver)]
    lost = {int(rng.choice(rest))} if seed % 2 and n > 4 else set()
    live = [i for i in rest if i not in lost]
    base = (depolarizing, dephasing)[seed % 2](float(rng.uniform(0.8, 0.97)))
    chans = dict.fromkeys(range(1, n + 1), base)
    makers = [lambda: amplitude_damping(float(rng.uniform(0.02, 0.3))),
              lambda: random_kraus(rng, int(rng.integers(1, 4))),
              lambda: depolarizing(float(rng.uniform(0.7, 0.97)))]
    for node in rng.choice(np.arange(1, n + 1), int(rng.integers(1, 3)), replace=False):
        chans[int(node)] = makers[int(rng.integers(3))]()
    amps = rng.normal(size=2) + 1j * rng.normal(size=2)
    cfg = NetworkConfig(n_nodes=n, sender=sender, receiver=receiver,
                        per_qubit_channels=chans, lost_nodes=lost,
                        message_state=amps / np.linalg.norm(amps))
    size = int(rng.integers(1, min(3, len(live)) + 1))
    adv = [int(i) for i in rng.choice(live, size, replace=False)]
    if seed % 3 == 0:
        adv = sorted({receiver, *adv[:2]})
    return cfg, frozenset(adv), base


@pytest.mark.parametrize("seed", range(36))
def test_array_views_match_the_dict_route(seed):
    cfg, adv, base = random_audit(seed)
    for role in ("sender", "receiver"):
        candidates = [c for c in cfg.live_nodes if c not in adv
                      and effective_roles(cfg, c, role)[0] not in adv]
        if not candidates:
            continue
        want = reference_views(cfg, adv, candidates, role)
        labels, weights, blocks = adversary_views(cfg, adv, candidates, role)
        got = as_dicts(labels, weights, blocks)
        for g, w in zip(got, want, strict=True):
            assert set(g) == set(w)
            for label, (weight, block) in w.items():
                assert abs(g[label][0] - weight) <= 1e-15
                assert g[label][1].shape == block.shape
                assert np.abs(g[label][1] - block).max() <= 1e-15
        # the checks on the reference views, laid over the same labels
        d = blocks.shape[-1]
        ref_weights = np.array([[v[k][0] if k in v else 0.0 for k in labels]
                                for v in want])
        ref_blocks = np.array([[v[k][1] if k in v else np.zeros((d, d))
                                for k in labels] for v in want])
        priors = [1 / len(candidates)] * len(candidates)
        deviation = independence_check(ref_weights, ref_blocks)
        p_guess, certificate = guessing_probability(ref_blocks, priors, deviation)
        rep = security_report(cfg, adv, role, base)
        assert rep["candidates"] == candidates
        assert rep["certificate"] == certificate
        assert abs(rep["guessing_probability"] - p_guess) <= 1e-12
        assert abs(rep["independence_deviation"] - deviation) <= 1e-12
        totals = [sum(weight for weight, _ in v.values()) for v in want]
        assert np.abs(np.subtract(rep["view_total_weights"], totals)).max() <= 1e-12


def test_random_audits_reach_every_case():
    # the seeds above cover corrupt receivers, lost nodes, 1-3 node
    # coalitions, n = 4-7 and each kind of override
    audits = [random_audit(seed) for seed in range(36)]
    assert {cfg.n_nodes for cfg, _, _ in audits} == {4, 5, 6, 7}
    assert {len(adv) for _, adv, _ in audits} == {1, 2, 3}
    assert any(cfg.receiver in adv for cfg, adv, _ in audits)
    assert any(cfg.lost_nodes for cfg, _, _ in audits)
    names = {ch.name for cfg, _, _ in audits for ch in cfg.per_qubit_channels.values()}
    assert {"amplitude", "custom", "depolarizing", "dephasing"} <= names


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


def test_audit_roles_share_their_channel_distances(monkeypatch):
    # both roles of one audit measure the same channels: the distance runs
    # once per distinct deviating channel, not once per role
    import anonqnet.security as security

    seen = []
    real = security.diamond_distance
    monkeypatch.setattr(security, "diamond_distance",
                        lambda a, b: seen.append(b) or real(a, b))
    runner = CliRunner()
    res = runner.invoke(main, ["security", "--nodes", "6", "--adversaries", "4",
                               "--channel", "depolarizing:q=0.9", "--channel-node",
                               "3=depolarizing:q=0.86", "--role", "both"])
    assert res.exit_code == 0, res.output
    assert len(seen) == 1


def test_report_stacks_no_dict_views(monkeypatch):
    # a report makes one call to each public step, through the module's
    # names (which tracing wraps), and hands the arrays adversary_views
    # returns to both checks as they are
    import anonqnet.security as security

    calls = []

    def recording(name):
        real = getattr(security, name)
        monkeypatch.setattr(security, name, lambda *args: calls.append(
            (name, args)) or real(*args))

    for name in ("adversary_views", "independence_check", "guessing_probability"):
        recording(name)
    chans = uniform(depolarizing(0.9), 6)
    chans[3] = depolarizing(0.6)
    cfg = NetworkConfig(n_nodes=6, sender=1, receiver=2, per_qubit_channels=chans)
    rep = security_report(cfg, [4])
    assert rep["certificate"] != "state-independence"  # the guess reads blocks
    assert [name for name, _ in calls] == ["adversary_views", "independence_check",
                                           "guessing_probability"]
    _, weights, blocks = adversary_views(cfg, [4], rep["candidates"])
    (_, (w, b)), (_, (b2, _, deviation)) = calls[1:3]
    assert b is b2
    assert np.array_equal(w, weights) and np.array_equal(b, blocks)
    assert deviation == rep["independence_deviation"]
