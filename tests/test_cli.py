import json

import pytest
from click.testing import CliRunner

from anonqnet.analytic import f_ae_relay_depolarizing, f_ae_w_dephasing
from anonqnet.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


SWEEP_GOLDEN = """\
# anonqnet 0.1.0
# command = sweep
# channel = depolarizing
# protocol = W
# mode = analytic
# seed = 0
protocol,channel,N,q,F_AE,P_success,useful,mode
W,depolarizing,5,0.8,0.6385714286,0.3402,true,analytic
W,depolarizing,5,0.9,0.7982317073,0.370025,true,analytic
W,depolarizing,5,1,1,0.4,true,analytic
"""

THRESHOLD_GOLDEN = """\
# anonqnet 0.1.0
# command = threshold
# channel = depolarizing
# crossover: smallest N with qstar_W > qstar_GHZ = 183
N,qstar_W,qstar_GHZ,W_better
180,0.9787232996,0.9787679863,true
181,0.9788358764,0.9788606432,true
182,0.9789472681,0.9789524119,true
183,0.9790574934,0.9790433054,false
184,0.9791665705,0.9791333367,false
185,0.9792745172,0.9792225185,false
"""

RELAY_GOLDEN = """\
# anonqnet 0.1.0
# command = relay
# channel = depolarizing
# nodes = 6
# mode = analytic
# baseline q=0.8: F_W=0.6136363636 F_GHZ=0.541072
# baseline q=0.95: F_W=0.8828506098 F_GHZ=0.8431709453
sender,receiver,F_q0.8,F_q0.95
1,4,0.54184,0.8512342187
"""


# ---------------------------------------------------------------------------
# sweep


def test_sweep_golden_output(runner):
    res = runner.invoke(main, ["sweep", "--protocol", "W", "--channel",
                               "depolarizing", "--nodes", "5",
                               "--q-range", "0.8:1:0.1"])
    assert res.exit_code == 0
    assert res.output == SWEEP_GOLDEN


def test_sweep_json_structure(runner):
    res = runner.invoke(main, ["sweep", "--protocol", "GHZ", "--nodes", "5",
                               "--q", "0.9", "--json"])
    assert res.exit_code == 0
    body = json.loads(res.output)
    assert body["tool"] == "anonqnet"
    assert body["metadata"]["protocol"] == "GHZ"
    (row,) = body["rows"]
    assert row["P_success"] == 1.0
    assert 0 < row["F_AE"] < 1


def test_sweep_both_mode_reports_small_delta(runner):
    res = runner.invoke(main, ["sweep", "--protocol", "all", "--channel",
                               "dephasing", "--nodes", "5", "--q", "0.9",
                               "--mode", "both"])
    assert res.exit_code == 0
    header = next(l for l in res.output.splitlines()
                  if l.startswith("protocol,"))
    assert header.endswith("F_AE_exact,delta")
    rows = [l for l in res.output.splitlines()
            if l and not l.startswith(("#", "protocol,"))]
    assert len(rows) == 3  # W, GHZ, W_loss
    for row in rows:
        assert float(row.split(",")[-1]) < 1e-10


def test_sweep_writes_out_file(runner, tmp_path):
    target = tmp_path / "grid.csv"
    res = runner.invoke(main, ["sweep", "--nodes", "4", "--q", "1",
                               "--out", str(target)])
    assert res.exit_code == 0
    assert res.output == ""
    assert target.read_text().startswith("# anonqnet")


def test_sweep_rejects_bad_range_and_small_network(runner):
    assert runner.invoke(main, ["sweep", "--q-range", "1:0"]).exit_code == 2
    assert runner.invoke(
        main, ["sweep", "--protocol", "W", "--nodes", "3"]).exit_code == 2


def test_sweep_dense_cap_exits_2(runner):
    res = runner.invoke(main, ["sweep", "--nodes", "13", "--q", "1",
                               "--mode", "exact", "--workers", "1"])
    assert res.exit_code == 2


# ---------------------------------------------------------------------------
# threshold


def test_threshold_golden_output(runner):
    res = runner.invoke(main, ["threshold", "--n-range", "180:185"])
    assert res.exit_code == 0
    assert res.output == THRESHOLD_GOLDEN


def test_threshold_dephasing_all_half(runner):
    res = runner.invoke(main, ["threshold", "--channel", "dephasing",
                               "--n-range", "4:6", "--json"])
    assert res.exit_code == 0
    body = json.loads(res.output)
    assert body["crossover_n"] is None
    for row in body["rows"]:
        assert row["qstar_W"] == pytest.approx(0.5, abs=1e-9)
        assert row["qstar_GHZ"] == pytest.approx(0.5, abs=1e-9)


# ---------------------------------------------------------------------------
# relay


def test_relay_golden_output(runner):
    res = runner.invoke(main, ["relay", "--nodes", "6", "--sender", "1",
                               "--receiver", "4"])
    assert res.exit_code == 0
    assert res.output == RELAY_GOLDEN


def test_relay_sweeps_all_receivers(runner):
    res = runner.invoke(main, ["relay", "--nodes", "6", "--sender", "2",
                               "--q", "0.9", "--json"])
    assert res.exit_code == 0
    body = json.loads(res.output)
    assert len(body["rows"]) == 5
    for row in body["rows"]:
        want = f_ae_relay_depolarizing(0.9, 6, row["sender"], row["receiver"])
        assert row["F_q0.9"] == pytest.approx(want, abs=1e-12)


def test_relay_both_mode_matches(runner):
    res = runner.invoke(main, ["relay", "--nodes", "5", "--sender", "1",
                               "--receiver", "3", "--q", "0.8",
                               "--mode", "both", "--json"])
    assert res.exit_code == 0
    (row,) = json.loads(res.output)["rows"]
    assert row["F_q0.8_exact"] == pytest.approx(row["F_q0.8"], abs=1e-10)


def test_relay_rejects_bad_placement(runner):
    assert runner.invoke(main, ["relay", "--nodes", "6", "--sender", "7"]
                         ).exit_code == 2
    assert runner.invoke(main, ["relay", "--nodes", "6", "--sender", "2",
                                "--receiver", "2"]).exit_code == 2


# ---------------------------------------------------------------------------
# security


def test_security_uniform_noise_holds(runner):
    res = runner.invoke(main, ["security", "--nodes", "5", "--adversaries",
                               "3,4", "--channel", "depolarizing:q=0.8",
                               "--role", "both"])
    assert res.exit_code == 0
    body = json.loads(res.output)
    assert body["holds"] is True
    for role in ("sender", "receiver"):
        rep = body["reports"][role]
        assert rep["certificate"] == "state-independence"
        assert rep["guessing_probability"] == pytest.approx(1 / 3, abs=1e-12)
        assert rep["holds"] is True


def test_security_with_override_stays_within_bound(runner):
    res = runner.invoke(main, ["security", "--nodes", "5", "--adversaries",
                               "4", "--channel", "dephasing:q=0.9",
                               "--channel-node", "2=dephasing:q=0.88"])
    assert res.exit_code == 0
    rep = json.loads(res.output)["reports"]["sender"]
    assert rep["epsilon_bound"] > 0
    assert rep["guessing_probability"] <= (rep["uniform_prior"]
                                           + rep["epsilon_bound"] + 1e-9)


def test_security_usage_errors(runner):
    assert runner.invoke(main, ["security", "--nodes", "8", "--adversaries",
                                "3"]).exit_code == 2
    assert runner.invoke(main, ["security", "--nodes", "5"]).exit_code == 2
    assert runner.invoke(main, ["security", "--nodes", "5", "--adversaries",
                                "9"]).exit_code == 2


# ---------------------------------------------------------------------------
# run


def test_run_exact_w_dephasing(runner, tmp_path):
    tpath = tmp_path / "transcript.jsonl"
    res = runner.invoke(main, ["run", "--protocol", "W", "--nodes", "4",
                               "--sender", "1", "--receiver", "3",
                               "--channel", "dephasing:q=0.9",
                               "--transcript", str(tpath)])
    assert res.exit_code == 0
    body = json.loads(res.output)
    out = body["outcome"]
    assert out["delivered_fidelity"] == pytest.approx(
        f_ae_w_dephasing(0.9), abs=1e-12)
    assert out["analytic_success_probability"] == pytest.approx(0.5, abs=1e-12)
    assert not out["aborted"]
    lines = tpath.read_text().strip().splitlines()
    assert len(lines) == len(out["transcript"])
    for line in lines:
        json.loads(line)


def test_run_ghz_with_lost_node_exits_1(runner):
    res = runner.invoke(main, ["run", "--protocol", "GHZ", "--nodes", "5",
                               "--lost", "4"])
    assert res.exit_code == 1


def test_run_sampling_aggregate(runner):
    res = runner.invoke(main, ["run", "--protocol", "W", "--nodes", "5",
                               "--mode", "sampling", "--samples", "200",
                               "--seed", "7"])
    assert res.exit_code == 0
    body = json.loads(res.output)
    agg = body["aggregate"]
    assert agg["runs"] == 200
    assert agg["exact_success_probability"] == pytest.approx(0.4, abs=1e-12)
    assert len(body["runs"]) == 200
    assert "transcript" not in body["runs"][0]


def test_run_samples_require_sampling_mode(runner):
    res = runner.invoke(main, ["run", "--samples", "5"])
    assert res.exit_code == 2


def test_run_relay_message_delivery(runner):
    res = runner.invoke(main, ["run", "--protocol", "relay", "--nodes", "4",
                               "--sender", "2", "--receiver", "4",
                               "--message", "one"])
    assert res.exit_code == 0
    out = json.loads(res.output)["outcome"]
    assert out["delivered_fidelity"] == pytest.approx(1.0, abs=1e-12)
    assert out["max_live_qubits"] <= 6


# ---------------------------------------------------------------------------
# config files


def test_config_file_defaults_and_flag_priority(runner, tmp_path):
    cfg = tmp_path / "sweep.conf"
    cfg.write_text(
        "protocol = GHZ   # comment survives stripping\n"
        "nodes = 5\n"
        "q = 0.9\n")
    res = runner.invoke(main, ["sweep", "--config", str(cfg), "--json"])
    assert res.exit_code == 0
    (row,) = json.loads(res.output)["rows"]
    assert (row["protocol"], row["N"], row["q"]) == ("GHZ", 5, 0.9)
    # explicit flag beats the file
    res = runner.invoke(main, ["sweep", "--config", str(cfg),
                               "--protocol", "W", "--json"])
    (row,) = json.loads(res.output)["rows"]
    assert row["protocol"] == "W"


@pytest.mark.parametrize("word, as_json", [("YES", True), ("on", True),
                                           ("Off", False), ("0", False)])
def test_config_file_bool_words(runner, tmp_path, word, as_json):
    cfg = tmp_path / "sweep.conf"
    cfg.write_text(f"nodes = 5\nq = 0.9\njson = {word}\n")
    res = runner.invoke(main, ["sweep", "--config", str(cfg)])
    assert res.exit_code == 0
    assert res.output.lstrip().startswith("{") is as_json


def test_config_file_unknown_key_exits_2(runner, tmp_path):
    cfg = tmp_path / "bad.conf"
    cfg.write_text("protcol = W\n")
    res = runner.invoke(main, ["sweep", "--config", str(cfg)])
    assert res.exit_code == 2


@pytest.mark.parametrize("command, text", [
    ("sweep", "nodes = five\n"),
    ("relay", "q = 0.8,abc\n"),
    ("run", None),  # the file does not exist
    ("sweep", "nodes = 5\nq = 0.9\njson = yse\n"),
], ids=["bad-int", "bad-float-list", "missing-file", "bad-bool"])
def test_config_file_bad_value_or_missing_exits_2(runner, tmp_path, command,
                                                 text):
    cfg = tmp_path / "bad.conf"
    if text is not None:
        cfg.write_text(text)
    res = runner.invoke(main, [command, "--config", str(cfg)])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)


# ---------------------------------------------------------------------------
# oracle-check


def test_oracle_check_passes(runner):
    res = runner.invoke(main, ["oracle-check"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[-1] == "all oracle checks passed"
    assert len([l for l in lines if l.startswith("ok   ")]) == 10
    assert not [l for l in lines if l.startswith("FAIL")]


def test_version_flag(runner):
    res = runner.invoke(main, ["--version"])
    assert res.exit_code == 0
    assert "anonqnet" in res.output
