import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import weakref

import numpy as np
import pytest
from click.testing import CliRunner

import anonqnet
from anonqnet import cli, protocols
from anonqnet.analytic import f_ae_relay_depolarizing, f_ae_w_dephasing
from anonqnet.channels import QuantumChannel, depolarizing
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


@pytest.mark.parametrize("argv, config", [
    (["sweep", "--nodes", "4", "--q-range", "-0.05:0:0.05"], None),
    (["sweep", "--nodes", "5", "--protocol", "GHZ", "--q-range", "1.5:2:0.5"],
     None),
    (["sweep", "--nodes", "4", "--q-range", "0.9:1.1:0.1", "--mode", "exact"],
     None),
    (["sweep"], "nodes = 4\nq_range = -0.05:0:0.05\n"),
    (["sweep", "--nodes", "4", "--q", "nan"], None),
], ids=["below", "above", "exact-past-one", "config", "q-nan"])
def test_sweep_q_range_outside_unit_interval_exits_2(runner, tmp_path, argv,
                                                      config):
    if config is not None:
        cfg = tmp_path / "q.conf"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    res = runner.invoke(main, argv)
    assert res.exit_code == 2
    assert "leaves [0, 1]" in res.output
    if "--q" in argv:
        assert "--q nan" in res.output and "--q-range" not in res.output


@pytest.mark.parametrize("argv", [
    ["sweep", "--n-range", "4.5:8"],
    ["sweep", "--n-range", "4:8:1.5"],
    ["threshold", "--n-range", "4:6:0.5"],
    ["threshold", "--n-range", "4:6.5"],
])
def test_fractional_node_ranges_exit_2(runner, argv):
    res = runner.invoke(main, argv)
    assert res.exit_code == 2
    assert "expected whole numbers" in res.output
    # whole numbers written as floats are still a node range
    assert runner.invoke(main, ["threshold", "--n-range", "4.0:6:2.0"]
                         ).exit_code == 0


@pytest.mark.parametrize("argv", [
    ["threshold", "--n-range", "4:1e12"],
    ["sweep", "--mode", "analytic", "--n-range", "4:1e12"],
    ["sweep", "--q-range", "0:1:1e-300"],
])
def test_huge_grids_exit_2_before_building(argv):
    # a regression would build a 1e12-element list: cap the child's memory
    src = os.path.dirname(os.path.dirname(anonqnet.__file__))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH":
           os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    cap = lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
    start = time.perf_counter()
    res = subprocess.run([sys.executable, "-m", "anonqnet.cli", *argv], env=env,
                         preexec_fn=cap, capture_output=True, text=True,
                         timeout=60)
    assert res.returncode == 2
    assert f"has over {cli.MAX_GRID_POINTS} points" in res.stderr
    assert time.perf_counter() - start < 30


@pytest.mark.parametrize("argv,message", [
    (["sweep", "--q-range", "nan:1"], "bad q range"),
    (["sweep", "--q-range", "0:inf"], "has over 10000 points"),
    (["threshold", "--n-range", "4:10004"], "has over 10000 points"),
    (["sweep", "--nodes", "4", "--q-range", "0:1:0.0001"],
     "has over 10000 points"),
    (["sweep", "--n-range", "4:103", "--q-range", "0:1:0.001"],
     "(N, q) grid has over 10000 points"),
])
def test_unbounded_or_oversized_grids_exit_2(runner, argv, message):
    res = runner.invoke(main, argv)
    assert res.exit_code == 2
    assert message in res.output


def test_grid_at_the_point_cap_runs(runner):
    res = runner.invoke(main, ["threshold", "--n-range", "4:10003"])
    assert res.exit_code == 0
    assert len(res.output.splitlines()) == 5 + cli.MAX_GRID_POINTS


@pytest.mark.parametrize("args", [
    "relay --nodes 100000000",
    "security --nodes 100000000 --adversaries 3",
    "run --nodes 10000000",
    "run --protocol GHZ --nodes 10000000",
    "sweep --protocol GHZ --nodes 100000000 --q 0.9 --mode exact",
    "run --protocol relay --nodes 10000000 --mode sampling --samples 2",
])
def test_oversized_networks_exit_2_before_building(args):
    # each used to die in MemoryError under this limit on the child
    src = os.path.dirname(os.path.dirname(anonqnet.__file__))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH":
           os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    cap = lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
    start = time.perf_counter()
    res = subprocess.run([sys.executable, "-m", "anonqnet.cli", *args.split()],
                         env=env, preexec_fn=cap, capture_output=True, text=True,
                         timeout=60)
    assert res.returncode == 2
    assert str(cli.MAX_NODES) in res.stderr.strip().splitlines()[-1]
    assert time.perf_counter() - start < 5


def test_network_at_the_node_cap_runs(runner):
    for args in (["run", "--protocol", "GHZ"],
                 ["sweep", "--protocol", "GHZ", "--q", "0.9", "--mode", "exact"]):
        res = runner.invoke(main, args + ["--nodes", str(cli.MAX_NODES)])
        assert res.exit_code == 0


def test_sweep_exact_past_twelve_nodes_and_underflow_exits_2(runner):
    res = runner.invoke(main, ["sweep", "--protocol", "all", "--nodes", "13",
                               "--mode", "both"])
    assert res.exit_code == 0
    rows = [l for l in res.output.splitlines()
            if l and not l.startswith(("#", "protocol,"))]
    assert len(rows) == 33  # three protocols at 11 default q values
    assert max(float(row.split(",")[-1]) for row in rows) <= 1e-10
    # a Born weight of 0.75^3000 underflows double precision
    res = runner.invoke(main, ["sweep", "--protocol", "W", "--nodes", "3000",
                               "--q", "0.5", "--mode", "exact",
                               "--workers", "1"])
    assert res.exit_code == 2
    assert "underflows" in res.output


# ---------------------------------------------------------------------------
# threshold


def test_threshold_golden_output(runner):
    res = runner.invoke(main, ["threshold", "--n-range", "180:185"])
    assert res.exit_code == 0
    assert res.output == THRESHOLD_GOLDEN


# sha256 of the stdout of `threshold` over larger grids, taken when every
# size was bisected on its own
THRESHOLD_DIGESTS = [
    (["--n-range", "4:400"],
     "cf884786c1deaa059e74af714ceb1dca6641e24cf686810124b4c5e0804c6557"),
    (["--n-range", "4:400", "--json"],
     "a21fb34987c3a3b6dbdfcca2eb11fa691ff1517534a673d025fd17aefb915c98"),
    (["--channel", "dephasing", "--n-range", "4:50", "--json"],
     "1d3980848a2667381bb710fc1274e152fac0187a9b8fecf59b96c7e9444af167"),
]


@pytest.mark.parametrize("args,digest", THRESHOLD_DIGESTS,
                         ids=["4:400", "4:400-json", "dephasing-4:50-json"])
def test_threshold_output_pinned(runner, args, digest):
    res = runner.invoke(main, ["threshold", *args])
    assert res.exit_code == 0
    assert hashlib.sha256(res.output.encode()).hexdigest() == digest


def test_threshold_dephasing_all_half(runner):
    res = runner.invoke(main, ["threshold", "--channel", "dephasing",
                               "--n-range", "4:6", "--json"])
    assert res.exit_code == 0
    body = json.loads(res.output)
    assert body["crossover_n"] is None
    for row in body["rows"]:
        assert row["qstar_W"] == pytest.approx(0.5, abs=1e-9)
        assert row["qstar_GHZ"] == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("args", [["--n-range", "4:200"], ["--n-range", "300:600:7"],
                                  ["--n-range", "180:185", "--json"],
                                  ["--channel", "dephasing"]],
                         ids=["4:200", "300:600:7", "180:185-json", "dephasing"])
def test_threshold_bisects_each_family_once(runner, monkeypatch, args):
    import anonqnet.analytic as analytic

    families, real = [], analytic.threshold_q
    def counted(formula, n, *rest):
        families.append(formula[0])
        return real(formula, n, *rest)
    monkeypatch.setattr(analytic, "threshold_q", counted)
    monkeypatch.setattr(cli, "threshold_q", counted)
    res = runner.invoke(main, ["threshold", *args])
    assert res.exit_code == 0
    # the table's sizes and the crossover's 4..400 share one bisection
    assert families == ["W", "GHZ"]
    if "dephasing" not in args:
        assert "qstar_GHZ = 183\n" in res.output or '"crossover_n": 183' in res.output


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


def test_relay_repeated_q_is_one_column(runner):
    res = runner.invoke(main, ["relay", "--nodes", "6", "--sender", "1",
                               "--receiver", "4", "--q", "0.95", "--q", "0.8",
                               "--q", "0.95"])
    assert res.exit_code == 0
    # each q once, in first-seen order
    assert res.output == """\
# anonqnet 0.1.0
# command = relay
# channel = depolarizing
# nodes = 6
# mode = analytic
# baseline q=0.95: F_W=0.8828506098 F_GHZ=0.8431709453
# baseline q=0.8: F_W=0.6136363636 F_GHZ=0.541072
sender,receiver,F_q0.95,F_q0.8
1,4,0.8512342187,0.54184
"""
    # two values that print the same 10-digit label are one column too,
    # computed at the first
    argv = ["relay", "--nodes", "5", "--sender", "1", "--receiver", "3",
            "--q", "0.9", "--q", "0.90000000001"]
    res = runner.invoke(main, argv)
    assert res.exit_code == 0
    assert res.output == """\
# anonqnet 0.1.0
# command = relay
# channel = depolarizing
# nodes = 5
# mode = analytic
# baseline q=0.9: F_W=0.7982317073 F_GHZ=0.747745
sender,receiver,F_q0.9
1,3,0.78055
"""
    res = runner.invoke(main, argv + ["--json"])
    assert res.exit_code == 0
    assert json.loads(res.output)["rows"] == [
        {"sender": 1, "receiver": 3,
         "F_q0.9": f_ae_relay_depolarizing(0.9, 5, 1, 3)}]


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


def test_security_reports_sound_diamond_bound(runner):
    res = runner.invoke(main, ["security", "--nodes", "5", "--adversaries",
                               "4", "--channel", "depolarizing:q=0.8",
                               "--channel-node", "3=depolarizing:q=0.83"])
    assert res.exit_code == 0
    rep = json.loads(res.output)["reports"]["sender"]
    assert rep["epsilon_bound"] == pytest.approx(5 * 0.030, abs=1e-12)
    assert rep["diamond_epsilon_bound"] == pytest.approx(5 * 0.045, abs=1e-12)


@pytest.mark.parametrize("verdicts, code", [((True, True), 0),
                                             ((True, False), 1),
                                             ((False, True), 1)])
def test_security_exit_follows_report_verdicts(runner, monkeypatch, verdicts,
                                               code):
    # security_report decides each role's verdict; the CLI only collects
    # the reports, and its exit code and top-level holds follow theirs
    holds = dict(zip(("sender", "receiver"), verdicts))

    def fake_report(net, adv, role, base_channel):
        return {"role": role, "holds": holds[role]}

    monkeypatch.setattr(cli, "security_report", fake_report)
    res = runner.invoke(main, ["security", "--nodes", "5", "--adversaries",
                               "4", "--role", "both"])
    assert res.exit_code == code
    body = json.loads(res.output)
    assert body["holds"] is (code == 0)
    assert {r: rep["holds"] for r, rep in body["reports"].items()} == holds


def test_security_output_independent_of_hash_seed():
    # labels are walked in first-seen order, never as a set, so the
    # floating-point sums and hence the printed digits are fixed
    src = os.path.dirname(os.path.dirname(anonqnet.__file__))
    argv = [sys.executable, "-m", "anonqnet.cli", "security", "--nodes", "7",
            "--adversaries", "3,5", "--channel", "depolarizing:q=0.9",
            "--channel-node", "4=depolarizing:q=0.86", "--role", "both"]
    outs = []
    for seed in ("0", "3"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(
                   [src, os.environ.get("PYTHONPATH", "")])}
        outs.append(subprocess.run(argv, env=env, check=True,
                                   capture_output=True, timeout=120).stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["reports"]["sender"]["certificate"] == \
        "bound-only"


def test_security_echoes_the_deduplicated_coalition(runner):
    argv = ["security", "--nodes", "5", "--channel", "depolarizing:q=0.8",
            "--adversaries"]
    res = runner.invoke(main, argv + ["4,3,4"])
    assert res.exit_code == 0
    body = json.loads(res.output)
    assert body["config"]["adversaries"] == [3, 4]
    assert body["reports"]["sender"]["adversaries"] == [3, 4]
    assert res.output == runner.invoke(main, argv + ["3,4"]).output


def test_security_usage_errors(runner):
    assert runner.invoke(main, ["security", "--nodes", "8", "--adversaries",
                                "3"]).exit_code == 2
    assert runner.invoke(main, ["security", "--nodes", "5"]).exit_code == 2
    assert runner.invoke(main, ["security", "--nodes", "5", "--adversaries",
                                "9"]).exit_code == 2


# ---------------------------------------------------------------------------
# refusals


# (argv, exit code, last line of stderr), recorded before the refusals were
# mapped to exit codes in one place
REFUSALS = [
    ("sweep --protocol W --nodes 3000 --q 0.5 --mode exact", 2,
     "error: Born weight 0 underflows double precision; use the closed-form"
     " evaluators"),
    ("security --nodes 8 --adversaries 3", 2,
     "error: adversary analysis is capped at 7 nodes"),
    ("security --nodes 5 --adversaries 9", 2,
     "error: adversaries must be live nodes"),
    ("run --protocol GHZ --nodes 5 --lost 4", 1,
     "error: a lost node leaves the GHZ protocol with a separable state; it"
     " cannot be carried out"),
    ("run --protocol relay --nodes 5 --lost 3", 2,
     "error: relay does not support lost nodes"),
    ("run --protocol W --nodes 183 --mode sampling", 2,
     "error: recording 1 run(s) may take 741333 transcript events, over the"
     " budget of 262144"),
    ("run --nodes 5 --sender 1 --receiver 1", 2,
     "Error: sender and receiver must differ"),
    ("security --nodes 5 --adversaries 3 --lost 9", 2,
     "Error: lost_nodes must be node ids"),
    # a coalition holding the configured sender, in every role
    ("security --nodes 5 --adversaries 1", 2,
     "error: a corrupt sender knows its own identity already"),
    ("security --nodes 5 --adversaries 1 --role receiver", 2,
     "error: a corrupt sender knows its own identity already"),
    ("security --nodes 5 --adversaries 1 --role both", 2,
     "error: a corrupt sender knows its own identity already"),
    ("sweep --protocol W --nodes 10001 --q 0.9 --mode exact", 2,
     "Error: exact tables are capped at 10000 nodes"),
    # every live node but the sender is in the coalition
    ("security --nodes 3 --adversaries 2,3 --role receiver", 2,
     "error: no admissible hypotheses for this coalition"),
]


@pytest.mark.parametrize("args, code, last", REFUSALS)
def test_refusal_exit_code_and_message(runner, args, code, last):
    res = runner.invoke(main, args.split())
    assert res.exit_code == code
    assert res.stdout == ""
    assert res.stderr.strip().splitlines()[-1] == last


def _failing_oracle(monkeypatch, tmp_path):
    def crash():
        raise ArithmeticError("crashed")

    monkeypatch.setattr(cli, "_ORACLE_CHECKS", {
        "misses": (lambda: 1.0, lambda: 0.0, 0.5), "raises": (crash, lambda: 0.0, 0.5)})
    return ["oracle-check"]


def _config_line_without_equals(monkeypatch, tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("# comment-only lines are skipped\n\n  # indented\nnodes 5\n")
    return ["run", "--config", str(path)]


def _in_tmp(*args):
    """The command, run from inside tmp_path so relative paths land there."""
    def make_args(monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        return list(args)
    return make_args


@pytest.mark.parametrize("make_args, code, last_lines", [
    pytest.param(_failing_oracle, 1, ["FAIL misses (delta 1 > 0.5)",
                                      "FAIL raises: crashed", "2 check(s) failed"],
                 id="oracle-check-failures"),
    pytest.param(_config_line_without_equals, 2, ["bad.cfg:4: expected key = value"],
                 id="config-line-without-equals"),
    pytest.param(lambda *_: ["sweep", "--q-range", "0.5"], 2,
                 ["Error: bad q range '0.5'; expected a:b[:step]"], id="range-without-colon"),
    pytest.param(lambda *_: ["sweep", "--q-range", "a:b"], 2,
                 ["Error: bad q range 'a:b'"], id="range-not-numbers"),
    pytest.param(lambda *_: ["security", "--adversaries", "3,x"], 2,
                 ["Error: bad node list '3,x'"], id="node-list-not-numbers"),
    pytest.param(lambda *_: ["threshold", "--n-range", "3:5"], 2,
                 ["Error: thresholds start at 4 nodes"], id="threshold-below-4-nodes"),
    pytest.param(lambda *_: ["relay", "--nodes", "3"], 2,
                 [f"3 is not in the range 4<=x<={cli.MAX_NODES}."], id="relay-below-4-nodes"),
    pytest.param(lambda *_: ["run", "--channel-node", "3"], 2,
                 ["Error: override '3' must look like <node>=<spec>"], id="override-without-equals"),
    pytest.param(lambda *_: ["run", "--channel-node", "x=identity"], 2,
                 ["Error: bad node id in override 'x=identity'"], id="override-node-not-a-number"),
    pytest.param(lambda *_: ["run", "--channel", "dephasing:q"], 2,
                 ["Error: malformed channel parameter 'q' in 'dephasing:q'"],
                 id="channel-parameter-without-value"),
    # an output path that cannot be written is rejected input, not a crash
    pytest.param(_in_tmp("run", "--out", "missing/x.json"), 2,
                 ["error: [Errno 2] No such file or directory: 'missing/x.json'"],
                 id="run-out-in-missing-dir"),
    pytest.param(_in_tmp("run", "--transcript", "missing/t.jsonl"), 2,
                 ["error: [Errno 2] No such file or directory: 'missing/t.jsonl'"],
                 id="run-transcript-in-missing-dir"),
    pytest.param(_in_tmp("sweep", "--nodes", "5", "--q", "0.9", "--out",
                         "missing/x.csv"), 2,
                 ["error: [Errno 2] No such file or directory: 'missing/x.csv'"],
                 id="sweep-out-in-missing-dir"),
    pytest.param(_in_tmp("security", "--adversaries", "3", "--out", "."), 2,
                 ["error: [Errno 21] Is a directory: '.'"], id="security-out-is-a-directory"),
])
def test_failures_and_malformed_inputs_exit_with_their_codes(
        runner, monkeypatch, tmp_path, make_args, code, last_lines):
    res = runner.invoke(main, make_args(monkeypatch, tmp_path))
    assert res.exit_code == code
    assert "Traceback" not in res.output
    if code == 2:  # rejected input prints nothing to stdout
        assert res.stdout == ""
    tail = res.output.splitlines()[-len(last_lines):]
    assert len(tail) == len(last_lines)
    assert all(line.endswith(want) for line, want in zip(tail, last_lines))


@pytest.mark.parametrize("command", [["run"], ["security", "--adversaries", "3"]])
def test_malformed_channel_parameter_exits_2(runner, command):
    res = runner.invoke(main, command + ["--channel", "dephasing:p=0.9"])
    assert res.exit_code == 2
    assert "Traceback" not in res.stderr
    assert "'dephasing:p=0.9'" in res.stderr.strip().splitlines()[-1]


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


def test_run_recording_over_the_transcript_budget_exits_2(runner):
    # one recorded W run at 183 nodes would hold 22 parity runs of 183 x 184
    # events; batches record nothing, so they run at any size
    res = runner.invoke(main, ["run", "--protocol", "W", "--nodes", "183",
                               "--mode", "sampling"])
    assert res.exit_code == 2
    assert "over the budget of 262144" in res.output
    for protocol, nodes, samples in (("GHZ", 13, 1), ("W", 183, 200)):
        res = runner.invoke(main, ["run", "--protocol", protocol, "--nodes",
                                   str(nodes), "--channel", "depolarizing:q=0.9",
                                   "--mode", "sampling", "--samples", str(samples)])
        assert res.exit_code == 0


def test_in_process_run_releases_redirected_stdout():
    # click caches the streams it resolves itself in a WeakKeyDictionary
    # whose values are the streams, so an output it cached never dies
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        with pytest.raises(SystemExit) as exc:
            main.main(args=["run", "--protocol", "W", "--nodes", "4"],
                      prog_name="anonqnet")
    assert exc.value.code == 0
    assert json.loads(buf.getvalue())["protocol"] == "W"
    ref = weakref.ref(buf)
    del buf
    gc.collect()
    assert ref() is None


def test_run_samples_require_sampling_mode(runner):
    res = runner.invoke(main, ["run", "--samples", "5"])
    assert res.exit_code == 2


def test_run_samples_over_the_cap_exit_2_before_sampling(runner, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a run started")

    for name in ("sample_protocol1_runs", "sample_ghz_runs",
                 "sample_relay_runs", "run_protocol1", "run_ghz_protocol",
                 "run_relay_protocol"):
        monkeypatch.setattr(cli, name, refuse)
    over = str(cli.MAX_SAMPLES + 1)
    for protocol in ("W", "GHZ", "relay"):
        res = runner.invoke(main, ["run", "--protocol", protocol, "--mode",
                                   "sampling", "--samples", over])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert over in res.stderr.strip().splitlines()[-1]


def test_run_relay_message_delivery(runner):
    res = runner.invoke(main, ["run", "--protocol", "relay", "--nodes", "4",
                               "--sender", "2", "--receiver", "4",
                               "--message", "one"])
    assert res.exit_code == 0
    out = json.loads(res.output)["outcome"]
    assert out["delivered_fidelity"] == pytest.approx(1.0, abs=1e-12)
    assert out["max_live_qubits"] <= 6


@pytest.mark.parametrize("protocol", ["W", "GHZ", "relay"])
def test_run_samples_json_matches_plain_encoder(runner, protocol):
    # each distinct run row is indented once and spliced into the body
    res = runner.invoke(main, ["run", "--protocol", protocol, "--nodes", "5",
                               "--channel", "depolarizing:q=0.9", "--mode",
                               "sampling", "--samples", "40", "--seed", "3"])
    assert res.exit_code == 0
    body = json.loads(res.output)
    assert len(body["runs"]) == 40
    assert res.output == json.dumps(body, indent=2) + "\n"



def _damp_then_x_rotate(gamma, theta):
    """Amplitude damping, then exp(-i theta X / 2): not Z-covariant."""
    k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
    u = np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * np.array([[0, 1], [1, 0]])
    return QuantumChannel([u @ k0, u @ k1], name="damp-rotate")


@pytest.mark.parametrize("protocol", ["GHZ", "relay"])
def test_dumps_runs_matches_encoding_every_row(protocol):
    # on a network that is not Z-covariant, runs share few outcomes
    n = 6
    channels = dict.fromkeys(range(1, n + 1), depolarizing(0.9))
    channels.update(dict.fromkeys([1, 3, 4, 6], _damp_then_x_rotate(0.2, 0.7)))
    cfg = protocols.NetworkConfig(n_nodes=n, sender=2, receiver=5, seed=3,
                                  per_qubit_channels=channels)
    sample = {"GHZ": protocols.sample_ghz_runs, "relay": protocols.sample_relay_runs}
    batch, aggregate = sample[protocol](cfg, 300)
    assert len(batch.distinct) > 100
    body = {"tool": "anonqnet", "protocol": protocol, "aggregate": aggregate}
    assert cli._dumps_runs(body, batch) == json.dumps(
        {**body, "runs": [o.to_json_dict(include_transcript=False) for o in batch]},
        indent=2) + "\n"

# sha256 of the full stdout of `run --mode sampling --samples N --channel
# depolarizing:q=0.9` before the samplers memoised their outcomes
PINNED_BATCH_OUTPUTS = [
    ("W", 8, 2000, 1,
     "889b9d98c0726ef1ce63d362019f165fa7c9286c92a7565fc5bab7ee336529cd"),
    ("W", 8, 2000, 2,
     "4b04524ee107747957e999648298f65cc8b4b49f7a70129182dc28c98e726af5"),
    ("GHZ", 6, 200, 1,
     "9a8a1359ba37c0309f49ebb20197aef440cff4868e42060051532836f340adcc"),
    ("GHZ", 6, 200, 2,
     "42f9469c3eecf6fb65a58dfe6270a645719a0bee501a8a423e6fce8960283a49"),
    ("relay", 6, 50, 1,
     "a99ab8c29c34c4c37a87c1e5317a93446b902af5908234aa5986692e4b3b0368"),
    ("relay", 6, 50, 2,
     "e675d4e9f4a6eabd1c679945adec36aea419944a7b5e201f6cad6cafa94507c5"),
    # the benchmark's sampling commands (its GHZ one is pinned above),
    # recorded before unrecorded batches decoded their draws as arrays
    ("W", 8, 20000, 1,
     "8c11cd8e388ed94cb0e5c7c7e011798f2466dfefca4388893ee15b1fbbe7c62b"),
    ("W", 8, 20000, 2,
     "a92c15f645b1cb8a58e62076d6def9aea70414c53466adc0a3824802b8dc7b7d"),
    ("relay", 8, 100, 1,
     "c612eea6b46348f6ce69a77a43b84c1a5c38bea8533a5e640fdc93b2ceedb638"),
    ("relay", 8, 100, 2,
     "5afe3b5c5301af882a72aef868e5ff9b50f3bb61da79348a64e754b8d847b887"),
]


@pytest.mark.parametrize("protocol, nodes, samples, seed, digest",
                         PINNED_BATCH_OUTPUTS)
def test_run_samples_output_pinned(runner, protocol, nodes, samples, seed,
                                   digest):
    res = runner.invoke(main, ["run", "--protocol", protocol, "--nodes",
                               str(nodes), "--channel", "depolarizing:q=0.9",
                               "--mode", "sampling", "--samples", str(samples),
                               "--seed", str(seed)])
    assert res.exit_code == 0
    assert hashlib.sha256(res.output.encode()).hexdigest() == digest


def test_run_transcript_refused_on_batches(runner, tmp_path):
    tpath = tmp_path / "t.jsonl"
    res = runner.invoke(main, ["run", "--mode", "sampling", "--samples", "3",
                               "--transcript", str(tpath)])
    assert res.exit_code == 2
    assert "--transcript" in res.output
    assert not tpath.exists()
    assert runner.invoke(main, ["run", "--mode", "sampling", "--transcript",
                                str(tpath)]).exit_code == 0
    assert tpath.read_text().strip()


def test_workers_option_is_hidden_and_changes_nothing(runner):
    for argv in (["sweep", "--protocol", "all", "--nodes", "5", "--q-range",
                  "0.8:0.9:0.1", "--mode", "both"],
                 ["relay", "--nodes", "6", "--sender", "3", "--mode", "both",
                  "--json"]):
        one, four = (runner.invoke(main, argv + ["--workers", w])
                     for w in ("1", "4"))
        assert one.exit_code == four.exit_code == 0
        assert one.output == four.output
        assert "--workers" not in runner.invoke(main, [argv[0], "--help"]
                                                ).output


@pytest.mark.parametrize("argv, config", [
    (["sweep", "--q", "1.5", "--nodes", "5"], None),
    (["relay", "--q", "1.5"], None),
    (["relay", "--q", "1.5", "--mode", "exact"], None),
    (["sweep"], "nodes = 5\nq = 1.5\n"),
    (["relay"], "q = 0.8,1.5\n"),
], ids=["sweep", "relay", "relay-exact", "sweep-config", "relay-config"])
def test_q_outside_unit_interval_exits_2(runner, tmp_path, argv, config):
    if config is not None:
        cfg = tmp_path / "q.conf"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    res = runner.invoke(main, argv)
    assert res.exit_code == 2
    assert "0<=x<=1" in res.output


# ---------------------------------------------------------------------------
# exact tables and exact runs


# sha256 of the stdout of exact-mode commands, taken when every exact table
# point ran the whole protocol (transcript and teleport included)
EXACT_DIGESTS = {
    "sweep --protocol all --channel depolarizing --n-range 4:9 --mode both --q 0.834":
        "cf1d9fd19cddea362aa408d638ede9cbb822aa6364d7627d329863f17eb29020",
    "sweep --protocol all --channel dephasing --n-range 4:9 --mode both --q 0.834 --json":
        "14cea5fba7ae95393d99b34279a7f7afa3aeb759f8969d274f845c22fff57c53",
    "sweep --protocol all --mode exact --n-range 4:40:3 --q-range 0.8:1:0.05 --json":
        "a04c4279f0f310ce6ba32569b1ee1da30bdeb7c592b33d2c632ca7a24fac6719",
    "relay --nodes 8 --mode both --q 0.834 --q 0.945 --json":
        "417cd616e85d4eae12b43ed58d4eeee16431a08acadfa1b2a4b715222e680573",
    "relay --nodes 12 --mode exact --sender 3":
        "494e56780f8832695934027b830450e23329427b94513a2c3988c0e288d27ea5",
    "run --protocol W --nodes 6 --channel depolarizing:q=0.9":
        "25563dab7554789a92790564a657bef607924e1f60110b75f15ac3a14027c09d",
    "run --protocol W --nodes 6 --channel depolarizing:q=0.9 --lost 5":
        "8c567ee6f3203215ee3e179ba46bf5acf453730d03c31d0fc893e2bf97383f94",
    "run --protocol GHZ --nodes 6 --channel depolarizing:q=0.9":
        "e6364cff1c422e4fd71d232c2cfec8c4964d210ccc8896a405da886e0c2dc132",
    "run --protocol relay --nodes 6 --channel depolarizing:q=0.9":
        "8d63f94420f6a259aaef5afd31e3ea08871f90014f61be33298d3c08272bb14b",
}
# the exact tables among them, whose points build no transcript
EXACT_TABLES = [args for args in EXACT_DIGESTS if args.split()[0] != "run"]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("args", EXACT_DIGESTS)
def test_exact_outputs_pinned(runner, args):
    res = runner.invoke(main, args.split())
    assert res.exit_code == 0
    assert _digest(res.output) == EXACT_DIGESTS[args]


def test_exact_run_transcript_file_pinned(runner, tmp_path):
    tpath = tmp_path / "transcript.jsonl"
    res = runner.invoke(main, ["run", "--protocol", "W", "--nodes", "6", "--channel",
                               "depolarizing:q=0.9", "--transcript", str(tpath)])
    assert res.exit_code == 0
    assert _digest(res.output) == EXACT_DIGESTS[
        "run --protocol W --nodes 6 --channel depolarizing:q=0.9"]
    assert _digest(tpath.read_text()) == (
        "df992e3e378e424ae8564081a03e76179aaa858d52e2fd089573c02fc6e31b19")


@pytest.mark.parametrize("args", EXACT_TABLES)
def test_exact_tables_build_no_transcript(runner, monkeypatch, args):
    def add(*_):
        raise AssertionError("an exact table point recorded a transcript")
    monkeypatch.setattr(protocols.Transcript, "add", add)
    res = runner.invoke(main, args.split())
    assert res.exit_code == 0, res.output
    assert _digest(res.output) == EXACT_DIGESTS[args]


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


def test_config_file_repeatable_option_takes_list(runner, tmp_path):
    cfg = tmp_path / "relay.conf"
    cfg.write_text("nodes = 5\nreceiver = 4\nq = 0.8,0.9\n")
    res = runner.invoke(main, ["relay", "--config", str(cfg), "--json"])
    assert res.exit_code == 0
    (row,) = json.loads(res.output)["rows"]
    assert row["F_q0.9"] == pytest.approx(
        f_ae_relay_depolarizing(0.9, 5, 1, 4), abs=1e-12)
    assert "F_q0.8" in row


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
    ("run", "message = two\n"),
], ids=["bad-int", "bad-float-list", "missing-file", "bad-bool", "bad-choice"])
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
    assert len([l for l in lines if l.startswith("ok   ")]) == 12
    assert "ok   w-threshold-183-exact-half" in res.output
    assert "ok   ghz-threshold-183-exact-half" in res.output
    assert not [l for l in lines if l.startswith("FAIL")]
    # every check by name, in order
    assert [l.split()[1] for l in lines[:-1]] == [
        "w-depolarizing-closed-vs-dense",
        "w-dephasing-closed-vs-dense",
        "ghz-depolarizing-closed-vs-structured",
        "ghz-dephasing-closed-vs-dense",
        "w-success-probability-depolarizing",
        "w-success-probability-dephasing-2-over-n",
        "relay-closed-vs-dense",
        "teleport-noiseless-delivery",
        "loss-noiseless-conditional-two-thirds",
        "w-loss-closed-vs-dense-average",
        "w-threshold-183-exact-half",
        "ghz-threshold-183-exact-half",
    ]


def test_oracle_check_reads_pairs_and_runs_one_protocol(runner, monkeypatch):
    # only teleport-noiseless-delivery needs a whole run, for its delivery
    calls, real = [], cli.run_protocol1
    monkeypatch.setattr(cli, "run_protocol1",
                        lambda *args, **kw: calls.append(1) or real(*args, **kw))

    def refuse(*args, **kwargs):
        raise AssertionError("a whole run started")

    for name in ("run_ghz_protocol", "run_relay_protocol"):
        monkeypatch.setattr(cli, name, refuse)
    res = runner.invoke(main, ["oracle-check"])
    assert res.exit_code == 0  # a refused run would be a failed check
    assert len(calls) == 1


def test_version_flag(runner):
    res = runner.invoke(main, ["--version"])
    assert res.exit_code == 0
    assert "anonqnet" in res.output


# ---------------------------------------------------------------------------
# import cost


def test_cli_import_loads_no_scipy():
    # scipy's import time dominated start-up; the runtime needs only numpy
    src = os.path.dirname(os.path.dirname(anonqnet.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, anonqnet.cli; print(sorted(m for m in sys.modules"
            " if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_exact_commands_load_no_numpy_random():
    # only sampling draws random numbers; numpy.random costs start-up time
    # and memory, so exact commands leave it unimported
    src = os.path.dirname(os.path.dirname(anonqnet.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    code = """\
import contextlib, io, sys
import numpy
if "numpy.random" in sys.modules:
    print("skip")
    sys.exit()
from anonqnet.cli import main
channel = "depolarizing:q=0.9"
for argv in (
        ["sweep", "--protocol", "all", "--n-range", "4:5", "--q", "0.9",
         "--mode", "both"],
        ["threshold", "--n-range", "4:6"],
        ["relay", "--nodes", "5", "--mode", "both"],
        ["security", "--nodes", "5", "--adversaries", "3", "--channel",
         channel, "--role", "both"],
        ["oracle-check"],
        ["run", "--protocol", "W", "--channel", channel],
        ["run", "--protocol", "GHZ", "--channel", channel],
        ["run", "--protocol", "relay", "--channel", channel]):
    with contextlib.redirect_stdout(io.StringIO()):
        main.main(args=argv, standalone_mode=False)
print("numpy.random" in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    if out.stdout.strip() == "skip":
        pytest.skip("importing numpy already loads numpy.random")
    assert out.stdout.strip() == "False"
