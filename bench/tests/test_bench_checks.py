"""Output checks: a corrupted row is counted as a failed operation."""

import json

import workloads
from workloads import check_relay, check_sweep, invoke

SWEEP = ["sweep", "--protocol", "W", "--n-range", "4:5", "--q", "0.9",
         "--mode", "both", "--workers", "1"]


def test_sweep_check_passes_real_output_and_fails_a_corrupted_row():
    code, out = invoke(SWEEP)
    good = check_sweep(2)(code, out)
    assert (good.failed, good.items) == (0, 2)
    lines = out.splitlines()
    lines[-1] = lines[-1].rsplit(",", 1)[0] + ",0.001"
    bad = check_sweep(2)(code, "\n".join(lines) + "\n")
    assert bad.attempted == good.attempted
    assert (bad.failed, bad.items) == (1, 1)


def test_relay_check_fails_a_corrupted_exact_value():
    argv = ["relay", "--nodes", "4", "--q", "0.9", "--mode", "both",
            "--workers", "1", "--json"]
    code, out = invoke(argv)
    assert check_relay(4, [0.9])(code, out).failed == 0
    body = json.loads(out)
    body["rows"][1]["F_q0.9_exact"] += 1e-6
    assert check_relay(4, [0.9])(code, json.dumps(body)).failed == 1


def test_failed_command_fails_its_check():
    code, out = invoke(["security", "--nodes", "9", "--adversaries", "3"])
    assert code == 2
    assert workloads.check_security(uniform=True)(code, out).failed >= 1


def test_workload_inputs_depend_only_on_the_seed():
    for build in (workloads.exact_grid, workloads.security_audit):
        assert [c.argv for c in build(5)] == [c.argv for c in build(5)]
        assert [c.argv for c in build(5)] != [c.argv for c in build(6)]
