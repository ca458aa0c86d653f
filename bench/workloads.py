"""The benchmark's workloads: anonqnet CLI commands drawn from a seed, and
the checks applied to each command's output.

* exact-grid: dense exact sweeps and relay tables (qcore's 4^n engine and
  channels.apply_to), plus the threshold table and the oracle self-test.
  No channel distance, sampler or parity/veto runs here.
* security-audit: four passive-coalition audits at 6-7 nodes, dominated by
  channels.channel_distance and adversary_view; no register above 7 qubits.
* sampling: sampled W, GHZ and relay runs, i.e. many small dense operations,
  the sampler's draw loop, parity with transcripts and large JSON output.
  (The CLI's batch W sampler keeps no transcripts, so veto_protocol idles.)

The seed draws the noise values, coalitions and override nodes of the first
two workloads and is the sampling workload's --seed.  Sweep and relay run on
WORKERS pool threads, the core count of the reference machine.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import traceback
from dataclasses import dataclass
from typing import Callable

WORKERS = 2
EXACT_TOL = 1e-10
THRESHOLD_CROSSOVER = 183
SAMPLING_CHANNEL = ("depolarizing", 0.9)


@dataclass
class Checked:
    """Result of checking one command's output."""
    attempted: int = 0
    failed: int = 0
    items: int = 0  # work items: exact points, adversary views, sampled runs

    def expect(self, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
        return ok


@dataclass
class Command:
    label: str  # the CLI subcommand
    argv: list
    check: Callable[[int, str], Checked]


def invoke(argv: list) -> tuple[int, str]:
    """Run one anonqnet command in this process as the console script
    would, returning its exit code and standard output."""
    from anonqnet.cli import main
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            main.main(args=argv, prog_name="anonqnet")
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception:  # a crashed command is a failed operation
        traceback.print_exc()
        code = 1
    return code, buf.getvalue()


def _fnum(x: float) -> str:
    return format(float(x), ".10g")


def _json(c: Checked, code: int, text: str):
    if not c.expect(code == 0):
        return None
    try:
        return json.loads(text)
    except ValueError:
        c.expect(False)
        return None


# ---------------------------------------------------------------------------
# checks


def check_sweep(expected_rows: int):
    def check(code: int, text: str) -> Checked:
        c = Checked()
        c.expect(code == 0)
        lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        rows = lines[1:]
        c.expect(bool(lines) and lines[0].endswith(",F_AE_exact,delta"))
        c.expect(len(rows) == expected_rows)
        for row in rows:
            try:
                ok = float(row.rsplit(",", 1)[1]) <= EXACT_TOL
            except (IndexError, ValueError):
                ok = False
            if c.expect(ok):
                c.items += 1
        return c
    return check


def check_relay(nodes: int, qs: list):
    def check(code: int, text: str) -> Checked:
        c = Checked()
        body = _json(c, code, text)
        rows = body.get("rows", []) if body else []
        c.expect(len(rows) == nodes - 1)
        for row in rows:
            for q in qs:
                key = f"F_q{_fnum(q)}"
                try:
                    ok = abs(row[key] - row[key + "_exact"]) <= EXACT_TOL
                except (KeyError, TypeError):
                    ok = False
                if c.expect(ok):
                    c.items += 1
        return c
    return check


def check_threshold(expected_rows: int):
    def check(code: int, text: str) -> Checked:
        c = Checked()
        c.expect(code == 0)
        c.expect(f"qstar_GHZ = {THRESHOLD_CROSSOVER}\n" in text)
        lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        c.expect(len(lines) == expected_rows + 1)
        return c
    return check


def check_oracle(code: int, text: str) -> Checked:
    c = Checked()
    c.expect(code == 0)
    c.expect(text.rstrip().endswith("all oracle checks passed"))
    return c


def check_security(uniform: bool):
    """Every role's verdict holds; a uniform channel leaks nothing."""
    def check(code: int, text: str) -> Checked:
        c = Checked()
        body = _json(c, code, text)
        if body is None:
            return c
        c.expect(body.get("holds") is True)
        reports = body.get("reports", {})
        c.expect(set(reports) == {"sender", "receiver"})
        for rep in reports.values():
            c.expect(rep.get("holds") is True)
            cands = rep.get("candidates", [])
            c.items += len(cands)
            if uniform:
                c.expect(rep.get("independence_deviation", 1) <= EXACT_TOL)
                c.expect(bool(cands) and abs(rep.get("guessing_probability", 1)
                                             - 1 / len(cands)) <= EXACT_TOL)
        return c
    return check


def _check_runs(c: Checked, body, samples: int) -> list:
    """Each run row is well-formed; returns the delivered fidelities."""
    runs = body.get("runs", [])
    c.expect(len(runs) == samples)
    fids = []
    for run in runs:
        f = run.get("delivered_fidelity")
        if run.get("aborted") is True:
            ok = f is None
        else:
            ok = run.get("aborted") is False and f is not None and 0 <= f <= 1
            if ok:
                fids.append(f)
        if c.expect(ok):
            c.items += 1
    return fids


def check_w_sampling(samples: int, p_success: float):
    """Exact success probability matches the closed form; the abort rate is
    within 4 sigma of 1 - p_success."""
    def check(code: int, text: str) -> Checked:
        c = Checked()
        body = _json(c, code, text)
        if body is None:
            return c
        agg = body.get("aggregate", {})
        _check_runs(c, body, samples)
        c.expect(abs(agg.get("exact_success_probability", -1) - p_success)
                 <= 1e-12)
        sigma = math.sqrt(p_success * (1 - p_success) / samples)
        c.expect(abs(agg.get("abort_rate", -1) - (1 - p_success)) <= 4 * sigma)
        c.expect(agg.get("aborts") == sum(r.get("aborted") is True
                                          for r in body.get("runs", [])))
        return c
    return check


def check_mean_fidelity(samples: int, exact: float):
    """Mean delivered fidelity within 4 sigma of the exact-mode value."""
    def check(code: int, text: str) -> Checked:
        c = Checked()
        body = _json(c, code, text)
        if body is None:
            return c
        fids = _check_runs(c, body, samples)
        mean = body.get("aggregate", {}).get("mean_delivered_fidelity")
        if not c.expect(mean is not None and len(fids) > 1):
            return c
        var = sum((f - mean) ** 2 for f in fids) / (len(fids) - 1)
        sigma = math.sqrt(var / len(fids))
        c.expect(abs(mean - exact) <= 4 * sigma + 1e-9)
        return c
    return check


# ---------------------------------------------------------------------------
# workloads


def _qs(rng: random.Random, k: int, lo: int, hi: int) -> list:
    """k distinct noise values in [lo, hi] thousandths."""
    return [v / 1000 for v in rng.sample(range(lo, hi + 1), k)]


def exact_grid(seed: int) -> list:
    rng = random.Random(seed)
    qs = _qs(rng, 2, 800, 980)
    sweep_n = (4, 9)
    rows = 3 * (sweep_n[1] - sweep_n[0] + 1)  # W, GHZ, W_loss per size
    cmds = [Command("sweep", ["sweep", "--protocol", "all", "--channel",
                              "depolarizing", "--n-range", "%d:%d" % sweep_n,
                              "--mode", "both", "--q", _fnum(q),
                              "--workers", str(WORKERS)],
                    check_sweep(rows)) for q in qs]
    relay_nodes = 8
    cmds.append(Command(
        "relay", ["relay", "--nodes", str(relay_nodes), "--mode", "both",
                  *[a for q in qs for a in ("--q", _fnum(q))],
                  "--workers", str(WORKERS), "--json"],
        check_relay(relay_nodes, qs)))
    cmds.append(Command("threshold", ["threshold", "--n-range", "4:200"],
                        check_threshold(197)))
    cmds.append(Command("oracle-check", ["oracle-check"], check_oracle))
    return cmds


def security_audit(seed: int) -> list:
    rng = random.Random(seed)
    qa, qb, qc, qd = _qs(rng, 4, 850, 950)
    drift = [rng.randint(20, 60) / 1000 for _ in range(2)]

    def audit(nodes, adversaries, channel, override=None, lost=None):
        argv = ["security", "--nodes", str(nodes), "--adversaries",
                ",".join(map(str, sorted(adversaries))), "--channel", channel,
                "--role", "both"]
        if override:
            argv += ["--channel-node", override]
        if lost:
            argv += ["--lost", str(lost)]
        return Command("security", argv,
                       check_security(uniform=override is None))

    # sender 1 and receiver 2 (the CLI defaults) stay honest
    pair = rng.sample(range(3, 8), 2)
    target = rng.choice([k for k in range(1, 8) if k not in pair])
    lone = rng.randint(3, 7)
    lost_adv, lost = rng.sample(range(3, 8), 2)
    deph_adv = rng.randint(3, 6)
    deph_target = rng.choice([k for k in range(1, 7) if k != deph_adv])
    return [
        audit(7, pair, f"depolarizing:q={qa}",
              override=f"{target}=depolarizing:q={qa - drift[0]:.3f}"),
        audit(7, [lone], f"depolarizing:q={qb}"),
        audit(7, [lost_adv], f"depolarizing:q={qc}", lost=lost),
        audit(6, [deph_adv], f"dephasing:q={qd}",
              override=f"{deph_target}=dephasing:q={qd - drift[1]:.3f}"),
    ]


def sampling(seed: int) -> list:
    from anonqnet.analytic import p_success_w
    family, q = SAMPLING_CHANNEL
    channel = f"{family}:q={q}"

    def run(protocol, nodes, samples=None):
        argv = ["run", "--protocol", protocol, "--nodes", str(nodes),
                "--channel", channel, "--seed", str(seed)]
        if samples:
            argv += ["--mode", "sampling", "--samples", str(samples)]
        return argv

    def exact_delivered(protocol, nodes):
        code, text = invoke(run(protocol, nodes))
        if code != 0:
            raise RuntimeError(f"exact {protocol} reference run failed")
        return json.loads(text)["outcome"]["delivered_fidelity"]

    w = (8, 20000)
    ghz = (6, 200)
    relay = (8, 100)
    return [
        Command("run", run("W", *w),
                check_w_sampling(w[1], p_success_w(family, q, w[0]))),
        Command("run", run("GHZ", *ghz),
                check_mean_fidelity(ghz[1], exact_delivered("GHZ", ghz[0]))),
        Command("run", run("relay", *relay),
                check_mean_fidelity(relay[1],
                                    exact_delivered("relay", relay[0]))),
    ]


WORKLOADS = {
    "exact-grid": (exact_grid, "exact-checked sweep and relay points",
                   "exact_points_per_s"),
    "security-audit": (security_audit, "adversary views (candidates x roles)",
                       "views_per_s"),
    "sampling": (sampling, "sampled protocol runs", "sampled_runs_per_s"),
}
