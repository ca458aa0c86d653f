"""End-to-end and per-layer benchmark of the anonqnet CLI.

    python3 bench/run.py --workload exact-grid --seed 1 --seconds 20 --trace 0

One client drives a workload's commands in a closed loop: each command
starts when the previous one has finished, in this process, through the
same click entry point as the console script.  Passes over the command
list repeat until --seconds have elapsed (at least MIN_PASSES); a command's
time is its median over passes.  Outputs are checked outside the timed
region, and between passes a fresh interpreter times the set-up import.

--trace 0 prints the end-to-end metrics: set-up time (median fresh-interpreter
import of anonqnet.cli), workload wall time (sum of command medians), peak
RSS of this process and the workload's work items per second.  --trace 1
alternates traced and untraced passes and prints per-layer metrics, per
traced pass, from spans recorded around the package's public functions (see
tracer.py), plus per-module import times from -X importtime.

BLAS/OpenMP pools are pinned to one thread: with two sweep workers on two
cores, default BLAS threading oversubscribes the cores and its timing says
more about the contention than about the program.  The last line of standard
output is one JSON object: correct, attempted, failed (output checks) and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracer import LAYERS, LayerTotals, Tracer, install, uninstall
from workloads import WORKERS, WORKLOADS, Checked, invoke

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEFAULT_SEED = 1
SETUP_PROBES = 5
MIN_PASSES = 3
PROBE = ("import time; t = time.perf_counter(); import anonqnet.cli; "
         "print(time.perf_counter() - t)")

# spans reported as <name>.calls and <name>.self_s
TIMED_SPANS = (
    "qcore.DensityMatrix", "qcore.apply_op_dense", "qcore.partial_trace",
    "qcore.postselect", "qcore.bell_project", "qcore.tensor",
    "channels.apply_to", "channels.channel_distance",
    "protocols.run_protocol1", "protocols.run_ghz_protocol",
    "protocols.run_relay_protocol", "protocols.w_loss_branch_average_dense",
    "protocols.teleport_exact", "protocols.sample_protocol1_runs",
    "protocols.parity_protocol", "protocols.veto_protocol",
    "security.security_report", "security.adversary_view",
    "security.independence_check", "security.guessing_probability",
    "analytic.fidelity_report", "analytic.threshold_q",
    "analytic.structured_fidelity", "cli.command",
)
IMPORTED = ("anonqnet", *LAYERS)


def setup_probe(env: dict, importtime: bool) -> tuple[float, str]:
    """Seconds a fresh interpreter takes to import anonqnet.cli, and its
    -X importtime report when asked for."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           "-c", PROBE]
    r = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                       timeout=120)
    if r.returncode != 0:
        sys.exit(f"set-up probe failed:\n{r.stderr}")
    return float(r.stdout), r.stderr


def import_seconds(stderr: str) -> dict:
    """Cumulative import seconds per anonqnet module from -X importtime."""
    out = {}
    for line in stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2].startswith("anonqnet"):
            short = parts[2].rsplit(".", 1)[-1]
            out[short] = int(parts[1]) / 1e6
    return out


def environment() -> list:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return [f"threads: {threads}",
            f"cores: nproc={len(os.sched_getaffinity(0))}"
            f" cpu_count={os.cpu_count()}",
            f"python {platform.python_version()}, numpy {np.__version__},"
            f" BLAS {blas}, scipy {scipy.__version__}"]


def one_pass(commands, tally, tracer=None, totals=None):
    """Run every command once; returns (seconds per command, work items,
    output characters).  Checks and span folding stay outside the timing."""
    times, items, chars = [], 0, 0
    undo = install(tracer) if tracer else None
    try:
        for cmd in commands:
            t0 = perf_counter()
            if tracer:
                with tracer.command(cmd.label):
                    code, out = invoke(cmd.argv)
            else:
                code, out = invoke(cmd.argv)
            times.append(perf_counter() - t0)
            if tracer:
                totals.fold(tracer.drain())
            c = cmd.check(code, out)
            tally.attempted += c.attempted
            tally.failed += c.failed
            items += c.items
            chars += len(out)
    finally:
        if undo:
            uninstall(undo)
    return times, items, chars


def run_passes(commands, seconds: float, trace: bool, probe):
    """Closed loop of passes over the commands until `seconds` have elapsed
    and at least MIN_PASSES ran; the median over passes absorbs the cold
    first pass.  With trace, an untimed warm-up pass comes first and then
    traced and untraced passes alternate.  After each pass, outside the
    timing, probe() measures set-up once; probes are topped up to
    SETUP_PROBES at the end."""
    tally = Checked()
    tracer, totals = Tracer(), LayerTotals(WORKERS)
    plain, traced, probes = [], [], []
    if trace:
        one_pass(commands, tally)
    start = perf_counter()
    while True:
        if trace and len(traced) <= len(plain):
            traced.append(one_pass(commands, tally, tracer, totals))
        else:
            plain.append(one_pass(commands, tally))
        probes.append(probe())
        if (perf_counter() - start >= seconds
                and len(plain) >= (1 if trace else MIN_PASSES)
                and (traced or not trace)):
            break
    probes += [probe() for _ in range(SETUP_PROBES - len(probes))]
    return plain, traced, tally, totals, probes


def wall(passes) -> float:
    """Sum over commands of each command's median time across passes."""
    return sum(statistics.median(t) for t in zip(*(p[0] for p in passes)))


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(totals, traced_passes: int, out_chars: list,
                  overhead: float, imports: dict) -> dict:
    n = traced_passes
    m = {}
    for span in TIMED_SPANS:
        m[f"{span}.calls"] = metric(totals.calls[span] / n, "count")
        m[f"{span}.self_s"] = metric(totals.self_s[span] / n, "s")
    m["qcore.DensityMatrix.max_qubits"] = metric(totals.max_qubits, "qubits")
    m["qcore.DensityMatrix.mib"] = metric(totals.density_bytes / 2**20 / n,
                                          "MiB")
    m["protocols.Transcript.add.calls"] = metric(
        totals.calls["protocols.Transcript.add"] / n, "count")
    m["protocols.sample_protocol1_runs.accept_ratio"] = metric(
        totals.accepted_runs / totals.sampled_runs if totals.sampled_runs
        else 0.0, "ratio")
    m["cli.output_mib"] = metric(statistics.median(out_chars) / 2**20, "MiB")
    m["cli.pool.worker_util"] = metric(
        totals.pool_busy_s / totals.pool_capacity_s if totals.pool_capacity_s
        else 0.0, "ratio")
    per_layer = totals.layer_self_s()
    for layer in LAYERS:
        m[f"{layer}.self_s"] = metric(per_layer[layer] / n, "s")
    for mod in IMPORTED:
        m[f"setup.import.{mod}_s"] = metric(imports.get(mod, 0.0), "s")
    m["trace_overhead_frac"] = metric(overhead, "ratio")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "anonqnet" / "cli.py").is_file():
        print(f"error: no anonqnet sources under {SRC}", file=sys.stderr)
        return 2

    os.environ.update({v: "1" for v in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    build, item_desc, item_metric = WORKLOADS[args.workload]
    commands = build(args.seed)
    plain, traced, tally, totals, probes = run_passes(
        commands, args.seconds, bool(args.trace),
        lambda: setup_probe(env, importtime=bool(args.trace)))

    print(f"# workload = {args.workload}, seed = {args.seed}"
          f" (default {DEFAULT_SEED}), seconds = {args.seconds:g},"
          f" trace = {args.trace}")
    for line in environment():
        print(f"# {line}")
    print("# set-up probes (s): " + " ".join(f"{t:.3f}" for t, _ in probes))
    print(f"# timed passes: {len(plain)} untraced, {len(traced)} traced;"
          " command medians (s): " + ", ".join(
              f"{c.label} {statistics.median(t):.3f}"
              for c, t in zip(commands, zip(*(p[0] for p in plain)))))
    if args.trace:
        imports = {}
        for mod in IMPORTED:
            vals = [import_seconds(err).get(mod) for _, err in probes]
            vals = [v for v in vals if v is not None]
            if vals:
                imports[mod] = statistics.median(vals)
        overhead = wall(traced) / wall(plain) - 1
        metrics = layer_metrics(totals, len(traced),
                                [p[2] for p in traced], overhead, imports)
        top = sorted(totals.self_s.items(), key=lambda kv: -kv[1])[:12]
        print("# top self time per traced pass: " + ", ".join(
            f"{k} {v / len(traced):.3f}s" for k, v in top))
    else:
        wall_s = wall(plain)
        per_pass = statistics.median(p[1] for p in plain)
        metrics = {
            "setup_s": metric(statistics.median(t for t, _ in probes), "s"),
            "wall_s": metric(wall_s, "s"),
            "peak_rss_mib": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MiB"),
            "items_per_s": metric(per_pass / wall_s, "1/s"),
        }
        print(f"# items: {per_pass:g} {item_desc} per pass;"
              f" {item_metric} = {per_pass / wall_s:.6g} 1/s")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"ops_failed_frac = {frac:g} ({tally.failed} of {tally.attempted}"
          " checks failed)")
    print(json.dumps({"correct": tally.failed == 0 and tally.attempted > 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
