"""Command line front end.

Subcommands:

* sweep         fidelity / success-probability grids over (N, q)
* threshold     usefulness thresholds per network size, with the crossover
* relay         chain-relay fidelities per sender/receiver placement
* security      anonymity audit for a passive coalition (JSON)
* run           execute one protocol run (or many samples) end to end
* oracle-check  quick exact-vs-closed-form self test

CSV output starts with '#' metadata lines (tool version, command, channel,
seed) so files are self-describing; formats are stable for given inputs.
A config file of `key = value` lines can pre-set any option of a command;
explicit flags win, unknown keys abort with exit code 2.  Exit codes:
0 success, 1 a check failed, 2 bad usage or configuration.
"""

from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor

import click
import numpy as np

from . import __version__
from .channels import (
    QuantumChannel,
    dephasing,
    depolarizing,
    parse_channel_map,
    parse_channel_spec,
)
from .analytic import (
    GHZ_DEPH,
    GHZ_DEPOL,
    W_DEPH,
    W_DEPOL,
    crossover_n,
    f_ae_ghz_dephasing,
    f_ae_ghz_depolarizing,
    f_ae_relay_depolarizing,
    f_ae_w_dephasing,
    f_ae_w_depolarizing,
    f_ae_w_loss,
    fidelity_report,
    p_success_w,
    structured_fidelity,
    threshold_q,
)
from .protocols import (
    NetworkConfig,
    ProtocolImpossibleError,
    run_ghz_protocol,
    run_protocol1,
    run_relay_protocol,
    sample_protocol1_runs,
    w_loss_branch_average_dense,
)
from .qcore import DenseCapError, Ket
from .security import ADVERSARY_NODE_CAP, security_report


def _fnum(x) -> str:
    return format(float(x), ".10g")


def _parse_steps(text: str, what: str, integer: bool = False) -> list:
    """Parse 'a:b' or 'a:b:step' into an inclusive grid."""
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise click.UsageError(f"bad {what} range {text!r}; expected a:b[:step]")
    try:
        a, b = float(parts[0]), float(parts[1])
        step = float(parts[2]) if len(parts) == 3 else 1.0
    except ValueError:
        raise click.UsageError(f"bad {what} range {text!r}")
    if step <= 0 or b < a:
        raise click.UsageError(f"bad {what} range {text!r}")
    count = int(round((b - a) / step)) + 1
    vals = [a + i * step for i in range(count) if a + i * step <= b + 1e-9]
    if integer:
        return [int(round(v)) for v in vals]
    return [round(v, 12) for v in vals]


def _parse_node_list(text: str) -> list:
    if not text:
        return []
    try:
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise click.UsageError(f"bad node list {text!r}")


def _load_config_file(path: str, allowed: set) -> dict:
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                click.echo(f"config {path}:{lineno}: expected key = value",
                           err=True)
                sys.exit(2)
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in allowed:
                click.echo(f"config {path}:{lineno}: unknown key {key!r}",
                           err=True)
                sys.exit(2)
            values[key] = val.strip()
    return values


def _merge(flag, cfg: dict, key: str, default, cast=None):
    if flag is not None:
        return flag
    if key in cfg:
        raw = cfg[key]
        try:
            if cast is bool:
                words = ("0", "false", "no", "off", "1", "true", "yes", "on")
                return words.index(raw.lower()) >= 4  # ValueError if neither
            return cast(raw) if cast else raw
        except ValueError:
            raise click.UsageError(f"config key {key!r}: bad value {raw!r}")
    return default


def _float_list(text: str) -> tuple:
    return tuple(float(p) for p in text.split(","))


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return _fnum(value) if isinstance(value, float) else str(value)


def _emit_table(meta: dict, rows: list, cols: list, as_json: bool,
                out: str | None, notes: list | tuple = (),
                extra: dict | None = None) -> None:
    """Write rows as JSON, or as CSV of the listed columns after the
    '#' metadata lines and any '#' notes.  extra holds JSON-only fields
    placed between the metadata and the rows."""
    if as_json:
        body = {"tool": "anonqnet", "version": __version__, "metadata": meta,
                **(extra or {}), "rows": rows}
        _emit(json.dumps(body, indent=2) + "\n", out)
        return
    lines = [f"# anonqnet {__version__}"]
    lines += [f"# {k} = {v}" for k, v in meta.items()]
    lines += notes
    lines.append(",".join(cols))
    lines += [",".join(_cell(row[c]) for c in cols) for row in rows]
    _emit("\n".join(lines) + "\n", out)


def _channel_factory(family: str):
    if family == "dephasing":
        return dephasing
    if family == "depolarizing":
        return depolarizing
    raise click.UsageError(f"unknown channel family {family!r}")


def _uniform_channels(channel: QuantumChannel, n: int) -> dict:
    return {i: channel for i in range(1, n + 1)}


def _per_node_channels(base_spec: str, overrides, n: int) -> dict:
    try:
        return parse_channel_map(base_spec, overrides, range(1, n + 1))
    except ValueError as exc:
        raise click.UsageError(str(exc))


_config_option = click.option(
    "--config", "config_path", default=None,
    type=click.Path(exists=True, dir_okay=False),
    help="key = value defaults file")


@click.group()
@click.version_option(version=__version__, prog_name="anonqnet")
def main():
    """Simulation and analysis of anonymous quantum transmission."""


# ---------------------------------------------------------------------------
# sweep


def _sweep_row(protocol: str, family: str, n: int, q: float, mode: str) -> dict:
    row = {"protocol": protocol, "channel": family, "N": n, "q": q, "mode": mode}
    if mode in ("analytic", "both"):
        rep = fidelity_report(protocol, family, q, n)
        row["F_AE"] = rep.fidelity
        row["P_success"] = rep.success_probability
        row["useful"] = rep.useful
    if mode in ("exact", "both"):
        channel = _channel_factory(family)(q)
        cfg = NetworkConfig(n_nodes=n, sender=1, receiver=2,
                            per_qubit_channels=_uniform_channels(channel, n),
                            lost_nodes={n} if protocol == "W_loss" else ())
        if protocol == "GHZ":
            f_exact = run_ghz_protocol(cfg, mode="exact").ae_fidelity
            p_exact = 1.0
        else:
            outcome = run_protocol1(cfg, mode="exact")
            p_exact = outcome.analytic_success_probability
            f_exact = (w_loss_branch_average_dense(channel, n)
                       if protocol == "W_loss" else outcome.ae_fidelity)
        if mode == "exact":
            row["F_AE"] = f_exact
            row["P_success"] = p_exact
            row["useful"] = f_exact > 0.5
        else:
            row["F_AE_exact"] = f_exact
            row["delta"] = abs(row["F_AE"] - f_exact)
    return row


@main.command()
@click.option("--protocol",
              type=click.Choice(["W", "GHZ", "W_loss", "all"]), default=None)
@click.option("--channel", "channel_family",
              type=click.Choice(["dephasing", "depolarizing"]), default=None)
@click.option("--q", type=float, default=None, help="single noise value")
@click.option("--q-range", default=None, help="a:b:step grid of q values")
@click.option("--nodes", type=int, default=None, help="single network size")
@click.option("--n-range", default=None, help="a:b[:step] grid of sizes")
@click.option("--mode", type=click.Choice(["analytic", "exact", "both"]),
              default=None)
@click.option("--seed", type=int, default=None)
@click.option("--workers", type=int, default=None)
@click.option("--json", "as_json", is_flag=True, default=False)
@click.option("--out", default=None, help="write output to this file")
@_config_option
def sweep(protocol, channel_family, q, q_range, nodes, n_range, mode, seed,
          workers, as_json, out, config_path):
    """Tabulate pair fidelity and success probability over (N, q)."""
    allowed = {"protocol", "channel", "q", "q_range", "nodes", "n_range",
               "mode", "seed", "workers", "json", "out"}
    cfg = _load_config_file(config_path, allowed) if config_path else {}
    protocol = _merge(protocol, cfg, "protocol", "W")
    if protocol not in ("W", "GHZ", "W_loss", "all"):
        raise click.UsageError(f"unknown protocol {protocol!r}")
    channel_family = _merge(channel_family, cfg, "channel", "depolarizing")
    if channel_family not in ("dephasing", "depolarizing"):
        raise click.UsageError(f"unknown channel family {channel_family!r}")
    q = _merge(q, cfg, "q", None, cast=float)
    q_range = _merge(q_range, cfg, "q_range", None)
    nodes = _merge(nodes, cfg, "nodes", None, cast=int)
    n_range = _merge(n_range, cfg, "n_range", None)
    mode = _merge(mode, cfg, "mode", "analytic")
    if mode not in ("analytic", "exact", "both"):
        raise click.UsageError(f"unknown mode {mode!r}")
    seed = _merge(seed, cfg, "seed", 0, cast=int)
    workers = _merge(workers, cfg, "workers", 4, cast=int)
    as_json = as_json or _merge(None, cfg, "json", False, cast=bool)
    out = _merge(out, cfg, "out", None)

    qs = [q] if q is not None else _parse_steps(q_range or "0:1:0.1", "q")
    ns = [nodes] if nodes is not None else _parse_steps(
        n_range or "4:8", "nodes", integer=True)
    protocols = ["W", "GHZ", "W_loss"] if protocol == "all" else [protocol]
    for p in protocols:
        lo = 4 if p != "GHZ" else 3
        for n in ns:
            if n < lo:
                raise click.UsageError(f"{p} needs at least {lo} nodes")

    points = [(p, channel_family, n, qq, mode)
              for p in protocols for n in ns for qq in qs]
    try:
        if mode != "analytic" and workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(lambda a: _sweep_row(*a), points))
        else:
            rows = [_sweep_row(*pt) for pt in points]
    except DenseCapError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)

    meta = {"command": "sweep", "channel": channel_family,
            "protocol": protocol, "mode": mode, "seed": seed}
    cols = ["protocol", "channel", "N", "q", "F_AE", "P_success", "useful",
            "mode"]
    if mode == "both":
        cols += ["F_AE_exact", "delta"]
    _emit_table(meta, rows, cols, as_json, out)


# ---------------------------------------------------------------------------
# threshold


@main.command()
@click.option("--n-range", default=None, help="a:b[:step] grid of sizes")
@click.option("--channel", "channel_family",
              type=click.Choice(["dephasing", "depolarizing"]), default=None)
@click.option("--json", "as_json", is_flag=True, default=False)
@click.option("--out", default=None)
@_config_option
def threshold(n_range, channel_family, as_json, out, config_path):
    """Usefulness thresholds q* per size and the W/GHZ crossover."""
    allowed = {"n_range", "channel", "json", "out"}
    cfg = _load_config_file(config_path, allowed) if config_path else {}
    n_range = _merge(n_range, cfg, "n_range", "4:200")
    channel_family = _merge(channel_family, cfg, "channel", "depolarizing")
    as_json = as_json or _merge(None, cfg, "json", False, cast=bool)
    out = _merge(out, cfg, "out", None)
    ns = _parse_steps(n_range, "nodes", integer=True)
    if any(n < 4 for n in ns):
        raise click.UsageError("thresholds start at 4 nodes")

    if channel_family == "depolarizing":
        w_key, g_key = W_DEPOL, GHZ_DEPOL
        cross = crossover_n()
    else:
        w_key, g_key = W_DEPH, GHZ_DEPH
        cross = None
    rows = []
    for n in ns:
        qw = threshold_q(w_key, n)
        qg = threshold_q(g_key, n)
        rows.append({"N": n, "qstar_W": qw, "qstar_GHZ": qg,
                     "W_better": qw < qg})
    notes = ([] if cross is None else
             [f"# crossover: smallest N with qstar_W > qstar_GHZ = {cross}"])
    _emit_table({"command": "threshold", "channel": channel_family}, rows,
                ["N", "qstar_W", "qstar_GHZ", "W_better"], as_json, out,
                notes=notes, extra={"crossover_n": cross})


# ---------------------------------------------------------------------------
# relay


def _relay_point(n: int, s: int, r: int, q: float, mode: str) -> dict:
    vals = {}
    if mode in ("analytic", "both"):
        vals["analytic"] = f_ae_relay_depolarizing(q, n, s, r)
    if mode in ("exact", "both"):
        channel = depolarizing(q)
        cfg = NetworkConfig(n_nodes=n, sender=s, receiver=r,
                            per_qubit_channels=_uniform_channels(channel, n))
        vals["exact"] = run_relay_protocol(cfg, mode="exact").ae_fidelity
    return vals


@main.command()
@click.option("--nodes", type=int, default=None)
@click.option("--q", "q_values", type=float, multiple=True)
@click.option("--sender", type=int, default=None)
@click.option("--receiver", type=int, default=None)
@click.option("--mode", type=click.Choice(["analytic", "exact", "both"]),
              default=None)
@click.option("--workers", type=int, default=None)
@click.option("--json", "as_json", is_flag=True, default=False)
@click.option("--out", default=None)
@_config_option
def relay(nodes, q_values, sender, receiver, mode, workers, as_json, out,
          config_path):
    """Chain-relay pair fidelity per (sender, receiver) placement.

    Without --receiver, sweeps every placement for the given sender.
    Uniform depolarizing noise; analytic mode uses the closed form.
    """
    allowed = {"nodes", "q", "sender", "receiver", "mode", "workers", "json",
               "out"}
    cfg = _load_config_file(config_path, allowed) if config_path else {}
    nodes = _merge(nodes, cfg, "nodes", 6, cast=int)
    sender = _merge(sender, cfg, "sender", 1, cast=int)
    receiver = _merge(receiver, cfg, "receiver", None, cast=int)
    mode = _merge(mode, cfg, "mode", "analytic")
    if mode not in ("analytic", "exact", "both"):
        raise click.UsageError(f"unknown mode {mode!r}")
    workers = _merge(workers, cfg, "workers", 4, cast=int)
    as_json = as_json or _merge(None, cfg, "json", False, cast=bool)
    out = _merge(out, cfg, "out", None)
    q_values = _merge(q_values or None, cfg, "q", (0.8, 0.95), cast=_float_list)
    if nodes < 4:
        raise click.UsageError("relay needs at least 4 nodes")
    if not 1 <= sender <= nodes:
        raise click.UsageError("sender outside the chain")
    if receiver is not None and (not 1 <= receiver <= nodes
                                 or receiver == sender):
        raise click.UsageError("receiver must be a distinct chain position")

    pairs = ([(sender, receiver)] if receiver is not None
             else [(sender, r) for r in range(1, nodes + 1) if r != sender])
    points = [(nodes, s, r, qq, mode) for (s, r) in pairs for qq in q_values]
    if mode != "analytic" and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda a: _relay_point(*a), points))
    else:
        results = [_relay_point(*pt) for pt in points]
    table = {}
    for (nn, s, r, qq, _), vals in zip(points, results):
        table.setdefault((s, r), {})[qq] = vals

    rows = []
    for (s, r), per_q in table.items():
        row = {"sender": s, "receiver": r}
        for qq in q_values:
            vals = per_q[qq]
            if "analytic" in vals:
                row[f"F_q{_fnum(qq)}"] = vals["analytic"]
            if "exact" in vals:
                key = (f"F_q{_fnum(qq)}_exact" if mode == "both"
                       else f"F_q{_fnum(qq)}")
                row[key] = vals["exact"]
        rows.append(row)
    notes = [f"# baseline q={_fnum(qq)}:"
             f" F_W={_fnum(f_ae_w_depolarizing(qq, nodes))}"
             f" F_GHZ={_fnum(f_ae_ghz_depolarizing(qq, nodes))}"
             for qq in q_values]
    cols = ["sender", "receiver"]
    for qq in q_values:
        cols.append(f"F_q{_fnum(qq)}")
        if mode == "both":
            cols.append(f"F_q{_fnum(qq)}_exact")
    meta = {"command": "relay", "channel": "depolarizing", "nodes": nodes,
            "mode": mode}
    _emit_table(meta, rows, cols, as_json, out, notes=notes)


# ---------------------------------------------------------------------------
# security


@main.command()
@click.option("--nodes", type=int, default=None)
@click.option("--sender", type=int, default=None)
@click.option("--receiver", type=int, default=None)
@click.option("--adversaries", default=None, help="comma-separated node ids")
@click.option("--role", type=click.Choice(["sender", "receiver", "both"]),
              default=None)
@click.option("--channel", "channel_spec", default=None,
              help="base channel, e.g. depolarizing:q=0.8")
@click.option("--channel-node", "channel_overrides", multiple=True,
              help="per-node override, e.g. 3=depolarizing:q=0.75")
@click.option("--lost", default=None, help="comma-separated lost node ids")
@click.option("--seed", type=int, default=None)
@click.option("--out", default=None)
@_config_option
def security(nodes, sender, receiver, adversaries, role, channel_spec,
             channel_overrides, lost, seed, out, config_path):
    """Audit anonymity against a passive coalition; exit 1 on violation."""
    allowed = {"nodes", "sender", "receiver", "adversaries", "role",
               "channel", "lost", "seed", "out"}
    cfg = _load_config_file(config_path, allowed) if config_path else {}
    nodes = _merge(nodes, cfg, "nodes", 5, cast=int)
    sender = _merge(sender, cfg, "sender", 1, cast=int)
    receiver = _merge(receiver, cfg, "receiver", 2, cast=int)
    adversaries = _merge(adversaries, cfg, "adversaries", "")
    role = _merge(role, cfg, "role", "sender")
    if role not in ("sender", "receiver", "both"):
        raise click.UsageError(f"unknown role {role!r}")
    channel_spec = _merge(channel_spec, cfg, "channel", "identity")
    lost = _merge(lost, cfg, "lost", "")
    seed = _merge(seed, cfg, "seed", 0, cast=int)
    out = _merge(out, cfg, "out", None)

    if nodes > ADVERSARY_NODE_CAP:
        click.echo(f"error: adversary analysis is capped at"
                   f" {ADVERSARY_NODE_CAP} nodes", err=True)
        sys.exit(2)
    adv = _parse_node_list(adversaries)
    if not adv:
        raise click.UsageError("need at least one adversary node")
    try:
        base = parse_channel_spec(channel_spec)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    channels = _per_node_channels(channel_spec, channel_overrides, nodes)
    try:
        net = NetworkConfig(
            n_nodes=nodes, sender=sender, receiver=receiver,
            per_qubit_channels=channels, seed=seed,
            lost_nodes=frozenset(_parse_node_list(lost)),
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))

    roles = ["sender", "receiver"] if role == "both" else [role]
    reports = {}
    ok = True
    try:
        for r in roles:
            rep = security_report(net, adv, role=r, base_channel=base)
            eps = rep.get("epsilon_bound", 0.0)
            rep["holds"] = (rep["guessing_probability"]
                            <= rep["uniform_prior"] + eps + 1e-9)
            ok = ok and rep["holds"]
            reports[r] = rep
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    body = {
        "tool": "anonqnet", "version": __version__,
        "config": {"nodes": nodes, "sender": sender, "receiver": receiver,
                   "adversaries": sorted(adv), "channel": channel_spec,
                   "overrides": list(channel_overrides), "lost": lost or ""},
        "reports": reports,
        "holds": ok,
    }
    _emit(json.dumps(body, indent=2) + "\n", out)
    if not ok:
        sys.exit(1)


# ---------------------------------------------------------------------------
# run


@main.command()
@click.option("--protocol", type=click.Choice(["W", "GHZ", "relay"]),
              default=None)
@click.option("--nodes", type=int, default=None)
@click.option("--sender", type=int, default=None)
@click.option("--receiver", type=int, default=None)
@click.option("--channel", "channel_spec", default=None)
@click.option("--channel-node", "channel_overrides", multiple=True)
@click.option("--lost", default=None)
@click.option("--seed", type=int, default=None)
@click.option("--mode", type=click.Choice(["exact", "sampling"]), default=None)
@click.option("--samples", type=int, default=None)
@click.option("--message", type=click.Choice(["plus", "zero", "one"]),
              default=None)
@click.option("--transcript", "transcript_path", default=None,
              help="also write the transcript as JSONL")
@click.option("--out", default=None)
@_config_option
def run(protocol, nodes, sender, receiver, channel_spec, channel_overrides,
        lost, seed, mode, samples, message, transcript_path, out, config_path):
    """Execute a protocol run end to end and print the outcome as JSON."""
    allowed = {"protocol", "nodes", "sender", "receiver", "channel", "lost",
               "seed", "mode", "samples", "message", "transcript", "out"}
    cfg = _load_config_file(config_path, allowed) if config_path else {}
    protocol = _merge(protocol, cfg, "protocol", "W")
    if protocol not in ("W", "GHZ", "relay"):
        raise click.UsageError(f"unknown protocol {protocol!r}")
    nodes = _merge(nodes, cfg, "nodes", 5, cast=int)
    sender = _merge(sender, cfg, "sender", 1, cast=int)
    receiver = _merge(receiver, cfg, "receiver", 2, cast=int)
    channel_spec = _merge(channel_spec, cfg, "channel", "identity")
    lost = _merge(lost, cfg, "lost", "")
    seed = _merge(seed, cfg, "seed", 0, cast=int)
    mode = _merge(mode, cfg, "mode", "exact")
    if mode not in ("exact", "sampling"):
        raise click.UsageError(f"unknown mode {mode!r}")
    samples = _merge(samples, cfg, "samples", 1, cast=int)
    message = _merge(message, cfg, "message", "plus")
    transcript_path = _merge(transcript_path, cfg, "transcript", None)
    out = _merge(out, cfg, "out", None)
    if samples < 1:
        raise click.UsageError("--samples must be positive")
    if samples > 1 and mode == "exact":
        raise click.UsageError("--samples needs --mode sampling")

    amps = {"plus": np.array([1, 1]) / np.sqrt(2),
            "zero": np.array([1, 0]),
            "one": np.array([0, 1])}[message].astype(complex)
    channels = _per_node_channels(channel_spec, channel_overrides, nodes)
    try:
        net = NetworkConfig(
            n_nodes=nodes, sender=sender, receiver=receiver,
            per_qubit_channels=channels, seed=seed,
            message_state=Ket(amps, ("message",)),
            lost_nodes=frozenset(_parse_node_list(lost)),
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))

    runner = {"W": run_protocol1, "GHZ": run_ghz_protocol,
              "relay": run_relay_protocol}[protocol]
    try:
        if samples == 1:
            outcome = runner(net, mode=mode)
            body = {"tool": "anonqnet", "version": __version__,
                    "protocol": protocol, "seed": seed, "mode": mode,
                    "outcome": outcome.to_json_dict()}
            if transcript_path:
                with open(transcript_path, "w") as fh:
                    fh.write(outcome.transcript.to_jsonl() + "\n")
        else:
            if protocol == "W":
                outcomes, aggregate = sample_protocol1_runs(net, samples)
            else:
                rng = np.random.default_rng(seed)
                outcomes = [runner(net, rng=rng, mode="sampling")
                            for _ in range(samples)]
                aborts = sum(1 for o in outcomes if o.aborted)
                fids = [o.delivered_fidelity for o in outcomes
                        if not o.aborted]
                aggregate = {
                    "runs": samples, "aborts": aborts,
                    "abort_rate": aborts / samples,
                    "mean_delivered_fidelity": (
                        float(np.mean(fids)) if fids else None),
                }
            body = {"tool": "anonqnet", "version": __version__,
                    "protocol": protocol, "seed": seed, "mode": "sampling",
                    "aggregate": aggregate,
                    "runs": [o.to_json_dict(include_transcript=False)
                             for o in outcomes]}
    except ProtocolImpossibleError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    except (DenseCapError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    _emit(json.dumps(body, indent=2) + "\n", out)


# ---------------------------------------------------------------------------
# oracle-check


def _oracle_checks():
    checks = []

    def check(name):
        def wrap(fn):
            checks.append((name, fn))
            return fn
        return wrap

    @check("w-depolarizing-closed-vs-dense")
    def _():
        q, n = 0.9, 5
        cfgu = _uniform_channels(depolarizing(q), n)
        cfg = NetworkConfig(n_nodes=n, sender=1, receiver=2,
                            per_qubit_channels=cfgu)
        got = run_protocol1(cfg, mode="exact").ae_fidelity
        want = f_ae_w_depolarizing(q, n)
        return abs(got - want), 1e-10

    @check("w-dephasing-closed-vs-dense")
    def _():
        q, n = 0.85, 4
        cfg = NetworkConfig(n_nodes=n, sender=1, receiver=2,
                            per_qubit_channels=_uniform_channels(dephasing(q), n))
        got = run_protocol1(cfg, mode="exact").ae_fidelity
        return abs(got - f_ae_w_dephasing(q)), 1e-10

    @check("ghz-depolarizing-closed-vs-structured")
    def _():
        q, n = 0.9, 5
        got = structured_fidelity("GHZ", depolarizing(q), n)
        return abs(got - f_ae_ghz_depolarizing(q, n)), 1e-10

    @check("ghz-dephasing-closed-vs-dense")
    def _():
        q, n = 0.8, 6
        cfg = NetworkConfig(n_nodes=n, sender=1, receiver=2,
                            per_qubit_channels=_uniform_channels(dephasing(q), n))
        got = run_ghz_protocol(cfg, mode="exact").ae_fidelity
        return abs(got - f_ae_ghz_dephasing(q, n)), 1e-10

    @check("w-success-probability-depolarizing")
    def _():
        q, n = 0.7, 6
        cfg = NetworkConfig(n_nodes=n, sender=1, receiver=2,
                            per_qubit_channels=_uniform_channels(depolarizing(q), n))
        got = run_protocol1(cfg, mode="exact").analytic_success_probability
        return abs(got - p_success_w("depolarizing", q, n)), 1e-12

    @check("w-success-probability-dephasing-2-over-n")
    def _():
        q, n = 0.6, 5
        cfg = NetworkConfig(n_nodes=n, sender=1, receiver=2,
                            per_qubit_channels=_uniform_channels(dephasing(q), n))
        got = run_protocol1(cfg, mode="exact").analytic_success_probability
        return abs(got - 2 / n), 1e-12

    @check("relay-closed-vs-dense")
    def _():
        q, n, s, r = 0.9, 5, 2, 4
        cfg = NetworkConfig(n_nodes=n, sender=s, receiver=r,
                            per_qubit_channels=_uniform_channels(depolarizing(q), n))
        got = run_relay_protocol(cfg, mode="exact").ae_fidelity
        return abs(got - f_ae_relay_depolarizing(q, n, s, r)), 1e-10

    @check("teleport-noiseless-delivery")
    def _():
        cfg = NetworkConfig(n_nodes=4, sender=1, receiver=3)
        got = run_protocol1(cfg, mode="exact").delivered_fidelity
        return abs(got - 1.0), 1e-12

    @check("loss-noiseless-conditional-two-thirds")
    def _():
        cfg = NetworkConfig(n_nodes=5, sender=1, receiver=2,
                            lost_nodes=frozenset({5}))
        got = run_protocol1(cfg, mode="exact").ae_fidelity
        return abs(got - 2 / 3), 1e-12

    @check("w-loss-closed-vs-dense-average")
    def _():
        q, n = 0.9, 5
        got = w_loss_branch_average_dense(depolarizing(q), n)
        return abs(got - f_ae_w_loss("depolarizing", q, n)), 1e-9

    return checks


@main.command("oracle-check")
def oracle_check():
    """Cross-check closed forms against the exact simulator; exit 1 on
    any disagreement."""
    failures = 0
    for name, fn in _oracle_checks():
        try:
            delta, tol = fn()
        except Exception as exc:  # a crashed check is a failed check
            click.echo(f"FAIL {name}: {exc}")
            failures += 1
            continue
        if delta <= tol:
            click.echo(f"ok   {name} (delta {delta:.3g} <= {tol:g})")
        else:
            click.echo(f"FAIL {name} (delta {delta:.3g} > {tol:g})")
            failures += 1
    if failures:
        click.echo(f"{failures} check(s) failed")
        sys.exit(1)
    click.echo("all oracle checks passed")


if __name__ == "__main__":
    main()
