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

import click
import numpy as np

from . import __version__
from .channels import (
    QuantumChannel,
    dephasing,
    depolarizing,
    identity_channel,
    parse_channel_map,
    parse_channel_spec,
)
from .analytic import (
    GHZ_DEPOL,
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
    pair_target,
    structured_fidelity,
    threshold_q,
)
from .protocols import (
    Batch,
    NetworkConfig,
    ProtocolImpossibleError,
    exact_pair,
    run_ghz_protocol,
    run_protocol1,
    run_relay_protocol,
    sample_ghz_runs,
    sample_protocol1_runs,
    sample_relay_runs,
    w_loss_branch_average_dense,
)
from .qcore import Ket, fidelity_with_pure
from .security import security_report


def _fnum(x) -> str:
    return format(float(x), ".10g")


MAX_GRID_POINTS = 10_000
# a sampled run costs up to ~7.5 KiB of peak memory (GHZ on an API-built
# channel that is not Z-covariant: an outcome per run), so under ~450 MiB
MAX_SAMPLES = 50_000
# 50,000 sampled relay runs at 10,000 nodes peaked at 196 MiB, under ~450 MiB
MAX_NODES = 10_000


def _parse_steps(text: str, what: str, integer: bool = False) -> list:
    """Parse 'a:b' or 'a:b:step' into an inclusive grid of at most
    MAX_GRID_POINTS points, checked before the grid is built."""
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise click.UsageError(f"bad {what} range {text!r}; expected a:b[:step]")
    try:
        a, b = float(parts[0]), float(parts[1])
        step = float(parts[2]) if len(parts) == 3 else 1.0
    except ValueError:
        raise click.UsageError(f"bad {what} range {text!r}")
    if not (step > 0 and b >= a):  # nan fails too
        raise click.UsageError(f"bad {what} range {text!r}")
    if integer and not all(x.is_integer() for x in (a, b, step)):
        raise click.UsageError(f"bad {what} range {text!r}; expected whole numbers")
    span = (b - a) / step
    if not span <= MAX_GRID_POINTS - 1:  # an infinite bound fails too
        raise click.UsageError(f"{what} range {text!r} has over "
                               f"{MAX_GRID_POINTS} points")
    count = int(round(span)) + 1
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


def _load_config(ctx: click.Context, param, path: str | None) -> None:
    """Eager --config callback: the file's `key = value` lines become the
    command's defaults (click's default_map), so explicit flags win and
    every value is parsed and checked by its option's own type.  A key is
    an option's long name; a multiple option takes a comma-separated list."""
    if path is None:
        return
    params = {opt[2:].replace("-", "_"): p for p in ctx.command.params
              if p is not param for opt in p.opts if opt.startswith("--")}
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
            if key not in params:
                click.echo(f"config {path}:{lineno}: unknown key {key!r}",
                           err=True)
                sys.exit(2)
            opt, val = params[key], val.strip()
            values[opt.name] = val.split(",") if opt.multiple else val
    ctx.default_map = values


def _emit(text: str, out: str | None = None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        # the current sys.stdout, not click.echo: click would scan the text
        # for ANSI codes, which JSON and CSV never hold, and caching a stream
        # it resolved itself would keep every redirected output alive
        sys.stdout.write(text)
        sys.stdout.flush()


def _dumps_runs(body: dict, batch: Batch) -> str:
    """json.dumps(body, indent=2) and a newline, with "runs", the batch's
    transcript-free rows, as its last key.  Indented encoding is pure
    Python, so each of the batch's distinct outcomes (sampled batches share
    a handful) is encoded once, and so is each distinct pair state, the
    bulk of a row; the runs' rows are gathered by the batch's slots.  The
    text is built by one join, as a batch's output can run to megabytes."""
    pairs, blocks = {}, []
    for o in batch.distinct:
        row, pair = o.to_json_dict(include_transcript=False), o.anonymous_entanglement
        if pair is None:
            text = json.dumps(row, indent=2)
        else:  # the pair is the last key, so its 0 placeholder the last 0
            if id(pair) not in pairs:  # the batch keeps every pair alive
                pairs[id(pair)] = json.dumps(row["anonymous_entanglement"],
                                             indent=2).replace("\n", "\n  ")
            head, tail = json.dumps({**row, "anonymous_entanglement": 0},
                                    indent=2).rsplit("0", 1)
            text = head + pairs[id(pair)] + tail
        blocks.append(text.replace("\n", "\n    "))
    del pairs  # copied into the blocks; freed before the join
    rows = np.array(blocks, dtype=object)[batch.slots].tolist()
    # "runs" is the last key, so the 0 placeholder is the text's last 0
    head, tail = json.dumps({**body, "runs": [0]}, indent=2).rsplit("0", 1)
    rows[0] = head + rows[0]
    rows[-1] += tail + "\n"
    return ",\n    ".join(rows)


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


def _uniform(n: int, channel: QuantumChannel, sender: int = 1,
             receiver: int = 2, **kw) -> NetworkConfig:
    """An n-node network with the same channel on every qubit."""
    return NetworkConfig(n_nodes=n, sender=sender, receiver=receiver,
                         per_qubit_channels=dict.fromkeys(range(1, n + 1), channel),
                         **kw)


def _network(nodes: int, sender: int, receiver: int, channel_spec: str,
             overrides, lost: str, **kw) -> NetworkConfig:
    """The network of a command's options: the channel map, then the lost
    nodes, then the configuration are checked, and a bad one is a usage
    error."""
    try:
        channels = parse_channel_map(channel_spec, overrides, range(1, nodes + 1))
        return NetworkConfig(n_nodes=nodes, sender=sender, receiver=receiver,
                             per_qubit_channels=channels,
                             lost_nodes=frozenset(_parse_node_list(lost)), **kw)
    except ValueError as exc:
        raise click.UsageError(str(exc))


_config_option = click.option(
    "--config", type=click.Path(exists=True, dir_okay=False), is_eager=True,
    expose_value=False, callback=_load_config,
    help="key = value defaults file")


class _Main(click.Group):
    """The command group.  Every command's refusals reach its invoke as
    exceptions and leave as `error: <message>`: exit 1 when the protocol
    cannot run at all, 2 for any other rejected input or unwritable path."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (ProtocolImpossibleError, ValueError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1 if isinstance(exc, ProtocolImpossibleError) else 2)


@click.group(cls=_Main)
@click.version_option(version=__version__, prog_name="anonqnet")
def main():
    """Simulation and analysis of anonymous quantum transmission."""


# ---------------------------------------------------------------------------
# sweep


def _sweep_row(protocol: str, channel: QuantumChannel, n: int, mode: str,
               fids: dict) -> dict:
    """One (protocol, N, q) row; the exact columns read the engine's pair.
    fids keeps the command's pair fidelities, so W_loss reuses its W row's."""
    family, q = channel.name, channel.params["q"]
    row = {"protocol": protocol, "channel": family, "N": n, "q": q, "mode": mode}
    if mode in ("analytic", "both"):
        rep = fidelity_report(protocol, family, q, n)
        row.update(F_AE=rep.fidelity, P_success=rep.success_probability, useful=rep.useful)
    if mode in ("exact", "both"):
        if protocol == "W_loss":
            f_exact = w_loss_branch_average_dense(channel, n, fids.get(("W", n, q)))
            if mode == "exact":  # the lost network's weight is printed here only
                p_exact = exact_pair(_uniform(n, channel, lost_nodes={n}), "W")[0]
        else:
            p_exact, pair = exact_pair(_uniform(n, channel), protocol)
            f_exact = fids[protocol, n, q] = fidelity_with_pure(pair, pair_target(protocol))
        if mode == "exact":
            row.update(F_AE=f_exact, P_success=p_exact, useful=f_exact > 0.5)
        else:
            row.update(F_AE_exact=f_exact, delta=abs(row["F_AE"] - f_exact))
    return row


@main.command()
@click.option("--protocol",
              type=click.Choice(["W", "GHZ", "W_loss", "all"]), default="W")
@click.option("--channel", "channel_family",
              type=click.Choice(["dephasing", "depolarizing"]),
              default="depolarizing")
@click.option("--q", type=click.FloatRange(0, 1), default=None,
              help="single noise value")
@click.option("--q-range", default=None, help="a:b:step grid of q values")
@click.option("--nodes", type=int, default=None, help="single network size")
@click.option("--n-range", default=None, help="a:b[:step] grid of sizes")
@click.option("--mode", type=click.Choice(["analytic", "exact", "both"]),
              default="analytic")
@click.option("--seed", type=int, default=0)
@click.option("--workers", type=int, default=4, hidden=True,
              help="accepted for old invocations; has no effect")
@click.option("--json", "as_json", is_flag=True, default=False)
@click.option("--out", default=None, help="write output to this file")
@_config_option
def sweep(protocol, channel_family, q, q_range, nodes, n_range, mode, seed,
          workers, as_json, out):
    """Tabulate pair fidelity and success probability over (N, q)."""

    qs = [q] if q is not None else _parse_steps(q_range or "0:1:0.1", "q")
    if not all(0 <= qq <= 1 for qq in qs):  # FloatRange admits nan
        flag = f"--q {q!r}" if q is not None else f"--q-range {q_range!r}"
        raise click.UsageError(f"{flag} leaves [0, 1]")
    ns = [nodes] if nodes is not None else _parse_steps(
        n_range or "4:8", "nodes", integer=True)
    if len(ns) * len(qs) > MAX_GRID_POINTS:
        raise click.UsageError(f"the (N, q) grid has over {MAX_GRID_POINTS} points")
    if mode != "analytic" and max(ns) > MAX_NODES:
        raise click.UsageError(f"exact tables are capped at {MAX_NODES} nodes")
    protocols = ["W", "GHZ", "W_loss"] if protocol == "all" else [protocol]
    for p in protocols:
        lo = 4 if p != "GHZ" else 3
        for n in ns:
            if n < lo:
                raise click.UsageError(f"{p} needs at least {lo} nodes")

    make = dephasing if channel_family == "dephasing" else depolarizing
    channels = [make(qq) for qq in qs]
    fids = {}  # W rows come before W_loss rows
    rows = [_sweep_row(p, channel, n, mode, fids)
            for p in protocols for n in ns for channel in channels]

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
@click.option("--n-range", default="4:200", help="a:b[:step] grid of sizes")
@click.option("--channel", "channel_family",
              type=click.Choice(["dephasing", "depolarizing"]),
              default="depolarizing")
@click.option("--json", "as_json", is_flag=True, default=False)
@click.option("--out", default=None)
@_config_option
def threshold(n_range, channel_family, as_json, out):
    """Usefulness thresholds q* per size and the W/GHZ crossover."""
    ns = _parse_steps(n_range, "nodes", integer=True)
    if any(n < 4 for n in ns):
        raise click.UsageError("thresholds start at 4 nodes")

    depol = channel_family == "depolarizing"
    # one bisection per family serves the table and the crossover's 4..400
    # (a set union: np.union1d would load numpy.ma)
    grid = np.array(sorted({*ns, *range(4, 401 if depol else 4)}))
    qw, qg = (threshold_q((p, channel_family), grid) for p in ("W", "GHZ"))
    cross = crossover_n(table=(grid, qw, qg)) if depol else None
    at = np.searchsorted(grid, ns)
    rows = [{"N": n, "qstar_W": w, "qstar_GHZ": g, "W_better": w < g}
            for n, w, g in zip(ns, qw[at].tolist(), qg[at].tolist())]
    notes = ([] if cross is None else
             [f"# crossover: smallest N with qstar_W > qstar_GHZ = {cross}"])
    _emit_table({"command": "threshold", "channel": channel_family}, rows,
                ["N", "qstar_W", "qstar_GHZ", "W_better"], as_json, out,
                notes=notes, extra={"crossover_n": cross})


# ---------------------------------------------------------------------------
# relay


def _pair_fidelity(config: NetworkConfig, protocol: str) -> float:
    """The fidelity of an exact run's pair with its protocol's target."""
    return fidelity_with_pure(exact_pair(config, protocol)[1], pair_target(protocol))


def _relay_point(n: int, s: int, r: int, channel: QuantumChannel, mode: str) -> dict:
    """One placement's cells at one channel, keyed by column label; the
    exact cell reads the engine's pair."""
    q = channel.params["q"]
    label, cells = f"F_q{_fnum(q)}", {}
    if mode in ("analytic", "both"):
        cells[label] = f_ae_relay_depolarizing(q, n, s, r)
    if mode in ("exact", "both"):
        cells[label + "_exact" if mode == "both" else label] = _pair_fidelity(
            _uniform(n, channel, s, r), "relay")
    return cells


@main.command()
@click.option("--nodes", type=click.IntRange(4, MAX_NODES), default=6)
@click.option("--q", "q_values", type=click.FloatRange(0, 1), multiple=True,
              default=(0.8, 0.95))
@click.option("--sender", type=int, default=1)
@click.option("--receiver", type=int, default=None)
@click.option("--mode", type=click.Choice(["analytic", "exact", "both"]),
              default="analytic")
@click.option("--workers", type=int, default=4, hidden=True,
              help="accepted for old invocations; has no effect")
@click.option("--json", "as_json", is_flag=True, default=False)
@click.option("--out", default=None)
@_config_option
def relay(nodes, q_values, sender, receiver, mode, workers, as_json, out):
    """Chain-relay pair fidelity per (sender, receiver) placement.

    Without --receiver, sweeps every placement for the given sender.
    Uniform depolarizing noise; analytic mode uses the closed form.
    """
    if not 1 <= sender <= nodes:
        raise click.UsageError("sender outside the chain")
    if receiver is not None and (not 1 <= receiver <= nodes
                                 or receiver == sender):
        raise click.UsageError("receiver must be a distinct chain position")

    by_label = {}  # a --q that prints like an earlier one is the same column
    for qq in q_values:
        by_label.setdefault(_fnum(qq), qq)
    pairs = ([(sender, receiver)] if receiver is not None
             else [(sender, r) for r in range(1, nodes + 1) if r != sender])
    channels = [depolarizing(qq) for qq in by_label.values()]
    rows = []
    for s, r in pairs:
        row = {"sender": s, "receiver": r}
        for channel in channels:
            row.update(_relay_point(nodes, s, r, channel, mode))
        rows.append(row)
    notes = [f"# baseline q={label}:"
             f" F_W={_fnum(f_ae_w_depolarizing(qq, nodes))}"
             f" F_GHZ={_fnum(f_ae_ghz_depolarizing(qq, nodes))}"
             for label, qq in by_label.items()]
    meta = {"command": "relay", "channel": "depolarizing", "nodes": nodes,
            "mode": mode}
    _emit_table(meta, rows, list(rows[0]), as_json, out, notes=notes)


# ---------------------------------------------------------------------------
# security


@main.command()
@click.option("--nodes", type=click.IntRange(max=MAX_NODES), default=5)
@click.option("--sender", type=int, default=1)
@click.option("--receiver", type=int, default=2)
@click.option("--adversaries", default="", help="comma-separated node ids")
@click.option("--role", type=click.Choice(["sender", "receiver", "both"]),
              default="sender")
@click.option("--channel", "channel_spec", default="identity",
              help="base channel, e.g. depolarizing:q=0.8")
@click.option("--channel-node", "channel_overrides", multiple=True,
              help="per-node override, e.g. 3=depolarizing:q=0.75")
@click.option("--lost", default="", help="comma-separated lost node ids")
@click.option("--out", default=None)
@_config_option
def security(nodes, sender, receiver, adversaries, role, channel_spec,
             channel_overrides, lost, out):
    """Audit anonymity against a passive coalition; exit 1 on violation."""

    adv = sorted(set(_parse_node_list(adversaries)))
    if not adv:
        raise click.UsageError("need at least one adversary node")
    net = _network(nodes, sender, receiver, channel_spec, channel_overrides, lost)
    base = parse_channel_spec(channel_spec)  # valid: parsed just above

    roles = ["sender", "receiver"] if role == "both" else [role]
    reports = {r: security_report(net, adv, r, base) for r in roles}
    body = {
        "tool": "anonqnet", "version": __version__,
        "config": {"nodes": nodes, "sender": sender, "receiver": receiver,
                   "adversaries": adv, "channel": channel_spec,
                   "overrides": list(channel_overrides), "lost": lost or ""},
        "reports": reports,
        "holds": all(rep["holds"] for rep in reports.values()),
    }
    _emit(json.dumps(body, indent=2) + "\n", out)
    if not body["holds"]:
        sys.exit(1)


# ---------------------------------------------------------------------------
# run


@main.command()
@click.option("--protocol", type=click.Choice(["W", "GHZ", "relay"]),
              default="W")
@click.option("--nodes", type=click.IntRange(max=MAX_NODES), default=5)
@click.option("--sender", type=int, default=1)
@click.option("--receiver", type=int, default=2)
@click.option("--channel", "channel_spec", default="identity")
@click.option("--channel-node", "channel_overrides", multiple=True)
@click.option("--lost", default="")
@click.option("--seed", type=int, default=0)
@click.option("--mode", type=click.Choice(["exact", "sampling"]),
              default="exact")
@click.option("--samples", type=click.IntRange(1, MAX_SAMPLES), default=1)
@click.option("--message", type=click.Choice(["plus", "zero", "one"]),
              default="plus")
@click.option("--transcript", "transcript_path", default=None,
              help="also write the transcript as JSONL")
@click.option("--out", default=None)
@_config_option
def run(protocol, nodes, sender, receiver, channel_spec, channel_overrides,
        lost, seed, mode, samples, message, transcript_path, out):
    """Execute a protocol run end to end and print the outcome as JSON."""
    if samples > 1 and mode == "exact":
        raise click.UsageError("--samples needs --mode sampling")
    if samples > 1 and transcript_path:
        raise click.UsageError("--transcript records a single run only")

    amps = {"plus": np.array([1, 1]) / np.sqrt(2),
            "zero": np.array([1, 0]),
            "one": np.array([0, 1])}[message].astype(complex)
    net = _network(nodes, sender, receiver, channel_spec, channel_overrides,
                   lost, seed=seed, message_state=Ket(amps, ("message",)))

    runner = {"W": run_protocol1, "GHZ": run_ghz_protocol,
              "relay": run_relay_protocol}[protocol]
    body = {"tool": "anonqnet", "version": __version__, "protocol": protocol,
            "seed": seed, "mode": mode}
    if samples == 1:
        outcome = runner(net, mode=mode)
        body["outcome"] = outcome.to_json_dict()
        if transcript_path:
            with open(transcript_path, "w") as fh:
                fh.write(outcome.transcript.to_jsonl() + "\n")
    else:
        sample = {"W": sample_protocol1_runs, "GHZ": sample_ghz_runs,
                  "relay": sample_relay_runs}[protocol]
        outcomes, body["aggregate"] = sample(net, samples)
    _emit(json.dumps(body, indent=2) + "\n" if samples == 1
          else _dumps_runs(body, outcomes), out)


# ---------------------------------------------------------------------------
# oracle-check


# name -> (computed value, reference value, tolerance on their distance);
# each value is a thunk, so a check that raises fails alone
_ORACLE_CHECKS = {
    "w-depolarizing-closed-vs-dense": (
        lambda: _pair_fidelity(_uniform(5, depolarizing(0.9)), "W"),
        lambda: f_ae_w_depolarizing(0.9, 5), 1e-10),
    "w-dephasing-closed-vs-dense": (
        lambda: _pair_fidelity(_uniform(4, dephasing(0.85)), "W"),
        lambda: f_ae_w_dephasing(0.85), 1e-10),
    "ghz-depolarizing-closed-vs-structured": (
        lambda: structured_fidelity("GHZ", depolarizing(0.9), 5),
        lambda: f_ae_ghz_depolarizing(0.9, 5), 1e-10),
    "ghz-dephasing-closed-vs-dense": (
        lambda: _pair_fidelity(_uniform(6, dephasing(0.8)), "GHZ"),
        lambda: f_ae_ghz_dephasing(0.8, 6), 1e-10),
    "w-success-probability-depolarizing": (
        lambda: exact_pair(_uniform(6, depolarizing(0.7)), "W")[0],
        lambda: p_success_w("depolarizing", 0.7, 6), 1e-12),
    "w-success-probability-dephasing-2-over-n": (
        lambda: exact_pair(_uniform(5, dephasing(0.6)), "W")[0],
        lambda: 2 / 5, 1e-12),
    "relay-closed-vs-dense": (
        lambda: _pair_fidelity(_uniform(5, depolarizing(0.9), 2, 4), "relay"),
        lambda: f_ae_relay_depolarizing(0.9, 5, 2, 4), 1e-10),
    "teleport-noiseless-delivery": (
        lambda: run_protocol1(_uniform(4, identity_channel(), receiver=3),
                              mode="exact").delivered_fidelity,
        lambda: 1.0, 1e-12),
    "loss-noiseless-conditional-two-thirds": (
        lambda: _pair_fidelity(_uniform(5, identity_channel(), lost_nodes={5}), "W"),
        lambda: 2 / 3, 1e-12),
    "w-loss-closed-vs-dense-average": (
        lambda: w_loss_branch_average_dense(depolarizing(0.9), 5),
        lambda: f_ae_w_loss("depolarizing", 0.9, 5), 1e-9),
    # at the usefulness threshold the exact pair fidelity is 1/2; N = 183 is
    # the W/GHZ crossover
    "w-threshold-183-exact-half": (
        lambda: _pair_fidelity(_uniform(183, depolarizing(threshold_q(W_DEPOL, 183))), "W"),
        lambda: 0.5, 1e-10),
    "ghz-threshold-183-exact-half": (
        lambda: _pair_fidelity(_uniform(183, depolarizing(threshold_q(GHZ_DEPOL, 183))),
                               "GHZ"),
        lambda: 0.5, 1e-10),
}


@main.command("oracle-check")
def oracle_check():
    """Cross-check closed forms against the exact simulator; exit 1 on
    any disagreement."""
    failures = 0
    for name, (computed, reference, tol) in _ORACLE_CHECKS.items():
        try:
            delta = abs(computed() - reference())
        except Exception as exc:  # a crashed check is a failed check
            _emit(f"FAIL {name}: {exc}\n")
            failures += 1
            continue
        if delta <= tol:
            _emit(f"ok   {name} (delta {delta:.3g} <= {tol:g})\n")
        else:
            _emit(f"FAIL {name} (delta {delta:.3g} > {tol:g})\n")
            failures += 1
    if failures:
        _emit(f"{failures} check(s) failed\n")
        sys.exit(1)
    _emit("all oracle checks passed\n")


if __name__ == "__main__":
    main()
