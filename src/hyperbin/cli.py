"""Command-line surface.

Subcommands: `bin` infers binnings from an events CSV, `synth` generates a
synthetic dataset with a planted binning, `sweep` runs reconstruction grids,
`metrics` evaluates and compares stored binning results. Exit codes:
0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .encoding import TABLE_STEPS, total_dl_exact
from .events import (
    Binning,
    CSV_HEADER,
    DiscretizedEvents,
    EventDataError,
    build_snapshot,
    discretize,
    discretize_by_width,
    discretize_on_grid,
    induce_partition,
    read_events_csv,
)
from .metrics import ccami, eta_ratio, gap_ratio_alpha, jsd_edges
from .optimize import (
    BinningResult,
    baseline_uniform_count,
    baseline_uniform_duration,
    solve_dp,
    solve_greedy,
)
from .synth import SynthParams, generate_synthetic

FORMAT_VERSION = 1

DEFAULT_SWEEP_N = (200, 500, 1000)
DEFAULT_SWEEP_T = (50, 500)
DEFAULT_SWEEP_K = (2, 5, 10)
DEFAULT_SWEEP_GAMMA = (0.001, 0.01, 0.1, 1.0)


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; data problems exit 2 (handled in main)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _result_entry(d: DiscretizedEvents, res: BinningResult) -> dict:
    canon = res.binning_canonical
    bounds = canon.bounds
    boundaries = []
    clusters = []
    src_labels = d.base.source_labels
    dst_labels = d.base.dest_labels
    snaps = build_snapshot(d, canon)  # edges in ascending (s, d) order
    for k, (w, snap) in enumerate(zip(canon.widths, snaps)):
        boundaries.append(
            {
                "t_min": d.origin + bounds[k] * d.delta_t,
                "t_max": d.origin + bounds[k + 1] * d.delta_t,
            }
        )
        edges = [[src_labels[s], dst_labels[t], int(wt)] for (s, t), wt in snap.edges.items()]
        clusters.append({"m_k": int(snap.m_k), "tau_k": int(w), "edges": edges})
    return {
        "method": res.method,
        "K": res.K,
        "tau": list(canon.widths),
        "boundaries": boundaries,
        "clusters": clusters,
        "dl": {
            "L0": res.dl.L0_naive,
            "L1": res.dl.L1,
            "L2": res.dl.L2,
            "L3": res.dl.L3,
            "total": res.dl.total,
            "decoupled": res.dl.decoupled_total,
        },
        "eta": res.eta,
        "runtime_seconds": res.runtime_seconds,
    }


def _write_series_csv(path: Path, d: DiscretizedEvents, results: list[BinningResult]) -> None:
    """One row per occupied step and one per maximal eventless run of steps,
    each covering steps [step_start, step_end). A run is split wherever a
    method starts a cluster, so a method's boundary flag is 1 exactly on the
    rows that open one of its clusters."""
    start_sets = [set(res.binning_canonical.bounds[:-1]) for res in results]
    counts = dict(zip(d.occupied_steps.tolist(), d.step_counts.tolist()))
    cuts = sorted({0, d.T}.union(*start_sets, counts, [t + 1 for t in counts]))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["step_start", "step_end", "t_min", "t_max", "events"]
            + [f"{res.method}_boundary" for res in results]
        )
        for a, z in zip(cuts, cuts[1:]):
            writer.writerow(
                [a, z, d.origin + a * d.delta_t, d.origin + z * d.delta_t, counts.get(a, 0)]
                + [int(a in starts) for starts in start_sets]
            )


def _write_json(path: Path, doc: dict) -> None:
    text = json.dumps(doc, indent=2, allow_nan=False) + "\n"  # NaN or inf: exit 2, no file
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def cmd_bin(args: argparse.Namespace) -> Path:
    """Run the selected optimizers (and optionally the naive baselines) on an
    events CSV; write a JSON result document plus a plot-series CSV."""
    ev = read_events_csv(args.input)
    if args.delta_t is not None:
        d = discretize_by_width(ev, args.delta_t)
    else:
        d = discretize(ev, min(ev.N, TABLE_STEPS) if args.T == "auto" else args.T)
    results: list[BinningResult] = []
    if args.method in ("exact", "both"):
        results.append(solve_dp(d))
    if args.method in ("greedy", "both"):
        results.append(solve_greedy(d))
    if args.baselines:
        K = args.K if args.K is not None else results[0].K
        for fn in (baseline_uniform_duration, baseline_uniform_count):
            try:
                results.append(fn(d, K))
            except ValueError as exc:
                print(f"warning: skipping {fn.__name__} at K={K}: {exc}", file=sys.stderr)
    doc = {
        "format_version": FORMAT_VERSION,
        "N": ev.N,
        "S": ev.S,
        "D": ev.D,
        "T": d.T,
        "delta_t": d.delta_t,
        "origin": d.origin,
        "results": [_result_entry(d, res) for res in results],
    }
    out = Path(args.output)
    _write_json(out, doc)
    _write_series_csv(out.with_suffix(".series.csv"), d, results)
    return out


def cmd_synth(args: argparse.Namespace) -> Path:
    """Generate a synthetic dataset; write the events CSV and a sidecar JSON
    with the planted binning."""
    params = SynthParams(
        N=args.N, T=args.T, K=args.K, S=args.S, D=args.D, gamma=args.gamma, seed=args.seed
    )
    res = generate_synthetic(params)
    ev = res.events
    out = Path(args.output)
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for s, t, tm in zip(ev.sources.tolist(), ev.dests.tolist(), ev.times.tolist()):
            writer.writerow([ev.source_labels[s], ev.dest_labels[t], repr(tm)])
    planted = {
        "format_version": FORMAT_VERSION,
        "params": dataclasses.asdict(params),
        "grid": {"origin": 0.0, "delta_t": 1.0, "T": params.T},
        "tau": list(res.binning.widths),
        "m": res.partition.sizes.tolist(),
    }
    _write_json(out.with_suffix(".planted.json"), planted)
    return out


def _sweep_task(task: tuple) -> list[tuple]:
    N, T, K, gamma, rep, S, D, seed, methods = task
    res = generate_synthetic(SynthParams(N=N, T=T, K=K, S=S, D=D, gamma=gamma, seed=seed))
    d = res.discretized
    rows = []
    for method in methods:
        solver = solve_dp if method == "exact_dp" else solve_greedy
        fit = solver(d)
        acc = ccami(fit.partition, res.partition, rng=np.random.default_rng([seed, 1]))
        rows.append((N, T, K, gamma, rep, method, fit.eta, acc, fit.runtime_seconds))
    return rows


def cmd_sweep(args: argparse.Namespace) -> Path:
    """Reconstruction sweep over a parameter grid; one CSV row per
    (grid point, rep, method). Replicates run in a process pool; rows are
    sorted before writing so the output is deterministic."""
    methods = {
        "exact": ("exact_dp",),
        "greedy": ("greedy",),
        "both": ("exact_dp", "greedy"),
    }[args.method]
    combos = [
        (N, T, K, gamma, rep)
        for N in args.N
        for T in args.T
        for K in args.K
        for gamma in args.gamma
        for rep in range(args.reps)
    ]
    seeds = np.random.default_rng(args.seed).integers(2**63, size=len(combos))
    tasks = [
        (N, T, K, gamma, rep, args.S, args.D, int(seed), methods)
        for (N, T, K, gamma, rep), seed in zip(combos, seeds)
    ]
    # a pool forks all its workers at the first submit, used or not
    with ProcessPoolExecutor(max_workers=min(args.jobs, len(tasks))) as pool:
        rows = [row for chunk in pool.map(_sweep_task, tasks) for row in chunk]
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3], r[4], r[5]))
    out = Path(args.output)
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["N", "T", "K", "gamma", "rep", "method", "eta", "ccami", "runtime_seconds"]
        )
        writer.writerows(rows)
    return out


def _load_result_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise EventDataError(f"{path}: not a valid result file: {exc}") from None
    if not isinstance(doc, dict):
        raise EventDataError(f"{path}: not a result document (expected a JSON object)")
    if type(version := doc.get("format_version")) is not int or version != FORMAT_VERSION:
        raise EventDataError(f"{path}: unsupported format_version")
    problem = _first_bad_key(doc)
    if problem is not None:
        raise EventDataError(f"{path}: not a result document: {problem}")
    return doc


# type(), not isinstance(): a bool is neither an int nor a number here
def _count(v) -> bool:
    return type(v) is int and v > 0


def _finite(v) -> bool:
    return type(v) in (int, float) and math.isfinite(v)


def _first_bad_key(doc: dict) -> str | None:
    """What is wrong with the first key cmd_metrics reads that `doc` lacks
    or holds as the wrong kind of value, naming it by a path such as
    results[0].dl.decoupled."""

    def check(obj: dict, prefix: str, keys) -> str | None:
        for key, ok in keys:
            if key not in obj:
                return f"missing key {prefix + key!r}"
            if not ok(obj[key]):
                return f"bad value for key {prefix + key!r}"
        return None

    problem = check(doc, "", [
        ("N", _count), ("S", _count), ("D", _count), ("T", _count),
        ("delta_t", lambda v: _finite(v) and v > 0),
        ("origin", _finite), ("results", lambda v: type(v) is list and v != []),
    ])
    for i, res in enumerate(doc["results"] if problem is None else []):
        res, at = res if type(res) is dict else {}, f"results[{i}]."
        problem = check(res, at, [
            ("method", lambda v: True),
            ("tau", lambda v: type(v) is list and v != [] and all(map(_count, v))
                    and sum(v) == doc["T"]),
            ("K", lambda v: type(v) is int and v == len(res["tau"])),
            ("eta", _finite),
            ("dl", lambda v: type(v) is dict),
        ]) or check(res["dl"], at + "dl.", [("decoupled", _finite)])
        if problem is not None:
            break
    return problem


def cmd_metrics(args: argparse.Namespace) -> Path:
    """Evaluate stored binning results against their dataset: per-result eta
    (stored and re-derived), gap ratio and edge divergence, plus the CCAMI
    and description-length-gap matrices over all stored partitions."""
    docs = [(p, _load_result_file(p)) for p in args.results]
    ref = docs[0][1]
    for p, doc in docs[1:]:
        for key in ("N", "S", "D", "T", "delta_t", "origin"):
            if doc[key] != ref[key]:
                raise EventDataError(
                    f"{p}: {key}={doc[key]} does not match {docs[0][0]} ({ref[key]})"
                )
    ev = read_events_csv(args.input)
    if ev.N != ref["N"] or ev.S != ref["S"] or ev.D != ref["D"]:
        raise EventDataError(
            f"{args.input}: dataset shape does not match the result files"
        )
    d = discretize_on_grid(ev, ref["T"], ref["origin"], ref["delta_t"])
    ref_dl = total_dl_exact(d, Binning((d.T,))).decoupled_total

    entries = []
    partitions = []
    decoupled = []
    for path, doc in docs:
        for res in doc["results"]:
            binning = Binning(tuple(res["tau"]))
            part = induce_partition(d, binning)
            snaps = build_snapshot(d, binning)
            entries.append(
                {
                    "file": str(path),
                    "method": res["method"],
                    "K": res["K"],
                    "eta": res["eta"],
                    "eta_recomputed": eta_ratio(res["dl"]["decoupled"], ref_dl),
                    "alpha": gap_ratio_alpha(ev, part),
                    "jsd_edges": jsd_edges(snaps),
                }
            )
            partitions.append(part)
            decoupled.append(res["dl"]["decoupled"])

    n = len(entries)
    cc = [[1.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            val = ccami(
                partitions[i],
                partitions[j],
                samples=args.samples,
                rng=np.random.default_rng([args.seed, i, j]),
            )
            cc[i][j] = cc[j][i] = val
    gaps = [[decoupled[i] - decoupled[j] for j in range(n)] for i in range(n)]

    out = Path(args.output)
    doc = {"format_version": FORMAT_VERSION, "results": entries, "ccami_matrix": cc, "dl_gap_bits": gaps}
    _write_json(out, doc)
    return out


def _positive_int(text: str) -> int:
    # a count of at least one
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return n


def _positive_float(text: str) -> float:
    # a finite number > 0 (a step width, a concentration)
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def _list_of(item):
    # a non-empty comma-separated list of `item` values
    def parse(text: str) -> list:
        values = [item(x) for x in text.split(",") if x]
        if not values:
            raise argparse.ArgumentTypeError(f"expected a non-empty list, got {text!r}")
        return values

    return parse


def _steps(text: str) -> int | str:
    # "auto" or a positive timestep count
    return text if text == "auto" else _positive_int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hyperbin", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_bin = sub.add_parser("bin", help="infer binnings from an events CSV")
    p_bin.add_argument("--input", required=True)
    p_bin.add_argument("--output", required=True)
    p_bin.add_argument("--T", type=_steps, default="auto", help=f'timestep count or "auto" (min(N, {TABLE_STEPS}))')
    p_bin.add_argument("--delta-t", type=_positive_float, default=None, help="timestep width (overrides --T)")
    p_bin.add_argument("--method", choices=["exact", "greedy", "both"], default="exact")
    p_bin.add_argument("--K", type=_positive_int, default=None, help="cluster count for the baselines (needs --baselines)")
    p_bin.add_argument("--baselines", action="store_true")
    p_bin.set_defaults(run=cmd_bin)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--output", required=True)
    p_synth.add_argument("--N", type=_positive_int, required=True)
    p_synth.add_argument("--T", type=_positive_int, required=True)
    p_synth.add_argument("--K", type=_positive_int, required=True)
    p_synth.add_argument("--S", type=_positive_int, default=5)
    p_synth.add_argument("--D", type=_positive_int, default=5)
    p_synth.add_argument("--gamma", type=_positive_float, required=True)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.set_defaults(run=cmd_synth)

    p_sweep = sub.add_parser("sweep", help="run a reconstruction sweep grid")
    p_sweep.add_argument("--output", required=True)
    p_sweep.add_argument("--N", type=_list_of(_positive_int), default=list(DEFAULT_SWEEP_N))
    p_sweep.add_argument("--T", type=_list_of(_positive_int), default=list(DEFAULT_SWEEP_T))
    p_sweep.add_argument("--K", type=_list_of(_positive_int), default=list(DEFAULT_SWEEP_K))
    p_sweep.add_argument("--gamma", type=_list_of(_positive_float), default=list(DEFAULT_SWEEP_GAMMA))
    p_sweep.add_argument("--S", type=_positive_int, default=5)
    p_sweep.add_argument("--D", type=_positive_int, default=5)
    p_sweep.add_argument("--reps", type=_positive_int, default=30)
    p_sweep.add_argument("--method", choices=["exact", "greedy", "both"], default="both")
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--jobs", type=_positive_int, default=min(8, os.cpu_count() or 1))
    p_sweep.set_defaults(run=cmd_sweep)

    p_metrics = sub.add_parser("metrics", help="evaluate stored binning results")
    p_metrics.add_argument("results", nargs="+", help="binning result JSON files")
    p_metrics.add_argument("--input", required=True, help="the events CSV the results refer to")
    p_metrics.add_argument("--output", required=True)
    p_metrics.add_argument("--samples", type=_positive_int, default=100)
    p_metrics.add_argument("--seed", type=int, default=0)
    p_metrics.set_defaults(run=cmd_metrics)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "bin" and args.K is not None and not args.baselines:
        parser.error("argument --K: sets the baselines' cluster count, so it needs --baselines")
    try:
        args.run(args)
    except (ValueError, OSError) as exc:
        print(f"hyperbin: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
