"""End-to-end benchmark of the `hyperbin` CLI, with a traced per-layer mode.

    python3 perfbench/run.py --workload dp_dense --seed 0 --seconds 30 --trace 0

One run generates the workload's input from the seed (set-up, repeated in
fresh interpreters), then runs passes of the workload's CLI calls in this
process through `hyperbin.cli.main`, one after another (closed loop, one
client, one thread), until the next pass would overrun `--seconds`; it runs
at least two. It checks every output and prints a report followed by one
JSON line with `correct`, `attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics. `--trace 1` alternates untraced
and traced passes and reports the per-layer metrics of the traced ones, the
tracing overhead, and writes the spans to `.perfbench/`. The exit code is 1
when any output check fails and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

DEFAULT_SEED = 0
SETUP_REPEATS = 5
MIN_PASSES = 2
SETUP_TIMEOUT_S = 120
PROBE_INTERVAL_S = 0.1
PROBE_REF_S = 2e-3  # probe loop time that defines the reference speed
PROBE_TABLE_SIZE = 200_000  # list slots (~6 MB of objects) the probe reads
REPORT_UNITS = {"wall_s": "s", "events_per_s": "1/s", "wall_ref_s": "s", "events_per_ref_s": "1/s"}
DP_WORKLOADS = ("dp_dense", "dp_sparse")
PRIMARY_METHOD = {"dp_dense": "exact_dp", "dp_sparse": "exact_dp", "greedy_ingest": "greedy"}


# every workload is single-threaded; keep numpy's BLAS pool from spinning up
# threads in this process and the set-up children
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


class BenchError(Exception):
    """The benchmark cannot run (missing sources, failed set-up)."""


class Checks:
    """Output checks; every check counts toward attempted, a failure toward failed."""

    def __init__(self):
        self.rows: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.rows.append((name, bool(ok), detail))

    @property
    def attempted(self) -> int:
        return len(self.rows)

    @property
    def failed(self) -> int:
        return sum(not ok for _, ok, _ in self.rows)


def environment(workload: str, seed: int, seconds: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "run_seconds": seconds,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def run_setup(workload: str, seed: int, csv_path: Path) -> tuple[list[dict], list[str]]:
    """Generate the input SETUP_REPEATS times, each in a fresh interpreter."""
    timings, digests = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
             "--seed", str(seed), "--output", str(csv_path)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up failed ({proc.returncode}): {proc.stderr.strip()}")
        timings.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        digests.append(hashlib.sha256(csv_path.read_bytes()).hexdigest())
    return timings, digests


def import_hyperbin():
    if not (SRC / "hyperbin" / "__init__.py").is_file():
        raise BenchError(f"no hyperbin sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hyperbin
    from hyperbin import cli

    if Path(hyperbin.__file__).resolve().parent != (SRC / "hyperbin").resolve():
        raise BenchError(f"imported hyperbin from {hyperbin.__file__}, not {SRC}")
    return cli


def probe_tables() -> tuple[list[float], dict[int, int]]:
    """The data `_probe_loop` reads: a float list and an int dict larger than
    the CPU's private caches."""
    return [i * 0.5 for i in range(PROBE_TABLE_SIZE)], {i * 31: i for i in range(PROBE_TABLE_SIZE // 10)}


def _probe_loop(table: list[float], index: dict[int, int]) -> None:
    # a fixed slice of interpreter work in two parts: a tight dict, float and
    # lgamma loop that stays in cache, which gains most from the machine's
    # fast state (as dp_sparse does), and scattered reads of `table` and
    # `index`, which gain less (as dp_dense does)
    counts: dict[int, int] = {}
    acc = 0.0
    for i in range(2000):
        k = (i * 7919) & 255
        c = counts.get(k, 0) + 1
        counts[k] = c
        acc += math.lgamma(c + 0.5) - math.log2(k + 1)
    n, m = len(table), len(index)
    for i in range(700):
        acc += table[(i * 104729 + int(acc)) % n] * 1e-9
        c = index[((i * 7919) % m) * 31]
        acc += math.lgamma((c & 1023) + 0.5) * 1e-9


class SpeedProbe:
    """Measures how fast the CPU runs Python while a pass runs.

    A wall-clock timer interrupts the pass every PROBE_INTERVAL_S and times
    `_probe_loop`, which never calls hyperbin. `speed()` is PROBE_REF_S over
    the median loop time, so `wall * speed()` is the pass time on a CPU that
    runs the loop in PROBE_REF_S.
    """

    def __init__(self, tables: tuple[list[float], dict[int, int]]):
        self.tables = tables
        self.samples: list[float] = []

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        _probe_loop(*self.tables)
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def speed(self) -> float:
        return PROBE_REF_S / statistics.median(self.samples)


def computed_counters(d, csv_path: Path, runs_dp: bool) -> dict:
    """Work counts that follow from the discretized input alone."""
    counts = d.events_in_step.tolist()
    T = d.T
    P = sum(c > 0 for c in counts)
    return {
        "N": d.base.N,
        "S": d.base.S,
        "D": d.base.D,
        "T": T,
        "P": P,
        "csv_bytes": csv_path.stat().st_size,
        # row j of the DP is carried over, one O(1) update per cell i < j-1,
        # when step j-1 is eventless; otherwise [i, j) is evaluated in full
        # for every event-bearing i < j. Every row scans j cells for its minimum.
        "dp_carry_rows": T - P if runs_dp else 0,
        "dp_carry_cells": sum(t for t, c in enumerate(counts) if c == 0) if runs_dp else 0,
        "dp_full_evals": P * (P + 1) // 2 if runs_dp else 0,
        "dp_scan_cells": T * (T + 1) // 2 if runs_dp else 0,
    }


def run_pass(cli, calls: list[list[str]], checks: Checks, tracer=None) -> float:
    """Run one pass of CLI calls; return its wall seconds."""
    wall = 0.0
    for run_id, argv in enumerate(calls):
        entry = cli.main
        if tracer is not None:
            tracer.run_id = run_id
            entry = tracer.root("cli.main", cli.main)
        t0 = time.perf_counter()
        try:
            rc = entry(argv)
        except Exception:  # a crash is a failed call, reported with its traceback
            rc = "exception: " + traceback.format_exc().strip().splitlines()[-1]
        wall += time.perf_counter() - t0
        checks.add(f"exit code {argv[0]}", rc == 0, f"exit {rc}")
    return wall


def read_outputs(pass_dir: Path) -> dict[str, str]:
    """Each output of a pass as text; result documents without runtime_seconds."""
    from checks import without_runtime

    out = {}
    for path in sorted(pass_dir.iterdir()):
        text = path.read_text(encoding="utf-8")
        out[path.name] = without_runtime(json.loads(text)) if path.name == "result.json" else text
    return out


def answer_checks(workload: str, seed: int, d, doc: dict, checks: Checks) -> None:
    from checks import DL_TOL_BITS, canonical_upper_bound, rederive_dl
    from hyperbin.encoding import total_dl_exact
    from hyperbin.events import Binning
    from hyperbin.optimize import solve_greedy

    def guarded(name, check, *args):
        # a result document the check cannot even evaluate fails the check
        try:
            checks.add(name, *check(*args))
        except (ValueError, ArithmeticError, KeyError, TypeError) as exc:
            checks.add(name, False, f"{type(exc).__name__}: {exc}")

    for res in doc["results"]:
        guarded("dl re-derives from tau", rederive_dl, d, res)
    if workload not in DP_WORKLOADS:
        return
    exact = next((r for r in doc["results"] if r["method"] == "exact_dp"), None)
    if exact is None:
        checks.add("result has exact_dp", False)
        return
    guarded("exact_dp <= DL(canonical tau)", canonical_upper_bound, d, exact)
    dl = exact["dl"]["decoupled"]
    greedy = solve_greedy(d).dl.decoupled_total
    single = total_dl_exact(d, Binning((d.T,))).decoupled_total
    checks.add("exact_dp <= greedy", dl <= greedy + DL_TOL_BITS, f"{dl:.6f} vs {greedy:.6f}")
    checks.add("exact_dp <= K=1", dl <= single + DL_TOL_BITS, f"{dl:.6f} vs {single:.6f}")
    if seed == DEFAULT_SEED:
        gold = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))[workload]
        same_tau = exact["tau"] == gold["tau"]
        gap = abs(dl - gold["dl_bits"])
        checks.add("golden tau and dl", same_tau and gap <= DL_TOL_BITS,
                   f"tau {'identical' if same_tau else 'differs'}, |dl - golden| = {gap:.3g} bits")


def code_digest() -> str:
    """Digest of the package and benchmark sources, which fix the inputs."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def counters_repeat(workload: str, seed: int, counters: dict, digest: str, checks: Checks) -> None:
    """Computed counters and the input digest must equal those of earlier
    runs of the same code in this checkout."""
    path = OUT / "counters" / f"{workload}-seed{seed}-{code_digest()}.json"
    record = {"counters": counters, "csv_sha256": digest}
    if path.is_file():
        before = json.loads(path.read_text(encoding="utf-8"))
        checks.add("computed counters repeat run to run", before == record, str(path.name))
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record, sort_keys=True), encoding="utf-8")


def layer_metrics(tracer, doc: dict, pass_dir: Path, counters: dict, generate_s: float) -> dict:
    """Per-layer metrics of one traced pass."""
    rows = tracer.by_name()

    def total(name):
        return rows.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return rows.get(name, {}).get("calls", 0)

    results = doc["results"]
    search = sum(r["runtime_seconds"] for r in results if r["method"] in ("exact_dp", "greedy"))
    pops = tracer.heap["pop"]
    greedy_ran = any(r["method"] == "greedy" for r in results)
    live = counters["P"] - 1 if greedy_ran else 0
    m = {
        "events.read_csv_s": total("events.read_events_csv"),
        "events.discretize_s": total("events.discretize"),
        "events.snapshot_s": total("events.build_snapshot"),
        "events.csv_bytes": counters["csv_bytes"],
        "encoding.engine_build_s": total("encoding.engine_build"),
        "encoding.interval_cost_calls": calls("encoding.interval_cost"),
        "encoding.interval_cost_s": total("encoding.interval_cost"),
        "encoding.add_counts_calls": calls("encoding.add_counts"),
        "encoding.merged_calls": calls("encoding.merged"),
        "encoding.merged_s": total("encoding.merged"),
        "encoding.total_dl_exact_calls": calls("encoding.total_dl_exact"),
        "encoding.total_dl_exact_s": total("encoding.total_dl_exact"),
        "combinatorics.ec_bits_calls": calls("combinatorics.ec_bits"),
        "combinatorics.ec_bits_s": total("combinatorics.ec_bits"),
        "optimize.search_s": search,
        "optimize.finish_s": total("optimize.solve_dp") + total("optimize.solve_greedy") - search,
        "optimize.occupied_steps": counters["P"],
        "optimize.dp_carry_rows": counters["dp_carry_rows"],
        "optimize.dp_carry_cells": counters["dp_carry_cells"],
        "optimize.dp_full_evals": counters["dp_full_evals"],
        "optimize.dp_scan_cells": counters["dp_scan_cells"],
        "optimize.greedy_heap_pops": pops,
        "optimize.greedy_stale_pops": pops - live,
        "optimize.greedy_useful_ratio": live / pops if pops else 1.0,
        "optimize.baselines_s": total("optimize.baseline"),
        "cli.result_entry_s": total("cli._result_entry"),
        "cli.json_write_s": total("cli.json_dump"),
        "cli.series_csv_s": total("cli._write_series_csv"),
        "cli.output_bytes": sum(p.stat().st_size for p in pass_dir.iterdir()),
        "cli.metrics_cmd_s": total("cli.cmd_metrics"),
        "metrics.ccami_s": total("metrics.ccami"),
        "metrics.jsd_edges_s": total("metrics.jsd_edges"),
        "metrics.gap_ratio_s": total("metrics.gap_ratio_alpha"),
        "synth.generate_s": generate_s,
        "trace.spans": len(tracer.spans),
    }
    for layer, secs in tracer.layer_self().items():
        m[f"{layer}.self_s"] = secs
    return m


def median_of(values: list[dict], key: str) -> float:
    return statistics.median(v[key] for v in values)


def run(args) -> int:
    from workloads import cli_calls

    workload, seed, trace = args.workload, args.seed, args.trace
    cli = import_hyperbin()
    from hyperbin.events import discretize, read_events_csv

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    unit_of = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    why = next(w["why"] for w in bench["workloads"] if w["name"] == workload)

    out = OUT / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(out, ignore_errors=True)
    work = out / "work"
    work.mkdir(parents=True)
    csv_path = out / "input.csv"
    setups, digests = run_setup(workload, seed, csv_path)
    generate_s = median_of(setups, "generate_s")

    checks = Checks()
    checks.add("set-up is deterministic", len(set(digests)) == 1, f"{len(set(digests))} distinct inputs")
    calls = cli_calls(workload, csv_path, work)
    untraced_walls, traced_walls, layer_rows = [], [], []
    untraced_ref, traced_ref = [], []  # pass walls at the reference speed
    tables = probe_tables()
    reference = first_doc = tracer = None
    started = time.perf_counter()
    while True:
        n = len(untraced_walls) + len(traced_walls)
        traced = bool(trace) and n % 2 == 1
        for path in work.iterdir():
            path.unlink()
        if traced:
            from tracing import Tracer

            with SpeedProbe(tables) as probe, Tracer() as tracer:
                traced_walls.append(run_pass(cli, calls, checks, tracer))
            traced_ref.append(traced_walls[-1] * probe.speed())
        else:
            with SpeedProbe(tables) as probe:
                untraced_walls.append(run_pass(cli, calls, checks))
            untraced_ref.append(untraced_walls[-1] * probe.speed())
        outputs = read_outputs(work)
        if reference is None:
            reference = outputs
            first_doc = json.loads((work / "result.json").read_text(encoding="utf-8"))
            d = discretize(read_events_csv(csv_path), first_doc["T"])
            counters = computed_counters(d, csv_path, workload in DP_WORKLOADS)
        else:
            label = "traced outputs equal untraced" if traced else "outputs equal pass 0"
            differ = [k for k in reference.keys() | outputs.keys() if outputs.get(k) != reference.get(k)]
            checks.add(label, not differ, f"pass {n}: differs in {', '.join(sorted(differ))}")
        if traced:
            doc = json.loads((work / "result.json").read_text(encoding="utf-8"))
            layer_rows.append(layer_metrics(tracer, doc, work, counters, generate_s))
            tracer.dump(out / f"spans-pass{n}.json")
            if tracer.skipped:
                print("trace: not found, not traced: " + ", ".join(tracer.skipped))
        elapsed = time.perf_counter() - started
        if n + 1 >= MIN_PASSES and elapsed + statistics.median(untraced_walls + traced_walls) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    answer_checks(workload, seed, d, first_doc, checks)
    counters_repeat(workload, seed, counters, digests[0], checks)
    wall_s = statistics.median(untraced_walls)
    if trace:
        metrics = {key: statistics.median(row[key] for row in layer_rows) for key in layer_rows[0]}
        for key in (k for k in layer_rows[0] if unit_of[k] == "count"):
            checks.add(f"count repeats across traced passes: {key}", len({row[key] for row in layer_rows}) == 1)
        if workload in DP_WORKLOADS:
            measured = layer_rows[0]["encoding.interval_cost_calls"]
            checks.add("interval_cost calls equal computed dp_full_evals",
                       measured == counters["dp_full_evals"], f"{measured} vs {counters['dp_full_evals']}")
        wall_ref_s = statistics.median(untraced_ref)
        traced_ref_s = statistics.median(traced_ref)
        metrics["trace.wall_ref_s"] = traced_ref_s
        metrics["trace.overhead_s"] = traced_ref_s - wall_ref_s
        metrics["trace.overhead_frac"] = (traced_ref_s - wall_ref_s) / wall_ref_s
    else:
        primary = next(r for r in first_doc["results"] if r["method"] == PRIMARY_METHOD[workload])
        wall_ref_s = statistics.median(untraced_ref)
        metrics = {
            "wall_ref_s": wall_ref_s,
            "events_per_ref_s": counters["N"] / wall_ref_s,
            "wall_s": wall_s,
            "events_per_s": counters["N"] / wall_s,
            "setup_s": median_of(setups, "setup_s"),
            "peak_rss_mb": peak_rss_mb,
            "dl_bits": primary["dl"]["decoupled"],
        }
    missing = set(unit_of) - set(metrics)
    if missing:
        raise BenchError(f"metrics declared in BENCHMARK.json but not measured: {sorted(missing)}")

    record = {
        "environment": environment(workload, seed, args.seconds),
        "input": {k: counters[k] for k in ("N", "S", "D", "T", "P", "csv_bytes")} | {"csv_sha256": digests[0]},
        "computed_counters": counters,
        "untraced_pass_walls_s": untraced_walls,
        "traced_pass_walls_s": traced_walls,
        "untraced_pass_walls_ref_s": untraced_ref,
        "traced_pass_walls_ref_s": traced_ref,
        "setup_runs": setups,
        "metrics": metrics,
        "checks": [{"name": n, "ok": ok, "detail": det} for n, ok, det in checks.rows],
        "failed_frac": checks.failed / checks.attempted,
    }
    (out / "record.json").write_text(json.dumps(record, indent=2), encoding="utf-8")
    report(record, why, unit_of, tracer)

    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": metrics[k], "unit": unit_of[k]} for k in unit_of},
    }))
    return 0 if checks.failed == 0 else 1


def report(record: dict, why: str, unit_of: dict, tracer) -> None:
    env, inp = record["environment"], record["input"]
    walls = record["untraced_pass_walls_s"]
    print(f"workload {env['workload']} (seed {env['seed']}): {why}")
    print("environment: " + ", ".join(f"{k}={env[k]}" for k in ("python", "numpy", "nproc", "cpu_model", "platform")))
    print("input (computed): " + ", ".join(f"{k}={v}" for k, v in inp.items()))
    print("computed counters: " + ", ".join(f"{k}={v}" for k, v in record["computed_counters"].items()))
    print(f"untraced passes: {len(walls)}; wall_s median {statistics.median(walls):.4f} "
          f"min {min(walls):.4f} max {max(walls):.4f}")
    if record["traced_pass_walls_s"]:
        print(f"traced passes: {len(record['traced_pass_walls_s'])}")
    if tracer is not None:
        print(f"spans of the last traced pass ({len(tracer.spans)} spans, written to .perfbench/):")
        print(f"  {'name':34} {'layer':14} {'calls':>9} {'total_s':>10} {'self_s':>10}")
        for name, row in sorted(tracer.by_name().items(), key=lambda kv: -kv[1]["total_s"]):
            print(f"  {name:34} {row['layer']:14} {row['calls']:9d} {row['total_s']:10.4f} {row['self_s']:10.4f}")
    for name, value in record["metrics"].items():
        print(f"  {name:34} {value:16.6f} {unit_of.get(name) or REPORT_UNITS[name]}")
    print(f"  {'failed_frac':34} {record['failed_frac']:16.6f} ratio")
    for row in record["checks"]:
        if not row["ok"]:
            print(f"FAILED check: {row['name']}: {row['detail']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hyperbin end-to-end benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
        if args.seconds < 1:
            raise BenchError("--seconds must be at least 1")
        return run(args)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
