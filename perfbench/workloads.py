"""Seeded input generators and CLI passes of the benchmark workloads.

Run as a script, it is the benchmark's set-up step: it imports hyperbin for
the first time in a fresh interpreter, generates one workload's input from
the seed, writes the events CSV and prints the timings as one JSON line:

    python3 perfbench/workloads.py --workload dp_dense --seed 0 --output in.csv

Every input is built from `hyperbin.synth.generate_synthetic` blocks with a
fixed planted size and width, so the amount of work a pass does (occupied
steps, interval evaluations) stays nearly the same from seed to seed while
the events themselves change with the seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


# Block layout per workload: (events per block, planted steps per block,
# concentration gamma). The blocks play the part of the planted clusters of
# one synthetic instance with equal sizes and widths.
DP_DENSE = ([250] * 20, 50, 0.1)
GREEDY_INGEST = ([25_000] * 8, 2016, 1.0)
# 500 events on 12 days, one block of 41 or 42 events per day, the days
# 5 apart with up to 2 days of seeded jitter
DP_SPARSE = ([42] * 8 + [41] * 4, 1, 1.0)
SPARSE_SPACING_DAYS = 5
SPARSE_JITTER_DAYS = 3
EPOCH = 1_577_836_800  # 2020-01-01T00:00:00Z
INGEST_STEP_S = 300

WORKLOADS = ("dp_dense", "dp_sparse", "greedy_ingest")


def cli_calls(workload: str, csv_path: Path, out_dir: Path) -> list[list[str]]:
    """The `hyperbin` argument lists of one pass, run one after another."""
    result = str(out_dir / "result.json")
    if workload == "dp_dense":
        return [["bin", "--input", str(csv_path), "--output", result, "--method", "exact", "--T", "1000"]]
    if workload == "dp_sparse":
        return [["bin", "--input", str(csv_path), "--output", result, "--method", "exact", "--T", "5000"]]
    if workload == "greedy_ingest":
        return [
            ["bin", "--input", str(csv_path), "--output", result, "--method", "greedy", "--baselines"],
            ["metrics", result, "--input", str(csv_path), "--output", str(out_dir / "metrics.json")],
        ]
    raise KeyError(workload)


def _sub_seeds(workload: str, seed: int, n: int) -> list[int]:
    import numpy as np

    tag = WORKLOADS.index(workload)
    return [int(s) for s in np.random.SeedSequence([tag, seed]).generate_state(n)]


def _blocks(workload: str, seed: int, layout, generate, params):
    """Concatenated K=1 synthetic blocks: (sources, dests, step) arrays."""
    import numpy as np

    sizes, width, gamma = layout
    src, dst, steps = [], [], []
    for k, (n, sub) in enumerate(zip(sizes, _sub_seeds(workload, seed, len(sizes)))):
        r = generate(params(N=n, T=width, K=1, S=20, D=20, gamma=gamma, seed=sub))
        src.append(r.events.sources)
        dst.append(r.events.dests)
        steps.append(np.floor(r.events.times).astype(np.int64) + k * width)
    return np.concatenate(src), np.concatenate(dst), np.concatenate(steps)


def generate_rows(workload: str, seed: int, generate, params) -> list[tuple[str, str, str]]:
    """The (source, destination, timestamp) rows of one workload's input.

    `generate` and `params` are `hyperbin.synth.generate_synthetic` and
    `SynthParams`, passed in so the caller decides what is timed as synth.
    """
    import numpy as np

    if workload == "dp_dense":
        src, dst, steps = _blocks(workload, seed, DP_DENSE, generate, params)
        times = [repr(t + 0.5) for t in steps.tolist()]
        return [(f"s{s}", f"d{t}", tm) for s, t, tm in zip(src.tolist(), dst.tolist(), times)]
    if workload == "dp_sparse":
        src, dst, block = _blocks(workload, seed, DP_SPARSE, generate, params)
        n_days = len(DP_SPARSE[0])
        rng = np.random.default_rng(_sub_seeds(workload, seed, n_days + 1)[-1])
        days = SPARSE_SPACING_DAYS * np.arange(n_days) + rng.integers(SPARSE_JITTER_DAYS, size=n_days)
        stamps = (EPOCH + 86_400 * days[block]).tolist()
        return [(f"s{s}", f"d{t}", str(tm)) for s, t, tm in zip(src.tolist(), dst.tolist(), stamps)]
    if workload == "greedy_ingest":
        src, dst, steps = _blocks(workload, seed, GREEDY_INGEST, generate, params)
        n_blocks = len(GREEDY_INGEST[0])
        jitter = np.random.default_rng(_sub_seeds(workload, seed, n_blocks + 1)[-1]).integers(
            INGEST_STEP_S, size=len(steps)
        )
        secs = (EPOCH + steps * INGEST_STEP_S + jitter).astype("datetime64[s]")
        stamps = np.datetime_as_string(secs, unit="s").tolist()
        return [
            (f"user{s:03d}", f"venue{t:03d}", f"{tm}Z")
            for s, t, tm in zip(src.tolist(), dst.tolist(), stamps)
        ]
    raise KeyError(workload)


def write_csv(path: Path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("source", "destination", "timestamp"))
        writer.writerows(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--output", required=True)
    args = parser.parse_args(argv)

    if not (SRC / "hyperbin" / "__init__.py").is_file():
        print(f"workloads: no hyperbin sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t_import = time.perf_counter()
    from hyperbin.synth import SynthParams, generate_synthetic

    t_gen = time.perf_counter()
    synth_s = 0.0

    def timed_generate(p):
        nonlocal synth_s
        t = time.perf_counter()
        try:
            return generate_synthetic(p)
        finally:
            synth_s += time.perf_counter() - t

    rows = generate_rows(args.workload, args.seed, timed_generate, SynthParams)
    t_write = time.perf_counter()
    write_csv(Path(args.output), rows)
    t_end = time.perf_counter()
    print(
        json.dumps(
            {
                "import_s": t_gen - t_import,
                "generate_s": synth_s,
                "rows_s": t_write - t_gen,
                "write_s": t_end - t_write,
                "setup_s": t_end - t_import,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
