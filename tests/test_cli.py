import csv
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from datetime import timedelta, timezone
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hyperbin
import hyperbin.events
from helpers import SAMPLE_ROWS, small_grids, valid_binnings
from hyperbin.cli import _write_json, _write_series_csv, main
from hyperbin.optimize import solve_dp

SRC = Path(hyperbin.__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "fixtures" / "golden_cli"


def write_sample_csv(path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["source", "destination", "timestamp"])
        writer.writerows(SAMPLE_ROWS)


def run(*argv):
    return main([str(a) for a in argv])


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


# finite timestamps without a finite grid, and what their error names: the
# span overflows to inf, or the step width (span / auto T) underflows to 0
NO_FINITE_GRID = {
    b"source,destination,timestamp\nu,v,-1e308\nu,v,0\nu,v,1e308\n": "spanning inf",
    b"source,destination,timestamp\nu,v,0\nu,v,5e-324\n": "spanning 5e-324",
    b"source,destination,timestamp\nu,v,0\nu,v,1e-323\nu,v,1e-323\nu,v,0\n": "spanning 1e-323",
}


# label text that CSV must quote or that is not ASCII
LABEL_CHARS = st.sampled_from(['"', ",", "\n", "\r", " ", "é", "雪", "\u2028", "a", "b"])


@st.composite
def timestamps(draw):
    """Timestamp text: any finite float, including subnormals and values
    near the float64 limits, an integer of magnitude up to 1e20, or an ISO-8601
    stamp, naive or with an offset (`Z` for UTC), in extended or basic form."""
    kind = draw(st.sampled_from(["float", "int", "iso"]))
    if kind == "float":
        return repr(draw(st.floats(allow_nan=False, allow_infinity=False)))
    if kind == "int":
        return str(draw(st.integers(-(10**20), 10**20)))
    offset = st.timedeltas(min_value=timedelta(hours=-23, minutes=-59), max_value=timedelta(hours=23, minutes=59))
    dt = draw(st.datetimes(timezones=st.none() | st.builds(timezone, offset)))
    if draw(st.booleans()):
        return f"{dt.year:04}{dt.month:02}{dt.day:02}T{dt:%H%M%S}"  # basic form, no offset
    text = dt.isoformat(sep=draw(st.sampled_from(["T", " "])))
    return text.replace("+00:00", "Z") if draw(st.booleans()) else text


def event_rows():
    label = st.text(LABEL_CHARS, max_size=4) | st.text(max_size=4)
    return st.lists(st.tuples(label, label, timestamps()), min_size=1, max_size=6)


def _no_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


def write_sparse_days_csv(path, seed=0):
    """500 events on 12 distinct days, 5 days apart, over 20 x 20 labels."""
    rng = np.random.default_rng(seed)
    days = 5 * np.arange(12) + rng.integers(3, size=12)
    stamps = 1_577_836_800 + 86_400 * np.sort(rng.choice(days, 500))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["source", "destination", "timestamp"])
        for s, t, tm in zip(rng.integers(20, size=500), rng.integers(20, size=500), stamps):
            writer.writerow([f"s{s}", f"d{t}", int(tm)])


class TestSynthCommand:
    def test_writes_csv_and_sidecar(self, tmp_path):
        out = tmp_path / "events.csv"
        assert run("synth", "--output", out, "--N", 200, "--T", 50, "--K", 2,
                   "--gamma", "0.001", "--seed", 3) == 0
        rows = read_rows(out)
        assert rows[0] == ["source", "destination", "timestamp"]
        assert len(rows) == 201
        planted = json.loads((tmp_path / "events.planted.json").read_text())
        assert planted["params"]["N"] == 200
        assert sum(planted["tau"]) == 50
        assert sum(planted["m"]) == 200

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run("synth", "--output", out, "--N", 100, "--T", 30, "--K", 3,
                       "--gamma", "0.01", "--seed", 9) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.planted.json").read_bytes() == (tmp_path / "b.planted.json").read_bytes()

    def test_planted_round_trip(self, tmp_path):
        out = tmp_path / "events.csv"
        run("synth", "--output", out, "--N", 150, "--T", 40, "--K", 3,
            "--gamma", "0.05", "--seed", 4)
        planted = json.loads((tmp_path / "events.planted.json").read_text())
        from hyperbin import Binning, discretize_on_grid, induce_partition, read_events_csv

        ev = read_events_csv(out)
        grid = planted["grid"]
        d = discretize_on_grid(ev, grid["T"], grid["origin"], grid["delta_t"])
        part = induce_partition(d, Binning(tuple(planted["tau"])))
        assert part.sizes.tolist() == planted["m"]


class TestBinCommand:
    def test_document_shape_and_ordering(self, tmp_path):
        events = tmp_path / "events.csv"
        write_sample_csv(events)
        out = tmp_path / "result.json"
        assert run("bin", "--input", events, "--output", out, "--T", 12,
                   "--method", "both", "--baselines") == 0
        doc = json.loads(out.read_text())
        assert doc["format_version"] == 1
        assert (doc["N"], doc["S"], doc["D"], doc["T"]) == (10, 4, 3, 12)
        methods = [r["method"] for r in doc["results"]]
        assert methods[:2] == ["exact_dp", "greedy"]
        assert {"uniform_duration", "uniform_count"} <= set(methods)
        by_method = {r["method"]: r for r in doc["results"]}
        assert by_method["greedy"]["dl"]["decoupled"] >= by_method["exact_dp"]["dl"]["decoupled"] - 1e-9
        for r in doc["results"]:
            assert r["dl"]["total"] == pytest.approx(
                r["dl"]["L1"] + r["dl"]["L2"] + r["dl"]["L3"], abs=1e-6
            )
            assert sum(r["tau"]) == 12
            assert sum(c["m_k"] for c in r["clusters"]) == 10
            assert len(r["boundaries"]) == r["K"]

    def test_series_csv(self, tmp_path):
        events = tmp_path / "events.csv"
        write_sample_csv(events)
        out = tmp_path / "result.json"
        run("bin", "--input", events, "--output", out, "--T", 12, "--method", "exact")
        rows = read_rows(tmp_path / "result.series.csv")
        assert rows[0] == ["step_start", "step_end", "t_min", "t_max", "events",
                           "exact_dp_boundary"]
        # steps 0-5 and 7-11 hold events, step 6 is an eventless run
        spans = [(int(r[0]), int(r[1])) for r in rows[1:]]
        assert spans == [(t, t + 1) for t in range(12)]
        assert rows[7][4] == "0"
        assert sum(int(r[4]) for r in rows[1:]) == 10
        assert rows[1][5] == "1"  # a cluster always starts at step 0

    def test_series_csv_has_one_row_per_eventless_run(self, tmp_path):
        events = tmp_path / "events.csv"
        write_sample_csv(events)
        out = tmp_path / "result.json"
        run("bin", "--input", events, "--output", out, "--T", 1100, "--method", "exact")
        rows = read_rows(tmp_path / "result.series.csv")[1:]
        starts = [int(r[0]) for r in rows]
        assert starts[0] == 0 and int(rows[-1][1]) == 1100
        assert [int(r[1]) for r in rows[:-1]] == starts[1:]
        assert sum(int(r[4]) for r in rows) == 10
        # 10 occupied steps (the last clipped into step 1099), 9 runs between
        assert len(rows) == 19
        assert all(int(r[1]) - int(r[0]) == 1 for r in rows if r[4] != "0")

    def test_series_csv_splits_a_run_at_a_start_inside_it(self, tmp_path):
        d = hyperbin.discretize(hyperbin.parse_events(SAMPLE_ROWS), 1100)  # steps 0, 100, ...
        inside = SimpleNamespace(method="inside", binning_canonical=hyperbin.Binning((150, 950)))
        _write_series_csv(tmp_path / "s.csv", d, [inside])
        # step_start, step_end, events, inside_boundary
        rows = [r[:2] + r[4:] for r in read_rows(tmp_path / "s.csv")]
        assert rows[1:6] == [["0", "1", "1", "1"], ["1", "100", "0", "0"],
                             ["100", "101", "1", "0"], ["101", "150", "0", "0"],
                             ["150", "200", "0", "1"]]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_series_rows_expand_to_the_steps(self, data):
        # the DP's result, plus stand-ins with any binnings, not only
        # canonical ones: a start inside an eventless run must split the run
        # and carry the flag
        d = data.draw(small_grids())
        binnings = data.draw(st.lists(valid_binnings(d), max_size=3))
        results = [solve_dp(d)] + [
            SimpleNamespace(method=f"m{i}", binning_canonical=b) for i, b in enumerate(binnings)
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "series.csv"
            _write_series_csv(path, d, results)
            rows = read_rows(path)
        assert rows[0] == ["step_start", "step_end", "t_min", "t_max", "events"] + [
            f"{res.method}_boundary" for res in results
        ]
        events, flags = [], []
        for r in rows[1:]:
            a, z = int(r[0]), int(r[1])
            assert a == len(events) and z > a
            assert (float(r[2]), float(r[3])) == (d.origin + a * d.delta_t, d.origin + z * d.delta_t)
            assert int(r[4]) == 0 or z == a + 1  # only eventless rows span several steps
            events += [int(r[4])] + [0] * (z - a - 1)
            flags += [[int(x) for x in r[5:]]] + [[0] * len(results)] * (z - a - 1)
        assert events == d.events_in_step.tolist()
        starts = [res.binning_canonical.bounds[:-1] for res in results]
        assert flags == [[int(t in s) for s in starts] for t in range(d.T)]

    def test_auto_t(self, tmp_path):
        events = tmp_path / "events.csv"
        write_sample_csv(events)
        out = tmp_path / "result.json"
        assert run("bin", "--input", events, "--output", out, "--method", "greedy") == 0
        assert json.loads(out.read_text())["T"] == 10  # min(N, 5000)

    def test_auto_t_is_capped_at_the_lgamma_table(self, tmp_path):
        from hyperbin.encoding import TABLE_STEPS

        events = tmp_path / "events.csv"
        rows = [("a", "x", "0.0")] * TABLE_STEPS + [("b", "y", "1.0")]
        with open(events, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([("source", "destination", "timestamp")] + rows)
        out = tmp_path / "result.json"
        assert run("bin", "--input", events, "--output", out, "--method", "greedy") == 0
        doc = json.loads(out.read_text())
        assert (doc["N"], doc["T"]) == (TABLE_STEPS + 1, TABLE_STEPS)

    def test_delta_t_override(self, tmp_path):
        events = tmp_path / "events.csv"
        write_sample_csv(events)
        out = tmp_path / "result.json"
        assert run("bin", "--input", events, "--output", out, "--delta-t", "1.0",
                   "--method", "greedy") == 0
        doc = json.loads(out.read_text())
        assert doc["delta_t"] == 1.0
        assert doc["T"] == 11  # ceil((11.5 - 0.5) / 1.0)

    def test_deterministic_modulo_runtime(self, tmp_path):
        events = tmp_path / "events.csv"
        write_sample_csv(events)
        docs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            run("bin", "--input", events, "--output", out, "--T", 12, "--method", "both")
            doc = json.loads(out.read_text())
            for r in doc["results"]:
                r.pop("runtime_seconds")
            docs.append(doc)
        assert docs[0] == docs[1]


class TestFineGrids:
    """`bin` costs O(N + P) after parsing, for P occupied steps: no array,
    list or loop is sized by the step count T."""

    def test_ten_million_steps_stay_small(self, tmp_path):
        events, out = tmp_path / "events.csv", tmp_path / "result.json"
        write_sparse_days_csv(events)
        tracemalloc.start()
        try:
            assert run("bin", "--input", events, "--output", out, "--T", 10**7,
                       "--method", "both", "--baselines") == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert json.loads(out.read_text())["T"] == 10**7
        # one T-length int64 array alone would be 80 MB
        assert peak < 20 * 2**20

    def test_a_billion_steps_run_in_a_capped_address_space(self, tmp_path):
        events, out = tmp_path / "events.csv", tmp_path / "result.json"
        write_sparse_days_csv(events)
        cap = 512 * 2**20  # a T-length array would need gigabytes and fail
        code = (
            "import resource, sys\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
            "from hyperbin.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-c", code, "bin", "--input", str(events), "--output", str(out),
             "--T", str(10**9), "--method", "both"],
            capture_output=True, text=True, timeout=300, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(out.read_text())
        assert doc["T"] == 10**9
        assert [r["method"] for r in doc["results"]] == ["exact_dp", "greedy"]
        series = read_rows(tmp_path / "result.series.csv")
        assert len(series) < 100 and int(series[-1][1]) == 10**9


class TestMetricsCommand:
    @pytest.fixture
    def workspace(self, tmp_path):
        events = tmp_path / "events.csv"
        run("synth", "--output", events, "--N", 250, "--T", 60, "--K", 3,
            "--gamma", "0.01", "--seed", 12)
        result = tmp_path / "result.json"
        run("bin", "--input", events, "--output", result, "--T", 60,
            "--method", "both", "--baselines")
        return events, result

    def test_same_file_twice(self, workspace, tmp_path):
        events, result = workspace
        out = tmp_path / "metrics.json"
        assert run("metrics", result, result, "--input", events, "--output", out) == 0
        doc = json.loads(out.read_text())
        n = len(doc["results"])
        cc = doc["ccami_matrix"]
        assert all(cc[i][i] == 1.0 for i in range(n))
        assert all(cc[i][j] == cc[j][i] for i in range(n) for j in range(n))

    def test_eta_round_trip(self, workspace, tmp_path):
        events, result = workspace
        out = tmp_path / "metrics.json"
        run("metrics", result, "--input", events, "--output", out)
        doc = json.loads(out.read_text())
        for entry in doc["results"]:
            assert abs(entry["eta"] - entry["eta_recomputed"]) <= 1e-9

    def test_exact_vs_greedy_gap_nonnegative(self, workspace, tmp_path):
        events, result = workspace
        out = tmp_path / "metrics.json"
        run("metrics", result, "--input", events, "--output", out)
        doc = json.loads(out.read_text())
        idx = {e["method"]: i for i, e in enumerate(doc["results"])}
        gap = doc["dl_gap_bits"][idx["greedy"]][idx["exact_dp"]]
        assert gap >= -1e-9

    def test_four_partitions_square_matrix(self, workspace, tmp_path):
        events, result = workspace
        out = tmp_path / "metrics.json"
        run("metrics", result, "--input", events, "--output", out)
        doc = json.loads(out.read_text())
        assert len(doc["results"]) == 4
        assert len(doc["ccami_matrix"]) == 4
        assert all(len(row) == 4 for row in doc["ccami_matrix"])

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_bad_samples_is_a_usage_error(self, workspace, tmp_path, samples):
        events, result = workspace
        out = tmp_path / "metrics.json"
        with pytest.raises(SystemExit) as exc:
            run("metrics", result, "--input", events, "--output", out, "--samples", samples)
        assert exc.value.code == 1
        assert not out.exists()

    def test_one_event_dataset(self, tmp_path):
        # N = S = D = T = 1: the single-cluster reference is 0 bits
        events = tmp_path / "events.csv"
        events.write_text("source,destination,timestamp\na,b,1.0\n", encoding="utf-8")
        result, out = tmp_path / "result.json", tmp_path / "metrics.json"
        assert run("bin", "--input", events, "--output", result) == 0
        assert run("metrics", result, "--input", events, "--output", out) == 0
        (entry,) = json.loads(out.read_text())["results"]
        assert entry["eta_recomputed"] == entry["eta"] == 1.0

    @staticmethod
    def metrics_of(tmp_path, capsys, doc):
        # exit code and stderr of `metrics` on a result file holding doc
        result = tmp_path / "result.json"
        result.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "metrics.json"
        code = run("metrics", result, "--input", GOLDEN / "events.csv", "--output", out)
        assert not out.exists()
        return code, capsys.readouterr().err

    def test_json_list_is_not_a_result_document(self, tmp_path, capsys):
        code, err = self.metrics_of(tmp_path, capsys, [])
        assert code == 2
        assert "result.json: not a result document (expected a JSON object)" in err

    def test_result_document_without_its_fields_is_rejected(self, tmp_path, capsys):
        code, err = self.metrics_of(tmp_path, capsys, {"format_version": 1})
        assert code == 2
        assert "result.json: not a result document: missing key 'N'" in err

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_format_version_must_be_the_int_1(self, tmp_path, capsys, version):
        doc = json.loads((GOLDEN / "result.json").read_text(encoding="utf-8"))
        doc["format_version"] = version
        code, err = self.metrics_of(tmp_path, capsys, doc)
        assert code == 2
        assert "result.json: unsupported format_version" in err

    def test_result_without_a_dl_is_rejected(self, tmp_path, capsys):
        doc = json.loads((GOLDEN / "result.json").read_text(encoding="utf-8"))
        del doc["results"][1]["dl"]
        code, err = self.metrics_of(tmp_path, capsys, doc)
        assert code == 2
        assert "result.json: not a result document: missing key 'results[1].dl'" in err

    # (path to the key, bad value, the path the error names)
    @pytest.mark.parametrize(
        "where, value, named",
        [
            (("results", 0, "dl", "decoupled"), "abc", "results[0].dl.decoupled"),
            (("results", 0, "dl", "decoupled"), None, "results[0].dl.decoupled"),
            (("T",), "5000", "T"),
            (("N",), True, "N"),
            (("S",), 0, "S"),
            (("D",), 4.0, "D"),
            (("delta_t",), "0.9875", "delta_t"),
            (("origin",), float("nan"), "origin"),
            (("origin",), False, "origin"),
            (("results", 0, "K"), 99, "results[0].K"),
            (("results", 1, "K"), 4.0, "results[1].K"),
            (("results", 0, "eta"), None, "results[0].eta"),
            (("results", 2, "eta"), True, "results[2].eta"),
            (("results", 0, "tau"), "12", "results[0].tau"),
            (("results", 0, "tau"), [], "results[0].tau"),
            (("results", 3, "tau"), [39, 8, 0, 33], "results[3].tau"),
            (("results", 3, "tau"), [39, 8, True, 32], "results[3].tau"),
            (("results",), {}, "results"),
            (("results",), [], "results"),
            (("results", 1, "eta"), float("nan"), "results[1].eta"),
            (("results", 0, "dl", "decoupled"), float("inf"), "results[0].dl.decoupled"),
            (("results", 3, "tau"), [39, 8, 9, 25], "results[3].tau"),
        ],
    )
    def test_wrongly_typed_field_is_rejected(self, tmp_path, capsys, where, value, named):
        doc = json.loads((GOLDEN / "result.json").read_text(encoding="utf-8"))
        holder = doc
        for key in where[:-1]:
            holder = holder[key]
        holder[where[-1]] = value
        code, err = self.metrics_of(tmp_path, capsys, doc)
        assert code == 2
        assert f"result.json: not a result document: bad value for key {named!r}" in err

    def test_mismatched_dataset_rejected(self, workspace, tmp_path):
        events, result = workspace
        other = tmp_path / "other.csv"
        run("synth", "--output", other, "--N", 100, "--T", 60, "--K", 2,
            "--gamma", "0.01", "--seed", 99)
        out = tmp_path / "metrics.json"
        assert run("metrics", result, "--input", other, "--output", out) == 2


class TestSweepCommand:
    def test_rows_and_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out, jobs in ((a, 1), (b, 2)):
            assert run("sweep", "--output", out, "--N", "120", "--T", "30",
                       "--K", "2,3", "--gamma", "0.001,1.0", "--reps", 2,
                       "--jobs", jobs, "--seed", 5) == 0
        rows_a = read_rows(a)
        rows_b = read_rows(b)
        assert rows_a[0] == ["N", "T", "K", "gamma", "rep", "method", "eta",
                            "ccami", "runtime_seconds"]
        assert len(rows_a) == 1 + 2 * 2 * 2 * 2  # grid x reps x methods
        # identical up to the runtime column regardless of worker count
        assert [r[:8] for r in rows_a] == [r[:8] for r in rows_b]

    def test_single_point_single_rep(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run("sweep", "--output", out, "--N", "100", "--T", "25", "--K", "2",
                   "--gamma", "0.01", "--reps", 1, "--jobs", 1, "--method", "exact") == 0
        rows = read_rows(out)
        assert len(rows) == 2
        eta = float(rows[1][6])
        assert 0 < eta <= 1.0

    def test_workers_never_outnumber_tasks(self, tmp_path, monkeypatch):
        # a process pool forks all its workers at the first submit; this fake
        # records the worker count and maps in-process, starting none
        workers = []

        class RecordingPool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr("hyperbin.cli.ProcessPoolExecutor", RecordingPool)
        out = tmp_path / "s.csv"
        assert run("sweep", "--output", out, "--N", "100", "--T", "25", "--K", "2",
                   "--gamma", "0.01", "--reps", 1, "--jobs", 64, "--method", "greedy") == 0
        assert workers == [1]
        assert len(read_rows(out)) == 2

    def test_runtimes_positive_and_dp_slower_on_average(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run("sweep", "--output", out, "--N", "400", "--T", "200", "--K", "4",
                   "--gamma", "0.001", "--reps", 4, "--jobs", 1) == 0
        rows = read_rows(out)[1:]
        runtimes = {"exact_dp": [], "greedy": []}
        for r in rows:
            assert float(r[8]) > 0
            runtimes[r[5]].append(float(r[8]))
        # medians, to keep one scheduler hiccup from flipping the comparison
        assert np.median(runtimes["exact_dp"]) >= np.median(runtimes["greedy"])


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(rows=event_rows())
    @example(rows=[("u", "v", "-1e308"), ("u", "v", "0"), ("u", "v", "1e308")])
    @example(rows=[("u", "v", "0"), ("u", "v", "5e-324")])
    @example(rows=[("u", "v", "0"), ("u", "v", "1e-323"), ("u", "v", "1e-323"), ("u", "v", "0")])
    # a span past the float64 range: EventSet's sort check must not overflow
    @example(rows=[("u", "v", "1.7976931348623157e+308"), ("u", "v", "-1e300")])
    def test_bin_writes_what_metrics_reads(self, rows):
        # bin exits 0 or 2 and never raises; a document it writes is strict
        # JSON, and metrics re-derives every eta from it and the events
        with tempfile.TemporaryDirectory() as tmp:
            events, result, metrics = (Path(tmp) / n for n in ("ev.csv", "r.json", "m.json"))
            with open(events, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows([hyperbin.events.CSV_HEADER, *rows])
            code = run("bin", "--input", events, "--output", result, "--method", "both", "--baselines")
            assert code in (0, 2)
            if code == 2:
                assert not result.exists()
                return
            json.loads(result.read_text(encoding="utf-8"), parse_constant=_no_constant)
            assert run("metrics", result, "--input", events, "--output", metrics) == 0
            doc = json.loads(metrics.read_text(encoding="utf-8"), parse_constant=_no_constant)
            for entry in doc["results"]:
                assert abs(entry["eta_recomputed"] - entry["eta"]) <= 1e-9, entry


class TestExitCodes:
    def test_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])  # missing subcommand
        assert exc.value.code == 1

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["bin", "--nope"])
        assert exc.value.code == 1

    def test_missing_input_file(self, tmp_path):
        assert main(["bin", "--input", str(tmp_path / "nope.csv"),
                     "--output", str(tmp_path / "out.json")]) == 2

    def test_invalid_csv(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong,header,here\n1,2,3\n", encoding="utf-8")
        assert main(["bin", "--input", str(bad),
                     "--output", str(tmp_path / "out.json")]) == 2

    @pytest.mark.parametrize("stamp", ["nan", "inf", "-inf"])
    def test_non_finite_timestamp(self, tmp_path, capsys, stamp):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"source,destination,timestamp\nu,v,1.0\nu,w,{stamp}\nw,v,2.0\n",
                       encoding="utf-8")
        out = tmp_path / "out.json"
        assert main(["bin", "--input", str(bad), "--output", str(out)]) == 2
        assert "row 3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "content",
        [
            b"source,destination,timestamp\nu,v,\"1\n",
            b"\"source,destination,timestamp\nu,v,1\n",  # the header's quote
            b"source,destination,timestamp\nu,\xff,1\n",
            *NO_FINITE_GRID,
        ],
    )
    def test_malformed_file_is_a_data_error(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(content)
        out = tmp_path / "out.json"
        assert main(["bin", "--input", str(bad), "--output", str(out), "--method", "both"]) == 2
        err = capsys.readouterr().err
        assert NO_FINITE_GRID.get(content, str(bad)) in err and "Traceback" not in err
        assert not out.exists()

    def test_a_non_finite_number_is_never_written(self, tmp_path):
        out = tmp_path / "out.json"
        with pytest.raises(ValueError):  # exit 2 from main
            _write_json(out, {"delta_t": math.inf, "t_min": math.nan})
        assert not out.exists()

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5"])
    def test_bad_T_is_a_usage_error(self, tmp_path, value):
        events = tmp_path / "events.csv"
        write_sample_csv(events)
        with pytest.raises(SystemExit) as exc:
            main(["bin", "--input", str(events), "--output", str(tmp_path / "out.json"),
                  "--T", value])
        assert exc.value.code == 1

    def test_zero_K_is_a_usage_error(self, tmp_path):
        events = tmp_path / "events.csv"
        write_sample_csv(events)
        out = tmp_path / "out.json"
        with pytest.raises(SystemExit) as exc:
            main(["bin", "--input", str(events), "--output", str(out), "--baselines",
                  "--K", "0"])
        assert exc.value.code == 1
        assert not out.exists()

    def test_K_without_baselines_is_a_usage_error(self, tmp_path, capsys):
        # --K sets only the baselines' cluster count: alone it would be ignored
        events = tmp_path / "events.csv"
        write_sample_csv(events)
        out = tmp_path / "out.json"
        with pytest.raises(SystemExit) as exc:
            main(["bin", "--input", str(events), "--output", str(out), "--K", "5"])
        assert exc.value.code == 1
        assert "--baselines" in capsys.readouterr().err
        assert not out.exists()
        assert not out.with_suffix(".series.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1", "abc"])
    def test_bad_delta_t_is_a_usage_error(self, tmp_path, value):
        events = tmp_path / "events.csv"
        write_sample_csv(events)
        with pytest.raises(SystemExit) as exc:
            main(["bin", "--input", str(events), "--output", str(tmp_path / "out.json"),
                  "--delta-t", value])
        assert exc.value.code == 1

    def test_delta_t_too_fine_for_an_index_is_a_data_error(self, tmp_path, capsys, monkeypatch):
        events = tmp_path / "events.csv"
        write_sample_csv(events)

        def no_grid(*args):
            raise AssertionError("the grid was allocated")

        monkeypatch.setattr(hyperbin.events, "_finish_discretization", no_grid)
        out = tmp_path / "out.json"
        # the sample spans 11 time units, so T would be 1.1e301
        assert main(["bin", "--input", str(events), "--output", str(out),
                     "--delta-t", "1e-300"]) == 2
        assert "T=1.1e+301" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("option, value, named", [
        ("--T", str(2**53 + 1), f"T={2**53 + 1}"),
        ("--T", str(2**63 - 1), f"T={2**63 - 1}"),  # used to overflow the int64 cast
        ("--T", str(2**63), f"T={2**63}"),
        ("--T", str(10**29), f"T={10**29}"),
        ("--delta-t", "1e-12", "T=4.752e+18"),  # the sample days span 4,752,000 s
    ])
    def test_step_count_above_2_53_is_a_data_error(self, tmp_path, capsys, option, value, named):
        events = tmp_path / "events.csv"
        write_sparse_days_csv(events)
        out = tmp_path / "out.json"
        assert main(["bin", "--input", str(events), "--output", str(out), option, value]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_step_count_of_2_53_is_accepted(self, tmp_path):
        events = tmp_path / "events.csv"
        write_sparse_days_csv(events)
        out = tmp_path / "out.json"
        assert run("bin", "--input", events, "--output", out, "--T", 2**53) == 0
        assert json.loads(out.read_text())["T"] == 2**53

    @pytest.mark.parametrize("option", ["--N", "--T", "--K", "--S", "--D"])
    def test_bad_synth_count_is_a_usage_error(self, tmp_path, option):
        counts = {"--N": "50", "--T": "20", "--K": "2", "--S": "3", "--D": "3", option: "0"}
        out = tmp_path / "events.csv"
        with pytest.raises(SystemExit) as exc:
            run("synth", "--output", out, "--gamma", "0.1",
                *[x for pair in counts.items() for x in pair])
        assert exc.value.code == 1
        assert not out.exists()

    def test_synth_k_above_n_or_t_is_a_data_error(self, tmp_path):
        out = tmp_path / "events.csv"
        assert run("synth", "--output", out, "--N", 50, "--T", 3, "--K", 4,
                   "--gamma", "0.1") == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "option, value",
        [("--reps", "0"), ("--S", "0"), ("--D", "0"), ("--jobs", "0"),
         ("--N", "100,0"), ("--T", "-5"), ("--K", "2,x"), ("--K", ",")],
    )
    def test_bad_sweep_count_is_a_usage_error(self, tmp_path, option, value):
        out = tmp_path / "sweep.csv"
        with pytest.raises(SystemExit) as exc:
            run("sweep", "--output", out, "--N", "100", "--T", "25", "--K", "2",
                "--gamma", "0.01", "--reps", 1, "--jobs", 1, option, value)
        assert exc.value.code == 1
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-1", "abc"])
    def test_bad_synth_gamma_is_a_usage_error(self, tmp_path, capsys, value):
        out = tmp_path / "events.csv"
        with pytest.raises(SystemExit) as exc:
            run("synth", "--output", out, "--N", 50, "--T", 20, "--K", 2, "--gamma", value)
        assert exc.value.code == 1
        assert "--gamma" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-1", "abc", "0.1,inf", ",", ""])
    def test_bad_sweep_gamma_is_a_usage_error(self, tmp_path, capsys, value):
        out = tmp_path / "sweep.csv"
        with pytest.raises(SystemExit) as exc:
            run("sweep", "--output", out, "--N", "100", "--T", "25", "--K", "2",
                "--reps", 1, "--jobs", 1, "--gamma", value)
        assert exc.value.code == 1
        assert "--gamma" in capsys.readouterr().err
        assert not out.exists()
