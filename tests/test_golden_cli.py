"""Golden CLI outputs: `bin` and `metrics` documents must stay byte-identical.

The fixture under fixtures/golden_cli was produced by

    hyperbin synth --output events.csv --N 400 --T 80 --K 4 --S 6 --D 6 --gamma 0.05 --seed 11
    hyperbin bin --input events.csv --output result.json --T 80 --method both --baselines
    hyperbin metrics result.json --input events.csv --output metrics.json

(synth also writes events.planted.json), with every `runtime_seconds` value
in result.json replaced by 0.0. A change
that is meant to keep behaviour (a refactor or a deletion) must keep these
files byte for byte.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import hyperbin
from hyperbin.cli import main

GOLDEN = Path(__file__).parent / "fixtures" / "golden_cli"
SRC = Path(hyperbin.__file__).resolve().parents[1]
SYNTH_ARGS = ["--N", "400", "--T", "80", "--K", "4", "--S", "6", "--D", "6",
              "--gamma", "0.05", "--seed", "11"]


def _zero_runtimes(text: str) -> str:
    return re.sub(r'"runtime_seconds": [^,\n]+', '"runtime_seconds": 0.0', text)


def test_synth_reproduces_the_fixture_input(tmp_path):
    out = tmp_path / "events.csv"
    assert main(["synth", "--output", str(out), *SYNTH_ARGS]) == 0
    assert out.read_bytes() == (GOLDEN / "events.csv").read_bytes()
    planted = out.with_suffix(".planted.json")
    assert planted.read_bytes() == (GOLDEN / "events.planted.json").read_bytes()


def test_bin_and_metrics_documents_match_golden(tmp_path, monkeypatch):
    shutil.copy(GOLDEN / "events.csv", tmp_path / "events.csv")
    monkeypatch.chdir(tmp_path)  # metrics records result paths as given
    assert main(["bin", "--input", "events.csv", "--output", "result.json", "--T", "80",
                 "--method", "both", "--baselines"]) == 0
    assert main(["metrics", "result.json", "--input", "events.csv",
                 "--output", "metrics.json"]) == 0
    result = _zero_runtimes((tmp_path / "result.json").read_text(encoding="utf-8"))
    assert result == (GOLDEN / "result.json").read_text(encoding="utf-8")
    for name in ("result.series.csv", "metrics.json"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # each run in its own interpreter, so set and dict orders may differ
    outputs = []
    for hash_seed in ("1", "2"):
        work = tmp_path / f"seed{hash_seed}"
        work.mkdir()
        shutil.copy(GOLDEN / "events.csv", work / "events.csv")
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
        for argv in (
            ["bin", "--input", "events.csv", "--output", "result.json", "--T", "80",
             "--method", "both", "--baselines"],
            ["metrics", "result.json", "--input", "events.csv", "--output", "metrics.json"],
        ):
            proc = subprocess.run([sys.executable, "-m", "hyperbin.cli", *argv], cwd=work,
                                  env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
        outputs.append((
            _zero_runtimes((work / "result.json").read_text(encoding="utf-8")),
            (work / "result.series.csv").read_bytes(),
            (work / "metrics.json").read_bytes(),
        ))
    assert outputs[0] == outputs[1]
