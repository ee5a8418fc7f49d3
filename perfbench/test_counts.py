"""The benchmark's own test: exact counts repeat, and names match BENCHMARK.json.

    python3 -m pytest perfbench/test_counts.py

Each workload's traced pass runs twice on the seed stored in counts.json;
the counts that must repeat exactly have to agree with each other and with
the stored values.  The stored values are the "counts" line that
`perfbench/run.py --trace 1` prints for that seed.
"""

import json
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
STORED = json.loads((HERE / "counts.json").read_text())


@pytest.fixture(scope="module")
def bench():
    run.cap_threads()
    run.use_checkout_src()
    import layers
    import workloads

    return layers, workloads


def traced_counts(bench, name, workdir):
    layers, workloads = bench
    workdir.mkdir()
    r = run.Run(workloads.WORKLOADS[name](STORED["seed"], str(workdir)))
    _, counts, _ = r.traced_pass()
    assert r.failed == 0, list(r.checks.lines())
    return {k: counts[k] for k in layers.EXACT_COUNTS}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_exact_counts_repeat(bench, name, tmp_path):
    first = traced_counts(bench, name, tmp_path / "first")
    second = traced_counts(bench, name, tmp_path / "second")
    assert first == second
    assert first == STORED["counts"][name]


def test_names_match_benchmark_json(bench):
    layers, workloads = bench
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == layers.PER_LAYER
