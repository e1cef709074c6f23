"""Self-tests of the benchmark: tiny smoke rounds, output-check negatives,
the command-line contract and the record comparison.

Run from the repository root::

    python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import run  # noqa: E402
from cells import CELLS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", params=sorted(CELLS))
def tiny(request):
    """One untraced and one traced tiny round of each workload."""
    cell = CELLS[request.param]
    return (cell, run.run_round(cell, 1, tiny=True),
            run.run_round(cell, 1, tiny=True, profile=True))


def test_tiny_rounds_pass_the_output_check(tiny):
    cell, plain, traced = tiny
    assert plain.attempted > 0
    assert plain.completed == plain.attempted
    # Profiling must not perturb the model: same digest traced or not.
    assert run.check_rounds([plain, traced], {1: plain.digest}) == []


def test_traced_round_splits_self_time_by_layer(tiny):
    cell, _, traced = tiny
    total = sum(traced.self_s.values())
    share = {layer: s / total for layer, s in traced.self_s.items()}
    active = {
        "hbase": cell.name == "hbase_update",
        "hdfs": cell.name == "hbase_update",
        "cassandra": cell.name != "hbase_update",
        "clienttier": cell.name == "surge_checked",
        "consistency": cell.name in ("surge_checked", "geo_checked"),
    }
    for layer, runs in active.items():
        assert (share[layer] > 0.01) == runs, (layer, share[layer])
    assert share["sim"] > 0.05 and share["cluster"] > 0.05


def test_output_check_catches_a_tampered_digest(tiny):
    _, plain, _ = tiny
    tampered = "0" * 64
    problems = run.check_rounds([plain], {1: tampered})
    assert any("pinned" in p for p in problems)
    odd = replace(plain, digest=tampered)
    problems = run.check_rounds([plain, odd], None)
    assert any("differs between rounds" in p for p in problems)


def test_output_check_catches_a_dropped_op(monkeypatch):
    from repro.ycsb.measurements import Measurements

    record = Measurements.record
    calls = []

    def drop_tenth(self, *args, **kwargs):
        calls.append(1)
        if len(calls) != 10:
            record(self, *args, **kwargs)

    monkeypatch.setattr(Measurements, "record", drop_tenth)
    r = run.run_round(CELLS["cassandra_quorum"], 1, tiny=True)
    assert r.completed == r.attempted - 1
    problems = run.check_rounds([r], None)
    assert any("have an outcome" in p for p in problems)


def test_output_check_catches_unexpected_violations(tiny):
    _, plain, _ = tiny
    counts = dict(plain.counts)
    counts["consistency.unexpected_violations"] = 1
    problems = run.check_rounds([replace(plain, counts=counts)], None)
    assert any("unexpected consistency" in p for p in problems)


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(CELLS)
    assert [w["why"] for w in SPEC["workloads"]] == \
        [c.why for c in CELLS.values()]


def _cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_cli_prints_the_contract_result(trace, key, tmp_path):
    out = tmp_path / "record.json"
    proc = _cli("--workload", "cassandra_quorum", "--seed", "1",
                "--seconds", "0", "--trace", str(trace), "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        declared
    record = json.loads(out.read_text())
    assert record["seed"] == 1 and record["fingerprint"]["nproc"] >= 1


def test_cli_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _cli("--workload", "cassandra_quorum", "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _record(**overrides) -> dict:
    record = {"workload": "hbase_update", "seed": 1, "trace": 0,
              "commit": "a" * 40, "digests": {"1": "d" * 64},
              "fingerprint": {"nproc": 2, "python": "3.11.7"},
              "metrics": {"sim_ops_per_s": {"value": 100.0, "q1": 99.0,
                                            "q3": 101.0, "n": 5,
                                            "unit": "1/s"}}}
    record.update(overrides)
    return record


def test_compare_refuses_a_record_as_its_own_baseline(tmp_path):
    path = tmp_path / "r.json"
    path.write_text(json.dumps(_record()))
    assert compare.main([str(path), str(path)]) == 2


def test_compare_refuses_other_machines(tmp_path):
    base, new = tmp_path / "base.json", tmp_path / "new.json"
    base.write_text(json.dumps(_record()))
    new.write_text(json.dumps(_record(fingerprint={"nproc": 8,
                                                   "python": "3.11.7"})))
    assert compare.main([str(base), str(new)]) == 2


def test_compare_flags_a_regression_beyond_the_bound():
    slow = _record(commit="b" * 40)
    slow["metrics"]["sim_ops_per_s"] = dict(
        slow["metrics"]["sim_ops_per_s"], value=50.0)
    _, regressed = compare.compare(_record(), slow, SPEC)
    assert regressed
    _, regressed = compare.compare(_record(), _record(commit="b" * 40), SPEC)
    assert not regressed
