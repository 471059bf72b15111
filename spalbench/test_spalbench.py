"""Smoke-scale tests of the benchmark itself.

    python3 -m pytest spalbench -q

Each workload is shrunk to a few thousand packets over a small table, so
the whole file runs in well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads as wl  # noqa: E402
from spans import NullRecorder, SpanRecorder  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]

SMOKE = {
    "headline": dict(table_size=2_000, packets_per_lc=2_000,
                     verify_packets_per_lc=500, reps=2),
    "churn_faults": dict(table_size=3_000, packets_per_lc=2_000,
                         verify_packets_per_lc=500, reps=1, chunk=512,
                         sample_interval_cycles=2_000),
    "build_1m": dict(table_size=20_000, packets_per_lc=1_000,
                     verify_packets_per_lc=300, runs_per_setup=2),
}


@pytest.fixture
def smoke(monkeypatch, tmp_path):
    small = {n: replace(w, **SMOKE[n]) for n, w in wl.WORKLOADS.items()}
    monkeypatch.setattr(wl, "WORKLOADS", small)
    monkeypatch.setattr(run, "OUT", tmp_path)
    return small


def main_report(capsys, workload: str, seed: int, trace: int):
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return json.loads(lines[-1]), lines[:-1]


def units(report) -> dict:
    return {k: v["unit"] for k, v in report["metrics"].items()}


def test_benchmark_json_names_the_workloads():
    assert NAMES == list(wl.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_metrics_print_with_units(smoke, capsys, name):
    report, lines = main_report(capsys, name, seed=1, trace=0)
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] is True and report["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert units(report) == expected
    for metric, unit in expected.items():
        assert report["metrics"][metric]["value"] > 0
        assert any(line.split()[:1] == [metric] and f" {unit} " in line
                   for line in lines), metric


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_layer_metric(smoke, capsys, tmp_path,
                                               name):
    report, _ = main_report(capsys, name, seed=1, trace=1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert units(report) == expected
    spans = (tmp_path / f"spans-{name}-seed1.jsonl").read_text().splitlines()
    assert {"workload", "setup", "sim.run", "sim.loop"} <= {
        json.loads(line)["name"] for line in spans
    }


@pytest.mark.parametrize("name", NAMES)
def test_spans_nest_and_cover_the_workload(smoke, name):
    w = smoke[name]
    rec = SpanRecorder(run_id="smoke")
    rep = wl.run_repetition(w, wl.Seeds.derive(1, name), rec)
    roots = [s for s in rec.spans if s.parent is None]
    assert [s.name for s in roots] == ["workload"]
    for span in rec.spans:
        assert span.run_id == "smoke" and span.end >= span.start
        if span.parent is not None:
            parent = rec.spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end
        children = rec.children(span)
        assert rec.self_time(span) + sum(c.duration for c in children) == (
            pytest.approx(span.duration, abs=1e-9)
        )
    layers = sum(rec.self_time(s) for s in rec.spans
                 if s.name not in ("workload", "setup"))
    assert layers >= 0.95 * rep.wall_s


def test_second_seed_changes_inputs_not_metric_names(smoke, capsys):
    w = smoke["churn_faults"]

    def inputs(seed):
        p = wl.set_up(w, wl.Seeds.derive(seed, w.name), NullRecorder())
        updates = [(e.cycle, repr(e.update))
                   for e in p.run_kwargs["updates"].events()]
        faults = p.run_kwargs["faults"]
        return p.streams, updates, [f.cycle for f in faults.failures]

    one, again, two = inputs(1), inputs(1), inputs(2)
    assert all(np.array_equal(a, b) for a, b in zip(one[0], again[0]))
    assert one[1:] == again[1:]
    assert not all(np.array_equal(a, b) for a, b in zip(one[0], two[0]))
    assert one[1] != two[1] and one[2] != two[2]

    first, _ = main_report(capsys, "headline", seed=1, trace=0)
    second, _ = main_report(capsys, "headline", seed=2, trace=0)
    assert units(first) == units(second)
    assert (first["metrics"]["lookup_cycles_mean"]
            != second["metrics"]["lookup_cycles_mean"])


def test_minimisation_check_catches_a_wrong_next_hop(smoke):
    w = smoke["build_1m"]
    rep = wl.run_repetition(w, wl.Seeds.derive(1, w.name), NullRecorder())
    wl.check_verified_slice(w, rep)
    dest = int(rep.prepared.streams[0][0])
    table = rep.prepared.table.copy()
    prefix = table.lookup_prefix(dest)
    table.update(prefix, table.get(prefix) + 1)
    rep.prepared.table = table
    with pytest.raises(wl.BenchmarkError, match="minimised table"):
        wl.check_verified_slice(w, rep)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "spalbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "spalbench/run.py", "--workload", "headline",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert "MissingProgramError" in proc.stderr
