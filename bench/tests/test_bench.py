"""Tests of the benchmark itself: every workload at toy size, the span
self-time arithmetic, and output checks that catch corrupted outputs."""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run as bench_run  # noqa: E402
import spans  # noqa: E402
import unit  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, config_text  # noqa: E402

import align_lab.harness as harness  # noqa: E402
import align_lab.perms as perms  # noqa: E402
import align_lab.recovery as recovery  # noqa: E402
from align_lab.model import Graph, ModelParams, generate  # noqa: E402

TOY = {
    "pistar-20k": {"configs": (dict(WORKLOADS["pistar-20k"].configs[0], n=600),)},
    "pistar-100k": {"configs": (dict(WORKLOADS["pistar-100k"].configs[0], n=800),)},
    "sweep-2k-pool": {"configs": (dict(WORKLOADS["sweep-2k-pool"].configs[0], n=200, trials=3),)},
    "exhaustive-n8": {
        "configs": tuple(dict(c, n=6, trials=3) for c in WORKLOADS["exhaustive-n8"].configs)
    },
    "decompose-1k": {"n": 40},
}


@pytest.fixture
def restore_entry_points(monkeypatch):
    """Register the entry points that units wrap, so teardown restores them."""
    for name in ("parse_config", "run", "generate", "is_good", "find_good", "map_estimate", "theory_report"):
        monkeypatch.setattr(harness, name, getattr(harness, name))
    monkeypatch.setattr(recovery, "intersection_degrees", recovery.intersection_degrees)
    monkeypatch.setattr(perms, "decompose", perms.decompose)
    monkeypatch.setattr(Graph, "from_edges", Graph.__dict__["from_edges"])


def _toy_unit(workload, workdir, workers, check):
    workdir.mkdir()
    spawned = time.perf_counter()
    if workload.kind == "run":
        return unit.run_unit(workload, 3, workdir, spawned, workers, False, check)
    return unit.decompose_unit(workload, 3, spawned, False, check)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_at_toy_size(name, tmp_path, restore_entry_points):
    workload = dataclasses.replace(WORKLOADS[name], **TOY[name])
    out = _toy_unit(workload, tmp_path / "plain", workload.workers, check=True)
    assert out["failures"] == []
    assert out["ops"] >= 1 and out["wall_s"] > 0 and out["setup_s"] > 0

    # traced as the benchmark traces: workers = 1, same outputs
    tracer = spans.Tracer()
    spans.install(tracer)
    traced = _toy_unit(workload, tmp_path / "traced", 1, check=False)
    assert traced.get("csv_sha256") == out.get("csv_sha256")
    layers = spans.layer_metrics(tracer.spans)
    if workload.kind == "decompose":
        assert layers["perms.pairs"] == 40 * 39 and layers["perms.orbits"] > 0
    else:
        assert layers["harness.run_s"] > 0 and layers["theory.theory_report_calls"] >= 1
        assert layers["recovery.probes"] > 0 and layers["model.edges_out"] > 0


def test_config_is_a_function_of_the_seed():
    workload = WORKLOADS["sweep-2k-pool"]
    assert config_text(workload, 0, 5, 2, "x.csv") == config_text(workload, 0, 5, 2, "x.csv")
    assert config_text(workload, 0, 5, 2, "x.csv") != config_text(workload, 0, 6, 2, "x.csv")
    assert config_text(workload, 0, 5, 2, "x.csv") != config_text(workload, 0, 5, 2, "x.csv", part=1)


def _span(i, name, start, end, parent=None, **counts):
    return {"id": i, "name": name, "start": start, "end": end, "parent": parent, "trial": 0, **counts}


def test_self_time_subtracts_the_union_of_direct_children():
    tree = [
        _span(0, "harness.run", 0.0, 10.0),
        _span(1, "model.generate", 1.0, 3.0, 0),
        _span(2, "recovery.is_good", 2.0, 5.0, 0),  # overlaps span 1
        _span(3, "model.graph_build", 1.5, 2.5, 1),  # grandchild of the run
        _span(4, "theory.theory_report", 9.5, 11.0, 0),  # runs past its parent
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({0: 10.0 - 4.0 - 0.5, 1: 1.0, 2: 3.0, 3: 1.0, 4: 1.5})


def test_layer_metrics_on_a_synthetic_trace():
    tree = [
        _span(0, "harness.run", 0.0, 10.0),
        _span(1, "model.generate", 0.0, 4.0, 0, edges_out=100),
        _span(2, "model.graph_build", 1.0, 2.0, 1),
        _span(3, "model.graph_build", 2.5, 3.0, 1),
        _span(4, "recovery.is_good", 4.0, 6.0, 0),
        _span(5, "recovery.intersection_degrees", 4.5, 5.5, 4, probes=40),
        _span(6, "theory.theory_report", 9.0, 9.5, 0),
    ]
    m = spans.layer_metrics(tree)
    assert m["model.generate_s"] == pytest.approx(4.0)
    assert m["model.sample_s"] == pytest.approx(2.5)
    assert m["model.graph_build_s"] == pytest.approx(1.5)
    assert m["model.edges_per_s"] == pytest.approx(25.0)
    assert m["recovery.probes_per_s"] == pytest.approx(40.0)
    assert m["harness.self_s"] == pytest.approx(3.5)
    assert m["theory.theory_report_calls"] == 1
    assert m["perms.decompose_s"] == 0.0


def test_memory_tracer_reports_nested_peaks(restore_entry_points):
    import tracemalloc

    tracer = spans.Tracer(memory=True)
    tracemalloc.start()
    try:
        outer = tracer.wrap("outer", lambda: inner() + np.ones(1 << 17).sum())
        inner = tracer.wrap("inner", lambda: np.ones(1 << 18).sum())
        outer()
    finally:
        tracemalloc.stop()
    peaks = {s["name"]: s["peak_mb"] for s in tracer.spans}
    assert peaks["inner"] >= 2.0 and peaks["outer"] >= peaks["inner"]


def test_corrupted_pistar_record_fails_the_check():
    inst = generate(ModelParams(300, 0.1, 0.5), 11)
    count, good = checks.pistar_good_count(inst, 0.5)
    assert good == recovery.is_good(inst.g_a, inst.g_b, inst.pi_star, inst.params, 0.5).is_good
    record = SimpleNamespace(n=300, q=0.1, s=0.5, seed=11, alpha=0.5, point_index=0, trial_index=0, pistar_good=good)
    assert checks.check_pistar([record]) == checks.check_pistar([record], [inst]) == []
    record.pistar_good = not good
    assert len(checks.check_pistar([record])) == len(checks.check_pistar([record], [inst])) == 1


def test_corrupted_search_and_map_outputs_fail_the_checks(tmp_path, restore_entry_points):
    config_path = tmp_path / "c.cfg"
    found, estimates = [], []
    unit._capture(harness, "find_good", found)
    unit._capture(harness, "map_estimate", estimates)
    for mode in ("search-small", "map-small"):
        config_path.write_text(
            f"mode = {mode}\nn = 6\nq = 0.4\ns = 0.8\nalpha = 0.3\ntrials = 4\nbase_seed = 2\n"
            f"output = {tmp_path / mode}.csv\n"
        )
        records = harness.run(harness.parse_config(config_path)).records
        if mode == "search-small":
            assert checks.check_search(records, found) == []
            hit = next(i for i, r in enumerate(records) if r.found_good)
            bad = [dataclasses.replace(r, perms_tested=r.perms_tested + 1) if i == hit else r
                   for i, r in enumerate(records)]
            assert len(checks.check_search(bad, found)) == 1
        else:
            assert checks.check_map(records, estimates) == []
            worst = []
            for r in records:
                inst = generate(ModelParams(r.n, r.q, r.s), r.seed)
                objective = lambda p: recovery.overlap_objective(inst.g_a, inst.g_b, p)  # noqa: E731
                candidates = [perms.Permutation(np.roll(np.arange(6), k)) for k in range(6)]
                worst.append(min(candidates, key=objective))
            assert checks.check_map(records, worst) != []


def test_corrupted_decomposition_fails_the_check():
    rng = np.random.default_rng(4)
    for n in (2, 5, 12, 23):
        pi, pi_star = perms.Permutation(rng.permutation(n)), perms.Permutation(rng.permutation(n))
        dec = perms.decompose(pi, pi_star)
        rows = perms.census_rows(dec)
        assert checks.check_decompose(pi, pi_star, dec, rows) == []
    k, triple = next(iter(dec.census.items()))
    bad = dataclasses.replace(dec, census={**dec.census, k: (triple[0], triple[1] + 1, triple[2])})
    assert checks.check_decompose(pi, pi_star, bad, rows) != []
    assert checks.check_decompose(pi, pi_star, dec, rows[1:]) != []


def test_closed_form_census_matches_decompose():
    rng = np.random.default_rng(9)
    for _ in range(60):
        n = int(rng.integers(2, 16))
        pi, pi_star = perms.Permutation(rng.permutation(n)), perms.Permutation(rng.permutation(n))
        dec = perms.decompose(pi, pi_star)
        p = pi.as_array()[np.argsort(pi_star.as_array())]
        assert checks.closed_form_census(checks.cycle_lengths(p)) == (len(dec.s1), len(dec.s21), dec.census)


def test_verdict_fails_a_run_whose_csv_differs():
    workload = WORKLOADS["sweep-2k-pool"]
    checked = {"ops": 10, "csv_sha256": "a", "failures": []}
    assert bench_run.verdict(workload, 7, [[checked, {"ops": 10, "csv_sha256": "a"}]], 0)[:2] == (20, 0)
    attempted, failed, problems = bench_run.verdict(workload, 7, [[checked], [{"ops": 10, "csv_sha256": "b"}]], 0)
    assert (attempted, failed) == (20, 10) and problems


def test_verdict_compares_csvs_only_within_a_part():
    workload = WORKLOADS["exhaustive-n8"]
    units = [{"ops": 10, "csv_sha256": "a", "part": 0, "failures": []},
             {"ops": 10, "csv_sha256": "b", "part": 1, "failures": []}]
    assert bench_run.verdict(workload, 7, [units], 0)[:2] == (20, 0)
    retraced = {"ops": 10, "csv_sha256": "c", "part": 1}
    assert bench_run.verdict(workload, 7, [units, [retraced]], 0)[:2] == (30, 10)


def test_verdict_checks_the_recorded_digest_at_the_default_seed():
    workload = WORKLOADS["sweep-2k-pool"]
    recorded = json.loads((BENCH / "baseline.json").read_text())["csv_sha256"][workload.name]
    good = {"ops": 10, "csv_sha256": recorded, "failures": []}
    assert bench_run.verdict(workload, DEFAULT_SEED, [[good]], 0)[1] == 0
    assert bench_run.verdict(workload, DEFAULT_SEED, [[dict(good, csv_sha256="0" * 64)]], 0)[1] == 10


def test_tail_needs_ten_samples_beyond_it():
    assert bench_run.tail(list(range(30))) is None
    assert bench_run.tail(list(range(40)))[0] == 75.0
    assert bench_run.tail([float(i) for i in range(1, 1001)]) == (99.0, 990.0, 1000)


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "decompose-1k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_end_to_end_result_line(tmp_path):
    root = BENCH.parent
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "decompose-1k", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0
    declared = json.loads((root / "BENCHMARK.json").read_text())
    assert set(out["metrics"]) == {m["name"] for m in declared["end_to_end"]}
