"""align-lab benchmark: one workload per invocation, run from the repository root.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each unit of work (see ``workloads.py``) runs in a fresh process
(``unit.py``) that imports the package from ``src/``, generates its inputs
from the seed, and calls the public entry points as a user's script would.
Units repeat until ``--seconds`` of unit time is spent, and every metric is
a median over units.  The first unit's outputs are checked outside the
timed region; every other unit must write a byte-identical CSV.  In a
workload with fresh inputs each unit draws its own and is checked, and
only units of the same inputs must match.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half the
time on untraced units and half on traced units (workers = 1, see
``spans.py``) and prints the per-layer metrics, including the tracing
overhead against the untraced wall time.  A human-readable report goes to
standard error; the last line of standard output is one JSON object.
Metric names and units come from ``BENCHMARK.json`` at the root.  Exit
code 0 means the run finished (see ``correct``); 1 means the computed
metrics differ from the declared ones; 2 means bad arguments or no
``src/align_lab`` below the working directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from workloads import DEFAULT_SEED, WORKLOADS, computed_bytes

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170.0
SETUP_PROBES = 5
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail(samples: list[float]) -> tuple[float, float, int] | None:
    """(percentile, value, sample count) of the highest percentile in
    TAIL_PERCENTILES with at least ten samples beyond it, by nearest rank."""
    ordered = sorted(samples)
    for pct in TAIL_PERCENTILES:
        rank = -(-len(ordered) * pct // 100)
        if len(ordered) - rank >= 10:
            return pct, ordered[int(rank) - 1], len(ordered)
    return None


def failed_ops(result: dict) -> int:
    """Operations of a checked unit whose outputs failed a check; messages
    about one trial share the prefix before their first colon."""
    keys = {message.split(":")[0] for message in result.get("failures", [])}
    return min(result["ops"], len(keys))


class Runner:
    """Starts unit processes for one workload and collects their results."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.started = time.perf_counter()
        self.count = 0

    def unit(self, *flags: str, workers: int | None = None, part: int = 0) -> dict | None:
        """Run one unit process; its result dict, or None if it crashed."""
        self.count += 1
        unit_dir = self.workdir / str(self.count)
        unit_dir.mkdir(parents=True)
        env = {k: v for k, v in os.environ.items() if k != "ALIGN_LAB_WORKERS"}
        cmd = [sys.executable, str(HERE / "unit.py"), "--workload", self.workload.name,
               "--seed", str(self.seed), "--dir", str(unit_dir), "--part", str(part), *flags]
        if workers is not None:
            cmd += ["--workers", str(workers)]
        remaining = DEADLINE_S - (time.perf_counter() - self.started)
        spawned = time.perf_counter()
        proc = subprocess.Popen(cmd + ["--spawned", repr(spawned)], env=env, start_new_session=True)
        try:
            code = proc.wait(timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            code = None
        result_path = unit_dir / "result.json"
        if code != 0 or not result_path.is_file():
            print(f"unit {self.count} failed (exit {code})", file=sys.stderr)
            return None
        result = json.loads(result_path.read_text())
        result["elapsed_s"] = time.perf_counter() - spawned - result.get("check_s", 0.0)
        result["part"] = part
        return result

    def repeat(self, budget: float, *flags: str, workers: int | None = None, check: bool = True,
               fresh: bool = False):
        """Units until ``budget`` seconds of unit time are spent (at least one).

        With ``fresh`` the k-th unit draws the inputs of part k, else every
        unit those of part 0.  With ``check`` the first unit runs the output
        checks, or every unit when each draws fresh inputs.  Returns the
        results and the number of units that crashed.
        """
        results, crashed, spent = [], 0, 0.0
        while not results or spent + results[-1]["elapsed_s"] <= budget:
            part = len(results) + crashed if fresh else 0
            checked = check and (fresh or (not results and not crashed))
            result = self.unit(*flags, *(["--check"] if checked else []), workers=workers, part=part)
            if result is None:
                crashed += 1
                if crashed >= 2:
                    break
                continue
            results.append(result)
            spent += result["elapsed_s"]
        return results, crashed


def verdict(workload, seed: int, groups: list[list[dict]], crashed: int) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over all units of a run.

    Units of one run with the same inputs compute the same thing, so every
    CSV must match the first of its part byte for byte, the checked one
    where there is one; at the default seed part 0 must also match the
    digest recorded in baseline.json.
    """
    results = [r for group in groups for r in group]
    ops_per_unit = max((r["ops"] for r in results), default=1)
    attempted = sum(r["ops"] for r in results) + crashed * ops_per_unit
    failed = crashed * ops_per_unit
    problems = [f"{crashed} unit(s) crashed"] if crashed else []
    checked = [r for r in results if "failures" in r]
    for r in checked:
        failed += failed_ops(r)
        problems += r["failures"]
    if workload.kind == "run" and results:
        reference = {}
        for r in checked + results:
            reference.setdefault(r.get("part", 0), r["csv_sha256"])
        recorded = None
        if seed == DEFAULT_SEED:
            baseline = json.loads((HERE / "baseline.json").read_text())
            recorded = baseline["csv_sha256"].get(workload.name)
        for r in results:
            part = r.get("part", 0)
            if r["csv_sha256"] != reference[part] or (recorded and part == 0 and r["csv_sha256"] != recorded):
                failed += r["ops"] - (failed_ops(r) if "failures" in r else 0)
                problems.append(f"CSV sha256 {r['csv_sha256'][:12]} differs from the reference")
    return attempted, failed, problems


def end_to_end(results: list[dict], setups: list[float]) -> dict[str, float]:
    ops_ms = [ms for r in results for ms in r["op_ms"]]
    return {
        "setup_s": statistics.median(setups + [r["setup_s"] for r in results]),
        "wall_s": statistics.median(r["wall_s"] for r in results),
        "trials_per_s": statistics.median(r["ops"] / r["wall_s"] for r in results),
        "trial_ms_p50": statistics.median(ops_ms),
        "cpu_s": statistics.median(r["cpu_s"] for r in results),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }


def per_layer(untraced: list[dict], serial: list[dict], timed: list[dict], memory: dict, workers: int) -> dict[str, float]:
    """Median per-layer metrics of the traced units, heap peaks from the
    memory-traced unit, pool efficiency from the untraced units, and the
    tracing overhead against the untraced units at workers = 1."""
    per_unit = [spans.layer_metrics(r["spans"]) for r in timed]
    out = {name: statistics.median(m[name] for m in per_unit) for name in per_unit[0]}
    out.update({k: v for k, v in spans.layer_metrics(memory["spans"]).items() if k.endswith("_peak_mb")})
    out["harness.trial_busy_s"] = statistics.median(r.get("trial_busy_s", 0.0) for r in timed)
    out["harness.csv_bytes"] = statistics.median(r.get("csv_bytes", 0) for r in timed)
    out["harness.pool_efficiency"] = statistics.median(
        r.get("trial_busy_s", 0.0) / (workers * r["wall_s"]) for r in untraced
    )
    untraced_wall = statistics.median(r["wall_s"] for r in serial)
    traced_wall = statistics.median(r["wall_s"] for r in timed)
    out["bench.trace_overhead_pct"] = 100.0 * (traced_wall / untraced_wall - 1.0)
    return out


def report(workload, seed: int, results: list[dict], metrics: dict, problems: list[str]) -> None:
    """Human-readable summary on standard error."""
    def line(text):
        print(text, file=sys.stderr)

    line(f"# {workload.name} seed={seed} units={len(results)} cpus={os.cpu_count()}")
    for name, value in metrics.items():
        line(f"{name} = {value:.6g}")
    ops_ms = [ms for r in results for ms in r["op_ms"]]
    found = tail(ops_ms)
    if found:
        pct, value, n = found
        line(f"trial_ms_tail = {value:.6g} ms (p{pct:g} of {n} trials)")
    else:
        line(f"trial_ms_tail omitted: {len(ops_ms)} trials leave fewer than 10 beyond p75")
    if workload.kind == "decompose":
        line(f"decompose_s_p50 = {statistics.median(ops_ms) / 1000.0:.6g} s")
    elif any(r.get("perms_tested") for r in results):
        rate = statistics.median(r["perms_tested"] / r["wall_s"] for r in results)
        line(f"perms_per_s = {rate:.6g} 1/s")
    if workload.kind == "run":
        line(f"csv_sha256 = {results[0]['csv_sha256']}")
        for name, size in computed_bytes(workload).items():
            line(f"{name}_bytes (computed, largest point) = {size}")
    for problem in problems[:20]:
        line(f"FAILED: {problem}")


def measure(workload, seed: int, seconds: int, traced: bool, workdir: Path) -> dict:
    runner = Runner(workload, seed, workdir)
    setups = []
    if not traced:
        for _ in range(SETUP_PROBES):
            probe = runner.unit("--setup-only")
            if probe is not None:
                setups.append(probe["setup_s"])
    # a traced run repeats part 0 throughout, so its counts repeat exactly
    # and the overhead compares like with like
    results, crashed = runner.repeat(seconds / 2 if traced else seconds, fresh=workload.fresh_inputs and not traced)
    groups = [results]
    serial = results
    if workload.workers > 1 and results:
        # byte-reproducibility guard: the same config at workers = 1
        one = runner.unit(workers=1)
        crashed += one is None
        serial = [one] if one else []
        groups.append(serial)
    if traced:
        timed, lost = runner.repeat(seconds / 2, "--trace", workers=1, check=False)
        memory = runner.unit("--trace-memory", workers=1)
        crashed += lost + (memory is None)
        groups += [timed, [memory] if memory else []]
    attempted, failed, problems = verdict(workload, seed, groups, crashed)
    metrics = {}
    if all(groups):
        metrics = per_layer(results, serial, timed, memory, workload.workers) if traced else end_to_end(results, setups)
        report(workload, seed, results, metrics, problems)
    attempted = max(attempted, 1)
    if not metrics:
        failed = attempted
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    root = Path.cwd()
    if not (root / "src" / "align_lab" / "__init__.py").is_file():
        print(f"error: {root}/src/align_lab not found; run from the repository root", file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    workdir = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        out = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = out["metrics"]
    if metrics and set(metrics) != {m["name"] for m in declared}:
        print(f"error: metrics {sorted(metrics)} differ from BENCHMARK.json", file=sys.stderr)
        return 1
    out["metrics"] = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared if metrics}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
