"""One unit of a benchmark workload, run in a fresh process by ``run.py``.

Usage (from the repository root)::

    python3 bench/unit.py --workload NAME --seed N --dir WORKDIR --spawned T
        [--part K] [--workers K] [--setup-only] [--check] [--trace | --trace-memory]

``--spawned`` is the parent's ``time.perf_counter()`` just before it started
this process; the clock is system-wide, so set-up time includes interpreter
start and imports.  The unit writes ``WORKDIR/result.json`` and exits 0 even
when a check fails; a crash leaves no result file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import tracemalloc
from pathlib import Path

from workloads import WORKLOADS, config_text, derived_seed

sys.path.insert(0, str(Path.cwd() / "src"))


def _usage() -> tuple[float, float]:
    """CPU seconds and peak RSS (MB) of this process and its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(me.ru_maxrss, kids.ru_maxrss) / 1024.0


def _capture(module, name: str, store: list) -> None:
    """Keep every return value of ``module.name`` for the output checks."""
    func = getattr(module, name)

    def captured(*args, **kwargs):
        result = func(*args, **kwargs)
        store.append(result)
        return result

    setattr(module, name, captured)


def run_unit(workload, seed, workdir: Path, spawned, workers, setup_only, check, part=0):
    from align_lab import harness

    captured = {"find_good": [], "map_estimate": [], "generate": []}
    if check:
        # trials in pool workers are out of reach; their instances are regenerated
        for name, store in captured.items():
            if name != "generate" or workers == 1:
                _capture(harness, name, store)
    configs = []
    for index in range(len(workload.configs)):
        path = workdir / f"{index}.cfg"
        path.write_text(config_text(workload, index, seed, workers, str(workdir / f"{index}.csv"), part))
        configs.append(harness.parse_config(path))
    setup_s = time.perf_counter() - spawned
    if setup_only:
        return {"setup_s": setup_s}

    results, wall = [], 0.0
    for config in configs:
        start = time.perf_counter()
        results.append(harness.run(config))
        wall += time.perf_counter() - start
    cpu_s, peak_rss_mb = _usage()

    records = [r for res in results for r in res.records]
    csv = b"".join(res.csv_path.read_bytes() for res in results)
    out = {
        "setup_s": setup_s,
        "wall_s": wall,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "ops": len(records),
        "op_ms": [r.wall_time_ms for r in records],
        "trial_busy_s": sum(r.wall_time_ms for r in records) / 1000.0,
        "perms_tested": sum(r.perms_tested or 0 for r in records),
        "csv_bytes": len(csv),
        "csv_sha256": hashlib.sha256(csv).hexdigest(),
    }
    if check:
        import checks

        start = time.perf_counter()
        failures = checks.check_pistar(records, captured["generate"])
        for config, res in zip(configs, results):
            if config.mode == "search-small":
                failures += checks.check_search(res.records, captured["find_good"])
            elif config.mode == "map-small":
                failures += checks.check_map(res.records, captured["map_estimate"])
        out["failures"] = failures
        out["check_s"] = time.perf_counter() - start
    return out


def decompose_unit(workload, seed, spawned, setup_only, check):
    import numpy as np

    from align_lab import perms

    rng = np.random.default_rng(derived_seed(workload.name, seed, 0))
    pi = perms.Permutation(rng.permutation(workload.n))
    pi_star = perms.Permutation(rng.permutation(workload.n))
    setup_s = time.perf_counter() - spawned
    if setup_only:
        return {"setup_s": setup_s}

    start = time.perf_counter()
    dec = perms.decompose(pi, pi_star)
    rows = perms.census_rows(dec)
    wall = time.perf_counter() - start
    cpu_s, peak_rss_mb = _usage()
    out = {
        "setup_s": setup_s,
        "wall_s": wall,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "ops": 1,
        "op_ms": [wall * 1000.0],
    }
    if check:
        import checks

        start = time.perf_counter()
        out["failures"] = checks.check_decompose(pi, pi_star, dec, rows)
        out["check_s"] = time.perf_counter() - start
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-memory", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    workers = args.workers or workload.workers

    tracer = None
    if args.trace or args.trace_memory:
        import spans

        if args.trace_memory:
            tracemalloc.start()
        tracer = spans.Tracer(memory=args.trace_memory)
        spans.install(tracer)
    if workload.kind == "run":
        out = run_unit(workload, args.seed, args.dir, args.spawned, workers, args.setup_only, args.check, args.part)
    else:
        out = decompose_unit(workload, args.seed, args.spawned, args.setup_only, args.check)
    if tracer is not None:
        out["spans"] = tracer.spans
    (args.dir / "result.json").write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
