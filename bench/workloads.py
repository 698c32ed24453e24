"""Workload definitions of the align-lab benchmark.

Each workload is a fixed unit of work that a child process repeats: one or
more ``harness.run`` configs (the library path of ``align-lab run``), or one
``perms.decompose`` + ``census_rows`` call (the path of
``align-lab decompose``).  Every seed and permutation of a unit is derived
from the workload seed, so the same seed gives the same inputs.  Units
repeat the same inputs, except in a workload with ``fresh_inputs``: there
the k-th unit of a run (its *part*) draws its own inputs, so that the run's
median covers many instances whose cost varies.

This module imports nothing heavy: the orchestrator reads it without
loading numpy or the package under test.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "run" or "decompose"
    workers: int = 1
    # harness config fields, one dict per harness.run call of a unit
    configs: tuple[dict, ...] = ()
    n: int = 0  # decompose only
    fresh_inputs: bool = False


_PISTAR = dict(mode="pistar-good", s=0.5, nqs=130, alpha=0.5, beta=0.32, gamma=0.25, trials=1)
# Nine points of equal trial count: the median trial falls inside the
# middle point's cluster of trial times, not between two clusters.
_SWEEP = dict(
    mode="sweep", n=2000, s=0.5, nqs="1, 1.25, 1.5, 2, 4, 8, 16, 24, 32",
    alpha=0.5, beta=0.32, gamma=0.25, trials=30,
)
# A search stops at its first hit, often within the first block, or scans
# all n! candidates: trial costs differ by orders of magnitude, so each unit
# draws fresh instances and the run's median spans several hundred trials.
_SMALL = dict(n=8, q=0.3, s=0.6, alpha=0.8)

# Why each workload exists is recorded beside its name in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("pistar-20k", "run", configs=(dict(_PISTAR, n=20000),)),
        Workload("pistar-100k", "run", configs=(dict(_PISTAR, n=100000),)),
        Workload("sweep-2k-pool", "run", workers=2, configs=(_SWEEP,)),
        Workload(
            "exhaustive-n8",
            "run",
            configs=(dict(_SMALL, mode="search-small", trials=60), dict(_SMALL, mode="map-small", trials=30)),
            fresh_inputs=True,
        ),
        Workload("decompose-1k", "decompose", n=1000),
    )
}


def derived_seed(workload: str, seed: int, index: int, part: int = 0) -> int:
    """63-bit seed for input ``index`` of unit ``part`` of a workload run at ``seed``."""
    key = f"{workload}/{seed}/{index}" + (f"/{part}" if part else "")
    digest = hashlib.sha256(key.encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def config_text(workload: Workload, index: int, seed: int, workers: int, output: str, part: int = 0) -> str:
    """Flat key = value text of the index-th harness config of a unit."""
    fields = dict(workload.configs[index])
    fields.update(base_seed=derived_seed(workload.name, seed, index, part), workers=workers, output=output)
    return "".join(f"{key} = {value}\n" for key, value in fields.items())


def computed_bytes(workload: Workload) -> dict[str, int]:
    """Computed (not measured) bytes at the largest point of a workload.

    With m = q * C(n, 2) the expected edge count of one graph:
    ``edge_keys`` is the two sorted int64 key arrays of A and B (16 m);
    ``probe`` is what one membership probe of ``is_good`` holds at once:
    A's (m, 2) edge array, the mapped endpoints and keys, B's keys, the
    search positions and the match mask (65 m).  Empty for workloads
    without graphs.
    """
    m = 0.0
    for cfg in workload.configs:
        n, s = cfg["n"], cfg["s"]
        if "q" in cfg:
            q = cfg["q"]
        else:
            q = max(float(tok) for tok in str(cfg["nqs"]).split(",")) / (n * s)
        m = max(m, q * math.comb(n, 2))
    return {"edge_keys": round(16 * m), "probe": round(65 * m)} if m else {}
