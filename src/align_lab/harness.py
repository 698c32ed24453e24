"""Experiment orchestration: config parsing, deterministic parallel trials,
and CSV/JSON persistence.

Config files are flat ``key = value`` text ('#' starts a comment); unknown
keys are rejected and a bad value is reported with its ``path:line``.  A
grid is either the cartesian product of comma lists for n, q, s, or a comma
list ``nqs`` with scalar n and s (q is derived as nqs/(n*s)).  Modes:

- ``pistar-good``: draw an instance, test whether the planted permutation is
  good (scales to large n),
- ``search-small`` / ``map-small``: run the exhaustive algorithms (n <= 10
  unless force_large) and record the overlap with the planted permutation,
- ``sweep``: like pistar-good over the grid, summarized per point.

Every trial owns a seed derived from (base_seed, point index, trial index)
through splitmix64 mixing, touches no shared state, and is therefore safe
to farm out to a process pool.  Trials are dispatched in (point, trial)
order and the pool returns results in dispatch order, so the CSV is
byte-identical for any worker count.  Wall-clock times are kept on the
in-memory records only; they never enter the CSV.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, fields, replace
from functools import partial
from pathlib import Path

from .errors import ConfigError, ParameterError
from .model import ModelParams, check_alpha, check_exponents, check_parent_budget, generate
from .perms import overlap
from .recovery import MAX_EXHAUSTIVE_N, find_good, is_good, map_estimate
from .storage import read_text
from .theory import theory_report

MODES = ("pistar-good", "search-small", "map-small", "sweep")

CSV_VERSION_LINE = "# align-lab csv v1"
CSV_COLUMNS = (
    "n",
    "q",
    "s",
    "alpha",
    "point_index",
    "trial_index",
    "seed",
    "pistar_good",
    "found_good",
    "overlap",
    "perms_tested",
    "kl",
    "fano_clamped",
    "cond_mean_degree",
    "cond_correlation",
    "cond_sparsity_beta",
    "cond_sparsity_gamma",
    "nqs",
)

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(base_seed: int, point_index: int, trial_index: int) -> int:
    """Stable 64-bit trial seed: s = M(M(M(base) + point) + trial).

    M is the splitmix64 finalizer; all additions are mod 2^64.  For a fixed
    (base, point) the map is injective in the trial index, so trial seeds
    never collide within a point.
    """
    h = _splitmix64(base_seed & _MASK64)
    h = _splitmix64((h + point_index) & _MASK64)
    return _splitmix64((h + trial_index) & _MASK64)


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed config.  Every field but ``points`` is the config key of its
    name, and a field without a default is a required key."""

    mode: str
    points: tuple[tuple[int, float, float], ...]
    alpha: float
    trials: int
    output: Path
    beta: float | None = None
    gamma: float | None = None
    base_seed: int = 0
    workers: int = 1
    force_large: bool = False
    limit: int | None = None


def _bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError("must be true/false")


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise ValueError("must be >= 1")
    return value


def _mode(raw: str) -> str:
    if raw not in MODES:
        raise ValueError(f"must be one of {MODES}")
    return raw


def _output(raw: str) -> Path:
    if not raw:
        raise ValueError("must not be empty")
    return Path(raw)


def _comma_list(cast):
    def parse(raw: str) -> list:
        values = [cast(tok.strip()) for tok in raw.split(",") if tok.strip()]
        if not values:
            raise ValueError("needs at least one value")
        return values

    return parse


# Each config key and the caster of its value; a caster raises ValueError on
# a bad value.  The grid keys n, q, s and nqs become ``points``; every other
# key is the ``ExperimentConfig`` field of its name.
_KEYS = {
    "mode": _mode,
    "n": _comma_list(int),
    "q": _comma_list(float),
    "s": _comma_list(float),
    "nqs": _comma_list(float),
    "alpha": float,
    "beta": float,
    "gamma": float,
    "trials": _positive_int,
    "base_seed": int,
    "workers": lambda raw: max(1, int(raw)),
    "output": _output,
    "force_large": _bool,
    "limit": _positive_int,
}


def _grid(values: dict) -> tuple[tuple[int, float, float], ...]:
    """Pop the grid keys from ``values`` and return the grid points."""
    ns, qs, ss, nqs_list = (values.pop(key, None) for key in ("n", "q", "s", "nqs"))
    if ns is None or ss is None:
        raise ConfigError("n and s are required")
    if (qs is None) == (nqs_list is None):
        raise ConfigError("exactly one of q or nqs must be given")
    if nqs_list is None:
        return tuple((n, q, s) for n in ns for q in qs for s in ss)
    if len(ns) != 1 or len(ss) != 1:
        raise ConfigError("an nqs grid needs scalar n and s")
    (n,), (s,) = ns, ss
    return tuple((n, target / (n * s), s) for target in nqs_list)


def parse_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a flat key=value config file.

    Raises ConfigError for a malformed config and CapacityError for a grid
    point over the parent-edge budget, before any trial runs.
    """
    values: dict = {}
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        key, eq, value = (part.strip() for part in line.split("#", 1)[0].partition("="))
        if not (key or eq):
            continue
        if not eq:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = _KEYS[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r} ({exc})") from exc

    points = _grid(values)
    for field in fields(ExperimentConfig):
        if field.default is MISSING and field.name not in values and field.name != "points":
            raise ConfigError(f"{field.name} is required")
    config = ExperimentConfig(points=points, **values)
    try:
        check_alpha(config.alpha)
        check_exponents(config.beta, config.gamma)
        for n, q, s in points:
            params = ModelParams(n, q, s)
            if q <= 0.0:
                raise ParameterError(f"grid point (n={n}, q={q}, s={s}) needs q > 0 to simulate")
            check_parent_budget(params)
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc
    exhaustive = config.mode in ("search-small", "map-small") and not config.force_large
    if exhaustive and max(n for n, _, _ in points) > MAX_EXHAUSTIVE_N:
        raise ConfigError(f"mode {config.mode} needs n <= {MAX_EXHAUSTIVE_N} (or force_large)")
    return config


@dataclass(frozen=True)
class TrialRecord:
    n: int
    q: float
    s: float
    alpha: float
    point_index: int
    trial_index: int
    seed: int
    pistar_good: bool
    found_good: bool | None
    overlap: float | None
    perms_tested: int | None
    wall_time_ms: float
    kl: float
    fano_clamped: float
    cond_mean_degree: bool | None
    cond_correlation: bool | None
    cond_sparsity_beta: bool | None
    cond_sparsity_gamma: bool | None
    nqs: float

    def csv_row(self) -> list[str]:
        return [_format_cell(getattr(self, col)) for col in CSV_COLUMNS]


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _execute_trial(config: ExperimentConfig, point_index: int, trial_index: int) -> dict:
    """Run one trial and return its outcome fields of ``TrialRecord``."""
    start = time.perf_counter()
    params = ModelParams(*config.points[point_index])
    seed = derive_seed(config.base_seed, point_index, trial_index)
    inst = generate(params, seed)
    pistar_good = is_good(inst.g_a, inst.g_b, inst.pi_star, params, config.alpha).is_good
    found_good: bool | None = None
    beta_overlap: float | None = None
    perms_tested: int | None = None
    if config.mode == "search-small":
        res = find_good(
            inst.g_a, inst.g_b, params, config.alpha,
            limit=config.limit, force_large=config.force_large,
        )
        found_good = res.permutation is not None
        perms_tested = res.tested
        if res.permutation is not None:
            beta_overlap = overlap(res.permutation, inst.pi_star)
    elif config.mode == "map-small":
        pi_hat = map_estimate(inst.g_a, inst.g_b, force_large=config.force_large)
        beta_overlap = overlap(pi_hat, inst.pi_star)
        perms_tested = math.factorial(params.n)
    return {
        "seed": seed,
        "pistar_good": pistar_good,
        "found_good": found_good,
        "overlap": beta_overlap,
        "perms_tested": perms_tested,
        "wall_time_ms": (time.perf_counter() - start) * 1000.0,
    }


def _point_fields(config: ExperimentConfig, n: int, q: float, s: float) -> dict:
    """The per-point fields of ``TrialRecord``: the grid point and its theory."""
    rep = theory_report(n, q, s, config.alpha, config.beta, config.gamma)
    conds = rep.conditions
    return {
        "n": n,
        "q": q,
        "s": s,
        "alpha": config.alpha,
        "kl": rep.kl,
        "fano_clamped": rep.fano_clamped,
        "nqs": rep.nqs,
        **{
            col: getattr(conds, col) if conds else None
            for col in CSV_COLUMNS
            if col.startswith("cond_")
        },
    }


@dataclass(frozen=True)
class PointSummary:
    point_index: int
    n: int
    q: float
    s: float
    nqs: float
    trials: int
    success_count: int

    @property
    def success_fraction(self) -> float:
        return self.success_count / self.trials


@dataclass(frozen=True)
class RunResult:
    csv_path: Path
    sidecar_path: Path
    records: tuple[TrialRecord, ...]
    summaries: tuple[PointSummary, ...]


def run(config: ExperimentConfig) -> RunResult:
    """Execute all trials of a config and persist the results.

    Output is a CSV with the fixed CSV_COLUMNS order (version header
    comment first) plus a JSON sidecar of the resolved config at
    ``<output>.json``.  Identical configs produce byte-identical CSVs,
    independent of the worker count.
    """
    csv_path = config.output
    sidecar_path = Path(str(csv_path) + ".json")
    # a bad output path fails here, before any trial runs
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    for path in (csv_path, sidecar_path):
        if path.is_dir():
            raise ParameterError(f"output path {str(path)!r} is a directory")
    keys = [(pi, ti) for pi in range(len(config.points)) for ti in range(config.trials)]
    trial = partial(_execute_trial, config)
    if config.workers <= 1:
        outcomes = [trial(pi, ti) for pi, ti in keys]
    else:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            chunk = max(1, len(keys) // (config.workers * 4))
            outcomes = list(pool.map(trial, *zip(*keys), chunksize=chunk))

    point_fields = [_point_fields(config, *point) for point in config.points]
    records = tuple(
        TrialRecord(point_index=pi, trial_index=ti, **point_fields[pi], **outcome)
        for (pi, ti), outcome in zip(keys, outcomes)
    )
    success_counts = [0] * len(config.points)
    for r in records:
        success_counts[r.point_index] += r.pistar_good
    summaries = tuple(
        PointSummary(
            point_index=pi,
            n=n,
            q=q,
            s=s,
            nqs=n * q * s,
            trials=config.trials,
            success_count=success_counts[pi],
        )
        for pi, (n, q, s) in enumerate(config.points)
    )

    lines = [CSV_VERSION_LINE, ",".join(CSV_COLUMNS)]
    lines.extend(",".join(r.csv_row()) for r in records)
    csv_path.write_text("\n".join(lines) + "\n")

    sidecar = json.dumps(asdict(config), indent=2, sort_keys=True, default=str)
    sidecar_path.write_text(sidecar + "\n")

    return RunResult(
        csv_path=csv_path,
        sidecar_path=sidecar_path,
        records=records,
        summaries=summaries,
    )


def with_workers(config: ExperimentConfig, workers: int) -> ExperimentConfig:
    """Copy of the config with the worker count replaced (env override hook)."""
    return replace(config, workers=max(1, workers))
