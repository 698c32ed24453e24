"""Harness tests: seed derivation, config parsing, end-to-end runs, CSV
schema stability, and worker-count independence."""

from __future__ import annotations

import json
import math
import re

import pytest

from align_lab import (
    CSV_COLUMNS,
    CapacityError,
    ConfigError,
    derive_seed,
    parse_config,
    run,
    theory_report,
)
from align_lab.harness import CSV_VERSION_LINE, with_workers
from align_lab.model import MAX_NODES


def _write_config(tmp_path, text: str):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return path


# -- seed derivation -----------------------------------------------------------


def test_derive_seed_frozen_origin():
    assert derive_seed(0, 0, 0) == 2558736989570252433


def test_derive_seed_deterministic():
    assert derive_seed(42, 3, 7) == derive_seed(42, 3, 7)
    assert derive_seed(42, 3, 7) != derive_seed(42, 3, 8)
    assert derive_seed(42, 3, 7) != derive_seed(42, 4, 7)
    assert derive_seed(41, 3, 7) != derive_seed(42, 3, 7)


def test_derive_seed_trial_injectivity():
    seeds = {derive_seed(123, 5, t) for t in range(100_000)}
    assert len(seeds) == 100_000


def test_derive_seed_range():
    for t in range(100):
        s = derive_seed(2**63, 17, t)
        assert 0 <= s < 2**64


# -- config parsing --------------------------------------------------------------


GOOD_CONFIG = """
# comment line
mode = pistar-good
n = 60
q = 0.2
s = 0.5
alpha = 0.4
trials = 2
base_seed = 7
workers = 1
output = {out}
"""


def test_parse_config_roundtrip(tmp_path):
    cfg = parse_config(_write_config(tmp_path, GOOD_CONFIG.format(out=tmp_path / "r.csv")))
    assert cfg.mode == "pistar-good"
    assert cfg.points == ((60, 0.2, 0.5),)
    assert cfg.alpha == 0.4
    assert cfg.trials == 2
    assert cfg.base_seed == 7


def test_parse_config_rejects_unknown_key(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(
            _write_config(
                tmp_path,
                GOOD_CONFIG.format(out=tmp_path / "r.csv") + "qq = 0.3\n",
            )
        )


def test_parse_config_rejects_duplicate_key(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(
            _write_config(
                tmp_path,
                GOOD_CONFIG.format(out=tmp_path / "r.csv") + "trials = 3\n",
            )
        )


@pytest.mark.parametrize(
    "old,new",
    [
        ("trials = 2", "trials = 0"),
        ("alpha = 0.4", "alpha = 1.5"),
        ("alpha = 0.4", "alpha = 0"),
        ("workers = 1", "workers = 1\nlimit = -3"),
        ("workers = 1", "workers = 1\nlimit = 0"),
        ("workers = 1", "workers = 1\nbeta = 0\ngamma = 0.3"),
        ("workers = 1", "workers = 1\nbeta = 0.4\ngamma = -1"),
        ("workers = 1", "workers = 1\nbeta = inf\ngamma = 0.3"),
        ("workers = 1", "workers = 1\nbeta = 0.4\ngamma = nan"),
        ("workers = 1", "workers = 1\nbeta = 0.4"),
        ("output = {out}", "output ="),
        ("mode = pistar-good", "mode = pistar"),
        ("workers = 1", "workers = 1\nforce_large = maybe"),
        ("q = 0.2", "q = ,"),
    ],
    ids=[
        "trials=0", "alpha=1.5", "alpha=0", "limit=-3", "limit=0", "beta=0", "gamma=-1",
        "beta=inf", "gamma=nan", "beta-alone", "output-empty", "mode-unknown", "force_large=maybe",
        "q-empty",
    ],
)
def test_parse_config_rejects_out_of_range_value(tmp_path, old, new):
    # caught at parse time, before any trial generates an instance
    bad = GOOD_CONFIG.replace(old, new)
    with pytest.raises(ConfigError):
        parse_config(_write_config(tmp_path, bad.format(out=tmp_path / "r.csv")))


@pytest.mark.parametrize("key", ["mode", "alpha", "trials", "output"])
def test_parse_config_requires_key(tmp_path, key):
    lines = GOOD_CONFIG.format(out=tmp_path / "r.csv").splitlines()
    text = "\n".join(line for line in lines if not line.startswith(f"{key} ="))
    with pytest.raises(ConfigError, match=f"{key} is required"):
        parse_config(_write_config(tmp_path, text))


def test_parse_config_defaults(tmp_path):
    text = GOOD_CONFIG.replace("base_seed = 7\nworkers = 1\n", "")
    cfg = parse_config(_write_config(tmp_path, text.format(out=tmp_path / "r.csv")))
    assert (cfg.beta, cfg.gamma, cfg.base_seed, cfg.workers) == (None, None, 0, 1)
    assert (cfg.force_large, cfg.limit) == (False, None)


def test_parse_config_bad_value_names_its_line(tmp_path):
    bad = GOOD_CONFIG.replace("trials = 2", "trials = two")
    path = _write_config(tmp_path, bad.format(out=tmp_path / "r.csv"))
    with pytest.raises(ConfigError, match=re.escape(f"{path}:8: bad value for trials")):
        parse_config(path)


def test_parse_config_rejects_q_and_nqs_together(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(
            _write_config(
                tmp_path,
                GOOD_CONFIG.format(out=tmp_path / "r.csv") + "nqs = 2.0\n",
            )
        )


def test_parse_config_rejects_invalid_grid_point(tmp_path):
    bad = GOOD_CONFIG.replace("q = 0.2", "q = 0.9")  # q > s
    with pytest.raises(ConfigError):
        parse_config(_write_config(tmp_path, bad.format(out=tmp_path / "r.csv")))


def test_parse_config_checks_parent_budget(tmp_path):
    # n = 2000 fits; the second point's ~2e11 parent edges do not
    over = GOOD_CONFIG.replace("n = 60", "n = 2000, 1000000")
    with pytest.raises(CapacityError):
        parse_config(_write_config(tmp_path, over.format(out=tmp_path / "r.csv")))
    # about 1e6 expected parent edges fit the edge budget, but not the node cap
    over = GOOD_CONFIG.replace("n = 60", f"n = 2000, {MAX_NODES + 1}").replace("q = 0.2", "q = 1e-10")
    with pytest.raises(CapacityError, match="node limit"):
        parse_config(_write_config(tmp_path, over.format(out=tmp_path / "r.csv")))


def test_parse_config_nqs_grid(tmp_path):
    text = """
mode = sweep
n = 100
s = 0.5
nqs = 1.0, 2.0, 4.0
alpha = 0.4
trials = 1
output = {out}
"""
    cfg = parse_config(_write_config(tmp_path, text.format(out=tmp_path / "r.csv")))
    assert [p[0] for p in cfg.points] == [100, 100, 100]
    assert [p[1] for p in cfg.points] == [
        pytest.approx(1.0 / 50),
        pytest.approx(2.0 / 50),
        pytest.approx(4.0 / 50),
    ]


def test_parse_config_cartesian_grid(tmp_path):
    text = """
mode = pistar-good
n = 50, 80
q = 0.1, 0.2
s = 0.5
alpha = 0.4
trials = 1
output = {out}
"""
    cfg = parse_config(_write_config(tmp_path, text.format(out=tmp_path / "r.csv")))
    assert cfg.points == ((50, 0.1, 0.5), (50, 0.2, 0.5), (80, 0.1, 0.5), (80, 0.2, 0.5))


def test_parse_config_guards_exhaustive_modes(tmp_path):
    text = """
mode = map-small
n = 12
q = 0.2
s = 0.5
alpha = 0.4
trials = 1
output = {out}
"""
    with pytest.raises(ConfigError):
        parse_config(_write_config(tmp_path, text.format(out=tmp_path / "r.csv")))


# -- runs --------------------------------------------------------------------------


def test_run_pistar_good_writes_csv_and_sidecar(tmp_path):
    out = tmp_path / "res.csv"
    cfg = parse_config(_write_config(tmp_path, GOOD_CONFIG.format(out=out)))
    result = run(cfg)
    assert result.csv_path == out
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_VERSION_LINE
    assert lines[1] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2 + 2  # one point x two trials
    sidecar = json.loads(result.sidecar_path.read_text())
    assert sidecar["mode"] == "pistar-good"
    assert sidecar["trials"] == 2


def test_run_rows_match_standalone_theory(tmp_path):
    out = tmp_path / "res.csv"
    text = GOOD_CONFIG.format(out=out) + "beta = 0.4\ngamma = 0.3\n"
    cfg = parse_config(_write_config(tmp_path, text))
    result = run(cfg)
    rep = theory_report(60, 0.2, 0.5, 0.4, 0.4, 0.3)
    header = result.csv_path.read_text().splitlines()[1].split(",")
    row = result.csv_path.read_text().splitlines()[2].split(",")
    cells = dict(zip(header, row))
    assert float(cells["kl"]) == rep.kl
    assert float(cells["fano_clamped"]) == rep.fano_clamped
    assert cells["cond_mean_degree"] == ("true" if rep.conditions.cond_mean_degree else "false")
    assert float(cells["nqs"]) == rep.nqs
    for record in result.records:
        assert record.kl == rep.kl
        assert record.wall_time_ms >= 0.0


def test_run_is_reproducible_and_worker_independent(tmp_path):
    texts = []
    for name in ("a.csv", "b.csv", "c.csv"):
        out = tmp_path / name
        cfg = parse_config(_write_config(tmp_path, GOOD_CONFIG.format(out=out)))
        if name == "c.csv":
            cfg = with_workers(cfg, 2)
        texts.append(run(cfg).csv_path.read_bytes())
    assert texts[0] == texts[1] == texts[2]


def test_run_search_small_mode(tmp_path):
    out = tmp_path / "search.csv"
    text = """
mode = search-small
n = 6
q = 0.4
s = 0.9
alpha = 0.3
trials = 3
base_seed = 11
output = {out}
"""
    cfg = parse_config(_write_config(tmp_path, text.format(out=out)))
    result = run(cfg)
    for record in result.records:
        assert record.found_good is not None
        assert record.perms_tested is not None
        assert 1 <= record.perms_tested <= math.factorial(6)
        if record.found_good:
            assert 0.0 <= record.overlap <= 1.0
        else:
            assert record.overlap is None


def test_run_map_small_mode(tmp_path):
    out = tmp_path / "map.csv"
    text = """
mode = map-small
n = 5
q = 0.4
s = 0.9
alpha = 0.3
trials = 3
base_seed = 13
output = {out}
"""
    cfg = parse_config(_write_config(tmp_path, text.format(out=out)))
    result = run(cfg)
    for record in result.records:
        assert record.perms_tested == math.factorial(5)
        assert 0.0 <= record.overlap <= 1.0


def test_run_sweep_summaries(tmp_path):
    out = tmp_path / "sweep.csv"
    text = """
mode = sweep
n = 80
s = 0.5
nqs = 1.0, 3.0
alpha = 0.3
trials = 4
base_seed = 3
output = {out}
"""
    cfg = parse_config(_write_config(tmp_path, text.format(out=out)))
    result = run(cfg)
    assert len(result.summaries) == 2
    for summary in result.summaries:
        assert summary.trials == 4
        assert 0.0 <= summary.success_fraction <= 1.0
