"""CLI tests: every subcommand end to end, JSON payloads, and exit codes."""

from __future__ import annotations

import hashlib
import json
import math

import pytest

from align_lab import Permutation, make_rng
from align_lab.cli import main
from align_lab.perms import _DECOMPOSE_PAIR_LIMIT
from align_lab.storage import read_instance, write_permutation


def _json_out(capsys) -> dict:
    return json.loads(capsys.readouterr().out)


@pytest.fixture()
def instance_dir(tmp_path):
    out = tmp_path / "inst"
    rc = main(["gen", "--n", "7", "--q", "0.4", "--s", "0.9", "--seed", "5", "--out", str(out)])
    assert rc == 0
    return out


def test_gen_writes_bundle(instance_dir, capsys):
    capsys.readouterr()
    inst = read_instance(instance_dir)
    assert inst.params.n == 7
    assert inst.seed == 5


def test_check_good(instance_dir, tmp_path, capsys):
    capsys.readouterr()
    inst = read_instance(instance_dir)
    pi_path = tmp_path / "pi.perm"
    write_permutation(inst.pi_star, pi_path)
    rc = main(
        ["check-good", "--instance", str(instance_dir), "--pi", str(pi_path), "--alpha", "0.4"]
    )
    assert rc == 0
    payload = _json_out(capsys)
    assert set(payload) == {
        "threshold_degree",
        "count_high_degree",
        "required",
        "is_good",
        "degree_histogram",
    }
    assert payload["threshold_degree"] == pytest.approx(7 * 0.4 * 0.9 / 2)
    assert sum(payload["degree_histogram"].values()) == 7


def test_search(instance_dir, capsys):
    capsys.readouterr()
    rc = main(["search", "--instance", str(instance_dir), "--alpha", "0.3"])
    assert rc == 0
    payload = _json_out(capsys)
    assert "found" in payload and "tested" in payload
    if payload["found"]:
        assert sorted(payload["pi"]) == list(range(7))
        assert 0.0 <= payload["overlap_with_pistar"] <= 1.0


def test_map(instance_dir, capsys):
    capsys.readouterr()
    rc = main(["map", "--instance", str(instance_dir)])
    assert rc == 0
    payload = _json_out(capsys)
    assert payload["perms_tested"] == math.factorial(7)
    assert sorted(payload["pi"]) == list(range(7))


def test_kcore(tmp_path, capsys):
    graph_path = tmp_path / "g.edges"
    graph_path.write_text("4 4\n0 1\n0 2\n1 2\n2 3\n")
    rc = main(["kcore", "--graph", str(graph_path), "--k", "2"])
    assert rc == 0
    payload = _json_out(capsys)
    assert payload["members"] == [0, 1, 2]
    assert payload["fraction"] == pytest.approx(0.75)


def test_decompose(tmp_path, capsys):
    pi_path = tmp_path / "pi.perm"
    pistar_path = tmp_path / "pistar.perm"
    write_permutation(Permutation([1, 0, 2]), pi_path)
    write_permutation(Permutation([0, 1, 2]), pistar_path)
    rc = main(["decompose", "--pi", str(pi_path), "--pistar", str(pistar_path)])
    assert rc == 0
    payload = _json_out(capsys)
    assert payload["eps"] == pytest.approx(1 / 3)
    assert payload["s1_size"] == 2
    assert payload["s21_size"] == 2
    assert payload["cycles"] == [{"group": "G3", "k": 2, "count": 1}]


def test_theory_and_fano(capsys):
    rc = main(
        ["theory", "--n", "200", "--q", "0.05", "--s", "0.5", "--alpha", "0.4",
         "--beta", "0.4", "--gamma", "0.3"]
    )
    assert rc == 0
    payload = _json_out(capsys)
    assert payload["nqs"] == pytest.approx(5.0)
    assert payload["conditions"] is not None

    rc = main(["fano", "--n", "5", "--q", "0.2", "--s", "0.6", "--alpha", "0.6"])
    assert rc == 0
    payload = _json_out(capsys)
    assert payload["raw"] == pytest.approx(0.139044127293, abs=1e-9)


def test_scalar_subcommands(capsys):
    rc = main(["psi", "--j", "2", "--mu", "1.0"])
    assert rc == 0
    assert _json_out(capsys)["psi"] == pytest.approx(1 - 2 / math.e, abs=1e-12)

    rc = main(["ck", "--k", "3"])
    assert rc == 0
    assert _json_out(capsys)["c_k"] == pytest.approx(3.3509189, abs=2e-3)

    rc = main(["muk", "--k", "3", "--lam", "4.0"])
    assert rc == 0
    assert _json_out(capsys)["mu_k"] == pytest.approx(3.4229733, abs=1e-5)

    rc = main(["mgf", "--k-pairs", "2", "--t", str(math.log(2)), "--q", "0.2", "--s", "0.6"])
    assert rc == 0
    assert _json_out(capsys)["mgf"] == pytest.approx(1.0944, abs=1e-12)

    rc = main(["zeta", "--tau", "1.0", "--q1", "1.0", "--q2", "1.0"])
    assert rc == 0
    payload = _json_out(capsys)
    assert payload["z_star"] == pytest.approx(0.5)
    assert payload["zeta"] == pytest.approx(4 * math.e, abs=1e-12)


def test_run_subcommand(tmp_path, capsys):
    out = tmp_path / "cli.csv"
    cfg = tmp_path / "cli.cfg"
    cfg.write_text(
        f"mode = sweep\nn = 60\ns = 0.5\nnqs = 2.0\nalpha = 0.4\ntrials = 2\noutput = {out}\n"
    )
    rc = main(["run", "--config", str(cfg)])
    assert rc == 0
    payload = _json_out(capsys)
    assert payload["rows"] == 2
    assert len(payload["points"]) == 1
    assert out.exists()


def test_run_theory_columns_match_theory_subcommand(tmp_path, capsys):
    out = tmp_path / "row.csv"
    cfg = tmp_path / "row.cfg"
    cfg.write_text(
        "mode = pistar-good\nn = 60\nq = 0.2\ns = 0.5\nalpha = 0.4\n"
        f"beta = 0.4\ngamma = 0.3\ntrials = 1\noutput = {out}\n"
    )
    assert main(["run", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(
        ["theory", "--n", "60", "--q", "0.2", "--s", "0.5", "--alpha", "0.4",
         "--beta", "0.4", "--gamma", "0.3"]
    ) == 0
    report = _json_out(capsys)
    header, row = out.read_text().splitlines()[1:3]
    cells = dict(zip(header.split(","), row.split(",")))
    assert float(cells["kl"]) == report["kl"]
    assert float(cells["fano_clamped"]) == report["fano_clamped"]
    assert float(cells["nqs"]) == report["nqs"]
    for name in ("cond_mean_degree", "cond_correlation",
                 "cond_sparsity_beta", "cond_sparsity_gamma"):
        assert (cells[name] == "true") == report["conditions"][name]


def test_run_worker_env_override(tmp_path, capsys, monkeypatch):
    def do_run(name):
        out = tmp_path / name
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(
            "mode = pistar-good\nn = 50\nq = 0.2\ns = 0.5\nalpha = 0.4\n"
            f"trials = 4\noutput = {out}\n"
        )
        assert main(["run", "--config", str(cfg)]) == 0
        capsys.readouterr()
        return out.read_bytes()

    plain = do_run("env1.csv")
    monkeypatch.setenv("ALIGN_LAB_WORKERS", "3")
    assert do_run("env2.csv") == plain


def _file(tmp_path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


VALIDATION_CASES = {
    "gen-q-above-s": lambda tmp: (
        ["gen", "--n", "7", "--q", "0.8", "--s", "0.5", "--seed", "1", "--out", str(tmp / "x")]
    ),
    "perm-token": lambda tmp: [
        "decompose",
        "--pi", _file(tmp, "pi.perm", "0 x 2\n"),
        "--pistar", _file(tmp, "pistar.perm", "0 1 2\n"),
    ],
    "edges-token": lambda tmp: [
        "kcore", "--graph", _file(tmp, "g.edges", "3 1\n0 y\n"), "--k", "2",
    ],
    "workers-env": lambda tmp: [
        "run", "--config",
        _file(tmp, "w.cfg", "mode = pistar-good\nn = 20\nq = 0.2\ns = 0.5\nalpha = 0.4\n"
              f"trials = 1\noutput = {tmp / 'w.csv'}\n"),
    ],
    "mgf-overflow": lambda tmp: ["mgf", "--k-pairs", "2", "--t", "1e6", "--q", "0.2", "--s", "0.6"],
}


@pytest.mark.parametrize("case", list(VALIDATION_CASES))
def test_validation_exit_code(case, tmp_path, capsys, monkeypatch):
    # only `run` reads the variable; the other subcommands ignore it
    monkeypatch.setenv("ALIGN_LAB_WORKERS", "abc")
    rc = main(VALIDATION_CASES[case](tmp_path))
    assert rc == 2
    assert "validation error:" in capsys.readouterr().err


def test_capacity_exit_code(capsys):
    rc = main(
        ["gen", "--n", "1000000", "--q", "0.5", "--s", "0.5", "--seed", "1", "--out", "/tmp/x"]
    )
    assert rc == 3
    assert "capacity error" in capsys.readouterr().err


def test_decompose_capacity_exit_code(tmp_path, capsys):
    # identity pair at the smallest n whose n(n-1) pairs exceed the limit
    n = math.isqrt(_DECOMPOSE_PAIR_LIMIT) + 1
    n += n * (n - 1) <= _DECOMPOSE_PAIR_LIMIT
    assert n * (n - 1) > _DECOMPOSE_PAIR_LIMIT >= (n - 1) * (n - 2)
    pi_path = tmp_path / "id.perm"
    write_permutation(Permutation.identity(n), pi_path)
    rc = main(["decompose", "--pi", str(pi_path), "--pistar", str(pi_path)])
    assert rc == 3
    assert "capacity error" in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path, capsys):
    rc = main(["kcore", "--graph", str(tmp_path / "none.edges"), "--k", "2"])
    assert rc == 2


# SHA-256 of the `decompose` stdout for the pair below, recorded with the
# pair-by-pair orbit walk.  Seed 2043 gives p two fixed points, a 2-cycle and
# orbits of all three groups.
DECOMPOSE_N200_SHA256 = "10f03c925727b045b0c9fa0204fe1daf5749364c5d027ce57dcd03c61fca4327"


def test_decompose_json_is_pinned(tmp_path, capsys):
    rng = make_rng(2043)
    pi_path, pistar_path = tmp_path / "pi.perm", tmp_path / "pistar.perm"
    write_permutation(Permutation.random(200, rng), pi_path)
    write_permutation(Permutation.random(200, rng), pistar_path)
    assert main(["decompose", "--pi", str(pi_path), "--pistar", str(pistar_path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DECOMPOSE_N200_SHA256
