"""CLI tests: every subcommand end to end, JSON payloads, and exit codes."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from align_lab import (
    CapacityError,
    ModelParams,
    Permutation,
    decompose,
    generate,
    harness,
    make_rng,
    model,
)
from align_lab.cli import main
from align_lab.perms import _DECOMPOSE_PAIR_LIMIT
from align_lab.storage import read_instance, write_instance, write_permutation


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

    # psi_2(45) rounds to 1, so 45 is the largest root to double precision
    rc = main(["muk", "--k", "3", "--lam", "45"])
    assert rc == 0
    assert _json_out(capsys)["mu_k"] == 45.0

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


def _bytes_file(tmp_path, name: str, data: bytes) -> str:
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


def _bundle(tmp_path, meta: str) -> str:
    """An instance bundle whose meta.json holds ``meta``."""
    path = write_instance(generate(ModelParams(7, 0.4, 0.9), 5), tmp_path / "bundle")
    (path / "meta.json").write_text(meta)
    return str(path)


_RUN_HEAD = "mode = pistar-good\nn = 20\nq = 0.2\ns = 0.5\nalpha = 0.4\ntrials = 1\n"

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
    "psi-inf": lambda tmp: ["psi", "--j", "inf", "--mu", "1.0"],
    "psi-nan": lambda tmp: ["psi", "--j", "nan", "--mu", "1.0"],
    "theory-beta-nan": lambda tmp: [
        "theory", "--n", "200", "--q", "0.05", "--s", "0.5", "--alpha", "0.4",
        "--beta", "nan", "--gamma", "0.3",
    ],
    "gen-negative-seed": lambda tmp: (
        ["gen", "--n", "7", "--q", "0.4", "--s", "0.9", "--seed", "-1", "--out", str(tmp / "x")]
    ),
    "meta-not-json": lambda tmp: ["map", "--instance", _bundle(tmp, "{n = 7")],
    "meta-missing-key": lambda tmp: [
        "map", "--instance", _bundle(tmp, '{"n": 7, "q": 0.4, "s": 0.9}'),
    ],
    "meta-n-word": lambda tmp: [
        "map", "--instance", _bundle(tmp, '{"n": "seven", "q": 0.4, "s": 0.9, "seed": 5}'),
    ],
    "meta-n-fraction": lambda tmp: [
        "map", "--instance", _bundle(tmp, '{"n": 7.5, "q": 0.4, "s": 0.9, "seed": 5}'),
    ],
    "edges-not-utf8": lambda tmp: [
        "kcore", "--graph", _bytes_file(tmp, "g.edges", b"3 1\n0 \xff\n"), "--k", "2",
    ],
    "perm-not-utf8": lambda tmp: [
        "decompose",
        "--pi", _bytes_file(tmp, "pi.perm", b"0 \xfe 2\n"),
        "--pistar", _file(tmp, "pistar.perm", "0 1 2\n"),
    ],
    "config-not-utf8": lambda tmp: [
        "run", "--config", _bytes_file(tmp, "u.cfg", b"mode = sweep\n# \xff\n"),
    ],
    "theory-beta-inf": lambda tmp: [
        "theory", "--n", "200", "--q", "0.05", "--s", "0.5", "--alpha", "0.4",
        "--beta", "inf", "--gamma", "0.3",
    ],
}


@pytest.mark.parametrize("case", list(VALIDATION_CASES))
def test_validation_exit_code(case, tmp_path, capsys, monkeypatch):
    # only `run` reads the variable; the other subcommands ignore it
    monkeypatch.setenv("ALIGN_LAB_WORKERS", "abc")
    rc = main(VALIDATION_CASES[case](tmp_path))
    assert rc == 2
    assert "validation error:" in capsys.readouterr().err


def _log_uniform(lo: float, hi: float):
    """Floats spread evenly over the decades from lo to hi."""
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


def _argv(name: str, *flags: str):
    """Builds the argv ``name --flag value ...`` from one value per flag."""
    return lambda *values: [name, *(x for f, v in zip(flags, values) for x in (f, repr(v)))]


_HUGE = _log_uniform(1e-300, 1e300)
_UNIT = _log_uniform(1e-300, 1.0)
_K = _log_uniform(3.0, 60.0) | _log_uniform(1e-3, 3.0)  # c_k takes about 0.1 s at k = 60
_N = _log_uniform(2.0, 1e6).map(int)

THEORY_ARGV = st.one_of(
    st.builds(_argv("psi", "--j", "--mu"), _log_uniform(1e-3, 3e5), _HUGE),
    st.builds(_argv("ck", "--k"), _K),
    st.builds(_argv("muk", "--k", "--lam"), _K, _HUGE | _log_uniform(1.0, 1e3)),
    st.builds(
        _argv("mgf", "--k-pairs", "--t", "--q", "--s"),
        _log_uniform(1.0, 1e6).map(int), _HUGE, _UNIT, _UNIT,
    ),
    st.builds(_argv("zeta", "--tau", "--q1", "--q2"), _HUGE, st.just(0.0) | _HUGE, _HUGE),
    st.builds(_argv("fano", "--n", "--q", "--s", "--alpha"), _N, _UNIT, _UNIT, _UNIT),
    st.builds(
        _argv("theory", "--n", "--q", "--s", "--alpha", "--beta", "--gamma"),
        _N, _UNIT, _UNIT, _UNIT, _HUGE, _HUGE,
    ),
)


@settings(max_examples=150, deadline=None)
@given(THEORY_ARGV)
# c_50 = 64.17138310308327: a root exists just above it
@example(["muk", "--k", "50", "--lam", "64.17138316725466"])
# T^2 - 4D rounds to 0 where it is (p11*x - 1)^2 + 4*q^2*x, both terms ~0
@example(["mgf", "--k-pairs", "1", "--t", "46.051701859880716", "--q", "1e-20", "--s", "1"])
# q1^2 overflows a double
@example(["zeta", "--tau", "1", "--q1", "1e200", "--q2", "1"])
def test_theory_commands_never_raise(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    assert rc in (0, 2)


def test_capacity_exit_code(capsys):
    rc = main(
        ["gen", "--n", "1000000", "--q", "0.5", "--s", "0.5", "--seed", "1", "--out", "/tmp/x"]
    )
    assert rc == 3
    assert "capacity error" in capsys.readouterr().err


def test_forced_scans_over_the_byte_limit_exit_3(tmp_path, capsys):
    out = tmp_path / "big"
    assert main(["gen", "--n", "20000", "--q", "2e-4", "--s", "0.5", "--seed", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    for argv in (
        ["search", "--instance", str(out), "--alpha", "0.5", "--force-large", "--limit", "1"],
        ["map", "--instance", str(out), "--force-large"],
    ):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "capacity error" in err and "Traceback" not in err


def test_node_cap_exits_before_any_draw(tmp_path, capsys, monkeypatch):
    # about 1e6 expected parent edges, within the edge budget; the node cap stops both
    drawn = []
    monkeypatch.setattr(model, "make_rng", lambda *args: drawn.append(args))
    monkeypatch.setattr(harness, "generate", lambda *args: drawn.append(args))
    n = str(model.MAX_NODES + 1)
    gen = ["gen", "--n", n, "--q", "1e-10", "--s", "0.5", "--seed", "1", "--out", str(tmp_path / "g")]
    assert main(gen) == 3
    assert "node limit" in capsys.readouterr().err
    out = tmp_path / "nodes.csv"
    cfg = _file(
        tmp_path, "nodes.cfg",
        f"mode = pistar-good\nn = 2000, {n}\nq = 1e-10\ns = 0.5\nalpha = 0.4\n"
        f"trials = 1\noutput = {out}\n",
    )
    assert main(["run", "--config", cfg]) == 3
    assert "node limit" in capsys.readouterr().err
    assert drawn == [] and not out.exists() and not (tmp_path / "g").exists()


def test_graph_file_over_the_node_cap_exits_3(instance_dir, tmp_path, capsys):
    # the header's n is refused before the O(n) row table or any key u*n + v:
    # the key of (10, 11) would wrap in int64 and read as unsorted (exit 2)
    text = "1000000000000000000 2\n0 1\n10 11\n"
    graph = _file(tmp_path, "huge.edges", text)
    (instance_dir / "ga.edges").write_text(text)
    pi_path = tmp_path / "pi.perm"
    write_permutation(Permutation.identity(7), pi_path)
    capsys.readouterr()
    for argv in (
        ["kcore", "--graph", graph, "--k", "1"],
        ["check-good", "--instance", str(instance_dir), "--pi", str(pi_path), "--alpha", "0.4"],
    ):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "node limit" in err and "Traceback" not in err


def test_run_over_budget_exits_before_any_trial(tmp_path, capsys, monkeypatch):
    drawn = []
    monkeypatch.setattr(harness, "generate", lambda *args: drawn.append(args))
    out = tmp_path / "over.csv"
    cfg = _file(
        tmp_path, "over.cfg",
        "mode = pistar-good\nn = 2000, 1000000\nq = 0.2\ns = 0.5\nalpha = 0.4\n"
        f"trials = 1\noutput = {out}\n",
    )
    assert main(["run", "--config", cfg]) == 3
    assert "capacity error" in capsys.readouterr().err
    assert drawn == [] and not out.exists()


@pytest.mark.parametrize(
    "output", ["", "blocker/run.csv", "outdir", "sidecar.csv"],
    ids=["empty", "under-a-file", "a-directory", "sidecar-a-directory"],
)
def test_run_bad_output_exits_before_any_trial(output, tmp_path, capsys, monkeypatch):
    drawn = []
    monkeypatch.setattr(harness, "generate", lambda *args: drawn.append(args))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "blocker").write_text("a file, not a directory\n")
    (tmp_path / "outdir").mkdir()
    (tmp_path / "sidecar.csv.json").mkdir()
    cfg = _file(tmp_path, "out.cfg", _RUN_HEAD + f"output = {output}\n")
    assert main(["run", "--config", cfg]) == 2
    assert "validation error:" in capsys.readouterr().err
    assert drawn == []


def _smallest_n_over_pair_limit() -> int:
    n = math.isqrt(_DECOMPOSE_PAIR_LIMIT) + 1
    n += n * (n - 1) <= _DECOMPOSE_PAIR_LIMIT
    assert n * (n - 1) > _DECOMPOSE_PAIR_LIMIT >= (n - 1) * (n - 2)
    return n


def test_decompose_cli_has_no_pair_limit(tmp_path, capsys):
    # identity pair at the smallest n whose n(n-1) pairs exceed the limit:
    # the subcommand reads only the closed-form census and sizes
    n = _smallest_n_over_pair_limit()
    pi_path = tmp_path / "id.perm"
    write_permutation(Permutation.identity(n), pi_path)
    rc = main(["decompose", "--pi", str(pi_path), "--pistar", str(pi_path)])
    assert rc == 0
    payload = _json_out(capsys)
    assert payload["eps"] == 1.0 and payload["s1_size"] == n * (n - 1)
    assert payload["s21_size"] == 0 and payload["cycles"] == []


@pytest.mark.parametrize("pair_set", ["s1", "s21", "cycles"])
def test_decompose_pair_sets_raise_capacity_error(pair_set):
    n = _smallest_n_over_pair_limit()
    pi = Permutation.identity(n)
    dec = decompose(pi, pi)
    assert dec.census == {} and dec.s1_size == n * (n - 1)
    with pytest.raises(CapacityError):
        getattr(dec, pair_set)


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


# Golden guard of the whole CLI surface: for each invocation the SHA-256 of
# stdout and of stderr and the exit code.  Inputs live in the working
# directory under relative names, so no temporary path reaches the output.
def _golden_inputs(tmp) -> None:
    write_instance(generate(ModelParams(7, 0.4, 0.9), 5), tmp / "inst")
    (tmp / "g.edges").write_text("4 4\n0 1\n0 2\n1 2\n2 3\n")
    write_permutation(Permutation([2, 0, 1, 4, 3]), tmp / "pi.perm")
    write_permutation(Permutation([0, 1, 2, 3, 4]), tmp / "pistar.perm")
    (tmp / "exp.cfg").write_text(
        "mode = sweep\nn = 60\ns = 0.5\nnqs = 1.0, 4.0\nalpha = 0.4\n"
        "beta = 0.4\ngamma = 0.3\ntrials = 2\nbase_seed = 3\noutput = out/run.csv\n"
    )


GOLDEN = {
    "help": ["--help"],
    "help-search": ["search", "--help"],
    "help-mgf": ["mgf", "--help"],
    "run": ["run", "--config", "exp.cfg"],
    "gen": ["gen", "--n", "9", "--q", "0.3", "--s", "0.8", "--seed", "4", "--out", "new"],
    "check-good": ["check-good", "--instance", "inst", "--pi", "inst/pistar.perm",
                   "--alpha", "0.4"],
    "search": ["search", "--instance", "inst", "--alpha", "0.3"],
    "search-limit": ["search", "--instance", "inst", "--alpha", "0.9", "--limit", "50"],
    "map": ["map", "--instance", "inst"],
    "kcore": ["kcore", "--graph", "g.edges", "--k", "2"],
    "decompose": ["decompose", "--pi", "pi.perm", "--pistar", "pistar.perm"],
    "theory": ["theory", "--n", "200", "--q", "0.05", "--s", "0.5", "--alpha", "0.4",
               "--beta", "0.4", "--gamma", "0.3"],
    "theory-no-conditions": ["theory", "--n", "60", "--q", "0.2", "--s", "0.5",
                             "--alpha", "0.4"],
    "fano": ["fano", "--n", "5", "--q", "0.2", "--s", "0.6", "--alpha", "0.6"],
    "psi": ["psi", "--j", "2", "--mu", "1.0"],
    "ck": ["ck", "--k", "3"],
    "muk": ["muk", "--k", "3", "--lam", "4.0"],
    "mgf": ["mgf", "--k-pairs", "2", "--t", "0.5", "--q", "0.2", "--s", "0.6"],
    "mgf-n": ["mgf", "--k-pairs", "3", "--t", "0.5", "--n", "40", "--q", "0.2", "--s", "0.6"],
    "zeta": ["zeta", "--tau", "0.25", "--q1", "0.039", "--q2", "0.0065"],
    "error-q-above-s": ["gen", "--n", "7", "--q", "0.8", "--s", "0.5", "--seed", "1",
                        "--out", "x"],
    "error-missing-file": ["kcore", "--graph", "none.edges", "--k", "2"],
    "error-unknown-flag": ["psi", "--j", "2", "--mu", "1.0", "--nu", "3"],
    "error-no-command": [],
    "error-mgf-overflow": ["mgf", "--k-pairs", "2", "--t", "1e6", "--q", "0.2", "--s", "0.6"],
    "error-capacity": ["gen", "--n", "1000000", "--q", "0.5", "--s", "0.5", "--seed", "1",
                       "--out", "x"],
}

# name -> (stdout SHA-256, stderr SHA-256, exit code), recorded before the
# subcommands moved into one command table
_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
GOLDEN_DIGESTS = {
    "help":
        ("ac8469c70beba5aba1273649a4e1032232bfb147c1adda3da1b1df6e0e774f04", _EMPTY, 0),
    "help-search":
        ("29a80f189b126ffed3951896b2068d1dfa2824f0011148fd0f4fa9508439baac", _EMPTY, 0),
    "help-mgf":
        ("9c5cc8b8672f07bdfbcc3c74140a2c50e052736019a8f1c9d6343b1c61da8df1", _EMPTY, 0),
    "run":
        ("56d5794336739e463cdd281f9d975e7e1f6f3ab2aac0afb07eb28583c34452b0", _EMPTY, 0),
    "gen":
        ("d1380d2bb6ed5cc4c53eee51c46b7d938cf8fd57e0bba686c58085a8217250a9", _EMPTY, 0),
    "check-good":
        ("9d37363703841c2525244ad2c539396d0be0ebfb434b5a0d7c2d27c997ec9c02", _EMPTY, 0),
    "search":
        ("05e6a899ca1c1029b97b706fa658928ce200e1adca9162e1d9e57528225f1fd6", _EMPTY, 0),
    "search-limit":
        ("a36fc4281d35cc7e6d2530f407a8adf8260e07997543a5d015697cf5a7f50c80", _EMPTY, 0),
    "map":
        ("07a9627f2349a96075f77150bfe8b0479b39fbd7d82ef788979ee821d3a8de7e", _EMPTY, 0),
    "kcore":
        ("4422965093474033d8619f49cb3c6770bdc09a3ba3d791e8efdfabca298d8759", _EMPTY, 0),
    "decompose":
        ("1bece70d75b2c00147618357efe258677d907c56ca933e5b12b98fa1be5c0170", _EMPTY, 0),
    "theory":
        ("a4d8424a9d78abbf2ce8d4f81683d5ab3529b52fa1ff1a74b82531404f89e328", _EMPTY, 0),
    "theory-no-conditions":
        ("093dad1dc884855421f9bb9b825af16802a958eacc6e462bd14f99cfdc67f840", _EMPTY, 0),
    "fano":
        ("b1bd7b041de0ee5a93c0ee9c82bbda174a158fc55ca2444951f64a10fd1b7891", _EMPTY, 0),
    "psi":
        ("518b0510b0288a170d7cc0a1d7ca04ef7f5c1a56ad1885f3faa2cd3245a71972", _EMPTY, 0),
    "ck":
        ("fefd6b7207f5d71c4e0108d41d5ba40bba5df9b1da325cfedbd69da6451b50cc", _EMPTY, 0),
    "muk":
        ("719d42c34df4dfadde5de19b658ca01744d8d8363a4cef6e90c79b5ff0a97018", _EMPTY, 0),
    "mgf":
        ("93c3ae70941a3be4fc87f8898e256bcdd3261c67ba1a47a3202bf0aba438641f", _EMPTY, 0),
    "mgf-n":
        ("0728991881ae26daa87820ec92d5ae9be9290f497b753dadabebb078b3bc2aef", _EMPTY, 0),
    "zeta":
        ("c3acfbcf75945531ff4d6108a108296bf30f9bd9ba46212b8cc4d1ef5cc0e2bb", _EMPTY, 0),
    "error-q-above-s":
        (_EMPTY, "38c72d3c22e2cee9ac765bcbc0954bdaf68736e149f5dbdf84a0e45d9606a2f9", 2),
    "error-missing-file":
        (_EMPTY, "1c3d3b9322006802717f9a27d212a6d9cc11cc47a66c2b4c4f12eb5a9bea8bbe", 2),
    "error-unknown-flag":
        (_EMPTY, "0979a9a083b0e4128968e0ad760046f0d3df5fcb1e6a2b6109056c600b8f1066", 2),
    "error-no-command":
        (_EMPTY, "e45c7e91a72587e66e0673bff1e6e238f9c4254e584e56104f7048ae7f97a246", 2),
    "error-mgf-overflow":
        (_EMPTY, "82ab3cfb29eca3db46e7746c38e56609f55d44dfdb4927f99457d2234d8838b9", 2),
    "error-capacity":
        (_EMPTY, "84a80e22749966cfd69e136494160bbf3ce9ca8c8967bdca0824f1355a96c8a3", 3),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_cli_output_is_pinned(name, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("ALIGN_LAB_WORKERS", raising=False)
    _golden_inputs(tmp_path)
    capsys.readouterr()
    try:
        rc = main(GOLDEN[name])
    except SystemExit as exc:  # argparse exits on --help and on usage errors
        rc = exc.code
    out, err = capsys.readouterr()
    got = (hashlib.sha256(out.encode()).hexdigest(), hashlib.sha256(err.encode()).hexdigest(), rc)
    assert got == GOLDEN_DIGESTS[name]
