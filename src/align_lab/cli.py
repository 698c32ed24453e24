"""align-lab command line interface.

Subcommands mirror the library operations; results are printed as JSON on
stdout.  Exit codes: 0 on success, 2 on validation errors, 3 on capacity
errors.  ``ALIGN_LAB_WORKERS`` overrides the worker count of ``run``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Callable

from . import storage
from .errors import CapacityError, ParameterError
from .harness import parse_config, run, with_workers
from .model import ModelParams, dist_p, dist_q, generate, kl_divergence
from .perms import census_rows, decompose, overlap
from .recovery import find_good, is_good, k_core, map_estimate, overlap_objective
from .theory import (
    c_k,
    chernoff_zeta,
    fano_bound,
    mgf_zk,
    mu_k,
    psi,
    theory_report,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CAPACITY = 3

# An argument is a flag with its ``add_argument`` keywords.
Argument = tuple[str, dict]
Handler = Callable[[argparse.Namespace], dict]

# The command table: name -> (help, arguments, handler), in subcommand order.
# A handler takes the parsed namespace and returns the JSON payload.
COMMANDS: dict[str, tuple[str, tuple[Argument, ...], Handler]] = {}


def _required(flag: str, type_=None) -> Argument:
    return flag, {"type": type_, "required": True}


def _default(flag: str, type_, default) -> Argument:
    return flag, {"type": type_, "default": default}


def _switch(flag: str) -> Argument:
    return flag, {"action": "store_true"}


N, Q, S = _required("--n", int), _required("--q", float), _required("--s", float)
ALPHA = _required("--alpha", float)
INSTANCE = _required("--instance")
FORCE_LARGE = _switch("--force-large")


def command(name: str, help_: str, *arguments: Argument):
    """Register the decorated handler as subcommand ``name``."""

    def register(handler: Handler) -> Handler:
        COMMANDS[name] = (help_, arguments, handler)
        return handler

    return register


@command("run", "execute an experiment config", _required("--config"))
def _run(args: argparse.Namespace) -> dict:
    config = parse_config(args.config)
    env_workers = os.environ.get("ALIGN_LAB_WORKERS")
    if env_workers:
        try:
            workers = int(env_workers)
        except ValueError as exc:
            raise ParameterError(f"ALIGN_LAB_WORKERS is not an integer: {env_workers!r}") from exc
        config = with_workers(config, workers)
    result = run(config)
    fields = ("point_index", "n", "q", "s", "nqs", "trials", "success_fraction")
    return {
        "csv": str(result.csv_path),
        "sidecar": str(result.sidecar_path),
        "rows": len(result.records),
        "points": [{f: getattr(s, f) for f in fields} for s in result.summaries],
    }


@command(
    "gen", "draw an instance and write a bundle directory",
    N, Q, S, _required("--seed", int), _required("--out"),
)
def _gen(args: argparse.Namespace) -> dict:
    inst = generate(ModelParams(args.n, args.q, args.s), args.seed)
    storage.write_instance(inst, args.out)
    return {
        "out": str(args.out),
        "n": args.n,
        "edges_a": inst.g_a.num_edges,
        "edges_b": inst.g_b.num_edges,
        "seed": args.seed,
    }


@command(
    "check-good", "goodness report for a permutation",
    INSTANCE, _required("--pi"), ALPHA,
)
def _check_good(args: argparse.Namespace) -> dict:
    inst = storage.read_instance(args.instance)
    pi = storage.read_permutation(args.pi)
    report = is_good(inst.g_a, inst.g_b, pi, inst.params, args.alpha)
    return {
        "threshold_degree": report.threshold_degree,
        "count_high_degree": report.count_high_degree,
        "required": report.required,
        "is_good": report.is_good,
        "degree_histogram": {str(k): v for k, v in sorted(report.degree_histogram.items())},
    }


@command(
    "search", "enumerate permutations until one is good",
    INSTANCE, ALPHA, _default("--limit", int, None), FORCE_LARGE,
)
def _search(args: argparse.Namespace) -> dict:
    inst = storage.read_instance(args.instance)
    res = find_good(
        inst.g_a, inst.g_b, inst.params, args.alpha,
        limit=args.limit, force_large=args.force_large,
    )
    payload = {"found": res.permutation is not None, "tested": res.tested}
    if res.permutation is not None:
        payload["pi"] = list(res.permutation.image)
        payload["overlap_with_pistar"] = overlap(res.permutation, inst.pi_star)
    return payload


@command("map", "exhaustive maximum a posteriori alignment", INSTANCE, FORCE_LARGE)
def _map(args: argparse.Namespace) -> dict:
    inst = storage.read_instance(args.instance)
    pi_hat = map_estimate(inst.g_a, inst.g_b, force_large=args.force_large)
    return {
        "pi": list(pi_hat.image),
        "objective": overlap_objective(inst.g_a, inst.g_b, pi_hat),
        "overlap_with_pistar": overlap(pi_hat, inst.pi_star),
        "perms_tested": math.factorial(inst.params.n),
    }


@command("kcore", "k-core of a graph file", _required("--graph"), _required("--k", float))
def _kcore(args: argparse.Namespace) -> dict:
    g = storage.read_graph(args.graph)
    res = k_core(g, args.k)
    return {
        "k": res.k,
        "size": len(res.members),
        "fraction": res.fraction,
        "members": list(res.members),
    }


@command(
    "decompose", "ordered-pair cycle census of two permutations",
    _required("--pi"), _required("--pistar"),
)
def _decompose(args: argparse.Namespace) -> dict:
    pi = storage.read_permutation(args.pi)
    pi_star = storage.read_permutation(args.pistar)
    dec = decompose(pi, pi_star)
    return {
        "eps": dec.eps,
        "s1_size": dec.s1_size,
        "s21_size": dec.s21_size,
        "cycles": census_rows(dec),
    }


@command(
    "theory", "full bound report for a parameter point",
    N, Q, S, ALPHA, _default("--beta", float, None), _default("--gamma", float, None),
)
def _theory(args: argparse.Namespace) -> dict:
    return theory_report(args.n, args.q, args.s, args.alpha, args.beta, args.gamma).to_dict()


@command("fano", "impossibility bound at a parameter point", N, Q, S, ALPHA)
def _fano(args: argparse.Namespace) -> dict:
    params = ModelParams(args.n, args.q, args.s)
    bound = fano_bound(args.n, args.q, args.s, args.alpha)
    return {
        "raw": bound.raw,
        "clamped": bound.clamped,
        "kl": kl_divergence(dist_p(params), dist_q(params)),
    }


@command(
    "psi", "Poisson upper tail P(Po(mu) >= j)",
    _required("--j", float), _required("--mu", float),
)
def _psi(args: argparse.Namespace) -> dict:
    return {"j": args.j, "mu": args.mu, "psi": psi(args.j, args.mu)}


@command("ck", "core-emergence constant inf mu/psi_{k-1}(mu)", _required("--k", float))
def _ck(args: argparse.Namespace) -> dict:
    res = c_k(args.k)
    return {"k": args.k, "c_k": res.value, "argmin_mu": res.argmin}


@command(
    "muk", "largest root of mu = lam * psi_{k-1}(mu)",
    _required("--k", float), _required("--lam", float),
)
def _muk(args: argparse.Namespace) -> dict:
    return {"k": args.k, "lam": args.lam, "mu_k": mu_k(args.k, args.lam)}


@command(
    "mgf", "cyclic-sum moment generating function",
    _required("--k-pairs", int), _required("--t", float), _default("--n", int, 2), Q, S,
)
def _mgf(args: argparse.Namespace) -> dict:
    params = ModelParams(args.n, args.q, args.s)
    return {"k_pairs": args.k_pairs, "t": args.t, "mgf": mgf_zk(args.k_pairs, args.t, params)}


@command(
    "zeta", "Chernoff minimization bound base and minimizer",
    _required("--tau", float), _required("--q1", float), _required("--q2", float),
)
def _zeta(args: argparse.Namespace) -> dict:
    res = chernoff_zeta(args.tau, args.q1, args.q2)
    return {"tau": args.tau, "q1": args.q1, "q2": args.q2, "zeta": res.zeta, "z_star": res.z_star}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="align-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, arguments, handler) in COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload = args.func(args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (ParameterError, OSError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print(json.dumps(payload, indent=2))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
