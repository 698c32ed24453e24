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


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _cmd_run(args: argparse.Namespace) -> None:
    config = parse_config(args.config)
    env_workers = os.environ.get("ALIGN_LAB_WORKERS")
    if env_workers:
        try:
            workers = int(env_workers)
        except ValueError as exc:
            raise ParameterError(f"ALIGN_LAB_WORKERS is not an integer: {env_workers!r}") from exc
        config = with_workers(config, workers)
    result = run(config)
    payload = {
        "csv": str(result.csv_path),
        "sidecar": str(result.sidecar_path),
        "rows": len(result.records),
        "points": [
            {
                "point_index": s.point_index,
                "n": s.n,
                "q": s.q,
                "s": s.s,
                "nqs": s.nqs,
                "trials": s.trials,
                "success_fraction": s.success_fraction,
            }
            for s in result.summaries
        ],
    }
    _emit(payload)


def _cmd_gen(args: argparse.Namespace) -> None:
    params = ModelParams(args.n, args.q, args.s)
    inst = generate(params, args.seed)
    storage.write_instance(inst, args.out)
    _emit(
        {
            "out": str(args.out),
            "n": params.n,
            "edges_a": inst.g_a.num_edges,
            "edges_b": inst.g_b.num_edges,
            "seed": args.seed,
        }
    )


def _cmd_check_good(args: argparse.Namespace) -> None:
    inst = storage.read_instance(args.instance)
    pi = storage.read_permutation(args.pi)
    report = is_good(inst.g_a, inst.g_b, pi, inst.params, args.alpha)
    _emit(
        {
            "threshold_degree": report.threshold_degree,
            "count_high_degree": report.count_high_degree,
            "required": report.required,
            "is_good": report.is_good,
            "degree_histogram": {str(k): v for k, v in sorted(report.degree_histogram.items())},
        }
    )


def _cmd_search(args: argparse.Namespace) -> None:
    inst = storage.read_instance(args.instance)
    res = find_good(
        inst.g_a,
        inst.g_b,
        inst.params,
        args.alpha,
        limit=args.limit,
        force_large=args.force_large,
    )
    payload = {"found": res.permutation is not None, "tested": res.tested}
    if res.permutation is not None:
        payload["pi"] = list(res.permutation.image)
        payload["overlap_with_pistar"] = overlap(res.permutation, inst.pi_star)
    _emit(payload)


def _cmd_map(args: argparse.Namespace) -> None:
    inst = storage.read_instance(args.instance)
    pi_hat = map_estimate(inst.g_a, inst.g_b, force_large=args.force_large)
    _emit(
        {
            "pi": list(pi_hat.image),
            "objective": overlap_objective(inst.g_a, inst.g_b, pi_hat),
            "overlap_with_pistar": overlap(pi_hat, inst.pi_star),
            "perms_tested": math.factorial(inst.params.n),
        }
    )


def _cmd_kcore(args: argparse.Namespace) -> None:
    g = storage.read_graph(args.graph)
    res = k_core(g, args.k)
    _emit(
        {
            "k": res.k,
            "size": len(res.members),
            "fraction": res.fraction,
            "members": list(res.members),
        }
    )


def _cmd_decompose(args: argparse.Namespace) -> None:
    pi = storage.read_permutation(args.pi)
    pi_star = storage.read_permutation(args.pistar)
    dec = decompose(pi, pi_star)
    _emit(
        {
            "eps": dec.eps,
            "s1_size": len(dec.s1),
            "s21_size": len(dec.s21),
            "cycles": census_rows(dec),
        }
    )


def _cmd_theory(args: argparse.Namespace) -> None:
    report = theory_report(args.n, args.q, args.s, args.alpha, args.beta, args.gamma)
    _emit(report.to_dict())


def _cmd_fano(args: argparse.Namespace) -> None:
    params = ModelParams(args.n, args.q, args.s)
    bound = fano_bound(args.n, args.q, args.s, args.alpha)
    _emit(
        {
            "raw": bound.raw,
            "clamped": bound.clamped,
            "kl": kl_divergence(dist_p(params), dist_q(params)),
        }
    )


def _cmd_psi(args: argparse.Namespace) -> None:
    _emit({"j": args.j, "mu": args.mu, "psi": psi(args.j, args.mu)})


def _cmd_ck(args: argparse.Namespace) -> None:
    res = c_k(args.k)
    _emit({"k": args.k, "c_k": res.value, "argmin_mu": res.argmin})


def _cmd_muk(args: argparse.Namespace) -> None:
    root = mu_k(args.k, args.lam)
    _emit({"k": args.k, "lam": args.lam, "mu_k": root})


def _cmd_mgf(args: argparse.Namespace) -> None:
    params = ModelParams(args.n, args.q, args.s)
    _emit(
        {
            "k_pairs": args.k_pairs,
            "t": args.t,
            "mgf": mgf_zk(args.k_pairs, args.t, params),
        }
    )


def _cmd_zeta(args: argparse.Namespace) -> None:
    res = chernoff_zeta(args.tau, args.q1, args.q2)
    _emit({"tau": args.tau, "q1": args.q1, "q2": args.q2, "zeta": res.zeta, "z_star": res.z_star})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="align-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute an experiment config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("gen", help="draw an instance and write a bundle directory")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("check-good", help="goodness report for a permutation")
    p.add_argument("--instance", required=True)
    p.add_argument("--pi", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.set_defaults(func=_cmd_check_good)

    p = sub.add_parser("search", help="enumerate permutations until one is good")
    p.add_argument("--instance", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--force-large", action="store_true")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("map", help="exhaustive maximum a posteriori alignment")
    p.add_argument("--instance", required=True)
    p.add_argument("--force-large", action="store_true")
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("kcore", help="k-core of a graph file")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=float, required=True)
    p.set_defaults(func=_cmd_kcore)

    p = sub.add_parser("decompose", help="ordered-pair cycle census of two permutations")
    p.add_argument("--pi", required=True)
    p.add_argument("--pistar", required=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("theory", help="full bound report for a parameter point")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.set_defaults(func=_cmd_theory)

    p = sub.add_parser("fano", help="impossibility bound at a parameter point")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.set_defaults(func=_cmd_fano)

    p = sub.add_parser("psi", help="Poisson upper tail P(Po(mu) >= j)")
    p.add_argument("--j", type=float, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.set_defaults(func=_cmd_psi)

    p = sub.add_parser("ck", help="core-emergence constant inf mu/psi_{k-1}(mu)")
    p.add_argument("--k", type=float, required=True)
    p.set_defaults(func=_cmd_ck)

    p = sub.add_parser("muk", help="largest root of mu = lam * psi_{k-1}(mu)")
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--lam", type=float, required=True)
    p.set_defaults(func=_cmd_muk)

    p = sub.add_parser("mgf", help="cyclic-sum moment generating function")
    p.add_argument("--k-pairs", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    p.set_defaults(func=_cmd_mgf)

    p = sub.add_parser("zeta", help="Chernoff minimization bound base and minimizer")
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--q1", type=float, required=True)
    p.add_argument("--q2", type=float, required=True)
    p.set_defaults(func=_cmd_zeta)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except ParameterError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
