"""Acceptance suite: ten gate criteria, one test each.

Every test evaluates its criterion fully, prints one pass/fail line
(`pytest -s` shows them live), and then asserts.  Tolerances are pinned
here, not configurable.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np
from mpmath import mp, mpf
from mpmath import log as mlog

from align_lab import (
    ModelParams,
    Permutation,
    chernoff_zeta,
    decompose,
    derive_seed,
    fano_bound,
    generate,
    is_good,
    k_core,
    m_alpha,
    make_rng,
    map_estimate,
    mgf_zk,
    overlap,
    parse_config,
    psi,
    berry_esseen_lower,
    recovery_conditions,
    rencontres,
    run,
)
from align_lab.harness import with_workers
from align_lab.model import Graph


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_model_moments():
    start = time.perf_counter()
    params = ModelParams(2000, 0.05, 0.5)
    slots = math.comb(params.n, 2)
    qs = params.q * params.s
    sd_p11 = math.sqrt(qs * (1 - qs) / slots)
    sd_q = math.sqrt(params.q * (1 - params.q) / slots)
    worst_p11 = worst_marginal = 0.0
    for seed in range(1000, 1010):
        inst = generate(params, seed=seed)
        b_prime = inst.g_b.relabeled(inst.pi_star.inverse().as_array())
        both = np.intersect1d(inst.g_a.edge_keys(), b_prime.edge_keys()).size
        worst_p11 = max(worst_p11, abs(both / slots - qs) / sd_p11)
        for g in (inst.g_a, inst.g_b):
            worst_marginal = max(worst_marginal, abs(g.density() - params.q) / sd_q)
    elapsed = time.perf_counter() - start
    ok = worst_p11 < 4.0 and worst_marginal < 4.0 and elapsed < 30.0
    _report(
        1,
        ok,
        f"model moments: |p11 dev| max {worst_p11:.2f} sigma, "
        f"|marginal dev| max {worst_marginal:.2f} sigma, {elapsed:.1f}s (< 30s)",
    )


def test_criterion_02_planted_permutation_is_good_at_scale():
    start = time.perf_counter()
    n, q, s, alpha, beta, gamma = 20000, 0.013, 0.5, 0.5, 0.32, 0.25
    conds = recovery_conditions(n, q, s, alpha, beta, gamma)
    params = ModelParams(n, q, s)
    good = sum(
        is_good(inst.g_a, inst.g_b, inst.pi_star, params, alpha).is_good
        for inst in (generate(params, seed=2000 + t) for t in range(20))
    )
    elapsed = time.perf_counter() - start
    ok = conds.all_satisfied and good >= 18 and elapsed < 300.0
    _report(
        2,
        ok,
        f"planted permutation good in {good}/20 trials at certified point "
        f"(nqs=130 >= {conds.mean_degree_threshold:.2f}), {elapsed:.0f}s (< 300s)",
    )


def _mgf_enumeration(k: int, t: float, q: float, s: float) -> float:
    cells = {
        (0, 0): 1 - 2 * q + q * s,
        (0, 1): q * (1 - s),
        (1, 0): q * (1 - s),
        (1, 1): q * s,
    }
    total = 0.0
    for assignment in itertools.product(cells, repeat=k):
        prob = math.prod(cells[c] for c in assignment)
        w = sum(assignment[i][0] * assignment[(i + 1) % k][1] for i in range(k))
        total += prob * math.exp(t * w)
    return total


def test_criterion_03_mgf_matches_enumeration():
    rng = make_rng(300)
    worst = 0.0
    for _ in range(20):
        q = float(rng.uniform(0.05, 0.45))
        s = float(rng.uniform(q + 0.01, 1.0))
        params = ModelParams(8, q, s)
        for k in range(1, 6):
            for t in (0.3, math.log(2)):
                err = abs(mgf_zk(k, t, params) - _mgf_enumeration(k, t, q, s))
                worst = max(worst, err)
    pinned = abs(mgf_zk(2, math.log(2), ModelParams(5, 0.2, 0.6)) - 1.0944)
    ok = worst <= 1e-10 and pinned <= 1e-10
    _report(
        3,
        ok,
        f"cyclic-sum MGF vs 4^k enumeration: max |err| {worst:.2e} (<= 1e-10), "
        f"pinned case |err| {pinned:.2e}",
    )


def test_criterion_04_rencontres_and_fano_counting():
    enum_ok = True
    for n in range(1, 8):
        counts = [0] * (n + 1)
        for perm in itertools.permutations(range(n)):
            counts[sum(1 for i, x in enumerate(perm) if i == x)] += 1
        enum_ok = enum_ok and counts == [rencontres(n, k) for k in range(n + 1)]

    m_alpha_ok = m_alpha(5, 0.6).exact == 11

    # independent recomputation: 30-digit KL, exact log(120/11)
    mp.dps = 30
    q, s = mpf("0.2"), mpf("0.6")
    p_cells = [1 - 2 * q + q * s, q * (1 - s), q * (1 - s), q * s]
    q_cells = [1 - 2 * q + q**2, q * (1 - q), q * (1 - q), q**2]
    kl = sum(pc * mlog(pc / qc) for pc, qc in zip(p_cells, q_cells))
    raw_independent = float(1 - (10 * kl + 1) / mlog(mpf(120) / 11))
    fano_err = abs(fano_bound(5, 0.2, 0.6, 0.6).raw - raw_independent)
    ok = enum_ok and m_alpha_ok and fano_err <= 1e-3
    _report(
        4,
        ok,
        f"rencontres enumerated for n <= 7: {enum_ok}; m_alpha(5,0.6)=11: {m_alpha_ok}; "
        f"fano raw vs independent recomputation |err| {fano_err:.2e} (<= 1e-3)",
    )


def _exhaustive_core(g: Graph, k: float) -> set[int]:
    masks = [0] * g.n
    for u, v in g.edges():
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    best: set[int] = set()
    for subset in range(1 << g.n):
        if subset.bit_count() <= len(best):
            continue
        s = subset
        ok = True
        while s:
            node = (s & -s).bit_length() - 1
            if (masks[node] & subset).bit_count() < k:
                ok = False
                break
            s &= s - 1
        if ok:
            best = {i for i in range(g.n) if subset >> i & 1}
    return best


def _random_graph(n: int, p: float, rng) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def test_criterion_05_k_core_correctness():
    rng = make_rng(500)
    oracle_ok = True
    for _ in range(200):
        n = int(rng.integers(3, 13))
        g = _random_graph(n, float(rng.uniform(0.15, 0.75)), rng)
        k = float(rng.integers(1, 5))
        if set(k_core(g, k).members) != _exhaustive_core(g, k):
            oracle_ok = False
            break
    order_ok = True
    for _ in range(50):
        g = _random_graph(11, 0.35, rng)
        reference = k_core(g, 3).members
        for _ in range(5):
            if k_core(g, 3, peel_order=list(rng.permutation(11))).members != reference:
                order_ok = False
    ok = oracle_ok and order_ok
    _report(
        5,
        ok,
        f"k-core peeling vs exhaustive subsets (200 graphs): {oracle_ok}; "
        f"peel-order invariance (50 graphs x 5 orders): {order_ok}",
    )


def test_criterion_06_poisson_tail_lemma():
    tail_ok = all(
        psi(math.ceil(lam / 2) - 1, 2 * lam / 3) >= 0.7 for lam in range(20, 201)
    )
    rng = make_rng(600)
    lower_ok = True
    for _ in range(1000):
        j = int(rng.integers(0, 100))
        mu = float(rng.uniform(0.01, 120.0))
        if berry_esseen_lower(j, mu) > psi(j, mu) + 1e-12:
            lower_ok = False
            break
    ok = tail_ok and lower_ok
    _report(
        6,
        ok,
        f"psi_(ceil(lam/2)-1)(2lam/3) >= 0.7 for lam in [20,200]: {tail_ok}; "
        f"normal-approximation lower bound <= psi on 1000 points: {lower_ok}",
    )


def test_criterion_07_chernoff_minimization():
    rng = make_rng(700)
    grid_ok = bound_ok = residual_ok = True
    for _ in range(1000):
        tau = float(rng.uniform(0.05, 4.0))
        q1 = float(rng.uniform(0.0, 3.0))
        q2 = float(rng.uniform(0.01, 3.0))
        zeta, z_star = chernoff_zeta(tau, q1, q2)
        grid = np.linspace(1e-9, 10 * z_star, 2000)
        f = grid ** (-tau) * np.exp(q2 * (grid * grid - 1) + q1 * (grid - 1))
        f_star = z_star ** (-tau) * math.exp(q2 * (z_star**2 - 1) + q1 * (z_star - 1))
        grid_ok = grid_ok and float(f.min()) >= f_star - 1e-9
        bound_ok = bound_ok and f_star <= zeta**tau
        residual_ok = residual_ok and abs(2 * q2 * z_star**2 + q1 * z_star - tau) <= 1e-9
    ok = grid_ok and bound_ok and residual_ok
    _report(
        7,
        ok,
        f"1000 random triples: grid min >= f(z*)-1e-9: {grid_ok}; "
        f"f(z*) <= zeta^tau: {bound_ok}; quadratic residual <= 1e-9: {residual_ok}",
    )


def test_criterion_08_cycle_decomposition_invariants():
    rng = make_rng(800)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 10))
        dec = decompose(Permutation.random(n, rng), Permutation.random(n, rng))
        n_eps = round(dec.eps * n)
        checks = [
            len(dec.s1) == n_eps * (n - 1),
            len(dec.s21) + dec.s22_size == (n - n_eps) * (n - 1),
            len(dec.s21) <= n - n_eps,
            sum(k * sum(t) for k, t in dec.census.items()) == dec.s22_size,
            all(k % 2 == 0 for k, (l, _, _) in dec.census.items() if l),
            all(m % 2 == 0 for _, (_, m, _) in dec.census.items()),
        ]
        pairs = set(dec.s1) | set(dec.s21)
        total = len(dec.s1) + len(dec.s21)
        for c in dec.cycles:
            pairs.update(c.pairs)
            total += c.size
        checks.append(total == n * (n - 1))
        checks.append(pairs == {(i, j) for i in range(n) for j in range(n) if i != j})
        if not all(checks):
            ok = False
            break
    _report(8, ok, "cycle decomposition invariants exact on 1000 random pairs (n <= 9)")


def test_criterion_09_independent_graphs_map_sanity():
    params = ModelParams(8, 0.3, 0.3)  # s = q: the two graphs are independent
    total = 0.0
    trials = 200
    for t in range(trials):
        inst = generate(params, seed=9000 + t)
        pi_hat = map_estimate(inst.g_a, inst.g_b)
        total += 8 * overlap(pi_hat, inst.pi_star)
    mean_fixed = total / trials
    ok = 0.5 <= mean_fixed <= 2.0
    _report(
        9,
        ok,
        f"independent pair (s=q): mean fixed points of MAP vs planted = "
        f"{mean_fixed:.3f} (in [0.5, 2])",
    )


def test_criterion_10_reproducibility(tmp_path):
    def config_text(out):
        return (
            "mode = sweep\nn = 300\ns = 0.5\nnqs = 2.0, 6.0\nalpha = 0.4\n"
            f"trials = 3\nbase_seed = 77\nworkers = 1\noutput = {out}\n"
        )

    contents = []
    for name, workers in (("r1.csv", 1), ("r2.csv", 1), ("r4.csv", 4)):
        cfg_path = tmp_path / f"{name}.cfg"
        cfg_path.write_text(config_text(tmp_path / name))
        cfg = parse_config(cfg_path)
        if workers != 1:
            cfg = with_workers(cfg, workers)
        contents.append(run(cfg).csv_path.read_bytes())
    rerun_ok = contents[0] == contents[1]
    workers_ok = contents[0] == contents[2]
    seed_ok = derive_seed(0, 0, 0) == 2558736989570252433
    ok = rerun_ok and workers_ok and seed_ok
    _report(
        10,
        ok,
        f"byte-identical CSV on rerun: {rerun_ok}; with 1 vs 4 workers: {workers_ok}; "
        f"seed mix anchored: {seed_ok}",
    )
