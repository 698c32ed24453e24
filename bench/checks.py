"""Output checks of the benchmark, run outside the timed region.

Each check returns a list of failure messages; an empty list means every
output passed.  A message about one trial starts with ``trial p/t:``, so
the caller can count failed trials rather than messages.  The checks
recompute what they compare against by a route other than the code under
test wherever the package allows it.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from align_lab.model import ModelParams, generate
from align_lab.perms import (
    GROUP_FIXED_SECOND,
    GROUP_MIRROR_IN_CYCLE,
    GROUP_MIRROR_IN_TWIN,
    Permutation,
    overlap,
)
from align_lab.recovery import is_good, overlap_objective

_GROUP_SLOT = {GROUP_MIRROR_IN_CYCLE: 0, GROUP_MIRROR_IN_TWIN: 1, GROUP_FIXED_SECOND: 2}


def _sorted_keys(edges: np.ndarray, n: int) -> np.ndarray:
    # edges of a Graph are distinct, so a sort suffices (np.unique is far
    # slower on large int64 arrays)
    u = np.minimum(edges[:, 0], edges[:, 1])
    v = np.maximum(edges[:, 0], edges[:, 1])
    return np.sort(u * n + v)


def pistar_good_count(inst, alpha: float) -> tuple[int, bool]:
    """Count of high-degree nodes of the intersection graph under pi*, and
    whether pi* is good, from ``np.intersect1d`` of A's edge keys and B's
    edges relabelled by pi*^-1 (no membership probe of the package)."""
    n = inst.params.n
    inverse = np.argsort(inst.pi_star.as_array())
    keys_a = _sorted_keys(inst.g_a.edges(), n)
    keys_b = _sorted_keys(inverse[inst.g_b.edges()], n)
    common = np.intersect1d(keys_a, keys_b, assume_unique=True)
    deg = np.bincount(common // n, minlength=n) + np.bincount(common % n, minlength=n)
    count = int(np.count_nonzero(deg >= inst.params.nqs / 2.0))
    return count, count >= n * (1.0 + alpha) / 2.0


def _instance(record):
    return generate(ModelParams(record.n, record.q, record.s), record.seed)


def check_pistar(records, kept=()) -> list[str]:
    """Every record's ``pistar_good`` agrees with the independent recount.

    ``kept`` holds the instances the unit generated, in record order, when
    it could keep them; otherwise each instance is regenerated.
    """
    failures = []
    for i, r in enumerate(records):
        _, good = pistar_good_count(kept[i] if kept else _instance(r), r.alpha)
        if good != r.pistar_good:
            failures.append(f"trial {r.point_index}/{r.trial_index}: pistar_good {r.pistar_good}, recount {good}")
    return failures


def check_search(records, results) -> list[str]:
    """Every permutation ``find_good`` returned passes ``is_good`` on the
    regenerated instance and agrees with the record; a search without a hit
    tested all n! candidates."""
    failures = []
    for r, res in zip(records, results, strict=True):
        where = f"trial {r.point_index}/{r.trial_index}"
        if r.found_good != (res.permutation is not None) or r.perms_tested != res.tested:
            failures.append(f"{where}: record disagrees with the search result")
            continue
        if res.permutation is None:
            if res.tested != math.factorial(r.n):
                failures.append(f"{where}: no hit after {res.tested} of {r.n}! candidates")
            continue
        inst = _instance(r)
        if not is_good(inst.g_a, inst.g_b, res.permutation, inst.params, r.alpha).is_good:
            failures.append(f"{where}: returned permutation is not good")
        elif overlap(res.permutation, inst.pi_star) != r.overlap:
            failures.append(f"{where}: overlap {r.overlap} does not match the permutation")
    return failures


def check_map(records, estimates) -> list[str]:
    """Every MAP estimate overlaps at least as many edges as pi* does on the
    regenerated instance, and its overlap with pi* is the recorded one."""
    failures = []
    for r, pi_hat in zip(records, estimates, strict=True):
        inst = _instance(r)
        where = f"trial {r.point_index}/{r.trial_index}"
        if overlap_objective(inst.g_a, inst.g_b, pi_hat) < overlap_objective(inst.g_a, inst.g_b, inst.pi_star):
            failures.append(f"{where}: MAP objective below that of pi*")
        elif overlap(pi_hat, inst.pi_star) != r.overlap:
            failures.append(f"{where}: overlap {r.overlap} does not match the estimate")
    return failures


def cycle_lengths(p: np.ndarray) -> list[int]:
    seen = np.zeros(p.size, dtype=bool)
    lengths = []
    for start in range(p.size):
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = p[i]
            length += 1
        if length:
            lengths.append(length)
    return lengths


def closed_form_census(lengths: list[int]) -> tuple[int, int, dict[int, tuple[int, int, int]]]:
    """(|S1|, |S2^1|, census) of the ordered-pair decomposition from the
    cycle type of p alone.

    Pairs with a fixed first coordinate are S1.  Pairs (i, j) in distinct
    cycles of lengths a >= 2 and b form gcd(a, b) orbits of size lcm(a, b),
    G3 when b = 1 and G2 otherwise.  Pairs inside one cycle of length a form
    one orbit of size a per offset d = 1..a-1; offset a/2 is G1, or S2^1
    when a = 2, and the others are G2.
    """
    n = sum(lengths)
    fixed = lengths.count(1)
    census: dict[int, list[int]] = {}
    for x, a in enumerate(lengths):
        if a == 1:
            continue
        for y, b in enumerate(lengths):
            if x != y:
                slot = census.setdefault(math.lcm(a, b), [0, 0, 0])
                slot[2 if b == 1 else 1] += math.gcd(a, b)
        if a > 2:
            mirror = int(a % 2 == 0)
            slot = census.setdefault(a, [0, 0, 0])
            slot[0] += mirror
            slot[1] += a - 1 - mirror
    s21 = 2 * lengths.count(2)
    return fixed * (n - 1), s21, {k: tuple(v) for k, v in sorted(census.items())}


def check_decompose(pi: Permutation, pi_star: Permutation, dec, rows) -> list[str]:
    """S1 + S2^1 + sum of orbit sizes is n(n-1), the orbits recount to the
    census, and the census equals the closed form from the cycle type."""
    n = dec.n
    failures = []
    if len(dec.s1) + len(dec.s21) + dec.s22_size != n * (n - 1):
        failures.append("S1 + S2^1 + orbit sizes != n(n-1)")
    recount: dict[int, list[int]] = {}
    for cycle in dec.cycles:
        recount.setdefault(cycle.size, [0, 0, 0])[_GROUP_SLOT[cycle.group]] += 1
    if {k: tuple(v) for k, v in recount.items()} != dec.census:
        failures.append("orbit groups and sizes disagree with the census")
    p = pi.as_array()[np.argsort(pi_star.as_array())]
    s1, s21, census = closed_form_census(cycle_lengths(p))
    if (len(dec.s1), len(dec.s21), dec.census) != (s1, s21, census):
        failures.append("census differs from the closed form of the cycle type")
    flat = Counter()
    for row in rows:
        flat[(row["group"], row["k"])] += row["count"]
    expected = Counter()
    for k, triple in dec.census.items():
        for group, slot in _GROUP_SLOT.items():
            if triple[slot]:
                expected[(group, k)] += triple[slot]
    if flat != expected:
        failures.append("census_rows disagree with the census")
    return failures
