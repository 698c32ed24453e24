"""Algorithmic core: intersection graphs, the goodness test, exhaustive
search for a good permutation, the brute-force MAP estimator, and k-cores.

A candidate permutation ``pi`` maps node labels of graph A onto labels of
graph B.  Its intersection graph keeps edge {i, j} iff A has it and B has
{pi(i), pi(j)}.  ``pi`` is *good* (at level alpha, under known model
parameters) when at least n*(1+alpha)/2 nodes of that intersection graph
have degree >= n*q*s/2.  Both thresholds are kept as exact reals and
compared against integer degrees without rounding.

Every intersection query relabels A through the permutation into B's labels
(``Graph.relabeled``, which sorts the mapped keys) and probes B's sorted edge
keys with ``searchsorted`` (sorted needles walk the haystack in order, which
keeps the probe cache friendly): O(m_A log m_A) per permutation.  The
exhaustive routines enumerate image lists in lexicographic order and
evaluate them in vectorized batches; results are reported as if the scan
were strictly sequential, so the returned permutation is always the
lexicographically first hit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import CapacityError, ParameterError
from .model import Graph, ModelParams
from .perms import Permutation

# n! enumeration beyond this needs an explicit override.
MAX_EXHAUSTIVE_N = 10

_CHUNK = 2048


@dataclass(frozen=True)
class GoodnessReport:
    """Outcome of the goodness test for one permutation."""

    threshold_degree: float
    count_high_degree: int
    required: float
    is_good: bool
    degree_histogram: dict[int, int]


@dataclass(frozen=True)
class SearchResult:
    """First good permutation found (if any) and how many candidates were tested."""

    permutation: Permutation | None
    tested: int


@dataclass(frozen=True)
class KCoreResult:
    """The unique maximal induced subgraph with minimum degree >= k."""

    k: float
    members: tuple[int, ...]
    fraction: float


def _check_same_size(g_a: Graph, g_b: Graph) -> int:
    if g_a.n != g_b.n:
        raise ParameterError(f"graphs disagree on node count: {g_a.n} vs {g_b.n}")
    return g_a.n


def _matched_keys(g_a: Graph, g_b: Graph, pi: Permutation) -> np.ndarray:
    """Sorted keys, in B's labels, of the A edges {u, v} with {pi(u), pi(v)} in B."""
    _check_same_size(g_a, g_b)
    keys = g_a.relabeled(pi.as_array()).edge_keys()
    b_keys = g_b.edge_keys()
    if b_keys.size == 0:
        return keys[:0]
    pos = np.searchsorted(b_keys, keys)
    return keys[b_keys[np.minimum(pos, b_keys.size - 1)] == keys]


def intersection_degrees(g_a: Graph, g_b: Graph, pi: Permutation) -> np.ndarray:
    """Per-node degrees of the intersection graph, without building it."""
    n = g_a.n
    u, v = np.divmod(_matched_keys(g_a, g_b, pi), n)
    deg_b = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    return deg_b[pi.as_array()]


def intersection_graph(g_a: Graph, g_b: Graph, pi: Permutation) -> Graph:
    """Graph with edge {i, j} iff A has {i, j} and B has {pi(i), pi(j)}."""
    return Graph(g_a.n, _matched_keys(g_a, g_b, pi)).relabeled(pi.inverse().as_array())


def is_good(
    g_a: Graph, g_b: Graph, pi: Permutation, params: ModelParams, alpha: float
) -> GoodnessReport:
    """Goodness test: enough intersection-graph nodes of degree >= n*q*s/2."""
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must be in (0, 1), got {alpha}")
    n = _check_same_size(g_a, g_b)
    if params.n != n:
        raise ParameterError("params.n does not match the graphs")
    deg = intersection_degrees(g_a, g_b, pi)
    threshold = params.nqs / 2.0
    required = n * (1.0 + alpha) / 2.0
    count = int(np.count_nonzero(deg >= threshold))
    hist_counts = np.bincount(deg)
    histogram = {int(d): int(c) for d, c in enumerate(hist_counts) if c}
    return GoodnessReport(
        threshold_degree=threshold,
        count_high_degree=count,
        required=required,
        is_good=count >= required,
        degree_histogram=histogram,
    )


# -- vectorized enumeration ----------------------------------------------------


def _perm_chunks(n: int) -> Iterator[np.ndarray]:
    """Lexicographic image lists in (_CHUNK, n) batches."""
    it = itertools.permutations(range(n))
    while True:
        block = list(itertools.islice(it, _CHUNK))
        if not block:
            return
        yield np.array(block, dtype=np.int64)


def _dense_adjacency(g: Graph) -> np.ndarray:
    mat = np.zeros((g.n, g.n), dtype=bool)
    e = g.edges()
    mat[e[:, 0], e[:, 1]] = True
    mat[e[:, 1], e[:, 0]] = True
    return mat


def _check_exhaustive_size(n: int, force_large: bool) -> None:
    if n > MAX_EXHAUSTIVE_N and not force_large:
        raise CapacityError(
            f"exhaustive enumeration over {n}! permutations needs force_large=True"
        )


def _scan(
    g_a: Graph, g_b: Graph, limit: int | None
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """The first ``limit`` (default all n!) image lists in lexicographic order.

    Yields ``(offset, block, matched)`` per batch: ``offset`` is the 0-based
    position of ``block[0]`` in the scan, and ``matched[c, e]`` says whether
    A's edge ``e`` (in ``g_a.edges()`` order) lands on an edge of B under
    ``block[c]``.  Callers check the graph sizes first.
    """
    n = g_a.n
    b_adj = _dense_adjacency(g_b)
    e = g_a.edges()
    total = math.factorial(n)
    budget = total if limit is None else min(limit, total)
    offset = 0
    for block in _perm_chunks(n):
        block = block[: budget - offset]
        yield offset, block, b_adj[block[:, e[:, 0]], block[:, e[:, 1]]]
        offset += block.shape[0]
        if offset >= budget:
            return


def find_good(
    g_a: Graph,
    g_b: Graph,
    params: ModelParams,
    alpha: float,
    limit: int | None = None,
    force_large: bool = False,
) -> SearchResult:
    """Scan permutations in lexicographic order; return the first good one.

    ``tested`` is the 1-based position of the returned permutation, or the
    number of candidates examined (capped by ``limit``) when none is good.
    """
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must be in (0, 1), got {alpha}")
    if limit is not None and limit < 1:
        raise ParameterError(f"limit must be positive, got {limit}")
    n = _check_same_size(g_a, g_b)
    _check_exhaustive_size(n, force_large)

    threshold = params.nqs / 2.0
    required = n * (1.0 + alpha) / 2.0
    # Edge-node incidence of A: matched @ incidence is the (c, n) degree matrix.
    # float32 sends the product to BLAS and holds degrees < 2**24 exactly.
    e = g_a.edges()
    incidence = np.zeros((e.shape[0], n), dtype=np.float32)
    rows = np.arange(e.shape[0])
    incidence[rows, e[:, 0]] = 1.0
    incidence[rows, e[:, 1]] = 1.0

    tested = 0
    for offset, block, matched in _scan(g_a, g_b, limit):
        degrees = matched.astype(np.float32) @ incidence
        hits = np.flatnonzero(np.count_nonzero(degrees >= threshold, axis=1) >= required)
        if hits.size:
            first = int(hits[0])
            return SearchResult(Permutation(block[first]), offset + first + 1)
        tested = offset + block.shape[0]
    return SearchResult(None, tested)


def map_estimate(g_a: Graph, g_b: Graph, force_large: bool = False) -> Permutation:
    """Exhaustive maximizer of the edge overlap; ties go to the
    lexicographically smallest image list."""
    _check_exhaustive_size(_check_same_size(g_a, g_b), force_large)
    best_obj = -1
    best: np.ndarray | None = None
    for _, block, matched in _scan(g_a, g_b, None):
        obj = matched.sum(axis=1)
        top = int(obj.argmax())
        if obj[top] > best_obj:
            best_obj = int(obj[top])
            best = block[top].copy()
    assert best is not None
    return Permutation(best)


def overlap_objective(g_a: Graph, g_b: Graph, pi: Permutation) -> int:
    """Number of edges of A mapped onto edges of B by pi (the MAP objective)."""
    return int(_matched_keys(g_a, g_b, pi).size)


def k_core(g: Graph, k: float, peel_order: list[int] | None = None) -> KCoreResult:
    """Iteratively peel nodes of degree < k; the fixed point is the k-core.

    ``peel_order`` rearranges the initial scan only; the result is the same
    for every order (exposed so tests can demonstrate that).
    """
    if not math.isfinite(k) or k < 0:
        raise ParameterError(f"k must be a finite nonnegative real, got {k}")
    n = g.n
    deg = g.degrees().astype(np.int64)
    alive = np.ones(n, dtype=bool)
    order = range(n) if peel_order is None else peel_order
    stack = [int(v) for v in order if deg[v] < k]
    while stack:
        v = stack.pop()
        if not alive[v]:
            continue
        alive[v] = False
        for u in g.neighbors(v):
            if alive[u]:
                deg[u] -= 1
                if deg[u] < k <= deg[u] + 1:
                    stack.append(int(u))
    members = tuple(int(i) for i in np.nonzero(alive)[0])
    return KCoreResult(k=float(k), members=members, fraction=len(members) / n)
