"""Algorithmic core: intersection graphs, the goodness test, exhaustive
search for a good permutation, the brute-force MAP estimator, and k-cores.

A candidate permutation ``pi`` maps node labels of graph A onto labels of
graph B.  Its intersection graph keeps edge {i, j} iff A has it and B has
{pi(i), pi(j)}.  ``pi`` is *good* (at level alpha, under known model
parameters) when at least n*(1+alpha)/2 nodes of that intersection graph
have degree >= n*q*s/2.  Both thresholds are kept as exact reals and
compared against integer degrees without rounding.

Every intersection query builds the intersection graph in A's labels,
reading B (see ``model.Graph``) through its image followed by the
permutation's inverse.  Under pi* on a generated instance that read maps
nothing, and A and B' are packed coin masks over one parent's CSR: the
intersection graph is the parent under the AND of both masks, and the
probe counts its degrees over the parent block by block, with no gather,
map or sort.  Any other permutation maps and sorts B's keys into A's labels
and searches them, block by block, in A's.

The exhaustive routines enumerate image lists in lexicographic order and
evaluate them in vectorized batches; results are reported as if the scan
were strictly sequential, so the returned permutation is always the
lexicographically first hit.  The image lists come from one read-only int8
table of all k! lists of range(k), k = min(n, 8), built once per k with
numpy and cached (322 KB at k = 8).  For n > 8 the scan walks the
length-(n - 8) prefixes in lexicographic order and follows each with the
8-table mapped through the labels the prefix leaves, so memory stays at
the table's size whatever n and the budget are.  Instead of mapping the
table, B's dense adjacency is relabeled once per prefix (prefix labels
first, then the rest in increasing order), and each batch gathers its
matches through one flat index into it, computed from the table's columns.

Two exact exits skip enumeration without changing any result:

- ``find_good`` scans nothing when fewer than n*(1+alpha)/2 nodes of A, or
  of B, have degree >= n*q*s/2.  An intersection degree is at most the A
  degree of its node and the B degree of that node's image, and pi is a
  bijection, so then no candidate is good; ``tested`` is the budget, as a
  full scan would report.
- ``map_estimate`` stops once its best objective equals min(m_A, m_B),
  which no objective exceeds.  A later candidate must beat the best
  strictly, so the lexicographically first maximizer is kept.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import CapacityError, ParameterError
from .model import Graph, ModelParams, _intersection, check_alpha
from .perms import Permutation

# n! enumeration beyond this needs an explicit override.
MAX_EXHAUSTIVE_N = 10

_CHUNK = 2048
# Image lists come from the cached table of all _TABLE_K! lists (8! * 8 bytes)
# under a prefix of the first n - _TABLE_K images.
_TABLE_K = 8


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


def intersection_degrees(g_a: Graph, g_b: Graph, pi: Permutation) -> np.ndarray:
    """Per-node degrees of the intersection graph, counted from its stored form."""
    return _intersection(g_a, g_b, pi).degrees()


def intersection_graph(g_a: Graph, g_b: Graph, pi: Permutation) -> Graph:
    """Graph with edge {i, j} iff A has {i, j} and B has {pi(i), pi(j)},
    stored as its own CSR: under pi* on a generated instance it keeps no
    reference to the parent's."""
    inter = _intersection(g_a, g_b, pi)
    return Graph(inter.n, *inter._csr())


def is_good(
    g_a: Graph, g_b: Graph, pi: Permutation, params: ModelParams, alpha: float
) -> GoodnessReport:
    """Goodness test: enough intersection-graph nodes of degree >= n*q*s/2."""
    check_alpha(alpha)
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


@functools.lru_cache(maxsize=None)
def _lex_table(k: int) -> np.ndarray:
    """All k! image lists of ``range(k)`` in lexicographic order, (k!, k) int8, read-only.

    For each first image f, f is followed by the table of k - 1 mapped
    through the labels other than f, which are in increasing order.
    """
    if k == 0:
        table = np.zeros((1, 0), dtype=np.int8)
    else:
        sub = _lex_table(k - 1)
        labels = np.arange(k, dtype=np.int8)
        rest = np.array([np.delete(labels, f) for f in range(k)])  # (k, k - 1)
        rows = k * sub.shape[0]
        table = np.concatenate(
            [np.repeat(labels, sub.shape[0])[:, None], rest[:, sub].reshape(rows, k - 1)], axis=1
        )
    table.flags.writeable = False
    return table


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
    e: np.ndarray, g_b: Graph, budget: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """The first ``budget`` image lists in lexicographic order.

    The image lists are the length-(n - k) prefixes, k = min(n, _TABLE_K), in
    lexicographic order, each followed by the k-table mapped through the
    labels that the prefix leaves.  Yields ``(offset, order, local, matched)``
    per batch: column c of ``order[local]`` is the image list of candidate
    ``offset + c`` (0-based), and ``matched[j, c]`` says whether A's edge
    ``e[j]`` lands on an edge of B under it, where ``e`` is ``g_a.edges()``,
    read once by the caller.  B's adjacency is relabeled by ``order`` once
    per prefix, so the batches gather straight from ``local``.  Callers
    check the graph sizes first.
    """
    n = g_b.n
    k = min(n, _TABLE_K)
    table = _lex_table(k)
    b_adj = _dense_adjacency(g_b)
    offset = 0
    for prefix in itertools.permutations(range(n), n - k):
        order = np.array(prefix + tuple(x for x in range(n) if x not in prefix), dtype=np.intp)
        b_flat = b_adj[np.ix_(order, order)].ravel()
        for start in range(0, table.shape[0], _CHUNK):
            stop = min(start + _CHUNK, table.shape[0], start + budget - offset)
            local = np.empty((n, stop - start), dtype=np.intp)
            local[: n - k] = np.arange(n - k)[:, None]
            local[n - k :] = table[start:stop].T
            local[n - k :] += n - k
            yield offset, order, local, b_flat[local[e[:, 0]] * n + local[e[:, 1]]]
            offset += stop - start
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
    number of candidates decided (capped by ``limit``) when none is good.
    Candidates ruled out by the degree bound, without a scan, count as
    decided.
    """
    check_alpha(alpha)
    if limit is not None and limit < 1:
        raise ParameterError(f"limit must be positive, got {limit}")
    n = _check_same_size(g_a, g_b)
    _check_exhaustive_size(n, force_large)

    threshold = params.nqs / 2.0
    required = n * (1.0 + alpha) / 2.0
    total = math.factorial(n)
    budget = total if limit is None else min(limit, total)
    # An intersection degree is at most the A degree of its node and the B
    # degree of that node's image, and pi is a bijection: without enough
    # high-degree nodes in both graphs no candidate is good.
    for g in (g_a, g_b):
        if np.count_nonzero(g.degrees() >= threshold) < required:
            return SearchResult(None, budget)

    # Node-edge incidence of A: incidence @ matched is the (n, c) degree matrix.
    # float32 sends the product to BLAS and holds degrees < 2**24 exactly.
    e = g_a.edges()
    incidence = np.zeros((n, e.shape[0]), dtype=np.float32)
    cols = np.arange(e.shape[0])
    incidence[e[:, 0], cols] = 1.0
    incidence[e[:, 1], cols] = 1.0

    for offset, order, local, matched in _scan(e, g_b, budget):
        degrees = incidence @ matched.astype(np.float32)
        hits = np.flatnonzero(np.count_nonzero(degrees >= threshold, axis=0) >= required)
        if hits.size:
            first = int(hits[0])
            return SearchResult(Permutation(order[local[:, first]]), offset + first + 1)
    return SearchResult(None, budget)


def map_estimate(g_a: Graph, g_b: Graph, force_large: bool = False) -> Permutation:
    """Exhaustive maximizer of the edge overlap; ties go to the
    lexicographically smallest image list."""
    n = _check_same_size(g_a, g_b)
    _check_exhaustive_size(n, force_large)
    # No objective exceeds min(m_A, m_B); a later candidate must beat the
    # best strictly, so the scan can stop once the best reaches it.
    ceiling = min(g_a.num_edges, g_b.num_edges)
    best_obj = -1
    best: np.ndarray | None = None
    for _, order, local, matched in _scan(g_a.edges(), g_b, math.factorial(n)):
        obj = matched.sum(axis=0)
        top = int(obj.argmax())
        if obj[top] > best_obj:
            best_obj = int(obj[top])
            best = order[local[:, top]]
            if best_obj == ceiling:
                break
    assert best is not None
    return Permutation(best)


def overlap_objective(g_a: Graph, g_b: Graph, pi: Permutation) -> int:
    """Number of edges of A mapped onto edges of B by pi (the MAP objective)."""
    return _intersection(g_a, g_b, pi).num_edges


def k_core(g: Graph, k: float, peel_order: list[int] | None = None) -> KCoreResult:
    """Iteratively peel nodes of degree < k; the fixed point is the k-core.

    ``peel_order``, a permutation of range(n), rearranges the initial scan
    only; the result is the same for every order (exposed so tests can
    demonstrate that).
    """
    if not math.isfinite(k) or k < 0:
        raise ParameterError(f"k must be a finite nonnegative real, got {k}")
    n = g.n
    if peel_order is not None and sorted(peel_order) != list(range(n)):
        raise ParameterError(f"peel_order must be a permutation of range({n})")
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
