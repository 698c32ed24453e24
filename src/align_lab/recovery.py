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
map or sort.  Under any other permutation A is gathered, B's kept entries
are mapped into A's labels and sorted, and each block of A's keys is
searched in them: the intersection graph is A's CSR under a packed mask of
the A edges found.

The exhaustive routines enumerate image lists in lexicographic order and
evaluate them in vectorized batches; results are reported as if the scan
were strictly sequential, so the returned permutation is always the
lexicographically first hit.  The image lists come from one read-only int8
table of all k! lists of range(k), k = min(n, 8), built once per k with
numpy and cached (322 KB at k = 8).  For n > 8 the scan walks the
length-(n - 8) prefixes in lexicographic order and follows each with the
8-table mapped through the labels the prefix leaves.  Instead of mapping
the table, B's dense adjacency is read in the prefix's labels (prefix
labels first, then the rest in increasing order).  A second cached table
holds, for every pair a < b of table positions, every candidate's flat
index ``table[:, a] * k + table[:, b]`` into the k x k block of B over the
last k labels ((C(k, 2), k!) uint8, 1.13 MB at k = 8), so a batch of
A's edges among those labels is one gather.  Besides B's dense adjacency
and a search's incidence of A, which a forced scan checks against
MAX_SCAN_BYTES before it allocates, memory stays at the two tables and
one batch whatever n and the budget are.

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
# A forced scan whose arrays would take more bytes than this is refused.
MAX_SCAN_BYTES = 256 * 2**20

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
    stored as its own CSR: the parent's CSR (under pi* on a generated
    instance) or A's (otherwise), gathered under the mask of those edges."""
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


@functools.lru_cache(maxsize=None)
def _pair_table(k: int) -> np.ndarray:
    """Flat k x k index of every candidate for every pair of table positions,
    (C(k, 2), k!) uint8, read-only (1.13 MB at k = 8).

    Row r, for the pair a < b at ``np.triu_indices(k, 1)``'s r-th place,
    holds ``table[:, a] * k + table[:, b]``: where candidate c sends the
    labels a and b, as one index into a k x k block.
    """
    cols = _lex_table(k).T.astype(np.uint8)
    a, b = np.triu_indices(k, 1)
    pairs = cols[a]
    pairs *= k
    pairs += cols[b]
    pairs.flags.writeable = False
    return pairs


def _image(order: np.ndarray, k: int, index: int) -> np.ndarray:
    """Image list of candidate ``index`` of the k-table under the prefix of ``order``."""
    p = order.size - k
    return np.concatenate([order[:p], order[p:][_lex_table(k)[index]]])


def _dense_adjacency(g: Graph) -> np.ndarray:
    mat = np.zeros((g.n, g.n), dtype=bool)
    e = g.edges()
    mat[e[:, 0], e[:, 1]] = True
    mat[e[:, 1], e[:, 0]] = True
    return mat


def _check_exhaustive_size(g_a: Graph, force_large: bool, search: bool) -> None:
    """Refuse n > MAX_EXHAUSTIVE_N without ``force_large``, and a forced scan
    whose arrays would exceed MAX_SCAN_BYTES, before anything is allocated."""
    n = g_a.n
    if n <= MAX_EXHAUSTIVE_N:
        return
    if not force_large:
        raise CapacityError(
            f"exhaustive enumeration over {n}! permutations needs force_large=True"
        )
    # B's dense adjacency and one batch of matches; a search adds A's float32
    # incidence and, per batch, the matches as float32 and the degree matrix.
    m = g_a.num_edges
    held = n * n + _CHUNK * m
    if search:
        held += 4 * (n * m + _CHUNK * (m + n))
    if held > MAX_SCAN_BYTES:
        raise CapacityError(
            f"an exhaustive scan at n = {n} with {m} edges in A needs about {held} bytes, "
            f"over the limit of {MAX_SCAN_BYTES}"
        )


def _scan(
    e: np.ndarray, g_b: Graph, budget: int
) -> Iterator[tuple[int, np.ndarray, int, np.ndarray]]:
    """The first ``budget`` image lists in lexicographic order.

    The image lists are the length-p prefixes, p = n - k and
    k = min(n, _TABLE_K), in lexicographic order, each followed by the
    k-table mapped through the labels that the prefix leaves.  Yields
    ``(offset, order, start, matched)`` per batch: ``_image(order, k,
    start + c)`` is the image list of candidate ``offset + c`` (0-based),
    and ``matched[j, c]`` says whether A's edge ``e[j]`` lands on an edge of
    B under it, where ``e`` is ``g_a.edges()`` (u < v, sorted), read once by
    the caller.  Callers check the graph sizes first.

    In B relabeled by ``order``, candidate c keeps the labels below p and
    sends p + a to p + table[c, a].  So an edge with both endpoints at or
    above p reads the k x k block of relabeled B over those labels through
    its row of the pair table.  An edge with u < p reads one entry of u's
    row of B, the same for every candidate of the prefix, unless p <= v:
    then it reads that row's last k entries through column v - p of the
    table.  As e is sorted, the edges with u < p come first; at
    n <= _TABLE_K there are none.
    """
    n = g_b.n
    k = min(n, _TABLE_K)
    p = n - k
    table, pairs = _lex_table(k), _pair_table(k)
    b_adj = _dense_adjacency(g_b)
    low = int(np.searchsorted(e[:, 0], p))
    (u, v), (a, b) = e[:low].T, e[low:].T - p
    inner_rows = a * (2 * k - a - 1) // 2 + b - a - 1  # place of (a, b) in np.triu_indices(k, 1)
    cross = np.flatnonzero(v >= p)
    cross_cols = v[cross] - p
    offset = 0
    for prefix in itertools.permutations(range(n), p):
        order = np.array(prefix + tuple(x for x in range(n) if x not in prefix), dtype=np.intp)
        rest = order[p:]
        block = b_adj[np.ix_(rest, rest)].ravel()
        low_hits = b_adj[order[u], order[v]]
        cross_rows = b_adj[np.ix_(order[u[cross]], rest)]
        for start in range(0, table.shape[0], _CHUNK):
            stop = min(start + _CHUNK, table.shape[0], start + budget - offset)
            matched = np.empty((e.shape[0], stop - start), dtype=bool)
            if low:
                matched[:low] = low_hits[:, None]
                matched[cross] = np.take_along_axis(cross_rows, table[start:stop, cross_cols].T, axis=1)
            # mode="clip" writes straight into out; the default mode buffers it
            block.take(pairs[inner_rows, start:stop], out=matched[low:], mode="clip")
            yield offset, order, start, matched
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
    _check_exhaustive_size(g_a, force_large, search=True)

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

    k = min(n, _TABLE_K)
    count_type = np.min_scalar_type(n)
    for offset, order, start, matched in _scan(e, g_b, budget):
        degrees = incidence @ matched.astype(np.float32)
        high = np.add.reduce(degrees >= threshold, axis=0, dtype=count_type)
        hits = np.flatnonzero(high >= required)
        if hits.size:
            first = int(hits[0])
            return SearchResult(Permutation(_image(order, k, start + first)), offset + first + 1)
    return SearchResult(None, budget)


def map_estimate(g_a: Graph, g_b: Graph, force_large: bool = False) -> Permutation:
    """Exhaustive maximizer of the edge overlap; ties go to the
    lexicographically smallest image list."""
    n = _check_same_size(g_a, g_b)
    _check_exhaustive_size(g_a, force_large, search=False)
    # No objective exceeds min(m_A, m_B); a later candidate must beat the
    # best strictly, so the scan can stop once the best reaches it.
    e = g_a.edges()
    ceiling = min(e.shape[0], g_b.num_edges)
    k, count_type = min(n, _TABLE_K), np.min_scalar_type(e.shape[0])
    best_obj = -1
    best: np.ndarray | None = None
    for _, order, start, matched in _scan(e, g_b, math.factorial(n)):
        obj = np.add.reduce(matched, axis=0, dtype=count_type)
        top = int(obj.argmax())
        if int(obj[top]) > best_obj:
            best_obj = int(obj[top])
            best = _image(order, k, start + top)
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
