"""Model-layer tests: parameter validation, the closed-form pair
distributions, KL divergence, graph structure, and the generator's
distributional and determinism guarantees."""

from __future__ import annotations

import math
import pickle
import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from align_lab import (
    CapacityError,
    Graph,
    ModelParams,
    PairDistribution,
    ParameterError,
    dist_p,
    dist_q,
    generate,
    intersection_graph,
    is_good,
    kl_divergence,
    make_rng,
)
from align_lab import model
from align_lab.model import MAX_NODES, _er_parent, _geometric_gaps, _slots_to_csr

# Frozen with a 50-digit mpmath summation of the four cells at q=0.2, s=0.6.
KL_02_06 = 0.1057337114231780007286040478161704613149249584877


# -- parameters ---------------------------------------------------------------


def test_params_accept_typical_point():
    p = ModelParams(100, 0.05, 0.5)
    assert p.nqs == pytest.approx(2.5)
    assert p.parent_p == pytest.approx(0.1)


@pytest.mark.parametrize(
    "n,q,s",
    [
        (1, 0.1, 0.5),       # n too small
        (10, -0.1, 0.5),     # q negative
        (10, 0.6, 0.5),      # q above s
        (10, 0.1, 0.0),      # s zero
        (10, 0.1, 1.2),      # s above one
        (10, float("nan"), 0.5),
    ],
)
def test_params_reject_bad_points(n, q, s):
    with pytest.raises(ParameterError):
        ModelParams(n, q, s)


def test_params_accept_boundaries():
    ModelParams(5, 0.0, 0.5)   # q = 0 fine for the distribution helpers
    ModelParams(5, 0.3, 0.3)   # s = q: independent pair
    ModelParams(5, 0.3, 1.0)   # s = 1: no subsampling


# -- pair distributions -------------------------------------------------------


def test_dist_p_example():
    p = dist_p(ModelParams(10, 0.2, 0.6))
    assert p.cells() == pytest.approx((0.72, 0.08, 0.08, 0.12), abs=1e-15)


def test_dist_q_example():
    q = dist_q(ModelParams(10, 0.2, 0.6))
    assert q.cells() == pytest.approx((0.64, 0.16, 0.16, 0.04), abs=1e-15)


def test_dist_p_equals_dist_q_at_s_eq_q():
    params = ModelParams(10, 0.35, 0.35)
    assert dist_p(params).cells() == pytest.approx(dist_q(params).cells(), abs=1e-15)


def test_pair_distribution_validation():
    with pytest.raises(ParameterError):
        PairDistribution(0.5, 0.5, 0.5, 0.5)  # does not sum to 1
    with pytest.raises(ParameterError):
        PairDistribution(0.5, 0.3, 0.1, 0.1)  # not exchangeable


def test_covariance_matches_closed_form():
    rng = make_rng(101)
    for _ in range(25):
        q = float(rng.uniform(0.01, 0.5))
        s = float(rng.uniform(q, 1.0))
        p = dist_p(ModelParams(10, q, s))
        assert abs(p.covariance() - q * (s - q)) < 1e-12
        assert p.correlation() == pytest.approx(q * (s - q) / (q * (1 - q)), abs=1e-12)


# -- KL divergence ------------------------------------------------------------


def test_kl_zero_when_equal():
    params = ModelParams(10, 0.3, 0.3)
    assert kl_divergence(dist_p(params), dist_q(params)) == 0.0


def test_kl_frozen_value():
    params = ModelParams(10, 0.2, 0.6)
    assert kl_divergence(dist_p(params), dist_q(params)) == pytest.approx(
        KL_02_06, abs=1e-12
    )


def test_kl_support_violation():
    p = dist_p(ModelParams(10, 0.2, 0.6))
    degenerate = PairDistribution(0.5, 0.25, 0.25, 0.0)
    with pytest.raises(ParameterError):
        kl_divergence(p, degenerate)


def test_kl_positive_when_s_above_q():
    rng = make_rng(77)
    for _ in range(10):
        q = float(rng.uniform(0.01, 0.4))
        s = float(rng.uniform(q + 0.05, 1.0))
        params = ModelParams(10, q, s)
        assert kl_divergence(dist_p(params), dist_q(params)) > 0.0


# -- graphs -------------------------------------------------------------------


def test_graph_basic_structure():
    g = Graph.from_edges(5, [(1, 0), (2, 1), (0, 4)])
    assert g.num_edges == 3
    assert g.degrees().tolist() == [2, 2, 1, 0, 1]
    assert g.neighbors(0).tolist() == [1, 4]
    assert g.has_edge(4, 0) and g.has_edge(0, 4)
    assert not g.has_edge(2, 0)
    assert g.edges().tolist() == [[0, 1], [0, 4], [1, 2]]


@pytest.mark.parametrize("u, v", [(0, 6), (6, 0), (-1, 2), (1, 4)])
def test_has_edge_rejects_out_of_range_endpoints(u, v):
    # key 0*4 + 6 = 6 is the key of edge {1, 2}: an unchecked probe would find it
    g = Graph.from_edges(4, [(1, 2)])
    with pytest.raises(ParameterError):
        g.has_edge(u, v)


def test_graph_symmetry_invariant():
    g = Graph.from_edges(6, [(0, 1), (2, 5), (3, 4), (1, 5)])
    for i in range(g.n):
        for j in g.neighbors(i):
            assert i in g.neighbors(j)
            assert i != j
    assert int(g.degrees().sum()) == 2 * g.num_edges


@pytest.mark.parametrize(
    "edges",
    [[(0, 0)], [(0, 1), (1, 0)], [(0, 7)]],
)
def test_graph_rejects_bad_edges(edges):
    with pytest.raises(ParameterError):
        Graph.from_edges(4, edges)


def test_complete_and_empty():
    assert Graph.complete(4).num_edges == 6
    assert Graph.empty(4).num_edges == 0
    assert Graph.complete(4).density() == 1.0


def test_relabeled_preserves_structure():
    g = Graph.from_edges(4, [(0, 1), (1, 2)])
    image = np.array([3, 2, 1, 0])
    h = g.relabeled(image)
    assert h.has_edge(3, 2) and h.has_edge(2, 1)
    assert h.num_edges == g.num_edges
    assert sorted(h.degrees().tolist()) == sorted(g.degrees().tolist())


@st.composite
def _graph_and_image(draw):
    n = draw(st.integers(2, 12))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pairs, unique_by=lambda e: frozenset(e), max_size=n * (n - 1) // 2))
    graph = Graph.from_edges(n, edges) if edges else Graph.empty(n)
    return graph, np.array(draw(st.permutations(range(n))), dtype=np.int64)


# the default block and blocks small enough that row runs straddle them
_BLOCKS = st.sampled_from([model._BLOCK, 1, 3, 7])


@settings(max_examples=200, deadline=None)
@given(_graph_and_image(), _BLOCKS)
def test_relabeled_matches_from_edges_and_round_trips(case, block):
    g, image = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_BLOCK", block)
        h = g.relabeled(image)
        assert h == Graph.from_edges(g.n, image[g.edges()])
        assert h.relabeled(np.argsort(image)) == g


@st.composite
def _graph_two_images_and_mask(draw):
    graph, first = draw(_graph_and_image())
    second = np.array(draw(st.permutations(range(graph.n))), dtype=np.int64)
    m = graph.num_edges
    mask = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)), dtype=bool)
    return graph, first, second, mask


def _masked(g: Graph, keep: np.ndarray) -> Graph:
    """``g``'s CSR under the packed mask of ``keep``, as ``generate`` stores a copy."""
    starts, cols, _, _ = g._stored
    return Graph(g.n, starts, cols, np.packbits(keep, bitorder="little"))


def _answers(g: Graph) -> list:
    """The answers of ``g`` to every query, in a fixed order."""
    n = g.n
    pairs = [(u, v) for u in range(n) for v in range(n)]
    return [
        g.num_edges,
        g.edge_keys().tolist(),
        g.edges().tolist(),
        g.degrees().tolist(),
        [g.neighbors(i).tolist() for i in range(n)],
        [g.has_edge(u, v) for u, v in pairs],
        hash(g),
    ]


@settings(max_examples=200, deadline=None)
@given(_graph_two_images_and_mask(), _BLOCKS)
def test_deferred_relabel_answers_like_from_edges(case, block):
    # a relabeled graph stores its source's CSR and mask and the (composed)
    # image; every query must answer as the graph built from its edges
    g, first, second, mask = case
    m, kept = g.num_edges, g.edges()[mask]
    calls = []
    map_keys, gather = model._map_keys, model._gather

    def map_spy(starts, cols, packed, image):
        calls.append(("map", cols.size))
        return map_keys(starts, cols, packed, image)

    def gather_spy(starts, cols, packed):
        calls.append(("gather", cols.size))
        return gather(starts, cols, packed)

    def masked():
        return _masked(g, mask)

    def round_trip(h):
        return pickle.loads(pickle.dumps(h))

    once, twice = first[g.edges()], second[first[g.edges()]]
    kept_once, kept_twice = first[kept], second[first[kept]]
    gathered = [("gather", m)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_BLOCK", block)
        mp.setattr(model, "_map_keys", map_spy)
        mp.setattr(model, "_gather", gather_spy)
        for make, edges, reads in (
            (lambda: g.relabeled(first), once, [("map", m)]),
            (lambda: g.relabeled(first).relabeled(second), twice, [("map", m)]),
            (lambda: round_trip(g.relabeled(first).relabeled(second)), twice, [("map", m)]),
            (masked, kept, gathered),
            (lambda: masked().relabeled(first), kept_once, [("map", m)]),
            (lambda: masked().relabeled(first).relabeled(second), kept_twice, [("map", m)]),
            (lambda: round_trip(masked().relabeled(first).relabeled(second)), kept_twice, [("map", m)]),
        ):
            expected = Graph.from_edges(g.n, edges)
            want = _answers(expected)
            calls.clear()
            assert make().num_edges == want[0] and not calls  # no gather, map or sort
            for i, answer in enumerate(want):
                # each query on a fresh graph, so each one reads the keys itself
                assert _answers(make())[i] == answer
            h = make()
            assert h == expected and expected == h and hash(h) == hash(expected)
            assert round_trip(h) == expected
            # the first query gathers or maps once, reading the mask as it
            # maps; later ones reuse the CSR
            calls.clear()
            _answers(make())
            assert calls == reads


@settings(max_examples=200, deadline=None)
@given(_graph_two_images_and_mask(), _BLOCKS)
def test_stored_csr_answers_like_from_edges_of_its_edges(case, block):
    # a masked graph relabeled zero, one and two times answers every query
    # as the graph built from its own edges does, with int64 edges and keys
    g, first, second, mask = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_BLOCK", block)
        for make in (
            lambda: _masked(g, mask),
            lambda: _masked(g, mask).relabeled(first),
            lambda: _masked(g, mask).relabeled(first).relabeled(second),
        ):
            edges = make().edges()
            assert edges.dtype == np.int64 and make().edge_keys().dtype == np.int64
            assert _answers(make()) == _answers(Graph.from_edges(g.n, edges))


def _check_top_edge_is_exact(n: int) -> None:
    """The edge (n - 2, n - 1), built, relabeled and masked, reads as int64
    edges and keys; its key overflows the graph's column dtype."""
    image = np.arange(n)
    image[[0, 1]] = n - 2, n - 1
    image[[n - 2, n - 1]] = 0, 1
    key = (n - 2) * n + (n - 1)
    assert key > np.iinfo(np.min_scalar_type(n - 1)).max
    for g in (
        Graph.from_edges(n, [(n - 2, n - 1)]),
        Graph.from_edges(n, [(0, 1)]).relabeled(image),
        _masked(Graph.from_edges(n, [(0, 1), (n - 2, n - 1)]), np.array([False, True])),
    ):
        keys, edges = g.edge_keys(), g.edges()
        assert keys.dtype == np.int64 and keys.tolist() == [key]
        assert edges.dtype == np.int64 and edges.tolist() == [[n - 2, n - 1]]
        assert g.has_edge(n - 1, n - 2) and not g.has_edge(0, 1)
        assert g.neighbors(n - 1).tolist() == [n - 2] and g.degrees().sum() == 2


def test_edge_keys_are_exact_above_two_to_the_32():
    # a uint32 column times n would wrap: the keys are int64 whatever the read
    _check_top_edge_is_exact(10**5)


@pytest.mark.parametrize("n", [256, 65536])
def test_edge_keys_are_exact_at_the_narrow_column_limits(n):
    # the last n whose columns are uint8 and uint16: (254, 255) has key
    # 65279 and (65534, 65535) key 4294901759
    _check_top_edge_is_exact(n)


# one n at each end of each column width: uint8 up to 256 nodes, uint16 up
# to 65 536, uint32 above
_WIDTH_NS = (2, 8, 256, 257, 65536, 65537)


def _top_edges(n: int) -> np.ndarray:
    """The first row's last edge and the last row's edge."""
    return np.array([[0, n - 1], [n - 2, n - 1]][: 1 if n == 2 else 2], dtype=np.int64)


@st.composite
def _edges_at_width_limits(draw):
    """An n of ``_WIDTH_NS``, up to twelve distinct int64 edges (u, v),
    u < v, in the order of the stored form, with endpoints often near 0
    and n - 1, and a seed."""
    n = draw(st.sampled_from(_WIDTH_NS))
    node = st.one_of(
        st.integers(0, min(n, 3) - 1), st.integers(max(n - 3, 0), n - 1), st.integers(0, n - 1)
    )
    pairs = st.tuples(node, node).filter(lambda e: e[0] != e[1])
    edges = draw(st.sets(pairs.map(lambda e: tuple(sorted(e))), max_size=12))
    return n, np.array(sorted(edges), dtype=np.int64).reshape(-1, 2), draw(st.integers(0, 2**32 - 1))


def _queries(g: Graph, nodes: list[int]) -> list:
    """The answers of ``g`` to every query, neighbors and edge probes at
    ``nodes`` only; ``edges`` and ``edge_keys`` must be int64."""
    keys, edges = g.edge_keys(), g.edges()
    assert keys.dtype == edges.dtype == np.int64
    return [
        g.num_edges,
        keys.tolist(),
        edges.tolist(),
        g.degrees().tolist(),
        [g.neighbors(i).tolist() for i in nodes],
        [g.has_edge(u, v) for u in nodes for v in nodes],
    ]


def _oracle_queries(n: int, edges: np.ndarray, nodes: list[int]) -> list:
    """``_queries`` of the graph of the distinct int64 ``edges``, computed
    from them in int64 and Python ints alone."""
    keys = np.sort(edges.min(axis=1) * n + edges.max(axis=1))
    neighbors = {i: set() for i in nodes}
    for a, b in edges.tolist():
        for x, y in ((a, b), (b, a)):
            if x in neighbors:
                neighbors[x].add(y)
    return [
        keys.size,
        keys.tolist(),
        np.column_stack(np.divmod(keys, n)).tolist(),
        np.bincount(edges.ravel(), minlength=n).tolist(),
        [sorted(neighbors[i]) for i in nodes],
        [b in neighbors[a] for a in nodes for b in nodes],
    ]


def _check_width(g: Graph, edges: np.ndarray) -> None:
    """``g`` stores its columns, before and after the read that its queries
    make, as the smallest unsigned type that holds n - 1, and answers every
    query as the int64 oracle of ``edges``."""
    n, dtype = g.n, np.min_scalar_type(g.n - 1)
    assert g._stored[1].dtype == dtype
    nodes = sorted({0, 1, n // 2, n - 2, n - 1, *edges[:8].ravel().tolist()})
    assert _queries(g, nodes) == _oracle_queries(n, edges, nodes)
    starts, cols, mask, image = g._stored
    assert mask is None and image is None
    assert cols.dtype == dtype and starts.dtype == np.int64


@settings(max_examples=60, deadline=None)
@given(_edges_at_width_limits())
@example((2, _top_edges(2), 0))
@example((8, _top_edges(8), 0))
@example((256, _top_edges(256), 0))
@example((257, _top_edges(257), 0))
@example((65536, _top_edges(65536), 0))
@example((65537, _top_edges(65537), 0))
def test_columns_take_the_smallest_type_that_holds_n_minus_1(case):
    # every route that builds a CSR: from_edges, _slots_to_csr, _gather
    # (a masked graph's read), _map_keys and _keys_to_csr (a relabeled
    # graph's read) and generate, with its parent drawn by gaps and at p = 1
    n, edges, seed = case
    rng = make_rng(seed)
    keep = rng.random(edges.shape[0]) < 0.5
    image = rng.permutation(n)
    _check_width(Graph.from_edges(n, edges), edges)
    u, v = edges.T
    slots = u * n - u * (u + 1) // 2 + v - u - 1
    starts, cols = _slots_to_csr(slots, n)
    assert cols.dtype == np.min_scalar_type(n - 1)
    _check_width(Graph(n, starts, cols), edges)
    _check_width(_masked(Graph.from_edges(n, edges), keep), edges[keep])
    _check_width(_masked(Graph.from_edges(n, edges), keep).relabeled(image), image[edges[keep]])

    total = math.comb(n, 2)
    for p in sorted({min(1.0, 40 / total), *([1.0] if total <= 40_000 else [])}):
        inst = generate(ModelParams(n, p / 2, 0.5), seed)
        # the documented order: parent slots, keep-A coins, keep-B coins, pi*
        drawn = make_rng(seed)
        if p < 1.0:
            parent = _parent_keys_by_geometric(n, p, drawn)
        else:
            parent = np.arange(n**2).reshape(n, n)[np.triu_indices(n, k=1)]
        parent = np.column_stack(np.divmod(parent, n))
        keep_a = drawn.random(parent.shape[0]) < 0.5
        keep_b = drawn.random(parent.shape[0]) < 0.5
        pi_star = drawn.permutation(n)
        assert np.array_equal(inst.pi_star.as_array(), pi_star)
        _check_width(inst.g_a, parent[keep_a])
        _check_width(inst.g_b, pi_star[parent[keep_b]])


@pytest.mark.parametrize("n", [8, 257, 65537])
def test_graph_hash_agrees_with_eq_whatever_the_dtypes(n):
    # a CSR passed with wider columns or other starts than the graph's own
    # dtypes equals its twin and hashes alike; one already narrow is kept
    g = Graph.from_edges(n, [(0, n - 1), (1, 2), (2, n - 1)])
    starts, cols, _, _ = g._stored
    for wide_starts, wide_cols in (
        (starts, cols.astype(np.uint32)),
        (starts, cols.astype(np.int64)),
        (starts.astype(np.int32), cols.astype(np.uint64)),
    ):
        h = Graph(n, wide_starts, wide_cols)
        assert h == g and hash(h) == hash(g)
        assert h._stored[0].dtype == np.int64 and h._stored[1].dtype == cols.dtype
    same = Graph(n, starts, cols)
    assert same._stored[0] is starts and same._stored[1] is cols


@settings(max_examples=200, deadline=None)
@given(_graph_two_images_and_mask(), _BLOCKS)
def test_degrees_count_the_stored_form(case, block):
    # a masked graph, relabeled zero, one and two times, counts its degrees
    # from the parent CSR, the packed mask and the image: no gather, map or sort
    g, first, second, mask = case
    calls = []
    map_keys, gather = model._map_keys, model._gather

    def spy(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)
        return wrapped

    def masked():
        return _masked(g, mask)

    kept = g.edges()[mask]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_BLOCK", block)
        mp.setattr(model, "_map_keys", spy("map", map_keys))
        mp.setattr(model, "_gather", spy("gather", gather))
        for make, edges in (
            (masked, kept),
            (lambda: masked().relabeled(first), first[kept]),
            (lambda: masked().relabeled(first).relabeled(second), second[first[kept]]),
        ):
            degrees = make().degrees()
            assert calls == []
            assert degrees.dtype == np.int64
            assert np.array_equal(degrees, np.bincount(edges.ravel(), minlength=g.n))
            assert np.array_equal(degrees, Graph.from_edges(g.n, edges).degrees())


def test_deferred_keys_read_by_threads_at_once():
    # the CSR and its image live in one slot: a reader that paired the
    # mapped CSR with the old image would map it twice
    rng = make_rng(7)
    # any sorted unique slots below C(n, 2) are edges after _slots_to_csr
    slots = np.sort(rng.choice(4000 * 3999 // 2, 300_000, replace=False))
    g = Graph(4000, *_slots_to_csr(slots, 4000))
    image = rng.permutation(4000)
    expected = Graph.from_edges(4000, image[g.edges()]).edge_keys()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            h = g.relabeled(image)
            start = threading.Barrier(4)
            results = [None] * 4

            def read(i):
                start.wait(timeout=30)
                results[i] = h.edge_keys()

            threads = [threading.Thread(target=read, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert all(keys is not None and np.array_equal(keys, expected) for keys in results)
            assert np.array_equal(h.edge_keys(), expected)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("image", [[0, 0, 2], [0, 1, 3], [0, 1]])
def test_relabeled_rejects_non_bijection(image):
    # [0, 0, 2] maps the only edge {0, 2} to itself: no collision, but 1 has no preimage
    with pytest.raises(ParameterError):
        Graph.from_edges(3, [(0, 2)]).relabeled(np.array(image))


def _row_start(n: int, i: int) -> int:
    """First slot of row i in the row-major upper triangle of n nodes."""
    return i * n - i * (i + 1) // 2


def _boundary_slots(n: int, rows) -> list[int]:
    """First and last slot of each row, in increasing order."""
    return [t for i in sorted(set(rows)) for t in (_row_start(n, i), _row_start(n, i + 1) - 1)]


@pytest.mark.parametrize("n", [3, 1000, 10**6 + 3])
def test_slots_to_keys_at_row_boundaries(n):
    # first and last slot of rows 0, 1, n-3 and n-2 against the closed form;
    # sorted unique rows: at n = 3, rows 0 and 1 are also n - 3 and n - 2
    rows = tuple(sorted({0, 1, n - 3, n - 2}))
    expected = [pair for i in rows for pair in ([i, i + 1], [i, n - 1])]
    starts, cols = _slots_to_csr(np.array(_boundary_slots(n, rows), dtype=np.int64), n)
    assert cols.dtype == np.min_scalar_type(n - 1)
    assert starts.dtype == np.int64 and starts.size == n + 1
    assert Graph(n, starts, cols).edges().tolist() == expected


def _slots_to_keys_by_slot(slots: np.ndarray, n: int) -> np.ndarray:
    """Oracle: each slot's row by its own binary search over the row starts."""
    rows = np.arange(n, dtype=np.int64)
    tri = rows * (rows + 1) // 2
    return slots + tri[np.searchsorted(rows * n - tri, slots, side="right")]


@st.composite
def _sorted_unique_slots(draw):
    n = draw(st.integers(2, 2000))
    total = n * (n - 1) // 2
    rows = draw(st.lists(st.integers(0, n - 2), max_size=8))
    slots = draw(st.sets(st.integers(0, total - 1), max_size=300)) | set(_boundary_slots(n, rows))
    return n, np.array(sorted(slots), dtype=np.int64)


_HUGE_N = 10**6 + 3
_HUGE_ROWS = (0, 1, _HUGE_N // 2, _HUGE_N - 3, _HUGE_N - 2)


@settings(max_examples=300, deadline=None)
@given(_sorted_unique_slots(), _BLOCKS)
@example((_HUGE_N, np.array(_boundary_slots(_HUGE_N, _HUGE_ROWS), dtype=np.int64)), 1)
@example((_HUGE_N, np.array(_boundary_slots(_HUGE_N, _HUGE_ROWS), dtype=np.int64)), 3)
@example((2, np.empty(0, dtype=np.int64)), model._BLOCK)
def test_slots_to_keys_matches_per_slot_search(case, block):
    n, slots = case
    expected = _slots_to_keys_by_slot(slots, n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_BLOCK", block)
        starts, cols = _slots_to_csr(slots.copy(), n)
    assert cols.dtype == np.min_scalar_type(n - 1) and np.array_equal(cols, expected % n)
    assert starts.dtype == np.int64
    assert np.array_equal(starts, expected.searchsorted(np.arange(n + 1) * n))
    assert np.array_equal(Graph(n, starts, cols).edge_keys(), expected)


# -- generator ----------------------------------------------------------------


def test_generate_is_deterministic():
    params = ModelParams(400, 0.03, 0.5)
    a = generate(params, seed=123)
    b = generate(params, seed=123)
    assert a.g_a == b.g_a and a.g_b == b.g_b and a.pi_star == b.pi_star
    c = generate(params, seed=124)
    assert c.g_a != a.g_a


# the largest slot count generate allows: every clip bound below is exact in float
_MAX_CAP = math.comb(MAX_NODES, 2) + 1
_GAP_PS = [1e-300, 1e-17, 1e-12, 5.2e-3, 0.2, math.nextafter(1 / 3, 0), 1 / 3, 0.5]
_GAP_SIZES = [model._BLOCK - 1, model._BLOCK, model._BLOCK + 1, 3 * model._BLOCK + 5]


@pytest.mark.parametrize("size", _GAP_SIZES)
@pytest.mark.parametrize("p", _GAP_PS)
def test_geometric_gaps_match_numpy(p, size):
    # the same variates as numpy's own geometric draw, and the same state after;
    # 1/3 and 0.5 take numpy's search branch, the rest its inversion
    drawn, reference = make_rng(7), make_rng(7)
    gaps = _geometric_gaps(drawn, p, np.empty(size, dtype=np.int64), _MAX_CAP)
    expected = np.minimum(reference.geometric(p, size), _MAX_CAP)
    assert gaps.dtype == np.int64 and np.array_equal(gaps, expected)
    assert drawn.random() == reference.random()


def _block_sizes(block: int) -> list[int]:
    """Sizes around one and three blocks, and the empty and single cases."""
    return [0, 1, block - 1, block, block + 1, 3 * block + 5]


_SELECT_SIZES = _block_sizes(model._BLOCK)


def _csr_of_size(size: int) -> tuple[int, np.ndarray, np.ndarray]:
    """``(n, starts, cols)`` of a graph of ``size`` edges at every third
    slot, so that its rows hold a few edges each."""
    n = math.isqrt(6 * size) + 2
    return (n, *_slots_to_csr(np.arange(size, dtype=np.int64) * 3, n))


def _packed(keep: np.ndarray) -> np.ndarray:
    return np.packbits(keep, bitorder="little")


@pytest.mark.parametrize("size", _SELECT_SIZES)
def test_select_matches_whole_array_coins(size):
    # the same coins, packed eight to a byte, and the same kept edges as one
    # whole-array coin draw, and the same generator state after
    n, starts, cols = _csr_of_size(size)
    drawn, reference = make_rng(5), make_rng(5)
    coins = model._coins(drawn, size, 0.5)
    expected = reference.random(size) < 0.5
    assert coins.dtype == np.uint8 and np.array_equal(coins, _packed(expected))
    assert drawn.random() == reference.random()
    assert model._count_bits(coins) == np.count_nonzero(expected)
    kept = Graph(n, *model._gather(starts, cols, coins))
    assert np.array_equal(kept.edge_keys(), Graph(n, starts, cols).edge_keys()[expected])


@pytest.mark.parametrize("index", range(len(_SELECT_SIZES)))
@pytest.mark.parametrize("block", [model._BLOCK, 1, 3, 7])
def test_gather_matches_boolean_index(block, index, monkeypatch):
    # one packed mask, the AND of two and one that keeps all, at block
    # boundaries of each block size; the passes step by whole mask bytes,
    # and row runs straddle them
    size = _block_sizes(block)[index]
    rng = make_rng(size)
    n, starts, cols = _csr_of_size(size)
    rows = np.arange(n).repeat(np.diff(starts))
    first, second = rng.random(size) < 0.5, rng.random(size) < 0.7
    monkeypatch.setattr(model, "_BLOCK", block)
    for packed, keep in (
        (_packed(first), first),
        (_packed(first) & _packed(second), first & second),
        (_packed(np.ones(size, dtype=bool)), np.ones(size, dtype=bool)),
    ):
        assert model._count_bits(packed) == np.count_nonzero(keep)
        kept_starts, kept_cols = model._gather(starts, cols, packed)
        assert kept_cols.dtype == cols.dtype == np.min_scalar_type(n - 1)
        assert np.array_equal(kept_cols, cols[keep])
        assert kept_starts.dtype == np.int64
        assert kept_starts.size == n + 1 and kept_starts[0] == 0
        assert np.array_equal(np.diff(kept_starts), np.bincount(rows[keep], minlength=n))
        for out, source in ((kept_starts, starts), (kept_cols, cols)):
            assert out.base is None and not np.shares_memory(out, source)


@pytest.mark.parametrize("owned", [True, False], ids=["owned-resize", "view"])
@pytest.mark.parametrize("size", _GAP_SIZES)
def test_slot_draw_trims_to_the_parent_keys(size, owned, monkeypatch):
    # a column buffer of ``size`` entries (int(C(n, 2) p 1.2) + 64) is shrunk
    # in place to its used part from _TRIM_MIN_BYTES on, and cut to a view of
    # it below; both give the parent's edges
    n = 2000
    p = (size - 63.5) / (1.2 * math.comb(n, 2))
    dtype = np.min_scalar_type(n - 1)
    monkeypatch.setattr(model, "_TRIM_MIN_BYTES", 0 if owned else size * dtype.itemsize + 1)
    drawn, reference = make_rng(5), make_rng(5)
    starts, cols = _er_parent(n, p, drawn)
    expected = _parent_keys_by_geometric(n, p, reference)
    assert starts.dtype == np.int64 and cols.dtype == dtype
    assert np.array_equal(Graph(n, starts, cols).edge_keys(), expected)
    assert drawn.random() == reference.random()
    if owned:
        assert cols.flags.owndata and cols.size == expected.size
    else:
        assert cols.base.size == size and cols.size == expected.size


@pytest.mark.parametrize(
    "n,p,block",
    [
        (40, 0.05, 7),  # inversion, batch of 1024 gaps: the minimum
        (40, 0.5, 3),  # search
        (1500, 0.05, model._BLOCK),  # inversion, batch of 67 519 gaps
        (600, 0.5, model._BLOCK),  # search, batch of 107 884 gaps
    ],
)
def test_slot_draw_past_the_last_slot_keeps_the_stream(n, p, block, monkeypatch):
    # the draw passes C(n, 2) blocks before its batch ends; the rest of the
    # batch is drawn into the reused block buffer, and the edges and the next
    # variate are those of one whole-batch rng.geometric draw
    monkeypatch.setattr(model, "_BLOCK", block)
    batch = max(model._GEOM_BATCH_MIN, int(math.comb(n, 2) * p * 1.2) + 64)
    drawn, reference = make_rng(3), make_rng(3)
    starts, cols = _er_parent(n, p, drawn)
    expected = _parent_keys_by_geometric(n, p, reference)
    # the gap that passes C(n, 2), at index expected.size, lies before the
    # batch's last block, so at least one block is drawn past it
    assert expected.size < (batch - 1) // block * block
    assert np.array_equal(Graph(n, starts, cols).edge_keys(), expected)
    assert drawn.random() == reference.random()


@pytest.mark.parametrize(
    "n,p,block",
    [
        (200, 0.05, 7),  # inversion, batches of 312 gaps for about 995 edges
        (60, 0.5, 3),  # search, batches of 285 gaps for about 885 edges
        (600, 0.05, model._BLOCK),  # inversion, batches of 2310 gaps, one block each
        (300, 0.5, 1000),  # search, batches of 5670 gaps, six blocks each
    ],
)
def test_slot_draw_across_batches_keeps_the_stream(n, p, block, monkeypatch):
    # batches of about a quarter of the expected edge count run out before
    # C(n, 2): the column buffers of the batches are concatenated, and the
    # edges and the next variate are those of whole-batch rng.geometric draws
    monkeypatch.setattr(model, "_BLOCK", block)
    monkeypatch.setattr(model, "_GEOM_BATCH_MIN", 16)
    monkeypatch.setattr(model, "_GEOM_OVERSAMPLE", 0.25)
    drawn, reference = make_rng(3), make_rng(3)
    draws = []
    geometric_gaps = model._geometric_gaps

    def spy(rng, p, out, cap):
        draws.append(out.size)
        return geometric_gaps(rng, p, out, cap)

    monkeypatch.setattr(model, "_geometric_gaps", spy)
    starts, cols = _er_parent(n, p, drawn)
    batch = max(16, int(math.comb(n, 2) * p * model._GEOM_OVERSAMPLE) + 64)
    assert sum(draws) >= 3 * batch  # three batches or more
    expected = _parent_keys_by_geometric(n, p, reference, 16, model._GEOM_OVERSAMPLE)
    assert cols.flags.owndata and cols.size == expected.size
    assert np.array_equal(Graph(n, starts, cols).edge_keys(), expected)
    assert drawn.random() == reference.random()


@pytest.mark.parametrize("block", [1, 3, 7])
@pytest.mark.parametrize("params", [ModelParams(300, 0.02, 0.5), ModelParams(60, 0.2, 0.5)])
def test_generate_does_not_depend_on_the_block(params, block, monkeypatch):
    # parent p = 0.04 (inversion) and 0.4 (search): row runs straddle every
    # block, and so do the matches the goodness test gathers
    default = generate(params, seed=4)
    report = is_good(default.g_a, default.g_b, default.pi_star, params, 0.5)
    monkeypatch.setattr(model, "_BLOCK", block)
    small = generate(params, seed=4)
    assert small.g_a == default.g_a and small.g_b == default.g_b
    assert small.pi_star == default.pi_star
    assert is_good(small.g_a, small.g_b, small.pi_star, params, 0.5) == report


def test_generate_requires_positive_q():
    with pytest.raises(ParameterError):
        generate(ModelParams(10, 0.0, 0.5), seed=1)


@pytest.mark.parametrize("q", [1e-17, 1e-19, 1e-30, 1e-300])
def test_generate_at_tiny_q_gives_empty_graphs(q):
    # geometric gaps saturate at 2^63 - 1 below p ~ 1e-16; their sum must not wrap
    inst = generate(ModelParams(10, q, 0.5), seed=1)
    assert inst.g_a.num_edges == 0 and inst.g_b.num_edges == 0


def test_generate_capacity_guard(monkeypatch):
    with pytest.raises(CapacityError):
        generate(ModelParams(100_000, 0.4, 0.5), seed=1)
    # about 1e6 expected parent edges, within the edge budget, but too many nodes
    drawn = []
    monkeypatch.setattr(model, "make_rng", lambda *args: drawn.append(args))
    with pytest.raises(CapacityError, match="node limit"):
        generate(ModelParams(MAX_NODES + 1, 1e-10, 0.5), seed=1)
    assert drawn == []


def test_make_rng_rejects_negative_seed():
    with pytest.raises(ParameterError):
        make_rng(-1)
    with pytest.raises(ParameterError):
        generate(ModelParams(10, 0.2, 0.5), seed=-1)


def test_generate_s1_gives_isomorphic_pair():
    # no subsampling: B is exactly A pushed through pi_star, for any seed
    for seed in range(5):
        inst = generate(ModelParams(30, 0.5, 1.0), seed=seed)
        back = inst.g_b.relabeled(inst.pi_star.inverse().as_array())
        assert back == inst.g_a
    inst = generate(ModelParams(2, 0.5, 1.0), seed=9)
    assert inst.g_b.relabeled(inst.pi_star.inverse().as_array()) == inst.g_a


@pytest.mark.parametrize("n", [2, 30, 300])
def test_generate_at_s_equal_q_masks_the_complete_graph(n):
    # parent p = 1: every slot is an edge and the parent draws no variate,
    # so A's coins are the first of the stream
    inst = generate(ModelParams(n, 0.5, 0.5), seed=9)
    starts, cols, mask, _ = inst.g_a._stored
    assert Graph(n, starts, cols) == Graph.complete(n)
    keep = make_rng(9).random(math.comb(n, 2)) < 0.5
    assert np.array_equal(mask, np.packbits(keep, bitorder="little"))
    assert inst.g_a == Graph.from_edges(n, Graph.complete(n).edges()[keep])


def test_generate_relabel_consistency():
    # B has edge (pi*(i), pi*(j)) exactly when B' has (i, j)
    inst = generate(ModelParams(50, 0.2, 0.7), seed=5)
    b_prime = inst.g_b.relabeled(inst.pi_star.inverse().as_array())
    img = inst.pi_star.as_array()
    for u, v in b_prime.edges():
        assert inst.g_b.has_edge(img[u], img[v])
    assert b_prime.num_edges == inst.g_b.num_edges


def _generate_peak_per_parent_edge(params: ModelParams) -> float:
    """The traced peak of ``generate(params, 11)`` per parent edge, in bytes."""
    parent_edges = _er_parent(params.n, params.parent_p, make_rng(11))[1].size
    tracemalloc.start()
    try:
        generate(params, 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / parent_edges


def test_generate_peak_memory_per_parent_edge():
    # n = 20000, nqs = 130: 5.2 M parent edges.  The draw peaks at 2.8 B
    # per parent edge: the uint16 column buffer, oversampled about 1.2 times
    # (2.4 B), the two coin masks packed to bits (0.125 each) and the O(n)
    # row tables; the slots live only in one block buffer.  A and B' are
    # masks over the parent, so nothing is gathered.  uint32 columns peaked
    # at 5.2 B, the int64 slot buffer mapped in place to keys at 9.7 B, bool
    # masks at 10.1 B, selecting A beside the parent and compacting B' into
    # its buffer at 13.1 B, and gathering B' beside the parent and A at 17.1 B.
    assert _generate_peak_per_parent_edge(ModelParams(20000, 0.013, 0.5)) <= 3.5


def test_generate_peak_memory_per_parent_edge_above_65536_nodes():
    # n = 70000, nqs = 32: 4.5 M parent edges, whose upper endpoints need
    # uint32 columns.  The draw peaks at 5.6 B per parent edge: the column
    # buffer, oversampled about 1.2 times (4.8 B), the two packed coin masks
    # (0.25 B) and the O(n) row tables (0.25 B).
    assert _generate_peak_per_parent_edge(ModelParams(70000, 32 / 35000, 0.5)) <= 6


def test_generate_marginal_densities():
    # each marginal is ER(n, q): empirical density within 4 sigma, fixed seeds
    params = ModelParams(2000, 0.05, 0.5)
    slots = math.comb(params.n, 2)
    sigma = math.sqrt(params.q * (1 - params.q) / slots)
    for seed in (11, 12, 13):
        inst = generate(params, seed=seed)
        for g in (inst.g_a, inst.g_b):
            assert abs(g.density() - params.q) < 4 * sigma


def test_generate_matched_pair_moments():
    # P(edge in both A and B') ~ qs, and the pair correlation ~ (s-q)/(1-q)
    params = ModelParams(2000, 0.05, 0.5)
    slots = math.comb(params.n, 2)
    inst = generate(params, seed=21)
    b_prime = inst.g_b.relabeled(inst.pi_star.inverse().as_array())
    both = np.intersect1d(inst.g_a.edge_keys(), b_prime.edge_keys()).size
    p11_hat = both / slots
    qs = params.q * params.s
    assert abs(p11_hat - qs) < 3 * math.sqrt(qs * (1 - qs) / slots)

    pa = inst.g_a.num_edges / slots
    pb = b_prime.num_edges / slots
    rho_hat = (p11_hat - pa * pb) / math.sqrt(pa * (1 - pa) * pb * (1 - pb))
    rho = (params.s - params.q) / (1 - params.q)
    assert rho == pytest.approx(0.45 / 0.95)
    assert abs(rho_hat - rho) < 0.02


def _parent_keys_by_geometric(
    n: int, p: float, rng: np.random.Generator, batch_min: int = 1024, oversample: float = 1.2
) -> np.ndarray:
    """Oracle: the parent's sorted edge keys from whole batches of
    ``rng.geometric`` gaps, the generator's batch rule and a per-slot map."""
    total = n * (n - 1) // 2
    batch = max(batch_min, int(total * p * oversample) + 64)
    chunks, last = [], -1
    while last < total:
        chunks.append(last + np.cumsum(rng.geometric(p, size=batch)))
        last = int(chunks[-1][-1])
    slots = np.concatenate(chunks)
    return _slots_to_keys_by_slot(slots[slots < total], n)


@pytest.mark.parametrize(
    "n,q,s,seed",
    [(500, 0.04, 0.5, 3), (2000, 0.05, 0.7, 21), (20000, 0.013, 0.5, 2)],  # last: nqs = 130
)
def test_intersection_under_pistar_is_parent_kept_in_both(n, q, s, seed):
    params = ModelParams(n, q, s)
    inst = generate(params, seed)
    # re-draw in the documented order: parent slots, keep-A coins, keep-B coins, pi*
    rng = make_rng(seed)
    parent = _parent_keys_by_geometric(n, params.parent_p, rng)
    keep_a = rng.random(parent.size) < s
    keep_b = rng.random(parent.size) < s
    assert np.array_equal(rng.permutation(n), inst.pi_star.as_array())
    both = parent[keep_a & keep_b]
    inter = intersection_graph(inst.g_a, inst.g_b, inst.pi_star)
    # the returned graph holds its own CSR, not the parent's under a mask
    starts, cols, mask, image = inter._stored
    assert mask is None and image is None
    assert not np.shares_memory(cols, inst.g_a._stored[1])
    assert np.array_equal(inter.edge_keys(), both)

    u, v = np.divmod(both, n)
    deg = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    count = int(np.count_nonzero(deg >= params.nqs / 2))
    report = is_good(inst.g_a, inst.g_b, inst.pi_star, params, 0.5)
    assert report.count_high_degree == count
    assert report.is_good == (count >= n * 1.5 / 2)
    assert report.degree_histogram == dict(Counter(deg.tolist()))
