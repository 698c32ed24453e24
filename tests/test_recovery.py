"""Recovery-layer tests: intersection graphs, the goodness test, exhaustive
search and MAP estimation, and k-core peeling against an exhaustive oracle."""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from align_lab import (
    CapacityError,
    Graph,
    ModelParams,
    ParameterError,
    Permutation,
    find_good,
    generate,
    intersection_degrees,
    intersection_graph,
    is_good,
    k_core,
    make_rng,
    map_estimate,
    model,
    overlap,
    overlap_objective,
    recovery,
)
from align_lab.model import _er_parent


def _random_graph(n: int, p: float, rng) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges) if edges else Graph.empty(n)


# -- intersection graph -------------------------------------------------------


def test_intersection_identity_at_s1():
    inst = generate(ModelParams(40, 0.4, 1.0), seed=2)
    assert intersection_graph(inst.g_a, inst.g_b, inst.pi_star) == inst.g_a


def test_intersection_empty_ga():
    g_b = Graph.complete(5)
    for image in itertools.permutations(range(5)):
        pi = Permutation(list(image))
        assert intersection_graph(Graph.empty(5), g_b, pi).num_edges == 0


def test_intersection_density_is_qs_at_pistar():
    # under the planted permutation the intersection graph is ER(n, qs)
    params = ModelParams(2000, 0.05, 0.5)
    inst = generate(params, seed=8)
    inter = intersection_graph(inst.g_a, inst.g_b, inst.pi_star)
    qs = params.q * params.s
    sigma = math.sqrt(qs * (1 - qs) / math.comb(params.n, 2))
    assert abs(inter.density() - qs) < 4 * sigma


def test_intersection_degrees_match_graph():
    rng = make_rng(15)
    for _ in range(10):
        g_a = _random_graph(8, 0.5, rng)
        g_b = _random_graph(8, 0.5, rng)
        pi = Permutation.random(8, rng)
        deg = intersection_degrees(g_a, g_b, pi)
        assert deg.tolist() == intersection_graph(g_a, g_b, pi).degrees().tolist()


@st.composite
def _graph_pair_and_permutation(draw):
    n = draw(st.integers(2, 10))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    unique = st.lists(pairs, unique_by=lambda e: frozenset(e), max_size=n * (n - 1) // 2)
    return n, draw(unique), draw(unique), draw(st.permutations(range(n)))


@settings(max_examples=300, deadline=None)
@given(_graph_pair_and_permutation())
def test_intersection_queries_match_set_oracle(case):
    n, edges_a, edges_b, image = case
    g_a, pi = Graph.from_edges(n, edges_a), Permutation(image)
    in_b = {frozenset(e) for e in edges_b}
    inter = {frozenset(e) for e in edges_a if frozenset((image[e[0]], image[e[1]])) in in_b}
    # B as built, and B stored in other labels with pi (read in A's labels
    # it maps nothing) and another image relabeling it to the same edges
    e_b = np.array(edges_b, dtype=np.int64).reshape(-1, 2)
    for x in (None, np.array(image), np.array(image[::-1])):
        g_b = Graph.from_edges(n, e_b if x is None else np.argsort(x)[e_b])
        g_b = g_b if x is None else g_b.relabeled(x)
        assert intersection_degrees(g_a, g_b, pi).tolist() == [
            sum(1 for e in inter if i in e) for i in range(n)
        ]
        assert {frozenset(e) for e in intersection_graph(g_a, g_b, pi).edges().tolist()} == inter
        assert overlap_objective(g_a, g_b, pi) == len(inter)


def test_intersection_size_mismatch():
    with pytest.raises(ParameterError):
        intersection_graph(Graph.empty(3), Graph.empty(4), Permutation.identity(3))


@pytest.mark.parametrize("size", [3, 5])
@pytest.mark.parametrize(
    "query",
    [
        intersection_degrees,
        intersection_graph,
        overlap_objective,
        lambda g_a, g_b, pi: is_good(g_a, g_b, pi, ModelParams(4, 0.5, 1.0), 0.5),
    ],
    ids=["intersection_degrees", "intersection_graph", "overlap_objective", "is_good"],
)
def test_wrong_length_permutation_is_rejected(query, size):
    # a longer pi could send two B edges to one key, which would read as a match
    g = Graph.complete(4)
    with pytest.raises(ParameterError):
        query(g, g, Permutation.identity(size))


def _mapped_by_divmod(g: Graph, pi: Permutation) -> np.ndarray:
    u, v = np.divmod(g.edge_keys(), g.n)
    u, v = pi.as_array()[u], pi.as_array()[v]
    return np.minimum(u, v) * g.n + np.maximum(u, v)


def _matched_keys_by_probe(g_a: Graph, g_b: Graph, pi: Permutation) -> np.ndarray:
    """Oracle: A's keys whose divmod image under pi a searchsorted probe finds in B."""
    keys, mapped = g_a.edge_keys(), _mapped_by_divmod(g_a, pi)
    b_keys = g_b.edge_keys()
    if b_keys.size == 0:
        return keys[:0]
    pos = np.searchsorted(b_keys, mapped)
    return keys[b_keys[np.minimum(pos, b_keys.size - 1)] == mapped]


@st.composite
def _dense_or_sparse_pair(draw, max_n=300):
    n = draw(st.integers(2, max_n))

    def graph():
        kind = draw(st.sampled_from(["empty", "complete", "random"]))
        if kind != "random":
            return Graph.empty(n) if kind == "empty" else Graph.complete(n)
        keep = make_rng(draw(st.integers(0, 2**32 - 1))).random(n * (n - 1) // 2)
        pairs = np.column_stack(np.triu_indices(n, k=1))
        return Graph.from_edges(n, pairs[keep < draw(st.floats(0.0, 1.0))])

    g_a, g_b = graph(), graph()
    return g_a, g_b, Permutation.random(n, make_rng(draw(st.integers(0, 2**32 - 1))))


def _stored_forms(g_a: Graph, g: Graph, pi: Permutation) -> list[tuple[Graph, Graph]]:
    """A and B in stored forms: B is ``g`` as built, and relabeled from
    ``g`` through pi (so that read in A's labels it maps nothing) and
    through another image (so that it does).  The relabeled forms come once
    with ``g_a`` as built and once as ``generate`` stores A and B': two
    masks over one parent's CSR, here that of the union of A's and ``g``'s
    edges.  Last, A too is relabeled, so that it shares B's CSR but not its
    labels."""
    n = g.n
    image, other = pi.as_array(), pi.as_array()[::-1]
    parent = np.union1d(g_a.edge_keys(), g.edge_keys())
    csr = model._keys_to_csr(parent, n)

    def masked(h):
        return Graph(n, *csr, np.packbits(np.isin(parent, h.edge_keys()), bitorder="little"))

    forms = [(g_a, g)]
    for x in (image, other):
        forms.append((g_a, g.relabeled(x)))
        forms.append((masked(g_a), masked(g).relabeled(x)))
    forms.append((masked(g_a).relabeled(other), masked(g).relabeled(image)))
    return forms


_K6, _EMPTY6 = Graph.complete(6), Graph.empty(6)
_K40 = Graph.complete(40)
_ONE40 = Graph.from_edges(40, [(3, 17)])
_IDENTITY6, _REVERSE6 = Permutation.identity(6), Permutation([5, 4, 3, 2, 1, 0])
_DISJOINT6 = (Graph.from_edges(6, [(0, 1), (2, 3)]), Graph.from_edges(6, [(0, 2), (1, 3)]))
# A's keys all lie below B's
_LOW_HIGH6 = (
    Graph.from_edges(6, [(0, 1), (0, 2), (1, 2)]),
    Graph.from_edges(6, [(3, 4), (3, 5), (4, 5)]),
)


@settings(max_examples=200, deadline=None)
@given(_dense_or_sparse_pair())
@example((_EMPTY6, _K6, _IDENTITY6))  # empty A
@example((_K6, _EMPTY6, _IDENTITY6))  # empty B
@example((*_DISJOINT6, _IDENTITY6))  # no match
@example((*_LOW_HIGH6, _IDENTITY6))  # disjoint key ranges
@example((*_LOW_HIGH6[::-1], _IDENTITY6))
@example((_ONE40, _K40, Permutation.identity(40)))  # m_A << m_B
@example((_K40, _ONE40, Permutation.identity(40)))  # m_A >> m_B
@example((_K6, _K6, _REVERSE6))  # every edge matches
def test_matched_keys_match_searchsorted_probe(case):
    g_a, g, pi = case
    for a, b in _stored_forms(g_a, g, pi):
        # the probe runs before anything reads A's or B's edges, so it sees their stored forms
        keys = model._intersection(a, b, pi).edge_keys()
        expected = _matched_keys_by_probe(a, b, pi)
        assert keys.dtype == expected.dtype and np.all(keys[1:] > keys[:-1])
        assert np.array_equal(keys, expected)
    # each graph against itself under the identity: every key matches exactly once
    for forms in _stored_forms(g_a, g, pi):
        for x in forms:
            keys = model._intersection(x, x, Permutation.identity(g.n)).edge_keys()
            assert np.array_equal(keys, x.edge_keys())


@settings(max_examples=200, deadline=None)
@given(_dense_or_sparse_pair(max_n=40), st.sampled_from([model._BLOCK, 1, 3, 7]))
def test_matched_keys_match_intersect1d_for_any_block(case, block):
    # the masks are gathered, B's keys mapped and the intersection's degrees
    # counted in blocks of any size
    g_a, g, pi = case
    for a, b in _stored_forms(g_a, g, pi):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "_BLOCK", block)
            degrees = model._intersection(a, b, pi).degrees()
            keys = model._intersection(a, b, pi).edge_keys()
        expected = np.intersect1d(
            a.edge_keys(), _mapped_by_divmod(b, pi.inverse()), assume_unique=True
        )
        assert keys.dtype == np.int64 and np.all(keys[1:] > keys[:-1])
        assert np.array_equal(keys, expected)
        u, v = np.divmod(expected, g.n)
        assert np.array_equal(degrees, np.bincount(u, minlength=g.n) + np.bincount(v, minlength=g.n))


# -- goodness -----------------------------------------------------------------


def test_is_good_complete_graph_example():
    g = Graph.complete(4)
    report = is_good(g, g, Permutation.identity(4), ModelParams(4, 0.75, 1.0), 0.5)
    assert report.threshold_degree == pytest.approx(1.5)
    assert report.required == pytest.approx(3.0)
    assert report.count_high_degree == 4
    assert report.is_good
    assert report.degree_histogram == {3: 4}


def test_is_good_empty_intersection():
    g_a = Graph.from_edges(4, [(0, 1)])
    g_b = Graph.from_edges(4, [(2, 3)])
    pi = Permutation.identity(4)
    for alpha in (0.1, 0.5, 0.9):
        report = is_good(g_a, g_b, pi, ModelParams(4, 0.5, 0.5), alpha)
        assert not report.is_good
        assert report.count_high_degree == 0


def test_is_good_histogram_covers_all_nodes():
    inst = generate(ModelParams(60, 0.2, 0.6), seed=4)
    report = is_good(inst.g_a, inst.g_b, inst.pi_star, inst.params, 0.3)
    assert sum(report.degree_histogram.values()) == 60


def test_is_good_extra_peak_memory_per_parent_edge():
    # n = 20000, nqs = 130: 5.2 M parent edges.  The probe ANDs the two
    # packed coin masks (0.125 B per parent edge) and counts degrees from the
    # parent CSR under that mask block by block, so the peak is the mask and
    # the O(n) degree arrays: 0.20 B.  Gathering the matches (2 B per parent
    # edge) peaked at 2.1 B, a copy of A's keys merged with B' block by block
    # at 4.2 B, one buffer of m_A + m_B keys at 8.2 B.
    params = ModelParams(20000, 0.013, 0.5)
    parent_edges = _er_parent(params.n, params.parent_p, make_rng(11))[1].size
    inst = generate(params, 11)
    tracemalloc.start()
    try:
        report = is_good(inst.g_a, inst.g_b, inst.pi_star, params, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.is_good
    assert peak <= 0.5 * parent_edges


def test_pistar_trial_neither_maps_nor_sorts_b_or_a():
    # A and B' are masks over one parent and B stores B' with pi* as its image,
    # so under pi* the probe counts degrees over the parent CSR under both
    # masks: it gathers, maps and sorts nothing, and B stays unmapped after
    # the trial
    params = ModelParams(2000, 0.02, 0.5)
    calls = []
    map_keys, gather, intersect1d = model._map_keys, model._gather, np.intersect1d

    def map_spy(*args):
        calls.append("map")
        return map_keys(*args)

    def gather_spy(*args):
        calls.append("gather")
        return gather(*args)

    def intersect_spy(*args, **kwargs):
        calls.append("intersect1d")
        return intersect1d(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_map_keys", map_spy)
        mp.setattr(model, "_gather", gather_spy)
        mp.setattr(np, "intersect1d", intersect_spy)
        inst = generate(params, 11)
        report = is_good(inst.g_a, inst.g_b, inst.pi_star, params, 0.5)
        _, _, _, image = inst.g_b._stored
        assert calls == [] and image is not None
    built = Graph.from_edges(params.n, inst.g_b.edges())
    assert report == is_good(inst.g_a, built, inst.pi_star, params, 0.5)


def test_pistar_intersection_graph_stores_no_image():
    # under pi* the matches are found in A's labels, so the intersection
    # graph stores them as they are and reading its keys maps nothing
    params = ModelParams(2000, 0.02, 0.5)
    inst = generate(params, 11)
    inter = intersection_graph(inst.g_a, inst.g_b, inst.pi_star)
    assert inter._stored[3] is None
    calls = []
    map_keys = model._map_keys

    def map_spy(*args):
        calls.append("map")
        return map_keys(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_map_keys", map_spy)
        inter.edge_keys()
    assert calls == []
    built = Graph.from_edges(params.n, inst.g_b.edges())
    assert inter == intersection_graph(inst.g_a, built, inst.pi_star)


_RSS_TRIAL = """
import resource
from align_lab import ModelParams, generate, is_good

def maxrss():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

before = maxrss()
params = ModelParams(20000, 0.013, 0.5)
inst = generate(params, 11)
is_good(inst.g_a, inst.g_b, inst.pi_star, params, 0.5)
print(before, maxrss())
"""


def test_pistar_trial_resident_memory_per_parent_edge():
    # tracemalloc counts allocations, not resident pages, and resident pages
    # are what the benchmark's peak_rss_mb reads: a view that kept the slot
    # buffer's oversampled tail resident showed only here.  One trial grows
    # about 4.2 B per parent edge, 2.4 of them the parent's uint16 columns,
    # its two packed coin masks and their AND; the column buffer's tail past
    # the last slot is never written.  uint32 columns grew 6.2, the parent's
    # int64 keys 9.9, and bool masks, the written tail and the gathered
    # matches 13.5 (14.6 with A selected and B' compacted into the parent,
    # 18.6 with B' beside the parent and the m_A + m_B probe buffer, 25.1
    # with that view and compress's index).
    # Resident pages depend on numpy's allocator and on the C library, and
    # the 0.7 B of headroom was measured with numpy 2.4.6 only.
    pytest.importorskip("resource")
    if np.__version__ != "2.4.6":
        pytest.skip("resident growth measured with numpy 2.4.6 only")
    params = ModelParams(20000, 0.013, 0.5)
    parent_edges = _er_parent(params.n, params.parent_p, make_rng(11))[1].size
    src = str(Path(recovery.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # On Linux a process starts from its parent's ru_maxrss, kept through
    # fork and exec, so the trial runs under a bare interpreter, which is
    # far smaller than this test process
    bare = "import subprocess, sys; sys.exit(subprocess.run([sys.executable, '-c', sys.argv[1]]).returncode)"
    out = subprocess.run(
        [sys.executable, "-c", bare, _RSS_TRIAL], env=env, capture_output=True, text=True, check=True
    )
    before, after = map(int, out.stdout.split())
    unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss is in kB on Linux
    assert (after - before) * unit <= 5 * parent_edges


def test_is_good_alpha_validation():
    g = Graph.empty(4)
    with pytest.raises(ParameterError):
        is_good(g, g, Permutation.identity(4), ModelParams(4, 0.5, 0.5), 1.0)


# -- find_good ----------------------------------------------------------------


def test_find_good_complete_graphs_return_identity():
    g = Graph.complete(5)
    res = find_good(g, g, ModelParams(5, 0.2, 0.5), alpha=0.5)
    assert res.permutation == Permutation.identity(5)
    assert res.tested == 1


def test_find_good_matches_sequential_bruteforce():
    params = ModelParams(5, 0.45, 0.9)
    for seed in range(12):
        inst = generate(params, seed=seed)
        res = find_good(inst.g_a, inst.g_b, params, alpha=0.4)
        expected = None
        tested = 0
        for image in itertools.permutations(range(5)):
            tested += 1
            if is_good(inst.g_a, inst.g_b, Permutation(list(image)), params, 0.4).is_good:
                expected = Permutation(list(image))
                break
        if expected is None:
            assert res.permutation is None
            assert res.tested == math.factorial(5)
        else:
            assert res.permutation == expected
            assert res.tested == tested


def test_find_good_returned_permutation_reverifies():
    params = ModelParams(8, 0.4, 1.0)
    found = 0
    for seed in range(30):
        inst = generate(params, seed=100 + seed)
        res = find_good(inst.g_a, inst.g_b, params, alpha=0.5)
        if res.permutation is not None:
            found += 1
            assert is_good(inst.g_a, inst.g_b, res.permutation, params, 0.5).is_good
    assert found > 0


def test_find_good_limit():
    g_a = Graph.from_edges(5, [(0, 1)])
    g_b = Graph.from_edges(5, [(2, 3)])
    params = ModelParams(5, 0.9, 1.0)  # threshold too high for one edge
    res = find_good(g_a, g_b, params, alpha=0.9, limit=10)
    assert res.permutation is None
    assert res.tested == 10


def test_find_good_size_guard():
    g = Graph.empty(11)
    with pytest.raises(CapacityError):
        find_good(g, g, ModelParams(11, 0.3, 0.6), alpha=0.5)


# -- map_estimate -------------------------------------------------------------


def _rigid_graph() -> Graph:
    # triangle 0-1-2, tail 2-3-4-5, pendant 0-6; automorphism group is trivial
    return Graph.from_edges(7, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (0, 6)])


def test_rigid_graph_is_rigid():
    g = _rigid_graph()
    autos = 0
    for image in itertools.permutations(range(7)):
        pi = np.array(image)
        if all(g.has_edge(pi[u], pi[v]) for u, v in g.edges()):
            autos += 1
    assert autos == 1


def test_map_recovers_planted_isomorphism():
    g = _rigid_graph()
    rng = make_rng(31)
    for _ in range(5):
        pi_star = Permutation.random(7, rng)
        g_b = g.relabeled(pi_star.as_array())
        assert map_estimate(g, g_b) == pi_star


def test_map_empty_graph_returns_identity():
    assert map_estimate(Graph.empty(4), Graph.empty(4)) == Permutation.identity(4)


def test_map_tie_break_is_lexicographic():
    g = Graph.from_edges(3, [(0, 1)])
    # every permutation keeping {0,1} on an edge ties; identity is lex-first
    assert map_estimate(g, g) == Permutation.identity(3)


def test_map_objective_is_maximal():
    params = ModelParams(5, 0.4, 0.8)
    for seed in range(8):
        inst = generate(params, seed=seed)
        pi_hat = map_estimate(inst.g_a, inst.g_b)
        best = overlap_objective(inst.g_a, inst.g_b, pi_hat)
        for image in itertools.permutations(range(5)):
            pi = Permutation(list(image))
            assert overlap_objective(inst.g_a, inst.g_b, pi) <= best


def test_map_size_guard():
    g = Graph.empty(12)
    with pytest.raises(CapacityError):
        map_estimate(g, g)


# -- exhaustive scans across block boundaries ------------------------------------
# The scans evaluate 2048 candidates per block; at n = 7 the 5040 candidates span
# three blocks, so these oracles reach the block offset and the limit cut.

_IMAGES_7 = list(itertools.permutations(range(7)))
_ER_7 = ModelParams(7, 0.4, 0.9)


@pytest.fixture
def scanned(monkeypatch):
    """Candidates the enumeration kernel yields, one entry per scan started."""
    counts: list[int] = []
    real_scan = recovery._scan

    def spy(e, g_b, budget):
        counts.append(0)
        for item in real_scan(e, g_b, budget):
            counts[-1] += item[-1].shape[1]
            yield item

    monkeypatch.setattr(recovery, "_scan", spy)
    return counts


def _rigid_pair_with_hit_at_2049():
    # B is the rigid graph relabeled by the first candidate of the second block;
    # with threshold 2 and 5 nodes required, the first good candidate is that one
    g = _rigid_graph()
    return g, g.relabeled(np.array(_IMAGES_7[2048])), ModelParams(7, 4 / 7, 1.0), 0.42


def _generated(seed, alpha):
    inst = generate(_ER_7, seed=seed)
    return inst.g_a, inst.g_b, _ER_7, alpha


# name -> (g_a, g_b, params, alpha), 1-based position of the first good candidate,
# and the path: "bound" when too few nodes of A or of B reach the degree
# threshold, so no candidate is scanned; "scan" otherwise
_SEARCH_CASES_7 = {
    "hit-at-2049": (_rigid_pair_with_hit_at_2049, 2049, "scan"),
    "hit-at-2926": (lambda: _generated(10, 0.4), 2926, "scan"),
    "hit-at-3": (lambda: _generated(2, 0.6), 3, "scan"),
    "no-hit": (lambda: _generated(0, 0.6), None, "bound"),
    "no-hit-full-scan": (lambda: _generated(11, 0.4), None, "scan"),
    "empty-graphs": (lambda: (Graph.empty(7), Graph.empty(7), _ER_7, 0.6), None, "bound"),
    "empty-a": (lambda: (Graph.empty(7), _rigid_graph(), _ER_7, 0.6), None, "bound"),
    "empty-b": (lambda: (_rigid_graph(), Graph.empty(7), _ER_7, 0.4), None, "bound"),
    "empty-graphs-q0": (
        lambda: (Graph.empty(7), Graph.empty(7), ModelParams(7, 0.0, 0.5), 0.6), 1, "scan"
    ),
}


@pytest.mark.parametrize("name", list(_SEARCH_CASES_7))
def test_find_good_matches_naive_scan_across_blocks(name, scanned):
    build, expected_hit, path = _SEARCH_CASES_7[name]
    g_a, g_b, params, alpha = build()
    good = [is_good(g_a, g_b, Permutation(list(im)), params, alpha).is_good for im in _IMAGES_7]
    first = next((i for i, flag in enumerate(good) if flag), None)
    assert (None if first is None else first + 1) == expected_hit
    limits = (None, 2048, 2049, 2925, 4097)
    for limit in limits:
        budget = len(good) if limit is None else min(limit, len(good))
        res = find_good(g_a, g_b, params, alpha, limit=limit)
        if first is None or first >= budget:
            assert res.permutation is None
            assert res.tested == budget
        else:
            assert res.permutation == Permutation(list(_IMAGES_7[first]))
            assert res.tested == first + 1
        if path == "scan":
            assert scanned[-1] >= res.tested
    assert len(scanned) == (len(limits) if path == "scan" else 0)


# seed -> path: "ceiling" when the maximum is min(m_A, m_B), which ends the
# scan at the block of the first maximiser; "full" when all 7! are scanned
_MAP_SEEDS_7 = {0: "ceiling", 3: "ceiling", 10: "ceiling", 5: "full"}


@pytest.mark.parametrize("seed", list(_MAP_SEEDS_7))
def test_map_matches_naive_lexicographic_argmax(seed, scanned):
    inst = generate(_ER_7, seed=seed)
    objectives = [
        overlap_objective(inst.g_a, inst.g_b, Permutation(list(im))) for im in _IMAGES_7
    ]
    # max returns the first maximal element, i.e. the lexicographically first one
    best = max(range(len(objectives)), key=objectives.__getitem__)
    assert map_estimate(inst.g_a, inst.g_b) == Permutation(list(_IMAGES_7[best]))
    ceiling = min(inst.g_a.num_edges, inst.g_b.num_edges)
    if _MAP_SEEDS_7[seed] == "ceiling":
        assert objectives[best] == ceiling
        assert scanned == [min(len(_IMAGES_7), (best // recovery._CHUNK + 1) * recovery._CHUNK)]
    else:
        assert objectives[best] < ceiling
        assert scanned == [len(_IMAGES_7)]


# -- the enumeration table and the prefix walk -------------------------------------


@pytest.mark.parametrize("k", range(1, 9))
def test_lex_table_is_itertools_order_and_read_only(k):
    table = recovery._lex_table(k)
    assert table.tolist() == [list(im) for im in itertools.permutations(range(k))]
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 0


@pytest.mark.parametrize("n", [9, 12])
def test_scan_walks_prefixes_in_itertools_order(n):
    # 2 * 8! + 5 rows cross two prefix boundaries of the 8-table
    budget = 2 * math.factorial(8) + 5
    g = Graph.empty(n)
    rows = np.concatenate([order[local].T for _, order, local, _ in recovery._scan(g.edges(), g, budget)])
    expected = np.array(list(itertools.islice(itertools.permutations(range(n)), budget)))
    assert np.array_equal(rows, expected)


def _rigid_graph_9() -> Graph:
    # triangle 0-1-2, tail 2-3-4-5-6, path 0-7-8; automorphism group is trivial
    return Graph.from_edges(
        9, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 7), (7, 8)]
    )


def test_find_good_hit_at_first_candidate_of_second_prefix():
    # rank 40321 is (1, 0, 2, ..., 8), the first image list after the 8! lists
    # that start with 0; threshold 2 and 7 nodes required, as in hit-at-2049
    image = next(itertools.islice(itertools.permutations(range(9)), 40320, None))
    g = _rigid_graph_9()
    g_b, params = g.relabeled(np.array(image)), ModelParams(9, 4 / 9, 1.0)
    hit = find_good(g, g_b, params, 0.5, limit=40321)
    assert hit == recovery.SearchResult(Permutation(list(image)), 40321)
    assert is_good(g, g_b, hit.permutation, params, 0.5).is_good
    assert find_good(g, g_b, params, 0.5, limit=40320) == recovery.SearchResult(None, 40320)


def test_limited_large_scan_stays_small():
    # A is a 12-cycle, B two 6-cycles: every node passes the degree bound, but
    # at most 8 nodes keep both cycle edges, so no candidate is good (9 required)
    n, budget = 12, 2 * math.factorial(8) + 5
    g_a = Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    g_b = Graph.from_edges(n, [(i, 6 * (i // 6) + (i + 1) % 6) for i in range(n)])
    tracemalloc.start()
    try:
        res = find_good(g_a, g_b, ModelParams(n, 1 / 3, 1.0), 0.5, limit=budget, force_large=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res == recovery.SearchResult(None, budget)
    assert peak < 8 * 2**20  # 12! image lists of 12 bytes would take 5.7 GB


# -- k-core --------------------------------------------------------------------


def test_k_core_examples():
    triangle = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert k_core(triangle, 2).members == (0, 1, 2)
    path3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert k_core(path3, 2).members == ()
    pendant = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    res = k_core(pendant, 2)
    assert res.members == (0, 1, 2)
    assert res.fraction == pytest.approx(0.75)


def test_k_core_zero_keeps_everything():
    g = Graph.empty(5)
    assert k_core(g, 0).members == (0, 1, 2, 3, 4)


def _exhaustive_core(g: Graph, k: float) -> set[int]:
    """Largest subset whose induced subgraph has min degree >= k (bitmask scan)."""
    masks = [0] * g.n
    for u, v in g.edges():
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    best: set[int] = set()
    for subset in range(1 << g.n):
        size = subset.bit_count()
        if size <= len(best):
            continue
        ok = True
        s = subset
        while s:
            node = (s & -s).bit_length() - 1
            if (masks[node] & subset).bit_count() < k:
                ok = False
                break
            s &= s - 1
        if ok:
            best = {i for i in range(g.n) if subset >> i & 1}
    return best


def test_k_core_against_exhaustive_oracle():
    rng = make_rng(41)
    for _ in range(60):
        n = int(rng.integers(3, 11))
        g = _random_graph(n, float(rng.uniform(0.2, 0.7)), rng)
        k = float(rng.integers(1, 4))
        assert set(k_core(g, k).members) == _exhaustive_core(g, k)


def test_k_core_fractional_threshold():
    triangle = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert k_core(triangle, 1.5).members == (0, 1, 2)
    assert k_core(triangle, 2.5).members == ()


def test_k_core_order_invariance():
    rng = make_rng(43)
    for _ in range(10):
        g = _random_graph(12, 0.3, rng)
        reference = k_core(g, 3).members
        for _ in range(5):
            order = list(rng.permutation(12))
            assert k_core(g, 3, peel_order=order).members == reference


@pytest.mark.parametrize("order", [[0], [0, 1, 2, 3, 4], [0, 0, 1], [2, 1, 0, 0]])
def test_k_core_rejects_peel_order_that_is_not_a_permutation(order):
    # [0] alone would never scan the isolated nodes 1 and 2 and keep them in the 1-core
    with pytest.raises(ParameterError):
        k_core(Graph.empty(3), 1, peel_order=order)


def test_k_core_rejects_negative_k():
    with pytest.raises(ParameterError):
        k_core(Graph.empty(3), -1)


def test_core_fraction_implies_goodness():
    # a big enough nqs/2-core forces the goodness test to pass
    rng = make_rng(47)
    params = ModelParams(30, 0.3, 0.8)
    for seed in range(15):
        inst = generate(params, seed=seed)
        pi = Permutation.random(30, rng)
        inter = intersection_graph(inst.g_a, inst.g_b, pi)
        alpha = 0.4
        core = k_core(inter, params.nqs / 2)
        if core.fraction >= (1 + alpha) / 2:
            assert is_good(inst.g_a, inst.g_b, pi, params, alpha).is_good
