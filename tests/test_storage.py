"""On-disk format tests: graph/permutation files and instance bundles."""

from __future__ import annotations

import json

import pytest

from align_lab import Graph, ModelParams, ParameterError, Permutation, generate
from align_lab.storage import (
    read_graph,
    read_instance,
    read_permutation,
    write_graph,
    write_instance,
    write_permutation,
)


def test_graph_roundtrip(tmp_path):
    g = Graph.from_edges(5, [(4, 0), (1, 2), (0, 1)])
    path = tmp_path / "g.edges"
    write_graph(g, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "5 3"
    assert lines[1:] == ["0 1", "0 4", "1 2"]  # u < v, lexicographic
    assert read_graph(path) == g


def test_empty_graph_roundtrip(tmp_path):
    path = tmp_path / "empty.edges"
    write_graph(Graph.from_edges(3, []), path)
    assert path.read_text() == "3 0\n"
    assert read_graph(path) == Graph.from_edges(3, [])


def test_read_graph_rejects_malformed(tmp_path):
    bad_order = tmp_path / "bad1.edges"
    bad_order.write_text("3 2\n1 2\n0 1\n")
    with pytest.raises(ParameterError):
        read_graph(bad_order)
    bad_orient = tmp_path / "bad2.edges"
    bad_orient.write_text("3 1\n2 1\n")
    with pytest.raises(ParameterError):
        read_graph(bad_orient)
    # a header of no edges followed by edge lines
    extra = tmp_path / "bad3.edges"
    extra.write_text("3 0\n0 1\n")
    with pytest.raises(ParameterError, match="expected 0 edge lines"):
        read_graph(extra)


def test_permutation_roundtrip(tmp_path):
    pi = Permutation([2, 0, 1, 3])
    path = tmp_path / "pi.perm"
    write_permutation(pi, path)
    assert path.read_text() == "2 0 1 3\n"
    assert read_permutation(path) == pi


def test_instance_bundle_roundtrip(tmp_path):
    inst = generate(ModelParams(40, 0.2, 0.5), seed=30)
    d = write_instance(inst, tmp_path / "bundle")
    assert sorted(p.name for p in d.iterdir()) == [
        "ga.edges",
        "gb.edges",
        "meta.json",
        "pistar.perm",
    ]
    meta = json.loads((d / "meta.json").read_text())
    assert meta == {"n": 40, "q": 0.2, "s": 0.5, "seed": 30}
    back = read_instance(d)
    assert back.g_a == inst.g_a
    assert back.g_b == inst.g_b
    assert back.pi_star == inst.pi_star
    assert back.params == inst.params
    assert back.seed == inst.seed


def test_read_instance_missing_dir(tmp_path):
    with pytest.raises(ParameterError):
        read_instance(tmp_path / "nope")
