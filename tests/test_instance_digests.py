"""Bit-identical instance guard: SHA-256 digests of generated instances and of
intersection degrees at fixed (params, seed) points.

The digests were recorded before the graph storage and the membership probe
were rewritten; any change to the generator's RNG consumption order, the
slot->edge inversion, the edge-key layout or the degree count shows up here.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from align_lab import ModelParams, Permutation, generate, intersection_degrees, make_rng
from align_lab.cli import main


def _digest(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<i8").tobytes()).hexdigest()


# (n, q, s), seed -> digests of g_a keys, g_b keys, pi*, degrees under pi*,
# degrees under Permutation.random(n, make_rng(seed + 1)).
PINNED = [
    (
        (7, 0.4, 0.9), 5,
        (
            "9c77717d2f2e23ce990a813d98317cd52ebe163eb0092aadc9f813e75239e3fa",
            "a9f1c3e4a17c5f2ecdb0f4be7ea77c58bad258ea639d2a2dd8a953f1dd13815f",
            "b6c5d3caa118760fc385fef6d92bd4d7a25a0a45d0644be5bac30fa65526bf8c",
            "f13beae1823f921016a8af945af82f311a97cd89961b047a42644758b89f1148",
            "9584f9efa68b098fe52c5cd6cc1747b54ee65e371d8f0d9c3ca872c162b55576",
        ),
    ),
    (
        (500, 0.04, 0.5), 3,
        (
            "f35bb1304d9728f17bef7dd941c68aa4545b9c436d09aaa1c11f439b03928784",
            "4698ac72cb2e2c271aee7bf552661a4d64ae963648ef4cc6a96be03026bba261",
            "12eba51d776d70bf680130512d63d971b40020019818c49c2d8761590a449bdb",
            "6a8899d3a0715cde6075374d173076a43411d2d62b6f705482d608b8bacafb42",
            "2d61208b8bae47495c04af22b4ab6323ab9a992428b6f3a46b1d33eea33074ce",
        ),
    ),
    (
        (2000, 0.05, 0.7), 21,
        (
            "1664fe2eedef6f0710639bff005db201a87771d58be694aa44950c910afd477b",
            "c7d924c44b0e6882352d507505b172f3e07cae7af08717451c6cb618fe441890",
            "2c25a886571c696f5e6d8aa5ea5d07e00de926a499bede838274aa0c45bcf446",
            "1f184f1028c288b1287d557f9e06eed601c253d9e6bb51a29e45926e22368ba9",
            "6ed0ea7e624ef7c0965d3d5275f40dfd1cdcb5c0e002e3b83782b564f86cf12e",
        ),
    ),
    (
        (20000, 0.013, 0.5), 2,  # nqs = 130, the acceptance-gate point
        (
            "703c3aed9d5bd9160253c62406717f2dbe80025b1d8fb6d409cad7452979d196",
            "97a7d7112eaf366cb1e99ecd41d22ef67f2bc9cad48bb3fed50d5a89640278f4",
            "497a45f8a03b2e2d9fcbeb716b3e65fcaa8dccd3096814854351b28d510af886",
            "56f509f2e081c343fbe0c8aadbd8037464d9f8279abbb060b6aa0bdbfc1a1bfd",
            "d88894ef257c8efbba67784840490d84d956ba73fecdac2c6c21062458997634",
        ),
    ),
]


@pytest.mark.parametrize("point,seed,expected", PINNED, ids=[f"n{p[0][0]}" for p in PINNED])
def test_instance_and_probe_digests_are_pinned(point, seed, expected):
    n, q, s = point
    inst = generate(ModelParams(n, q, s), seed)
    rand = Permutation.random(n, make_rng(seed + 1))
    got = tuple(
        _digest(v)
        for v in (
            inst.g_a.edge_keys(),
            inst.g_b.edge_keys(),
            inst.pi_star.as_array(),
            intersection_degrees(inst.g_a, inst.g_b, inst.pi_star),
            intersection_degrees(inst.g_a, inst.g_b, rand),
        )
    )
    assert got == expected


# SHA-256 of each file that `align-lab gen --n 2000 --q 0.05 --s 0.5 --seed 7`
# writes, recorded before the coin masks were packed to bits.
BUNDLE = {
    "ga.edges": "2e75750e1be0c4bb3ef56da00f784defa847474d56091bb53cc2f59bcb1ea9ed",
    "gb.edges": "a02b7580e956ffc0be30834c3ce9d6dc782b3f54bcd0d61746dbfd46e193c9ec",
    "meta.json": "ea23f014a7317ed0e46d47fdffec63babbb8b03e7e59cbeaf439358255866a70",
    "pistar.perm": "4bee903e84e3ff22c4563edb599f2b126044fda2613e9acc38de43da8f13425b",
}


def test_gen_bundle_bytes_are_pinned(tmp_path, capsys):
    out = tmp_path / "inst"
    argv = ["gen", "--n", "2000", "--q", "0.05", "--s", "0.5", "--seed", "7", "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
    assert got == BUNDLE
