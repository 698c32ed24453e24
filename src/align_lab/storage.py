"""On-disk formats (all text, all 0-indexed).

Graph file: first line ``n m``, then m lines ``u v`` with 0 <= u < v < n,
sorted lexicographically.  Permutation file: one line of n whitespace-
separated images.  Instance bundle: a directory holding ``ga.edges``,
``gb.edges``, ``pistar.perm`` and ``meta.json`` (params plus seed).  Every
reader takes UTF-8 text and raises ParameterError on malformed content.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import numpy as np

from .errors import ParameterError
from .model import CorrelatedInstance, Graph, ModelParams
from .perms import Permutation

GA_FILE = "ga.edges"
GB_FILE = "gb.edges"
PISTAR_FILE = "pistar.perm"
META_FILE = "meta.json"

# Edges per formatted block of a written graph file.
_WRITE_BLOCK = 1 << 16


def read_text(path: str | Path) -> str:
    """The UTF-8 text of a file; other bytes raise ParameterError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path}: not UTF-8 text ({exc})") from exc


def write_graph(g: Graph, path: str | Path) -> None:
    e = g.edges()
    with open(path, "w") as fh:
        fh.write(f"{g.n} {g.num_edges}\n")
        # one %-format of each block's Python ints: no numpy scalar per edge
        for begin in range(0, len(e), _WRITE_BLOCK):
            block = e[begin : begin + _WRITE_BLOCK]
            fh.write("%d %d\n" * len(block) % tuple(block.ravel().tolist()))


def read_graph(path: str | Path) -> Graph:
    first, _, body = read_text(path).partition("\n")
    header = first.split()
    if len(header) != 2:
        raise ParameterError(f"{path}: first line must be 'n m'")
    rows = io.StringIO(body)
    try:
        n, m = int(header[0]), int(header[1])
        # loadtxt warns on a blank body; any other body is read whatever m says
        data = (
            np.loadtxt(rows, dtype=np.int64, ndmin=2) if body.strip() else np.empty((0, 2), np.int64)
        )
    except ValueError as exc:
        raise ParameterError(f"{path}: edge file holds a non-integer token ({exc})") from exc
    if data.shape != (m, 2):
        raise ParameterError(f"{path}: expected {m} edge lines, found shape {data.shape}")
    if m and not np.all(data[:, 0] < data[:, 1]):
        raise ParameterError(f"{path}: edges must satisfy u < v")
    keys = data[:, 0] * n + data[:, 1]
    if m and not np.all(keys[1:] > keys[:-1]):
        raise ParameterError(f"{path}: edges must be sorted lexicographically")
    return Graph.from_edges(n, data)


def write_permutation(pi: Permutation, path: str | Path) -> None:
    with open(path, "w") as fh:
        fh.write(" ".join(str(x) for x in pi.image) + "\n")


def read_permutation(path: str | Path) -> Permutation:
    tokens = read_text(path).split()
    if not tokens:
        raise ParameterError(f"{path}: empty permutation file")
    try:
        image = [int(t) for t in tokens]
    except ValueError as exc:
        raise ParameterError(f"{path}: permutation holds a non-integer token ({exc})") from exc
    return Permutation(image)


def write_instance(inst: CorrelatedInstance, directory: str | Path) -> Path:
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    write_graph(inst.g_a, d / GA_FILE)
    write_graph(inst.g_b, d / GB_FILE)
    write_permutation(inst.pi_star, d / PISTAR_FILE)
    meta = {"n": inst.params.n, "q": inst.params.q, "s": inst.params.s, "seed": inst.seed}
    (d / META_FILE).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return d


def read_instance(directory: str | Path) -> CorrelatedInstance:
    d = Path(directory)
    try:
        meta = json.loads(read_text(d / META_FILE))
        params = ModelParams(n=meta["n"], q=float(meta["q"]), s=float(meta["s"]))
        seed = int(meta["seed"])
    except FileNotFoundError as exc:
        raise ParameterError(f"{d}: not an instance bundle ({exc})") from exc
    # not JSON (a ValueError), a key missing, or a value of the wrong type
    except (ValueError, KeyError, TypeError) as exc:
        raise ParameterError(f"{d / META_FILE}: bad instance metadata ({exc!r})") from exc
    return CorrelatedInstance(
        g_a=read_graph(d / GA_FILE),
        g_b=read_graph(d / GB_FILE),
        pi_star=read_permutation(d / PISTAR_FILE),
        params=params,
        seed=seed,
    )
