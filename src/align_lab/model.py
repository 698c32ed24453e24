"""Correlated Erdos-Renyi pair model.

Conventions used throughout the package:

- A model point is ``(n, q, s)``: ``n`` nodes, marginal edge probability
  ``q``, subsampling (retention) probability ``s``.  A parent graph is drawn
  as ER(n, q/s); two copies are independently subsampled edge-by-edge with
  retention probability ``s``, giving graphs A and B'.  B is B' with its
  labels pushed through a uniform random permutation.  Marginally both A and
  B are ER(n, q); matched edge indicators have covariance ``q*(s-q)``.
- The typical regime is ``0 < q < s <= 1`` (positively correlated pair).
  The closure ``0 <= q <= s <= 1`` is accepted wherever the formulas stay
  defined, so the boundary cases q=0, s=q and s=1 can be probed by the
  bound evaluators.  ``generate`` additionally requires q > 0.
- Node labels are 0-indexed everywhere, in memory and on disk.
- All randomness flows through a numpy ``Generator`` backed by the PCG64
  bit generator, created from an explicit 64-bit seed via :func:`make_rng`.
  numpy's policy (NEP 19) keeps the bit generator's stream fixed across
  releases, but not the ``Generator`` distributions drawn from it.
  Instances are pinned for numpy 2.4.6 by ``tests/test_instance_digests.py``
  and by the gap-draw equivalence test in ``tests/test_model.py``.

A draw consumes random variates in a fixed, documented order: parent edge
slots (geometric skipping), retention coins for copy A, retention coins for
copy B', then the permutation.  Identical ``(params, seed)`` therefore gives
a bit-identical instance.

The parent is never held as an edge list.  Its slots are drawn into one
oversampled buffer, cut to the slots below C(n, 2), and mapped in place to
the sorted edge keys ``u*n + v``; the gaps a batch draws past C(n, 2) go to
a spare block, so the buffer's tail is never written.  A and B' are those
keys under two masks of retention coins, packed eight to a byte, and B is
B' relabeled through the permutation; a graph gathers, maps and sorts its
keys only when a query reads them (see ``Graph``).  A draw thus holds about
8.3 bytes per parent edge: the parent keys and the two packed masks.  Under
pi* the intersection graph is the parent's keys under the AND of both
masks, and the goodness test counts its degrees from that stored form.

The O(m) passes of a draw work through their arrays in blocks of
``_BLOCK`` elements, rounded up to whole mask bytes where a pass reads a
mask, so their temporaries stay in cache.  Below p = 1/3 numpy draws a
geometric variate as ``ceil(E / -log1p(-p))`` of one standard exponential
E, so a block of gaps is a block of exponentials divided, rounded up and
clipped; at and above it ``rng.geometric`` is called on the block.  The
coins are a block of uniforms compared with s and packed.  Blocks read the
stream in the same order as whole-array draws, so the variates are the same.

The slot-to-key map, ``_map_keys`` and ``degrees`` decode each block of
sorted entries by row runs: the block's first and last entry give its rows,
one ``searchsorted`` over their boundaries gives the entries in each row,
and ``repeat`` of a per-row value over those counts gives the row's share
of every entry.  Slots become keys by adding ``(i+1)(i+2)/2`` to the slots
of row i, and a key's lower endpoint u is its row, the upper endpoint v its
key minus ``u*n``; ``degrees`` adds the row counts and then each upper
endpoint with ``np.add.at`` (fast from numpy 1.25 on, the floor in
``pyproject.toml``).  ``edges`` and ``neighbors`` keep the per-key ``divmod``: on the
small graphs of the exhaustive search its one call costs less than the
runs' several.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import CapacityError, ParameterError
from .perms import Permutation

# Refuse to materialize parent graphs whose expected edge count exceeds this.
MAX_PARENT_EDGES = 200_000_000

# Refuse more nodes than this: generate also holds O(n) arrays, and C(n, 2)
# must stay below 2**53 for the float clip of the geometric gaps.
MAX_NODES = 10**8

_GEOM_BATCH_MIN = 1024

# numpy's Generator.geometric inverts an exponential below this p and searches
# at and above it.
_GEOM_SEARCH_MIN_P = 0.3333333333333333

# Elements per block of the O(m) passes over slots, coins and keys, so that
# each pass's temporaries stay in cache.
_BLOCK = 1 << 15

# The slot buffer is shrunk in place to its used part from this size on.
# glibc's malloc maps a buffer this large (its largest mmap threshold on
# 64-bit) afresh on every allocation, so releasing the tail costs nothing.
# It recycles a smaller one when it is freed whole; shrinking it first
# keeps glibc's mmap threshold below the buffer's size, and every later
# draw then maps and faults in a fresh buffer.
_TRIM_MIN_BYTES = 32 << 20


def make_rng(seed: int) -> np.random.Generator:
    """The package-wide RNG: PCG64 seeded with an explicit non-negative integer."""
    if seed < 0:
        raise ParameterError(f"seed must be non-negative, got {seed}")
    return np.random.Generator(np.random.PCG64(seed))


@dataclass(frozen=True)
class ModelParams:
    """A correlated Erdos-Renyi parameter point (n, q, s).

    Accepts the closed region n >= 2, 0 <= q <= s <= 1, s > 0.  The strict
    inequalities of the typical regime (q > 0, s > q) are demanded only by
    the operations that need them.
    """

    n: int
    q: float
    s: float

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool):
            raise ParameterError(f"n must be an integer, got {self.n!r}")
        if self.n < 2:
            raise ParameterError(f"n must be >= 2, got {self.n}")
        for name, value in (("q", self.q), ("s", self.s)):
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value!r}")
        if not 0.0 <= self.q <= 1.0:
            raise ParameterError(f"q must be in [0, 1], got {self.q}")
        if not 0.0 < self.s <= 1.0:
            raise ParameterError(f"s must be in (0, 1], got {self.s}")
        if self.q > self.s:
            raise ParameterError(f"q must not exceed s, got q={self.q} > s={self.s}")

    @property
    def nqs(self) -> float:
        return self.n * self.q * self.s

    @property
    def parent_p(self) -> float:
        """Edge probability q/s of the parent graph."""
        return self.q / self.s


def check_alpha(alpha: float) -> None:
    """Raise ParameterError unless the overlap level alpha lies in (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must be in (0, 1), got {alpha}")


def check_exponents(beta: float | None, gamma: float | None) -> None:
    """Raise ParameterError unless the exponents beta and gamma are both
    absent, or both given, finite and positive."""
    if (beta is None) != (gamma is None):
        raise ParameterError("beta and gamma must be given together")
    if beta is not None and not all(0.0 < x < math.inf for x in (beta, gamma)):
        raise ParameterError(f"beta and gamma must be finite and positive, got {beta}, {gamma}")


@dataclass(frozen=True)
class PairDistribution:
    """Distribution of a {0,1}x{0,1} edge-indicator pair.

    Cell (x, y) is the probability that the first graph has the edge iff
    x == 1 and the second has it iff y == 1.  Both model distributions are
    exchangeable, so p01 == p10 is enforced.
    """

    p00: float
    p01: float
    p10: float
    p11: float

    def __post_init__(self) -> None:
        cells = self.cells()
        for value in cells:
            if not (math.isfinite(value) and -1e-12 <= value <= 1.0 + 1e-12):
                raise ParameterError(f"cell probabilities must be in [0, 1], got {cells}")
        if abs(sum(cells) - 1.0) > 1e-12:
            raise ParameterError(f"cell probabilities must sum to 1, got {sum(cells)!r}")
        if abs(self.p01 - self.p10) > 1e-12:
            raise ParameterError("pair distribution must be exchangeable (p01 == p10)")

    def cells(self) -> tuple[float, float, float, float]:
        return (self.p00, self.p01, self.p10, self.p11)

    def marginal_first(self) -> float:
        return self.p10 + self.p11

    def marginal_second(self) -> float:
        return self.p01 + self.p11

    def covariance(self) -> float:
        return self.p11 - self.marginal_first() * self.marginal_second()

    def correlation(self) -> float:
        pa, pb = self.marginal_first(), self.marginal_second()
        denom = math.sqrt(pa * (1 - pa) * pb * (1 - pb))
        if denom == 0.0:
            raise ParameterError("correlation undefined for a degenerate marginal")
        return self.covariance() / denom


def dist_p(params: ModelParams) -> PairDistribution:
    """Distribution of a matched pair (A_ij, B'_ij): p11 = qs, p01 = q(1-s)."""
    q, s = params.q, params.s
    return PairDistribution(1 - 2 * q + q * s, q * (1 - s), q * (1 - s), q * s)


def dist_q(params: ModelParams) -> PairDistribution:
    """Distribution of an unmatched, independent pair: the product of the marginals."""
    q = params.q
    return PairDistribution(1 - 2 * q + q * q, q * (1 - q), q * (1 - q), q * q)


def kl_divergence(p: PairDistribution, q_dist: PairDistribution) -> float:
    """Kullback-Leibler divergence D(p || q_dist), natural log.

    Cells with p == 0 contribute 0.  A cell with p > 0 but q == 0 makes the
    divergence infinite and raises ParameterError.
    """
    terms = []
    for pc, qc in zip(p.cells(), q_dist.cells()):
        if pc <= 0.0:
            continue
        if qc <= 0.0:
            raise ParameterError(
                f"support violation: p-cell {pc} positive where q-cell is {qc}"
            )
        terms.append(pc * math.log(pc / qc))
    return max(0.0, math.fsum(terms))


class Graph:
    """Undirected simple graph on n labeled nodes, 0-indexed.

    Stored as sorted int64 edge keys ``u*n + v`` (u < v), a mask and an
    image array: the graph's edges are the keys the mask keeps, mapped
    through the image (a mask or image of None keeps or maps nothing).  The
    mask is packed eight keys to a byte (``np.packbits(keep,
    bitorder="little")``), so a generated A and B, which share the parent's
    keys, hold about 8.3 bytes per parent edge together.  ``relabeled``
    stores its source's keys and mask with the composed image;
    ``num_edges`` counts the mask's bits and ``degrees`` counts from the
    stored form; the first query that reads the keys gathers, maps and sorts
    them and stores them alone.  Per-node neighbor arrays are built on the
    first call to ``neighbors``.  The keys, mask and
    image share one slot, replaced in a single assignment, so the graph
    never changes as seen from outside and is safe to share across threads
    and processes.
    """

    __slots__ = ("n", "_stored", "_adjacency")

    def __init__(
        self, n: int, keys: np.ndarray,
        mask: np.ndarray | None = None, image: np.ndarray | None = None,
    ):
        self.n = int(n)
        keys.setflags(write=False)
        self._stored = (keys, mask, image)
        self._adjacency: tuple[np.ndarray, np.ndarray] | None = None

    # -- construction --------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges: np.ndarray | list | tuple) -> "Graph":
        """Build from an iterable of (u, v) pairs in either orientation.

        Rejects self-loops, out-of-range endpoints and duplicate edges.
        """
        if n < 1:
            raise ParameterError(f"graph needs at least one node, got n={n}")
        e = np.asarray(edges, dtype=np.int64)
        if e.size == 0:
            e = e.reshape(0, 2)
        if e.ndim != 2 or e.shape[1] != 2:
            raise ParameterError(f"edges must be an (m, 2) array, got shape {e.shape}")
        if e.size and (e.min() < 0 or e.max() >= n):
            raise ParameterError("edge endpoint out of range")
        u = np.minimum(e[:, 0], e[:, 1])
        v = np.maximum(e[:, 0], e[:, 1])
        if np.any(u == v):
            raise ParameterError("self-loops are not allowed")
        keys = u * n + v
        keys.sort()
        if keys.size and np.any(keys[1:] == keys[:-1]):
            raise ParameterError("duplicate edges are not allowed")
        return cls(n, keys)

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls.from_edges(n, np.empty((0, 2), dtype=np.int64))

    @classmethod
    def complete(cls, n: int) -> "Graph":
        iu = np.triu_indices(n, k=1)
        return cls.from_edges(n, np.column_stack(iu))

    # -- queries ---------------------------------------------------------

    @property
    def num_edges(self) -> int:
        keys, mask, _ = self._stored
        return keys.size if mask is None else _count_bits(mask)

    def degrees(self) -> np.ndarray:
        """Degree of each node, counted from the stored keys block by block
        (lower endpoints by row runs, upper endpoints one by one) and then
        scattered through the image; nothing is gathered, mapped or sorted."""
        keys, mask, image = self._stored
        n = self.n
        deg = np.zeros(n, dtype=np.int64)
        for block in _kept_blocks(keys, mask):
            if block.size:
                first, starts, counts = _row_runs(block, n)
                deg[first : first + counts.size] += counts
                np.add.at(deg, block - starts.repeat(counts), 1)
        if image is None:
            return deg
        scattered = np.empty_like(deg)
        scattered[image] = deg
        return scattered

    def neighbors(self, i: int) -> np.ndarray:
        """Sorted neighbor array of node i (a read-only view)."""
        if self._adjacency is None:
            keys = self.edge_keys()
            u, v = np.divmod(keys, self.n)
            # both orientations as src*n + dst, so one sort orders by (src, dst)
            both = np.concatenate([keys, v * self.n + u])
            both.sort()
            starts = np.searchsorted(both, np.arange(self.n + 1, dtype=np.int64) * self.n)
            targets = both % self.n
            targets.setflags(write=False)
            self._adjacency = (starts, targets)
        starts, targets = self._adjacency
        return targets[starts[i] : starts[i + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ParameterError(f"endpoints ({u}, {v}) out of range for n={self.n}")
        keys = self.edge_keys()
        key = min(u, v) * self.n + max(u, v)
        pos = np.searchsorted(keys, key)
        return bool(pos < keys.size and keys[pos] == key)

    def edges(self) -> np.ndarray:
        """All edges as an (m, 2) array with u < v, sorted lexicographically."""
        return np.column_stack(np.divmod(self.edge_keys(), self.n))

    def edge_keys(self) -> np.ndarray:
        """Sorted int64 keys u*n+v (u < v) of all edges, read-only."""
        keys, mask, image = self._stored
        if mask is None and image is None:
            return keys
        if mask is not None:
            keys = _gather(keys, mask)
        if image is not None:
            keys = _map_keys(keys, image, self.n)
        keys.setflags(write=False)
        self._stored = (keys, None, None)
        return keys

    def density(self) -> float:
        return self.num_edges / math.comb(self.n, 2) if self.n >= 2 else 0.0

    def relabeled(self, image: Permutation | np.ndarray) -> "Graph":
        """New graph with every edge (u, v) mapped to (image[u], image[v]).

        ``image`` is a Permutation of the n nodes, or an image list that
        makes one.  The new graph shares this graph's stored keys and mask;
        they are gathered, mapped and sorted when a query first reads them.
        """
        pi = image if isinstance(image, Permutation) else Permutation(image)
        if len(pi) != self.n:
            raise ParameterError(f"relabeling must be a bijection on the {self.n} nodes")
        keys, mask, first = self._stored
        return Graph(self.n, keys, mask, pi.as_array() if first is None else pi.as_array()[first])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.edge_keys(), other.edge_keys())

    def __hash__(self):
        return hash((self.n, self.edge_keys().tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges})"


def _map_keys(keys: np.ndarray, image: np.ndarray, n: int) -> np.ndarray:
    """Sorted keys of the edges ``keys`` mapped through ``image``, a
    bijection on the n nodes; a new array, without repeats, since the keys
    are unique."""
    mapped = np.empty_like(keys)
    for begin in range(0, keys.size, _BLOCK):
        block = keys[begin : begin + _BLOCK]
        first, starts, counts = _row_runs(block, n)
        v = image[block - starts.repeat(counts)]
        u = image[first : first + counts.size].repeat(counts)
        out = mapped[begin : begin + _BLOCK]
        np.minimum(u, v, out=out)
        np.maximum(u, v, out=u)
        out *= n
        out += u
    mapped.sort()
    return mapped


def _intersection(g_a: Graph, g_b: Graph, pi: Permutation) -> Graph:
    """The intersection graph in A's labels: the A edges {u, v} with
    {pi(u), pi(v)} in B, whose keys are read through B's image and then
    pi's inverse.  When A and B mask the same keys and neither read maps
    them (pi* on a generated instance), it is those keys under both masks,
    stored as they are; otherwise B's keys are mapped into A's labels and
    intersected with A's."""
    n = g_a.n
    if g_b.n != n:
        raise ParameterError(f"graphs disagree on node count: {n} vs {g_b.n}")
    # a pi of another length could map two B edges onto one key: that
    # repeat would read as a match
    if len(pi) != n:
        raise ParameterError(f"relabeling must be a bijection on the {n} nodes")
    # B's keys, mask and image are read as one tuple: g_a may be g_b, and
    # reading A's keys replaces that slot
    b_keys, b_mask, b_image = g_b._stored
    image = np.empty(n, dtype=np.int64)
    image[pi.as_array()] = np.arange(n)
    if b_image is not None:
        image = image[b_image]
    a_keys, a_mask, a_image = g_a._stored
    if a_keys is b_keys and a_image is None and np.array_equal(image, np.arange(n)):
        both = b_mask if a_mask is None else a_mask if b_mask is None else a_mask & b_mask
        return Graph(n, a_keys, both)
    return Graph(n, np.intersect1d(
        g_a.edge_keys(), Graph(n, b_keys, b_mask, image).edge_keys(), assume_unique=True
    ))


def _er_edge_slots(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Occupied slot indices of an ER(n, p) draw over the C(n,2) slot sequence.

    Slots enumerate the upper triangle row-major: (0,1),...,(0,n-1),(1,2),...
    Sampling skips between occupied slots with geometric gaps, so the cost is
    O(m) rather than O(n^2).  Batch sizes depend only on (n, p) and the drawn
    values, keeping the consumed stream deterministic.  C(n, 2) must stay
    below 2**53 (``MAX_NODES``), the bound ``_geometric_gaps`` needs.
    """
    total = n * (n - 1) // 2
    if p >= 1.0:
        return np.arange(total, dtype=np.int64)
    if p <= 0.0 or total == 0:
        return np.empty(0, dtype=np.int64)
    batch = max(_GEOM_BATCH_MIN, int(total * p * 1.2) + 64)
    chunks = []
    last = -1
    spare = None
    while last < total:
        positions = np.empty(batch, dtype=np.int64)
        for start in range(0, batch, _BLOCK):
            if last < total:
                # a gap past total ends the draw; clipping it keeps the cumsum in int64
                gaps = _geometric_gaps(rng, p, positions[start : start + _BLOCK], total + 1)
                gaps[0] += last
                np.cumsum(gaps, out=gaps)
                last = int(gaps[-1])
                written = start + gaps.size
            else:
                # the rest of the batch is drawn only to keep the stream, into
                # one spare block, so the buffer's tail is never written
                if spare is None:
                    spare = np.empty(min(_BLOCK, batch - start), dtype=np.int64)
                _geometric_gaps(rng, p, spare[: batch - start], total + 1)
        chunks.append(positions[:written])
    # the slots before the last batch all lie below total
    count = batch * (len(chunks) - 1) + int(chunks[-1].searchsorted(total))
    slots = positions if len(chunks) == 1 else np.concatenate(chunks)
    del chunks, positions, gaps  # no view of the buffer may outlive its resize
    if slots.nbytes < _TRIM_MIN_BYTES:
        return slots[:count]
    slots.resize(count, refcheck=False)
    return slots


def _geometric_gaps(rng: np.random.Generator, p: float, out: np.ndarray, cap: int) -> np.ndarray:
    """Fill ``out`` with ``np.minimum(rng.geometric(p, out.size), cap)``;
    returns ``out``.

    Below ``_GEOM_SEARCH_MIN_P`` numpy draws each variate as
    ``ceil(E / -log1p(-p))`` from one standard exponential E, saturating at
    2**63 - 1; the same quotient over an array of exponentials gives the same
    variates and leaves the generator in the same state.  At and above it
    numpy searches, and ``rng.geometric`` is called as is.  ``cap`` must lie
    below 2**53, so the clip in float is exact and precedes the int64 cast.
    """
    if p >= _GEOM_SEARCH_MIN_P:
        return np.minimum(rng.geometric(p, size=out.size), cap, out=out)
    e = rng.standard_exponential(out.size)
    with np.errstate(over="ignore"):  # a subnormal p overflows to inf, clipped below
        e /= -math.log1p(-p)
    np.ceil(e, out=e)
    return np.minimum(e, cap, out=out, casting="unsafe")


def _mask_step() -> int:
    """Elements per block of a pass over a packed mask: ``_BLOCK`` rounded
    up to whole mask bytes."""
    return -(-_BLOCK // 8) * 8


def _coins(rng: np.random.Generator, size: int, s: float) -> np.ndarray:
    """``np.packbits(rng.random(size) < s, bitorder="little")``, drawn block
    by block: eight coins to a byte, the unused bits of the last byte 0."""
    step = _mask_step()
    packed = np.empty(-(-size // 8), dtype=np.uint8)
    draws = np.empty(min(size, step))
    keep = np.empty(draws.size, dtype=bool)
    for start in range(0, size, step):
        u = draws[: size - start]
        rng.random(out=u)
        chunk = keep[: u.size]
        np.less(u, s, out=chunk)
        packed[start // 8 : (start + step) // 8] = np.packbits(chunk, bitorder="little")
    return packed


def _count_bits(mask: np.ndarray) -> int:
    """Number of set bits of the packed ``mask``, counted block by block."""
    step = _mask_step() // 8
    return sum(
        int(np.count_nonzero(np.unpackbits(mask[start : start + step])))
        for start in range(0, mask.size, step)
    )


def _kept_blocks(keys: np.ndarray, mask: np.ndarray | None) -> Iterator[np.ndarray]:
    """The ``keys`` that the packed ``mask`` keeps (None keeps all), one
    block of ``_mask_step()`` keys at a time."""
    step = _mask_step()
    for start in range(0, keys.size, step):
        block = keys[start : start + step]
        if mask is not None:
            bits = mask[start // 8 : (start + step) // 8]
            kept = np.unpackbits(bits, count=block.size, bitorder="little").view(bool)
            block = block.take(kept.nonzero()[0])  # faster than block[kept]
        yield block


def _gather(keys: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The ``keys`` that the packed ``mask`` keeps, in a new array of their
    exact size."""
    out = np.empty(_count_bits(mask), dtype=keys.dtype)
    end = 0
    for block in _kept_blocks(keys, mask):
        out[end : end + block.size] = block
        end += block.size
    return out


def _row_runs(block: np.ndarray, n: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Row runs of a non-empty block of sorted keys: its first row, the key
    ``i*n`` at which each of its rows i starts, and its key count per row."""
    first, end = int(block[0]) // n, int(block[-1]) // n + 1
    row_keys = np.arange(first * n, (end + 1) * n, n, dtype=np.int64)
    return first, row_keys[:-1], _run_lengths(block, row_keys)


def _run_lengths(values: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    """How many of the sorted ``values`` lie in each [boundaries[i], boundaries[i+1])."""
    ends = values.searchsorted(boundaries)
    return ends[1:] - ends[:-1]


def _slots_to_keys(slots: np.ndarray, n: int) -> np.ndarray:
    """Map sorted unique row-major upper-triangle slot indices to edge keys
    i*n + j, i < j, in place; returns ``slots``.

    Row i starts at slot i*n - i(i+1)/2, so slot t of row i has key
    t + (i+1)(i+2)/2: sorted unique slots give sorted unique keys.  Every
    slot must lie below the slot count C(n, 2), the start of row n.
    """
    rows = np.arange(n + 1, dtype=np.int64)
    tri = rows.cumsum()
    starts = rows * n - tri
    for begin in range(0, slots.size, _BLOCK):
        block = slots[begin : begin + _BLOCK]
        first = int(starts.searchsorted(block[0], side="right")) - 1
        end = int(starts.searchsorted(block[-1], side="right"))
        block += tri[first + 1 : end + 1].repeat(_run_lengths(block, starts[first : end + 1]))
    return slots


@dataclass(frozen=True)
class CorrelatedInstance:
    """One draw of the model: graphs A and B plus the hidden permutation."""

    g_a: Graph
    g_b: Graph
    pi_star: Permutation
    params: ModelParams
    seed: int

    def __post_init__(self) -> None:
        if not (self.g_a.n == self.g_b.n == self.params.n == len(self.pi_star)):
            raise ParameterError("instance components disagree on the node count")


def check_parent_budget(params: ModelParams) -> None:
    """Raise CapacityError if the node count or the expected parent edge
    count exceeds its budget."""
    if params.n > MAX_NODES:
        raise CapacityError(f"n = {params.n} exceeds the node limit {MAX_NODES}")
    expected = math.comb(params.n, 2) * params.parent_p
    if expected > MAX_PARENT_EDGES:
        raise CapacityError(
            f"expected parent edge count {expected:.3g} exceeds the budget {MAX_PARENT_EDGES}"
        )


def generate(params: ModelParams, seed: int) -> CorrelatedInstance:
    """Draw a correlated instance; a pure function of (params, seed).

    Requires q > 0 (an empty-graph simulation is useless; the boundary cases
    are still accepted by the distribution helpers).
    """
    if params.q <= 0.0:
        raise ParameterError("generate requires q > 0")
    check_parent_budget(params)
    n = params.n
    rng = make_rng(seed)
    keys = _slots_to_keys(_er_edge_slots(n, params.parent_p, rng), n)
    g_a = Graph(n, keys, _coins(rng, keys.size, params.s))
    b_prime = Graph(n, keys, _coins(rng, keys.size, params.s))
    pi_star = Permutation(rng.permutation(n))
    g_b = b_prime.relabeled(pi_star)
    return CorrelatedInstance(g_a=g_a, g_b=g_b, pi_star=pi_star, params=params, seed=seed)
