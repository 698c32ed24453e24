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

Every graph is stored as a CSR of its upper triangle: ``starts``, int64 of
length n + 1, and ``cols``, the upper endpoint of each edge, sorted within
each row (see ``Graph``).  ``cols`` has the smallest unsigned type that
holds n - 1: uint8 up to 256 nodes, uint16 up to 65 536 and uint32 above.
Arithmetic on it with a Python int stays in that type and wraps, so every
key or product with n is computed in int64.  The parent is drawn straight
into that form: each block of gaps is summed into slots in one reused
block buffer, and while the block is in cache its upper endpoints go to a
column buffer one batch long and its count per row to the row counts,
whose cumsum is ``starts``.  The gaps a batch draws past C(n, 2) fill the
same block buffer, so the column buffer's tail is never written.  A and B'
are that CSR under two masks of retention coins, packed eight to a byte,
and B is B' relabeled through the permutation; a graph gathers, or maps
and sorts, its edges only when a query reads them.  A draw thus holds
about 2.3 bytes per parent edge up to 65 536 nodes and 4.3 above: the
parent's columns and the two packed masks.  Under pi* the intersection
graph is the parent under the AND of both masks, and the goodness test
counts its degrees from that stored form.

The O(m) passes of a draw work through their arrays in blocks of
``_BLOCK`` elements, rounded up to whole mask bytes where a pass reads a
mask, so their temporaries stay in cache.  Below p = 1/3 numpy draws a
geometric variate as ``ceil(E / -log1p(-p))`` of one standard exponential
E, so a block of gaps is a block of exponentials divided, rounded up and
clipped; at and above it ``rng.geometric`` is called on the block.  The
coins are a block of uniforms compared with s and packed.  Blocks read the
stream in the same order as whole-array draws, so the variates are the same.

The slot map, ``_map_keys``, ``_gather`` and ``degrees`` decode each block
of sorted entries by row runs: the rows the block meets give its row
boundaries, one ``searchsorted`` over them gives the (kept) entries in each
row, and ``repeat`` of a per-row value over those counts gives the row's
share of every entry.  The slot map adds a per-row shift to each slot to
get its upper endpoint.  ``degrees`` adds the row counts and then each kept
upper endpoint with ``np.add.at`` (fast from numpy 1.25 on, the floor in
``pyproject.toml``).  ``edges`` repeats each row over its entry count, and
edge keys ``u*n + v`` are int64, computed on each call.
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

# Refuse more nodes than this: generate also holds O(n) arrays, C(n, 2)
# must stay below 2**53 for the float clip of the geometric gaps, and every
# upper endpoint must fit in uint32, the widest column type of a graph's CSR.
MAX_NODES = 10**8

_GEOM_BATCH_MIN = 1024

# A batch of gaps is this many times the expected parent edge count, plus 64.
_GEOM_OVERSAMPLE = 1.2

# numpy's Generator.geometric inverts an exponential below this p and searches
# at and above it.
_GEOM_SEARCH_MIN_P = 0.3333333333333333

# Elements per block of the O(m) passes over slots, coins and keys, so that
# each pass's temporaries stay in cache.
_BLOCK = 1 << 15

# The parent's column buffer is shrunk in place to its used part from this
# size on.  glibc's malloc maps a buffer this large (its largest mmap
# threshold on 64-bit) afresh on every allocation, so releasing the tail
# costs nothing.
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

    Stored as a CSR of its upper triangle, a mask and an image array: row u
    holds the upper endpoints v > u of u's edges in ``cols[starts[u] :
    starts[u + 1]]``, sorted, with ``starts`` int64 of length n + 1 and
    ``cols`` the smallest unsigned type that holds n - 1; the constructor
    converts arrays of other dtypes.  The graph's edges are the entries the
    mask keeps, mapped through the image (a mask or image of None keeps or
    maps nothing).  The mask is packed eight entries to a byte
    (``np.packbits(keep, bitorder="little")``), so a generated A and B,
    which share the parent's CSR, hold about 2.3 bytes per parent edge
    together up to 65 536 nodes and 4.3 above.  ``relabeled`` stores its
    source's CSR and mask with the composed image; ``num_edges`` counts the
    mask's bits and ``degrees`` counts from the stored form; the first query
    that reads the edges gathers them, or maps and sorts them, and stores
    their CSR alone.  Edge keys ``u*n + v`` are int64, computed from it on
    each call.  Per-node neighbor arrays are built on the first call to
    ``neighbors``.  The CSR, mask and image share one slot, replaced in a
    single assignment, so the graph never changes as seen from outside and
    is safe to share across threads and processes.
    """

    __slots__ = ("n", "_stored", "_adjacency")

    def __init__(
        self, n: int, starts: np.ndarray, cols: np.ndarray,
        mask: np.ndarray | None = None, image: np.ndarray | None = None,
    ):
        self.n = int(n)
        # one dtype each per n, so that equal graphs hash alike; the same
        # arrays when they already have it
        starts = starts.astype(np.int64, copy=False)
        cols = cols.astype(_col_dtype(self.n), copy=False)
        starts.setflags(write=False)
        cols.setflags(write=False)
        self._stored = (starts, cols, mask, image)
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
        return cls(n, *_keys_to_csr(keys, n))

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
        _, cols, mask, _ = self._stored
        return cols.size if mask is None else _count_bits(mask)

    def degrees(self) -> np.ndarray:
        """Degree of each node, counted from the stored form block by block
        (lower endpoints by the kept entries per row, upper endpoints one by
        one) and then scattered through the image; nothing is gathered,
        mapped or sorted."""
        starts, cols, mask, image = self._stored
        deg = np.zeros(self.n, dtype=np.int64)
        for first, counts, kept in _kept_blocks(starts, cols, mask):
            deg[first : first + counts.size] += counts
            np.add.at(deg, kept, 1)
        if image is None:
            return deg
        scattered = np.empty_like(deg)
        scattered[image] = deg
        return scattered

    def neighbors(self, i: int) -> np.ndarray:
        """Sorted neighbor array of node i (a read-only view)."""
        if self._adjacency is None:
            starts, cols = self._csr()
            rows, cols = _rows(starts), cols.astype(np.int64)
            # both orientations as src*n + dst, so one sort orders by (src, dst)
            both = np.concatenate([rows * self.n + cols, cols * self.n + rows])
            both.sort()
            bounds = np.searchsorted(both, np.arange(self.n + 1, dtype=np.int64) * self.n)
            targets = both % self.n
            targets.setflags(write=False)
            self._adjacency = (bounds, targets)
        starts, targets = self._adjacency
        return targets[starts[i] : starts[i + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ParameterError(f"endpoints ({u}, {v}) out of range for n={self.n}")
        starts, cols = self._csr()
        u, v = min(u, v), max(u, v)
        row = cols[starts[u] : starts[u + 1]]
        pos = int(row.searchsorted(v))
        return pos < row.size and int(row[pos]) == v

    def edges(self) -> np.ndarray:
        """All edges as an int64 (m, 2) array with u < v, sorted lexicographically."""
        starts, cols = self._csr()
        return np.column_stack([_rows(starts), cols.astype(np.int64)])

    def edge_keys(self) -> np.ndarray:
        """Sorted int64 keys u*n+v (u < v) of all edges, a new array on each call."""
        starts, cols = self._csr()
        keys = _rows(starts)
        keys *= self.n
        keys += cols
        return keys

    def _csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The CSR of the graph's own edges: the stored one, read through
        the mask and the image and stored alone on the first call."""
        starts, cols, mask, image = self._stored
        if mask is None and image is None:
            return starts, cols
        if image is None:
            starts, cols = _gather(starts, cols, mask)
        else:
            starts, cols = _keys_to_csr(_map_keys(starts, cols, mask, image), self.n)
        starts.setflags(write=False)
        cols.setflags(write=False)
        self._stored = (starts, cols, None, None)
        return starts, cols

    def density(self) -> float:
        return self.num_edges / math.comb(self.n, 2) if self.n >= 2 else 0.0

    def relabeled(self, image: Permutation | np.ndarray) -> "Graph":
        """New graph with every edge (u, v) mapped to (image[u], image[v]).

        ``image`` is a Permutation of the n nodes, or an image list that
        makes one.  The new graph shares this graph's stored CSR and mask;
        they are read through the mask, mapped and sorted when a query first
        reads them.
        """
        pi = image if isinstance(image, Permutation) else Permutation(image)
        if len(pi) != self.n:
            raise ParameterError(f"relabeling must be a bijection on the {self.n} nodes")
        starts, cols, mask, first = self._stored
        return Graph(
            self.n, starts, cols, mask, pi.as_array() if first is None else pi.as_array()[first]
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if self.n != other.n:
            return False
        (starts, cols), (other_starts, other_cols) = self._csr(), other._csr()
        return np.array_equal(starts, other_starts) and np.array_equal(cols, other_cols)

    def __hash__(self):
        starts, cols = self._csr()
        return hash((self.n, starts.tobytes(), cols.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges})"


def _col_dtype(n: int) -> np.dtype:
    """The dtype of a CSR's columns on n nodes: the smallest unsigned type
    that holds n - 1."""
    return np.min_scalar_type(n - 1)


def _rows(starts: np.ndarray) -> np.ndarray:
    """The row (lower endpoint) of each entry of a CSR, int64."""
    return np.arange(starts.size - 1, dtype=np.int64).repeat(starts[1:] - starts[:-1])


def _keys_to_csr(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The CSR of the sorted unique edge keys ``keys``."""
    starts = keys.searchsorted(np.arange(n + 1, dtype=np.int64) * n)
    cols = np.empty(keys.size, dtype=_col_dtype(n))
    for begin in range(0, keys.size, _BLOCK):
        cols[begin : begin + _BLOCK] = keys[begin : begin + _BLOCK] % n
    return starts, cols


def _map_keys(
    starts: np.ndarray, cols: np.ndarray, mask: np.ndarray | None, image: np.ndarray
) -> np.ndarray:
    """Sorted int64 keys of the CSR entries that the packed ``mask`` keeps
    (None keeps all), mapped through ``image``, a bijection on the n nodes;
    without repeats, since the edges are unique."""
    n = starts.size - 1
    mapped = np.empty(cols.size if mask is None else _count_bits(mask), dtype=np.int64)
    end = 0
    for first, counts, block in _kept_blocks(starts, cols, mask):
        v = image[block]
        u = image[first : first + counts.size].repeat(counts)
        out = mapped[end : end + block.size]
        np.minimum(u, v, out=out)
        np.maximum(u, v, out=u)
        out *= n
        out += u
        end += block.size
    mapped.sort()
    return mapped


def _common_keys(a_keys: np.ndarray, b_keys: np.ndarray) -> np.ndarray:
    """The keys in both sorted unique arrays, sorted: each block of
    ``b_keys`` searched in ``a_keys``."""
    parts = [b_keys[:0]]
    if a_keys.size:
        for begin in range(0, b_keys.size, _BLOCK):
            block = b_keys[begin : begin + _BLOCK]
            pos = a_keys.searchsorted(block)
            np.minimum(pos, a_keys.size - 1, out=pos)
            parts.append(block[a_keys[pos] == block])
    return np.concatenate(parts)


def _intersection(g_a: Graph, g_b: Graph, pi: Permutation) -> Graph:
    """The intersection graph in A's labels: the A edges {u, v} with
    {pi(u), pi(v)} in B, whose edges are read through B's image and then
    pi's inverse.  When A and B mask the same CSR and neither read maps it
    (pi* on a generated instance), it is that CSR under both masks, stored
    as it is; otherwise B's keys are mapped into A's labels and searched in
    A's."""
    n = g_a.n
    if g_b.n != n:
        raise ParameterError(f"graphs disagree on node count: {n} vs {g_b.n}")
    # a pi of another length could map two B edges onto one key: that
    # repeat would read as a match
    if len(pi) != n:
        raise ParameterError(f"relabeling must be a bijection on the {n} nodes")
    # B's CSR, mask and image are read as one tuple: g_a may be g_b, and
    # reading A's edges replaces that slot
    b_starts, b_cols, b_mask, b_image = g_b._stored
    image = np.empty(n, dtype=np.int64)
    image[pi.as_array()] = np.arange(n)
    if b_image is not None:
        image = image[b_image]
    a_starts, a_cols, a_mask, a_image = g_a._stored
    if a_cols is b_cols and a_image is None and np.array_equal(image, np.arange(n)):
        both = b_mask if a_mask is None else a_mask if b_mask is None else a_mask & b_mask
        return Graph(n, a_starts, a_cols, both)
    common = _common_keys(g_a.edge_keys(), _map_keys(b_starts, b_cols, b_mask, image))
    return Graph(n, *_keys_to_csr(common, n))


def _row_first_slots(n: int) -> np.ndarray:
    """The first slot of each row in the row-major upper-triangle slot
    order on n nodes, n + 1 of them (rows n - 1 and n start at C(n, 2)).

    Row i starts at slot i*n - i(i+1)/2, and its first slot has upper
    endpoint i + 1.
    """
    first_slots = np.arange(n + 1, dtype=np.int64)
    tri = first_slots.cumsum()
    first_slots *= n
    first_slots -= tri
    return first_slots


def _place_slots(
    slots: np.ndarray, first_slots: np.ndarray, counts: np.ndarray, out: np.ndarray
) -> None:
    """Write the upper endpoints of a non-empty block of sorted unique
    slots, all below C(n, 2), to the front of ``out`` and add their count
    per row i to ``counts[i + 1]``; maps ``slots`` in place.
    ``first_slots`` is ``_row_first_slots(n)``."""
    first = int(first_slots.searchsorted(slots[0], side="right")) - 1
    end = int(first_slots.searchsorted(slots[-1], side="right"))
    run = _run_lengths(slots, first_slots[first : end + 1])
    counts[first + 1 : end + 1] += run
    # slot t of row i has upper endpoint t + (i + 1) - first_slots[i]
    shift = np.arange(first + 1, end + 1, dtype=np.int64)
    shift -= first_slots[first:end]
    slots += shift.repeat(run)
    out[: slots.size] = slots


def _slots_to_csr(slots: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The CSR of the edges at sorted unique row-major slots, all below
    C(n, 2), placed block by block; maps ``slots`` in place."""
    first_slots = _row_first_slots(n)
    counts = np.zeros(n + 1, dtype=np.int64)
    cols = np.empty(slots.size, dtype=_col_dtype(n))
    for begin in range(0, slots.size, _BLOCK):
        _place_slots(slots[begin : begin + _BLOCK], first_slots, counts, cols[begin:])
    return counts.cumsum(out=counts), cols


def _er_parent(n: int, p: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The CSR ``(starts, cols)`` of an ER(n, p) draw over the C(n,2) slot sequence.

    Slots enumerate the upper triangle row-major: (0,1),...,(0,n-1),(1,2),...
    Sampling skips between occupied slots with geometric gaps, so the cost is
    O(m) rather than O(n^2).  Batch sizes depend only on (n, p) and the drawn
    values, keeping the consumed stream deterministic.  Each block of gaps
    is summed into slots in one reused block buffer, and its upper endpoints
    go straight to the batch's column buffer.  C(n, 2) must stay
    below 2**53 (``MAX_NODES``), the bound ``_geometric_gaps`` needs.
    """
    total = n * (n - 1) // 2
    if p >= 1.0:
        return _slots_to_csr(np.arange(total, dtype=np.int64), n)
    counts = np.zeros(n + 1, dtype=np.int64)
    dtype = _col_dtype(n)
    if p <= 0.0 or total == 0:
        return counts, np.empty(0, dtype=dtype)
    first_slots = _row_first_slots(n)
    batch = max(_GEOM_BATCH_MIN, int(total * p * _GEOM_OVERSAMPLE) + 64)
    # half-size gap blocks: at _BLOCK a draw at n = 2000, nqs >= 8 faulted in
    # some 75 fresh heap pages (ru_minflt), which glibc's malloc had trimmed
    step = max(1, _BLOCK // 2)
    gaps = np.empty(min(step, batch), dtype=np.int64)
    chunks = []
    last = -1
    while last < total:
        cols = np.empty(batch, dtype=dtype)
        written = 0
        for start in range(0, batch, step):
            # a gap past total ends the draw; clipping it keeps the cumsum in
            # int64.  The rest of the batch is drawn only to keep the stream.
            block = _geometric_gaps(rng, p, gaps[: batch - start], total + 1)
            if last >= total:
                continue
            block[0] += last
            block.cumsum(out=block)
            last = int(block[-1])
            if last >= total:
                block = block[: block.searchsorted(total)]
            if block.size:
                _place_slots(block, first_slots, counts, cols[written:])
                written += block.size
        chunks.append(cols[:written])
    counts.cumsum(out=counts)
    if len(chunks) > 1:
        return counts, np.concatenate(chunks)
    del chunks  # no view of the buffer may outlive its resize
    if cols.nbytes < _TRIM_MIN_BYTES:
        return counts, cols[:written]
    cols.resize(written, refcheck=False)
    return counts, cols


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


def _kept_blocks(
    starts: np.ndarray, cols: np.ndarray, mask: np.ndarray | None
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """The CSR entries that the packed ``mask`` keeps (None keeps all), one
    block of ``_mask_step()`` entries at a time: the first row the block
    meets, the count of its kept entries in each row from there, and their
    columns."""
    step = _mask_step()
    for begin in range(0, cols.size, step):
        block = cols[begin : begin + step]
        first = int(starts.searchsorted(begin, side="right")) - 1
        end = int(starts.searchsorted(begin + block.size))
        # the block's positions at which its rows first..end-1 start
        bounds = starts[first : end + 1] - begin
        bounds[0], bounds[-1] = 0, block.size
        if mask is None:
            yield first, bounds[1:] - bounds[:-1], block
            continue
        bits = mask[begin // 8 : (begin + step) // 8]
        kept = np.unpackbits(bits, count=block.size, bitorder="little").view(bool).nonzero()[0]
        yield first, _run_lengths(kept, bounds), block.take(kept)  # faster than block[kept]


def _gather(
    starts: np.ndarray, cols: np.ndarray, mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The CSR of the entries that the packed ``mask`` keeps, in new arrays
    of their exact size."""
    kept_starts = np.zeros(starts.size, dtype=np.int64)
    out = np.empty(_count_bits(mask), dtype=cols.dtype)
    end = 0
    for first, counts, block in _kept_blocks(starts, cols, mask):
        kept_starts[first + 1 : first + 1 + counts.size] += counts
        out[end : end + block.size] = block
        end += block.size
    return kept_starts.cumsum(out=kept_starts), out


def _run_lengths(values: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    """How many of the sorted ``values`` lie in each [boundaries[i], boundaries[i+1])."""
    ends = values.searchsorted(boundaries)
    return ends[1:] - ends[:-1]


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
    starts, cols = _er_parent(n, params.parent_p, rng)
    g_a = Graph(n, starts, cols, _coins(rng, cols.size, params.s))
    b_prime = Graph(n, starts, cols, _coins(rng, cols.size, params.s))
    pi_star = Permutation(rng.permutation(n))
    g_b = b_prime.relabeled(pi_star)
    return CorrelatedInstance(g_a=g_a, g_b=g_b, pi_star=pi_star, params=params, seed=seed)
