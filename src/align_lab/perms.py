"""Permutation arithmetic: overlap, rencontres counting, and the ordered-pair
cycle decomposition used by the union-bound analysis.

Composition is the standard right-to-left convention:
``compose(f, g)(i) == f(g(i))``.  The relative permutation of a candidate
``pi`` against a reference ``pi_star`` is ``p = pi o pi_star^{-1}``; its
fixed-point fraction equals the overlap of the two permutations.

The decomposition splits the ordered pairs S = {(i, j) : i != j} into

- S1:   pairs whose first coordinate is fixed by p,
- S2^1: pairs that p maps to their own mirror, (p(i), p(j)) == (j, i),
- S2^2: everything else, partitioned into orbits ("cycles") of the map
        (i, j) -> (p(i), p(j)).

Each orbit is classified: G1 if it contains the mirror of its members, G3 if
all second coordinates agree (the second coordinate is a fixed point of p),
G2 otherwise (mirrored pairs then sit in a twin orbit of the same size).

All of it follows from the cycle type of p.  Take i on a cycle x of length
a >= 2 and j on a cycle y of length b, both listed in walk order.  These
pairs (i, j) fall into gcd(a, b) orbits of size lcm(a, b), one for each
offset d < gcd(a, b): (x[t mod a], y[(t+d) mod b]) for t < lcm(a, b).  The
orbit is G3 when b = 1.  When y is x, d = 0 is the diagonal and is skipped,
d = a/2 is the only self-mirrored orbit (S2^1 when a = 2, G1 otherwise), and
the others are G2.  Pairs whose first coordinate is fixed are S1.

So the census and the sizes of S1, S2^1 and S2^2 need only the number c_a of
cycles of each length a, and ``decompose`` costs O(n + L^2) for L distinct
cycle lengths; the pair sets themselves are built on first access.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import CapacityError, ParameterError

# Above this node count the exact big-integer counts are skipped and only the
# log-domain values are produced (the Fano bound needs only log ratios).
EXACT_COUNT_LIMIT = 170
# Log-domain m_alpha drops the terms past the first one this far below the peak.
_LOG_TAIL_CUT = 80.0

# The pair sets of a decomposition (s1, s21, cycles) hold all n*(n-1) ordered
# pairs between them, about 73 bytes each (peak RSS growth at n = 3000 on
# CPython 3.11, 64-bit), so the largest one allowed (n = 4472) needs about
# 1.5 GB.  The census needs none of them and has no limit.
_DECOMPOSE_PAIR_LIMIT = 20_000_000


class Permutation:
    """A bijection on {0, ..., n-1}, stored as the image array."""

    __slots__ = ("_image",)

    def __init__(self, image: Iterable[int] | np.ndarray):
        arr = np.asarray(list(image) if not isinstance(image, np.ndarray) else image, dtype=np.int64)
        if arr.ndim != 1 or arr.size == 0:
            raise ParameterError("a permutation needs a non-empty 1-d image list")
        # one mark per image, after the range check: n bytes, no sort
        marks = np.zeros(arr.size, dtype=bool)
        if arr.min() >= 0 and arr.max() < arr.size:
            marks[arr] = True
        if not marks.all():
            raise ParameterError("image list is not a bijection on {0,...,n-1}")
        arr = arr.copy()
        arr.setflags(write=False)
        self._image = arr

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(np.arange(n))

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "Permutation":
        return cls(rng.permutation(n))

    @property
    def image(self) -> tuple[int, ...]:
        return tuple(int(x) for x in self._image)

    def as_array(self) -> np.ndarray:
        """Read-only int64 image array."""
        return self._image

    def __len__(self) -> int:
        return self._image.size

    def __call__(self, i: int) -> int:
        return int(self._image[i])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return np.array_equal(self._image, other._image)

    def __hash__(self) -> int:
        return hash(self._image.tobytes())

    def __repr__(self) -> str:
        return f"Permutation({list(self._image)})"

    def inverse(self) -> "Permutation":
        inv = np.empty_like(self._image)
        inv[self._image] = np.arange(self._image.size)
        return Permutation(inv)

    def compose(self, other: "Permutation") -> "Permutation":
        """self o other: apply ``other`` first."""
        if len(self) != len(other):
            raise ParameterError("cannot compose permutations of different sizes")
        return Permutation(self._image[other._image])

    def fixed_point_count(self) -> int:
        return int(np.count_nonzero(self._image == np.arange(self._image.size)))


def overlap(pi: Permutation, pi_star: Permutation) -> float:
    """Fraction of indices where the two permutations agree.

    Equals the fixed-point fraction of pi o pi_star^{-1}.
    """
    if len(pi) != len(pi_star):
        raise ParameterError("overlap needs permutations of equal length")
    return float(np.count_nonzero(pi.as_array() == pi_star.as_array())) / len(pi)


# -- rencontres counting ------------------------------------------------------

_derangements: list[int] = [1, 0]


def derangements(m: int) -> int:
    """Number of permutations of m elements with no fixed point (exact)."""
    if m < 0:
        raise ParameterError("derangements needs m >= 0")
    while len(_derangements) <= m:
        k = len(_derangements)
        _derangements.append((k - 1) * (_derangements[k - 1] + _derangements[k - 2]))
    return _derangements[m]


def rencontres(n: int, k: int) -> int:
    """Number of permutations of n elements with exactly k fixed points (exact)."""
    if not 0 <= k <= n:
        raise ParameterError(f"need 0 <= k <= n, got k={k}, n={n}")
    return math.comb(n, k) * derangements(n - k)


def log_rencontres(n: int, k: int) -> float:
    """log of the rencontres number, valid far beyond the exact-count range.

    Fixed-point-free counts are taken exactly up to 20 misplaced elements;
    beyond that D_m = m!/e holds to within 1/(m+1)!, far below float
    precision.
    """
    if not 0 <= k <= n:
        raise ParameterError(f"need 0 <= k <= n, got k={k}, n={n}")
    m = n - k
    log_comb = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(m + 1)
    if m <= 20:
        d = derangements(m)
        return log_comb + math.log(d) if d else -math.inf
    return log_comb + math.lgamma(m + 1) - 1.0


def ceil_snap(x: float, tol: float = 1e-9) -> int:
    """ceil(x) with values within tol of an integer snapped to that integer.

    Products like n*alpha are carried in floats; without the snap, a value
    that is mathematically integral can round up one step too far.
    """
    r = round(x)
    if abs(x - r) <= tol * max(1.0, abs(x)):
        return int(r)
    return math.ceil(x)


@dataclass(frozen=True)
class MAlphaResult:
    """Count of permutations at overlap >= alpha, with its log companions.

    ``exact`` is the big-integer count when n <= EXACT_COUNT_LIMIT, else None
    (``is_exact`` records which mode produced the log values).  ``log_ratio``
    is log(n! / m_alpha).
    """

    n: int
    alpha: float
    k_min: int
    exact: int | None
    log_m_alpha: float
    log_ratio: float
    is_exact: bool


def m_alpha(n: int, alpha: float) -> MAlphaResult:
    """Count permutations of n elements with at least ceil(n*alpha) fixed points.

    Above ``EXACT_COUNT_LIMIT`` the log-sum over k >= k_min stops after the
    first nonzero term that lies e^-80 below the peak.  For 1 <= k <= n - 2
    and m = n - k, D_m >= (m - 1) D_{m-1} gives R(n, k+1) <= R(n, k) *
    m / ((k + 1)(m - 1)), which is below R(n, k) / 1.9 when n > 170; and
    R(n, n) = 1 <= R(n, n - 2).  So the dropped terms sum to less than
    3 e^-80 (about 5e-35) of the peak, far below the rounding of a double.
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if not 0.0 < alpha <= 1.0:
        raise ParameterError(f"alpha must be in (0, 1], got {alpha}")
    k_min = max(ceil_snap(n * alpha), 1)  # alpha > 0 forces at least one fixed point
    if k_min > n:
        raise ParameterError(f"ceil(n*alpha)={k_min} exceeds n={n}")
    if n <= EXACT_COUNT_LIMIT:
        exact = sum(rencontres(n, k) for k in range(k_min, n + 1))
        log_m = math.log(exact)
        log_ratio = math.lgamma(n + 1) - log_m if exact else math.inf
        return MAlphaResult(n, alpha, k_min, exact, log_m, log_ratio, True)
    logs: list[float] = []
    peak = -math.inf
    for k in range(k_min, n + 1):
        x = log_rencontres(n, k)
        logs.append(x)
        peak = max(peak, x)
        if -math.inf < x < peak - _LOG_TAIL_CUT:
            break
    log_m = peak + math.log(math.fsum(math.exp(x - peak) for x in logs))
    return MAlphaResult(n, alpha, k_min, None, log_m, math.lgamma(n + 1) - log_m, False)


# -- ordered-pair cycle decomposition -----------------------------------------

GROUP_MIRROR_IN_CYCLE = "G1"
GROUP_MIRROR_IN_TWIN = "G2"
GROUP_FIXED_SECOND = "G3"
# census slot order: (l_k, m_k, n_k)
_GROUPS = (GROUP_MIRROR_IN_CYCLE, GROUP_MIRROR_IN_TWIN, GROUP_FIXED_SECOND)


@dataclass(frozen=True)
class PairCycle:
    group: str
    pairs: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class CycleDecomposition:
    """S1 / S2^1 / S2^2 split of the ordered pairs, with the orbit census.

    ``census`` maps each orbit size k to the triple (l_k, m_k, n_k): the
    number of size-k orbits of groups G1, G2 and G3 respectively.  It and the
    part sizes come from ``p_cycles``, the cycles of p in walk order.  The
    pair sets ``s1``, ``s21`` and ``cycles`` are built on first access and
    raise ``CapacityError`` when n(n-1) exceeds the pair limit.
    """

    n: int
    eps: float
    census: dict[int, tuple[int, int, int]]
    p_cycles: tuple[tuple[int, ...], ...]

    @property
    def s1_size(self) -> int:
        return sum(len(x) == 1 for x in self.p_cycles) * (self.n - 1)

    @property
    def s21_size(self) -> int:
        return 2 * sum(len(x) == 2 for x in self.p_cycles)

    @property
    def s22_size(self) -> int:
        return self.n * (self.n - 1) - self.s1_size - self.s21_size

    def _check_pair_limit(self) -> None:
        if self.n * (self.n - 1) > _DECOMPOSE_PAIR_LIMIT:
            raise CapacityError(f"the pair sets hold n*(n-1) pairs; n={self.n} is too large")

    @cached_property
    def s1(self) -> tuple[tuple[int, int], ...]:
        self._check_pair_limit()
        fixed = [x[0] for x in self.p_cycles if len(x) == 1]
        return tuple((i, j) for i in fixed for j in range(self.n) if j != i)

    @cached_property
    def s21(self) -> tuple[tuple[int, int], ...]:
        self._check_pair_limit()
        return tuple(pair for x in self.p_cycles if len(x) == 2 for pair in (x, x[::-1]))

    @cached_property
    def cycles(self) -> tuple[PairCycle, ...]:
        """The S2^2 orbits, each with its pairs in p-order (module docstring)."""
        self._check_pair_limit()
        orbits: list[PairCycle] = []
        for x in self.p_cycles:
            a = len(x)
            if a == 1:
                continue
            for y in self.p_cycles:
                b = len(y)
                if y is x and a == 2:
                    continue  # the 2-cycle's own pairs are S2^1
                size = math.lcm(a, b)
                for d in range(1 if y is x else 0, math.gcd(a, b)):
                    pairs = tuple(zip(x * (size // a), (y[d:] + y[:d]) * (size // b)))
                    slot = 2 if b == 1 else 0 if y is x and 2 * d == a else 1
                    orbits.append(PairCycle(_GROUPS[slot], pairs))
        return tuple(orbits)


def _cycles(p: list[int]) -> list[tuple[int, ...]]:
    """The cycles of p, each listed in walk order i, p(i), p(p(i)), ..."""
    seen = bytearray(len(p))
    cycles = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cycle = []
        i = start
        while not seen[i]:
            seen[i] = 1
            cycle.append(i)
            i = p[i]
        cycles.append(tuple(cycle))
    return cycles


def decompose(pi: Permutation, pi_star: Permutation) -> CycleDecomposition:
    """Decompose the ordered pairs under p = pi o pi_star^{-1}.

    The census is the closed form of the module docstring over the cycle
    lengths of p: c_a c_b ordered pairs of distinct cycles of lengths a >= 2
    and b (c_a (c_a - 1) when a = b) give gcd(a, b) orbits of size lcm(a, b)
    each, and every cycle of length a > 2 adds its own a - 1 offsets.  The
    cost is one walk over p plus O(L^2) for L distinct lengths, at any n;
    the pair sets are built only when read, under the pair limit.
    """
    if len(pi) != len(pi_star):
        raise ParameterError("decompose needs permutations of equal length")
    n = len(pi)
    cycles = _cycles(pi.compose(pi_star.inverse()).as_array().tolist())
    counts = Counter(len(x) for x in cycles)

    census: dict[int, list[int]] = {}
    for a, c_a in counts.items():
        if a == 1:
            continue
        for b, c_b in counts.items():
            pairs = c_a * c_b - (c_a if b == a else 0)
            if pairs:
                slot = 2 if b == 1 else 1
                census.setdefault(math.lcm(a, b), [0, 0, 0])[slot] += pairs * math.gcd(a, b)
        if a > 2:
            mirror = int(a % 2 == 0)
            triple = census.setdefault(a, [0, 0, 0])
            triple[0] += c_a * mirror
            triple[1] += c_a * (a - 1 - mirror)

    return CycleDecomposition(
        n=n,
        eps=counts[1] / n,
        census={k: tuple(v) for k, v in sorted(census.items())},
        p_cycles=tuple(cycles),
    )


def census_rows(dec: CycleDecomposition) -> list[dict[str, int | str]]:
    """Flatten the census to [{group, k, count}] rows for serialization."""
    rows: list[dict[str, int | str]] = []
    for k, counts in dec.census.items():
        for group, count in zip(_GROUPS, counts):
            if count:
                rows.append({"group": group, "k": k, "count": count})
    return rows
