"""Permutation arithmetic tests: overlap, rencontres counts, the
at-least-alpha counting helper, and the ordered-pair cycle decomposition."""

from __future__ import annotations

import itertools
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from align_lab import (
    Permutation,
    ParameterError,
    decompose,
    derangements,
    log_rencontres,
    m_alpha,
    make_rng,
    overlap,
    rencontres,
)
from align_lab.perms import ceil_snap, census_rows


# -- Permutation basics -------------------------------------------------------


def test_permutation_validation():
    with pytest.raises(ParameterError):
        Permutation([0, 0, 1])
    with pytest.raises(ParameterError):
        Permutation([1, 2, 3])
    with pytest.raises(ParameterError):
        Permutation([])


def test_inverse_and_compose():
    rng = make_rng(5)
    for _ in range(20):
        pi = Permutation.random(7, rng)
        rho = Permutation.random(7, rng)
        assert pi.compose(pi.inverse()) == Permutation.identity(7)
        assert pi.inverse().compose(pi) == Permutation.identity(7)
        composed = pi.compose(rho)
        for i in range(7):
            assert composed(i) == pi(rho(i))


# -- overlap ------------------------------------------------------------------


def test_overlap_examples():
    ident = Permutation.identity(4)
    assert overlap(ident, ident) == 1.0
    assert overlap(Permutation([1, 0, 2, 3]), ident) == 0.5
    assert overlap(Permutation([1, 0, 2]), Permutation([1, 2, 0])) == pytest.approx(1 / 3)


def test_overlap_length_mismatch():
    with pytest.raises(ParameterError):
        overlap(Permutation.identity(3), Permutation.identity(4))


def test_overlap_right_composition_invariance():
    rng = make_rng(9)
    for _ in range(30):
        pi = Permutation.random(6, rng)
        pi_star = Permutation.random(6, rng)
        rho = Permutation.random(6, rng)
        assert overlap(pi, pi_star) == overlap(pi.compose(rho), pi_star.compose(rho))


def test_overlap_equals_fixed_points_of_relative_perm():
    rng = make_rng(10)
    for _ in range(30):
        pi = Permutation.random(8, rng)
        pi_star = Permutation.random(8, rng)
        p = pi.compose(pi_star.inverse())
        assert overlap(pi, pi_star) == p.fixed_point_count() / 8


# -- rencontres counting ------------------------------------------------------


def test_rencontres_forced_values():
    for n in range(1, 10):
        assert rencontres(n, n) == 1
        assert rencontres(n, n - 1) == 0


def test_rencontres_n4_table():
    assert [rencontres(4, k) for k in range(5)] == [9, 8, 6, 0, 1]
    assert sum(rencontres(4, k) for k in range(5)) == 24


def test_rencontres_against_enumeration():
    for n in range(1, 7):
        counts = [0] * (n + 1)
        for perm in itertools.permutations(range(n)):
            counts[sum(1 for i, x in enumerate(perm) if i == x)] += 1
        assert counts == [rencontres(n, k) for k in range(n + 1)]


def test_rencontres_sum_is_factorial():
    for n in range(1, 21):
        assert sum(rencontres(n, k) for k in range(n + 1)) == math.factorial(n)


def test_rencontres_asymptotic_ratio():
    # D_{n,k} ~ n!/(e k!) at fixed k
    n = 12
    for k in range(4):
        approx = math.factorial(n) / (math.e * math.factorial(k))
        assert 0.9 <= rencontres(n, k) / approx <= 1.1


def test_rencontres_domain():
    with pytest.raises(ParameterError):
        rencontres(4, 5)
    with pytest.raises(ParameterError):
        rencontres(4, -1)


def test_log_rencontres_matches_exact():
    for n in (5, 40, 170):
        for k in range(n + 1):
            exact = rencontres(n, k)
            if exact == 0:
                assert log_rencontres(n, k) == -math.inf
            else:
                assert log_rencontres(n, k) == pytest.approx(math.log(exact), abs=1e-10)


def test_derangements_domain():
    assert derangements(0) == 1 and derangements(1) == 0
    with pytest.raises(ParameterError):
        derangements(-1)


# -- m_alpha ------------------------------------------------------------------


def test_m_alpha_example():
    res = m_alpha(5, 0.6)
    assert res.exact == 11  # D_{5,3} + D_{5,4} + D_{5,5} = 10 + 0 + 1
    assert res.k_min == 3
    assert res.log_ratio == pytest.approx(math.log(120 / 11), abs=1e-12)
    assert res.is_exact


def test_m_alpha_tiny_alpha_is_non_derangements():
    n = 7
    res = m_alpha(n, 1e-9)  # ceil(n*alpha) = 1
    assert res.k_min == 1
    assert res.exact == math.factorial(n) - derangements(n)


def test_m_alpha_only_identity():
    res = m_alpha(4, 0.9)
    assert res.exact == 1


def test_m_alpha_log_domain_switch():
    exact_mode = m_alpha(170, 0.5)
    log_mode = m_alpha(171, 0.5)
    assert exact_mode.is_exact and not log_mode.is_exact
    assert log_mode.exact is None
    # the two modes agree where both are computable
    boundary = m_alpha(170, 0.5)
    from align_lab.perms import log_rencontres as lr  # independent route

    logs = [lr(170, k) for k in range(boundary.k_min, 171)]
    peak = max(logs)
    log_direct = peak + math.log(sum(math.exp(x - peak) for x in logs))
    assert boundary.log_m_alpha == pytest.approx(log_direct, rel=1e-12)


def _full_log_m_alpha(n: int, alpha: float) -> float:
    logs = [log_rencontres(n, k) for k in range(max(ceil_snap(n * alpha), 1), n + 1)]
    peak = max(logs)
    return peak + math.log(math.fsum(math.exp(x - peak) for x in logs))


@pytest.mark.parametrize("n", [*range(171, 2997, 7 * 29), 20000, 100000])
def test_m_alpha_tail_cut_matches_full_sum(n):
    # the cut drops terms below e^-80 of the peak, so the double is unchanged
    for alpha in (0.1, 0.25, 0.4, 0.5, 0.6, 0.8, 0.95):
        res = m_alpha(n, alpha)
        assert res.log_m_alpha == _full_log_m_alpha(n, alpha)
        assert res.log_ratio == math.lgamma(n + 1) - res.log_m_alpha


def test_m_alpha_near_identity_keeps_the_identity_term():
    # k_min = n - 2 and n - 3: the zero term R(n, n-1) must not end the sum
    # before R(n, n) = 1, which is not negligible there
    for n, alpha in ((500, 0.995), (500, 0.994), (171, 0.99)):
        assert m_alpha(n, alpha).log_m_alpha == _full_log_m_alpha(n, alpha)


def test_m_alpha_returns_at_huge_n():
    res = m_alpha(10**12, 0.5)
    assert not res.is_exact
    assert math.isfinite(res.log_ratio) and res.log_ratio > 0


def test_ceil_snap_guards_float_products():
    assert 0.07 * 100 > 7  # the raw float hazard this guards against
    assert ceil_snap(0.07 * 100) == 7
    assert ceil_snap(5 * 0.6) == 3
    assert ceil_snap(4.2) == 5
    assert ceil_snap(-0.3) == 0


# -- cycle decomposition ------------------------------------------------------


def test_decompose_swap_against_hand_computation():
    dec = decompose(Permutation([1, 0, 2]), Permutation.identity(3))
    assert set(dec.s1) == {(2, 0), (2, 1)}
    assert set(dec.s21) == {(0, 1), (1, 0)}
    assert len(dec.cycles) == 1
    cycle = dec.cycles[0]
    assert cycle.group == "G3" and cycle.size == 2
    assert set(cycle.pairs) == {(0, 2), (1, 2)}
    assert dec.census == {2: (0, 0, 1)}


def test_decompose_identity_has_no_cycles():
    pi = Permutation([2, 0, 1, 3])
    dec = decompose(pi, pi)
    assert dec.eps == 1.0
    assert dec.s21 == () and dec.cycles == ()
    assert len(dec.s1) == 4 * 3


def test_decompose_four_cycle_groups():
    # p = (0 1 2 3): orbit of (0,2) is self-mirrored (G1); (0,1)'s orbit has
    # its mirror in a twin orbit (G2)
    dec = decompose(Permutation([1, 2, 3, 0]), Permutation.identity(4))
    by_group = {}
    for c in dec.cycles:
        by_group.setdefault(c.group, []).append(c)
    assert len(by_group["G1"]) == 1 and by_group["G1"][0].size == 4
    assert len(by_group["G2"]) == 2
    assert {c.size for c in by_group["G2"]} == {4}
    assert "G3" not in by_group


def _check_invariants(dec, n):
    n_eps = round(dec.eps * n)
    assert len(dec.s1) == n_eps * (n - 1)
    assert len(dec.s21) + dec.s22_size == (n - n_eps) * (n - 1)
    assert len(dec.s21) <= n - n_eps
    census_total = sum(k * sum(triple) for k, triple in dec.census.items())
    assert census_total == dec.s22_size
    for k, (l_k, m_k, _) in dec.census.items():
        if l_k:
            assert k % 2 == 0  # self-mirrored cycles have even size
        assert m_k % 2 == 0  # twin-mirrored cycles come in pairs
    # the three parts partition S exactly
    all_pairs = set(dec.s1) | set(dec.s21)
    count = len(dec.s1) + len(dec.s21)
    for c in dec.cycles:
        all_pairs.update(c.pairs)
        count += c.size
    assert count == n * (n - 1)
    assert all_pairs == {(i, j) for i in range(n) for j in range(n) if i != j}


def test_decompose_invariants_random():
    rng = make_rng(314)
    for _ in range(200):
        n = int(rng.integers(2, 10))
        pi = Permutation.random(n, rng)
        pi_star = Permutation.random(n, rng)
        _check_invariants(decompose(pi, pi_star), n)


def test_decompose_length_mismatch():
    with pytest.raises(ParameterError):
        decompose(Permutation.identity(3), Permutation.identity(4))


def test_decompose_census_memory_per_node():
    # the census and sizes come from the cycle lengths; building the pair
    # sets would take about 64 KB per node at n = 1000
    rng = make_rng(21)
    n = 1000
    pi, pi_star = Permutation.random(n, rng), Permutation.random(n, rng)
    tracemalloc.start()
    try:
        dec = decompose(pi, pi_star)
        census = census_rows(dec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert census and dec.s1_size + dec.s21_size + dec.s22_size == n * (n - 1)
    assert peak <= 256 * n


def test_decompose_census_of_many_two_cycles():
    # C = n/2 two-cycles: C(C-1) ordered pairs of distinct cycles, each with
    # 2 orbits of size 2 (G2); counting by cycle pair would take 1e10 steps
    n = 200_000
    c = n // 2
    image = [i + 1 if i % 2 == 0 else i - 1 for i in range(n)]
    dec = decompose(Permutation(image), Permutation.identity(n))
    assert dec.census == {2: (0, 2 * c * (c - 1), 0)}
    assert dec.s21_size == n and dec.s1_size == 0 and dec.eps == 0.0


def _walk_decomposition(pi, pi_star):
    """Reference: split the pairs one by one and walk each S2^2 orbit."""
    n = len(pi)
    p = pi.compose(pi_star.inverse())
    s1, s21, s22 = set(), set(), []
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            if p(i) == i:
                s1.add((i, j))
            elif p(i) == j and p(j) == i:
                s21.add((i, j))
            else:
                s22.append((i, j))
    visited, orbits, census = set(), set(), {}
    for start in s22:
        if start in visited:
            continue
        orbit = [start]
        cur = (p(start[0]), p(start[1]))
        while cur != start:
            orbit.append(cur)
            cur = (p(cur[0]), p(cur[1]))
        visited.update(orbit)
        if (start[1], start[0]) in orbit:
            slot = 0
        elif all(j == start[1] for _, j in orbit):
            slot = 2
        else:
            slot = 1
        orbits.add((("G1", "G2", "G3")[slot], frozenset(orbit)))
        census.setdefault(len(orbit), [0, 0, 0])[slot] += 1
    eps = p.fixed_point_count() / n
    return s1, s21, orbits, {k: tuple(v) for k, v in census.items()}, eps


@st.composite
def _permutation_pair(draw):
    n = draw(st.integers(1, 14))
    return (
        Permutation(draw(st.permutations(range(n)))),
        Permutation(draw(st.permutations(range(n)))),
    )


@settings(max_examples=300, deadline=None)
@given(_permutation_pair())
def test_decompose_matches_pair_walk(pair):
    pi, pi_star = pair
    dec = decompose(pi, pi_star)
    s1, s21, orbits, census, eps = _walk_decomposition(pi, pi_star)
    assert set(dec.s1) == s1 and len(dec.s1) == len(s1)
    assert set(dec.s21) == s21 and len(dec.s21) == len(s21)
    assert {(c.group, frozenset(c.pairs)) for c in dec.cycles} == orbits
    assert len(dec.cycles) == len(orbits)
    assert dec.census == census and list(dec.census) == sorted(census)
    assert dec.eps == eps
    p = pi.compose(pi_star.inverse())
    for c in dec.cycles:  # each orbit lists its pairs in p-order
        for (i, j), nxt in zip(c.pairs, c.pairs[1:] + c.pairs[:1]):
            assert nxt == (p(i), p(j))
