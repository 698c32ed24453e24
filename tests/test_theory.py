"""Theory-layer tests.

Independent oracles: scipy's regularized incomplete gamma for Poisson
tails, direct 4^k enumeration for the cyclic-sum MGF, dense z-grids for the
Chernoff minimization, and plain plug-in arithmetic for the bound formulas.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from mpmath import mp
from scipy.special import gammainc

from align_lab import (
    AlignLabError,
    ModelParams,
    NoRootError,
    ParameterError,
    berry_esseen_lower,
    c_k,
    chernoff_zeta,
    dist_p,
    dist_q,
    fano_bound,
    good_prob_bound,
    impossibility_ratio,
    kl_divergence,
    m_alpha,
    make_rng,
    mgf_zk,
    mu_k,
    power_mean_check,
    psi,
    recovery_conditions,
    theory_report,
)

# mpmath root of mu = 4 * psi_2(mu), 40 digits
MU_3_4 = 3.422973338498413876939373166747


def _psi_oracle(j: int, mu: float) -> float:
    # P(Po(mu) >= j) = P(Gamma(j) <= mu), regularized lower incomplete gamma
    return 1.0 if j <= 0 else float(gammainc(j, mu))


# -- psi ------------------------------------------------------------------------


def test_psi_zero_index_is_one():
    for mu in (0.1, 1.0, 50.0):
        assert psi(0, mu) == 1.0


def test_psi_closed_form():
    assert psi(2, 1.0) == pytest.approx(1 - 2 / math.e, abs=1e-14)


def test_psi_matches_gamma_oracle():
    rng = make_rng(50)
    for _ in range(300):
        j = int(rng.integers(0, 60))
        mu = float(rng.uniform(0.01, 80.0))
        assert psi(j, mu) == pytest.approx(_psi_oracle(j, mu), abs=1e-12)


def test_psi_monotonicity():
    mus = [0.5, 1.0, 3.0, 7.0, 20.0]
    for mu in mus:
        values = [psi(j, mu) for j in range(15)]
        assert all(a >= b for a, b in zip(values, values[1:]))
    for j in (1, 4, 9):
        values = [psi(j, mu) for mu in mus]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_psi_real_index_uses_ceiling():
    assert psi(1.5, 2.0) == psi(2, 2.0)
    assert psi(2 + 1e-12, 2.0) == psi(2, 2.0)  # snap guards float noise


def test_psi_rejects_bad_mu():
    with pytest.raises(ParameterError):
        psi(2, 0.0)
    with pytest.raises(ParameterError):
        psi(2, -1.0)


@pytest.mark.parametrize("j", [math.inf, -math.inf, math.nan])
def test_psi_rejects_non_finite_index(j):
    with pytest.raises(ParameterError):
        psi(j, 1.0)


def test_psi_extreme_tails():
    # far upper tail stays accurate in relative terms instead of flushing to 0
    assert psi(200, 5.0) == pytest.approx(_psi_oracle(200, 5.0), rel=1e-10)
    assert psi(200, 5.0) < 1e-200
    assert psi(1, 800.0) == 1.0


# -- c_k -------------------------------------------------------------------------


def test_c3_against_grid_oracle():
    grid = np.linspace(1e-3, 30.0, 30_000)
    vals = grid / np.array([_psi_oracle(2, m) for m in grid])
    oracle = float(vals.min())
    res = c_k(3)
    assert res.value == pytest.approx(oracle, abs=1e-3)
    assert res.value == pytest.approx(3.3509189, abs=2e-3)
    assert res.argmin == pytest.approx(1.7933, abs=5e-3)


def test_c_k_is_lower_bound_of_grid():
    for k in (3, 5, 10):
        res = c_k(k)
        grid = np.linspace(0.05, 10.0 * k, 2000)
        grid_min = min(m / _psi_oracle(k - 1, m) for m in grid)
        assert grid_min >= res.value - 1e-6


def test_c_k_domain():
    with pytest.raises(ParameterError):
        c_k(2)


def test_c_k_bound_from_lower_tail():
    # whenever psi_{lam/2-1}(2lam/3) >= 0.7, c_{lam/2} <= (2lam/3)/0.7 < lam
    for lam in (20.0, 60.0, 130.0):
        tail = psi(lam / 2 - 1, 2 * lam / 3)
        assert tail >= 0.7
        assert c_k(lam / 2).value <= (2 * lam / 3) / 0.7 < lam


# -- mu_k ------------------------------------------------------------------------


def test_mu_k_frozen_root():
    assert mu_k(3, 4.0) == pytest.approx(MU_3_4, abs=1e-6)


def test_mu_k_is_a_root():
    for k, lam in ((3, 4.0), (5, 9.0), (10, 25.0), (65, 130.0)):
        root = mu_k(k, lam)
        assert abs(root - lam * psi(k - 1, root)) <= 1e-8 * lam


def test_mu_k_bracket_in_mean_degree_regime():
    for lam in (20.0, 50.0, 130.0, 200.0):
        root = mu_k(lam / 2, lam)
        assert 2 * lam / 3 <= root <= lam


def test_mu_k_is_largest_root():
    # no sign change above the returned root
    k, lam = 3, 4.0
    root = mu_k(k, lam)
    for mu in np.linspace(root * 1.0001, lam, 500):
        assert mu - lam * psi(k - 1, mu) > 0


@pytest.mark.parametrize(
    "k, lam",
    [(3, 30.0), (10, 40.0), (3, 45.0), (3, 60.0), (3, 500.0), (10, 60.0), (50, 200.0)],
)
def test_mu_k_matches_mpmath_root_past_the_tail_cutoff(k, lam):
    # From (3, 45) on, psi_{k-1}(lam) rounds to 1 and f(lam) = 0 exactly
    with mp.workdps(50):
        tail = lambda mu: mp.gammainc(k - 1, 0, mu, regularized=True)  # P(Po(mu) >= k-1)
        root = mp.findroot(lambda mu: mu - lam * tail(mu), lam)
    assert mu_k(k, lam) == pytest.approx(float(root), rel=1e-12)


@pytest.mark.parametrize("eps", [1e-3, 1e-9, 1e-12, 1e-15])
@pytest.mark.parametrize("k", [3, 10, 50, 200])
def test_mu_k_just_above_threshold(k, eps):
    # lam = c_k(1 + eps) puts the largest root within about sqrt(eps) of the
    # argmin m, where f(m) = -eps * m
    ck = c_k(k)
    lam = ck.value * (1 + eps)
    root = mu_k(k, lam)
    assert ck.argmin <= root <= lam

    def f(mu):
        return mu - lam * psi(k - 1, mu)

    assert abs(f(root)) <= 1e-12 * lam
    if eps >= 1e-12:  # at 1e-15, f stays within its rounding over the +-1e-9*lam window
        assert f(root - 1e-9 * lam) <= 0.0 < f(root + 1e-9 * lam)


def test_mu_k_below_threshold_raises():
    with pytest.raises(NoRootError):
        mu_k(3, 3.0)  # c_3 ~ 3.35


def test_core_fraction_chain():
    # psi_{lam/2}(mu_{lam/2}(lam)) >= 1 - e^(-lam/84) in the certified regime
    for lam in (84.0, 130.0, 200.0):
        root = mu_k(lam / 2, lam)
        assert psi(lam / 2, root) >= 1 - math.exp(-lam / 84)


# -- normal-approximation lower bound ---------------------------------------------


def test_berry_esseen_is_lower_bound():
    rng = make_rng(53)
    for _ in range(300):
        j = int(rng.integers(0, 80))
        mu = float(rng.uniform(0.05, 100.0))
        assert berry_esseen_lower(j, mu) <= psi(j, mu) + 1e-12


def test_berry_esseen_j0():
    for mu in (0.5, 3.0, 42.0):
        assert berry_esseen_lower(0, mu) <= 1.0


def test_lower_tail_constant_check():
    # the lam = 20 instance of the tail inequality
    assert psi(9, 40.0 / 3.0) >= 0.7


# -- fano ---------------------------------------------------------------------------


def test_fano_frozen_example():
    res = fano_bound(5, 0.2, 0.6, 0.6)
    expected = 1 - (10 * kl_divergence(dist_p(ModelParams(5, 0.2, 0.6)),
                                       dist_q(ModelParams(5, 0.2, 0.6))) + 1) / math.log(120 / 11)
    assert res.raw == pytest.approx(expected, abs=1e-12)
    assert res.raw == pytest.approx(0.139044127293, abs=1e-9)
    assert res.clamped == res.raw


def test_fano_s_eq_q_reduces_to_log_term():
    res = fano_bound(6, 0.3, 0.3, 0.5)
    assert res.raw == pytest.approx(1 - 1 / m_alpha(6, 0.5).log_ratio, abs=1e-12)


def test_fano_clamps_to_unit_interval():
    res = fano_bound(20000, 0.013, 0.5, 0.5)
    assert res.raw < 0
    assert res.clamped == 0.0


def test_fano_decreasing_in_s():
    raws = [fano_bound(50, 0.1, s, 0.5).raw for s in (0.15, 0.3, 0.5, 0.8, 1.0)]
    assert all(a > b for a, b in zip(raws, raws[1:]))


def test_fano_validation():
    with pytest.raises(ParameterError):
        fano_bound(5, 0.2, 0.6, 1.5)


# -- impossibility diagnostic ----------------------------------------------------------


def test_impossibility_ratio_zero_at_independence():
    assert impossibility_ratio(100, 0.2, 0.2, 0.5) == 0.0


def test_impossibility_ratio_plugin():
    n, q, s, alpha = 10_000, 1e-3, 0.5, 0.5
    kl = kl_divergence(dist_p(ModelParams(n, q, s)), dist_q(ModelParams(n, q, s)))
    assert impossibility_ratio(n, q, s, alpha) == pytest.approx(
        (n / math.log(n)) * kl / alpha, rel=1e-12
    )


def test_impossibility_ratio_power_law_scaling():
    # with s fixed and q = n^-beta the ratio tracks (beta*s/alpha) * n^(1-beta)
    n, beta_exp, s0, alpha = 1_000_000, 0.5, 0.5, 0.3
    q = n ** (-beta_exp)
    predicted = beta_exp * s0 / alpha * n ** (1 - beta_exp)
    ratio = impossibility_ratio(n, q, s0, alpha)
    assert 0.7 * predicted < ratio < 1.1 * predicted


# -- sufficient conditions --------------------------------------------------------------


def test_conditions_threshold_example():
    res = recovery_conditions(1000, 0.01, 0.5, 0.5, 1.0, 1.0)
    assert res.mean_degree_threshold == pytest.approx(116.44872633407081, abs=1e-9)


def test_conditions_certify_reference_point():
    res = recovery_conditions(20000, 0.013, 0.5, 0.5, 0.32, 0.25)
    assert res.nqs == pytest.approx(130.0)
    assert res.mean_degree_threshold == pytest.approx(128.0)
    assert res.flags() == (True, True, True, True)
    assert res.all_satisfied


def test_conditions_fail_at_independence():
    res = recovery_conditions(1000, 0.2, 0.2, 0.5, 1.0, 1.0)
    assert not res.cond_correlation


def test_conditions_margins_consistent():
    res = recovery_conditions(500, 0.01, 0.6, 0.4, 0.5, 0.3)
    assert res.cond_mean_degree == (res.mean_degree_margin >= 0)
    assert res.cond_correlation == (res.correlation_margin > 0)
    assert res.cond_sparsity_beta == (res.sparsity_beta_margin >= 0)
    assert res.cond_sparsity_gamma == (res.sparsity_gamma_margin >= 0)
    # the correlation condition holds and the mean-degree one does not
    assert res.cond_correlation and not res.cond_mean_degree and not res.all_satisfied


def test_conditions_validation():
    with pytest.raises(ParameterError):
        recovery_conditions(100, 0.1, 0.5, 0.5, 0.0, 1.0)


# -- cyclic-sum MGF ----------------------------------------------------------------------


def _mgf_enumeration(k: int, t: float, q: float, s: float) -> float:
    """Brute-force E[e^{tW}] over all 4^k joint outcomes of the pair chain."""
    cells = {
        (0, 0): 1 - 2 * q + q * s,
        (0, 1): q * (1 - s),
        (1, 0): q * (1 - s),
        (1, 1): q * s,
    }
    total = 0.0
    for assignment in itertools.product(cells, repeat=k):
        prob = math.prod(cells[c] for c in assignment)
        w = sum(assignment[i][0] * assignment[(i + 1) % k][1] for i in range(k))
        total += prob * math.exp(t * w)
    return total


def test_mgf_at_zero_is_one():
    assert mgf_zk(3, 0.0, ModelParams(10, 0.2, 0.6)) == pytest.approx(1.0, abs=1e-14)
    # at q = 0 the mgf is 1 for every t, also where e^t - 1 overflows a double
    for t in (700.0, 710.0, 1e6):
        assert mgf_zk(2, t, ModelParams(2, 0.0, 0.3)) == 1.0


def test_mgf_binomial_at_independence():
    params = ModelParams(10, 0.3, 0.3)
    t = 0.4
    p11 = 0.09
    for k in range(1, 6):
        expected = (p11 * math.expm1(t) + 1.0) ** k
        assert mgf_zk(k, t, params) == pytest.approx(expected, rel=1e-12)


def test_mgf_frozen_pair_case():
    value = mgf_zk(2, math.log(2), ModelParams(5, 0.2, 0.6))
    assert value == pytest.approx(1.0944, abs=1e-12)
    assert value == pytest.approx(_mgf_enumeration(2, math.log(2), 0.2, 0.6), abs=1e-12)


def test_mgf_matches_enumeration():
    rng = make_rng(59)
    for _ in range(8):
        q = float(rng.uniform(0.05, 0.45))
        s = float(rng.uniform(q, 1.0))
        params = ModelParams(8, q, s)
        for k in range(1, 5):
            for t in (0.3, math.log(2)):
                assert mgf_zk(k, t, params) == pytest.approx(
                    _mgf_enumeration(k, t, q, s), abs=1e-10
                )


def test_mgf_at_zero_discriminant():
    # T^2 - 4D = (p11*x - 1)^2 + 4*q^2*x rounds to 0 at x = 1e20, q = 1e-20, s = 1
    value = mgf_zk(1, 46.051701859880716, ModelParams(2, 1e-20, 1.0))
    assert value == pytest.approx(2.0, rel=1e-12)


def test_mgf_validation():
    params = ModelParams(8, 0.2, 0.6)
    with pytest.raises(ParameterError):
        mgf_zk(0, 0.3, params)
    with pytest.raises(ParameterError):
        mgf_zk(2, -0.1, params)


# -- Chernoff minimization ------------------------------------------------------------------


def _cullina_objective(z: np.ndarray, tau: float, q1: float, q2: float) -> np.ndarray:
    return z ** (-tau) * np.exp(q2 * (z * z - 1) + q1 * (z - 1))


def test_zeta_boundary_case():
    res = chernoff_zeta(2.0, 0.0, 1.0)
    assert res.z_star == pytest.approx(1.0, abs=1e-12)


def test_zeta_frozen_case():
    res = chernoff_zeta(1.0, 1.0, 1.0)
    assert res.z_star == pytest.approx(0.5, abs=1e-12)
    f_star = float(_cullina_objective(np.array([res.z_star]), 1.0, 1.0, 1.0)[0])
    assert f_star == pytest.approx(2 * math.exp(-1.25), abs=1e-12)
    assert res.zeta == pytest.approx(4 * math.e, abs=1e-12)
    assert f_star <= res.zeta


def test_zeta_minimizer_and_bound_property():
    rng = make_rng(61)
    for _ in range(200):
        tau = float(rng.uniform(0.05, 5.0))
        q1 = float(rng.uniform(0.0, 3.0))
        q2 = float(rng.uniform(0.01, 3.0))
        res = chernoff_zeta(tau, q1, q2)
        grid = np.linspace(1e-9, 10 * res.z_star, 4000)
        f = _cullina_objective(grid, tau, q1, q2)
        f_star = float(_cullina_objective(np.array([res.z_star]), tau, q1, q2)[0])
        assert f.min() >= f_star - 1e-9
        assert f_star <= res.zeta**tau
        assert abs(2 * q2 * res.z_star**2 + q1 * res.z_star - tau) <= 1e-9 * max(1.0, tau)
        assert res.z_star**2 <= tau / (2 * q2) + 1e-12


@pytest.mark.parametrize(
    "tau, q1, q2",
    [
        (1.0, 1e200, 1.0),  # q1^2 overflows
        (1e-10, 1e160, 1.0),  # q1^2 overflows: z* reads 0, not 1e-170
        (1e308, 1.0, 1.0),  # 2*tau and 8*tau*q2 overflow: z* is NaN
        (1e-300, 0.0, 1e-300),  # 8*tau*q2 underflows to 0: z* divides by 0
        (1e-300, 0.0, 1e300),  # q2/tau overflows: zeta is inf
    ],
)
def test_zeta_outside_double_range_raises(tau, q1, q2):
    with pytest.raises(ParameterError, match="tau=.*q1=.*q2="):
        chernoff_zeta(tau, q1, q2)


def test_zeta_degenerate_quadratic():
    with pytest.raises(ParameterError):
        chernoff_zeta(1.0, 1.0, 0.0)


# -- goodness probability bound ----------------------------------------------------------------


def test_good_prob_bound_capped():
    res = good_prob_bound(20000, 0.013, 0.5, 0.5, 0.32, 0.25)
    assert res.value <= 1.0
    assert math.isfinite(res.log_value)


def test_good_prob_bound_union_exponent_certifies_reference_point():
    n, q, s, alpha, beta, gamma = 20000, 0.013, 0.5, 0.5, 0.32, 0.25
    res = good_prob_bound(n, q, s, alpha, beta, gamma)
    p11 = q * s
    manual = (
        n * math.log(n)
        + n * (1 - alpha) / 16
        - n * (1 - alpha) * n * p11 * (min(beta, gamma) * math.log(n)) / 8
    )
    assert res.union_exponent == pytest.approx(manual, rel=1e-12)
    assert res.union_exponent < 0


def test_good_prob_bound_dominates_empirical_frequency():
    # at n=8 the bound caps at 1; the Monte Carlo frequency must stay below it
    from align_lab import generate, is_good, overlap, Permutation

    n, q, s, alpha = 8, 0.25, 0.5, 0.5
    params = ModelParams(n, q, s)
    bound = good_prob_bound(n, q, s, alpha, 0.5, 0.5).value
    rng = make_rng(71)
    good = considered = 0
    for seed in range(20):
        inst = generate(params, seed=400 + seed)
        for _ in range(500):
            pi = Permutation.random(n, rng)
            if overlap(pi, inst.pi_star) <= alpha:
                considered += 1
                good += is_good(inst.g_a, inst.g_b, pi, params, alpha).is_good
    assert considered > 5000
    assert good / considered <= bound


def test_good_prob_bound_needs_positive_p11():
    with pytest.raises(ParameterError):
        good_prob_bound(100, 0.0, 0.5, 0.5, 1.0, 1.0)


def test_good_prob_bound_small_value_matches_log():
    # sub-unit zeta with a moderate exponent: value and log agree
    res = good_prob_bound(5000, 2e-3, 0.5, 0.5, 1.0, 0.4)
    assert 0.0 < res.value < 1e-30
    assert res.log_value == pytest.approx(math.log(res.value), rel=1e-9)


def test_good_prob_bound_underflow_reported_in_logs():
    # below e^-745 the float value flushes to 0 but the log stays finite
    res = good_prob_bound(20000, 2e-3, 0.5, 0.5, 1.0, 0.4)
    assert res.value == 0.0
    assert math.isfinite(res.log_value)
    assert res.log_value < -700


# -- power-mean inequality -----------------------------------------------------------------------


def test_power_mean_equality_case():
    assert power_mean_check(1.0, 1.0, 2, 2)


def test_power_mean_worked_example():
    # (3^4 + 1)^2 = 6724 <= 10^4
    assert power_mean_check(3.0, 1.0, 4, 8)


def test_power_mean_random():
    rng = make_rng(67)
    for _ in range(10_000):
        a = float(rng.uniform(0.01, 50.0))
        b = float(rng.uniform(0.01, 50.0))
        k = int(rng.integers(2, 12))
        n = int(rng.integers(k, 20))
        assert power_mean_check(a, b, k, n)


def test_power_mean_domain():
    with pytest.raises(ParameterError):
        power_mean_check(-1.0, 1.0, 2, 4)
    with pytest.raises(ParameterError):
        power_mean_check(1.0, 1.0, 5, 4)


# -- report ---------------------------------------------------------------------------------------


def test_theory_report_consistency():
    rep = theory_report(200, 0.05, 0.5, 0.4, 0.4, 0.3)
    params = ModelParams(200, 0.05, 0.5)
    assert rep.kl == kl_divergence(dist_p(params), dist_q(params))
    assert rep.fano_clamped == fano_bound(200, 0.05, 0.5, 0.4).clamped
    assert rep.nqs == pytest.approx(5.0)
    assert rep.conditions is not None
    assert rep.good_prob_bound == good_prob_bound(200, 0.05, 0.5, 0.4, 0.4, 0.3).value
    d = rep.to_dict()
    assert d["conditions"]["all_satisfied"] == rep.conditions.all_satisfied


def test_theory_report_without_conditions():
    rep = theory_report(50, 0.1, 0.5, 0.5)
    assert rep.conditions is None
    assert rep.good_prob_bound == 1.0
    assert rep.to_dict()["conditions"] is None


@pytest.mark.parametrize("bound", [recovery_conditions, good_prob_bound])
@pytest.mark.parametrize("beta, gamma", [(math.nan, 0.3), (0.3, math.nan)])
def test_exponent_bounds_reject_nan(bound, beta, gamma):
    with pytest.raises(ParameterError):
        bound(20000, 0.013, 0.5, 0.5, beta, gamma)


@pytest.mark.parametrize("bound", [recovery_conditions, good_prob_bound])
@pytest.mark.parametrize("beta, gamma", [(None, None), (0.4, None), (None, 0.4)])
def test_exponent_bounds_need_both_exponents(bound, beta, gamma):
    with pytest.raises(ParameterError):
        bound(200, 0.05, 0.5, 0.4, beta, gamma)


@pytest.mark.parametrize("beta, gamma", [(math.inf, 0.3), (0.3, math.inf)])
def test_theory_report_rejects_non_finite_exponents(beta, gamma):
    with pytest.raises(ParameterError, match="finite and positive"):
        theory_report(50, 0.1, 0.5, 0.5, beta, gamma)


def test_theory_report_dict_layout():
    d = theory_report(200, 0.05, 0.5, 0.4, 0.4, 0.3).to_dict()
    assert list(d) == [
        "n", "q", "s", "alpha", "beta", "gamma", "kl", "fano_raw", "fano_clamped",
        "impossibility_ratio", "nqs", "good_prob_bound", "conditions",
    ]
    assert list(d["conditions"]) == [
        "cond_mean_degree", "cond_correlation", "cond_sparsity_beta", "cond_sparsity_gamma",
        "all_satisfied", "nqs", "mean_degree_threshold", "mean_degree_margin",
        "correlation_margin", "sparsity_beta_margin", "sparsity_gamma_margin",
    ]


def test_theory_report_requires_both_exponents():
    with pytest.raises(ParameterError):
        theory_report(50, 0.1, 0.5, 0.5, beta=0.3)
