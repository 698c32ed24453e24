"""Numerical evaluation of the closed-form quantities and bounds.

Poisson machinery (upper-tail psi, the core-emergence constant c_k and the
largest root mu_k), the normal-approximation lower bound on psi, the Fano
impossibility bound, the finite-n impossibility diagnostic, the four
sufficient recovery conditions, the cyclic-sum moment generating function,
the Chernoff minimization helper, and the resulting per-permutation
goodness-probability bound.

Numerical policy: everything that can underflow is evaluated in log domain
with 64-bit floats; probabilities are clamped to [0, 1]; indices that arrive
as reals (e.g. n*q*s/2 - 1) are snapped to the nearest integer within 1e-9
before taking the ceiling, since the upper tail of an integer-valued
variable only depends on the ceiling of the cut.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import NamedTuple

from .errors import NoRootError, ParameterError
from .model import ModelParams, check_alpha, check_exponents, dist_p, dist_q, kl_divergence
from .perms import ceil_snap, m_alpha


# Relative truncation error of the summed Poisson tail, and the cap on its
# series length.
_TAIL_TOLERANCE = 1e-12
_TAIL_MAX_TERMS = 200_000


def _log_poisson_pmf(i: int, mu: float) -> float:
    return -mu + i * math.log(mu) - math.lgamma(i + 1)


def psi(j: float, mu: float) -> float:
    """Upper tail P(Po(mu) >= j) for real j >= 0 (via the ceiling of j).

    Sums the smaller of the two tails with a stable log-domain pmf recursion
    and complements, so both psi ~ 1 and psi ~ 0 keep full precision.
    """
    if not (math.isfinite(mu) and mu > 0):
        raise ParameterError(f"mu must be positive, got {mu}")
    if not math.isfinite(j):
        raise ParameterError(f"j must be finite, got {j}")
    idx = ceil_snap(j)
    if idx <= 0:
        return 1.0
    if idx > _TAIL_MAX_TERMS:
        raise ParameterError(f"tail index {idx} exceeds max_terms={_TAIL_MAX_TERMS}")
    if idx <= mu:
        # lower tail P(Po < idx) is the smaller side
        lower = math.fsum(math.exp(_log_poisson_pmf(i, mu)) for i in range(idx))
        return min(1.0, max(0.0, 1.0 - lower))
    log_term = _log_poisson_pmf(idx, mu)
    if log_term < -745.0:  # below double underflow: the whole tail is ~0
        return 0.0
    term = math.exp(log_term)
    total = term
    i = idx
    while i - idx < _TAIL_MAX_TERMS:
        i += 1
        term *= mu / i
        total += term
        if term <= total * _TAIL_TOLERANCE:
            break
    return min(1.0, total)


def _golden_min(f, a: float, b: float, rel_tol: float) -> tuple[float, float]:
    """Golden-section minimum of a unimodal f on [a, b]; returns (x, f(x))."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    while (b - a) > rel_tol * max(1.0, abs(a) + abs(b)):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


class CkResult(NamedTuple):
    value: float
    argmin: float


_CK_GRID = 2000


@lru_cache(maxsize=256)
def _c_k_cached(k: float) -> CkResult:
    def ratio(mu: float) -> float:
        tail = psi(k - 1, mu)
        return mu / tail if tail > 0.0 else math.inf

    hi = 10.0 * k
    step = hi / _CK_GRID
    best_i, best_v = 1, math.inf
    for i in range(1, _CK_GRID + 1):
        v = ratio(i * step)
        if v < best_v:
            best_i, best_v = i, v
    lo = max(step * (best_i - 1), step * 1e-6)
    x, fx = _golden_min(ratio, lo, min(hi, step * (best_i + 1)), 1e-9)
    return CkResult(value=fx, argmin=x)


def c_k(k: float) -> CkResult:
    """inf over mu > 0 of mu / psi_{k-1}(mu): the k-core emergence constant.

    Coarse grid on (0, 10k] followed by golden-section refinement.  k may be
    a real >= 3 (the tail index is taken through the usual ceiling).
    """
    if not (math.isfinite(k) and k >= 3):
        raise ParameterError(f"k must be >= 3, got {k}")
    return _c_k_cached(float(k))


def mu_k(k: float, lam: float) -> float:
    """Largest root of f(mu) = mu - lam * psi_{k-1}(mu), for lam > c_k(k).

    The root lies in [m, lam] for m = c_k(k).argmin: c_k(k).value is
    m / psi_{k-1}(m) as computed, so lam > c_k(k).value gives f(m) <= 0 (up
    to one rounding), while f(lam) > 0 unless lam itself is the root.  Scans
    downward from lam in steps of lam/1000, never below m, for the topmost
    sign change, then bisects the bracketing cell.
    """
    ck = c_k(k)
    if not (math.isfinite(lam) and lam > ck.value):
        raise NoRootError(f"lam must exceed c_k(k)={ck.value:.6g}, got {lam}")

    def f(mu: float) -> float:
        return mu - lam * psi(k - 1, mu)

    if f(lam) <= 0.0:
        # psi_{k-1}(lam) rounds to 1: lam is the largest root to double precision
        return lam
    # hi ends on the lowest scan point with f > 0; lo is the next one, or m
    # (also where f(m) rounds to +1 ulp)
    step, hi, m = lam / 1000.0, lam, ck.argmin
    while hi - step > m and f(hi - step) > 0.0:
        hi -= step
    lo = max(m, hi - step)

    xtol = 1e-12 * max(1.0, lam)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= xtol:
            break
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def berry_esseen_lower(j: float, mu: float) -> float:
    """Normal-approximation lower bound on psi_j(mu); may be negative."""
    if not (math.isfinite(mu) and mu > 0):
        raise ParameterError(f"mu must be positive, got {mu}")
    x = (j - mu) / math.sqrt(mu)
    upper_normal = 0.5 * math.erfc(x / math.sqrt(2.0))
    return upper_normal - 0.55 / math.sqrt(math.ceil(mu))


class FanoBound(NamedTuple):
    raw: float
    clamped: float


def fano_bound(n: int, q: float, s: float, alpha: float) -> FanoBound:
    """Information-theoretic lower bound on the failure probability.

    raw = 1 - (C(n,2) * D(P||Q) + 1) / log(n! / m_alpha).  The raw value can
    be negative at small n (the bound is vacuous there); clamped is its
    projection onto [0, 1].
    """
    params = ModelParams(n, q, s)
    check_alpha(alpha)
    kl = kl_divergence(dist_p(params), dist_q(params))
    log_ratio = m_alpha(n, alpha).log_ratio
    raw = 1.0 - (math.comb(n, 2) * kl + 1.0) / log_ratio
    return FanoBound(raw=raw, clamped=min(1.0, max(0.0, raw)))


def impossibility_ratio(n: int, q: float, s: float, alpha: float) -> float:
    """Finite-n diagnostic (n / log n) * D(P||Q) / alpha.

    The impossibility regime is where this vanishes asymptotically; at fixed
    n it is reported as a plain number, never as a verdict.
    """
    params = ModelParams(n, q, s)
    check_alpha(alpha)
    kl = kl_divergence(dist_p(params), dist_q(params))
    return (n / math.log(n)) * kl / alpha


@dataclass(frozen=True)
class RecoveryConditions:
    """The four sufficient conditions with slack margins (value >= 0 means met).

    - mean_degree:     n*q*s >= max{20, 84*log(2/(1-alpha)), 16/(min(beta,gamma)*(1-alpha))}
    - correlation:     s > 8*q/(1-alpha)                       (strict)
    - sparsity_beta:   2*q*(1-s^2)/s <= n^(-beta)
    - sparsity_gamma:  q*s <= n^(-2*gamma)
    """

    cond_mean_degree: bool
    cond_correlation: bool
    cond_sparsity_beta: bool
    cond_sparsity_gamma: bool
    all_satisfied: bool = field(init=False)
    nqs: float
    mean_degree_threshold: float
    mean_degree_margin: float
    correlation_margin: float
    sparsity_beta_margin: float
    sparsity_gamma_margin: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "all_satisfied", all(self.flags()))

    def flags(self) -> tuple[bool, bool, bool, bool]:
        return (
            self.cond_mean_degree,
            self.cond_correlation,
            self.cond_sparsity_beta,
            self.cond_sparsity_gamma,
        )


def _check_given_exponents(beta: float | None, gamma: float | None) -> None:
    """check_exponents for the bounds that use beta and gamma: both must be given."""
    if beta is None or gamma is None:
        raise ParameterError("beta and gamma are both required here")
    check_exponents(beta, gamma)


def recovery_conditions(
    n: int, q: float, s: float, alpha: float, beta: float, gamma: float
) -> RecoveryConditions:
    """Evaluate the four sufficient conditions literally, with margins."""
    params = ModelParams(n, q, s)
    check_alpha(alpha)
    _check_given_exponents(beta, gamma)
    nqs = params.nqs
    threshold = max(
        20.0,
        84.0 * math.log(2.0 / (1.0 - alpha)),
        16.0 / (min(gamma, beta) * (1.0 - alpha)),
    )
    corr_bound = 8.0 * q / (1.0 - alpha)
    sp_beta_lhs = 2.0 * q * (1.0 - s * s) / s
    sp_beta_rhs = n ** (-beta)
    sp_gamma_rhs = n ** (-2.0 * gamma)
    return RecoveryConditions(
        cond_mean_degree=nqs >= threshold,
        cond_correlation=s > corr_bound,
        cond_sparsity_beta=sp_beta_lhs <= sp_beta_rhs,
        cond_sparsity_gamma=q * s <= sp_gamma_rhs,
        nqs=nqs,
        mean_degree_threshold=threshold,
        mean_degree_margin=nqs - threshold,
        correlation_margin=s - corr_bound,
        sparsity_beta_margin=sp_beta_rhs - sp_beta_lhs,
        sparsity_gamma_margin=sp_gamma_rhs - q * s,
    )


def mgf_zk(k_pairs: int, t: float, params: ModelParams) -> float:
    """Moment generating function of the cyclic sum over k_pairs matched pairs.

    With x = e^t - 1, T = p11*x + 1 and D = sigma^2*x, the value is
    lam1^k + lam2^k for the two roots lam = (T +- sqrt(T^2 - 4D)) / 2.
    Raises ParameterError when the value overflows a double.
    """
    if not isinstance(k_pairs, (int,)) or k_pairs < 1:
        raise ParameterError(f"k_pairs must be a positive integer, got {k_pairs!r}")
    if not (math.isfinite(t) and t >= 0.0):
        raise ParameterError(f"t must be a nonnegative real, got {t}")
    p11 = params.q * params.s
    sigma2 = params.q * (params.s - params.q)
    try:
        x = math.expm1(t)
    except OverflowError:
        x = math.inf
    # A zero coefficient drops its term exactly, also where e^t - 1 overflows.
    trace = p11 * x + 1.0 if p11 else 1.0
    det = sigma2 * x if sigma2 else 0.0
    # T^2 - 4D = (p11*x - 1)^2 + 4*q^2*x >= 0; a negative value is rounding
    root = math.sqrt(max(trace * trace - 4.0 * det, 0.0))
    lam1 = (trace + root) / 2.0
    lam2 = (trace - root) / 2.0
    try:
        value = lam1**k_pairs + lam2**k_pairs
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ParameterError(f"the mgf overflows a double at k_pairs={k_pairs}, t={t}")
    return value


class ZetaResult(NamedTuple):
    zeta: float
    z_star: float


def chernoff_zeta(tau: float, q1: float, q2: float) -> ZetaResult:
    """Chernoff minimization of z^-tau * exp(q2*(z^2-1) + q1*(z-1)) over z >= 0.

    Returns the bound base zeta = max(sqrt(2)*e*q1/tau, 4*e*sqrt(q2/tau)) and
    the closed-form minimizer z* = 2*tau / (q1 + sqrt(q1^2 + 8*tau*q2)).
    """
    if not (math.isfinite(tau) and tau > 0.0):
        raise ParameterError(f"tau must be positive, got {tau}")
    if not (math.isfinite(q1) and q1 >= 0.0):
        raise ParameterError(f"q1 must be nonnegative, got {q1}")
    if not (math.isfinite(q2) and q2 > 0.0):
        raise ParameterError(f"q2 must be positive (degenerate linear case rejected), got {q2}")
    denom = q1 + math.sqrt(q1 * q1 + 8.0 * tau * q2)
    z_star = 2.0 * tau / denom if denom > 0.0 else math.inf
    quad = 2.0 * q2 * z_star * z_star
    zeta = max(math.sqrt(2.0) * math.e * q1 / tau, 4.0 * math.e * math.sqrt(q2 / tau))
    # z* solves 2*q2*z^2 + q1*z = tau: a miss, a NaN or an infinite zeta means a
    # term left double range
    z_ok = abs(quad + q1 * z_star - tau) <= 1e-9 * tau and quad <= tau * (1.0 + 1e-12)
    if not (z_ok and zeta < math.inf):
        raise ParameterError(f"zeta or z* leaves double range at tau={tau}, q1={q1}, q2={q2}")
    return ZetaResult(zeta=zeta, z_star=z_star)


class GoodProbBound(NamedTuple):
    """Per-permutation goodness probability bound at overlap <= alpha.

    ``value`` is min(1, exp(log_value)); ``log_value`` stays meaningful when
    the bound underflows.  ``union_exponent`` is the log of the n!-union
    bound with log(1/zeta) replaced by its floor min(beta, gamma)*log n;
    a negative value certifies the whole-search failure bound is tiny.
    """

    value: float
    log_value: float
    union_exponent: float


def good_prob_bound(
    n: int, q: float, s: float, alpha: float, beta: float, gamma: float
) -> GoodProbBound:
    """Bound e^{n(1-alpha)/16} * zeta^{n(1-alpha) n p11 / 8} on P(pi good)."""
    params = ModelParams(n, q, s)
    check_alpha(alpha)
    _check_given_exponents(beta, gamma)
    p11 = q * s
    if p11 <= 0.0:
        raise ParameterError("good_prob_bound needs p11 = q*s > 0")
    q11 = q * q
    tau = (1.0 - alpha) / 2.0
    q1 = 2.0 * (q11 - p11 * p11) / p11
    q2 = p11
    zeta = chernoff_zeta(tau, q1, q2).zeta
    weight = n * (1.0 - alpha) * n * p11 / 8.0
    log_value = n * (1.0 - alpha) / 16.0 + weight * math.log(zeta)
    value = 1.0 if log_value >= 0.0 else math.exp(log_value)
    union_exponent = (
        n * math.log(n)
        + n * (1.0 - alpha) / 16.0
        - weight * min(beta, gamma) * math.log(n)
    )
    return GoodProbBound(value=value, log_value=log_value, union_exponent=union_exponent)


def power_mean_check(a: float, b: float, k: float, n: float) -> bool:
    """Verify (a^k + b^k)^(n/k) <= (a^2 + b^2)^(n/2) in log domain."""
    if not (a > 0 and b > 0):
        raise ParameterError(f"a and b must be positive, got {a}, {b}")
    if not 2 <= k <= n:
        raise ParameterError(f"need 2 <= k <= n, got k={k}, n={n}")
    la, lb = math.log(a), math.log(b)
    lhs = (n / k) * _logaddexp(k * la, k * lb)
    rhs = (n / 2.0) * _logaddexp(2.0 * la, 2.0 * lb)
    return lhs <= rhs + 1e-12 * max(1.0, abs(rhs))


def _logaddexp(x: float, y: float) -> float:
    if x < y:
        x, y = y, x
    return x + math.log1p(math.exp(y - x))


@dataclass(frozen=True)
class TheoryReport:
    """All bound values and condition flags for one parameter point."""

    params: ModelParams
    alpha: float
    beta: float | None
    gamma: float | None
    kl: float
    fano_raw: float
    fano_clamped: float
    impossibility_ratio: float
    nqs: float
    good_prob_bound: float
    conditions: RecoveryConditions | None

    def to_dict(self) -> dict:
        """The fields in order, with ``params`` flattened to n, q, s."""
        out = asdict(self)
        return {**out.pop("params"), **out}


def theory_report(
    n: int,
    q: float,
    s: float,
    alpha: float,
    beta: float | None = None,
    gamma: float | None = None,
) -> TheoryReport:
    """Assemble every evaluator into one report for a parameter point.

    beta and gamma are optional; without them the condition checker and the
    goodness-probability bound are omitted (reported as None / 1.0 cap).
    """
    params = ModelParams(n, q, s)
    kl = kl_divergence(dist_p(params), dist_q(params))
    fano = fano_bound(n, q, s, alpha)
    ratio = impossibility_ratio(n, q, s, alpha)
    check_exponents(beta, gamma)
    if beta is not None:
        conds = recovery_conditions(n, q, s, alpha, beta, gamma)
        gpb = good_prob_bound(n, q, s, alpha, beta, gamma).value if q > 0 else 1.0
    else:
        conds = None
        gpb = 1.0
    return TheoryReport(
        params=params,
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        kl=kl,
        fano_raw=fano.raw,
        fano_clamped=fano.clamped,
        impossibility_ratio=ratio,
        nqs=params.nqs,
        good_prob_bound=gpb,
        conditions=conds,
    )
