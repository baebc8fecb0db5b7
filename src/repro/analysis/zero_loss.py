"""Zero-loss theory (Appendix B of the paper).

Closed-form expressions for the expected gain and punishment of a coalition
attack, the zero-loss condition ``g(a, b, rho, m) >= 0`` (Theorem .5), the
minimum finalization blockdepth, the maximum tolerated attack probability and
the branch bound ``a <= (n - (f - q)) / (ceil(2n/3) - (f - q))``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from repro.common.errors import ConfigurationError
from repro.common.types import quorum_size


def _check_probability(rho: float) -> None:
    if not 0.0 <= rho <= 1.0:
        raise ConfigurationError(f"probability must be in [0, 1], got {rho}")


def expected_gain(a: int, gain: float, rho: float, m: int) -> float:
    """Expected attacker gain per attempt: ``(a - 1) * rho^(m+1) * G``.

    The attack only pays off when it stays undetected for the whole
    finalization window of ``m`` blocks (probability ``rho^(m+1)``), in which
    case the attacker double-spends the per-block gain ``G`` on each of the
    ``a - 1`` extra branches.
    """
    _check_probability(rho)
    if a < 1:
        raise ConfigurationError("the number of branches must be at least 1")
    if m < 0:
        raise ConfigurationError("blockdepth cannot be negative")
    return (a - 1) * (rho ** (m + 1)) * gain


def expected_punishment(deposit: float, rho: float, m: int) -> float:
    """Expected punishment per attempt: ``(1 - rho^(m+1)) * D``."""
    _check_probability(rho)
    if m < 0:
        raise ConfigurationError("blockdepth cannot be negative")
    return (1 - rho ** (m + 1)) * deposit


def g_function(a: int, b: float, rho: float, m: int) -> float:
    """``g(a, b, rho, m) = (1 - rho^(m+1)) b - (a - 1) rho^(m+1)`` (Thm .5).

    ZLB is a zero-loss payment system iff this is non-negative.
    """
    _check_probability(rho)
    if a < 1:
        raise ConfigurationError("the number of branches must be at least 1")
    if b <= 0:
        raise ConfigurationError("the deposit factor b must be positive")
    if m < 0:
        raise ConfigurationError("blockdepth cannot be negative")
    escape = rho ** (m + 1)
    return (1 - escape) * b - (a - 1) * escape


def minimum_blockdepth(a: int, b: float, rho: float, max_m: int = 100_000) -> int:
    """Smallest finalization blockdepth ``m`` with ``g(a, b, rho, m) >= 0``.

    The closed form is ``m >= log(c) / log(rho) - 1`` with ``c = b / (a-1+b)``;
    the function returns the smallest integer satisfying it (0 when even
    ``m = 0`` suffices).  ``rho = 1`` is only tolerable when ``a = 1``.
    """
    _check_probability(rho)
    if a < 1:
        raise ConfigurationError("the number of branches must be at least 1")
    if b <= 0:
        raise ConfigurationError("the deposit factor b must be positive")
    if a == 1 or rho == 0.0:
        return 0
    if rho >= 1.0:
        raise ConfigurationError(
            "no finite blockdepth yields zero loss when the attack always succeeds"
        )
    c = b / (a - 1 + b)
    # Solve rho^(m+1) <= c.
    m_real = math.log(c) / math.log(rho) - 1
    m = max(0, math.ceil(m_real))
    # Guard against floating point edge cases right at the boundary.
    while g_function(a, b, rho, m) < 0 and m <= max_m:
        m += 1
    return m


def theoretical_blockdepth_curve(
    deposit_factor: float = 0.1,
    branches: int = 3,
    probabilities: Sequence[float] = (0.1, 0.3, 0.5, 0.55, 0.7, 0.9),
) -> List[Dict[str, float]]:
    """Pure-theory companion curve of Fig. 6: m as a function of rho."""
    return [
        {
            "rho": rho,
            "min_blockdepth": minimum_blockdepth(branches, deposit_factor, rho),
        }
        for rho in probabilities
    ]


def tolerated_attack_probability(a: int, b: float, m: int) -> float:
    """Largest ``rho`` such that ``g(a, b, rho, m) >= 0``: ``c^(1/(m+1))``."""
    if a < 1:
        raise ConfigurationError("the number of branches must be at least 1")
    if b <= 0:
        raise ConfigurationError("the deposit factor b must be positive")
    if m < 0:
        raise ConfigurationError("blockdepth cannot be negative")
    if a == 1:
        return 1.0
    c = b / (a - 1 + b)
    return c ** (1.0 / (m + 1))


def branch_bound(n: int, deceitful: int, benign: int = 0) -> int:
    """Maximum number of branches ``a <= (n - d) / (ceil(2n/3) - d)`` ([57], §B).

    ``d = f - q`` is the number of deceitful replicas.  When the denominator is
    not positive the coalition already controls a quorum; the bound degenerates
    to the number of honest replicas (every honest replica on its own branch).
    """
    if n <= 0:
        raise ConfigurationError("committee size must be positive")
    if deceitful < 0 or benign < 0 or deceitful + benign > n:
        raise ConfigurationError("invalid fault counts")
    denominator = quorum_size(n) - deceitful
    honest = n - deceitful - benign
    if denominator <= 0:
        return max(1, honest)
    return max(1, math.floor((n - deceitful) / denominator))


def attack_success_probability(
    disagreements: int, attempts: int, laplace_smoothing: bool = True
) -> float:
    """Estimate the per-block attack success probability ``rho`` from a run.

    ``disagreements`` counts consensus instances on which the attack produced
    conflicting decisions out of ``attempts`` attacked instances.  Laplace
    smoothing keeps the estimate away from the degenerate 0/1 endpoints so the
    blockdepth formulas stay finite (matching how the paper derives Fig. 6
    from measured disagreement frequencies).
    """
    if attempts < 0 or disagreements < 0 or disagreements > attempts:
        raise ConfigurationError("invalid disagreement counts")
    if laplace_smoothing:
        return (disagreements + 1) / (attempts + 2)
    if attempts == 0:
        return 0.0
    return disagreements / attempts
