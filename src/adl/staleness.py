"""Staleness arithmetic and convergence-bound calculators.

Delay accounting uses exact integer / rational arithmetic (Python ints
and fractions.Fraction); floats appear only in the bound calculators.

Conventions: K modules, module index k in 1..K, accumulation factor
M >= 1, update index s >= 0 (update s+1 moves version s to s+1), and
within-group slot j in 0..M-1.  The gradient accumulated at slot j of
update s+1 in module k comes from data batch M*s + j - 2*(K-k); if that
is negative the slot was skipped during pipeline fill and contributes a
zero gradient.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import DomainError, check_finite_nonneg, check_int, check_pos


def _check_module_args(K, k, M):
    K, k, M = check_int("K", K), check_int("k", k), check_int("M", M)
    if M < 1:
        raise DomainError(f"accumulation factor M must be >= 1, got {M}")
    if K < 1 or not 1 <= k <= K:
        raise DomainError(f"module k must lie in 1..K, got k={k}, K={K}")
    return K, k, M


def steady_staleness(K: int, k: int, M: int, j: int) -> int:
    """Update-count staleness of the j-th gradient of every update s+1 in
    module k, fill slots included: floor((M*s + x)/M) = s + floor(x/M), so
    s - floor((M*s + j - 2*(K-k))/M) = ceil((2*(K-k) - j)/M) for every
    s >= 0, never negative because j < M."""
    K, k, M = _check_module_args(K, k, M)
    j = check_int("j", j)
    if not 0 <= j < M:
        raise DomainError(f"slot j must lie in 0..M-1, got {j}")
    return -((j - 2 * (K - k)) // M)


def effective_version(s: int, j: int, K: int, k: int, M: int) -> int:
    """Parameter version actually used by the j-th gradient of update s+1
    in module k: max(0, s - staleness)."""
    if check_int("s", s) < 0:
        raise DomainError(f"update index s must be >= 0, got {s}")
    return max(0, int(s) - steady_staleness(K, k, M, j))


def averaged_los(K: int, k: int, M: int) -> Fraction:
    """Average staleness over one accumulation group, exact rational: the
    M ceilings steady_staleness(K, k, M, j) sum to 2*(K-k) (Hermite's
    identity), so the average is exactly 2*(K-k)/M."""
    K, k, M = _check_module_args(K, k, M)
    return Fraction(2 * (K - k), M)


def averaged_los_sum(K: int, M: int) -> Fraction:
    """sum_k averaged_los(K, k, M) = K*(K-1)/M, the quantity the bounds
    depend on."""
    if check_int("K", K) < 1:
        raise DomainError(f"number of modules K must be >= 1, got {K}")
    K, _, M = _check_module_args(K, K, M)
    return Fraction(K * (K - 1), M)


def staleness_factor(M, dbar_sum) -> float:
    """1 + dbar_sum / M, the staleness factor of the bounds."""
    M = _check_module_args(1, 1, M)[2]  # an integer >= 1
    dbar_sum = check_finite_nonneg("summed averaged staleness",
                                   float(dbar_sum))
    return 1.0 + dbar_sum / M


def theorem1_rhs(lr: float, grad_norm_sq: float, A: float, L: float,
                 M: int, dbar_sum: float) -> float:
    """Per-update expected descent bound:
    -(lr/2)*||g||^2 + lr^2 * A * L * (1 + dbar_sum/M) / M.

    Negative return value certifies expected descent at this step.
    Requires L*lr <= 1.
    """
    lr = check_finite_nonneg("learning rate", float(lr))
    A = check_pos("A", A)
    L = check_pos("L", L)
    grad_norm_sq = check_finite_nonneg("grad_norm_sq", float(grad_norm_sq))
    if L * lr > 1.0 + 1e-12:
        raise DomainError(f"requires L*lr <= 1, got {L * lr}")
    factor = staleness_factor(M, dbar_sum)
    return -(lr / 2.0) * grad_norm_sq + lr * lr * A * L * factor / M


def theorem2_rhs(lrs, gap: float, A: float, L: float,
                 M: int, dbar_sum: float) -> float:
    """Bound on the minimum expected squared gradient norm over S updates:
    2*gap/T + 2*A*L*(1 + dbar_sum/M) * sum(lr^2) / (M*T),  T = sum(lr).

    lrs is the whole learning-rate sequence (must be non-increasing with
    L*lrs[0] <= 1); gap is f(theta_0) - f*.
    """
    lrs = np.asarray(lrs, dtype=np.float64)
    if lrs.size == 0:
        raise DomainError("learning-rate sequence is empty")
    if np.any(lrs <= 0) or not np.all(np.isfinite(lrs)):
        raise DomainError("learning rates must be positive and finite")
    if np.any(np.diff(lrs) > 1e-15):
        raise DomainError("learning-rate sequence must be non-increasing")
    gap = check_pos("gap", gap)
    A = check_pos("A", A)
    L = check_pos("L", L)
    if L * float(lrs[0]) > 1.0 + 1e-12:
        raise DomainError(f"requires L*lr_0 <= 1, got {L * float(lrs[0])}")
    factor = staleness_factor(M, dbar_sum)
    M = int(M)
    T = float(np.sum(lrs))
    sumsq = float(np.sum(lrs * lrs))
    return 2.0 * gap / T + 2.0 * A * L * factor * sumsq / (M * T)


def _theorem3_args(epsilon, gap, S, A, L, M, dbar_sum):
    """Validated (epsilon, gap, S, A, L, M, staleness factor)."""
    epsilon = check_pos("epsilon", epsilon)
    gap = check_pos("gap", gap)
    S = check_int("S", S)
    if S < 1:
        raise DomainError(f"S must be >= 1, got {S}")
    A = check_pos("A", A)
    L = check_pos("L", L)
    factor = staleness_factor(M, dbar_sum)
    return epsilon, gap, S, A, L, int(M), factor


def theorem3_lr(epsilon: float, gap: float, S: int, A: float, L: float,
                M: int, dbar_sum: float) -> float:
    """Constant learning rate epsilon*sqrt(M*gap / (S*A*L*(1+dbar_sum/M))).

    Returned even when L*lr > 1, where the matching bound does not apply.
    """
    epsilon, gap, S, A, L, M, factor = _theorem3_args(
        epsilon, gap, S, A, L, M, dbar_sum)
    return epsilon * float(np.sqrt(M * gap / (S * A * L * factor)))


def theorem3_bound(epsilon: float, gap: float, S: int, A: float, L: float,
                   M: int, dbar_sum: float) -> float:
    """min_s E||g||^2 bound at the theorem3 rate:
    ((2+2*eps^2)/eps) * sqrt(A*L*gap*(1+dbar_sum/M) / (M*S)).

    Decays as 1/sqrt(M*S); epsilon = 1 minimizes the leading factor.
    """
    epsilon, gap, S, A, L, M, factor = _theorem3_args(
        epsilon, gap, S, A, L, M, dbar_sum)
    return (2.0 + 2.0 * epsilon * epsilon) / epsilon * float(
        np.sqrt(A * L * gap * factor / (M * S)))
