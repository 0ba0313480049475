"""Closed-form bound functions and constants used in ratio certificates.

``omega(theta)`` is the unique real root of ``x + 1 = ln(theta/x)``;
``omega_bar(theta)`` is ``max_k (H_k - 1)/(1 + k/theta)``, attained at the
smallest ``k`` with ``H_k >= 2 + (theta-1)/(k+1)``.  Both approach
``ln(theta) - lnln(theta)`` as theta grows (slowly; see the table), and
``omega_bar < omega`` everywhere.  Constants that are plain fractions
(73/60, 67/360, 1555/1347, the k-set-cover quality table) are kept exact;
floats appear only at the reporting boundary.  ``omega`` and ``omega_bar``
are memoized per slope (and cap): a solver asks for them once per solve, and a
bench pass meets only a few distinct slopes.
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction
from typing import Mapping, Optional, Union

from .errors import DomainError

ThetaLike = Union[int, float, Fraction]

# Exact harmonic sums beyond this index are pointless for bound reporting and
# expensive (denominators grow like e^k); continue the scan in floats.
_EXACT_SCAN_LIMIT = 2048

_EULER_GAMMA = 0.5772156649015329

# Distinct (slope, cap) pairs whose omega or omega_bar value is kept.
_SLOPE_CACHE_SIZE = 1024

#: Best known k-set-cover approximation guarantees for small k.
ALPHA_K: dict[int, Fraction] = {
    1: Fraction(1),
    2: Fraction(1),
    3: Fraction(4, 3),
    4: Fraction(73, 48),
    5: Fraction(26, 15),
    6: Fraction(28, 15),
    7: Fraction(212, 105),
}

def rho_from_alphas(alphas: dict[int, Fraction]) -> Fraction:
    """Evaluate (7*a6 - sigma)/(6*a6 - sigma + 1) for a quality table."""
    sigma = sum((alphas[k] for k in range(1, 6)), Fraction(0))
    return (7 * alphas[6] - sigma) / (6 * alphas[6] - sigma + 1)


#: Guarantee of the multi-phase unit-threshold solver, whose finishes stay
#: within the k-set-cover quality table ALPHA_K for every k <= 6.
RHO: Fraction = rho_from_alphas(ALPHA_K)

#: Guarantee of the unit-threshold solver using only the exact 2-set-cover phase.
A1_RATIO: Fraction = 1 + Fraction(67, 360)


def harmonic(k: int) -> Fraction:
    """Exact k-th harmonic number."""
    if k < 1:
        raise DomainError(f"harmonic needs k >= 1, got {k}")
    return sum((Fraction(1, i) for i in range(1, k + 1)), Fraction(0))


def _harmonic_float(k: int) -> float:
    # Asymptotic expansion; error below 1/(120 k^4).
    return math.log(k) + _EULER_GAMMA + 1.0 / (2 * k) - 1.0 / (12 * k * k)


def _theta_fraction(theta: ThetaLike) -> Fraction:
    """The slope as a Fraction; DomainError unless it is positive."""
    try:
        f = Fraction(theta)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"not a valid slope: {theta!r}") from exc
    if f <= 0:
        raise DomainError(f"slope must be positive, got {f}")
    return f


def _float_slope(t: Fraction) -> float:
    """The slope as a float, for the float parts of the bounds; DomainError
    beyond the largest float."""
    if t > sys.float_info.max:
        raise DomainError("slope beyond the float range the bounds are computed in")
    return float(t)


def _memoized_per_slope(fn):
    """``fn(theta, *args)`` memoized on the slope as :func:`_theta_fraction`
    reads it, so 2, 2.0 and Fraction(2) share one entry.  An infinite slope is
    kept as itself, for ``fn`` to accept or refuse.  A slope that is not valid
    raises DomainError before the cache is asked, and a call that raises
    stores nothing.  ``__wrapped__`` is the uncached ``fn``."""
    cached = functools.lru_cache(maxsize=_SLOPE_CACHE_SIZE)(fn)

    @functools.wraps(fn)
    def memoized(theta, *args, **kwargs):
        slope = theta if theta == math.inf else _theta_fraction(theta)
        return cached(slope, *args, **kwargs)

    return memoized


def _needed(t: Union[Fraction, float], k: int) -> Union[Fraction, float]:
    """2 + (t-1)/(k+1): k_theta is the smallest k whose H_k reaches it."""
    return 2 + (t - 1) / (k + 1)


@_memoized_per_slope
def omega(theta: ThetaLike) -> float:
    """Root of x + 1 = ln(theta/x), by bisection on the bracketing interval;
    memoized per slope."""
    if theta == math.inf:
        raise DomainError("omega is undefined for infinite slope")
    t = _float_slope(_theta_fraction(theta))

    def resid(x: float) -> float:
        return x + 1.0 - math.log(t / x)

    hi = lo = t  # resid(t) = t + 1 > 0
    while lo and resid(lo) > 0:
        lo /= 2.0
    if not lo:
        raise DomainError("slope below the float range omega is computed in")
    for _ in range(200):
        mid = (lo + hi) / 2.0
        r = resid(mid)
        if abs(r) < 1e-13:
            return mid
        if r > 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2.0


def k_theta(theta: ThetaLike) -> int:
    """Smallest k with H_k >= 2 + (theta-1)/(k+1)."""
    return _capped_k_theta(_theta_fraction(theta), None)


def _capped_k_theta(t: Fraction, cap: Optional[int]) -> int:
    """min(k_theta, cap) for the slope ``t``; no cap when ``cap`` is None.

    The condition is monotone in k for every t > 0: the step from k to k+1
    adds (k + 1 + t)/((k+1)(k+2)) > 0 to H_k - 2 - (t-1)/(k+1).  So the scan
    may stop at the cap, and a cap within the exact scan needs no float, nor
    a slope that fits one.  k is scanned exactly up to ``_EXACT_SCAN_LIMIT``;
    past it, doubling, then bisection on float harmonic numbers, finds k in
    O(log k) steps.
    """
    exact_only = cap is not None and cap <= _EXACT_SCAN_LIMIT
    if not exact_only:
        tf = _float_slope(t)  # no k within the exact scan serves a slope this large
    h = Fraction(0)
    for k in range(1, (cap if exact_only else _EXACT_SCAN_LIMIT) + 1):
        h += Fraction(1, k)
        if h >= _needed(t, k):
            return k
    if exact_only:
        return cap

    def holds(k: int) -> bool:
        return _harmonic_float(k) >= _needed(tf, k)

    lo, hi = _EXACT_SCAN_LIMIT, 2 * _EXACT_SCAN_LIMIT
    while not holds(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi if cap is None else min(hi, cap)


def g_value(theta: ThetaLike, k: int) -> Union[Fraction, float]:
    """The truncated-maximum summand theta*(H_k - 1)/(theta + k)."""
    t = _theta_fraction(theta)
    if k < 1:
        raise DomainError(f"g needs k >= 1, got {k}")
    if k <= _EXACT_SCAN_LIMIT:
        return t * (harmonic(k) - 1) / (t + k)
    tf = _float_slope(t)
    return tf * (_harmonic_float(k) - 1.0) / (tf + k)


@_memoized_per_slope
def omega_bar(theta: ThetaLike, delta_cap: Optional[int] = None) -> Union[Fraction, float]:
    """max over 1 <= k <= cap of (H_k - 1)/(1 + k/theta).

    Exact Fraction whenever the maximizing k is small; float for the huge-theta
    regime.  With ``delta_cap`` the maximum is truncated at the cap.  Infinite
    slope is allowed only with a cap, where the value degenerates to H_cap - 1.
    Memoized per slope and cap.
    """
    if theta == math.inf:
        if delta_cap is None:
            raise DomainError("omega_bar needs a cap when the slope is infinite")
        if delta_cap < 1:
            raise DomainError(f"cap must be >= 1, got {delta_cap}")
        return harmonic(delta_cap) - 1
    if delta_cap is not None and delta_cap < 1:
        raise DomainError(f"cap must be >= 1, got {delta_cap}")
    return g_value(theta, _capped_k_theta(_theta_fraction(theta), delta_cap))


# ---------------------------------------------------------------------------
# Bound table reporting

TABLE1_THETAS: tuple[int, ...] = (1, 2, 3, 4, 5, 10, 100, 1000, 10000, 10**6)

TABLE1_ROWS: tuple[str, ...] = (
    "1+omega",
    "1+omega_bar",
    "ln(theta)-lnln(theta)",
    "1+ln(theta+1)",
)


def bound_row(theta: ThetaLike) -> dict[str, Optional[float]]:
    t = _float_slope(_theta_fraction(theta))
    lnln = math.log(t) - math.log(math.log(t)) if t > 1 else None
    return {
        "1+omega": 1.0 + omega(theta),
        "1+omega_bar": 1.0 + float(omega_bar(theta)),
        "ln(theta)-lnln(theta)": lnln,
        "1+ln(theta+1)": 1.0 + math.log(t + 1.0),
    }


def table1(
    thetas: tuple[ThetaLike, ...] = TABLE1_THETAS,
) -> dict[str, tuple[Optional[float], ...]]:
    """Each row of :data:`TABLE1_ROWS` at every slope of ``thetas``."""
    cols = [bound_row(t) for t in thetas]
    return {name: tuple(col[name] for col in cols) for name in TABLE1_ROWS}


def format_bound_up(x: float, decimals: int = 4) -> str:
    """Round a ratio upper bound upward at the given precision.

    Bound tables never understate a guarantee, so the last digit is a ceiling
    (a tiny slack absorbs float representation noise).
    """
    scale = 10**decimals
    return f"{math.ceil(x * scale - 1e-9) / scale:.{decimals}f}"


def render_table(
    thetas: tuple[ThetaLike, ...], rows: Mapping[str, tuple[Optional[float], ...]]
) -> str:
    """The rows of :func:`table1` under a header of their slopes."""
    width = 12
    head = "theta".ljust(22) + "".join(str(t).rjust(width) for t in thetas)
    lines = [head]
    for name in TABLE1_ROWS:
        cells = [
            ("-" if x is None else format_bound_up(x)).rjust(width)
            for x in rows[name]
        ]
        lines.append(name.ljust(22) + "".join(cells))
    return "\n".join(lines)
