"""Bound functions and constants against the published numbers.

The printed table rounds every entry UP at four decimals (they are ratio
upper bounds), so reproduction asserts the ceiling of each computed value
equals the printed digits.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from aecover.bounds import (
    A1_RATIO,
    ALPHA_K,
    RHO,
    TABLE1_THETAS,
    format_bound_up,
    g_value,
    harmonic,
    k_theta,
    omega,
    omega_bar,
    rho_from_alphas,
    table1,
)
from aecover.errors import DomainError
from conftest import setcover_greedy_bound, unit_a1_constant

# Printed table entries, row by row (the theta=1 entry of the third row is
# printed as "-").
PRINTED_TABLE = {
    "1+omega": ("1.2785", "1.4631", "1.6036", "1.7179", "1.8146",
                "2.1569", "3.6360", "5.4214", "7.3603", "11.4673"),
    "1+omega_bar": ("1.2167", "1.3667", "1.4834", "1.5800", "1.6637",
                    "1.9645", "3.3428", "5.0808", "6.9967", "11.0820"),
    "ln(theta)-lnln(theta)": (None, "1.0597", "1.0046", "1.0597", "1.1336",
                              "1.4686", "3.0780", "4.9752", "6.9901", "11.1898"),
    "1+ln(theta+1)": ("1.6932", "2.0987", "2.3863", "2.6095", "2.7918",
                      "3.3979", "5.6152", "7.9088", "10.2105", "14.8156"),
}


class TestHarmonic:
    def test_exact_values(self):
        assert harmonic(1) == 1
        assert harmonic(3) == Fraction(11, 6)
        assert harmonic(4) == Fraction(25, 12)
        assert harmonic(5) == Fraction(137, 60)

    def test_domain(self):
        with pytest.raises(DomainError):
            harmonic(0)


class TestOmega:
    def test_defining_equation_residual(self):
        for i in range(50):
            theta = 10 ** (-1 + 7 * i / 49)  # log-spaced over [0.1, 1e6]
            x = omega(theta)
            assert abs(x + 1 - math.log(theta / x)) < 1e-12

    def test_reference_values(self):
        assert 1 + omega(1) == pytest.approx(1.2785, abs=5e-5)
        assert 1 + omega(100) == pytest.approx(3.6360, abs=1e-4)
        assert 1 + omega(1) < 1.2785 + 5e-5

    def test_domain(self):
        with pytest.raises(DomainError):
            omega(0)
        with pytest.raises(DomainError):
            omega(-2)


class TestOmegaBar:
    def test_theta_one_exact(self):
        assert k_theta(1) == 4
        assert harmonic(3) < 2 < harmonic(4)
        assert omega_bar(1) == Fraction(13, 60)
        assert 1 + omega_bar(1) == Fraction(73, 60)

    def test_theta_ten(self):
        assert 1 + float(omega_bar(10)) == pytest.approx(1.9645, abs=1e-4)

    def test_smaller_than_omega_everywhere(self):
        for theta in TABLE1_THETAS:
            assert float(omega_bar(theta)) < omega(theta)

    def test_delta_cap_truncates(self):
        # k_theta(1) = 4, so capping below truncates and capping above does not.
        assert omega_bar(1, delta_cap=2) == g_value(1, 2)
        assert omega_bar(1, delta_cap=10) == Fraction(13, 60)

    def test_infinite_slope_needs_cap(self):
        assert omega_bar(math.inf, delta_cap=4) == harmonic(4) - 1
        with pytest.raises(DomainError):
            omega_bar(math.inf)

    def test_g_recurrence_argmax_matches_k_theta(self):
        rng = random.Random(11)
        for _ in range(100):
            theta = Fraction(rng.randint(1, 400), rng.randint(1, 40))
            kt = k_theta(theta)
            scan_to = kt + 20
            values = [g_value(theta, k) for k in range(1, scan_to + 1)]
            argmax = 1 + max(range(scan_to), key=lambda i: (values[i], -i))
            assert argmax == kt
            # The difference sign matches 2 - H_k + (theta-1)/(k+1).
            for k in range(1, scan_to):
                diff = values[k] - values[k - 1]
                sign = 2 - harmonic(k) + (theta - 1) / (k + 1)
                assert (diff > 0) == (sign > 0) and (diff == 0) == (sign == 0)


def _reference_k_theta(theta) -> int:
    """The former k_theta, kept as the reference: past the exact scan it
    walks k one step at a time on a running float harmonic sum."""
    t = Fraction(theta)
    h = Fraction(0)
    k = 0
    while k < 2048:
        k += 1
        h += Fraction(1, k)
        if h >= 2 + (t - 1) / (k + 1):
            return k
    hf, tf = float(h), float(t)
    while True:
        k += 1
        hf += 1.0 / k
        if hf >= 2.0 + (tf - 1.0) / (k + 1):
            return k


class TestKTheta:
    def test_matches_reference_past_the_exact_scan(self):
        rng = random.Random(8)
        slopes = [10**4, 12345, 10**5, 10**6, Fraction(10**6, 7), 2 * 10**6]
        slopes += [rng.randint(10**4, 2 * 10**6) for _ in range(10)]
        for theta in slopes:
            assert k_theta(theta) == _reference_k_theta(theta), theta
        assert k_theta(10**6) > 2048

    def test_matches_reference_inside_the_exact_scan(self):
        for theta in (Fraction(1, 3), 1, 2, 10, 1000, 9999):
            assert k_theta(theta) == _reference_k_theta(theta), theta

    def test_huge_slope_in_bounded_time(self):
        start = time.perf_counter()
        k = k_theta(10**30)
        assert time.perf_counter() - start < 1.0
        h = math.log(k) + 0.5772156649015329 + 1 / (2 * k)
        assert h >= 2 + (1e30 - 1) / (k + 1)
        assert h - 1 / k < 2 + (1e30 - 1) / k

    @pytest.mark.parametrize("fn", [k_theta, omega, omega_bar])
    def test_slope_beyond_float_range_is_a_domain_error(self, fn):
        with pytest.raises(DomainError):
            fn(Fraction(10) ** 400)

    def test_capped_omega_bar_takes_a_slope_beyond_float_range(self):
        # The condition fails at the cap, so k_theta, which needs a float
        # slope, is never asked; g_value is exact at k = 2.
        huge = Fraction(10) ** 4000
        assert omega_bar(huge, delta_cap=2) == g_value(huge, 2) == huge / (2 * (huge + 2))
        with pytest.raises(DomainError):
            g_value(huge, 4096)

    def test_capped_omega_bar_matches_k_theta(self):
        rng = random.Random(5)
        for _ in range(200):
            theta = Fraction(rng.randint(1, 4000), rng.randint(1, 40))
            cap = rng.randint(1, 60)
            assert omega_bar(theta, delta_cap=cap) == g_value(theta, min(k_theta(theta), cap))

    def test_slope_below_float_range_is_a_domain_error_for_omega(self):
        with pytest.raises(DomainError):
            omega(Fraction(1, 10**400))
        # The exact bounds still take it.
        assert k_theta(Fraction(1, 10**400)) == 3


class TestMemoizedBounds:
    @pytest.mark.parametrize("theta", [2, Fraction(2), 2.0, Fraction(7, 3), 1000])
    def test_same_value_as_uncached(self, theta):
        for _ in range(2):  # a miss, then a hit
            assert omega(theta) == omega.__wrapped__(theta)
            assert omega_bar(theta) == omega_bar.__wrapped__(theta)
            assert omega_bar(theta, delta_cap=2) == omega_bar.__wrapped__(theta, delta_cap=2)
            assert omega_bar(theta, 3) == omega_bar.__wrapped__(theta, 3)

    def test_equal_slopes_share_one_value(self):
        assert omega(2) == omega(Fraction(2)) == omega(2.0)
        assert omega_bar(2) == omega_bar(Fraction(2)) == omega_bar(2.0) == Fraction(11, 30)

    @pytest.mark.parametrize("theta", [[1], "x", 0, -1, math.nan, -math.inf])
    def test_bad_slope_raises_on_every_call(self, theta):
        for _ in range(3):
            with pytest.raises(DomainError):
                omega(theta)
            with pytest.raises(DomainError):
                omega_bar(theta)
            with pytest.raises(DomainError):
                omega_bar(theta, delta_cap=3)

    def test_infinite_slope_is_refused_or_capped_on_every_call(self):
        for _ in range(3):
            with pytest.raises(DomainError):
                omega(math.inf)
            with pytest.raises(DomainError):
                omega_bar(math.inf)
            with pytest.raises(DomainError):
                omega_bar(math.inf, delta_cap=0)
            assert omega_bar(math.inf, delta_cap=4) == harmonic(4) - 1

    def test_a_count_or_cap_below_one_is_refused(self):
        with pytest.raises(DomainError, match="^g needs k >= 1, got 0$"):
            g_value(2, 0)
        with pytest.raises(DomainError, match="^cap must be >= 1, got 0$"):
            omega_bar(2, delta_cap=0)


# Sum of the first five quality values, the sigma of rho_from_alphas.
SIGMA = sum((ALPHA_K[k] for k in range(1, 6)), Fraction(0))


class TestConstants:
    def test_alpha_table_and_rho(self):
        assert SIGMA == Fraction(1581, 240)
        assert RHO == Fraction(1555, 1347)
        assert RHO == 1 + Fraction(208, 1347)
        assert rho_from_alphas(ALPHA_K) == RHO
        assert Fraction(8, 7) < RHO < Fraction(7, 6)

    def test_unit_a1_constant(self):
        value, argmax = unit_a1_constant(100)
        assert value == Fraction(67, 360)
        assert argmax == 5
        assert A1_RATIO == Fraction(427, 360)


class TestSetcoverBound:
    def test_double_evaluation(self):
        n, tau, m = 1000, 10, 10
        direct = setcover_greedy_bound(n, tau, m)
        slope = Fraction(n * m, tau)
        assert direct == pytest.approx(
            1.0 + float(omega_bar(slope)) * (1 + 1 / m), abs=1e-12
        )

    def test_limit_structure_over_m(self):
        # The (1 + 1/M) factor shrinks toward 1 as M grows.
        n, tau = 1000, 10
        factors = [
            setcover_greedy_bound(n, tau, m) - 1 - float(omega_bar(Fraction(n * m, tau)))
            for m in (1, 2, 5, 10, 100)
        ]
        assert all(f >= -1e-12 for f in factors)
        assert factors == sorted(factors, reverse=True)

    def test_n_equals_tau(self):
        assert setcover_greedy_bound(10, 10, 5) >= 1

    def test_domain(self):
        with pytest.raises(DomainError):
            setcover_greedy_bound(0, 1, 1)


class TestTable1:
    def test_matches_printed_entries(self):
        table = table1()
        for row, printed in PRINTED_TABLE.items():
            for value, want in zip(table[row], printed):
                if want is None:
                    assert value is None
                    continue
                assert value is not None
                assert format_bound_up(value) == want
                assert abs(value - float(want)) < 1e-4

    def test_theta_one_lnln_undefined(self):
        table = table1()
        assert table["ln(theta)-lnln(theta)"][0] is None
