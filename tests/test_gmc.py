"""The generic density greedy and its ratio certificate."""

import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import aecover
from aecover.bounds import omega
from aecover.errors import DomainError, OracleViolation
from aecover.gmc import Augmentation, gmc_greedy, greedy_ratio_bound, trace_payment_bound


class TableProblem:
    """Scripted problem: a list of (payment, gain) items offered in order."""

    def __init__(self, start: Fraction, target: Fraction, items):
        self.start = Fraction(start)
        self._target = Fraction(target)
        self.items = [(Fraction(p), Fraction(g)) for p, g in items]

    def initial_state(self):
        return (self.start, 0)

    def potential(self, state):
        return state[0]

    def target(self):
        return self._target

    def best_augmentation(self, state):
        nu, i = state
        if i >= len(self.items):
            return None
        payment, gain = self.items[i]
        return Augmentation(payload=i, payment=payment, predicted_potential=nu - gain)

    def apply(self, state, aug):
        nu, i = state
        payment, gain = self.items[i]
        return (nu - gain, i + 1)


def test_constant_potential_takes_no_step():
    problem = TableProblem(5, 5, [(1, 1)])
    state, trace = gmc_greedy(problem)
    assert trace.steps == [] and trace.initial_potential == 5


def test_two_item_tables_take_exactly_one_step():
    # First item density 1/2, second density 2: accept one, reject the other.
    problem = TableProblem(10, 0, [(1, 2), (2, 1)])
    state, trace = gmc_greedy(problem)
    assert len(trace.steps) == 1
    assert trace.steps[0].payment == 1
    assert trace.final_potential == 8


def test_zero_gain_stops_even_at_zero_payment():
    problem = TableProblem(10, 0, [(0, 0), (1, 2)])
    state, trace = gmc_greedy(problem)
    assert trace.steps == []


def test_density_exactly_one_accepted():
    problem = TableProblem(3, 0, [(1, 1), (2, 2)])
    _, trace = gmc_greedy(problem)
    assert len(trace.steps) == 2


def test_oracle_violation_detected():
    problem = TableProblem(5, 0, [(1, -1)])  # potential would increase
    with pytest.raises(OracleViolation):
        gmc_greedy(problem)


def test_mispredicted_potential_detected():
    # The applied state lands one unit below the predicted potential.
    class Mispredicting(TableProblem):
        def apply(self, state, aug):
            nu, i = super().apply(state, aug)
            return (nu - 1, i)

    with pytest.raises(OracleViolation, match="predicted potential 4, got 3"):
        gmc_greedy(Mispredicting(5, 0, [(1, 1)]))


def test_potential_check_survives_optimize_flag():
    # Under python -O every assert is gone; the check must still raise.
    code = (
        "from fractions import Fraction\n"
        "from aecover.errors import OracleViolation\n"
        "from aecover.gmc import Augmentation, gmc_greedy\n"
        "class P:\n"
        "    def initial_state(self): return Fraction(5)\n"
        "    def potential(self, s): return s\n"
        "    def target(self): return Fraction(0)\n"
        "    def best_augmentation(self, s): return Augmentation(None, Fraction(1), s - 1)\n"
        "    def apply(self, s, a): return s - 2\n"
        "try:\n"
        "    gmc_greedy(P())\n"
        "except OracleViolation:\n"
        "    raise SystemExit(7)\n"
    )
    src = os.path.dirname(os.path.dirname(aecover.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env)
    assert done.returncode == 7


def test_trace_doc_round_trips_exact_values():
    problem = TableProblem(Fraction(7, 2), 0, [(Fraction(1, 3), 1), (1, 1)])
    _, trace = gmc_greedy(problem)
    doc = trace.to_doc()
    assert Fraction(doc["initial_potential"]) == Fraction(7, 2)
    assert [Fraction(s["payment"]) for s in doc["steps"]] == [Fraction(1, 3), 1]


class TestRatioBound:
    def test_log_of_one_gives_one(self):
        assert greedy_ratio_bound(Fraction(5), Fraction(3), Fraction(2)) == 1.0

    def test_unit_payment_e_spread(self):
        # tau*=1, nu*=0, nu0=e: 1 + (1/1)*ln(e) = 2.
        nu0 = Fraction(math.e).limit_denominator(10**12)
        bound = greedy_ratio_bound(nu0, Fraction(0), Fraction(1))
        assert bound == pytest.approx(2.0, abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            greedy_ratio_bound(Fraction(2), Fraction(1), Fraction(0))
        with pytest.raises(DomainError):
            greedy_ratio_bound(Fraction(1), Fraction(2), Fraction(1))

    @pytest.mark.parametrize("theta", [Fraction(3), Fraction(10), Fraction(1, 2)])
    def test_sweep_reproduces_omega(self, theta):
        # With nu* = Q and nu0 = (1+theta)Q, the bound maximized over the
        # optimum's payment share tau* equals 1 + omega(theta).
        q = Fraction(1)
        nu0 = (1 + theta) * q
        best = 0.0
        steps = 4000
        for i in range(1, steps):
            tau = theta * q * Fraction(i, steps)
            best = max(best, greedy_ratio_bound(nu0, q, tau))
        assert best == pytest.approx(1 + omega(theta), abs=1e-5)


def test_trace_payment_bound_consistency():
    problem = TableProblem(10, 1, [(1, 3), (2, 4), (1, 2)])
    _, trace = gmc_greedy(problem)
    # Any (nu*, tau*) pair with nu0 > nu* + tau* yields a finite bound; the
    # greedy's actual payment respects it when steps satisfy the density cap
    # relative to that optimum, which trivially holds for tau* >= total.
    total = trace.total_payment()
    bound = trace_payment_bound(trace, Fraction(1), total)
    assert float(total) <= bound + 1e-9
