"""The density greedy's stop rules and potential check, and its ratio
certificate.

The rules are tripped by editing the least star the loop finds
(``general._min_star``); the ratio bound is a helper in ``conftest``.
"""

import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import aecover
from aecover import general
from aecover.bounds import omega
from aecover.core import Instance
from aecover.errors import DomainError, OracleViolation
from aecover.general import density_greedy, solve_general
from conftest import greedy_ratio_bound


def one_star():
    # q = 1 and c = 1 at both terminals; the star at v pays 1 and gains 2.
    return Instance.from_data(
        ["t1", "t2", "v"], ["t1", "t2"], [("t1", "v", 1, 1), ("t2", "v", 1, 1)]
    )


def two_stars():
    # The star at a has density 1/2 and covers t1 and t3; the one at b is
    # left with t2 alone, at density 1.
    return Instance.from_data(
        ["a", "b", "t1", "t2", "t3"],
        ["t1", "t2", "t3"],
        [("t1", "a", 1, 1), ("t3", "a", 1, 1), ("t1", "b", 1, 1), ("t2", "b", 1, 1)],
    )


def final_trace(inst):
    for *_, trace in density_greedy(inst):
        pass
    return trace


def edit_picks(monkeypatch, edit):
    """Hand the loop ``edit(star)`` for every least star it finds."""
    real = general._min_star
    monkeypatch.setattr(general, "_min_star", lambda stars: (s := real(stars)) and edit(s))


def test_constant_potential_takes_no_step():
    # The q levels already cover t, so the potential starts at its target.
    trace = final_trace(Instance.from_data(["t", "v"], ["t"], [("t", "v", 1, 0)]))
    assert trace == {"initial_potential": "1", "steps": []}


def test_two_item_tables_take_exactly_one_step(monkeypatch):
    # First star density 1/2, second raised to density 2: accept one, reject
    # the other.
    inst = two_stars()
    b = inst.index["b"]
    edit_picks(monkeypatch, lambda s: (2 * s[1], *s[1:]) if s[2] == b else s)
    steps = final_trace(inst)["steps"]
    assert len(steps) == 1
    assert Fraction(steps[0]["payment"]) == 1
    assert Fraction(steps[0]["potential_after"]) == 4


def test_zero_gain_stops_even_at_zero_payment(monkeypatch):
    edit_picks(monkeypatch, lambda s: (0, 0, *s[2:]))
    assert final_trace(one_star())["steps"] == []


def test_density_exactly_one_accepted():
    steps = final_trace(two_stars())["steps"]
    assert len(steps) == 2
    last = steps[1]
    drop = Fraction(last["potential_before"]) - Fraction(last["potential_after"])
    assert Fraction(last["payment"]) == drop == 1


def test_oracle_violation_detected(monkeypatch):
    edit_picks(monkeypatch, lambda s: (s[0], -s[1], *s[2:]))  # potential would rise
    with pytest.raises(OracleViolation, match="raises potential"):
        final_trace(one_star())


def test_mispredicted_potential_detected(monkeypatch):
    # The star claims a gain of 3 from potential 4; covering two terminals
    # of c = 1 drops it by 2 only.
    edit_picks(monkeypatch, lambda s: (s[0], s[1] + 1, *s[2:]))
    with pytest.raises(OracleViolation, match="predicted potential 1, got 2"):
        solve_general(one_star())


def test_potential_check_survives_optimize_flag():
    # Under python -O every assert is gone; the check must still raise.
    code = (
        "from aecover import general\n"
        "from aecover.core import Instance\n"
        "from aecover.errors import OracleViolation\n"
        "real = general._min_star\n"
        "general._min_star = lambda stars: (s := real(stars)) and (s[0], s[1] + 1, *s[2:])\n"
        "inst = Instance.from_data(\n"
        "    ['t1', 't2', 'v'], ['t1', 't2'], [('t1', 'v', 1, 1), ('t2', 'v', 1, 1)]\n"
        ")\n"
        "try:\n"
        "    general.solve_general(inst)\n"
        "except OracleViolation:\n"
        "    raise SystemExit(7)\n"
    )
    src = os.path.dirname(os.path.dirname(aecover.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env)
    assert done.returncode == 7


def test_trace_doc_round_trips_exact_values():
    # q = 1/2 and c = 1/3 at t; the star at v pays 1/3 for the whole c.
    inst = Instance.from_data(["t", "v"], ["t"], [("t", "v", Fraction(1, 2), Fraction(1, 3))])
    doc = solve_general(inst).trace
    assert Fraction(doc["initial_potential"]) == Fraction(5, 6)
    assert [Fraction(s["payment"]) for s in doc["steps"]] == [Fraction(1, 3)]
    assert Fraction(doc["steps"][0]["potential_after"]) == Fraction(1, 2)


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
