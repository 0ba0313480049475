"""Report objects: certification checks, violations, canonical payloads."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import aecover
from aecover.core import Instance
from aecover.errors import IncompleteCover
from aecover.report import BenchReport, SolveReport, ratio_within, solve_report
from conftest import assignment_of


def make_report(value, bound, exact=None) -> SolveReport:
    return SolveReport(
        instance_digest="d" * 64,
        algorithm="general",
        assignment=assignment_of({"a": value}),
        value=Fraction(value),
        theta=Fraction(1),
        delta=2,
        claimed_bound=bound,
        bound_label="test",
        exact_value=None if exact is None else Fraction(exact),
    )


def test_ratio_within_handles_both_bound_kinds():
    assert ratio_within(Fraction(73, 60), Fraction(73, 60))
    assert not ratio_within(Fraction(74, 60), Fraction(73, 60))
    assert ratio_within(Fraction(1), 1.2785)
    assert ratio_within(Fraction(3, 2), None)


def test_certified_flags():
    assert make_report(5, Fraction(2)).certified()  # no exact value attached
    assert make_report(5, Fraction(2), exact=4).certified()
    assert not make_report(9, Fraction(2), exact=4).certified()
    zero_opt = make_report(0, Fraction(2), exact=0)
    assert zero_opt.empirical_ratio == 1
    bad_zero = make_report(1, Fraction(2), exact=0)
    assert bad_zero.empirical_ratio is None and not bad_zero.certified()


def test_wall_time_never_serialized():
    doc = make_report(5, Fraction(2), exact=4).to_doc()
    assert "wall_time" not in json.dumps(doc)
    assert doc["empirical_ratio"] == "1.2500"
    assert doc["theta"] == "1"


def test_infinite_theta_serialized_as_inf():
    report = make_report(5, None)
    report.theta = math.inf
    assert report.to_doc()["theta"] == "inf"


def test_bench_report_records_violations_and_orders_entries():
    bench = BenchReport(family="unit", seed_start=0, seed_end=1, algorithms=("a",))
    good = make_report(4, Fraction(2), exact=4)
    bad = make_report(9, Fraction(2), exact=4)
    bench.add_entry(1, "x" * 64, Fraction(4), {"a": good})
    bench.add_entry(0, "y" * 64, Fraction(4), {"a": bad})
    assert not bench.ok()
    assert bench.violations == [
        {
            "seed": 0,
            "algorithm": "a",
            "value": "9",
            "exact_value": "4",
            "claimed_bound": "2.0000",
        }
    ]
    doc = bench.to_doc()
    assert [e["seed"] for e in doc["entries"]] == [0, 1]
    assert doc["aggregates"]["a"]["max_ratio"] == "2.2500"
    assert doc["aggregates"]["a"]["mean_ratio"] == "1.6250"


def test_bench_aggregates_use_each_reports_empirical_ratio():
    # A zero optimum counts as ratio 1 only when the value is zero too; an
    # entry without a ratio is left out of the aggregates.
    bench = BenchReport(family="unit", seed_start=0, seed_end=3, algorithms=("a", "b"))
    for seed, value, exact in ((0, 0, 0), (1, 3, 0), (2, 6, 4)):
        bench.add_entry(seed, "x" * 64, Fraction(exact), {"a": make_report(value, None, exact)})
    bench.add_entry(3, "x" * 64, None, {"a": make_report(5, None), "b": make_report(5, None)})
    assert bench.to_doc()["aggregates"] == {
        "a": {"instances": 2, "max_ratio": "1.5000", "mean_ratio": "1.2500"}
    }


def test_solve_report_reads_levels_on_the_integer_view():
    # Thresholds in thirds: scale 3, so level 2 is the value 2/3.
    inst = Instance.from_data(["a", "b"], ["a"], [("a", "b", "1/3", "2/3")])
    report = solve_report(
        inst, "general", {"a": 1, "b": 2, "c": 0}, theta=Fraction(1), delta=1,
        claimed_bound=None, bound_label="x", extras={},
    )
    assert report.value == 1
    assert report.assignment == assignment_of({"a": Fraction(1, 3), "b": Fraction(2, 3)})
    with pytest.raises(IncompleteCover) as exc:
        solve_report(inst, "general", {"a": 1, "b": 1}, theta=Fraction(1), delta=1,
                     claimed_bound=None, bound_label="x", extras={})
    assert exc.value.uncovered == ("a",)


def test_coverage_guard_survives_optimize_flag():
    # Under python -O every assert is gone; the guard must still raise.
    code = (
        "from aecover.core import Instance\n"
        "from aecover.errors import IncompleteCover\n"
        "from aecover.report import solve_report\n"
        "inst = Instance.from_data(['a', 'b'], ['a'], [('a', 'b', 1, 2)])\n"
        "try:\n"
        "    solve_report(inst, 'general', {'a': 1, 'b': 1}, theta=1, delta=1,\n"
        "                 claimed_bound=None, bound_label='x', extras={})\n"
        "except IncompleteCover as exc:\n"
        "    raise SystemExit(7 if exc.uncovered == ('a',) else 1)\n"
    )
    src = os.path.dirname(os.path.dirname(aecover.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env)
    assert done.returncode == 7
