"""CLI surface: subcommands, exit codes, and output determinism."""

import argparse
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import aecover
from aecover import cli, locally_uniform
from aecover.bounds import g_value
from aecover.cli import main, pick_algorithm, run_algorithm
from aecover.errors import DomainError, LimitExceeded
from aecover.fileio import format_float, load_instance, save_instance
from aecover.generators import FAMILIES, generate, random_general, random_uniform, tight73
from aecover.core import Instance
from conftest import assignment_of, assignment_total, covers


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_table(capsys):
    code, out, _ = run(capsys, "bounds", "--table1")
    assert code == 0
    assert "1.2785" in out and "11.4673" in out
    assert len(out.strip().splitlines()) == 5  # header plus four bound rows


def test_bounds_theta_list(capsys):
    code, out, _ = run(capsys, "bounds", "--theta", "1,3/2,10")
    assert code == 0
    assert "1+omega" in out


@pytest.mark.parametrize("theta", ["0", "-2"])
def test_bounds_names_a_non_positive_slope_as_a_fraction(capsys, theta):
    code, out, err = run(capsys, "bounds", "--theta", theta)
    assert (code, out) == (1, "")
    assert err == f"error: slope must be positive, got {theta}\n"
    assert "Fraction(" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("bench", "--family", "minpower", "--seeds", "x..3"),
        ("bench", "--family", "minpower", "--seeds", "5..2"),
        ("bench", "--family", "minpower", "--seeds", "3.."),
        ("bounds", "--theta", "abc"),
        ("bounds", "--theta", "1,1/0"),
    ],
)
def test_malformed_numeric_argument_exit_code(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "{inst}", "--algorithm", "general", "--priority-file", "{dir}/priority"),
        ("solve", "{dir}/missing.json"),
        ("solve", "{inst}", "--priority-file", "{dir}/nope"),
        ("gen", "--family", "unit", "--out", "{dir}/no/such/dir/x.json"),
        ("solve", "{dir}/binary"),
        ("exact", "{dir}/binary"),
        ("solve", "{inst}", "--priority-file", "{dir}/binary"),
        # tight73 has unit thresholds, so auto picks unit-a2, which reads no list.
        ("solve", "{inst}", "--priority-file", "{dir}/priority"),
        ("solve", "{inst}", "--algorithm", "unit-a1", "--priority-file", "{dir}/priority"),
        ("solve", "{inst}", "--algorithm", "unit-a2", "--priority-file", "{dir}/priority"),
        # A named algorithm refuses an instance outside its class.
        ("solve", "{dir}/general.json", "--algorithm", "locally-uniform"),
        ("solve", "{dir}/general.json", "--algorithm", "unit-a1"),
        ("solve", "{dir}/general.json", "--algorithm", "unit-a2"),
        # tight73 has more terminals than the oracle's default limit.
        ("solve", "{inst}", "--exact-check"),
        ("exact", "{dir}/general.json", "--out", "{dir}/no/such/dir/x.json"),
        ("bench", "--family", "general", "--seeds", "0", "--out", "{dir}/no/such/dir/x.json"),
        # A search cannot stop after fewer than no nodes.
        ("exact", "{dir}/general.json", "--node-budget", "-1"),
        ("exact", "{dir}/general.json", "--node-budget", "-" + "9" * 30),
        ("bench", "--family", "general", "--seeds", "0", "--node-budget", "-1"),
        ("bench", "--family", "general", "--seeds", "0", "--node-budget", "-" + "9" * 30),
        ("bench", "--family", "general", "--seeds", "0", "--algorithms", "general,general"),
        # A zero budget skips every seed, so the report certifies nothing.
        ("bench", "--family", "general", "--seeds", "0..4", "--node-budget", "0",
         "--out", "{dir}/bench.json"),
    ],
)
def test_unusable_input_exit_code(tmp_path, capsys, argv):
    inst = tmp_path / "inst.json"
    save_instance(tight73()[0], inst)
    save_instance(generate("general", 0), tmp_path / "general.json")
    (tmp_path / "binary").write_bytes(b"\xff\xfe")
    (tmp_path / "priority").write_text("\n".join(tight73()[1]) + "\n")
    code, out, err = run(capsys, *(a.format(inst=inst, dir=tmp_path) for a in argv))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


# unit-a2 has one finish, so no command takes a --subsolver.
@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "{inst}", "--algorithm", "general", "--subsolver", "greedy"),
        ("solve", "{inst}", "--algorithm", "unit-a1", "--subsolver", "greedy"),
        ("solve", "{inst}", "--algorithm", "locally-uniform", "--subsolver", "exact"),
        # On a general instance auto picks general.
        ("solve", "{dir}/general.json", "--subsolver", "greedy"),
        ("solve", "{inst}", "--algorithm", "unit-a2", "--subsolver", "greedy"),
        ("bench", "--family", "general", "--seeds", "0", "--subsolver", "greedy"),
        ("bench", "--family", "unit", "--seeds", "0", "--algorithms", "auto,unit-a1",
         "--subsolver", "exact"),
    ],
)
def test_subsolver_option_is_a_usage_error(tmp_path, capsys, argv):
    inst = tmp_path / "inst.json"
    save_instance(tight73()[0], inst)
    save_instance(generate("general", 0), tmp_path / "general.json")
    code, out, err = run(capsys, *(a.format(inst=inst, dir=tmp_path) for a in argv))
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --subsolver" in err


def one_facility_instance(path, weight, service="1"):
    """Two clients served by one facility with the given opening cost."""
    edges = [(c, "f", service, weight) for c in ("a", "b")]
    doc = {
        "nodes": ["a", "b", "f"],
        "terminals": ["a", "b"],
        "edges": [{"u": u, "v": v, "tu": tu, "tv": tv} for u, v, tu, tv in edges],
    }
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("weight", ["100000000", "10000000000"])
def test_large_slope_solves_in_bounded_time(tmp_path, capsys, weight):
    # Slopes past the exact k_theta scan once cost a linear walk in k.
    inst = one_facility_instance(tmp_path / "inst.json", weight)
    start = time.perf_counter()
    code, out, _ = run(capsys, "solve", inst)
    assert time.perf_counter() - start < 1.0
    assert code == 0
    doc = json.loads(out)
    assert doc["algorithm"] == "locally-uniform" and doc["theta"] == weight


def test_bounds_for_a_large_slope_in_bounded_time(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "bounds", "--theta", "1000000000")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and "1+omega_bar" in out


@pytest.mark.parametrize(
    "argv",
    [
        # An out-of-range slope after an in-range one: no partial table.
        ("bounds", "--theta", "2,1e400"),
        ("bounds", "--theta", "2,1e-400"),
        ("bounds", "--theta", "1e400"),
        ("bounds", "--theta", "1e-400"),
    ],
)
def test_slope_outside_float_range_exit_code(tmp_path, capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "algorithm, label",
    [("auto", "1+omega_bar(theta)"), ("general", "1+ln(delta)")],
    ids=["auto", "general"],
)
def test_slope_outside_float_range_still_solves(tmp_path, capsys, algorithm, label):
    # A slope of 10^4000: omega has no float value, but the degree bounds and
    # the capped omega_bar, exact at k = delta = 2, still certify the solve.
    inst = one_facility_instance(tmp_path / "inst.json", "1", service="1e-4000")
    code, out, _ = run(capsys, "solve", inst, "--algorithm", algorithm, "--exact-check")
    assert code == 0  # a ratio over the claimed bound would exit 3
    doc = json.loads(out)
    assert doc["theta"] == str(10**4000) and doc["delta"] == 2
    assert doc["bound_label"] == label
    assert doc["empirical_ratio"] == "1.0000"
    if algorithm == "auto":
        assert doc["claimed_bound"] == format_float(float(1 + g_value(10**4000, 2)))


def test_gen_solve_exact_roundtrip(tmp_path, capsys):
    path = tmp_path / "inst.json"
    code, _, err = run(capsys, "gen", "--family", "minpower", "--seed", "3", "--out", str(path))
    assert code == 0 and path.exists()
    code, out, _ = run(capsys, "solve", str(path), "--exact-check")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "solve_report"
    assert doc["algorithm"] == "general"
    assert doc["empirical_ratio"] is not None
    code, out, _ = run(capsys, "exact", str(path))
    assert code == 0
    assert json.loads(out)["value"] == doc["exact_value"]


def test_solve_output_deterministic(tmp_path, capsys):
    path = tmp_path / "i.json"
    run(capsys, "gen", "--family", "setcover-t5", "--seed", "11", "--out", str(path))
    outputs = []
    for out_path in (tmp_path / "a.json", tmp_path / "b.json"):
        code, _, _ = run(capsys, "solve", str(path), "--out", str(out_path))
        assert code == 0
        outputs.append(out_path.read_bytes())
    assert outputs[0] == outputs[1]


def test_tight73_gen_and_adversarial_solve(tmp_path, capsys):
    path = tmp_path / "tight.json"
    code, _, _ = run(capsys, "gen", "--family", "tight73", "--out", str(path))
    assert code == 0
    priority = Path(str(path) + ".priority")
    assert priority.exists()
    code, out, _ = run(
        capsys,
        "solve",
        str(path),
        "--algorithm",
        "locally-uniform",
        "--priority-file",
        str(priority),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "73" and doc["extras"]["tie_break"] == "adversarial-order"
    code, out, _ = run(capsys, "solve", str(path), "--algorithm", "locally-uniform")
    doc = json.loads(out)
    assert doc["value"] == "60" and doc["extras"]["tie_break"] == "lowest-id"


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_gen_writes_the_family_priority_list(tmp_path, capsys, family):
    path = tmp_path / "inst.json"
    code, _, _ = run(capsys, "gen", "--family", family, "--out", str(path))
    assert code == 0
    side = Path(str(path) + ".priority")
    priority = FAMILIES[family].priority
    if priority:
        assert side.read_text() == "\n".join(priority) + "\n"
    else:
        assert not side.exists()


def test_solve_has_no_tie_break_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--priority-file" in out and "--tie-break" not in out


def test_exact_limits_and_force(tmp_path, capsys):
    path = tmp_path / "tight.json"
    run(capsys, "gen", "--family", "tight73", "--out", str(path))
    code, _, err = run(capsys, "exact", str(path))
    assert code == 1 and "exceed" in err
    code, out, _ = run(capsys, "exact", str(path), "--force")
    assert code == 0
    assert json.loads(out)["value"] == "60"


def test_exact_over_its_node_budget_writes_the_incumbent(tmp_path, capsys):
    path = tmp_path / "tight.json"
    run(capsys, "gen", "--family", "tight73", "--out", str(path))
    code, out, _ = run(capsys, "exact", str(path), "--force", "--node-budget", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["optimal"] is False
    assert doc["nodes_expanded"] == 0
    assert Fraction(doc["value"]) >= 60
    assignment = assignment_of({n: Fraction(x) for n, x in doc["assignment"].items()})
    assert assignment_total(assignment) == Fraction(doc["value"])
    assert covers(load_instance(path), assignment)[0]


def test_exact_too_deep_for_the_recursion_limit_is_a_typed_error(tmp_path, capsys):
    # Each terminal can be covered through the shared hub h or its own g_i;
    # the search descends one level per terminal, past the recursion limit.
    terms = [f"t{i}" for i in range(1000)]
    edges = [e for i, t in enumerate(terms) for e in ((t, "h", 0, 1), (t, f"g{i}", 0, "1/2"))]
    inst = Instance.from_data(["h", *terms, *(f"g{i}" for i in range(1000))], terms, edges)
    path = tmp_path / "deep.json"
    save_instance(inst, path)
    code, out, err = run(capsys, "exact", str(path), "--force")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "recursion limit" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("extra", [{}, {"priority": []}, {"priority": ["f"]}])
def test_unknown_algorithm_is_named_before_its_options(extra):
    with pytest.raises(DomainError, match="unknown algorithm 'bogus'"):
        run_algorithm(generate("general", 0), "bogus", **extra)


@pytest.mark.parametrize(
    "family, seeds, algorithms, name",
    [
        ("tight73", "0..0", "bogus", "bogus"),
        ("general", "0..3", "general,bogus", "bogus"),
        ("unit", "0..1", "unit-a2,", ""),
        ("tight73", "0..0", "", ""),
    ],
)
def test_bench_refuses_an_unknown_algorithm_before_any_seed(
    tmp_path, capsys, monkeypatch, family, seeds, algorithms, name
):
    def no_oracle(*args, **kwargs):
        raise AssertionError("the oracle ran before the algorithms were checked")

    monkeypatch.setattr(cli, "exact_solve", no_oracle)
    out = tmp_path / "bench.json"
    code, stdout, err = run(capsys, "bench", "--family", family, "--seeds", seeds,
                            "--node-budget", "0", "--algorithms", algorithms, "--out", str(out))
    assert (code, stdout, err) == (1, "", f"error: unknown algorithm {name!r}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--table1", "--theta", "7"), "argument --theta: not allowed with argument --table1"),
        (("--theta", "7", "--table1"), "argument --table1: not allowed with argument --theta"),
        ((), "one of the arguments --table1 --theta is required"),
    ],
    ids=["both", "both-reversed", "neither"],
)
def test_bounds_takes_exactly_one_of_table1_and_theta(capsys, argv, message):
    code, out, err = run(capsys, "bounds", *argv)
    assert (code, out) == (1, "")
    assert err.startswith("usage: aecover bounds")
    assert f"aecover bounds: error: {message}" in err


def test_infeasible_exit_code(tmp_path, capsys):
    inst = Instance.from_data(["a", "b", "c"], ["c"], [("a", "b", 1, 1)])
    path = tmp_path / "bad.json"
    save_instance(inst, path)
    code, _, err = run(capsys, "solve", str(path))
    assert code == 2
    assert "infeasible" in err


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"nodes": [], "terminals": [], "edges": [], "oops": 1}')
    code, _, err = run(capsys, "solve", str(path))
    assert code == 1


@pytest.mark.parametrize(
    "fragment",
    [
        '"terminals": ["a"], "edges": [{"u": "a", "v": "b", "tu": "x", "tv": 1}]',
        '"terminals": ["a"], "edges": [{"u": "a", "v": "b", "tu": "nan", "tv": 1}]',
        '"terminals": ["a"], "edges": [{"u": "a", "v": "b", "tu": "1/0", "tv": 1}]',
        '"terminals": ["a"], "edges": [{"u": "a", "v": "b", "tu": true, "tv": 1}]',
        '"terminals": "ab", "edges": []',
    ],
)
def test_malformed_instance_exit_code(tmp_path, capsys, fragment):
    path = tmp_path / "malformed.json"
    path.write_text('{"nodes": ["a", "b"], ' + fragment + "}")
    code, out, err = run(capsys, "solve", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_bench_deterministic_and_clean(tmp_path, capsys):
    args = ["bench", "--family", "unit", "--seeds", "0..7"]
    outputs = []
    for name in ("r1.json", "r2.json"):
        out_path = tmp_path / name
        code, _, err = run(capsys, *args, "--out", str(out_path))
        assert code == 0
        outputs.append(out_path.read_bytes())
    assert outputs[0] == outputs[1]
    doc = json.loads(outputs[0])
    assert doc["violations"] == [] and doc["skipped"] == []
    assert len(doc["entries"]) == 8
    assert set(doc["aggregates"]) == {"unit-a1", "unit-a2"}


def test_bench_that_skips_every_seed_writes_its_report_and_exits_1(tmp_path, capsys):
    out_path = tmp_path / "bench.json"
    argv = ["bench", "--family", "general", "--seeds", "0..4", "--node-budget", "0"]
    code, _, err = run(capsys, *argv, "--out", str(out_path))
    assert code == 1
    assert err == "error: all 5 seeds were skipped; nothing was certified\n"
    doc = json.loads(out_path.read_text())
    assert doc["entries"] == [] and [s["seed"] for s in doc["skipped"]] == [0, 1, 2, 3, 4]


def test_bench_that_skips_some_seeds_exits_0(capsys, monkeypatch):
    real = cli.exact_solve
    calls = []

    def first_call_over_limit(inst, **kwargs):
        calls.append(inst)
        if len(calls) == 1:
            raise LimitExceeded("over the limit")
        return real(inst, **kwargs)

    monkeypatch.setattr(cli, "exact_solve", first_call_over_limit)
    code, out, err = run(capsys, "bench", "--family", "unit", "--seeds", "0..2")
    assert code == 0
    doc = json.loads(out)
    assert [s["seed"] for s in doc["skipped"]] == [0]
    assert [e["seed"] for e in doc["entries"]] == [1, 2]
    assert err.startswith("benchmarked 2 instances")


def claim_ratio_one(monkeypatch):
    """Make the locally uniform greedy claim ratio 1, which its value of 24
    against the optimum 22 on ``uniform`` seed 0 breaks."""
    monkeypatch.setattr(locally_uniform, "uniform_bound", lambda ubi: ("claimed 1", Fraction(1)))


def test_solve_exact_check_violation_exits_3_and_writes_the_report(tmp_path, capsys, monkeypatch):
    claim_ratio_one(monkeypatch)
    path, out_path = tmp_path / "uniform.json", tmp_path / "report.json"
    save_instance(generate("uniform", 0), path)
    code, out, err = run(capsys, "solve", str(path), "--exact-check", "--out", str(out_path))
    assert (code, out) == (3, "")
    assert err.startswith("certification violation: value 24 vs optimum 22 exceeds bound 1\n")
    doc = json.loads(out_path.read_text())
    assert (doc["value"], doc["exact_value"], doc["bound_label"]) == ("24", "22", "claimed 1")


def test_bench_violation_exits_3_and_lists_it(capsys, monkeypatch):
    claim_ratio_one(monkeypatch)
    code, out, err = run(capsys, "bench", "--family", "uniform", "--seeds", "0..0")
    assert code == 3
    assert json.loads(out)["violations"] == [{
        "seed": 0, "algorithm": "locally-uniform", "value": "24", "exact_value": "22",
        "claimed_bound": "1.0000",
    }]
    assert err.startswith("benchmarked 1 instances") and err.endswith(", 1 violations\n")


def test_bench_minpower_campaign_stays_under_omega_one(capsys):
    code, out, _ = run(capsys, "bench", "--family", "minpower", "--seeds", "0..199")
    assert code == 0
    doc = json.loads(out)
    assert doc["violations"] == []
    assert float(doc["aggregates"]["general"]["max_ratio"]) <= 1.2785


def test_bench_unit_campaign_stays_under_rho(capsys):
    code, out, _ = run(capsys, "bench", "--family", "unit", "--seeds", "0..199")
    assert code == 0
    doc = json.loads(out)
    assert doc["violations"] == []
    assert float(doc["aggregates"]["unit-a2"]["max_ratio"]) <= 1555 / 1347


def test_bench_uniform_family(tmp_path, capsys):
    code, out, _ = run(capsys, "bench", "--family", "uniform", "--seeds", "0..5")
    assert code == 0
    doc = json.loads(out)
    assert doc["algorithms"] == ["locally-uniform"]


def test_auto_dispatch():
    assert pick_algorithm(generate("unit", 0))[0] == "unit-a2"
    assert pick_algorithm(random_uniform(0, theta=3))[0] == "locally-uniform"
    assert pick_algorithm(generate("minpower", 0))[0] == "general"
    assert pick_algorithm(tight73()[0])[0] == "unit-a2"  # unit thresholds win


def test_instance_file_round_trip(tmp_path, capsys):
    path = tmp_path / "x.json"
    run(capsys, "gen", "--family", "installation", "--seed", "5", "--out", str(path))
    raw = path.read_bytes()
    save_instance(load_instance(path), path)
    assert path.read_bytes() == raw


def run_cli(*argv, hash_seed=None):
    """``python -m aecover.cli argv`` in a fresh interpreter, with the
    package's source on its path."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(aecover.__file__))}
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return subprocess.run([sys.executable, "-m", "aecover.cli", *argv], env=env,
                          capture_output=True, text=True)


@pytest.mark.parametrize("argv", [["solve"], ["solve", "--algorithm", "general"], ["exact"]])
def test_thresholds_past_the_digit_limit_solve(tmp_path, argv):
    # Each threshold is within the interpreter's limit on integer digits,
    # but their scale, 10^4000 * 3^8000, has 7,817 digits: reports must
    # still be written, not end in a ValueError traceback.
    path = tmp_path / "digits.json"
    path.write_text(json.dumps({
        "nodes": ["a", "b", "c"],
        "terminals": ["a"],
        "edges": [
            {"u": "a", "v": "b", "tu": "1/1" + "0" * 4000, "tv": "1/" + str(3**8000)},
            {"u": "a", "v": "c", "tu": "1", "tv": "1"},
        ],
    }))
    done = run_cli(*argv, str(path))
    assert (done.returncode, "Traceback" in done.stderr) == (0, False), done.stderr[-500:]
    # The optimum, 1/10^4000 + 1/3^8000, in lowest terms: the numerator
    # 10^4000 + 3^8000 has 4,001 digits, the denominator 7,817.
    num, den = json.loads(done.stdout)["value"].split("/")
    assert (len(num), len(den)) == (4001, 7817)


def test_usage_error_exits_1_with_the_argparse_message(capsys):
    # Exit code 2 is infeasible input, so a usage error exits 1.
    code, out, err = run(capsys, "bench", "--family", "unit", "--algorithms")
    assert (code, out) == (1, "")
    assert "aecover bench: error: argument --algorithms: expected one argument" in err


def test_bench_bytes_do_not_depend_on_the_hash_seed():
    runs = {
        seed: [run_cli("bench", "--family", family, "--seeds", "0..4", hash_seed=seed)
               for family in ("general", "uniform", "unit", "installation")]
        for seed in ("0", "1")
    }
    for done in runs["0"] + runs["1"]:
        assert done.returncode == 0, done.stderr
    assert [d.stdout for d in runs["0"]] == [d.stdout for d in runs["1"]]


def test_missing_terminal_error_does_not_depend_on_the_hash_seed(tmp_path):
    # Three terminals are not nodes; the error names the first in file order.
    path = tmp_path / "missing.json"
    path.write_text(json.dumps({"nodes": ["a", "b"], "terminals": ["t3", "a", "t1", "t2"],
                                "edges": [{"u": "a", "v": "b", "tu": "1", "tv": "1"}]}))
    runs = [run_cli("solve", str(path), hash_seed=seed) for seed in ("0", "1")]
    for done in runs:
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == "error: terminal 't3' is not a node\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("exact", "{dir}/general.json", "--node-budget", "nan"),
        ("exact", "{dir}/general.json", "--node-budget", "0.5"),
        ("bench", "--family", "general", "--seeds", "0", "--node-budget", "nan"),
        ("bench", "--family", "general", "--seeds", "0", "--node-budget", "1e3"),
    ],
)
def test_non_integer_node_budget_is_a_usage_error(tmp_path, capsys, argv):
    save_instance(generate("general", 0), tmp_path / "general.json")
    code, out, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert (code, out) == (1, "")
    assert f"error: argument --node-budget: invalid int value: {argv[-1]!r}" in err


@pytest.mark.parametrize(
    "argv, skipped",
    [
        (("exact", "{ladder}", "--force", "--node-budget", "100"), None),
        (("bench", "--family", "general", "--seeds", "0..199", "--node-budget", "20"), 17),
        (("bench", "--family", "unit", "--seeds", "0..199", "--node-budget", "20"), 18),
    ],
    ids=["exact", "bench-general", "bench-unit"],
)
def test_a_node_budget_stop_writes_the_same_bytes_every_run(tmp_path, argv, skipped):
    ladder = tmp_path / "r26.json"
    save_instance(random_general(32, 96, 6, seed=2, r=26), ladder)
    runs = [run_cli(*(a.format(ladder=ladder) for a in argv)) for _ in range(3)]
    for done in runs:
        assert done.returncode == 0, done.stderr
    assert runs[0].stdout == runs[1].stdout == runs[2].stdout
    doc = json.loads(runs[0].stdout)
    if skipped is None:
        assert (doc["value"], doc["nodes_expanded"], doc["optimal"]) == ("61", 100, False)
    else:
        assert len(doc["skipped"]) == skipped
        assert {s["reason"] for s in doc["skipped"]} == {
            "node budget exceeded before proving optimality"
        }


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_a_node_budget_no_seed_needs_leaves_bench_bytes_unchanged(capsys, family):
    # 129 nodes is the most any family's oracle expands at seeds 0..199.
    argv = ("bench", "--family", family, "--seeds", "0..19")
    free = run(capsys, *argv)[:2]  # stderr carries the wall time
    assert run(capsys, *argv, "--node-budget", "129")[:2] == free


def test_readme_cli_section_names_the_parser_options():
    # Every option of every subcommand, --help aside, and no other, is named
    # in the README's CLI section.
    subcommands = next(a for a in cli.build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction))
    options = {opt for p in subcommands.choices.values() for a in p._actions
               for opt in a.option_strings if opt.startswith("--") and opt != "--help"}
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"--[a-z][a-z0-9-]*", section)) == options
