"""Command-line front end: solve, exact, gen, bench, and bound tables.

Exit codes: 0 ok, 1 error (a typed library error, a file that cannot be
read or written, or a usage error, with argparse's message), 2 infeasible
input, 3 certification violation.  All outputs are deterministic given
identical inputs; wall-clock timings go to stderr only.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import bounds as bounds_mod
from .core import Instance
from .errors import AecError, BudgetExceeded, DomainError, Infeasible, LimitExceeded
from .fileio import (
    SCHEMA_VERSION,
    assignment_doc,
    dumps_doc,
    instance_digest,
    load_instance,
    save_instance,
)
from .general import solve_general
from .generators import FAMILIES, generate
from .locally_uniform import (
    UniformBipartiteInstance,
    solve_locally_uniform,
    validate_locally_uniform,
)
from .oracle import DEFAULT_MAX_NODES, DEFAULT_MAX_TERMINALS, exact_solve
from .report import BenchReport, SolveReport
from .unit import solve_unit_a1, solve_unit_a2

ALGORITHMS = ("auto", "general", "locally-uniform", "unit-a1", "unit-a2")


def pick_algorithm(inst: Instance) -> tuple[str, Optional[UniformBipartiteInstance]]:
    """The auto choice, with the validated view when it is locally uniform."""
    if inst.is_unit():
        return "unit-a2", None
    try:
        return "locally-uniform", validate_locally_uniform(inst)
    except AecError:
        return "general", None


def run_algorithm(
    inst: Instance, algorithm: str, priority: Optional[Sequence[str]] = None
) -> SolveReport:
    """Run ``algorithm`` ("auto" picks one).  Only the locally uniform greedy
    reads a facility priority list; any other run given one is refused."""
    if algorithm not in ALGORITHMS:
        raise DomainError(f"unknown algorithm {algorithm!r}")
    ubi = None
    if algorithm == "auto":
        algorithm, ubi = pick_algorithm(inst)
    if priority is not None and algorithm != "locally-uniform":
        raise DomainError(f"algorithm {algorithm!r} does not use a priority list")
    if algorithm == "locally-uniform":
        return solve_locally_uniform(ubi or validate_locally_uniform(inst), priority)
    if algorithm == "general":
        return solve_general(inst)
    if algorithm == "unit-a1":
        return solve_unit_a1(inst)
    # Only unit-a2 is left.
    return solve_unit_a2(inst)


def _read_priority(path: Optional[str]) -> Optional[list[str]]:
    if path is None:
        return None
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DomainError(f"priority file is not UTF-8 text: {exc}") from None
    return [line.strip() for line in text.splitlines() if line.strip()]


def _write_or_print(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_solve(args: argparse.Namespace) -> int:
    inst = load_instance(args.input)
    priority = _read_priority(args.priority_file)
    started = time.monotonic()
    report = run_algorithm(inst, args.algorithm, priority)
    elapsed = time.monotonic() - started
    exit_code = 0
    if args.exact_check:
        exact = exact_solve(
            inst, max_terminals=args.max_terminals, max_nodes=args.max_nodes
        )
        report.exact_value = exact.value
        if not report.certified():
            print(
                f"certification violation: value {report.value} vs optimum "
                f"{exact.value} exceeds bound {report.claimed_bound}",
                file=sys.stderr,
            )
            exit_code = 3
    _write_or_print(report.to_json(), args.out)
    print(f"solved in {elapsed:.3f}s", file=sys.stderr)
    return exit_code


def cmd_exact(args: argparse.Namespace) -> int:
    inst = load_instance(args.input)
    limits = {
        "max_terminals": args.max_terminals,
        "max_nodes": args.max_nodes,
    }
    if args.force:
        limits = {"max_terminals": 10**9, "max_nodes": 10**9}
    try:
        result = exact_solve(inst, max_expanded=args.node_budget, **limits)
    except BudgetExceeded as exc:
        result = exc.best  # the incumbent, with optimal False
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "exact_result",
        "instance_digest": instance_digest(inst),
        "value": str(result.value),
        "assignment": assignment_doc(result.assignment),
        "optimal": result.optimal,
        "nodes_expanded": result.nodes_expanded,
    }
    _write_or_print(dumps_doc(doc), args.out)
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    inst = generate(args.family, args.seed)
    save_instance(inst, args.out)
    priority = FAMILIES[args.family].priority
    if priority:
        Path(str(args.out) + ".priority").write_text("\n".join(priority) + "\n")
    print(f"wrote {args.out} ({instance_digest(inst)[:12]})", file=sys.stderr)
    return 0


def _parse_seeds(text: str) -> tuple[int, int]:
    a, dots, b = text.partition("..")
    try:
        start, end = int(a), int(b if dots else a)
    except ValueError:
        raise DomainError(f"--seeds takes an integer or a range a..b, not {text!r}") from None
    if start > end:
        raise DomainError(f"--seeds range {text!r} is empty")
    return start, end


def cmd_bench(args: argparse.Namespace) -> int:
    seed_start, seed_end = _parse_seeds(args.seeds)
    family = FAMILIES[args.family]
    algorithms = (family.algorithms if args.algorithms is None
                  else tuple(args.algorithms.split(",")))
    for alg in algorithms:
        if alg not in ALGORITHMS:
            raise DomainError(f"unknown algorithm {alg!r}")
    if len(set(algorithms)) != len(algorithms):
        raise DomainError(f"--algorithms {args.algorithms!r} names an algorithm more than once")
    bench = BenchReport(
        family=args.family,
        seed_start=seed_start,
        seed_end=seed_end,
        algorithms=algorithms,
    )
    started = time.monotonic()
    for seed in range(seed_start, seed_end + 1):
        inst = generate(args.family, seed)
        digest = instance_digest(inst)
        try:
            exact = exact_solve(inst, max_expanded=args.node_budget, **family.limits)
        except (LimitExceeded, BudgetExceeded) as exc:
            bench.skipped.append({"seed": seed, "reason": str(exc)})
            continue
        reports = {}
        for alg in algorithms:
            rep = run_algorithm(inst, alg)
            rep.exact_value = exact.value
            reports[alg] = rep
        bench.add_entry(seed, digest, exact.value, reports)
    _write_or_print(bench.to_json(), args.out)
    if not bench.entries:
        print(f"error: all {len(bench.skipped)} seeds were skipped; nothing was certified",
              file=sys.stderr)
        return 1
    print(
        f"benchmarked {len(bench.entries)} instances in {time.monotonic() - started:.2f}s, "
        f"{len(bench.violations)} violations",
        file=sys.stderr,
    )
    return 0 if bench.ok() else 3


def cmd_bounds(args: argparse.Namespace) -> int:
    if args.table1:
        thetas = bounds_mod.TABLE1_THETAS
    else:
        try:
            thetas = tuple(Fraction(tok) for tok in args.theta.split(","))
        except (ValueError, ZeroDivisionError):
            raise DomainError(
                f"--theta takes comma-separated rationals, not {args.theta!r}"
            ) from None
    print(bounds_mod.render_table(thetas, bounds_mod.table1(thetas)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aecover",
        description="Activation edge-cover solvers with certified ratios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run an approximation solver on an instance file")
    p.add_argument("input")
    p.add_argument("--algorithm", choices=ALGORITHMS, default="auto")
    p.add_argument("--priority-file", help="facility order that breaks locally-uniform price ties")
    p.add_argument("--exact-check", action="store_true", help="attach the exact optimum")
    p.add_argument("--max-terminals", type=int, default=DEFAULT_MAX_TERMINALS)
    p.add_argument("--max-nodes", type=int, default=DEFAULT_MAX_NODES)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("exact", help="exact optimum by branch and bound")
    p.add_argument("input")
    p.add_argument("--max-terminals", type=int, default=DEFAULT_MAX_TERMINALS)
    p.add_argument("--max-nodes", type=int, default=DEFAULT_MAX_NODES)
    p.add_argument("--node-budget", type=int, help="stop after expanding N search nodes")
    p.add_argument("--force", action="store_true", help="ignore size limits")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_exact)

    p = sub.add_parser("gen", help="write a seeded family instance file")
    p.add_argument("--family", choices=sorted(FAMILIES), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("bench", help="certify ratios over a seed range")
    p.add_argument("--family", choices=sorted(FAMILIES), required=True)
    p.add_argument("--seeds", default="0..19", help="inclusive range a..b")
    p.add_argument("--algorithms", help="comma-separated algorithm list")
    p.add_argument("--node-budget", type=int, help="skip a seed needing more oracle nodes")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("bounds", help="print bound tables")
    table = p.add_mutually_exclusive_group(required=True)
    table.add_argument("--table1", action="store_true")
    table.add_argument("--theta", help="comma-separated slopes")
    p.set_defaults(fn=cmd_bounds)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code != 2:
            raise  # --help
        return 1  # argparse printed the usage error; 2 means infeasible input
    # Exact values may have more digits than the interpreter converts to
    # text by default (a limit since Python 3.10.7): lift it while a command runs.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return args.fn(args)
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (AecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
