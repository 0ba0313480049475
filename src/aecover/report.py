"""Solve and bench report objects with canonical serialization.

Serialized reports are deterministic: rationals are written as fraction
strings, floats with four decimals, and wall-clock time never enters the
canonical payload (it is reported on stderr by the CLI instead).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Mapping, Optional, Union

from .core import Assignment, Instance, covered_terminals
from .errors import IncompleteCover
from .fileio import (
    SCHEMA_VERSION,
    assignment_doc,
    dumps_doc,
    format_float,
    format_slope,
    instance_digest,
)

Bound = Union[Fraction, float]

# Slack for comparing exact ratios against float-valued bounds; matches the
# residual tolerance of the omega root solver.
_FLOAT_BOUND_SLACK = 1e-12


def ratio_within(ratio: Fraction, bound: Optional[Bound]) -> bool:
    if bound is None:
        return True
    if isinstance(bound, Fraction):
        return ratio <= bound
    return float(ratio) <= bound + _FLOAT_BOUND_SLACK


def _format_bound(bound: Optional[Bound]) -> Optional[str]:
    return None if bound is None else format_float(float(bound))


@dataclass
class SolveReport:
    instance_digest: str
    algorithm: str
    assignment: Assignment
    value: Fraction
    theta: Union[Fraction, float]
    delta: int
    claimed_bound: Optional[Bound]
    bound_label: str
    exact_value: Optional[Fraction] = None
    trace: Optional[dict] = None
    extras: dict = field(default_factory=dict)

    @property
    def empirical_ratio(self) -> Optional[Fraction]:
        if self.exact_value is None:
            return None
        if self.exact_value == 0:
            return Fraction(1) if self.value == 0 else None
        return self.value / self.exact_value

    def certified(self) -> bool:
        """True when no exact value is attached or the ratio meets the bound."""
        ratio = self.empirical_ratio
        if ratio is None:
            return self.exact_value is None
        return ratio_within(ratio, self.claimed_bound)

    def to_doc(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "schema_version": SCHEMA_VERSION,
            "kind": "solve_report",
            "instance_digest": self.instance_digest,
            "algorithm": self.algorithm,
            "value": str(self.value),
            "theta": format_slope(self.theta),
            "delta": self.delta,
            "claimed_bound": _format_bound(self.claimed_bound),
            "bound_label": self.bound_label,
            "assignment": assignment_doc(self.assignment),
        }
        if self.exact_value is not None:
            doc["exact_value"] = str(self.exact_value)
            # Exact values come from a completed exact_solve, so they are optima.
            doc["exact_optimal"] = True
            ratio = self.empirical_ratio
            doc["empirical_ratio"] = format_float(float(ratio)) if ratio is not None else None
        if self.trace is not None:
            doc["trace"] = self.trace
        if self.extras:
            doc["extras"] = self.extras
        return doc

    def to_json(self) -> str:
        return dumps_doc(self.to_doc())


def solve_report(
    inst: Instance,
    algorithm: str,
    levels: Mapping[str, int],
    *,
    theta: Union[Fraction, float],
    delta: int,
    claimed_bound: Optional[Bound],
    bound_label: str,
    trace: Optional[dict] = None,
    extras: dict,
) -> SolveReport:
    """The report of a solver's assignment on ``inst``, named by the
    instance digest.  The solver hands over its ``levels``, the integer view
    of the assignment (values times ``inst.scale``), with the slope and
    degree bound its certificate rests on.  Raises IncompleteCover with the
    uncovered terminals in terminal order, also under ``python -O``, unless
    they cover every terminal.  The value is their total over the scale."""
    covered = covered_terminals(inst, levels=levels)
    if covered != inst.terminals:
        raise IncompleteCover(tuple(u for u in inst.terminal_list if u not in covered))
    return SolveReport(
        instance_digest=instance_digest(inst),
        algorithm=algorithm,
        assignment=inst.assignment(levels),
        value=Fraction(sum(levels.values()), inst.scale),
        theta=theta,
        delta=delta,
        claimed_bound=claimed_bound,
        bound_label=bound_label,
        trace=trace,
        extras=extras,
    )


@dataclass
class BenchReport:
    family: str
    seed_start: int
    seed_end: int
    algorithms: tuple[str, ...]
    entries: list[dict] = field(default_factory=list)
    violations: list[dict] = field(default_factory=list)
    skipped: list[dict] = field(default_factory=list)
    # Per algorithm, the empirical ratio of every entry that has one.
    ratios: dict[str, list[Fraction]] = field(default_factory=dict, init=False)

    def add_entry(self, seed: int, digest: str, exact_value: Optional[Fraction],
                  reports: dict[str, SolveReport]) -> None:
        entry: dict[str, Any] = {
            "seed": seed,
            "instance_digest": digest,
            "exact_value": None if exact_value is None else str(exact_value),
            "results": {},
        }
        for name in sorted(reports):
            rep = reports[name]
            ratio = rep.empirical_ratio
            entry["results"][name] = {
                "value": str(rep.value),
                "claimed_bound": _format_bound(rep.claimed_bound),
                "bound_label": rep.bound_label,
                "empirical_ratio": None if ratio is None else format_float(float(ratio)),
            }
            if ratio is not None:
                self.ratios.setdefault(name, []).append(ratio)
            if not rep.certified():
                self.violations.append(
                    {
                        "seed": seed,
                        "algorithm": name,
                        "value": str(rep.value),
                        "exact_value": str(rep.exact_value),
                        "claimed_bound": _format_bound(rep.claimed_bound),
                    }
                )
        self.entries.append(entry)

    def aggregates(self) -> dict[str, Any]:
        stats: dict[str, Any] = {}
        for name in self.algorithms:
            ratios = self.ratios.get(name)
            if ratios:
                stats[name] = {
                    "instances": len(ratios),
                    "max_ratio": format_float(float(max(ratios))),
                    "mean_ratio": format_float(float(sum(ratios) / len(ratios))),
                }
        return stats

    def to_doc(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "bench_report",
            "family": self.family,
            "seeds": f"{self.seed_start}..{self.seed_end}",
            "algorithms": list(self.algorithms),
            "entries": sorted(self.entries, key=lambda e: e["seed"]),
            "aggregates": self.aggregates(),
            "violations": self.violations,
            "skipped": self.skipped,
        }

    def to_json(self) -> str:
        return dumps_doc(self.to_doc())

    def ok(self) -> bool:
        return not self.violations
