"""The four benchmark workloads: seeded inputs, ops, and output checks.

A workload builds its inputs from the workload seed during set-up, in seeded
random order, then runs passes.  A pass runs one op per input, in input order,
and may end with a timed finishing step.  Every op's output is checked here, with this file's own
arithmetic, never with the library's coverage or certification helpers:

* every terminal touches an edge whose two thresholds the assignment meets,
* the reported value equals the sum of the assignment,
* on ``certify``, every ratio against the oracle optimum meets its claim.

The first pass fixes a reference for every canonical report; every later
pass, traced or not, must reproduce those bytes exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

# ---------------------------------------------------------------------------
# Output checks shared by all workloads


class CheckFailed(Exception):
    """An op produced output that fails the benchmark's own checks."""


def incidence(terminals, edges):
    """Map each terminal to (other end, threshold here, threshold there)."""
    inc = {t: [] for t in terminals}
    for u, v, tu, tv in edges:
        if u in inc:
            inc[u].append((v, tu, tv))
        if v in inc:
            inc[v].append((u, tv, tu))
    return inc


def lower_bound_q(inc):
    """Q = sum over terminals of the smallest threshold at the terminal.

    Every feasible assignment pays at least q_u at each terminal u."""
    return sum((min(t for _, t, _ in ends) for ends in inc.values()), Fraction(0))


def check_cover(inc, values, value, what):
    for node, x in values.items():
        if x < 0:
            raise CheckFailed(f"{what}: negative value {x} at {node}")
    if value != sum(values.values(), Fraction(0)):
        raise CheckFailed(f"{what}: value {value} is not the assignment total")
    zero = Fraction(0)
    for t, ends in inc.items():
        here = values.get(t, zero)
        if not any(here >= th and values.get(o, zero) >= to for o, th, to in ends):
            raise CheckFailed(f"{what}: terminal {t} has no activated edge")


def report_values(report_doc):
    values = {node: Fraction(x) for node, x in report_doc["assignment"].items()}
    return values, Fraction(report_doc["value"])


def within_claim(value, optimum, bound):
    """Whether value/optimum meets a claimed bound (Fraction, float or None)."""
    if bound is None:
        return True
    if optimum == 0:
        return value == 0
    ratio = value / optimum
    if isinstance(bound, Fraction):
        return ratio <= bound
    # Float bounds come from root solvers and logarithms; allow their rounding.
    return float(ratio) <= float(bound) + 1e-12


def log_ladder(lo, hi, steps):
    """``steps`` integers spread log-uniformly over [lo, hi]."""
    return [round(lo * (hi / lo) ** (i / (steps - 1))) for i in range(steps)]


# ---------------------------------------------------------------------------
# Solve workloads: loads_instance -> run_algorithm(auto) -> to_json


class SolveWorkload:
    """Solve ops on canonical instance texts, the work of ``aecover solve``
    without process start or file I/O.

    ``value_ratio`` is the solver's total value over the total of the lower
    bound Q, which the benchmark computes itself from the instance."""

    expected_algorithm = ""

    def __init__(self, seed):
        self.seed = seed
        self.texts = []
        self.checks = []
        self.refs = []
        self.value_sum = Fraction(0)
        self.reference_sum = Fraction(0)

    def instances(self, aec, rng):
        raise NotImplementedError

    def setup(self, aec):
        rng = random.Random(f"{self.name}:{self.seed}")
        texts = [aec.fileio.dumps_instance(inst) for inst in self.instances(aec, rng)]
        rng.shuffle(texts)
        return texts

    def prepare(self, texts):
        """Untimed: parse each text with this file's own reader for the checks."""
        self.texts = texts
        self.refs = [None] * len(texts)
        for text in texts:
            doc = json.loads(text)
            edges = [
                (e["u"], e["v"], Fraction(e["tu"]), Fraction(e["tv"])) for e in doc["edges"]
            ]
            inc = incidence(doc["terminals"], edges)
            digest = hashlib.sha256(text.encode()).hexdigest()
            self.checks.append((inc, lower_bound_q(inc), digest))

    def new_pass(self):
        return None

    def op(self, aec, state, i):
        inst = aec.fileio.loads_instance(self.texts[i])
        report = aec.cli.run_algorithm(inst, "auto")
        return report.to_json()

    def check(self, state, i, out):
        inc, q_total, digest = self.checks[i]
        if self.refs[i] is not None:
            if out != self.refs[i]:
                raise CheckFailed(f"input {i}: report differs from the first pass")
            return
        doc = json.loads(out)
        if doc["instance_digest"] != digest:
            raise CheckFailed(f"input {i}: report names another instance")
        if doc["algorithm"] != self.expected_algorithm:
            raise CheckFailed(
                f"input {i}: auto picked {doc['algorithm']}, not {self.expected_algorithm}"
            )
        values, value = report_values(doc)
        check_cover(inc, values, value, f"input {i}")
        self.refs[i] = out
        self.value_sum += value
        self.reference_sum += q_total

    def finish_pass(self, aec, state):
        return []

    def check_finish(self, finished):
        pass

    def canonical_reports(self):
        return self.refs

    def input_count(self):
        return len(self.texts)


class SolveGeneral(SolveWorkload):
    name = "solve-general"
    expected_algorithm = "general"
    # n nodes, 3n edges, 6 threshold levels, 0.4n terminals.
    LADDER = log_ladder(20, 60, 100)

    def instances(self, aec, rng):
        for n in self.LADDER:
            yield aec.generators.random_general(
                n, 3 * n, 6, rng.randrange(2**31), r=round(0.4 * n)
            )


class SolveFacility(SolveWorkload):
    name = "solve-facility"
    expected_algorithm = "locally-uniform"
    # Target client-facility pair counts; clients = 2 x facilities, density 1/4.
    LADDER = log_ladder(200, 1600, 100)
    SERVICE = tuple(Fraction(x) for x in ("1", "3/2", "2"))
    MULTIPLIER = tuple(Fraction(x) for x in ("1/2", "1", "2", "3", "5"))

    def instances(self, aec, rng):
        for pairs in self.LADDER:
            nf = round(math.sqrt(2 * pairs))
            clients = [f"c{i:03d}" for i in range(2 * nf)]
            facilities = [f"f{j:03d}" for j in range(nf)]
            # One service threshold and one weight per facility keeps the
            # instance locally uniform; facility 0's weight 2t rules out unit-a2.
            threshold = {f: rng.choice(self.SERVICE) for f in facilities}
            opening = {
                f: threshold[f] * (2 if j == 0 else rng.choice(self.MULTIPLIER))
                for j, f in enumerate(facilities)
            }
            service = {}
            for c in clients:
                linked = [f for f in facilities if rng.random() < 0.25]
                for f in linked or [rng.choice(facilities)]:
                    service[(c, f)] = threshold[f]
            yield aec.generators.from_facility_location(clients, facilities, opening, service)


class SolveUnit(SolveWorkload):
    name = "solve-unit"
    expected_algorithm = "unit-a2"
    # n terminals t_j and n facilities f_j; f_j joins t_j and 3 sampled terminals.
    LADDER = log_ladder(22, 28, 250)

    def instances(self, aec, rng):
        one = Fraction(1)
        for n in self.LADDER:
            terms = [f"t{i:03d}" for i in range(n)]
            facs = [f"f{j:03d}" for j in range(n)]
            edges = []
            for j, f in enumerate(facs):
                edges.append((terms[j], f, one, one))
                edges.extend((t, f, one, one) for t in rng.sample(terms, 3))
            yield aec.core.Instance.from_data(terms + facs, terms, edges)


# ---------------------------------------------------------------------------
# Certify: the ``aecover bench`` loop over every family


class Certify:
    """Certify ops, the loop of ``aecover bench`` over all ten families.

    One op is one (family, seed) pair: generate, digest, exact optimum with
    the family's oracle limits, every bench algorithm, add_entry.  Each
    family's bench report is serialized once at the end of a pass.
    ``value_ratio`` is the total solver value over the total optimum."""

    name = "certify"
    SEEDS_PER_FAMILY = 200
    # The families' algorithms and oracle limits, as ``aecover bench`` uses them.
    ALGORITHMS = {
        "minpower": ("general",),
        "setcover-t2": ("general",),
        "setcover-t5": ("general",),
        "setcover-t10": ("general",),
        "installation": ("general",),
        "general": ("general",),
        "uniform": ("locally-uniform",),
        "uniform-unit": ("locally-uniform",),
        "unit": ("unit-a1", "unit-a2"),
        "tight73": ("locally-uniform",),
    }
    LIMITS = {"tight73": {"max_terminals": 48, "max_nodes": 80}}
    # tight73's generator ignores its seed, so it runs once per pass.
    SINGLE = ("tight73",)

    def __init__(self, seed):
        self.seed = seed
        self.first = seed * self.SEEDS_PER_FAMILY
        self.pairs = []
        self.refs = {}
        self.value_sum = Fraction(0)
        self.reference_sum = Fraction(0)
        self.seen = set()

    def setup(self, aec):
        last = self.first + self.SEEDS_PER_FAMILY - 1
        pairs = [
            (family, seed)
            for family in self.ALGORITHMS
            for seed in ((self.first,) if family in self.SINGLE else range(self.first, last + 1))
        ]
        random.Random(f"{self.name}:{self.seed}").shuffle(pairs)
        return pairs

    def prepare(self, pairs):
        self.pairs = pairs

    def input_count(self):
        return len(self.pairs)

    def new_pass(self):
        return {}

    def op(self, aec, state, i):
        family, seed = self.pairs[i]
        bench = state.get(family)
        if bench is None:
            last = self.first + (0 if family in self.SINGLE else self.SEEDS_PER_FAMILY - 1)
            bench = state[family] = aec.report.BenchReport(
                family=family,
                seed_start=self.first,
                seed_end=last,
                algorithms=self.ALGORITHMS[family],
            )
        inst = aec.generators.generate(family, seed)
        digest = aec.fileio.instance_digest(inst)
        # LimitExceeded and BudgetExceeded propagate: a skipped seed is a failed op.
        exact = aec.oracle.exact_solve(inst, **self.LIMITS.get(family, {}))
        reports = {}
        for alg in self.ALGORITHMS[family]:
            rep = aec.cli.run_algorithm(inst, alg)
            rep.exact_value = exact.value
            reports[alg] = rep
        bench.add_entry(seed, digest, exact.value, reports)
        return inst, exact, reports

    def check(self, state, i, out):
        inst, exact, reports = out
        what = "{}:{}".format(*self.pairs[i])
        edges = [(e.u, e.v, e.tu, e.tv) for e in inst.edges]
        inc = incidence(inst.terminals, edges)
        opt = exact.value
        check_cover(inc, dict(exact.assignment.values), opt, f"{what} oracle")
        if opt < lower_bound_q(inc):
            raise CheckFailed(f"{what}: optimum {opt} is below the lower bound Q")
        for alg, rep in reports.items():
            values = dict(rep.assignment.values)
            check_cover(inc, values, rep.value, f"{what} {alg}")
            if rep.value < opt:
                raise CheckFailed(f"{what} {alg}: value {rep.value} beats the optimum {opt}")
            if not within_claim(rep.value, opt, rep.claimed_bound):
                raise CheckFailed(
                    f"{what} {alg}: value {rep.value} against optimum {opt} "
                    f"exceeds its claim {rep.claimed_bound}"
                )
            if i not in self.seen:
                self.value_sum += rep.value
                self.reference_sum += opt
        self.seen.add(i)

    def finish_pass(self, aec, state):
        """Timed: serialize each family's report, as ``aecover bench`` does."""
        return [(family, bench, bench.to_json()) for family, bench in state.items()]

    def check_finish(self, finished):
        for family, bench, text in finished:
            if bench.violations or bench.skipped:
                raise CheckFailed(f"{family}: bench report lists violations or skips")
            ref = self.refs.setdefault(family, text)
            if text != ref:
                raise CheckFailed(f"{family}: bench report differs from the first pass")

    def canonical_reports(self):
        return [self.refs.get(family) for family in self.ALGORITHMS]


WORKLOADS = {
    cls.name: cls for cls in (SolveGeneral, SolveFacility, SolveUnit, Certify)
}
