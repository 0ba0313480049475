"""Instance constructors: named-problem reductions, seeded random families,
and the 73/60 tight example for the average-price greedy.

Every generator is a pure function of its arguments and seed; identical specs
produce byte-identical instance files.  Random families reject and redraw
infeasible graphs instead of repairing them.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .core import Instance, Rational, as_fraction
from .errors import DomainError, EmptyLevels, GenerationFailed, InvalidInstance

_RETRY_BUDGET = 500


# ---------------------------------------------------------------------------
# Reductions from named problems


def from_facility_location(
    clients: Sequence[str],
    facilities: Sequence[str],
    opening: Mapping[str, Rational],
    service: Mapping[tuple[str, str], Rational],
) -> Instance:
    """Facility location as a bipartite instance: an edge per available
    (client, facility) pair with the service cost on the client side and the
    opening cost on the facility side.  The costs reach
    :meth:`Instance.from_data` as given, so each is parsed once per literal
    or object and checked pair by pair there: a negative one is refused as
    InvalidInstance naming the pair."""
    edges = [(u, v, d, opening[v]) for (u, v), d in service.items()]
    return Instance.from_data(list(clients) + list(facilities), clients, edges)


def from_theta_setcover(
    sets: Mapping[str, Iterable[str]],
    elements: Sequence[str],
    weights: Mapping[str, Rational],
    theta: Rational,
) -> Instance:
    """Weighted set cover where picking a set also charges weight/theta per
    covered element; the resulting slope is at most theta.  A negative
    weight is refused by :meth:`Instance.from_data`, as a negative threshold
    on the set's first edge."""
    th = as_fraction(theta)
    if th <= 0:
        raise DomainError(f"theta must be positive, got {theta!r}")
    edges = []
    for v, members in sets.items():
        w = as_fraction(weights[v])
        per_element = w / th
        edges.extend((u, v, per_element, w) for u in members)
    return Instance.from_data(list(elements) + list(sets), elements, edges)


def from_installation(
    nodes: Sequence[str],
    terminals: Sequence[str],
    demands: Mapping[tuple[str, str], Rational],
    coefficients: Mapping[tuple[str, str], tuple[Rational, Rational]],
    levels: Mapping[str, Sequence[Rational]],
) -> Instance:
    """Tower-height model: the pair uv opens when ``cu*a_u + cv*a_v >= h``,
    each height drawn from its node's menu, and becomes threshold edges.

    For each height ``a`` of u, in sorted order, the least height ``b`` of
    v with ``cu*a + cv*b >= h`` gives the edge ``(u, v, a, b)``.  The
    coefficients are positive, so the rule is monotone, and every pair that
    opens uv lies above one of these edges.  A Pareto-minimal pair is among
    them, as no lower ``b`` serves its ``a``; any other edge lies above a
    minimal pair, and :meth:`Instance.from_data` prunes it as dominated.
    So the instance keeps exactly the Pareto-minimal pairs.

    The search runs on integers.  With ``D`` the lcm of every demand,
    coefficient and menu denominator, ``CU = cu*D``, ``ia = a*D`` and
    ``H = h*D*D`` are integers, and multiplying both sides by ``D*D > 0``
    keeps the inequality: it reads ``CU*ia + CV*ib >= H``.  As ``ib`` is an
    integer, that holds exactly when ``ib`` is at least the ceiling of
    ``(H - CU*ia)/CV``, which is ``-((CU*ia - H) // CV)``; ``bisect_left`` on
    v's integer keys finds the least such height.  ``x -> x*D`` is strictly
    increasing, so a stable sort on the integer keys orders each menu as a
    sort of its ``Fraction`` values would, equal heights included.  The
    edges carry the menu's own values.

    Checks, in order: every pair's coefficients (both positive) and demand
    (non-negative), raising DomainError; every menu literal, by
    :func:`as_fraction`; then, pair by pair, each endpoint is a node
    (InvalidInstance) with a non-empty menu (EmptyLevels)."""
    rules = []
    for pair, h in demands.items():
        u, v = pair
        cu, cv = coefficients[pair]
        cu, cv, h = as_fraction(cu), as_fraction(cv), as_fraction(h)
        if cu.numerator <= 0 or cv.numerator <= 0:
            raise DomainError(f"coefficients must be positive on pair {pair}")
        if h.numerator < 0:
            raise DomainError(f"negative demand on pair {pair}")
        rules.append((u, v, h, cu, cv))
    parsed = {n: [as_fraction(x) for x in lv] for n, lv in levels.items()}
    D = math.lcm(1, *{x.denominator for rule in rules for x in rule[2:]},
                 *{x.denominator for lv in parsed.values() for x in lv})
    menus = {}
    for n, lv in parsed.items():
        keyed = sorted([(x.numerator * (D // x.denominator), x) for x in lv], key=itemgetter(0))
        menus[n] = [k for k, _ in keyed], [x for _, x in keyed]
    node_set = set(nodes)
    edges = []
    for u, v, h, cu, cv in rules:
        for node in (u, v):
            if node not in node_set:
                raise InvalidInstance(f"pair endpoint {node!r} is not a node")
            if not parsed.get(node):
                raise EmptyLevels(node)
        H = h.numerator * (D * D // h.denominator)
        CU = cu.numerator * (D // cu.denominator)
        CV = cv.numerator * (D // cv.denominator)
        keys_v, lv = menus[v]
        for ia, a in zip(*menus[u]):
            j = bisect_left(keys_v, -((CU * ia - H) // CV))
            if j < len(lv):
                edges.append((u, v, a, lv[j]))
    return Instance.from_data(nodes, terminals, edges)


# ---------------------------------------------------------------------------
# Seeded random families


def _check_graph_size(n: int, m: int, r: Optional[int], r_low: int) -> None:
    """Refuse, before the first draw, a size the draw cannot meet: r is
    drawn from ``r_low`` up to ``n - 1`` when not given, a given r picks r
    of the n nodes, and each of the m edges samples two nodes."""
    if r is None and n <= r_low:
        raise DomainError(f"n must exceed {r_low} to draw r, got n={n}")
    if r is not None and not 0 <= r <= n:
        raise DomainError(f"r must be in 0..n, got r={r} with n={n}")
    if m < 0:
        raise DomainError(f"m must be non-negative, got m={m}")
    if m and n < 2:
        raise DomainError(f"n must be at least 2 to draw an edge, got n={n}")


def _random_graph_instance(
    rng: random.Random,
    n: int,
    m: int,
    r: int,
    draw_thresholds,
) -> Instance:
    nodes = [f"v{i:02d}" for i in range(n)]
    terminals = sorted(rng.sample(nodes, r))
    for _ in range(_RETRY_BUDGET):
        edges = []
        for _ in range(m):
            u, v = rng.sample(nodes, 2)
            tu, tv = draw_thresholds()
            edges.append((u, v, tu, tv))
        touched = {x for e in edges for x in (e[0], e[1])}
        if all(t in touched for t in terminals):
            return Instance.from_data(nodes, terminals, edges)
    raise GenerationFailed(f"no feasible draw after {_RETRY_BUDGET} attempts")


# Shared threshold values: Instance.from_data parses each object once, so a
# draw reuses these instead of building a Fraction per edge or pair.
_ONE = Fraction(1)
_ONE_ONE = (_ONE, _ONE)
_MINPOWER_POOL = tuple(Fraction(x) for x in ("1", "3/2", "2", "3", "4"))
_GENERAL_POOL = tuple(Fraction(x) for x in ("1", "3/2", "2", "3", "5", "8"))


def random_minpower(n: int, m: int, seed: int, r: Optional[int] = None) -> Instance:
    """Equal thresholds on both edge sides; the slope is always at most 1."""
    _check_graph_size(n, m, r, 2)
    rng = random.Random(seed)
    r = r if r is not None else rng.randint(2, min(6, n - 1))

    def draw():
        t = rng.choice(_MINPOWER_POOL)
        return t, t

    return _random_graph_instance(rng, n, m, r, draw)


def random_general(n: int, m: int, levels: int, seed: int, r: Optional[int] = None) -> Instance:
    """Independent per-endpoint thresholds from a pool of ``levels`` values."""
    if not 1 <= levels <= len(_GENERAL_POOL):
        raise DomainError(f"levels must be in 1..{len(_GENERAL_POOL)}")
    _check_graph_size(n, m, r, 2)
    rng = random.Random(seed)
    r = r if r is not None else rng.randint(2, min(6, n - 1))
    pool = _GENERAL_POOL[:levels]

    def draw():
        return rng.choice(pool), rng.choice(pool)

    return _random_graph_instance(rng, n, m, r, draw)


def random_unit(n: int, m: int, seed: int, r: Optional[int] = None) -> Instance:
    """All thresholds exactly 1."""
    _check_graph_size(n, m, r, 3)
    rng = random.Random(seed)
    r = r if r is not None else rng.randint(3, min(8, n - 1))
    return _random_graph_instance(rng, n, m, r, lambda: _ONE_ONE)


_SERVICE_POOL = tuple(Fraction(x) for x in ("1", "3/2", "2"))
_MULTIPLIERS = (Fraction(1, 2), _ONE, Fraction(2), Fraction(3))


def random_uniform(seed: int, theta: Rational = 5, unit: bool = False) -> Instance:
    """Random locally uniform bipartite instance of 3..6 clients and 2..4
    facilities with slope at most theta.

    With ``unit=True`` all weights and thresholds are 1 (the set-cover shape),
    so the slope is 1 and a theta below 1 is refused.
    """
    th = as_fraction(theta)
    if th <= 0:
        raise DomainError(f"theta must be positive, got {theta!r}")
    if unit and th < 1:
        raise DomainError(f"theta must be at least 1 for unit weights, got {theta!r}")
    rng = random.Random(seed)
    nc = rng.randint(3, 6)
    nf = rng.randint(2, 4)
    clients = [f"t{i:02d}" for i in range(nc)]
    facilities = [f"f{i:02d}" for i in range(nf)]
    multipliers = [f for f in (*_MULTIPLIERS, th) if f <= th]
    for _ in range(_RETRY_BUDGET):
        opening: dict[str, Fraction] = {}
        service: dict[tuple[str, str], Fraction] = {}
        for v in facilities:
            t = _ONE if unit else rng.choice(_SERVICE_POOL)
            w = _ONE if unit else t * rng.choice(multipliers)
            opening[v] = w
            for u in clients:
                if rng.random() < 0.6:
                    service[(u, v)] = t
        if all(any((u, v) in service for v in facilities) for u in clients):
            return from_facility_location(clients, facilities, opening, service)
    raise GenerationFailed(f"no feasible draw after {_RETRY_BUDGET} attempts")


_SET_WEIGHT_POOL = tuple(Fraction(x) for x in ("1", "2", "5/2", "3"))


def random_theta_setcover(seed: int, theta: Rational) -> Instance:
    """Random theta-set-cover instance of 3..6 elements and 2..4 sets."""
    rng = random.Random(seed)
    ne = rng.randint(3, 6)
    ns = rng.randint(2, 4)
    elements = [f"e{i:02d}" for i in range(ne)]
    set_ids = [f"s{i:02d}" for i in range(ns)]
    for _ in range(_RETRY_BUDGET):
        membership = {
            v: sorted(rng.sample(elements, rng.randint(1, ne))) for v in set_ids
        }
        covered = {x for s in membership.values() for x in s}
        if covered == set(elements):
            weights = {v: rng.choice(_SET_WEIGHT_POOL) for v in set_ids}
            return from_theta_setcover(membership, elements, weights, theta)
    raise GenerationFailed(f"no feasible draw after {_RETRY_BUDGET} attempts")


_HEIGHT_LEVELS = tuple(Fraction(x) for x in ("5", "15", "20"))
_DEMAND_POOL = tuple(Fraction(x) for x in ("10", "15", "20", "25", "30", "35", "40"))


def random_installation(
    seed: int,
    n_range: tuple[int, int] = (5, 8),
    r_range: tuple[int, int] = (2, 5),
) -> Instance:
    """Random tower-height instances over a fixed 3-level height menu, each
    pair's coefficients 1 and 1."""
    n_low, n_high = n_range
    r_low, r_high = r_range
    if not 3 <= n_low <= n_high:
        raise DomainError(f"n_range must have 3 <= low <= high, got {n_range}")
    if not 0 <= r_low <= r_high or r_low >= n_low:
        raise DomainError(f"r_range must have 0 <= low <= high and low < {n_low}, got {r_range}")
    rng = random.Random(seed)
    n = rng.randint(n_low, n_high)
    r = rng.randint(r_low, min(r_high, n - 1))
    nodes = [f"v{i:02d}" for i in range(n)]
    terminals = sorted(rng.sample(nodes, r))
    all_pairs = [(nodes[i], nodes[j]) for i in range(n) for j in range(i + 1, n)]
    m = rng.randint(n, min(2 * n, len(all_pairs)))
    for _ in range(_RETRY_BUDGET):
        pairs = sorted(rng.sample(all_pairs, m))
        touched = {x for p in pairs for x in p}
        if not all(t in touched for t in terminals):
            continue
        demands = {p: rng.choice(_DEMAND_POOL) for p in pairs}
        coefficients = dict.fromkeys(pairs, _ONE_ONE)
        level_map = dict.fromkeys(nodes, _HEIGHT_LEVELS)
        return from_installation(nodes, terminals, demands, coefficients, level_map)
    raise GenerationFailed(f"no feasible draw after {_RETRY_BUDGET} attempts")


# ---------------------------------------------------------------------------
# The tight 73/60 example

# 12 stars of 4 leaves, each star's upper node, and 12/d bottoms of each
# degree d = 4, 3, 2.
_T73_LEAVES = tuple(f"t{i:02d}" for i in range(48))
_T73_UPPERS = tuple(f"u{i:02d}" for i in range(12))
_T73_BOTTOMS = tuple(f"w{i:02d}" for i in range(13))
_T73_PRIORITY = _T73_BOTTOMS + _T73_UPPERS


def tight73() -> tuple[Instance, tuple[str, ...]]:
    """48 unit-threshold terminals, 12 upper covering nodes (the optimum) and
    13 bottom nodes wired so that a bottoms-first tie order makes the
    average-price greedy pay 73 instead of 60.

    A bottom node of degree d covers leaf slot 4-d of d consecutive stars;
    leaf 3 of every star is reachable only from its upper node.  Returns the
    instance and the adversarial facility priority order (bottoms before
    uppers).
    """
    edges = [
        (_T73_LEAVES[4 * star + slot], up, _ONE, _ONE)
        for star, up in enumerate(_T73_UPPERS)
        for slot in range(4)
    ]
    bottoms = iter(_T73_BOTTOMS)
    for d in (4, 3, 2):
        for first, w in zip(range(0, 12, d), bottoms):
            for star in range(first, first + d):
                edges.append((_T73_LEAVES[4 * star + 4 - d], w, _ONE, _ONE))
    inst = Instance.from_data(_T73_LEAVES + _T73_UPPERS + _T73_BOTTOMS, _T73_LEAVES, edges)
    return inst, _T73_PRIORITY


# ---------------------------------------------------------------------------
# Bench families: one record of facts per family, for the CLI and the tests


@dataclass(frozen=True)
class Family:
    """A bench family: its seeded generator, the algorithms ``bench``
    certifies on it, the oracle limits it needs beyond the defaults, and the
    facility priority list ``gen`` writes beside its instance (none if empty)."""

    generator: Callable[[int], Instance]
    algorithms: tuple[str, ...]
    limits: Mapping[str, int] = field(default_factory=dict)
    priority: tuple[str, ...] = ()


def _sized(
    salt: int, low: int, high: int, make: Callable[[int, int, int], Instance]
) -> Callable[[int], Instance]:
    """A random graph family of n in low..high nodes and n..2n edges, with
    n and the edge count drawn from ``seed ^ salt``."""

    def gen(seed: int) -> Instance:
        rng = random.Random(seed ^ salt)
        n = rng.randint(low, high)
        return make(n, rng.randint(n, 2 * n), seed)

    return gen


_GENERAL = ("general",)
_UNIFORM = ("locally-uniform",)

FAMILIES = {
    "minpower": Family(_sized(0x5EED, 6, 10, random_minpower), _GENERAL),
    "setcover-t2": Family(lambda seed: random_theta_setcover(seed, 2), _GENERAL),
    "setcover-t5": Family(lambda seed: random_theta_setcover(seed, 5), _GENERAL),
    "setcover-t10": Family(lambda seed: random_theta_setcover(seed, 10), _GENERAL),
    "installation": Family(random_installation, _GENERAL),
    "uniform": Family(lambda seed: random_uniform(seed, theta=5), _UNIFORM),
    "uniform-unit": Family(lambda seed: random_uniform(seed, theta=1, unit=True), _UNIFORM),
    "unit": Family(_sized(0xDEED, 8, 12, random_unit), ("unit-a1", "unit-a2")),
    "general": Family(
        _sized(0xFEED, 6, 10, lambda n, m, seed: random_general(n, m, 3, seed)), _GENERAL
    ),
    # The oracle needs all 48 terminals; the generator ignores its seed.
    "tight73": Family(
        lambda seed: tight73()[0],
        _UNIFORM,
        limits={"max_terminals": 48, "max_nodes": 80},
        priority=_T73_PRIORITY,
    ),
}


def generate(family: str, seed: int) -> Instance:
    try:
        gen = FAMILIES[family].generator
    except KeyError:
        raise DomainError(f"unknown family {family!r}; known: {sorted(FAMILIES)}") from None
    return gen(seed)
