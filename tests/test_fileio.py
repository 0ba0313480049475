"""Canonical instance files: exact parsing, round trips, strict keys."""

import hashlib
import json
import math
import random
import sys
from fractions import Fraction

import pytest

import aecover.fileio
from aecover.cli import ALGORITHMS, main, run_algorithm
from aecover.core import Edge, Instance, as_fraction
from aecover.errors import AecError, InvalidInstance
from aecover.fileio import (
    dumps_doc,
    dumps_instance,
    instance_digest,
    loads_instance,
    save_instance,
    load_instance,
)
from aecover.generators import FAMILIES, generate, random_general, random_minpower, tight73
from aecover.oracle import exact_solve
from aecover.report import BenchReport
from conftest import reference_from_data


def instance_doc(inst):
    """The former document builder, kept as the reference for the writer."""
    return {
        "nodes": list(inst.nodes),
        "terminals": list(inst.terminal_list),
        "edges": [
            {"u": e.u, "v": e.v, "tu": str(e.tu), "tv": str(e.tv)}
            for e in inst.edges
        ],
    }


def canonical_bytes(doc):
    """The former canonical encoding: the layout the writer must reproduce."""
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


def instance_text(tu, tv=1):
    return json.dumps(
        {
            "nodes": ["a", "b"],
            "terminals": ["a"],
            "edges": [{"u": "a", "v": "b", "tu": tu, "tv": tv}],
        }
    )


def test_rational_forms_parse_exactly():
    text = """
    {
      "nodes": ["a", "b"],
      "terminals": ["a"],
      "edges": [{"u": "a", "v": "b", "tu": "3/2", "tv": 0.1}]
    }
    """
    inst = loads_instance(text)
    assert inst.edges[0].tu == Fraction(3, 2)
    assert inst.edges[0].tv == Fraction(1, 10)  # decimal literal, parsed exactly


def test_integer_thresholds():
    text = '{"nodes": ["a","b"], "terminals": [], "edges": [{"u":"a","v":"b","tu":2,"tv":7}]}'
    inst = loads_instance(text)
    assert inst.edges[0].tv == 7


def test_unknown_keys_rejected():
    with pytest.raises(InvalidInstance):
        loads_instance('{"nodes": [], "terminals": [], "edges": [], "extra": 1}')
    with pytest.raises(InvalidInstance):
        loads_instance(
            '{"nodes": ["a","b"], "terminals": [], '
            '"edges": [{"u":"a","v":"b","tu":1,"tv":1,"w":2}]}'
        )
    with pytest.raises(InvalidInstance):
        loads_instance('{"nodes": [], "terminals": []}')


def test_round_trip_bytes(tmp_path):
    for seed in range(10):
        inst = random_general(8, 13, 3, seed)
        path = tmp_path / f"i{seed}.json"
        save_instance(inst, path)
        raw = path.read_bytes()
        again = load_instance(path)
        save_instance(again, path)
        assert path.read_bytes() == raw
        assert instance_digest(inst) == instance_digest(again)


def test_digest_distinguishes_instances():
    a = random_minpower(8, 12, 0)
    b = random_minpower(8, 12, 1)
    assert instance_digest(a) != instance_digest(b)


def test_digest_serializes_each_instance_once(monkeypatch):
    calls = []

    def counting(inst):
        calls.append(inst)
        return dumps_instance(inst)

    monkeypatch.setattr(aecover.fileio, "dumps_instance", counting)
    for family in ("unit", "general", "uniform"):
        inst = generate(family, 3)
        digest = instance_digest(inst)
        assert digest == hashlib.sha256(dumps_instance(inst).encode()).hexdigest()
        for alg in FAMILIES[family].algorithms:
            assert run_algorithm(inst, alg).instance_digest == digest
        assert instance_digest(inst) == digest
        assert calls == [inst]
        calls.clear()


def test_dumps_parses_back_to_equal_instance():
    inst, _ = tight73()
    again = loads_instance(dumps_instance(inst))
    assert again == inst


def assert_writer_matches_reference(inst, tmp_path=None):
    """The text and digest match the reference bytes; given a directory, so
    does the file ``save_instance`` writes there."""
    expected = canonical_bytes(instance_doc(inst))
    assert dumps_instance(inst).encode() == expected
    assert instance_digest(inst) == hashlib.sha256(expected).hexdigest()
    if tmp_path is not None:
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        assert path.read_bytes() == expected


def test_writer_matches_json_dumps_on_families(tmp_path):
    # save_instance writes dumps_instance's bytes verbatim, so one file per
    # family checks it; a small file write costs tens of ms on slow disks.
    for family in sorted(FAMILIES):
        for seed in range(30):
            assert_writer_matches_reference(generate(family, seed), tmp_path if seed == 0 else None)


def test_writer_matches_json_dumps_on_edge_cases(tmp_path):
    cases = [
        Instance.from_data([], [], []),
        Instance.from_data(["a"], [], []),
        Instance.from_data(["a"], ["a"], []),
        Instance.from_data(["a", "b"], [], [("a", "b", 0, "7/3")]),
        Instance.from_data(
            ['q"uote', "back\\slash", "new\nline", "tab\t", "\u00e9t\u00e9", "\U0001f600",
             "\u2028", "\x7f"],
            ['q"uote', "\u00e9t\u00e9", "\U0001f600"],
            [
                ('q"uote', "back\\slash", "1/3", 2),
                ("\u00e9t\u00e9", "new\nline", 0, "5/2"),
                ("\U0001f600", "tab\t", 1, 1),
                ("\U0001f600", "\u2028", "3/7", 0),
                ("\x7f", "\u00e9t\u00e9", 4, "1/9"),
            ],
        ),
    ]
    for inst in cases:
        assert_writer_matches_reference(inst, tmp_path)
        assert loads_instance(dumps_instance(inst)) == inst


def assert_doc_writer_matches_json_dumps(doc):
    assert dumps_doc(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_doc_writer_matches_json_dumps_on_reports():
    # Every family x algorithm solve report, with the exact optimum attached
    # where the family's oracle limits allow it, and each family's bench report.
    for family in sorted(FAMILIES):
        spec = FAMILIES[family]
        bench = BenchReport(family=family, seed_start=0, seed_end=19, algorithms=spec.algorithms)
        for seed in range(20):
            inst = generate(family, seed)
            exact = exact_solve(inst, **spec.limits).value
            for alg in ALGORITHMS:
                try:
                    report = run_algorithm(inst, alg)
                except AecError:
                    continue
                assert_doc_writer_matches_json_dumps(report.to_doc())
                report.exact_value = exact
                assert_doc_writer_matches_json_dumps(report.to_doc())
            reports = {alg: run_algorithm(inst, alg) for alg in spec.algorithms}
            for report in reports.values():
                report.exact_value = exact
            bench.add_entry(seed, instance_digest(inst), exact, reports)
        assert_doc_writer_matches_json_dumps(bench.to_doc())


def test_doc_writer_matches_json_dumps_on_exact_document(tmp_path, capsys):
    path = tmp_path / "inst.json"
    save_instance(generate("general", 2), path)
    assert main(["exact", str(path)]) == 0
    text = capsys.readouterr().out
    doc = json.loads(text)
    assert doc["kind"] == "exact_result" and doc["optimal"] is True
    assert text == dumps_doc(doc)
    assert_doc_writer_matches_json_dumps(doc)


def test_doc_writer_matches_json_dumps_on_edge_cases():
    cases = [
        {},
        {"a": {}, "b": [], "c": [[], {}], "d": ([], ())},
        {
            "\u00e9t\u00e9": "\U0001f600",
            'q"uote': ["new\nline", "tab\t", "back\\slash", "\x7f", "\u2028"],
            "": "",
        },
        {"none": None, "true": True, "false": False, "list": [None, True, False]},
        {"ints": [0, -12, 10**30], "float": 1.5, "tuple": ("x", 1, None)},
        {"nested": [[1, [2, [[]]]], {"x": [None, {"y": ["z"]}]}], "z": [{"a": "b"}, "c"]},
    ]
    for doc in cases:
        assert_doc_writer_matches_json_dumps(doc)


def test_equal_rationals_load_to_equal_instances():
    loaded = [loads_instance(instance_text(tu)) for tu in ("1/2", 0.5, "0.5")]
    assert loaded[0] == loaded[1] == loaded[2]
    assert loaded[0].edges[0].tu == Fraction(1, 2)
    assert len({dumps_instance(inst) for inst in loaded}) == 1


@pytest.mark.parametrize("tu", ["x", "nan", "inf", "1/0", "", True, False, None, [1], {"n": 1}])
def test_malformed_threshold_raises_invalid_instance(tu):
    with pytest.raises(InvalidInstance):
        loads_instance(instance_text(tu))


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="the interpreter has no limit on integer digits")
def test_literal_over_the_digit_limit_names_the_limit():
    # The literal is an exact rational; the refusal is the interpreter's.
    limit = sys.get_int_max_str_digits()
    assert limit, "the digit limit is lifted in this process"
    for load in (as_fraction, lambda x: loads_instance(instance_text(x))):
        with pytest.raises(InvalidInstance) as exc:
            load("9" * (limit + 1))
        assert str(exc.value) == (
            f"threshold literal of {limit + 1} characters exceeds the interpreter's "
            f"limit on integer digits ({limit})"
        )


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="the interpreter has no limit on integer digits")
@pytest.mark.parametrize("fraction_part", ["", ".5"])
def test_json_number_over_the_digit_limit_names_the_limit(fraction_part):
    # A JSON number, not a string: the JSON parser meets the limit first.
    limit = sys.get_int_max_str_digits()
    assert limit, "the digit limit is lifted in this process"
    literal = "9" * (limit + 1) + fraction_part
    text = instance_text("X").replace('"X"', literal)
    with pytest.raises(InvalidInstance) as exc:
        loads_instance(text)
    assert str(exc.value) == (
        f"a JSON number exceeds the interpreter's limit on integer digits ({limit})"
    )


@pytest.mark.parametrize(
    "text",
    [
        '{"nodes": ["a", "b"], "terminals": "ab", "edges": []}',
        '{"nodes": "ab", "terminals": [], "edges": []}',
        '{"nodes": [], "terminals": [], "edges": {}}',
        '{"nodes": [], "terminals": [], "edges": ["ab"]}',
        '["nodes", "terminals", "edges"]',
        '{"nodes": [], "terminals": [],',
    ],
)
def test_malformed_structure_raises_invalid_instance(text):
    with pytest.raises(InvalidInstance):
        loads_instance(text)


# ---------------------------------------------------------------------------
# The one-pass loader against the former two-pass one


def reference_records(doc):
    """The former loader's first pass, kept as the reference: it checks the
    document and its edge records and parses their thresholds.  Returns the
    nodes, terminals and ``(u, v, tu, tv)`` edges it hands on."""
    if not isinstance(doc, dict):
        raise InvalidInstance("an instance must be a JSON object")
    keys = {"nodes", "terminals", "edges"}
    unknown = set(doc) - keys
    if unknown:
        raise InvalidInstance(f"unknown instance keys: {sorted(unknown)}")
    missing = keys - set(doc)
    if missing:
        raise InvalidInstance(f"missing instance keys: {sorted(missing)}")
    for key in ("nodes", "terminals", "edges"):
        if not isinstance(doc[key], list):
            raise InvalidInstance(f"{key} must be a list")
    for key in ("nodes", "terminals"):
        if not all(isinstance(x, str) for x in doc[key]):
            raise InvalidInstance(f"{key} must be strings")
    edges = []
    for rec in doc["edges"]:
        if not isinstance(rec, dict):
            raise InvalidInstance(f"edge record must be an object: {rec!r}")
        if rec.keys() != {"u", "v", "tu", "tv"}:
            bad = rec.keys() - {"u", "v", "tu", "tv"}
            if bad:
                raise InvalidInstance(f"unknown edge keys: {sorted(bad)}")
            raise InvalidInstance(f"incomplete edge record: {rec}")
        if not isinstance(rec["u"], str) or not isinstance(rec["v"], str):
            raise InvalidInstance(f"edge endpoints must be strings: {rec}")
        edges.append((rec["u"], rec["v"], as_fraction(rec["tu"]), as_fraction(rec["tv"])))
    return doc["nodes"], doc["terminals"], edges


def reference_parse(doc):
    """The former loader, kept as the reference: :func:`reference_records`,
    then ``Instance.from_data`` checks the nodes and edges and builds the
    instance."""
    return Instance.from_data(*reference_records(doc))


def load_outcome(text, parse=None):
    """The instance that ``text`` loads to (by ``parse`` of its document, or
    by ``loads_instance``), or its error's type and message."""
    try:
        if parse is None:
            inst = loads_instance(text)
        else:
            inst = parse(json.loads(text, parse_float=Fraction))
    except InvalidInstance as exc:
        return type(exc), str(exc)
    assert all(type(t) is Fraction for e in inst.edges for t in (e.tu, e.tv))
    return inst


def assert_loads_as_reference(text):
    """``text`` loads as the reference loads it, with a threshold table
    that matches the kept edges."""
    got = load_outcome(text)
    assert got == load_outcome(text, reference_parse)
    if isinstance(got, Instance):
        assert_thresholds_match_the_edges(got)
    return got


def assert_thresholds_match_the_edges(inst):
    """The threshold table, scale and unit test equal their values
    recomputed from the edges, whether or not the build pruned some: the
    table maps the level of each kept threshold, and no other, to it."""
    ends = [t for e in inst.edges for t in (e.tu, e.tv)]
    assert inst.scale == math.lcm(1, *(t.denominator for t in ends))
    assert inst.thresholds == {t * inst.scale: t for t in ends}
    assert all(type(level) is int for level in inst.thresholds)
    assert inst.is_unit() == all(t == 1 for t in ends)


def test_loader_matches_reference_on_families():
    for family in sorted(FAMILIES):
        for seed in range(20):
            inst = generate(family, seed)
            text = dumps_instance(inst)
            again = assert_loads_as_reference(text)
            assert again == inst
            assert dumps_instance(again) == text


LITERALS = ["2/4", "1/2", "0.5", "3/2", "7/3", "0", "2", 0, 1, 2, 0.5, 1.5, 2.25]


def random_doc(rng):
    """A valid document on up to six nodes whose thresholds mix equal
    literals, JSON ints and JSON floats, with repeated node pairs."""
    nodes = [f"n{i}" for i in range(rng.randint(2, 6))]
    edges = []
    for _ in range(rng.randint(0, 25)):
        u, v = rng.sample(nodes, 2)
        edges.append({"u": u, "v": v, "tu": rng.choice(LITERALS), "tv": rng.choice(LITERALS)})
    terminals = rng.sample(nodes, rng.randint(0, len(nodes)))
    return {"nodes": nodes, "terminals": terminals, "edges": edges}


def test_loader_matches_reference_on_random_docs():
    rng = random.Random(23)
    pruned = 0
    for case in range(500):
        doc = random_doc(rng)
        got = assert_loads_as_reference(json.dumps(doc))
        assert isinstance(got, Instance), case
        pruned += len(got.edges) < len(doc["edges"])
    assert pruned > 50


def edge_faults(rec):
    """Copies of the record ``rec``, each with a single fault."""
    u, v = rec["u"], rec["v"]
    return [
        [u, v], "edge", None,
        {**rec, "w": 1}, {k: x for k, x in rec.items() if k != "tv"},
        {"u": u, "v": v, "tu": 1, "x": 1},
        {**rec, "u": 7}, {**rec, "v": ["n0"]}, {**rec, "u": {"n": 0}}, {**rec, "v": None},
        {**rec, "u": "zz"}, {**rec, "v": "zz"}, {**rec, "v": u},
        {**rec, "tu": "x"}, {**rec, "tv": "1/0"}, {**rec, "tu": "nan"}, {**rec, "tv": ""},
        {**rec, "tu": True}, {**rec, "tv": None}, {**rec, "tu": [1]}, {**rec, "tv": {"n": 1}},
        {**rec, "tu": "-1/2"}, {**rec, "tv": -1}, {**rec, "tu": -0.5},
        {**rec, "tu": "-1/2", "tv": "x"}, {**rec, "tu": "x", "tv": "-1"},
        {**rec, "u": v, "v": u, "tv": "-0.0001"},
    ]


def doc_faults(doc):
    """Copies of the valid ``doc``, each with a single fault outside its
    edge records."""
    nodes = doc["nodes"]
    return [
        [doc], {**doc, "extra": 1}, {k: x for k, x in doc.items() if k != "terminals"},
        {**doc, "nodes": "n0"}, {**doc, "edges": {}}, {**doc, "terminals": [0]},
        {**doc, "nodes": nodes + [nodes[0]]}, {**doc, "terminals": ["zz"]},
    ]


def test_loader_matches_reference_on_single_faults():
    rng = random.Random(29)
    checked = 0
    for case in range(60):
        doc = random_doc(rng)
        faulty = doc_faults(doc)
        if doc["edges"]:
            at = rng.randrange(len(doc["edges"]))
            for rec in edge_faults(doc["edges"][at]):
                edges = list(doc["edges"])
                edges[at] = rec
                faulty.append({**doc, "edges": edges})
        for bad in faulty:
            got = assert_loads_as_reference(json.dumps(bad))
            assert got[0] is InvalidInstance, (case, bad)
            checked += 1
    assert checked > 1000


# The pruned edge holds the only threshold with denominator 3: the build
# parses it, but the kept edges do not have it.
PRUNED_DOC = {
    "nodes": ["a", "b"],
    "terminals": ["a"],
    "edges": [{"u": "a", "v": "b", "tu": "1", "tv": "4/3"},
              {"u": "b", "v": "a", "tu": 1, "tv": "1"}],
}


def test_dominated_edge_leaves_scale_and_unit_to_the_kept_edges():
    inst = assert_loads_as_reference(json.dumps(PRUNED_DOC))
    assert [tuple(e) for e in inst.edges] == [("a", "b", 1, 1)]
    assert inst.scale == 1 and inst.is_unit()
    assert inst.thresholds == {1: 1} and inst.scaled_edges == (("a", "b", 1, 1),)


def test_generated_instances_keep_thresholds_that_match_the_edges():
    for family in sorted(FAMILIES):
        for seed in range(20):
            assert_thresholds_match_the_edges(generate(family, seed))


def test_from_data_parses_each_literal_once(monkeypatch):
    calls = []  # the argument of every as_fraction call the build makes
    monkeypatch.setattr(aecover.core, "as_fraction", lambda x: calls.append(x) or as_fraction(x))
    inst = Instance.from_data(
        ["a", "b", "c"], ["a"],
        [("a", "b", "3/2", "3/2"), ("c", "a", "3/2", "1"), ("b", "c", "1", "3/2")],
    )
    assert calls == ["3/2", "1"]
    assert inst.scale == 2 and inst.thresholds == {3: Fraction(3, 2), 2: 1}
    assert inst.scaled_edges == (("a", "b", 3, 3), ("a", "c", 2, 3), ("b", "c", 2, 3))
    assert_thresholds_match_the_edges(inst)


def test_from_data_keeps_the_objects_it_was_given():
    # Non-string thresholds are not looked up by value: a Fraction is taken
    # as given, and equal ones share one level of the table.
    half = Fraction(1, 2)
    edges = [("a", "b", half, half), ("b", "c", Fraction(1, 3), 2), ("c", "a", half, 2)]
    inst = Instance.from_data(["a", "b", "c"], ["a", "c"], edges)
    assert inst.scale == 6
    assert inst.thresholds == {3: half, 2: Fraction(1, 3), 12: 2}
    assert inst.thresholds[3] is half and inst.edges[0].tu is half
    assert inst.scaled_edges == (("a", "b", 3, 3), ("a", "c", 12, 3), ("b", "c", 2, 12))
    assert_thresholds_match_the_edges(inst)


def assert_table_matches_the_reference(inst, doc):
    """``inst``'s integer table, scale and lazily built edges equal their
    values computed from the reference loader's edges of ``doc``."""
    assert "edges" not in inst.__dict__  # no Edge tuple until one is read
    _, _, kept = reference_from_data(*reference_records(doc))
    scale = math.lcm(1, *(t.denominator for e in kept for t in e[2:]))
    assert inst.scale == scale
    assert inst.scaled_edges == tuple((u, v, tu * scale, tv * scale) for u, v, tu, tv in kept)
    assert all(type(t) is int for e in inst.scaled_edges for t in e[2:])
    assert [tuple(e) for e in inst.edges] == kept
    assert all(type(e) is Edge and type(e.tu) is type(e.tv) is Fraction for e in inst.edges)


def test_integer_table_matches_the_reference_edges():
    rng = random.Random(23)  # the documents of the random-document test
    texts = [json.dumps(random_doc(rng)) for _ in range(500)] + [json.dumps(PRUNED_DOC)]
    for family in sorted(FAMILIES):
        for seed in range(20):
            inst = generate(family, seed)
            texts.append(dumps_instance(inst))  # from the table alone
            assert_table_matches_the_reference(inst, json.loads(texts[-1], parse_float=Fraction))
    for text in texts:
        assert_table_matches_the_reference(
            loads_instance(text), json.loads(text, parse_float=Fraction)
        )


def test_equality_and_hash_follow_the_edges():
    rng = random.Random(23)
    for case in range(500):
        text = json.dumps(random_doc(rng))
        inst = loads_instance(text)
        nodes, terminals, kept = reference_from_data(
            *reference_records(json.loads(text, parse_float=Fraction))
        )
        # The kept edges alone, reversed and as other literals, build an
        # equal instance.
        again = Instance.from_data(
            nodes, terminals, [(v, u, Fraction(tv), str(tu)) for u, v, tu, tv in reversed(kept)]
        )
        assert inst == again and hash(inst) == hash(again), case
        if kept:
            u, v, tu, tv = kept[-1]
            moved = Instance.from_data(nodes, terminals, [*kept[:-1], (u, v, tu, tv + 1)])
            assert moved != inst, case
    # One integer table on two scales is two instances.
    whole = Instance.from_data(["a", "b"], ["a"], [("a", "b", 1, 2)])
    half = Instance.from_data(["a", "b"], ["a"], [("a", "b", "1/2", 1)])
    assert whole.scaled_edges == half.scaled_edges and whole != half


# Documents with more than one faulty record


def test_first_faulty_record_is_named():
    # A self loop in record 0 precedes a record that is no object.
    text = json.dumps({
        "nodes": ["a", "b"],
        "terminals": ["a"],
        "edges": [{"u": "a", "v": "a", "tu": "1", "tv": "1"}, "edge",
                  {"u": "a", "v": "b", "tu": "-1", "tv": "1"}],
    })
    assert load_outcome(text) == (InvalidInstance, "self loop at 'a'")


def test_first_faulty_record_in_file_order_is_named_whatever_its_fault():
    rng = random.Random(31)
    checked = 0
    for case in range(60):
        doc = random_doc(rng)
        if len(doc["edges"]) < 2:
            continue
        first, later = sorted(rng.sample(range(len(doc["edges"])), 2))
        for bad in rng.sample(edge_faults(doc["edges"][first]), 6):
            only = list(doc["edges"])
            only[first] = bad
            want = load_outcome(json.dumps({**doc, "edges": only}), reference_parse)
            assert want[0] is InvalidInstance
            for worse in edge_faults(doc["edges"][later]):
                both = list(only)
                both[later] = worse
                assert load_outcome(json.dumps({**doc, "edges": both})) == want, (case, bad, worse)
                checked += 1
    assert checked > 5000
