"""Canonical instance files: exact parsing, round trips, strict keys."""

import hashlib
import json
from fractions import Fraction

import pytest

import aecover.fileio
from aecover.cli import ALGORITHMS, main, run_algorithm
from aecover.core import Instance
from aecover.errors import AecError, InvalidInstance
from aecover.fileio import (
    dumps_doc,
    dumps_instance,
    format_fraction,
    instance_digest,
    loads_instance,
    save_instance,
    load_instance,
)
from aecover.generators import FAMILIES, generate, random_general, random_minpower, tight73
from aecover.oracle import exact_solve
from aecover.report import BenchReport


def instance_doc(inst):
    """The former document builder, kept as the reference for the writer."""
    return {
        "nodes": list(inst.nodes),
        "terminals": list(inst.terminal_list),
        "edges": [
            {"u": e.u, "v": e.v, "tu": format_fraction(e.tu), "tv": format_fraction(e.tv)}
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
