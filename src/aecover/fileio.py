"""Canonical instance file format and the one canonical document layout.

Instance files are JSON documents with exactly the keys ``nodes``,
``terminals`` and ``edges``; thresholds are rational-valued strings such as
"3/2" or decimal/integer literals, parsed exactly.  Files written by
:func:`save_instance` are canonical: loading and re-saving one reproduces the
bytes.  The loader, :func:`parse_instance_doc`, checks the document's keys,
its lists and its edge records' shape, and hands the node and terminal ids
and the records' ``(u, v, tu, tv)`` to :meth:`Instance.from_data`, which
checks the ids and the edges and builds the instance.

The canonical text is what ``json.dumps(doc, sort_keys=True, indent=2)``
followed by a newline gives for the document ``{"nodes": [...], "terminals":
[...], "edges": [{"u", "v", "tu", "tv"}, ...]}``: keys sorted (``edges``,
``nodes``, ``terminals``; per edge ``tu``, ``tv``, ``u``, ``v``), two spaces
per level, one item per line, ``[]`` for an empty list, node ids escaped to
ASCII and thresholds as fraction strings such as "3/2".  :func:`dumps_instance`
writes that layout directly with string joins, because any ``indent`` makes
``json.dumps`` fall back to its pure-Python encoder, which cost more than
the solve it was reporting on.  The instance digest is the sha256 of the
UTF-8 bytes of this text, computed once per instance.  Report documents are
written by :func:`dumps_doc` in the same layout, also directly: keys sorted,
strings and keys escaped by ``encode_basestring_ascii``, ints by their repr,
``{}`` and ``[]`` for empty containers; only other leaves (``None``, bools,
floats) go through ``json.dumps``.  This module is the only caller of
``json.dumps``.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import Any, Mapping, Optional, Union

from .core import Assignment, Instance
from .errors import InvalidInstance

SCHEMA_VERSION = 1

_INSTANCE_KEYS = {"nodes", "terminals", "edges"}
_EDGE_KEYS = {"u", "v", "tu", "tv"}
_EDGE_TUPLE = itemgetter("u", "v", "tu", "tv")


def format_float(x: float) -> str:
    return f"{x:.4f}"


def format_slope(x: Union[Fraction, float]) -> str:
    """A slope as a fraction string, or "inf" for an unbounded one."""
    return "inf" if x == math.inf else str(Fraction(x))


def _write_value(value: Any, pad: str, out: list[str]) -> None:
    """Append the canonical text of ``value``, nested under ``pad``.  A
    string item of a container is written in the container's own loop,
    without a call of its own: most leaves of a report are strings."""
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{\n" + inner
        for key in sorted(value):
            item = value[key]
            if type(item) is str:
                out.append(f"{sep}{encode_basestring_ascii(key)}: {encode_basestring_ascii(item)}")
            else:
                out.append(f"{sep}{encode_basestring_ascii(key)}: ")
                _write_value(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[\n" + inner
        for item in value:
            if type(item) is str:
                out.append(sep + encode_basestring_ascii(item))
            else:
                out.append(sep)
                _write_value(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "]")
    elif isinstance(value, int) and not isinstance(value, bool):
        out.append(int.__repr__(value))
    else:
        out.append(json.dumps(value))


def dumps_doc(doc: Mapping[str, Any]) -> str:
    """A report document as canonical text, the bytes of
    ``json.dumps(doc, sort_keys=True, indent=2)`` plus a newline."""
    out: list[str] = []
    _write_value(doc, "", out)
    out.append("\n")
    return "".join(out)


def _record_fault(rec: Any) -> Optional[InvalidInstance]:
    """The error for an edge record that is no object, has other keys than
    ``u``, ``v``, ``tu`` and ``tv``, or has an endpoint that is no string,
    checked in that order; ``None`` for a record of the right shape."""
    if not isinstance(rec, dict):
        return InvalidInstance(f"edge record must be an object: {rec!r}")
    bad = rec.keys() - _EDGE_KEYS
    if bad:
        return InvalidInstance(f"unknown edge keys: {sorted(bad)}")
    if rec.keys() != _EDGE_KEYS:
        return InvalidInstance(f"incomplete edge record: {rec}")
    if not (isinstance(rec["u"], str) and isinstance(rec["v"], str)):
        return InvalidInstance(f"edge endpoints must be strings: {rec}")
    return None


def parse_instance_doc(doc: Mapping[str, Any]) -> Instance:
    """The instance of a document: its keys and lists are checked here, the
    rest by :meth:`Instance.from_data` on the records' ``(u, v, tu, tv)``.
    A record that is no object, lacks a key or has an endpoint that is no
    node makes that raise, so a build stands if every record has four keys;
    else the records before the first of another shape (or all) are built
    again, so the first fault in file order, an edge's or a shape, is raised."""
    if not isinstance(doc, dict):
        raise InvalidInstance("an instance must be a JSON object")
    unknown = set(doc) - _INSTANCE_KEYS
    if unknown:
        raise InvalidInstance(f"unknown instance keys: {sorted(unknown)}")
    missing = _INSTANCE_KEYS - set(doc)
    if missing:
        raise InvalidInstance(f"missing instance keys: {sorted(missing)}")
    for key in ("nodes", "terminals", "edges"):
        if not isinstance(doc[key], list):
            raise InvalidInstance(f"{key} must be a list")
    nodes, terminals, records = doc["nodes"], doc["terminals"], doc["edges"]
    try:
        inst = Instance.from_data(nodes, terminals, map(_EDGE_TUPLE, records))
        if sum(map(len, records)) == 4 * len(records):
            return inst
    except (InvalidInstance, KeyError, TypeError):
        pass
    bad = next((i for i, rec in enumerate(records) if _record_fault(rec)), len(records))
    Instance.from_data(nodes, terminals, map(_EDGE_TUPLE, records[:bad]))
    raise _record_fault(records[bad])


def loads_instance(text: str) -> Instance:
    # parse_float hands the raw literal to Fraction, so "0.1" loads as 1/10.
    try:
        doc = json.loads(text, parse_float=Fraction)
    except ValueError as exc:
        if "integer string conversion" in str(exc):
            raise InvalidInstance(f"a JSON number exceeds the interpreter's limit on integer "
                                  f"digits ({sys.get_int_max_str_digits()})") from None
        raise InvalidInstance(f"not a JSON document: {exc}") from None
    return parse_instance_doc(doc)


def load_instance(path: Union[str, Path]) -> Instance:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidInstance(f"not UTF-8 text: {exc}") from None
    return loads_instance(text)


def _json_list(items: list[str]) -> str:
    """A list value at the document's top level, one item per line."""
    if not items:
        return "[]"
    return "[\n    " + ",\n    ".join(items) + "\n  ]"


def dumps_instance(inst: Instance) -> str:
    """The canonical instance text; the module docstring gives the layout."""
    name = {n: encode_basestring_ascii(n) for n in inst.nodes}
    # One literal per threshold level: formatting a Fraction costs more
    # than looking up an int.
    literal = {t: f'"{x!s}"' for t, x in inst.thresholds.items()}
    edges = [
        f'{{\n      "tu": {literal[tu]},\n      "tv": {literal[tv]},'
        f'\n      "u": {name[u]},\n      "v": {name[v]}\n    }}'
        for u, v, tu, tv in inst.scaled_edges
    ]
    return (
        '{\n  "edges": ' + _json_list(edges)
        + ',\n  "nodes": ' + _json_list([name[n] for n in inst.nodes])
        + ',\n  "terminals": ' + _json_list([name[t] for t in inst.terminal_list])
        + "\n}\n"
    )


def save_instance(inst: Instance, path: Union[str, Path]) -> None:
    Path(path).write_bytes(dumps_instance(inst).encode())


def instance_digest(inst: Instance) -> str:
    """The sha256 of the canonical text, computed once per instance.

    An instance is immutable, so the digest is kept in its ``__dict__``
    beside its cached properties, and a bench loop, every report on the
    instance and ``exact`` share one serialization."""
    digest = inst.__dict__.get("_digest")
    if digest is None:
        digest = inst.__dict__["_digest"] = hashlib.sha256(
            dumps_instance(inst).encode()
        ).hexdigest()
    return digest


def assignment_doc(a: Assignment) -> dict[str, str]:
    return {node: str(x) for node, x in sorted(a.values.items())}
