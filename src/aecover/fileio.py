"""Canonical instance file format and the one canonical document layout.

Instance files are JSON documents with exactly the keys ``nodes``,
``terminals`` and ``edges``; thresholds are rational-valued strings such as
"3/2" or decimal/integer literals, parsed exactly.  Files written by
:func:`save_instance` are canonical: loading and re-saving one reproduces the
bytes.  The loader, :func:`parse_instance_doc`, checks each edge record and
makes its canonical row in one pass, parsing and sign-checking each distinct
threshold literal once, and leaves the sort, prune and edge build to
:meth:`Instance.from_rows`.

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
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Mapping, Union

from .core import Assignment, Instance, as_fraction, index_nodes
from .errors import InvalidInstance

SCHEMA_VERSION = 1

_INSTANCE_KEYS = {"nodes", "terminals", "edges"}
_EDGE_KEYS = {"u", "v", "tu", "tv"}


def format_fraction(x: Fraction) -> str:
    return str(x)


def format_float(x: float) -> str:
    return f"{x:.4f}"


def format_slope(x: Union[Fraction, float]) -> str:
    """A slope as a fraction string, or "inf" for an unbounded one."""
    return "inf" if x == math.inf else format_fraction(Fraction(x))


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
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
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


def _record_fault(rec: Any) -> InvalidInstance:
    """The error for an edge record that is no object, has other keys than
    ``u``, ``v``, ``tu`` and ``tv``, or has an endpoint that is no string,
    checked in that order."""
    if not isinstance(rec, dict):
        return InvalidInstance(f"edge record must be an object: {rec!r}")
    bad = rec.keys() - _EDGE_KEYS
    if bad:
        return InvalidInstance(f"unknown edge keys: {sorted(bad)}")
    if rec.keys() != _EDGE_KEYS:
        return InvalidInstance(f"incomplete edge record: {rec}")
    return InvalidInstance(f"edge endpoints must be strings: {rec}")


def parse_instance_doc(doc: Mapping[str, Any]) -> Instance:
    """The instance of a document, in one pass over its edge records.

    The pass checks each record, looks up its endpoints and makes its
    canonical row, with the per-edge checks and messages of
    :meth:`Instance.from_data` in its order: endpoint, self loop, ``tu``,
    ``tv``, sign.  A threshold string is parsed and sign-checked once per
    distinct literal; every other value is parsed where it occurs.  The
    rows go to :meth:`Instance.from_rows`, with the parsed objects as the
    instance's distinct thresholds."""
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
    for key in ("nodes", "terminals"):
        if not all(isinstance(x, str) for x in doc[key]):
            raise InvalidInstance(f"{key} must be strings")
    node_list, idx, terminals = index_nodes(doc["nodes"], doc["terminals"])
    literals: dict[str, Fraction] = {}  # each literal's one parsed object
    others: dict[int, Fraction] = {}  # the other thresholds, by id

    def parse(raw: Any) -> Fraction:
        if type(raw) is not str:
            x = as_fraction(raw)
            others[id(x)] = x
            return x
        x = literals.get(raw)
        if x is None:
            x = literals[raw] = as_fraction(raw)
        return x

    get, known = idx.get, literals.get
    rows = []
    for rec in doc["edges"]:
        # Only a record that fails these fast tests is examined further,
        # by _record_fault.
        if not isinstance(rec, dict) or len(rec) != 4:
            raise _record_fault(rec)
        try:
            u, v, tu, tv = rec["u"], rec["v"], rec["tu"], rec["tv"]
            iu, iv = get(u), get(v)
        except (KeyError, TypeError):
            raise _record_fault(rec) from None
        if iu is None or iv is None:
            if not isinstance(u, str) or not isinstance(v, str):
                raise _record_fault(rec)
            raise InvalidInstance(f"edge endpoint not a node: {u!r}-{v!r}")
        if iu == iv:
            raise InvalidInstance(f"self loop at {u!r}")
        # A known literal passed its sign check on the edge that added it.
        try:
            ftu, ftv = known(tu), known(tv)
        except TypeError:  # an unhashable value, which parse() refuses
            ftu = None
        if ftu is None or ftv is None:
            ftu, ftv = parse(tu), parse(tv)
            if ftu.numerator < 0 or ftv.numerator < 0:
                raise InvalidInstance(f"negative threshold on edge {u!r}-{v!r}")
        rows.append((iu, iv, ftu, ftv) if iu < iv else (iv, iu, ftv, ftu))
    others.update((id(x), x) for x in literals.values())
    return Instance.from_rows(node_list, terminals, rows, others)


def loads_instance(text: str) -> Instance:
    # parse_float hands the raw literal to Fraction, so "0.1" loads as 1/10.
    try:
        doc = json.loads(text, parse_float=Fraction)
    except ValueError as exc:
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
    # One literal per distinct threshold object, keyed by identity as the
    # instance keys them: hashing a Fraction costs more than formatting it.
    literal = {i: f'"{format_fraction(t)}"' for i, t in inst._distinct_thresholds.items()}
    edges = [
        f'{{\n      "tu": {literal[id(e.tu)]},\n      "tv": {literal[id(e.tv)]},'
        f'\n      "u": {name[e.u]},\n      "v": {name[e.v]}\n    }}'
        for e in inst.edges
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
    return {node: format_fraction(x) for node, x in sorted(a.values.items())}
