"""Canonical JSON serialization of auction documents.

Rationals travel as exact ``"num/den"`` strings, never floats; parse
also takes ``"num"`` and JSON integers, and nothing else ``Fraction``
would (no exponent, decimal point, underscore or whitespace).  Render
is canonical (fixed field order, ids sorted, reduced fractions), so
``render(parse(text)) == text`` for canonical documents.  Unknown fields
are rejected with the path of the offending entry, and so are repeated
object keys and profile menu keys that are not canonical decimals.

Parse reads a document in one pass: the JSON decoder's object hook
refuses a repeated key, and one walk over the decoded tree checks each
value and builds the model from it.  A field path is spelled only for
the error it names, from the indices in scope where the check fails.
Each lambda, weight and profile value string, and each profile menu
key, is read once per document: a memo lives for one `parse` call and is
never shared between calls, so two calls on the same text do the same
work.  A congestion cost string is read directly (`_read`) wherever it
appears: a row is read straight into its one stored form, integer
numerators over one denominator (`model.congestion_row`), from each
entry's numerator and denominator as spelled, with no `Fraction` per
entry.

Render spells exactly what ``json.dumps(data, indent=2)`` would, with a
module-level recursive writer (`_write`): the standard library's
indenting encoder is pure Python, and its nested functions close a
reference cycle on every call.  A congestion row is spelled from its
stored integers (`_render_row`), with no `Fraction` per entry.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import gcd
from typing import Any, Dict, List, Optional, Tuple

from .model import (
    STAY,
    TRANSIT,
    Aircraft,
    CongestionRow,
    Instance,
    Operator,
    Profile,
    RouteOption,
    Vertiport,
    congestion_row,
)

SCHEMA_VERSION = "1"
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")  # numerator, denominator


class DocumentError(ValueError):
    """Malformed document; `path` points at the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True)
class InstanceDocument:
    instance: Instance
    bids: Optional[Profile] = None
    valuations: Optional[Profile] = None


def render_rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


# The fields of each object, in the order a missing one is named.  A
# canonical document holds them in this order, which one tuple comparison
# confirms; only another order is read field by field (`_expect`).
_INSTANCE = ("horizon", "lambda", "vertiports", "operators")
_VERTIPORT = ("id", "arrival_cap", "departure_cap", "parking_cap", "congestion_cost")
_OPERATOR = ("id", "weight", "fleet")
_AIRCRAFT = ("id", "origin", "menu")
_STAY = ("key", "kind")
_TRANSIT = ("key", "kind", "depart_time", "destination", "arrive_time")


def _expect(mapping: Any, path: str, required: Tuple[str, ...],
            optional: Tuple[str, ...] = ()) -> Dict[str, Any]:
    if not isinstance(mapping, dict):
        raise DocumentError(path, f"expected an object, got {type(mapping).__name__}")
    for field in required:
        if field not in mapping:
            raise DocumentError(path, f"missing field {field!r}")
    for field in mapping:
        if field not in required and field not in optional:
            raise DocumentError(f"{path}.{field}", "unknown field")
    return mapping


def _read(text: str) -> Optional[Tuple[int, int]]:
    """The rational string `text` as its (numerator, denominator) as
    spelled, denominator positive, or None when it is not one."""
    match = _RATIONAL.fullmatch(text)
    if match is None:
        return None
    try:
        numerator, denominator = int(match[1]), int(match[2] or 1)
    except ValueError:  # over int's digit limit
        return None
    return (numerator, denominator) if denominator else None


def _rational(raw: Any, rationals: Dict[str, Fraction]) -> Optional[Fraction]:
    """`raw` as an exact rational, or None when it is not one.  `rationals`
    holds every string read so far in this document, each read once."""
    if type(raw) is str:
        value = rationals.get(raw)
        if value is None:
            pair = _read(raw)
            if pair is None:
                return None
            value = rationals[raw] = Fraction(*pair)
        return value
    if type(raw) is int:  # not bool: JSON true must not read as 1
        return Fraction(raw)
    return None


def _not_rational(path: str, raw: Any) -> DocumentError:
    return DocumentError(path, f"not a rational: {raw!r}")


def _not_int(path: str, raw: Any) -> DocumentError:
    return DocumentError(path, f"expected an integer, got {raw!r}")


def _vertiport(port: Any, i: int) -> Vertiport:
    """The vertiport at ``$.instance.vertiports[i]``."""
    if type(port) is not dict or tuple(port) != _VERTIPORT:
        _expect(port, f"$.instance.vertiports[{i}]", _VERTIPORT)
    if type(port["id"]) is not str:
        raise DocumentError(f"$.instance.vertiports[{i}].id", "expected a string")
    if type(port["congestion_cost"]) is not list:
        raise DocumentError(f"$.instance.vertiports[{i}].congestion_cost",
                            "expected an array")
    rows = []
    for t, row in enumerate(port["congestion_cost"]):
        if type(row) is not list:
            raise DocumentError(f"$.instance.vertiports[{i}].congestion_cost[{t}]",
                                "expected an array")
        numerators, denominators = [], []
        for q, raw in enumerate(row):
            if type(raw) is str:
                pair = _read(raw)
                if pair is None:
                    raise _not_rational(
                        f"$.instance.vertiports[{i}].congestion_cost[{t}][{q}]", raw)
                numerators.append(pair[0])
                denominators.append(pair[1])
            elif type(raw) is int:  # not bool
                numerators.append(raw)
                denominators.append(1)
            else:
                raise _not_rational(
                    f"$.instance.vertiports[{i}].congestion_cost[{t}][{q}]", raw)
        rows.append(congestion_row(numerators, denominators))
    caps = []
    for name in ("arrival_cap", "departure_cap", "parking_cap"):
        table = port[name]
        if type(table) is not list:
            raise DocumentError(f"$.instance.vertiports[{i}].{name}",
                                "expected an array of integers")
        for c, value in enumerate(table):
            if type(value) is not int:  # not bool either
                raise _not_int(f"$.instance.vertiports[{i}].{name}[{c}]", value)
        caps.append(tuple(table))
    return Vertiport(port["id"], *caps, tuple(rows))


def _aircraft(craft: Any, i: int, j: int) -> Aircraft:
    """The aircraft at ``$.instance.operators[i].fleet[j]``."""
    if type(craft) is not dict or tuple(craft) != _AIRCRAFT:
        _expect(craft, f"$.instance.operators[{i}].fleet[{j}]", _AIRCRAFT)
    craft_id, origin = craft["id"], craft["origin"]
    if type(craft_id) is not str:
        raise DocumentError(f"$.instance.operators[{i}].fleet[{j}].id", "expected a string")
    if type(origin) is not str:
        raise DocumentError(f"$.instance.operators[{i}].fleet[{j}].origin",
                            "expected a string")
    if type(craft["menu"]) is not list:
        raise DocumentError(f"$.instance.operators[{i}].fleet[{j}].menu",
                            "expected an array")
    menu = []
    stays = 0
    for k, entry in enumerate(craft["menu"]):
        if type(entry) is not dict:
            raise DocumentError(f"$.instance.operators[{i}].fleet[{j}].menu[{k}]",
                                "expected an object")
        kind = entry.get("kind")
        if kind == STAY:
            if tuple(entry) != _STAY:
                _expect(entry, f"$.instance.operators[{i}].fleet[{j}].menu[{k}]", _STAY)
            key = entry["key"]
            if type(key) is not int:
                raise _not_int(f"$.instance.operators[{i}].fleet[{j}].menu[{k}].key", key)
            menu.append(RouteOption(key, STAY, 0, origin))
            stays += 1
        elif kind == TRANSIT:
            if tuple(entry) != _TRANSIT:
                _expect(entry, f"$.instance.operators[{i}].fleet[{j}].menu[{k}]", _TRANSIT)
            key, depart, arrive = entry["key"], entry["depart_time"], entry["arrive_time"]
            destination = entry["destination"]
            if type(destination) is not str:
                raise DocumentError(
                    f"$.instance.operators[{i}].fleet[{j}].menu[{k}].destination",
                    "expected a string")
            if type(key) is not int or type(depart) is not int or type(arrive) is not int:
                field = next(f for f in ("key", "depart_time", "arrive_time")
                             if type(entry[f]) is not int)
                raise _not_int(f"$.instance.operators[{i}].fleet[{j}].menu[{k}].{field}",
                               entry[field])
            menu.append(RouteOption(key, TRANSIT, depart, destination, arrive))
        else:
            raise DocumentError(f"$.instance.operators[{i}].fleet[{j}].menu[{k}].kind",
                                f"expected 'stay' or 'transit', got {kind!r}")
    if stays != 1:
        raise DocumentError(f"$.instance.operators[{i}].fleet[{j}].menu",
                            f"aircraft {craft_id!r} must have exactly one stay entry, "
                            f"found {stays}")
    return Aircraft(craft_id, origin, tuple(menu))


def _instance(raw: Any, rationals: Dict[str, Fraction]) -> Instance:
    """The instance at ``$.instance``."""
    if type(raw) is not dict or tuple(raw) != _INSTANCE:
        _expect(raw, "$.instance", _INSTANCE)
    horizon = raw["horizon"]
    if type(horizon) is not int:
        raise _not_int("$.instance.horizon", horizon)
    lam = _rational(raw["lambda"], rationals)
    if lam is None:
        raise _not_rational("$.instance.lambda", raw["lambda"])
    if type(raw["vertiports"]) is not list:
        raise DocumentError("$.instance.vertiports", "expected an array")
    ports = tuple([_vertiport(port, i) for i, port in enumerate(raw["vertiports"])])
    if type(raw["operators"]) is not list:
        raise DocumentError("$.instance.operators", "expected an array")
    operators = []
    for i, op in enumerate(raw["operators"]):
        if type(op) is not dict or tuple(op) != _OPERATOR:
            _expect(op, f"$.instance.operators[{i}]", _OPERATOR)
        if type(op["id"]) is not str:
            raise DocumentError(f"$.instance.operators[{i}].id", "expected a string")
        if type(op["fleet"]) is not list:
            raise DocumentError(f"$.instance.operators[{i}].fleet", "expected an array")
        fleet = tuple([_aircraft(craft, i, j) for j, craft in enumerate(op["fleet"])])
        weight = _rational(op["weight"], rationals)
        if weight is None:
            raise _not_rational(f"$.instance.operators[{i}].weight", op["weight"])
        operators.append(Operator(op["id"], weight, fleet))
    return Instance(horizon, lam, ports, tuple(operators))


def _profile(raw: Any, path: str, rationals: Dict[str, Fraction]
             ) -> Dict[Tuple[str, str, int], Fraction]:
    """The bid or valuation profile at `path`."""
    if type(raw) is not dict:
        raise DocumentError(path, "expected an object")
    profile: Dict[Tuple[str, str, int], Fraction] = {}
    menu_keys: Dict[str, int] = {}  # each key string read once
    for op_id, by_craft in raw.items():
        if type(by_craft) is not dict:
            raise DocumentError(f"{path}.{op_id}", "expected an object")
        for craft_id, by_key in by_craft.items():
            if type(by_key) is not dict:
                raise DocumentError(f"{path}.{op_id}.{craft_id}", "expected an object")
            for key, raw_value in by_key.items():
                menu_key = menu_keys.get(key)
                if menu_key is None:
                    try:
                        menu_key = int(key)
                    except ValueError:
                        raise DocumentError(f"{path}.{op_id}.{craft_id}.{key}",
                                            "menu key must be an integer")
                    if key != str(menu_key):
                        raise DocumentError(f"{path}.{op_id}.{craft_id}.{key}",
                                            "menu key must be a canonical decimal")
                    menu_keys[key] = menu_key
                value = _rational(raw_value, rationals)
                if value is None:
                    raise _not_rational(f"{path}.{op_id}.{craft_id}.{key}", raw_value)
                profile[op_id, craft_id, menu_key] = value
    return profile


def _unique_keys(pairs: List[Tuple[str, Any]]) -> Dict[str, Any]:
    """A JSON object's members; raises ValueError on a repeated key, which
    `json.loads` would otherwise let overwrite the earlier value."""
    members = dict(pairs)
    if len(members) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"repeated key {key!r}")
            seen.add(key)
    return members


def parse(text: str) -> InstanceDocument:
    """Parse a document; raises DocumentError with a field path."""
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    # ValueError is also a repeated key or an int past the digit limit;
    # RecursionError is nesting deeper than the decoder's stack.
    except (ValueError, RecursionError) as exc:
        raise DocumentError("$", f"malformed JSON: {exc}")
    data = _expect(raw, "$", ("schema_version", "instance"),
                   ("bids", "valuations"))
    if data["schema_version"] != SCHEMA_VERSION:
        raise DocumentError("$.schema_version",
                            f"unsupported version {data['schema_version']!r}")
    rationals: Dict[str, Fraction] = {}
    instance = _instance(data["instance"], rationals)
    bids = (_profile(data["bids"], "$.bids", rationals)
            if "bids" in data else None)
    valuations = (_profile(data["valuations"], "$.valuations", rationals)
                  if "valuations" in data else None)
    return InstanceDocument(instance=instance, bids=bids, valuations=valuations)


def _render_menu_entry(entry: RouteOption) -> Dict[str, Any]:
    if entry.is_stay:
        return {"key": entry.key, "kind": STAY}
    return {
        "key": entry.key,
        "kind": TRANSIT,
        "depart_time": entry.depart_time,
        "destination": entry.destination,
        "arrive_time": entry.arrive_time,
    }


def _render_row(row: CongestionRow) -> List[str]:
    """A congestion row's costs as reduced ``"num/den"`` strings: each
    numerator and the row's denominator divided by their gcd."""
    numerators, common = row
    divisors = [gcd(g, common) for g in numerators]
    return [f"{g // d}/{common // d}" for g, d in zip(numerators, divisors)]


def _render_profile(instance: Instance, profile: Profile) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for operator, craft in instance.iter_aircraft():
        by_key = {
            str(entry.key): render_rational(profile[(operator.id, craft.id, entry.key)])
            for entry in craft.menu
            if (operator.id, craft.id, entry.key) in profile
        }
        if by_key:
            out.setdefault(operator.id, {})[craft.id] = by_key
    return out


def _write(value: Any, newline: str, out: List[str]) -> None:
    """Append `value`, a dict or list whose leaves are str and int, nested
    `newline` deep (a newline and its indent), to `out` as
    ``json.dumps(value, indent=2)`` spells it there (module docstring)."""
    is_dict = type(value) is dict
    if not value:
        out.append("{}" if is_dict else "[]")
        return
    inner = newline + "  "
    lead = ("{" if is_dict else "[") + inner
    separator = "," + inner
    for key, item in value.items() if is_dict else enumerate(value):
        out.append(lead)
        if is_dict:
            out.append(encode_basestring_ascii(key))
            out.append(": ")
        leaf = type(item)
        if leaf is str:
            out.append(encode_basestring_ascii(item))
        elif leaf is int:
            out.append(int.__repr__(item))
        else:
            _write(item, inner, out)
        lead = separator
    out.append(newline + ("}" if is_dict else "]"))


def render(document: InstanceDocument) -> str:
    """Canonical textual form of a document (deterministic field order)."""
    instance = document.instance
    data: Dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "instance": {
            "horizon": instance.horizon,
            "lambda": render_rational(instance.congestion_ratio),
            "vertiports": [
                {
                    "id": port.id,
                    "arrival_cap": list(port.arrival_cap),
                    "departure_cap": list(port.departure_cap),
                    "parking_cap": list(port.parking_cap),
                    "congestion_cost": [
                        _render_row(row) for row in port.congestion_rows
                    ],
                }
                for port in instance.vertiports
            ],
            "operators": [
                {
                    "id": operator.id,
                    "weight": render_rational(operator.weight),
                    "fleet": [
                        {
                            "id": craft.id,
                            "origin": craft.origin,
                            "menu": [
                                _render_menu_entry(entry) for entry in craft.menu
                            ],
                        }
                        for craft in operator.fleet
                    ],
                }
                for operator in instance.operators
            ],
        },
    }
    if document.bids is not None:
        data["bids"] = _render_profile(instance, document.bids)
    if document.valuations is not None:
        data["valuations"] = _render_profile(instance, document.valuations)
    out: List[str] = []
    _write(data, "\n", out)
    out.append("\n")
    return "".join(out)
