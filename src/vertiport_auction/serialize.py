"""Canonical JSON serialization of auction documents.

Rationals travel as exact ``"num/den"`` strings, never floats; parse
also takes ``"num"`` and JSON integers, and nothing else ``Fraction``
would (no exponent, decimal point, underscore or whitespace).  Render
is canonical (fixed field order, ids sorted, reduced fractions), so
``render(parse(text)) == text`` for canonical documents.  Unknown fields
are rejected with the path of the offending entry, and so are repeated
object keys and profile menu keys that are not canonical decimals.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .model import (
    STAY,
    TRANSIT,
    Aircraft,
    Instance,
    Operator,
    Profile,
    RouteOption,
    Vertiport,
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
    schema_version: str = SCHEMA_VERSION


def parse_rational(raw: Any, path: str) -> Fraction:
    if isinstance(raw, int) and not isinstance(raw, bool):  # JSON true must not read as 1
        return Fraction(raw)
    match = _RATIONAL.fullmatch(raw) if isinstance(raw, str) else None
    try:
        if match:
            return Fraction(int(match[1]), int(match[2] or 1))
    except (ValueError, ZeroDivisionError):  # over int's digit limit, or x/0
        pass
    raise DocumentError(path, f"not a rational: {raw!r}")


def render_rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


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


def _int(raw: Any, path: str) -> int:
    if not isinstance(raw, int) or isinstance(raw, bool):
        raise DocumentError(path, f"expected an integer, got {raw!r}")
    return raw


def _int_list(raw: Any, path: str) -> Tuple[int, ...]:
    if not isinstance(raw, list):
        raise DocumentError(path, "expected an array of integers")
    return tuple(_int(v, f"{path}[{i}]") for i, v in enumerate(raw))


def _parse_menu_entry(raw: Any, path: str, origin: str) -> RouteOption:
    if not isinstance(raw, dict):
        raise DocumentError(path, "expected an object")
    kind = raw.get("kind")
    if kind == STAY:
        data = _expect(raw, path, ("key", "kind"))
        return RouteOption(key=_int(data["key"], f"{path}.key"), kind=STAY,
                           depart_time=0, destination=origin)
    if kind == TRANSIT:
        data = _expect(raw, path,
                       ("key", "kind", "depart_time", "destination", "arrive_time"))
        if not isinstance(data["destination"], str):
            raise DocumentError(f"{path}.destination", "expected a string")
        return RouteOption(
            key=_int(data["key"], f"{path}.key"),
            kind=TRANSIT,
            depart_time=_int(data["depart_time"], f"{path}.depart_time"),
            destination=data["destination"],
            arrive_time=_int(data["arrive_time"], f"{path}.arrive_time"),
        )
    raise DocumentError(f"{path}.kind", f"expected 'stay' or 'transit', got {kind!r}")


def _parse_instance(raw: Any, path: str) -> Instance:
    data = _expect(raw, path, ("horizon", "lambda", "vertiports", "operators"))
    horizon = _int(data["horizon"], f"{path}.horizon")
    lam = parse_rational(data["lambda"], f"{path}.lambda")

    if not isinstance(data["vertiports"], list):
        raise DocumentError(f"{path}.vertiports", "expected an array")
    ports: List[Vertiport] = []
    for i, raw_port in enumerate(data["vertiports"]):
        ppath = f"{path}.vertiports[{i}]"
        port = _expect(raw_port, ppath,
                       ("id", "arrival_cap", "departure_cap", "parking_cap",
                        "congestion_cost"))
        if not isinstance(port["id"], str):
            raise DocumentError(f"{ppath}.id", "expected a string")
        if not isinstance(port["congestion_cost"], list):
            raise DocumentError(f"{ppath}.congestion_cost", "expected an array")
        cost = tuple(
            tuple(
                parse_rational(v, f"{ppath}.congestion_cost[{t}][{q}]")
                for q, v in enumerate(row)
            )
            for t, row in enumerate(port["congestion_cost"])
        )
        ports.append(Vertiport(
            id=port["id"],
            arrival_cap=_int_list(port["arrival_cap"], f"{ppath}.arrival_cap"),
            departure_cap=_int_list(port["departure_cap"], f"{ppath}.departure_cap"),
            parking_cap=_int_list(port["parking_cap"], f"{ppath}.parking_cap"),
            congestion_cost=cost,
        ))

    if not isinstance(data["operators"], list):
        raise DocumentError(f"{path}.operators", "expected an array")
    operators: List[Operator] = []
    for i, raw_op in enumerate(data["operators"]):
        opath = f"{path}.operators[{i}]"
        op = _expect(raw_op, opath, ("id", "weight", "fleet"))
        if not isinstance(op["id"], str):
            raise DocumentError(f"{opath}.id", "expected a string")
        if not isinstance(op["fleet"], list):
            raise DocumentError(f"{opath}.fleet", "expected an array")
        fleet: List[Aircraft] = []
        for j, raw_craft in enumerate(op["fleet"]):
            apath = f"{opath}.fleet[{j}]"
            craft = _expect(raw_craft, apath, ("id", "origin", "menu"))
            if not isinstance(craft["id"], str):
                raise DocumentError(f"{apath}.id", "expected a string")
            if not isinstance(craft["origin"], str):
                raise DocumentError(f"{apath}.origin", "expected a string")
            if not isinstance(craft["menu"], list):
                raise DocumentError(f"{apath}.menu", "expected an array")
            menu = tuple(
                _parse_menu_entry(entry, f"{apath}.menu[{k}]", craft["origin"])
                for k, entry in enumerate(craft["menu"])
            )
            stays = sum(1 for entry in menu if entry.is_stay)
            if stays != 1:
                raise DocumentError(
                    f"{apath}.menu",
                    f"aircraft {craft['id']!r} must have exactly one stay entry, "
                    f"found {stays}",
                )
            fleet.append(Aircraft(id=craft["id"], origin=craft["origin"], menu=menu))
        operators.append(Operator(
            id=op["id"],
            weight=parse_rational(op["weight"], f"{opath}.weight"),
            fleet=tuple(fleet),
        ))

    return Instance(horizon=horizon, congestion_ratio=lam,
                    vertiports=tuple(ports), operators=tuple(operators))


def _parse_profile(raw: Any, path: str) -> Dict[Tuple[str, str, int], Fraction]:
    if not isinstance(raw, dict):
        raise DocumentError(path, "expected an object")
    profile: Dict[Tuple[str, str, int], Fraction] = {}
    for op_id, by_craft in raw.items():
        if not isinstance(by_craft, dict):
            raise DocumentError(f"{path}.{op_id}", "expected an object")
        for craft_id, by_key in by_craft.items():
            if not isinstance(by_key, dict):
                raise DocumentError(f"{path}.{op_id}.{craft_id}", "expected an object")
            for key, value in by_key.items():
                kpath = f"{path}.{op_id}.{craft_id}.{key}"
                try:
                    menu_key = int(key)
                except ValueError:
                    raise DocumentError(kpath, "menu key must be an integer")
                if key != str(menu_key):
                    raise DocumentError(kpath, "menu key must be a canonical decimal")
                profile[(op_id, craft_id, menu_key)] = parse_rational(value, kpath)
    return profile


def _unique_keys(pairs: Sequence[Tuple[str, Any]]) -> Dict[str, Any]:
    """A JSON object's members; raises ValueError on a repeated key, which
    `json.loads` would otherwise let overwrite the earlier value."""
    members: Dict[str, Any] = {}
    for key, value in pairs:
        if key in members:
            raise ValueError(f"repeated key {key!r}")
        members[key] = value
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
    instance = _parse_instance(data["instance"], "$.instance")
    bids = (_parse_profile(data["bids"], "$.bids")
            if "bids" in data else None)
    valuations = (_parse_profile(data["valuations"], "$.valuations")
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


def render(document: InstanceDocument) -> str:
    """Canonical textual form of a document (deterministic field order)."""
    instance = document.instance
    data: Dict[str, Any] = {
        "schema_version": document.schema_version,
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
                        [render_rational(v) for v in row]
                        for row in port.congestion_cost
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
    return json.dumps(data, indent=2) + "\n"
