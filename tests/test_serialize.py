"""Document serialization: canonical JSON, exact rationals, strictness."""

import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import congestion_costs
from vertiport_auction.generator import GeneratorConfig, generate
from vertiport_auction.graph import compile_template
from vertiport_auction.serialize import (
    DocumentError,
    InstanceDocument,
    parse,
    render,
    render_rational,
)

F = Fraction


def minimal_document():
    return {
        "schema_version": "1",
        "instance": {
            "horizon": 1,
            "lambda": "0/1",
            "vertiports": [{
                "id": "v1",
                "arrival_cap": [0],
                "departure_cap": [0],
                "parking_cap": [1],
                "congestion_cost": [["0/1", "1/2"]],
            }],
            "operators": [{
                "id": "op1",
                "weight": "1/1",
                "fleet": [{
                    "id": "a1",
                    "origin": "v1",
                    "menu": [{"key": 0, "kind": "stay"}],
                }],
            }],
        },
    }


WEIGHT = "$.instance.operators[0].weight"
NOT_A_RATIONAL = re.escape(WEIGHT) + ": not a rational"


def read_weight(raw):
    """The operator weight `parse` reads from `raw`, a rational as a JSON
    document spells it."""
    document = minimal_document()
    document["instance"]["operators"][0]["weight"] = raw
    return parse(json.dumps(document)).instance.operators[0].weight


class TestRationals:
    def test_one_third_exact(self):
        assert read_weight("1/3") == F(1, 3)

    def test_integers_accepted(self):
        assert read_weight(4) == 4

    def test_render_reduced(self):
        assert render_rational(F(2, 4)) == "1/2"
        assert read_weight(render_rational(F(-7, 3))) == F(-7, 3)

    def test_garbage_rejected_with_path(self):
        with pytest.raises(DocumentError, match=re.escape(WEIGHT)):
            read_weight("one half")
        with pytest.raises(DocumentError):
            read_weight(0.5)

    @pytest.mark.parametrize("raw", [True, False])
    def test_booleans_rejected_with_path(self, raw):
        # bool is an int subclass; JSON true must not read as 1.
        with pytest.raises(DocumentError, match=NOT_A_RATIONAL):
            read_weight(raw)

    @pytest.mark.parametrize("raw", ["1e10000000", "1E5", "1/1e3", "inf", "nan"])
    def test_exponent_forms_rejected_with_path(self, raw):
        with pytest.raises(DocumentError, match=NOT_A_RATIONAL):
            read_weight(raw)

    @pytest.mark.parametrize("raw", ["0.5", "1.", ".5", "1/2.0"])
    def test_decimal_forms_rejected_with_path(self, raw):
        with pytest.raises(DocumentError, match=NOT_A_RATIONAL):
            read_weight(raw)

    @pytest.mark.parametrize("raw", [" 1/2", "1/2 ", "1 / 2", "1/2\n", "1_000", "1/+2",
                                     "1/0"])
    def test_whitespace_and_other_forms_rejected_with_path(self, raw):
        with pytest.raises(DocumentError, match=NOT_A_RATIONAL):
            read_weight(raw)

    @pytest.mark.parametrize("raw, value", [("+5", F(5)), ("-6/4", F(-3, 2)),
                                            ("007/010", F(7, 10))])
    def test_signed_and_unreduced_forms_accepted(self, raw, value):
        assert read_weight(raw) == value


class TestParse:
    def test_minimal_document(self):
        document = parse(json.dumps(minimal_document()))
        assert document.instance.horizon == 1
        assert congestion_costs(document.instance.vertiports[0])[0][1] == F(1, 2)
        assert document.bids is None and document.valuations is None

    def test_unknown_field_rejected_with_path(self):
        raw = minimal_document()
        raw["instance"]["vertiports"][0]["colour"] = "red"
        with pytest.raises(DocumentError,
                           match=r"vertiports\[0\]\.colour: unknown field"):
            parse(json.dumps(raw))

    @pytest.mark.parametrize("row", [0, "0123", {"0": "0/1"}],
                             ids=["number", "string", "object"])
    def test_congestion_row_must_be_an_array(self, row):
        """A row that is not an array is refused at its path: a number is
        not iterated, a string is not read digit by digit and an object
        is not read as its keys."""
        raw = minimal_document()
        raw["instance"]["vertiports"][0]["congestion_cost"] = [row]
        with pytest.raises(DocumentError,
                           match=r"vertiports\[0\]\.congestion_cost\[0\]: expected an array"):
            parse(json.dumps(raw))

    def test_missing_stay_names_aircraft(self):
        raw = minimal_document()
        raw["instance"]["operators"][0]["fleet"][0]["menu"] = [{
            "key": 0, "kind": "transit", "depart_time": 1,
            "destination": "v1", "arrive_time": 1,
        }]
        with pytest.raises(DocumentError, match="'a1' must have exactly one stay"):
            parse(json.dumps(raw))

    def test_stay_entry_must_be_bare(self):
        raw = minimal_document()
        raw["instance"]["operators"][0]["fleet"][0]["menu"][0]["depart_time"] = 0
        with pytest.raises(DocumentError, match="depart_time.*unknown field"):
            parse(json.dumps(raw))

    def test_unsupported_schema_version(self):
        raw = minimal_document()
        raw["schema_version"] = "99"
        with pytest.raises(DocumentError, match="unsupported version"):
            parse(json.dumps(raw))

    def test_malformed_json(self):
        with pytest.raises(DocumentError, match="malformed JSON"):
            parse("{not json")

    def test_profiles_parsed(self):
        raw = minimal_document()
        raw["bids"] = {"op1": {"a1": {"0": "3/7"}}}
        raw["valuations"] = {"op1": {"a1": {"0": "3/7"}}}
        document = parse(json.dumps(raw))
        assert document.bids == {("op1", "a1", 0): F(3, 7)}
        assert document.valuations == document.bids

    def test_non_integer_menu_key_in_profile(self):
        raw = minimal_document()
        raw["bids"] = {"op1": {"a1": {"stay": "1/1"}}}
        with pytest.raises(DocumentError, match="menu key must be an integer"):
            parse(json.dumps(raw))

    @pytest.mark.parametrize("key", ["00", " 0", "+0", "0_0", "-0"])
    def test_non_canonical_menu_key_in_profile(self, key):
        raw = minimal_document()
        raw["bids"] = {"op1": {"a1": {"0": "5/1", key: "1/1"}}}
        with pytest.raises(DocumentError,
                           match=re.escape(f"$.bids.op1.a1.{key}: menu key must be "
                                           "a canonical decimal")):
            parse(json.dumps(raw))

    def test_repeated_profile_key_rejected(self):
        text = json.dumps(minimal_document())[:-1] + (
            ', "bids": {"op1": {"a1": {"0": "5/1", "0": "1/1"}}}}')
        with pytest.raises(DocumentError, match="repeated key '0'"):
            parse(text)

    def test_repeated_field_rejected(self):
        text = json.dumps(minimal_document()).replace(
            '"horizon": 1', '"horizon": 1, "horizon": 2')
        with pytest.raises(DocumentError, match="repeated key 'horizon'"):
            parse(text)

    @pytest.mark.parametrize("opening, closing", [("[", "]"), ('{"a": ', "}")],
                             ids=["arrays", "objects"])
    def test_deep_nesting_rejected(self, opening, closing):
        depth = 100_000
        text = ('{"schema_version": "1", "instance": '
                + opening * depth + "0" + closing * depth + "}")
        with pytest.raises(DocumentError, match=r"\$: malformed JSON"):
            parse(text)

    def test_integer_over_the_digit_limit_rejected(self):
        text = json.dumps(minimal_document()).replace(
            '"horizon": 1', '"horizon": 1' + "0" * 5000)
        with pytest.raises(DocumentError, match=r"\$: malformed JSON"):
            parse(text)


DROP = object()  # an edit that deletes the field or array entry


def full_document():
    """`minimal_document` with a transit entry, bids and valuations, so that
    every level a document has can be edited."""
    raw = minimal_document()
    raw["instance"]["operators"][0]["fleet"][0]["menu"].append({
        "key": 1, "kind": "transit", "depart_time": 1, "destination": "v1",
        "arrive_time": 1,
    })
    raw["bids"] = {"op1": {"a1": {"0": "0/1", "1": "2/3"}}}
    raw["valuations"] = {"op1": {"a1": {"0": "0/1", "1": "2/3"}}}
    return raw


def edited(steps, value):
    """`full_document` as JSON text with the entry at `steps` replaced by
    `value`, or deleted when `value` is DROP."""
    raw = full_document()
    *parents, last = steps
    entry = raw
    for step in parents:
        entry = entry[step]
    if value is DROP:
        del entry[last]
    else:
        entry[last] = value
    return json.dumps(raw)


INSTANCE = ("instance",)
PORT = INSTANCE + ("vertiports", 0)
OPERATOR = INSTANCE + ("operators", 0)
CRAFT = OPERATOR + ("fleet", 0)
STAY_ENTRY = CRAFT + ("menu", 0)
TRANSIT_ENTRY = CRAFT + ("menu", 1)
BID = ("bids", "op1", "a1", "0")
P = "$.instance.vertiports[0]"
O = "$.instance.operators[0]"
A = "$.instance.operators[0].fleet[0]"
TRANSIT = {"key": 0, "kind": "transit", "depart_time": 1, "destination": "v1",
           "arrive_time": 1}

#: One malformed document per error branch of `parse`: (the edit to
#: `full_document`, the whole error text).
ERROR_TEXTS = [
    ((), [], "$: expected an object, got list"),
    (("schema_version",), DROP, "$: missing field 'schema_version'"),
    (("extra",), 1, "$.extra: unknown field"),
    (("schema_version",), "2", "$.schema_version: unsupported version '2'"),
    (("schema_version",), 1, "$.schema_version: unsupported version 1"),
    (INSTANCE, "x", "$.instance: expected an object, got str"),
    (INSTANCE + ("operators",), DROP, "$.instance: missing field 'operators'"),
    (INSTANCE + ("colour",), "red", "$.instance.colour: unknown field"),
    (INSTANCE + ("horizon",), "1", "$.instance.horizon: expected an integer, got '1'"),
    (INSTANCE + ("horizon",), True, "$.instance.horizon: expected an integer, got True"),
    (INSTANCE + ("lambda",), 0.5, "$.instance.lambda: not a rational: 0.5"),
    (INSTANCE + ("lambda",), False, "$.instance.lambda: not a rational: False"),
    (INSTANCE + ("vertiports",), {}, "$.instance.vertiports: expected an array"),
    (PORT, 3, f"{P}: expected an object, got int"),
    (PORT + ("congestion_cost",), DROP, f"{P}: missing field 'congestion_cost'"),
    (PORT + ("colour",), "red", f"{P}.colour: unknown field"),
    (PORT + ("id",), 1, f"{P}.id: expected a string"),
    (PORT + ("arrival_cap",), "0", f"{P}.arrival_cap: expected an array of integers"),
    (PORT + ("arrival_cap", 0), "0", f"{P}.arrival_cap[0]: expected an integer, got '0'"),
    (PORT + ("departure_cap", 0), False,
     f"{P}.departure_cap[0]: expected an integer, got False"),
    (PORT + ("parking_cap", 0), 1.0, f"{P}.parking_cap[0]: expected an integer, got 1.0"),
    (PORT + ("congestion_cost",), "x", f"{P}.congestion_cost: expected an array"),
    (PORT + ("congestion_cost", 0), {}, f"{P}.congestion_cost[0]: expected an array"),
    (PORT + ("congestion_cost", 0, 1), "1/0",
     f"{P}.congestion_cost[0][1]: not a rational: '1/0'"),
    (PORT + ("congestion_cost", 0, 0), None,
     f"{P}.congestion_cost[0][0]: not a rational: None"),
    (INSTANCE + ("operators",), "op", "$.instance.operators: expected an array"),
    (OPERATOR, None, f"{O}: expected an object, got NoneType"),
    (OPERATOR + ("weight",), DROP, f"{O}: missing field 'weight'"),
    (OPERATOR + ("colour",), "red", f"{O}.colour: unknown field"),
    (OPERATOR + ("id",), [], f"{O}.id: expected a string"),
    (OPERATOR + ("weight",), "1/2.0", f"{O}.weight: not a rational: '1/2.0'"),
    (OPERATOR + ("fleet",), {}, f"{O}.fleet: expected an array"),
    (CRAFT, "a1", f"{A}: expected an object, got str"),
    (CRAFT + ("menu",), DROP, f"{A}: missing field 'menu'"),
    (CRAFT + ("colour",), "red", f"{A}.colour: unknown field"),
    (CRAFT + ("id",), 1, f"{A}.id: expected a string"),
    (CRAFT + ("origin",), None, f"{A}.origin: expected a string"),
    (CRAFT + ("menu",), "stay", f"{A}.menu: expected an array"),
    (STAY_ENTRY, 0, f"{A}.menu[0]: expected an object"),
    (STAY_ENTRY + ("kind",), "fly", f"{A}.menu[0].kind: expected 'stay' or 'transit', "
                                    "got 'fly'"),
    (STAY_ENTRY + ("kind",), DROP, f"{A}.menu[0].kind: expected 'stay' or 'transit', "
                                   "got None"),
    (STAY_ENTRY + ("key",), DROP, f"{A}.menu[0]: missing field 'key'"),
    (STAY_ENTRY + ("key",), "0", f"{A}.menu[0].key: expected an integer, got '0'"),
    (STAY_ENTRY + ("depart_time",), 0, f"{A}.menu[0].depart_time: unknown field"),
    (TRANSIT_ENTRY + ("arrive_time",), DROP, f"{A}.menu[1]: missing field 'arrive_time'"),
    (TRANSIT_ENTRY + ("colour",), "red", f"{A}.menu[1].colour: unknown field"),
    (TRANSIT_ENTRY + ("key",), 1.0, f"{A}.menu[1].key: expected an integer, got 1.0"),
    (TRANSIT_ENTRY + ("depart_time",), "1",
     f"{A}.menu[1].depart_time: expected an integer, got '1'"),
    (TRANSIT_ENTRY + ("arrive_time",), None,
     f"{A}.menu[1].arrive_time: expected an integer, got None"),
    (TRANSIT_ENTRY + ("destination",), 2, f"{A}.menu[1].destination: expected a string"),
    (STAY_ENTRY, TRANSIT,
     f"{A}.menu: aircraft 'a1' must have exactly one stay entry, found 0"),
    (TRANSIT_ENTRY, {"key": 1, "kind": "stay"},
     f"{A}.menu: aircraft 'a1' must have exactly one stay entry, found 2"),
    (("bids",), [], "$.bids: expected an object"),
    (("bids", "op1"), "x", "$.bids.op1: expected an object"),
    (("bids", "op1", "a1"), [], "$.bids.op1.a1: expected an object"),
    (("valuations", "op1", "a1"), None, "$.valuations.op1.a1: expected an object"),
    (("bids", "op1", "a1", "stay"), "1/1", "$.bids.op1.a1.stay: menu key must be an integer"),
    (("bids", "op1", "a1", "01"), "1/1",
     "$.bids.op1.a1.01: menu key must be a canonical decimal"),
    (BID, True, "$.bids.op1.a1.0: not a rational: True"),
    (BID, 0.0, "$.bids.op1.a1.0: not a rational: 0.0"),
    (("valuations", "op1", "a1", "1"), "x", "$.valuations.op1.a1.1: not a rational: 'x'"),
]


def error_text(text):
    with pytest.raises(DocumentError) as raised:
        parse(text)
    return str(raised.value)


@pytest.mark.parametrize(
    "steps, value, expected", ERROR_TEXTS,
    ids=[f"{expected.split(':')[0]}-{index}"
         for index, (_, _, expected) in enumerate(ERROR_TEXTS)])
def test_error_text(steps, value, expected):
    """The whole text of each error `parse` raises: the path and the message."""
    assert error_text(edited(steps, value) if steps else json.dumps(value)) == expected


@pytest.mark.parametrize("text, expected", [
    ("{not json", "$: malformed JSON: Expecting property name enclosed in double "
                  "quotes: line 1 column 2 (char 1)"),
    ("\ufeff{}", "$: malformed JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
                  "line 1 column 1 (char 0)"),
    (json.dumps(full_document()).replace('"horizon": 1', '"horizon": 1, "horizon": 2'),
     "$: malformed JSON: repeated key 'horizon'"),
    (json.dumps(full_document()).replace('"kind": "stay"', '"kind": "stay", "kind": "stay"'),
     "$: malformed JSON: repeated key 'kind'"),
], ids=["syntax", "byte-order-mark", "repeated-field", "repeated-menu-field"])
def test_error_text_of_malformed_json(text, expected):
    assert error_text(text) == expected


#: What a mutation puts in place of a value (DROP deletes it instead).
MUTANTS = (None, True, False, 0, 1, -1, 2.5, 10**30, "", "x", "1", "1/0", "-3/2",
           "stay", [], [0], ["0/1"], {}, {"key": 0}, DROP)


def value_paths(raw, steps=()):
    """The steps to every value inside `raw`, containers included."""
    children = (raw.items() if isinstance(raw, dict)
                else enumerate(raw) if isinstance(raw, list) else ())
    for step, child in children:
        yield steps + (step,)
        yield from value_paths(child, steps + (step,))


def test_single_field_mutations_parse_or_raise_document_error():
    """A document with one value replaced or deleted parses or raises
    DocumentError, never any other exception: 100 seeded mutations of
    each of generator seeds 0-29."""
    for seed in range(30):
        text = render(generate(GeneratorConfig(seed=seed)))
        paths = list(value_paths(json.loads(text)))
        rng = random.Random(seed)
        for _ in range(100):
            *parents, last = rng.choice(paths)
            value = rng.choice(MUTANTS)
            raw = json.loads(text)
            entry = raw
            for step in parents:
                entry = entry[step]
            if value is DROP:
                del entry[last]
            else:
                entry[last] = value
            try:
                parse(json.dumps(raw))
            except DocumentError:
                pass


class TestRationalMemo:
    """Equal rationals are read once per document; the reading must not
    depend on which spelling came first."""

    @pytest.mark.parametrize("first", ["1", 1, "1/1"])
    @pytest.mark.parametrize("boolean", [True, False])
    def test_boolean_after_equal_value_raises_at_its_path(self, first, boolean):
        # True == 1 and hash(True) == hash(1): a memo keyed on raw JSON
        # values would hand back the Fraction read for 1.
        raw = full_document()
        raw["instance"]["lambda"] = first
        raw["instance"]["vertiports"][0]["congestion_cost"] = [[first, boolean]]
        raw["bids"]["op1"]["a1"]["0"] = first
        raw["valuations"]["op1"]["a1"]["1"] = boolean
        assert error_text(json.dumps(raw)) == (
            f"$.instance.vertiports[0].congestion_cost[0][1]: not a rational: {boolean}")
        raw["instance"]["vertiports"][0]["congestion_cost"] = [[first, first]]
        assert error_text(json.dumps(raw)) == (
            f"$.valuations.op1.a1.1: not a rational: {boolean}")

    @pytest.mark.parametrize("spellings, value", [
        (("2/4", "1/2", "2/4"), F(1, 2)),
        (("+5", "5", 5, "5/1", "+5"), F(5)),
        (("007/010", "7/10", "14/20"), F(7, 10)),
        ((3, "3", 3, "3/1"), F(3)),
        (("-6/4", "-3/2"), F(-3, 2)),
    ])
    def test_equal_values_read_equal_and_reduced(self, spellings, value):
        raw = full_document()
        raw["instance"]["vertiports"][0]["congestion_cost"] = [list(spellings)]
        raw["instance"]["lambda"] = spellings[-1]
        raw["bids"]["op1"]["a1"] = {str(k): v for k, v in enumerate(spellings)}
        document = parse(json.dumps(raw))
        read = (congestion_costs(document.instance.vertiports[0])[0]
                + (document.instance.congestion_ratio,) + tuple(document.bids.values()))
        assert read == (value,) * (2 * len(spellings) + 1)
        assert {(v.numerator, v.denominator) for v in read} == {
            (value.numerator, value.denominator)}

    def test_documents_do_not_share_readings(self):
        raw = full_document()
        raw["instance"]["lambda"] = "1/3"
        first = parse(json.dumps(raw))
        raw["instance"]["lambda"] = "1/4"
        assert parse(json.dumps(raw)).instance.congestion_ratio == F(1, 4)
        assert first.instance.congestion_ratio == F(1, 3)


def congestion_document(row):
    """`full_document` stretched to a valid instance of two slots, its
    transit entry flying from slot 1 to 2, whose one vertiport has two
    parking units and the congestion row `row` at both slots."""
    raw = full_document()
    instance = raw["instance"]
    instance["horizon"] = 2
    instance["vertiports"][0].update(arrival_cap=[0, 1], departure_cap=[1, 0],
                                     parking_cap=[2, 2], congestion_cost=[row, row])
    instance["operators"][0]["fleet"][0]["menu"][1]["arrive_time"] = 2
    return json.dumps(raw)


CONGESTION_ENTRY = "$.instance.vertiports[0].congestion_cost[0][1]"
#: The canonical spelling of a convex row, then the same values spelled
#: otherwise: unreduced, as a bare integer string, and as a JSON integer.
CANONICAL_ROW = ["0/1", "1/2", "3/2"]
EQUAL_ROWS = [["0", "2/4", "6/4"], [0, "1/2", "3/2"], ["0/1", "2/4", "3/2"],
              ["0", "1/2", "6/4"]]


class TestCongestionRows:
    """A congestion row is stored as integer numerators over their lcm, in
    lowest terms (`model.CongestionRow`), read from each entry's numerator
    and denominator as spelled."""

    def test_stored_in_lowest_terms(self):
        port = parse(congestion_document(CANONICAL_ROW)).instance.vertiports[0]
        assert port.congestion_rows == (((0, 1, 3), 2),) * 2
        assert congestion_costs(port) == ((F(0), F(1, 2), F(3, 2)),) * 2
        assert port.congestion_at(1, 2) == F(3, 2)

    @pytest.mark.parametrize("row", EQUAL_ROWS, ids=json.dumps)
    def test_equal_rationals_read_equal(self, row):
        canonical = parse(congestion_document(CANONICAL_ROW)).instance
        spelled = parse(congestion_document(row)).instance
        assert spelled.vertiports == canonical.vertiports
        assert spelled.vertiports[0].congestion_rows == canonical.vertiports[0].congestion_rows
        assert compile_template(spelled) == compile_template(canonical)
        assert render(parse(congestion_document(row))) == render(
            parse(congestion_document(CANONICAL_ROW)))

    @pytest.mark.parametrize("raw", [True, 0.5, "1/0", "+-1", "1" * 5000, "1/" + "1" * 5000],
                             ids=["true", "float", "zero-denominator", "two-signs",
                                  "numerator-over-digit-limit",
                                  "denominator-over-digit-limit"])
    def test_malformed_entry_raises_at_its_path(self, raw):
        assert error_text(congestion_document(["0", raw, "3/2"])) == (
            f"{CONGESTION_ENTRY}: not a rational: {raw!r}")

    def test_canonical_text_renders_back(self):
        text = render(parse(congestion_document(CANONICAL_ROW)))
        assert render(parse(text)) == text
        assert json.loads(text)["instance"]["vertiports"][0]["congestion_cost"] == [
            CANONICAL_ROW] * 2


class TestRender:
    def test_roundtrip_byte_identical(self):
        for seed in range(10):
            document = generate(GeneratorConfig(seed=seed))
            text = render(document)
            assert render(parse(text)) == text

    def test_parse_render_identity_on_values(self):
        document = generate(GeneratorConfig(seed=42))
        again = parse(render(document))
        assert again.instance == document.instance
        assert again.bids == document.bids
        assert again.valuations == document.valuations

    def test_profiles_only_when_present(self, empty_instance):
        text = render(InstanceDocument(instance=empty_instance))
        data = json.loads(text)
        assert "bids" not in data and "valuations" not in data
        assert text.endswith("\n")


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_roundtrip_property(seed):
    document = generate(GeneratorConfig(seed=seed))
    assert parse(render(document)) == document
