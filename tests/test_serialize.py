"""Document serialization: canonical JSON, exact rationals, strictness."""

import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vertiport_auction.generator import GeneratorConfig, generate
from vertiport_auction.serialize import (
    DocumentError,
    InstanceDocument,
    parse,
    parse_rational,
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


class TestRationals:
    def test_one_third_exact(self):
        assert parse_rational("1/3", "$") == F(1, 3)

    def test_integers_accepted(self):
        assert parse_rational(4, "$") == 4

    def test_render_reduced(self):
        assert render_rational(F(2, 4)) == "1/2"
        assert parse_rational(render_rational(F(-7, 3)), "$") == F(-7, 3)

    def test_garbage_rejected_with_path(self):
        with pytest.raises(DocumentError, match=r"\$\.weight"):
            parse_rational("one half", "$.weight")
        with pytest.raises(DocumentError):
            parse_rational(0.5, "$")

    @pytest.mark.parametrize("raw", [True, False])
    def test_booleans_rejected_with_path(self, raw):
        # bool is an int subclass; JSON true must not read as 1.
        with pytest.raises(DocumentError, match=r"\$\.weight"):
            parse_rational(raw, "$.weight")

    @pytest.mark.parametrize("raw", ["1e10000000", "1E5", "1/1e3", "inf", "nan"])
    def test_exponent_forms_rejected_with_path(self, raw):
        with pytest.raises(DocumentError, match=r"\$\.weight: not a rational"):
            parse_rational(raw, "$.weight")

    @pytest.mark.parametrize("raw", ["0.5", "1.", ".5", "1/2.0"])
    def test_decimal_forms_rejected_with_path(self, raw):
        with pytest.raises(DocumentError, match=r"\$\.weight: not a rational"):
            parse_rational(raw, "$.weight")

    @pytest.mark.parametrize("raw", [" 1/2", "1/2 ", "1 / 2", "1/2\n", "1_000", "1/+2",
                                     "1/0"])
    def test_whitespace_and_other_forms_rejected_with_path(self, raw):
        with pytest.raises(DocumentError, match=r"\$\.weight: not a rational"):
            parse_rational(raw, "$.weight")

    @pytest.mark.parametrize("raw, value", [("+5", F(5)), ("-6/4", F(-3, 2)),
                                            ("007/010", F(7, 10))])
    def test_signed_and_unreduced_forms_accepted(self, raw, value):
        assert parse_rational(raw, "$") == value


class TestParse:
    def test_minimal_document(self):
        document = parse(json.dumps(minimal_document()))
        assert document.instance.horizon == 1
        assert document.instance.vertiports[0].congestion_cost[0][1] == F(1, 2)
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
