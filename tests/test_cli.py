"""Command-line surface: subcommands and exit codes."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from conftest import make_port, stay, transit
from vertiport_auction import cli, mechanism
from vertiport_auction.cli import (
    EXIT_BUDGET,
    EXIT_INVALID,
    EXIT_IO,
    EXIT_MISMATCH,
    EXIT_OK,
    main,
)
from vertiport_auction.model import Aircraft, Instance, Operator
from vertiport_auction.serialize import InstanceDocument, render


@pytest.fixture
def second_price_file(tmp_path, second_price):
    instance, bids = second_price
    document = InstanceDocument(instance=instance, bids=bids, valuations=bids)
    path = tmp_path / "second_price.json"
    path.write_text(render(document))
    return str(path)


@pytest.fixture
def generated_file(tmp_path):
    path = tmp_path / "generated.json"
    assert main(["gen", "--seed", "7", "--out", str(path)]) == EXIT_OK
    return str(path)


class TestValidate:
    def test_ok(self, generated_file, capsys):
        assert main(["validate", generated_file]) == EXIT_OK
        assert "ok" in capsys.readouterr().out

    def test_unknown_field_exit_1_with_path(self, tmp_path, generated_file,
                                            capsys):
        data = json.loads(open(generated_file).read())
        data["instance"]["surprise"] = 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["validate", str(bad)]) == EXIT_INVALID
        assert "$.instance.surprise" in capsys.readouterr().err

    def test_numeric_congestion_row_exit_1_with_path(self, tmp_path, generated_file,
                                                     capsys):
        data = json.loads(open(generated_file).read())
        data["instance"]["vertiports"][0]["congestion_cost"][0] = 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["validate", str(bad)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert "$.instance.vertiports[0].congestion_cost[0]: expected an array" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["validate", "solve", "auction", "oracle-check",
                                         "properties"])
    def test_non_utf8_file_exit_1(self, tmp_path, capsys, command):
        """A file that is not UTF-8 text is an invalid document, not a
        traceback, for every subcommand that reads one."""
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{")
        assert main([command, str(bad)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("invalid document: $: not UTF-8 text: ")
        assert "Traceback" not in err

    def test_missing_file_exit_3(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.json")]) == EXIT_IO
        assert "cannot read" in capsys.readouterr().err

    def test_semantic_violation_exit_1(self, tmp_path, generated_file, capsys):
        data = json.loads(open(generated_file).read())
        data["instance"]["lambda"] = "-1/1"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["validate", str(bad)]) == EXIT_INVALID
        assert "lambda" in capsys.readouterr().err

    def test_boolean_rational_exit_1_with_path(self, tmp_path, generated_file,
                                               capsys):
        data = json.loads(open(generated_file).read())
        data["instance"]["operators"][0]["weight"] = True
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["validate", str(bad)]) == EXIT_INVALID
        assert "$.instance.operators[0].weight" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["bids", "valuations"])
    def test_profile_violation_exit_1(self, tmp_path, generated_file, capsys,
                                      section):
        data = json.loads(open(generated_file).read())
        data[section]["op1"]["a1"]["0"] = "-1/1"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["validate", str(bad)]) == EXIT_INVALID
        assert f"violation: {section}: negative value" in capsys.readouterr().err

    def test_exponent_rational_exit_1_quickly(self, tmp_path, generated_file,
                                              capsys):
        data = json.loads(open(generated_file).read())
        data["instance"]["lambda"] = "1e10000000"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        start = time.perf_counter()
        assert main(["validate", str(bad)]) == EXIT_INVALID
        assert time.perf_counter() - start < 2
        assert "$.instance.lambda: not a rational" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "auction"])
    def test_huge_exponent_bid_exit_1(self, tmp_path, generated_file, capsys,
                                      command):
        data = json.loads(open(generated_file).read())
        data["bids"]["op1"]["a1"]["0"] = "1e5000"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main([command, str(bad)]) == EXIT_INVALID
        assert "$.bids.op1.a1.0: not a rational" in capsys.readouterr().err

    def test_deep_nesting_exit_1(self, tmp_path, capsys):
        depth = 100_000
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": "1", "instance": '
                       + "[" * depth + "]" * depth + "}")
        assert main(["validate", str(bad)]) == EXIT_INVALID
        assert "$: malformed JSON" in capsys.readouterr().err

    def test_non_canonical_menu_key_exit_1(self, tmp_path, generated_file, capsys):
        text = open(generated_file).read().replace(
            '"0": ', '"00": "1/1", "0": ', 1)
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["validate", str(bad)]) == EXIT_INVALID
        assert "menu key must be a canonical decimal" in capsys.readouterr().err


class TestSolve:
    def test_text_output(self, second_price_file, capsys):
        assert main(["solve", second_price_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert "objective: 10" in out
        assert "op1/a1: route 1" in out
        assert "1 ended by completion" in out

    def test_json_output(self, second_price_file, capsys):
        assert main(["solve", second_price_file, "--out", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["objective"] == "10/1"
        assert payload["allocation"] == {"op1/a1": 1, "op2/a1": 0}
        stats = payload["stats"]
        assert stats["fixed_delta_solves"] == (stats["leaf_solves"]
                                               + stats["bound_solves"])
        assert {"nodes_explored", "pruned_infeasible", "pruned_bound",
                "wall_time"} <= set(stats)
        assert isinstance(stats["augmentations"], int) and stats["augmentations"] > 0
        # op1 wins: op2's relaxed flow keeps it home, which ends that node.
        assert stats["pruned_completion"] == 1

    def test_strategies_print_same_objective(self, generated_file, capsys):
        assert main(["solve", generated_file, "--strategy", "bnb",
                     "--out", "json"]) == EXIT_OK
        a = json.loads(capsys.readouterr().out)
        assert main(["solve", generated_file, "--strategy", "enumerate",
                     "--out", "json"]) == EXIT_OK
        b = json.loads(capsys.readouterr().out)
        assert a["objective"] == b["objective"]
        assert a["allocation"] == b["allocation"]

    def test_invalid_file_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["solve", str(bad)]) == EXIT_INVALID


class TestAuction:
    def test_payments_and_utilities_printed(self, second_price_file, capsys):
        assert main(["auction", second_price_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert "cleared welfare: 10" in out
        assert "op1/a1: route 1 (" in out
        assert "payment op1: 6" in out
        assert "payment op2: 0" in out
        assert "utility: 4" in out  # winner: value 10 minus payment 6


class TestOracleCheck:
    def test_second_price_matches(self, second_price_file, capsys):
        assert main(["oracle-check", second_price_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert "objective match" in out
        assert "payment match op1" in out

    def test_generated_matches(self, generated_file):
        assert main(["oracle-check", generated_file]) == EXIT_OK

    def test_solves_only_the_auction(self, second_price_file, monkeypatch):
        # The objective is the auction's cleared welfare: |F|+1 solves,
        # the clearing solve and one counterfactual per operator.
        calls = []
        for module in (cli, mechanism):
            def counted(*args, _fn=module.solve, **kwargs):
                calls.append(args)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, "solve", counted)
        assert main(["oracle-check", second_price_file]) == EXIT_OK
        assert len(calls) == 2 + 1

    def test_slot_one_departure_with_congestion_matches(self, tmp_path, capsys):
        # The departer frees v1 from slot 1, so slot 1 has no congestion.
        congestion = ((F(0), F(1)), (F(0), F(1)))
        instance = Instance(
            horizon=2,
            congestion_ratio=F(1),
            vertiports=(make_port("v1", (1, 1), (0, 0), (1, 0), congestion),
                        make_port("v2", (1, 1), (0, 1), (0, 0))),
            operators=(Operator("op1", F(1), (
                Aircraft("a1", "v1", (stay(origin="v1"), transit(1, 1, "v2", 2))),)),),
        )
        bids = {("op1", "a1", 0): F(0), ("op1", "a1", 1): F(5)}
        path = tmp_path / "slot_one.json"
        path.write_text(render(InstanceDocument(instance=instance, bids=bids)))
        assert main(["oracle-check", str(path)]) == EXIT_OK
        assert "objective match: 5" in capsys.readouterr().out


    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_non_positive_budget_exit_1(self, second_price_file, capsys, budget):
        assert main(["oracle-check", second_price_file,
                     "--budget", budget]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "budget must be positive" in err

    def test_exhausted_budget_exit_4(self, second_price_file, capsys):
        # Two aircraft with two menu entries each: 4 candidates.
        assert main(["oracle-check", second_price_file,
                     "--budget", "3"]) == EXIT_BUDGET
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "exceeds budget 3" in err


class TestGen:
    def test_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["gen", "--seed", "3", "--out", str(a)]) == EXIT_OK
        assert main(["gen", "--seed", "3", "--out", str(b)]) == EXIT_OK
        assert a.read_text() == b.read_text()

    def test_stdout_when_no_out(self, capsys):
        assert main(["gen", "--seed", "3"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["schema_version"] == "1"

    def test_dimension_flags(self, tmp_path):
        path = tmp_path / "sized.json"
        assert main(["gen", "--seed", "0", "--vertiports", "2",
                     "--operators", "2", "--horizon", "3",
                     "--out", str(path)]) == EXIT_OK
        data = json.loads(path.read_text())
        assert data["instance"]["horizon"] == 3
        assert len(data["instance"]["vertiports"]) == 2
        assert len(data["instance"]["operators"]) == 2

    @pytest.mark.parametrize("flag", ["--vertiports", "--operators", "--horizon"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_dimension_exit_1(self, capsys, flag, value):
        assert main(["gen", "--seed", "0", flag, value]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert not captured.out
        assert f"{flag} must be at least 1, got {value}" in captured.err

    def test_unwritable_out_exit_3(self, tmp_path):
        assert main(["gen", "--seed", "0",
                     "--out", str(tmp_path / "no" / "dir.json")]) == EXIT_IO


class TestProperties:
    def test_truthful_instances_pass(self, second_price_file, capsys):
        assert main(["properties", second_price_file,
                     "--misreports", "6"]) == EXIT_OK
        assert "no IC/IR violations" in capsys.readouterr().out

    def test_mutated_payment_rule_caught(self, second_price_file, capsys):
        assert main(["properties", second_price_file, "--misreports", "6",
                     "--mutated-payment"]) == EXIT_MISMATCH
        assert "IC violation" in capsys.readouterr().out

    def test_negative_misreports_exit_1(self, second_price_file, capsys):
        assert main(["properties", second_price_file,
                     "--misreports", "-1"]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert "no IC/IR violations" not in captured.out
        assert "--misreports must be at least 0, got -1" in captured.err

    def test_needs_valuations(self, tmp_path, second_price, capsys):
        instance, bids = second_price
        path = tmp_path / "no_vals.json"
        path.write_text(render(InstanceDocument(instance=instance, bids=bids)))
        assert main(["properties", str(path)]) == EXIT_INVALID


def test_version_flag(capsys):
    with pytest.raises(SystemExit):
        main(["--version"])
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["solve", "--help"]])
def test_help_and_version_exit_0(argv, capsys):
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == EXIT_OK
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize("argv", [
    ["oracle-check", "doc.json", "--budget", "abc"],
    ["gen", "--horizon", "x"],
    ["solve", "doc.json", "--strategy", "foo"],
    ["solve"],
    ["frobnicate"],
    [],
])
def test_usage_error_exit_1(argv, capsys):
    assert main(argv) == EXIT_INVALID
    assert "error:" in capsys.readouterr().err


def test_usage_error_exit_1_as_a_process():
    src = str(Path(cli.__file__).resolve().parents[1])
    completed = subprocess.run(
        [sys.executable, "-m", "vertiport_auction.cli", "gen", "--horizon", "x"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert completed.returncode == EXIT_INVALID, completed.stderr
    assert "invalid int value: 'x'" in completed.stderr
