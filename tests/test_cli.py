"""End-to-end tests of the command-line interface."""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import protolab
from protolab import compression, zoo
from protolab.cli import main
from protolab.errors import format_count

from helpers import random_tree_dict, relay3_dict


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_measure_ring(capsys):
    code, out, err = run_cli(
        capsys, "measure", "--protocol", "ring-parity", "--k", "3", "--n", "1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ic"] == 1.0
    assert payload["pic"] == 3.0
    assert payload["acc"] == "3"
    assert payload["privacy_leakage"] == 0.0


def test_measure_star_pic(capsys):
    code, out, _ = run_cli(
        capsys, "measure", "--protocol", "star-parity", "--k", "3", "--n", "1"
    )
    assert json.loads(out)["pic"] == 2.0


def test_measure_is_byte_identical_across_runs(capsys):
    args = ("measure", "--protocol", "and-opt", "--mu", "grid:0.01")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_measure_with_distribution_file(tmp_path, capsys):
    mu_star = [
        {"inputs": ["0", "0"], "num": 1, "den": 6},
        {"inputs": ["0", "1"], "num": 1, "den": 6},
        {"inputs": ["1", "0"], "num": 1, "den": 3},
        {"inputs": ["1", "1"], "num": 1, "den": 3},
    ]
    path = tmp_path / "mu.json"
    path.write_text(json.dumps(mu_star))
    code, out, _ = run_cli(
        capsys, "measure", "--protocol", "and-opt", "--mu", f"file:{path}"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pic"] == pytest.approx(math.log2(3), abs=1e-9)


def test_unreduced_distribution_file_prints_the_reduced_bytes(
        tmp_path, capsys):
    # The law reduces to one form, so 2/8 and 6/8 print what 1/4 and 3/4
    # print, name included.
    path = tmp_path / "mu.json"
    outs = []
    for (n0, d0), (n1, d1) in (((1, 4), (3, 4)), ((2, 8), (6, 8))):
        path.write_text(json.dumps([
            {"inputs": ["0", "1"], "num": n0, "den": d0},
            {"inputs": ["1", "1"], "num": n1, "den": d1},
        ]))
        code, out, _ = run_cli(capsys, "measure", "--protocol", "and-opt",
                               "--mu", f"file:{path}")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["acc"] == "2"


def test_measure_grid_locates_optimum(capsys):
    code, out, _ = run_cli(
        capsys, "measure", "--protocol", "and-opt", "--mu", "grid:0.005"
    )
    payload = json.loads(out)
    assert abs(payload["sup_pic_value"] - math.log2(3)) <= 1e-3
    assert payload["sup_alpha"] == "67/200"
    assert payload["sup_beta"] == "1/2"


def test_measure_tree_protocol(tmp_path, capsys):
    path = tmp_path / "relay3.json"
    path.write_text(json.dumps(relay3_dict()))
    code, out, _ = run_cli(
        capsys, "measure", "--protocol", f"tree:{path}", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ic"] == 3.0
    assert payload["privacy_leakage"] is None


@pytest.mark.parametrize("command", ["measure", "audit", "compress"])
def test_a_tree_protocol_refuses_the_size_flags(command, tmp_path, capsys):
    # A tree file sets its own sizes, so --k, --n and --q go unread.
    path = tmp_path / "relay3.json"
    path.write_text(json.dumps(relay3_dict()))
    for flags, flag in ((("--k", "7", "--n", "9"), "k"), (("--n", "1"), "n"),
                        (("--q", "1"), "q")):
        code, out, err = run_cli(capsys, command, "--protocol",
                                 f"tree:{path}", *flags)
        assert (code, out) == (1, ""), flags
        assert err == (f"error: --{flag} is not read with --protocol "
                       "tree:FILE; the file sets its sizes\n"), flags


def test_exit_codes(capsys, tmp_path):
    # 1: configuration problems.
    code, _, err = run_cli(capsys, "measure", "--protocol", "no-such")
    assert code == 1 and "unknown protocol" in err
    code, _, err = run_cli(
        capsys, "measure", "--protocol", "and-opt", "--mu", "nonsense"
    )
    assert code == 1
    path = tmp_path / "relay3.json"
    path.write_text(json.dumps(relay3_dict()))
    code, _, err = run_cli(capsys, "audit", "--protocol", f"tree:{path}")
    assert code == 1 and "function family" in err
    # 2: budget.
    code, _, err = run_cli(
        capsys, "measure", "--protocol", "ring-parity", "--k", "4", "--n",
        "2", "--budget", "10",
    )
    assert code == 2 and "budget" in err
    # 3: model violation (relaxed protocol cannot be enumerated).
    code, _, err = run_cli(capsys, "measure", "--protocol", "order-leak")
    assert code == 3
    # 4: compression refuses non-oblivious protocols.
    code, _, err = run_cli(
        capsys, "compress", "--protocol", "q-index", "--k", "3", "--q", "1"
    )
    assert code == 4 and "--obliviousize" in err
    # 1 again: values that parse but make no sense print one error line.
    deep = tmp_path / "deep.json"
    link = ('{"sender": 1, "receiver": 2, "msg_bits": 1, '
            '"message_table": {"0": "0", "1": "0"}, "children": {"0": ')
    deep.write_text(
        '{"k": 2, "input_bits": [1, 1], '
        '"tape_bits": {"private": [0, 0], "public": 0}, "tree": '
        + link * 3000 + '{"outputs": ["0", "0"]}' + "}}" * 3000 + "}"
    )
    junk = tmp_path / "junk.json"
    junk_tree = relay3_dict()
    junk_tree["tree"]["message_table"]["junk"] = "0"
    junk_tree["tree"]["children"]["111"] = {"outputs": ["10", "01", "0"]}
    junk.write_text(json.dumps(junk_tree))
    for argv in (
        ("measure", "--protocol", f"tree:{deep}"),
        ("measure", "--protocol", f"tree:{junk}"),
        ("compress", "--protocol", "star-parity", "--obliviousize", "abc"),
        ("compress", "--protocol", "star-parity", "--obliviousize", "1/0"),
        ("measure", "--protocol", "and-opt", "--mu", "grid:0"),
        ("measure", "--protocol", "and-opt", "--mu", "grid:nan"),
        ("compress", "--protocol", "star-parity", "--lcp", "randomized",
         "--trials", "0"),
        ("compress", "--protocol", "star-parity", "--delta", "inf"),
        ("compress", "--protocol", "star-parity", "--delta", "nan"),
        # The default per-call lcp error rate, delta over twice the calls.
        ("compress", "--protocol", "star-parity", "--lcp", "randomized",
         "--delta", "5e-324"),
        ("audit", "--protocol", "ring-parity", "--tolerance", "nan"),
        ("audit", "--protocol", "ring-parity", "--tolerance", "-1"),
        ("audit", "--protocol", "star-parity", "--tolerance", "inf"),
        ("measure", "--protocol", "star-parity", "--tolerance", "0"),
        ("measure", "--protocol", "star-parity", "--tolerance", "abc"),
        ("audit", "--protocol", "star-parity", "--budget", "0"),
        ("measure", "--protocol", "star-parity", "--budget", "-3"),
        ("compress", "--protocol", "star-parity", "--budget", "0"),
        ("list", "--out", str(tmp_path / "missing" / "x.json")),
        ("list", "--out", str(tmp_path)),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and err.startswith("error: "), argv
        assert err.count("\n") == 1 and "Traceback" not in err, argv
        assert out == "", argv
    for argv, message in (
        (("measure", "--protocol", "and-opt", "--mu", "grid:abc"),
         "bad grid step in 'grid:abc'"),
        (("compress", "--protocol", "star-parity", "--mu", "grid:0.1"),
         "compression needs a concrete distribution"),
        (("measure", "--protocol", "ring-parity", "--q", "1"),
         "protocol 'ring-parity' takes no parameter 'q'"),
        (("measure", "--protocol", "ring-parity", "--k", "2"),
         "ring parity needs at least 3 players"),
        (("measure", "--protocol", "q-index", "--k", "2"),
         "q-index needs at least 3 players"),
        (("audit", "--protocol", "star-parity", "--mu", "grid:0.1"),
         "privacy audit needs a concrete distribution"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n"), argv
    # delta is an error probability, and --eps, --trials and --seed steer
    # randomized lcp boxes only: the error line names the offending flag.
    for argv, flag in (
        (("--lcp", "randomized", "--delta", "1"), "delta"),
        (("--lcp", "randomized", "--delta", "20"), "delta"),
        (("--delta", "5"), "delta"),
        (("--lcp", "exact", "--eps", "0.01"), "--eps"),
        (("--lcp", "exact", "--trials", "2"), "--trials"),
        (("--lcp", "exact", "--seed", "3"), "--seed"),
    ):
        code, out, err = run_cli(capsys, "compress", "--protocol",
                                 "star-parity", *argv)
        assert code == 1 and err.startswith("error: ") and flag in err, argv
        assert err.count("\n") == 1 and out == "", argv
    # 2 again: the budget also caps the pic grid's points per axis and the
    # local rounds of --obliviousize, and a protocol over the budget fails
    # before any distribution over its input space is built.
    for argv in (
        ("measure", "--protocol", "and-opt", "--mu", "grid:1e-15"),
        ("measure", "--protocol", "and-opt", "--mu", "grid:0.00001"),
        ("measure", "--protocol", "ring-parity", "--n", "16"),
        ("measure", "--protocol", "q-index", "--k", "9", "--q", "8"),
        ("compress", "--protocol", "q-index", "--k", "3", "--q", "1",
         "--obliviousize", "0.00001"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and err.startswith("error: "), argv
        assert err.count("\n") == 1 and "Traceback" not in err, argv
        assert out == "", argv


def test_budget_caps_randomized_compress_runs(capsys, monkeypatch):
    # 8 (input, public tape) rows x 200 trials is 1600 compress runs; the
    # budget refuses them after the exact pass, before the first trial.
    calls = []
    exact = compression.compress_run

    def counted(*args, **kwargs):
        calls.append(args[4].mode)
        return exact(*args, **kwargs)

    monkeypatch.setattr(compression, "compress_run", counted)
    code, out, err = run_cli(
        capsys, "compress", "--protocol", "star-parity", "--lcp",
        "randomized", "--budget", "100", "--trials", "200",
    )
    assert code == 2 and out == ""
    assert err == ("error: randomized compression needs 1600 compress runs, "
                   "budget is 100\n")
    assert calls == ["exact"] * 8


def test_compress_passes_only_the_randomized_flags_given(capsys, monkeypatch):
    # The library owns the defaults of --seed, --trials and --eps: the CLI
    # passes on only the flags the user gave.
    calls = []

    def check(*args, **kwargs):
        calls.append(sorted(set(kwargs) - {"lcp_mode", "budget"}))
        return exact(*args, **kwargs)

    exact = compression.compression_theorem_check
    monkeypatch.setattr(compression, "compression_theorem_check", check)
    outs = []
    for argv in ((), ("--seed", "0", "--trials", "8")):
        code, out, _ = run_cli(capsys, "compress", "--protocol", "star-parity",
                               "--lcp", "randomized", *argv)
        assert code == 0
        outs.append(out)
    code, _, _ = run_cli(capsys, "compress", "--protocol", "star-parity",
                         "--lcp", "randomized", "--eps", "0.01")
    assert code == 0
    assert calls == [[], ["seed", "trials"], ["eps_call"]]
    assert outs[0] == outs[1]  # the defaults are seed 0 and 8 trials


def test_budget_fails_before_the_zoo_builds_a_protocol(capsys, monkeypatch):
    def refuse(**params):
        raise AssertionError(f"factory called with {params}")

    for name in ("ring-parity", "q-index"):
        monkeypatch.setitem(zoo.REGISTRY[name], "factory", refuse)
    for argv in (
        ("measure", "--protocol", "ring-parity", "--n", "18"),
        ("audit", "--protocol", "ring-parity", "--k", "40"),
        ("compress", "--protocol", "q-index", "--k", "12", "--q", "11"),
        ("measure", "--protocol", "ring-parity", "--k", "4", "--n", "2",
         "--budget", "10"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and err.startswith("error: enumeration needs "), argv
        assert err.count("\n") == 1 and out == "", argv


def test_budget_fails_on_a_tree_header_before_compiling(
        capsys, monkeypatch, tmp_path):
    from protolab import treefile

    calls = []

    def counting(length):
        calls.append(length)
        return bitstrings(length)

    bitstrings = treefile.bitstrings
    monkeypatch.setattr(treefile, "bitstrings", counting)

    def tree(**header):
        spec = {"k": 2, "input_bits": [14, 1],
                "tape_bits": {"private": [0, 0], "public": 0},
                "tree": {"outputs": ["0", "0"]}, **header}
        path = tmp_path / f"tree{len(list(tmp_path.iterdir()))}.json"
        path.write_text(json.dumps(spec))
        return f"tree:{path}"

    code, out, err = run_cli(capsys, "measure", "--protocol", tree(),
                             "--budget", "4")
    assert code == 2 and out == "" and calls == []
    assert err == ("error: enumeration needs 32768 executions, "
                   "budget is 4\n")
    # A malformed header is still a configuration error, budget or not.
    for header in ({"k": 1}, {"input_bits": [1]},
                   {"tape_bits": {"private": [0, 0]}}):
        code, out, err = run_cli(capsys, "measure", "--protocol",
                                 tree(**header), "--budget", "4")
        assert code == 1 and out == "" and calls == [], header
    code, out, _ = run_cli(capsys, "measure", "--protocol",
                           tree(input_bits=[1, 1]), "--budget", "4")
    assert code == 0 and calls


def test_budget_error_names_a_huge_count_by_its_power_of_two(
        capsys, tmp_path):
    # Python refuses to write an int of over 4300 digits in decimal.
    spec = {"k": 2, "input_bits": [20000, 1],
            "tape_bits": {"private": [0, 0], "public": 0},
            "tree": {"outputs": ["0", "0"]}}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(spec))
    for argv, count in (
        (("--protocol", "ring-parity", "--n", "5000"), "2^20000"),
        (("--protocol", f"tree:{path}"), "2^20001"),
    ):
        code, out, err = run_cli(capsys, "measure", *argv)
        assert code == 2 and out == "", argv
        assert err == (f"error: enumeration needs {count} executions, "
                       "budget is 65536\n")
    assert [format_count(n) for n in ((1 << 64) - 1, 1 << 64, 3 << 64)] == [
        "18446744073709551615", "2^64", "more than 2^65"]


HUGE = "99999999999999999999"


def test_huge_protocol_sizes_exit_2_before_anything_is_shifted(
        capsys, tmp_path):
    def tree(name, **header):
        spec = {"k": 2, "input_bits": [1, 1],
                "tape_bits": {"private": [0, 0], "public": 0},
                "tree": {"outputs": ["0", "0"]}, **header}
        path = tmp_path / name
        path.write_text(json.dumps(spec))
        return f"tree:{path}"

    for argv, count in (
        (("--protocol", "ring-parity", "--k", HUGE), f"2^{int(HUGE) + 1}"),
        (("--protocol", "ring-parity", "--n", HUGE), f"2^{4 * int(HUGE)}"),
        (("--protocol", "star-parity", "--k", HUGE), f"2^{HUGE}"),
        (("--protocol", "q-index", "--k", HUGE, "--q", "1"),
         f"at least 2^{int(HUGE) - 1}"),
        (("--protocol", tree("inputs.json", input_bits=[10**20, 1])),
         f"2^{10**20 + 1}"),
        (("--protocol", tree("tape.json", tape_bits={"private": [0, 0],
                                                     "public": 10**20})),
         f"2^{10**20 + 2}"),
    ):
        code, out, err = run_cli(capsys, "measure", *argv)
        assert code == 2 and out == "", argv
        assert err == (f"error: enumeration needs {count} executions, "
                       "budget is 65536\n"), argv
    # q-index's 2^(k-1) factor is checked before math.perm, which would not
    # finish here and which no signal interrupts: a child process with a
    # timeout turns a regression into a failure instead of a stall.
    proc = subprocess.run(
        [sys.executable, "-m", "protolab.cli", "measure", "--protocol",
         "q-index", "--k", "99999999999", "--q", "99999999990"],
        capture_output=True, text=True, timeout=20, cwd="/", env=_child_env(),
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("error: enumeration needs at least 2^99999999998 "
                           "executions, budget is 65536\n")


def test_each_command_rejects_options_it_does_not_read(capsys):
    for argv in (
        ("measure", "--protocol", "and-opt", "--seed", "7"),
        ("audit", "--protocol", "ring-parity", "--seed", "7"),
        ("demo", "--protocol", "order-leak", "--seed", "7"),
        ("compress", "--protocol", "star-parity", "--tolerance", "1e-9"),
        ("demo", "--protocol", "order-leak", "--tolerance", "1e-9"),
        ("demo", "--protocol", "order-leak", "--k", "3"),
        ("demo", "--protocol", "order-leak", "--n", "1"),
        ("demo", "--protocol", "order-leak", "--q", "1"),
        ("demo", "--protocol", "order-leak", "--mu", "uniform"),
        ("demo", "--protocol", "order-leak", "--budget", "10"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and err.startswith("error: unrecognized"), argv
        assert err.count("\n") == 1 and out == "", argv


def _strict_json(text: str):
    def reject(constant):
        raise ValueError(f"non-finite number {constant} in report")

    return json.loads(text, parse_constant=reject)


def test_audit_verdicts(capsys):
    code, out, _ = run_cli(capsys, "audit", "--protocol", "ring-parity")
    payload = json.loads(out)
    assert code == 0 and payload["verdict"] == "private"
    code, out, _ = run_cli(capsys, "audit", "--protocol", "star-parity")
    payload = json.loads(out)
    assert payload["verdict"] == "not-private"
    assert payload["privacy_leakage"] > 0


def test_compress_star(capsys):
    code, out, _ = run_cli(
        capsys, "compress", "--protocol", "star-parity", "--k", "3", "--n", "1"
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["measured_error"] == 0.0
    assert payload["expected_stages"] <= 2.0
    assert payload["ratio"] > 0


def test_compress_report_with_zero_bound_is_strict_json(capsys):
    # cc = 1, so log2 cc = 0 and the bound is 0: the ratio is undefined.
    code, out, _ = run_cli(
        capsys, "compress", "--protocol", "star-parity", "--k", "2", "--n", "1"
    )
    assert code == 0
    payload = _strict_json(out)
    assert payload["bound_value"] == 0.0
    assert payload["ratio"] is None


def test_subnormal_grid_step_exits_2(capsys):
    # 1 / 5e-324 overflows a float; the step's exact inverse is 2^1074.
    code, out, err = run_cli(capsys, "measure", "--protocol", "and-opt",
                             "--mu", "grid:5e-324")
    assert (code, out) == (2, "")
    assert err == ("error: pic grid needs more than 2^1073 grid points per "
                   "axis, budget is 65536\n")


@pytest.mark.parametrize("argv", [
    ("--lcp", "randomized", "--eps", "1e-320", "--trials", "1"),
    ("--lcp", "randomized", "--delta", "1e-320", "--trials", "1"),
    ("--delta", "1e-320"),
], ids=["randomized-eps", "randomized-delta", "exact-delta"])
def test_subnormal_error_rates_compress(capsys, argv):
    # tests / eps and inner / delta overflow a float; the differences of
    # their logarithms do not.
    code, out, err = run_cli(capsys, "compress", "--protocol", "star-parity",
                             *argv)
    assert (code, err) == (0, "")
    payload = _strict_json(out)
    assert payload["measured_error"] == 0.0
    if "--delta" in argv:
        assert payload["bound_value"] == 19209.364765681
        assert payload["delta"] == 1e-320
    else:
        assert payload["eps_per_call"] == 1e-320


# Under this law only one input in 10^11 makes star-parity leak: 3.8e-10
# bits, which round(x, 9) alone prints as 0.
_RARE_LEAK_MU = [
    {"inputs": ["0", "0", "0"], "num": 99999999999, "den": 10**11},
    {"inputs": ["0", "1", "1"], "num": 1, "den": 10**11},
]


def test_audit_prints_a_tiny_leakage_as_nonzero(tmp_path, capsys):
    path = tmp_path / "mu.json"
    path.write_text(json.dumps(_RARE_LEAK_MU))
    code, out, _ = run_cli(capsys, "audit", "--protocol", "star-parity",
                           "--mu", f"file:{path}", "--tolerance", "1e-12")
    assert code == 0
    payload = _strict_json(out)
    assert payload["privacy_leakage"] == 3.79839042e-10
    assert payload["per_player"] == [3.79839042e-10, 0.0, 0.0]
    assert payload["tolerance"] == 1e-12
    assert payload["verdict"] == "not-private"
    code, out, _ = run_cli(capsys, "measure", "--protocol", "star-parity",
                           "--mu", f"file:{path}")
    payload = _strict_json(out)
    assert code == 0
    for key in ("ic", "pic", "privacy_leakage"):
        assert payload[key] == 3.79839042e-10, key


def test_compress_echoes_a_tiny_delta_as_given(capsys):
    code, out, _ = run_cli(capsys, "compress", "--protocol", "star-parity",
                           "--delta", "1e-300")
    assert code == 0
    assert _strict_json(out)["delta"] == 1e-300


def test_non_finite_report_value_exits_5(capsys, monkeypatch):
    from protolab import measures

    monkeypatch.setattr(
        measures, "privacy_terms", lambda *a, **kw: [math.nan, 0.0, 0.0]
    )
    code, out, err = run_cli(capsys, "audit", "--protocol", "ring-parity")
    assert code == 5
    assert out == ""
    assert err.startswith("error: internal invariant failed: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_compress_with_obliviousize_and_randomized_boxes(capsys):
    code, out, _ = run_cli(
        capsys, "compress", "--protocol", "q-index", "--k", "3", "--q", "1",
        "--obliviousize", "0.5", "--lcp", "randomized", "--eps", "0.01",
        "--delta", "0.3", "--trials", "2", "--seed", "3",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["lcp_mode"] == "randomized"
    assert payload["measured_error"] <= 0.3


def test_demo_order_leak(capsys):
    code, out, _ = run_cli(capsys, "demo", "--protocol", "order-leak")
    payload = json.loads(out)
    assert code == 0
    assert payload["content_transcripts_identical"] is True
    assert payload["outputs_differ"] is True
    assert payload["second_player_outputs"] == ["0", "1"]
    # Pinned from an engine that built every message record as it ran.
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d2d8a9a3e2c00958dd26c1b28278845012fcf93caedf271fd50220fecf955958"
    )
    code, _, _ = run_cli(capsys, "demo", "--protocol", "and-opt")
    assert code == 1


def test_list_protocols(capsys):
    code, out, _ = run_cli(capsys, "list")
    payload = json.loads(out)
    names = {p["name"] for p in payload["protocols"]}
    assert names == {
        "ring-parity", "star-parity", "and-opt", "q-index", "order-leak"
    }


def test_output_file_and_formats(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "measure", "--protocol", "and-opt", "--out", str(out_path)
    )
    assert code == 0 and out == ""
    payload = json.loads(out_path.read_text())
    assert payload["cc"] == 2
    code, out, _ = run_cli(
        capsys, "measure", "--protocol", "and-opt", "--format", "csv"
    )
    header, row = out.strip().splitlines()
    assert "pic" in header.split(",")
    code, out, _ = run_cli(
        capsys, "measure", "--protocol", "and-opt", "--format", "text"
    )
    assert "pic: 1.5" in out


def test_no_partial_report_on_error(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "measure", "--protocol", "order-leak", "--out", str(out_path)
    )
    assert code == 3
    assert not out_path.exists()


def test_bad_distribution_files(tmp_path, capsys):
    path = tmp_path / "mu.json"
    path.write_text("[{\"inputs\": [\"0\", \"0\"], \"num\": 1}]")
    code, _, err = run_cli(
        capsys, "measure", "--protocol", "and-opt", "--mu", f"file:{path}"
    )
    assert code == 1
    path.write_text("[{\"inputs\": [\"0\", \"0\"], \"num\": 1, \"den\": 2}]")
    code, _, err = run_cli(
        capsys, "measure", "--protocol", "and-opt", "--mu", f"file:{path}"
    )
    assert code == 1 and "sum" in err
    # inputs must be a list of strings, num and den integers but not bools,
    # and each input tuple is listed once (here the weights sum to 3/2).
    bad_entry = f"bad distribution entry in {path}: "
    for entry, message in (
        ('{"inputs": "00", "num": 1, "den": 1}',
         bad_entry + "inputs '00' is not a list of bit strings"),
        ('{"inputs": ["0", "0"], "num": true, "den": 1}',
         bad_entry + "weights must be exact rationals, got bool"),
        ('{"inputs": ["0", "0"], "num": 1, "den": 2}, '
         '{"inputs": ["0", "0"], "num": 1, "den": 2}, '
         '{"inputs": ["1", "1"], "num": 1, "den": 2}',
         f"bad distribution in {path}: duplicate input tuples: ('0', '0') "
         "is given twice"),
    ):
        path.write_text("[" + entry + "]")
        code, out, err = run_cli(
            capsys, "measure", "--protocol", "and-opt", "--mu", f"file:{path}"
        )
        assert (code, out, err) == (1, "", f"error: {message}\n"), entry


def test_unreadable_json_files_exit_1(tmp_path, capsys):
    # Bytes that are not UTF-8, and an integer past Python's 4300-digit
    # limit, are faults of the file: one error line, no traceback.
    for name, data in (("binary.json", b"\xff\xfe\x00"),
                       ("huge.json", b"[" + b"1" * 5000 + b"]")):
        path = tmp_path / name
        path.write_bytes(data)
        for argv in (("--protocol", f"tree:{path}"),
                     ("--protocol", "and-opt", "--mu", f"file:{path}")):
            code, out, err = run_cli(capsys, "measure", *argv)
            assert code == 1 and err.startswith("error: cannot "), argv
            assert err.count("\n") == 1 and out == "", argv


def test_mistyped_tree_node_exits_1(tmp_path, capsys):
    # A list where the children object belongs is a fault of the file, not
    # a traceback.
    spec = relay3_dict()
    spec["tree"]["children"] = sorted(spec["tree"]["children"])
    path = tmp_path / "listed.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "measure", "--protocol", f"tree:{path}")
    assert code == 1 and out == ""
    assert err.startswith("error: malformed protocol tree: children must be "
                          "an object, got [")
    assert err.count("\n") == 1


def test_invariant_failure_exits_5(capsys, monkeypatch):
    from protolab import measures

    # A negative transcript entropy trips measure_protocol's check that it
    # is at least the private-randomness part of pic over k.
    monkeypatch.setattr(measures, "transcript_entropy", lambda *a, **kw: -1.0)
    code, out, err = run_cli(
        capsys, "measure", "--protocol", "ring-parity", "--k", "3", "--n", "1"
    )
    assert code == 5
    assert out == ""
    assert err.startswith("error: internal invariant failed: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def _child_env() -> dict:
    """The environment of a child ``python -m protolab.cli``.  Children run
    from "/", so a relative PYTHONPATH would not resolve; they get the
    absolute directory this process imported protolab from."""
    src = str(Path(protolab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def test_reports_identical_across_processes(tmp_path):
    env = _child_env()
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    argv = [
        sys.executable, "-m", "protolab.cli", "compress",
        "--protocol", "star-parity", "--k", "3", "--n", "1",
        "--lcp", "randomized", "--eps", "0.02", "--seed", "9",
        "--trials", "3",
    ]
    subprocess.run(argv + ["--out", str(out_a)], check=True, cwd="/", env=env)
    subprocess.run(argv + ["--out", str(out_b)], check=True, cwd="/", env=env)
    assert out_a.read_bytes() == out_b.read_bytes()


# -- fuzzing the command line ----------------------------------------------

_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2, 5),
                  st.floats(), st.text("01x:", max_size=4))
# Each value comes as (well-formed, malformed): a well-formed value parses,
# though it may be extreme; a malformed one need not.
_INT_TEXT = (
    st.one_of(st.integers(-3, 8).map(str),
              st.sampled_from([HUGE, "-" + HUGE])),
    st.sampled_from(["1" + "0" * 5000, "1e3", "0x10", "2.5", "nan", "inf",
                     "", "abc"]),
)
_FLOAT_TEXT = (
    st.one_of(st.floats().map(repr), st.sampled_from(
        ["0.5", "0.25", "1e-300", "5e-324", "1e400", "-inf", "nan"])),
    st.sampled_from(["1/3", "", "abc", "1e" + HUGE]),
)
_MU_ENTRY = st.fixed_dictionaries({
    "inputs": st.one_of(st.lists(st.text("01", max_size=2), max_size=4),
                        _JUNK),
    "num": st.one_of(st.integers(-1, 4), _JUNK),
    "den": st.one_of(st.integers(-1, 8), _JUNK),
})
_MU_FILE = st.one_of(st.lists(_MU_ENTRY, max_size=5), _JUNK)
_HEADER = st.dictionaries(st.sampled_from(["k", "input_bits", "tape_bits"]),
                          st.one_of(
    _JUNK, st.integers(1, 3), st.integers(10**19, 10**21),
    st.lists(st.one_of(st.integers(-1, 3), st.just(10**20)), max_size=3),
    st.fixed_dictionaries({"private": st.lists(st.integers(-1, 2), max_size=3),
                           "public": st.one_of(st.integers(-1, 2), _JUNK)}),
), max_size=1)


@st.composite
def _tree_file(draw):
    """A small random two-player tree, its header sometimes broken."""
    spec = random_tree_dict(
        random.Random(draw(st.integers(0, 999))), draw(st.integers(0, 3)),
        private=draw(st.sampled_from([(0, 0), (1, 0)])),
        public=draw(st.integers(0, 1)), oblivious=draw(st.booleans()),
    )
    spec.update(draw(_HEADER))
    return spec


_MEASURE_FLAGS = ("--mu", "--format", "--out")
# The flags of each command besides --protocol, the protocol's own
# parameters and --budget, as the README lists them.
_FLAGS = {
    "measure": _MEASURE_FLAGS + ("--tolerance",),
    "audit": _MEASURE_FLAGS + ("--tolerance",),
    "compress": _MEASURE_FLAGS + ("--lcp", "--eps", "--delta", "--trials",
                                  "--seed", "--obliviousize"),
    "demo": ("--format", "--out"),
    "list": ("--format", "--out"),
}


@st.composite
def _argv(draw, tmp_path):
    """A command line over the documented flags, with values that are
    valid, extreme or malformed, and paths to the drawn files, to a
    directory and to nothing.  A well-formed draw takes well-formed values
    only, so it gets past the parser."""
    mu, tree = tmp_path / "mu.json", tmp_path / "tree.json"
    # Both files are drawn here, so the draw order stays fixed, and
    # written only when the command line names them.
    files = {mu: json.dumps(draw(_MU_FILE)),
             tree: json.dumps(draw(_tree_file()))}
    nowhere = st.sampled_from([str(tmp_path),
                               str(tmp_path / "missing" / "x.json")])
    values = {
        "--protocol": (
            st.one_of(st.sampled_from(sorted(zoo.REGISTRY)),
                      st.just(f"tree:{tree}")),
            st.one_of(st.sampled_from(["no-such", ""]),
                      nowhere.map("tree:{}".format)),
        ),
        "--k": _INT_TEXT, "--n": _INT_TEXT, "--q": _INT_TEXT,
        "--mu": (
            st.one_of(st.sampled_from(["uniform", f"file:{mu}"]),
                      _FLOAT_TEXT[0].map("grid:{}".format)),
            st.one_of(st.just("grid:"), nowhere.map("file:{}".format),
                      _FLOAT_TEXT[1].map("grid:{}".format)),
        ),
        "--tolerance": _FLOAT_TEXT, "--eps": _FLOAT_TEXT,
        "--delta": _FLOAT_TEXT, "--obliviousize": _FLOAT_TEXT,
        "--trials": _INT_TEXT, "--seed": _INT_TEXT, "--budget": _INT_TEXT,
        "--lcp": (st.sampled_from(["exact", "randomized"]), st.just("fast")),
        "--format": (st.sampled_from(["json", "csv", "text"]), st.just("xml")),
        "--out": (st.just(str(tmp_path / "out.json")), nowhere),
    }
    malformed = draw(st.booleans())

    def value(flag):
        good, bad = values[flag]
        return draw(st.one_of(good, bad) if malformed else good)

    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    if command != "list":
        protocol = value("--protocol")
        argv += ["--protocol", protocol]
        if command != "demo" and protocol in zoo.REGISTRY:
            for name in sorted(zoo.REGISTRY[protocol]["defaults"]):
                argv += [f"--{name}", value(f"--{name}")]
    flags = draw(st.lists(st.sampled_from(_FLAGS[command]), max_size=4))
    if malformed and draw(st.booleans()):  # a flag the command may not read
        flags.append(draw(st.sampled_from(sorted(values))))
    for flag in flags:
        argv += [flag, value(flag)]
    if command in ("measure", "audit", "compress"):
        budget = draw(st.one_of(st.just(64), st.integers(1, 64)))
        argv += ["--budget", str(budget)]
    for path, text in files.items():
        if any(str(path) in arg for arg in argv):
            path.write_text(text)
    return argv


@settings(max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_command_line_exits_with_a_documented_code(data, capsys, tmp_path):
    argv = data.draw(_argv(tmp_path))
    code = main(argv)  # an exception escaping main fails the test
    out, err = capsys.readouterr()
    assert code in range(6), (argv, code)
    assert code == 0 or err.startswith("error: "), (argv, err)
    if code == 0:
        _assert_rates_print_nonzero(argv, out)


# The report key that echoes each rate flag a command reads.
_RATE_KEYS = {"--tolerance": "tolerance", "--delta": "delta",
              "--eps": "eps_per_call"}


def _assert_rates_print_nonzero(argv, out):
    """A JSON report echoes each positive rate its command line gave as a
    nonzero number (the parser keeps a repeated flag's last value)."""
    options = dict(zip(argv[1::2], argv[2::2]))
    if options.get("--format", "json") != "json":
        return
    text = Path(options["--out"]).read_text() if "--out" in options else out
    payload = _strict_json(text)
    for flag, key in _RATE_KEYS.items():
        if flag in options and float(options[flag]) > 0:
            assert payload[key] != 0, (argv, key, payload[key])


# One exit-0 command line per rate flag, so the fuzz test's rate check is
# run on each flag whatever the draws reach.
@pytest.mark.parametrize("argv", [
    ["audit", "--protocol", "star-parity", "--tolerance", "1e-300"],
    ["compress", "--protocol", "star-parity", "--delta", "1e-300"],
    ["compress", "--protocol", "star-parity", "--lcp", "randomized",
     "--eps", "1e-320", "--trials", "1"],
], ids=["tolerance", "delta", "eps"])
def test_the_rate_check_reads_each_rate_flag(argv, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    _assert_rates_print_nonzero(argv, out)
