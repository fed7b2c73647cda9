"""Command-line interface: outputs, config precedence, exit codes."""

from __future__ import annotations

import ast
import copy
import csv
import functools
import importlib.resources
import io
import json
import math
import operator
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from briodelta import cli, verify
from briodelta.cli import ENV_OUT, main
from briodelta.core import BrioState, RiemannData, TransState, lift
from briodelta.delta import solution_to_dict, solve_brio
from briodelta.errors import BrioError
from briodelta.wave_curves import forward_curve_1, shock_q_1


def _schema(name: str) -> dict:
    path = importlib.resources.files("briodelta") / "schemas" / name
    return json.loads(path.read_text())


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as f:
        return list(csv.DictReader(f))


_SCHEMAS = {"solution.json": "solution.schema.json", "report.json": "report.schema.json"}


def _run(capsys, *argv: str) -> tuple[int, str, str]:
    """Run the CLI; unless the input was refused (exit 1), check each document
    it printed against its schema."""
    code = main(list(argv))
    captured = capsys.readouterr()
    if code != 1:
        for path in map(Path, re.findall(r"[^\s()]+\.json", captured.out)):
            if path.name in _SCHEMAS:
                jsonschema.validate(json.loads(path.read_text()), _schema(_SCHEMAS[path.name]))
    return code, captured.out, captured.err


def test_solve_writes_schema_valid_solution(tmp_path, capsys):
    code, out, err = _run(capsys, "solve", "--left", "1,3", "--right",
                          "0.7,-3.3", "--out", str(tmp_path))
    assert code == 0
    assert err == ""
    path = tmp_path / "solution.json"
    assert out.strip() == str(path)
    doc = json.loads(path.read_text())
    assert doc["options"]["flip_speed"] == "rh"
    assert len(doc["singular"]) >= 1


def test_solve_equal_states_is_trivial(tmp_path, capsys):
    code, _, _ = _run(capsys, "solve", "--left", "0.4,-1.3", "--right",
                      "0.4,-1.3", "--out", str(tmp_path))
    assert code == 0
    doc = json.loads((tmp_path / "solution.json").read_text())
    assert len(doc["regular"]) == 1
    assert doc["regular"][0]["xi_lo"] is None
    assert doc["regular"][0]["xi_hi"] is None
    assert doc["singular"] == []


def test_curves_all_families(tmp_path, capsys):
    code, out, _ = _run(capsys, "curves", "--base", "1,5", "--family", "all",
                        "--samples", "65", "--out", str(tmp_path))
    assert code == 0
    names = [Path(line).name for line in out.strip().splitlines()]
    assert names == ["sw1.csv", "sw2.csv", "rw1.csv", "rw2.csv"]
    sw1 = _read_csv(tmp_path / "sw1.csv")
    sw2 = _read_csv(tmp_path / "sw2.csv")
    assert len(sw1) == 65
    # The slow-family locus dominates the fast one below the base state.
    for r1, r2 in zip(sw1, sw2):
        assert r1["u"] == r2["u"]
        if float(r1["u"]) < 1.0:
            assert float(r1["q"]) > float(r2["q"])
    # Full precision round-trips through the 17-digit format.
    row = next(r for r in sw1 if float(r["u"]) == -1.0)
    assert float(row["q"]) == shock_q_1(TransState(1.0, 5.0), -1.0)


def test_curves_inverse_family(tmp_path, capsys):
    code, out, _ = _run(capsys, "curves", "--base", "0.7,7", "--family",
                        "inverse", "--out", str(tmp_path))
    assert code == 0
    names = [Path(line).name for line in out.strip().splitlines()]
    assert names == ["sw2_inv.csv", "rw2_inv.csv"]
    inv = _read_csv(tmp_path / "sw2_inv.csv")
    assert float(inv[0]["u"]) == 0.7
    assert float(inv[-1]["u"]) == 2.7


def test_sample_writes_grid_and_sidecar(tmp_path, capsys):
    code, out, _ = _run(capsys, "sample", "--left", "1,3", "--right",
                        "0.7,3.3", "--time", "2", "--nx", "101",
                        "--out", str(tmp_path))
    assert code == 0
    lines = out.strip().splitlines()
    assert [Path(p).name for p in lines] == ["samples.csv", "singular.json"]
    rows = _read_csv(tmp_path / "samples.csv")
    assert len(rows) == 101
    assert set(rows[0]) == {"x", "u", "v"}
    side = json.loads((tmp_path / "singular.json").read_text())
    assert side["time"] == 2.0
    for carrier in side["carriers"]:
        assert carrier["position"] == carrier["speed"] * 2.0
        assert carrier["strength"] == carrier["rate"] * 2.0 + carrier["constant"]
        assert carrier["component"] == "v"


def test_sample_window_from_config_strings(tmp_path, capsys):
    # Config values arrive as JSON; a numeric string is read as a number,
    # anything else is a bad input with a JSON error, not a traceback.
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"x_min": "-3", "x_max": "4"}))
    code, _, _ = _run(capsys, "sample", "--left", "1,3", "--right", "0.7,3.3",
                      "--nx", "8", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 0
    rows = _read_csv(tmp_path / "samples.csv")
    assert (float(rows[0]["x"]), float(rows[-1]["x"])) == (-3.0, 4.0)

    cfg.write_text(json.dumps({"x_min": "left"}))
    code, _, err = _run(capsys, "sample", "--left", "1,3", "--right", "0.7,3.3",
                        "--config", str(cfg), "--out", str(tmp_path))
    assert code == 1
    msg = json.loads(err)
    assert msg["error"] == "ValueError"
    assert "left" in msg["message"]


def test_verify_seed_42_passes(tmp_path, capsys):
    code, out, _ = _run(capsys, "verify", "--seed", "42", "--out",
                        str(tmp_path))
    assert code == 0
    assert "17/17 checks passed" in out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["seed"] == 42


def test_verify_failing_check_exits_2(tmp_path, capsys, monkeypatch):
    # A residual of 1 on every bump is far over TOL_WEAK.
    monkeypatch.setattr(verify, "weak_residual", lambda sol, phis, **kw: [(1.0, 1.0)] * len(phis))
    code, out, _ = _run(capsys, "verify", "--seed", "0", "--out", str(tmp_path))
    assert code == 2
    assert "checks passed" in out
    report = json.loads((tmp_path / "report.json").read_text())
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert "weak_residual_admissible" in failed


def test_verify_has_no_tolerance_or_weighting_option(tmp_path, capsys):
    # TOL_WEAK on the scale 1 + max |data| is the one weak verdict: no flag
    # can move it or reweight the carriers. test_bad_config_values_exit_1
    # refuses the same two names as config keys.
    for flags in (("--tol-weak", "1e-3"), ("--arclength",)):
        code, out, err = _run(capsys, "verify", *flags, "--out", str(tmp_path / "out"))
        assert (code, out) == (1, ""), flags
        assert set(json.loads(err)) == {"error", "message"} and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_fv_compare_ladder(tmp_path, capsys):
    code, out, _ = _run(capsys, "fv-compare", "--left", "1,3", "--right",
                        "0.7,3.3", "--ladder", "128,256", "--out",
                        str(tmp_path))
    assert code == 0
    rows = _read_csv(tmp_path / "fv_compare.csv")
    assert [int(float(r["n"])) for r in rows] == [128, 256]
    errs = [float(r["l1_error"]) for r in rows]
    assert errs[1] < errs[0]


def test_config_overrides_with_warning(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"samples": 17}))
    code, _, err = _run(capsys, "curves", "--base", "1,5", "--family", "1",
                        "--samples", "99", "--config", str(cfg),
                        "--out", str(tmp_path))
    assert code == 0
    assert "overrides --samples" in err
    assert len(_read_csv(tmp_path / "sw1.csv")) == 17


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    # The middle state's residual check has no knob, so tol_root is unknown.
    for argv, key in ((("curves", "--base", "1,5"), "bogus_key"),
                      (("solve",) + _DATA, "tol_root")):
        cfg.write_text(json.dumps({key: 1e-10}))
        code, _, err = _run(capsys, *argv, "--config", str(cfg), "--out", str(tmp_path))
        assert code == 1, key
        msg = json.loads(err)
        assert msg["error"] == "PreconditionError"
        assert key in msg["message"]


def test_bad_inputs_exit_1(tmp_path, capsys):
    cases = [
        ("solve", "--left", "1", "--right", "0,0"),
        ("solve", "--right", "0,0"),
        ("curves", "--base", "1,5", "--span", "-2"),
        ("sample", "--left", "1,1", "--right", "0,0", "--time", "-1"),
        ("sample", "--left", "1,1", "--right", "0,0", "--nx", "1"),
        ("sample", "--left", "1,3", "--right", "0.7,3.3", "--time", "inf"),
        ("sample", "--left", "1,3", "--right", "0.7,3.3", "--x-max", "inf"),
        ("fv-compare", "--left", "1,3", "--right", "0.7,3.3", "--x-max",
         "inf", "--ladder", "64"),
        # A usage error: a bad choice.
        ("solve", "--left", "1,1", "--right", "0,0", "--flip-speed", "sideways"),
    ]
    for argv in cases:
        code, out, err = _run(capsys, *argv, "--out", str(tmp_path))
        assert code == 1, argv
        assert out == ""
        msg = json.loads(err)
        assert set(msg) == {"error", "message"}
    assert list(tmp_path.iterdir()) == []
    # Help is not a usage error.
    code, out, err = _run(capsys, "solve", "--help")
    assert code == 0 and "--flip-speed" in out and err == ""


def test_overflowing_energy_is_a_precondition_error(tmp_path, capsys):
    # q = (u^2 + v^2)/2 overflows past about 1.3e154: the error names the
    # energy's bound, not the internal TransState it would have made.
    code, out, err = _run(capsys, "solve", "--left", "1e200,1", "--right", "0,0",
                          "--out", str(tmp_path))
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "PreconditionError", "message":
                               "energy of (u=1e+200, v=1.0) overflows: "
                               "q = (u^2 + v^2)/2 must be finite"}
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (("solve", "--left", "a,1", "--right", "0,1"), "left state must be numeric, got 'a,1'"),
    (("solve", "--left", "0,1", "--right", "1,1", "--config", "{config}"),
     "config file must hold a JSON object"),
    (("curves",), "a base state is required"),
    (("curves", "--base", "0,1", "--samples", "1"), "samples must be at least 2"),
    (("sample", "--left", "0,1", "--right", "1,1", "--x-min", "1", "--x-max", "0"),
     "sampling window must have x_max > x_min"),
])
def test_refused_inputs_print_their_json_line(tmp_path, capsys, argv, message):
    config = tmp_path / "list.json"
    config.write_text("[1, 2]")
    out_dir = tmp_path / "out"
    argv = [a.format(config=config) for a in argv]
    code, out, err = _run(capsys, *argv, "--out", str(out_dir))
    assert (code, out) == (1, "")
    assert err == json.dumps({"error": "PreconditionError", "message": message}) + "\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("window", [(), ("--x-min", "0", "--x-max", "5e-324")])
def test_fv_compare_on_large_data_stops_at_the_step_cap(tmp_path, capsys, window):
    # The CFL step shrinks like 1/|data|: at |u| = 1e6 the first step shows
    # that the run would need far more than verify._FV_MAX_STEPS steps.  On a
    # window whose cell width rounds to 0 the step is 0 and the count inf.
    start = time.perf_counter()
    code, out, err = _run(capsys, "fv-compare", "--left", "1e6,1", "--right", "-1e6,1",
                          *window, "--out", str(tmp_path))
    assert time.perf_counter() - start < 10.0
    assert (code, out) == (1, "")
    msg = json.loads(err)
    assert msg["error"] == "CflViolation"
    m = re.fullmatch(r"the CFL step (\S+) needs about (\S+) steps to reach T = 0\.5, "
                     r"over the cap of (\d+) steps", msg["message"])
    assert m and int(m[3]) == verify._FV_MAX_STEPS < float(m[2])
    assert (float(m[1]) == 0.0) == bool(window)
    assert list(tmp_path.iterdir()) == []


def test_unknown_flag_exits_1(tmp_path, capsys):
    # No ODE is integrated, so there is no --tol-ode; the middle state's
    # residual check is fixed, so there is no --tol-root.
    for flags in (("--frobnicate",), ("--tol-ode", "1e-6"), ("--tol-root", "1e-10")):
        code, out, err = _run(capsys, "solve", "--left", "1,1", "--right",
                              "0,0", *flags, "--out", str(tmp_path))
        assert code == 1, flags
        assert out == ""
        msg = json.loads(err)
        assert set(msg) == {"error", "message"}
    assert list(tmp_path.iterdir()) == []


def test_reruns_are_byte_identical(tmp_path, capsys):
    argv = ("solve", "--left", "1,3", "--right", "0.7,-3.3", "--out",
            str(tmp_path))
    assert _run(capsys, *argv)[0] == 0
    first = (tmp_path / "solution.json").read_bytes()
    assert _run(capsys, *argv)[0] == 0
    assert (tmp_path / "solution.json").read_bytes() == first


def test_env_var_out_dir(tmp_path, capsys, monkeypatch):
    target = tmp_path / "via_env"
    monkeypatch.setenv(ENV_OUT, str(target))
    code, out, _ = _run(capsys, "solve", "--left", "1,3", "--right",
                        "0.7,3.3")
    assert code == 0
    assert (target / "solution.json").exists()
    assert out.strip() == str(target / "solution.json")


def test_default_out_is_working_directory(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(ENV_OUT, raising=False)
    monkeypatch.chdir(tmp_path)
    code, out, _ = _run(capsys, "curves", "--base", "1,5", "--family", "2")
    assert code == 0
    assert (tmp_path / "sw2.csv").exists()
    assert (tmp_path / "rw2.csv").exists()


def test_negative_first_component_in_space_form(tmp_path, capsys):
    spaced, joined = tmp_path / "spaced", tmp_path / "joined"
    code, _, err = _run(capsys, "solve", "--left", "-1,2", "--right", "1,1",
                        "--out", str(spaced))
    assert code == 0 and err == ""
    code, _, _ = _run(capsys, "solve", "--left=-1,2", "--right=1,1",
                      "--out", str(joined))
    assert code == 0
    first = (spaced / "solution.json").read_bytes()
    assert (joined / "solution.json").read_bytes() == first
    assert json.loads(first)["initial"]["left"] == {"u": -1.0, "v": 2.0}

    code, out, err = _run(capsys, "curves", "--base", "-1,1", "--family", "1",
                          "--out", str(tmp_path / "curves"))
    assert code == 0 and err == ""
    rows = _read_csv(tmp_path / "curves" / "sw1.csv")
    assert float(rows[-1]["u"]) == -1.0 and float(rows[-1]["q"]) == 1.0

    # Every option that takes a value, not only the pairs.
    outputs = []
    for window in (("--x-min", "-1e-3"), ("--x-min=-1e-3",)):
        out_dir = tmp_path / f"sample{len(outputs)}"
        code, _, err = _run(capsys, "sample", "--left", "1,3", "--right", "0.7,3.3",
                            *window, "--x-max", "2", "--nx", "5", "--out", str(out_dir))
        assert code == 0 and err == ""
        outputs.append((out_dir / "samples.csv").read_bytes())
    assert outputs[0] == outputs[1]
    assert float(_read_csv(tmp_path / "sample0" / "samples.csv")[0]["x"]) == -1e-3
    # Refused by the program, not by the parser: the JSON error names the cause.
    for option, value, cause in (("--x-min", "-inf", "finite"), ("--x-max", "-1e308", "x_max > x_min")):
        code, _, err = _run(capsys, "fv-compare", "--left", "1,3", "--right", "0.7,3.3",
                            option, value, "--ladder", "8", "--out", str(tmp_path / "fv"))
        assert code == 1
        assert cause in json.loads(err)["message"]
    # A token starting with -- is the next option, not a value.
    code, _, err = _run(capsys, "solve", "--left", "--right", "1,1")
    assert code == 1 and "--left: expected one argument" in err


def _outputs(out_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


_DATA = ("--left", "1,3", "--right", "0.7,3.3")


@pytest.mark.parametrize("base, flags, cfg", [
    (("curves", "--base", "1,5", "--family", "1"), ("--samples", "17"),
     {"samples": 17}),
    (("curves", "--base", "1,5", "--samples", "9"), ("--family", "1"),
     {"family": 1}),
    (("solve", "--right", "0.7,-3.3"), ("--left", "1,3"), {"left": [1, 3]}),
    (("fv-compare",) + _DATA, ("--ladder", "128,256"), {"ladder": [128, 256]}),
    (("fv-compare",) + _DATA, ("--ladder", "64"), {"ladder": 64}),
    (("sample",) + _DATA + ("--nx", "8"), ("--x-min", "-3"), {"x_min": "-3"}),
    (("solve", "--left", "1,3", "--right", "0.7,-3.3"), ("--flip-speed", "paper"),
     {"flip_speed": "paper"}),
    (("verify",), ("--seed", "1"), {"seed": 1}),
])
def test_config_value_matches_its_flag(tmp_path, capsys, base, flags, cfg):
    flagged, configured = tmp_path / "flag", tmp_path / "config"
    job = tmp_path / "job.json"
    job.write_text(json.dumps(cfg))
    code, out, err = _run(capsys, *base, *flags, "--out", str(flagged))
    code_c, out_c, err_c = _run(capsys, *base, "--config", str(job),
                                "--out", str(configured))
    assert (code_c, err_c) == (code, err)
    assert out_c.replace(str(configured), str(flagged)) == out
    assert _outputs(configured) == _outputs(flagged) != {}


@pytest.mark.parametrize("argv, cfg", [
    (("sample",) + _DATA, {"x_min": [1]}),
    (("fv-compare",) + _DATA, {"x_min": [1]}),
    (("curves", "--base", "1,5"), {"samples": 17.9}),
    (("verify",), {"seed": 1.5}),
    (("verify", "--seed", "0"), {"arclength": "false"}),
    (("solve",) + _DATA, {"flip_speed": "sideways"}),
    (("solve",) + _DATA, {"flip_speed": True}),
    (("solve",) + _DATA, {"flip_speed": 1.5}),
    (("solve",) + _DATA, {"out": {"dir": "x"}}),
    (("solve",) + _DATA, {"tol_ode": 1e-6}),
    (("verify", "--seed", "0"), {"tol_weak": 1e-3}),
])
def test_bad_config_values_exit_1(tmp_path, capsys, argv, cfg):
    job = tmp_path / "job.json"
    job.write_text(json.dumps(cfg))
    code, out, err = _run(capsys, *argv, "--config", str(job),
                          "--out", str(tmp_path / "out"))
    assert code == 1
    assert out == ""
    msg = json.loads(err)
    assert set(msg) == {"error", "message"}
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


_CONFIG_KEYS = {
    "solve": {"left", "right", "flip_speed", "out"},
    "curves": {"base", "family", "span", "samples", "out"},
    "sample": {"left", "right", "flip_speed", "time", "x_min", "x_max",
               "nx", "out"},
    "verify": {"seed", "out"},
    "fv-compare": {"left", "right", "x_min", "x_max", "final_time", "cfl",
                   "ladder", "out"},
}


def test_apply_config_sweep_of_json_kinds(tmp_path):
    # Every key of every subcommand, one JSON value of each kind: the value
    # lands with its flag's type, or the input is refused with a typed
    # error; never a TypeError or a silent truncation.
    job = tmp_path / "job.json"
    kinds = ["-2.5", 3, 2.5, True, False, None, [1, 2], {"a": 1}]
    for subcommand, keys in _CONFIG_KEYS.items():
        options = {a.dest: a for a in cli._PARSER.parse_args(
            [subcommand]).parser._actions}
        assert keys <= set(options)
        assert set(options) - keys == {"help", "config"}
        for key in sorted(keys):
            action = options[key]
            for value in kinds:
                job.write_text(json.dumps({key: value}))
                args = cli._PARSER.parse_args([subcommand, "--config", str(job)])
                try:
                    cli._apply_config(args)
                except (BrioError, ValueError):
                    continue
                got = getattr(args, key)
                if value is None:
                    assert got is None
                elif isinstance(value, list):
                    assert key in ("left", "right", "base", "ladder")
                    assert got == "1,2"
                else:
                    assert not isinstance(value, (bool, dict)), (key, value)
                    assert type(got) is (action.type or str), (key, value)
                    assert got == (action.type or str)(str(value))


def test_parser_is_built_once(tmp_path, capsys, monkeypatch):
    def rebuilt():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "build_parser", rebuilt)
    code, _, err = _run(capsys, "solve", *_DATA, "--flip-speed", "paper",
                        "--out", str(tmp_path))
    assert code == 0 and err == ""
    # The shared parser keeps nothing from one call to the next.
    assert cli._PARSER.parse_args(["solve"]).flip_speed is None


# argparse's wording moves between Python versions; these literals are 3.11's.
_ARGPARSE_TEXT_PINNED = sys.version_info[:2] == (3, 11)
_TOP_HELP = """\
usage: briodelta [-h] {solve,curves,sample,verify,fv-compare} ...

Exact delta-shock Riemann solver for a 2x2 model system

positional arguments:
  {solve,curves,sample,verify,fv-compare}
    solve               write the delta-solution JSON
    curves              tabulate wave curves from a base state
    sample              sample the regular part on an x-grid
    verify              run the property suite
    fv-compare          finite-volume refinement table

options:
  -h, --help            show this help message and exit
"""
_SOLVE_HELP = """\
usage: briodelta solve [-h] [--left LEFT] [--right RIGHT]
                       [--flip-speed {rh,paper}] [--config CONFIG] [--out OUT]

options:
  -h, --help            show this help message and exit
  --left LEFT           left state as u,v
  --right RIGHT         right state as u,v
  --flip-speed {rh,paper}
  --config CONFIG       JSON config file; its keys override command-line
                        options (a warning is printed)
  --out OUT             output directory (default: $BRIODELTA_OUT or the
                        working directory)
"""


def _usage_error(message: str) -> tuple[int, str, str]:
    return 1, "", json.dumps({"error": "PreconditionError", "message": message}) + "\n"


@pytest.mark.parametrize("argv, expected", [
    ((), _usage_error("briodelta: the following arguments are required: subcommand")),
    (("bogus",), _usage_error(
        "briodelta: argument subcommand: invalid choice: 'bogus' "
        "(choose from 'solve', 'curves', 'sample', 'verify', 'fv-compare')")),
    (("--help",), (0, _TOP_HELP, "")),
    (("solve", "--help"), (0, _SOLVE_HELP, "")),
    (("solve", *_DATA, "extra", "more"),
     _usage_error("briodelta: unrecognized arguments: extra more")),
    (("solve", "--frob"), _usage_error("briodelta: unrecognized arguments: --frob")),
    (("solve", *_DATA, "--flip-speed", "sideways"), _usage_error(
        "briodelta solve: argument --flip-speed: invalid choice: 'sideways' "
        "(choose from 'rh', 'paper')")),
    (("solve", "--left"), _usage_error("briodelta solve: argument --left: expected one argument")),
    (("solve", "--left", "--right", "1,1"),
     _usage_error("briodelta solve: argument --left: expected one argument")),
    (("sample", *_DATA, "--x-m", "1"), _usage_error(
        "briodelta sample: ambiguous option: --x-m could match --x-min, --x-max")),
    (("verify", "--seed", "x"),
     _usage_error("briodelta verify: argument --seed: invalid int value: 'x'")),
    # An unambiguous abbreviation is not an error.
    (("solve", *_DATA, "--flip", "paper"), (0, "{out}/solution.json\n", "")),
])
def test_usage_errors_are_pinned_at_both_parser_levels(tmp_path, capsys, monkeypatch, argv,
                                                       expected):
    # main parses a subcommand's arguments with that subcommand's parser; the
    # bytes are those of the one top-level parser, which parses everything
    # once no subcommand is known to main.
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setenv(ENV_OUT, str(tmp_path))
    got = _run(capsys, *argv)
    if _ARGPARSE_TEXT_PINNED:
        code, out, err = expected
        assert got == (code, out.replace("{out}", str(tmp_path)), err)
    monkeypatch.setattr(cli, "_SUBPARSERS", {})
    assert _run(capsys, *argv) == got


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports briodelta from this source tree."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_package_imports_neither_scipy_nor_jsonschema():
    # Both are test-only dependencies: no module of the package imports them,
    # and the package depends on numpy alone.
    found = []
    for path in sorted(Path(cli.__file__).resolve().parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [(path.name, n) for n in names
                      if n.partition(".")[0] in ("scipy", "jsonschema")]
    assert found == []
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(cli.__file__).resolve().parents[2] / "pyproject.toml"
    if pyproject.is_file():
        project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
        assert [d.partition(">")[0] for d in project["dependencies"]] == ["numpy"]
        assert "jsonschema" in " ".join(project["optional-dependencies"]["test"])


def test_solve_loads_neither_scipy_nor_jsonschema(tmp_path):
    # In a fresh interpreter, importing the package and solving one problem
    # through the CLI loads no scipy module and no jsonschema module.
    script = (
        "import sys\n"
        "import briodelta, briodelta.cli\n"
        "code = briodelta.cli.main(['solve', '--left', '1,3', '--right', '0.7,-3.3',\n"
        f"                          '--out', {str(tmp_path)!r}])\n"
        "print(code, sorted(m for m in sys.modules\n"
        "                   if m.partition('.')[0] in ('scipy', 'jsonschema')))\n"
    )
    proc = _fresh_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "solution.json").is_file()


@pytest.mark.parametrize("command, steps, padded", [
    (("solve",) + _DATA, [()], ("solution.json",)),
    (("sample",) + _DATA, [("--nx", "1001"), ("--nx", "5")], ("singular.json",)),
    (("curves", "--base", "1,5"), [("--samples", "257"), ("--samples", "17")], ()),
])
def test_rewrite_over_longer_file_leaves_no_trailing_bytes(tmp_path, capsys, command,
                                                         steps, padded):
    # Outputs are rewritten in place; each must end where the new text ends.
    reused = tmp_path / "reused"
    reused.mkdir()
    for name in padded:
        (reused / name).write_bytes(b"\xff" * 5000)
    before = _outputs(reused)
    shrunk = set()
    for i, step in enumerate(steps):
        fresh = tmp_path / f"fresh{i}"
        assert _run(capsys, *command, *step, "--out", str(reused))[0] == 0
        assert _run(capsys, *command, *step, "--out", str(fresh))[0] == 0
        after = _outputs(reused)
        assert after == _outputs(fresh)
        shrunk |= {n for n in after if n in before and len(before[n]) > len(after[n])}
        before = after
    assert shrunk == set(before)


def test_failed_write_leaves_existing_file_alone(tmp_path, capsys):
    assert _run(capsys, "solve", *_DATA, "--out", str(tmp_path))[0] == 0
    path = tmp_path / "solution.json"
    kept = path.read_bytes()
    # A document json cannot encode fails before the file is opened.
    with pytest.raises(TypeError):
        cli._dump_json(str(path), {"x": object()})
    assert path.read_bytes() == kept


def test_rewrite_cuts_the_old_tail_and_creates_under_the_umask(tmp_path):
    path = tmp_path / "out.txt"
    umask = os.umask(0o027)
    try:
        cli._rewrite(str(path), "a longer first text\n")
    finally:
        os.umask(umask)
    assert path.stat().st_mode & 0o777 == 0o640
    assert path.read_bytes() == b"a longer first text\n"
    # A rewrite keeps the file's mode and ends where its text ends.
    path.chmod(0o600)
    for text in ("caf\u00e9 \U0001f600", "short", ""):
        cli._rewrite(str(path), text)
        assert path.read_bytes() == text.encode("utf-8")
    assert path.stat().st_mode & 0o777 == 0o600


def test_rewrite_of_a_directory_raises_and_writes_nothing(tmp_path):
    target = tmp_path / "solution.json"
    target.mkdir()
    with pytest.raises(IsADirectoryError):
        cli._rewrite(str(target), "{}\n")
    assert list(target.iterdir()) == []
    assert list(tmp_path.iterdir()) == [target]


def test_rewrite_writes_every_byte_of_partial_writes(tmp_path, monkeypatch):
    write, counts = os.write, []

    def partial(fd, data):
        counts.append(len(data))
        return write(fd, bytes(data[:7]))

    monkeypatch.setattr(os, "write", partial)
    path = tmp_path / "out.txt"
    path.write_bytes(b"x" * 100)
    text = "0123456789" * 5 + "\u00e9"
    cli._rewrite(str(path), text)
    assert path.read_bytes() == text.encode("utf-8")
    assert counts == list(range(52, 0, -7))


def test_rewrite_closes_its_descriptor_when_a_write_fails(tmp_path, monkeypatch):
    close, closed = os.close, []

    def failing(fd, data):
        raise OSError(28, "No space left on device")

    def recording(fd):
        closed.append(fd)
        close(fd)

    monkeypatch.setattr(os, "write", failing)
    monkeypatch.setattr(os, "close", recording)
    with pytest.raises(OSError, match="No space"):
        cli._rewrite(str(tmp_path / "out.txt"), "text")
    assert len(closed) == 1


def test_cli_prints_only_paths_and_leaks_no_file(tmp_path):
    # In a fresh interpreter that turns ResourceWarning into an error, a
    # write and a rewrite print the output path alone, and a directory at the
    # output path exits 1 with one JSON error line: no unclosed file is
    # reported at exit.
    argv = ("-W", "error::ResourceWarning", "-m", "briodelta.cli", "solve", *_DATA)
    path = tmp_path / "ok" / "solution.json"
    for _ in range(2):
        proc = _fresh_python(*argv, "--out", str(path.parent))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{path}\n", "")
    blocked = tmp_path / "blocked"
    (blocked / "solution.json").mkdir(parents=True)
    proc = _fresh_python(*argv, "--out", str(blocked))
    assert (proc.returncode, proc.stdout) == (1, "")
    line, = proc.stderr.splitlines()
    assert json.loads(line)["error"] == "IsADirectoryError"
    assert list((blocked / "solution.json").iterdir()) == []


# --- One JSON writer: byte-for-byte json.dumps(indent=2) ---------------------

def _solution_docs():
    data = [((1.0, 3.0), (0.7, -3.3)), ((1.0, 3.0), (0.7, 3.3)),
            ((0.4, -1.3), (0.4, -1.3)), ((-2.5, 1e-7), (3.0, 0.5))]
    docs = [solution_to_dict(solve_brio(RiemannData(BrioState(*l), BrioState(*r))))
            for l, r in data]
    rng = np.random.default_rng(17)
    for _ in range(40):
        ul, vl, ur, vr = rng.uniform((-2, -3, -2, -3), (3, 3, 3, 3)).tolist()
        try:
            sol = solve_brio(RiemannData(BrioState(ul, vl), BrioState(ur, vr)))
        except BrioError:
            continue
        docs.append(solution_to_dict(sol))
    return docs


def test_json_writer_matches_json_dumps_on_real_documents():
    docs = _solution_docs()
    assert len(docs) > 30
    for doc in docs:
        assert cli._solution_text(doc) == json.dumps(doc, indent=2)


def _solutions_of_every_shape() -> dict:
    """One solution per shape (region, v-flip, wave count) and flip_speed:
    regions I-IV from seeded raw draws, and degenerate fans of no wave and of
    one wave (data on the left state's own family-1 curves), each with and
    without a v-flip."""
    left = BrioState(1.0, 3.0)
    pairs = [(left, left), (BrioState(0.5, 1.0), BrioState(0.5, -1.0))]
    for u, q in ((2.0, forward_curve_1(lift(left)).q(2.0)), (0.7, shock_q_1(lift(left), 0.7))):
        v = math.sqrt(2.0 * q - u * u)
        pairs += [(left, BrioState(u, v)), (left, BrioState(u, -v))]
    rng = np.random.default_rng(31)
    pairs += [(BrioState(ul, vl), BrioState(ur, vr)) for ul, vl, ur, vr in
              rng.uniform((-2, -3, -2, -3), (3, 3, 3, 3), size=(80, 4)).tolist()]
    shapes = {}
    for l, r in pairs:
        for flip_speed in ("rh", "paper"):
            try:
                sol = solve_brio(RiemannData(l, r), flip_speed=flip_speed)
            except BrioError:
                continue
            key = (sol.region.value, l.v * r.v < 0.0, len(sol.fan.waves), flip_speed)
            shapes.setdefault(key, sol)
    regions = {(region, flip, 2) for region in ("I", "II", "III", "IV") for flip in (False, True)}
    degenerate = {("Degenerate", flip, n) for flip in (False, True) for n in (0, 1)}
    assert {key[:3] for key in shapes} >= regions | degenerate
    return shapes


def _leaf_paths(o, path=()):
    """Paths to o's float and None leaves."""
    if isinstance(o, (dict, list)):
        for key, value in (o.items() if isinstance(o, dict) else enumerate(o)):
            yield from _leaf_paths(value, path + (key,))
    elif o is None or type(o) is float:
        yield path


def test_solution_layout_matches_json_dumps_on_every_shape():
    # flip_speed None is a solution built without options; the string leaf
    # holds what json escapes (a NUL, a quote, a non-ASCII letter) and a %.
    docs = [solution_to_dict(replace(sol, options=options))
            for sol in _solutions_of_every_shape().values()
            for options in (sol.options, {}, {"flip_speed": -0.25},
                            {"flip_speed": 'a\x00"é %s %%'})]
    cli._LAYOUTS.clear()
    for doc in docs:
        assert cli._solution_text(doc) == json.dumps(doc, indent=2)
    layouts = dict(cli._LAYOUTS)
    for doc in docs:  # every shape seen: no new layout
        assert cli._solution_text(doc) == json.dumps(doc, indent=2)
    assert cli._LAYOUTS == layouts


def test_solution_layout_keeps_odd_floats_in_every_slot():
    odd_floats = (math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16)
    for sol in _solutions_of_every_shape().values():
        doc = solution_to_dict(sol)
        paths = list(_leaf_paths(doc))
        assert len(paths) >= 5
        for path in paths:
            for x in odd_floats:
                odd = copy.deepcopy(doc)
                functools.reduce(operator.getitem, path[:-1], odd)[path[-1]] = x
                assert cli._solution_text(odd) == json.dumps(odd, indent=2), (path, x)


_ODD_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-7,
               0.1, -2.5, 1.7976931348623157e308)


@pytest.mark.parametrize("seed", range(5))
def test_solution_text_matches_json_dumps_on_random_solutions(seed):
    """Data over many scales and flip_speed options, with random leaves
    swapped for odd floats, wide exponents, NumPy floats and None."""
    rng = np.random.default_rng(seed)
    docs = 0
    for _ in range(60):
        ul, vl, ur, vr = (rng.uniform(-1, 1, 4) * 10.0 ** rng.uniform(-8, 8)).tolist()
        flip_speed = ("rh", "paper")[int(rng.integers(2))]
        try:
            sol = solve_brio(RiemannData(BrioState(ul, vl), BrioState(ur, vr)),
                             flip_speed=flip_speed)
        except BrioError:
            continue
        options = (sol.options, {}, {"flip_speed": float(rng.normal())})[int(rng.integers(3))]
        doc = solution_to_dict(replace(sol, options=options))
        for path in _leaf_paths(doc):
            pick = rng.integers(6)
            if pick < 3:
                continue
            x = (_ODD_FLOATS[int(rng.integers(len(_ODD_FLOATS)))] if pick == 3 else
                 float(rng.uniform(-1, 1) * 10.0 ** rng.integers(-320, 309)) if pick == 4 else
                 np.float64(rng.normal()))
            functools.reduce(operator.getitem, path[:-1], doc)[path[-1]] = x
        assert cli._solution_text(doc) == json.dumps(doc, indent=2)
        docs += 1
    assert docs >= 30


@pytest.mark.parametrize("leaf", [
    object(), np.int64(3), {1, 2}, b"bytes", 1j, np.bool_(True), np.array([0.5]),
])
def test_solution_text_refuses_what_json_dumps_refuses(leaf):
    """A leaf json cannot write raises TypeError in every slot, as in
    json.dumps, rather than landing in the text as its str()."""
    doc = solution_to_dict(solve_brio(RiemannData(BrioState(1.0, 3.0), BrioState(0.7, -3.3))))
    for path in _leaf_paths(doc):
        bad = copy.deepcopy(doc)
        functools.reduce(operator.getitem, path[:-1], bad)[path[-1]] = leaf
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2)
        with pytest.raises(TypeError):
            cli._solution_text(bad)


def _csv_oracle(text: str) -> str:
    """The CSV as csv.writer writes its parsed rows, values as %.17g."""
    header, *rows = csv.reader(io.StringIO(text, newline=""))
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(["%.17g" % float(x) for x in row] for row in rows)
    return out.getvalue()


@pytest.mark.parametrize("argv", [
    ("solve", *_DATA),
    ("solve", "--left", "1,3", "--right", "0.7,-3.3"),
    ("curves", "--base", "1,5", "--samples", "33"),
    ("curves", "--base", "0.7,7", "--family", "inverse", "--samples", "9"),
    ("sample", "--left", "1,3", "--right", "0.7,-3.3", "--nx", "101"),
    ("verify", "--seed", "0"),
    ("verify", "--seed", "1"),
    ("fv-compare", *_DATA, "--ladder", "32,64"),
])
def test_every_output_matches_the_stdlib_writers(tmp_path, capsys, argv):
    assert _run(capsys, *argv, "--out", str(tmp_path))[0] == 0
    outputs = _outputs(tmp_path)
    assert outputs
    for name, data in outputs.items():
        text = data.decode("ascii")
        if name.endswith(".json"):
            assert json.dumps(json.loads(text), indent=2) + "\n" == text, name
        else:
            assert name.endswith(".csv")
            assert _csv_oracle(text) == text, name


def test_csv_writer_keeps_odd_floats(tmp_path):
    path = tmp_path / "odd.csv"
    rows = [(math.nan, math.inf, -math.inf), (-0.0, 5e-324, 1e16), (1e-7, 0.1, -2.5)]
    cli._write_csv(str(path), ("a", "b", "c"), rows)
    text = path.read_bytes().decode("ascii")
    assert text == _csv_oracle(text)
    assert text.splitlines()[1:3] == ["nan,inf,-inf", "-0,4.9406564584124654e-324,10000000000000000"]
    cli._write_csv(str(path), ("a", "b", "c"), np.empty((0, 3)))
    assert path.read_bytes() == b"a,b,c\r\n"


# --- Output directory ---------------------------------------------------------

def test_existing_out_dir_is_not_created_again(tmp_path, capsys, monkeypatch):
    def makedirs(*args, **kwargs):
        raise AssertionError("makedirs called on an existing directory")

    monkeypatch.setattr(os, "makedirs", makedirs)
    code, out, err = _run(capsys, "solve", *_DATA, "--out", str(tmp_path))
    assert (code, err) == (0, "")
    assert out == f"{tmp_path / 'solution.json'}\n"


def test_missing_nested_out_dir_is_created(tmp_path, capsys, monkeypatch):
    flagged = tmp_path / "a" / "b" / "c"
    assert _run(capsys, "solve", *_DATA, "--out", str(flagged))[0] == 0
    assert (flagged / "solution.json").is_file()
    from_env = tmp_path / "d" / "e"
    monkeypatch.setenv(ENV_OUT, str(from_env))
    assert _run(capsys, "curves", "--base", "1,5", "--family", "1",
                "--samples", "5")[0] == 0
    assert sorted(p.name for p in from_env.iterdir()) == ["rw1.csv", "sw1.csv"]


def test_regular_file_at_out_path_exits_1(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_bytes(b"keep")
    with pytest.raises(FileExistsError) as expected:
        os.makedirs(str(blocker), exist_ok=True)
    code, out, err = _run(capsys, "solve", *_DATA, "--out", str(blocker))
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "FileExistsError", "message": str(expected.value)}
    assert blocker.read_bytes() == b"keep"
    assert [p.name for p in tmp_path.iterdir()] == ["blocker"]
