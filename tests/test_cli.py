import contextlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from conecert import cli, hypotheses
from conecert.cli import _write_solution_csv, dumps_canonical, main
from conecert.conespace import GridFunction
from conecert.expr import eval_values
from conecert.kernels import make_rule
from conftest import (closing_problem_config, closing_rcd_config,
                      hybrid_config, nine_config, write_config)

TOP_LEVEL_KEYS = {"config_echo", "verdicts", "promised", "solutions", "rcd",
                  "timings"}


def read_report(tmp_path, name="report.json"):
    return json.loads((tmp_path / name).read_text())


# ---------------------------------------------------------------------------
# canonical JSON

def test_dumps_canonical_shapes():
    obj = {"b": [1, 2.5, None, True], "a": {"y": "text", "x": 0.1}}
    assert dumps_canonical(obj) == \
        '{"a":{"x":0.10000000000000001,"y":"text"},"b":[1,2.5,null,true]}'


def test_dumps_canonical_float_digits():
    assert dumps_canonical(1 / 3) == "0.33333333333333331"
    assert dumps_canonical(5.5) == "5.5"
    assert json.loads(dumps_canonical(1 / 3)) == 1 / 3


def test_dumps_canonical_rejects_nonfinite():
    with pytest.raises(ValueError):
        dumps_canonical(float("inf"))


# ---------------------------------------------------------------------------
# malformed configs

MALFORMED = [
    ("verify", nine_config, ("checker",), 5),
    ("verify", nine_config, ("checker",), {"budget": "abc"}),
    ("verify", nine_config, ("checker",), {"budget": True}),
    ("verify", nine_config, ("checker",), {"depth": 2.5}),
    ("solve", nine_config, ("solver",), []),
    # a key the solver block does not take, whatever its value
    ("solve", nine_config, ("solver",), {"dedupe": -1.0}),
    ("solve", nine_config, ("solver",), {"dedupe": 0}),
    ("solve", nine_config, ("solver",), {"damping": -1.0}),
    ("solve", nine_config, ("solver",), {"newton_tol": 0}),
    ("solve", nine_config, ("solver",), {"grid_n": 129.5}),
    ("verify", nine_config, ("output",), "x"),
    ("solve", nine_config, ("output",), {"csv_dir": 5}),
    ("verify", nine_config, ("problem",), 5),
    ("verify", nine_config, ("problem", "region", "d"), "a"),
    ("verify", hybrid_config, ("problem", "region", "annulus"), [2.0, "5"]),
    ("verify", closing_problem_config, ("problem", "kernel1", "beta"), "1"),
    ("rcd", closing_rcd_config, ("rcd",), 5),
    ("rcd", closing_rcd_config, ("rcd", "m1"), "x"),
    ("rcd", closing_rcd_config, ("rcd", "m2"), float("inf")),
    # mode rules: thm53 takes the RCD kernel on both components, and an
    # annulus belongs to hybrid mode only
    ("verify", closing_problem_config, ("problem", "kernel2"),
     "dirichlet_neumann"),
    ("solve", closing_problem_config, ("problem", "kernel2"),
     "dirichlet_neumann"),
    ("verify", nine_config, ("problem", "region", "annulus"), [2.0, 5.0]),
    ("solve", nine_config, ("problem", "region", "annulus"), [2.0, 5.0]),
    # remark52 is a JSON boolean (or null) and means something in thm53 only
    ("verify", nine_config, ("problem", "remark52"), True),
    ("solve", nine_config, ("problem", "remark52"), True),
    ("verify", closing_problem_config, ("problem", "remark52"), "false"),
]


@pytest.mark.parametrize("command,make,keys,value", MALFORMED,
                         ids=[f"{c}-{'.'.join(k)}={v!r}"
                              for c, _, k, v in MALFORMED])
def test_malformed_config_is_exit_3(tmp_path, capsys, command, make, keys,
                                    value):
    cfg = make()
    target = cfg
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    path = write_config(tmp_path, cfg)
    assert main([command, path, "--out", str(tmp_path)]) == 3
    assert "config error:" in capsys.readouterr().err


_DELETE = object()


def _edited(make, keys, value=_DELETE):
    """make's config with the entry at the key path set to value, or
    deleted when no value is given."""
    def build():
        cfg = make()
        target = cfg
        for key in keys[:-1]:
            target = target[key]
        if value is _DELETE:
            del target[keys[-1]]
        else:
            target[keys[-1]] = value
        return cfg
    return build


CONFIG_ERRORS = [
    ("verify", _edited(nine_config, ("problem", "region", "d"), [0.5, 0.5, 0.5]),
     "region.d must be a number or a pair"),
    ("rcd", _edited(closing_rcd_config, ("rcd", "m1")),
     "rcd config is missing 'm1'"),
    ("verify", _edited(nine_config, ("problem", "kernel1"), 5),
     "kernel1 must be a kernel object with a 'kind'"),
    ("verify", _edited(nine_config, ("problem", "kernel2"), {"beta": 1.0}),
     "kernel2 must be a kernel object with a 'kind'"),
    ("verify", _edited(closing_problem_config, ("problem", "kernel1"),
                       {"kind": "rcd"}),
     "kernel1: rcd kernel requires 'beta'"),
    ("solve", _edited(nine_config, ("problem", "kernel1"), "green"),
     "kernel1: unknown kernel kind 'green'"),
    ("verify", _edited(nine_config, ("problem", "f1"), "x1 +"),
     "bad nonlinearity expression: at position 4: unexpected end of input"),
    ("verify", _edited(nine_config, ("problem", "region"), 5),
     "region must be an object"),
    ("verify", _edited(nine_config, ("problem", "region", "d")),
     "region config is missing 'd'"),
    ("verify", _edited(nine_config, ("problem", "region", "a")),
     "region config is missing 'a'"),
    ("solve", _edited(nine_config, ("problem", "region", "c")),
     "region config is missing 'c'"),
    ("verify", _edited(nine_config, ("problem", "region", "b"), 1.0),
     "component 1: need a < b, got a=1.0, b=1.0"),
    ("verify", _edited(nine_config, ("problem",)),
     "config is missing the 'problem' block"),
    ("solve", _edited(nine_config, ("problem",)),
     "config is missing the 'problem' block"),
    ("verify", lambda: [nine_config()], "config root must be a JSON object"),
]


@pytest.mark.parametrize("command,make,message", CONFIG_ERRORS,
                         ids=[f"{c}-{m}" for c, _, m in CONFIG_ERRORS])
def test_config_error_names_the_fault(tmp_path, capsys, command, make, message):
    path = write_config(tmp_path, make())
    assert main([command, path, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,make,block,key", [
    ("verify", nine_config, "checker", "budgte"),
    ("solve", nine_config, "solver", "grid"),
    # the Newton budget, the dedupe distance and the nontriviality
    # threshold are solver constants, not keys
    ("solve", nine_config, "solver", "max_newton"),
    ("solve", nine_config, "solver", "dedupe"),
    ("solve", nine_config, "solver", "nontrivial_eps"),
    ("rcd", closing_rcd_config, "rcd", "m3"),
    # every config object takes only its own keys, the root included
    pytest.param("verify", nine_config, "", "chekcer",
                 id="verify-nine_config-root-chekcer"),
    pytest.param("rcd", closing_rcd_config, "", "problme",
                 id="rcd-closing_rcd_config-root-problme"),
    ("verify", nine_config, "problem", "remark_52"),
    ("solve", nine_config, "problem.region", "bb"),
    # beta belongs to the rcd kernel only
    ("verify", nine_config, "problem.kernel1", "beta"),
    ("solve", closing_problem_config, "problem.kernel2", "gamma"),
    ("solve", nine_config, "output", "csv"),
    ("rcd", closing_rcd_config, "output", "reprot"),
])
def test_unknown_block_key_is_exit_3(tmp_path, capsys, command, make, block,
                                     key):
    cfg = make()
    parent, target = None, cfg
    for name in filter(None, block.split(".")):
        parent, target = target, target.get(name, {})
        if isinstance(target, str):  # a kernel given by its kind alone
            target = {"kind": target}
        parent[name] = target
    target[key] = "2"  # a string, so that it fits the output block too
    path = write_config(tmp_path, cfg)
    assert main([command, path, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "config error:" in err and key in err


def test_readme_config_block_matches_the_reader():
    # the README's documented config takes exactly the keys the reader
    # accepts in every object, and shows the reader's defaults
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("```jsonc\n", 1)[1].split("\n```", 1)[0]
    doc = json.loads(re.sub(r"//.*", "", block))
    assert set(doc) == set(cli._ROOT_KEYS)
    assert set(doc["problem"]) == set(cli._PROBLEM_KEYS)
    assert set(doc["problem"]["region"]) == set(cli._REGION_KEYS)
    assert set(doc["rcd"]) == set(cli._rcd_keys())
    assert doc["checker"] == cli._checker_defaults()
    assert doc["solver"] == cli._solver_defaults()
    assert doc["output"] == cli._OUTPUT_DEFAULTS


def test_null_output_is_default(tmp_path):
    cfg = nine_config()
    (tmp_path / "default").mkdir()
    (tmp_path / "null").mkdir()
    assert main(["verify", write_config(tmp_path, cfg), "--out",
                 str(tmp_path / "default")]) == 0
    cfg["output"] = None
    assert main(["verify", write_config(tmp_path, cfg), "--out",
                 str(tmp_path / "null")]) == 0
    assert (tmp_path / "default" / "report.json").read_bytes() == \
        (tmp_path / "null" / "report.json").read_bytes()


FLOORS = [
    ("solve", nine_config, "solver", "grid_n", 1),
    # an even count passes the parity check when no window starts at 1/2
    ("solve", closing_problem_config, "solver", "grid_n", 2),
    ("verify", nine_config, "checker", "oracle_n", 1),
]


@pytest.mark.parametrize("command,make,block,key,value", FLOORS,
                         ids=[f"{c} {b}.{k}={v}" for c, _, b, k, v in FLOORS])
def test_size_floor_is_exit_3(tmp_path, capsys, command, make, block, key,
                              value):
    path = write_config(tmp_path, make() | {block: {key: value}})
    assert main([command, path, "--out", str(tmp_path)]) == 3
    assert "must be at least" in capsys.readouterr().err


@pytest.mark.parametrize("make,message", [
    pytest.param(_edited(nine_config, ("problem", "region", "c"), 1e308),
                 "thm52.a1: the bound overflows to inf", id="nine-2c"),
    pytest.param(_edited(hybrid_config, ("problem", "region", "annulus"),
                         [2.0, 1e308]),
                 "thm51.e: the bound overflows to inf", id="hybrid-8R/3"),
    pytest.param(_edited(closing_problem_config,
                         ("problem", "kernel1", "beta"), 1e-300),
                 "component 1: a*exp(1/beta) with beta=1e-300 overflows to inf",
                 id="thm53-exp"),
    pytest.param(_edited(closing_problem_config, ("problem", "region", "c"),
                         [1.7976931348623157e308, 30.0]),
                 "component 1: c*(1 + 1e-12) overflows to inf",
                 id="thm53-remark52-slack"),
])
def test_theorem_bound_overflow_is_exit_3(tmp_path, capsys, make, message):
    # a bound or ordering term that overflows is a config error, not a
    # traceback from math.exp or from the report writer
    path = write_config(tmp_path, make())
    assert main(["verify", path, "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def _exit_status(argv):
    """main's exit status, returned or raised by an argparse exit."""
    try:
        return main(argv)
    except SystemExit as stop:
        return stop.code


# every failure that is not a verdict exits 3, never 1 by a traceback;
# the sizes are ones numpy refuses at once, without allocating
NOT_A_VERDICT = [
    pytest.param(["solve", "{config}", "--out", "{out}"],
                 lambda: closing_problem_config() | {"solver": {"grid_n": 1e300}},
                 "config error: grid_n = 1e+300 is too large",
                 id="grid_n"),
    pytest.param(["verify", "{config}", "--out", "{out}"],
                 lambda: nine_config() | {"checker": {"oracle_n": 1e300}},
                 "config error: oracle_n = 1e+300 is too large",
                 id="oracle_n"),
    pytest.param(["verify", "{config}", "--out", "{file}"], nine_config,
                 "output error: [Errno 17] File exists", id="out-is-a-file"),
    pytest.param(["verify", "{config}", "--out", "{out}"],
                 lambda: nine_config(report=""),
                 "config error: output.report must not be empty",
                 id="empty-report-name"),
    pytest.param(["check", "{config}", "--out", "{out}"], nine_config,
                 "argument command: invalid choice: 'check'",
                 id="unknown-command"),
    pytest.param(["verify"], nine_config,
                 "the following arguments are required: config",
                 id="missing-config"),
]


@pytest.mark.parametrize("argv,make,message", NOT_A_VERDICT)
def test_failure_that_is_not_a_verdict_is_exit_3(tmp_path, capsys, argv,
                                                 make, message):
    (tmp_path / "file").write_text("")
    names = {"config": write_config(tmp_path, make()),
             "out": str(tmp_path / "out"), "file": str(tmp_path / "file")}
    assert _exit_status([arg.format(**names) for arg in argv]) == 3
    lines = capsys.readouterr().err.splitlines()
    # one line, after argparse's usage line for a usage error
    assert message in lines[-1]
    assert len(lines) == 1 or lines[0].startswith("usage:")
    assert not (tmp_path / "out").exists()
    assert (tmp_path / "file").read_text() == ""


def test_oracle_arena_that_cannot_be_allocated_is_exit_3(tmp_path, capsys,
                                                          monkeypatch):
    # the lattice's arena is allocated inside eval_values, under
    # grid_oracle's handler for a lattice too large for memory
    empty = np.empty

    def refusing(shape, *args, **kwargs):
        if len(shape) == 3 and tuple(shape[1:]) == (201, 201):
            raise MemoryError(f"cannot allocate {shape}")
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", refusing)
    path = write_config(tmp_path, nine_config())
    assert main(["verify", path, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: oracle_n = 201 is too large: cannot allocate")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_solve_null_solver_key_is_default(tmp_path):
    cfg = nine_config()
    (tmp_path / "default").mkdir()
    (tmp_path / "null").mkdir()
    assert main(["solve", write_config(tmp_path, cfg), "--out",
                 str(tmp_path / "default")]) == 0
    cfg["solver"] = {"grid_n": None, "picard_steps": None}
    assert main(["solve", write_config(tmp_path, cfg), "--out",
                 str(tmp_path / "null")]) == 0
    assert (tmp_path / "default" / "report.json").read_bytes() == \
        (tmp_path / "null" / "report.json").read_bytes()
    assert len(read_report(tmp_path / "null")["solutions"]) == 9


# ---------------------------------------------------------------------------
# verify

def test_verify_nine_example(tmp_path):
    path = write_config(tmp_path, nine_config())
    assert main(["verify", path, "--out", str(tmp_path)]) == 0
    report = read_report(tmp_path)
    assert set(report) == TOP_LEVEL_KEYS
    assert report["promised"]["solutions"] == 9
    assert report["promised"]["coexistence"] == 4
    assert len(report["verdicts"]) == 6
    assert all(v["status"] == "Pass" for v in report["verdicts"])
    assert all(v["oracle"]["agrees"] is True for v in report["verdicts"])
    assert report["solutions"] is None and report["rcd"] is None


def test_verify_hybrid_example_fails_condition_e(tmp_path):
    path = write_config(tmp_path, hybrid_config())
    assert main(["verify", path, "--out", str(tmp_path)]) == 1
    report = read_report(tmp_path)
    statuses = {v["condition_id"]: v["status"] for v in report["verdicts"]}
    assert statuses["thm51.e"] == "Fail"
    assert statuses["thm51.a"] == "Pass"
    witness = next(v["witness"] for v in report["verdicts"]
                   if v["condition_id"] == "thm51.e")
    assert witness["x1"] == 0.0 and witness["x2"] == 2.5
    assert report["promised"] is None


def test_verify_missing_f1_is_config_error(tmp_path, capsys):
    cfg = nine_config()
    del cfg["problem"]["f1"]
    path = write_config(tmp_path, cfg)
    assert main(["verify", path, "--out", str(tmp_path)]) == 3
    assert "f1" in capsys.readouterr().err


def test_verify_unreadable_path(tmp_path):
    assert main(["verify", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path)]) == 3


def test_verify_invalid_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", str(bad), "--out", str(tmp_path)]) == 3


def test_verify_ordering_violation(tmp_path):
    cfg = nine_config()
    cfg["problem"]["region"]["d"] = 2.0  # d >= a
    path = write_config(tmp_path, cfg)
    assert main(["verify", path, "--out", str(tmp_path)]) == 3


def test_verify_evaluation_error_is_config_exit(tmp_path, capsys):
    cfg = nine_config()
    cfg["problem"]["f1"] = "1/x1"  # ambient box contains x1 = 0
    path = write_config(tmp_path, cfg)
    assert main(["verify", path, "--out", str(tmp_path)]) == 3
    assert "evaluation error" in capsys.readouterr().err


def test_verify_interval_domain_error_splits_to_pass(tmp_path):
    # the divisor x1 - x1 + 1 is 1, but its enclosure contains 0 on boxes
    # of x1 width >= 1: those boxes are split instead of ending the run
    cfg = nine_config()
    cfg["problem"]["f1"] = \
        "4.5 + 5*phi(x1)*psi(x2) - 4*capphi(x1)/(x1 - x1 + 1)"
    path = write_config(tmp_path, cfg)
    assert main(["verify", path, "--out", str(tmp_path)]) == 0
    report = read_report(tmp_path)
    assert all(v["status"] == "Pass" for v in report["verdicts"])
    assert report["verdicts"][0]["boxes_explored"] > 1


def test_verify_point_domain_error_is_exit_3(tmp_path, capsys):
    cfg = nine_config()
    cfg["problem"]["f1"] = "1/(x1 - 2.5)"  # the ambient box's midpoint
    path = write_config(tmp_path, cfg)
    assert main(["verify", path, "--out", str(tmp_path)]) == 3
    assert ("divide by zero encountered in divide at the midpoint"
            in capsys.readouterr().err)


def test_verify_nonnatural_exponent_is_exit_3(tmp_path, capsys):
    cfg = nine_config()
    cfg["problem"]["f1"] = "4.5 + 5*phi(x1)*psi(x2) - 4*capphi(x1) + x1^1.5"
    path = write_config(tmp_path, cfg)
    assert main(["verify", path, "--out", str(tmp_path)]) == 3
    assert "constant natural exponent" in capsys.readouterr().err


@pytest.mark.parametrize("term", [
    " + 0*x1^1000",         # math.pow overflows
    " + 0*exp(200*x1)",     # math.exp overflows
    " + 0*cos(1e999)",      # a literal inf does not parse
    " + cos(x1*1e308*10)",  # the argument overflows to inf at the midpoint
    " + 0*(x1*1e308*10 - x1*1e308*10)",  # inf - inf, then 0 * inf
], ids=["pow", "exp", "cos-inf", "cos-overflow", "nan"])
@pytest.mark.filterwarnings("error")
def test_verify_power_overflow_is_exit_3(tmp_path, capsys, term):
    # an enclosure that leaves its domain (an overflow, a trig argument with
    # no finite value, a NaN endpoint) only splits its box; the same failure
    # at a midpoint is a point domain error, reported on one line with no
    # numpy warning ahead of it (any warning fails the test)
    cfg = nine_config()
    cfg["problem"]["f1"] += term
    path = write_config(tmp_path, cfg)
    assert main(["verify", path, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    if "1e999" in term:
        assert err[0].startswith("config error: bad nonlinearity expression:")
    else:
        assert err[0].startswith("evaluation error:")
        assert "at the midpoint" in err[0]


@pytest.mark.parametrize("f1, where", [
    ("1e308*x1*x1", "at position 5: overflow encountered in multiply "
                    "at the midpoint (2.5, 2.5) of sub-box"),
    # the root midpoint is a finite Fail; the lattice overflows further out
    ("11 + 1e307*x1*x1*x1/125", "at position 16: overflow encountered in "
                                "multiply at the lattice point (2.625, 0.0)"),
], ids=["midpoint", "lattice"])
def test_verify_overflow_to_inf_is_exit_3(tmp_path, capsys, f1, where):
    # the float table raises at the operation that overflows, so an
    # infinite value is an evaluation error at that node, not a sup of inf
    # in the report
    cfg = nine_config()
    cfg["problem"]["f1"] = f1
    path = write_config(tmp_path, cfg)
    assert main(["verify", path, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("evaluation error: at position ")
    assert where in err[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("term, where", [
    (" + 0*(1/x1)", "at position 45: divide by zero encountered in divide at "
                    "the lattice point (0.0, 0.0)"),
    (" + 0*ln(x1)", "at position 43: divide by zero encountered in log at "
                    "the lattice point (0.0, 0.0)"),
], ids=["division", "log"])
def test_verify_lattice_failure_names_its_point(tmp_path, capsys, term, where):
    # no midpoint of branch and bound hits a failing point, so a1 ends
    # Unknown on its small budget; the oracle lattice hits them and names
    # the first in row-major order
    cfg = nine_config()
    cfg["problem"]["f1"] += term
    cfg["checker"] = {"budget": 100, "depth": 40}
    path = write_config(tmp_path, cfg)
    assert main(["verify", path, "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"evaluation error: {where}\n"


def test_verify_evaluates_one_lattice_per_condition(tmp_path, monkeypatch):
    # the Fail's canonical witness comes from the oracle lattice itself, so
    # hybrid's five conditions cost five lattices, not six
    points = []

    def counting(expr, x1, x2):
        points.append(np.broadcast(x1, x2).size)
        return eval_values(expr, x1, x2)

    monkeypatch.setattr(hypotheses, "eval_values", counting)
    path = write_config(tmp_path, hybrid_config())
    assert main(["verify", path, "--out", str(tmp_path)]) == 1
    assert points == [201 ** 2] * 5


def test_verify_budget_exhaustion_is_inconclusive(tmp_path):
    # the x2 - x2 term makes the enclosure over-wide until the box is split
    # fine enough, so a two-box budget cannot settle any condition
    cfg = nine_config()
    cfg["problem"]["f1"] = "4.5 + 5*phi(x1)*psi(x2) - 4*capphi(x1) + (x2 - x2)"
    cfg["checker"] = {"budget": 2, "depth": 40}
    path = write_config(tmp_path, cfg)
    assert main(["verify", path, "--out", str(tmp_path)]) == 2
    report = read_report(tmp_path)
    assert any(v["status"] == "Unknown" for v in report["verdicts"])
    assert report["promised"] is None


def test_verify_determinism_byte_identical(tmp_path):
    cfg = nine_config()
    path = write_config(tmp_path, cfg)
    (tmp_path / "run1").mkdir()
    (tmp_path / "run2").mkdir()
    assert main(["verify", path, "--out", str(tmp_path / "run1")]) == 0
    assert main(["verify", path, "--out", str(tmp_path / "run2")]) == 0
    first = (tmp_path / "run1" / "report.json").read_bytes()
    second = (tmp_path / "run2" / "report.json").read_bytes()
    assert first == second


def test_verify_report_roundtrips(tmp_path):
    path = write_config(tmp_path, nine_config())
    main(["verify", path, "--out", str(tmp_path)])
    raw = (tmp_path / "report.json").read_text()
    parsed = json.loads(raw)
    assert dumps_canonical(parsed) + "\n" == raw


def test_verify_closing_rcd_system(tmp_path):
    path = write_config(tmp_path, closing_problem_config())
    assert main(["verify", path, "--out", str(tmp_path)]) == 0
    report = read_report(tmp_path)
    assert report["config_echo"]["theorem_id"] == "thm53_remark52"
    assert report["promised"]["solutions"] == 4


def test_verify_oracle_n_flag(tmp_path, capsys):
    # the lattice size is the config key checker.oracle_n; the flag is gone
    path = write_config(tmp_path, nine_config() | {"checker": {"oracle_n": 51}})
    argv = ["verify", path, "--out", str(tmp_path)]
    assert _exit_status(argv + ["--oracle-n", "51"]) == 3
    assert "unrecognized arguments: --oracle-n 51" in capsys.readouterr().err
    assert main(argv) == 0
    report = read_report(tmp_path)
    assert all(v["oracle"]["n"] == 51 for v in report["verdicts"])


# ---------------------------------------------------------------------------
# solve

def test_solve_nine_example(tmp_path):
    path = write_config(tmp_path, nine_config())
    assert main(["solve", path, "--out", str(tmp_path)]) == 0
    report = read_report(tmp_path)
    sols = report["solutions"]
    assert len(sols) >= 3
    for entry in sols:
        assert entry["residual"] <= 1e-8
        assert entry["nontrivial"] == [True, True]
        csv_path = tmp_path / "solutions" / entry["csv"]
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "t,u1,u2"
        assert len(lines) == 1 + 129


def test_solve_zero_nonlinearity(tmp_path):
    cfg = nine_config()
    cfg["problem"]["f1"] = "0"
    cfg["problem"]["f2"] = "0"
    path = write_config(tmp_path, cfg)
    assert main(["solve", path, "--out", str(tmp_path)]) == 0
    report = read_report(tmp_path)
    assert len(report["solutions"]) == 1


def test_solve_seed_list(tmp_path):
    path = write_config(tmp_path, nine_config())
    assert main(["solve", path, "--out", str(tmp_path),
                 "--seed-list", "S-S,B-B"]) == 0
    report = read_report(tmp_path)
    assert {e["seed_id"] for e in report["solutions"]} == {"S-S", "B-B"}
    assert report["config_echo"]["seed_list"] == ["B-B", "S-S"]


def test_unknown_seed_ids_are_shown_quoted(tmp_path, capsys):
    # a trailing comma gives an empty id, which must show in the message
    path = write_config(tmp_path, nine_config())
    assert main(["solve", path, "--out", str(tmp_path / "out"),
                 "--seed-list", "S-S,"]) == 3
    assert capsys.readouterr().err == "config error: unknown seed ids: ''\n"
    assert main(["solve", path, "--out", str(tmp_path / "out"),
                 "--seed-list", "X-Y,S-S,A"]) == 3
    assert capsys.readouterr().err == \
        "config error: unknown seed ids: 'A', 'X-Y'\n"


def test_a_second_call_does_not_inherit_the_first_calls_seed_list(tmp_path):
    # main builds one parser per process and parses each call afresh
    path = write_config(tmp_path, nine_config() | {"solver": {"grid_n": 65}})
    assert main(["solve", path, "--out", str(tmp_path / "a"),
                 "--seed-list", "S-S"]) == 0
    assert main(["solve", path, "--out", str(tmp_path / "b")]) == 0
    assert cli._parser() is cli._parser()
    assert read_report(tmp_path / "a")["config_echo"]["seed_list"] == ["S-S"]
    report = read_report(tmp_path / "b")
    assert report["config_echo"]["seed_list"] is None
    assert len(report["solutions"]) > 1


def test_a_usage_error_after_a_run_goes_to_the_current_stderr(tmp_path,
                                                               capsys):
    # the reused parser writes its usage to sys.stderr as it is at the call
    path = write_config(tmp_path, closing_rcd_config())
    assert main(["rcd", path, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert _exit_status(["rcd"]) == 3
    assert err.getvalue().startswith("usage: conecert rcd")
    assert "the following arguments are required: config" in err.getvalue()
    assert capsys.readouterr().err == ""


def test_solve_grid_n_flag(tmp_path, capsys):
    # the grid size is the config key solver.grid_n; the flag is gone
    path = write_config(tmp_path, nine_config() | {"solver": {"grid_n": 65}})
    argv = ["solve", path, "--out", str(tmp_path), "--seed-list", "S-S"]
    assert _exit_status(argv + ["--grid-n", "65"]) == 3
    assert "unrecognized arguments: --grid-n 65" in capsys.readouterr().err
    assert main(argv) == 0
    report = read_report(tmp_path)
    entry = report["solutions"][0]
    lines = (tmp_path / "solutions" / entry["csv"]).read_text().strip().splitlines()
    assert len(lines) == 1 + 65


def test_solve_unreadable(tmp_path):
    assert main(["solve", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 3


def test_solve_determinism_byte_identical(tmp_path):
    path = write_config(tmp_path, nine_config())
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert main(["solve", path, "--out", str(tmp_path / "a")]) == 0
    assert main(["solve", path, "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "report.json").read_bytes() == \
        (tmp_path / "b" / "report.json").read_bytes()
    for csv in sorted((tmp_path / "a" / "solutions").iterdir()):
        twin = tmp_path / "b" / "solutions" / csv.name
        assert csv.read_bytes() == twin.read_bytes()


def test_solution_csv_bytes_match_a_per_row_format(tmp_path):
    # the one-%-format writer gives the bytes of f"{x:.17g}" row by row,
    # on signed zero, the smallest subnormal, the largest double and values
    # that need all 17 digits
    rule = make_rule(9)
    u1 = np.array([-0.0, 5e-324, 1.7976931348623157e308, 0.1 + 0.2, 1 / 3,
                   2.0 / 3.0, 1e-300, 123456789.01234567, 0.0])
    u2 = -u1[::-1] / math.pi

    class Sol:
        pass

    sol = Sol()
    sol.u1, sol.u2 = GridFunction(rule, u1), GridFunction(rule, u2)
    nodes = [f"{t:.17g}" for t in rule.nodes.tolist()]
    _write_solution_csv(sol, nodes, tmp_path / "got.csv")
    lines = ["t,u1,u2"] + [f"{t:.17g},{a:.17g},{b:.17g}" for t, a, b
                           in zip(rule.nodes.tolist(), u1.tolist(), u2.tolist())]
    assert (tmp_path / "got.csv").read_bytes() == \
        ("\n".join(lines) + "\n").encode("utf-8")


def test_solve_without_a_solution_makes_no_csv_directory(tmp_path):
    # f grows without bound, so no seed converges (each line search fails);
    # the CSV directory is made once per solve, and only for a solution
    cfg = nine_config()
    cfg["problem"].update(f1="exp(x1) + exp(x2)", f2="exp(x1) + exp(x2)")
    assert main(["solve", write_config(tmp_path, cfg), "--out",
                 str(tmp_path / "out")]) == 0
    assert read_report(tmp_path / "out")["solutions"] == []
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == \
        ["report.json"]


# ---------------------------------------------------------------------------
# rcd

def test_rcd_closing_example(tmp_path):
    path = write_config(tmp_path, closing_rcd_config())
    assert main(["rcd", path, "--out", str(tmp_path)]) == 0
    report = read_report(tmp_path, "rcd_report.json")
    assert all(v["status"] == "Pass" for v in report["verdicts"])
    section = report["rcd"]
    assert section["m1_range"][0] < 3.0 < section["m1_range"][1]
    assert section["m2_range"][0] < 1.0 < section["m2_range"][1]
    assert 4.9 < section["z0_bracket"][0] <= section["z0_bracket"][1] < 5.0
    ids = [v["condition_id"] for v in report["verdicts"]]
    assert "ineq_5_11" in ids and "ineq_5_16" in ids


def test_rcd_domain_error_exit_3(tmp_path):
    path = write_config(tmp_path, closing_rcd_config() | {
        "rcd": dict(closing_rcd_config()["rcd"], k1=4.0)})
    assert main(["rcd", path, "--out", str(tmp_path)]) == 3


@pytest.mark.parametrize("values, message", [
    ({"beta1": 1e-3}, "beta1=0.001 is too small: exp(1/beta1) overflows"),
    ({"k1": 1e200, "r1": 1e200}, "k1=1e+200 is too large: k1*(k1 - 4) overflows"),
    ({"k2": 1000.0, "r2": 1000.0},
     "k2=1000.0 is too large: exp(k2/(1 + s(k2))) overflows"),
], ids=["beta1", "k1", "k2"])
def test_rcd_overflow_is_exit_3(tmp_path, capsys, values, message):
    cfg = closing_rcd_config()
    cfg["rcd"].update(values)
    path = write_config(tmp_path, cfg)
    assert main(["rcd", path, "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_rcd_m_out_of_range_exit_1(tmp_path, capsys):
    cfg = closing_rcd_config(m1=0.1)
    path = write_config(tmp_path, cfg)
    assert main(["rcd", path, "--out", str(tmp_path)]) == 1
    report = read_report(tmp_path, "rcd_report.json")
    entry = next(v for v in report["verdicts"]
                 if v["condition_id"] == "m1_in_range")
    assert entry["status"] == "Fail"
    assert "lower" in entry["note"]


def test_rcd_borderline_ratio_is_inconclusive(tmp_path):
    # m1 sits at the edge of its range, so the f1_small ratio rounds to 1.0:
    # inside the guard band, neither a Pass nor a Fail
    cfg = {"rcd": {"beta1": 1.0, "beta2": 1.0, "k1": 9.577156440947608,
                   "k2": 7.1767437306490125, "r1": 17.29021180253892,
                   "r2": 12.137734274679705, "m1": 0.37567370045618687,
                   "m2": 10.325868406869752},
           "output": {"report": "rcd_report.json"}}
    path = write_config(tmp_path, cfg)
    assert main(["rcd", path, "--out", str(tmp_path)]) == 2
    report = read_report(tmp_path, "rcd_report.json")
    statuses = {v["condition_id"]: v["status"] for v in report["verdicts"]}
    assert statuses.pop("ratio_f1_small") == "Unknown"
    assert len(statuses) == 7 and set(statuses.values()) == {"Pass"}


def test_rcd_missing_block(tmp_path):
    path = write_config(tmp_path, {"output": {}})
    assert main(["rcd", path, "--out", str(tmp_path)]) == 3


def test_rcd_determinism(tmp_path):
    path = write_config(tmp_path, closing_rcd_config())
    (tmp_path / "r1").mkdir()
    (tmp_path / "r2").mkdir()
    main(["rcd", path, "--out", str(tmp_path / "r1")])
    main(["rcd", path, "--out", str(tmp_path / "r2")])
    assert (tmp_path / "r1" / "rcd_report.json").read_bytes() == \
        (tmp_path / "r2" / "rcd_report.json").read_bytes()
