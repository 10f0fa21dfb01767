"""Each entry point loads only the modules it runs.  The test process has
already imported every module, so each case runs in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

# (what the fresh interpreter runs, modules it must load, modules it must not)
CASES = {
    "import cli and rcd": (
        "import conecert.cli, conecert.rcd",
        ("conecert.cli", "conecert.rcd", "conecert.syntax"),
        ("conecert.expr", "conecert.hypotheses", "conecert.solver", "logging")),
    "verify": (
        "from conecert.cli import main\n"
        f"assert main(['verify', {str(CONFIGS / 'nine.json')!r}, '--out', OUT]) == 0",
        ("conecert.hypotheses", "conecert.expr"),
        ("conecert.solver", "conecert.rcd")),
    "solve": (
        "from conecert.cli import main\n"
        f"assert main(['solve', {str(CONFIGS / 'nine.json')!r}, '--out', OUT]) == 0",
        ("conecert.solver", "conecert.expr"),
        ("conecert.hypotheses", "conecert.rcd")),
    "rcd": (
        "from conecert.cli import main\n"
        f"assert main(['rcd', {str(CONFIGS / 'closing_rcd.json')!r}, '--out', OUT]) == 0",
        ("conecert.rcd",),
        ("conecert.expr", "conecert.hypotheses", "conecert.solver")),
}


def modules_loaded(code: str, out: Path) -> set[str]:
    script = (f"OUT = {str(out)!r}\n{code}\n"
              "import json, sys\nprint(json.dumps(sorted(sys.modules)))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=out,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.mark.parametrize("case", CASES)
def test_entry_point_loads_only_what_it_runs(tmp_path, case):
    code, wanted, unwanted = CASES[case]
    loaded = modules_loaded(code, tmp_path)
    assert set(wanted) <= loaded
    assert not set(unwanted) & loaded, sorted(set(unwanted) & loaded)
