"""What other code relies on: README's library examples, the package root's
exports, and the conecert names the benchmark harness reaches by name."""

import ast
import re
import types
from pathlib import Path

import conecert
from conecert import cli, conespace, kernels, rcd, solver

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
# `print(args)  # want`: the line must print `want`
EXPECTED_PRINT = re.compile(r"^(\s*)print\((.*)\)\s+#\s*(.*?)\s*$")


def test_readme_python_examples_print_their_comments():
    assert PYTHON_BLOCKS
    checked = []

    def expect(want, *args):
        checked.append(want)
        assert " ".join(map(str, args)) == want

    for block in PYTHON_BLOCKS:
        lines = [EXPECTED_PRINT.sub(
                     lambda m: f"{m[1]}_expect({m[3]!r}, {m[2]})", line)
                 for line in block.splitlines()]
        wanted = sum(line != new for line, new in zip(block.splitlines(), lines))
        before = len(checked)
        exec("\n".join(lines), {"_expect": expect})
        assert len(checked) - before == wanted
    assert checked


def test_package_root_exports_what_readme_imports():
    imported = {alias.name for block in PYTHON_BLOCKS
                for node in ast.walk(ast.parse(block))
                if isinstance(node, ast.ImportFrom) and node.module == "conecert"
                for alias in node.names}
    # the root exports lazily, so its names are __all__, not its globals
    assert set(conecert.__all__) == imported
    for name in conecert.__all__:
        assert name in dir(conecert)
        assert not isinstance(getattr(conecert, name), types.ModuleType)


def test_benchmark_names_resolve(monkeypatch):
    # benchmarks/spans.py patches conecert functions by name, and check.py
    # and workloads.py call the names below: a renamed or deleted one would
    # break only the benchmark
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    import spans

    apply = solver.DiscreteOperator.apply
    with spans.Tracer().installed():
        assert solver.DiscreteOperator.apply is not apply
    assert solver.DiscreteOperator.apply is apply
    for module, name in ((solver, "residual"), (cli, "build_problem"),
                         (kernels, "make_rule"), (conespace, "GridFunction"),
                         (rcd, "RcdParams"), (rcd, "build_params"),
                         (rcd, "m_ranges"), (rcd, "check_5_16")):
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
