"""The configs shipped under configs/ must keep working as documented."""

import gc
import hashlib
import json
from pathlib import Path

from conecert.cli import main

TESTS = Path(__file__).resolve().parent
CONFIGS = TESTS.parent / "configs"


def assert_pinned_bytes(out: Path):
    """Every file under `out` has the SHA-256 that tests/nine.sha256 (the
    `sha256sum` list CI checks too) pins for it, and no pinned file under
    `out` is missing.  nine's f uses only the ramps and + - * /, and its
    enclosures only nextafter, so its bytes do not depend on the CPU."""
    pinned = dict(line.split()[::-1] for line in
                  (TESTS / "nine.sha256").read_text().splitlines())
    got = {p.relative_to(out.parent).as_posix():
           hashlib.sha256(p.read_bytes()).hexdigest()
           for p in out.rglob("*") if p.is_file()}
    assert got == {path: digest for path, digest in pinned.items()
                   if path.startswith(f"{out.name}/")}


def test_nine_config_verifies(tmp_path):
    assert main(["verify", str(CONFIGS / "nine.json"),
                 "--out", str(tmp_path / "verify")]) == 0
    assert_pinned_bytes(tmp_path / "verify")


def test_nine_config_solves(tmp_path):
    assert main(["solve", str(CONFIGS / "nine.json"),
                 "--out", str(tmp_path / "solve")]) == 0
    report = json.loads((tmp_path / "solve" / "report.json").read_text())
    assert len(report["solutions"]) >= 3
    assert_pinned_bytes(tmp_path / "solve")


def test_hybrid_config_fails_condition_e(tmp_path):
    assert main(["verify", str(CONFIGS / "hybrid.json"),
                 "--out", str(tmp_path)]) == 1


def test_closing_rcd_config_passes(tmp_path):
    assert main(["rcd", str(CONFIGS / "closing_rcd.json"),
                 "--out", str(tmp_path)]) == 0


def test_closing_system_config_verifies(tmp_path):
    assert main(["verify", str(CONFIGS / "closing_system.json"),
                 "--out", str(tmp_path)]) == 0


def test_nine_leaves_no_cycles_once_warm(tmp_path):
    # a warm verify and solve free everything by reference counting: a
    # reference cycle made per call (a nested recursive function, a parser
    # rebuilt per call, a caught error kept in a local) would wait for the
    # cyclic collector, and hold its memory until then
    argvs = [[command, str(CONFIGS / "nine.json"),
              "--out", str(tmp_path / command)] for command in ("verify", "solve")]
    for argv in argvs:
        assert main(argv) == 0
    gc.collect()
    gc.disable()
    try:
        for argv in argvs:
            assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
