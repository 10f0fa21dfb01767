"""The configs shipped under configs/ must keep working as documented."""

import gc
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from conecert import rcd
from conecert.cli import main
from conecert.kernels import rcd_lambda

TESTS = Path(__file__).resolve().parent
CONFIGS = TESTS.parent / "configs"


def numpy_blas() -> dict:
    """numpy's BLAS, as its build configuration names it."""
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # before numpy 1.26, show_config prints
        return {"name": "unknown"}


def assert_pinned_bytes(out: Path):
    """Every file under `out` has the SHA-256 that tests/nine.sha256 (the
    `sha256sum` list CI checks too) pins for it, and no pinned file under
    `out` is missing.  nine's f uses only the ramps and + - * /, and its
    enclosures only nextafter, so its verify bytes do not depend on the
    CPU.  Its solve bytes do: the Newton step's 5x5 matrix products go to
    numpy's BLAS, and the pinned bytes are those of OpenBLAS's FMA kernels
    for x86-64.  A kernel without FMA writes other last digits, so a
    mismatch names the BLAS it ran on."""
    pinned = dict(line.split()[::-1] for line in
                  (TESTS / "nine.sha256").read_text().splitlines())
    got = {p.relative_to(out.parent).as_posix():
           hashlib.sha256(p.read_bytes()).hexdigest()
           for p in out.rglob("*") if p.is_file()}
    assert got == {path: digest for path, digest in pinned.items()
                   if path.startswith(f"{out.name}/")}, \
        f"pinned for OpenBLAS's FMA kernels; numpy's BLAS: {numpy_blas()}"


def test_a_pinned_bytes_mismatch_names_numpy_blas(tmp_path):
    (tmp_path / "solve").mkdir()
    (tmp_path / "solve" / "report.json").write_text("{}")
    with pytest.raises(AssertionError, match="numpy's BLAS: {'name'"):
        assert_pinned_bytes(tmp_path / "solve")


def test_nine_config_verifies(tmp_path):
    assert main(["verify", str(CONFIGS / "nine.json"),
                 "--out", str(tmp_path / "verify")]) == 0
    assert_pinned_bytes(tmp_path / "verify")


def test_nine_config_solves(tmp_path):
    assert main(["solve", str(CONFIGS / "nine.json"),
                 "--out", str(tmp_path / "solve")]) == 0
    report = json.loads((tmp_path / "solve" / "report.json").read_text())
    assert sorted(s["region"] for s in report["solutions"]) == sorted(
        f"{a}-{b}" for a in "BMS" for b in "BMS")
    assert_pinned_bytes(tmp_path / "solve")


def test_hybrid_config_fails_condition_e(tmp_path):
    assert main(["verify", str(CONFIGS / "hybrid.json"),
                 "--out", str(tmp_path)]) == 1


def test_closing_rcd_config_passes(tmp_path):
    assert main(["rcd", str(CONFIGS / "closing_rcd.json"),
                 "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("scale, status, code", [
    (1 - 1e-11, "Fail", 1), (1 - 1e-13, "Unknown", 2), (1.0, "Unknown", 2),
    (1 + 1e-13, "Unknown", 2), (1 + 1e-11, "Pass", 0)])
def test_closing_rcd_guard_band(tmp_path, scale, status, code):
    # m2 = scale * m2_lo / lambda(beta1) puts the first diffusion inequality
    # lambda(beta1) > m2_lo / m2 about (scale - 1) * 0.63 from equality:
    # within rcd.GUARD (1e-12) ineq_5_16 is neither proved nor refuted, and
    # rcd exits 2; 6e-12 away it is decided
    cfg = json.loads((CONFIGS / "closing_rcd.json").read_text())
    p = cfg["rcd"]
    _, m2_range = rcd.m_ranges(p["k1"], p["k2"], p["r1"], p["r2"])
    p["m2"] = scale * m2_range.lo / rcd_lambda(p["beta1"])
    path = tmp_path / "closing_rcd.json"
    path.write_text(json.dumps(cfg))
    assert main(["rcd", str(path), "--out", str(tmp_path)]) == code
    report = json.loads((tmp_path / "rcd_report.json").read_text())
    verdicts = {v["condition_id"]: v["status"] for v in report["verdicts"]}
    assert verdicts.pop("ineq_5_16") == status
    assert set(verdicts.values()) == {"Pass"}


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


def _with_beta(tmp_path, name, beta) -> str:
    """configs/<name>.json with every RCD beta set to `beta`."""
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    if "rcd" in cfg:
        cfg["rcd"].update(beta1=beta, beta2=beta)
    else:
        for kernel in ("kernel1", "kernel2"):
            cfg["problem"][kernel]["beta"] = beta
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.mark.parametrize("beta", [1e17, 1e300])
def test_closing_system_verifies_at_a_huge_beta(tmp_path, beta):
    # lambda(beta) = beta*(1 - exp(-1/beta)) tends to 1; written with
    # 1 - exp(-1/beta) it cancels to 0 from beta ~ 2e16 on, and thm53.c's
    # bound a/lambda(beta) divided by zero
    out = tmp_path / "out"
    assert main(["verify", _with_beta(tmp_path, "closing_system", beta),
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    bounds = {v["condition_id"]: v["bound"] for v in report["verdicts"]}
    a = json.loads((CONFIGS / "closing_system.json").read_text()
                   )["problem"]["region"]["a"]
    assert (bounds["thm53.c1"], bounds["thm53.c2"]) == pytest.approx(a)


def test_closing_rcd_passes_5_16_at_a_huge_beta(tmp_path):
    # the left side lambda(beta) is about 1, not the cancelled 0
    out = tmp_path / "out"
    assert main(["rcd", _with_beta(tmp_path, "closing_rcd", 1e17),
                 "--out", str(out)]) == 0
    report = json.loads((out / "rcd_report.json").read_text())
    status = {v["condition_id"]: v["status"] for v in report["verdicts"]}
    assert status["ineq_5_16"] == "Pass"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("picard_steps", [200, 1])
def test_closing_system_solves_without_warning_at_a_huge_beta(tmp_path,
                                                               picard_steps):
    # Picard first or Newton first, the four solutions are found with no
    # warning: the Newton step marches the integral form, whose generators
    # stay finite and keep Df at every beta
    path = _with_beta(tmp_path, "closing_system", 1e300)
    cfg = json.loads(Path(path).read_text())
    cfg["solver"]["picard_steps"] = picard_steps
    Path(path).write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["solve", path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["solutions"]) == 4
