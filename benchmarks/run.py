"""conecert benchmark: one workload per run, closed loop with one client.

    python3 benchmarks/run.py --workload verify-tight --seed 1 --seconds 25 --trace 0

One process runs the workload's jobs back to back through
``conecert.cli.main(argv)``, starting a job only when the previous one has
returned, on one thread (the BLAS pools are pinned to one thread before numpy
is imported).  A pass is one run over the job list.  The first pass is a
warm-up whose outputs are checked in full; the timed passes then repeat until
``--seconds`` have passed and must reproduce those outputs byte for byte.

Times are scaled to a fixed host speed: a frozen reference kernel
(``reference.py``) runs before every job, outside the timed region, and each
pass time is multiplied by the kernel's nominal time over its measured time
in that pass.  Raw times are printed in the log.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics,
including the tracing overhead.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7
SETUP_KERNEL = "python"  # set-up is imports and interpreted code


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def pin_threads():
    """Pin every BLAS pool to one thread before numpy loads; refuse otherwise."""
    if "numpy" in sys.modules:
        raise BenchError("numpy was imported before the BLAS thread pins were set")
    for var in THREAD_PINS:
        value = os.environ.setdefault(var, "1")
        if value != "1":
            raise BenchError(f"refusing to time with {var}={value}; unset it or set 1")


def load_program():
    """Import conecert from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "conecert" / "__init__.py").is_file():
        raise BenchError(f"no conecert sources under {src}")
    sys.path.insert(0, str(src))
    import conecert.cli as cli

    if Path(cli.__file__).resolve().parent != (src / "conecert").resolve():
        raise BenchError(f"conecert was imported from {cli.__file__}, not {src}")
    return cli


def quiet_runner(main):
    """Run one command line with the program's console output discarded;
    returns its exit code, or None when it raised."""
    def run(argv):
        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            try:
                return main(argv)
            except Exception as err:  # a crash is a failed job, not a lost run
                print(f"{argv[0]} {argv[1]} raised {err!r}", file=sys.__stderr__)
                return None
    return run


def run_pass(jobs, run, yardstick) -> tuple[float, float, list]:
    """Run the job list once; returns the wall time spent in jobs, that time
    scaled to the yardstick's nominal host speed, and the exit codes.  The
    yardstick runs before every job, outside the timed region."""
    for job in jobs:
        shutil.rmtree(job.out, ignore_errors=True)
    wall, marks, codes = 0.0, [], []
    for job in jobs:
        marks.append(yardstick.time())
        start = perf_counter()
        codes.append(run(job.argv))
        wall += perf_counter() - start
    return wall, wall / yardstick.slowdown(marks), codes


# ---------------------------------------------------------------------------
# environment


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
        "threads": {var: os.environ.get(var) for var in THREAD_PINS},
    }


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


# ---------------------------------------------------------------------------
# set-up time


def make_jobs(args, work: Path, run):
    from workloads import make_jobs as build

    return build(args.workload, args.seed, work, ROOT, run)


def setup_probe(args, work: Path) -> tuple[float, float]:
    """Seconds to import conecert.cli, generate the workload's configs and
    parse them, raw and scaled to the yardstick's nominal host speed."""
    start = perf_counter()
    cli = load_program()
    from conecert.rcd import RcdParams

    for job in make_jobs(args, work, quiet_runner(cli.main)):
        cfg = json.loads(job.config.read_text(encoding="utf-8"))
        if "problem" in cfg:
            cli.build_problem(cfg["problem"])
        else:
            RcdParams(**cfg["rcd"])
    took = perf_counter() - start
    from reference import Yardstick

    yardstick = Yardstick(SETUP_KERNEL)
    return took, took / yardstick.slowdown([yardstick.time() for _ in range(5)])


def measure_setup(args) -> tuple[float, list[float]]:
    """Median scaled set-up time over fresh processes, and the raw times."""
    raw, times = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        took, scaled = map(float, proc.stdout.split()[-2:])
        raw.append(took)
        times.append(scaled)
    return statistics.median(times), raw


# ---------------------------------------------------------------------------
# the run


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_workload(args, spec: dict, work: Path) -> int:
    from check import check_job, snapshot
    from reference import Yardstick
    from spans import Tracer, combine, summarize, top_spans
    from workloads import HOST_KERNEL

    cli = load_program()
    run = quiet_runner(cli.main)
    env = environment()
    setup_s, setup_raw = (None, []) if args.trace else measure_setup(args)
    jobs = make_jobs(args, work, run)
    yardstick = Yardstick(HOST_KERNEL[args.workload])

    # warm-up pass, checked in full
    _, _, codes = run_pass(jobs, run, yardstick)
    results = [check_job(job, code) for job, code in zip(jobs, codes)]
    reference = [(code, snapshot(job.out)) for job, code in zip(jobs, codes)]
    attempted, failed = len(jobs), sum(not r.ok for r in results)
    for job, r in zip(jobs, results):
        if not r.ok:
            print(f"FAILED {job.name}: {r.reason}")
        elif r.conditions or r.promised:
            print(f"job {job.name}: {r.decided}/{r.conditions} conditions decided, "
                  f"{r.found}/{r.promised} regions found")
    bytes_written = sum(len(b) for _, snap in reference for b in snap.values())

    raw, walls, traced_walls, traced, tops = [], [], [], [], None
    deadline = perf_counter() + args.seconds
    tracing = False
    while True:
        if tracing:
            tracer = Tracer()
            with tracer.installed():
                wall, scaled, codes = run_pass(
                    jobs, quiet_runner(tracer.span("cli.main", cli.main)), yardstick)
            traced_walls.append(scaled)
            traced.append(summarize(tracer, wall))
            tops = top_spans(tracer, wall)
        else:
            wall, scaled, codes = run_pass(jobs, run, yardstick)
            raw.append(wall)
            walls.append(scaled)
        for job, code, ref in zip(jobs, codes, reference):
            attempted += 1
            if (code, snapshot(job.out)) != ref:
                failed += 1
                print(f"FAILED {job.name}: output differs from the warm-up pass")
        if args.trace:
            tracing = not tracing
        if perf_counter() >= deadline and walls and (traced or not args.trace):
            break

    conditions = sum(r.conditions for r in results)
    decided = sum(r.decided for r in results)
    promised = sum(r.promised for r in results)
    found = sum(r.found for r in results)
    wall_s = statistics.median(walls)
    q1, q3 = quartiles(walls)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(walls)} "
          f"of {len(jobs)} jobs  ({args.seconds} s measured)")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"wall_s quartiles {q1:.6f} .. {q3:.6f} over {len(walls)} passes, "
          f"scaled by the {yardstick.kind} yardstick: "
          + " ".join(f"{w:.4f}" for w in walls))
    print("raw pass times: " + " ".join(f"{w:.4f}" for w in raw))
    if setup_raw:
        print("raw set-up times: " + " ".join(f"{t:.4f}" for t in setup_raw))
    print(f"failed_frac {failed / attempted:.6f}  ({failed} of {attempted} jobs)")
    if conditions:
        print(f"conditions_decided {decided / conditions:.6f}  ({decided} of {conditions})")
    if promised:
        print(f"regions_found {found / promised:.6f}  ({found} of {promised})")

    if args.trace:
        metrics, unsteady = combine(traced)
        for name in unsteady:
            print(f"UNSTEADY count {name} differs between traced passes")
        overhead = statistics.median(traced_walls) - wall_s
        metrics.update({
            "solver.regions_found": found / promised if promised else 0.0,
            "cli.bytes_written": bytes_written,
            "trace.overhead_s": overhead,
            "trace.overhead_pct": 100.0 * overhead / wall_s,
        })
        print(f"traced passes {len(traced)}; largest self times (self %, inclusive %):")
        for name, self_pct, incl_pct in tops:
            print(f"  {name:40s} {self_pct:6.2f} {incl_pct:6.2f}")
        wanted = spec["per_layer"]
    else:
        metrics = {
            "wall_s": wall_s,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "answered_frac": (decided + found) / (conditions + promised),
        }
        wanted, unsteady = spec["end_to_end"], []

    if sorted(metrics) != sorted(m["name"] for m in wanted):
        raise BenchError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    out = {}
    for m in wanted:
        value = metrics[m["name"]]
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:46s} {value!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and not unsteady, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    work = BENCH_DIR / "_work" / str(os.getpid())
    try:
        pin_threads()
        sys.path.insert(0, str(BENCH_DIR))
        if args.setup_probe:
            print(*map(repr, setup_probe(args, work)))
            return 0
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; one of {WORKLOADS}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        return run_workload(args, spec, work)
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
