"""The qcff benchmark: one workload, one seed, one line of metrics.

    python3 perfbench/run.py --workload formal_sum --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports qcff from ``src/``. It times
set-up in fresh interpreters, runs the workload in one more (``worker.py``),
checks every output against ``pool.json``, and prints as its last line
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones, the tracing overhead, and the timings of fresh ``qcff`` processes.
The line before it, ``{"info": ...}``, records the backend, the Python
version, the CPU, the tail percentile and an output digest that two commits
can be compared by. See NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 11
# Start-up time of a bare interpreter typical of the reference machine.
# Process start drifts with the machine (up to 1.4x between runs) while the
# ratio of set-up to bare start holds within 5%, so setup_s is reported as
# median set-up time * BARE_REFERENCE_S / median bare start, both measured
# alternately in the same run.
BARE_REFERENCE_S = 0.05
PROCESS_SAMPLES = 5
CHILD_TIMEOUT_S = 150


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def spawn_ready(cmd: list[str]) -> float:
    """Seconds from spawning ``cmd`` until it prints its first line."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        if proc.wait(timeout=CHILD_TIMEOUT_S) != 0 or line.strip() != "ready":
            raise RuntimeError(f"{cmd} did not report ready")
    return elapsed


def spawn_wall(cmd: list[str], env: dict | None = None) -> tuple[float, str]:
    t0 = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(f"{cmd} exited {done.returncode}: {done.stderr[-500:]}")
    return elapsed, done.stdout


def worker(args, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, *extra]


def cli_metrics(pool: dict) -> tuple[dict, int]:
    """Fresh-process costs a CLI user pays: a bare interpreter, ``import
    qcff``, and ``python -m qcff report`` on a one-pair F_3 config, whose
    output is checked against its pinned digest. Returns (metrics, failures)."""
    scratch = Path.cwd() / ".perfbench"
    scratch.mkdir(exist_ok=True)
    config, out = scratch / "cli_config.json", scratch / "cli_report.json"
    config.write_text(json.dumps(pool["cli"]["config"]))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path.cwd() / "src"),
                                                      env.get("PYTHONPATH")]))
    import_code = ("import sys, time; sys.path.insert(0, 'src'); "
                   "t = time.perf_counter(); import qcff; print(time.perf_counter() - t)")
    bare, imports, reports, failures = [], [], [], 0
    for _ in range(PROCESS_SAMPLES):
        bare.append(spawn_wall([sys.executable, "-c", "pass"])[0])
        imports.append(float(spawn_wall([sys.executable, "-c", import_code])[1]))
        reports.append(spawn_wall([sys.executable, "-m", "qcff", "report", "--config",
                                   str(config), "--out", str(out)], env)[0])
        if hashlib.sha256(out.read_bytes()).hexdigest() != pool["cli"]["sha256"]:
            failures += 1
    return {
        "cli.bare_process_s": (statistics.median(bare), "s"),
        "cli.import_s": (statistics.median(imports), "s"),
        "cli.report_process_s": (statistics.median(reports), "s"),
    }, failures


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0))}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("formal_sum", "tower_report", "selfcheck"),
                    required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (Path.cwd() / "src" / "qcff" / "__init__.py").is_file():
        return fail("no src/qcff here; run from the root of a qcff checkout")
    pool_path = HERE / "pool.json"
    if not pool_path.is_file():
        return fail(f"missing {pool_path}")
    pool = json.loads(pool_path.read_text())

    try:
        metrics, extra_attempts, failures, setup_info = {}, 0, 0, {}
        if args.trace:
            extra_attempts = PROCESS_SAMPLES
            metrics, failures = cli_metrics(pool)
        else:
            bare, setups = [], []
            for _ in range(SETUP_SAMPLES):
                bare.append(spawn_ready([sys.executable, "-c", "print('ready')"]))
                setups.append(spawn_ready(worker(args, "--setup-only")))
            setup_raw, bare_s = statistics.median(setups), statistics.median(bare)
            metrics["setup_s"] = (setup_raw * BARE_REFERENCE_S / bare_s, "s")
            setup_info = {"setup_raw_s": setup_raw, "bare_start_s": bare_s}
        _, stdout = spawn_wall(worker(args, "--seed", str(args.seed), "--seconds",
                                      str(args.seconds), "--trace", str(args.trace)))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return fail(str(exc))

    run = json.loads(stdout.strip().splitlines()[-1])
    metrics.update(run.get("metrics", {}))
    attempted = run["attempted"] + extra_attempts
    failed = run["failed"] + failures
    info = {"workload": args.workload, "seed": args.seed, "backend": run["backend"],
            **machine(), **setup_info, "output_digest": run["digest"], "failures": run["failures"],
            "error_rate": failed / attempted}
    for key in ("job_tail", "target", "speed", "raw"):
        if key in run:
            info[key] = run[key]
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0 and "metrics" in run,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
