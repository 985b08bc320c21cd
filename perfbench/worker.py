"""One measured run of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload W --setup-only

Started by ``run.py`` from the root of a checkout. With ``--setup-only`` it
imports qcff, builds the workload's field contexts, prints ``ready`` and
exits; ``run.py`` times that from outside. Otherwise it runs the seed's jobs
one at a time (a closed loop with one client), checks every output against
the digests pinned in ``pool.json``, and prints one JSON object. With
``--trace 1`` it runs the first half of the jobs twice, untraced and then
traced, and reports per-layer numbers instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

from speed import Speedometer

HERE = Path(__file__).resolve().parent

WORKLOADS = ("formal_sum", "tower_report", "selfcheck")
FIELDS = {
    "formal_sum": [(3, 1, None), (5, 1, None), (7, 1, None), (3, 2, [1, 0, 1])],
    "tower_report": [(3, 1, None), (5, 1, None), (7, 1, None), (3, 2, [1, 0, 1])],
    "selfcheck": [(3, 1, None), (5, 1, None), (3, 2, [1, 0, 1])],
}
# Seconds one round of jobs (one job of every class) takes on the reference
# machine with the pure kernel. A run does round(seconds / ROUND_S) rounds:
# a fixed amount of work per seed, so counts and percentile ranks repeat.
ROUND_S = {"formal_sum": 4.0, "tower_report": 0.75, "selfcheck": 1.9}


def setup(workload: str):
    sys.path.insert(0, str(Path.cwd() / "src"))
    import qcff

    for p, e, modulus in FIELDS[workload]:
        qcff.field_create(p, e, modulus)
    return qcff


# -- jobs ---------------------------------------------------------------------------

def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_S[workload]))


def job_list(pool: dict, workload: str, seed: int, rounds: int) -> list[dict]:
    """The seed's jobs, round by round. A round has one job of every class,
    in a seeded order; a class's pool holds configs in pairs, its rounds go
    through the pairs in a seeded order, and the seed picks one config of
    each pair. So every seed runs the same mix of costs on its own inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "selfcheck":
        return [{"seed": rng.getrandbits(32), "expect": pool["selfcheck"]}
                for _ in range(rounds)]
    classes = pool[workload]
    pair_orders = [rng.sample(range(len(c["jobs"]) // 2), len(c["jobs"]) // 2)
                   for c in classes]
    jobs = []
    for r in range(rounds):
        for c in rng.sample(range(len(classes)), len(classes)):
            pair = pair_orders[c][r % len(pair_orders[c])]
            entry = classes[c]["jobs"][2 * pair + rng.randrange(2)]
            jobs.append({"config": entry["config"], "expect": entry["sha256"]})
    return jobs


class Result(NamedTuple):
    seconds: float
    failure: str | None
    digest: str
    report_bytes: int = 0
    cases: int = 0


def run_job(qcff, job: dict) -> Result:
    """Run and time one job, then check its output."""
    try:
        if "seed" in job:
            t0 = time.perf_counter()
            results = qcff.run_selfcheck("full", job["seed"])
            dt = time.perf_counter() - t0
        else:
            t0 = time.perf_counter()
            report = qcff.run_report(qcff.parse_config(job["config"]))
            text = qcff.render_json(report)
            dt = time.perf_counter() - t0
    except Exception as exc:  # a job that raises is a failed job, not a crash
        return Result(0.0, f"{type(exc).__name__}: {exc}", "")
    if "seed" in job:
        got = [[r.name, r.cases] for r in results]
        digest = hashlib.sha256(json.dumps(got).encode()).hexdigest()
        cases = sum(r.cases for r in results)
        failed = [r.name for r in results if not r.passed]
        if failed:
            return Result(dt, f"suites failed: {failed}", digest, cases=cases)
        if got != job["expect"]:
            return Result(dt, f"case counts {got} differ from the pinned ones", digest)
        return Result(dt, None, digest, cases=cases)
    digest = hashlib.sha256(text.encode()).hexdigest()
    checks = report["oracles"]["checks"]
    if not report["oracles"]["ran"] or not all(c["passed"] for c in checks):
        return Result(dt, "oracle checks failed or did not run", digest)
    if digest != job["expect"]:
        return Result(dt, "report digest differs from the pinned one", digest)
    return Result(dt, None, digest, report_bytes=len(text))


def run_jobs(qcff, jobs: list[dict], meter: Speedometer, tracer=None):
    """Run the jobs untraced, probing the machine's speed between them. With
    a tracer, run each job a second time right after under tracing, so that
    drift in machine speed touches both runs of a job alike. Returns
    (untraced results, traced results)."""
    plain, traced = [], []
    for i, job in enumerate(jobs):
        meter.start_job()
        plain.append(run_job(qcff, job))
        meter.tick(plain[-1].seconds)
        if tracer is not None:
            tracer.install()
            try:
                traced.append(tracer.job_span(i)(run_job, qcff, job))
            finally:
                tracer.uninstall()
    return plain, traced


def tail_rank(n: int) -> int:
    """Sorted index of the highest percentile of n samples that has at least
    ten samples beyond it (the minimum when n < 11)."""
    return max(0, n - 11)


def outcome(results) -> dict:
    failures = [r.failure for r in results if r.failure]
    return {
        "attempted": len(results),
        "failed": len(failures),
        "failures": failures[:5],
        "digest": hashlib.sha256("".join(r.digest for r in results).encode()).hexdigest(),
    }


# -- the two kinds of run --------------------------------------------------------------

def summary(times: list[float]) -> dict[str, float]:
    return {"job_p50_s": statistics.median(times),
            "job_tail_s": sorted(times)[tail_rank(len(times))],
            "jobs_per_s": len(times) / sum(times)}


def measure(qcff, jobs: list[dict]) -> dict:
    meter = Speedometer()
    results, _ = run_jobs(qcff, jobs, meter)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = outcome(results)
    out["speed"] = {"factor": meter.factor, "probes": len(meter.samples)}
    done = [i for i, r in enumerate(results) if not r.failure]
    if not done:
        return out
    out["raw"] = summary([results[i].seconds for i in done])
    scaled = summary([results[i].seconds / meter.local(i) for i in done])
    out["metrics"] = {
        "job_p50_s": (scaled["job_p50_s"], "s"),
        "job_tail_s": (scaled["job_tail_s"], "s"),
        "jobs_per_s": (scaled["jobs_per_s"], "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    k, n = tail_rank(len(done)), len(done)
    out["job_tail"] = {"percentile": round(100.0 * (k + 1) / n, 2), "samples": n,
                       "beyond": n - k - 1}
    return out


def trace(qcff, jobs: list[dict], workload: str):
    """Per-layer metrics of the jobs; returns (result, tracer)."""
    from spans import Tracer

    tracer, meter = Tracer(), Speedometer()
    plain, traced = run_jobs(qcff, jobs, meter, tracer)
    out = outcome(plain + traced)
    out["speed"] = {"factor": meter.factor, "probes": len(meter.samples)}
    plain_s = sum(r.seconds for r in plain)
    traced_s = sum(r.seconds for r in traced)
    job_s = tracer.busy["bench.job"]
    out["metrics"] = layer_metrics(tracer, job_s, plain_s, traced_s, traced)
    for name, (value, unit) in out["metrics"].items():
        if unit == "s":
            out["metrics"][name] = (value / meter.factor, unit)
    out["target"] = target_share(workload, tracer, job_s)
    return out, tracer


def layer_metrics(tr, job_s: float, plain_s: float, traced_s: float, traced) -> dict:
    calls, busy, self_s = tr.calls, tr.busy, tr.self_s

    def share(seconds: float) -> tuple[float, str]:
        return (100.0 * seconds / job_s, "%")

    m: dict[str, tuple[float, str]] = {}
    kernel_names = [n for n in calls if n.startswith("kernel.")]
    m["kernel.calls"] = (sum(calls[n] for n in kernel_names), "count")
    m["kernel.busy_s"] = (self_s["kernel"], "s")
    for op in ("pmul", "pdivrem", "prem", "pgcd", "ppowmod", "scalar"):
        m[f"kernel.{op}.calls"] = (calls[f"kernel.{op}"], "count")
        m[f"kernel.{op}.busy_s"] = (busy[f"kernel.{op}"], "s")
    m["poly.calls"] = (sum(c for n, c in calls.items()
                           if n.startswith("poly.") and n != "poly.poly_cmp"), "count")
    m["poly.self_s"] = (self_s["poly"], "s")
    m["poly.poly_cmp.calls"] = (calls["poly.poly_cmp"], "count")
    for name in ("factor.poly_factor", "factor.poly_is_irreducible",
                 "symbols.residue_symbol", "symbols.jacobi_symbol",
                 "symbols.check_reciprocity"):
        m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.busy_s"] = (busy[name], "s")
    irreducible_calls = calls["factor.poly_is_irreducible"]
    m["factor.poly_is_irreducible.distinct_ratio"] = (
        len(tr.irreducible_seen) / irreducible_calls if irreducible_calls else 0.0, "ratio")
    for name in ("cyclotomic.conductor_create", "cyclotomic.genus",
                 "kummer.ramification_table", "kummer.genus"):
        m[f"{name}.busy_s"] = (busy[name], "s")
    # Layers that some workloads never enter are given as shares of the
    # traced job time, so that no timing reads a structural zero.
    for name in ("kummer.pair_formal_sum", "kummer.reduce_fraction", "kummer.presentation",
                 "report.render_json", "config.parse_config"):
        m[f"{name}.share"] = share(busy[name])
    m["kummer.reduce_fraction.calls"] = (calls["kummer.reduce_fraction"], "count")
    m["kummer.raw_terms"] = (tr.raw_terms, "count")
    m["kummer.kept_terms"] = (tr.kept_terms, "count")
    m["kummer.kept_ratio"] = (tr.kept_terms / tr.raw_terms if tr.raw_terms else 0.0, "ratio")
    m["report.run_report.self_share"] = share(self_s["report.run_report"])
    m["report.bytes"] = (sum(r.report_bytes for r in traced), "bytes")
    for suite in ("reciprocity", "phi_bruteforce", "symbol_character", "parity",
                  "genus_paths", "factor_roundtrip"):
        m[f"selfcheck.{suite}.share"] = share(busy[f"selfcheck.{suite}"])
    m["selfcheck.cases"] = (sum(r.cases for r in traced), "count")
    m["factor_symbols.share"] = share(busy["factor+symbols"])
    for layer in ("kernel", "poly", "factor", "symbols", "cyclotomic", "kummer",
                  "report", "config", "selfcheck", "bench"):
        m[f"self.{layer}.share"] = share(self_s[layer])
    m["trace.jobs"] = (len(traced), "count")
    m["trace.job_s"] = (job_s, "s")
    m["trace.overhead_pct"] = (100.0 * (traced_s / plain_s - 1.0) if plain_s else 0.0, "%")
    return m


def target_share(workload: str, tr, job_s: float) -> dict:
    name = {"formal_sum": "kummer.pair_formal_sum", "tower_report": "factor+symbols",
            "selfcheck": "selfcheck.factor_roundtrip"}[workload]
    return {"layer": name, "share_pct": round(100.0 * tr.busy[name] / job_s, 2)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    qcff = setup(args.workload)
    if args.setup_only:
        print("ready", flush=True)
        return 0
    pool = json.loads((HERE / "pool.json").read_text())
    rounds = rounds_for(args.workload, args.seconds)
    if args.trace:
        jobs = job_list(pool, args.workload, args.seed, max(1, rounds // 2))
        out, tracer = trace(qcff, jobs, args.workload)
        spans_dir = Path.cwd() / ".perfbench"
        spans_dir.mkdir(exist_ok=True)
        (spans_dir / f"spans-{args.workload}-{args.seed}.json").write_text(
            json.dumps({"fields": ["name", "start", "end", "parent", "job"],
                        "spans": tracer.spans}))
    else:
        out = measure(qcff, job_list(pool, args.workload, args.seed, rounds))
    out["backend"] = qcff.backend_name()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
