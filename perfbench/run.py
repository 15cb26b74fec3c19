"""binexceed benchmark: one workload, one seed, every metric by name and unit.

    python3 perfbench/run.py --workload chain_sweep --seed 1 --seconds 60 --trace 0

Each session is a fresh interpreter (session.py) that imports binexceed
from this checkout's src/, runs one job with jobs=1, checks every verdict
and reports.  Sessions repeat the same job until --seconds have passed.
Times are scaled to the machine's reference speed (see end_to_end).
--trace 0 prints the end-to-end metrics.  --trace 1 runs untraced sessions,
then one traced session on the same inputs, then the kernel probes, and
prints the per-layer metrics.  The last line of stdout is one JSON object:
correct, attempted, failed, metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import gen
from spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SESSION = HERE / "session.py"

WORKLOADS = ("chain_sweep", "point_queries")
RUN_LIMIT_S = 170         # no session may end after this; the run must exit in 180 s
LARGE_N = 1000
# session.reference_ms() on a 2-vCPU Intel Xeon (Python 3.11) at its fast
# speed; the time metrics are scaled to it, so it sets only their scale
REF_MS = 7.5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "cold_query_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"{layer}.{kind}": unit
       for layer in LAYERS
       for kind, unit in (("self_s", "s"), ("share", "ratio"))},
    "enclosure.compare.calls": "count",
    "enclosure.compare.self_s": "s",
    "enclosure.compare.refinements": "count",
    "enclosure.compare.max_bits": "bits",
    "enclosure.arith.calls": "count",
    "enclosure.arith.self_s": "s",
    "enclosure.ln.calls": "count",
    "enclosure.ln.self_s": "s",
    "enclosure.exp.calls": "count",
    "enclosure.exp.self_s": "s",
    "enclosure.const_cache.hit_ratio": "ratio",
    "binom.survival.calls": "count",
    "binom.survival.self_s": "s",
    "binom.survival.terms": "count",
    "binom.survival.max_n": "count",
    "binom.large_n_query_share": "ratio",
    "bounds.check.calls": "count",
    "bounds.check.self_s": "s",
    "proofs.cell.calls": "count",
    "proofs.cell.self_s": "s",
    "proofs.chain_cache.hit_ratio": "ratio",
    "report.witness.calls": "count",
    "report.witness.self_s": "s",
    "report.witness.kept_ratio": "ratio",
    "report.to_json_s": "s",
    "report.bytes": "B",
    "cli.check.self_s": "s",
    "cli.output_bytes": "B",
    "trace.spans": "count",
    "trace.traced_wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.reference_ms": "ms",
    **{f"probe.ln43.b{bits}_ms": "ms" for bits in (64, 1024, 4096)},
    **{f"probe.tail_gt_mean.n{n}_ms": "ms" for n in (100, 1000, 10000)},
}


class Run:
    """Spawns the sessions of one benchmark run."""

    def __init__(self):
        self.t_start = time.monotonic()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

    def elapsed(self) -> float:
        return time.monotonic() - self.t_start

    def spawn(self, job: dict) -> dict:
        """Run one session; its set-up time counts from just before the spawn."""
        timeout = max(1.0, RUN_LIMIT_S - self.elapsed())
        t0 = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(SESSION)], input=json.dumps(job),
                                  capture_output=True, text=True, env=self.env,
                                  cwd=ROOT, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"error": f"session timed out after {timeout:.0f} s"}
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        except json.JSONDecodeError:
            result = None
        if not isinstance(result, dict):
            return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"}
        result["setup_s"] = result["setup_done"] - t0
        return result

    def sessions(self, job: dict, budget_s: float, at_least: int) -> list[dict]:
        """Results of sessions of `job` run in sequence, at least `at_least`
        of them, and more while one as long as the last still ends within
        budget_s."""
        results = []
        t0 = self.elapsed()
        last = 0.0
        while len(results) < at_least or self.elapsed() - t0 + last <= budget_s:
            if self.elapsed() >= RUN_LIMIT_S - 10:
                break
            t_session = self.elapsed()
            results.append(self.spawn(job))
            last = self.elapsed() - t_session
        return results


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def make_job(workload: str, seed: int) -> dict:
    """The job every session of the run repeats."""
    if workload == "chain_sweep":
        return {"kind": workload, **gen.chain_input(seed)}
    return {"kind": workload, "queries": gen.point_block(seed)}


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _p95(values) -> float:
    values = sorted(values)
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def count_failures(pairs: list[tuple]) -> tuple[int, int, list]:
    """Operations attempted and failed; a session that crashed fails all its ops."""
    attempted = failed = 0
    problems = []
    for job, result in pairs:
        if "error" in result:
            ops = len(job.get("queries", [None]))
            attempted += ops
            failed += ops
            problems.append(result["error"])
            continue
        for op in result.get("ops", []):
            attempted += 1
            if op["problems"]:
                failed += 1
                problems.extend(op["problems"][:3])
    return attempted, failed, problems


def end_to_end(results: list[dict]) -> tuple[dict, dict]:
    """Times at the machine's reference speed, as medians; median RSS.

    On a shared machine the same work alternates between speeds up to 1.8x
    apart, in stretches from under a second to minutes, so a raw time
    depends on when it was taken.  Each session therefore times a fixed
    reference kernel around and during its operations, and each one's time is
    scaled by REF_MS / (the kernel's time around it): what the operation
    would have taken while the kernel took REF_MS.  Set-up is scaled by the
    session's first kernel reading, taken right after it.  Every session
    repeats the same operations (the queries of one block, or one sweep), and
    each operation keeps the median of its scaled times over the sessions.
    """
    ok = [r for r in results if "error" not in r]
    scaled = [_median(times) for times in zip(*(
        [op["ms"] * REF_MS / op["ref_ms"] for op in r["ops"]] for r in ok))]
    rest = scaled[1:] or scaled             # a sweep session answers one request
    metrics = {
        "setup_s": _median(r["setup_s"] * REF_MS / r["refs_ms"][0] for r in ok),
        "wall_s": sum(scaled) / 1e3,
        "query_p50_ms": _median(rest),
        "query_p95_ms": _p95(rest),
        "cold_query_ms": scaled[0] if scaled else 0.0,
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in ok),
    }
    fastest = [min(times) for times in zip(*([op["ms"] for op in r["ops"]] for r in ok))]
    samples = {"sessions": len(ok), "ops_per_session": len(scaled),
               "reference_ms": _median(ms for r in ok for ms in r["refs_ms"]),
               "unscaled_fastest": {"setup_s": min((r["setup_s"] for r in ok), default=0.0),
                                    "wall_s": sum(fastest) / 1e3}}
    return metrics, samples


def per_layer(untraced: list[dict], traced: list[dict], probes: dict) -> dict:
    ok = [r for r in traced if "error" not in r]
    metrics = {name: _median(r["layers"].get(name, 0.0) for r in ok)
               for name in PER_LAYER if not name.startswith(("trace.", "probe."))}
    base = [r for r in untraced if "error" not in r]
    query_ms = [op for r in base for op in r["ops"][1:] if "n" in op]
    total_ms = sum(op["ms"] for op in query_ms)
    metrics["binom.large_n_query_share"] = (
        sum(op["ms"] for op in query_ms if op["n"] >= LARGE_N) / total_ms if total_ms else 0.0)
    untraced_wall = min((r["wall_s"] for r in base), default=0.0)
    traced_wall = _median(r["wall_s"] for r in ok)
    metrics["trace.spans"] = _median(r["layers"]["trace.spans"] for r in ok)
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.traced_wall_s"] = traced_wall
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall if untraced_wall else 0.0
    metrics["trace.reference_ms"] = _median(ms for r in base for ms in r["refs_ms"])
    for name in PER_LAYER:
        if name.startswith("probe."):
            metrics[name] = probes.get(name, 0.0)
    return metrics


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 120:
        parser.error("--seconds must lie in [1, 120]")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "binexceed" / "__init__.py").is_file():
        print(f"error: no binexceed sources under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)
    OUT.mkdir(exist_ok=True)
    run = Run()
    run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
    job = make_job(args.workload, args.seed)
    if "queries" in job:
        inputs = gen.describe_queries(job["queries"])
    else:
        inputs = {k: v for k, v in job.items() if k != "kind"}
    log = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "inputs": inputs}

    if not args.trace:
        results = run.sessions(job, args.seconds, at_least=1)
        pairs = [(job, r) for r in results]
        metrics, log["samples"] = end_to_end(results)
        units = END_TO_END
    else:
        untraced = run.sessions(job, args.seconds / 2, at_least=2)
        traced_job = {**job, "trace": True, "run_id": run_id,
                      "spans_path": str(OUT / f"spans-{args.workload}.csv.gz")}
        traced = run.sessions(traced_job, 0, at_least=1)
        c = gen.ln43_scaled()
        probe_job = {"kind": "probes", "ln43_bracket": [
            str(Fraction(c, 1 << gen.SCALE_BITS)), str(Fraction(c + 1, 1 << gen.SCALE_BITS))]}
        probe = run.spawn(probe_job)
        pairs = ([(job, r) for r in untraced] + [(traced_job, r) for r in traced]
                 + [(probe_job, probe)])
        metrics = per_layer(untraced, traced, probe.get("probe_metrics", {}))
        units = PER_LAYER
        log["samples"] = {"untraced_sessions": len(untraced), "traced_sessions": len(traced),
                          "probe_errors": sum(r.get("layers", {}).get("trace.probe_errors", 0)
                                              for r in traced)}

    log["sessions"] = [{"setup_s": r.get("setup_s"), "wall_s": r.get("wall_s"),
                        "ops_ms": [round(op["ms"], 3) for op in r.get("ops", [])],
                        "ops_ref_ms": [round(op.get("ref_ms", 0), 3) for op in r.get("ops", [])],
                        "refs_ms": r.get("refs_ms"),
                        "error": r.get("error")} for _, r in pairs]
    attempted, failed, failures = count_failures(pairs)
    log.update(attempted=attempted, failed=failed, failures=failures[:20],
               metrics=metrics, wall_s=run.elapsed())
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(log, indent=1))

    print(f"workload {args.workload}, seed {args.seed}, {len(pairs)} sessions, "
          f"{run.elapsed():.1f} s")
    print(f"inputs: {json.dumps(log['inputs'])}")
    print(f"samples: {json.dumps(log['samples'])}")
    for problem in failures[:20]:
        print(f"FAILED: {problem}")
    print(f"failed_ops = {failed}/{attempted} = {failed / max(attempted, 1):.4f} share")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
