"""One benchmark session: a fresh interpreter that runs one job and exits.

The job arrives as JSON on stdin; the result leaves as one JSON line on
stdout.  `import binexceed` is the first statement, so `setup_done` marks
the end of set-up as a user's `binexceed ...` command pays it, and every lru
cache in the package starts cold.  Run it through run.py, which sets
PYTHONPATH to the checkout's src/ and supplies the job.

Untraced sessions also time a fixed reference kernel between operations
(`reference_ms`), so that run.py can scale each operation's time by the
machine's speed at that moment.
"""

import binexceed
import time

SETUP_DONE = time.monotonic()

import contextlib
import io
import json
import resource
import signal
import statistics
import sys
from fractions import Fraction

import checks
from spans import LAYERS, Tracer


# ---------------------------------------------------------------------------
# the reference kernel: the machine's speed, independent of binexceed
# ---------------------------------------------------------------------------

QUERY_GROUP = 10      # point_queries times the kernel after every 10 queries
SWEEP_TICK_S = 0.5    # chain_sweep times it every 0.5 s during the sweep


def reference_ms() -> float:
    """ms for one pass of a fixed kernel that shares no code with binexceed.

    It copies the two kinds of work binexceed does, in about equal time: a
    binomial sum over big integers, the loop of binom.survival at n = 800
    with a 20-bit p; and small rationals as the sweep handles them, powers
    (1 - k/200)^n compared with 1/4 and printed as strings.  When the shared
    machine slows down, this mix slows by about as much as the queries and
    the sweep do, while either half alone does not.
    """
    t0 = time.perf_counter()
    a, b, n = 337_123, 1_000_003, 800
    qa = b - a
    total, coef, power = 0, 1, qa ** n
    for j in range(n * a // b):
        total += coef * power
        coef = coef * (n - j) // (j + 1)
        power = power * a // qa
    quarter = Fraction(1, 4)
    kept = []
    for n in range(1, 7):
        for k in range(1, 200):
            q = (1 - Fraction(k, 200)) ** n
            kept.append((f"{q.numerator}/{q.denominator}", q < quarter))
    return (time.perf_counter() - t0) * 1e3


class ReferenceTicker:
    """Runs the reference kernel every SWEEP_TICK_S seconds of a long call.

    A sweep is one call into binexceed, so the kernel cannot run between its
    steps from outside.  SIGALRM interrupts it instead: the handler runs the
    kernel between two bytecodes of the sweep, records the reading and the
    time it took, and the sweep's time leaves that time out.
    """

    def __init__(self):
        self.readings: list[float] = []
        self.spent_s = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.readings.append(reference_ms())
        self.spent_s += time.perf_counter() - t0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SWEEP_TICK_S, SWEEP_TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)


def run_chain_sweep(job: dict, tracer) -> dict:
    """One sweep; the timed region ends once its JSON report is verified.

    Untraced, the kernel runs once before the sweep and then on a timer
    during it (ReferenceTicker); the sweep's `ref_ms` is the mean of the
    readings taken during it, the machine's average speed over the sweep.
    """
    refs = [reference_ms()] if tracer is None else []
    ticker = ReferenceTicker() if tracer is None else contextlib.nullcontext()
    t0 = time.perf_counter()
    with ticker:
        report = binexceed.main_proof_sweep(job["n_max"], grid=job["grid"], jobs=1)
        text = report.to_json()
        problems = checks.check_chain_report(json.loads(text), job["n_max"],
                                             job["expected_cells"])
    wall = time.perf_counter() - t0
    kept = sum(len(step.witnesses) for step in report.steps)
    op = {"problems": problems}
    if refs:
        wall -= ticker.spent_s
        op["ref_ms"] = statistics.mean(ticker.readings or refs)
        refs += ticker.readings
    op["ms"] = wall * 1e3
    return {"ops": [op], "wall_s": wall, "refs_ms": refs,
            "report_bytes": len(text.encode()), "witnesses_kept": kept}


def run_point_queries(job: dict, tracer) -> dict:
    """Closed loop, one caller: the next query is sent when the last returns.

    Untraced, the reference kernel runs before the first query and after
    every QUERY_GROUP queries; a query's `ref_ms` is the mean of the two
    readings around its group.  wall_s is the queries' time alone.
    """
    ops = []
    refs = []
    output_bytes = 0
    for i, query in enumerate(job["queries"]):
        if tracer is not None:
            tracer.set_op(i)
        elif i % QUERY_GROUP == 0:
            refs.append(reference_ms())
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = binexceed.cli.main(["check", str(query["n"]), query["p"]])
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:   # a raised query is a failed op, not a crash
                code = repr(exc)
        text = out.getvalue()
        problems = checks.check_query_output(query, code, text)
        ms = (time.perf_counter() - t0) * 1e3
        output_bytes += len(text.encode())
        if problems and err.getvalue():
            problems.append(err.getvalue()[-200:])
        ops.append({"ms": ms, "n": query["n"], "cls": query["cls"], "problems": problems})
    if refs:
        refs.append(reference_ms())
        for i, op in enumerate(ops):
            group = i // QUERY_GROUP
            op["ref_ms"] = (refs[group] + refs[group + 1]) / 2
    return {"ops": ops, "wall_s": sum(op["ms"] for op in ops) / 1e3, "refs_ms": refs,
            "output_bytes": output_bytes}


def _timed_reps(fn, min_reps: int = 3, min_s: float = 0.3) -> float:
    """Median ms of fn() over at least min_reps calls that fill min_s."""
    times = []
    while len(times) < min_reps or sum(times) < min_s * 1e3:
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    times.sort()
    return times[len(times) // 2]


def run_probes(job: dict, tracer) -> dict:
    """Kernel rows of the baseline table: ln(4/3) and tail_gt_mean."""
    metrics = {}
    ops = []
    four_thirds = Fraction(4, 3)
    for bits in (64, 1024, 4096):
        enc = binexceed.ln_enclosure(four_thirds, bits)
        lo, hi = (Fraction(x) for x in job["ln43_bracket"])
        ok = enc.lo <= lo and hi <= enc.hi and enc.width == Fraction(1, 1 << bits)
        ops.append({"ms": 0.0, "problems": [] if ok else [f"ln(4/3) at {bits} bits"]})
        metrics[f"probe.ln43.b{bits}_ms"] = _timed_reps(
            lambda: binexceed.ln_enclosure(four_thirds, bits))
    p = Fraction(337, 1000)
    for n in (100, 1000, 10000):
        spec = binexceed.BinomialSpec(n, p)
        record = binexceed.tail_gt_mean(spec)
        ok = record.m == n * 337 // 1000 + 1 and Fraction(1, 4) < record.tail < 1
        ops.append({"ms": 0.0, "problems": [] if ok else [f"tail_gt_mean at n={n}"]})
        metrics[f"probe.tail_gt_mean.n{n}_ms"] = _timed_reps(
            lambda: binexceed.tail_gt_mean(spec))
    return {"ops": ops, "wall_s": 0.0, "probe_metrics": metrics}


RUNNERS = {
    "chain_sweep": run_chain_sweep,
    "point_queries": run_point_queries,
    "probes": run_probes,
}


# ---------------------------------------------------------------------------
# tracing: probes on arguments and results, then per-layer metrics
# ---------------------------------------------------------------------------

def _survival_probe(counters, args, kwargs, result) -> None:
    # terms summed by binom.survival, derived from its arguments
    spec = args[0] if args else kwargs["spec"]
    k = args[1] if len(args) > 1 else kwargs["k"]
    n, a, b = spec.n, spec.p.numerator, spec.p.denominator
    terms = 0 if k in (0, n + 1) or a in (0, b) else min(n - k + 1, k)
    counters["binom.survival.terms"] += terms
    counters["binom.survival.max_n"] = max(counters["binom.survival.max_n"], n)


def _compare_probe(counters, args, kwargs, result) -> None:
    # bits at which the comparison separated, and the doublings to get there
    bits = getattr(result.witness, "precision_bits", None)
    if bits is None:
        return
    start = max(kwargs.get("start_bits", args[4] if len(args) > 4 else 64), 8)
    refinements = 0
    while start < bits:
        start *= 2
        refinements += 1
    counters["enclosure.compare.refinements"] += refinements
    counters["enclosure.compare.max_bits"] = max(counters["enclosure.compare.max_bits"], bits)


PROBES = {
    "binom.survival": _survival_probe,
    "enclosure.compare_certified": _compare_probe,
}

# interval arithmetic runs in Enclosure's operators; without spans of their
# own it would count as self time of whichever layer called them
ARITHMETIC = tuple(f"enclosure.Enclosure.{op}" for op in (
    "__neg__", "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__"))


def _hit_ratio(*cached) -> float:
    """hits / lookups over the lru caches that still exist; 0 when none do."""
    hits = lookups = 0
    for fn in cached:
        info = getattr(fn, "cache_info", None)
        if info is None:
            continue
        stats = info()
        hits += stats.hits
        lookups += stats.hits + stats.misses
    return hits / lookups if lookups else 0.0


def layer_metrics(tracer: Tracer, result: dict) -> dict:
    calls, self_s, incl_s = tracer.totals()
    wall = result["wall_s"]

    def total(table, *names):
        return sum(table.get(name, 0) for name in names)

    metrics = {}
    for layer in LAYERS:
        layer_self = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
        metrics[f"{layer}.self_s"] = layer_self
        metrics[f"{layer}.share"] = layer_self / wall if wall else 0.0
    enclosure = sys.modules["binexceed.enclosure"]
    proofs = sys.modules["binexceed.proofs"]
    witness = ("report.rational_witness", "report.enclosure_witness")
    built = total(calls, *witness)
    counters = tracer.counters
    metrics.update({
        "enclosure.compare.calls": total(calls, "enclosure.compare_certified"),
        "enclosure.compare.self_s": total(self_s, "enclosure.compare_certified"),
        "enclosure.compare.refinements": counters["enclosure.compare.refinements"],
        "enclosure.compare.max_bits": counters["enclosure.compare.max_bits"],
        "enclosure.arith.calls": total(calls, *ARITHMETIC),
        "enclosure.arith.self_s": total(self_s, *ARITHMETIC),
        "enclosure.ln.calls": total(calls, "enclosure.ln_enclosure"),
        "enclosure.ln.self_s": total(self_s, "enclosure.ln_enclosure"),
        "enclosure.exp.calls": total(calls, "enclosure.exp_enclosure"),
        "enclosure.exp.self_s": total(self_s, "enclosure.exp_enclosure"),
        "enclosure.const_cache.hit_ratio": _hit_ratio(
            *(getattr(enclosure, name, None)
              for name in ("_c_cached", "_b_cached", "_ln2_tight"))),
        "binom.survival.calls": total(calls, "binom.survival"),
        "binom.survival.self_s": total(self_s, "binom.survival"),
        "binom.survival.terms": counters["binom.survival.terms"],
        "binom.survival.max_n": counters["binom.survival.max_n"],
        "bounds.check.calls": total(calls, "bounds.check_theorem", "bounds.check_proposition"),
        "bounds.check.self_s": total(self_s, "bounds.check_theorem",
                                     "bounds.check_proposition"),
        "proofs.cell.calls": total(calls, "proofs.verify_main_proof"),
        "proofs.cell.self_s": total(self_s, "proofs.verify_main_proof"),
        "proofs.chain_cache.hit_ratio": _hit_ratio(getattr(proofs, "_chain_value", None)),
        "report.witness.calls": built,
        "report.witness.self_s": total(incl_s, *witness),
        "report.witness.kept_ratio": result.get("witnesses_kept", 0) / built if built else 0.0,
        "report.to_json_s": total(incl_s, "report.ProofReport.to_json"),
        "report.bytes": result.get("report_bytes", 0),
        "cli.check.self_s": total(self_s, "cli.cmd_check"),
        "cli.output_bytes": result.get("output_bytes", 0),
        "trace.spans": len(tracer.start),
        "trace.probe_errors": counters["probe_errors"],
    })
    return metrics


def main() -> int:
    job = json.load(sys.stdin)
    tracer = None
    if job.get("trace"):
        tracer = Tracer(job["run_id"])
        methods = {span: (binexceed.Enclosure, span.rsplit(".", 1)[1]) for span in ARITHMETIC}
        methods["report.ProofReport.to_json"] = (binexceed.report.ProofReport, "to_json")
        tracer.install(binexceed, PROBES, methods)
    result = {"setup_done": SETUP_DONE}
    result.update(RUNNERS[job["kind"]](job, tracer))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, result)
        if job.get("spans_path"):
            tracer.write(job["spans_path"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
