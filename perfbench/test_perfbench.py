"""Tests of the benchmark itself: its inputs, its checkers and its tracer."""

import contextlib
import io
import json
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath

import checks
import gen
import run
from spans import Tracer

HERE = Path(__file__).resolve().parent


def test_generator_is_deterministic_per_seed_and_differs_across_seeds():
    assert gen.point_block(3) == gen.point_block(3)
    assert gen.point_block(3) != gen.point_block(4)
    assert gen.chain_input(5) == gen.chain_input(5) != gen.chain_input(6)


def test_block_mix_and_ranges():
    block = gen.point_block(7)
    assert block[0]["cls"] == "cold" and block[0]["k"] == gen.COLD_K
    assert block[0]["n"] == gen.COLD_N
    rest = block[1:]
    assert len(rest) == gen.BLOCK
    assert sum(q["cls"] == "threshold" for q in rest) == gen.THRESHOLD_PER_BLOCK
    for q in rest:
        p = Fraction(q["p"])
        assert 0 < p < 1
        if q["cls"] == "bulk":
            assert 1 <= q["n"] <= gen.BULK_N_MAX and p.denominator <= gen.BULK_DEN_MAX
        else:
            assert 1 <= q["n"] <= gen.THRESHOLD_N_MAX
    stats = gen.describe_queries(block)
    assert stats["classes"]["threshold"]["count"] == gen.THRESHOLD_PER_BLOCK


def test_threshold_points_lie_within_2_pow_minus_k_on_their_side():
    with mpmath.workprec(4500):
        c = mpmath.log(mpmath.mpf(4) / 3)
        for q in gen.point_block(11):
            if q["k"] is None:
                continue
            p = Fraction(q["p"])
            gap = q["n"] * mpmath.mpf(p.numerator) / p.denominator - c
            assert (gap > 0) == (q["side"] == gen.THEOREM)
            assert abs(gap) <= mpmath.ldexp(1, -q["k"])


def test_chain_cell_count_matches_the_sweep_at_grid_1000():
    # main_proof_sweep(40, grid=1000) reports 38753 cells
    assert gen.chain_cells(40, 1000) == 38753


def test_generating_inputs_imports_no_binexceed():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import gen; "
            "gen.point_block(1); gen.chain_input(1); "
            "print('binexceed' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, str(HERE)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def _cli_output(query):
    from binexceed import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["check", str(query["n"]), query["p"]])
    return code, buf.getvalue()


def test_query_checker_counts_a_wrong_verdict_as_a_failure():
    block = gen.point_block(2)
    for side in (gen.THEOREM, gen.PROPOSITION):
        query = next(q for q in block if q["cls"] == "threshold" and q["side"] == side)
        code, text = _cli_output(query)
        assert checks.check_query_output(query, code, text) == []
        assert checks.check_query_output(query, code, text.replace(": TRUE", ": FALSE"))
        assert checks.check_query_output(query, 1, text)
        flipped = {**query, "side": gen.PROPOSITION if side == gen.THEOREM else gen.THEOREM}
        assert checks.check_query_output(flipped, code, text)


def _chain_report(census_names, total_cells, n_max=2):
    steps = [{"step_id": f"all_steps_verified_n{n}", "verdict": "TRUE", "witnesses": []}
             for n in range(1, n_max + 1)]
    witnesses = [{"name": "total_cells", "rational": str(total_cells)}]
    witnesses += [{"name": name, "rational": "0"} for name in census_names]
    steps.append({"step_id": "equality_census", "verdict": "TRUE", "witnesses": witnesses})
    return {"passed": True, "steps": steps}


def test_chain_checker_needs_the_exact_census_and_cell_count():
    good = ["equality at n=2, p=1/2"]
    assert checks.check_chain_report(_chain_report(good, 10), 2, 10) == []
    assert checks.check_chain_report(_chain_report(good, 11), 2, 10)
    assert checks.check_chain_report(_chain_report([], 10), 2, 10)
    assert checks.check_chain_report(
        _chain_report(good + ["equality at n=4, p=1/2"], 10), 2, 10)
    failing = _chain_report(good, 10)
    failing["steps"][0]["verdict"] = "FALSE"
    assert checks.check_chain_report(failing, 2, 10)


def test_failed_ops_count_wrong_verdicts_and_crashed_sessions():
    job = {"queries": [{}, {}, {}]}
    ok = {"ops": [{"problems": []}, {"problems": ["bound verdict ['FALSE']"]},
                  {"problems": []}]}
    attempted, failed, problems = run.count_failures([(job, ok), (job, {"error": "exit 1"})])
    assert (attempted, failed) == (6, 4)
    assert "exit 1" in problems


def test_end_to_end_scales_times_by_the_reference_kernel():
    ref = run.REF_MS
    # the second session ran at half speed: its kernel took twice as long
    fast = {"wall_s": 0.4, "peak_rss_mb": 20.0, "setup_s": 0.1, "refs_ms": [ref, ref],
            "ops": [{"ms": 100.0, "ref_ms": ref}, {"ms": 200.0, "ref_ms": ref},
                    {"ms": 2.0, "ref_ms": ref}]}
    slow = {"wall_s": 0.8, "peak_rss_mb": 22.0, "setup_s": 0.3, "refs_ms": [2 * ref, ref],
            "ops": [{"ms": 300.0, "ref_ms": 2 * ref}, {"ms": 400.0, "ref_ms": 2 * ref},
                    {"ms": 4.0, "ref_ms": 2 * ref}]}
    metrics, samples = run.end_to_end([fast, slow, {"error": "exit 1"}])
    assert metrics["cold_query_ms"] == 125.0           # median of 100 and 300 / 2
    assert metrics["wall_s"] == (125.0 + 200.0 + 2.0) / 1e3
    assert metrics["setup_s"] == 0.125 and metrics["peak_rss_mb"] == 21.0
    assert samples["sessions"] == 2
    assert samples["unscaled_fastest"]["wall_s"] == (100.0 + 200.0 + 2.0) / 1e3
    assert list(metrics) == list(run.END_TO_END)


def test_reference_kernel_runs_between_query_groups_of_untraced_sessions():
    queries = gen.point_block(4)[:12]
    job = {"kind": "point_queries", "queries": queries}
    out = subprocess.run([sys.executable, str(HERE / "session.py")], input=json.dumps(job),
                         capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    refs = result["refs_ms"]
    assert len(refs) == 3 and all(ms > 0 for ms in refs)
    assert [op["ref_ms"] for op in result["ops"]] == (
        [(refs[0] + refs[1]) / 2] * 10 + [(refs[1] + refs[2]) / 2] * 2)


def test_reference_ticker_reads_the_kernel_during_a_long_call():
    import session
    before = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    with session.ReferenceTicker() as ticker:
        while time.perf_counter() - t0 < 1.3:
            pass
    assert len(ticker.readings) >= 2 and all(ms > 0 for ms in ticker.readings)
    assert sum(ticker.readings) / 1e3 <= ticker.spent_s < 1.3
    assert signal.getsignal(signal.SIGALRM) == before


def test_traced_session_reports_every_layer_metric():
    queries = gen.point_block(4)[:3]
    job = {"kind": "point_queries", "queries": queries, "trace": True, "run_id": "test"}
    out = subprocess.run([sys.executable, str(HERE / "session.py")], input=json.dumps(job),
                         capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    assert all(not op["problems"] for op in result["ops"])
    from_session = {name for name in run.PER_LAYER
                    if not name.startswith(("trace.", "probe.", "binom.large_n"))}
    assert from_session <= set(result["layers"])
    assert result["layers"]["enclosure.compare.max_bits"] == 4096
    assert result["layers"]["trace.probe_errors"] == 0


def test_self_time_subtracts_child_spans():
    tracer = Tracer("test")
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()
        inner()
    outer = tracer.wrap("outer", outer_body)
    outer()
    calls, self_s, incl_s = tracer.totals()
    assert calls == {"inner": 2, "outer": 1}
    assert 0.01 <= self_s["outer"] < incl_s["outer"] - 0.035
    assert self_s["inner"] == incl_s["inner"]
    assert list(tracer.parent) == [-1, 0, 0]


def test_benchmark_json_names_every_metric_with_its_unit():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
