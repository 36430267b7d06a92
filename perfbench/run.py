"""alephcalc benchmark: one workload, untraced (end-to-end) or traced (per layer).

    python3 perfbench/run.py --workload batch_session --seed 1 --seconds 30 --trace 0

Run from any directory; the repository root is this file's parent's parent.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the run's settings.  See perfbench/README.md for every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
NEEDED = (SRC / "alephcalc" / "__init__.py", ROOT / "tests" / "oracles.py",
          ROOT / "tests" / "data" / "golden_session.expected.jsonl")
WORKLOAD_NAMES = ("batch_session", "engine_sweep", "cli_oneshot")
PERCENTILES = (99.9, 99.0, 90.0, 75.0, 50.0)
TAIL_BLOCKS = 8
TAIL_BLOCK_MIN = 10_000
LATENCY_SLOTS = 600_000  # preallocated, so that RSS does not grow with the sample count
SETUP_PROBES = 11
FAILURES_SHOWN = 5


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def probe(args: list[str]) -> float:
    """Scaled seconds a fresh interpreter reports from setup_probe.py."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), *args],
                          capture_output=True, text=True, env=env, cwd=ROOT, timeout=60)
    if proc.returncode != 0:
        fail(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout)


def median_probe(args: list[str], count: int) -> float:
    probe(args)  # the first import may compile bytecode; not a fresh-start cost
    return statistics.median(probe(args) for _ in range(count))


def tail_percentile(n: int) -> float:
    """Highest percentile of the ladder with at least ten samples beyond it."""
    for p in PERCENTILES:
        if n * (1 - p / 100) >= 10:
            return p
    return 50.0


def nearest_rank(sorted_values, p: float) -> float:
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def tail(samples) -> tuple[float, float, int]:
    """(value, percentile, blocks): the median over time-ordered blocks of each
    block's tail percentile, so that one burst of machine noise moves one
    block and not the result."""
    blocks = max(1, min(TAIL_BLOCKS, len(samples) // TAIL_BLOCK_MIN))
    size = len(samples) // blocks
    p = tail_percentile(size)
    value = statistics.median(
        nearest_rank(sorted(samples[i * size:(i + 1) * size]), p) for i in range(blocks))
    return value, p, blocks


class Gate:
    """Counts attempted and failed ops; keeps the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.shown: list[str] = []

    def add(self, attempted: int, problems: list[str]) -> int:
        failed = min(len(problems), attempted)
        self.attempted += attempted
        self.failed += failed
        self.shown.extend(problems[: FAILURES_SHOWN - len(self.shown)])
        return failed


def measure(workload, seconds: float, gate: Gate) -> dict:
    """Closed loop for ``seconds`` of wall clock; rounds timed one by one."""
    warm = workload.next_round()
    warm_result = workload.run_round(warm)
    gate.add(warm_result.attempted, workload.check_round(warm, warm_result))
    latencies = array("d", bytes(8 * LATENCY_SLOTS))
    count = 0
    rates = []
    scales = []
    peak_child_kb = 0
    before = workload.scale()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not rates:
        ops = workload.next_round()
        result = workload.run_round(ops)
        after = workload.scale()
        scale = (before + after) / 2
        before = after
        failed = gate.add(result.attempted, workload.check_round(ops, result))
        rates.append((result.attempted - failed) / result.elapsed / scale)
        scaled = array("d", (x * scale for x in result.latencies))
        if count + len(scaled) <= len(latencies):
            latencies[count:count + len(scaled)] = scaled
        else:
            del latencies[count:]
            latencies.extend(scaled)
        count += len(scaled)
        scales.append(scale)
        peak_child_kb = max(peak_child_kb, result.peak_rss_kb)
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    samples = latencies[:count]
    tail_value, pct, blocks = tail(samples)
    return {
        "throughput_ops_s": statistics.median(rates),
        "latency_p50_us": statistics.median(samples) * 1e6,
        "latency_tail_us": tail_value * 1e6,
        "peak_rss_mb": (peak_child_kb or own_kb) / 1024,
        "_scale": statistics.median(scales),
        "_tail_percentile": pct,
        "_tail_blocks": blocks,
        "_samples": count,
        "_rounds": len(rates),
    }


UNITS = {"throughput_ops_s": "1/s", "latency_p50_us": "us", "latency_tail_us": "us",
         "setup_s": "s", "peak_rss_mb": "MB"}


def untraced(workload, args, gate: Gate) -> tuple[dict, dict]:
    setup_s = median_probe([workload.name], SETUP_PROBES)
    found = measure(workload, args.seconds, gate)
    found["setup_s"] = setup_s
    metrics = {name: {"value": found[name], "unit": unit} for name, unit in UNITS.items()}
    info = {"tail_percentile": found["_tail_percentile"], "samples": found["_samples"],
            "tail_blocks": found["_tail_blocks"], "rounds": found["_rounds"],
            "median_scale": found["_scale"]}
    return metrics, info


def run_trace_work(workload, rounds, gate: Gate, tracer=None, repeats=None) -> tuple[int, float]:
    """One pass over the workload's fixed trace work; returns (ops, seconds)."""
    ops = 0
    elapsed = 0.0
    for rnd in rounds:
        if tracer is not None:
            tracer.op = ops
        if repeats is not None and workload.name == "cli_oneshot":
            repeats.seen.clear()  # every op is a new process, so nothing outlives it
        result = workload.run_round(rnd)
        gate.add(result.attempted, workload.check_round(rnd, result))
        ops += result.attempted
        elapsed += result.elapsed
    return ops, elapsed


def traced(workload, args, gate: Gate) -> tuple[dict, dict]:
    import tracing

    import_s = median_probe(["--import-cli"], SETUP_PROBES)
    if workload.name == "cli_oneshot":
        workload.in_process = True  # spans are taken in this interpreter
    rounds = workload.trace_rounds()
    run_trace_work(workload, rounds, gate)  # warm-up
    rates = []
    deadline = time.perf_counter() + args.seconds
    before = calibrate.scale()
    while time.perf_counter() < deadline or not rates:
        ops, elapsed = run_trace_work(workload, rounds, gate)
        after = calibrate.scale()
        rates.append(ops / elapsed / ((before + after) / 2))
        before = after

    spans = tracing.SpanTracer()
    spans.install()
    try:
        ops, elapsed = run_trace_work(workload, rounds, gate, spans)
    finally:
        spans.uninstall()
    scale = (before + calibrate.scale()) / 2
    repeats = tracing.RepeatCounter()
    repeats.install()
    try:
        run_trace_work(workload, rounds, gate, repeats=repeats)
    finally:
        repeats.uninstall()

    per_name = spans.self_times()
    layer_calls = dict.fromkeys(tracing.LAYERS, 0)
    layer_self = dict.fromkeys(tracing.LAYERS, 0.0)
    for name, (calls, own) in per_name.items():
        layer = name.split(".")[0]
        layer_calls[layer] += calls
        layer_self[layer] += own

    def own_time(name):
        return per_name.get(name, (0, 0.0))[1] * scale / ops

    found = {}
    for layer in tracing.LAYERS:
        if layer != "cli":
            found[f"{layer}.calls"] = (layer_calls[layer], "count")
        found[f"{layer}.self_s"] = (layer_self[layer] * scale / ops, "s")
    for layer in tracing.ENGINE_LAYERS:
        found[f"{layer}.repeat_share"] = (repeats.share(layer), "share")
    found.update({
        "dsl.tokenize_s": (own_time("dsl.tokenize"), "s"),
        "dsl.parse_s": (own_time("dsl.parse"), "s"),
        "dsl.format_s": (own_time("dsl.format_statement"), "s"),
        "dsl.tokens": (spans.tokens, "count"),
        "evaluator.json_s": (own_time(tracing.JSON_SPAN), "s"),
        "evaluator.determined": (spans.verdicts["determined"], "count"),
        "evaluator.independent": (spans.verdicts["independent"], "count"),
        "evaluator.error": (spans.verdicts["error"], "count"),
        "cli.import_s": (import_s, "s"),
        "trace.overhead_ratio": (ops / elapsed / scale / statistics.median(rates), "ratio"),
    })
    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"{workload.name}-seed{args.seed}.spans.tsv.gz"
    spans.write(spans_file)
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(found.items())}
    return metrics, {"trace_ops": ops, "spans": len(spans.span_name), "spans_file": str(spans_file.relative_to(ROOT))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in NEEDED if not p.is_file()]
    if missing:
        fail(f"not a checkout of the repository: missing {', '.join(missing)}")
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    gate = Gate()
    try:
        metrics, info = (traced if args.trace else untraced)(workload, args, gate)
    finally:
        workload.close()
    info.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "fail_share": gate.failed / max(gate.attempted, 1), "problems": gate.shown,
    })
    print(json.dumps({"run": info}))
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
