#!/usr/bin/env python3
"""currikit benchmark: closed-loop workloads with checked outputs.

Run one workload::

    python3 perfbench/run.py --workload compile-mixed-bytes --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
is a separate run that alternates untraced and traced cycles and reports
per-layer self times and counts. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

With no ``--workload`` every workload runs, each in its own process, once
untraced and once traced, and every metric is printed under the name the
benchmark's documentation gives it.

The package is imported from ``src/`` of the checkout this file sits in;
inputs and outputs live under ``.bench_cache/`` there.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".bench_cache"
PINS = HERE / "pins.json"

SETUP_REPEATS = 15

# Machine-speed reference. On a shared host the same Python code runs up to
# twice as slow for seconds at a time while a neighbour is busy, so a raw
# rate tracks the neighbour as much as the program. In untraced runs every
# timed operation is bracketed by a fixed pure-Python reference loop, and its
# time is scaled by the reference's nominal over measured duration: rates
# read as if the host ran at the speed where one chunk takes
# REFERENCE_CHUNK_S. Both brackets together last about REFERENCE_SHARE of the
# operation's warm-up time, capped at REFERENCE_MAX_CHUNKS chunks a side.
REFERENCE_CHUNK_S = 0.04
REFERENCE_SHARE = 0.5
REFERENCE_MAX_CHUNKS = 60
REFERENCE_BYTES = bytes(range(256)) * 800

# Imports currikit, resolves the tokenizer spec and loads the corpus config:
# the set-up every compile pays before its first block.
SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import currikit
from currikit.corpus import load_corpus_config
from currikit.tokenizer import resolve_spec
resolve_spec(sys.argv[2])
if sys.argv[3]:
    load_corpus_config(sys.argv[3])
print(time.perf_counter() - t0)
"""

# Writes one workload's inputs for one seed into the input cache.
GENERATE_SNIPPET = """
import sys
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import inputs, workloads
name, seed = sys.argv[4], int(sys.argv[5])
inputs.cached(Path(sys.argv[3]), name, seed, workloads.WORKLOADS[name].build_inputs)
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "primary_per_s": "1/s",
    "secondary_per_s": "1/s",
}

# Per-layer self times: metric -> span name.
SELF_TIMES = {
    "cli_s": "cli",
    "pipeline.compile_s": "pipeline.compile",
    "corpus.read_s": "corpus.read",
    "corpus.sample_s": "corpus.sample",
    "tokenizer.load_s": "tokenizer.load",
    "tokenizer.encode_s": "tokenizer.encode",
    "tokenizer.count_tokens_s": "tokenizer.count_tokens",
    "packing.pack_s": "packing.pack",
    "packing.format_pair_s": "packing.format_pair",
    "packing.split_sentences_s": "packing.split_sentences",
    "packing.checksum_s": "packing.checksum",
    "shards.write_s": "shards.write",
    "shards.audit_s": "shards.audit",
    "shards.hash_s": "shards.hash",
    "schedule.build_s": "schedule.build",
    "schedule.validate_s": "schedule.validate",
    "schedule.to_json_s": "schedule.to_json",
    "schedule.from_json_s": "schedule.from_json",
    "evaluate.tokenize_s": "evaluate.tokenize",
    "evaluate.bleu_s": "evaluate.bleu",
    "evaluate.signif_s": "evaluate.signif",
    "rng.coin_s": "rng.coin",
    "rng.shuffle_s": "rng.shuffle",
    "rng.indices_s": "rng.indices",
}

# Per-layer call counts: metric -> span name.
CALL_COUNTS = {
    "tokenizer.encode_calls": "tokenizer.encode",
    "tokenizer.count_tokens_calls": "tokenizer.count_tokens",
    "packing.checksum_calls": "packing.checksum",
    "rng.indices_calls": "rng.indices",
}

PER_LAYER_UNITS = {
    **{name: "s" for name in SELF_TIMES},
    **{name: "count" for name in CALL_COUNTS},
    "packing.tokens_in": "count",
    "packing.discarded_tokens": "count",
    "packing.fill_ratio": "ratio",
    "corpus.records_read": "count",
    "corpus.rows_skipped": "count",
    "shards.bytes_read": "bytes",
    "shards.bytes_written": "bytes",
    "schedule.shuffle_attempts_per_batch": "ratio",
    "schedule.manifest_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_share": "ratio",
}


@dataclass
class Cycle:
    """One pass over a workload's operations."""

    traced: bool
    wall: float = 0.0  # summed wall time of the timed calls
    # rate metric -> seconds, scaled to the reference speed when one is given
    times: dict[str, float] = field(default_factory=dict)
    units: dict[str, float] = field(default_factory=dict)  # rate metric -> work units
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)  # per-layer metrics if traced
    elapsed: dict[str, float] = field(default_factory=dict)  # op name -> raw seconds


def reference_chunk() -> tuple[int, int, int]:
    """Fixed interpreter-bound work: integer hashing, dict stores, str building."""
    h = 0xCBF29CE484222325
    seen: dict[int, int] = {}
    parts = []
    for i, b in enumerate(REFERENCE_BYTES):
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        if b & 7 == 0:
            seen[h & 1023] = i
        if b & 63 == 0:
            parts.append(str(h))
    return h, len(seen), len("".join(parts))


def reference_s(chunks: int) -> float:
    t0 = time.perf_counter()
    for _ in range(chunks):
        reference_chunk()
    return time.perf_counter() - t0


def reference_chunks(warmup: Cycle) -> dict[str, int]:
    """Reference chunks per side for each op, from its warm-up time."""
    return {
        name: max(1, min(REFERENCE_MAX_CHUNKS,
                         round(elapsed * REFERENCE_SHARE / (2 * REFERENCE_CHUNK_S))))
        for name, elapsed in warmup.elapsed.items()
    }


def import_package() -> None:
    """Import currikit from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import currikit

    if not Path(currikit.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"currikit imported from {currikit.__file__}, not {SRC}")


def measure_setup(tokenizer: str, config: str | None) -> float:
    """Median set-up time over fresh interpreters, after one warm-up."""
    argv = [sys.executable, "-I", "-c", SETUP_SNIPPET, str(SRC), tokenizer, config or ""]
    samples = []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=120)
        if i:
            samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def generate_inputs(name: str, seed: int) -> Path:
    """Cached inputs for a seed, generated in a child process if missing.

    Generation holds whole files in memory; doing it in a child keeps that
    out of this process's peak RSS, which is a metric of the operations.
    The child is a plain interpreter that is waited for, so it starts no
    helper processes that could outlive the benchmark.
    """
    import inputs

    directory = inputs.cache_dir(CACHE / "inputs", name, seed)
    if not inputs.is_cached(directory):
        argv = [sys.executable, "-I", "-c", GENERATE_SNIPPET,
                str(SRC), str(HERE), str(CACHE / "inputs"), name, str(seed)]
        done = subprocess.run(argv, timeout=600)
        if done.returncode != 0 or not inputs.is_cached(directory):
            raise RuntimeError(f"input generation for {name} seed {seed} failed")
    return directory


def run_cycle(ops, tracer=None, reference: dict[str, int] | None = None) -> Cycle:
    """Run each op once; ``reference`` (op name -> chunks a side) scales op times."""
    from spans import root_time, totals_by_name

    cycle = Cycle(traced=tracer is not None)
    state: dict = {}
    if tracer is not None:
        tracer.counters.clear()
        n_counters = len(tracer.read_counters)
        base = tracer.mark()
        tracer.install()
    try:
        for op in ops:
            cycle.attempted += 1
            try:
                if op.prepare is not None:
                    op.prepare()
                chunks = reference.get(op.name, 1) if reference is not None else 0
                before = reference_s(chunks)
                t0 = time.perf_counter()
                result = op.run(state)
                elapsed = time.perf_counter() - t0
                after = reference_s(chunks)
                op.check(state, result)
            except Exception as exc:  # a failed operation is counted, not fatal
                cycle.failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
                continue
            cycle.wall += elapsed
            cycle.elapsed[op.name] = elapsed
            scaled = elapsed * (2 * chunks * REFERENCE_CHUNK_S / (before + after)) if chunks else elapsed
            for metric, units in op.units.items():
                cycle.times[metric] = cycle.times.get(metric, 0.0) + scaled
                cycle.units[metric] = cycle.units.get(metric, 0.0) + units
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        spans = tracer.spans(base)
        totals = totals_by_name(spans, base)
        cycle.layers = layer_metrics(
            totals, tracer.counters, tracer.read_counters[n_counters:],
            covered=root_time(spans, base), wall=cycle.wall,
        )
    return cycle


def layer_metrics(totals, counters, read_counters, covered: float, wall: float) -> dict:
    out = {m: totals.get(span, (0.0, 0))[0] for m, span in SELF_TIMES.items()}
    out.update({m: totals.get(span, (0.0, 0))[1] for m, span in CALL_COUNTS.items()})
    tokens_in = counters.get("packing.tokens_in", 0)
    out["packing.tokens_in"] = tokens_in
    out["packing.discarded_tokens"] = counters.get("packing.discarded_tokens", 0)
    out["packing.fill_ratio"] = (
        counters.get("packing.placed_tokens", 0) / tokens_in if tokens_in else 0.0
    )
    out["corpus.records_read"] = sum(c.records for c in read_counters)
    out["corpus.rows_skipped"] = sum(c.skipped for c in read_counters)
    out["shards.bytes_read"] = counters.get("shards.bytes_read", 0)
    out["shards.bytes_written"] = counters.get("shards.bytes_written", 0)
    batches = counters.get("schedule.batches", 0)
    shuffles = totals.get("rng.shuffle", (0.0, 0))[1]
    out["schedule.shuffle_attempts_per_batch"] = shuffles / batches if batches else 0.0
    out["schedule.manifest_bytes"] = counters.get("schedule.manifest_bytes", 0)
    out["trace.unattributed_share"] = max(0.0, 1.0 - covered / wall) if wall else 0.0
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the result object printed as JSON."""
    import workloads
    from spans import Tracer

    workload = workloads.WORKLOADS[name]
    pins = json.loads(PINS.read_text(encoding="utf-8")) if PINS.exists() else {}
    pinned = pins.get(name, {}).get(str(seed))
    if pinned is None:
        print(f"note: no pinned references for {name} seed {seed}; "
              f"operations are checked against the run's first result", file=sys.stderr)

    t0 = time.perf_counter()
    input_dir = None
    if workload.build_inputs is not None:
        input_dir = generate_inputs(name, seed)
    generate_s = time.perf_counter() - t0

    work = CACHE / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = workloads.Context(seed, input_dir, work, workloads.References(pinned))
    ops = workload.make_ops(ctx)
    try:
        setup_s = None
        if not trace:
            setup_s = measure_setup(workload.tokenizer(ctx), workload.config(ctx))
        tracer = Tracer() if trace else None
        cycles: list[Cycle] = []
        # The first cycle runs slower (allocator and file system warm-up), so
        # it is left out; its op times size the reference brackets.
        warm = run_cycle(ops)
        reference = None if tracer is not None else reference_chunks(warm)
        start = time.perf_counter()
        while True:
            # A traced run alternates traced and untraced cycles, so the
            # tracing overhead is measured against the same run's own figures.
            traced = tracer is not None and len(cycles) % 2 == 0
            t0 = time.perf_counter()
            cycles.append(run_cycle(ops, tracer if traced else None, reference))
            now = time.perf_counter()
            # Stop before a cycle that would run past the measuring time, once
            # one has run (two in a traced run: one traced, one not).
            if len(cycles) >= (2 if tracer else 1) and now - start + (now - t0) > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(c.attempted for c in [warm] + cycles)
    failures = [f for c in [warm] + cycles for f in c.failures]
    for failure in failures[:20]:
        print(f"failed: {failure}", file=sys.stderr)
    clean = [c for c in cycles if not c.failures]

    if trace:
        metrics = traced_metrics(clean)
        spans_path = CACHE / "traces" / f"{name}-seed{seed}.tsv"
        write_spans(tracer, spans_path)
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        for rate in ("primary", "secondary"):
            metrics[f"{rate}_per_s"] = median_rate(clean, rate)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    print(f"workload {name}, seed {seed}: {len(cycles)} cycles "
          f"(+1 warm-up), {attempted} operations, {len(failures)} failed; "
          f"inputs generated or loaded in {generate_s:.3f} s (not part of setup_s)")
    for metric, value in metrics.items():
        label = workload.rate_names.get(metric.removesuffix("_per_s"), "")
        print(f"  {metric:<38} {value:>16.6g} {units[metric]:<6} {label}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }


def median_rate(cycles: list[Cycle], rate: str) -> float:
    values = [c.units[rate] / c.times[rate] for c in cycles if c.times.get(rate)]
    return statistics.median(values) if values else 0.0


def traced_metrics(cycles: list[Cycle]) -> dict:
    traced = [c for c in cycles if c.traced]
    plain = [c for c in cycles if not c.traced]
    if not traced:
        return {m: 0.0 for m in PER_LAYER_UNITS}
    metrics = {m: statistics.median(c.layers[m] for c in traced) for m in traced[0].layers}
    if plain:
        metrics["trace.overhead_ratio"] = (
            statistics.median(c.wall for c in traced) / statistics.median(c.wall for c in plain)
        )
    else:
        metrics["trace.overhead_ratio"] = 0.0
    return {m: metrics[m] for m in PER_LAYER_UNITS}


def write_spans(tracer, path: Path) -> None:
    """All spans as TSV: index, name, start, end, parent (-1 for a root)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = (
        f"{i}\t{n}\t{s:.9f}\t{e:.9f}\t{p}\n"
        for i, (n, s, e, p) in enumerate(tracer.spans())
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index\tname\tstart\tend\tparent\n")
        fh.writelines(rows)


def run_all(seed: int, seconds: float) -> dict:
    """Every workload, untraced then traced, each in its own process."""
    import workloads

    results = {}
    for name, workload in workloads.WORKLOADS.items():
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            sys.stdout.write("".join(done.stdout.splitlines(keepends=True)[:-1]))
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                raise SystemExit(f"{name} --trace {trace} exited with {done.returncode}")
            results[(name, trace)] = json.loads(done.stdout.splitlines()[-1])

    print("\nend-to-end metrics (untraced runs)")
    summary = {}
    attempted = failed = 0
    for name, workload in workloads.WORKLOADS.items():
        both = (results[(name, 0)], results[(name, 1)])
        for metric, entry in both[0]["metrics"].items():
            named = workload.rate_names.get(metric.removesuffix("_per_s"), metric)
            summary[f"{name}.{named}"] = entry
        tried = sum(r["attempted"] for r in both)
        lost = sum(r["failed"] for r in both)
        summary[f"{name}.failed_ops_ratio"] = {"value": lost / tried, "unit": "ratio"}
        attempted += tried
        failed += lost
    for key, entry in summary.items():
        print(f"  {key:<58} {entry['value']:>16.6g} {entry['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": summary}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="workload name (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload is not None and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    try:
        import_package()
    except ImportError as exc:
        print(f"error: cannot import currikit from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.workload is None:
        result = run_all(args.seed, args.seconds)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
