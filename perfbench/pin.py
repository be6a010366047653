#!/usr/bin/env python3
"""Record reference outputs for the benchmark at the current commit.

Runs one cycle of each chosen workload per seed, with no timing, and
merges what every operation produced into ``perfbench/pins.json``. Run it
only at a commit whose outputs are known good; the benchmark then checks
every later commit against these values::

    python3 perfbench/pin.py --seeds 0-63
    python3 perfbench/pin.py --seeds 0-63 --workload score
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import shutil
import sys
from pathlib import Path

import run


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def observe(name: str, seed: int) -> dict:
    import inputs
    import workloads

    workload = workloads.WORKLOADS[name]
    scratch = run.CACHE / "pin" / f"{name}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        input_dir = None
        if workload.build_inputs is not None:
            input_dir = inputs.cached(scratch / "inputs", name, seed, workload.build_inputs)
        work = scratch / "work"
        work.mkdir(parents=True)
        ctx = workloads.Context(seed, input_dir, work, workloads.References(None))
        cycle = run.run_cycle(workload.make_ops(ctx))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if cycle.failures:
        raise SystemExit(f"{name} seed {seed} failed: {cycle.failures}")
    return ctx.refs.observed


def merge(pins_path: Path, name: str, seed: int, observed: dict) -> None:
    """Merge under an exclusive lock, so parallel invocations do not collide."""
    run.CACHE.mkdir(parents=True, exist_ok=True)
    with open(run.CACHE / "pins.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        pins = json.loads(pins_path.read_text(encoding="utf-8")) if pins_path.exists() else {}
        pins.setdefault(name, {})[str(seed)] = observed
        ordered = {
            w: dict(sorted(by_seed.items(), key=lambda kv: int(kv[0])))
            for w, by_seed in sorted(pins.items())
        }
        tmp = pins_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(ordered, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        tmp.replace(pins_path)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-63 or 0,5,9")
    parser.add_argument("--workload", action="append", help="default: every workload")
    args = parser.parse_args()
    run.import_package()
    import workloads

    names = args.workload or list(workloads.WORKLOADS)
    for name in names:
        for seed in parse_seeds(args.seeds):
            merge(run.PINS, name, seed, observe(name, seed))
            print(f"pinned {name} seed {seed}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
