#!/usr/bin/env python3
"""Compile one corpus under every curriculum strategy and audit the results.

For each strategy this prints the block composition, the discarded token
counts, and the audit verdict, which is a quick way to sanity-check a new
corpus configuration before scaling the budget up. A strategy the corpus
cannot feed is reported as ``skipped:`` with the reason.

Example:
    python scripts/make_synthetic_corpus.py --root /tmp/corpus --pairs 20000 --docs 400
    python scripts/compile_all_strategies.py --config /tmp/corpus/corpus.json \\
        --out /tmp/runs --blocks 8 --batch-blocks 4 --seed 0
"""

import argparse
from pathlib import Path

from currikit.cli import batch_blocks, positive_int
from currikit.corpus import ShortfallError
from currikit.packing import BLOCK_TOKENS
from currikit.pipeline import CompileError, compile_corpus
from currikit.schedule import Strategy
from currikit.shards import audit_shards
from currikit.tokenizer import resolve_spec


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, help="corpus configuration JSON")
    parser.add_argument("--out", required=True, help="directory for per-strategy runs")
    parser.add_argument("--blocks", type=positive_int, default=16,
                        help="token budget in blocks, at least one batch")
    parser.add_argument("--batch-blocks", type=batch_blocks, default=4,
                        help="blocks per batch, a positive multiple of 4")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tokenizer", default="byte_fallback",
                        help="'byte_fallback' or a vocabulary file path")
    args = parser.parse_args(argv)
    if args.blocks < args.batch_blocks:
        parser.error(f"--blocks {args.blocks} is below one batch of {args.batch_blocks} blocks")
    try:
        resolve_spec(args.tokenizer)
    except (ValueError, OSError) as exc:
        parser.error(f"argument --tokenizer: {exc}")

    out_root = Path(args.out)
    budget = args.blocks * BLOCK_TOKENS
    for strategy in Strategy:
        out_dir = out_root / strategy.value
        print(f"\n=== {strategy.value} ===")
        try:
            result = compile_corpus(
                sources=args.config,
                strategy=strategy,
                token_budget=budget,
                batch_size_blocks=args.batch_blocks,
                seed=args.seed,
                out_dir=out_dir,
                tokenizer_ref=args.tokenizer,
            )
        except (CompileError, ShortfallError) as exc:
            print(f"skipped: {exc}")
            continue
        counts = result.manifest.kind_counts()
        print("blocks:", ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
        discards = result.manifest.metadata.get("discards", {})
        wasted = sum(d["discarded_tokens"] for d in discards.values())
        print(f"discarded tokens across streams: {wasted:,}")
        report = audit_shards(out_dir)
        print(report.render().splitlines()[-1])


if __name__ == "__main__":
    main()
