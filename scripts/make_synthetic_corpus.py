#!/usr/bin/env python3
"""Generate a synthetic multilingual corpus for pipeline experiments.

Writes monolingual text files, english/SEA bitext TSVs, replay JSONL, and
a corpus.json configuration. Everything is deterministic in the seed.

Example:
    python scripts/make_synthetic_corpus.py --root /tmp/corpus \\
        --languages id,th --pairs 20000 --docs 400 --seed 0
"""

import argparse
from pathlib import Path

from currikit.cli import language_codes, non_negative_int, positive_int
from currikit.synthetic import write_corpus


def sea_language_codes(text: str) -> list[str]:
    """argparse type for known SEA codes separated by commas, each once."""
    codes = language_codes(text)
    if "en" in codes:
        raise argparse.ArgumentTypeError("English is implicit; list SEA languages")
    if len(set(codes)) < len(codes):
        raise argparse.ArgumentTypeError(f"a language is listed twice in {text!r}")
    return codes


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, help="output directory")
    parser.add_argument("--languages", type=sea_language_codes, default="id,th",
                        help="comma-separated SEA ISO codes")
    parser.add_argument("--pairs", type=non_negative_int, default=20_000,
                        help="bitext rows per language")
    parser.add_argument("--docs", type=non_negative_int, default=400,
                        help="monolingual docs per language")
    parser.add_argument("--sentences-per-doc", type=positive_int, default=40)
    parser.add_argument("--replay-files", type=positive_int, default=2,
                        help="replay files; every strategy interleaves replay data")
    parser.add_argument("--replay-docs", type=positive_int, default=None,
                        help="docs per replay file (default: --docs)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.replay_docs is None and args.docs == 0:
        parser.error("--docs 0 leaves the replay files empty; give --replay-docs")

    config = write_corpus(
        Path(args.root),
        languages=tuple(args.languages),
        n_pairs=args.pairs,
        n_docs=args.docs,
        sentences_per_doc=args.sentences_per_doc,
        replay_files=args.replay_files,
        replay_docs=args.replay_docs,
        seed=args.seed,
    )
    print(f"corpus configuration: {config}")


if __name__ == "__main__":
    main()
