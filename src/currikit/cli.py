"""Command-line entry point.

Subcommands: compile, audit, stats, prompts, bleu, signif, aggregate.
Every subcommand is deterministic given its flags and seed, and the
evaluation subcommands need no compiled corpus.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from typing import Callable

from .corpus import corpus_stats, language, load_corpus_config, read_parallel
from .evaluate import (
    ResultTable,
    aggregate,
    bleu,
    build_prompts,
    paired_bootstrap,
    read_lines,
)
from .packing import BLOCK_TOKENS
from .pipeline import compile_corpus
from .schedule import REPLAY_DIVISOR, STRATEGY_KINDS, Strategy
from .shards import audit_shards, shard_stats
from .tokenizer import resolve_spec


def _int_flag(text: str, ok: Callable[[int], bool], expected: str) -> int:
    """``text`` as an integer that ``ok`` accepts, else the argparse error."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or not ok(value):
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return value


def positive_int(text: str) -> int:
    """argparse type for a count that must be at least 1."""
    return _int_flag(text, lambda v: v >= 1, "a positive integer")


def non_negative_int(text: str) -> int:
    """argparse type for a count that may be 0."""
    return _int_flag(text, lambda v: v >= 0, "a non-negative integer")


def batch_blocks(text: str) -> int:
    """argparse type for blocks per batch: a positive multiple of REPLAY_DIVISOR."""
    return _int_flag(
        text, lambda v: v >= 1 and v % REPLAY_DIVISOR == 0,
        f"a positive multiple of {REPLAY_DIVISOR}",
    )


def _language_code(text: str) -> str:
    """argparse type for one known ISO code."""
    try:
        return language(text).code
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def language_codes(text: str) -> list[str]:
    """argparse type for known ISO codes separated by commas."""
    return [_language_code(code) for code in text.split(",")]


def _inline_scores(text: str) -> dict[str, float]:
    """argparse type for ``code=score`` items separated by commas, each known
    code once, each score finite."""
    mapping: dict[str, float] = {}
    for item in text.split(","):
        code, _, value = item.partition("=")
        code = code.strip()
        try:
            score = float(value)
        except ValueError:
            score = None
        if not code or score is None:
            raise argparse.ArgumentTypeError(f"expected code=score, got {item!r}")
        code = _language_code(code)
        if not math.isfinite(score):
            raise argparse.ArgumentTypeError(f"score of {code!r} is {score}, not a finite number")
        if code in mapping:
            raise argparse.ArgumentTypeError(f"{code!r} is scored twice, again in {item!r}")
        mapping[code] = score
    return mapping


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: parsing keeps no state in it, and every
    default is immutable, so successive ``main`` calls share it."""
    parser = argparse.ArgumentParser(
        prog="currikit",
        description="Compile block curricula for continual pretraining and "
        "score translation output.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a corpus into a block schedule on disk")
    p.add_argument("--config", required=True, help="corpus configuration JSON")
    p.add_argument(
        "--strategy", required=True, choices=[s.value for s in Strategy]
    )
    p.add_argument("--budget-tokens", required=True, type=positive_int,
                   help="tokens to place, at least one batch of blocks")
    p.add_argument("--batch-blocks", type=batch_blocks, default=8,
                   help="blocks per optimizer step (8 or 16 in the studied regimes)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output corpus directory")
    p.add_argument("--tokenizer", default="byte_fallback",
                   help="'byte_fallback' or a vocabulary file path")
    p.add_argument("--labels", choices=("name", "code"), default="name",
                   help="segment label style for parallel formatting")
    p.add_argument("--languages", type=language_codes, default=None,
                   help="comma-separated ISO codes (default: inferred from config)")

    p = sub.add_parser("audit", help="re-verify a compiled corpus")
    p.add_argument("--dir", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("stats", help="summarize a compiled corpus or raw corpus files")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--dir", help="compiled corpus directory")
    source.add_argument("--config", help="corpus configuration JSON (raw accounting)")
    p.add_argument("--tokenizer", default="byte_fallback")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("prompts", help="assemble fixed few-shot translation prompts")
    p.add_argument("--dev", required=True, help="bitext file supplying exemplars")
    p.add_argument("--test", required=True, help="bitext file to prompt over")
    p.add_argument("--source-lang", required=True, type=_language_code)
    p.add_argument("--target-lang", required=True, type=_language_code)
    p.add_argument("-k", "--shots", type=non_negative_int, default=5)
    p.add_argument("--labels", choices=("name", "code"), default="name")
    p.add_argument("--out", required=True, help="output JSONL path")

    p = sub.add_parser("bleu", help="corpus BLEU for a hypothesis file")
    p.add_argument("--hypotheses", required=True)
    p.add_argument("--references", required=True)
    p.add_argument("--mode", choices=("default", "zh"), default="default")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("signif", help="paired bootstrap significance of A over B")
    p.add_argument("--hypotheses-a", required=True)
    p.add_argument("--hypotheses-b", required=True)
    p.add_argument("--references", required=True)
    p.add_argument("--n", type=positive_int, default=1000,
                   help="bootstrap samples (at least 1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("default", "zh"), default="default")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("aggregate", help="average per-language scores into a table row")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--scores", type=_inline_scores,
                        help="inline scores: id=49.48,km=32.92,...")
    source.add_argument("--scores-json", help="JSON file mapping ISO codes to scores")
    p.add_argument("--label", default="model")
    p.add_argument("--json", action="store_true")

    return parser


def _check_flags(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """The checks between flags that need no input; each fails as argparse does."""
    if args.command == "compile" and args.budget_tokens < args.batch_blocks * BLOCK_TOKENS:
        parser.error(
            f"argument --budget-tokens: {args.budget_tokens} is below one batch "
            f"({args.batch_blocks} x {BLOCK_TOKENS} tokens)"
        )
    if (
        args.command == "compile"
        and "en" in (args.languages or ())
        and STRATEGY_KINDS[Strategy(args.strategy)] != ("monolingual",)
    ):
        parser.error(
            f"argument --languages: English is implicit in {args.strategy}; list SEA languages"
        )
    if args.command == "prompts" and (args.source_lang == "en") == (args.target_lang == "en"):
        parser.error("argument --target-lang: the direction must pair English with a SEA language")


def _cmd_compile(args: argparse.Namespace) -> int:
    result = compile_corpus(
        sources=args.config,
        strategy=args.strategy,
        token_budget=args.budget_tokens,
        batch_size_blocks=args.batch_blocks,
        seed=args.seed,
        out_dir=args.out,
        tokenizer_ref=args.tokenizer,
        label_style=args.labels,
        languages=args.languages,
    )
    m = result.manifest
    print(
        f"compiled {m.n_blocks} blocks ({m.n_batches} batches of "
        f"{m.batch_size_blocks}) for {m.strategy.value} at seed {m.seed} "
        f"into {args.out}"
    )
    print(f"leftover budget: {m.leftover_tokens} tokens")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    report = audit_shards(args.dir)
    if args.json:
        print(json.dumps({**dataclasses.asdict(report), "passed": report.passed}, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.passed else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    if args.dir is not None:
        stats = shard_stats(args.dir)
    else:
        stats = corpus_stats(load_corpus_config(args.config), resolve_spec(args.tokenizer))
    print(json.dumps(dataclasses.asdict(stats), sort_keys=True) if args.json else stats.render())
    return 0


def _cmd_prompts(args: argparse.Namespace) -> int:
    sea = args.source_lang if args.source_lang != "en" else args.target_lang
    dev = list(read_parallel(args.dev, sea))
    test = list(read_parallel(args.test, sea))
    prompts = build_prompts(
        dev, test, (args.source_lang, args.target_lang), k=args.shots,
        label_style=args.labels,
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        for record in prompts.to_records():
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"wrote {len(prompts.items)} prompts ({prompts.k}-shot) to {args.out}")
    return 0


def _cmd_bleu(args: argparse.Namespace) -> int:
    score = bleu(read_lines(args.hypotheses), read_lines(args.references), args.mode)
    if args.json:
        print(json.dumps({**dataclasses.asdict(score), "case_sensitive": True}, sort_keys=True))
    else:
        print(score.format())
    return 0


def _cmd_signif(args: argparse.Namespace) -> int:
    result = paired_bootstrap(
        read_lines(args.hypotheses_a),
        read_lines(args.hypotheses_b),
        read_lines(args.references),
        n_samples=args.n,
        seed=args.seed,
        mode=args.mode,
    )
    if args.json:
        print(json.dumps(dataclasses.asdict(result), sort_keys=True))
    else:
        print(result.format())
    return 0


def _cmd_aggregate(args: argparse.Namespace) -> int:
    if args.scores is not None:
        mapping = args.scores
    else:
        with open(args.scores_json, encoding="utf-8") as fh:
            mapping = json.load(fh)
        if not isinstance(mapping, dict):
            raise ValueError(f"{args.scores_json}: not a JSON object mapping codes to scores")
        for code, score in mapping.items():
            if type(score) not in (int, float):
                raise ValueError(
                    f"{args.scores_json}: score of {code!r} is {json.dumps(score)}, not a number"
                )
    row = aggregate(mapping, label=args.label)
    if args.json:
        print(json.dumps(
            {"label": row.label, "scores": row.scores, "avg": row.average},
            sort_keys=True,
        ))
    else:
        print(ResultTable(rows=[row]).render())
    return 0


_COMMANDS = {
    "compile": _cmd_compile,
    "audit": _cmd_audit,
    "stats": _cmd_stats,
    "prompts": _cmd_prompts,
    "bleu": _cmd_bleu,
    "signif": _cmd_signif,
    "aggregate": _cmd_aggregate,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _check_flags(parser, args)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
