"""End-to-end corpus compilation: schedule -> packed streams -> shards.

The schedule dictates the exact sequence of block kinds; one packer stream
is kept per (kind, language) and the compiler pulls the next block from
whichever stream the schedule demands. Per-language monolingual and replay
data are drawn token-uniformly across their source files; parallel files
for one language are concatenated in configuration order.

Parallel and replacement streams read their pair files through
``corpus.pair_runs``, one row loop per file, in line runs that the packer
takes and commits as it needs them: a stream stops reading, counting and
warning at the record that completes its last block, as a record-by-record
reader would. Every reader gets a ``ReadCounter`` and every sampled group
keeps its ``SampleReport``. ``write_shards`` takes one generator of the
schedule's blocks, which after the last one pulls no stream again and puts
the pack reports and these counts into the manifest's ``metadata``
(``discards`` and ``sources``), before ``write_shards`` writes the
manifest. A replacement stream's ``sources`` list its parallel files, then
its monolingual files.
The packers only build blocks: ``write_shards`` hashes and writes each one
on its writer thread while this thread packs the next.

The tree records each flag once, in the manifest, and no path: the same
corpus, flags and seed give the same bytes wherever the tree is written.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from typing import Callable, Iterator

from .corpus import (
    CorpusSource,
    Document,
    ReadCounter,
    SampleReport,
    load_corpus_config,
    pair_runs,
    read_monolingual,
    sample_uniform,
    sort_codes,
)
from .corpus import read_parallel  # noqa: F401  the benchmark's tracer looks it up here
from .packing import (
    BLOCK_TOKENS,
    PackReport,
    TokenBlock,
    pack_monolingual,
    pack_parallel,
    pack_replacement,
    pack_replay,
)
from .schedule import (
    LABEL_STYLES,
    STRATEGY_KINDS,
    CurriculumManifest,
    Strategy,
    build_schedule,
)
from .shards import ShardLayout, write_shards
from .tokenizer import TokenizerSpec, resolve_spec

# The source kinds each non-replay block kind is read from; replacement
# substitutes monolingual text into parallel pairs.
_SOURCE_KINDS = {
    "monolingual": ("monolingual",),
    "parallel": ("parallel",),
    "replacement": ("parallel", "monolingual"),
}


class CompileError(RuntimeError):
    """The corpus cannot feed the requested schedule."""


@dataclass
class CompileResult:
    layout: ShardLayout
    manifest: CurriculumManifest
    reports: dict[str, PackReport] = field(default_factory=dict)


def _group_sources(
    sources: list[CorpusSource],
) -> tuple[dict[str, dict[str, list[CorpusSource]]], list[CorpusSource]]:
    """Monolingual and parallel sources by kind, then language; and replay sources."""
    by_kind: dict[str, dict[str, list[CorpusSource]]] = {"monolingual": {}, "parallel": {}}
    replay: list[CorpusSource] = []
    for src in sources:
        if src.kind == "replay":
            replay.append(src)
        else:
            assert src.language is not None
            by_kind[src.kind].setdefault(src.language, []).append(src)
    return by_kind, replay


def infer_language_set(
    strategy: Strategy, sources: list[CorpusSource]
) -> list[str]:
    """Languages that have every source kind the strategy schedules."""
    by_kind, _ = _group_sources(sources)
    needed = {k for name in STRATEGY_KINDS[strategy] for k in _SOURCE_KINDS[name]}
    langs = set.intersection(*(set(by_kind[k]) for k in needed))
    langs.discard("en")
    if not langs:
        raise CompileError(
            f"no language has the source kinds required by {strategy.value}"
        )
    return sort_codes(langs)


@dataclass
class _SourceRead:
    """What one stream read from one source: the reader's counts and, for a
    token-uniformly sampled group, the sampler's report and the source's
    index in it."""

    source: CorpusSource
    counter: ReadCounter
    sample: SampleReport | None = None
    index: int = 0

    def to_json(self) -> dict:
        doc = {
            "source": self.source.source_id,
            "records": self.counter.records,
            "emitted": self.counter.emitted,
            "skipped": self.counter.skipped,
        }
        if self.sample is not None:
            doc["quota"] = self.sample.quota
            doc["drawn_tokens"] = self.sample.drawn_tokens.get(self.index, 0)
            doc["deficit"] = self.sample.deficits.get(self.index, 0)
        return doc


def _sampled_documents(
    group: list[CorpusSource],
    lang: str,
    blocks_needed: int,
    spec: TokenizerSpec,
    reads: list[_SourceRead],
) -> Iterator[Document]:
    """Documents drawn token-uniformly across the group, one block beyond need."""
    report = SampleReport()
    readers = []
    for index, s in enumerate(group):
        counter = ReadCounter()
        reads.append(_SourceRead(s, counter, report, index))
        readers.append(read_monolingual(s.path, lang, counter, source_id=s.source_id))
    budget = (blocks_needed + 1) * BLOCK_TOKENS
    return sample_uniform(readers, budget, spec, report)


def _chained(
    reader: Callable, group: list[CorpusSource], lang: str, reads: list[_SourceRead]
) -> Iterator:
    """The group's records read file after file, in configuration order."""
    counters = [ReadCounter() for _ in group]
    reads.extend(_SourceRead(s, c) for s, c in zip(group, counters))
    return itertools.chain.from_iterable(
        reader(s.path, lang, c, source_id=s.source_id) for s, c in zip(group, counters)
    )


def compile_corpus(
    sources: list[CorpusSource] | str | os.PathLike[str],
    strategy: Strategy | str,
    token_budget: int,
    batch_size_blocks: int,
    seed: int,
    out_dir: str | os.PathLike[str],
    tokenizer_ref: str = "byte_fallback",
    label_style: str = "name",
    languages: list[str] | None = None,
) -> CompileResult:
    """Compile one strategy at one seed into a shard directory.

    ``write_shards`` writes the tree and the manifest last, so a directory
    with a manifest is always complete. Identical inputs, flags, and seed
    produce a byte-identical tree.
    """
    strategy = Strategy(strategy)
    if label_style not in LABEL_STYLES:
        raise ValueError(f"unknown label style {label_style!r}")
    spec = resolve_spec(tokenizer_ref)
    if not isinstance(sources, list):
        sources = load_corpus_config(sources)
    by_kind, replay = _group_sources(sources)
    mono, parallel = by_kind["monolingual"], by_kind["parallel"]
    if not replay:
        raise CompileError("every strategy interleaves replay data; none configured")
    language_set = (
        sort_codes(languages) if languages else infer_language_set(strategy, sources)
    )

    manifest = build_schedule(
        strategy=strategy,
        token_budget=token_budget,
        language_set=language_set,
        batch_size_blocks=batch_size_blocks,
        seed=seed,
        tokenizer_id=spec.id,
    )
    manifest.label_style = label_style
    needed = manifest.kind_counts()
    reports: dict[str, PackReport] = {}
    reads: dict[str, list[_SourceRead]] = {}
    streams: dict[str, Iterator[TokenBlock]] = {}
    for key, count in needed.items():
        report = PackReport()
        reports[key] = report
        stream_reads = reads[key] = []
        kind_name, _, lang = key.partition(":")
        for source_kind in _SOURCE_KINDS.get(kind_name, ()):
            if lang not in by_kind[source_kind]:
                raise CompileError(f"no {source_kind} sources for language {lang}")
        if kind_name == "replay":
            streams[key] = pack_replay(
                _sampled_documents(replay, "en", count, spec, stream_reads), spec, report
            )
        elif kind_name == "monolingual":
            streams[key] = pack_monolingual(
                _sampled_documents(mono[lang], lang, count, spec, stream_reads),
                lang, spec, report,
            )
        elif kind_name == "parallel":
            streams[key] = pack_parallel(
                _chained(pair_runs, parallel[lang], lang, stream_reads), lang, spec,
                seed, label_style, report,
            )
        else:  # replacement
            streams[key] = pack_replacement(
                _chained(pair_runs, parallel[lang], lang, stream_reads),
                _chained(read_monolingual, mono[lang], lang, stream_reads),
                lang, spec, seed, label_style, report,
            )

    def block_stream() -> Iterator[TokenBlock]:
        for position, entry in enumerate(manifest.entries):
            key = entry.key
            try:
                yield next(streams[key])
            except StopIteration:
                raise CompileError(
                    f"{key} stream exhausted at schedule position {position}: "
                    f"corpus too small for the requested budget"
                ) from None
        # No stream is pulled again: every count below is final.
        manifest.metadata["discards"] = {
            key: {
                "records": r.records,
                "tokens_in": r.tokens_in,
                "blocks": r.blocks,
                "discarded_tokens": r.unused_tokens,
                "en_first": r.en_first,
                "replacement_token_delta": r.replacement_token_delta,
            }
            for key, r in sorted(reports.items())
        }
        manifest.metadata["sources"] = {
            key: [read.to_json() for read in stream_reads]
            for key, stream_reads in sorted(reads.items())
        }

    try:
        layout = write_shards(block_stream(), manifest, out_dir)
    except BaseException:
        # The exception's traceback keeps the streams alive; close them now,
        # so each logs its malformed-row total before the error is reported.
        for stream in streams.values():
            stream.close()
        raise
    return CompileResult(layout=layout, manifest=manifest, reports=reports)
