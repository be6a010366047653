"""Fixed-size token-block construction.

Every training block holds exactly 262,144 token ids (64 sequences of
4,096, the context window). Every packer feeds one loop, ``_pack``: each
record is encoded and its ids, then one end-of-text separator, are appended
to the stream's byte accumulator (one byte per id for ``byte_fallback``,
whose separator is 0xFF, a byte UTF-8 never holds, rewritten to ``eot_id``
when the block is built; four bytes per id for ``bpe_file``). Records reach
the loop in runs: a document is a run of one, a pair file's rows come in
the line runs of ``corpus.pair_runs``, and a replacement stream's pairs in
runs that also end where a document's sentences end. The loop encodes each
run with one call as it pulls it (``encode_run`` for ``bpe_file``), which
also gives each record's end, counted just past its separator. One
bisection over those ends finds the record that brings the accumulator to
a block's worth of ids, so the records up to it yield their blocks at once,
and the rest of that record carries over into a fresh accumulator: records
may straddle sequence and block boundaries. A record that cannot be
encoded raises its own error once the records before it are placed.

A run is read and rendered ahead of its use, so it carries a commit: the
loop commits the records it takes, before it yields a block, and a record
that it has not taken is not counted anywhere. The records read, the
readers' counts and warnings, and the pack report are thus those of a
record-by-record packer, however a stream is cut.

A document that a sampler already encoded is packed from its ids. A block's
``uint32`` ids are converted from the byte accumulator, or for ``bpe_file``
are a view of the replaced one. The final partial accumulator is discarded
and its size reported, never padded. A block is its ids, its kind and its
provenance: the tree writer hashes it as it writes it, and
``block_checksum`` is the reference for that digest.

Parallel segments are rendered as two labeled lines::

    English: <english sentence>
    Indonesian: <translation>

with the side order drawn per pair from a counter-based generator keyed by
(seed, language, pair index), probability 1/2 each, so the draw sequence is
independent of chunking and worker layout.
"""

from __future__ import annotations

import hashlib
import re
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, count, islice, repeat
from operator import add
from typing import Callable, Iterable, Iterator

import numpy as np

from . import rng
from .corpus import EN, Document, LanguageTag, PairRun, SentencePair, ShortfallError, language
from .tokenizer import TokenizerError, TokenizerSpec, count_tokens, encode_run
from .tokenizer import encode  # noqa: F401  the benchmark's tracer looks up packing.encode

SEQUENCE_LENGTH = 4_096
SEQUENCES_PER_BLOCK = 64
BLOCK_TOKENS = SEQUENCE_LENGTH * SEQUENCES_PER_BLOCK  # 262,144


KIND_NAMES = ("monolingual", "parallel", "replay", "replacement")


@dataclass(frozen=True)
class BlockKind:
    """What a block holds: monolingual(lang), parallel(lang), replay, replacement(lang)."""

    name: str
    language: str | None = None

    def __post_init__(self) -> None:
        if self.name not in KIND_NAMES:
            raise ValueError(f"unknown block kind {self.name!r}")
        if self.name == "replay":
            if self.language is not None:
                raise ValueError("replay blocks carry no language")
        else:
            if self.language is None:
                raise ValueError(f"{self.name} blocks need a language")
            language(self.language)
            if self.name in ("parallel", "replacement") and self.language == "en":
                raise ValueError(f"{self.name} blocks carry a non-English SEA language")

    @classmethod
    def monolingual(cls, code: str) -> "BlockKind":
        return cls("monolingual", code)

    @classmethod
    def parallel(cls, code: str) -> "BlockKind":
        return cls("parallel", code)

    @classmethod
    def replay(cls) -> "BlockKind":
        return cls("replay", None)

    @classmethod
    def replacement(cls, code: str) -> "BlockKind":
        return cls("replacement", code)

    def key(self) -> str:
        return self.name if self.language is None else f"{self.name}:{self.language}"

    @classmethod
    def from_key(cls, key: str) -> "BlockKind":
        name, _, lang = key.partition(":")
        return cls(name, lang or None)


FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a, the block checksum of v1 trees, which are no longer read."""
    h = FNV_OFFSET
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & _MASK64
    return h


def _sha256_64(chunks: Iterable) -> str:
    """The tree's one digest: the first 8 bytes of the SHA-256 (FIPS 180-4)
    of the concatenated byte chunks, as 16 lowercase hex digits, the first 16
    characters ``sha256sum`` prints for the same bytes. Block files and the
    provenance file are checksummed with it."""
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()[:16]


def block_checksum(ids: np.ndarray) -> int:
    """SHA-256-64 of the block's little-endian uint32 bytes, as an integer:
    ``f"{checksum:016x}"`` is the start of what ``sha256sum`` prints for the
    block file, and the manifest's entry for it. The packer does not call
    it; ``shards.write_shards`` hashes the same bytes."""
    return int(_sha256_64((ids.astype("<u4", copy=False),)), 16)


@dataclass(frozen=True)
class ProvenanceSpan:
    source_id: str
    first_ordinal: int
    last_ordinal: int


@dataclass
class TokenBlock:
    ids: np.ndarray  # uint32, exactly BLOCK_TOKENS entries
    kind: BlockKind
    provenance: tuple[ProvenanceSpan, ...]

    def __post_init__(self) -> None:
        if len(self.ids) != BLOCK_TOKENS:
            raise ValueError(f"block has {len(self.ids)} ids, want {BLOCK_TOKENS}")


@dataclass
class PackReport:
    """Accounting for one packed stream: counters the packer bumps as records
    arrive and blocks leave; the unused tokens follow from them."""

    records: int = 0
    tokens_in: int = 0  # ids entering the buffer, separators included
    blocks: int = 0
    en_first: int = 0  # direction draws landing English-first
    replacement_token_delta: int = 0  # replacement minus original SEA-side tokens

    @property
    def unused_tokens(self) -> int:
        """Ids read but in no block: the discarded final partial buffer once
        input runs dry; before that, the buffer's fill plus any record tail
        not yet copied, which is what an abandoned stream leaves over."""
        return self.tokens_in - self.blocks * BLOCK_TOKENS


def _pair_texts(
    en: list[str], sea: list[str], bits: list[int], en_label: str, sea_label: str
) -> list[str]:
    """The pair format, spelled here only: each ``(english, sea)`` pair as
    two labeled lines, English first where its bit is 0 and the SEA side
    first where it is 1. Training segments and prompt exemplars both use it."""
    return [
        f"{sea_label}: {sea_text}\n{en_label}: {en_text}" if bit
        else f"{en_label}: {en_text}\n{sea_label}: {sea_text}"
        for en_text, sea_text, bit in zip(en, sea, bits)
    ]


def format_pair(pair: SentencePair, sea_first: int, label_style: str = "name") -> str:
    """One aligned pair as two labeled lines (no trailing marker), the SEA
    side first where ``sea_first`` is 1."""
    return _pair_texts(
        [pair.en_text], [pair.sea_text], [sea_first],
        EN.label(label_style), pair.sea_language.label(label_style),
    )[0]


def _spans(sources: list[str], ordinals: list[int]) -> tuple[ProvenanceSpan, ...]:
    """A block's records, in order, merged into provenance spans: a record
    extends the span before it when it has the same source and its ordinal
    repeats the previous one or steps by one."""
    step = np.diff(np.array(ordinals))
    source = np.array(sources, dtype=object)  # str equality; "<U" ignores trailing NULs
    same_source = source[1:] == source[:-1]
    opens = np.flatnonzero(~same_source | (step < 0) | (step > 1)) + 1
    firsts = [0, *opens.tolist()]
    lasts = [i - 1 for i in firsts[1:]] + [len(ordinals) - 1]
    return tuple(
        ProvenanceSpan(sources[f], ordinals[f], ordinals[l]) for f, l in zip(firsts, lasts)
    )


# A packer run: consecutive records of one source, as ``(texts, source_id,
# ordinals, commit)``, encoded by one call when the packer pulls it; a pair
# file's runs hold at most ``corpus.LINE_RUN_CHARS`` characters of lines. A
# record's text may instead be its ids, in a run of that record alone.
# ``commit(n)``, when not None, is called once the first ``n`` records of
# the run are taken.
Run = tuple[list[str | np.ndarray], str, list[int], Callable[[int], None] | None]


def _pack(
    runs: Iterable[Run],
    kind: BlockKind,
    spec: TokenizerSpec,
    report: PackReport,
) -> Iterator[TokenBlock]:
    """The one packing loop: runs of records -> blocks.

    Each record's ids and one end-of-text separator are appended to a byte
    accumulator, one byte per id for ``byte_fallback`` (the separator is
    0xFF, a byte UTF-8 never holds, and becomes ``eot_id`` in the block) and
    four for ``bpe_file``. A run's texts are encoded by one call, which also
    gives each record's end, counted just past its separator. One bisection
    over those ends finds the record that fills the block; the records up to
    it are taken, committed and counted, the blocks they fill are yielded,
    and the rest of that record starts a fresh accumulator. So the records
    taken before a block is yielded are those a record-by-record packer
    pulls, and the next run is pulled only when a record of it is needed.
    When a run cannot be encoded, its records are encoded one at a time from
    there, so a record that cannot be encoded raises its own error after the
    records before it are placed.
    """
    if spec.kind == "byte_fallback":
        width, separator = 1, b"\xff"

        def encode_texts(texts: list[str]) -> tuple[memoryview, list[int]]:
            # the ids are the UTF-8 bytes, each record's closed by 0xFF: a record
            # ends past its own and the earlier records' bytes and 0xFFs
            parts = [*map(str.encode, texts)]
            ends = list(map(add, accumulate(map(len, parts)), count(1)))
            return memoryview(b"\xff".join([*parts, b""])), ends

    else:
        width, separator = 4, np.uint32(spec.eot_id).tobytes()

        def encode_texts(texts: list[str]) -> tuple[np.ndarray, list[int]]:
            return encode_run(texts, spec)

    block_tokens = BLOCK_TOKENS
    block_bytes = block_tokens * width
    acc = bytearray()
    # The accumulator's records: every one has ids not yet in a block.
    sources: list[str] = []
    ordinals: list[int] = []
    for texts, source_id, run_ordinals, commit in runs:
        taken = 0  # records of the run taken
        first = start = 0  # the run's index of the first record ``ids`` holds; its ids taken
        ends: list[int] = []
        step = len(texts)  # records one call encodes: the rest of the run, or one
        while taken < len(texts):
            filled = len(acc)
            if not isinstance(texts[0], str):  # a record's ids, alone in its run
                acc.extend(texts[0])
                acc += separator
                stop = 1
            else:
                if taken == first + len(ends):
                    try:
                        ids, ends = encode_texts(texts[taken : taken + step])
                    except (TokenizerError, UnicodeEncodeError):
                        if step == 1:
                            raise
                        step = 1
                        continue
                    first, start = taken, 0
                # the record whose end fills the block, or else the last one
                room = block_tokens - filled // width
                last = bisect_left(ends, start + room, taken - first, len(ends) - 1)
                acc.extend(ids[start : ends[last]])
                start = ends[last]
                stop = first + last + 1
            sources.extend(repeat(source_id, stop - taken))
            ordinals += run_ordinals[taken:stop]
            report.records += stop - taken
            report.tokens_in += (len(acc) - filled) // width
            if commit is not None:
                commit(stop)
            taken = stop
            while len(acc) >= block_bytes:
                if width == 1:
                    block = np.frombuffer(acc, np.uint8, count=block_tokens).astype(np.uint32)
                    block[block == 0xFF] = spec.eot_id
                else:  # the block views this accumulator, which the stream then drops
                    block = np.frombuffer(acc, np.uint32, count=block_tokens)
                provenance = _spans(sources, ordinals)
                acc = acc[block_bytes:]
                sources, ordinals = (sources[-1:], ordinals[-1:]) if acc else ([], [])
                report.blocks += 1
                yield TokenBlock(ids=block, kind=kind, provenance=provenance)


def _documents(
    docs: Iterable[Document], code: str | None, spec: TokenizerSpec
) -> Iterator[Run]:
    """A run per document; a document a sampler measured with ``spec`` brings its ids."""
    for doc in docs:
        if code is not None and doc.language.code != code:
            raise ValueError(f"document language {doc.language.code} in a {code} stream")
        encoding = doc.encoding
        text = encoding[1] if encoding is not None and encoding[0] is spec else doc.text
        yield [text], doc.source_id, [doc.ordinal], None


def pack_monolingual(
    docs: Iterable[Document],
    lang: str | LanguageTag,
    spec: TokenizerSpec,
    report: PackReport | None = None,
) -> Iterator[TokenBlock]:
    """Pack one language's documents, end-of-text separated, into blocks."""
    code = language(lang).code
    report = report if report is not None else PackReport()
    return _pack(_documents(docs, code, spec), BlockKind.monolingual(code), spec, report)


def pack_replay(
    docs: Iterable[Document],
    spec: TokenizerSpec,
    report: PackReport | None = None,
) -> Iterator[TokenBlock]:
    """Pack replay documents; identical mechanics, kind = replay."""
    report = report if report is not None else PackReport()
    return _pack(_documents(docs, None, spec), BlockKind.replay(), spec, report)


def _runs_in(runs: Iterable[PairRun], code: str) -> Iterator[PairRun]:
    """The runs, each checked to be in ``code``."""
    for run in runs:
        if run.sea_language.code != code:
            raise ValueError(f"pair language {run.sea_language.code} in a {code} stream")
        yield run


def _rendered(
    runs: Iterable[PairRun], code: str, seed: int, label_style: str, report: PackReport
) -> Iterator[Run]:
    """Packer runs of the ``PairRun``s' pairs, rendered in their drawn side order.

    Pair ``i`` of the stream renders English first when ``coin(seed,
    "direction", code, i)`` is 0: a keyed draw, independent of chunking. A
    run's bits are drawn when it is rendered; its English-first draws are
    counted, and the run committed, as the packer takes its pairs.
    """
    en_label = EN.label(label_style)
    sea_label = language(code).label(label_style)
    coins = rng.coins(seed, "direction", code)
    for run in _runs_in(runs, code):
        bits = list(islice(coins, len(run.en)))

        def commit(n: int, run: PairRun = run, bits: list[int] = bits) -> None:
            report.en_first += n - run.taken - sum(bits[run.taken : n])
            run.commit(n)

        texts = _pair_texts(run.en, run.sea, bits, en_label, sea_label)
        yield texts, run.source_id, run.ordinals, commit


def pack_parallel(
    runs: Iterable[PairRun],
    sea_lang: str | LanguageTag,
    spec: TokenizerSpec,
    seed: int,
    label_style: str = "name",
    report: PackReport | None = None,
) -> Iterator[TokenBlock]:
    """Pack formatted sentence pairs, in the runs ``corpus.pair_runs``
    reads, with per-pair direction randomization."""
    code = language(sea_lang).code
    report = report if report is not None else PackReport()
    records = _rendered(runs, code, seed, label_style, report)
    return _pack(records, BlockKind.parallel(code), spec, report)


_SENTENCE_END = re.compile(r"(?<=[.!?。！？។။])\s*")


def split_sentences(text: str) -> list[str]:
    """Split on sentence-terminal punctuation (ASCII, CJK, Khmer, Burmese)."""
    return [s.strip() for s in _SENTENCE_END.split(text) if s.strip()]


class _Swapped(PairRun):
    """Pairs of a source run, from its pair ``start`` on, with their SEA
    sides swapped: committing them commits the pairs they were made from
    and counts their token deltas."""

    __slots__ = ("_source", "_start", "_deltas", "_report")

    def __init__(
        self, source: PairRun, start: int, substitutes: list[str], deltas: list[int],
        report: PackReport,
    ):
        stop = start + len(substitutes)
        super().__init__(source.sea_language, source.source_id, source.en[start:stop],
                         substitutes, source.ordinals[start:stop])
        self._source = source
        self._start = start
        self._deltas = deltas
        self._report = report

    def commit(self, n: int) -> None:
        if n <= self.taken:
            return
        self._source.commit(self._start + n)
        self._report.replacement_token_delta += sum(self._deltas[self.taken : n])
        self.taken = n


def _substituted(
    runs: Iterable[PairRun],
    sea_docs: Iterable[Document],
    code: str,
    spec: TokenizerSpec,
    report: PackReport,
) -> Iterator[PairRun]:
    """Replacement pairs, each with its SEA side swapped for the next unused
    sentence, in runs that end where a source run or a document's sentences
    end.

    A pair is committed on its source run before its sentence is pulled, so
    a run's first pair is committed as the run is made: a document is pulled,
    and the supply found exhausted, where a pair-by-pair reader meets them.
    Each pair's token delta is measured as its run is made and counted as it
    is committed; a run ends before a pair whose sides cannot be measured, so
    that the pair's error is raised when the run after it is made.
    """
    docs = iter(sea_docs)
    sentences: list[str] = []  # the current document's, of which ``used`` are used
    used = 0
    index = 0
    for run in _runs_in(runs, code):
        start = 0
        while start < len(run.en):
            run.commit(start + 1)
            while used == len(sentences):
                doc = next(docs, None)
                if doc is None:
                    raise ShortfallError(
                        f"replacement text for {code} exhausted after {index} pairs",
                        {"pairs_substituted": index},
                    )
                # split_sentences strips its sentences and drops empty ones
                sentences = split_sentences(doc.text)
                used = 0
            substitutes = sentences[used : used + len(run.en) - start]
            deltas: list[int] = []
            replaced = run.sea[start : start + len(substitutes)]
            for substitute, sea_text in zip(substitutes, replaced):
                try:
                    deltas.append(count_tokens(substitute, spec) - count_tokens(sea_text, spec))
                except TokenizerError:
                    if not deltas:
                        raise
                    break
            yield _Swapped(run, start, substitutes[: len(deltas)], deltas, report)
            start += len(deltas)
            used += len(deltas)
            index += len(deltas)


def pack_replacement(
    runs: Iterable[PairRun],
    sea_docs: Iterable[Document],
    sea_lang: str | LanguageTag,
    spec: TokenizerSpec,
    seed: int,
    label_style: str = "name",
    report: PackReport | None = None,
) -> Iterator[TokenBlock]:
    """Ablation packer: the SEA side of each pair of the runs, which
    ``corpus.pair_runs`` reads, is swapped for the next unused sentence of
    unaligned SEA text; the English side, the format, and the direction draw
    sequence are exactly those of ``pack_parallel``.

    Substitution is sentence-for-sentence with no length matching; the
    resulting SEA-side token delta is recorded in the report.
    """
    code = language(sea_lang).code
    report = report if report is not None else PackReport()
    substituted = _substituted(runs, sea_docs, code, spec, report)
    records = _rendered(substituted, code, seed, label_style, report)
    return _pack(records, BlockKind.replacement(code), spec, report)
