"""Fixed-size token-block construction.

Every training block holds exactly 262,144 token ids (64 sequences of
4,096, the context window). Every packer feeds one loop: each record is
encoded, terminated with the end-of-text id and copied into a preallocated
``uint32`` block buffer; a full buffer becomes the next block's ids and the
rest of the record carries over into a fresh buffer, so records may
straddle sequence and block boundaries. The final partial buffer is
discarded and its size reported, never padded.

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
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Iterator

import numpy as np

from . import rng
from .corpus import EN, Document, LanguageTag, SentencePair, ShortfallError, language
from .tokenizer import TokenizerSpec, count_tokens, encode

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


class Direction(Enum):
    EN_FIRST = "en_first"
    SEA_FIRST = "sea_first"


FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a, the block checksum of v1 trees, which are no longer read."""
    h = FNV_OFFSET
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & _MASK64
    return h


def block_checksum(ids: np.ndarray) -> int:
    """64-bit BLAKE2b (RFC 7693) of the block's little-endian uint32 bytes.

    The digest bytes are read big-endian, so ``f"{checksum:016x}"`` is the
    hex that ``b2sum -l 64`` prints for the block file.
    """
    digest = hashlib.blake2b(ids.astype("<u4", copy=False), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True)
class ProvenanceSpan:
    source_id: str
    first_ordinal: int
    last_ordinal: int


@dataclass
class TokenBlock:
    ids: np.ndarray  # uint32, exactly BLOCK_TOKENS entries
    kind: BlockKind
    checksum: int
    provenance: tuple[ProvenanceSpan, ...]

    def __post_init__(self) -> None:
        if len(self.ids) != BLOCK_TOKENS:
            raise ValueError(f"block has {len(self.ids)} ids, want {BLOCK_TOKENS}")

    def verify_checksum(self) -> bool:
        return block_checksum(self.ids) == self.checksum


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


def format_pair(pair: SentencePair, direction: Direction, label_style: str = "name") -> str:
    """Render one aligned pair as two labeled lines (no trailing marker)."""
    en_label = EN.label(label_style)
    sea_label = pair.sea_language.label(label_style)
    if direction is Direction.EN_FIRST:
        return f"{en_label}: {pair.en_text}\n{sea_label}: {pair.sea_text}"
    return f"{sea_label}: {pair.sea_text}\n{en_label}: {pair.en_text}"


def direction_draw(seed: int, language_code: str, pair_index: int) -> Direction:
    """Per-pair side order; keyed draw, independent of chunking."""
    bit = rng.coin(seed, "direction", language_code, pair_index)
    return Direction.EN_FIRST if bit == 0 else Direction.SEA_FIRST


def _pack(
    records: Iterable[tuple[str, str, int]],
    kind: BlockKind,
    spec: TokenizerSpec,
    report: PackReport,
) -> Iterator[TokenBlock]:
    """The one packing loop: ``(text, source_id, ordinal)`` records -> blocks.

    Each record's ids are copied into a preallocated block buffer and its
    end-of-text id is written after them; a full buffer becomes a block's
    ids and a fresh one is allocated. Consecutive records of one source whose
    ordinals repeat or step by one share a provenance span.
    """
    buffer = np.empty(BLOCK_TOKENS, dtype=np.uint32)
    fill = 0
    closed: list[tuple[str, int, int]] = []  # this block's finished spans
    span_source: str | None = None  # open span; None until a record enters the block
    span_first = span_last = 0
    for text, source_id, ordinal in records:
        ids = encode(text, spec)
        size = len(ids) + 1  # with the end-of-text id
        report.records += 1
        report.tokens_in += size
        if span_source == source_id and span_last in (ordinal, ordinal - 1):
            span_last = ordinal
        else:
            if span_source is not None:
                closed.append((span_source, span_first, span_last))
            span_source, span_first, span_last = source_id, ordinal, ordinal
        placed = 0
        while True:
            take = min(len(ids) - placed, BLOCK_TOKENS - fill)
            buffer[fill : fill + take] = ids[placed : placed + take]
            fill += take
            placed += take
            if placed == len(ids) and fill < BLOCK_TOKENS:
                buffer[fill] = spec.eot_id
                fill += 1
                placed += 1
            if fill < BLOCK_TOKENS:
                break
            closed.append((span_source, span_first, span_last))
            report.blocks += 1
            yield TokenBlock(
                ids=buffer,
                kind=kind,
                checksum=block_checksum(buffer),
                provenance=tuple(ProvenanceSpan(*span) for span in closed),
            )
            buffer = np.empty(BLOCK_TOKENS, dtype=np.uint32)
            fill = 0
            closed = []
            if placed == size:
                span_source = None
                break
            span_first = ordinal  # the record's rest opens the next block's span


def _documents(docs: Iterable[Document], code: str | None) -> Iterator[tuple[str, str, int]]:
    for doc in docs:
        if code is not None and doc.language.code != code:
            raise ValueError(f"document language {doc.language.code} in a {code} stream")
        yield doc.text, doc.source_id, doc.ordinal


def pack_monolingual(
    docs: Iterable[Document],
    lang: str | LanguageTag,
    spec: TokenizerSpec,
    report: PackReport | None = None,
) -> Iterator[TokenBlock]:
    """Pack one language's documents, end-of-text separated, into blocks."""
    code = language(lang).code
    report = report if report is not None else PackReport()
    return _pack(_documents(docs, code), BlockKind.monolingual(code), spec, report)


def pack_replay(
    docs: Iterable[Document],
    spec: TokenizerSpec,
    report: PackReport | None = None,
) -> Iterator[TokenBlock]:
    """Pack replay documents; identical mechanics, kind = replay."""
    report = report if report is not None else PackReport()
    return _pack(_documents(docs, None), BlockKind.replay(), spec, report)


def _pair_records(
    pairs: Iterable[SentencePair], code: str, seed: int, label_style: str, report: PackReport
) -> Iterator[tuple[str, str, int]]:
    """Render pairs in their drawn direction, counting English-first draws."""
    for index, pair in enumerate(pairs):
        if pair.sea_language.code != code:
            raise ValueError(f"pair language {pair.sea_language.code} in a {code} stream")
        direction = direction_draw(seed, code, index)
        if direction is Direction.EN_FIRST:
            report.en_first += 1
        yield format_pair(pair, direction, label_style), pair.source_id, pair.ordinal


def pack_parallel(
    pairs: Iterable[SentencePair],
    sea_lang: str | LanguageTag,
    spec: TokenizerSpec,
    seed: int,
    label_style: str = "name",
    report: PackReport | None = None,
) -> Iterator[TokenBlock]:
    """Pack formatted sentence pairs with per-pair direction randomization."""
    code = language(sea_lang).code
    report = report if report is not None else PackReport()
    records = _pair_records(pairs, code, seed, label_style, report)
    return _pack(records, BlockKind.parallel(code), spec, report)


_SENTENCE_END = re.compile(r"(?<=[.!?。！？។။])\s*")


def split_sentences(text: str) -> list[str]:
    """Split on sentence-terminal punctuation (ASCII, CJK, Khmer, Burmese)."""
    return [s.strip() for s in _SENTENCE_END.split(text) if s.strip()]


def _substituted(
    pairs: Iterable[SentencePair],
    sea_docs: Iterable[Document],
    code: str,
    spec: TokenizerSpec,
    report: PackReport,
) -> Iterator[SentencePair]:
    """Each pair with its SEA side swapped for the next unused sentence."""
    supply = (sentence for doc in sea_docs for sentence in split_sentences(doc.text))
    for index, pair in enumerate(pairs):
        try:
            substitute = next(supply)
        except StopIteration:
            raise ShortfallError(
                f"replacement text for {code} exhausted after {index} pairs",
                {"pairs_substituted": index},
            ) from None
        report.replacement_token_delta += count_tokens(substitute, spec) - count_tokens(
            pair.sea_text, spec
        )
        yield replace(pair, sea_text=substitute)


def pack_replacement(
    pairs: Iterable[SentencePair],
    sea_docs: Iterable[Document],
    sea_lang: str | LanguageTag,
    spec: TokenizerSpec,
    seed: int,
    label_style: str = "name",
    report: PackReport | None = None,
) -> Iterator[TokenBlock]:
    """Ablation packer: the SEA side of each pair is swapped for the next
    unused sentence of unaligned SEA text; the English side, the format, and
    the direction draw sequence are exactly those of ``pack_parallel``.

    Substitution is sentence-for-sentence with no length matching; the
    resulting SEA-side token delta is recorded in the report.
    """
    code = language(sea_lang).code
    report = report if report is not None else PackReport()
    swapped = _substituted(pairs, sea_docs, code, spec, report)
    records = _pair_records(swapped, code, seed, label_style, report)
    return _pack(records, BlockKind.replacement(code), spec, report)
