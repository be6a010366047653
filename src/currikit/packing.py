"""Fixed-size token-block construction.

Every training block holds exactly 262,144 token ids (64 sequences of
4,096, the context window). Every packer feeds one loop: each record is
encoded and its ids, then one end-of-text separator, are appended to the
stream's byte accumulator (one byte per id for ``byte_fallback``, whose
separator is 0xFF, a byte UTF-8 never holds, rewritten to ``eot_id`` when
the block is built; four bytes per id for ``bpe_file``). Records are pulled
in runs, each encoded by one call (``encode_run`` for ``bpe_file``). A run
ends at the record that could bring the accumulator to a block's worth of
ids, so that record yields its blocks at once, and the rest of it carries
over into a fresh accumulator: records may straddle sequence and block
boundaries, and the records read are those a record-by-record packer reads.
A document that a sampler already encoded is packed from its ids. A block's
``uint32`` ids are converted from the byte accumulator, or for ``bpe_file``
are a view of the replaced one. The final partial accumulator is discarded
and its size reported, never padded.

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
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator

import numpy as np

from . import rng
from .corpus import EN, Document, LanguageTag, SentencePair, ShortfallError, language
from .tokenizer import TokenizerSpec, count_tokens, encode, encode_run

SEQUENCE_LENGTH = 4_096
SEQUENCES_PER_BLOCK = 64
BLOCK_TOKENS = SEQUENCE_LENGTH * SEQUENCES_PER_BLOCK  # 262,144
RUN_CHARS = 16_384  # text characters encoded by one call; bounds a run's transient memory


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
    block file."""
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


def _pair_renderers(
    sea_language: LanguageTag, label_style: str
) -> dict[Direction, Callable[[str, str], str]]:
    """The pair format: per side order, a function rendering ``(english, sea)``
    sentences as two labeled lines, with both labels resolved once."""
    en_label = EN.label(label_style)
    sea_label = sea_language.label(label_style)
    return {
        Direction.EN_FIRST: lambda en, sea: f"{en_label}: {en}\n{sea_label}: {sea}",
        Direction.SEA_FIRST: lambda en, sea: f"{sea_label}: {sea}\n{en_label}: {en}",
    }


def format_pair(pair: SentencePair, direction: Direction, label_style: str = "name") -> str:
    """Render one aligned pair as two labeled lines (no trailing marker)."""
    render = _pair_renderers(pair.sea_language, label_style)[direction]
    return render(pair.en_text, pair.sea_text)


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


def _pack(
    records: Iterable[tuple[str | np.ndarray, str, int]],
    kind: BlockKind,
    spec: TokenizerSpec,
    report: PackReport,
) -> Iterator[TokenBlock]:
    """The one packing loop: ``(text, source_id, ordinal)`` records -> blocks.

    A record's text may already be its ids. Each record's ids and one
    end-of-text separator are appended to a byte accumulator, one byte per
    id for ``byte_fallback`` (the separator is 0xFF, a byte UTF-8 never
    holds, and becomes ``eot_id`` in the block) and four for ``bpe_file``.
    Records are pulled in runs and each run's texts are encoded by one call.
    A run takes another record only while its records could not complete a
    block even at their most ids (one per character for ``bpe_file``, four
    UTF-8 bytes for ``byte_fallback``), and at most ``RUN_CHARS`` characters
    of text, so only its last record may complete blocks and the records
    read are those a record-by-record packer reads. Blocks are yielded as
    soon as the run is in, and the rest of the last record, if any, starts a
    fresh accumulator. A record that is already ids ends its run.
    """
    if spec.kind == "byte_fallback":
        width, separator, most_ids = 1, b"\xff", 4

        def encode_texts(texts: list[str]) -> bytes:
            # the ids are the UTF-8 bytes, which encode would wrap in arrays
            return b"\xff".join([*map(str.encode, texts), b""])

    else:
        eot = np.array([spec.eot_id], dtype=np.uint32)
        width, separator, most_ids = 4, eot.tobytes(), 1

        def encode_texts(texts: list[str]) -> np.ndarray:
            ids = encode_run(texts, spec)
            if ids is None:  # one text at a time, for the error encode raises
                ids = np.concatenate([np.append(encode(text, spec), eot) for text in texts])
            return ids

    block_tokens = BLOCK_TOKENS
    block_bytes = block_tokens * width
    acc = bytearray()
    # The accumulator's records: every one has ids not yet in a block.
    sources: list[str] = []
    ordinals: list[int] = []
    records = iter(records)
    while True:
        texts: list[str] = []
        ids = None
        room = block_tokens - len(acc) // width
        chars = 0
        pull_error = None
        try:
            for text, source_id, ordinal in records:
                sources.append(source_id)
                ordinals.append(ordinal)
                if not isinstance(text, str):
                    ids = text
                    break
                texts.append(text)
                room -= most_ids * len(text) + 1
                chars += len(text)
                if room <= 0 or chars >= RUN_CHARS:
                    break
        except Exception as exc:  # raised after the run's records, as one at a time
            pull_error = exc
        filled = len(acc)
        if texts:
            acc.extend(encode_texts(texts))
        if ids is not None:
            acc.extend(ids)
            acc += separator
        report.records += len(texts) + (ids is not None)
        report.tokens_in += (len(acc) - filled) // width
        if pull_error is not None:
            raise pull_error
        if not texts and ids is None:
            return
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
            yield TokenBlock(
                ids=block, kind=kind, checksum=block_checksum(block), provenance=provenance
            )


def _documents(
    docs: Iterable[Document], code: str | None, spec: TokenizerSpec
) -> Iterator[tuple[str | np.ndarray, str, int]]:
    """Document records; a document a sampler measured with ``spec`` brings its ids."""
    for doc in docs:
        if code is not None and doc.language.code != code:
            raise ValueError(f"document language {doc.language.code} in a {code} stream")
        encoding = doc.encoding
        text = encoding[1] if encoding is not None and encoding[0] is spec else doc.text
        yield text, doc.source_id, doc.ordinal


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


def _pair_records(
    pairs: Iterable[SentencePair], code: str, seed: int, label_style: str, report: PackReport
) -> Iterator[tuple[str, str, int]]:
    """Render pairs in their drawn direction, counting English-first draws.

    Pair ``i`` renders English first when ``coin(seed, "direction", code, i)``
    is 0: a keyed draw, independent of chunking.
    """
    renderers = _pair_renderers(language(code), label_style)
    by_coin = (renderers[Direction.EN_FIRST], renderers[Direction.SEA_FIRST])
    for pair, bit in zip(pairs, rng.coins(seed, "direction", code)):
        if pair.sea_language.code != code:
            raise ValueError(f"pair language {pair.sea_language.code} in a {code} stream")
        if bit == 0:
            report.en_first += 1
        yield by_coin[bit](pair.en_text, pair.sea_text), pair.source_id, pair.ordinal


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
        # split_sentences strips its sentences and drops empty ones
        yield SentencePair._checked(
            pair.en_text, substitute, pair.sea_language, pair.source_id, pair.ordinal
        )


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
