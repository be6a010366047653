"""Streaming readers for language-tagged corpora and token-uniform sampling.

Input formats:

* monolingual / replay: plain text with one document per blank-line-separated
  record, or ``.jsonl`` with a ``"text"`` field per line;
* parallel bitext: 2-column TSV (english TAB sea) or ``.jsonl`` with
  ``"en"`` and ``"sea"`` fields.

Malformed rows are never fatal: they are skipped and show up in the skip
counts so dirty corpora stay auditable. Each read of a source logs a
warning for its first ``MAX_ROW_WARNINGS`` malformed rows and, if it met
more, one line with their total when the read ends.
"""

from __future__ import annotations

import json
import logging
import math
import os
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .tokenizer import TokenizerSpec, count_tokens, encode

log = logging.getLogger(__name__)

MAX_ROW_WARNINGS = 5  # malformed rows logged one by one per source read


@dataclass(frozen=True)
class LanguageTag:
    code: str
    display_name: str

    def label(self, style: str) -> str:
        """The label a segment line starts with: ``"name"`` or ``"code"`` style."""
        if style == "name":
            return self.display_name
        if style == "code":
            return self.code
        raise ValueError(f"unknown label style {style!r}")


# Fixed language registry; SEA codes are kept in the canonical table order
# used for all deterministic per-language cycling and rendering.
LANGUAGES: dict[str, LanguageTag] = {
    "en": LanguageTag("en", "English"),
    "id": LanguageTag("id", "Indonesian"),
    "km": LanguageTag("km", "Khmer"),
    "lo": LanguageTag("lo", "Lao"),
    "ms": LanguageTag("ms", "Malay"),
    "my": LanguageTag("my", "Burmese"),
    "ta": LanguageTag("ta", "Tamil"),
    "th": LanguageTag("th", "Thai"),
    "tl": LanguageTag("tl", "Tagalog"),
    "vi": LanguageTag("vi", "Vietnamese"),
    "zh": LanguageTag("zh", "Chinese"),
}

SEA_CODES: tuple[str, ...] = ("id", "km", "lo", "ms", "my", "ta", "th", "tl", "vi", "zh")

EN = LANGUAGES["en"]


def language(code: str | LanguageTag) -> LanguageTag:
    if isinstance(code, LanguageTag):
        return code
    try:
        return LANGUAGES[code]
    except KeyError:
        raise ValueError(
            f"unknown language code {code!r}; known: {', '.join(LANGUAGES)}"
        ) from None


def sort_codes(codes: Iterable[str]) -> list[str]:
    """Order language codes canonically (registry order)."""
    order = {c: i for i, c in enumerate(LANGUAGES)}
    out = []
    for c in codes:
        language(c)
        out.append(c)
    return sorted(set(out), key=order.__getitem__)


@dataclass
class Document:
    text: str
    language: LanguageTag
    source_id: str
    ordinal: int
    # (spec, encode(text, spec)) once sample_uniform has measured the document,
    # so a packer with the same spec takes the ids instead of matching the text.
    encoding: tuple[TokenizerSpec, np.ndarray] | None = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise ValueError("document text is empty")


@dataclass
class SentencePair:
    en_text: str
    sea_text: str
    sea_language: LanguageTag
    source_id: str
    ordinal: int

    def __post_init__(self) -> None:
        if not self.en_text.strip() or not self.sea_text.strip():
            raise ValueError("sentence pair has an empty side")
        if self.sea_language.code == "en":
            raise ValueError("sea_language must not be English")

    @classmethod
    def _checked(
        cls, en_text: str, sea_text: str, sea_language: LanguageTag, source_id: str,
        ordinal: int,
    ) -> "SentencePair":
        """A pair whose sides a reader has stripped and found non-empty, in a
        SEA language it has checked once: ``__post_init__`` is not repeated."""
        pair = object.__new__(cls)
        pair.en_text = en_text
        pair.sea_text = sea_text
        pair.sea_language = sea_language
        pair.source_id = source_id
        pair.ordinal = ordinal
        return pair


@dataclass
class ReadCounter:
    """Per-source bookkeeping: every record read is emitted or skipped."""

    emitted: int = 0
    skipped: int = 0

    @property
    def records(self) -> int:
        return self.emitted + self.skipped


class ShortfallError(RuntimeError):
    """A sampling budget could not be met; carries per-source deficits."""

    def __init__(self, message: str, deficits: dict):
        super().__init__(message)
        self.deficits = deficits


def _iter_plain_records(path: str | os.PathLike[str]) -> Iterator[str]:
    """Blank-line-separated records; every record (even empty) is yielded."""
    chunk: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                chunk.append(line)
            else:
                yield "".join(chunk).strip()
                chunk = []
    if chunk:
        yield "".join(chunk).strip()


def _is_jsonl(path: str | os.PathLike[str]) -> bool:
    return os.path.splitext(str(path))[1].lower() in (".jsonl", ".ndjson")


class _RowWarnings:
    """The malformed-row log of one source read: a warning for each of the
    first ``MAX_ROW_WARNINGS`` rows, then their total when the read ends."""

    def __init__(self, source_id: str):
        self.source_id = source_id
        self.rows = 0

    def __call__(self, message: str, *args: object) -> None:
        self.rows += 1
        if self.rows <= MAX_ROW_WARNINGS:
            log.warning("%s: " + message + ", skipping", self.source_id, *args)

    def close(self) -> None:
        if self.rows > MAX_ROW_WARNINGS:
            log.warning(
                "%s: skipped %d malformed rows, the first %d logged",
                self.source_id, self.rows, MAX_ROW_WARNINGS,
            )


def read_monolingual(
    path: str | os.PathLike[str],
    lang: str | LanguageTag,
    counter: ReadCounter | None = None,
    source_id: str | None = None,
) -> Iterator[Document]:
    """Stream documents from a monolingual corpus file in file order.

    Ordinals index records as they appear in the file, so skipped records
    leave gaps and every emitted document stays addressable in the source.
    """
    tag = language(lang)
    counter = counter if counter is not None else ReadCounter()
    source_id = source_id if source_id is not None else str(path)
    if _is_jsonl(path):
        warn = _RowWarnings(source_id)
        try:
            with open(path, encoding="utf-8") as fh:
                for ordinal, line in enumerate(fh):
                    text = _jsonl_text(line, ordinal, warn)
                    if text is None:
                        counter.skipped += 1
                        continue
                    counter.emitted += 1
                    yield Document(
                        text=text, language=tag, source_id=source_id, ordinal=ordinal
                    )
        finally:
            warn.close()
    else:
        for ordinal, record in enumerate(_iter_plain_records(path)):
            if not record:
                counter.skipped += 1
                continue
            counter.emitted += 1
            yield Document(text=record, language=tag, source_id=source_id, ordinal=ordinal)


def _jsonl_text(line: str, ordinal: int, warn: _RowWarnings) -> str | None:
    try:
        obj = json.loads(line)
        text = obj["text"]
    except (json.JSONDecodeError, KeyError, TypeError):
        warn("record %d is malformed", ordinal)
        return None
    if not isinstance(text, str) or not text.strip():
        warn("record %d has empty text", ordinal)
        return None
    return text.strip()


def read_parallel(
    path: str | os.PathLike[str],
    sea_lang: str | LanguageTag,
    counter: ReadCounter | None = None,
    source_id: str | None = None,
) -> Iterator[SentencePair]:
    """Stream english/SEA sentence pairs from a bitext file in file order.

    The language is checked once and each row's sides once, here: the pairs
    are built without repeating ``SentencePair``'s checks.
    """
    tag = language(sea_lang)
    if tag.code == "en":
        raise ValueError("sea_language must not be English")
    counter = counter if counter is not None else ReadCounter()
    source_id = source_id if source_id is not None else str(path)
    jsonl = _is_jsonl(path)
    warn = _RowWarnings(source_id)
    try:
        with open(path, encoding="utf-8") as fh:
            for ordinal, line in enumerate(fh):
                sides = _pair_fields(line, jsonl, ordinal, warn)
                if sides is None:
                    counter.skipped += 1
                    continue
                counter.emitted += 1
                yield SentencePair._checked(*sides, tag, source_id, ordinal)
    finally:
        warn.close()


def _pair_fields(
    line: str, jsonl: bool, ordinal: int, warn: _RowWarnings
) -> tuple[str, str] | None:
    if jsonl:
        try:
            obj = json.loads(line)
            en_text, sea_text = obj["en"], obj["sea"]
        except (json.JSONDecodeError, KeyError, TypeError):
            warn("row %d is malformed", ordinal)
            return None
        if not isinstance(en_text, str) or not isinstance(sea_text, str):
            warn("row %d has non-string sides", ordinal)
            return None
    else:
        fields = line.rstrip("\n").split("\t")
        if len(fields) != 2:
            warn("row %d has %d fields (want 2)", ordinal, len(fields))
            return None
        en_text, sea_text = fields
    en_text, sea_text = en_text.strip(), sea_text.strip()
    if not en_text or not sea_text:
        warn("row %d has an empty side", ordinal)
        return None
    return en_text, sea_text


def _measure(item: Document | SentencePair, spec: TokenizerSpec) -> int:
    """Raw text tokens of one record (separators are not counted). A
    document is measured by its ids, which it keeps as its ``encoding``."""
    if isinstance(item, SentencePair):
        return count_tokens(item.en_text, spec) + count_tokens(item.sea_text, spec)
    ids = encode(item.text, spec)
    item.encoding = (spec, ids)
    return len(ids)


@dataclass
class SampleReport:
    """Outcome of one ``sample_uniform`` pass, kept current as records are
    drawn, so a pass that its consumer stops early still reports what it drew."""

    quota: float = 0.0
    drawn_tokens: dict[int, int] = field(default_factory=dict)
    drawn_records: dict[int, int] = field(default_factory=dict)
    deficits: dict[int, int] = field(default_factory=dict)

    @property
    def shortfall(self) -> bool:
        return any(v > 0 for v in self.deficits.values())


def sample_uniform(
    sources: Sequence[Iterable[Document] | Iterable[SentencePair]],
    token_budget: int,
    spec: TokenizerSpec,
    report: SampleReport | None = None,
) -> Iterator[Document | SentencePair]:
    """Interleave sources round-robin, equalizing tokens drawn from each.

    Whole records are drawn (never split); a source stops once its drawn
    tokens reach ``token_budget / len(sources)``, so per-source draws differ
    by at most one record's length. Sources that run dry end early and are
    listed in the report's deficits; only a completely empty pull with a
    positive budget raises. A drawn document is measured by its ids and keeps
    them as its ``encoding``, so a packer with the same spec does not match
    its text again.
    """
    if not sources:
        raise ValueError("sample_uniform requires at least one source")
    if token_budget < 0:
        raise ValueError("token_budget must be non-negative")
    n = len(sources)
    quota = token_budget / n
    report = report if report is not None else SampleReport()
    report.quota = quota
    report.drawn_tokens = drawn = dict.fromkeys(range(n), 0)
    report.drawn_records = records = dict.fromkeys(range(n), 0)
    report.deficits = {}
    iters = [iter(s) for s in sources]
    done = [quota <= 0] * n
    emitted_any = False
    while not all(done):
        for i in range(n):
            if done[i]:
                continue
            try:
                item = next(iters[i])
            except StopIteration:
                done[i] = True
                if drawn[i] < quota:
                    report.deficits[i] = math.ceil(quota - drawn[i])
                continue
            drawn[i] += _measure(item, spec)
            records[i] += 1
            emitted_any = True
            yield item
            if drawn[i] >= quota:
                done[i] = True
    if token_budget > 0 and not emitted_any:
        raise ShortfallError(
            f"all {n} sources empty with budget {token_budget}", report.deficits
        )


# --- corpus configuration -------------------------------------------------

SOURCE_KINDS = ("monolingual", "parallel", "replay")


@dataclass(frozen=True)
class CorpusSource:
    path: str
    kind: str  # monolingual | parallel | replay
    language: str | None = None  # ISO code; None only for replay
    source_id: str | None = None  # provenance name; defaults to path

    def __post_init__(self) -> None:
        if self.kind not in SOURCE_KINDS:
            raise ValueError(f"unknown source kind {self.kind!r}")
        if self.kind == "replay":
            if self.language not in (None, "en"):
                raise ValueError("replay sources are English")
        else:
            if self.language is None:
                raise ValueError(f"{self.kind} source needs a language")
            language(self.language)
            if self.kind == "parallel" and self.language == "en":
                raise ValueError("parallel sources are keyed by the SEA language")
        if self.source_id is None:
            object.__setattr__(self, "source_id", self.path)


def load_corpus_config(path: str | os.PathLike[str]) -> list[CorpusSource]:
    """Read a corpus configuration file.

    JSON shape: ``{"sources": [{"path": ..., "kind": ..., "language": ...}]}``.
    Relative paths are resolved against the config file's directory.
    """
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    base = os.path.dirname(os.path.abspath(path))
    sources = []
    for entry in raw["sources"]:
        p = entry["path"]
        if not os.path.isabs(p):
            p = os.path.join(base, p)
        sources.append(
            CorpusSource(
                path=p,
                kind=entry["kind"],
                language=entry.get("language"),
                source_id=entry["path"],
            )
        )
    return sources


# --- corpus accounting ----------------------------------------------------


@dataclass
class Tally:
    records: int = 0
    skipped: int = 0
    tokens: int = 0  # document tokens, or SEA-side tokens for pairs
    en_tokens: int = 0  # EN-side tokens for pairs

    def add(self, other: "Tally") -> None:
        self.records += other.records
        self.skipped += other.skipped
        self.tokens += other.tokens
        self.en_tokens += other.en_tokens


@dataclass
class CorpusStats:
    by_source: dict[str, Tally] = field(default_factory=dict)
    parallel: dict[str, Tally] = field(default_factory=dict)  # keyed by SEA code
    monolingual: dict[str, Tally] = field(default_factory=dict)
    replay: Tally = field(default_factory=Tally)
    tokenizer_id: str = ""

    def parallel_total(self) -> Tally:
        total = Tally()
        for tally in self.parallel.values():
            total.add(tally)
        return total

    def monolingual_total(self) -> Tally:
        total = Tally()
        for tally in self.monolingual.values():
            total.add(tally)
        return total

    def render(self) -> str:
        """Tabular summary; parallel rows use the canonical language order."""
        lines = [f"Corpus statistics (tokenizer: {self.tokenizer_id})"]
        if self.parallel:
            lines.append("")
            lines.append("Parallel data")
            header = f"{'ISO':<5}{'Language':<12}{'# sent.':>12}{'SEA tok':>14}{'EN tok':>14}"
            lines.append(header)
            for code in SEA_CODES:
                if code not in self.parallel:
                    continue
                t = self.parallel[code]
                lines.append(
                    f"{code:<5}{LANGUAGES[code].display_name:<12}"
                    f"{t.records:>12,}{t.tokens:>14,}{t.en_tokens:>14,}"
                )
            t = self.parallel_total()
            lines.append(
                f"{'Total':<17}{t.records:>12,}{t.tokens:>14,}{t.en_tokens:>14,}"
            )
        if self.monolingual:
            lines.append("")
            lines.append("Monolingual data")
            lines.append(f"{'ISO':<5}{'Language':<12}{'# docs':>12}{'tokens':>14}")
            for code in SEA_CODES:
                if code not in self.monolingual:
                    continue
                t = self.monolingual[code]
                lines.append(
                    f"{code:<5}{LANGUAGES[code].display_name:<12}"
                    f"{t.records:>12,}{t.tokens:>14,}"
                )
            t = self.monolingual_total()
            lines.append(f"{'Total':<17}{t.records:>12,}{t.tokens:>14,}")
        if self.replay.records or self.replay.skipped:
            lines.append("")
            lines.append(
                f"Replay data: {self.replay.records:,} docs, {self.replay.tokens:,} tokens"
            )
        skipped = sum(t.skipped for t in self.by_source.values())
        if skipped:
            lines.append(f"Skipped records: {skipped:,}")
        return "\n".join(lines)


def corpus_stats(sources: Sequence[CorpusSource], spec: TokenizerSpec) -> CorpusStats:
    """Exact per-source and per-language record/token accounting."""
    stats = CorpusStats(tokenizer_id=spec.id)
    for src in sources:
        counter = ReadCounter()
        tally = Tally()
        if src.kind == "parallel":
            assert src.language is not None
            for pair in read_parallel(src.path, src.language, counter):
                tally.records += 1
                tally.tokens += count_tokens(pair.sea_text, spec)
                tally.en_tokens += count_tokens(pair.en_text, spec)
            tally.skipped = counter.skipped
            stats.parallel.setdefault(src.language, Tally()).add(tally)
        else:
            lang = src.language or "en"
            for doc in read_monolingual(src.path, lang, counter):
                tally.records += 1
                tally.tokens += count_tokens(doc.text, spec)
            tally.skipped = counter.skipped
            if src.kind == "replay":
                stats.replay.add(tally)
            else:
                stats.monolingual.setdefault(lang, Tally()).add(tally)
        stats.by_source[src.source_id or src.path] = tally
    return stats
