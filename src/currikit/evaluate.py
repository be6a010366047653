"""Translation scoring and result aggregation.

Corpus BLEU with the standard decomposition: clipped n-gram precisions
(n = 1..4) pooled over sentences, geometric mean, brevity penalty, no
smoothing (any zero precision zeroes the score). Significance is a
one-sided paired bootstrap over sentence indices with an add-one
corrected p-value. Scoring is case-sensitive; tokenization mode and
sample counts are carried on every result so reports are self-describing.

Tokenizing is one ``str.translate`` through a per-mode table, filled one
code point at a time as text meets it, then a whitespace split. N-grams
are counted as numpy arrays, ``STATS_BLOCK`` sentences at a time: tokens get ids shared
by the reference and every system, each n-gram id is built from its prefix's
id and its last token, ``np.unique`` counts each (sentence, side, n-gram)
key, and a hypothesis count is clipped at the reference's count of the same
n-gram. ``tests/helpers.py`` keeps the per-character tokenizer and the
``Counter``-based statistics as the scalar reference.

The bootstrap resamples ``max(1, BOOTSTRAP_CHUNK // n)`` samples of n
sentences at once with a fixed number of numpy calls: their keyed index
draws in one ``rng.index_rows`` matrix, the draw counts of every sample in
one offset ``bincount``, and each sample's exact integer totals from one
float64 matrix-vector product per statistic. Each sample's two scores come
from ``_bleu``, the scalar arithmetic ``bleu`` uses, so every p-value is
the one a sample-by-sample loop over the drawn rows gives
(``tests/helpers.reference_bootstrap``).
"""

from __future__ import annotations

import math
import unicodedata
from collections import defaultdict
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from itertools import chain, count
from typing import Mapping, Sequence

import numpy as np

from . import rng
from .corpus import EN, SEA_CODES, LanguageTag, SentencePair, language

MAX_NGRAM = 4

# Length of a _corpus_stats row per system: correct and total n-grams, hyp_len, ref_len.
STATS_WIDTH = 2 * MAX_NGRAM + 2

# Sentences whose n-grams are counted together, every side at once, so the
# counting arrays grow with the block, not with the corpus.
STATS_BLOCK = 64

# Index draws per bootstrap chunk: a chunk resamples max(1, BOOTSTRAP_CHUNK // n)
# samples of n sentences at once, so each of its (samples, n) arrays holds
# about 2**15 eight-byte values (256 KiB), whatever the corpus size. 2**16
# resamples no faster and adds about a MiB to the peak resident set.
BOOTSTRAP_CHUNK = 1 << 15

TOKENIZATION_MODES = ("default", "zh")


def mode_for_language(code: str) -> str:
    """Word BLEU is meaningless for unsegmented CJK text; use zh mode there."""
    return "zh" if code == "zh" else "default"


def _is_cjk(ch: str) -> bool:
    cp = ord(ch)
    return (
        0x4E00 <= cp <= 0x9FFF
        or 0x3400 <= cp <= 0x4DBF
        or 0xF900 <= cp <= 0xFAFF
        or 0x20000 <= cp <= 0x2A6DF
        or 0x2A700 <= cp <= 0x2EBEF
    )


SPLIT_TABLE_LIMIT = 65_536


class _SplitTable(dict):
    """``str.translate`` table of one tokenization mode, filled on first use.

    A code point's entry is computed when ``translate`` first meets it:
    ``" ch "`` for Unicode punctuation (and CJK characters in zh mode),
    otherwise the code point itself. No entry is ``None``, which would
    delete the character. A table holding ``SPLIT_TABLE_LIMIT`` entries
    clears itself before it stores the next, so text that covers much of
    Unicode cannot keep tens of MB resident for the life of the process.
    """

    def __init__(self, split_cjk: bool) -> None:
        super().__init__()
        self.split_cjk = split_cjk

    def __missing__(self, cp: int) -> str | int:
        ch = chr(cp)
        if unicodedata.category(ch).startswith("P") or (self.split_cjk and _is_cjk(ch)):
            entry: str | int = f" {ch} "
        else:
            entry = cp
        if len(self) >= SPLIT_TABLE_LIMIT:
            self.clear()
        self[cp] = entry
        return entry


_SPLIT_TABLES = {"default": _SplitTable(False), "zh": _SplitTable(True)}


def tokenize(text: str, mode: str = "default") -> list[str]:
    """Separate punctuation (and CJK characters in zh mode), then split."""
    if mode not in TOKENIZATION_MODES:
        raise ValueError(f"unknown tokenization mode {mode!r}")
    return text.translate(_SPLIT_TABLES[mode]).split()


@dataclass
class BleuScore:
    score: float  # 0..100
    precisions: tuple[float, float, float, float]  # fractions in [0, 1]
    brevity_penalty: float
    hyp_len: int
    ref_len: int
    mode: str = "default"

    def format(self) -> str:
        p = "/".join(f"{x:.3f}" for x in self.precisions)
        return (
            f"BLEU = {self.score:.2f} (precisions {p}, bp {self.brevity_penalty:.3f}, "
            f"hyp_len {self.hyp_len}, ref_len {self.ref_len}, mode {self.mode}, "
            f"case-sensitive)"
        )


def _corpus_stats(
    references: Sequence[str], mode: str, *systems: Sequence[str]
) -> np.ndarray:
    """Per-sentence statistics of each system, side by side.

    Row i holds ``[correct_1..4, total_1..4, hyp_len, ref_len]`` of
    ``systems[0][i]`` against ``references[i]``, then the same for
    ``systems[1][i]`` and so on. Every sentence is tokenized once.
    """
    for hypotheses in systems:
        if len(hypotheses) != len(references):
            raise ValueError(
                f"{len(hypotheses)} hypotheses vs {len(references)} references"
            )
    if not references:
        raise ValueError("empty corpus")
    m = len(references)
    blocks = (range(start, min(start + STATS_BLOCK, m)) for start in range(0, m, STATS_BLOCK))
    return np.concatenate([_block_stats(references, systems, mode, block) for block in blocks])


def _block_stats(
    references: Sequence[str], systems: Sequence[Sequence[str]], mode: str, block: range
) -> np.ndarray:
    """``_corpus_stats`` rows of the sentences in ``block``.

    Slot s is sentence ``block[s // sides]`` of side ``s % sides``, the
    reference being side 0. Tokens get dense ids below the vocabulary size
    V; an n-gram's id is its (n-1)-gram prefix's id times V plus its last
    token, below ``width`` = V**n. Only when ``slots * width`` would not fit
    in int64 are the prefix ids made dense again first. One ``np.unique``
    counts every ``slot * width + gram`` key that does not cross a sentence
    end, and a hypothesis count is clipped at the count of the same n-gram
    in its sentence's reference slot.
    """
    sentences = []
    for i in block:
        ref = tokenize(references[i], mode)
        if not ref:
            raise ValueError(f"reference sentence {i} is empty")
        sentences.append(ref)
        for hypotheses in systems:
            sentences.append(tokenize(hypotheses[i], mode))
    sides = 1 + len(systems)
    lens = np.fromiter(map(len, sentences), dtype=np.int64, count=len(sentences))
    vocab: defaultdict[str, int] = defaultdict(count().__next__)
    tokens = np.fromiter(
        map(vocab.__getitem__, chain.from_iterable(sentences)), dtype=np.int64, count=lens.sum()
    )
    slot = np.repeat(np.arange(len(lens)), lens)
    # Tokens left in each token's sentence, counting itself.
    room = np.repeat(np.cumsum(lens), lens) - np.arange(len(tokens))
    correct = np.empty((len(lens), MAX_NGRAM), dtype=np.int64)
    gram, width, v = tokens, len(vocab), len(vocab)
    for n in range(1, MAX_NGRAM + 1):
        if n > 1:
            if len(lens) * width * v >= 1 << 63:
                uniq, gram = np.unique(gram, return_inverse=True)
                width = len(uniq)
            gram = gram[:-1] * v + tokens[n - 1 :]
            width *= v
        inside = room[: len(gram)] >= n
        keys, counts = np.unique(
            slot[: len(gram)][inside] * width + gram[inside], return_counts=True
        )
        # Each key's reference key is no larger than the key itself, which
        # is in keys, so every insertion point is inside keys.
        ref_keys = keys - keys // width % sides * width
        at = np.searchsorted(keys, ref_keys)
        ref_counts = np.where(keys[at] == ref_keys, counts[at], 0)
        correct[:, n - 1] = np.bincount(
            keys // width, weights=np.minimum(counts, ref_counts), minlength=len(lens)
        )
    totals = np.maximum(lens[:, None] - np.arange(MAX_NGRAM), 0)
    rows = np.column_stack((correct, totals, lens, np.repeat(lens[::sides], sides)))
    return rows.reshape(len(block), sides * STATS_WIDTH)[:, STATS_WIDTH:]


def _bleu(totals: Sequence[float]) -> tuple[float, list[float], float]:
    """``(score, precisions, brevity_penalty)`` of one system's summed
    ``_corpus_stats`` row, ints or integer-valued floats alike: a quotient
    of two integers below 2**53 rounds the same either way."""
    precisions = [
        c / t if t > 0 else 0.0
        for c, t in zip(totals[:MAX_NGRAM], totals[MAX_NGRAM : 2 * MAX_NGRAM])
    ]
    hyp_len, ref_len = totals[-2], totals[-1]
    if hyp_len >= ref_len:
        bp = 1.0
    elif hyp_len == 0:
        bp = 0.0
    else:
        bp = math.exp(1.0 - ref_len / hyp_len)
    if min(precisions) > 0.0:
        score = bp * 100.0 * math.exp(sum(map(math.log, precisions)) / MAX_NGRAM)
    else:
        score = 0.0
    return score, precisions, bp


def _score_from_totals(totals: Sequence[int], mode: str) -> BleuScore:
    score, precisions, bp = _bleu(totals)
    return BleuScore(
        score=score,
        precisions=tuple(precisions),  # type: ignore[arg-type]
        brevity_penalty=bp,
        hyp_len=int(totals[-2]),
        ref_len=int(totals[-1]),
        mode=mode,
    )


def bleu(
    hypotheses: Sequence[str], references: Sequence[str], mode: str = "default"
) -> BleuScore:
    """Corpus-level BLEU: counts are pooled across sentences before division,
    and each hypothesis n-gram count is clipped at its reference count."""
    stats = _corpus_stats(references, mode, hypotheses)
    return _score_from_totals(stats.sum(axis=0).tolist(), mode)


@dataclass
class SignificanceResult:
    delta: float  # score(A) - score(B) on the full corpus
    p_value: float
    n_samples: int
    seed: int
    score_a: float
    score_b: float
    mode: str = "default"

    def format(self) -> str:
        return (
            f"A = {self.score_a:.2f}, B = {self.score_b:.2f}, "
            f"delta = {self.delta:+.2f}, p = {self.p_value:.6f} "
            f"(one-sided, {self.n_samples} samples, seed {self.seed}, "
            f"mode {self.mode})"
        )


def paired_bootstrap(
    hyps_a: Sequence[str],
    hyps_b: Sequence[str],
    references: Sequence[str],
    n_samples: int = 1000,
    seed: int = 0,
    mode: str = "default",
) -> SignificanceResult:
    """One-sided paired bootstrap for "A better than B".

    Each sample redraws sentence indices with replacement (the same indices
    for both systems) and compares corpus BLEU. The p-value is add-one
    corrected, (1 + #{BLEU_A <= BLEU_B}) / (n_samples + 1), so ties count
    against A and p is never 0. Index draws are keyed by (seed, sample), so
    results are independent of evaluation order.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if len(hyps_a) != len(hyps_b) or len(hyps_a) != len(references):
        raise ValueError("hypothesis and reference lists must have equal length")
    if len(references) < 2:
        raise ValueError("paired bootstrap needs at least 2 sentences")
    stats = _corpus_stats(references, mode, hyps_a, hyps_b)
    n = len(references)
    full = stats.sum(axis=0).tolist()
    score_a, score_b = _bleu(full[:STATS_WIDTH])[0], _bleu(full[STATS_WIDTH:])[0]
    # A sample's totals are its draw counts times stats. Every product and
    # partial sum is an integer no larger than n * stats.max(), so float64
    # matrix-vector products give them exactly below 2**53. One product per
    # statistic: a float matrix-matrix product would leave BLAS threads
    # spinning after it returns.
    if n * int(stats.max()) >= 1 << 53:
        raise ValueError(f"{n} sentences are too many for exact bootstrap totals")
    columns = np.ascontiguousarray(stats.T, dtype=np.float64)
    rows = max(1, BOOTSTRAP_CHUNK // n)
    worse_or_tied = 0
    for start in range(0, n_samples, rows):
        samples = range(start, min(start + rows, n_samples))
        idx = rng.index_rows(n, n, [rng.hash64(seed, "bootstrap", s) for s in samples])
        # Offset row r's indices by r * n, so one bincount counts every row.
        idx += np.arange(0, len(samples) * n, n)[:, None]
        counts = np.bincount(idx.ravel(), minlength=len(samples) * n)
        del idx  # so that a chunk holds at most two of its arrays at once
        weights = counts.reshape(-1, n).astype(np.float64)
        totals = np.array([weights @ column for column in columns]).T.tolist()
        worse_or_tied += sum(
            _bleu(t[:STATS_WIDTH])[0] <= _bleu(t[STATS_WIDTH:])[0] for t in totals
        )
    return SignificanceResult(
        delta=score_a - score_b,
        p_value=(1 + worse_or_tied) / (n_samples + 1),
        n_samples=n_samples,
        seed=seed,
        score_a=score_a,
        score_b=score_b,
        mode=mode,
    )


# --- few-shot prompt assembly ----------------------------------------------


@dataclass
class PromptItem:
    prompt: str
    reference: str


@dataclass
class PromptSet:
    items: list[PromptItem]
    source: str  # ISO code
    target: str  # ISO code
    k: int

    def to_records(self) -> list[dict]:
        d = f"{self.source}-{self.target}"
        return [
            {"prompt": it.prompt, "reference": it.reference, "direction": d}
            for it in self.items
        ]


def build_prompts(
    dev_pairs: Sequence[SentencePair],
    test_pairs: Sequence[SentencePair],
    direction: tuple[str | LanguageTag, str | LanguageTag],
    k: int = 5,
    label_style: str = "name",
) -> PromptSet:
    """Fixed few-shot prompts in the training segment template.

    The first k dev pairs (in file order) are the exemplars for every test
    item, rendered as the packer renders a pair with the source side first,
    "{Source}: {src}\\n{Target}: {tgt}", and blank-line separated; the final
    item is its test pair rendered so and cut after "{Target}:".
    """
    from .packing import _pair_texts

    src, tgt = language(direction[0]), language(direction[1])
    if (src.code == "en") == (tgt.code == "en"):
        raise ValueError("direction must pair English with a SEA language")
    if k < 0:
        raise ValueError("k must be non-negative")
    if len(dev_pairs) < k:
        raise ValueError(f"need {k} dev pairs for exemplars, have {len(dev_pairs)}")
    sea = tgt if src.code == "en" else src
    sea_first = int(sea is src)
    pairs = [*dev_pairs[:k], *test_pairs]
    for pair in pairs:
        if pair.sea_language.code != sea.code:
            raise ValueError(
                f"pair language {pair.sea_language.code} does not match direction "
                f"{src.code}-{tgt.code}"
            )
    texts = _pair_texts([p.en_text for p in pairs], [p.sea_text for p in pairs],
                        [sea_first] * len(pairs), EN.label(label_style), sea.label(label_style))
    prefix = "".join(f"{shot}\n\n" for shot in texts[:k])
    items = []
    for pair, text in zip(test_pairs, texts[k:]):
        reference = pair.en_text if sea_first else pair.sea_text
        # the rendered pair without its last " {tgt}"
        items.append(PromptItem(prompt=prefix + text[: -len(reference) - 1], reference=reference))
    return PromptSet(items=items, source=src.code, target=tgt.code, k=k)


# --- per-language aggregation ----------------------------------------------


def round_half_up(value: float | Decimal, places: int = 2) -> float:
    quantum = Decimal(1).scaleb(-places)
    return float(Decimal(str(value)).quantize(quantum, rounding=ROUND_HALF_UP))


@dataclass
class ResultRow:
    label: str
    scores: dict[str, float]  # ISO code -> score
    average: float


def aggregate(per_language_scores: Mapping[str, float], label: str = "") -> ResultRow:
    """Arithmetic mean over languages, rounded half-up to 2 decimals."""
    if not per_language_scores:
        raise ValueError("no per-language scores to aggregate")
    scores = {language(code).code: float(v) for code, v in per_language_scores.items()}
    for code, score in scores.items():
        if not math.isfinite(score):
            raise ValueError(f"score of {code!r} is {score}, not a finite number")
    mean = sum(Decimal(str(v)) for v in scores.values()) / len(scores)
    return ResultRow(label=label, scores=scores, average=round_half_up(mean))


@dataclass
class ResultTable:
    rows: list[ResultRow]

    def render(self) -> str:
        codes = [c for c in ("en",) + SEA_CODES if any(c in r.scores for r in self.rows)]
        label_w = max(12, max((len(r.label) for r in self.rows), default=0) + 2)
        header = f"{'Model':<{label_w}}" + "".join(f"{c:>8}" for c in codes) + f"{'Avg':>8}"
        lines = [header]
        for r in self.rows:
            cells = "".join(
                f"{r.scores[c]:>8.2f}" if c in r.scores else f"{'-':>8}" for c in codes
            )
            lines.append(f"{r.label:<{label_w}}{cells}{r.average:>8.2f}")
        return "\n".join(lines)


def read_lines(path: str) -> list[str]:
    """One sentence per line, UTF-8; used for hypothesis/reference files."""
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh]


__all__ = [
    "BleuScore",
    "PromptItem",
    "PromptSet",
    "ResultRow",
    "ResultTable",
    "SignificanceResult",
    "aggregate",
    "bleu",
    "build_prompts",
    "mode_for_language",
    "paired_bootstrap",
    "read_lines",
    "round_half_up",
    "tokenize",
]
