"""Seeded inputs for the benchmark workloads.

Every generator here is a pure function of the workload seed, so the same
seed always gives byte-identical inputs. The corpora come from
``currikit.synthetic.write_corpus``; the vocabulary file, the malformed-row
injector and the scoring sets are the benchmark's own and draw from
``random.Random`` seeded with a string that names the input and the seed.
String seeds are hashed with SHA-512, so the draws do not depend on
``PYTHONHASHSEED`` and stay stable across Python versions.

Inputs are cached per workload and seed under the cache directory, and
written to a temporary directory first so an interrupted run never leaves
a half-written cache entry behind.
"""

from __future__ import annotations

import json
import random
import shutil
import string
from pathlib import Path

CORPUS_LANGUAGES = ("id", "th")

# Sizes are set so that no packer stream runs dry: every sampled source can
# meet its quota (one block more than its stream needs) and every pair
# stream has at least 20% more clean rows than its blocks consume.
MIXED_CORPUS = dict(n_pairs=4500, n_docs=420, sentences_per_doc=40, replay_files=2, replay_docs=220)
REPLACEMENT_CORPUS = dict(
    n_pairs=8000, n_docs=200, sentences_per_doc=40, replay_files=2, replay_docs=340
)

VOCAB_PIECES = 2000
VOCAB_MAX_PIECE = 8
MALFORMED_SHARE = 0.01

SCORE_SENTENCES = 1000


def cache_dir(cache_root: Path, workload: str, seed: int) -> Path:
    return cache_root / workload / f"seed-{seed}"


def is_cached(directory: Path) -> bool:
    return (directory / "DONE").exists()


def cached(cache_root: Path, workload: str, seed: int, build) -> Path:
    """Directory holding ``build(directory, seed)``'s output for this seed."""
    final = cache_dir(cache_root, workload, seed)
    if is_cached(final):
        return final
    tmp = cache_root / workload / f".seed-{seed}.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    shutil.rmtree(final, ignore_errors=True)
    tmp.mkdir(parents=True)
    build(tmp, seed)
    (tmp / "DONE").write_text("ok\n", encoding="utf-8")
    tmp.rename(final)
    return final


# -- corpora ------------------------------------------------------------------


def write_mixed_inputs(directory: Path, seed: int) -> None:
    """Clean corpus: TSV bitext, plain-text mono and two JSONL replay files."""
    from currikit.synthetic import write_corpus

    write_corpus(directory / "corpus", languages=CORPUS_LANGUAGES, seed=seed, **MIXED_CORPUS)


def write_replacement_inputs(directory: Path, seed: int) -> None:
    """Corpus with malformed TSV/JSONL rows plus a covering vocabulary file."""
    from currikit.synthetic import write_corpus

    config = write_corpus(
        directory / "corpus", languages=CORPUS_LANGUAGES, seed=seed, **REPLACEMENT_CORPUS
    )
    corpus = config.parent
    write_vocab(directory / "vocab.txt", sorted(corpus.iterdir()), seed)
    for path in sorted(corpus.iterdir()):
        if path.suffix in (".tsv", ".jsonl"):
            inject_malformed(path, seed, MALFORMED_SHARE)


def inject_malformed(path: Path, seed: int, share: float) -> int:
    """Insert malformed rows at seed-drawn line positions; returns how many.

    Rows are inserted, never substituted, so the clean rows that feed the
    packers are unchanged and every stream keeps its supply.
    """
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    r = random.Random(f"malformed:{seed}:{path.name}")
    count = max(1, round(len(lines) * share))
    positions = sorted(r.sample(range(len(lines) + 1), count), reverse=True)
    if path.suffix == ".tsv":
        bad = ("only one field\n", "three\tfields\there\n", "\tenglish side empty\n")
    else:
        bad = ('{"text": "unterminated\n', '{"body": "no text key"}\n', '{"text": "   "}\n')
    for pos in positions:
        lines.insert(pos, r.choice(bad))
    path.write_text("".join(lines), encoding="utf-8")
    return count


def write_vocab(path: Path, corpus_files: list[Path], seed: int) -> None:
    """A ``bpe-vocab-v1`` file covering every character the corpus uses.

    Single characters (the corpus alphabet, printable ASCII and the pair
    labels) guarantee coverage; the rest of the table is whole words and
    substrings of up to ``VOCAB_MAX_PIECE`` characters drawn from the text.
    """
    from currikit.corpus import LANGUAGES

    r = random.Random(f"vocab:{seed}")
    text = "".join(p.read_text(encoding="utf-8") for p in corpus_files if p.suffix != ".json")
    labels = "".join(f"{tag.display_name}: \n" for tag in LANGUAGES.values())
    pieces = set(text) | set(string.printable) | set(labels)
    pieces.discard("\t")
    pieces.discard("\r")
    sample = text[: 400_000]
    words = sorted(set(sample.split()))
    r.shuffle(words)
    for w in words[: VOCAB_PIECES // 4]:
        if len(w) <= VOCAB_MAX_PIECE:
            pieces.update({w, w + " "})
    while len(pieces) < VOCAB_PIECES:
        length = r.randint(2, VOCAB_MAX_PIECE)
        start = r.randrange(len(sample) - length)
        piece = sample[start : start + length]
        if "\t" not in piece and "\n" not in piece:
            pieces.add(piece)
    ordered = sorted(pieces)
    r.shuffle(ordered)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("bpe-vocab-v1\n")
        fh.write(f"name bench-bpe-{seed}\n")
        fh.write("eot 0\n")
        for tid, piece in enumerate(ordered, start=1):
            fh.write(f"token {tid} {json.dumps(piece)}\n")


# -- scoring sets -------------------------------------------------------------

_CONSONANTS = "bcdghjklmnprstwy"
_VOWELS = "aeiou"
_CJK_POOL = [chr(0x4E00 + i * 7) for i in range(400)]


def _id_lexicon(r: random.Random, size: int = 600) -> list[str]:
    words = set()
    while len(words) < size:
        syllables = r.randint(1, 4)
        words.add(
            "".join(r.choice(_CONSONANTS) + r.choice(_VOWELS) for _ in range(syllables))
        )
    return sorted(words)


def _id_sentence(r: random.Random, lexicon: list[str]) -> list[str]:
    n = r.randint(6, 24)
    words = [r.choice(lexicon) for _ in range(n)]
    words[0] = words[0].capitalize()
    if n > 10:
        words[r.randrange(2, n - 2)] += ","
    return words


def _perturb(r: random.Random, units: list[str], rate: float, pool: list[str]) -> list[str]:
    """Replace, drop or duplicate units independently with probability ``rate``."""
    out: list[str] = []
    for u in units:
        if r.random() >= rate:
            out.append(u)
            continue
        action = r.randrange(3)
        if action == 0:
            out.append(r.choice(pool))
        elif action == 2:
            out.extend((u, u))
    return out or units[:1]


# Hypothesis noise rates: A is slightly better than B, so the bootstrap
# p-value varies with the seed instead of sitting at its floor.
NOISE_A = 0.30
NOISE_B = 0.305


def write_score_inputs(directory: Path, seed: int) -> None:
    """``id`` (default mode) and ``zh`` (zh mode) reference/hypothesis sets."""
    r = random.Random(f"score:{seed}")
    lexicon = _id_lexicon(r)
    refs, hyp_a, hyp_b = [], [], []
    for _ in range(SCORE_SENTENCES):
        words = _id_sentence(r, lexicon)
        refs.append(" ".join(words) + ".")
        hyp_a.append(" ".join(_perturb(r, words, NOISE_A, lexicon)) + ".")
        hyp_b.append(" ".join(_perturb(r, words, NOISE_B, lexicon)) + ".")
    _write_set(directory, "id", refs, hyp_a, hyp_b)

    refs, hyp_a, hyp_b = [], [], []
    for _ in range(SCORE_SENTENCES):
        chars = [r.choice(_CJK_POOL) for _ in range(r.randint(12, 40))]
        if len(chars) > 20:
            chars.insert(r.randrange(5, len(chars) - 5), "，")
        refs.append("".join(chars) + "。")
        hyp_a.append("".join(_perturb(r, chars, NOISE_A, _CJK_POOL)) + "。")
        hyp_b.append("".join(_perturb(r, chars, NOISE_B, _CJK_POOL)) + "。")
    _write_set(directory, "zh", refs, hyp_a, hyp_b)


def _write_set(directory: Path, code: str, refs, hyp_a, hyp_b) -> None:
    for name, lines in (("ref", refs), ("hyp_a", hyp_a), ("hyp_b", hyp_b)):
        (directory / f"{code}.{name}.txt").write_text(
            "".join(line + "\n" for line in lines), encoding="utf-8"
        )
