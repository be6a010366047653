"""Deterministic synthetic corpora for tests and demos.

Produces plausible-looking monolingual files, bitext TSVs, and replay
JSONL plus a matching corpus configuration. All text is ASCII built from
per-language pseudo-lexicons, so byte-fallback token counts equal character
counts and every file is reproducible from the seed alone.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import rng

# Small per-language pseudo-lexicons; enough to make streams distinguishable.
_LEXICON = {
    "en": ["the", "river", "market", "story", "between", "morning", "quiet", "trade"],
    "id": ["pasar", "sungai", "cerita", "antara", "pagi", "tenang", "dagang", "kota"],
    "km": ["phsar", "tonle", "rueng", "rveang", "pruk", "sngat", "chomnuonh", "krong"],
    "lo": ["talat", "menam", "lueang", "lavang", "saone", "mid", "kankha", "mueang"],
    "ms": ["pasar", "sungai", "kisah", "antara", "pagi", "sunyi", "niaga", "bandar"],
    "my": ["zay", "myit", "zatlan", "akyar", "manet", "titsu", "konthwe", "myo"],
    "ta": ["santhai", "aaru", "kathai", "idaiyil", "kaalai", "amaithi", "viyaparam", "nagaram"],
    "th": ["talat", "maenam", "ruang", "rawang", "chao", "ngiap", "kankha", "mueang"],
    "tl": ["palengke", "ilog", "kuwento", "pagitan", "umaga", "tahimik", "kalakal", "lungsod"],
    "vi": ["cho", "song", "chuyen", "giua", "sang", "yen", "buon", "pho"],
    "zh": ["shichang", "heliu", "gushi", "zhijian", "zaochen", "anjing", "maoyi", "chengshi"],
}


def _tag(index: object) -> str:
    if isinstance(index, tuple):
        return "-".join(str(p) for p in index)
    return str(index)


def _sentence(code: str, seed: int, index: object, words: int = 8) -> str:
    lex = _LEXICON[code]
    draws = rng.draws64(words, seed, code, _tag(index)) % len(lex)
    picks = [lex[i] for i in draws.tolist()]
    picks.append(f"{code}-{_tag(index)}")
    return " ".join(picks).capitalize() + "."


def _document(code: str, seed: int, index: int, sentences: int) -> str:
    return " ".join(_sentence(code, seed, (index, s)) for s in range(sentences))


def write_monolingual(
    path: Path, code: str, n_docs: int, sentences_per_doc: int, seed: int
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n_docs):
            fh.write(_document(code, seed, i, sentences_per_doc))
            fh.write("\n\n")


def write_parallel_tsv(path: Path, code: str, n_pairs: int, seed: int) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n_pairs):
            en = _sentence("en", seed, ("pair", i))
            sea = _sentence(code, seed, ("pair", i))
            fh.write(f"{en}\t{sea}\n")


def write_replay_jsonl(path: Path, n_docs: int, sentences_per_doc: int, seed: int) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n_docs):
            doc = {"text": _document("en", seed, ("replay", i), sentences_per_doc)}
            fh.write(json.dumps(doc) + "\n")


def write_corpus(
    root: Path,
    languages: tuple[str, ...] = ("id", "th"),
    n_pairs: int = 4000,
    n_docs: int = 120,
    sentences_per_doc: int = 40,
    replay_files: int = 2,
    replay_docs: int | None = None,
    seed: int = 0,
) -> Path:
    """Write a full synthetic corpus under ``root``; returns the config path.

    Rough sizing: one document is ~sentences_per_doc * 60 characters, one
    pair row ~120 characters. Scale the counts to the token budget needed.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    entries = []
    for code in languages:
        if n_docs > 0:
            mono = root / f"mono_{code}.txt"
            write_monolingual(mono, code, n_docs, sentences_per_doc, seed)
            entries.append({"path": mono.name, "kind": "monolingual", "language": code})
        if n_pairs > 0:
            pairs = root / f"pairs_en_{code}.tsv"
            write_parallel_tsv(pairs, code, n_pairs, seed)
            entries.append({"path": pairs.name, "kind": "parallel", "language": code})
    docs = n_docs if replay_docs is None else replay_docs
    for r in range(replay_files):
        replay = root / f"replay_{r}.jsonl"
        write_replay_jsonl(replay, docs, sentences_per_doc, seed + r)
        entries.append({"path": replay.name, "kind": "replay"})
    config = root / "corpus.json"
    config.write_text(json.dumps({"sources": entries}, indent=2) + "\n", encoding="utf-8")
    return config
