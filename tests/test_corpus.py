import json
import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from currikit.corpus import (
    MAX_ROW_WARNINGS,
    CorpusSource,
    ReadCounter,
    SentencePair,
    SampleReport,
    ShortfallError,
    corpus_stats,
    language,
    load_corpus_config,
    read_monolingual,
    read_parallel,
    sample_uniform,
    sort_codes,
)
from currikit.tokenizer import BYTE_FALLBACK
from helpers import make_doc


def test_language_registry():
    assert language("id").display_name == "Indonesian"
    assert language("my").display_name == "Burmese"
    with pytest.raises(ValueError):
        language("xx")
    assert sort_codes(["zh", "id", "km"]) == ["id", "km", "zh"]


def test_plain_reader_ordinals(tmp_path):
    path = tmp_path / "mono.txt"
    path.write_text("doc one\n\ndoc two\n\ndoc three\n", encoding="utf-8")
    docs = list(read_monolingual(path, "id"))
    assert [d.ordinal for d in docs] == [0, 1, 2]
    assert [d.text for d in docs] == ["doc one", "doc two", "doc three"]


def test_plain_reader_skips_empty_record(tmp_path):
    path = tmp_path / "mono.txt"
    # five records, the third one blank (a doubled separator)
    path.write_text("a\n\nb\n\n\nd\n\ne\n", encoding="utf-8")
    counter = ReadCounter()
    docs = list(read_monolingual(path, "id", counter))
    assert len(docs) == 4
    assert counter.records == 5
    assert counter.emitted + counter.skipped == counter.records


def test_jsonl_reader_and_malformed_records(tmp_path):
    path = tmp_path / "mono.jsonl"
    lines = [
        json.dumps({"text": "good one"}),
        "not json at all {",
        json.dumps({"wrong_key": "x"}),
        json.dumps({"text": "   "}),
        json.dumps({"text": "good two"}),
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    counter = ReadCounter()
    docs = list(read_monolingual(path, "th", counter))
    assert [d.text for d in docs] == ["good one", "good two"]
    assert [d.ordinal for d in docs] == [0, 4]
    assert counter.skipped == 3


def test_tsv_pair_reader(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("Hello.\tHalo.\nBye.\tDah.\n", encoding="utf-8")
    pairs = list(read_parallel(path, "id"))
    assert len(pairs) == 2
    assert pairs[0].en_text == "Hello."
    assert pairs[0].sea_text == "Halo."
    assert pairs[1].ordinal == 1


def test_pair_reader_skips_bad_rows(tmp_path):
    path = tmp_path / "pairs.tsv"
    rows = ["good en\tgood sea", "no tab here", "three\tfields\there", "empty\t  "]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    counter = ReadCounter()
    pairs = list(read_parallel(path, "id", counter))
    assert len(pairs) == 1
    assert counter.records == 4
    assert counter.skipped == 3


def test_read_pairs_equal_checked_pairs_and_direct_pairs_are_checked(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("  Hello. \tHalo.\n", encoding="utf-8")
    assert list(read_parallel(path, "id")) == [
        SentencePair("Hello.", "Halo.", language("id"), str(path), 0)
    ]
    with pytest.raises(ValueError, match="must not be English"):
        next(read_parallel(path, "en"))
    for en_text, sea_text, code in [("", "Halo.", "id"), ("Hello.", " \t", "id"),
                                    ("Hello.", "Hello.", "en")]:
        with pytest.raises(ValueError):
            SentencePair(en_text, sea_text, language(code), "direct", 0)


def test_malformed_row_warnings_are_capped_per_source(tmp_path, caplog):
    bad = MAX_ROW_WARNINGS + 7
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text(
        "".join(f"en {i}\tsea {i}\n" + f"row {i} has no tab\n" * (i < bad) for i in range(20)),
        encoding="utf-8",
    )
    mono = tmp_path / "mono.jsonl"
    mono.write_text("{broken\n" * 2 + json.dumps({"text": "kept"}) + "\n", encoding="utf-8")
    pair_counter, mono_counter = ReadCounter(), ReadCounter()
    with caplog.at_level(logging.WARNING, logger="currikit.corpus"):
        assert len(list(read_parallel(pairs, "id", pair_counter, source_id="p"))) == 20
        assert len(list(read_monolingual(mono, "id", mono_counter, source_id="m"))) == 1
    assert (pair_counter.skipped, pair_counter.emitted) == (bad, 20)
    assert (mono_counter.skipped, mono_counter.emitted) == (2, 1)
    assert [r.getMessage() for r in caplog.records] == [
        *(f"p: row {2 * i + 1} has 1 fields (want 2), skipping" for i in range(MAX_ROW_WARNINGS)),
        f"p: skipped {bad} malformed rows, the first {MAX_ROW_WARNINGS} logged",
        "m: record 0 is malformed, skipping",
        "m: record 1 is malformed, skipping",
    ]


def test_pair_count_matches_line_count_oracle(tmp_path):
    """10k-row file: pair count equals line count minus malformed rows."""
    path = tmp_path / "big.tsv"
    malformed = 0
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(10_000):
            if i % 97 == 0:
                fh.write(f"row {i} with no tab\n")
                malformed += 1
            else:
                fh.write(f"en side {i}\tsea side {i}\n")
    with open(path, encoding="utf-8") as fh:
        line_count = sum(1 for _ in fh)
    counter = ReadCounter()
    pairs = list(read_parallel(path, "vi", counter))
    assert line_count == 10_000
    assert len(pairs) == line_count - malformed
    assert counter.skipped == malformed


def test_token_totals_match_per_record_oracle(tmp_path):
    """Token totals over a 1000-doc corpus equal an independent byte count."""
    path = tmp_path / "corpus.txt"
    texts = [f"synthetic doc {i} " + "word " * (i % 13) for i in range(1000)]
    path.write_text("\n\n".join(t.strip() for t in texts) + "\n", encoding="utf-8")
    docs = list(read_monolingual(path, "ms"))
    assert len(docs) == 1000
    stats = corpus_stats(
        [CorpusSource(path=str(path), kind="monolingual", language="ms")],
        BYTE_FALLBACK,
    )
    oracle_total = sum(len(d.text.encode("utf-8")) for d in docs)
    assert stats.monolingual["ms"].tokens == oracle_total


# --- sample_uniform ---------------------------------------------------------


def _docs(code, lengths, source="s"):
    return [
        make_doc("x" * n, code=code, source=source, ordinal=i)
        for i, n in enumerate(lengths)
    ]


def test_sample_uniform_zero_budget():
    out = list(sample_uniform([_docs("id", [5, 5])], 0, BYTE_FALLBACK))
    assert out == []


def test_sample_uniform_single_source_draws_whole_budget():
    docs = _docs("id", [10] * 300)
    report = SampleReport()
    out = list(sample_uniform([docs], 2000, BYTE_FALLBACK, report))
    assert report.drawn_tokens[0] >= 2000
    assert report.drawn_tokens[0] == sum(len(d.text) for d in out)
    assert not report.shortfall


def test_sample_uniform_two_equal_sources():
    a = _docs("id", [10] * 500, source="a")
    b = _docs("id", [10] * 500, source="b")
    report = SampleReport()
    out = list(sample_uniform([a, b], 2000, BYTE_FALLBACK, report))
    drawn_a = sum(len(d.text) for d in out if d.source_id == "a")
    drawn_b = sum(len(d.text) for d in out if d.source_id == "b")
    assert abs(drawn_a - 1000) <= 10  # within one record's length
    assert abs(drawn_b - 1000) <= 10
    assert report.drawn_tokens == {0: drawn_a, 1: drawn_b}


def test_sample_uniform_all_empty_raises():
    with pytest.raises(ShortfallError) as err:
        list(sample_uniform([[], []], 100, BYTE_FALLBACK))
    assert set(err.value.deficits) == {0, 1}
    assert all(d == 50 for d in err.value.deficits.values())


def test_sample_uniform_partial_exhaustion_reports_deficit():
    a = _docs("id", [10] * 3, source="a")  # 30 tokens, quota is 500
    b = _docs("id", [10] * 200, source="b")
    report = SampleReport()
    out = list(sample_uniform([a, b], 1000, BYTE_FALLBACK, report))
    assert report.shortfall
    assert report.deficits == {0: 470}
    assert sum(1 for d in out if d.source_id == "a") == 3


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=60),
        min_size=1,
        max_size=4,
    )
)
def test_sample_uniform_uniformity_bound(length_lists):
    """Without shortfall, per-source draws differ at most by one record."""
    totals = [sum(lengths) for lengths in length_lists]
    quota = min(totals)
    budget = quota * len(length_lists)
    sources = [
        _docs("id", lengths, source=str(i)) for i, lengths in enumerate(length_lists)
    ]
    report = SampleReport()
    out = list(sample_uniform(sources, budget, BYTE_FALLBACK, report))
    assert not report.shortfall
    drawn = report.drawn_tokens.values()
    longest = max(max(lengths) for lengths in length_lists)
    assert max(drawn) - min(drawn) <= longest
    # conservation: everything drawn was emitted
    assert sum(drawn) == sum(len(d.text) for d in out)


def test_sample_uniform_is_deterministic():
    mk = lambda: [_docs("id", [7] * 50, "a"), _docs("id", [11] * 50, "b")]
    first = [(d.source_id, d.ordinal) for d in sample_uniform(mk(), 500, BYTE_FALLBACK)]
    second = [(d.source_id, d.ordinal) for d in sample_uniform(mk(), 500, BYTE_FALLBACK)]
    assert first == second


# --- stats and config -------------------------------------------------------


def test_corpus_stats_hand_countable(tmp_path):
    path = tmp_path / "pairs.tsv"
    with open(path, "w", encoding="utf-8") as fh:
        for _ in range(10):
            fh.write("abcde\tvwxyz\n")  # 5 tokens per side under byte fallback
    stats = corpus_stats(
        [CorpusSource(path=str(path), kind="parallel", language="lo")], BYTE_FALLBACK
    )
    tally = stats.parallel["lo"]
    assert (tally.records, tally.tokens, tally.en_tokens) == (10, 50, 50)
    total = stats.parallel_total()
    assert (total.records, total.tokens, total.en_tokens) == (10, 50, 50)


def test_corpus_stats_empty_corpus(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("", encoding="utf-8")
    stats = corpus_stats(
        [CorpusSource(path=str(path), kind="parallel", language="id")], BYTE_FALLBACK
    )
    tally = stats.parallel["id"]
    assert (tally.records, tally.tokens, tally.en_tokens) == (0, 0, 0)


def test_stats_render_uses_fixed_language_order(tmp_path):
    paths = {}
    for code in ("zh", "id", "km"):  # deliberately out of order
        p = tmp_path / f"{code}.tsv"
        p.write_text("en text\tsea text\n", encoding="utf-8")
        paths[code] = p
    sources = [
        CorpusSource(path=str(paths[c]), kind="parallel", language=c)
        for c in ("zh", "id", "km")
    ]
    rendered = corpus_stats(sources, BYTE_FALLBACK).render()
    id_pos = rendered.index("Indonesian")
    km_pos = rendered.index("Khmer")
    zh_pos = rendered.index("Chinese")
    assert id_pos < km_pos < zh_pos


def test_load_corpus_config(tmp_path):
    (tmp_path / "mono_id.txt").write_text("doc\n", encoding="utf-8")
    config = tmp_path / "corpus.json"
    config.write_text(
        json.dumps(
            {
                "sources": [
                    {"path": "mono_id.txt", "kind": "monolingual", "language": "id"},
                    {"path": "replay.jsonl", "kind": "replay"},
                ]
            }
        ),
        encoding="utf-8",
    )
    sources = load_corpus_config(config)
    assert sources[0].path == str(tmp_path / "mono_id.txt")
    assert sources[0].source_id == "mono_id.txt"
    assert sources[1].kind == "replay"
    assert sources[1].language is None


def test_corpus_source_validation():
    with pytest.raises(ValueError):
        CorpusSource(path="x", kind="mystery")
    with pytest.raises(ValueError):
        CorpusSource(path="x", kind="monolingual")
    with pytest.raises(ValueError):
        CorpusSource(path="x", kind="parallel", language="en")
