import dataclasses
import hashlib
from collections import Counter
from itertools import islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from currikit import corpus, packing, rng, tokenizer
from currikit.corpus import SampleReport, ShortfallError, sample_uniform
from currikit.packing import (
    BLOCK_TOKENS,
    BlockKind,
    PackReport,
    block_checksum,
    fnv1a64,
    format_pair,
    pack_monolingual,
    pack_parallel,
    pack_replacement,
    pack_replay,
    split_sentences,
)
from currikit.tokenizer import BYTE_FALLBACK, TokenizerSpec, encode
from helpers import (
    decode_segments,
    greedy_encode,
    make_doc,
    make_pair,
    parse_segment,
    record_runs,
    reference_pack,
    reference_pair_records,
    runs_of,
)

SPEC = BYTE_FALLBACK


def test_block_kind_validation():
    assert BlockKind.parallel("id").key() == "parallel:id"
    assert BlockKind.replay().key() == "replay"
    assert BlockKind.from_key("replacement:th") == BlockKind.replacement("th")
    with pytest.raises(ValueError):
        BlockKind("parallel", None)
    with pytest.raises(ValueError):
        BlockKind("parallel", "en")
    with pytest.raises(ValueError):
        BlockKind("replay", "id")
    with pytest.raises(ValueError):
        BlockKind("mystery", "id")


def test_fnv1a64_reference_values():
    # http://www.isthe.com/chongo/tech/comp/fnv/ reference pairs
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8


def test_block_checksum_reference_values():
    # The first 8 bytes of SHA-256; each value is the start of `sha256sum` of the bytes.
    # FIPS 180-2, appendix B.1: SHA-256("abc") = ba7816bf 8f01cfea 414140de ...
    assert packing._sha256_64([b"abc"]) == "ba7816bf8f01cfea"
    assert packing._sha256_64([b"a", b"", b"bc"]) == "ba7816bf8f01cfea"
    assert block_checksum(np.zeros(BLOCK_TOKENS, dtype=np.uint32)) == 0x30E14955EBF13522
    assert block_checksum(np.arange(BLOCK_TOKENS, dtype=np.uint32)) == 0x21B9BF484E8BB6CA


def test_format_pair_both_directions():
    pair = make_pair("Hello.", "Halo.", code="id")
    assert format_pair(pair, 0) == "English: Hello.\nIndonesian: Halo."
    assert format_pair(pair, 1) == "Indonesian: Halo.\nEnglish: Hello."


def test_format_pair_code_labels():
    pair = make_pair("Hello.", "Halo.", code="id")
    assert format_pair(pair, 0, "code") == "en: Hello.\nid: Halo."


@settings(max_examples=200)
@given(
    st.text(
        alphabet=st.characters(blacklist_characters="\n\t", blacklist_categories=("Cs",)),
        min_size=1,
    ).filter(lambda s: s.strip()),
    st.text(
        alphabet=st.characters(blacklist_characters="\n\t", blacklist_categories=("Cs",)),
        min_size=1,
    ).filter(lambda s: s.strip()),
    st.sampled_from(["id", "km", "th", "zh"]),
    st.sampled_from([0, 1]),
)
def test_format_pair_parse_back(en, sea, code, sea_first):
    pair = make_pair(en, sea, code=code)
    (label_a, text_a), (label_b, text_b) = parse_segment(format_pair(pair, sea_first))
    recovered = {label_a: text_a, label_b: text_b}
    assert recovered["English"] == en
    assert recovered[pair.sea_language.display_name] == sea


def _sized_pair(i, segment_ids, code="id"):
    """A pair whose formatted segment (either direction) plus eot is segment_ids."""
    body = segment_ids - 23  # labels, separators, eot: 9 + 12 + 1 + 1
    en = f"e{i:06d}" + "x" * (body // 2 - 7)
    sea = f"s{i:06d}" + "y" * (body - body // 2 - 7)
    return make_pair(en, sea, code=code, ordinal=i)


def test_sized_pair_arithmetic():
    for i, n in ((0, 128), (3, 129), (9, 64)):
        pair = _sized_pair(i, n)
        for sea_first in (0, 1):
            assert len(format_pair(pair, sea_first)) + 1 == n


def test_pack_parallel_exact_fill():
    pairs = [_sized_pair(i, 128) for i in range(4096)]  # 4096 * 128 = 2 blocks
    report = PackReport()
    blocks = list(pack_parallel(runs_of(pairs), "id", SPEC, seed=7, report=report))
    assert len(blocks) == 2
    assert all(len(b.ids) == BLOCK_TOKENS for b in blocks)
    assert report.unused_tokens == 0
    assert report.tokens_in == 2 * BLOCK_TOKENS


def test_pack_parallel_boundary_carry():
    pairs = [_sized_pair(i, 128) for i in range(2047)] + [_sized_pair(2047, 129)]
    report = PackReport()
    blocks = list(pack_parallel(runs_of(pairs), "id", SPEC, seed=7, report=report))
    assert len(blocks) == 1
    assert report.tokens_in == BLOCK_TOKENS + 1
    assert report.unused_tokens == 1


def test_pack_parallel_direction_balance_10k():
    pairs = [make_pair(f"en {i}.", f"sea {i}.", ordinal=i) for i in range(10_000)]
    report = PackReport()
    list(pack_parallel(runs_of(pairs), "id", SPEC, seed=7, report=report))
    fraction = report.en_first / report.records
    assert 0.485 <= fraction <= 0.515


def test_pack_parallel_rejects_wrong_language():
    pairs = [make_pair("a", "b", code="th")]
    with pytest.raises(ValueError, match="stream"):
        list(pack_parallel(runs_of(pairs), "id", SPEC, seed=0))


def test_pack_monolingual_exact_fill_with_separator():
    doc = make_doc("m" * (BLOCK_TOKENS - 1))
    report = PackReport()
    blocks = list(pack_monolingual([doc], "id", SPEC, report=report))
    assert len(blocks) == 1
    assert blocks[0].ids[-1] == SPEC.eot_id
    assert report.unused_tokens == 0


def test_pack_monolingual_empty_stream():
    report = PackReport()
    assert list(pack_monolingual([], "id", SPEC, report=report)) == []
    assert report.blocks == 0
    assert report.unused_tokens == 0


def test_pack_monolingual_ids_match_byte_oracle():
    texts = [f"document {i} " + "body " * 2000 for i in range(40)]
    docs = [make_doc(t, ordinal=i) for i, t in enumerate(texts)]
    oracle_ids = []
    for t in texts:
        oracle_ids.extend(t.encode("utf-8"))
        oracle_ids.append(256)
    blocks = list(pack_monolingual(docs, "id", SPEC))
    got = np.concatenate([b.ids for b in blocks])
    want = np.array(oracle_ids[: len(got)], dtype=np.uint32)
    assert len(got) >= BLOCK_TOKENS
    assert np.array_equal(got, want)


def test_pack_replay_same_shapes():
    doc = make_doc("r" * (BLOCK_TOKENS - 1), code="en")
    report = PackReport()
    blocks = list(pack_replay([doc], SPEC, report=report))
    assert len(blocks) == 1
    assert blocks[0].kind == BlockKind.replay()
    assert report.unused_tokens == 0
    assert list(pack_replay([], SPEC)) == []


def test_block_checksum_and_provenance():
    docs = [make_doc("d" * 70_000, ordinal=i, source="src.txt") for i in range(8)]
    blocks = list(pack_monolingual(docs, "id", SPEC))
    assert len(blocks) == 2
    for block in blocks:
        digest = hashlib.sha256(block.ids.astype("<u4").tobytes()).hexdigest()
        assert block_checksum(block.ids) == int(digest[:16], 16)
    spans = blocks[0].provenance
    assert spans[0].source_id == "src.txt"
    assert spans[0].first_ordinal == 0
    # 70,001 ids per record: block 0 covers records 0..3 (partially into 3)
    assert spans[-1].last_ordinal == 3
    assert blocks[1].provenance[0].first_ordinal == 3  # carry-over continues record 3


def _stream_ids(texts):
    out = []
    for t in texts:
        out.extend(t.encode("utf-8"))
        out.append(SPEC.eot_id)
    return out


def _spans(block):
    return [(s.source_id, s.first_ordinal, s.last_ordinal) for s in block.provenance]


def test_record_longer_than_two_blocks():
    texts = ["a" * 100, "b" * (2 * BLOCK_TOKENS + 500), "c" * BLOCK_TOKENS]
    docs = [make_doc(t, ordinal=i, source="s") for i, t in enumerate(texts)]
    report = PackReport()
    blocks = list(pack_monolingual(docs, "id", SPEC, report=report))
    assert len(blocks) == 3
    got = np.concatenate([b.ids for b in blocks])
    assert got.tolist() == _stream_ids(texts)[: 3 * BLOCK_TOKENS]
    assert [_spans(b) for b in blocks] == [
        [("s", 0, 1)], [("s", 1, 1)], [("s", 1, 2)],
    ]
    assert report.unused_tokens == report.tokens_in - 3 * BLOCK_TOKENS == 603


def test_end_of_text_alone_spills_into_next_block():
    docs = [
        make_doc("m" * BLOCK_TOKENS, ordinal=0, source="s"),
        make_doc("n" * (BLOCK_TOKENS - 2), ordinal=1, source="s"),
    ]
    report = PackReport()
    blocks = list(pack_monolingual(docs, "id", SPEC, report=report))
    assert len(blocks) == 2
    assert (blocks[0].ids == ord("m")).all()
    assert blocks[1].ids[0] == blocks[1].ids[-1] == SPEC.eot_id
    assert (blocks[1].ids[1:-1] == ord("n")).all()
    assert [_spans(b) for b in blocks] == [[("s", 0, 0)], [("s", 0, 1)]]
    assert report.unused_tokens == 0


def test_ordinal_gap_and_source_switch_split_spans():
    docs = [
        make_doc("x" * 10, ordinal=0, source="a"),
        make_doc("x" * 10, ordinal=1, source="a"),
        make_doc("x" * 10, ordinal=3, source="a"),  # gap
        make_doc("x" * 10, ordinal=4, source="b"),  # source switch
        make_doc("x" * (BLOCK_TOKENS - 45), ordinal=5, source="b"),
    ]
    blocks = list(pack_monolingual(docs, "id", SPEC))
    assert len(blocks) == 1
    assert _spans(blocks[0]) == [("a", 0, 1), ("a", 3, 3), ("b", 4, 5)]


def test_unused_tokens_of_stream_abandoned_mid_record():
    docs = [make_doc("z" * (BLOCK_TOKENS + 1000), ordinal=0), make_doc("tail", ordinal=1)]
    report = PackReport()
    stream = pack_monolingual(docs, "id", SPEC, report=report)
    next(stream)
    assert report.blocks == 1
    assert report.unused_tokens == 1001  # the record's tail and its end-of-text id
    assert report.tokens_in == report.blocks * BLOCK_TOKENS + report.unused_tokens


def test_pack_determinism():
    mk = lambda: [make_pair(f"en {i} words here.", f"sea {i} kata.", ordinal=i) for i in range(9000)]
    sums_a = [block_checksum(b.ids) for b in pack_parallel(runs_of(mk()), "id", SPEC, seed=3)]
    sums_b = [block_checksum(b.ids) for b in pack_parallel(runs_of(mk()), "id", SPEC, seed=3)]
    assert sums_a == sums_b and sums_a


def test_conservation_accounting():
    pairs = [make_pair(f"en {i}.", f"sea {i}.", ordinal=i) for i in range(30_000)]
    report = PackReport()
    blocks = list(pack_parallel(runs_of(pairs), "id", SPEC, seed=1, report=report))
    assert report.tokens_in == report.blocks * BLOCK_TOKENS + report.unused_tokens
    assert 0 <= report.unused_tokens < BLOCK_TOKENS
    assert report.blocks == len(blocks)


# --- the packer against the one-record-at-a-time reference ----------------------

# Ids that need all four bytes, one equal to the byte_fallback separator 0xFF.
ORACLE_BPE = TokenizerSpec(
    id="oracle", vocab_size=2**32, eot_id=2**32 - 1, kind="bpe_file",
    pieces={0xFF: "a", 0x1_0000: "b", 2**32 - 2: "c"},
)

# Per record: how its size relates to the room left in the block, a size
# offset, its source (two that differ only by a trailing NUL), and the step
# from the previous record's ordinal.
RECORD_PLANS = st.lists(
    st.tuples(
        st.sampled_from(["short", "fill", "long"]),
        st.integers(min_value=-1, max_value=1),
        st.sampled_from(["a.txt", "a.txt\x00", "b.txt"]),
        st.integers(min_value=-1, max_value=3),
    ),
    max_size=40,
)


def _text_of(n_ids, spec):
    if spec is BYTE_FALLBACK:  # multi-byte characters, none with a 0xFF byte
        return "€" * (n_ids // 3) + "é" * (n_ids % 3 // 2) + "x" * (n_ids % 3 % 2)
    return ("abc" * (n_ids // 3 + 1))[:n_ids]


def _planned_records(plans, block_tokens, spec):
    """Records sized, end-of-text id included, against the room left in the
    block: "fill" is the room plus ``delta`` (one short, an exact fill, or the
    end-of-text id alone spilling over), "long" the same two blocks later,
    "short" 1 to 3 ids."""
    records, total, ordinal = [], 0, 0
    for mode, delta, source, step in plans:
        room = block_tokens - total % block_tokens
        size = {"short": 2 + delta, "fill": room + delta, "long": 2 * block_tokens + room + delta}
        size = max(size[mode], 1)
        ordinal += step
        records.append((_text_of(size - 1, spec), source, ordinal))
        total += size
    return records


def _assert_same_blocks(stream, reference, report, reference_report, take):
    got = list(islice(stream, take))
    want = list(islice(reference, take))
    assert len(got) == len(want)
    for block, ref in zip(got, want):
        assert block.ids.dtype == np.uint32
        assert np.array_equal(block.ids, ref.ids)
        assert block_checksum(block.ids) == block_checksum(ref.ids)
        assert block.provenance == ref.provenance
        assert block.kind == ref.kind
    assert dataclasses.asdict(report) == dataclasses.asdict(reference_report)
    assert report.unused_tokens == reference_report.unused_tokens


@settings(max_examples=300, deadline=None)
@given(
    plans=RECORD_PLANS,
    spec=st.sampled_from([BYTE_FALLBACK, ORACLE_BPE]),
    block_tokens=st.sampled_from([1, 2, 5, 64]),
    take=st.one_of(st.none(), st.integers(min_value=0, max_value=6)),
)
def test_pack_matches_reference_packer(plans, spec, block_tokens, take):
    """Same ids, checksums, spans and counts, also for a stream abandoned
    after ``take`` blocks (None drains it). Small blocks put the boundary
    cases close together; the packer reads ``BLOCK_TOKENS`` when it starts."""
    with mock.patch.object(packing, "BLOCK_TOKENS", block_tokens):
        records = _planned_records(plans, block_tokens, spec)
        kind = BlockKind.replay()
        report, reference_report = PackReport(), PackReport()
        _assert_same_blocks(
            packing._pack(record_runs(records), kind, spec, report),
            reference_pack(iter(records), kind, spec, reference_report),
            report, reference_report, take,
        )


@settings(max_examples=300, deadline=None)
@given(
    plans=RECORD_PLANS,
    cuts=st.lists(st.booleans(), max_size=40),
    spec=st.sampled_from([BYTE_FALLBACK, ORACLE_BPE]),
    block_tokens=st.sampled_from([1, 2, 5, 64]),
    take=st.one_of(st.none(), st.integers(min_value=0, max_value=6)),
)
def test_runs_of_many_records_match_reference_packer(plans, cuts, spec, block_tokens, take):
    """Records handed over in runs of one source: the same blocks, spans and
    counts as one record at a time. Each run is pulled only when a record of
    it is needed, its commits never step back, and the records committed
    are exactly those the reference pulls."""
    with mock.patch.object(packing, "BLOCK_TOKENS", block_tokens):
        records = _planned_records(plans, block_tokens, spec)
        groups = []
        for i, record in enumerate(records):
            if not groups or groups[-1][-1][1] != record[1] or (i < len(cuts) and cuts[i]):
                groups.append([])
            groups[-1].append(record)
        committed = []  # per run pulled: its records committed

        def runs():
            for group in groups:
                committed.append(0)

                def commit(n, index=len(committed) - 1):
                    assert n >= committed[index]
                    committed[index] = n

                yield [text for text, _, _ in group], group[0][1], [o for *_, o in group], commit

        kind = BlockKind.replay()
        report, reference_report, reference_pulls = PackReport(), PackReport(), []
        _assert_same_blocks(
            packing._pack(runs(), kind, spec, report),
            reference_pack(_pulled(records, reference_pulls, False), kind, spec, reference_report),
            report, reference_report, take,
        )
    assert sum(committed) == len(reference_pulls)
    assert all(committed)
    runs_needed = next(
        (k for k in range(len(groups) + 1) if sum(map(len, groups[:k])) >= len(reference_pulls)),
    )
    assert len(committed) == runs_needed


# --- runs: the packer against the same reference ------------------------------

RUN_SEPARATOR = tokenizer._matcher(ORACLE_BPE).separator
# Per tokenizer kind: texts it encodes, and texts that must fail as they fail
# one record at a time. For bpe_file those hold the run separator or a
# character no piece covers; for byte_fallback a lone surrogate, which UTF-8
# cannot encode.
COVERED_TEXTS = {
    "bpe_file": st.text(alphabet="abc", max_size=12),
    "byte_fallback": st.text(alphabet="ab\xe9\u20ac\U0001F600", max_size=12),
}
FAILING_TEXTS = {
    "bpe_file": st.text(alphabet="abcx" + RUN_SEPARATOR, min_size=1, max_size=12).filter(
        lambda text: set(text) - set("abc")
    ),
    "byte_fallback": st.text(alphabet="a\u20ac\ud800", min_size=1, max_size=12).filter(
        lambda text: "\ud800" in text
    ),
}


class PullError(Exception):
    """Raised by a record stream after its last record."""


def _pulled(records, pulls, fail):
    for record in records:
        pulls.append(record)
        yield record
    if fail:
        raise PullError("no more records")


def _outcome(stream, take):
    """The blocks a stream yields, up to ``take``, and what it raised."""
    blocks = []
    try:
        blocks.extend(islice(stream, take))
    except Exception as exc:
        return blocks, (type(exc), str(exc))
    return blocks, None


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    spec=st.sampled_from([BYTE_FALLBACK, ORACLE_BPE]),
    block_tokens=st.sampled_from([1, 2, 5, 64]),
    take=st.one_of(st.none(), st.integers(min_value=0, max_value=6)),
    fail=st.booleans(),
)
def test_run_packer_matches_reference_packer(data, spec, block_tokens, take, fail):
    """Same blocks, the same records pulled and the same counts, with small
    runs and blocks; a text that cannot be encoded raises what it raises one
    record at a time (having pulled the rest of its run), before a failing
    pull after it. Some records come as the ids a sampler measured them by."""
    texts = data.draw(st.lists(COVERED_TEXTS[spec.kind], max_size=30))
    at = st.integers(0, len(texts))
    failing = data.draw(st.one_of(st.none(), st.tuples(at, FAILING_TEXTS[spec.kind])))
    if failing is not None:
        texts.insert(*failing)
    as_ids = data.draw(st.sets(st.integers(0, len(texts))))
    records = [(text, "a.txt", i) for i, text in enumerate(texts)]
    failing_at = None if failing is None else failing[0]
    given_ids = [
        (encode(text, spec) if i in as_ids and i != failing_at else text, source, ordinal)
        for i, (text, source, ordinal) in enumerate(records)
    ]
    kind = BlockKind.replay()
    report, reference_report = PackReport(), PackReport()
    pulls, reference_pulls = [], []
    with mock.patch.object(packing, "BLOCK_TOKENS", block_tokens):
        blocks, error = _outcome(
            packing._pack(record_runs(_pulled(given_ids, pulls, fail)), kind, spec, report), take
        )
        reference = reference_pack(
            _pulled(records, reference_pulls, fail), kind, spec, reference_report
        )
        want, want_error = _outcome(reference, take)
    assert error == want_error
    assert [b.ids.tolist() for b in blocks] == [b.ids.tolist() for b in want]
    assert [b.provenance for b in blocks] == [b.provenance for b in want]
    assert [block_checksum(b.ids) for b in blocks] == [block_checksum(b.ids) for b in want]
    if error is None or error[0] is PullError:  # a text that fails ends its run early
        assert len(pulls) == len(reference_pulls)
        assert dataclasses.asdict(report) == dataclasses.asdict(reference_report)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    spec=st.sampled_from([BYTE_FALLBACK, ORACLE_BPE]),
    block_tokens=st.sampled_from([1, 2, 5, 64]),
    take=st.one_of(st.none(), st.integers(min_value=0, max_value=6)),
)
def test_a_run_holding_a_text_that_cannot_be_encoded_fails_as_its_records_one_by_one(
    data, spec, block_tokens, take
):
    """A text that cannot be encoded, inside a run of several records: the
    records before it fill the blocks they fill, with their spans, and then
    it raises the error it raises alone, as the reference does."""
    texts = data.draw(st.lists(COVERED_TEXTS[spec.kind], min_size=1, max_size=30))
    failing_at = data.draw(st.integers(0, len(texts)))
    texts.insert(failing_at, data.draw(FAILING_TEXTS[spec.kind]))
    cuts = data.draw(st.lists(st.booleans(), min_size=len(texts), max_size=len(texts)))
    records = [(text, "a.txt", i) for i, text in enumerate(texts)]
    groups = []  # runs, none of which starts or ends at the failing text
    for i, record in enumerate(records):
        if not groups or cuts[i] and i not in (failing_at, failing_at + 1):
            groups.append([])
        groups[-1].append(record)
    runs = (
        ([text for text, _, _ in group], "a.txt", [o for *_, o in group], None)
        for group in groups
    )
    kind = BlockKind.replay()
    report, reference_report = PackReport(), PackReport()
    with mock.patch.object(packing, "BLOCK_TOKENS", block_tokens):
        blocks, error = _outcome(packing._pack(runs, kind, spec, report), take)
        want, want_error = _outcome(
            reference_pack(iter(records), kind, spec, reference_report), take
        )
    assert error == want_error
    assert take is not None or error is not None
    assert [b.ids.tolist() for b in blocks] == [b.ids.tolist() for b in want]
    assert [b.provenance for b in blocks] == [b.provenance for b in want]
    if error is None:
        assert dataclasses.asdict(report) == dataclasses.asdict(reference_report)


def test_sampled_bpe_documents_are_matched_once():
    """The sampler measures each drawn document by its ids and the packer
    takes them: every document text is matched once, and the blocks and the
    sample report are what matching it twice gave."""
    names = ("r0.txt", "r1.txt")
    sources = [
        [make_doc("ab" * (2 + i % 5) + "c", code="en", source=name, ordinal=i) for i in range(40)]
        for name in names
    ]
    matched = Counter()

    def counted(fn, texts_of=lambda text: [text]):
        def wrapper(texts, spec):
            matched.update(texts_of(texts))
            return fn(texts, spec)
        return wrapper

    drawn = []

    def recorded(docs):
        for doc in docs:
            drawn.append(doc)
            yield doc

    report = SampleReport()
    with mock.patch.multiple(
        corpus, encode=counted(corpus.encode), count_tokens=counted(corpus.count_tokens)
    ), mock.patch.multiple(
        packing,
        BLOCK_TOKENS=64,
        encode=counted(packing.encode),
        encode_run=counted(packing.encode_run, list),
        count_tokens=counted(packing.count_tokens),
    ):
        sampled = recorded(sample_uniform(sources, 400, ORACLE_BPE, report))
        blocks = list(pack_replay(sampled, ORACLE_BPE))
        records = [(d.text, d.source_id, d.ordinal) for d in drawn]
        want = list(reference_pack(iter(records), BlockKind.replay(), ORACLE_BPE, PackReport()))
    assert blocks and matched == Counter(d.text for d in drawn)
    assert [b.ids.tolist() for b in blocks] == [b.ids.tolist() for b in want]
    assert [b.provenance for b in blocks] == [b.provenance for b in want]
    assert (report.quota, report.deficits) == (200, {})
    for index, name in enumerate(names):
        mine = [d for d in drawn if d.source_id == name]
        tokens = sum(len(greedy_encode(d.text, ORACLE_BPE)) for d in mine)
        assert report.drawn_tokens[index] == tokens


SENTENCES = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)), min_size=1
).filter(str.strip)


@settings(max_examples=100, deadline=None)
@given(
    sides=st.lists(st.tuples(SENTENCES, SENTENCES), max_size=30),
    code=st.sampled_from(["id", "th", "zh"]),
    seed=st.integers(min_value=0, max_value=2**40),
    label_style=st.sampled_from(["name", "code"]),
    block_tokens=st.sampled_from([7, 64]),
    take=st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
)
def test_pack_parallel_matches_reference(sides, code, seed, label_style, block_tokens, take):
    pairs = [make_pair(en, sea, code=code, ordinal=i) for i, (en, sea) in enumerate(sides)]
    with mock.patch.object(packing, "BLOCK_TOKENS", block_tokens):
        report, reference_report = PackReport(), PackReport()
        records = reference_pair_records(iter(pairs), code, seed, label_style, reference_report)
        _assert_same_blocks(
            pack_parallel(runs_of(pairs), code, SPEC, seed, label_style, report),
            reference_pack(records, BlockKind.parallel(code), SPEC, reference_report),
            report, reference_report, take,
        )


# --- replacement ------------------------------------------------------------


def test_split_sentences():
    assert split_sentences("One. Two! Three?") == ["One.", "Two!", "Three?"]
    assert split_sentences("No terminal") == ["No terminal"]
    assert split_sentences("") == []


def test_replacement_substitution_identity():
    # find a seed whose first draw is EnglishFirst so the segment is predictable
    seed = next(s for s in range(100) if rng.coin(s, "direction", "id", 0) == 0)
    supply = [make_doc("XYZ. " * 40_000, code="id", source="supply")]
    pairs = [make_pair("Hello.", "ANYTHING-AT-ALL.", ordinal=i) for i in range(9000)]
    blocks = list(pack_replacement(runs_of(pairs), supply, "id", SPEC, seed=seed))
    assert blocks, "expected at least one full block"
    text = "".join(chr(i) if i != 256 else "" for i in blocks[0].ids[:64])
    assert text.startswith("English: Hello.\nIndonesian: XYZ.")
    assert blocks[0].kind == BlockKind.replacement("id")


def test_replacement_direction_draws_match_parallel():
    pairs = [make_pair(f"en number {i}.", f"sea kalimat {i}.", ordinal=i) for i in range(6000)]
    supply = [make_doc("Pengganti kalimat. " * 40_000, code="id")]
    rep_par, rep_rep = PackReport(), PackReport()
    blocks_par = list(pack_parallel(runs_of(pairs), "id", SPEC, seed=11, report=rep_par))
    blocks_rep = list(pack_replacement(runs_of(pairs), supply, "id", SPEC, seed=11, report=rep_rep))
    assert rep_par.records == rep_rep.records
    assert rep_par.en_first == rep_rep.en_first
    # direction of each segment is observable from its first label
    segs_par = [s for s in decode_segments(blocks_par, SPEC)[:-1]]
    segs_rep = [s for s in decode_segments(blocks_rep, SPEC)[:-1]]
    n = min(len(segs_par), len(segs_rep))
    for a, b in zip(segs_par[:n], segs_rep[:n]):
        assert a.split(":", 1)[0] == b.split(":", 1)[0]


def test_replacement_preserves_english_token_multiset():
    """With a length-matched supply, block geometry is identical and the
    English side of every emitted segment is untouched."""
    pairs = []
    supply_sentences = []
    for i in range(9000):
        sea = f"sea-{i:05d} " + "b" * (i % 23)
        pairs.append(make_pair(f"english side {i} with words.", sea + ".", ordinal=i))
        supply_sentences.append("c" * len(sea) + ".")  # same length, same terminal
    supply = [make_doc(" ".join(supply_sentences), code="id")]
    blocks_par = list(pack_parallel(runs_of(pairs), "id", SPEC, seed=5))
    blocks_rep = list(pack_replacement(runs_of(pairs), supply, "id", SPEC, seed=5))
    assert len(blocks_par) == len(blocks_rep) >= 2

    def english_sides(blocks):
        sides = []
        for seg in decode_segments(blocks, SPEC)[:-1]:
            (la, ta), (lb, tb) = parse_segment(seg)
            sides.append(ta if la == "English" else tb)
        return Counter(sides)

    par_sides = english_sides(blocks_par)
    rep_sides = english_sides(blocks_rep)
    assert par_sides == rep_sides
    assert sum(par_sides.values()) > 0


def test_replacement_supply_exhaustion_raises():
    pairs = [make_pair(f"en {i}.", f"sea {i}.", ordinal=i) for i in range(100)]
    supply = [make_doc("Only one sentence here.", code="id")]
    with pytest.raises(ShortfallError, match="exhausted after 1 pairs"):
        list(pack_replacement(runs_of(pairs), supply, "id", SPEC, seed=0))


def test_replacement_records_token_delta():
    pairs = [make_pair("en words.", "ss.", ordinal=i) for i in range(10)]
    supply = [make_doc("Replacement sentence longer. " * 10, code="id")]
    report = PackReport()
    list(pack_replacement(runs_of(pairs), supply, "id", SPEC, seed=0, report=report))
    per_pair = len("Replacement sentence longer.") - len("ss.")
    assert report.replacement_token_delta == 10 * per_pair
