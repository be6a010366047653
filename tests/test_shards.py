import hashlib
import itertools
import json

import pytest

from currikit.packing import (
    BLOCK_TOKENS,
    fnv1a64,
    pack_monolingual,
    pack_parallel,
    pack_replay,
)
from currikit.pipeline import compile_corpus
from currikit.schedule import Strategy, build_schedule
from currikit.shards import (
    BLOCK_BYTES,
    ConsistencyError,
    LayoutError,
    audit_shards,
    iter_block_ids,
    read_manifest,
    shard_stats,
    write_shards,
)
from currikit.synthetic import write_corpus
from currikit.tokenizer import BYTE_FALLBACK
from helpers import make_doc, make_pair, tree_digest


def _make_stream(name, lang, count, seed):
    n_docs = ((count + 1) * BLOCK_TOKENS) // 9001 + 2
    if name == "replay":
        docs = (make_doc("r" * 9000, code="en", ordinal=i) for i in range(n_docs))
        return pack_replay(docs, BYTE_FALLBACK)
    if name == "monolingual":
        docs = (make_doc("m" * 9000, code=lang, ordinal=i) for i in range(n_docs))
        return pack_monolingual(docs, lang, BYTE_FALLBACK)
    pairs = (
        make_pair(f"en {i} side.", f"sea {i} side.", code=lang, ordinal=i)
        for i in itertools.count()
    )
    return pack_parallel(pairs, lang, BYTE_FALLBACK, seed)


def _block_streams(manifest, seed=0):
    """Feed per-kind packer streams in schedule order."""
    streams = {}
    for key, count in manifest.kind_counts().items():
        name, _, lang = key.partition(":")
        streams[key] = _make_stream(name, lang, count, seed)
    for entry in manifest.entries:
        yield next(streams[entry.kind.key()])


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("shards") / "corpus"
    manifest = build_schedule(
        Strategy.MULTILINGUAL, 8 * BLOCK_TOKENS, ["id", "th"], 4, seed=1
    )
    layout = write_shards(_block_streams(manifest), manifest, out)
    return layout


def test_written_block_files_have_exact_size(small_corpus):
    manifest = read_manifest(small_corpus.directory)
    assert manifest.n_blocks == 8
    for position, _ in enumerate(manifest.entries):
        assert small_corpus.block_path(position).stat().st_size == BLOCK_BYTES
        assert small_corpus.record_path(position).exists()
    assert BLOCK_BYTES == 1_048_576


def test_manifest_written_and_audit_passes(small_corpus):
    report = audit_shards(small_corpus.directory)
    assert report.passed
    assert report.blocks_checked == 8
    assert "PASS" in report.render()


def test_iter_block_ids_roundtrip(small_corpus):
    arrays = list(iter_block_ids(small_corpus.directory))
    assert len(arrays) == 8
    assert all(len(a) == BLOCK_TOKENS for a in arrays)


def test_rewrite_is_byte_identical(tmp_path):
    manifest = build_schedule(Strategy.MULTILINGUAL, 4 * BLOCK_TOKENS, ["id"], 4, seed=2)
    write_shards(_block_streams(manifest), manifest, tmp_path / "a")
    write_shards(_block_streams(manifest), manifest, tmp_path / "b")
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")


def test_kind_mismatch_names_position_and_leaves_no_manifest(tmp_path):
    manifest = build_schedule(Strategy.MULTILINGUAL, 4 * BLOCK_TOKENS, ["id"], 4, seed=3)
    blocks = list(_block_streams(manifest))
    swap = next(
        i for i in range(1, len(blocks)) if blocks[i].kind != blocks[i - 1].kind
    )
    blocks[swap - 1], blocks[swap] = blocks[swap], blocks[swap - 1]
    out = tmp_path / "bad"
    with pytest.raises(ConsistencyError) as err:
        write_shards(blocks, manifest, out)
    assert err.value.position == swap - 1
    assert not (out / "manifest.json").exists()


def test_short_stream_raises_and_leaves_no_manifest(tmp_path):
    manifest = build_schedule(Strategy.MULTILINGUAL, 4 * BLOCK_TOKENS, ["id"], 4, seed=3)
    blocks = list(_block_streams(manifest))[:2]
    with pytest.raises(ConsistencyError) as err:
        write_shards(blocks, manifest, tmp_path / "short")
    assert err.value.position == 2
    assert not (tmp_path / "short" / "manifest.json").exists()


def test_audit_flags_truncated_block(tmp_path):
    manifest = build_schedule(Strategy.MULTILINGUAL, 4 * BLOCK_TOKENS, ["id"], 4, seed=4)
    layout = write_shards(_block_streams(manifest), manifest, tmp_path / "t")
    victim = layout.block_path(2)
    victim.write_bytes(victim.read_bytes()[:-4])
    report = audit_shards(layout.directory)
    assert not report.passed
    assert any(
        f.block_file == victim.name and "size" in f.reason
        for f in report.checksum_failures
    )


def test_audit_flags_flipped_byte(tmp_path):
    manifest = build_schedule(Strategy.MULTILINGUAL, 4 * BLOCK_TOKENS, ["id"], 4, seed=5)
    layout = write_shards(_block_streams(manifest), manifest, tmp_path / "f")
    victim = layout.block_path(1)
    data = bytearray(victim.read_bytes())
    data[100] ^= 0xFF
    victim.write_bytes(bytes(data))
    report = audit_shards(layout.directory)
    assert not report.passed
    assert any(
        f.block_file == victim.name and "checksum" in f.reason
        for f in report.checksum_failures
    )


def test_block_record_checksum_is_b2sum_of_block_file(small_corpus):
    for position in range(8):
        record = json.loads(small_corpus.record_path(position).read_text())
        data = small_corpus.block_path(position).read_bytes()
        expected = hashlib.blake2b(data, digest_size=8).hexdigest()
        assert record["checksum"] == f"blake2b-64:{expected}"


def _set_record_checksum(layout, position, checksum):
    path = layout.record_path(position)
    record = json.loads(path.read_text())
    record["checksum"] = checksum
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def _write_v1_tree(directory, seed):
    """Write 4 blocks, then rewrite the tree into its v1 form."""
    manifest = build_schedule(Strategy.MULTILINGUAL, 4 * BLOCK_TOKENS, ["id"], 4, seed=seed)
    layout = write_shards(_block_streams(manifest), manifest, directory)
    for position, _ in enumerate(manifest.entries):
        data = layout.block_path(position).read_bytes()
        _set_record_checksum(layout, position, f"{fnv1a64(data):016x}")
    doc = json.loads(layout.manifest_path.read_text())
    doc["format"] = "curriculum-manifest-v1"
    layout.manifest_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return layout


def test_audit_passes_v1_tree(tmp_path):
    layout = _write_v1_tree(tmp_path / "v1", seed=10)
    assert read_manifest(layout.directory).format == "curriculum-manifest-v1"
    report = audit_shards(layout.directory)
    assert report.passed
    assert report.blocks_checked == 4


def test_audit_flags_flipped_byte_in_v1_tree(tmp_path):
    layout = _write_v1_tree(tmp_path / "v1", seed=11)
    victim = layout.block_path(3)
    data = bytearray(victim.read_bytes())
    data[5] ^= 0x01
    victim.write_bytes(bytes(data))
    report = audit_shards(layout.directory)
    assert not report.passed
    assert [f.block_file for f in report.checksum_failures] == [victim.name]


def test_audit_flags_v1_record_under_v2_manifest(tmp_path):
    manifest = build_schedule(Strategy.MULTILINGUAL, 4 * BLOCK_TOKENS, ["id"], 4, seed=12)
    layout = write_shards(_block_streams(manifest), manifest, tmp_path / "mixed")
    victim = layout.block_path(1)
    _set_record_checksum(layout, 1, f"{fnv1a64(victim.read_bytes()):016x}")
    report = audit_shards(layout.directory)
    assert not report.passed
    assert [f.block_file for f in report.checksum_failures] == [victim.name]


def test_audit_flags_v2_record_under_v1_manifest(tmp_path):
    layout = _write_v1_tree(tmp_path / "mixed", seed=13)
    victim = layout.block_path(2)
    blake = hashlib.blake2b(victim.read_bytes(), digest_size=8).hexdigest()
    _set_record_checksum(layout, 2, f"blake2b-64:{blake}")
    report = audit_shards(layout.directory)
    assert not report.passed
    assert [f.block_file for f in report.checksum_failures] == [victim.name]


def test_audit_missing_manifest_raises(tmp_path):
    with pytest.raises(LayoutError):
        audit_shards(tmp_path)


def test_audit_flags_schedule_violation(tmp_path):
    manifest = build_schedule(Strategy.PARALLEL_ONLY, 8 * BLOCK_TOKENS, ["id"], 4, seed=6)
    layout = write_shards(_block_streams(manifest), manifest, tmp_path / "v")
    # corrupt the manifest's replay accounting: replace a replay entry kind
    doc = json.loads(layout.manifest_path.read_text())
    for entry in doc["entries"]:
        if entry["kind"] == "replay":
            entry["kind"] = "parallel"
            entry["language"] = "id"
            break
    layout.manifest_path.write_text(json.dumps(doc, indent=2, sort_keys=True))
    report = audit_shards(layout.directory)
    assert not report.passed
    assert any(v.rule == "replay-ratio" for v in report.schedule_violations)


def test_shard_stats_twelve_block_parallel_only(tmp_path):
    manifest = build_schedule(Strategy.PARALLEL_ONLY, 12 * BLOCK_TOKENS, ["id"], 4, seed=7)
    write_shards(_block_streams(manifest), manifest, tmp_path / "s")
    stats = shard_stats(tmp_path / "s")
    assert stats.by_language["id"]["parallel"] == 9
    assert stats.by_language["-"]["replay"] == 3
    assert stats.total_tokens == 12 * BLOCK_TOKENS
    rendered = stats.render()
    assert "Indonesian" in rendered and "Total blocks: 12" in rendered


def test_shard_stats_totals_are_conserved(tmp_path):
    manifest = build_schedule(Strategy.MIXED, 8 * BLOCK_TOKENS, ["id", "th"], 4, seed=8)
    write_shards(_block_streams(manifest), manifest, tmp_path / "c")
    stats = shard_stats(tmp_path / "c")
    summed = sum(sum(row.values()) for row in stats.by_language.values())
    assert summed == stats.total_blocks == 8


def test_compile_corpus_end_to_end(tmp_path):
    config = write_corpus(
        tmp_path / "corpus", languages=("id",), n_pairs=14_000, n_docs=260,
        sentences_per_doc=60, seed=1,
    )
    result = compile_corpus(
        config, Strategy.PARALLEL_ONLY, 8 * BLOCK_TOKENS, 4, seed=9,
        out_dir=tmp_path / "out",
    )
    assert result.manifest.kind_counts() == {"parallel:id": 6, "replay": 2}
    report = audit_shards(tmp_path / "out")
    assert report.passed
    assert (tmp_path / "out" / "run_config.json").exists()
    assert "discards" in result.manifest.metadata


@pytest.fixture(scope="module")
def two_language_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("strategies") / "corpus"
    return write_corpus(
        root, languages=("id", "th"), n_pairs=12_000, n_docs=320,
        sentences_per_doc=60, seed=6,
    )


@pytest.mark.parametrize("strategy", list(Strategy))
def test_compile_every_strategy(tmp_path, two_language_corpus, strategy):
    result = compile_corpus(
        two_language_corpus, strategy, 8 * BLOCK_TOKENS, 4, seed=12,
        out_dir=tmp_path / strategy.value,
    )
    assert result.manifest.n_blocks == 8
    assert audit_shards(tmp_path / strategy.value).passed
