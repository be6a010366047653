import hashlib
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from currikit import shards
from currikit.cli import main
from currikit.packing import (
    BLOCK_TOKENS,
    pack_monolingual,
    pack_parallel,
    pack_replay,
)
from currikit.pipeline import compile_corpus
from currikit.schedule import MANIFEST_FORMAT, CurriculumManifest, Strategy, build_schedule
from currikit.shards import (
    BLOCK_BYTES,
    PROVENANCE_NAME,
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
from helpers import make_doc, make_pair, runs_of, tree_digest


def _sha256_16(data):
    """The first 16 hex digits of sha256(data), what ``sha256sum | cut -c1-16`` prints."""
    return hashlib.sha256(data).hexdigest()[:16]


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
    return pack_parallel(runs_of(pairs), lang, BYTE_FALLBACK, seed)


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


def test_write_shards_writes_the_manifest_as_the_stream_finished_it(tmp_path):
    manifest = build_schedule(Strategy.MULTILINGUAL, 4 * BLOCK_TOKENS, ["id"], 4, seed=2)

    def finishing():
        yield from _block_streams(manifest)
        manifest.metadata["closing"] = {"blocks": manifest.n_blocks}

    layout = write_shards(finishing(), manifest, tmp_path / "w")
    assert manifest.checksums == [
        _sha256_16(layout.block_path(i).read_bytes()) for i in range(manifest.n_blocks)
    ]
    assert manifest.provenance_checksum == _sha256_16(layout.provenance_path.read_bytes())
    assert manifest.metadata == {"closing": {"blocks": 4}}
    assert layout.manifest_path.read_text(encoding="utf-8") == manifest.to_json()
    assert audit_shards(layout.directory).passed
    assert not _writer_threads()


def test_stream_that_raises_after_its_last_block_leaves_no_manifest(tmp_path):
    manifest = build_schedule(Strategy.MULTILINGUAL, 4 * BLOCK_TOKENS, ["id"], 4, seed=3)

    def failing():
        yield from _block_streams(manifest)
        raise RuntimeError("accounting failed")

    out = tmp_path / "closing"
    with pytest.raises(RuntimeError, match="accounting failed"):
        write_shards(failing(), manifest, out)
    assert sorted(p.name for p in out.iterdir()) == [
        f"block_{i:08d}.bin" for i in range(manifest.n_blocks)
    ]
    assert manifest.checksums is None


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
    assert not (out / "provenance.jsonl").exists()


def test_short_stream_raises_and_leaves_no_manifest(tmp_path):
    manifest = build_schedule(Strategy.MULTILINGUAL, 4 * BLOCK_TOKENS, ["id"], 4, seed=3)
    blocks = list(_block_streams(manifest))[:2]
    with pytest.raises(ConsistencyError) as err:
        write_shards(blocks, manifest, tmp_path / "short")
    assert err.value.position == 2
    assert not (tmp_path / "short" / "manifest.json").exists()
    assert not (tmp_path / "short" / "provenance.jsonl").exists()


def test_stream_that_raises_midway_leaves_no_provenance_temp_file(tmp_path):
    manifest = build_schedule(Strategy.MULTILINGUAL, 4 * BLOCK_TOKENS, ["id"], 4, seed=3)

    def failing():
        yield from itertools.islice(_block_streams(manifest), 2)
        raise RuntimeError("source failed")

    out = tmp_path / "failed"
    with pytest.raises(RuntimeError, match="source failed"):
        write_shards(failing(), manifest, out)
    assert sorted(p.name for p in out.iterdir()) == ["block_00000000.bin", "block_00000001.bin"]


def _writer_threads():
    return [thread for thread in threading.enumerate() if thread.name == "currikit-write"]


def _hashing_held_at(monkeypatch, position, release):
    """Make the writer thread wait at block ``position``'s hash until
    ``release`` is set, so the stream runs as far ahead as it may."""
    sha256_64 = shards._sha256_64
    calls = itertools.count()

    def held(chunks):
        if next(calls) == position:
            assert release.wait(timeout=30)
        return sha256_64(chunks)

    monkeypatch.setattr(shards, "_sha256_64", held)


def test_write_shards_starts_one_writer_thread_and_joins_it(tmp_path, monkeypatch):
    manifest = build_schedule(Strategy.MULTILINGUAL, 4 * BLOCK_TOKENS, ["id"], 4, seed=2)
    started = _count_started_threads(monkeypatch)
    write_shards(_block_streams(manifest), manifest, tmp_path / "w")
    assert [thread.name for thread in started] == ["currikit-write"]
    assert not _writer_threads()


def test_stream_error_at_five_is_raised_after_blocks_zero_to_four_are_written(
    tmp_path, monkeypatch
):
    manifest = build_schedule(Strategy.MULTILINGUAL, 8 * BLOCK_TOKENS, ["id", "th"], 4, seed=3)
    failed = threading.Event()
    _hashing_held_at(monkeypatch, 3, failed)  # blocks 3 and 4 are written after the raise

    def failing():
        yield from itertools.islice(_block_streams(manifest), 5)
        failed.set()
        raise RuntimeError("source failed")

    out = tmp_path / "failed"
    with pytest.raises(RuntimeError, match="source failed"):
        write_shards(failing(), manifest, out)
    assert sorted(p.name for p in out.iterdir()) == [f"block_{i:08d}.bin" for i in range(5)]
    want = list(itertools.islice(_block_streams(manifest), 5))
    for position, block in enumerate(want):
        assert (out / f"block_{position:08d}.bin").read_bytes() == block.ids.tobytes()
    assert manifest.checksums is None
    assert not _writer_threads()


@pytest.mark.parametrize("held", [False, True])
def test_write_error_at_three_stops_the_writer_there(tmp_path, monkeypatch, held):
    manifest = build_schedule(Strategy.MULTILINGUAL, 8 * BLOCK_TOKENS, ["id", "th"], 4, seed=3)
    handed = threading.Event()
    if held:  # block 4 is handed in, and the stream is at 5, before 3 fails
        _hashing_held_at(monkeypatch, 3, handed)

    def stream():
        for position, block in enumerate(_block_streams(manifest)):
            if position == 5:
                handed.set()
            yield block

    out = tmp_path / "w"
    (out / "block_00000003.bin").mkdir(parents=True)
    with pytest.raises(OSError) as err:
        write_shards(stream(), manifest, out)
    assert err.value.filename == str(out / "block_00000003.bin")
    assert sorted(p.name for p in out.iterdir()) == [f"block_{i:08d}.bin" for i in range(4)]
    assert (out / "block_00000003.bin").is_dir()
    assert manifest.checksums is None
    assert not _writer_threads()


def test_write_error_is_raised_ahead_of_a_later_stream_error(tmp_path, monkeypatch):
    manifest = build_schedule(Strategy.MULTILINGUAL, 8 * BLOCK_TOKENS, ["id", "th"], 4, seed=3)
    failed = threading.Event()
    _hashing_held_at(monkeypatch, 3, failed)

    def failing():
        yield from itertools.islice(_block_streams(manifest), 5)
        failed.set()
        raise RuntimeError("source failed")

    out = tmp_path / "w"
    (out / "block_00000003.bin").mkdir(parents=True)
    with pytest.raises(OSError) as err:
        write_shards(failing(), manifest, out)
    assert err.value.filename == str(out / "block_00000003.bin")
    assert isinstance(err.value.__context__, RuntimeError)
    assert sorted(p.name for p in out.iterdir()) == [f"block_{i:08d}.bin" for i in range(4)]
    assert not _writer_threads()


def test_compile_write_error_is_one_error_line(tmp_path, two_language_corpus, capsys):
    out = tmp_path / "out"
    (out / "block_00000003.bin").mkdir(parents=True)
    code = main(["compile", "--config", str(two_language_corpus), "--strategy", "parallel-only",
                 "--budget-tokens", str(8 * BLOCK_TOKENS), "--batch-blocks", "4",
                 "--seed", "12", "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: [Errno 21] Is a directory: '{out / 'block_00000003.bin'}'\n"
    )
    assert sorted(p.name for p in out.iterdir()) == [f"block_{i:08d}.bin" for i in range(4)]
    assert not _writer_threads()


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


def test_provenance_file_holds_each_blocks_spans(tmp_path):
    manifest = build_schedule(Strategy.MIXED, 8 * BLOCK_TOKENS, ["id"], 4, seed=14)
    blocks = list(_block_streams(manifest, seed=14))
    layout = write_shards(blocks, manifest, tmp_path / "p")
    data = layout.provenance_path.read_bytes()
    assert data.decode("utf-8").splitlines() == [
        json.dumps(
            [
                {"first": s.first_ordinal, "last": s.last_ordinal, "source": s.source_id}
                for s in block.provenance
            ],
            separators=(",", ":"),
        )
        for block in blocks
    ]
    doc = json.loads(layout.manifest_path.read_text())
    assert doc["provenance_checksum"] == _sha256_16(data)


def test_manifest_lists_the_block_checksums(small_corpus):
    doc = json.loads(small_corpus.manifest_path.read_text())
    assert doc["format"] == MANIFEST_FORMAT == "curriculum-manifest-v5"
    assert doc["checksums"] == [
        _sha256_16(small_corpus.block_path(i).read_bytes()) for i in range(8)
    ]


@pytest.mark.skipif(shutil.which("sha256sum") is None, reason="needs coreutils sha256sum")
def test_manifest_checksums_are_the_sha256sum_prefix(small_corpus):
    doc = json.loads(small_corpus.manifest_path.read_text())
    names = [small_corpus.block_path(i).name for i in range(8)] + [PROVENANCE_NAME]
    out = subprocess.run(
        ["sha256sum", *names], cwd=small_corpus.directory, capture_output=True, text=True,
        check=True,
    ).stdout
    assert [line[:16] for line in out.splitlines()] == [
        *doc["checksums"], doc["provenance_checksum"]
    ]


def _swap_in_block_from_another_compile(tmp_path):
    """A parallel-only tree with one block and its provenance line copied
    from a compile at another seed; returns the tree and the block name."""
    trees = []
    for seed in (1, 2):
        manifest = build_schedule(Strategy.PARALLEL_ONLY, 8 * BLOCK_TOKENS, ["id"], 4, seed=seed)
        trees.append(write_shards(_block_streams(manifest, seed), manifest, tmp_path / f"s{seed}"))
    ours, theirs = (read_manifest(t.directory) for t in trees)
    position = next(
        i for i, (a, b) in enumerate(zip(ours.entries, theirs.entries))
        if a == b and a.kind.name == "parallel"
    )
    shutil.copy(trees[1].block_path(position), trees[0].block_path(position))
    ours, theirs = (t.provenance_path.read_text().splitlines(keepends=True) for t in trees)
    ours[position] = theirs[position]
    trees[0].provenance_path.write_text("".join(ours))
    return trees[0], trees[0].block_path(position).name


@pytest.fixture(scope="module")
def sixteen_blocks(tmp_path_factory):
    manifest = build_schedule(Strategy.MIXED, 16 * BLOCK_TOKENS, ["id", "th"], 4, seed=10)
    return write_shards(_block_streams(manifest, seed=10), manifest,
                      tmp_path_factory.mktemp("sixteen") / "tree")


@pytest.fixture
def scattered_failures(sixteen_blocks, tmp_path):
    """A copy of the 16-block tree with a flipped byte at position 2, a
    missing block at 5, a directory in place of block 9 and a truncated
    block at 14; returns the tree and the lines ``render`` must print."""
    tree = tmp_path / "tree"
    shutil.copytree(sixteen_blocks.directory, tree)
    checksums = read_manifest(tree).checksums
    flipped = tree / "block_00000002.bin"
    data = bytearray(flipped.read_bytes())
    data[4096] ^= 0x01
    flipped.write_bytes(bytes(data))
    (tree / "block_00000005.bin").unlink()
    (tree / "block_00000009.bin").unlink()
    (tree / "block_00000009.bin").mkdir()
    truncated = tree / "block_00000014.bin"
    truncated.write_bytes(truncated.read_bytes()[:-4])
    return tree, [
        "blocks checked: 16",
        "checksum/size failures: 4",
        "orphan files: 0",
        "schedule violations: 0",
        f"  block_00000002.bin: checksum {_sha256_16(bytes(data))} != manifest {checksums[2]}",
        "  block_00000005.bin: missing file",
        f"  block_00000009.bin: size {(tree / 'block_00000009.bin').stat().st_size} != 1048576",
        "  block_00000014.bin: size 1048572 != 1048576",
        "audit: FAIL",
    ]


def _count_started_threads(monkeypatch):
    started = []
    start = threading.Thread.start

    def counting_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    return started


@pytest.mark.parametrize("cpus", [1, 2, 3, 16])
def test_audit_lists_scattered_failures_in_position_order_on_any_worker_count(
    scattered_failures, monkeypatch, cpus
):
    tree, lines = scattered_failures
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    started = _count_started_threads(monkeypatch)
    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        report = audit_shards(tree)
    finally:
        sys.setswitchinterval(interval)
    assert report.render().splitlines() == lines
    assert report.blocks_checked == 16
    assert len(started) == min(16, cpus) - 1
    assert threading.active_count() == before
    assert not any(thread.is_alive() for thread in started)


def test_audit_counts_every_cpu_where_there_is_no_affinity_mask(
    sixteen_blocks, monkeypatch
):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    started = _count_started_threads(monkeypatch)
    assert audit_shards(sixteen_blocks.directory).passed
    assert len(started) == 2


@pytest.mark.parametrize("cpus", [1, 16])
def test_audit_raises_the_read_error_of_the_lowest_position(sixteen_blocks, monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    read_bytes = Path.read_bytes
    read = []
    later_failed = threading.Event()

    def failing_read_bytes(path):
        if path.name == "block_00000011.bin":
            later_failed.set()
            raise OSError(5, "Input/output error", str(path))
        if path.name == "block_00000006.bin":
            if cpus > 1:  # the higher position raises first
                assert later_failed.wait(timeout=30)
            raise OSError(5, "Input/output error", str(path))
        read.append(path.name)
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", failing_read_bytes)
    before = threading.active_count()
    with pytest.raises(OSError) as err:
        audit_shards(sixteen_blocks.directory)
    assert err.value.filename == str(sixteen_blocks.block_path(6))
    assert threading.active_count() == before
    if cpus == 1:
        assert read == [f"block_{i:08d}.bin" for i in range(6)]


def test_audit_flags_block_and_record_swapped_in_from_another_compile(tmp_path):
    layout, victim = _swap_in_block_from_another_compile(tmp_path)
    report = audit_shards(layout.directory)
    assert not report.passed
    # The pair side order depends on the seed but a block's spans do not, so
    # the swapped provenance line is the one it replaced; the block is caught.
    assert [f.block_file for f in report.checksum_failures] == [victim]
    assert "!= manifest" in report.checksum_failures[0].reason


def test_audit_flags_manifest_checksum_edit(small_corpus, tmp_path):
    tree = tmp_path / "t"
    shutil.copytree(small_corpus.directory, tree)
    doc = json.loads((tree / "manifest.json").read_text())
    doc["checksums"][5] = "0" * 16
    (tree / "manifest.json").write_text(json.dumps(doc))
    report = audit_shards(tree)
    assert [f.block_file for f in report.checksum_failures] == ["block_00000005.bin"]
    assert "manifest 0000000000000000" in report.checksum_failures[0].reason


def test_audit_flags_v3_manifest_without_checksums(small_corpus, tmp_path):
    tree = tmp_path / "t"
    shutil.copytree(small_corpus.directory, tree)
    doc = json.loads((tree / "manifest.json").read_text())
    doc["checksums"] = None
    (tree / "manifest.json").write_text(json.dumps(doc))
    report = audit_shards(tree)
    assert [f.block_file for f in report.checksum_failures] == ["manifest.json"]


def test_audit_flags_orphan_files(tmp_path):
    big = build_schedule(Strategy.MULTILINGUAL, 8 * BLOCK_TOKENS, ["id"], 4, seed=1)
    write_shards(_block_streams(big), big, tmp_path / "t")
    small = build_schedule(Strategy.MULTILINGUAL, 4 * BLOCK_TOKENS, ["id"], 4, seed=1)
    write_shards(_block_streams(small), small, tmp_path / "t")
    strays = [
        "block_x.bin", "block_000000001.bin", "block_1.meta.json",
        "block_00000000.meta.json", "run_config.json",
    ]
    for name in strays:
        (tmp_path / "t" / name).write_bytes(b"")
    report = audit_shards(tmp_path / "t")
    assert not report.passed
    assert report.checksum_failures == []
    assert report.orphans == sorted([f"block_{i:08d}.bin" for i in range(4, 8)] + strays)
    assert "orphan files: 9" in report.render()


def test_audit_missing_manifest_raises(tmp_path):
    with pytest.raises(LayoutError):
        audit_shards(tmp_path)


def test_audit_flags_schedule_violation(tmp_path):
    manifest = build_schedule(Strategy.PARALLEL_ONLY, 8 * BLOCK_TOKENS, ["id"], 4, seed=6)
    layout = write_shards(_block_streams(manifest), manifest, tmp_path / "v")
    # corrupt the manifest's replay accounting: replace a replay entry kind
    doc = json.loads(layout.manifest_path.read_text())
    doc["entries"][doc["entries"].index("replay")] = "parallel:id"
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
    assert sorted(path.name for path in (tmp_path / strategy.value).iterdir()) == [
        *(f"block_{i:08d}.bin" for i in range(8)), "manifest.json", "provenance.jsonl"
    ]
    assert audit_shards(tmp_path / strategy.value).passed
    text = (tmp_path / strategy.value / "manifest.json").read_text()
    assert CurriculumManifest.from_json(text) == result.manifest
    assert CurriculumManifest.from_json(text).to_json() == text


def test_compile_accounts_for_every_record_read(tmp_path):
    root = tmp_path / "corpus"
    config = write_corpus(
        root, languages=("id",), n_pairs=14_000, n_docs=260, sentences_per_doc=60, seed=1,
    )
    pairs = root / "pairs_en_id.tsv"
    pairs.write_text("one field only\n\tno english\n" + pairs.read_text())
    replay = root / "replay_0.jsonl"
    replay.write_text("{not json\n" + replay.read_text())
    (root / "replay_tiny.jsonl").write_text('{"text": "a short replay document"}\n')
    doc = json.loads(config.read_text())
    doc["sources"].append({"path": "replay_tiny.jsonl", "kind": "replay"})
    config.write_text(json.dumps(doc))

    result = compile_corpus(config, Strategy.MIXED, 8 * BLOCK_TOKENS, 4, seed=2, out_dir=tmp_path / "out")
    metadata = result.manifest.metadata
    assert read_manifest(tmp_path / "out").metadata == metadata
    sources, discards = metadata["sources"], metadata["discards"]
    assert sorted(sources) == sorted(discards) == ["monolingual:id", "parallel:id", "replay"]
    for key, reads in sources.items():
        assert all(r["records"] == r["emitted"] + r["skipped"] for r in reads)
        # The packer received every record the readers emitted.
        assert sum(r["emitted"] for r in reads) == discards[key]["records"]
    (par,) = sources["parallel:id"]
    assert (par["source"], par["skipped"]) == ("pairs_en_id.tsv", 2)
    assert "quota" not in par
    replays = {r["source"]: r for r in sources["replay"]}
    assert list(replays) == ["replay_0.jsonl", "replay_1.jsonl", "replay_tiny.jsonl"]
    assert [r["skipped"] for r in replays.values()] == [1, 0, 0]
    needed = result.manifest.kind_counts()["replay"]
    assert {r["quota"] for r in replays.values()} == {(needed + 1) * BLOCK_TOKENS / 3}
    tiny = replays["replay_tiny.jsonl"]
    assert (tiny["records"], tiny["drawn_tokens"]) == (1, len("a short replay document"))
    assert tiny["deficit"] == math.ceil(tiny["quota"] - tiny["drawn_tokens"])
    assert replays["replay_0.jsonl"]["deficit"] == replays["replay_1.jsonl"]["deficit"] == 0
    for key in ("replay", "monolingual:id"):
        # Each document is its drawn tokens plus one end-of-text id.
        drawn = sum(r["drawn_tokens"] for r in sources[key])
        assert drawn + discards[key]["records"] == discards[key]["tokens_in"]


def test_replacement_sources_list_parallel_files_then_monolingual(tmp_path):
    root = tmp_path / "corpus"
    config = write_corpus(
        root, languages=("id",), n_pairs=6000, n_docs=420, sentences_per_doc=40,
        replay_docs=220, seed=3,
    )
    doc = json.loads(config.read_text())
    assert [s["kind"] for s in doc["sources"]][:2] == ["monolingual", "parallel"]
    result = compile_corpus(
        config, Strategy.MULTILINGUAL_REPLACEMENT, 4 * BLOCK_TOKENS, 4, seed=3,
        out_dir=tmp_path / "out",
    )
    reads = result.manifest.metadata["sources"]["replacement:id"]
    assert [r["source"] for r in reads] == ["pairs_en_id.tsv", "mono_id.txt"]
