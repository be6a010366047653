"""The pair row loop against a pair-at-a-time reader, on dirty pair files.

``corpus.pair_runs`` reads a pair file in line runs, the packer takes its
pairs in runs, and ``read_parallel`` hands its rows over one pair at a time.
``helpers.reference_read_parallel`` reads one line at a time, counting and
logging each row as it reads it; through ``helpers.reference_pair_records``
and ``helpers.reference_pack`` it is the record-by-record oracle. Both
paths must give the same pairs, blocks, provenance, pack report, per-source
counts and warning lines, after every pull, when a stream is abandoned and
when it runs dry.
"""

import dataclasses
import json
import logging
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from currikit import corpus, packing, pipeline
from currikit.corpus import CorpusSource, ReadCounter, ShortfallError, read_parallel
from currikit.packing import BlockKind, PackReport, pack_parallel, pack_replacement
from currikit.pipeline import compile_corpus
from currikit.synthetic import write_corpus
from currikit.tokenizer import BYTE_FALLBACK, TokenizerError, TokenizerSpec
from helpers import (
    reference_pack,
    reference_pair_records,
    reference_pair_rows,
    reference_pair_runs,
    reference_read_parallel,
    reference_substituted,
    tree_digest,
)

# Malformed rows per format: too few or too many fields, JSON that is not
# an object with string "en" and "sea", and sides that strip to nothing.
BAD_TSV = [
    "no tab here\n",
    "one\ttwo\tthree\n",
    "\tonly the sea side\n",
    "only the english side\t\u3000\n",
    "\x1c\tfile separator is whitespace\n",
    "\n",
]
BAD_JSONL = [
    "{broken\n",
    "[]\n",
    '"a string"\n',
    '{"en": "no sea"}\n',
    '{"en": "raw \x0c form feed", "sea": "x"}\n',
    "\n",
    '{"en": 1, "sea": "one"}\n',
    '{"en": "null", "sea": null}\n',
    json.dumps({"en": "\u3000", "sea": "x"}) + "\n",
    json.dumps({"en": "x", "sea": "\x1c"}) + "\n",
]


UNCOVERED = "\u2603"  # in a document file, never in a test vocabulary


def _good(code, i, jsonl):
    """A clean pair row; some sides hold separators a line split must keep."""
    en = f"english {code} {i}" + " word" * (i % 7) + "."
    sea = f"{code} kalimat {i}" + " kata" * (i % 5) + "."
    if i % 9 == 4:
        en, sea = f"line\u2028separator {i}.", f"next\x85line {i}."
    elif i % 9 == 7:
        en, sea = f"form\x0cfeed {i}.", f"  padded {i}  "
    if jsonl:
        return json.dumps({"en": en, "sea": sea}, ensure_ascii=False) + "\n"
    return f"{en}\t{sea}\n"


def write_dirty_pairs(path, code, n_rows, offset):
    """A pair file of ``n_rows`` rows: malformed rows lead it, are spread
    through it in runs of one to three, and close it."""
    jsonl = path.suffix == ".jsonl"
    bad = BAD_JSONL if jsonl else BAD_TSV
    rows = []
    for i in range(n_rows):
        if i == 0 or i >= n_rows - 3 or i % 11 in (3, 4) or i % 17 == 9:
            rows.append(bad[(i + offset) % len(bad)])
        else:
            rows.append(_good(code, i + offset, jsonl))
    path.write_text("".join(rows), encoding="utf-8")
    return path


@pytest.fixture
def pair_files(tmp_path):
    """Per language, one TSV and one JSONL file, in different orders."""
    files = {}
    for code, names in (("id", ("a.tsv", "b.jsonl")), ("th", ("c.jsonl", "d.tsv"))):
        files[code] = [
            CorpusSource(
                path=str(write_dirty_pairs(tmp_path / name, code, 24 + 9 * n, 5 * n)),
                kind="parallel", language=code, source_id=f"{code}/{name}",
            )
            for n, name in enumerate(names)
        ]
    return files


def _vocab(*file_groups):
    """A ``bpe_file`` vocabulary covering every character of the files and
    the labels but ``UNCOVERED``, with some longer pieces."""
    chars = {"\n", ":", " "}
    for files in file_groups:
        for sources in files.values():
            for source in sources:
                with open(source.path, encoding="utf-8") as fh:
                    chars.update(fh.read())
    for label in ("English", "Indonesian", "Thai"):
        chars.update(label)
    chars.discard(UNCOVERED)
    pieces = sorted(chars) + ["English: ", "Indonesian", "kalimat ", " kata", "english "]
    return TokenizerSpec(
        id="pairs-bpe", vocab_size=len(pieces) + 1, eot_id=len(pieces), kind="bpe_file",
        pieces=dict(enumerate(pieces)),
    )


def _logged_since(caplog, before):
    return [r.getMessage() for r in caplog.records[before:]]


@pytest.mark.parametrize("line_run_chars", [1, 90, corpus.LINE_RUN_CHARS])
def test_read_parallel_reads_as_the_reference_reader(pair_files, line_run_chars, caplog):
    """Every file, pulled in lockstep with the reference reader and closed
    after each pair: the same pairs, counts and warnings at every step;
    ``\\u2028``, ``\\x85`` and ``\\x0c`` stay inside their rows."""
    caplog.set_level(logging.WARNING, logger="currikit.corpus")
    with mock.patch.object(corpus, "LINE_RUN_CHARS", line_run_chars):
        for source in (s for sources in pair_files.values() for s in sources):
            args = (source.path, source.language)
            n_pairs = sum(not isinstance(sides, str) for _, sides in reference_pair_rows(args[0]))
            for stop in range(n_pairs + 2):
                counter, want_counter = ReadCounter(), ReadCounter()
                pairs = read_parallel(*args, counter, source_id=source.source_id)
                want_pairs = reference_read_parallel(*args, want_counter, source.source_id)
                for _ in range(stop):
                    before = len(caplog.records)
                    pair = next(pairs, None)
                    logged = _logged_since(caplog, before)
                    before = len(caplog.records)
                    assert pair == next(want_pairs, None)
                    assert logged == _logged_since(caplog, before)
                    assert counter == want_counter
                before = len(caplog.records)
                pairs.close()
                logged = _logged_since(caplog, before)
                before = len(caplog.records)
                want_pairs.close()
                assert logged == _logged_since(caplog, before)
                assert counter == want_counter
            assert counter.skipped > corpus.MAX_ROW_WARNINGS
            kept = "".join(en + sea for _, (en, sea) in (
                row for row in reference_pair_rows(args[0]) if not isinstance(row[1], str)
            ))
            assert {"\u2028", "\x85", "\x0c"} <= set(kept)


def _next_or_error(iterator):
    try:
        return next(iterator, None), None
    except UnicodeDecodeError as exc:
        return None, str(exc)


@pytest.mark.parametrize("line_run_chars", [1, 90, corpus.LINE_RUN_CHARS])
@pytest.mark.parametrize("name", ["bad.tsv", "bad.jsonl"])
def test_bytes_that_are_not_utf8_stop_read_parallel_where_a_line_reader_stops(
    tmp_path, name, line_run_chars, caplog
):
    """Good rows, 30 KB of malformed ones, then a byte that is not UTF-8:
    the same pairs, counts and warnings as the reference reader, up to the
    same error; the malformed rows before the bad bytes are counted."""
    path = tmp_path / name
    write_dirty_pairs(path, "id", 40, 0)
    good = path.read_bytes()
    malformed = (BAD_JSONL if name.endswith(".jsonl") else BAD_TSV)[0].encode()
    path.write_bytes(good + malformed * (30_000 // len(malformed)) + b"\xff\n" + good)
    caplog.set_level(logging.WARNING, logger="currikit.corpus")
    counter, want_counter = ReadCounter(), ReadCounter()
    with mock.patch.object(corpus, "LINE_RUN_CHARS", line_run_chars):
        pairs = read_parallel(path, "id", counter, source_id="s")
        want_pairs = reference_read_parallel(path, "id", want_counter, "s")
        error = None
        while error is None:
            before = len(caplog.records)
            pair, error = _next_or_error(pairs)
            logged = _logged_since(caplog, before)
            before = len(caplog.records)
            assert (pair, error) == _next_or_error(want_pairs)
            assert logged == _logged_since(caplog, before)
            assert counter == want_counter
            assert pair is not None or error is not None
    assert error.startswith("'utf-8' codec can't decode byte 0xff")
    assert counter.skipped > 1000


class _Stream:
    """One parallel stream, or with ``docs`` a replacement stream, pulled a
    block at a time, with what each pull logged and the error it raised.
    ``runs`` picks the row loop in runs or one pair at a time."""

    def __init__(self, sources, code, spec, seed, label_style, runs, docs=None):
        self.reads = []
        self.report = PackReport()
        reader = corpus.pair_runs if runs else reference_read_parallel
        pairs = pipeline._chained(reader, sources, code, self.reads)
        if docs is not None:
            supply = pipeline._chained(corpus.read_monolingual, docs, code, self.reads)
        if runs and docs is None:
            self.blocks = pack_parallel(pairs, code, spec, seed, label_style, self.report)
        elif runs:
            self.blocks = pack_replacement(
                pairs, supply, code, spec, seed, label_style, self.report
            )
        else:
            kind = BlockKind.parallel(code)
            if docs is not None:
                pairs = reference_substituted(pairs, supply, code, spec, self.report)
                kind = BlockKind.replacement(code)
            self.blocks = reference_pack(
                reference_pair_records(pairs, code, seed, label_style, self.report),
                kind, spec, self.report,
            )

    def pull(self, caplog):
        before = len(caplog.records)
        try:
            block, error = next(self.blocks, None), None
        except (ShortfallError, TokenizerError) as exc:
            block, error = None, f"{type(exc).__name__}: {exc}"
        self.error = error
        return block, error, _logged_since(caplog, before)

    def close(self, caplog):
        before = len(caplog.records)
        self.blocks.close()
        return _logged_since(caplog, before)

    def state(self):
        return dataclasses.asdict(self.report), [read.to_json() for read in self.reads]


def _assert_same_pull(new, ref, caplog):
    block, error, logged = new.pull(caplog)
    want, want_error, want_logged = ref.pull(caplog)
    assert error == want_error
    assert logged == want_logged
    assert (block is None) == (want is None)
    if block is not None:
        assert np.array_equal(block.ids, want.ids)
        assert block.provenance == want.provenance
        assert block.kind == want.kind
    assert new.state() == ref.state()
    return block


@pytest.mark.parametrize("line_run_chars", [1, 90, corpus.LINE_RUN_CHARS])
@pytest.mark.parametrize("block_tokens", [1, 7, 64, 4096])
@pytest.mark.parametrize("tokenizer", ["byte_fallback", "bpe_file"])
def test_pair_runs_pack_as_pairs_one_at_a_time(
    pair_files, line_run_chars, block_tokens, tokenizer, caplog
):
    """Drain each stream in lockstep with the reference, comparing after
    every block; then abandon fresh streams after each of a set of blocks,
    mid-file and right after a file's last pair, comparing what closing
    them logs. Tiny blocks put a block boundary at every pair."""
    spec = BYTE_FALLBACK if tokenizer == "byte_fallback" else _vocab(pair_files)
    caplog.set_level(logging.WARNING, logger="currikit.corpus")
    with mock.patch.object(corpus, "LINE_RUN_CHARS", line_run_chars), \
            mock.patch.object(packing, "BLOCK_TOKENS", block_tokens):
        for code, sources in pair_files.items():
            args = (sources, code, spec, 3, "name" if code == "id" else "code")
            new, ref = _Stream(*args, runs=True), _Stream(*args, runs=False)
            emitted = []  # per block pulled: each source's emitted count
            while _assert_same_pull(new, ref, caplog) is not None:
                emitted.append([read["emitted"] for read in new.state()[1]])
            assert new.close(caplog) == ref.close(caplog) == []
            first_pairs = sum(
                not isinstance(sides, str) for _, sides in reference_pair_rows(sources[0].path)
            )
            # the block that ends the first file's last pair, nothing of the next file
            at_file_end = [k for k, e in enumerate(emitted) if e == [first_pairs, 0]]
            if block_tokens == 1:
                assert at_file_end
            stops = {0, len(emitted) // 3, len(emitted) - 1, *at_file_end[-1:]}
            for stop in sorted(s for s in stops if s >= 0):
                new, ref = _Stream(*args, runs=True), _Stream(*args, runs=False)
                for _ in range(stop + 1):
                    _assert_same_pull(new, ref, caplog)
                assert new.close(caplog) == ref.close(caplog)
                assert new.state() == ref.state()


def _write_docs(path, code, n_docs):
    """A JSONL document file, dirty like the pair files: documents of one to
    five sentences, with malformed and empty rows among them. The seventh
    Indonesian document holds a character no test vocabulary covers."""
    rows = []
    for i in range(n_docs):
        if i % 5 == 2:
            rows.append(("{oops\n", '{"text": " \\u3000 "}\n', "[]\n")[i % 3])
        sentences = [
            f"{code} teks {i} {k}" + " kata" * ((i + k) % 4) + "." for k in range(1 + i % 5)
        ]
        if i == 6 and code == "id":
            sentences[-1] = f"{UNCOVERED} {sentences[-1]}"
        rows.append(json.dumps({"text": "  ".join(sentences)}, ensure_ascii=False) + "\n")
    path.write_text("".join(rows), encoding="utf-8")
    return path


@pytest.fixture
def doc_files(tmp_path):
    """Per language, a document file: more sentences than the Indonesian
    pair files have pairs, fewer than the Thai ones."""
    return {
        code: [
            CorpusSource(path=str(_write_docs(tmp_path / f"docs_{code}.jsonl", code, n_docs)),
                         kind="monolingual", language=code, source_id=f"{code}/docs")
        ]
        for code, n_docs in (("id", 20), ("th", 8))
    }


@pytest.mark.parametrize("line_run_chars", [1, corpus.LINE_RUN_CHARS])
@pytest.mark.parametrize("block_tokens", [1, 7, 64, 4096])
@pytest.mark.parametrize("tokenizer", ["byte_fallback", "bpe_file"])
def test_replacement_runs_pack_as_pairs_one_at_a_time(
    pair_files, doc_files, line_run_chars, block_tokens, tokenizer, caplog
):
    """A replacement stream takes its pairs in runs cut where a document's
    sentences end. After every block, and when abandoned, it has pulled the
    pairs and documents, counted the token deltas and logged the warnings of
    a pair-by-pair stream. The Thai stream runs out of sentences; with the
    ``bpe_file`` vocabulary the Indonesian one meets a sentence it cannot
    measure, mid-run. Each fails at the reference's pull, with its error."""
    spec = BYTE_FALLBACK if tokenizer == "byte_fallback" else _vocab(pair_files, doc_files)
    caplog.set_level(logging.WARNING, logger="currikit.corpus")
    failure = {"th": "ShortfallError", "id": None if spec is BYTE_FALLBACK else "TokenizerError"}
    with mock.patch.object(corpus, "LINE_RUN_CHARS", line_run_chars), \
            mock.patch.object(packing, "BLOCK_TOKENS", block_tokens):
        for code, sources in pair_files.items():
            args = (sources, code, spec, 3, "name")
            new, ref = (_Stream(*args, runs=runs, docs=doc_files[code]) for runs in (True, False))
            pulls = 1
            while _assert_same_pull(new, ref, caplog) is not None:
                pulls += 1
            assert new.close(caplog) == ref.close(caplog) == []
            assert (new.error and new.error.partition(":")[0]) == failure[code]
            for stop in sorted({0, pulls // 3, pulls // 2, max(pulls - 2, 0)}):
                new, ref = (
                    _Stream(*args, runs=runs, docs=doc_files[code]) for runs in (True, False)
                )
                for _ in range(stop + 1):
                    _assert_same_pull(new, ref, caplog)
                assert new.close(caplog) == ref.close(caplog)
                assert new.state() == ref.state()


@pytest.fixture(scope="module")
def dirty_config(tmp_path_factory):
    """A synthetic corpus whose pair streams each read a dirty TSV file, then
    a dirty JSONL file. Its Indonesian documents come from a JSONL file with
    malformed rows, so a replacement stream logs warnings from both readers."""
    root = tmp_path_factory.mktemp("dirty")
    config = write_corpus(root, languages=("id", "th"), n_pairs=0, n_docs=420,
                          sentences_per_doc=40, replay_docs=220, seed=9)
    doc = json.loads(config.read_text(encoding="utf-8"))
    texts = (root / "mono_id.txt").read_text(encoding="utf-8").split("\n\n")
    (root / "mono_id.jsonl").write_text(
        "".join(("{oops\n" if i % 7 == 3 else "") + json.dumps({"text": text}) + "\n"
                for i, text in enumerate(texts)),
        encoding="utf-8",
    )
    for source in doc["sources"]:
        if source["path"] == "mono_id.txt":
            source["path"] = "mono_id.jsonl"
    for code in ("id", "th"):
        for name, rows, offset in ((f"pairs_{code}.tsv", 7000, 0),
                                   (f"pairs_{code}.jsonl", 6000, 3)):
            write_dirty_pairs(root / name, code, rows, offset)
            doc["sources"].append({"path": name, "kind": "parallel", "language": code})
    config.write_text(json.dumps(doc), encoding="utf-8")
    return config


def _compile_both_ways(config, strategy, blocks, tmp_path, caplog):
    """The error, tree digest and warning lines of a compile that reads its
    pairs through the row loop, then of one that reads them one at a time."""
    outcomes = []
    for reader in (corpus.pair_runs, reference_pair_runs):
        caplog.clear()
        out = tmp_path / reader.__name__
        with mock.patch.object(pipeline, "pair_runs", reader), \
                caplog.at_level(logging.WARNING, logger="currikit.corpus"):
            try:
                compile_corpus(config, strategy, blocks * packing.BLOCK_TOKENS, 4, seed=5,
                               out_dir=out)
                error = None
            except (pipeline.CompileError, UnicodeDecodeError) as exc:
                error = str(exc)
        outcomes.append((error, tree_digest(out), [r.getMessage() for r in caplog.records]))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


@pytest.mark.parametrize("strategy,blocks", [
    ("parallel-only", 4), ("mixed", 8), ("multilingual-replacement", 4), ("parallel-only", 12),
])
def test_dirty_compile_is_the_compile_of_pairs_one_at_a_time(
    dirty_config, tmp_path, caplog, strategy, blocks
):
    """The whole tree and the warning log of a compile over dirty pair files
    equal those of the same compile reading its pairs one at a time; with 12
    blocks the pair streams run dry and both compiles fail alike."""
    error, _, logged = _compile_both_ways(dirty_config, strategy, blocks, tmp_path, caplog)
    assert (error is not None) == (blocks == 12)
    assert error is None or error.startswith("parallel:")
    assert any("skipped" in line and "malformed rows" in line for line in logged)


def test_bytes_that_are_not_utf8_stop_a_compile_where_a_line_reader_stops(
    dirty_config, tmp_path, caplog
):
    """A pair file with bytes that are not UTF-8 halfway: both compiles write
    the same blocks, log the same warnings and fail with the same error."""
    corpus_dir = tmp_path / "corpus"
    shutil.copytree(dirty_config.parent, corpus_dir)
    path = corpus_dir / "pairs_th.tsv"
    rows = path.read_bytes().split(b"\n")
    path.write_bytes(b"\n".join([*rows[:3000], b"bad \xff byte\tx", *rows[3000:]]))
    error, _, logged = _compile_both_ways(
        corpus_dir / dirty_config.name, "parallel-only", 4, tmp_path, caplog
    )
    assert error.startswith("'utf-8' codec can't decode byte 0xff")
    assert any(line.startswith("pairs_th.tsv: skipped") for line in logged)


def test_failed_compile_logs_row_totals_before_its_error_line(dirty_config, tmp_path):
    """A compile whose pair streams run dry closes every stream before it
    fails, so the malformed-row totals of the streams it abandons come
    before the ``error:`` line and nothing follows that line."""
    src = str(Path(pipeline.__file__).resolve().parent.parent)
    argv = ["compile", "--config", str(dirty_config), "--strategy", "parallel-only",
            "--budget-tokens", str(12 * packing.BLOCK_TOKENS), "--batch-blocks", "4",
            "--seed", "5", "--out", str(tmp_path / "out")]
    result = subprocess.run(
        [sys.executable, "-I", "-c",
         f"import sys; sys.path.insert(0, {src!r}); from currikit import cli; "
         f"sys.exit(cli.main({argv!r}))"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 1
    lines = result.stderr.splitlines()
    assert lines[-1].startswith("error: parallel:")
    assert any(line.startswith("pairs_th.tsv: skipped") for line in lines[:-1])
