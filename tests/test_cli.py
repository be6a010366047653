import hashlib
import importlib.util
import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from currikit import pipeline
from currikit.cli import main
from currikit.corpus import load_corpus_config
from currikit.packing import BLOCK_TOKENS
from currikit.schedule import CurriculumManifest, Strategy
from currikit.synthetic import write_corpus
from helpers import tree_digest


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli") / "corpus"
    return write_corpus(
        root, languages=("id",), n_pairs=18_000, n_docs=260, sentences_per_doc=60,
        seed=2,
    )


@pytest.fixture(scope="module")
def compiled(tmp_path_factory, corpus):
    out = tmp_path_factory.mktemp("cli-out") / "shards"
    code = main(
        [
            "compile",
            "--config", str(corpus),
            "--strategy", "parallel-only",
            "--budget-tokens", "3145728",  # exactly 12 blocks
            "--batch-blocks", "4",
            "--seed", "7",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


def test_compile_then_audit_exit_zero(compiled, capsys):
    assert main(["audit", "--dir", str(compiled)]) == 0
    out = capsys.readouterr().out
    assert "audit: PASS" in out


def test_audit_fails_on_corruption(compiled, tmp_path, capsys):
    import shutil

    broken = tmp_path / "broken"
    shutil.copytree(compiled, broken)
    victim = broken / "block_00000003.bin"
    data = bytearray(victim.read_bytes())
    data[7] ^= 1
    victim.write_bytes(bytes(data))
    assert main(["audit", "--dir", str(broken)]) == 1
    assert "FAIL" in capsys.readouterr().out


# The compiled fixture's discard accounting, as every ``audit --json`` of it prints it.
_DISCARDS_JSON = (
    '"discards": {"parallel:id": {"blocks": 9, "discarded_tokens": 18, "en_first": 7850, '
    '"records": 15568, "replacement_token_delta": 0, "tokens_in": 2359314}, '
    '"replay": {"blocks": 3, "discarded_tokens": 3567, "en_first": 0, "records": 181, '
    '"replacement_token_delta": 0, "tokens_in": 789999}}'
)


def test_audit_json_of_a_passing_tree(compiled, capsys):
    assert main(["audit", "--dir", str(compiled), "--json"]) == 0
    assert capsys.readouterr().out == (
        '{"blocks_checked": 12, "checksum_failures": [], ' + _DISCARDS_JSON + ', '
        '"orphans": [], "passed": true, "schedule_violations": []}\n'
    )


def test_audit_json_of_a_failing_tree(compiled, tmp_path, capsys):
    broken = tmp_path / "broken"
    shutil.copytree(compiled, broken)
    (broken / "block_00000003.bin").unlink()
    victim = broken / "block_00000008.bin"
    data = bytearray(victim.read_bytes())
    data[0] ^= 0xFF
    victim.write_bytes(bytes(data))
    (broken / "stray.bin").write_bytes(b"")
    doc = json.loads((broken / "manifest.json").read_text())
    doc["entries"][doc["entries"].index("replay")] = "parallel:id"
    (broken / "manifest.json").write_text(json.dumps(doc))
    assert main(["audit", "--dir", str(broken), "--json"]) == 1
    assert capsys.readouterr().out == (
        '{"blocks_checked": 12, "checksum_failures": ['
        '{"block_file": "block_00000003.bin", "reason": "missing file"}, '
        '{"block_file": "block_00000008.bin", '
        '"reason": "checksum bc76ab99e6724380 != manifest c825b40f75c6b9cc"}], '
        + _DISCARDS_JSON + ', "orphans": ["stray.bin"], "passed": false, '
        '"schedule_violations": [{"detail": "batch 0 has 0 replay blocks, want 1", '
        '"positions": [0, 1, 2, 3], "rule": "replay-ratio"}]}\n'
    )
    assert main(["audit", "--dir", str(broken)]) == 1
    assert capsys.readouterr().out.splitlines()[4:8] == [
        "  block_00000003.bin: missing file",
        "  block_00000008.bin: checksum bc76ab99e6724380 != manifest c825b40f75c6b9cc",
        "  stray.bin: orphan, not named by the manifest",
        "  replay-ratio @ [0,1,2,3]: batch 0 has 0 replay blocks, want 1",
    ]


def test_audit_read_error_is_one_error_line_and_leaves_no_thread(
    compiled, monkeypatch, capsys
):
    read_bytes = Path.read_bytes

    def failing_read_bytes(path):
        if path.name == "block_00000005.bin":
            raise OSError(5, "Input/output error", str(path))
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", failing_read_bytes)
    before = threading.active_count()
    assert main(["audit", "--dir", str(compiled)]) == 1
    assert threading.active_count() == before
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: [Errno 5] Input/output error: '{compiled / 'block_00000005.bin'}'\n"
    )


def test_import_loads_no_concurrency_framework():
    # Importing currikit is part of every command's start-up time; the audit's
    # workers and the compile's writer thread use threading, which logging
    # loads anyway, and hand work over without the queue module.
    import currikit

    src = str(Path(currikit.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import currikit; "
        "print(sorted(m for m in ('queue', 'concurrent.futures', 'multiprocessing', 'asyncio') "
        "if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"


@pytest.mark.parametrize("content", [b"[]", b"{not json", b"\xff\xfe"])
def test_audit_reports_corrupt_block_record(compiled, tmp_path, capsys, content):
    # A block's record is its line of provenance.jsonl.
    import shutil

    broken = tmp_path / "broken"
    shutil.copytree(compiled, broken)
    provenance = broken / "provenance.jsonl"
    lines = provenance.read_bytes().splitlines(keepends=True)
    lines[1] = content + b"\n"
    provenance.write_bytes(b"".join(lines))
    assert main(["audit", "--dir", str(broken)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "blocks checked: 12" in captured.out
    assert "checksum/size failures: 1" in captured.out
    assert "  provenance.jsonl: checksum " in captured.out
    assert "audit: FAIL" in captured.out


def _edit_line(path):
    lines = path.read_text().splitlines(keepends=True)
    lines[4] = lines[4].replace('"last":', '"last":1')
    path.write_text("".join(lines))


def _drop_line(path):
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


# A tree edited after its compile, and the failure line the audit must print.
_TREE_EDITS = {
    "provenance edited": (
        lambda tree: _edit_line(tree / "provenance.jsonl"), "provenance.jsonl: checksum "
    ),
    "provenance one line short": (
        lambda tree: _drop_line(tree / "provenance.jsonl"), "provenance.jsonl: 11 lines != 12"
    ),
    "provenance missing": (
        lambda tree: (tree / "provenance.jsonl").unlink(), "provenance.jsonl: missing file"
    ),
    "stray record": (
        lambda tree: (tree / "block_00000000.meta.json").write_text("{}"),
        "block_00000000.meta.json: orphan",
    ),
    "stray run_config": (
        lambda tree: (tree / "run_config.json").write_text("{}"), "run_config.json: orphan"
    ),
}


@pytest.mark.parametrize("edit", sorted(_TREE_EDITS))
def test_audit_fails_on_a_tree_edit(compiled, tmp_path, capsys, edit):
    import shutil

    tree = tmp_path / "tree"
    shutil.copytree(compiled, tree)
    change, wanted = _TREE_EDITS[edit]
    change(tree)
    assert main(["audit", "--dir", str(tree)]) == 1
    out = capsys.readouterr().out
    assert f"  {wanted}" in out
    assert "audit: FAIL" in out


def _drop_last(count):
    def tamper(doc):
        del doc["entries"][-count:], doc["checksums"][-count:]
        doc["leftover_tokens"] += count * BLOCK_TOKENS

    return tamper


# One field of the compiled (12-block, batch 4) manifest edited, and the
# text the error line must hold. Each passed audit while the manifest
# stored the field unchecked, compared it with ``!=`` (which equates true
# with 1 and 2.0 with 2) or did not bound the leftover by one batch; the
# language set out of order failed it only as a schedule violation.
_TAMPERED = {
    **{
        f"format v{n}": (
            lambda doc, n=n: doc.update(format=f"curriculum-manifest-v{n}"),
            f"format curriculum-manifest-v{n} is no longer supported; recompile",
        )
        for n in (1, 2, 3, 4)
    },
    "leftover_tokens": (lambda doc: doc.update(leftover_tokens=999), "leftover_tokens"),
    "sequences_per_step": (lambda doc: doc.update(sequences_per_step=1), "sequences_per_step"),
    "block_tokens": (lambda doc: doc.update(block_tokens=4096), "block_tokens"),
    "token_budget float": (
        lambda doc: doc.update(token_budget=float(doc["token_budget"])), "token_budget"
    ),
    "batch_size_blocks true": (lambda doc: doc.update(batch_size_blocks=True), "batch_size_blocks"),
    "whole batch dropped": (_drop_last(4), "leftover_tokens"),
    "entry count off the batch": (_drop_last(1), "not a positive multiple"),
    "non-canonical kind": (lambda doc: doc["entries"].__setitem__(3, "replay:"), "canonical"),
    "checksum missing": (lambda doc: doc["checksums"].pop(), "11 checksums for 12 blocks"),
    "checksum not hex": (
        lambda doc: doc["checksums"].__setitem__(0, "z" * 16), "lowercase hex"
    ),
    "metadata not an object": (lambda doc: doc.update(metadata=[]), "metadata is a list"),
    "language_set out of order": (
        lambda doc: doc.update(language_set=["th", "id"]), "language_set=['th', 'id']"
    ),
    "language_set with a repeat": (
        lambda doc: doc.update(language_set=["id", "id"]), "language_set=['id', 'id']"
    ),
    "tokenizer_id not a string": (lambda doc: doc.update(tokenizer_id=7), "tokenizer_id=7"),
    "unknown strategy": (
        lambda doc: doc.update(strategy="bogus"), "malformed curriculum manifest: strategy='bogus'"
    ),
}


@pytest.mark.parametrize("command", ["audit", "stats"])
@pytest.mark.parametrize(
    "content",
    [b'{"format": "curriculum-manifest-v2"}', b"[]", b"{not json", *_TAMPERED],
)
def test_corrupt_manifest_is_one_error_line(compiled, tmp_path, capsys, command, content):
    import shutil

    manifest = tmp_path / "manifest.json"
    if isinstance(content, str):
        shutil.copytree(compiled, tmp_path, dirs_exist_ok=True)
        doc = json.loads(manifest.read_text())
        edit, _ = _TAMPERED[content]
        edit(doc)
        manifest.write_text(json.dumps(doc))
    else:
        manifest.write_bytes(content)
    assert main([command, "--dir", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(manifest) in captured.err
    if isinstance(content, str):
        assert _TAMPERED[content][1] in captured.err


def test_audit_flags_orphans_of_an_earlier_larger_compile(compiled, corpus, tmp_path, capsys):
    import shutil

    out = tmp_path / "shards"
    shutil.copytree(compiled, out)
    argv = [
        "compile", "--config", str(corpus), "--strategy", "parallel-only",
        "--budget-tokens", str(4 * BLOCK_TOKENS), "--batch-blocks", "4",
        "--seed", "7", "--out", str(out),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(["audit", "--dir", str(out)]) == 1
    captured = capsys.readouterr().out
    assert "orphan files: 8" in captured
    assert "  block_00000004.bin: orphan" in captured
    assert "  block_00000011.bin: orphan" in captured
    assert "audit: FAIL" in captured


def test_audit_flags_blocks_rewritten_by_a_failed_recompile(compiled, corpus, tmp_path, capsys):
    import shutil

    out = tmp_path / "shards"
    shutil.copytree(compiled, out)
    argv = [
        "compile", "--config", str(corpus), "--strategy", "parallel-only",
        "--budget-tokens", str(2000 * BLOCK_TOKENS), "--batch-blocks", "4",
        "--seed", "7", "--labels", "code", "--out", str(out),
    ]
    assert main(argv) == 1  # the corpus runs dry after rewriting blocks
    assert "stream exhausted" in capsys.readouterr().err
    assert main(["audit", "--dir", str(out)]) == 1
    captured = capsys.readouterr().out
    # The old manifest and provenance file survive; the manifest's checksums
    # no longer match the rewritten parallel blocks.
    assert "checksum/size failures: 9" in captured
    assert "  block_00000000.bin: checksum " in captured
    assert "!= manifest" in captured


def test_recompile_that_fails_before_its_first_block_leaves_the_tree(
    compiled, tmp_path, capsys
):
    import shutil

    out = tmp_path / "shards"
    shutil.copytree(compiled, out)
    before = tree_digest(out)
    tiny = write_corpus(
        tmp_path / "tiny", languages=("id",), n_pairs=10, n_docs=2, replay_docs=2, seed=1
    )
    argv = [
        "compile", "--config", str(tiny), "--strategy", "parallel-only",
        "--budget-tokens", str(2000 * BLOCK_TOKENS), "--batch-blocks", "4",
        "--seed", "1", "--labels", "code", "--out", str(out),
    ]
    assert main(argv) == 1
    assert "exhausted at schedule position 0" in capsys.readouterr().err
    assert tree_digest(out) == before
    assert main(["audit", "--dir", str(out)]) == 0


def test_tree_bytes_do_not_depend_on_out_or_config_path(compiled, corpus, tmp_path):
    import shutil

    moved = tmp_path / "moved-corpus"
    shutil.copytree(corpus.parent, moved)
    for config, out in [(corpus, tmp_path / "a"), (moved / corpus.name, tmp_path / "b" / "c")]:
        argv = [
            "compile", "--config", str(config), "--strategy", "parallel-only",
            "--budget-tokens", "3145728", "--batch-blocks", "4", "--seed", "7",
            "--out", str(out),
        ]
        assert main(argv) == 0
        assert tree_digest(out) == tree_digest(compiled)


def test_compile_records_label_style_in_the_manifest(compiled, corpus, tmp_path):
    out = tmp_path / "code"
    argv = [
        "compile", "--config", str(corpus), "--strategy", "parallel-only",
        "--budget-tokens", str(4 * BLOCK_TOKENS), "--batch-blocks", "4",
        "--labels", "code", "--out", str(out),
    ]
    assert main(argv) == 0
    text = (out / "manifest.json").read_text()
    assert json.loads(text)["label_style"] == "code"
    assert CurriculumManifest.from_json(text).label_style == "code"
    assert CurriculumManifest.from_json(text).to_json() == text
    assert json.loads((compiled / "manifest.json").read_text())["label_style"] == "name"


def test_stats_compiled_dir(compiled, capsys):
    assert main(["stats", "--dir", str(compiled)]) == 0
    out = capsys.readouterr().out
    assert "Total blocks: 12" in out


def test_stats_json(compiled, corpus, capsys):
    assert main(["stats", "--dir", str(compiled), "--json"]) == 0
    assert capsys.readouterr().out == (
        '{"by_language": {"-": {"replay": 3}, "id": {"parallel": 9}}, '
        '"total_blocks": 12, "total_tokens": 3145728}\n'
    )
    assert main(["stats", "--config", str(corpus), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tokenizer_id"] == "byte_fallback"
    assert doc["parallel"] == {
        "id": {"en_tokens": 1158796, "records": 18000, "skipped": 0, "tokens": 1158521}
    }
    assert doc["replay"] == {"en_tokens": 0, "records": 520, "skipped": 0, "tokens": 2289941}
    assert sorted(doc["by_source"]) == [
        "mono_id.txt", "pairs_en_id.tsv", "replay_0.jsonl", "replay_1.jsonl"
    ]


def test_compiled_corpus_has_expected_split(compiled):
    from currikit.shards import shard_stats

    stats = shard_stats(compiled)
    assert stats.by_language["id"]["parallel"] == 9
    assert stats.by_language["-"]["replay"] == 3


def test_stats_raw_config(corpus, capsys):
    assert main(["stats", "--config", str(corpus)]) == 0
    out = capsys.readouterr().out
    assert "Parallel data" in out and "Indonesian" in out


def _assert_usage_error(argv, message, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: currikit {argv[0]} ")
    assert f"currikit {argv[0]}: error: {message}" in captured.err


def test_stats_requires_exactly_one_input(tmp_path, capsys):
    _assert_usage_error(["stats"], "one of the arguments --dir --config is required", capsys)
    _assert_usage_error(
        ["stats", "--dir", str(tmp_path), "--config", str(tmp_path / "corpus.json")],
        "argument --config: not allowed with argument --dir", capsys,
    )


def test_aggregate_requires_exactly_one_input(tmp_path, capsys):
    _assert_usage_error(
        ["aggregate"], "one of the arguments --scores --scores-json is required", capsys
    )
    _assert_usage_error(
        ["aggregate", "--scores", "id=1", "--scores-json", str(tmp_path / "scores.json")],
        "argument --scores-json: not allowed with argument --scores", capsys,
    )


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["audit", "--no-such-flag"])
    assert err.value.code == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_missing_corpus_dir_reports_error(tmp_path, capsys):
    assert main(["audit", "--dir", str(tmp_path / "nope")]) == 1
    assert "error:" in capsys.readouterr().err


def test_bleu_subcommand(tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    hyp.write_text("the cat sat on the mat\n", encoding="utf-8")
    ref.write_text("the cat sat on the mat\n", encoding="utf-8")
    assert main(["bleu", "--hypotheses", str(hyp), "--references", str(ref), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["score"] == 100.0


def test_signif_subcommand_deterministic(tmp_path, capsys):
    refs = tmp_path / "refs.txt"
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    lines = [f"reference line {i} with tokens" for i in range(20)]
    refs.write_text("\n".join(lines) + "\n", encoding="utf-8")
    a.write_text("\n".join(lines) + "\n", encoding="utf-8")
    b.write_text("\n".join(f"junk{i} junk{i} junk{i}" for i in range(20)) + "\n", encoding="utf-8")
    argv = [
        "signif",
        "--hypotheses-a", str(a),
        "--hypotheses-b", str(b),
        "--references", str(refs),
        "--n", "1000",
        "--seed", "1",
        "--json",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["p_value"] == pytest.approx(1 / 1001)


def test_successive_calls_share_the_parser_but_not_their_flags(tmp_path, capsys):
    from currikit import cli

    refs, a, b = tmp_path / "refs.txt", tmp_path / "a.txt", tmp_path / "b.txt"
    refs.write_text("".join(f"line {i} of tokens\n" for i in range(10)), encoding="utf-8")
    a.write_text(refs.read_text(encoding="utf-8"), encoding="utf-8")
    b.write_text("".join(f"junk {i}\n" for i in range(10)), encoding="utf-8")
    files = ["--hypotheses-a", str(a), "--hypotheses-b", str(b), "--references", str(refs)]

    assert main(["signif", *files, "--n", "5", "--seed", "3", "--mode", "zh", "--json"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert (first["n_samples"], first["seed"], first["mode"]) == (5, 3, "zh")
    assert main(["bleu", "--hypotheses", str(a), "--references", str(refs)]) == 0
    assert capsys.readouterr().out.startswith("BLEU = 100.00")
    assert main(["signif", *files, "--n", "7", "--json"]) == 0
    again = json.loads(capsys.readouterr().out)
    assert (again["n_samples"], again["seed"], again["mode"]) == (7, 0, "default")
    assert main(["signif", *files, "--n", "7"]) == 0
    assert not capsys.readouterr().out.startswith("{")
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize("n", ["0", "-3", "ten"])
def test_signif_rejects_non_positive_n(n, capsys):
    with pytest.raises(SystemExit) as err:
        main(["signif", "--hypotheses-a", "a.txt", "--hypotheses-b", "b.txt",
              "--references", "r.txt", "--n", n])
    assert err.value.code == 2
    assert "argument --n: expected a positive integer" in capsys.readouterr().err


def test_prompts_subcommand(tmp_path, capsys):
    dev = tmp_path / "dev.tsv"
    test = tmp_path / "test.tsv"
    dev.write_text(
        "".join(f"dev en {i}.\tdev sea {i}.\n" for i in range(6)), encoding="utf-8"
    )
    test.write_text(
        "".join(f"test en {i}.\ttest sea {i}.\n" for i in range(3)), encoding="utf-8"
    )
    out = tmp_path / "prompts.jsonl"
    code = main(
        [
            "prompts",
            "--dev", str(dev),
            "--test", str(test),
            "--source-lang", "en",
            "--target-lang", "th",
            "-k", "5",
            "--out", str(out),
        ]
    )
    assert code == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 3
    assert records[0]["direction"] == "en-th"
    assert records[0]["prompt"].count("English:") == 6
    assert records[0]["prompt"].endswith("Thai:")


# sha256 of prompts.jsonl for the pair files below, per direction, label style and -k.
_PROMPT_PINS = {
    ("en-th", "name", 0): "a88fead50e29b9ffe8f63e0c128437fa8b8bf4084eab3f37a5eb470fe9210c73",
    ("en-th", "name", 5): "59e486b7107a99e3327b298b0960e676b99ff76fabd2d9e50ea3a7f000658a36",
    ("en-th", "code", 0): "b06f2c0d6a3bd24105d8ffb54c73d3ba00432a2c8f02865136bf782436fe66d4",
    ("en-th", "code", 5): "272a38efea8b4ed452dd28336eedc0a834c28d22d8e4c25cc872c61fe01d8246",
    ("th-en", "name", 0): "5c14929763008e156bf9164fa9939bf90ff087595d648f1831a32cfa9d4dbe5e",
    ("th-en", "name", 5): "388b18f7abbb538cdb23bb27395d2eba9acd8716eeb06d6948219107d437b02b",
    ("th-en", "code", 0): "23223d25e49da678ca183f227e92c1d6bae5081657aabf120345cc962ccc24bc",
    ("th-en", "code", 5): "62969944b7fc70e14cc55653925dd9397211b3986e0921e6d96a1cece7cc08e4",
}


@pytest.mark.parametrize("direction, labels, k", sorted(_PROMPT_PINS))
def test_prompts_bytes_are_pinned(tmp_path, capsys, direction, labels, k):
    dev = tmp_path / "dev.tsv"
    test = tmp_path / "test.tsv"
    dev.write_text("".join(f"dev en {i}.\tdev th {i} ภาษาไทย.\n" for i in range(6)),
                   encoding="utf-8")
    test.write_text("test en 0.\ttest th 0.\nbad row\n  test en 2. \t test th 2.  \n",
                    encoding="utf-8")
    source, target = direction.split("-")
    out = tmp_path / "prompts.jsonl"
    assert main(["prompts", "--dev", str(dev), "--test", str(test), "--source-lang", source,
                 "--target-lang", target, "-k", str(k), "--labels", labels,
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _PROMPT_PINS[direction, labels, k]


def test_aggregate_subcommand_inline(capsys):
    argv = ["aggregate", "--scores", "id=24.12,km=26.24,lo=44.09", "--json"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["avg"] == 31.48


def test_aggregate_subcommand_json_file(tmp_path, capsys):
    scores = tmp_path / "scores.json"
    scores.write_text(json.dumps({"id": 1.0, "th": 2.0}), encoding="utf-8")
    assert main(["aggregate", "--scores-json", str(scores)]) == 0
    assert "1.50" in capsys.readouterr().out


@pytest.mark.parametrize(
    "scores, message",
    [
        ("id=abc", "expected code=score, got 'id=abc'"),
        ("id", "expected code=score, got 'id'"),
        ("id=1,id=2", "'id' is scored twice, again in 'id=2'"),
        ("xx=1", "unknown language code 'xx'"),
        ("id=1,th=nan", "score of 'th' is nan, not a finite number"),
    ],
)
def test_aggregate_rejects_bad_inline_scores(scores, message, capsys):
    with pytest.raises(SystemExit) as err:
        main(["aggregate", "--scores", scores])
    assert err.value.code == 2
    assert f"argument --scores: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("batch", ["6", "0", "-4", "eight"])
def test_compile_rejects_bad_batch_blocks_before_reading(batch, tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["compile", "--config", str(tmp_path / "missing.json"), "--strategy", "mixed",
              "--budget-tokens", "1048576", "--batch-blocks", batch,
              "--out", str(tmp_path / "out")])
    assert err.value.code == 2
    assert "argument --batch-blocks: expected a positive multiple of 4" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--budget-tokens", "-5"],
         "argument --budget-tokens: expected a positive integer, got '-5'"),
        (["--budget-tokens", "1000", "--batch-blocks", "4"],
         f"argument --budget-tokens: 1000 is below one batch (4 x {BLOCK_TOKENS} tokens)"),
        (["--budget-tokens", "1048576", "--batch-blocks", "8"],
         f"argument --budget-tokens: 1048576 is below one batch (8 x {BLOCK_TOKENS} tokens)"),
        (["--budget-tokens", "1048576", "--languages", "xx"],
         "argument --languages: unknown language code 'xx'"),
        (["--budget-tokens", "1048576", "--languages", "id,"],
         "argument --languages: unknown language code ''"),
    ],
)
def test_compile_rejects_bad_flags_before_reading(flags, message, tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["compile", "--config", str(tmp_path / "missing.json"), "--strategy", "mixed",
              "--out", str(tmp_path / "out"), *flags])
    assert err.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("strategy", [s.value for s in Strategy if s is not Strategy.MULTILINGUAL])
@pytest.mark.parametrize("languages", ["en", "id,en"])
def test_compile_rejects_english_in_pairs_before_reading(strategy, languages, tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["compile", "--config", str(tmp_path / "missing.json"), "--strategy", strategy,
              "--budget-tokens", "2097152", "--languages", languages,
              "--out", str(tmp_path / "out")])
    assert err.value.code == 2
    assert (
        f"argument --languages: English is implicit in {strategy}; list SEA languages"
        in capsys.readouterr().err
    )
    assert not (tmp_path / "out").exists()


def test_compile_takes_english_for_a_multilingual_compile(tmp_path, capsys):
    # English monolingual blocks are a multilingual schedule; the flags pass
    # and the missing config is the first error.
    code = main(["compile", "--config", str(tmp_path / "missing.json"),
                 "--strategy", "multilingual", "--budget-tokens", "2097152",
                 "--languages", "en", "--out", str(tmp_path / "out")])
    assert code == 1
    assert "No such file or directory" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["-k", "-1"], "argument -k/--shots: expected a non-negative integer, got '-1'"),
        (["--source-lang", "xx"], "argument --source-lang: unknown language code 'xx'"),
        (["--target-lang", "xx"], "argument --target-lang: unknown language code 'xx'"),
        (["--source-lang", "id", "--target-lang", "th"],
         "argument --target-lang: the direction must pair English with a SEA language"),
    ],
)
def test_prompts_rejects_bad_flags_before_reading(flags, message, tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["prompts", "--dev", str(tmp_path / "missing_dev.tsv"),
              "--test", str(tmp_path / "missing_test.tsv"), "--source-lang", "en",
              "--target-lang", "id", "--out", str(tmp_path / "prompts.jsonl"), *flags])
    assert err.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "prompts.jsonl").exists()


def test_compile_all_strategies_rejects_bad_batch_blocks(tmp_path, capsys):
    script = _script("compile_all_strategies")
    not_a_vocab = tmp_path / "not.vocab"
    not_a_vocab.write_text("name x\n", encoding="utf-8")
    for flags, message in [
        (["--batch-blocks", "6"], "argument --batch-blocks: expected a positive multiple of 4"),
        (["--blocks", "0"], "argument --blocks: expected a positive integer, got '0'"),
        (["--blocks", "2", "--batch-blocks", "4"], "--blocks 2 is below one batch of 4 blocks"),
        (["--tokenizer", "missing.vocab"],
         "argument --tokenizer: unknown tokenizer: 'missing.vocab' (not a name or file)"),
        (["--tokenizer", str(not_a_vocab)],
         f"argument --tokenizer: {not_a_vocab}: missing 'bpe-vocab-v1' header"),
    ]:
        with pytest.raises(SystemExit) as err:
            script.main(["--config", str(tmp_path / "missing.json"),
                         "--out", str(tmp_path / "out"), *flags])
        assert err.value.code == 2, flags
        assert message in capsys.readouterr().err, flags
        assert not (tmp_path / "out").exists()


def test_compile_all_strategies_reports_a_shortfall_as_skipped(tmp_path, capsys, monkeypatch):
    """A corpus too small for every strategy: each one is reported as
    skipped, the replacement text's shortfall too, with the vocabulary given."""
    _script("make_synthetic_corpus").main(
        ["--root", str(tmp_path / "corpus"), "--languages", "id", "--pairs", "3000",
         "--docs", "2"])
    vocab = tmp_path / "ascii.vocab"
    pieces = [chr(c) for c in range(32, 127)] + ["\n"]
    vocab.write_text(
        "bpe-vocab-v1\nname ascii\neot 0\n"
        + "".join(f"token {i} {json.dumps(p)}\n" for i, p in enumerate(pieces, start=1)),
        encoding="utf-8",
    )
    script = _script("compile_all_strategies")
    tokenizers = []

    def compile_corpus(**kwargs):
        tokenizers.append(kwargs["tokenizer_ref"])
        return pipeline.compile_corpus(**kwargs)

    monkeypatch.setattr(script, "compile_corpus", compile_corpus)
    capsys.readouterr()
    script.main(["--config", str(tmp_path / "corpus" / "corpus.json"),
                 "--out", str(tmp_path / "runs"), "--blocks", "4", "--batch-blocks", "4",
                 "--tokenizer", str(vocab)])
    out = capsys.readouterr().out
    assert tokenizers == [str(vocab)] * 6
    assert out.count("\nskipped: ") == 6
    assert "\n=== multilingual-replacement ===\n" \
        "skipped: replacement text for id exhausted after 80 pairs\n" in out


def _script(name):
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_make_synthetic_corpus_rejects_bad_flags(tmp_path, capsys):
    script = _script("make_synthetic_corpus")
    root = tmp_path / "corpus"
    for flags, message in [
        (["--languages", "xx"], "argument --languages: unknown language code 'xx'"),
        (["--languages", "en"], "argument --languages: English is implicit; list SEA languages"),
        (["--languages", "id,th,id"], "a language is listed twice in 'id,th,id'"),
        (["--pairs", "-1"], "argument --pairs: expected a non-negative integer, got '-1'"),
        (["--replay-files", "0"], "argument --replay-files: expected a positive integer, got '0'"),
        (["--replay-docs", "0"], "argument --replay-docs: expected a positive integer, got '0'"),
        (["--docs", "0"], "--docs 0 leaves the replay files empty; give --replay-docs"),
        (["--sentences-per-doc", "0"], "argument --sentences-per-doc: expected a positive integer"),
    ]:
        with pytest.raises(SystemExit) as err:
            script.main(["--root", str(root), *flags])
        assert err.value.code == 2, flags
        assert message in capsys.readouterr().err, flags
        assert not root.exists()
    flags = ["--languages", "th,id", "--pairs", "5", "--docs", "0", "--replay-docs", "3"]
    script.main(["--root", str(root), *flags])
    sources = load_corpus_config(root / "corpus.json")
    assert sorted((s.kind, s.language or "") for s in sources) == [
        ("parallel", "id"), ("parallel", "th"), ("replay", ""), ("replay", ""),
    ]


def test_compile_rejects_vocab_id_outside_uint32(corpus, tmp_path, capsys):
    vocab = tmp_path / "negative.vocab"
    vocab.write_text('bpe-vocab-v1\neot 1\ntoken -1 "a"\n', encoding="utf-8")
    code = main([
        "compile", "--config", str(corpus), "--strategy", "parallel-only",
        "--budget-tokens", "1048576", "--batch-blocks", "4",
        "--tokenizer", str(vocab), "--out", str(tmp_path / "out"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "token id -1" in err
    assert err.count("\n") == 1


@pytest.fixture(scope="module")
def partial_corpus(tmp_path_factory):
    """``id`` has every source kind; ``th`` has parallel text only."""
    root = tmp_path_factory.mktemp("partial")
    config = write_corpus(
        root, languages=("id", "th"), n_pairs=40, n_docs=4, sentences_per_doc=4, seed=3
    )
    sources = json.loads(config.read_text())["sources"]
    return [{**s, "path": str(root / s["path"])} for s in sources if s["path"] != "mono_th.txt"]


@pytest.mark.parametrize(
    "strategy, languages, dropped, wanted",
    [
        ("mixed", [], "monolingual", "no language has the source kinds required by mixed"),
        ("mixed", ["--languages", "id,th"], None, "monolingual"),
        ("multilingual-replacement", ["--languages", "id,th"], None, "monolingual"),
    ],
)
def test_compile_reports_missing_source_kind(
    partial_corpus, tmp_path, capsys, strategy, languages, dropped, wanted
):
    config = tmp_path / "corpus.json"
    sources = [s for s in partial_corpus if s["kind"] != dropped]
    config.write_text(json.dumps({"sources": sources}), encoding="utf-8")
    code = main([
        "compile", "--config", str(config), "--strategy", strategy,
        "--budget-tokens", "1048576", "--batch-blocks", "4", "--out", str(tmp_path / "out"),
        *languages,
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert wanted in err
    if languages:
        assert " th" in err


@pytest.mark.parametrize("where", ["pair", "replay document"])
@pytest.mark.parametrize("bad", ["é", ""])
def test_compile_reports_the_first_uncovered_character(tmp_path, capsys, where, bad):
    """A character no piece covers, or the one the runs are joined by (the
    first private-use code point no piece holds), fails the compile with
    the line that record alone raises. Streams are packed in schedule order
    and the corpus is too small for any to finish, so the seed puts the
    failing record's stream first."""
    config = write_corpus(
        tmp_path, languages=("id",), n_pairs=40, n_docs=4, sentences_per_doc=4, seed=3
    )
    if where == "pair":
        path = tmp_path / "pairs_en_id.tsv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        en, sea = lines[5].rstrip("\n").split("\t")
        lines[5] = f"{en}\t{sea[:7]}{bad}{sea[7:]}\n"
        texts = [f"English: {en}\nIndonesian: {sea[:7]}{bad}", f"Indonesian: {sea[:7]}{bad}"]
        seed = "0"  # parallel:id first
    else:
        path = tmp_path / "replay_0.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        text = json.loads(lines[2])["text"]
        lines[2] = json.dumps({"text": text[:11] + bad + text[11:]}) + "\n"
        texts = [text[:11] + bad]
        seed = "4"  # replay first
    path.write_text("".join(lines), encoding="utf-8")
    corpus_texts = [
        (tmp_path / name).read_text(encoding="utf-8") for name in ("pairs_en_id.tsv", "mono_id.txt")
    ] + [
        json.loads(line)["text"]
        for name in ("replay_0.jsonl", "replay_1.jsonl")
        for line in (tmp_path / name).read_text(encoding="utf-8").splitlines()
    ]
    chars = set("".join(corpus_texts) + "English: Indonesian:\n") - {bad, "\t"}
    vocab = tmp_path / "cover.vocab"
    vocab.write_text(
        "bpe-vocab-v1\nname cover\neot 0\n"
        + "".join(f"token {i} {json.dumps(c)}\n" for i, c in enumerate(sorted(chars), start=1)),
        encoding="utf-8",
    )
    code = main([
        "compile", "--config", str(config), "--strategy", "parallel-only",
        "--budget-tokens", str(4 * BLOCK_TOKENS), "--batch-blocks", "4", "--seed", seed,
        "--tokenizer", str(vocab), "--out", str(tmp_path / "out"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err in {
        f"error: no token covers {bad!r} at position {len(t) - 1} (tokenizer 'cover')\n"
        for t in texts
    }


@pytest.mark.parametrize(
    "content, wanted",
    [
        ("{not json", "Expecting property name"),
        ("{}", 'want {"sources": [...]}'),
        ("[]", 'want {"sources": [...]}'),
        ('{"sources": 5}', 'want {"sources": [...]}'),
        ('{"sources": [5]}', "source 0 needs"),
        ('{"sources": [{"kind": "replay"}]}', "source 0 needs"),
        ('{"sources": [{"path": "a.txt", "kind": "replay"}, {"path": "b.txt"}]}',
         "source 1 needs"),
        ('{"sources": [{"path": 5, "kind": "replay"}]}', "source 0 needs"),
        ('{"sources": [{"path": "a.txt", "kind": "monolingual", "language": ["id"]}]}',
         "source 0 needs"),
        ('{"sources": [{"path": "a.txt", "kind": "mystery"}]}',
         "source 0: unknown source kind 'mystery'"),
    ],
)
@pytest.mark.parametrize("command", ["compile", "stats"])
def test_malformed_corpus_config_is_one_error_line(tmp_path, capsys, command, content, wanted):
    config = tmp_path / "corpus.json"
    config.write_text(content, encoding="utf-8")
    if command == "compile":
        argv = ["compile", "--config", str(config), "--strategy", "mixed",
                "--budget-tokens", "1048576", "--batch-blocks", "4", "--out", str(tmp_path / "out")]
    else:
        argv = ["stats", "--config", str(config)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {config}: ") and captured.err.count("\n") == 1
    assert wanted in captured.err


@pytest.mark.parametrize(
    "content, wanted",
    [
        ('[["id", 1.0]]', "not a JSON object mapping codes to scores"),
        ('"id=1.0"', "not a JSON object mapping codes to scores"),
        ('{"id": 1.0, "th": null}', "score of 'th' is null, not a number"),
        ('{"id": [1.0]}', "score of 'id' is [1.0], not a number"),
        ('{"id": "1.0"}', "score of 'id' is \"1.0\", not a number"),
        ('{"id": true}', "score of 'id' is true, not a number"),
    ],
)
def test_aggregate_rejects_bad_scores_json(tmp_path, capsys, content, wanted):
    scores = tmp_path / "scores.json"
    scores.write_text(content, encoding="utf-8")
    assert main(["aggregate", "--scores-json", str(scores)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {scores}: {wanted}\n"


def test_bleu_and_signif_json_bytes(tmp_path, capsys):
    hyp, other, ref = tmp_path / "hyp.txt", tmp_path / "other.txt", tmp_path / "ref.txt"
    hyp.write_text("the cat sat on the mat .\na quick brown fox jumps\nhello world again\n",
                   encoding="utf-8")
    other.write_text("the cat sat on mat .\nthe quick fox jumps\nhello world again\n",
                     encoding="utf-8")
    ref.write_text("the cat sat on a mat .\nthe quick brown fox jumped\nhello there world again\n",
                   encoding="utf-8")
    assert main(["bleu", "--hypotheses", str(hyp), "--references", str(ref), "--json"]) == 0
    assert capsys.readouterr().out == (
        '{"brevity_penalty": 0.9355069850316178, "case_sensitive": true, "hyp_len": 15, '
        '"mode": "default", "precisions": [0.8, 0.5833333333333334, 0.3333333333333333, '
        '0.16666666666666666], "ref_len": 16, "score": 37.53881884790789}\n'
    )
    assert main(["signif", "--hypotheses-a", str(hyp), "--hypotheses-b", str(other),
                 "--references", str(ref), "--n", "50", "--seed", "3", "--json"]) == 0
    assert capsys.readouterr().out == (
        '{"delta": 2.1314648026774634, "mode": "default", "n_samples": 50, '
        '"p_value": 0.5882352941176471, "score_a": 37.53881884790789, '
        '"score_b": 35.40735404523043, "seed": 3}\n'
    )
