"""Tests for the benchmark harness itself (not for currikit).

Run with ``python -m pytest perfbench/tests``.
"""

import json

import pytest

import inputs
import run
import spans
import workloads
from currikit.corpus import ReadCounter, read_monolingual, read_parallel
from currikit.synthetic import write_corpus
from currikit.tokenizer import count_tokens, load_vocab

SMALL_CORPUS = dict(n_pairs=300, n_docs=8, sentences_per_doc=10, replay_files=2, replay_docs=8)


def tree_bytes(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


# -- generators ------------------------------------------------------------------


@pytest.mark.parametrize(
    "build, sizes",
    [
        (inputs.write_mixed_inputs, "MIXED_CORPUS"),
        (inputs.write_replacement_inputs, "REPLACEMENT_CORPUS"),
        (inputs.write_score_inputs, None),
    ],
)
def test_generators_are_deterministic_per_seed_and_differ_across_seeds(
    tmp_path, monkeypatch, build, sizes
):
    if sizes:
        monkeypatch.setattr(inputs, sizes, SMALL_CORPUS)
    monkeypatch.setattr(inputs, "SCORE_SENTENCES", 40)
    trees = {}
    for label, seed in (("a", 3), ("b", 3), ("c", 4)):
        (tmp_path / label).mkdir()
        build(tmp_path / label, seed)
        trees[label] = tree_bytes(tmp_path / label)
    assert trees["a"] == trees["b"]
    assert trees["a"].keys() == trees["c"].keys()
    assert trees["a"] != trees["c"]


def test_malformed_rows_are_counted_as_skipped(tmp_path):
    config = write_corpus(tmp_path, languages=("id",), seed=1, **SMALL_CORPUS)
    tsv = config.parent / "pairs_en_id.tsv"
    jsonl = config.parent / "replay_0.jsonl"
    injected_tsv = inputs.inject_malformed(tsv, 1, 0.05)
    injected_jsonl = inputs.inject_malformed(jsonl, 1, 0.25)
    tsv_counter, jsonl_counter = ReadCounter(), ReadCounter()
    pairs = list(read_parallel(tsv, "id", tsv_counter))
    docs = list(read_monolingual(jsonl, "en", jsonl_counter))
    assert tsv_counter.skipped == injected_tsv > 1
    assert len(pairs) == SMALL_CORPUS["n_pairs"]
    assert jsonl_counter.skipped == injected_jsonl >= 1
    assert len(docs) == SMALL_CORPUS["replay_docs"]


def test_vocab_covers_every_character_of_the_corpus(tmp_path, monkeypatch):
    monkeypatch.setattr(inputs, "REPLACEMENT_CORPUS", SMALL_CORPUS)
    inputs.write_replacement_inputs(tmp_path, 5)
    spec = load_vocab(tmp_path / "vocab.txt")
    assert len(spec.pieces) == inputs.VOCAB_PIECES + 1  # plus the end-of-text marker
    for path in sorted((tmp_path / "corpus").iterdir()):
        for line in path.read_text(encoding="utf-8").splitlines():
            for side in line.split("\t"):
                count_tokens(f"Indonesian: {side}\nEnglish: {side}", spec)


# -- output checks -----------------------------------------------------------------


def _context(tmp_path, seed, input_dir, pinned=None):
    work = tmp_path / "work"
    work.mkdir(exist_ok=True)
    return workloads.Context(seed, input_dir, work, workloads.References(pinned))


@pytest.fixture(scope="module")
def small_compile(tmp_path_factory):
    """A 4-block parallel-only compile plus its observed references."""
    root = tmp_path_factory.mktemp("compile")
    write_corpus(root / "inputs" / "corpus", languages=inputs.CORPUS_LANGUAGES, seed=2,
                 n_pairs=5000, n_docs=4, sentences_per_doc=10, replay_files=2, replay_docs=300)
    ctx = _context(root, 2, root / "inputs")
    ops = workloads._compile_ops(ctx, "parallel-only", blocks=4, batch=4,
                                 tokenizer="byte_fallback")
    cycle = run.run_cycle(ops)
    assert not cycle.failures
    return root, ctx.refs.observed


def test_compile_check_rejects_one_changed_byte_in_one_block(small_compile):
    root, observed = small_compile
    ctx = _context(root, 2, root / "inputs", pinned=observed)
    ops = workloads._compile_ops(ctx, "parallel-only", blocks=4, batch=4,
                                 tokenizer="byte_fallback")
    compile_op, audit_op = ops
    state = {}
    compile_op.prepare()
    result = compile_op.run(state)
    compile_op.check(state, result)  # untouched output passes

    block = ctx.work / "out" / "block_00000002.bin"
    data = bytearray(block.read_bytes())
    data[1000] ^= 0x01
    block.write_bytes(bytes(data))
    with pytest.raises(workloads.CheckError, match="blocks_sha256"):
        compile_op.check(state, result)
    with pytest.raises(workloads.CheckError, match="audit exited with 1"):
        audit_op.check(state, audit_op.run(state))


def test_score_check_rejects_a_changed_p_value(tmp_path, monkeypatch):
    monkeypatch.setattr(inputs, "SCORE_SENTENCES", 60)
    monkeypatch.setattr(workloads, "SIGNIF_SAMPLES", 50)
    inputs.write_score_inputs(tmp_path, 7)
    ctx = _context(tmp_path, 7, tmp_path)
    assert not run.run_cycle(workloads.score_ops(ctx)).failures

    pinned = dict(ctx.refs.observed)
    assert run.run_cycle(workloads.score_ops(_context(tmp_path, 7, tmp_path, pinned))).failures == []
    pinned["signif:id:p_value"] += 1e-12
    cycle = run.run_cycle(workloads.score_ops(_context(tmp_path, 7, tmp_path, pinned)))
    assert len(cycle.failures) == 1
    assert cycle.failures[0].startswith("signif:id: CheckError: signif:id:p_value")


def test_references_without_pins_require_repeatable_outputs():
    refs = workloads.References(None)
    refs.expect("digest", "abc")
    refs.expect("digest", "abc")
    with pytest.raises(workloads.CheckError):
        refs.expect("digest", "abd")


# -- failure accounting --------------------------------------------------------------


def _fail_check(state, result):
    raise workloads.CheckError("wrong output")


def _raise(state):
    raise RuntimeError("boom")


FAKE_OPS = [
    workloads.Op("ok", {"primary": 10}, lambda state: 1, lambda state, result: None),
    workloads.Op("raises", {"primary": 10}, _raise, lambda state, result: None),
    workloads.Op("wrong", {"secondary": 5}, lambda state: 2, _fail_check),
    workloads.Op("ok2", {"secondary": 5}, lambda state: 3, lambda state, result: None),
]


def test_failed_operations_are_counted_and_do_not_abort_the_cycle():
    cycle = run.run_cycle(FAKE_OPS)
    assert cycle.attempted == 4
    assert [f.split(":")[0] for f in cycle.failures] == ["raises", "wrong"]
    assert cycle.units == {"primary": 10, "secondary": 5}


def test_op_times_are_scaled_by_the_reference_speed(monkeypatch):
    # A reference that runs at half its nominal speed halves the scaled times.
    monkeypatch.setattr(run, "reference_s", lambda chunks: 2 * chunks * run.REFERENCE_CHUNK_S)
    cycle = run.run_cycle(FAKE_OPS, reference={"ok": 3, "ok2": 1})
    assert cycle.times["primary"] == pytest.approx(cycle.elapsed["ok"] / 2)
    assert cycle.times["secondary"] == pytest.approx(cycle.elapsed["ok2"] / 2)
    unscaled = run.run_cycle(FAKE_OPS)
    assert unscaled.times["primary"] == unscaled.elapsed["ok"]


def test_reference_brackets_follow_the_warm_up_time():
    warm = run.Cycle(traced=False, elapsed={"short": 0.001, "mid": 0.8, "long": 60.0})
    chunks = run.reference_chunks(warm)
    assert chunks == {"short": 1, "mid": 5, "long": run.REFERENCE_MAX_CHUNKS}


def test_failed_operations_reach_the_result_and_the_run_completes(monkeypatch):
    fake = workloads.Workload("fake", None, lambda ctx: FAKE_OPS)
    monkeypatch.setitem(workloads.WORKLOADS, "fake", fake)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    result = run.run_workload("fake", seed=0, seconds=0.0, trace=False)
    # One warm-up cycle and one measured cycle, two failures in each.
    assert result["attempted"] == 8
    assert result["failed"] == 4
    assert result["correct"] is False
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)


# -- tracing ---------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_overlapping_children():
    base = 100
    tree = [
        ("a", 0.0, 10.0, spans.ROOT),
        ("b", 1.0, 4.0, base + 0),  # overlaps c on [3, 4]
        ("c", 3.0, 6.0, base + 0),
        ("d", 5.0, 5.5, base + 2),
        ("e", 8.0, 12.0, base + 0),  # runs past its parent's end
        ("f", 20.0, 21.0, 7),  # parent recorded before this slice
    ]
    # a is covered by [1, 6] and [8, 10]: 7 of its 10 seconds.
    assert spans.self_times(tree, base) == pytest.approx([3.0, 3.0, 2.5, 0.5, 4.0, 1.0])
    assert spans.root_time(tree, base) == pytest.approx(11.0)
    totals = spans.totals_by_name(tree + [("b", 30.0, 31.0, spans.ROOT)], base)
    assert totals["b"] == (pytest.approx(4.0), 2)


def test_tracer_records_nested_spans_and_restores_the_package(tmp_path):
    import currikit.cli
    import currikit.evaluate

    originals = (currikit.cli.main, currikit.evaluate.tokenize)
    (tmp_path / "ref.txt").write_text("a b c d e .\nf g h i j .\n", encoding="utf-8")
    tracer = spans.Tracer()
    missing = tracer.install()
    try:
        code, out = workloads.cli(["bleu", "--hypotheses", str(tmp_path / "ref.txt"),
                                   "--references", str(tmp_path / "ref.txt"), "--json"])
    finally:
        tracer.uninstall()
    assert missing == []
    assert code == 0 and json.loads(out)["score"] == 100.0
    assert (currikit.cli.main, currikit.evaluate.tokenize) == originals
    recorded = tracer.spans()
    names = [name for name, *_ in recorded]
    assert names[:2] == ["cli", "evaluate.bleu"]
    assert names.count("evaluate.tokenize") == 4
    for name, start, end, parent in recorded:
        assert start <= end
        if name == "evaluate.tokenize":
            assert recorded[parent][0] == "evaluate.bleu"


def test_traced_generators_record_one_span_per_next(tmp_path):
    import currikit.pipeline

    path = tmp_path / "pairs.tsv"
    path.write_text("a\tb\nbad row\nc\td\n", encoding="utf-8")
    tracer = spans.Tracer()
    tracer.install()
    try:
        pairs = list(currikit.pipeline.read_parallel(path, "id"))
    finally:
        tracer.uninstall()
    assert len(pairs) == 2
    # One span for the call, then one per next(): two records and the stop.
    assert [name for name, *_ in tracer.spans()] == ["corpus.read"] * 4
    assert [(c.records, c.skipped) for c in tracer.read_counters] == [(3, 1)]
