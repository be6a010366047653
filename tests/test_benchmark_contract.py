"""What the benchmark in ``perfbench/`` uses of the package.

The benchmark's own tests are not part of this suite, so a refactor that
drops a function the tracer wraps, a field a workload reads or an argument
the tracer passes would first show in a benchmark run. These tests make it
fail here.
"""

import importlib
import json
import re
import threading
from pathlib import Path

import pytest

import currikit
from currikit.corpus import SEA_CODES, ReadCounter, read_monolingual, read_parallel
from currikit.schedule import build_schedule

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PACKAGE = Path(currikit.__file__).resolve().parent


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans"), importlib.import_module("workloads")


def test_tracer_finds_every_target(perfbench):
    spans, _ = perfbench
    tracer = spans.Tracer()
    try:
        assert tracer.install() == []
    finally:
        tracer.uninstall()


def test_tracer_only_imports_are_still_traced(perfbench):
    """A name the package imports only so that the tracer can wrap it there
    goes once the tracer no longer looks it up."""
    spans, _ = perfbench
    targets = {(module, name) for module, name, _ in spans.FUNCTION_TARGETS}
    kept = [
        (f"currikit.{path.stem}", name)
        for path in sorted(PACKAGE.glob("*.py"))
        for name in re.findall(
            r"^from \.\w+ import (\w+)  # noqa: F401  the benchmark's tracer looks",
            path.read_text(encoding="utf-8"), re.MULTILINE,
        )
    ]
    for module, name in kept:
        assert (module, name) in targets, f"{module}.{name} is traced no more: drop its import"


def test_kind_digest_matches_the_pinned_paper_schedule(perfbench):
    _, workloads = perfbench
    pins = json.loads((PERFBENCH / "pins.json").read_text(encoding="utf-8"))
    manifest = build_schedule("parallel-first", workloads.PAPER_TOKENS, SEA_CODES, 8, 0)
    assert workloads.kind_digest(manifest) == pins["schedule-paper"]["0"][
        "parallel-first:8:kinds_sha256"
    ]


def test_readers_fill_a_positional_counter(tmp_path):
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("a\tb\nbad row\nc\td\n", encoding="utf-8")
    docs = tmp_path / "docs.jsonl"
    docs.write_text('{"text": "x"}\n{}\n{"text": "y"}\n{"text": "z"}\n', encoding="utf-8")
    for reader, path, want in [
        (read_parallel, pairs, (3, 2, 1)),
        (read_monolingual, docs, (4, 3, 1)),
    ]:
        counter = ReadCounter()
        list(reader(path, "id", counter))
        assert (counter.records, counter.emitted, counter.skipped) == want, reader.__name__


def test_tracer_counts_the_pack_reports_of_a_compile(perfbench, tmp_path):
    """The tracer reads ``CompileResult.reports`` through a default, so a
    compile that stopped returning them would count 0 tokens, not fail."""
    from currikit import cli
    from currikit.synthetic import write_corpus

    spans, _ = perfbench
    config = write_corpus(tmp_path / "corpus", languages=("id",), n_pairs=6000, seed=1)
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = cli.main(["compile", "--config", str(config), "--strategy", "parallel-only",
                         "--budget-tokens", "1048576", "--batch-blocks", "4",
                         "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.counters["packing.tokens_in"] > 0
    assert tracer.counters["packing.placed_tokens"] > 0


def test_a_traced_compile_opens_every_span_on_the_calling_thread(
    perfbench, tmp_path, monkeypatch
):
    """The tracer keeps one span stack for the process, so the compile's
    writer thread must call no function it wraps; the packer no longer
    hashes blocks, so no ``packing.checksum`` span is opened."""
    from currikit import cli
    from currikit.synthetic import write_corpus

    spans, _ = perfbench
    threads = []
    begin = spans.Tracer.begin

    def recording_begin(self, name):
        threads.append(threading.current_thread())
        return begin(self, name)

    monkeypatch.setattr(spans.Tracer, "begin", recording_begin)
    config = write_corpus(tmp_path / "corpus", languages=("id",), n_pairs=6000, seed=1)
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = cli.main(["compile", "--config", str(config), "--strategy", "parallel-only",
                         "--budget-tokens", "1048576", "--batch-blocks", "4",
                         "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert set(threads) == {threading.current_thread()}
    assert "shards.write" in tracer.names
    assert "packing.checksum" not in tracer.names


@pytest.mark.parametrize("workload", ["compile-mixed-bytes", "compile-replacement-bpe"])
def test_compile_workload_matches_its_pinned_blocks(perfbench, tmp_path, workload):
    """Seed 0 of each compile workload, with the benchmark's own inputs,
    argv and check: a change to the token stream fails here before the
    benchmark reports its outputs incorrect."""
    _, workloads = perfbench
    pins = json.loads((PERFBENCH / "pins.json").read_text(encoding="utf-8"))
    spec = workloads.WORKLOADS[workload]
    spec.build_inputs(tmp_path / "inputs", 0)
    ctx = workloads.Context(
        seed=0, inputs=tmp_path / "inputs", work=tmp_path / "work",
        refs=workloads.References(pins[workload]["0"]),
    )
    compile_op = spec.make_ops(ctx)[0]
    compile_op.prepare()
    state = {}
    compile_op.check(state, compile_op.run(state))
    assert state["compiled"]
