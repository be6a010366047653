"""Packing ``bpe_file`` streams in forked workers.

``compile_corpus`` splits the kind keys among ``min(CPUs, keys)`` hosts;
the tests set the CPU count through ``shards._available_cpus``, and
``fork`` works on one CPU too. Whatever the host count, a compile writes
the same tree and logs the same records; a failed one raises the error of
its lowest failing position after writing the same blocks. No worker
outlives ``compile_corpus`` and no pipe stays open.
"""

import importlib
import inspect
import json
import logging
import os
import pickle
import pkgutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import currikit
from currikit import cli, pipeline, shards
from currikit.packing import BLOCK_TOKENS
from currikit.pipeline import CompileError, compile_corpus
from currikit.schedule import Strategy
from currikit.synthetic import write_corpus
from helpers import tree_digest
from test_pair_loop import write_dirty_pairs

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked")

SRC = str(Path(pipeline.__file__).resolve().parent.parent)


def _write_vocab(path, corpus_dir):
    """A ``bpe_file`` vocabulary covering every character the corpus files
    and the pair labels hold, with some longer pieces."""
    chars = set("EnglishIndonesianThai: \n")
    for file in corpus_dir.iterdir():
        text = file.read_text(encoding="utf-8")
        chars.update(text)
        if file.suffix == ".jsonl":
            for line in text.splitlines():
                try:
                    chars.update("".join(map(str, json.loads(line).values())))
                except (ValueError, AttributeError):
                    pass
    pieces = sorted(chars) + ["English: ", "Indonesian: ", "Thai: ", "pasar ", "talat "]
    lines = ["bpe-vocab-v1", "name hosts", "eot 0"]
    lines += [f"token {i} {json.dumps(p)}" for i, p in enumerate(pieces, start=1)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def dirty(tmp_path_factory):
    """A corpus whose pair files and Indonesian document file each hold many
    more than ``MAX_ROW_WARNINGS`` malformed rows, the Thai pairs too few for
    a 12-block ``parallel-only`` compile, and a vocabulary covering it."""
    root = tmp_path_factory.mktemp("hosts")
    corpus_dir = root / "corpus"
    config = write_corpus(corpus_dir, languages=("id", "th"), n_pairs=0, n_docs=300,
                          sentences_per_doc=40, replay_docs=160, seed=4)
    doc = json.loads(config.read_text(encoding="utf-8"))
    texts = (corpus_dir / "mono_id.txt").read_text(encoding="utf-8").split("\n\n")
    (corpus_dir / "mono_id.txt").unlink()
    (corpus_dir / "mono_id.jsonl").write_text(
        "".join(("{oops\n" if i % 7 == 3 else "") + json.dumps({"text": text}) + "\n"
                for i, text in enumerate(texts)),
        encoding="utf-8",
    )
    for source in doc["sources"]:
        if source["path"] == "mono_id.txt":
            source["path"] = "mono_id.jsonl"
    for code, rows in (("id", 32000), ("th", 14000)):
        for suffix, offset in ((".tsv", 0), (".jsonl", 3)):
            name = f"pairs_{code}{suffix}"
            write_dirty_pairs(corpus_dir / name, code, rows // 2, offset)
            doc["sources"].append({"path": name, "kind": "parallel", "language": code})
    config.write_text(json.dumps(doc), encoding="utf-8")
    _write_vocab(root / "hosts.vocab", corpus_dir)
    return config, str(root / "hosts.vocab")


@pytest.fixture(scope="module", params=["parallel:th", "parallel:id"])
def dry(request, dirty):
    """A config for which a 12-block ``parallel-only`` compile at seed 5 runs
    the ``param`` stream dry: the Thai pairs on a worker, or, without
    ``pairs_id.tsv``, the Indonesian pairs on host 0, which build the block
    that runs dry ahead, while they wait for a replay block."""
    config, vocab = dirty
    if request.param == "parallel:th":
        return config, vocab, request.param
    doc = json.loads(config.read_text(encoding="utf-8"))
    doc["sources"] = [s for s in doc["sources"] if s["path"] != "pairs_id.tsv"]
    short = config.with_name("short_id.json")
    short.write_text(json.dumps(doc), encoding="utf-8")
    return short, vocab, request.param


def _open_fds():
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else []


def _assert_no_worker_left(fds):
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == fds


def _compile(monkeypatch, caplog, hosts, config, strategy, blocks, out, vocab):
    """The error, the tree digest and the log records of one compile."""
    monkeypatch.setattr(shards, "_available_cpus", lambda: hosts)
    caplog.clear()
    fds = _open_fds()
    with caplog.at_level(logging.WARNING, logger="currikit.corpus"):
        try:
            compile_corpus(config, strategy, blocks * BLOCK_TOKENS, 4, seed=5, out_dir=out,
                           tokenizer_ref=vocab)
            error = None
        except CompileError as exc:
            error = str(exc)
    _assert_no_worker_left(fds)
    records = [(r.name, r.levelno, r.getMessage()) for r in caplog.records]
    return error, tree_digest(out, "block_*.bin"), tree_digest(out), records


def test_keys_are_split_by_block_count():
    counts = {"replay": 1, "replacement:id": 2, "replacement:th": 1}
    assert pipeline._split_keys(counts, 1) == [["replacement:id", "replay", "replacement:th"]]
    assert pipeline._split_keys(counts, 2) == [["replacement:id"], ["replay", "replacement:th"]]
    assert pipeline._split_keys(counts, 3) == [["replacement:id"], ["replay"], ["replacement:th"]]
    counts = {"a": 5, "b": 4, "c": 3, "d": 3, "e": 1}
    assert pipeline._split_keys(counts, 2) == [["a", "d"], ["b", "c", "e"]]


@pytest.mark.parametrize("strategy", [s.value for s in Strategy])
def test_every_host_count_compiles_the_same_tree_and_log(
    dirty, tmp_path, monkeypatch, caplog, strategy
):
    """The tree and every log record, the row totals that closing each
    stream logs included, are those of the one-process compile."""
    config, vocab = dirty
    outcomes = {
        hosts: _compile(monkeypatch, caplog, hosts, config, strategy, 4, tmp_path / str(hosts),
                        vocab)
        for hosts in (1, 2, 3, 8)
    }
    error, _, _, records = outcomes[1]
    assert error is None
    assert any("skipped" in message and "malformed rows" in message
               for _, _, message in records)
    for hosts, outcome in outcomes.items():
        assert outcome == outcomes[1], hosts


def test_a_stream_that_runs_dry_fails_as_in_one_process(dry, tmp_path, monkeypatch, caplog):
    """The error and the blocks written before it are those of the
    one-process compile."""
    config, vocab, key = dry
    one = _compile(monkeypatch, caplog, 1, config, "parallel-only", 12, tmp_path / "one", vocab)
    for hosts in (2, 3):
        outcome = _compile(monkeypatch, caplog, hosts, config, "parallel-only", 12,
                           tmp_path / str(hosts), vocab)
        assert outcome[:2] == one[:2], hosts
    assert one[0].startswith(f"{key} stream exhausted")


def test_a_failed_compile_logs_the_same_lines_on_every_run(dry, tmp_path):
    """Streams abandoned with a block built ahead have read one block further
    than in one process, but the log of a failed compile is the same on
    every run, and ends with the one-process compile's ``error:`` line."""
    config, vocab, key = dry

    def run(hosts, out):
        argv = ["compile", "--config", str(config), "--strategy", "parallel-only",
                "--budget-tokens", str(12 * BLOCK_TOKENS), "--batch-blocks", "4",
                "--seed", "5", "--tokenizer", vocab, "--out", str(tmp_path / out)]
        result = subprocess.run(
            [sys.executable, "-I", "-c",
             f"import sys; sys.path.insert(0, {SRC!r}); from currikit import cli, shards; "
             f"shards._available_cpus = lambda: {hosts}; sys.exit(cli.main({argv!r}))"],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 1
        return result.stderr

    one = run(1, "one")
    runs = [run(3, f"three{i}") for i in range(3)]
    assert runs[0] == runs[1] == runs[2]
    assert runs[0].splitlines()[-1] == one.splitlines()[-1]
    assert runs[0].splitlines()[-1].startswith(f"error: {key} stream exhausted")
    assert any(line.endswith("malformed rows, the first 5 logged")
               for line in runs[0].splitlines()[:-1])


def _in_workers_only(packer, action):
    """``packer`` whose streams call ``action`` before each block they
    build in a process other than this one."""
    parent = os.getpid()

    def wrapped(*args, **kwargs):
        def blocks():
            for block in packer(*args, **kwargs):
                if os.getpid() != parent:
                    action()
                yield block

        return blocks()

    return wrapped


def test_a_killed_worker_fails_the_compile_with_one_error_line(
    dirty, tmp_path, monkeypatch, capsys
):
    config, vocab = dirty
    monkeypatch.setattr(shards, "_available_cpus", lambda: 3)
    monkeypatch.setattr(pipeline, "pack_replay", _in_workers_only(
        pipeline.pack_replay, lambda: os.kill(os.getpid(), signal.SIGKILL)))
    fds = _open_fds()
    code = cli.main(["compile", "--config", str(config), "--strategy", "parallel-only",
                     "--budget-tokens", str(4 * BLOCK_TOKENS), "--batch-blocks", "4",
                     "--tokenizer", vocab, "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: the worker packing replay ended early (killed by signal 9)\n"
    )
    assert not (tmp_path / "out" / "manifest.json").exists()
    _assert_no_worker_left(fds)


def test_an_interrupt_reaps_every_worker(dirty, tmp_path, monkeypatch):
    config, vocab = dirty
    monkeypatch.setattr(shards, "_available_cpus", lambda: 3)
    pulls = []

    def interrupted(packer):
        def wrapped(*args, **kwargs):
            def blocks():
                for block in packer(*args, **kwargs):
                    pulls.append(os.getpid())
                    if len(pulls) == 2:
                        raise KeyboardInterrupt
                    yield block

            return blocks()

        return wrapped

    monkeypatch.setattr(pipeline, "pack_parallel", interrupted(pipeline.pack_parallel))
    fds = _open_fds()
    with pytest.raises(KeyboardInterrupt):
        compile_corpus(config, "parallel-only", 8 * BLOCK_TOKENS, 4, seed=5,
                       out_dir=tmp_path / "out", tokenizer_ref=vocab)
    _assert_no_worker_left(fds)


def _alive(pid):
    """Whether ``pid`` runs: it exists and is no zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states in /proc")
def test_a_worker_exits_when_its_host_is_gone(dirty, tmp_path):
    """Host 0 is killed right after forking its workers; each ends on its
    closed pipe."""
    config, vocab = dirty
    argv = ["compile", "--config", str(config), "--strategy", "parallel-only",
            "--budget-tokens", str(4 * BLOCK_TOKENS), "--batch-blocks", "4",
            "--tokenizer", vocab, "--out", str(tmp_path / "out")]
    code = f"""
import os, signal, sys
sys.path.insert(0, {SRC!r})
from currikit import cli, pipeline, shards
shards._available_cpus = lambda: 3
start, started = pipeline._Worker.start, []

def last_start(*args):
    worker = start(*args)
    started.append(worker.pid)
    if len(started) == 2:
        print(*started, flush=True)
        os.kill(os.getpid(), signal.SIGKILL)
    return worker

pipeline._Worker.start = last_start
cli.main({argv!r})
"""
    result = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == -signal.SIGKILL
    pids = [int(pid) for pid in result.stdout.split()]
    assert len(pids) == 2
    deadline = time.monotonic() + 60
    while any(map(_alive, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(_alive, pids))


_ATTRIBUTES = {
    "ShortfallError": {"deficits": {0: 12, 2: 3}},
    "ConstraintError": {"batch_index": 17},
    "ConsistencyError": {"position": 5},
}


def _exception_classes():
    for info in pkgutil.iter_modules(currikit.__path__):
        module = importlib.import_module(f"currikit.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, BaseException) and cls.__module__ == module.__name__:
                yield cls


@pytest.mark.parametrize("cls", sorted(_exception_classes(), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_every_exception_round_trips_through_pickle(cls):
    """A worker hands its stream's error to host 0 pickled."""
    attributes = _ATTRIBUTES.get(cls.__name__, {})
    exc = cls("the message", *attributes.values())
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is cls
    assert str(copy) == str(exc) == "the message"
    for name, value in attributes.items():
        assert getattr(copy, name) == value


def test_an_exception_that_cannot_be_pickled_becomes_a_compile_error():
    class Unpicklable(ValueError):
        def __init__(self, message, extra):
            super().__init__(message)

    portable = pipeline._portable(Unpicklable("no token covers 'x'", None))
    assert type(portable) is CompileError
    assert str(portable) == "no token covers 'x'"
    error = ValueError("kept")
    assert pipeline._portable(error) is error
