"""End-to-end corpus compilation: schedule -> packed streams -> shards.

The schedule dictates the exact sequence of block kinds; one packer stream
is kept per (kind, language) and the compiler pulls the next block from
whichever stream the schedule demands. Per-language monolingual and replay
data are drawn token-uniformly across their source files; parallel files
for one language are concatenated in configuration order.

Parallel and replacement streams read their pair files through
``corpus.pair_runs``, one row loop per file, in line runs that the packer
takes and commits as it needs them: a stream stops reading, counting and
warning at the record that completes its last block, as a record-by-record
reader would. Every reader gets a ``ReadCounter`` and every sampled group
keeps its ``SampleReport``. ``write_shards`` takes one generator of the
schedule's blocks, which after the last one pulls no stream again and puts
the pack reports and these counts into the manifest's ``metadata``
(``discards`` and ``sources``), before ``write_shards`` writes the
manifest. A replacement stream's ``sources`` list its parallel files, then
its monolingual files.
The packers only build blocks: ``write_shards`` hashes and writes each one
on its writer thread while this thread packs the next.

Every stream is a function of its sources, tokenizer, labels and seed, so
a ``bpe_file`` compile, where encoding dominates, packs its streams in
forked workers where ``os.fork`` exists and the process may run on two or
more CPUs. The kind keys are split among ``min(CPUs, keys)`` workers by
block count, the largest first, each onto the worker with the fewest
blocks so far. This process, host 0, builds the spec's matcher, so that
the workers inherit it, and forks them before ``write_shards`` starts its
thread; it packs no block itself. A worker builds its keys' blocks in
schedule order, one block ahead of what host 0 has taken, and sends each
over a pipe, with the log records made while building it and, with a
stream's last block, the stream's pack report and reads. Each key's
stream is replaced by a ``_Remote`` that takes the key's next block when
the schedule reaches it and emits the block's records then, so the tree
and the log are those of one process. Every stream is closed after
``write_shards``, in creation order; closing a ``_Remote`` stops its
worker, which closes its own streams and sends their close-time records.
A ``byte_fallback`` compile, whose whole run costs less than forking, and
a host with one CPU or no ``fork``, pack every stream in this process.

The tree records each flag once, in the manifest, and no path: the same
corpus, flags and seed give the same bytes wherever the tree is written.
"""

from __future__ import annotations

import itertools
import logging
import os
import pickle
from dataclasses import dataclass, field
from typing import Callable, Iterator

from . import shards
from .corpus import (
    CorpusSource,
    Document,
    ReadCounter,
    SampleReport,
    load_corpus_config,
    pair_runs,
    read_monolingual,
    sample_uniform,
    sort_codes,
)
from .corpus import read_parallel  # noqa: F401  the benchmark's tracer looks it up here
from .packing import (
    BLOCK_TOKENS,
    PackReport,
    TokenBlock,
    pack_monolingual,
    pack_parallel,
    pack_replacement,
    pack_replay,
)
from .schedule import (
    LABEL_STYLES,
    STRATEGY_KINDS,
    CurriculumManifest,
    Strategy,
    build_schedule,
)
from .shards import ShardLayout, write_shards
from .tokenizer import TokenizerSpec, _matcher, resolve_spec

# The source kinds each non-replay block kind is read from; replacement
# substitutes monolingual text into parallel pairs.
_SOURCE_KINDS = {
    "monolingual": ("monolingual",),
    "parallel": ("parallel",),
    "replacement": ("parallel", "monolingual"),
}


class CompileError(RuntimeError):
    """The corpus cannot feed the requested schedule."""


@dataclass
class CompileResult:
    layout: ShardLayout
    manifest: CurriculumManifest
    reports: dict[str, PackReport] = field(default_factory=dict)


def _group_sources(
    sources: list[CorpusSource],
) -> tuple[dict[str, dict[str, list[CorpusSource]]], list[CorpusSource]]:
    """Monolingual and parallel sources by kind, then language; and replay sources."""
    by_kind: dict[str, dict[str, list[CorpusSource]]] = {"monolingual": {}, "parallel": {}}
    replay: list[CorpusSource] = []
    for src in sources:
        if src.kind == "replay":
            replay.append(src)
        else:
            assert src.language is not None
            by_kind[src.kind].setdefault(src.language, []).append(src)
    return by_kind, replay


def infer_language_set(
    strategy: Strategy, sources: list[CorpusSource]
) -> list[str]:
    """Languages that have every source kind the strategy schedules."""
    by_kind, _ = _group_sources(sources)
    needed = {k for name in STRATEGY_KINDS[strategy] for k in _SOURCE_KINDS[name]}
    langs = set.intersection(*(set(by_kind[k]) for k in needed))
    langs.discard("en")
    if not langs:
        raise CompileError(
            f"no language has the source kinds required by {strategy.value}"
        )
    return sort_codes(langs)


@dataclass
class _SourceRead:
    """What one stream read from one source: the reader's counts and, for a
    token-uniformly sampled group, the sampler's report and the source's
    index in it."""

    source: CorpusSource
    counter: ReadCounter
    sample: SampleReport | None = None
    index: int = 0

    def to_json(self) -> dict:
        doc = {
            "source": self.source.source_id,
            "records": self.counter.records,
            "emitted": self.counter.emitted,
            "skipped": self.counter.skipped,
        }
        if self.sample is not None:
            doc["quota"] = self.sample.quota
            doc["drawn_tokens"] = self.sample.drawn_tokens.get(self.index, 0)
            doc["deficit"] = self.sample.deficits.get(self.index, 0)
        return doc


def _sampled_documents(
    group: list[CorpusSource],
    lang: str,
    blocks_needed: int,
    spec: TokenizerSpec,
    reads: list[_SourceRead],
) -> Iterator[Document]:
    """Documents drawn token-uniformly across the group, one block beyond need."""
    report = SampleReport()
    readers = []
    for index, s in enumerate(group):
        counter = ReadCounter()
        reads.append(_SourceRead(s, counter, report, index))
        readers.append(read_monolingual(s.path, lang, counter, source_id=s.source_id))
    budget = (blocks_needed + 1) * BLOCK_TOKENS
    return sample_uniform(readers, budget, spec, report)


def _chained(
    reader: Callable, group: list[CorpusSource], lang: str, reads: list[_SourceRead]
) -> Iterator:
    """The group's records read file after file, in configuration order."""
    counters = [ReadCounter() for _ in group]
    reads.extend(_SourceRead(s, c) for s, c in zip(group, counters))
    return itertools.chain.from_iterable(
        reader(s.path, lang, c, source_id=s.source_id) for s, c in zip(group, counters)
    )


def _split_keys(counts: dict[str, int], n_workers: int) -> list[list[str]]:
    """The kind keys of each worker: by block count, the largest first (ties
    in ``counts`` order), each onto the worker with the fewest blocks so far
    (ties to the lowest worker)."""
    workers: list[list[str]] = [[] for _ in range(n_workers)]
    loads = [0] * n_workers
    for key in sorted(counts, key=counts.__getitem__, reverse=True):
        worker = loads.index(min(loads))
        workers[worker].append(key)
        loads[worker] += counts[key]
    return workers


_GO = b"g"  # build the next block
_STOP = b"s"  # close the streams, send their close-time records and exit


class _Held(logging.Filter):
    """Holds the log records of this package's loggers, formatted, instead of
    letting them be handled, so that a worker can send them to host 0."""

    def __init__(self) -> None:
        super().__init__()
        self.records: list[logging.LogRecord] = []

    def filter(self, record: logging.LogRecord) -> bool:
        record.msg, record.args, record.exc_info = record.getMessage(), None, None
        self.records.append(record)
        return False

    def take(self) -> list[logging.LogRecord]:
        records, self.records = self.records, []
        return records


def _package_loggers() -> list[logging.Logger]:
    return [
        logger for name, logger in list(logging.root.manager.loggerDict.items())
        if isinstance(logger, logging.Logger) and name.partition(".")[0] == __package__
    ]


def _emit(records: list[logging.LogRecord]) -> None:
    for record in records:
        logging.getLogger(record.name).handle(record)


def _next_block(stream: Iterator[TokenBlock]) -> tuple[str, object]:
    """The stream's next block as ``("block", block)``, or ``("end", None)``
    once it has run dry, or ``("error", exc)``."""
    try:
        return "block", next(stream)
    except StopIteration:
        return "end", None
    except Exception as exc:
        return "error", exc


def _portable(exc: Exception) -> Exception:
    """``exc``, or where it does not survive pickling a ``CompileError`` with
    its message."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return CompileError(str(exc))
    return exc


def _close(stream: Iterator[TokenBlock]) -> None:
    """Close a packer's generator; an iterator that stands in for one and has
    no ``close`` closes it when it is dropped."""
    close = getattr(stream, "close", None)
    if close is not None:
        close()


def _serve(
    keys: list[str],
    order: list[str],
    streams: dict[str, Iterator[TokenBlock]],
    reports: dict[str, PackReport],
    reads: dict[str, list[_SourceRead]],
    commands: int,
    messages: int,
) -> None:
    """A worker's run: the blocks of ``keys`` in schedule ``order``.

    Each block is sent to host 0 as ``(what, payload, final, records)``:
    ``_next_block``'s message, then the stream's report and reads with its
    last block (else None), then the records logged while it was built.
    After each message one command byte is read: ``_GO`` builds the next
    block; ``_STOP`` closes the streams and sends each one's close-time
    records, by key, which host 0 emits in creation order; an ended pipe,
    host 0 gone, ends the run.
    """
    held = _Held()
    for logger in _package_loggers():
        logger.addFilter(held)
    last = {key: position for position, key in enumerate(order)}
    out = open(messages, "wb")
    command = _GO
    for position, key in enumerate(order):
        what, payload = _next_block(streams[key])
        if what == "error":
            payload = _portable(payload)
        final = (reports[key], reads[key]) if what == "block" and position == last[key] else None
        pickle.dump((what, payload, final, held.take()), out, pickle.HIGHEST_PROTOCOL)
        out.flush()
        command = os.read(commands, 1)
        if command != _GO:
            break
    if command == _STOP:
        closing = {}
        for key in keys:
            _close(streams[key])
            closing[key] = held.take()
        pickle.dump(closing, out, pickle.HIGHEST_PROTOCOL)
        out.flush()


class _Worker:
    """Host 0's end of one forked worker, which runs ``_serve``.

    ``take`` reads the worker's next message and, when the worker has more
    blocks to build, sends ``_GO``, so the worker builds at most one block
    that host 0 has not taken. ``stop`` waits for that block, drops it, sends
    ``_STOP`` and keeps the close-time records in ``closing``. A worker that
    ends too early raises ``CompileError`` and keeps its message in ``lost``.
    ``reap`` kills a worker that was not stopped, waits for it and closes
    the pipes.
    """

    def __init__(self, keys: list[str], n_blocks: int, pid: int, commands: int, messages: int):
        self.keys = keys
        self.pid: int | None = pid
        self.closing: dict[str, list[logging.LogRecord]] | None = None
        self.lost: str | None = None
        self._left = n_blocks
        self._building = True
        self._commands = commands
        self._messages = open(messages, "rb")

    @classmethod
    def start(
        cls,
        keys: list[str],
        order: list[str],
        streams: dict[str, Iterator[TokenBlock]],
        reports: dict[str, PackReport],
        reads: dict[str, list[_SourceRead]],
        started: list["_Worker"],
    ) -> "_Worker":
        """Fork a worker for ``keys``; it closes the pipe ends of ``started``."""
        commands_r, commands_w = os.pipe()
        messages_r, messages_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (commands_r, commands_w, messages_r, messages_w):
                os.close(fd)
            raise
        if pid == 0:
            code = 1
            try:
                for fd in (commands_w, messages_r, *(fd for w in started for fd in w._fds())):
                    os.close(fd)
                _serve(keys, order, streams, reports, reads, commands_r, messages_w)
                code = 0
            finally:
                os._exit(code)  # never unwinds into the caller, nor flushes its stdio
        os.close(commands_r)
        os.close(messages_w)
        return cls(keys, len(order), pid, commands_w, messages_r)

    def _fds(self) -> tuple[int, int]:
        return self._commands, self._messages.fileno()

    def take(self) -> tuple[str, object, tuple | None, list[logging.LogRecord]]:
        message = self._read()
        self._left -= 1
        self._building = message[0] == "block" and self._left > 0
        if self._building:
            self._command(_GO)
        return message

    def stop(self) -> None:
        if self.closing is not None or self.lost is not None:
            return
        try:
            if self._building:
                self._read()
                self._building = False
            self._command(_STOP)
            self.closing = self._read()
        except CompileError:
            pass  # kept in ``lost``

    def reap(self) -> None:
        if self.pid is not None:
            self._wait(kill=self.closing is None)
        if not self._messages.closed:
            self._messages.close()
            os.close(self._commands)

    def _wait(self, kill: bool) -> int:
        """The worker's exit code, once it has ended; ``kill`` ends it first.
        A worker that has already ended keeps its code."""
        if kill:
            import signal  # only here: importing currikit loads no signal module

            os.kill(self.pid, signal.SIGKILL)
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        return os.waitstatus_to_exitcode(status)

    def _read(self):
        try:
            return pickle.load(self._messages)
        except (EOFError, OSError, pickle.UnpicklingError):
            raise self._lose() from None

    def _command(self, command: bytes) -> None:
        try:
            os.write(self._commands, command)
        except OSError:
            raise self._lose() from None

    def _lose(self) -> CompileError:
        """The worker's pipe ended before it was stopped: reap it and say how."""
        code = self._wait(kill=True)
        how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
        self.lost = f"the worker packing {', '.join(self.keys)} ended early ({how})"
        return CompileError(self.lost)


class _Remote:
    """Stands in for ``key``'s stream, which ``worker`` packs.

    Each ``next`` takes the worker's next message, which is ``key``'s next
    block, and emits the records logged while it was built; the stream's
    last block brings its report and reads. ``close`` stops the worker,
    once for all its keys, and emits ``key``'s close-time records.
    """

    def __init__(
        self,
        worker: _Worker,
        key: str,
        reports: dict[str, PackReport],
        reads: dict[str, list[_SourceRead]],
    ):
        self._worker = worker
        self._key = key
        self._reports = reports
        self._reads = reads

    def __iter__(self) -> "_Remote":
        return self

    def __next__(self) -> TokenBlock:
        what, payload, final, records = self._worker.take()
        _emit(records)
        if final is not None:
            self._reports[self._key], self._reads[self._key] = final
        if what == "end":
            raise StopIteration
        if what == "error":
            raise payload
        return payload

    def close(self) -> None:
        self._worker.stop()
        if self._worker.closing is not None:
            _emit(self._worker.closing[self._key])


def compile_corpus(
    sources: list[CorpusSource] | str | os.PathLike[str],
    strategy: Strategy | str,
    token_budget: int,
    batch_size_blocks: int,
    seed: int,
    out_dir: str | os.PathLike[str],
    tokenizer_ref: str = "byte_fallback",
    label_style: str = "name",
    languages: list[str] | None = None,
) -> CompileResult:
    """Compile one strategy at one seed into a shard directory.

    ``write_shards`` writes the tree and the manifest last, so a directory
    with a manifest is always complete. Identical inputs, flags, and seed
    produce a byte-identical tree.
    """
    strategy = Strategy(strategy)
    if label_style not in LABEL_STYLES:
        raise ValueError(f"unknown label style {label_style!r}")
    spec = resolve_spec(tokenizer_ref)
    if not isinstance(sources, list):
        sources = load_corpus_config(sources)
    by_kind, replay = _group_sources(sources)
    mono, parallel = by_kind["monolingual"], by_kind["parallel"]
    if not replay:
        raise CompileError("every strategy interleaves replay data; none configured")
    language_set = (
        sort_codes(languages) if languages else infer_language_set(strategy, sources)
    )

    manifest = build_schedule(
        strategy=strategy,
        token_budget=token_budget,
        language_set=language_set,
        batch_size_blocks=batch_size_blocks,
        seed=seed,
        tokenizer_id=spec.id,
    )
    manifest.label_style = label_style
    needed = manifest.kind_counts()
    reports: dict[str, PackReport] = {}
    reads: dict[str, list[_SourceRead]] = {}
    streams: dict[str, Iterator[TokenBlock]] = {}
    for key, count in needed.items():
        report = PackReport()
        reports[key] = report
        stream_reads = reads[key] = []
        kind_name, _, lang = key.partition(":")
        for source_kind in _SOURCE_KINDS.get(kind_name, ()):
            if lang not in by_kind[source_kind]:
                raise CompileError(f"no {source_kind} sources for language {lang}")
        if kind_name == "replay":
            streams[key] = pack_replay(
                _sampled_documents(replay, "en", count, spec, stream_reads), spec, report
            )
        elif kind_name == "monolingual":
            streams[key] = pack_monolingual(
                _sampled_documents(mono[lang], lang, count, spec, stream_reads),
                lang, spec, report,
            )
        elif kind_name == "parallel":
            streams[key] = pack_parallel(
                _chained(pair_runs, parallel[lang], lang, stream_reads), lang, spec,
                seed, label_style, report,
            )
        else:  # replacement
            streams[key] = pack_replacement(
                _chained(pair_runs, parallel[lang], lang, stream_reads),
                _chained(read_monolingual, mono[lang], lang, stream_reads),
                lang, spec, seed, label_style, report,
            )

    workers: list[_Worker] = []
    try:
        if spec.kind == "bpe_file" and hasattr(os, "fork") and shards._available_cpus() >= 2:
            _matcher(spec)  # built once, here, and inherited by every worker
            keys = [entry.key for entry in manifest.entries]
            for worker_keys in _split_keys(needed, min(shards._available_cpus(), len(needed))):
                order = [key for key in keys if key in worker_keys]
                workers.append(_Worker.start(worker_keys, order, streams, reports, reads, workers))
            for worker in workers:
                for key in worker.keys:
                    streams[key] = _Remote(worker, key, reports, reads)
        layout = _write(manifest, streams, reports, reads, out_dir)
        lost = next((worker.lost for worker in workers if worker.lost is not None), None)
        if lost is not None:
            raise CompileError(lost)
    finally:
        for worker in workers:
            worker.reap()
    return CompileResult(layout=layout, manifest=manifest, reports=reports)


def _write(
    manifest: CurriculumManifest,
    streams: dict[str, Iterator[TokenBlock]],
    reports: dict[str, PackReport],
    reads: dict[str, list[_SourceRead]],
    out_dir: str | os.PathLike[str],
) -> ShardLayout:
    """``write_shards`` of the schedule's blocks, pulled from the streams;
    then every stream is closed in creation order, which logs each reader's
    malformed-row total."""

    def block_stream() -> Iterator[TokenBlock]:
        for position, entry in enumerate(manifest.entries):
            key = entry.key
            try:
                yield next(streams[key])
            except StopIteration:
                raise CompileError(
                    f"{key} stream exhausted at schedule position {position}: "
                    f"corpus too small for the requested budget"
                ) from None
        # No stream is pulled again: every count below is final.
        manifest.metadata["discards"] = {
            key: {
                "records": r.records,
                "tokens_in": r.tokens_in,
                "blocks": r.blocks,
                "discarded_tokens": r.unused_tokens,
                "en_first": r.en_first,
                "replacement_token_delta": r.replacement_token_delta,
            }
            for key, r in sorted(reports.items())
        }
        manifest.metadata["sources"] = {
            key: [read.to_json() for read in stream_reads]
            for key, stream_reads in sorted(reads.items())
        }

    try:
        layout = write_shards(block_stream(), manifest, out_dir)
    except BaseException as exc:
        # The exception's traceback keeps the streams alive; close them now,
        # so each logs its malformed-row total before the error is reported.
        # An interrupt stops no worker: reaping kills them.
        for stream in streams.values():
            if isinstance(exc, Exception) or not isinstance(stream, _Remote):
                _close(stream)
        raise
    for stream in streams.values():
        _close(stream)
    return layout
