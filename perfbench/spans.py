"""Outside-in span tracer for the currikit benchmark.

The tracer replaces public functions at the module attributes their
callers look up (``currikit.packing.encode`` and so on) with wrappers that
record one span per call, and one span per ``next()`` on a generator the
call returns. Spans carry a name, start, end and parent; they stay in
memory until the run ends. Nothing inside the package is edited: every
patch is undone by ``Tracer.uninstall``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from typing import Callable, Iterable, Iterator

# (module, attribute, span name). A target missing from the package is
# skipped, so a later refactor that renames a function loses that span
# instead of breaking the benchmark.
FUNCTION_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("currikit.cli", "main", "cli"),
    ("currikit.cli", "compile_corpus", "pipeline.compile"),
    ("currikit.cli", "audit_shards", "shards.audit"),
    ("currikit.cli", "bleu", "evaluate.bleu"),
    ("currikit.cli", "paired_bootstrap", "evaluate.signif"),
    ("currikit.pipeline", "resolve_spec", "tokenizer.load"),
    ("currikit.pipeline", "load_corpus_config", "corpus.read"),
    ("currikit.pipeline", "read_monolingual", "corpus.read"),
    ("currikit.pipeline", "read_parallel", "corpus.read"),
    ("currikit.pipeline", "sample_uniform", "corpus.sample"),
    ("currikit.pipeline", "build_schedule", "schedule.build"),
    ("currikit.pipeline", "pack_monolingual", "packing.pack"),
    ("currikit.pipeline", "pack_parallel", "packing.pack"),
    ("currikit.pipeline", "pack_replacement", "packing.pack"),
    ("currikit.pipeline", "pack_replay", "packing.pack"),
    ("currikit.pipeline", "write_shards", "shards.write"),
    ("currikit.packing", "encode", "tokenizer.encode"),
    ("currikit.packing", "count_tokens", "tokenizer.count_tokens"),
    ("currikit.packing", "format_pair", "packing.format_pair"),
    ("currikit.packing", "split_sentences", "packing.split_sentences"),
    ("currikit.packing", "block_checksum", "packing.checksum"),
    ("currikit.tokenizer", "encode", "tokenizer.encode"),
    ("currikit.corpus", "count_tokens", "tokenizer.count_tokens"),
    ("currikit.shards", "fnv1a64", "shards.hash"),
    ("currikit.shards", "validate_schedule", "schedule.validate"),
    ("currikit.schedule", "build_schedule", "schedule.build"),
    ("currikit.schedule", "validate_schedule", "schedule.validate"),
    ("currikit.evaluate", "tokenize", "evaluate.tokenize"),
    ("currikit.rng", "coin", "rng.coin"),
    ("currikit.rng", "shuffled", "rng.shuffle"),
    ("currikit.rng", "indices_with_replacement", "rng.indices"),
)

# Methods of CurriculumManifest: (attribute, span name, is classmethod).
MANIFEST_TARGETS = (
    ("to_json", "schedule.to_json", False),
    ("from_json", "schedule.from_json", True),
)

# Spans around which the process's read/write byte counters are sampled.
IO_SPANS = frozenset({"shards.audit", "shards.write"})

# Readers whose ReadCounter argument the tracer fills in, for record counts.
READER_FUNCTIONS = frozenset({"read_monolingual", "read_parallel"})

ROOT = -1


class Tracer:
    """Records nested spans; a span's parent is the span open when it began."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # Work counts taken at the same boundaries as the spans.
        self.counters: dict[str, float] = {}
        # ReadCounter objects handed to the corpus readers, in call order.
        self.read_counters: list = []

    # -- recording --------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else ROOT)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.names[index]} closed out of order")

    def mark(self) -> int:
        """Index of the next span; spans from a mark on belong to one cycle."""
        return len(self.names)

    def spans(self, since: int = 0) -> list[tuple[str, float, float, int]]:
        return [
            (self.names[i], self.starts[i], self.ends[i], self.parents[i])
            for i in range(since, len(self.names))
        ]

    # -- wrapping ---------------------------------------------------------

    def wrap(self, fn: Callable, name: str, counts_reads: bool = False) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counts_reads:
                args, kwargs = tracer._attach_read_counter(args, kwargs)
            io_before = read_io() if name in IO_SPANS else None
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
                if io_before is not None:
                    tracer._count_io(name, io_before)
            if inspect.isgenerator(result):
                result = _TracedIterator(tracer, name, result)
            tracer._count_result(name, result)
            return result

        return traced

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _count_io(self, name: str, before: tuple[int, int]) -> None:
        rchar, wchar = read_io()
        if name == "shards.audit":
            self.count("shards.bytes_read", rchar - before[0])
        else:
            self.count("shards.bytes_written", wchar - before[1])

    def _count_result(self, name: str, result: object) -> None:
        """Counts read off return values: pack reports, batches, manifest size."""
        if name == "pipeline.compile":
            from currikit.packing import BLOCK_TOKENS

            for report in getattr(result, "reports", {}).values():
                self.count("packing.tokens_in", report.tokens_in)
                self.count("packing.discarded_tokens", report.unused_tokens)
                self.count("packing.placed_tokens", report.blocks * BLOCK_TOKENS)
        elif name == "schedule.build":
            self.count("schedule.batches", result.n_batches)
        elif name == "schedule.to_json":
            self.count("schedule.manifest_bytes", len(result))

    def _attach_read_counter(self, args: tuple, kwargs: dict) -> tuple[tuple, dict]:
        """Reuse the caller's ReadCounter, or pass one so reads get counted."""
        if len(args) > 2:
            counter = args[2]
        else:
            counter = kwargs.get("counter")
        if counter is None:
            from currikit.corpus import ReadCounter

            counter = ReadCounter()
            if len(args) > 2:
                args = args[:2] + (counter,) + args[3:]
            else:
                kwargs = dict(kwargs, counter=counter)
        self.read_counters.append(counter)
        return args, kwargs

    def install(self) -> list[str]:
        """Patch every target that exists; returns the targets that do not."""
        missing = []
        for module_name, attr, name in FUNCTION_TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module_name}.{attr}")
                continue
            counts_reads = attr in READER_FUNCTIONS
            self._patch(module, attr, self.wrap(fn, name, counts_reads))
        schedule = importlib.import_module("currikit.schedule")
        cls = schedule.CurriculumManifest
        for attr, name, is_classmethod in MANIFEST_TARGETS:
            raw = cls.__dict__.get(attr)
            if raw is None:
                missing.append(f"CurriculumManifest.{attr}")
                continue
            if is_classmethod:
                wrapped = classmethod(self.wrap(raw.__func__, name))
            else:
                wrapped = self.wrap(raw, name)
            self._patch(cls, attr, wrapped)
        return missing

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def read_io() -> tuple[int, int]:
    """Bytes this process has read and written so far (``rchar``, ``wchar``).

    Linux only; elsewhere both stay 0 and the byte counts read as 0.
    """
    try:
        with open("/proc/self/io", encoding="ascii") as fh:
            fields = dict(line.split(": ") for line in fh.read().splitlines())
    except OSError:
        return 0, 0
    return int(fields["rchar"]), int(fields["wchar"])


class _TracedIterator:
    """Iterator proxy recording one span per ``next()``."""

    __slots__ = ("_tracer", "_name", "_inner")

    def __init__(self, tracer: Tracer, name: str, inner: Iterator):
        self._tracer = tracer
        self._name = name
        self._inner = inner

    def __iter__(self) -> "_TracedIterator":
        return self

    def __next__(self):
        index = self._tracer.begin(self._name)
        try:
            return next(self._inner)
        finally:
            self._tracer.end(index)


# -- arithmetic over recorded spans ----------------------------------------


def _union_length(intervals: Iterable[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[tuple[str, float, float, int]], base: int = 0) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    ``spans[i]`` is (name, start, end, parent) where parent is an absolute
    span index (``base`` + position in ``spans``) or ``ROOT``. Children may
    overlap each other; the covered part is the union of their intervals,
    clipped to the parent.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent != ROOT and parent >= base:
            children.setdefault(parent - base, []).append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        kids = [
            (max(s, start), min(e, end))
            for s, e in children.get(i, ())
            if min(e, end) > max(s, start)
        ]
        out.append((end - start) - _union_length(kids))
    return out


def root_time(spans: list[tuple[str, float, float, int]], base: int = 0) -> float:
    """Wall time covered by spans whose parent lies outside ``spans``."""
    return _union_length(
        (start, end) for _, start, end, parent in spans if parent == ROOT or parent < base
    )


def totals_by_name(
    spans: list[tuple[str, float, float, int]], base: int = 0
) -> dict[str, tuple[float, int]]:
    """Per span name: (summed self time, number of spans)."""
    out: dict[str, list] = {}
    for (name, *_), own in zip(spans, self_times(spans, base)):
        entry = out.setdefault(name, [0.0, 0])
        entry[0] += own
        entry[1] += 1
    return {name: (t, n) for name, (t, n) in out.items()}
