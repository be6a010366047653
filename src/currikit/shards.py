"""Bit-exact on-disk layout for compiled corpora.

A tree holds one file per block (little-endian uint32 ids, exactly
1,048,576 bytes), one provenance file and the manifest. ``write_shards`` is
the one writer of a tree: it takes the block stream and the manifest, and
writes the manifest last, once the stream has ended, as the commit marker:
a directory containing a manifest is guaranteed to contain every block it
names. Block files are hashed and written on one writer thread while the
stream builds the next block (``hashlib`` and file writes release the
interpreter lock); everything else stays on the calling thread. Every fact
is stored once: the manifest holds the schedule and the checksums,
``provenance.jsonl`` holds one line per block in position order, a compact
sorted-key JSON array of the block's ``{"source", "first", "last"}`` record
spans.

A file's checksum is SHA-256-64: the first 16 hex digits of its SHA-256,
which ``sha256sum FILE | cut -c1-16`` prints. The manifest lists the
checksum of every block in its ``checksums`` array and of the provenance
file in ``provenance_checksum``, so it commits to the content of the whole
tree. ``audit`` reads and hashes each file once and checks the digest
against the manifest; the block files are checked on one worker thread per
CPU the process may run on (``hashlib`` releases the interpreter lock while
it hashes), and the report lists their failures in position order, as one
thread would. Any other entry in the directory, such as the tail of an
earlier, larger compile, is an orphan.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .corpus import LANGUAGES, SEA_CODES
from .packing import BLOCK_TOKENS, TokenBlock, _sha256_64
from .packing import fnv1a64  # noqa: F401  the benchmark's tracer looks up shards.fnv1a64
from .schedule import CurriculumManifest, Violation, validate_schedule

BLOCK_BYTES = BLOCK_TOKENS * 4
MANIFEST_NAME = "manifest.json"
PROVENANCE_NAME = "provenance.jsonl"


class ConsistencyError(RuntimeError):
    """Block stream and manifest disagree."""

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position

    def __reduce__(self):
        return type(self), (self.args[0], self.position)


class LayoutError(RuntimeError):
    """Directory does not hold a readable compiled corpus."""


@dataclass(frozen=True)
class ShardLayout:
    directory: Path

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    @property
    def provenance_path(self) -> Path:
        return self.directory / PROVENANCE_NAME

    def block_path(self, position: int) -> Path:
        return self.directory / f"block_{position:08d}.bin"


def _provenance_line(block: TokenBlock) -> str:
    spans = [
        {"source": s.source_id, "first": s.first_ordinal, "last": s.last_ordinal}
        for s in block.provenance
    ]
    return json.dumps(spans, sort_keys=True, separators=(",", ":")) + "\n"


class _BlockWriter:
    """Hashes and writes block files on one thread, ``currikit-write``, in
    the order they are handed in, and lists each file's SHA-256-64 in
    ``checksums``.

    ``put`` hands the thread one block's bytes and waits only while an
    earlier block is still waiting, so at most one block waits while
    another is being written. After a hash or write fails, the thread takes
    no further block and ``put`` raises that error. Leaving the ``with``
    block lets the thread write every block already handed in, joins it,
    and raises its error, ahead of any exception the block raised. The thread
    calls ``_sha256_64`` and file writes only, both of which release the
    interpreter lock, and nothing that a tracer of the calling thread may
    have wrapped.
    """

    def __init__(self, layout: ShardLayout):
        self.checksums: list[str] = []
        self._layout = layout
        self._waiting: tuple[int, np.ndarray] | None = None
        self._closed = False
        self._error: BaseException | None = None
        self._changed = threading.Condition()
        self._thread = threading.Thread(target=self._run, name="currikit-write")
        self._thread.start()

    def __enter__(self) -> "_BlockWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        with self._changed:
            self._closed = True
            self._changed.notify()
        self._thread.join()
        if self._error is not None and exc is not self._error:  # put raised it already
            raise self._error

    def put(self, position: int, data: np.ndarray) -> None:
        """Hand in block ``position``'s bytes, or raise the error of a failed write."""
        with self._changed:
            while self._waiting is not None and self._error is None:
                self._changed.wait()
            if self._error is not None:
                raise self._error
            self._waiting = (position, data)
            self._changed.notify()

    def _run(self) -> None:
        while True:
            with self._changed:
                while self._waiting is None and not self._closed:
                    self._changed.wait()
                if self._waiting is None:
                    return
                (position, data), self._waiting = self._waiting, None
                self._changed.notify()
            try:
                self.checksums.append(_sha256_64((data,)))
                self._layout.block_path(position).write_bytes(data)
            except BaseException as exc:  # raised on exit, in the caller's thread
                with self._changed:
                    self._error = exc
                    self._changed.notify()
                return


def write_shards(
    blocks: Iterable[TokenBlock],
    manifest: CurriculumManifest,
    directory: str | os.PathLike[str],
) -> ShardLayout:
    """Write a tree from a block stream whose order matches the manifest.

    Hands every block's bytes to a writer thread as it arrives, which hashes
    and writes the file while the stream builds the next block, and writes
    its provenance line to ``provenance.jsonl.tmp``. A block's ids must not
    change once the stream has yielded it. After the last entry the stream
    is pulled once more and must end there; that pull runs whatever the
    stream does after its last block, such as filling ``manifest.metadata``.
    Once the thread has written every block and ended, the provenance file
    is hashed and replaces ``provenance.jsonl``, ``manifest.checksums`` and
    ``manifest.provenance_checksum`` are filled, and ``manifest.json`` is
    written last, the marker that the tree is complete.

    A kind or count mismatch, or an exception from the stream, at position
    p raises after every block before p is written; a failed hash or write
    at position k raises after no later block is written, and ahead of any
    later error. Either way the thread has ended, and the temporary file is
    removed, so a crashed or inconsistent run never looks complete.
    """
    layout = ShardLayout(Path(directory))
    layout.directory.mkdir(parents=True, exist_ok=True)
    partial = layout.provenance_path.with_name(PROVENANCE_NAME + ".tmp")
    try:
        with open(partial, "wb") as provenance, _BlockWriter(layout) as writer:
            it = iter(blocks)
            for position, entry in enumerate(manifest.entries):
                try:
                    block = next(it)
                except StopIteration:
                    raise ConsistencyError(
                        f"block stream ended at position {position}, "
                        f"manifest has {len(manifest.entries)} entries",
                        position,
                    ) from None
                if block.kind != entry.kind:
                    raise ConsistencyError(
                        f"kind mismatch at position {position}: stream has "
                        f"{block.kind.key()}, manifest wants {entry.kind.key()}",
                        position,
                    )
                writer.put(position, block.ids.astype("<u4", copy=False))
                provenance.write(_provenance_line(block).encode("utf-8"))
            try:
                next(it)
            except StopIteration:
                pass
            else:
                n_blocks = len(manifest.entries)
                raise ConsistencyError(
                    f"block stream continues past the {n_blocks} manifest entries", n_blocks
                )
        with open(partial, "rb") as provenance:
            provenance_checksum = _sha256_64(provenance)
        os.replace(partial, layout.provenance_path)
    finally:
        partial.unlink(missing_ok=True)
    manifest.checksums = writer.checksums
    manifest.provenance_checksum = provenance_checksum
    layout.manifest_path.write_text(manifest.to_json(), encoding="utf-8")
    return layout


def read_manifest(directory: str | os.PathLike[str]) -> CurriculumManifest:
    path = Path(directory) / MANIFEST_NAME
    if not path.exists():
        raise LayoutError(f"{directory} has no {MANIFEST_NAME}; not a compiled corpus")
    try:
        return CurriculumManifest.from_json(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, not JSON, or not a manifest
        raise LayoutError(f"{path}: {exc}") from None


def iter_block_ids(directory: str | os.PathLike[str]) -> Iterator[np.ndarray]:
    """Yield block id arrays in schedule order."""
    manifest = read_manifest(directory)
    layout = ShardLayout(Path(directory))
    for position in range(manifest.n_blocks):
        data = layout.block_path(position).read_bytes()
        yield np.frombuffer(data, dtype="<u4")


@dataclass
class BlockFailure:
    block_file: str
    reason: str

    def __str__(self) -> str:
        return f"{self.block_file}: {self.reason}"


@dataclass
class AuditReport:
    blocks_checked: int = 0
    checksum_failures: list[BlockFailure] = field(default_factory=list)
    orphans: list[str] = field(default_factory=list)
    schedule_violations: list[Violation] = field(default_factory=list)
    discards: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not (self.checksum_failures or self.orphans or self.schedule_violations)

    def render(self) -> str:
        lines = [
            f"blocks checked: {self.blocks_checked}",
            f"checksum/size failures: {len(self.checksum_failures)}",
            f"orphan files: {len(self.orphans)}",
            f"schedule violations: {len(self.schedule_violations)}",
        ]
        lines.extend(f"  {f}" for f in self.checksum_failures[:20])
        lines.extend(f"  {name}: orphan, not named by the manifest" for name in self.orphans[:20])
        lines.extend(f"  {v}" for v in self.schedule_violations[:20])
        if self.discards:
            lines.append(f"discard report: {json.dumps(self.discards, sort_keys=True)}")
        lines.append("audit: PASS" if self.passed else "audit: FAIL")
        return "\n".join(lines)


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has
    one, else every CPU of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _check_block(
    layout: ShardLayout, checksums: list[str] | None, position: int
) -> BlockFailure | None:
    """The failure of the block at ``position``, or None when it is intact."""
    bin_path = layout.block_path(position)
    if not bin_path.exists():
        return BlockFailure(bin_path.name, "missing file")
    size = bin_path.stat().st_size
    if size != BLOCK_BYTES:
        return BlockFailure(bin_path.name, f"size {size} != {BLOCK_BYTES}")
    digest = _sha256_64((bin_path.read_bytes(),))
    if checksums is not None and digest != checksums[position]:
        return BlockFailure(bin_path.name, f"checksum {digest} != manifest {checksums[position]}")
    return None


def _check_blocks(
    layout: ShardLayout, checksums: list[str] | None, n_blocks: int
) -> list[BlockFailure | None]:
    """``_check_block`` of every position, in position order, on
    ``min(n_blocks, CPUs)`` workers.

    The calling thread is one worker, so on one CPU no thread starts. Workers
    take positions from one shared iterator and store each result at its
    position. Once a check raises, the others take no new position; every
    thread is joined before this returns or raises. Positions are taken in
    order and each taken check runs to its end, so every position below the
    lowest that raised was checked, and that position's exception, the one
    a single thread would have met first, is re-raised.
    """
    results: list[BlockFailure | None] = [None] * n_blocks
    raised: dict[int, BaseException] = {}
    positions = iter(range(n_blocks))
    take = threading.Lock()
    stop = threading.Event()

    def work() -> None:
        while not stop.is_set():
            with take:
                position = next(positions, None)
            if position is None:
                return
            try:
                results[position] = _check_block(layout, checksums, position)
            except BaseException as exc:  # re-raised below, in the caller's thread
                raised[position] = exc
                stop.set()

    started = []
    try:
        for _ in range(min(n_blocks, _available_cpus()) - 1):
            thread = threading.Thread(target=work, name="currikit-audit")
            thread.start()
            started.append(thread)
        work()
    finally:
        stop.set()
        for thread in started:
            thread.join()
    if raised:
        raise raised[min(raised)]
    return results


def audit_shards(directory: str | os.PathLike[str]) -> AuditReport:
    """Re-verify a compiled corpus: sizes, checksums, the provenance file,
    orphans and schedule constraints. Each file is read and hashed once, the
    block files on one worker per available CPU; failures are listed in
    position order."""
    manifest = read_manifest(directory)
    layout = ShardLayout(Path(directory))
    report = AuditReport(discards=manifest.metadata.get("discards", {}))
    failures = report.checksum_failures
    checksums = manifest.checksums
    if checksums is None:
        failures.append(
            BlockFailure(MANIFEST_NAME, "checksums is null; a compiled tree lists one per block")
        )
    checked = _check_blocks(layout, checksums, manifest.n_blocks)
    report.blocks_checked = len(checked)
    failures.extend(f for f in checked if f is not None)
    if not layout.provenance_path.exists():
        failures.append(BlockFailure(PROVENANCE_NAME, "missing file"))
    else:
        data = layout.provenance_path.read_bytes()
        digest = _sha256_64((data,))
        if digest != manifest.provenance_checksum:
            failures.append(
                BlockFailure(
                    PROVENANCE_NAME,
                    f"checksum {digest} != manifest {manifest.provenance_checksum}",
                )
            )
        lines = len(data.splitlines())
        if lines != manifest.n_blocks:
            failures.append(
                BlockFailure(PROVENANCE_NAME, f"{lines} lines != {manifest.n_blocks} blocks")
            )
    named = {MANIFEST_NAME, PROVENANCE_NAME}
    named.update(layout.block_path(i).name for i in range(manifest.n_blocks))
    report.orphans = sorted(name for name in os.listdir(layout.directory) if name not in named)
    report.schedule_violations = validate_schedule(manifest)
    return report


@dataclass
class ShardStats:
    by_language: dict[str, dict[str, int]]  # code (or "-") -> kind name -> blocks
    total_blocks: int
    total_tokens: int

    def render(self) -> str:
        kinds = ("monolingual", "parallel", "replacement", "replay")
        header = f"{'ISO':<5}{'Language':<12}" + "".join(f"{k:>14}" for k in kinds)
        lines = [header]
        codes = [c for c in SEA_CODES if c in self.by_language]
        if "-" in self.by_language:
            codes.append("-")
        for code in codes:
            row = self.by_language[code]
            name = LANGUAGES[code].display_name if code in LANGUAGES else "(none)"
            lines.append(
                f"{code:<5}{name:<12}" + "".join(f"{row.get(k, 0):>14,}" for k in kinds)
            )
        lines.append(
            f"Total blocks: {self.total_blocks:,}   "
            f"total tokens: {self.total_tokens:,}"
        )
        return "\n".join(lines)


def shard_stats(directory: str | os.PathLike[str]) -> ShardStats:
    """Per-language, per-kind block counts for a compiled corpus."""
    manifest = read_manifest(directory)
    by_language: dict[str, dict[str, int]] = {}
    for e in manifest.entries:
        code = e.kind.language if e.kind.language is not None else "-"
        row = by_language.setdefault(code, {})
        row[e.kind.name] = row.get(e.kind.name, 0) + 1
    return ShardStats(
        by_language=by_language,
        total_blocks=manifest.n_blocks,
        total_tokens=manifest.total_tokens,
    )
