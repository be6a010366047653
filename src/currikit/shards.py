"""Bit-exact on-disk layout for compiled corpora.

One file per block (little-endian uint32 ids, exactly 1,048,576 bytes),
one sidecar record per block with its checksum and provenance, and the
manifest written last as the commit marker: a directory containing a
manifest is guaranteed to contain every block it names.

A block's checksum is the 64-bit BLAKE2b of its file (``b2sum -l 64``
prints the same hex). Its record holds ``"blake2b-64:<hex>"``, and a v3
manifest lists the bare hex of every block in its ``checksums`` array, so
the manifest commits to block content: ``audit`` hashes each block once and
checks the digest against both. v2 trees have no manifest checksums and
are checked against their records alone; v1 records hold the bare hex of
the file's 64-bit FNV-1a. A record whose algorithm disagrees with its
manifest's format fails, and so does a record whose position or tokenizer
disagrees with the manifest, and a block file or record past the
manifest's last block (an orphan).
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .corpus import LANGUAGES, SEA_CODES
from .packing import BLOCK_TOKENS, TokenBlock, block_checksum, fnv1a64
from .schedule import (
    MANIFEST_FORMAT,
    MANIFEST_FORMAT_V1,
    MANIFEST_NAME,
    CurriculumManifest,
    Violation,
    validate_schedule,
)

BLOCK_BYTES = BLOCK_TOKENS * 4
_BLOCK_FILE = re.compile(r"block_(\d+)\.(?:bin|meta\.json)")


class ConsistencyError(RuntimeError):
    """Block stream and manifest disagree."""

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position


class LayoutError(RuntimeError):
    """Directory does not hold a readable compiled corpus."""


@dataclass(frozen=True)
class ShardLayout:
    directory: Path

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    def block_path(self, position: int) -> Path:
        return self.directory / f"block_{position:08d}.bin"

    def record_path(self, position: int) -> Path:
        return self.directory / f"block_{position:08d}.meta.json"


def _checksum_field(hex_digest: str) -> str:
    return f"blake2b-64:{hex_digest}"


def _block_digest(manifest_format: str, data: bytes) -> str:
    """The bare hex checksum of a block file's bytes under a manifest format."""
    if manifest_format == MANIFEST_FORMAT_V1:
        return f"{fnv1a64(data):016x}"
    return f"{block_checksum(np.frombuffer(data, dtype='<u4')):016x}"


def _block_record(position: int, block: TokenBlock, hex_digest: str) -> str:
    doc = {
        "position": position,
        "kind": block.kind.name,
        "language": block.kind.language,
        "tokenizer_id": block.tokenizer_id,
        "checksum": _checksum_field(hex_digest),
        "seed_used": block.seed_used,
        "provenance": [
            {"source": s.source_id, "first": s.first_ordinal, "last": s.last_ordinal}
            for s in block.provenance
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_shards(
    blocks: Iterable[TokenBlock],
    manifest: CurriculumManifest,
    directory: str | os.PathLike[str],
) -> ShardLayout:
    """Persist a block stream whose order matches the manifest entries.

    Writes every block and its record and fills ``manifest.checksums`` from
    them, but never writes the manifest: the caller finishes the manifest
    and writes it with ``commit_manifest``. A kind mismatch or a count
    mismatch raises before that, so a crashed or inconsistent run never
    looks complete.
    """
    layout = ShardLayout(Path(directory))
    layout.directory.mkdir(parents=True, exist_ok=True)
    it = iter(blocks)
    checksums = []
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
        hex_digest = f"{block.checksum:016x}"
        layout.block_path(position).write_bytes(block.ids.astype("<u4", copy=False))
        layout.record_path(position).write_text(
            _block_record(position, block, hex_digest), encoding="utf-8"
        )
        checksums.append(hex_digest)
    try:
        next(it)
    except StopIteration:
        pass
    else:
        raise ConsistencyError(
            f"block stream continues past the {len(checksums)} manifest entries",
            len(checksums),
        )
    manifest.checksums = checksums
    return layout


def commit_manifest(layout: ShardLayout, manifest: CurriculumManifest) -> None:
    """Write the manifest, the marker that the tree is complete."""
    layout.manifest_path.write_text(manifest.to_json(), encoding="utf-8")


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
        lines.extend(f"  {name}: orphan, past the manifest's blocks" for name in self.orphans[:20])
        lines.extend(f"  {v}" for v in self.schedule_violations[:20])
        if self.discards:
            lines.append(f"discard report: {json.dumps(self.discards, sort_keys=True)}")
        lines.append("audit: PASS" if self.passed else "audit: FAIL")
        return "\n".join(lines)


def _orphans(directory: Path, n_blocks: int) -> list[str]:
    """Block files and records that no position of the manifest names."""
    names = sorted(
        path.name
        for pattern in ("block_*.bin", "block_*.meta.json")
        for path in directory.glob(pattern)
    )
    return [name for name in names if not _names_a_position(name, n_blocks)]


def _names_a_position(name: str, n_blocks: int) -> bool:
    """Whether ``name`` is the block file or record name of a position below ``n_blocks``."""
    match = _BLOCK_FILE.fullmatch(name)
    return match is not None and match[1] == f"{int(match[1]):08d}" and int(match[1]) < n_blocks


def audit_shards(directory: str | os.PathLike[str]) -> AuditReport:
    """Re-verify a compiled corpus: sizes, checksums, records, orphans and
    schedule constraints. Each block file is read and hashed once."""
    manifest = read_manifest(directory)
    layout = ShardLayout(Path(directory))
    report = AuditReport(discards=manifest.metadata.get("discards", {}))
    checksums = manifest.checksums
    if manifest.format == MANIFEST_FORMAT and checksums is None:
        report.checksum_failures.append(
            BlockFailure(MANIFEST_NAME, "checksums is null; a compiled tree lists one per block")
        )
    for position, entry in enumerate(manifest.entries):
        bin_path = layout.block_path(position)
        rec_path = layout.record_path(position)
        report.blocks_checked += 1
        if not bin_path.exists():
            report.checksum_failures.append(BlockFailure(bin_path.name, "missing file"))
            continue
        size = bin_path.stat().st_size
        if size != BLOCK_BYTES:
            report.checksum_failures.append(
                BlockFailure(bin_path.name, f"size {size} != {BLOCK_BYTES}")
            )
            continue
        if not rec_path.exists():
            report.checksum_failures.append(BlockFailure(rec_path.name, "missing record"))
            continue
        try:
            record = json.loads(rec_path.read_text(encoding="utf-8"))
        except ValueError as exc:  # not JSON, or not UTF-8
            report.checksum_failures.append(
                BlockFailure(rec_path.name, f"unreadable record: {exc}")
            )
            continue
        if not isinstance(record, dict):
            report.checksum_failures.append(
                BlockFailure(rec_path.name, "record is not a JSON object")
            )
            continue
        digest = _block_digest(manifest.format, bin_path.read_bytes())
        recorded = record.get("checksum")
        expected = digest if manifest.format == MANIFEST_FORMAT_V1 else _checksum_field(digest)
        if expected != recorded:
            report.checksum_failures.append(
                BlockFailure(bin_path.name, f"checksum {expected} != recorded {recorded}")
            )
        if checksums is not None and digest != checksums[position]:
            report.checksum_failures.append(
                BlockFailure(
                    bin_path.name, f"checksum {digest} != manifest {checksums[position]}"
                )
            )
        mismatches = [
            f"{name} {record.get(name)!r} != manifest {want!r}"
            for name, want in (
                ("kind", entry.kind.name),
                ("language", entry.kind.language),
                ("position", position),
                ("tokenizer_id", manifest.tokenizer_id),
            )
            if record.get(name) != want or type(record.get(name)) is not type(want)
        ]
        if mismatches:
            report.checksum_failures.append(
                BlockFailure(rec_path.name, "record " + "; ".join(mismatches))
            )
    report.orphans = _orphans(layout.directory, manifest.n_blocks)
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
