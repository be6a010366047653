"""Curriculum schedules: ordered block kinds per strategy.

``STRATEGY_KINDS`` is the one place that says which non-replay kinds a
strategy schedules and in which phase order; building and validation both
read it. A schedule is built batch by batch. Every batch holds exactly one
replay block per four blocks, the remaining slots are filled from a global
strategy-specific kind sequence, and the order inside each batch is
randomized with keyed draws. For the mixed strategy, permutations are
redrawn (bounded, then a constructive fallback) until every run of
non-replay blocks between two replay blocks contains at least one
monolingual and one parallel block, measured on the final order across
batch boundaries. A redraw is abandoned as soon as the settled tail of its
Fisher-Yates pass closes such a short run; every attempt has its own key,
so cutting one short changes no later draw and no accepted order.

Budgets are floored to whole batches; leftover tokens are reported on the
manifest, never padded.

A manifest stores each schedule fact once: an entry holds only its block
kind, and its position, its batch, the leftover tokens, the sequences per
step and the block size are computed from the entries, the batch size and
the budget.

The written format, ``curriculum-manifest-v5``, is one compact JSON object
that holds the schedule as two flat arrays in schedule order: ``entries``,
one canonical kind key per block (``"parallel:th"``, ``"replay"``), and
``checksums``, the bare 16-hex SHA-256-64 of each block file, or ``null``
for a schedule that has not been compiled. Position is the array index and
batch is the index floored by ``batch_size_blocks``. ``label_style`` is the
pair label style the blocks were compiled with, and
``provenance_checksum`` the SHA-256-64 of the tree's provenance file. The
file still echoes ``leftover_tokens``, ``sequences_per_step`` and
``block_tokens`` for its readers. ``from_json`` reads v5 only: any other
``curriculum-manifest-vN`` is refused with one line that asks for a
recompile, and so is any text a compile could not have written: a repeated
fact that disagrees with the computed one, an integer field holding
another JSON type, a kind key that is not canonical, an unknown label
style, an entry count that is not a positive multiple of the batch, or a
leftover outside ``[0, batch_size_blocks * BLOCK_TOKENS)``.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Sequence

from . import rng
from .corpus import sort_codes
from .packing import BLOCK_TOKENS, SEQUENCES_PER_BLOCK, BlockKind

REPLAY_DIVISOR = 4  # one block in four is replay, in every batch
MAX_PERMUTATION_ATTEMPTS = 1_000

MANIFEST_FORMAT = "curriculum-manifest-v5"
LABEL_STYLES = ("name", "code")

_CHECKSUMS = re.compile(r"(?:[0-9a-f]{16})*")
_ANY_FORMAT = re.compile(r"curriculum-manifest-v\d+")


class Strategy(str, Enum):
    MULTILINGUAL = "multilingual"
    MIXED = "mixed"
    PARALLEL_FIRST = "parallel-first"
    PARALLEL_LAST = "parallel-last"
    PARALLEL_ONLY = "parallel-only"
    MULTILINGUAL_REPLACEMENT = "multilingual-replacement"


# The non-replay kind names each strategy schedules, in phase order. Mixed
# alternates its two kinds; the other two-kind strategies schedule the first
# kind in the first half of the schedule and the second kind after it, in
# equal numbers.
STRATEGY_KINDS: dict[Strategy, tuple[str, ...]] = {
    Strategy.MULTILINGUAL: ("monolingual",),
    Strategy.MIXED: ("monolingual", "parallel"),
    Strategy.PARALLEL_FIRST: ("parallel", "monolingual"),
    Strategy.PARALLEL_LAST: ("monolingual", "parallel"),
    Strategy.PARALLEL_ONLY: ("parallel",),
    Strategy.MULTILINGUAL_REPLACEMENT: ("replacement",),
}


class SizingError(ValueError):
    """Budget or batch geometry cannot produce a whole schedule."""


class ConstraintError(RuntimeError):
    """A batch order satisfying the interleave constraint does not exist."""

    def __init__(self, message: str, batch_index: int):
        super().__init__(message)
        self.batch_index = batch_index


@dataclass(frozen=True)
class ScheduleEntry:
    """One scheduled block. Its position is its index in the manifest's
    entries and its batch is that index floored by ``batch_size_blocks``."""

    kind: BlockKind


@dataclass
class Violation:
    rule: str
    positions: tuple[int, ...]
    detail: str

    def __str__(self) -> str:
        where = ",".join(map(str, self.positions[:8]))
        return f"{self.rule} @ [{where}]: {self.detail}"


@dataclass
class CurriculumManifest:
    strategy: Strategy
    seed: int
    batch_size_blocks: int
    entries: list[ScheduleEntry]
    language_set: list[str]
    token_budget: int
    tokenizer_id: str
    metadata: dict = field(default_factory=dict)
    label_style: str = "name"
    # The bare 16-hex SHA-256-64 of each block file in schedule order and of
    # the provenance file, filled by write_shards just before it writes the
    # manifest; None for a schedule that has not been compiled.
    checksums: list[str] | None = None
    provenance_checksum: str | None = None

    @property
    def n_blocks(self) -> int:
        return len(self.entries)

    @property
    def n_batches(self) -> int:
        return len(self.entries) // self.batch_size_blocks

    @property
    def sequences_per_step(self) -> int:
        return self.batch_size_blocks * SEQUENCES_PER_BLOCK

    @property
    def total_tokens(self) -> int:
        return self.n_blocks * BLOCK_TOKENS

    @property
    def leftover_tokens(self) -> int:
        """Budget tokens below one whole batch, reported and never padded."""
        return self.token_budget - self.total_tokens

    def batches(self) -> Iterable[list[ScheduleEntry]]:
        b = self.batch_size_blocks
        for start in range(0, len(self.entries), b):
            yield self.entries[start : start + b]

    def kind_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for e in self.entries:
            counts[e.kind.key()] = counts.get(e.kind.key(), 0) + 1
        return counts

    def to_json(self) -> str:
        """Stable serialization: identical manifests are byte-identical."""
        doc = {
            "format": MANIFEST_FORMAT,
            "strategy": self.strategy.value,
            "seed": self.seed,
            "batch_size_blocks": self.batch_size_blocks,
            "sequences_per_step": self.sequences_per_step,
            "language_set": self.language_set,
            "token_budget": self.token_budget,
            "leftover_tokens": self.leftover_tokens,
            "tokenizer_id": self.tokenizer_id,
            "label_style": self.label_style,
            "block_tokens": BLOCK_TOKENS,
            "entries": [e.kind.key() for e in self.entries],
            "checksums": self.checksums,
            "provenance_checksum": self.provenance_checksum,
            "metadata": self.metadata,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CurriculumManifest":
        """Parse a v5 manifest; raises ``ValueError`` for an older format and
        for any text a compile could not write, a derived field that
        disagrees with the schedule included."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("not a curriculum manifest: not a JSON object")
        fmt = doc.get("format")
        if fmt != MANIFEST_FORMAT:
            if isinstance(fmt, str) and _ANY_FORMAT.fullmatch(fmt):
                raise ValueError(f"format {fmt} is no longer supported; recompile")
            raise ValueError(f"not a curriculum manifest: format={fmt!r}")
        try:
            batch = _manifest_int(doc, "batch_size_blocks")
            if batch <= 0:
                raise ValueError(
                    f"malformed curriculum manifest: batch_size_blocks={batch!r}"
                )
            entries = _entries(doc["entries"])
            checksums = _checksums(doc["checksums"], len(entries))
            provenance_checksum = doc["provenance_checksum"]
            if provenance_checksum is not None and not (
                type(provenance_checksum) is str
                and len(provenance_checksum) == 16
                and _CHECKSUMS.fullmatch(provenance_checksum)
            ):
                raise ValueError(
                    f"malformed curriculum manifest: provenance_checksum="
                    f"{provenance_checksum!r} is not 16 lowercase hex digits"
                )
            if doc["label_style"] not in LABEL_STYLES:
                raise ValueError(
                    f"malformed curriculum manifest: label_style={doc['label_style']!r}, "
                    f"want one of {', '.join(LABEL_STYLES)}"
                )
            metadata = doc.get("metadata", {})
            if not isinstance(metadata, dict):
                raise ValueError(
                    f"malformed curriculum manifest: metadata is a {type(metadata).__name__}"
                )
            if not entries or len(entries) % batch:
                raise ValueError(
                    f"malformed curriculum manifest: {len(entries)} entries, "
                    f"not a positive multiple of batch_size_blocks={batch}"
                )
            manifest = cls(
                strategy=Strategy(doc["strategy"]),
                seed=_manifest_int(doc, "seed"),
                batch_size_blocks=batch,
                entries=entries,
                language_set=list(doc["language_set"]),
                token_budget=_manifest_int(doc, "token_budget"),
                tokenizer_id=doc["tokenizer_id"],
                metadata=metadata,
                label_style=doc["label_style"],
                checksums=checksums,
                provenance_checksum=provenance_checksum,
            )
            for name, want in (
                ("leftover_tokens", manifest.leftover_tokens),
                ("sequences_per_step", manifest.sequences_per_step),
                ("block_tokens", BLOCK_TOKENS),
            ):
                if _manifest_int(doc, name) != want:
                    raise ValueError(
                        f"malformed curriculum manifest: {name}={doc[name]!r}, "
                        f"the schedule gives {want}"
                    )
            if not 0 <= manifest.leftover_tokens < batch * BLOCK_TOKENS:
                raise ValueError(
                    f"malformed curriculum manifest: leftover_tokens="
                    f"{manifest.leftover_tokens} is not below one batch "
                    f"({batch} x {BLOCK_TOKENS} tokens); the schedule is not "
                    f"the budget's floor"
                )
            return manifest
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed curriculum manifest: {exc!r}") from None


def _manifest_int(doc: dict, name: str) -> int:
    """``doc[name]`` if it is a JSON integer; ``true`` and ``2.0`` are refused."""
    value = doc[name]
    if type(value) is not int:
        raise ValueError(f"malformed curriculum manifest: {name}={value!r} is not an integer")
    return value


def _entries(keys: list) -> list[ScheduleEntry]:
    """One entry per kind key; each distinct key is parsed once, in file order."""
    if not isinstance(keys, list):
        raise ValueError(f"malformed curriculum manifest: entries is a {type(keys).__name__}")
    by_key = {}
    for key in dict.fromkeys(keys):
        if not isinstance(key, str):
            raise ValueError(f"malformed curriculum manifest: entry kind {key!r} is not a string")
        try:
            kind = BlockKind.from_key(key)
        except ValueError as exc:
            raise ValueError(f"malformed curriculum manifest: entry kind {key!r}: {exc}") from None
        if kind.key() != key:
            raise ValueError(f"malformed curriculum manifest: entry kind {key!r} is not canonical")
        by_key[key] = ScheduleEntry(kind)
    return [by_key[key] for key in keys]


def _checksums(checksums: list | None, n_blocks: int) -> list[str] | None:
    """``None``, or exactly one bare 16-hex checksum per block."""
    if checksums is None:
        return None
    if not isinstance(checksums, list):
        raise ValueError(f"malformed curriculum manifest: checksums is a {type(checksums).__name__}")
    if len(checksums) != n_blocks:
        raise ValueError(
            f"malformed curriculum manifest: {len(checksums)} checksums for {n_blocks} blocks"
        )
    if not (
        all(type(c) is str and len(c) == 16 for c in checksums)
        and _CHECKSUMS.fullmatch("".join(checksums))
    ):
        raise ValueError(
            "malformed curriculum manifest: checksums must be 16 lowercase hex digits each"
        )
    return checksums


def _non_replay_kinds(strategy: Strategy, total: int, langs: Sequence[str]) -> list[BlockKind]:
    """The global, pre-shuffle sequence of non-replay kinds.

    Each kind name takes its languages round-robin from its own counter.
    """
    names = STRATEGY_KINDS[strategy]
    if strategy is Strategy.MIXED:
        sequence = [names[j % 2] for j in range(total)]
    else:
        head = (total + 1) // 2 if len(names) == 2 else total
        sequence = [names[0]] * head + [names[-1]] * (total - head)
    languages = {name: itertools.cycle(langs) for name in names}
    return [BlockKind(name, next(languages[name])) for name in sequence]


def _short_runs(kinds: Iterable[BlockKind]) -> Iterator[tuple[int, int, int, int]]:
    """Runs between two replay blocks that lack a monolingual or a parallel block.

    Yields ``(opening, closing, monolingual, parallel)`` per such run: the
    indexes of its two replay blocks and the run's block counts. Blocks
    before the first replay block close no run.
    """
    opening: int | None = None
    mono = par = 0
    for i, kind in enumerate(kinds):
        if kind.name == "replay":
            if opening is not None and (mono == 0 or par == 0):
                yield opening, i, mono, par
            opening, mono, par = i, 0, 0
        elif kind.name == "monolingual":
            mono += 1
        else:
            par += 1


def _mixed_fallback(base: Sequence[BlockKind], batch_index: int) -> list[BlockKind]:
    """Deterministic batch order that always satisfies the run constraint.

    Lays the batch out as replay-terminated groups of three non-replay
    blocks, seeding every group with one monolingual and one parallel
    block, which also heals whatever open run was carried in.
    """
    monos = [k for k in base if k.name == "monolingual"]
    pars = [k for k in base if k.name == "parallel"]
    replays = [k for k in base if k.name == "replay"]
    group_size = len(base) // len(replays) - 1 if replays else len(base)
    if replays and (len(monos) < len(replays) or len(pars) < len(replays)):
        raise ConstraintError(
            f"batch {batch_index} cannot satisfy the interleave constraint: "
            f"{len(monos)} monolingual / {len(pars)} parallel blocks "
            f"for {len(replays)} replay slots",
            batch_index,
        )
    order: list[BlockKind] = []
    for _ in replays:
        group = [monos.pop(0), pars.pop(0)]
        while len(group) < group_size and (monos or pars):
            group.append(monos.pop(0) if len(monos) >= len(pars) else pars.pop(0))
        order.extend(group)
        order.append(BlockKind.replay())
    # any remainder (no replays in batch, or uneven groups) goes at the end
    order.extend(monos)
    order.extend(pars)
    return order


def _mixed_order(
    base: list[BlockKind], open_run: list[BlockKind], seed: int, batch_index: int
) -> list[BlockKind]:
    """The first keyed shuffle of ``base`` whose runs all hold both kinds.

    Attempt ``a`` is the Fisher-Yates shuffle keyed ``(seed, "batch",
    batch_index, a)``, accepted when ``open_run + order`` has no short run.
    A pass is abandoned as soon as its settled tail closes a short run
    between two of the batch's own replay blocks, which the full check
    would reject too; the full check still decides every surviving pass,
    including the run carried in as ``open_run``. After
    ``MAX_PERMUTATION_ATTEMPTS`` rejections ``_mixed_fallback`` decides.
    """
    for attempt in range(MAX_PERMUTATION_ATTEMPTS):
        order = list(base)
        closed = False  # a replay block is settled to the right of position i
        mono = par = 0  # blocks settled since the nearest such replay block
        for i, j in rng.swaps(len(order), seed, "batch", batch_index, attempt):
            order[i], order[j] = order[j], order[i]
            name = order[i].name
            if name == "replay":
                if closed and not (mono and par):
                    break
                closed, mono, par = True, 0, 0
            elif name == "monolingual":
                mono += 1
            else:
                par += 1
        else:
            if next(_short_runs(open_run + order), None) is None:
                return order
    order = _mixed_fallback(base, batch_index)
    if next(_short_runs(open_run + order), None) is not None:
        raise ConstraintError(
            f"batch {batch_index} fallback violates the interleave constraint", batch_index
        )
    return order


def build_schedule(
    strategy: Strategy | str,
    token_budget: int,
    language_set: Iterable[str],
    batch_size_blocks: int,
    seed: int,
    tokenizer_id: str = "byte_fallback",
) -> CurriculumManifest:
    """Build the full ordered schedule for one strategy and seed.

    The block count is the largest multiple of ``batch_size_blocks`` that
    fits the token budget. Languages cycle round-robin in the canonical
    code order, independently per kind.
    """
    strategy = Strategy(strategy)
    langs = sort_codes(language_set)
    if not langs:
        raise ValueError("language_set must not be empty")
    if "en" in langs and STRATEGY_KINDS[strategy] != ("monolingual",):
        raise ValueError("English is implicit; language_set lists SEA languages")
    if batch_size_blocks < REPLAY_DIVISOR or batch_size_blocks % REPLAY_DIVISOR:
        raise SizingError(
            f"batch_size_blocks must be a positive multiple of {REPLAY_DIVISOR}, "
            f"got {batch_size_blocks}"
        )
    max_blocks = token_budget // BLOCK_TOKENS
    n_blocks = max_blocks - (max_blocks % batch_size_blocks)
    if n_blocks <= 0:
        raise SizingError(
            f"budget {token_budget} is below one batch "
            f"({batch_size_blocks} x {BLOCK_TOKENS} tokens)"
        )
    n_batches = n_blocks // batch_size_blocks
    replay_per_batch = batch_size_blocks // REPLAY_DIVISOR
    non_replay_per_batch = batch_size_blocks - replay_per_batch
    kinds = _non_replay_kinds(strategy, n_batches * non_replay_per_batch, langs)

    entries: list[ScheduleEntry] = []
    open_run: list[BlockKind] = []  # mixed: the last replay block and all after it
    for b in range(n_batches):
        chunk = kinds[b * non_replay_per_batch : (b + 1) * non_replay_per_batch]
        base = [BlockKind.replay()] * replay_per_batch + chunk
        if strategy is Strategy.MIXED:
            order = _mixed_order(base, open_run, seed, b)
            last_replay = max(i for i, k in enumerate(order) if k.name == "replay")
            open_run = order[last_replay:]
        else:
            order = rng.shuffled(base, seed, "batch", b, 0)
        entries.extend(ScheduleEntry(k) for k in order)

    return CurriculumManifest(
        strategy=strategy,
        seed=seed,
        batch_size_blocks=batch_size_blocks,
        entries=entries,
        language_set=langs,
        token_budget=token_budget,
        tokenizer_id=tokenizer_id,
    )


def validate_schedule(manifest: CurriculumManifest) -> list[Violation]:
    """Audit a manifest against every strategy postcondition.

    Returns an empty list iff the schedule is valid; violations name the
    broken rule and the positions involved.
    """
    v: list[Violation] = []
    entries = manifest.entries
    batch = manifest.batch_size_blocks
    strategy = manifest.strategy

    if len(entries) % batch:
        v.append(
            Violation(
                "batch-multiple",
                (),
                f"{len(entries)} entries not a multiple of batch {batch}",
            )
        )

    want_replay = batch // REPLAY_DIVISOR
    for b, group in enumerate(manifest.batches()):
        got = sum(1 for e in group if e.kind.name == "replay")
        if got != want_replay:
            v.append(
                Violation(
                    "replay-ratio",
                    tuple(range(b * batch, b * batch + len(group))),
                    f"batch {b} has {got} replay blocks, want {want_replay}",
                )
            )

    allowed = STRATEGY_KINDS[strategy]
    for i, e in enumerate(entries):
        if e.kind.name != "replay" and e.kind.name not in allowed:
            v.append(
                Violation("kind-domain", (i,), f"{e.kind.key()} not allowed in {strategy.value}")
            )
        if e.kind.language is not None and e.kind.language not in manifest.language_set:
            v.append(
                Violation(
                    "language-domain",
                    (i,),
                    f"{e.kind.language} not in the manifest language set",
                )
            )

    mono = sum(1 for e in entries if e.kind.name == "monolingual")
    par = sum(1 for e in entries if e.kind.name == "parallel")
    if len(allowed) == 2 and abs(mono - par) > 1:
        v.append(
            Violation(
                "equal-ratio", (), f"{mono} monolingual vs {par} parallel blocks"
            )
        )

    if strategy is Strategy.MIXED:
        for opening, closing, run_mono, run_par in _short_runs(e.kind for e in entries):
            v.append(
                Violation(
                    "interleave",
                    (opening + 1, closing),
                    f"run before position {closing} has "
                    f"{run_mono} monolingual and {run_par} parallel blocks",
                )
            )
    if strategy in (Strategy.PARALLEL_FIRST, Strategy.PARALLEL_LAST):
        v.extend(_phase_violations(manifest))
    v.extend(_language_balance_violations(manifest))
    return v


def _phase_violations(manifest: CurriculumManifest) -> list[Violation]:
    early, late = STRATEGY_KINDS[manifest.strategy]
    last_early_batch = -1
    first_late_batch = None
    for b, group in enumerate(manifest.batches()):
        names = {e.kind.name for e in group}
        if early in names:
            last_early_batch = b
        if late in names and first_late_batch is None:
            first_late_batch = b
    if first_late_batch is not None and last_early_batch > first_late_batch:
        return [
            Violation(
                "phase-order",
                (first_late_batch * manifest.batch_size_blocks,),
                f"{early} blocks appear after batch {first_late_batch} "
                f"(up to batch {last_early_batch}); at most one transition "
                f"batch may hold both",
            )
        ]
    return []


def _language_balance_violations(manifest: CurriculumManifest) -> list[Violation]:
    out = []
    for name in ("monolingual", "parallel", "replacement"):
        counts: dict[str, int] = {code: 0 for code in manifest.language_set}
        seen = False
        for e in manifest.entries:
            if e.kind.name == name and e.kind.language is not None:
                counts[e.kind.language] = counts.get(e.kind.language, 0) + 1
                seen = True
        if seen and max(counts.values()) - min(counts.values()) > 1:
            out.append(
                Violation(
                    "language-balance",
                    (),
                    f"{name} blocks per language are uneven: {counts}",
                )
            )
    return out
