"""Curriculum schedules: ordered block kinds per strategy.

``STRATEGY_KINDS`` is the one place that says which non-replay kinds a
strategy schedules and in which phase order; building and validation both
read it. A schedule is built batch by batch. Every batch holds exactly one
replay block per four blocks, the remaining slots are filled from a global
strategy-specific kind sequence, and the order inside each batch is
randomized with keyed draws. Each kind key has one ``BlockKind`` and one
``ScheduleEntry``, shared by all its blocks.

For the mixed strategy, permutations are redrawn (bounded, then a
constructive fallback) until every run of non-replay blocks between two
replay blocks contains at least one monolingual and one parallel block,
measured on the final order across batch boundaries. A redraw shuffles the
batch's replay / monolingual / parallel class codes, not its blocks, and is
abandoned as soon as the blocks its Fisher-Yates pass has not yet settled
can no longer fill every run still open: this cut is exact, so it rejects
only passes the full check would reject too. Every attempt has its own
key, so cutting one short changes no later draw and no accepted order; the
accepted attempt's shuffle is applied to the batch's entries once.

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
another JSON type, a kind key that is not canonical, a language set that
``build_schedule`` would not write back unchanged, a tokenizer id that is
not a string, an unknown label style, an entry count that is not a
positive multiple of the batch, or a leftover outside
``[0, batch_size_blocks * BLOCK_TOKENS)``.
"""

from __future__ import annotations

import itertools
import json
import re
from collections import Counter
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

    def __reduce__(self):
        return type(self), (self.args[0], self.batch_index)


@dataclass(frozen=True)
class ScheduleEntry:
    """One scheduled block. Its position is its index in the manifest's
    entries and its batch is that index floored by ``batch_size_blocks``."""

    kind: BlockKind
    # The kind's canonical key, formatted once per entry object: a built or
    # parsed manifest shares one entry per key, so its blocks share the key.
    key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", self.kind.key())


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

    def kind_counts(self) -> dict[str, int]:
        return dict(Counter(e.key for e in self.entries))

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
            "entries": [e.key for e in self.entries],
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
            try:
                strategy = Strategy(doc["strategy"])
            except ValueError:
                raise ValueError(
                    f"malformed curriculum manifest: strategy={doc['strategy']!r}, "
                    f"want one of {', '.join(s.value for s in Strategy)}"
                ) from None
            language_set = doc["language_set"]
            try:
                canonical = _language_set(strategy, language_set)
            except ValueError:
                canonical = None
            if canonical != language_set:
                raise ValueError(f"malformed curriculum manifest: language_set={language_set!r} "
                                 f"is not a compile's: known codes in canonical order, once each")
            if type(doc["tokenizer_id"]) is not str:
                raise ValueError(f"malformed curriculum manifest: tokenizer_id="
                                 f"{doc['tokenizer_id']!r} is not a string")
            manifest = cls(
                strategy=strategy,
                seed=_manifest_int(doc, "seed"),
                batch_size_blocks=batch,
                entries=entries,
                language_set=canonical,
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


def _non_replay_entries(
    strategy: Strategy, total: int, langs: Sequence[str]
) -> list[ScheduleEntry]:
    """The global, pre-shuffle sequence of non-replay entries.

    Each kind name takes its languages round-robin from its own counter.
    Every kind key has one ``BlockKind`` and one ``ScheduleEntry``, shared
    by all its blocks.
    """
    names = STRATEGY_KINDS[strategy]
    first = (total + 1) // 2 if len(names) == 2 else total
    runs = []  # per kind name, its blocks in order
    for name, count in zip(names, (first, total - first)):
        entries = [ScheduleEntry(BlockKind(name, code)) for code in langs]
        runs.append(list(itertools.islice(itertools.cycle(entries), count)))
    sequence = [entry for run in runs for entry in run]
    if strategy is Strategy.MIXED:  # the two names alternate, the first first
        sequence[0::2], sequence[1::2] = runs
    return sequence


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


def _mixed_fallback(base: Sequence[ScheduleEntry], batch_index: int) -> list[ScheduleEntry]:
    """Deterministic batch order that always satisfies the run constraint.

    Lays the batch out as replay-terminated groups of three non-replay
    blocks, seeding every group with one monolingual and one parallel
    block, which also heals whatever open run was carried in.
    """
    monos = [e for e in base if e.kind.name == "monolingual"]
    pars = [e for e in base if e.kind.name == "parallel"]
    replays = [e for e in base if e.kind.name == "replay"]
    group_size = len(base) // len(replays) - 1 if replays else len(base)
    if replays and (len(monos) < len(replays) or len(pars) < len(replays)):
        raise ConstraintError(
            f"batch {batch_index} cannot satisfy the interleave constraint: "
            f"{len(monos)} monolingual / {len(pars)} parallel blocks "
            f"for {len(replays)} replay slots",
            batch_index,
        )
    order: list[ScheduleEntry] = []
    for replay in replays:
        group = [monos.pop(0), pars.pop(0)]
        while len(group) < group_size and (monos or pars):
            group.append(monos.pop(0) if len(monos) >= len(pars) else pars.pop(0))
        order.extend(group)
        order.append(replay)
    # any remainder (no replays in batch, or uneven groups) goes at the end
    order.extend(monos)
    order.extend(pars)
    return order


# The class codes a mixed redraw shuffles in place of the blocks.
_REPLAY, _MONO, _PAR = 0, 1, 2
_CLASS = {"replay": _REPLAY, "monolingual": _MONO, "parallel": _PAR}


def _passing_attempt(
    codes: list[int], carried: Sequence[int], attempts: Iterable[Iterable[int]]
) -> int | None:
    """The index of the first attempt whose shuffle of ``codes`` has no short run.

    ``codes`` holds the class code of each of the batch's blocks and
    ``carried`` those of the run carried in (empty, or a replay block and
    every block after it); attempt ``a`` of ``attempts`` gives the draws of
    its Fisher-Yates steps. Returns ``None`` after
    ``MAX_PERMUTATION_ATTEMPTS`` rejections, or before any draw when no
    order of ``codes`` passes.

    The cut: after a step, the unsettled prefix holds R replay, M
    monolingual and P parallel blocks, and the runs still open are the
    R - 1 runs between its own replay blocks, the run joined to the
    carried run and, once a replay block has settled, the run joined to
    the settled head (the settled blocks left of the leftmost settled
    replay). The prefix can be ordered freely, so it can fill them iff
    ``M - (R - 1) - lack >= 0``, where ``lack`` counts the carried run and
    the head if they hold no monolingual block, and likewise for P (with
    R = 0 they are one run, and the same sum decides). Settling a replay
    block leaves this slack as it is, once the run that block closes is
    checked; settling a block into a head that already holds its kind
    spends one. A pass is abandoned as soon as a closed run is short or a
    slack is negative, which is exactly when no order of the prefix
    passes, so the cut changes no accepted attempt.
    """
    replays = codes.count(_REPLAY)
    mono_slack = codes.count(_MONO) - replays + 1 - (bool(carried) and _MONO not in carried)
    par_slack = codes.count(_PAR) - replays + 1 - (bool(carried) and _PAR not in carried)
    if mono_slack < 0 or par_slack < 0:
        return None
    n = len(codes)
    for attempt, draws in zip(range(MAX_PERMUTATION_ATTEMPTS), attempts):
        order = codes.copy()
        mono, par = mono_slack, par_slack
        # The settled head holds (or, before a replay block settles, need
        # not hold) a monolingual / a parallel block.
        head_mono = head_par = True
        i = n
        for j in draws:
            i -= 1
            code = order[j]  # settles at i, which no later step reads
            order[j] = order[i]
            if code == _REPLAY:
                if not (head_mono and head_par):
                    break
                head_mono = head_par = False
            elif code == _MONO:
                if head_mono:
                    mono -= 1
                    if mono < 0:
                        break
                head_mono = True
            else:
                if head_par:
                    par -= 1
                    if par < 0:
                        break
                head_par = True
        else:
            return attempt
    return None


def _mixed_order(
    base: list[ScheduleEntry], open_run: list[ScheduleEntry], seed: int, batch_index: int
) -> list[ScheduleEntry]:
    """The first keyed shuffle of ``base`` whose runs all hold both kinds.

    Attempt ``a`` is the Fisher-Yates shuffle keyed ``(seed, "batch",
    batch_index, a)``, accepted when ``open_run + order`` has no short run.
    Attempts are judged on class codes by ``_passing_attempt``, which
    abandons a pass as soon as no order of its unsettled blocks can pass,
    an exact cut that rejects only passes the full check would reject; the
    accepted attempt's shuffle is then applied to ``base`` once. After
    ``MAX_PERMUTATION_ATTEMPTS`` rejections ``_mixed_fallback`` decides.
    """
    attempt = _passing_attempt(
        [_CLASS[e.kind.name] for e in base],
        [_CLASS[e.kind.name] for e in open_run],
        rng.attempts(len(base), seed, "batch", batch_index),
    )
    if attempt is not None:
        return rng.shuffled(base, seed, "batch", batch_index, attempt)
    order = _mixed_fallback(base, batch_index)
    if next(_short_runs(e.kind for e in open_run + order), None) is not None:
        raise ConstraintError(
            f"batch {batch_index} fallback violates the interleave constraint", batch_index
        )
    return order


def _language_set(strategy: Strategy, codes: Iterable[str]) -> list[str]:
    """What a ``strategy`` schedule records of ``codes``: canonical order, once each."""
    langs = sort_codes(codes)
    if not langs:
        raise ValueError("language_set must not be empty")
    if "en" in langs and STRATEGY_KINDS[strategy] != ("monolingual",):
        raise ValueError("English is implicit; language_set lists SEA languages")
    return langs


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
    langs = _language_set(strategy, language_set)
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
    sequence = _non_replay_entries(strategy, n_batches * non_replay_per_batch, langs)
    replay = ScheduleEntry(BlockKind.replay())

    entries: list[ScheduleEntry] = []
    open_run: list[ScheduleEntry] = []  # mixed: the last replay block and all after it
    for b in range(n_batches):
        base = [replay] * replay_per_batch
        base += sequence[b * non_replay_per_batch : (b + 1) * non_replay_per_batch]
        if strategy is Strategy.MIXED:
            order = _mixed_order(base, open_run, seed, b)
            last_replay = max(i for i, e in enumerate(order) if e is replay)
            open_run = order[last_replay:]
        else:
            order = rng.shuffled(base, seed, "batch", b, 0)
        entries += order

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
    broken rule and the positions involved. One pass over the entries
    gathers what every rule needs; the violations are then listed rule by
    rule, each rule's in position order.
    """
    v: list[Violation] = []
    entries = manifest.entries
    batch = manifest.batch_size_blocks
    strategy = manifest.strategy
    allowed = STRATEGY_KINDS[strategy]
    phased = strategy in (Strategy.PARALLEL_FIRST, Strategy.PARALLEL_LAST)
    early, late = allowed if phased else ("", "")

    if len(entries) % batch:
        v.append(
            Violation(
                "batch-multiple",
                (),
                f"{len(entries)} entries not a multiple of batch {batch}",
            )
        )

    replays = [0] * -(-len(entries) // batch)  # per batch
    domain: list[Violation] = []
    totals = {"monolingual": 0, "parallel": 0}
    per_language: dict[str, dict[str, int]] = {}  # blocks per language, per kind name
    runs: list[tuple[int, int, int, int]] = []  # interleave: short runs, as _short_runs
    opening: int | None = None
    mono = par = 0
    last_early_batch = -1
    first_late_batch: int | None = None
    for i, e in enumerate(entries):
        kind = e.kind
        name = kind.name
        if name == "replay":
            replays[i // batch] += 1
            if opening is not None and (mono == 0 or par == 0):
                runs.append((opening, i, mono, par))
            opening, mono, par = i, 0, 0
            continue
        if name == "monolingual":
            mono += 1
        else:
            par += 1
        if name in totals:
            totals[name] += 1
        if name not in allowed:
            domain.append(
                Violation("kind-domain", (i,), f"{kind.key()} not allowed in {strategy.value}")
            )
        language = kind.language
        if language is not None:
            if language not in manifest.language_set:
                domain.append(
                    Violation(
                        "language-domain",
                        (i,),
                        f"{language} not in the manifest language set",
                    )
                )
            counts = per_language.get(name)
            if counts is None:
                counts = per_language[name] = dict.fromkeys(manifest.language_set, 0)
            counts[language] = counts.get(language, 0) + 1
        if name == early:
            last_early_batch = i // batch
        elif name == late and first_late_batch is None:
            first_late_batch = i // batch

    want_replay = batch // REPLAY_DIVISOR
    for b, got in enumerate(replays):
        if got != want_replay:
            v.append(
                Violation(
                    "replay-ratio",
                    tuple(range(b * batch, min((b + 1) * batch, len(entries)))),
                    f"batch {b} has {got} replay blocks, want {want_replay}",
                )
            )
    v.extend(domain)

    if len(allowed) == 2 and abs(totals["monolingual"] - totals["parallel"]) > 1:
        v.append(
            Violation(
                "equal-ratio",
                (),
                f"{totals['monolingual']} monolingual vs {totals['parallel']} parallel blocks",
            )
        )

    if strategy is Strategy.MIXED:
        for opening, closing, run_mono, run_par in runs:
            v.append(
                Violation(
                    "interleave",
                    (opening + 1, closing),
                    f"run before position {closing} has "
                    f"{run_mono} monolingual and {run_par} parallel blocks",
                )
            )
    if first_late_batch is not None and last_early_batch > first_late_batch:
        v.append(
            Violation(
                "phase-order",
                (first_late_batch * batch,),
                f"{early} blocks appear after batch {first_late_batch} "
                f"(up to batch {last_early_batch}); at most one transition "
                f"batch may hold both",
            )
        )
    for name in ("monolingual", "parallel", "replacement"):
        counts = per_language.get(name)
        if counts and max(counts.values()) - min(counts.values()) > 1:
            v.append(
                Violation(
                    "language-balance",
                    (),
                    f"{name} blocks per language are uneven: {counts}",
                )
            )
    return v
