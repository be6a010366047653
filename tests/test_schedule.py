import dataclasses
import functools
import itertools
import json
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from currikit import rng, schedule
from currikit.packing import BLOCK_TOKENS, BlockKind
from currikit.schedule import (
    MANIFEST_FORMAT,
    ConstraintError,
    CurriculumManifest,
    ScheduleEntry,
    SizingError,
    Strategy,
    build_schedule,
    validate_schedule,
)
from helpers import batches, reference_schedule, reference_validate, whole_shuffle_mixed_order

ALL_STRATEGIES = list(Strategy)
LANGS = ["id", "km", "lo", "ms", "my", "ta", "th", "tl", "vi", "zh"]


def blocks_budget(n):
    return n * BLOCK_TOKENS


def test_parallel_only_twelve_blocks_example():
    m = build_schedule(Strategy.PARALLEL_ONLY, blocks_budget(12) + 1, ["id"], 4, seed=7)
    assert m.n_blocks == 12
    counts = m.kind_counts()
    assert counts["replay"] == 3
    assert counts["parallel:id"] == 9
    for batch in batches(m):
        assert sum(1 for e in batch if e.kind.name == "replay") == 1
    assert m.leftover_tokens == 1


def test_multilingual_round_robin_language_uniformity():
    # 160 blocks at batch 4: 120 non-replay entries over 10 languages,
    # round robin gives exactly 12 monolingual blocks per language
    m = build_schedule(Strategy.MULTILINGUAL, blocks_budget(160), LANGS, 4, seed=0)
    counts = m.kind_counts()
    per_lang = [counts[f"monolingual:{c}"] for c in LANGS]
    assert per_lang == [12] * 10
    assert counts["replay"] == 40


def test_multilingual_uneven_total_stays_balanced():
    # non-replay total not divisible by the language count: counts may
    # differ by at most one
    m = build_schedule(Strategy.MULTILINGUAL, blocks_budget(56), LANGS, 8, seed=0)
    counts = m.kind_counts()
    non_replay = 56 - 56 // 4
    per_lang = [counts.get(f"monolingual:{c}", 0) for c in LANGS]
    assert sum(per_lang) == non_replay
    assert max(per_lang) - min(per_lang) <= 1


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
@pytest.mark.parametrize("batch", [4, 8, 16])
def test_replay_exactness_everywhere(strategy, batch):
    m = build_schedule(strategy, blocks_budget(batch * 6), ["id", "th"], batch, seed=3)
    for b, group in enumerate(batches(m)):
        assert sum(1 for e in group if e.kind.name == "replay") == batch // 4, (
            strategy,
            batch,
            b,
        )
    counts = m.kind_counts()
    assert counts["replay"] == m.n_blocks // 4


def test_equal_ratio_strategies():
    for strategy in (Strategy.MIXED, Strategy.PARALLEL_FIRST, Strategy.PARALLEL_LAST):
        m = build_schedule(strategy, blocks_budget(44), ["id", "th", "vi"], 4, seed=9)
        counts = m.kind_counts()
        mono = sum(v for k, v in counts.items() if k.startswith("monolingual"))
        par = sum(v for k, v in counts.items() if k.startswith("parallel"))
        assert abs(mono - par) <= 1


def test_parallel_first_phase_order():
    m = build_schedule(Strategy.PARALLEL_FIRST, blocks_budget(32), ["id"], 8, seed=1)
    batch_kinds = []
    for group in batches(m):
        names = {e.kind.name for e in group if e.kind.name != "replay"}
        batch_kinds.append(names)
    transition = [b for b, names in enumerate(batch_kinds) if len(names) == 2]
    assert len(transition) <= 1
    last_par = max(b for b, n in enumerate(batch_kinds) if "parallel" in n)
    first_mono = min(b for b, n in enumerate(batch_kinds) if "monolingual" in n)
    assert last_par <= first_mono or (transition and last_par == transition[0])


@pytest.mark.parametrize("strategy", [Strategy.PARALLEL_FIRST, Strategy.PARALLEL_LAST])
@pytest.mark.parametrize("seed", range(25))
def test_phase_monotonicity_many_seeds(strategy, seed):
    m = build_schedule(strategy, blocks_budget(40), ["id", "th"], 8, seed=seed)
    assert validate_schedule(m) == []


def test_mixed_interleave_constraint_holds():
    for seed in range(50):
        m = build_schedule(Strategy.MIXED, blocks_budget(64), ["id", "th"], 8, seed=seed)
        assert validate_schedule(m) == []


def test_budget_arithmetic_ten_billion():
    m = build_schedule(Strategy.MULTILINGUAL, 10 * 10**9, LANGS, 8, seed=0)
    assert m.n_blocks == 38_144
    assert m.sequences_per_step == 512
    m16 = build_schedule(Strategy.MULTILINGUAL, blocks_budget(32), LANGS, 16, seed=0)
    assert m16.sequences_per_step == 1024


def test_budget_below_one_batch_raises():
    with pytest.raises(SizingError):
        build_schedule(Strategy.MULTILINGUAL, blocks_budget(4) - 1, ["id"], 4, seed=0)


def test_batch_size_must_be_multiple_of_four():
    for bad in (0, 2, 3, 6, -4):
        with pytest.raises(SizingError):
            build_schedule(Strategy.MULTILINGUAL, blocks_budget(48), ["id"], bad, seed=0)


def test_english_not_allowed_in_parallel_language_set():
    with pytest.raises(ValueError, match="English is implicit"):
        build_schedule(Strategy.PARALLEL_ONLY, blocks_budget(8), ["en", "id"], 4, seed=0)


def test_seed_determinism_and_sensitivity():
    kwargs = dict(
        strategy=Strategy.MIXED,
        token_budget=blocks_budget(32),
        language_set=["id", "th"],
        batch_size_blocks=8,
    )
    a = build_schedule(seed=1, **kwargs)
    b = build_schedule(seed=1, **kwargs)
    assert a.to_json() == b.to_json()
    c = build_schedule(seed=2, **kwargs)
    orders_a = [[e.kind.key() for e in batch] for batch in batches(a)]
    orders_c = [[e.kind.key() for e in batch] for batch in batches(c)]
    assert orders_a != orders_c


def test_manifest_json_round_trip():
    m = build_schedule(Strategy.PARALLEL_LAST, blocks_budget(16), ["km", "lo"], 4, seed=5)
    again = CurriculumManifest.from_json(m.to_json())
    assert again.to_json() == m.to_json()
    assert again.entries == m.entries
    assert again.strategy is Strategy.PARALLEL_LAST


@pytest.mark.parametrize("version", [1, 2, 3, 4])
def test_from_json_refuses_every_other_format(version):
    text = build_schedule(Strategy.MIXED, blocks_budget(8), ["id"], 4, seed=5).to_json()
    assert json.loads(text)["format"] == MANIFEST_FORMAT
    old = text.replace(f'"{MANIFEST_FORMAT}"', f'"curriculum-manifest-v{version}"')
    with pytest.raises(ValueError) as err:
        CurriculumManifest.from_json(old)
    assert str(err.value) == (
        f"format curriculum-manifest-v{version} is no longer supported; recompile"
    )


def _with_checksums(manifest):
    return dataclasses.replace(
        manifest,
        checksums=[f"{rng.hash64('block', i):016x}" for i in range(manifest.n_blocks)],
        provenance_checksum=f"{rng.hash64('provenance'):016x}",
    )


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
@pytest.mark.parametrize("checksums", [False, True])
def test_v3_round_trip_every_strategy(strategy, checksums):
    m = build_schedule(strategy, blocks_budget(24) + 99, ["id", "th"], 8, seed=3)
    if checksums:
        m = _with_checksums(m)
    text = m.to_json()
    doc = json.loads(text)
    assert text == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    assert doc["entries"] == [e.kind.key() for e in m.entries]
    assert doc["checksums"] == m.checksums
    assert doc["provenance_checksum"] == m.provenance_checksum
    again = CurriculumManifest.from_json(text)
    assert again == m
    assert again.to_json() == text


def test_v3_builds_each_distinct_kind_once():
    m = build_schedule(Strategy.MIXED, blocks_budget(32), ["id", "th"], 8, seed=1)
    again = CurriculumManifest.from_json(m.to_json())
    assert len({id(e.kind) for e in again.entries}) == len(m.kind_counts())


def _manifest_doc(**changes):
    m = _with_checksums(build_schedule(Strategy.PARALLEL_ONLY, blocks_budget(8), ["id"], 4, seed=7))
    doc = json.loads(m.to_json())
    doc.update(changes)
    return doc


_REFUSED = {
    "replay with an empty language": lambda d: d["entries"].__setitem__(3, "replay:"),
    "unknown kind": lambda d: d["entries"].__setitem__(0, "bilingual:id"),
    "kind key not a string": lambda d: d["entries"].__setitem__(0, 7),
    "entries not an array": lambda d: d.update(entries="replay"),
    "one checksum short": lambda d: d["checksums"].pop(),
    "one checksum extra": lambda d: d["checksums"].append("0" * 16),
    "checksums not an array": lambda d: d.update(checksums="0" * 16),
    "upper-case hex": lambda d: d["checksums"].__setitem__(2, "ABCDEF0123456789"),
    "non-hex checksum": lambda d: d["checksums"].__setitem__(2, "0123456789abcdeg"),
    "15-digit checksum": lambda d: d["checksums"].__setitem__(2, "0" * 15),
    "prefixed checksum": lambda d: d["checksums"].__setitem__(2, "blake2b-64:" + "0" * 16),
    "integer checksum": lambda d: d["checksums"].__setitem__(2, 12),
    "missing checksums": lambda d: d.pop("checksums"),
    "upper-case provenance checksum": lambda d: d.update(provenance_checksum="ABCDEF0123456789"),
    "integer provenance checksum": lambda d: d.update(provenance_checksum=12),
    "missing provenance checksum": lambda d: d.pop("provenance_checksum"),
    "unknown label style": lambda d: d.update(label_style="iso"),
    "missing label style": lambda d: d.pop("label_style"),
    "entries not a batch multiple": lambda d: (
        d["entries"].pop(), d["checksums"].pop(), d.update(leftover_tokens=BLOCK_TOKENS)
    ),
    "a whole batch dropped": lambda d: (
        [(d["entries"].pop(), d["checksums"].pop()) for _ in range(4)],
        d.update(leftover_tokens=4 * BLOCK_TOKENS),
    ),
    "budget below the schedule": lambda d: d.update(
        token_budget=d["token_budget"] - 1, leftover_tokens=-1
    ),
    "batch_size_blocks true": lambda d: d.update(batch_size_blocks=True),
    "batch_size_blocks float": lambda d: d.update(batch_size_blocks=4.0),
    "seed true": lambda d: d.update(seed=True),
    "token_budget float": lambda d: d.update(token_budget=float(d["token_budget"])),
    "leftover_tokens false": lambda d: d.update(leftover_tokens=False),
    "sequences_per_step float": lambda d: d.update(sequences_per_step=256.0),
    "block_tokens float": lambda d: d.update(block_tokens=float(BLOCK_TOKENS)),
}


@pytest.mark.parametrize("case", sorted(_REFUSED))
def test_from_json_refuses_what_a_compile_cannot_write(case):
    doc = _manifest_doc()
    CurriculumManifest.from_json(json.dumps(doc))  # the untouched document reads
    _REFUSED[case](doc)
    with pytest.raises(ValueError, match="malformed curriculum manifest"):
        CurriculumManifest.from_json(json.dumps(doc))


@pytest.mark.parametrize("first, second", [("replay:", "bilingual:id"), ("bilingual:id", "replay:")])
def test_v3_names_the_first_bad_kind_in_file_order(first, second):
    # Two bad keys in either order: the error names the earlier one, so the
    # message does not depend on the process's string hashing.
    doc = _manifest_doc()
    doc["entries"][1], doc["entries"][5] = first, second
    with pytest.raises(ValueError) as err:
        CurriculumManifest.from_json(json.dumps(doc))
    assert f"entry kind {first!r}" in str(err.value)
    assert repr(second) not in str(err.value)


def test_validate_self_consistency_all_strategies():
    for strategy in ALL_STRATEGIES:
        m = build_schedule(strategy, blocks_budget(24), ["id", "th"], 4, seed=4)
        assert validate_schedule(m) == [], strategy


def _mutate(manifest, position, kind):
    entries = list(manifest.entries)
    entries[position] = dataclasses.replace(entries[position], kind=kind)
    return dataclasses.replace(manifest, entries=entries)


def test_validate_flags_replay_ratio_violation():
    m = build_schedule(Strategy.PARALLEL_ONLY, blocks_budget(12), ["id"], 4, seed=7)
    replay_pos = next(i for i, e in enumerate(m.entries) if e.kind.name == "replay")
    bad = _mutate(m, replay_pos, BlockKind.parallel("id"))
    rules = {v.rule for v in validate_schedule(bad)}
    assert "replay-ratio" in rules


def test_validate_flags_interleave_violation():
    m = build_schedule(Strategy.MIXED, blocks_budget(24), ["id"], 4, seed=2)
    # turn every monolingual entry between the first two replays into parallel
    entries = list(m.entries)
    replay_positions = [i for i, e in enumerate(entries) if e.kind.name == "replay"]
    lo, hi = replay_positions[0], replay_positions[1]
    bad = m
    for i in range(lo + 1, hi):
        if entries[i].kind.name == "monolingual":
            bad = _mutate(bad, i, BlockKind.parallel("id"))
    interleave = [v for v in validate_schedule(bad) if v.rule == "interleave"]
    assert len(interleave) == 1
    assert interleave[0].positions == (lo + 1, hi)
    assert interleave[0].detail == (
        f"run before position {hi} has 0 monolingual and {hi - lo - 1} parallel blocks"
    )


def test_validate_flags_kind_domain_violation():
    m = build_schedule(Strategy.MULTILINGUAL, blocks_budget(8), ["id"], 4, seed=0)
    mono_pos = next(i for i, e in enumerate(m.entries) if e.kind.name == "monolingual")
    bad = _mutate(m, mono_pos, BlockKind.parallel("id"))
    rules = {v.rule for v in validate_schedule(bad)}
    assert "kind-domain" in rules


def test_validate_flags_phase_violation():
    m = build_schedule(Strategy.PARALLEL_FIRST, blocks_budget(32), ["id"], 8, seed=1)
    # put a parallel entry into the last batch (monolingual phase)
    last_batch = range(m.n_blocks - m.batch_size_blocks, m.n_blocks)
    target = next(i for i in last_batch if m.entries[i].kind.name == "monolingual")
    bad = _mutate(m, target, BlockKind.parallel("id"))
    rules = {v.rule for v in validate_schedule(bad)}
    assert "phase-order" in rules


def test_mixed_fallback_unsatisfiable_batch():
    # A hand-made degenerate batch: all non-replay entries monolingual.
    # The builder never produces this, so drive the fallback directly.
    from currikit.schedule import _mixed_fallback

    replay, mono = ScheduleEntry(BlockKind.replay()), ScheduleEntry(BlockKind.monolingual("id"))
    base = [replay] * 2 + [mono] * 6
    with pytest.raises(ConstraintError) as err:
        _mixed_fallback(base, batch_index=5)
    assert err.value.batch_index == 5


def test_mixed_fallback_closes_the_carried_run():
    from currikit.schedule import _mixed_fallback, _short_runs

    mono, par, replay = (
        ScheduleEntry(BlockKind.monolingual("id")),
        ScheduleEntry(BlockKind.parallel("id")),
        ScheduleEntry(BlockKind.replay()),
    )
    open_run = [replay, mono, mono]  # no parallel block since the last replay
    base = [replay] * 2 + [mono, par] * 3
    assert next(_short_runs(e.kind for e in open_run + base)) == (0, 3, 2, 0)
    order = _mixed_fallback(base, batch_index=0)
    assert sorted(order, key=lambda e: e.kind.key()) == sorted(base, key=lambda e: e.kind.key())
    assert list(_short_runs(e.kind for e in open_run + order)) == []


@pytest.mark.parametrize("attempts", [0, 1])
@pytest.mark.parametrize("batch", [8, 16])
def test_mixed_build_validates_when_attempts_run_out(monkeypatch, attempts, batch):
    monkeypatch.setattr(schedule, "MAX_PERMUTATION_ATTEMPTS", attempts)
    m = build_schedule(Strategy.MIXED, blocks_budget(12 * batch), LANGS[:3], batch, seed=3)
    assert m.n_blocks == 12 * batch
    assert validate_schedule(m) == []


NON_REPLAY = st.builds(
    BlockKind, st.sampled_from(["monolingual", "parallel"]), st.sampled_from(["id", "th"])
)


@settings(max_examples=60, deadline=None)
@given(
    batch=st.sampled_from(range(4, 33, 4)),
    data=st.data(),
    carried=st.none() | st.lists(NON_REPLAY, max_size=6),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_mixed_order_matches_whole_shuffle_reference(batch, data, carried, seed):
    replays = batch // 4
    chunk = data.draw(st.lists(NON_REPLAY, min_size=batch - replays, max_size=batch - replays))
    replay = ScheduleEntry(BlockKind.replay())
    base = [replay] * replays + [ScheduleEntry(k) for k in chunk]
    open_run = [] if carried is None else [replay, *map(ScheduleEntry, carried)]
    try:
        want = whole_shuffle_mixed_order(base, open_run, seed, 9)
    except ConstraintError:
        want = None
    keys = []  # the key of every attempt drawn, in order
    attempts = rng.attempts

    def recorded_attempts(n, *key):
        for attempt, draws in enumerate(attempts(n, *key)):
            keys.append((n, *key, attempt))
            yield draws

    with (
        mock.patch.object(rng, "attempts", recorded_attempts),
        mock.patch.object(schedule, "_mixed_fallback", wraps=schedule._mixed_fallback) as fallback,
    ):
        try:
            order = schedule._mixed_order(base, open_run, seed, 9)
        except ConstraintError:
            order = None
    if want is None:
        assert order is None and fallback.call_count == 1
        return
    attempt, want_order = want
    assert order == want_order
    if attempt is None:
        assert fallback.call_count == 1
        drawn = schedule.MAX_PERMUTATION_ATTEMPTS
    else:
        assert fallback.call_count == 0
        drawn = attempt + 1
    assert keys == [(batch, seed, "batch", 9, a) for a in range(drawn)]


_CODE_KINDS = (BlockKind.replay(), BlockKind.monolingual("id"), BlockKind.parallel("id"))


def _orders(codes):
    """Every distinct order of a multiset of class codes."""
    if not codes:
        yield ()
        return
    for code in sorted(set(codes)):
        rest = list(codes)
        rest.remove(code)
        for tail in _orders(rest):
            yield (code, *tail)


@functools.cache
def _fillable(prefix, settled, carried):
    """Whether some order of ``prefix`` (a sorted tuple of class codes)
    gives ``carried + order + settled`` no short run."""
    return any(
        next(schedule._short_runs(_CODE_KINDS[c] for c in carried + order + settled), None) is None
        for order in _orders(prefix)
    )


def test_mixed_cut_is_exact_by_brute_force():
    # Identity draws settle a class sequence from its end, one block per
    # step, so the step at which a pass is abandoned shows the cut: it must
    # come at the first step after which no order of the unsettled prefix
    # passes, and never while one does. A batch no order of which passes is
    # refused before any draw.
    outcomes = {"refused": 0, "cut": 0, "accepted": 0}
    for n in range(2, 9):
        for seq in itertools.product(range(3), repeat=n):
            for carried in ((), (0,), (0, 1), (0, 2), (0, 1, 2)):
                pulled = []  # identity draws, recorded as the pass takes them
                draws = (pulled.append(i) or i for i in range(n - 1, 0, -1))
                got = schedule._passing_attempt(list(seq), carried, [draws])
                if not _fillable(tuple(sorted(seq)), (), carried):
                    assert (got, pulled) == (None, []), (seq, carried)
                    outcomes["refused"] += 1
                    continue
                cut = next(
                    (i for i in range(n - 1, 0, -1)
                     if not _fillable(tuple(sorted(seq[:i])), seq[i:], carried)),
                    None,
                )
                if cut is None:
                    assert (got, len(pulled)) == (0, n - 1), (seq, carried)
                    outcomes["accepted"] += 1
                else:
                    assert (got, len(pulled)) == (None, n - cut), (seq, carried)
                    outcomes["cut"] += 1
    assert min(outcomes.values()) > 1_000, outcomes


@settings(max_examples=60, deadline=None)
@given(
    strategy=st.sampled_from(ALL_STRATEGIES),
    batches=st.integers(min_value=1, max_value=40),
    batch=st.sampled_from(range(4, 33, 4)),
    langs=st.sampled_from([1, 2, 10]).flatmap(
        lambda k: st.permutations(LANGS).map(lambda codes: codes[:k])
    ),
    seed=st.integers(min_value=0, max_value=2**32),
    attempts=st.sampled_from([0, 1, 3, schedule.MAX_PERMUTATION_ATTEMPTS]),
)
# Paper-like geometries: redraws that run out and fall back between
# accepted batches (3 attempts at batch 32), and long redraw chains.
@example(Strategy.MIXED, 40, 32, LANGS, 7, 3)
@example(Strategy.MIXED, 40, 16, ["th"], 5, schedule.MAX_PERMUTATION_ATTEMPTS)
@example(Strategy.MIXED, 40, 8, ["id", "th"], 2, 1)
@example(Strategy.PARALLEL_FIRST, 40, 32, LANGS, 3, schedule.MAX_PERMUTATION_ATTEMPTS)
def test_build_schedule_matches_reference_builder(strategy, batches, batch, langs, seed, attempts):
    with mock.patch.object(schedule, "MAX_PERMUTATION_ATTEMPTS", attempts):
        m = build_schedule(strategy, blocks_budget(batches * batch), langs, batch, seed=seed)
        want = reference_schedule(strategy, batches, langs, batch, seed)
    assert m.entries == want
    assert len({id(e) for e in m.entries}) == len(m.kind_counts())


@settings(max_examples=60, deadline=None)
@given(
    strategy=st.sampled_from(ALL_STRATEGIES),
    batches=st.integers(min_value=1, max_value=6),
    batch=st.sampled_from([4, 8]),
    data=st.data(),
)
def test_validate_matches_reference_on_mutated_schedules(strategy, batches, batch, data):
    m = build_schedule(strategy, blocks_budget(batches * batch), ["id", "th"], batch, seed=1)
    kinds = st.sampled_from([
        BlockKind.replay(), *(
            BlockKind(name, code)
            for name in ("monolingual", "parallel", "replacement")
            for code in ("id", "th", "km")
        ),
    ])
    for position, kind in data.draw(
        st.lists(st.tuples(st.integers(0, m.n_blocks - 1), kinds), max_size=6)
    ):
        m = _mutate(m, position, kind)
    if data.draw(st.booleans()):
        m = dataclasses.replace(m, entries=m.entries[: data.draw(st.integers(0, m.n_blocks))])
    assert validate_schedule(m) == reference_validate(m)


@settings(max_examples=30, deadline=None)
@given(
    strategy=st.sampled_from(ALL_STRATEGIES),
    batches=st.integers(min_value=1, max_value=12),
    batch=st.sampled_from([4, 8, 16]),
    langs=st.lists(st.sampled_from(LANGS), min_size=1, max_size=4, unique=True),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_every_built_schedule_validates(strategy, batches, batch, langs, seed):
    m = build_schedule(strategy, blocks_budget(batches * batch), langs, batch, seed=seed)
    assert validate_schedule(m) == []
    assert m.n_blocks == batches * batch
