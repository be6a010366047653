"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Trained-model quality numbers are out of reach at desk scale;
what is checked here is the full property and oracle suite: block
geometry, replay exactness, interleave and ordering constraints,
determinism, direction balance, BLEU and bootstrap behavior, aggregation
arithmetic, budget arithmetic, and ablation fidelity.
"""

from collections import Counter

import pytest

from currikit import rng
from currikit.evaluate import aggregate, bleu, paired_bootstrap
from currikit.packing import (
    BLOCK_TOKENS,
    PackReport,
    pack_parallel,
    pack_replacement,
)
from currikit.pipeline import compile_corpus
from currikit.schedule import Strategy, build_schedule
from currikit.shards import BLOCK_BYTES, audit_shards
from currikit.synthetic import write_corpus
from currikit.tokenizer import BYTE_FALLBACK
from bleu_oracle import oracle_bleu
from helpers import (
    batches,
    decode_segments,
    make_doc,
    make_pair,
    parse_segment,
    runs_of,
    tree_digest,
)


def _pass(number, name):
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def test_c01_block_geometry(tmp_path):
    """100-block compile: every block file is exactly 1,048,576 bytes; audit passes."""
    config = write_corpus(
        tmp_path / "corpus",
        languages=("id",),
        n_pairs=0,
        n_docs=8200,
        sentences_per_doc=40,
        replay_docs=1500,
        seed=11,
    )
    out = tmp_path / "out"
    result = compile_corpus(
        config, Strategy.MULTILINGUAL, 100 * BLOCK_TOKENS, 4, seed=11, out_dir=out
    )
    assert result.manifest.n_blocks == 100
    bins = sorted(out.glob("block_*.bin"))
    assert len(bins) == 100
    for path in bins:
        assert path.stat().st_size == BLOCK_BYTES == 1_048_576
    report = audit_shards(out)
    assert report.passed, report.render()
    _pass(1, "block geometry")


@pytest.mark.parametrize("batch", [4, 8, 16])
@pytest.mark.parametrize("strategy", list(Strategy))
def test_c02_replay_exactness(strategy, batch):
    """Every batch holds exactly batch/4 replay entries; global fraction 25%."""
    m = build_schedule(strategy, batch * 6 * BLOCK_TOKENS, ["id", "th"], batch, seed=5)
    for group in batches(m):
        assert sum(1 for e in group if e.kind.name == "replay") == batch // 4
    total_replay = sum(1 for e in m.entries if e.kind.name == "replay")
    assert total_replay * 4 == m.n_blocks
    if (strategy, batch) == (Strategy.MULTILINGUAL_REPLACEMENT, 16):
        _pass(2, "replay exactness (6 strategies x batches 4/8/16)")


def test_c03_mixed_interleave_1000_seeds():
    """1,000 seeded Mixed schedules of >= 64 blocks: every inter-replay run
    has both a monolingual and a parallel block."""
    for seed in range(1000):
        m = build_schedule(Strategy.MIXED, 64 * BLOCK_TOKENS, ["id", "th"], 8, seed=seed)
        assert m.n_blocks >= 64
        mono = par = 0
        bounded = False
        for position, e in enumerate(m.entries):
            if e.kind.name == "replay":
                if bounded:
                    assert mono >= 1 and par >= 1, (seed, position)
                mono = par = 0
                bounded = True
            elif e.kind.name == "monolingual":
                mono += 1
            else:
                par += 1
    _pass(3, "mixed interleave constraint over 1,000 seeds")


def test_c04_ordering_monotonicity_100_seeds():
    """Parallel-first/-last schedules have at most one transition batch."""
    for strategy in (Strategy.PARALLEL_FIRST, Strategy.PARALLEL_LAST):
        early = "parallel" if strategy is Strategy.PARALLEL_FIRST else "monolingual"
        late = "monolingual" if strategy is Strategy.PARALLEL_FIRST else "parallel"
        for seed in range(100):
            m = build_schedule(strategy, 40 * BLOCK_TOKENS, ["id", "th"], 8, seed=seed)
            saw_late_only = False
            transitions = 0
            for group in batches(m):
                names = {e.kind.name for e in group if e.kind.name != "replay"}
                if names == {early, late}:
                    transitions += 1
                    assert not saw_late_only, (strategy, seed)
                elif names == {late}:
                    saw_late_only = True
                elif names == {early}:
                    assert not saw_late_only, (strategy, seed)
                    assert transitions == 0, (strategy, seed)
            assert transitions <= 1, (strategy, seed)
    _pass(4, "parallel-first/-last batch monotonicity over 100 seeds")


def test_c05_compilation_determinism(tmp_path):
    """Same inputs and seed: byte-identical trees. New seed: new batch order."""
    config = write_corpus(
        tmp_path / "corpus", languages=("id",), n_pairs=14_000, n_docs=300,
        sentences_per_doc=60, seed=3,
    )
    kwargs = dict(
        sources=config, strategy=Strategy.PARALLEL_ONLY,
        token_budget=8 * BLOCK_TOKENS, batch_size_blocks=4, seed=21,
    )
    compile_corpus(out_dir=tmp_path / "a", **kwargs)
    compile_corpus(out_dir=tmp_path / "b", **kwargs)
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")

    schedule_kwargs = dict(
        strategy=Strategy.MIXED, token_budget=32 * BLOCK_TOKENS,
        language_set=["id", "th"], batch_size_blocks=8,
    )
    m1 = build_schedule(seed=21, **schedule_kwargs)
    m2 = build_schedule(seed=22, **schedule_kwargs)
    orders1 = [[e.kind.key() for e in batch] for batch in batches(m1)]
    orders2 = [[e.kind.key() for e in batch] for batch in batches(m2)]
    assert orders1 != orders2
    _pass(5, "determinism (byte-identical trees; seed changes batch order)")


def test_c06_direction_balance():
    """Over 10,000 packed pairs at one seed, EnglishFirst fraction in
    [0.485, 0.515] (binomial 3-sigma for p = 1/2)."""
    pairs = [make_pair(f"en side {i}.", f"sea side {i}.", ordinal=i) for i in range(10_000)]
    report = PackReport()
    list(pack_parallel(runs_of(pairs), "id", BYTE_FALLBACK, seed=7, report=report))
    assert report.records == 10_000
    fraction = report.en_first / report.records
    assert 0.485 <= fraction <= 0.515, fraction
    _pass(6, f"direction balance (EnglishFirst fraction {fraction:.4f})")


def test_c07_bleu_oracle_suite():
    """Identity 100; zero-overlap 0; hand corpora match brute force within 0.01."""
    refs = [f"sentence number {i} keeps several tokens" for i in range(10)]
    assert bleu(refs, refs).score == 100.0
    assert bleu(
        ["alpha beta gamma delta"] * 3, ["epsilon zeta eta theta"] * 3
    ).score == 0.0
    clip = bleu(["the the the the"], ["the cat sat"])
    assert clip.precisions[0] == pytest.approx(0.25)
    corpora = [
        (["the cat sat on a mat"], ["the cat sat on the mat"]),
        (
            ["north wind and sun argued loudly", "the traveler kept a warm cloak on"],
            ["the north wind and sun argued", "the traveler kept his warm cloak on"],
        ),
        (["a b c d e f g h"], ["a b c d x f g h"]),
        (
            ["this hypothesis sentence pads corpus length considerably today"],
            ["this reference sentence pads corpus length considerably"],
        ),
        (["the the the the"], ["the cat sat"]),
        (["one two three four five", "six seven eight nine ten"],
         ["one two three four five", "six seven nine eight ten"]),
    ]
    for hyps, refs in corpora:
        assert bleu(hyps, refs).score == pytest.approx(oracle_bleu(hyps, refs), abs=0.01)
    _pass(7, f"BLEU oracle suite ({len(corpora)} hand corpora + identity + zero)")


def test_c08_bootstrap_behavior():
    """Ties give p = 1.0; strict dominance gives p = 1/1001; calibration holds."""
    refs = [f"reference sentence {i} with shared tokens" for i in range(50)]
    junk = [f"q{i}a q{i}b q{i}c q{i}d q{i}e" for i in range(50)]
    tie = paired_bootstrap(refs, refs, refs, n_samples=1000, seed=3)
    assert tie.p_value == 1.0
    dom = paired_bootstrap(refs, junk, refs, n_samples=1000, seed=3)
    assert dom.p_value == pytest.approx(1 / 1001)

    # calibration: two systems with identical sentence-score multisets,
    # randomly paired, should rarely look significant
    n = 40
    crefs = [f"r{i} alpha beta gamma delta epsilon" for i in range(n)]
    cjunk = [f"j{i}a j{i}b j{i}c j{i}d j{i}e j{i}f" for i in range(n)]
    good_a = set(rng.shuffled(range(n), "calibration", "A")[: n // 2])
    good_b = set(rng.shuffled(range(n), "calibration", "B")[: n // 2])
    hyps_a = [crefs[i] if i in good_a else cjunk[i] for i in range(n)]
    hyps_b = [crefs[i] if i in good_b else cjunk[i] for i in range(n)]
    false_hits = sum(
        paired_bootstrap(hyps_a, hyps_b, crefs, n_samples=1000, seed=s).p_value < 0.05
        for s in range(100)
    )
    assert false_hits <= 10, false_hits
    _pass(8, f"bootstrap behavior (calibration false hits {false_hits}/100)")


def test_c09_aggregation_reproduces_reported_rows():
    """The per-language rows aggregate to the published averages."""
    into_en = {
        "id": 49.48, "km": 32.92, "lo": 34.94, "ms": 49.06, "my": 22.44,
        "ta": 33.45, "th": 35.07, "tl": 51.93, "vi": 41.00, "zh": 30.06,
    }
    from_en = {
        "id": 49.50, "km": 17.99, "lo": 16.47, "ms": 44.50, "my": 9.25,
        "ta": 17.58, "th": 28.66, "tl": 37.92, "vi": 43.44, "zh": 45.86,
    }
    assert abs(aggregate(into_en).average - 38.04) < 0.005
    assert abs(aggregate(from_en).average - 31.12) < 0.005
    small = {"id": 24.12, "km": 26.24, "lo": 44.09}  # three-score headline row
    assert abs(aggregate(small).average - 31.48) < 0.005
    _pass(9, "aggregation reproduces reported averages (38.04 / 31.12 / 31.48)")


def test_c10_budget_and_batch_arithmetic():
    """10B tokens at batch 8 floor to 38,144 blocks; 8/16 map to 512/1024."""
    m = build_schedule(
        Strategy.MULTILINGUAL, 10 * 10**9,
        ["id", "km", "lo", "ms", "my", "ta", "th", "tl", "vi", "zh"], 8, seed=0,
    )
    assert m.n_blocks == 38_144
    assert m.sequences_per_step == 512
    m16 = build_schedule(Strategy.MULTILINGUAL, 64 * BLOCK_TOKENS, ["id"], 16, seed=0)
    assert m16.sequences_per_step == 1024
    assert {m.sequences_per_step, m16.sequences_per_step} == {512, 1024}
    _pass(10, "budget arithmetic (38,144 blocks; 512/1024 sequences per step)")


def test_c11_replacement_ablation_fidelity():
    """Replacement preserves the parallel build's direction-draw sequence and
    its English-side token multiset."""
    pairs = []
    supply_sentences = []
    for i in range(9000):
        sea = f"sea-{i:05d} " + "b" * (i % 19)
        pairs.append(make_pair(f"english sentence {i} for the ablation.", sea + ".", ordinal=i))
        supply_sentences.append("c" * len(sea) + ".")  # length-matched substitute
    supply = [make_doc(" ".join(supply_sentences), code="id")]

    rep_par, rep_rep = PackReport(), PackReport()
    blocks_par = list(pack_parallel(runs_of(pairs), "id", BYTE_FALLBACK, seed=13, report=rep_par))
    blocks_rep = list(
        pack_replacement(runs_of(pairs), supply, "id", BYTE_FALLBACK, seed=13, report=rep_rep)
    )
    assert len(blocks_par) == len(blocks_rep) >= 2

    # identical direction-draw sequences, observable per segment
    assert rep_par.en_first == rep_rep.en_first
    segs_par = decode_segments(blocks_par, BYTE_FALLBACK)[:-1]
    segs_rep = decode_segments(blocks_rep, BYTE_FALLBACK)[:-1]
    assert len(segs_par) == len(segs_rep)
    for a, b in zip(segs_par, segs_rep):
        assert a.split(":", 1)[0] == b.split(":", 1)[0]

    # identical English-side token multisets
    def english_token_multiset(segments):
        counts = Counter()
        for seg in segments:
            (la, ta), (lb, tb) = parse_segment(seg)
            counts.update((ta if la == "English" else tb).split())
        return counts

    assert english_token_multiset(segs_par) == english_token_multiset(segs_rep)
    _pass(11, "replacement ablation fidelity (directions and English side)")
