import math
import random
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import currikit.evaluate
from currikit.evaluate import (
    STATS_BLOCK,
    TOKENIZATION_MODES,
    ResultTable,
    _corpus_stats,
    aggregate,
    bleu,
    build_prompts,
    mode_for_language,
    paired_bootstrap,
    round_half_up,
    tokenize,
)
from currikit.packing import format_pair
from bleu_oracle import oracle_bleu
from helpers import (
    make_pair,
    parse_segment,
    reference_bootstrap,
    scalar_corpus_stats,
    scalar_tokenize,
)


def test_tokenize_separates_punctuation():
    assert tokenize("Hello, world!") == ["Hello", ",", "world", "!"]
    assert tokenize("a  b") == ["a", "b"]
    assert tokenize("3.5 rate") == ["3", ".", "5", "rate"]


def test_tokenize_zh_splits_cjk():
    assert tokenize("你好ab", "zh") == ["你", "好", "ab"]
    assert tokenize("你好ab", "default") == ["你好ab"]
    assert mode_for_language("zh") == "zh"
    assert mode_for_language("id") == "default"


@pytest.mark.parametrize("mode", TOKENIZATION_MODES)
def test_tokenize_matches_scalar_reference_on_every_code_point(mode):
    code_points = np.r_[0:0xD800, 0xE000:0x110000].astype("<u4")
    text = code_points.tobytes().decode("utf-32-le")
    assert tokenize(text, mode) == scalar_tokenize(text, mode)
    # The table met every code point but kept at most its bound of them.
    assert 0 < len(currikit.evaluate._SPLIT_TABLES[mode]) <= currikit.evaluate.SPLIT_TABLE_LIMIT


def test_unknown_mode_is_a_value_error():
    refs = ["a b c", "d e f"]
    with pytest.raises(ValueError, match="unknown tokenization mode 'ja'"):
        tokenize("a b", "ja")
    with pytest.raises(ValueError, match="unknown tokenization mode 'ja'"):
        bleu(refs, refs, mode="ja")
    with pytest.raises(ValueError, match="unknown tokenization mode 'ja'"):
        paired_bootstrap(refs, refs, refs, n_samples=2, mode="ja")


# Pieces of generated sentences: repeated words, ASCII and CJK punctuation, CJK
# characters and several kinds of whitespace, so n-grams repeat and get clipped.
_PIECES = ["ab", "ab", "cd", "x", " ", " ", "  ", "\t", "\u3000", ",", ".", "!", "。",
           "、", "「", "你", "好", "中文"]
_REF_TEXT = st.lists(st.sampled_from(_PIECES), min_size=1, max_size=14).map("".join).filter(
    str.strip
)
_HYP_TEXT = st.one_of(
    st.sampled_from(["", " ", "\t\u3000  "]),
    st.lists(st.sampled_from(_PIECES), max_size=14).map("".join),
)


@st.composite
def _scored_corpora(draw):
    m = draw(st.integers(1, 6))
    refs = draw(st.lists(_REF_TEXT, min_size=m, max_size=m))
    systems = draw(st.lists(st.lists(_HYP_TEXT, min_size=m, max_size=m), min_size=1, max_size=3))
    return refs, systems, draw(st.sampled_from(TOKENIZATION_MODES))


@settings(max_examples=300, deadline=None)
@given(_scored_corpora())
def test_corpus_stats_match_scalar_reference(corpus):
    refs, systems, mode = corpus
    assert _corpus_stats(refs, mode, *systems).tolist() == scalar_corpus_stats(
        refs, mode, *systems
    )


@pytest.mark.parametrize("mode", TOKENIZATION_MODES)
def test_corpus_stats_match_scalar_reference_across_blocks(mode):
    rnd = random.Random(mode)
    m = 2 * STATS_BLOCK + 5

    def sentence(min_size):
        return "".join(rnd.choices(_PIECES, k=rnd.randint(min_size, 14)))

    refs = [sentence(1) + "x" for _ in range(m)]
    systems = [[sentence(0) for _ in range(m)] for _ in range(2)]
    assert _corpus_stats(refs, mode, *systems).tolist() == scalar_corpus_stats(
        refs, mode, *systems
    )


def test_corpus_stats_match_scalar_reference_when_four_grams_are_made_dense():
    # One zh-mode block of distinct characters: references from the CJK
    # Unified block, each hypothesis keeps every other reference character
    # and fills the gaps from Extension A (system A) or from unused Unified
    # characters (system B). Its vocabulary is so large that
    # slots * V**4 overflows int64, so the 3-gram ids are made dense again
    # before the 4-grams are counted.
    m, width = STATS_BLOCK, 150
    unified = iter(map(chr, range(0x4E00, 0xA000)))
    extension_a = iter(map(chr, range(0x3400, 0x4DC0)))
    refs = ["".join(next(unified) for _ in range(width)) for _ in range(m)]

    def keep_half(ref, fill):
        return "".join(ch if j % 2 else next(fill) for j, ch in enumerate(ref))

    a = [keep_half(ref, extension_a) for ref in refs]
    b = [keep_half(ref, unified) for ref in refs]
    vocab = len(set("".join(refs + a + b)))
    assert 3 * m * vocab**4 > 2**63 - 1 >= 3 * m * vocab**3
    assert _corpus_stats(refs, "zh", a, b).tolist() == scalar_corpus_stats(refs, "zh", a, b)


def test_each_sentence_is_tokenized_once_through_the_module_function(monkeypatch):
    calls = []

    def counting(text, mode="default"):
        calls.append(text)
        return tokenize(text, mode)

    monkeypatch.setattr(currikit.evaluate, "tokenize", counting)
    refs = [f"sentence {i} , with words" for i in range(7)]
    bleu(refs, refs)
    assert len(calls) == 2 * len(refs)
    calls.clear()
    paired_bootstrap(refs, refs, refs, n_samples=3)
    assert len(calls) == 3 * len(refs)


def test_bleu_identity_corpus_scores_100():
    refs = [f"sentence number {i} has plenty of tokens" for i in range(12)]
    score = bleu(refs, refs)
    assert score.score == 100.0
    assert score.precisions == (1.0, 1.0, 1.0, 1.0)
    assert score.brevity_penalty == 1.0


def test_bleu_clipping_oracle():
    score = bleu(["the the the the"], ["the cat sat"])
    assert score.precisions[0] == pytest.approx(0.25)  # "the" clipped to 1 of 4
    assert score.score == 0.0  # no bigram match -> zero precision rule


def test_bleu_zero_fourgram_overlap_scores_0():
    score = bleu(["alpha beta gamma delta"], ["epsilon zeta eta theta"])
    assert score.score == 0.0


def test_bleu_brevity_penalty_value():
    # hypothesis shorter than reference: bp = exp(1 - r/c)
    hyp = ["the cat sat on the"]
    ref = ["the cat sat on the mat today"]
    score = bleu(hyp, ref)
    assert score.brevity_penalty == pytest.approx(math.exp(1 - 7 / 5))
    assert score.hyp_len == 5 and score.ref_len == 7


ORACLE_CORPORA = [
    # (hypotheses, references) punctuation-free so oracle tokenization matches
    (["the cat sat on a mat"], ["the cat sat on the mat"]),
    (
        ["north wind and sun argued loudly", "the traveler kept a warm cloak on"],
        ["the north wind and sun argued", "the traveler kept his warm cloak on"],
    ),
    (
        ["one two three four five six", "seven eight nine ten eleven twelve"],
        ["one two three four five six", "seven eight ten nine eleven twelve"],
    ),
    (["a b c d e f g h"], ["a b c d x f g h"]),
    (
        ["this longer hypothesis sentence pads the corpus length considerably today"],
        ["this longer reference sentence pads the corpus length considerably"],
    ),
    (["the the the the"], ["the cat sat"]),
    (["identical words in this corpus"], ["identical words in this corpus"]),
]


@pytest.mark.parametrize("hyps,refs", ORACLE_CORPORA)
def test_bleu_matches_brute_force_oracle(hyps, refs):
    assert bleu(hyps, refs).score == pytest.approx(oracle_bleu(hyps, refs), abs=0.01)


def test_bleu_input_errors():
    with pytest.raises(ValueError):
        bleu(["a"], ["a", "b"])
    with pytest.raises(ValueError):
        bleu([], [])
    with pytest.raises(ValueError):
        bleu(["a"], ["   "])


def test_first_blank_reference_is_named():
    with pytest.raises(ValueError, match=r"^reference sentence 1 is empty$"):
        bleu(["a", "", "c", "d"], ["a", " ", "c", "\t\u3000"])
    with pytest.raises(ValueError, match=r"^reference sentence 2 is empty$"):
        paired_bootstrap(["a"] * 4, ["b", "", "", ""], ["a", "b", "", ""])
    refs = ["a b"] * (2 * STATS_BLOCK)
    refs[STATS_BLOCK + 3] = refs[STATS_BLOCK + 9] = " "
    with pytest.raises(ValueError, match=rf"^reference sentence {STATS_BLOCK + 3} is empty$"):
        bleu(["a b"] * len(refs), refs)


def test_length_check_comes_before_the_blank_check():
    with pytest.raises(ValueError, match=r"^2 hypotheses vs 3 references$"):
        bleu(["a", "b"], ["a", "", "c"])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(st.sampled_from("abcdef"), min_size=1, max_size=10),
            st.lists(st.sampled_from("abcdef"), min_size=1, max_size=10),
        ),
        min_size=1,
        max_size=8,
    ),
    st.randoms(use_true_random=False),
)
def test_bleu_permutation_invariance(pairs, rnd):
    hyps = [" ".join(h) for h, _ in pairs]
    refs = [" ".join(r) for _, r in pairs]
    base = bleu(hyps, refs).score
    order = list(range(len(pairs)))
    rnd.shuffle(order)
    assert bleu([hyps[i] for i in order], [refs[i] for i in order]).score == pytest.approx(base)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(st.sampled_from("abcdef"), min_size=1, max_size=10),
            st.lists(st.sampled_from("abcdef"), min_size=1, max_size=10),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_bleu_score_bounds(pairs):
    hyps = [" ".join(h) for h, _ in pairs]
    refs = [" ".join(r) for _, r in pairs]
    score = bleu(hyps, refs)
    assert 0.0 <= score.score <= 100.0
    if hyps == refs and all(len(h) >= 4 for h, _ in pairs):
        assert score.score == pytest.approx(100.0)


# --- paired bootstrap --------------------------------------------------------


def _dominant_corpus(n=50):
    refs = [f"reference sentence {i} with several shared tokens" for i in range(n)]
    worst = [f"zzz{i} qqq{i} vvv{i} kkk{i} jjj{i}" for i in range(n)]
    return refs, refs[:], worst


def test_bootstrap_identical_systems_p_is_one():
    refs, a, _ = _dominant_corpus(10)
    result = paired_bootstrap(a, a, refs, n_samples=200, seed=1)
    assert result.p_value == 1.0
    assert result.delta == 0.0


def test_bootstrap_dominant_system_add_one_p():
    refs, a, b = _dominant_corpus(50)
    result = paired_bootstrap(a, b, refs, n_samples=1000, seed=1)
    assert result.p_value == pytest.approx(1 / 1001)
    assert result.score_a == pytest.approx(100.0)
    assert result.score_b == 0.0


def test_bootstrap_determinism():
    refs, a, b = _dominant_corpus(20)
    first = paired_bootstrap(a, b, refs, n_samples=300, seed=42)
    second = paired_bootstrap(a, b, refs, n_samples=300, seed=42)
    assert first == second
    third = paired_bootstrap(a, b, refs, n_samples=300, seed=43)
    assert third.n_samples == 300  # same inputs, different draw sequence is fine


_WORDS = ["river", "market", "morning", "quiet", "trade", "story", "city", "boat",
          "rain", "light", "road", "house", "field", "song", "bread", "stone"]


def _close_systems(n=40):
    """Two systems that differ on different sentences: A loses a word or gets
    one wrong, B gets one wrong or adds one, so neither wins every sample."""
    refs, a, b = [], [], []
    for i in range(n):
        words = [_WORDS[(i * 7 + j * 3) % len(_WORDS)] for j in range(6 + i % 5)]
        refs.append(" ".join(words) + ".")
        wa = list(words)
        if i % 3 == 0:
            wa[1] = "xa"
        if i % 4 == 1:
            wa = wa[:-1]
        a.append(" ".join(wa) + ".")
        wb = list(words)
        if i % 2 == 0:
            wb[2] = "yb"
        if i % 5 == 2:
            wb.insert(0, "zb")
        b.append(" ".join(wb) + ".")
    return refs, a, b


# (seed, n_samples) -> #{BLEU_A <= BLEU_B}, recorded with one stats[idx].sum()
# per sample and one splitmix step per drawn index. 1,000 samples of these 40
# sentences take two resampling chunks, 819 samples and 181.
PINNED_WORSE_OR_TIED = {
    (0, 1): 1, (1, 1): 0, (7, 1): 1,
    (0, 65): 9, (7, 65): 8,
    (0, 1000): 136, (7, 1000): 135,
}


@pytest.mark.parametrize("seed, n_samples", sorted(PINNED_WORSE_OR_TIED))
def test_bootstrap_p_values_pinned(seed, n_samples):
    refs, a, b = _close_systems()
    result = paired_bootstrap(a, b, refs, n_samples=n_samples, seed=seed)
    worse_or_tied = PINNED_WORSE_OR_TIED[seed, n_samples]
    assert result.p_value == (1 + worse_or_tied) / (n_samples + 1)
    assert result.score_a == 85.68121184887745
    assert result.score_b == 81.31891507807974


def test_bootstrap_input_errors():
    refs, a, b = _dominant_corpus(5)
    with pytest.raises(ValueError):
        paired_bootstrap(a[:-1], b, refs)
    with pytest.raises(ValueError):
        paired_bootstrap(a, b, refs, n_samples=0)
    with pytest.raises(ValueError):
        paired_bootstrap(["x"], ["y"], ["z"])


@st.composite
def _bootstrap_cases(draw):
    """A corpus of 2 to 6 sentences (B is sometimes A itself), a sample
    count around the chunk sizes drawn with it, a seed and a mode."""
    n = draw(st.integers(2, 6))
    refs = draw(st.lists(_REF_TEXT, min_size=n, max_size=n))
    a = draw(st.lists(_HYP_TEXT, min_size=n, max_size=n))
    b = draw(st.one_of(st.just(a), st.lists(_HYP_TEXT, min_size=n, max_size=n)))
    n_samples = draw(st.sampled_from((1, 63, 64, 65, 130)))
    seed = draw(st.integers(0, 2**64))
    return refs, a, b, n_samples, seed, draw(st.sampled_from(TOKENIZATION_MODES))


@settings(max_examples=60, deadline=None)
@given(_bootstrap_cases(), st.sampled_from((1, 64, currikit.evaluate.BOOTSTRAP_CHUNK)))
def test_bootstrap_matches_per_sample_reference(case, chunk):
    # With 64 draws a chunk holds 10 to 32 samples, so the sample counts
    # cross chunk boundaries; with 1 every chunk is one sample.
    refs, a, b, n_samples, seed, mode = case
    with mock.patch.object(currikit.evaluate, "BOOTSTRAP_CHUNK", chunk):
        result = paired_bootstrap(a, b, refs, n_samples=n_samples, seed=seed, mode=mode)
    assert result == reference_bootstrap(a, b, refs, n_samples, seed, mode)


def _identical_systems():
    refs, a, _ = _close_systems()
    return refs, a, a


def _two_sentences():
    refs = ["the boat came in at dawn .", "rain fell on the old road ."]
    return refs, ["the boat came at dawn .", "rain fell on the road ."], refs[::-1]


def _no_four_gram_overlap():
    refs, a, _ = _dominant_corpus(6)
    # Every third token of B is "x", so none of its 4-grams is in its reference.
    b = [" ".join(w if j % 3 else "x" for j, w in enumerate(r.split())) for r in refs]
    return refs, a, b


@pytest.mark.parametrize("n_samples", [1, 63, 64, 65, 130])
@pytest.mark.parametrize(
    "corpus, expect",
    [
        (_identical_systems, lambda r: r.p_value == 1.0),
        (_no_four_gram_overlap, lambda r: r.score_b == 0.0 and r.score_a == 100.0),
        (_two_sentences, lambda r: r.score_a > r.score_b == 0.0),
    ],
    ids=["identical", "no-4-gram-overlap", "two-sentences"],
)
def test_bootstrap_matches_reference_on_edge_cases(corpus, expect, n_samples):
    refs, a, b = corpus()
    result = paired_bootstrap(a, b, refs, n_samples=n_samples, seed=5)
    assert result == reference_bootstrap(a, b, refs, n_samples, 5)
    assert expect(result)


@pytest.mark.parametrize("seed, n_samples", [(0, 65), (7, 130), (40, 1000)])
def test_one_sample_chunks_give_the_default_result(monkeypatch, seed, n_samples):
    refs, a, b = _close_systems()
    default = paired_bootstrap(a, b, refs, n_samples=n_samples, seed=seed)
    monkeypatch.setattr(currikit.evaluate, "BOOTSTRAP_CHUNK", 1)
    assert paired_bootstrap(a, b, refs, n_samples=n_samples, seed=seed) == default


def test_bootstrap_refuses_totals_float64_cannot_hold_exactly(monkeypatch):
    # n times the largest statistic bounds every sample total; from 2**53 up
    # a float64 product could round it.
    stats = np.zeros((4, 2 * currikit.evaluate.STATS_WIDTH), dtype=np.int64)
    stats[:, -1] = 2**51
    monkeypatch.setattr(currikit.evaluate, "_corpus_stats", lambda *args: stats)
    with pytest.raises(ValueError, match="4 sentences are too many"):
        paired_bootstrap(["a"] * 4, ["a"] * 4, ["a"] * 4)
    stats[:, -1] -= 1
    assert paired_bootstrap(["a"] * 4, ["a"] * 4, ["a"] * 4).p_value == 1.0


def test_bootstrap_leaves_no_thread_spinning():
    # A float matrix-matrix product would leave the BLAS worker threads
    # busy-waiting for a while after it returns: about 0.13 CPU-s over this
    # sleep on a 2-vCPU host, where each matrix-vector product leaves none.
    refs, a, b = _close_systems(1000)
    paired_bootstrap(a, b, refs, n_samples=200, seed=0)
    before = time.process_time()
    time.sleep(0.3)
    assert time.process_time() - before < 0.03


# --- prompts ------------------------------------------------------------------


def _dev_pairs(n, code="id"):
    return [
        make_pair(f"english dev {i}.", f"sea dev {i}.", code=code, ordinal=i)
        for i in range(n)
    ]


def _test_pairs(n, code="id"):
    return [
        make_pair(f"english test {i}.", f"sea test {i}.", code=code, ordinal=i)
        for i in range(n)
    ]


def test_prompts_zero_shot_is_bare_item():
    ps = build_prompts(_dev_pairs(5), _test_pairs(1), ("en", "id"), k=0)
    assert ps.items[0].prompt == "English: english test 0.\nIndonesian:"
    assert ps.items[0].reference == "sea test 0."


def test_prompts_fixed_shot_prefix_shared():
    ps = build_prompts(_dev_pairs(7), _test_pairs(10), ("en", "id"), k=5)
    assert len(ps.items) == 10
    prefixes = {item.prompt.rsplit("English:", 1)[0] for item in ps.items}
    assert len(prefixes) == 1
    for item in ps.items:
        assert item.prompt.count("English:") == 6  # 5 shots + final item
        assert item.prompt.endswith("Indonesian:")


def test_prompt_exemplars_parse_back():
    ps = build_prompts(_dev_pairs(5), _test_pairs(1), ("id", "en"), k=5)
    prompt = ps.items[0].prompt
    exemplars = prompt.split("\n\n")[:-1]
    assert len(exemplars) == 5
    for i, exemplar in enumerate(exemplars):
        (la, ta), (lb, tb) = parse_segment(exemplar)
        assert (la, lb) == ("Indonesian", "English")
        assert ta == f"sea dev {i}."
        assert tb == f"english dev {i}."


def test_prompts_reference_is_target_side():
    ps = build_prompts(_dev_pairs(5), _test_pairs(3), ("id", "en"), k=2)
    assert [it.reference for it in ps.items] == [f"english test {i}." for i in range(3)]


def test_prompts_errors():
    with pytest.raises(ValueError, match="dev pairs"):
        build_prompts(_dev_pairs(3), _test_pairs(1), ("en", "id"), k=5)
    with pytest.raises(ValueError, match="English"):
        build_prompts(_dev_pairs(5), _test_pairs(1), ("id", "th"), k=1)
    with pytest.raises(ValueError, match="direction"):
        build_prompts(_dev_pairs(5, "th"), _test_pairs(1, "th"), ("en", "id"), k=1)


@pytest.mark.parametrize("style", ["name", "code"])
@pytest.mark.parametrize(
    "direction, sea_first", [(("en", "id"), 0), (("id", "en"), 1)]
)
def test_prompt_exemplars_are_training_segments(style, direction, sea_first):
    dev = _dev_pairs(3)
    ps = build_prompts(dev, _test_pairs(1), direction, k=3, label_style=style)
    exemplars = ps.items[0].prompt.split("\n\n")[:-1]
    assert exemplars == [format_pair(pair, sea_first, style) for pair in dev]


def test_unknown_label_style_is_rejected():
    with pytest.raises(ValueError, match="unknown label style 'short'"):
        build_prompts(_dev_pairs(1), _test_pairs(1), ("en", "id"), k=1, label_style="short")
    with pytest.raises(ValueError, match="unknown label style 'short'"):
        format_pair(_dev_pairs(1)[0], 0, "short")


def test_prompt_records_shape():
    ps = build_prompts(_dev_pairs(5), _test_pairs(2), ("en", "id"), k=1)
    records = ps.to_records()
    assert records[0]["direction"] == "en-id"
    assert set(records[0]) == {"prompt", "reference", "direction"}


# --- aggregation ----------------------------------------------------------------


def test_aggregate_rounds_half_up():
    assert round_half_up(38.035) == 38.04
    assert round_half_up(31.117) == 31.12
    assert round_half_up(2.005) == 2.01


def test_aggregate_single_language():
    row = aggregate({"id": 42.5})
    assert row.average == 42.5


def test_aggregate_empty_raises():
    with pytest.raises(ValueError):
        aggregate({})


@pytest.mark.parametrize("score", [math.nan, math.inf, -math.inf])
def test_aggregate_rejects_non_finite_scores(score):
    with pytest.raises(ValueError, match="not a finite number"):
        aggregate({"id": 1.0, "th": score})


def test_aggregate_rejects_unknown_code():
    with pytest.raises(ValueError):
        aggregate({"xx": 1.0})


def test_result_table_renders_fixed_order():
    row = aggregate({"zh": 1.0, "id": 2.0, "km": 3.0}, label="demo")
    rendered = ResultTable([row]).render()
    header = rendered.splitlines()[0]
    assert header.index("id") < header.index("km") < header.index("zh") < header.index("Avg")
    assert "demo" in rendered
