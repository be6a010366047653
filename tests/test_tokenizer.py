import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from currikit import tokenizer
from currikit.tokenizer import (
    BYTE_FALLBACK,
    EOT_TEXT,
    MATCH_DEPTH,
    TokenizerError,
    TokenizerSpec,
    UnknownTokenizerError,
    count_tokens,
    decode,
    encode,
    encode_run,
    load_vocab,
    resolve_spec,
)

from helpers import greedy_encode


def test_encode_empty():
    assert encode("", BYTE_FALLBACK).tolist() == []


def test_encode_ascii_is_byte_identity():
    ids = encode("ab", BYTE_FALLBACK)
    assert ids.dtype == np.uint8
    assert ids.tolist() == [97, 98]


def test_decode_byte_identity():
    assert decode([97, 98], BYTE_FALLBACK) == "ab"


def test_decode_renders_eot_marker():
    assert decode([BYTE_FALLBACK.eot_id], BYTE_FALLBACK) == EOT_TEXT
    assert decode([97, 256, 98], BYTE_FALLBACK) == f"a{EOT_TEXT}b"


def test_count_tokens_examples():
    assert count_tokens("", BYTE_FALLBACK) == 0
    assert count_tokens("abc", BYTE_FALLBACK) == 3


def test_decode_rejects_out_of_range_id():
    with pytest.raises(TokenizerError):
        decode([257], BYTE_FALLBACK)


def test_decode_rejects_invalid_utf8():
    with pytest.raises(UnicodeDecodeError):
        decode([0xFF], BYTE_FALLBACK)


@given(st.text())
def test_byte_fallback_round_trip(text):
    assert decode(encode(text, BYTE_FALLBACK), BYTE_FALLBACK) == text


@given(st.text(), st.text())
def test_byte_fallback_additivity(a, b):
    assert encode(a).tolist() + encode(b).tolist() == encode(a + b).tolist()


@given(st.lists(st.text(), max_size=20))
def test_count_additivity_over_concatenation(texts):
    assert count_tokens("".join(texts)) == sum(count_tokens(t) for t in texts)


@given(st.text())
def test_encode_is_deterministic(text):
    assert encode(text).tolist() == encode(text).tolist()


def test_spec_invariants():
    with pytest.raises(TokenizerError):
        TokenizerSpec(id="bad", vocab_size=10, eot_id=10, kind="byte_fallback")
    with pytest.raises(TokenizerError):
        TokenizerSpec(id="bad", vocab_size=300, eot_id=0, kind="byte_fallback")
    with pytest.raises(TokenizerError):
        TokenizerSpec(id="bad", vocab_size=10, eot_id=0, kind="mystery")
    for bad_id in (-1, 2**32):
        with pytest.raises(TokenizerError, match=r"token id outside \[0, 2\*\*32\)"):
            TokenizerSpec(
                id="bad", vocab_size=2**32 + 1, eot_id=0, kind="bpe_file",
                pieces={0: "a", bad_id: "b"},
            )


# --- bpe_file specs ---------------------------------------------------------

VOCAB_TEXT = """\
bpe-vocab-v1
# toy vocabulary for tests
name toy
eot 9
merge "t" "h"
merge "th" "e"
token 0 "a"
token 1 "b"
token 2 "th"
token 3 "the"
token 4 "e"
token 5 " "
token 6 "t"
token 7 "h"
token 8 "c"
"""


@pytest.fixture
def toy_vocab(tmp_path):
    path = tmp_path / "toy.vocab"
    path.write_text(VOCAB_TEXT, encoding="utf-8")
    return load_vocab(path)


def test_load_vocab_fields(toy_vocab):
    assert toy_vocab.id == "toy"
    assert toy_vocab.kind == "bpe_file"
    assert toy_vocab.eot_id == 9
    assert toy_vocab.vocab_size == 10
    assert toy_vocab.pieces[9] == EOT_TEXT  # synthesized marker entry


def test_greedy_longest_match(toy_vocab):
    assert encode("the", toy_vocab).dtype == np.uint32
    assert encode("the", toy_vocab).tolist() == [3]
    assert encode("th e", toy_vocab).tolist() == [2, 5, 4]
    assert encode("teeth", toy_vocab).tolist() == [6, 4, 4, 2]


def test_bpe_round_trip_on_covered_text(toy_vocab):
    for text in ("the cat", "thethe", "a b c t h e"):
        covered = "".join(ch for ch in text if ch in "abcthe ")
        seq = encode(covered, toy_vocab)
        assert decode(seq, toy_vocab) == covered


@given(st.text(alphabet="abcthe ", max_size=60))
def test_bpe_round_trip_property(text):
    spec = load_vocab_cached()
    assert decode(encode(text, spec), spec) == text


_CACHED = None


def load_vocab_cached():
    global _CACHED
    if _CACHED is None:
        import tempfile, os

        fd, path = tempfile.mkstemp(suffix=".vocab")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(VOCAB_TEXT)
        _CACHED = load_vocab(path)
    return _CACHED


def test_bpe_uncovered_char_raises(toy_vocab):
    with pytest.raises(TokenizerError, match="no token covers"):
        encode("xyz", toy_vocab)


def bpe_spec(pieces, name="direct"):
    """A ``bpe_file`` spec built directly, not through ``load_vocab``."""
    table = dict(enumerate(pieces, start=1))
    return TokenizerSpec(
        id=name, vocab_size=len(pieces) + 1, eot_id=0, kind="bpe_file", pieces=table
    )


def test_uncovered_char_message_and_position():
    # "x" starts the piece "xy" but is not a piece itself.
    spec = bpe_spec(["a", "xy", "ab", "abc"], name="holes")
    assert encode("axyab", spec).tolist() == [1, 2, 3]
    for text, pos in (("xa", 0), ("axa", 1), ("abcax", 4), ("ab\tc", 2)):
        message = f"no token covers {text[pos]!r} at position {pos} (tokenizer 'holes')"
        for fn in (encode, count_tokens):
            with pytest.raises(TokenizerError) as info:
                fn(text, spec)
            assert str(info.value) == message


def test_longest_match_falls_back_past_a_hole():
    # "abc" is a piece but "ab" is not: "abd" must fall back to "a". The spec
    # is built directly, so the matcher cannot rely on ``load_vocab``.
    spec = bpe_spec(["a", "b", "c", "d", "abc"])
    assert encode("abd", spec).tolist() == [1, 2, 4]
    assert encode("abcab", spec).tolist() == [5, 1, 2]
    assert encode("", spec).tolist() == []
    assert count_tokens("abcab", spec) == 3


def test_pieces_longer_than_the_nesting_limit():
    # sre gives up at a few hundred nested groups; pieces may be far longer.
    pieces = ["a" * k for k in range(1, 2001)] + ["b"]
    spec = bpe_spec(pieces)
    text = "a" * 2500 + "b"
    assert encode(text, spec).tolist() == [2000, 500, 2001]
    assert count_tokens(text, spec) == 3


# Pieces one shorter than the trie's depth, as long and one longer, over two
# characters: many are prefixes of one another across the trie's last level.
DEPTH_PIECES = st.sets(
    st.text(alphabet="ab", min_size=MATCH_DEPTH - 1, max_size=MATCH_DEPTH + 1), max_size=30
)


@settings(max_examples=300, deadline=None)
@given(DEPTH_PIECES, st.text(alphabet="ab", max_size=60))
def test_trie_matches_greedy_reference_across_its_depth(pieces, text):
    spec = bpe_spec(sorted(pieces | {"a", "b"}), name="depth")
    expected = greedy_encode(text, spec)
    assert encode(text, spec).tolist() == expected
    assert count_tokens(text, spec) == len(expected)


def test_trie_prefix_chain_across_its_depth():
    # Every piece from one character short of the depth to two beyond it, but
    # not the one exactly at the depth: the match falls back across the level.
    chain = ["a" * k for k in range(MATCH_DEPTH - 1, MATCH_DEPTH + 3) if k != MATCH_DEPTH]
    spec = bpe_spec(["a", *chain], name="chain")
    ids = {piece: i for i, piece in spec.pieces.items()}
    for n in range(1, 3 * MATCH_DEPTH):
        text = "a" * n
        assert encode(text, spec).tolist() == greedy_encode(text, spec)
    assert encode("a" * MATCH_DEPTH, spec).tolist() == [ids[chain[0]], ids["a"]]


def test_encode_run_is_encode_with_end_of_text_ids():
    spec = bpe_spec(["a", "b", "ab", "ba", "aba"], name="run")
    texts = ["abab", "", "ba", "a"]
    want = [i for text in texts for i in (*greedy_encode(text, spec), spec.eot_id)]
    run, ends = encode_run(texts, spec)
    assert run.dtype == np.uint32
    assert run.tolist() == want
    assert ends == [3, 4, 6, 8]
    assert [encode(text, spec).tolist() for text in texts] == [
        greedy_encode(text, spec) for text in texts
    ]
    ids, ends = encode_run([], spec)
    assert (ids.tolist(), ends) == ([], [])


def test_encode_run_ends_are_exact_where_texts_hold_the_end_of_text_piece(tmp_path):
    """``load_vocab`` adds ``<|endoftext|>`` as the piece of an eot id the
    file does not list, so a text may hold ``eot_id``; the ends are still
    those of the texts, not of every ``eot_id``."""
    path = tmp_path / "implicit-eot.vocab"
    path.write_text(
        'bpe-vocab-v1\neot 0\ntoken 1 "a"\ntoken 2 "b"\ntoken 3 "c"\n', encoding="utf-8"
    )
    spec = load_vocab(path)
    texts = ["ab<|endoftext|>c", "cab", "a<|endoftext|><|endoftext|>b"]
    ids, ends = encode_run(texts, spec)
    assert ends == [5, 9, 14]
    assert (np.flatnonzero(ids == spec.eot_id) + 1).tolist() == [3, 5, 9, 11, 12, 14]
    assert ids.tolist() == [i for text in texts for i in (*encode(text, spec).tolist(), 0)]


def test_encode_run_raises_what_encode_raises():
    """A run raises the error of its first text that ``encode`` and
    ``count_tokens`` refuse: an uncovered character, or the separator."""
    spec = bpe_spec(["a", "b"], name="run")
    separator = tokenizer._matcher(spec).separator
    for texts, first in (
        (["ab", "x"], "x"),
        (["ab", "bxa", "ya"], "bxa"),
        (["ab", "a" + separator + "b", "x"], "a" + separator + "b"),
        ([separator + "b"], separator + "b"),
    ):
        with pytest.raises(TokenizerError) as info:
            encode_run(texts, spec)
        for fn in (encode, count_tokens):
            with pytest.raises(TokenizerError) as alone:
                fn(first, spec)
            assert type(info.value) is type(alone.value)
            assert str(info.value) == str(alone.value)
    for text, pos in (("a" + separator, 1), (separator + "b", 0)):
        message = f"no token covers {separator!r} at position {pos} (tokenizer 'run')"
        for fn in (encode, count_tokens):
            with pytest.raises(TokenizerError) as info:
                fn(text, spec)
            assert str(info.value) == message


def test_equal_specs_stay_equal_after_encoding(tmp_path):
    path = tmp_path / "toy.vocab"
    path.write_text(VOCAB_TEXT, encoding="utf-8")
    first, second = load_vocab(path), load_vocab(path)
    encode("the cat", first)
    assert first == second
    assert hash(first) == hash(second)
    assert repr(first) == repr(second)


# Regex metacharacters, whitespace, a non-BMP character and the end-of-text
# marker, so the matcher must escape every piece and count code points.
UNITS = [*".^$*+?{}[]\\|()", " ", "\n", "\t", "a", "b", "c", "\U0001F600", EOT_TEXT]
UNIT_CHARS = sorted(set("".join(UNITS)))
unit_text = st.lists(st.sampled_from(UNITS), max_size=40).map("".join)


@st.composite
def vocab_and_text(draw, covering=True):
    """A vocabulary over ``UNITS`` and a text to encode with it.

    Longer pieces are random unit strings and random slices of the text, so
    most match somewhere; their prefixes are often absent, leaving holes the
    match must fall back past. Single characters all are pieces when
    ``covering``, otherwise a random subset.
    """
    text = draw(unit_text)
    units = st.lists(st.sampled_from(UNITS), min_size=1, max_size=5).map("".join)
    pieces = set(draw(st.lists(units, max_size=30)))
    for start, length in draw(
        st.lists(st.tuples(st.integers(0, 40), st.integers(2, 14)), max_size=10)
    ):
        pieces.add(text[start : start + length] or "a")
    if covering:
        pieces.update(UNIT_CHARS)
    else:
        pieces.update(draw(st.sets(st.sampled_from(UNIT_CHARS), min_size=1)))
    return bpe_spec(sorted(pieces), name="prop"), text


@settings(max_examples=300, deadline=None)
@given(vocab_and_text())
def test_encode_matches_greedy_reference(case):
    spec, text = case
    expected = greedy_encode(text, spec)
    assert encode(text, spec).tolist() == expected
    assert count_tokens(text, spec) == len(expected)


@settings(max_examples=200, deadline=None)
@given(vocab_and_text(covering=False))
def test_uncovered_text_fails_like_greedy_reference(case):
    spec, text = case
    try:
        expected = greedy_encode(text, spec)
    except TokenizerError as exc:
        for fn in (encode, count_tokens):
            with pytest.raises(TokenizerError) as info:
                fn(text, spec)
            assert str(info.value) == str(exc)
    else:
        assert encode(text, spec).tolist() == expected
        assert count_tokens(text, spec) == len(expected)


def test_vocab_file_errors(tmp_path):
    cases = {
        "no-header": "name x\neot 1\ntoken 0 \"a\"\n",
        "no-eot": "bpe-vocab-v1\ntoken 0 \"a\"\n",
        "dup-id": 'bpe-vocab-v1\neot 2\ntoken 0 "a"\ntoken 0 "b"\n',
        "bad-tag": 'bpe-vocab-v1\neot 1\ntoken 0 "a"\nwhat 1 2\n',
        "empty-table": "bpe-vocab-v1\neot 1\n",
        "negative-id": 'bpe-vocab-v1\neot 1\ntoken -1 "a"\n',
        "id-past-uint32": 'bpe-vocab-v1\neot 1\ntoken 4294967296 "a"\n',
        "eot-past-uint32": 'bpe-vocab-v1\neot 4294967296\ntoken 0 "a"\n',
    }
    for name, text in cases.items():
        path = tmp_path / f"{name}.vocab"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(TokenizerError):
            load_vocab(path)


def test_load_vocab_accepts_largest_uint32_id(tmp_path):
    path = tmp_path / "wide.vocab"
    path.write_text('bpe-vocab-v1\neot 0\ntoken 4294967295 "a"\n', encoding="utf-8")
    spec = load_vocab(path)
    assert spec.vocab_size == 2**32
    assert encode("aa", spec).tolist() == [4294967295, 4294967295]


def test_decode_rejects_id_missing_from_sparse_table(tmp_path):
    path = tmp_path / "sparse.vocab"
    path.write_text('bpe-vocab-v1\neot 0\ntoken 1 "a"\ntoken 4 "b"\n', encoding="utf-8")
    spec = load_vocab(path)
    assert spec.vocab_size == 5
    assert decode([1, 4, 0], spec) == f"ab{EOT_TEXT}"
    with pytest.raises(TokenizerError, match="no entry"):
        decode([1, 2], spec)


def test_resolve_spec(tmp_path):
    assert resolve_spec("byte_fallback") is BYTE_FALLBACK
    path = tmp_path / "toy.vocab"
    path.write_text(VOCAB_TEXT, encoding="utf-8")
    assert resolve_spec(str(path)).id == "toy"
    with pytest.raises(UnknownTokenizerError):
        resolve_spec("no_such_tokenizer")
