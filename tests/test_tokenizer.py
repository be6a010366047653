import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from currikit.tokenizer import (
    BYTE_FALLBACK,
    EOT_TEXT,
    TokenizerError,
    TokenizerSpec,
    UnknownTokenizerError,
    count_tokens,
    decode,
    encode,
    load_vocab,
    resolve_spec,
)


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
