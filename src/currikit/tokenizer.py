"""Text <-> token-id conversion.

All block arithmetic downstream is defined over token ids, so tokenizers
are loadable, immutable specs. Two kinds are supported:

* ``byte_fallback`` -- ids 0..255 are raw UTF-8 byte values, id 256 is the
  end-of-text marker. Lossless and self-contained, used by default.
* ``bpe_file`` -- a vocabulary file with a token-to-id table (plus merge
  rules kept as provenance); encoding is greedy longest-match against the
  table. The matcher is one compiled regular expression per spec, a prefix
  trie of the pieces, built on first use (not at load) and kept on the spec;
  ``sre`` then finds each longest piece in C. See ``load_vocab`` for the line
  format.

``encode`` returns a 1-D numpy id array (``uint8`` for ``byte_fallback``,
``uint32`` for ``bpe_file``), so packers copy it into their block buffers
without a per-id Python loop. For ``bpe_file``, ``encode_run`` encodes many
texts, each closed by the end-of-text id, with one match: packers encode
their records in runs through it. Every id lies in ``[0, 2**32)``, the range
of the ``uint32`` block format.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, NoReturn, Sequence

import numpy as np

EOT_TEXT = "<|endoftext|>"

BYTE_FALLBACK_VOCAB = 257  # 256 byte values + 1 end-of-text id
ID_LIMIT = 2**32  # block files store ids as uint32
MATCH_DEPTH = 4  # trie levels of the longest-match pattern; remainders are flat below


class TokenizerError(ValueError):
    """Invalid tokenizer configuration or vocabulary file."""


class UnknownTokenizerError(TokenizerError):
    """A tokenizer reference could not be resolved."""


@dataclass(frozen=True)
class TokenizerSpec:
    """Immutable description of one tokenizer.

    For ``bpe_file`` specs, ``pieces`` holds the id -> token-string table;
    it is runtime payload, not part of the spec identity. ``piece_ids`` is
    derived from it, and so is the longest-match matcher, built on first use.
    """

    id: str
    vocab_size: int
    eot_id: int
    kind: str  # "byte_fallback" | "bpe_file"
    pieces: Mapping[int, str] | None = field(default=None, compare=False, repr=False)
    piece_ids: Mapping[str, int] | None = field(default=None, compare=False, repr=False)
    _matcher: _Matcher | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in ("byte_fallback", "bpe_file"):
            raise TokenizerError(f"unknown tokenizer kind: {self.kind!r}")
        if not 0 <= self.eot_id < self.vocab_size:
            raise TokenizerError(
                f"eot_id {self.eot_id} out of range for vocab_size {self.vocab_size}"
            )
        if self.kind == "byte_fallback" and self.vocab_size != BYTE_FALLBACK_VOCAB:
            raise TokenizerError(
                f"byte_fallback requires vocab_size {BYTE_FALLBACK_VOCAB}, "
                f"got {self.vocab_size}"
            )
        if self.kind == "bpe_file":
            if not self.pieces:
                raise TokenizerError("bpe_file spec requires a token table")
            if self.piece_ids is None:
                object.__setattr__(
                    self, "piece_ids", {p: i for i, p in self.pieces.items()}
                )


BYTE_FALLBACK = TokenizerSpec(
    id="byte_fallback", vocab_size=BYTE_FALLBACK_VOCAB, eot_id=256, kind="byte_fallback"
)


def encode(text: str, spec: TokenizerSpec = BYTE_FALLBACK) -> np.ndarray:
    """Encode UTF-8 text to a 1-D id array. Pure and deterministic per spec."""
    if spec.kind == "byte_fallback":
        return np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    pieces = _match_pieces(text, spec)
    assert spec.piece_ids is not None
    return np.fromiter(
        map(spec.piece_ids.__getitem__, pieces), dtype=np.uint32, count=len(pieces)
    )


def encode_run(texts: Sequence[str], spec: TokenizerSpec) -> np.ndarray | None:
    """``encode`` of each text followed by ``eot_id``, as one ``uint32``
    array, for a ``bpe_file`` spec; None if the texts must be encoded one by
    one instead.

    The texts are joined by the spec's separator, a character no piece
    contains, and matched by one call: no piece spans a separator, so each
    text gets the pieces ``encode`` finds, and each separator is the
    end-of-text id. The result is None when that match leaves the joined
    text uncovered or a text holds the separator itself; ``encode`` then
    raises for the first text it fails on.
    """
    matcher = _matcher(spec)
    joined = matcher.separator.join([*texts, ""])
    pieces = matcher.pattern.findall(joined)
    if joined.count(matcher.separator) != len(texts) or len("".join(pieces)) != len(joined):
        return None
    ids = map(matcher.ids.__getitem__, pieces)
    return np.fromiter(ids, dtype=np.uint32, count=len(pieces))


def decode(ids: Sequence[int] | np.ndarray, spec: TokenizerSpec = BYTE_FALLBACK) -> str:
    """Decode token ids back to text; the eot id renders as its marker text."""
    for i in ids:
        if not 0 <= i < spec.vocab_size:
            raise TokenizerError(
                f"token id {i} out of range for vocab_size {spec.vocab_size}"
            )
    if spec.kind == "byte_fallback":
        parts: list[str] = []
        run = bytearray()
        for i in ids:
            if i == spec.eot_id:
                parts.append(run.decode("utf-8"))
                parts.append(EOT_TEXT)
                run = bytearray()
            else:
                run.append(i)
        parts.append(run.decode("utf-8"))
        return "".join(parts)
    assert spec.pieces is not None
    try:
        return "".join(EOT_TEXT if i == spec.eot_id else spec.pieces[i] for i in ids)
    except KeyError as exc:
        raise TokenizerError(
            f"token id {exc.args[0]} has no entry in tokenizer {spec.id!r}"
        ) from None


def count_tokens(text: str, spec: TokenizerSpec = BYTE_FALLBACK) -> int:
    """Number of ids ``encode`` would produce (raw text, no separators).

    Always equal to ``len(encode(text, spec))``, and raises the same error
    for uncovered text, but builds no id array: for ``bpe_file`` one
    ``subn`` counts the pieces, and the text is covered when nothing of it
    is left.
    """
    if spec.kind == "byte_fallback":
        return len(text.encode("utf-8"))
    matcher = _matcher(spec)
    rest, count = matcher.pattern.subn("", text)
    if rest or matcher.separator in text:
        _raise_uncovered(text, matcher.pattern.findall(text), spec)
    return count


class _Matcher(NamedTuple):
    """A ``bpe_file`` spec's longest-match pattern, with its run separator
    as the last alternative, and the piece ids with the separator mapped to
    the end-of-text id."""

    pattern: re.Pattern[str]
    separator: str
    ids: dict[str, int]


def _matcher(spec: TokenizerSpec) -> _Matcher:
    """The spec's matcher, built on its first use and kept on the spec."""
    matcher = spec._matcher
    if matcher is None:
        assert spec.piece_ids is not None
        used = set("".join(spec.piece_ids))
        separator = next(chr(c) for c in range(0xE000, 0x110000) if chr(c) not in used)
        pattern = "|".join(_trie_branches(list(spec.piece_ids), 0))
        matcher = _Matcher(
            re.compile(pattern + "|" + re.escape(separator)),
            separator,
            {**spec.piece_ids, separator: spec.eot_id},
        )
        object.__setattr__(spec, "_matcher", matcher)
    return matcher


def _match_pieces(text: str, spec: TokenizerSpec) -> list[str]:
    """The greedy longest-match pieces of ``text``, in order.

    ``findall`` skips text no piece covers, so the pieces cover ``text``
    exactly when they join back to its length and none is the separator;
    otherwise the first gap is reported.
    """
    matcher = _matcher(spec)
    pieces = matcher.pattern.findall(text)
    if len("".join(pieces)) != len(text) or matcher.separator in text:
        _raise_uncovered(text, pieces, spec)
    return pieces


def _raise_uncovered(text: str, pieces: list[str], spec: TokenizerSpec) -> NoReturn:
    """Report the first character of ``text`` that ``pieces``, its matches
    in order, leave uncovered or match only as the separator."""
    separator = _matcher(spec).separator
    pos = 0
    for piece in pieces:
        if piece == separator or not text.startswith(piece, pos):
            break
        pos += len(piece)
    raise TokenizerError(
        f"no token covers {text[pos]!r} at position {pos} (tokenizer {spec.id!r})"
    )


def _trie_branches(pieces: list[str], depth: int) -> list[str]:
    """The alternatives of one trie node, whose ``pieces`` are what follows
    its prefix; the first alternative that matches is the longest piece.

    Down to ``MATCH_DEPTH`` characters the pieces are grouped by their next
    character, and the node's own piece (the empty rest) comes last. Below
    that the rests are listed longest first. ``sre`` tries alternatives in
    order and nothing follows the match, so the first match is the longest;
    the nesting stays at ``MATCH_DEPTH`` groups whatever the piece length
    (``sre`` hits its recursion limit at a few hundred nested groups).
    """
    if depth == MATCH_DEPTH:
        return [re.escape(rest) for rest in sorted(pieces, key=len, reverse=True)]
    children: dict[str, list[str]] = {}
    for piece in pieces:
        if piece:
            children.setdefault(piece[0], []).append(piece[1:])
    branches = []
    for char, rests in children.items():
        inner = _trie_branches(rests, depth + 1)
        group = inner[0] if len(inner) == 1 else "(?:" + "|".join(inner) + ")"
        branches.append(re.escape(char) + group)
    if "" in pieces:
        branches.append("")
    return branches


def load_vocab(path: str | os.PathLike[str]) -> TokenizerSpec:
    """Load a ``bpe_file`` spec from its vocabulary file.

    Line format (UTF-8, ``#`` starts a comment line):

        bpe-vocab-v1
        name <identifier>
        eot <id>
        merge <left-json> <right-json>   # zero or more, provenance only
        token <id> <json-string>         # one or more

    Token strings are JSON-escaped so whitespace and control characters are
    representable. Ids must lie in ``[0, 2**32)``. ``vocab_size`` is max
    id + 1, so ids may be sparse; if the eot id has no table entry the
    literal marker text is synthesized for it.
    """
    pieces: dict[int, str] = {}
    name: str | None = None
    eot_id: int | None = None
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    body = [ln for ln in lines if ln.strip() and not ln.lstrip().startswith("#")]
    if not body or body[0].strip() != "bpe-vocab-v1":
        raise TokenizerError(f"{path}: missing 'bpe-vocab-v1' header")
    for ln in body[1:]:
        fields = ln.split(maxsplit=1)
        tag = fields[0]
        rest = fields[1] if len(fields) > 1 else ""
        if tag == "name":
            name = rest.strip()
        elif tag == "eot":
            eot_id = _parse_id(rest, path, "eot")
        elif tag == "merge":
            _parse_merge(rest, path)  # validated, retained only as provenance
        elif tag == "token":
            tid_text, _, piece_json = rest.partition(" ")
            tid = _parse_id(tid_text, path, "token id")
            piece = _parse_json_string(piece_json, path)
            if tid in pieces:
                raise TokenizerError(f"{path}: duplicate token id {tid}")
            pieces[tid] = piece
        else:
            raise TokenizerError(f"{path}: unknown line tag {tag!r}")
    if eot_id is None:
        raise TokenizerError(f"{path}: missing 'eot' line")
    if not pieces:
        raise TokenizerError(f"{path}: empty token table")
    pieces.setdefault(eot_id, EOT_TEXT)
    vocab_size = max(pieces) + 1
    return TokenizerSpec(
        id=name or os.path.splitext(os.path.basename(path))[0],
        vocab_size=vocab_size,
        eot_id=eot_id,
        kind="bpe_file",
        pieces=pieces,
    )


def resolve_spec(ref: str) -> TokenizerSpec:
    """Resolve a tokenizer reference: the name ``byte_fallback`` or a vocab path."""
    if ref == "byte_fallback":
        return BYTE_FALLBACK
    if os.path.exists(ref):
        return load_vocab(ref)
    raise UnknownTokenizerError(f"unknown tokenizer: {ref!r} (not a name or file)")


def _parse_id(text: str, path: object, what: str) -> int:
    try:
        value = int(text.strip())
    except ValueError:
        raise TokenizerError(f"{path}: bad {what}: {text!r}") from None
    if not 0 <= value < ID_LIMIT:
        raise TokenizerError(f"{path}: {what} {value} outside [0, 2**32)")
    return value


def _parse_json_string(text: str, path: object) -> str:
    try:
        piece = json.loads(text)
    except json.JSONDecodeError:
        raise TokenizerError(f"{path}: bad token string: {text!r}") from None
    if not isinstance(piece, str) or not piece:
        raise TokenizerError(f"{path}: token string must be non-empty: {text!r}")
    return piece


def _parse_merge(text: str, path: object) -> tuple[str, str]:
    try:
        left_raw, right_raw = text.split(" ", 1)
        return _parse_json_string(left_raw, path), _parse_json_string(right_raw, path)
    except ValueError:
        raise TokenizerError(f"{path}: bad merge line: {text!r}") from None
