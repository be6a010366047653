"""Text <-> token-id conversion.

All block arithmetic downstream is defined over token ids, so tokenizers
are loadable, immutable specs. Two kinds are supported:

* ``byte_fallback`` -- ids 0..255 are raw UTF-8 byte values, id 256 is the
  end-of-text marker. Lossless and self-contained, used by default.
* ``bpe_file`` -- a vocabulary file with a token-to-id table (plus merge
  rules kept as provenance); encoding is greedy longest-match against the
  table. The matcher is one compiled regular expression per spec, built on
  first use (not at load) and kept on the spec; ``sre`` then finds each
  longest piece in C. See ``load_vocab`` for the line format.

``encode`` returns a 1-D numpy id array (``uint8`` for ``byte_fallback``,
``uint32`` for ``bpe_file``), so packers copy it into their block buffers
without a per-id Python loop. Every id lies in ``[0, 2**32)``, the range of
the ``uint32`` block format.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

EOT_TEXT = "<|endoftext|>"

BYTE_FALLBACK_VOCAB = 257  # 256 byte values + 1 end-of-text id
ID_LIMIT = 2**32  # block files store ids as uint32


class TokenizerError(ValueError):
    """Invalid tokenizer configuration or vocabulary file."""


class UnknownTokenizerError(TokenizerError):
    """A tokenizer reference could not be resolved."""


@dataclass(frozen=True)
class TokenizerSpec:
    """Immutable description of one tokenizer.

    For ``bpe_file`` specs, ``pieces`` holds the id -> token-string table;
    it is runtime payload, not part of the spec identity. ``piece_ids`` is
    derived from it, and so is the longest-match pattern, built on first use.
    """

    id: str
    vocab_size: int
    eot_id: int
    kind: str  # "byte_fallback" | "bpe_file"
    pieces: Mapping[int, str] | None = field(default=None, compare=False, repr=False)
    piece_ids: Mapping[str, int] | None = field(default=None, compare=False, repr=False)
    _pattern: re.Pattern[str] | None = field(
        default=None, init=False, compare=False, repr=False
    )

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
    for uncovered text, but builds no id array.
    """
    if spec.kind == "byte_fallback":
        return len(text.encode("utf-8"))
    return len(_match_pieces(text, spec))


def _match_pieces(text: str, spec: TokenizerSpec) -> list[str]:
    """The greedy longest-match pieces of ``text``, in order.

    ``findall`` skips text no piece covers, so the pieces cover ``text``
    exactly when their lengths add up to it; otherwise the first gap is
    reported.
    """
    pattern = spec._pattern
    if pattern is None:
        pattern = _longest_match_pattern(spec)
        object.__setattr__(spec, "_pattern", pattern)
    pieces = pattern.findall(text)
    if sum(map(len, pieces)) != len(text):
        pos = 0
        for piece in pieces:
            if not text.startswith(piece, pos):
                break
            pos += len(piece)
        raise TokenizerError(
            f"no token covers {text[pos]!r} at position {pos} "
            f"(tokenizer {spec.id!r})"
        )
    return pieces


def _longest_match_pattern(spec: TokenizerSpec) -> re.Pattern[str]:
    """One alternation whose first matching branch is the longest piece.

    Pieces are grouped by first character, then by second; below that the
    remainders are listed longest first, the empty remainder (the two-char
    piece itself) last, and a one-char piece is the empty branch after its
    second-char groups. ``sre`` tries alternatives in order and nothing
    follows the match, so the first branch that matches is the longest
    piece. Grouping by prefix keeps the nesting at two groups whatever the
    piece length (``sre`` hits its recursion limit at a few hundred nested
    groups).
    """
    assert spec.piece_ids is not None
    tree: dict[str, dict[str, list[str]]] = {}
    for piece in spec.piece_ids:
        seconds = tree.setdefault(piece[0], {})
        if len(piece) > 1:
            seconds.setdefault(piece[1], []).append(piece[2:])
    branches = []
    for first, seconds in tree.items():
        inner = [
            re.escape(second)
            + "(?:"
            + "|".join(map(re.escape, sorted(rests, key=len, reverse=True)))
            + ")"
            for second, rests in seconds.items()
        ]
        if first in spec.piece_ids:
            inner.append("")
        branches.append(re.escape(first) + "(?:" + "|".join(inner) + ")")
    return re.compile("|".join(branches))


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
