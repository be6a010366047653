"""Small factories shared across test modules."""

import hashlib
from pathlib import Path

from currikit.corpus import Document, SentencePair, language
from currikit.tokenizer import EOT_TEXT, TokenizerError


def make_doc(text, code="id", source="synthetic", ordinal=0):
    return Document(text=text, language=language(code), source_id=source, ordinal=ordinal)


def make_pair(en, sea, code="id", source="synthetic", ordinal=0):
    return SentencePair(
        en_text=en, sea_text=sea, sea_language=language(code),
        source_id=source, ordinal=ordinal,
    )


def decode_segments(blocks, spec):
    """Decoded text of a block stream, split at end-of-text markers.

    The tail element after the last marker is a partial segment (or empty).
    """
    from currikit.tokenizer import decode

    text = "".join(decode(list(b.ids), spec) for b in blocks)
    return text.split(EOT_TEXT)


def parse_segment(segment):
    """Invert the pair format: returns ((label_a, text_a), (label_b, text_b))."""
    first, _, second = segment.partition("\n")
    label_a, _, text_a = first.partition(": ")
    label_b, _, text_b = second.partition(": ")
    return (label_a, text_a), (label_b, text_b)


def tree_digest(directory, pattern="*"):
    """sha256 over the names and bytes of the files under a directory.

    Files are taken in name order; ``pattern`` limits them to one glob, so
    ``"block_*.bin"`` covers the block files in position order.
    """
    digest = hashlib.sha256()
    for path in sorted(Path(directory).rglob(pattern)):
        if path.is_file():
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def greedy_encode(text, spec):
    """Reference ``bpe_file`` encoder: a per-position greedy longest match.

    At each position every length from the longest piece down to 1 is looked
    up in the table; the first hit is taken. ``encode`` and ``count_tokens``
    must agree with it on ids, count and error message.
    """
    table = spec.piece_ids
    max_len = max(map(len, table))
    ids = []
    pos = 0
    n = len(text)
    while pos < n:
        for length in range(min(max_len, n - pos), 0, -1):
            candidate = text[pos : pos + length]
            if candidate in table:
                ids.append(table[candidate])
                pos += length
                break
        else:
            raise TokenizerError(
                f"no token covers {text[pos]!r} at position {pos} "
                f"(tokenizer {spec.id!r})"
            )
    return ids
