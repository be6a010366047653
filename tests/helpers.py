"""Small factories shared across test modules."""

import hashlib
from pathlib import Path

from currikit.corpus import Document, SentencePair, language
from currikit.tokenizer import EOT_TEXT


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
