"""Golden digests of compiled trees: the refactoring oracle.

Each case compiles a fixed synthetic corpus at a fixed seed, batch 4 and
4 blocks, then hashes every file of the tree (block files, block records,
``run_config.json`` and ``manifest.json``). A change that alters any
output byte, including the manifest's accounting, changes a digest.
"""

import json

import pytest

from currikit.packing import BLOCK_TOKENS
from currikit.pipeline import compile_corpus
from currikit.schedule import Strategy
from currikit.synthetic import write_corpus
from helpers import tree_digest

SEED = 13
VOCAB_NAME = "golden.vocab"

# Multi-character pieces so greedy longest-match does real work; single
# printable ASCII characters plus newline cover all synthetic text.
_VOCAB_WORDS = (
    ": ", "the ", "river", "quiet", "pasar", "kota", "talat", "chao", "id-", "th-",
    "en-", "pair-",
)

GOLDEN = {
    "multilingual": (
        "fc97cfdb588eefc86624988789ab8cd6"
        "417729924eb05e300eeeac55579ad405"
    ),
    "mixed": (
        "081713640b372307d05368a27330e1e2"
        "8641e0d70223e83f35a33402e10f1bb9"
    ),
    "parallel-first": (
        "9318ab924d16f77d98e65aea490070b8"
        "bd40e4b1832e7118fc8be5dd1b5747e3"
    ),
    "parallel-last": (
        "4cd061e001d44e3eabae7b1745906f62"
        "c3178a071158bb6a21f514577653c385"
    ),
    "parallel-only": (
        "73f7419321e055fab9fced8e7359bb7c"
        "e3441a9bc2b8871de11a449de53e251d"
    ),
    "multilingual-replacement": (
        "d14f670fc66f7e11d24f2f2fecd262f6"
        "9ac59e733c98e15a1ed73f61fcea9c09"
    ),
    "multilingual-replacement/bpe": (
        "31a08c0fc6d9ff8f821f7cd8793fe385"
        "460a8183f78ff1a698c9178f05626c44"
    ),
}


def _write_vocab(path):
    pieces = [chr(c) for c in range(32, 127)] + ["\n"] + list(_VOCAB_WORDS)
    lines = ["bpe-vocab-v1", "name golden-bpe", "eot 0"]
    lines += [f"token {i} {json.dumps(p)}" for i, p in enumerate(pieces, start=1)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    config = write_corpus(
        root / "corpus", languages=("id", "th"), n_pairs=6000, n_docs=420,
        sentences_per_doc=40, replay_docs=220, seed=SEED,
    )
    _write_vocab(root / VOCAB_NAME)
    return root, config


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_compiledtree_digest(corpus, tmp_path, case):
    root, config = corpus
    strategy, _, tokenizer = case.partition("/")
    tokenizer_ref = str(root / VOCAB_NAME) if tokenizer else "byte_fallback"
    result = compile_corpus(
        config, strategy, 4 * BLOCK_TOKENS, 4, seed=SEED, out_dir=tmp_path / "out",
        tokenizer_ref=tokenizer_ref,
        run_config={"tokenizer": VOCAB_NAME if tokenizer else "byte_fallback"},
    )
    assert result.manifest.n_blocks == 4
    assert result.manifest.strategy is Strategy(strategy)
    assert tree_digest(tmp_path / "out") == GOLDEN[case]
