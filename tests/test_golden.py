"""Golden digests of compiled trees: the refactoring oracle.

Each case compiles a fixed synthetic corpus at a fixed seed, batch 4 and
4 blocks, then hashes every file of the tree (block files,
``provenance.jsonl`` and ``manifest.json``). A change that alters any
output byte, including the manifest's accounting, changes a digest.

``GOLDEN_BLOCKS`` hashes only the ``block_*.bin`` files in position order:
the token ids themselves. A change to the provenance or manifest format
re-pins ``GOLDEN`` but must leave these digests as they are.

``GOLDEN_SCHEDULES`` hashes the kind sequence of many built schedules per
strategy, without compiling: every batch size, several seeds and language
sets of 1, 2 and 10 codes, at 37 batches each, so the phase transition,
per-kind language cycling and the mixed run carried across batches all
show up in the digest.
"""

import hashlib
import json

import pytest

from currikit.corpus import SEA_CODES
from currikit.packing import BLOCK_TOKENS
from currikit.pipeline import compile_corpus
from currikit.schedule import Strategy, build_schedule
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
        "c42a62b056e11fca78ea52783aa6894d"
        "c1f58bbef561e6b1a20d7c9afb1d7a0e"
    ),
    "mixed": (
        "6e14e58e862bcbebe4d1ddcc5f7a8227"
        "799aca5f13fcfa3d21c38966516f72aa"
    ),
    "parallel-first": (
        "643deefb4fee5ea318f81c1b4521a37d"
        "0686f9bca4124cbb1bd65199f66a092a"
    ),
    "parallel-last": (
        "acbf6b15b592540bb36eaaa38bf8301d"
        "a5adece164d985e20c198d73f3450a36"
    ),
    "parallel-only": (
        "dedb6b93189f0a00dd781916a41f155e"
        "1ca792e2d1745c37473e2f7476c5312a"
    ),
    "multilingual-replacement": (
        "ec9bdf1be81aaae3e9f0c3eed1f5548e"
        "c7fbeca4aaabcd5e5e8b2ddb0c8757dd"
    ),
    "multilingual-replacement/bpe": (
        "a97b5529e9848744a7f253bd0f76695a"
        "50eab8987f225522dfae9d6c29d0d642"
    ),
}


GOLDEN_BLOCKS = {
    "multilingual": (
        "01ccf906dab2cc2a7b0c58c5e445c780"
        "eaa8a5413d92e6adcb8bc7a95b81bb50"
    ),
    "mixed": (
        "6c50d3b127599574d8efabe8b819ef4d"
        "71090f449d4a220bd3b3b6e4b126a26d"
    ),
    "parallel-first": (
        "69f4fd58ce1924b1fd651b3c6ce15546"
        "73659efc5a94635517bf2d38ae0dcdd1"
    ),
    "parallel-last": (
        "0aa11fb3a4405380e3eb748fb404f4ca"
        "60e77c07de601a62b019f00f5cd2a3e6"
    ),
    "parallel-only": (
        "ca31c1d305f869ae79c2364a8a215801"
        "3cddec67256c53c2767cf266f7e3026c"
    ),
    "multilingual-replacement": (
        "ba48281577a76e6078d880569ce6bf32"
        "4facc9990c36a32b7e4958b04c5ac849"
    ),
    "multilingual-replacement/bpe": (
        "12cb12755a4ee2ce3e46d8b40d622e30"
        "9cb0c6514fb07b571b2bb4e27e43e419"
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
    )
    assert result.manifest.n_blocks == 4
    assert result.manifest.strategy is Strategy(strategy)
    assert tree_digest(tmp_path / "out", "block_*.bin") == GOLDEN_BLOCKS[case]
    assert tree_digest(tmp_path / "out") == GOLDEN[case]


GOLDEN_SCHEDULES = {
    "multilingual": (
        "c58352136eef44fde937ec25ae617d7a"
        "f4db9b1d1cb595ce6d390207ff5ea244"
    ),
    "mixed": (
        "30938009658c82486d94c7b266944fb5"
        "3ddadcce0c7a29bb286d14b140d8915b"
    ),
    "parallel-first": (
        "024184648b8826c8652ea3511102e4d5"
        "e0d5e9e706515ef8e3b33f210b1f4e24"
    ),
    "parallel-last": (
        "c89ff572bdc6fc676a22b783f2da6369"
        "179d202ed21effbafdbacbe07554b71b"
    ),
    "parallel-only": (
        "bfaaec4181c6864bd551111c53b9c03c"
        "860fa709b10c8cc654e76512ceeef26a"
    ),
    "multilingual-replacement": (
        "4158bc64e03bbe85aaf7728ae27694ba"
        "84a848059b7c4975145fabee59cfc200"
    ),
}

SCHEDULE_BATCHES = 37
SCHEDULE_SEEDS = (0, 1, 7)
SCHEDULE_LANGUAGE_SETS = (("id",), ("id", "th"), SEA_CODES)


def schedule_digest(strategy):
    """sha256 over the kind key of every entry of every schedule in the grid."""
    digest = hashlib.sha256()
    for batch in (4, 8, 16):
        for seed in SCHEDULE_SEEDS:
            for langs in SCHEDULE_LANGUAGE_SETS:
                m = build_schedule(
                    strategy, SCHEDULE_BATCHES * batch * BLOCK_TOKENS, langs, batch, seed
                )
                assert m.n_blocks == SCHEDULE_BATCHES * batch
                digest.update(f"batch {batch} seed {seed} {','.join(langs)}\n".encode())
                digest.update("".join(f"{e.kind.key()}\n" for e in m.entries).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("strategy", sorted(GOLDEN_SCHEDULES))
def test_schedule_digest(strategy):
    assert schedule_digest(strategy) == GOLDEN_SCHEDULES[strategy]
