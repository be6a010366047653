"""currikit: block-curriculum compilation and translation evaluation.

Compiles language-tagged corpora into fixed-size token-block schedules
(monolingual, parallel, replay, and replacement blocks under six
curriculum strategies) and scores externally produced translations with
corpus BLEU, paired bootstrap significance, and per-language aggregation.
"""

from .corpus import (
    Document,
    LanguageTag,
    SentencePair,
    ShortfallError,
    corpus_stats,
    load_corpus_config,
    pair_runs,
    read_monolingual,
    read_parallel,
    sample_uniform,
)
from .evaluate import (
    BleuScore,
    PromptSet,
    ResultRow,
    ResultTable,
    SignificanceResult,
    aggregate,
    bleu,
    build_prompts,
    paired_bootstrap,
)
from .packing import (
    BLOCK_TOKENS,
    SEQUENCE_LENGTH,
    SEQUENCES_PER_BLOCK,
    BlockKind,
    PackReport,
    TokenBlock,
    format_pair,
    pack_monolingual,
    pack_parallel,
    pack_replacement,
    pack_replay,
)
from .pipeline import CompileError, CompileResult, compile_corpus
from .schedule import (
    CurriculumManifest,
    ScheduleEntry,
    Strategy,
    build_schedule,
    validate_schedule,
)
from .shards import (
    AuditReport,
    ShardLayout,
    audit_shards,
    shard_stats,
    write_shards,
)
from .tokenizer import (
    BYTE_FALLBACK,
    EOT_TEXT,
    TokenizerSpec,
    count_tokens,
    decode,
    encode,
    load_vocab,
    resolve_spec,
)

__version__ = "0.1.0"
