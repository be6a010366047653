"""The four benchmark workloads: their inputs, operations and output checks.

A workload is a fixed cycle of operations run in a closed loop: one
operation at a time, in one thread, each starting when the previous one
has finished. Each operation is timed on its own; preparation (clearing
an output directory) and the output check run outside the timed region.

Operations reach the package only through its public entry points:
``currikit.cli.main(argv)`` where a command exists, and the public
functions of ``currikit.schedule`` for the paper-scale schedule. Functions
are looked up on their module at call time, so the tracer's wrappers see
every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import inputs

PAPER_TOKENS = 10_000_000_000  # 10B tokens: 38,144 blocks at batch 8 or 16


class CheckError(AssertionError):
    """An operation's output does not match its reference."""


class References:
    """Expected outputs for one workload and seed.

    A pinned value must be matched exactly. For a seed without pins, the
    first value an operation produces becomes the reference for the rest
    of the run, so repeated operations must at least agree with each other.
    """

    def __init__(self, pinned: dict | None):
        self.pinned = pinned
        self.observed: dict[str, Any] = {}

    def expect(self, key: str, value: Any) -> None:
        want = self.observed.setdefault(key, value)
        if self.pinned is not None:
            if key not in self.pinned:
                raise CheckError(f"{key}: no pinned reference")
            want = self.pinned[key]
        if value != want:
            raise CheckError(f"{key}: got {value!r}, want {want!r}")


@dataclass
class Op:
    """One timed call plus its untimed preparation and output check."""

    name: str
    units: dict[str, float]  # rate metric -> work units this op contributes
    run: Callable[[dict], Any]
    check: Callable[[dict, Any], None]
    prepare: Callable[[], None] | None = None


@dataclass
class Workload:
    name: str
    build_inputs: Callable[[Path, int], None] | None
    make_ops: Callable[["Context"], list[Op]]
    tokenizer: Callable[["Context"], str] = lambda ctx: "byte_fallback"
    config: Callable[["Context"], str | None] = lambda ctx: None
    # Workload-specific names of the primary and secondary rates.
    rate_names: dict[str, str] = field(default_factory=dict)


@dataclass
class Context:
    seed: int
    inputs: Path | None  # cached input directory for this seed
    work: Path  # scratch space for outputs, emptied by the harness
    refs: References


def cli(argv: list[str]) -> tuple[int, str]:
    """Run one CLI command, returning its exit code and captured stdout."""
    import currikit.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = currikit.cli.main(argv)
    return code, buf.getvalue()


def _require_exit_zero(result: tuple[int, str], what: str) -> None:
    code, _ = result
    if code != 0:
        raise CheckError(f"{what} exited with {code}")


# -- compile + audit ------------------------------------------------------------


def block_digest(directory: Path) -> tuple[int, str]:
    """(block count, sha256 over the block files in schedule order).

    Only ``block_*.bin`` bytes enter the digest: the sidecar records and the
    manifest are left out on purpose, so a new checksum format or manifest
    accounting does not count as a failure while any change to the token
    stream does. Block file names are zero-padded positions, so name order
    is schedule order.
    """
    h = hashlib.sha256()
    files = sorted(directory.glob("block_*.bin"))
    for path in files:
        h.update(path.read_bytes())
    return len(files), h.hexdigest()


def _compile_ops(
    ctx: Context, strategy: str, blocks: int, batch: int, tokenizer: str
) -> list[Op]:
    from currikit.packing import BLOCK_TOKENS

    out = ctx.work / "out"
    config = str(ctx.inputs / "corpus" / "corpus.json")
    argv = [
        "compile", "--config", config, "--strategy", strategy,
        "--budget-tokens", str(blocks * BLOCK_TOKENS), "--batch-blocks", str(batch),
        "--seed", str(ctx.seed), "--out", str(out), "--tokenizer", tokenizer,
        "--languages", ",".join(inputs.CORPUS_LANGUAGES),
    ]

    def check_compile(state: dict, result) -> None:
        _require_exit_zero(result, "compile")
        count, digest = block_digest(out)
        ctx.refs.expect("blocks", count)
        ctx.refs.expect("blocks_sha256", digest)
        state["compiled"] = True

    def run_audit(state: dict):
        if not state.get("compiled"):
            raise CheckError("no compiled corpus to audit")
        return cli(["audit", "--dir", str(out)])

    return [
        Op("compile", {"primary": blocks}, lambda state: cli(argv), check_compile,
           prepare=lambda: shutil.rmtree(out, ignore_errors=True)),
        Op("audit", {"secondary": blocks}, run_audit,
           lambda state, result: _require_exit_zero(result, "audit")),
    ]


def mixed_ops(ctx: Context) -> list[Op]:
    return _compile_ops(ctx, "mixed", blocks=8, batch=8, tokenizer="byte_fallback")


def replacement_ops(ctx: Context) -> list[Op]:
    vocab = str(ctx.inputs / "vocab.txt")
    return _compile_ops(ctx, "multilingual-replacement", blocks=4, batch=4, tokenizer=vocab)


# -- paper-scale schedule ---------------------------------------------------------

SCHEDULE_CONFIGS = (("mixed", 8), ("mixed", 16), ("parallel-first", 8), ("parallel-first", 16))


def kind_digest(manifest) -> str:
    h = hashlib.sha256()
    for entry in manifest.entries:
        h.update(entry.kind.key().encode("utf-8") + b"\n")
    return h.hexdigest()


def schedule_ops(ctx: Context) -> list[Op]:
    import currikit.schedule as schedule
    from currikit.corpus import SEA_CODES
    from currikit.packing import BLOCK_TOKENS

    ops = []
    for strategy, batch in SCHEDULE_CONFIGS:
        key = f"{strategy}:{batch}"

        def build(state: dict, strategy=strategy, batch=batch, key=key):
            manifest = schedule.build_schedule(
                strategy, PAPER_TOKENS, SEA_CODES, batch, ctx.seed
            )
            violations = schedule.validate_schedule(manifest)
            state[key] = manifest
            return manifest, violations

        def check_build(state: dict, result, key=key) -> None:
            manifest, violations = result
            if violations:
                raise CheckError(f"{key}: {len(violations)} violations, first {violations[0]}")
            ctx.refs.expect(f"{key}:blocks", manifest.n_blocks)
            ctx.refs.expect(f"{key}:kinds_sha256", kind_digest(manifest))

        def roundtrip(state: dict, key=key):
            manifest = state.pop(key)
            text = manifest.to_json()
            return manifest, schedule.CurriculumManifest.from_json(text)

        def check_roundtrip(state: dict, result, key=key) -> None:
            before, after = result
            if after != before:
                raise CheckError(f"{key}: manifest changed in a to_json/from_json round trip")

        blocks = PAPER_TOKENS // BLOCK_TOKENS // batch * batch
        ops.append(Op(f"build:{key}", {"primary": blocks}, build, check_build))
        # The round trip belongs to both rates: the whole chain (primary)
        # and the manifest round trip alone (secondary).
        ops.append(Op(f"roundtrip:{key}", {"primary": 0, "secondary": blocks},
                      roundtrip, check_roundtrip))
    return ops


# -- scoring -----------------------------------------------------------------------

SIGNIF_SAMPLES = 1000


def score_ops(ctx: Context) -> list[Op]:
    ops = []
    for code, mode in (("id", "default"), ("zh", "zh")):
        ref = str(ctx.inputs / f"{code}.ref.txt")
        hyp_a = str(ctx.inputs / f"{code}.hyp_a.txt")
        hyp_b = str(ctx.inputs / f"{code}.hyp_b.txt")
        bleu_argv = ["bleu", "--hypotheses", hyp_a, "--references", ref,
                     "--mode", mode, "--json"]
        signif_argv = ["signif", "--hypotheses-a", hyp_a, "--hypotheses-b", hyp_b,
                       "--references", ref, "--n", str(SIGNIF_SAMPLES),
                       "--seed", str(ctx.seed), "--mode", mode, "--json"]

        def check_bleu(state: dict, result, code=code) -> None:
            _require_exit_zero(result, f"bleu {code}")
            ctx.refs.expect(f"bleu:{code}", json.loads(result[1])["score"])

        def check_signif(state: dict, result, code=code) -> None:
            _require_exit_zero(result, f"signif {code}")
            doc = json.loads(result[1])
            for field_name in ("p_value", "score_a", "score_b"):
                ctx.refs.expect(f"signif:{code}:{field_name}", doc[field_name])

        ops.append(Op(f"bleu:{code}", {"primary": inputs.SCORE_SENTENCES},
                      lambda state, argv=bleu_argv: cli(argv), check_bleu))
        ops.append(Op(f"signif:{code}", {"secondary": SIGNIF_SAMPLES},
                      lambda state, argv=signif_argv: cli(argv), check_signif))
    return ops


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "compile-mixed-bytes",
            inputs.write_mixed_inputs,
            mixed_ops,
            config=lambda ctx: str(ctx.inputs / "corpus" / "corpus.json"),
            rate_names={"primary": "compile_blocks_per_s", "secondary": "audit_blocks_per_s"},
        ),
        Workload(
            "compile-replacement-bpe",
            inputs.write_replacement_inputs,
            replacement_ops,
            tokenizer=lambda ctx: str(ctx.inputs / "vocab.txt"),
            config=lambda ctx: str(ctx.inputs / "corpus" / "corpus.json"),
            rate_names={"primary": "compile_blocks_per_s", "secondary": "audit_blocks_per_s"},
        ),
        Workload(
            "schedule-paper",
            None,
            schedule_ops,
            rate_names={
                "primary": "schedule_blocks_per_s",
                "secondary": "manifest_roundtrip_blocks_per_s",
            },
        ),
        Workload(
            "score",
            inputs.write_score_inputs,
            score_ops,
            rate_names={"primary": "bleu_sentences_per_s", "secondary": "signif_resamples_per_s"},
        ),
    )
}
