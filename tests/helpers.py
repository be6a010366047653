"""Small factories shared across test modules."""

import dataclasses
import hashlib
import itertools
import json
import logging
import unicodedata
from collections import Counter
from pathlib import Path

import numpy as np

from currikit import evaluate, packing, rng, schedule
from currikit.corpus import (
    EN,
    MAX_ROW_WARNINGS,
    Document,
    PairRun,
    ReadCounter,
    SentencePair,
    ShortfallError,
    language,
    sort_codes,
)
from currikit.rng import hash64
from currikit.tokenizer import EOT_TEXT, TokenizerError, encode


def make_doc(text, code="id", source="synthetic", ordinal=0):
    return Document(text=text, language=language(code), source_id=source, ordinal=ordinal)


def make_pair(en, sea, code="id", source="synthetic", ordinal=0):
    return SentencePair(
        en_text=en, sea_text=sea, sea_language=language(code),
        source_id=source, ordinal=ordinal,
    )


def runs_of(pairs):
    """Pairs as the ``PairRun``s the packers take, one pair each, made as the
    packer pulls them; committing one counts nothing."""
    for pair in pairs:
        yield PairRun(pair.sea_language, pair.source_id, [pair.en_text], [pair.sea_text],
                      [pair.ordinal])


def batches(manifest):
    """A manifest's entries, a batch at a time."""
    b = manifest.batch_size_blocks
    for start in range(0, len(manifest.entries), b):
        yield manifest.entries[start : start + b]


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


def reference_pack(records, kind, spec, report):
    """Reference for ``packing._pack``: one record at a time into a block buffer.

    Each record's ids are copied into a ``uint32`` buffer of
    ``packing.BLOCK_TOKENS`` ids and its end-of-text id is written after
    them; a full buffer becomes a block and the rest of the record goes into
    a fresh one. Consecutive records of one source whose ordinals repeat or
    step by one share a provenance span. The packer must yield the same
    blocks after pulling the same records, with the same report counts.
    """
    block_tokens = packing.BLOCK_TOKENS
    buffer = np.empty(block_tokens, dtype=np.uint32)
    fill = 0
    closed = []  # this block's finished spans
    span_source = None  # open span; None until a record enters the block
    span_first = span_last = 0
    for text, source_id, ordinal in records:
        ids = encode(text, spec)
        size = len(ids) + 1  # with the end-of-text id
        report.records += 1
        report.tokens_in += size
        if span_source == source_id and span_last in (ordinal, ordinal - 1):
            span_last = ordinal
        else:
            if span_source is not None:
                closed.append((span_source, span_first, span_last))
            span_source, span_first, span_last = source_id, ordinal, ordinal
        placed = 0
        while True:
            take = min(len(ids) - placed, block_tokens - fill)
            buffer[fill : fill + take] = ids[placed : placed + take]
            fill += take
            placed += take
            if placed == len(ids) and fill < block_tokens:
                buffer[fill] = spec.eot_id
                fill += 1
                placed += 1
            if fill < block_tokens:
                break
            closed.append((span_source, span_first, span_last))
            report.blocks += 1
            yield packing.TokenBlock(
                ids=buffer,
                kind=kind,
                provenance=tuple(packing.ProvenanceSpan(*span) for span in closed),
            )
            buffer = np.empty(block_tokens, dtype=np.uint32)
            fill = 0
            closed = []
            if placed == size:
                span_source = None
                break
            span_first = ordinal  # the record's rest opens the next block's span


def record_runs(records):
    """``(text, source_id, ordinal)`` records as the runs ``packing._pack``
    takes, one record each, pulled as they are needed."""
    for text, source_id, ordinal in records:
        yield [text], source_id, [ordinal], None


def reference_pair_rows(path):
    """The pair row rules, one line at a time: per line, its ordinal and its
    stripped ``(en, sea)`` sides, or the warning a malformed row logs. A TSV
    row needs two tab-separated fields, a JSONL row string ``"en"`` and
    ``"sea"`` fields, and neither side may strip to nothing."""
    jsonl = str(path).endswith(".jsonl")
    with open(path, encoding="utf-8") as fh:
        for ordinal, line in enumerate(fh):
            if jsonl:
                try:
                    obj = json.loads(line)
                    sides = obj["en"], obj["sea"]
                except (json.JSONDecodeError, KeyError, TypeError):
                    yield ordinal, f"row {ordinal} is malformed"
                    continue
                if not all(isinstance(side, str) for side in sides):
                    yield ordinal, f"row {ordinal} has non-string sides"
                    continue
            else:
                sides = line.rstrip("\n").split("\t")
                if len(sides) != 2:
                    yield ordinal, f"row {ordinal} has {len(sides)} fields (want 2)"
                    continue
            en, sea = (side.strip() for side in sides)
            if not en or not sea:
                yield ordinal, f"row {ordinal} has an empty side"
                continue
            yield ordinal, (en, sea)


def reference_read_parallel(path, code, counter=None, source_id=None):
    """Reference for ``corpus.read_parallel``: a pair-at-a-time reader. Each
    row is counted, and a malformed one logged, as it is read; the total of
    malformed rows past the first ``MAX_ROW_WARNINGS`` is logged when the
    read ends, at the file's end or when the reader is closed."""
    log = logging.getLogger("currikit.corpus")
    counter = counter if counter is not None else ReadCounter()
    source_id = source_id if source_id is not None else str(path)
    tag = language(code)
    malformed = 0
    try:
        for ordinal, sides in reference_pair_rows(path):
            if isinstance(sides, str):
                counter.skipped += 1
                malformed += 1
                if malformed <= MAX_ROW_WARNINGS:
                    log.warning("%s: %s, skipping", source_id, sides)
                continue
            counter.emitted += 1
            yield SentencePair(*sides, tag, source_id, ordinal)
    finally:
        if malformed > MAX_ROW_WARNINGS:
            log.warning("%s: skipped %d malformed rows, the first %d logged",
                        source_id, malformed, MAX_ROW_WARNINGS)


def reference_pair_runs(path, code, counter=None, source_id=None):
    """``reference_read_parallel``'s pairs as runs of one, each counted as
    it is pulled: what a compile reads with it in place of ``pair_runs``."""
    return runs_of(reference_read_parallel(path, code, counter, source_id))


def reference_pair_records(pairs, code, seed, label_style, report):
    """Reference for ``packing._rendered``: pair ``i`` draws its side
    order from ``coin(seed, "direction", code, i)`` (0 is English first) and
    renders as two ``label: sentence`` lines."""
    en_label = EN.label(label_style)
    for index, pair in enumerate(pairs):
        sea_label = pair.sea_language.label(label_style)
        if rng.coin(seed, "direction", code, index) == 0:
            report.en_first += 1
            text = f"{en_label}: {pair.en_text}\n{sea_label}: {pair.sea_text}"
        else:
            text = f"{sea_label}: {pair.sea_text}\n{en_label}: {pair.en_text}"
        yield text, pair.source_id, pair.ordinal


def reference_substituted(pairs, docs, code, spec, report):
    """Reference for ``packing._substituted``: pair by pair, the pair is
    pulled, then the next sentence of the documents; the pair's token delta
    is counted and it is yielded with that sentence as its SEA side."""
    supply = (sentence for doc in docs for sentence in packing.split_sentences(doc.text))
    for index, pair in enumerate(pairs):
        substitute = next(supply, None)
        if substitute is None:
            raise ShortfallError(
                f"replacement text for {code} exhausted after {index} pairs",
                {"pairs_substituted": index},
            )
        delta = len(encode(substitute, spec)) - len(encode(pair.sea_text, spec))
        report.replacement_token_delta += delta
        yield dataclasses.replace(pair, sea_text=substitute)


_MASK64 = (1 << 64) - 1


def splitmix_draws(count, *key):
    """Reference for ``rng.draws64``: splitmix64 stepped one draw at a time.

    The state starts at ``hash64(key)``; each step adds the golden-ratio
    increment and mixes a copy of the state into the next value.
    ``draws64`` and ``indices_with_replacement`` must agree with it.
    """
    state = hash64(*key)
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out.append(z ^ (z >> 31))
    return out


def scalar_swaps(n, *key):
    """Reference for ``rng.swaps``: every Fisher-Yates step hashes its whole key.

    Step ``i`` runs from ``n - 1`` down to 1 and swaps ``i`` with
    ``hash64(*key, i) % (i + 1)``; ``rng.shuffled`` applies these steps.
    """
    return [(i, hash64(*key, i) % (i + 1)) for i in range(n - 1, 0, -1)]


def whole_shuffle_mixed_order(base, open_run, seed, batch_index):
    """Reference for ``schedule._mixed_order``: whole shuffles, full check.

    Each attempt is a complete ``rng.shuffled`` pass of the batch's entries
    judged by ``_short_runs`` over the carried run and the new order, with
    the same fallback after ``MAX_PERMUTATION_ATTEMPTS``. Returns
    ``(attempt, order)``; ``attempt`` is None when the fallback decided.
    """
    def passes(order):
        return next(schedule._short_runs(e.kind for e in open_run + order), None) is None

    for attempt in range(schedule.MAX_PERMUTATION_ATTEMPTS):
        order = rng.shuffled(base, seed, "batch", batch_index, attempt)
        if passes(order):
            return attempt, order
    order = schedule._mixed_fallback(base, batch_index)
    if not passes(order):
        raise schedule.ConstraintError("fallback violates the interleave constraint", batch_index)
    return None, order


def reference_schedule(strategy, n_batches, language_set, batch, seed):
    """Reference for the entries of ``schedule.build_schedule``: a fresh
    ``BlockKind`` and ``ScheduleEntry`` per block, kind names laid out one
    block at a time, and ``whole_shuffle_mixed_order`` for mixed."""
    strategy = schedule.Strategy(strategy)
    names = schedule.STRATEGY_KINDS[strategy]
    replays = batch // schedule.REPLAY_DIVISOR
    per_batch = batch - replays
    total = n_batches * per_batch
    if strategy is schedule.Strategy.MIXED:
        sequence = [names[j % 2] for j in range(total)]
    else:
        head = (total + 1) // 2 if len(names) == 2 else total
        sequence = [names[0]] * head + [names[-1]] * (total - head)
    languages = {name: itertools.cycle(sort_codes(language_set)) for name in names}
    kinds = [packing.BlockKind(name, next(languages[name])) for name in sequence]
    entries, open_run = [], []
    for b in range(n_batches):
        base = [schedule.ScheduleEntry(packing.BlockKind.replay()) for _ in range(replays)]
        base += [schedule.ScheduleEntry(k) for k in kinds[b * per_batch : (b + 1) * per_batch]]
        if strategy is schedule.Strategy.MIXED:
            _, order = whole_shuffle_mixed_order(base, open_run, seed, b)
            last_replay = max(i for i, e in enumerate(order) if e.kind.name == "replay")
            open_run = order[last_replay:]
        else:
            order = rng.shuffled(base, seed, "batch", b, 0)
        entries += order
    return entries


def reference_validate(manifest):
    """Reference for ``schedule.validate_schedule``: one pass over the
    entries per rule, the violations listed rule by rule in this order."""
    V = schedule.Violation
    v = []
    entries = manifest.entries
    batch = manifest.batch_size_blocks
    strategy = manifest.strategy
    if len(entries) % batch:
        v.append(V("batch-multiple", (),
                   f"{len(entries)} entries not a multiple of batch {batch}"))
    want_replay = batch // schedule.REPLAY_DIVISOR
    for b, group in enumerate(batches(manifest)):
        got = sum(1 for e in group if e.kind.name == "replay")
        if got != want_replay:
            v.append(V("replay-ratio", tuple(range(b * batch, b * batch + len(group))),
                       f"batch {b} has {got} replay blocks, want {want_replay}"))
    allowed = schedule.STRATEGY_KINDS[strategy]
    for i, e in enumerate(entries):
        if e.kind.name != "replay" and e.kind.name not in allowed:
            v.append(V("kind-domain", (i,), f"{e.kind.key()} not allowed in {strategy.value}"))
        if e.kind.language is not None and e.kind.language not in manifest.language_set:
            v.append(V("language-domain", (i,),
                       f"{e.kind.language} not in the manifest language set"))
    mono = sum(1 for e in entries if e.kind.name == "monolingual")
    par = sum(1 for e in entries if e.kind.name == "parallel")
    if len(allowed) == 2 and abs(mono - par) > 1:
        v.append(V("equal-ratio", (), f"{mono} monolingual vs {par} parallel blocks"))
    if strategy is schedule.Strategy.MIXED:
        for opening, closing, run_mono, run_par in schedule._short_runs(e.kind for e in entries):
            v.append(V("interleave", (opening + 1, closing),
                       f"run before position {closing} has "
                       f"{run_mono} monolingual and {run_par} parallel blocks"))
    if strategy in (schedule.Strategy.PARALLEL_FIRST, schedule.Strategy.PARALLEL_LAST):
        early, late = allowed
        last_early_batch, first_late_batch = -1, None
        for b, group in enumerate(batches(manifest)):
            names = {e.kind.name for e in group}
            if early in names:
                last_early_batch = b
            if late in names and first_late_batch is None:
                first_late_batch = b
        if first_late_batch is not None and last_early_batch > first_late_batch:
            v.append(V("phase-order", (first_late_batch * batch,),
                       f"{early} blocks appear after batch {first_late_batch} "
                       f"(up to batch {last_early_batch}); at most one transition "
                       f"batch may hold both"))
    for name in ("monolingual", "parallel", "replacement"):
        counts = {code: 0 for code in manifest.language_set}
        seen = False
        for e in entries:
            if e.kind.name == name and e.kind.language is not None:
                counts[e.kind.language] = counts.get(e.kind.language, 0) + 1
                seen = True
        if seen and max(counts.values()) - min(counts.values()) > 1:
            v.append(V("language-balance", (), f"{name} blocks per language are uneven: {counts}"))
    return v


def _is_cjk(ch):
    """CJK Unified Ideographs, Extension A, Compatibility Ideographs and
    Extensions B-F: the characters zh mode splits one by one."""
    cp = ord(ch)
    return (
        0x4E00 <= cp <= 0x9FFF
        or 0x3400 <= cp <= 0x4DBF
        or 0xF900 <= cp <= 0xFAFF
        or 0x20000 <= cp <= 0x2A6DF
        or 0x2A700 <= cp <= 0x2EBEF
    )


def scalar_tokenize(text, mode="default"):
    """Reference for ``evaluate.tokenize``: one category lookup per character.

    Punctuation (and CJK in zh mode) is padded with spaces character by
    character, then the joined text is split on whitespace.
    """
    if mode not in evaluate.TOKENIZATION_MODES:
        raise ValueError(f"unknown tokenization mode {mode!r}")
    out = []
    for ch in text:
        if unicodedata.category(ch).startswith("P") or (mode == "zh" and _is_cjk(ch)):
            out.append(f" {ch} ")
        else:
            out.append(ch)
    return "".join(out).split()


def _ngram_counts(tokens, n):
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def scalar_sentence_stats(hyp_tokens, ref_tokens):
    """``[correct_1..4, total_1..4, hyp_len, ref_len]`` of one sentence pair,
    each hypothesis n-gram count clipped at its ``Counter`` count in the
    reference."""
    row = []
    for n in range(1, evaluate.MAX_NGRAM + 1):
        ref = _ngram_counts(ref_tokens, n)
        hyp = _ngram_counts(hyp_tokens, n)
        row.append(sum(min(c, ref[g]) for g, c in hyp.items()))
    for n in range(1, evaluate.MAX_NGRAM + 1):
        row.append(max(0, len(hyp_tokens) - n + 1))
    row.append(len(hyp_tokens))
    row.append(len(ref_tokens))
    return row


def scalar_corpus_stats(references, mode, *systems):
    """Reference for ``evaluate._corpus_stats``, one sentence at a time.

    Row i is ``scalar_sentence_stats`` of ``systems[0][i]``, then of
    ``systems[1][i]`` and so on, against ``references[i]``.
    """
    rows = []
    for i, ref in enumerate(references):
        ref_tokens = scalar_tokenize(ref, mode)
        rows.append([
            value
            for hypotheses in systems
            for value in scalar_sentence_stats(scalar_tokenize(hypotheses[i], mode), ref_tokens)
        ])
    return rows


def reference_bootstrap(hyps_a, hyps_b, references, n_samples, seed, mode="default"):
    """Reference for ``evaluate.paired_bootstrap``, one sample at a time.

    Sample s draws its indices with ``rng.indices_with_replacement`` under
    the key ``(seed, "bootstrap", s)``, sums those rows of
    ``scalar_corpus_stats`` as Python ints and compares the two systems'
    ``_score_from_totals`` scores; ties count against A.
    """
    rows = scalar_corpus_stats(references, mode, hyps_a, hyps_b)
    n, width = len(references), evaluate.STATS_WIDTH

    def scores(totals):
        return (
            evaluate._score_from_totals(totals[:width], mode).score,
            evaluate._score_from_totals(totals[width:], mode).score,
        )

    score_a, score_b = scores([sum(column) for column in zip(*rows)])
    worse_or_tied = 0
    for s in range(n_samples):
        idx = rng.indices_with_replacement(n, n, seed, "bootstrap", s).tolist()
        a, b = scores([sum(column) for column in zip(*(rows[i] for i in idx))])
        worse_or_tied += a <= b
    return evaluate.SignificanceResult(
        delta=score_a - score_b,
        p_value=(1 + worse_or_tied) / (n_samples + 1),
        n_samples=n_samples,
        seed=seed,
        score_a=score_a,
        score_b=score_b,
        mode=mode,
    )
