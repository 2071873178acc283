"""Frozen reference scoring for the evaluation property tests.

A verbatim copy of the ``align`` ... ``confusion`` functions that the
one-alignment-per-pair scoring in ``cait.evaluation`` replaced, each
aligning sentence pairs on its own. Do not edit or optimise it: the
property tests hold the live functions to its results, exception types
and messages. The data classes, enums and exceptions are imported from
``cait.evaluation`` so that the two sides' results compare directly.
"""

from __future__ import annotations

import unicodedata
from typing import Sequence

from cait.conllu import Sentence, SpeakerRole, Token, Treebank
from cait.evaluation import (
    LENGTH_BINS,
    AlignmentError,
    ConfusionMatrix,
    ConfusionScope,
    ErrorScope,
    EvalReport,
    SentencePairScore,
    SliceScore,
)


def _norm_form(form: str) -> str:
    return unicodedata.normalize("NFC", "".join(form.split()))


def align(gold: Sentence, pred: Sentence) -> list[tuple[Token, Token]]:
    """Pair syntactic words positionally; MWT ranges and empty nodes are
    not part of the token sequence and therefore never scored."""
    if len(gold.tokens) != len(pred.tokens):
        raise AlignmentError(
            gold.sent_id,
            min(len(gold.tokens), len(pred.tokens)) + 1,
            f"token counts differ ({len(gold.tokens)} gold vs {len(pred.tokens)} predicted)",
        )
    pairs = []
    for i, (g, p) in enumerate(zip(gold.tokens, pred.tokens), 1):
        if _norm_form(g.form) != _norm_form(p.form):
            raise AlignmentError(
                gold.sent_id, i, f"forms differ ({g.form!r} vs {p.form!r})"
            )
        pairs.append((g, p))
    return pairs


def _deprel_for_comparison(deprel: str, universal_only: bool) -> str:
    return deprel.split(":", 1)[0] if universal_only else deprel


def score_sentence(
    gold: Sentence, pred: Sentence, *, universal_deprel_only: bool = False
) -> SentencePairScore:
    """Count head-correct and label-and-head-correct tokens.

    Deprel comparison is exact including subtypes unless
    ``universal_deprel_only`` is set. Punctuation is scored; it is only
    excluded from ``length_nopunct``.
    """
    pairs = align(gold, pred)
    n_scored = len(pairs)
    n_head = 0
    n_las = 0
    for g, p in pairs:
        if g.head == p.head:
            n_head += 1
            if _deprel_for_comparison(
                g.deprel, universal_deprel_only
            ) == _deprel_for_comparison(p.deprel, universal_deprel_only):
                n_las += 1
    return SentencePairScore(
        sent_id=gold.sent_id,
        n_scored=n_scored,
        n_head_correct=n_head,
        n_las_correct=n_las,
        exact=n_las == n_scored,
        unlabeled_exact=n_head == n_scored,
        speaker_role=gold.speaker_role,
        length_nopunct=sum(1 for g, _ in pairs if g.upos != "PUNCT"),
    )


def aggregate(scores: Sequence[SentencePairScore]) -> EvalReport:
    """Micro-averaged LAS/UAS over token totals plus sentence-level EM/UEM,
    with CS/CDS slices and the four length bins crossed with speaker."""
    if not scores:
        raise ValueError("cannot aggregate an empty score list")

    def micro(subset: Sequence[SentencePairScore]) -> SliceScore:
        tokens = sum(s.n_scored for s in subset)
        heads = sum(s.n_head_correct for s in subset)
        las = sum(s.n_las_correct for s in subset)
        if tokens == 0:
            return SliceScore(0.0, 0.0, len(subset))
        return SliceScore(100.0 * las / tokens, 100.0 * heads / tokens, len(subset))

    overall = micro(scores)
    if sum(s.n_scored for s in scores) == 0:
        raise ValueError("no scored tokens")
    em = 100.0 * sum(1 for s in scores if s.exact) / len(scores)
    uem = 100.0 * sum(1 for s in scores if s.unlabeled_exact) / len(scores)

    slices: dict[str, SliceScore] = {}
    for role in (SpeakerRole.CS, SpeakerRole.CDS):
        subset = [s for s in scores if s.speaker_role is role]
        slices[role.value] = micro(subset)
    for role in (SpeakerRole.CS, SpeakerRole.CDS):
        for name, lo, hi in LENGTH_BINS:
            subset = [
                s
                for s in scores
                if s.speaker_role is role and lo <= s.length_nopunct <= hi
            ]
            slices[f"{role.value}:{name}"] = micro(subset)

    return EvalReport(
        las=overall.las,
        uas=overall.uas,
        em=em,
        uem=uem,
        per_sentence=list(scores),
        slices=slices,
    )


def _pair_sentences(gold: Treebank, pred: Treebank) -> list[tuple[Sentence, Sentence]]:
    if len(gold.sentences) != len(pred.sentences):
        raise AlignmentError(
            "<treebank>",
            0,
            f"sentence counts differ ({len(gold.sentences)} vs {len(pred.sentences)})",
        )
    return list(zip(gold.sentences, pred.sentences))


def tag_accuracy(gold: Treebank, pred: Treebank, tagfield: str = "upos") -> float:
    """Percentage of aligned tokens whose UPOS (or XPOS) values are equal."""
    if tagfield not in ("upos", "xpos"):
        raise ValueError(f"tagfield must be 'upos' or 'xpos', got {tagfield!r}")
    total = 0
    equal = 0
    for gsent, psent in _pair_sentences(gold, pred):
        for g, p in align(gsent, psent):
            total += 1
            if getattr(g, tagfield) == getattr(p, tagfield):
                equal += 1
    if total == 0:
        raise ValueError("no tokens to score")
    return 100.0 * equal / total


def evaluate_treebanks(
    gold: Treebank, pred: Treebank, *, universal_deprel_only: bool = False
) -> EvalReport:
    """Score every sentence pair and aggregate, adding tag accuracies when
    the prediction carries any POS annotation."""
    scores = [
        score_sentence(g, p, universal_deprel_only=universal_deprel_only)
        for g, p in _pair_sentences(gold, pred)
    ]
    report = aggregate(scores)
    if any(t.upos != "_" for s in pred.sentences for t in s.tokens):
        report.upos_acc = tag_accuracy(gold, pred, "upos")
    if any(t.xpos != "_" for s in pred.sentences for t in s.tokens):
        report.xpos_acc = tag_accuracy(gold, pred, "xpos")
    return report


def per_label_error_rates(
    gold: Treebank,
    pred: Treebank,
    min_gold: int = 100,
    scope: ErrorScope = ErrorScope.LAS,
) -> dict[str, float]:
    """Error rate per gold deprel, normalized by gold label frequency;
    labels with fewer than ``min_gold`` gold instances are omitted."""
    if min_gold < 1:
        raise ValueError("min_gold must be >= 1")
    freq: dict[str, int] = {}
    errors: dict[str, int] = {}
    for gsent, psent in _pair_sentences(gold, pred):
        for g, p in align(gsent, psent):
            freq[g.deprel] = freq.get(g.deprel, 0) + 1
            if scope is ErrorScope.LAS:
                wrong = g.head != p.head or g.deprel != p.deprel
            else:
                wrong = g.deprel != p.deprel
            if wrong:
                errors[g.deprel] = errors.get(g.deprel, 0) + 1
    return {
        label: errors.get(label, 0) / count
        for label, count in sorted(freq.items())
        if count >= min_gold
    }


def confusion(
    gold: Treebank, pred: Treebank, scope: ConfusionScope = ConfusionScope.LABEL_ONLY
) -> ConfusionMatrix:
    """Gold-by-predicted deprel counts over aligned tokens."""
    import numpy as np

    pair_counts: dict[tuple[str, str], int] = {}
    labels: set[str] = set()
    for gsent, psent in _pair_sentences(gold, pred):
        for g, p in align(gsent, psent):
            if scope is ConfusionScope.LAS_ERRORS and g.head == p.head and g.deprel == p.deprel:
                continue
            labels.add(g.deprel)
            labels.add(p.deprel)
            key = (g.deprel, p.deprel)
            pair_counts[key] = pair_counts.get(key, 0) + 1
    ordered = sorted(labels)
    index = {label: i for i, label in enumerate(ordered)}
    counts = np.zeros((len(ordered), len(ordered)), dtype=np.int64)
    for (g, p), c in pair_counts.items():
        counts[index[g], index[p]] = c
    return ConfusionMatrix(ordered, counts)
