"""Frozen reference parser training for the baseline property tests.

A verbatim copy of the ``train_parser`` loop and the ``_predict`` scorer
that the replayed training in ``cait.baseline`` replaced: every epoch runs
the static oracle again, and rows are summed with ``np.add.accumulate``.
Do not edit or optimise it: the property tests hold the live functions to
its models, exception types and messages. Everything else (state, features,
weights, the oracle itself) is imported from ``cait.baseline``, so the two
sides' models compare directly.
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

from cait.baseline import (
    FEATURE_TEMPLATE_VERSION,
    AveragedWeights,
    ParserModel,
    ParserState,
    _ids_in_order,
    _parser_columns,
    _parser_features,
    _Transitions,
    is_projective,
    static_oracle,
)
from cait.conllu import Treebank


def _predict(
    rows: dict[str, int],
    matrix: np.ndarray,
    features: Sequence[str],
    candidates: np.ndarray,
) -> int:
    """The candidate class with the highest score; the lowest index wins ties.

    Rows are summed in feature order: ``np.add.accumulate`` fixes that
    order, so float scores, and with them the ties, are reproducible.
    """
    idx = [r for r in map(rows.get, features) if r is not None]
    if not idx:
        return int(candidates[0])
    scores = np.add.accumulate(matrix.take(idx, axis=0), axis=0)[-1]
    return int(candidates[scores.take(candidates).argmax()])


def train_parser(tb: Treebank, epochs: int = 5, seed: int = 0) -> ParserModel:
    """Online averaged-perceptron training with a static arc-eager oracle.

    Non-projective sentences are skipped and counted; epoch order is
    shuffled by ``seed`` only, so identical seeds give identical models.
    """
    sentences = [s for s in tb.sentences if s.tokens]
    if not sentences:
        raise ValueError("cannot train on an empty treebank")
    for s in sentences:
        if not _ids_in_order(s):
            raise ValueError(f"sentence {s.sent_id}: token ids are not 1..n")
    projective = [s for s in sentences if is_projective(s)]
    skipped = len(sentences) - len(projective)
    if not projective:
        raise ValueError("all sentences are non-projective; nothing to train on")
    label_set = sorted(
        {t.deprel for s in projective for t in s.tokens if t.head != 0}
    ) or ["dep"]

    transitions = _Transitions(label_set)
    names = transitions.names
    weights = AveragedWeights(names)
    columns = [_parser_columns(s.tokens) for s in projective]
    rng = random.Random(seed)
    order = list(range(len(projective)))
    for _ in range(epochs):
        rng.shuffle(order)
        for idx in order:
            gold = projective[idx]
            forms, tags = columns[idx]
            state = ParserState(len(gold.tokens))
            while not state.buffer_empty():
                features = _parser_features(state, forms, tags)
                truth = static_oracle(gold, state)
                guess = _predict(
                    weights.rows, weights.weights, features,
                    transitions.candidates(state),
                )
                weights.update(truth, names[guess], features)
                state.apply(truth)
    return ParserModel(weights.averaged(), label_set, FEATURE_TEMPLATE_VERSION, skipped)
