"""Frozen reference parser training for the baseline property tests.

Verbatim copies of the numpy implementation that ``cait.baseline``
replaced: the ``AveragedWeights`` class, whose integer weights are numpy
arrays indexed ``[feature row, class]``; the ``_predict`` scorer, which
sums rows with ``np.add.accumulate``; and the ``train_parser`` loop, which
runs the static oracle again in every epoch. Do not edit or optimise them:
the property tests hold the live packed-integer training, sparse decoding
and replayed training to their models, predictions, exception types and
messages. Everything else (state, features, the oracle itself) is imported
from ``cait.baseline``, so the two sides' models compare directly.
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

from cait.baseline import (
    FEATURE_TEMPLATE_VERSION,
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


class AveragedWeights:
    """Multiclass perceptron weights with lazily accumulated averages.

    Weights, their running totals and the update at which each was last
    changed are integer arrays indexed ``[feature row, class]``. Rows and
    classes are added as updates first name them, so integer weights keep
    every score exact.
    """

    def __init__(self, classes: Sequence[str] = ()):
        self.classes = list(classes)
        self._columns = {c: i for i, c in enumerate(self.classes)}
        self.rows: dict[str, int] = {}
        self.weights = np.zeros((0, len(self.classes)), dtype=np.int32)
        self._totals = np.zeros(self.weights.shape, dtype=np.int64)
        self._stamps = np.zeros(self.weights.shape, dtype=np.int32)
        self.updates = 0

    def _fit(self, n_rows: int, n_cols: int) -> None:
        # Rows grow by doubling so that a run costs amortized O(1) copies.
        have_rows, have_cols = self.weights.shape
        if n_rows <= have_rows and n_cols <= have_cols:
            return
        shape = (max(n_rows, 2 * have_rows), max(n_cols, have_cols))
        for name in ("weights", "_totals", "_stamps"):
            old = getattr(self, name)
            new = np.zeros(shape, dtype=old.dtype)
            new[:have_rows, :have_cols] = old
            setattr(self, name, new)

    def _column(self, cls: str) -> int:
        col = self._columns.get(cls)
        if col is None:
            col = self._columns[cls] = len(self.classes)
            self.classes.append(cls)
            self._fit(len(self.rows), len(self.classes))
        return col

    def _row(self, feature: str) -> int:
        row = self.rows.get(feature)
        if row is None:
            row = self.rows[feature] = len(self.rows)
            self._fit(len(self.rows), len(self.classes))
        return row

    def update(self, truth: str, guess: str, features: Sequence[str]) -> None:
        """One perceptron step; ``features`` must not repeat a string."""
        self.updates += 1
        if truth == guess:
            return
        rows = [self._row(f) for f in features]
        for cls, delta in ((truth, 1), (guess, -1)):
            col = self._column(cls)
            current = self.weights[rows, col]
            self._totals[rows, col] += (
                np.int64(self.updates) - self._stamps[rows, col]
            ) * current
            self._stamps[rows, col] = self.updates
            self.weights[rows, col] = current + delta

    def averaged(self) -> dict[str, dict[str, float]]:
        """Mean of the per-update weight snapshots, for every (feature,
        class) pair an update touched and whose mean is not zero."""
        if self.updates == 0:
            return {}
        n = len(self.rows)
        stamps = self._stamps[:n]
        # A value set at update s is part of snapshots s..U inclusive.
        totals = self._totals[:n] + (
            np.int64(self.updates + 1) - stamps
        ) * self.weights[:n]
        means = totals / self.updates
        keep = (stamps > 0) & (means != 0.0)
        features = list(self.rows)
        out: dict[str, dict[str, float]] = {}
        for r, c, mean in zip(*np.nonzero(keep), means[keep].tolist()):
            out.setdefault(features[r], {})[self.classes[c]] = mean
        return out


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
