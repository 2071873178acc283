"""Trainable arc-eager dependency parser and greedy POS tagger, both with
averaged-perceptron scoring.

Desk-scale: training is online with a static oracle over projective
sentences (non-projective ones are skipped and counted), decoding is
greedy, and all randomness comes from one seed. Features are interned to
matrix rows and classes (transitions or tags) to columns sorted by name;
one numpy scorer serves training and decoding, and the lowest column among
equal scores breaks ties on the name. Terminal cleanup after decoding
guarantees every output is a valid single-rooted tree regardless of model
quality, including the zero model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from . import conllu
from .conllu import Diagnostic, Sentence, Token, Treebank

__all__ = [
    "OracleError",
    "ModelFormatError",
    "ParserState",
    "ParserModel",
    "TaggerModel",
    "SHIFT",
    "REDUCE",
    "is_projective",
    "static_oracle",
    "oracle_sequence",
    "train_parser",
    "parse",
    "train_tagger",
    "tag",
    "save_model",
    "load_model",
    "MODEL_MAGIC",
]

MODEL_MAGIC = "CAITB1"
FEATURE_TEMPLATE_VERSION = 1

SHIFT = "SHIFT"
REDUCE = "REDUCE"
_LEFT = "LEFT:"
_RIGHT = "RIGHT:"


class OracleError(Exception):
    pass


class ModelFormatError(Exception):
    pass


# ---------------------------------------------------------------------------
# Projectivity
# ---------------------------------------------------------------------------

def is_projective(sentence: Sentence) -> bool:
    """Crossing-arc check, with the root arc anchored at position 0."""
    arcs = [(min(t.head, t.id), max(t.head, t.id)) for t in sentence.tokens]
    for i, (lo1, hi1) in enumerate(arcs):
        for lo2, hi2 in arcs[i + 1 :]:
            if lo1 < lo2 < hi1 < hi2 or lo2 < lo1 < hi2 < hi1:
                return False
    return True


# ---------------------------------------------------------------------------
# Transition system (arc-eager, no artificial root node; the stack starts
# empty and any token left headless at the end attaches during cleanup)
# ---------------------------------------------------------------------------

class ParserState:
    def __init__(self, n: int):
        self.stack: list[int] = []
        self.buffer_pos = 1
        self.n = n
        self.heads: dict[int, int] = {}
        self.labels: dict[int, str] = {}
        # Leftmost and rightmost dependent of each position (0: none yet).
        self.leftmost = [0] * (n + 1)
        self.rightmost = [0] * (n + 1)

    @property
    def buffer_front(self) -> int | None:
        return self.buffer_pos if self.buffer_pos <= self.n else None

    def buffer_empty(self) -> bool:
        return self.buffer_pos > self.n

    def _moves(self) -> tuple[bool, bool, bool, bool]:
        """Whether SHIFT, LEFT arcs, RIGHT arcs and REDUCE are allowed."""
        buffer = self.buffer_pos <= self.n
        s0 = self.stack[-1] if self.stack else 0
        attached = s0 in self.heads
        return (
            buffer,
            buffer and bool(s0) and not attached,
            buffer and bool(s0),
            attached,
        )

    def valid_transitions(self, label_set: Sequence[str]) -> list[str]:
        shift, left, right, reduce = self._moves()
        out = [SHIFT] if shift else []
        if left:
            out.extend(_LEFT + l for l in label_set)
        if right:
            out.extend(_RIGHT + l for l in label_set)
        if reduce:
            out.append(REDUCE)
        return out

    def _attach(self, child: int, head: int, label: str) -> None:
        self.heads[child] = head
        self.labels[child] = label
        if not self.leftmost[head] or child < self.leftmost[head]:
            self.leftmost[head] = child
        if child > self.rightmost[head]:
            self.rightmost[head] = child

    def apply(self, transition: str) -> None:
        b0 = self.buffer_front
        if transition == SHIFT:
            self.stack.append(b0)
            self.buffer_pos += 1
        elif transition == REDUCE:
            self.stack.pop()
        elif transition.startswith(_LEFT):
            self._attach(self.stack.pop(), b0, transition[len(_LEFT):])
        elif transition.startswith(_RIGHT):
            self._attach(b0, self.stack[-1], transition[len(_RIGHT):])
            self.stack.append(b0)
            self.buffer_pos += 1
        else:
            raise ValueError(f"unknown transition {transition!r}")


def static_oracle(gold: Sentence, state: ParserState) -> str:
    """Next step of the canonical transition sequence for a projective tree.

    Token ``i`` of the state is ``gold.tokens[i - 1]``, as in training,
    where sentences come from a strict read with ids 1..n.
    """
    if state.buffer_empty():
        raise OracleError("no transition from a terminal state")
    if not state.stack:
        return SHIFT
    toks = gold.tokens
    b0 = state.buffer_pos
    s0 = state.stack[-1]
    s0_gold = toks[s0 - 1]
    if s0_gold.head == b0:
        if s0 in state.heads:
            raise OracleError(f"token {s0} already attached; tree not projective")
        return _LEFT + s0_gold.deprel
    b0_gold = toks[b0 - 1]
    if b0_gold.head == s0:
        return _RIGHT + b0_gold.deprel
    needs_reduce = any(
        b0_gold.head == k or toks[k - 1].head == b0 for k in state.stack[:-1]
    )
    if needs_reduce:
        if s0 not in state.heads:
            raise OracleError(f"cannot reduce unattached token {s0}; tree not projective")
        return REDUCE
    return SHIFT


def oracle_sequence(gold: Sentence) -> list[str]:
    """Replay the static oracle from the initial state; errors on
    non-projective input."""
    if not is_projective(gold):
        raise OracleError(f"sentence {gold.sent_id} is not projective")
    state = ParserState(len(gold.tokens))
    seq = []
    while not state.buffer_empty():
        transition = static_oracle(gold, state)
        seq.append(transition)
        state.apply(transition)
    return seq


def _cleanup(state: ParserState) -> tuple[dict[int, int], dict[int, str], list[int]]:
    # First headless token becomes the root; later headless tokens attach
    # to it as "dep" and are returned as the third element.
    heads = dict(state.heads)
    labels = dict(state.labels)
    root = None
    attached = []
    for i in range(1, state.n + 1):
        if i not in heads:
            if root is None:
                root = i
                heads[i] = 0
                labels[i] = "root"
            else:
                heads[i] = root
                labels[i] = "dep"
                attached.append(i)
    return heads, labels, attached


class _Transitions:
    """Transition names sorted into class indices, with the candidate
    index array of each (shift, left, right, reduce) combination."""

    def __init__(self, label_set: Sequence[str]):
        self.label_set = list(label_set)
        self.names = sorted(
            {SHIFT, REDUCE}
            | {_LEFT + l for l in label_set}
            | {_RIGHT + l for l in label_set}
        )
        self.index = {name: i for i, name in enumerate(self.names)}
        self._candidates: dict[tuple[bool, ...], np.ndarray] = {}

    def candidates(self, state: ParserState) -> np.ndarray:
        """Valid transition indices for ``state``, in ascending order."""
        key = state._moves()
        found = self._candidates.get(key)
        if found is None:
            found = self._candidates[key] = np.array(sorted(
                {self.index[t] for t in state.valid_transitions(self.label_set)}
            ), dtype=np.intp)
        return found


# ---------------------------------------------------------------------------
# Features and averaged weights
# ---------------------------------------------------------------------------

def _dist_bucket(a: int, b: int) -> str:
    d = abs(a - b)
    if d <= 3:
        return str(d)
    if d <= 6:
        return "4-6"
    return ">6"


def _parser_columns(tokens: Sequence[Token]) -> tuple[list[str], list[str]]:
    """Lowercased forms and UPOS indexed by token position; 0 is "<none>"."""
    forms = ["<none>"] + [t.form.lower() for t in tokens]
    tags = ["<none>"] + [t.upos for t in tokens]
    return forms, tags


def _parser_features(
    state: ParserState, forms: Sequence[str], tags: Sequence[str]
) -> list[str]:
    stack = state.stack
    s0 = stack[-1] if stack else 0
    s1 = stack[-2] if len(stack) > 1 else 0
    b0 = state.buffer_front or 0
    b1 = b0 + 1 if b0 and b0 + 1 <= state.n else 0
    s0f, s0p, b0f, b0p = forms[s0], tags[s0], forms[b0], tags[b0]
    s1p, b1p = tags[s1], tags[b1]
    labels = state.labels

    def dep(child: int) -> str:
        return labels[child] if child else "<none>"

    feats = [
        "bias",
        f"s0f={s0f}",
        f"s0p={s0p}",
        f"s1f={forms[s1]}",
        f"s1p={s1p}",
        f"b0f={b0f}",
        f"b0p={b0p}",
        f"b1f={forms[b1]}",
        f"b1p={b1p}",
        f"s0f|b0f={s0f}|{b0f}",
        f"s0p|b0p={s0p}|{b0p}",
        f"s0p|b0f={s0p}|{b0f}",
        f"s0f|b0p={s0f}|{b0p}",
        f"s0p|s1p={s0p}|{s1p}",
        f"b0p|b1p={b0p}|{b1p}",
    ]
    if s0:
        feats.append(f"s0ld={dep(state.leftmost[s0])}")
        feats.append(f"s0rd={dep(state.rightmost[s0])}")
        feats.append(f"s0hashead={s0 in state.heads}")
    if b0:
        feats.append(f"b0ld={dep(state.leftmost[b0])}")
    if s0 and b0:
        dist = _dist_bucket(s0, b0)
        feats.append(f"dist={dist}")
        feats.append(f"dist|s0p|b0p={dist}|{s0p}|{b0p}")
    return feats


def _predict(
    rows: dict[str, int],
    matrix: np.ndarray,
    features: Sequence[str],
    candidates: np.ndarray,
) -> int:
    """The candidate class with the highest score; the lowest index wins ties.

    Rows are summed in feature order, so float scores, and with them the
    ties, are reproducible: ``np.add.reduce`` along axis 0 of the
    C-contiguous ``take`` result adds one whole row after another to a
    running vector. numpy sums pairwise only along a contiguous reduced
    axis, which a one-column matrix would have; with one column there is
    one candidate, and it returns before any sum.
    """
    if len(candidates) == 1:
        return int(candidates[0])
    idx = [r for r in map(rows.get, features) if r is not None]
    if not idx:
        return int(candidates[0])
    scores = np.add.reduce(matrix.take(idx, axis=0), axis=0)
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


def _compile(
    weights: dict[str, dict[str, float]], classes: Sequence[str]
) -> tuple[dict[str, int], np.ndarray]:
    """Averaged float weights as feature rows of a ``[row, class]`` matrix;
    entries for classes outside ``classes`` are dropped."""
    columns = {c: i for i, c in enumerate(classes)}
    rows = {feature: r for r, feature in enumerate(weights)}
    matrix = np.zeros((len(rows), len(columns)))
    cells = [
        (r, columns[cls], w)
        for r, row in enumerate(weights.values())
        for cls, w in row.items()
        if cls in columns
    ]
    if cells:
        rs, cs, ws = zip(*cells)
        matrix[list(rs), list(cs)] = ws
    return rows, matrix


# ---------------------------------------------------------------------------
# Parser training and decoding
# ---------------------------------------------------------------------------

@dataclass
class ParserModel:
    """Averaged weights are compiled for decoding on the first ``parse``
    and not again; treat ``weights`` and ``label_set`` as read-only."""

    weights: dict[str, dict[str, float]]
    label_set: list[str]
    version: int = FEATURE_TEMPLATE_VERSION
    n_nonprojective_skipped: int = 0

    @cached_property
    def _decoder(self) -> tuple[_Transitions, dict[str, int], np.ndarray]:
        transitions = _Transitions(self.label_set or ["dep"])
        return (transitions, *_compile(self.weights, transitions.names))


# Features, gold transition and valid candidates of one oracle state.
_Step = tuple[tuple[str, ...], str, np.ndarray]


def _oracle_steps(
    gold: Sentence, transitions: _Transitions, interned: dict[str, str]
) -> list[_Step]:
    """The static oracle's path through ``gold``. Strings go through
    ``interned``, so equal features held by many steps are stored once."""
    forms, tags = _parser_columns(gold.tokens)
    state = ParserState(len(gold.tokens))
    out = []
    while not state.buffer_empty():
        features = _parser_features(state, forms, tags)
        features = tuple(map(interned.setdefault, features, features))
        truth = static_oracle(gold, state)
        out.append(
            (features, interned.setdefault(truth, truth), transitions.candidates(state))
        )
        state.apply(truth)
    return out


def train_parser(tb: Treebank, epochs: int = 5, seed: int = 0) -> ParserModel:
    """Online averaged-perceptron training with a static arc-eager oracle.

    Non-projective sentences are skipped and counted; epoch order is
    shuffled by ``seed`` only, so identical seeds give identical models.
    Training always applies the oracle's transition, so a sentence passes
    through the same states in every epoch: its steps are computed on its
    first visit and replayed on later ones.
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
    steps: list[list[_Step] | None] = [None] * len(projective)
    interned: dict[str, str] = {}
    rng = random.Random(seed)
    order = list(range(len(projective)))
    for _ in range(epochs):
        rng.shuffle(order)
        for idx in order:
            replay = steps[idx]
            if replay is None:
                replay = steps[idx] = _oracle_steps(
                    projective[idx], transitions, interned
                )
            for features, truth, candidates in replay:
                guess = _predict(weights.rows, weights.weights, features, candidates)
                weights.update(truth, names[guess], features)
    return ParserModel(weights.averaged(), label_set, FEATURE_TEMPLATE_VERSION, skipped)


def _ids_in_order(sentence: Sentence) -> bool:
    return all(t.id == i for i, t in enumerate(sentence.tokens, 1))


def _needs_normalize(sentence: Sentence) -> bool:
    """Token ids other than 1..n, or multiword ranges ``normalize`` would
    drop: decoding by position would give an invalid tree."""
    if not _ids_in_order(sentence):
        return True
    prev_end = 0
    for r in sorted(sentence.mwt, key=lambda r: (r.start, r.end)):
        if not prev_end < r.start < r.end <= len(sentence.tokens):
            return True
        prev_end = r.end
    return False


def parse(model: ParserModel, sentence: Sentence) -> Sentence:
    """Greedy arc-eager decoding; the output always validates cleanly.

    A sentence whose ids are not 1..n, or whose multiword ranges are
    invalid, goes through ``conllu.normalize`` first. The result's
    diagnostics list what was done: normalize's repairs, then one
    ``cleanup-attach`` entry naming the tokens that cleanup attached to
    the root because decoding left them headless.
    """
    if not sentence.tokens:
        raise ValueError("cannot parse an empty sentence")
    diagnostics: list[Diagnostic] = []
    if _needs_normalize(sentence):
        sentence = conllu.normalize(sentence)
        diagnostics = list(sentence.diagnostics)
    transitions, rows, matrix = model._decoder
    forms, tags = _parser_columns(sentence.tokens)
    state = ParserState(len(sentence.tokens))
    while not state.buffer_empty():
        features = _parser_features(state, forms, tags)
        best = _predict(rows, matrix, features, transitions.candidates(state))
        state.apply(transitions.names[best])
    heads, labels, attached = _cleanup(state)
    if attached:
        diagnostics.append(Diagnostic(
            "cleanup-attach",
            f"attached {len(attached)} headless token(s) to the root as dep",
            tuple(attached),
        ))
    tokens = [t.copy(head=heads[t.id], deprel=labels[t.id]) for t in sentence.tokens]
    return replace(sentence, tokens=tokens, diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# POS tagger
# ---------------------------------------------------------------------------

@dataclass
class TaggerModel:
    """Averaged weights are compiled for decoding on the first ``tag`` and
    not again; treat ``weights`` and ``classes`` as read-only."""

    weights: dict[str, dict[str, float]]
    tagdict: dict[str, str]
    classes: list[str]
    version: int = FEATURE_TEMPLATE_VERSION

    @cached_property
    def _decoder(self) -> tuple[list[str], dict[str, int], np.ndarray]:
        names = sorted(set(self.classes or ["X"]))
        return (names, *_compile(self.weights, names))


# Words at least this frequent and unambiguous in training bypass the model.
_TAGDICT_MIN_FREQ = 10

_START = ("<s1>", "<s2>")


def _tagger_features(
    lowers: Sequence[str], i: int, prev: str, prev2: str
) -> list[str]:
    lower = lowers[i]
    feats = [
        "bias",
        f"w={lower}",
        f"suf1={lower[-1:]}",
        f"suf2={lower[-2:]}",
        f"suf3={lower[-3:]}",
        f"pre1={lower[:1]}",
        f"pre2={lower[:2]}",
        f"pre3={lower[:3]}",
        f"t-1={prev}",
        f"t-2={prev2}",
        f"t-1|t-2={prev}|{prev2}",
        f"w-1={lowers[i - 1] if i >= 1 else '<s>'}",
        f"w-2={lowers[i - 2] if i >= 2 else '<s>'}",
        f"w+1={lowers[i + 1] if i + 1 < len(lowers) else '</s>'}",
        f"w+2={lowers[i + 2] if i + 2 < len(lowers) else '</s>'}",
        f"t-1|w={prev}|{lower}",
    ]
    return feats


def train_tagger(tb: Treebank, epochs: int = 5, seed: int = 0) -> TaggerModel:
    """Greedy left-to-right averaged perceptron over gold UPOS tags."""
    sentences = [s for s in tb.sentences if s.tokens]
    if not sentences:
        raise ValueError("cannot train on an empty treebank")
    tag_counts: dict[str, dict[str, int]] = {}
    classes: set[str] = set()
    for s in sentences:
        for t in s.tokens:
            classes.add(t.upos)
            tag_counts.setdefault(t.form.lower(), {}).setdefault(t.upos, 0)
            tag_counts[t.form.lower()][t.upos] += 1
    tagdict = {
        word: max(counts, key=counts.get)
        for word, counts in tag_counts.items()
        if sum(counts.values()) >= _TAGDICT_MIN_FREQ and len(counts) == 1
    }
    class_list = sorted(classes)

    weights = AveragedWeights(class_list)
    everything = np.arange(len(class_list), dtype=np.intp)
    lowered = [[t.form.lower() for t in s.tokens] for s in sentences]
    rng = random.Random(seed)
    order = list(range(len(sentences)))
    for _ in range(epochs):
        rng.shuffle(order)
        for idx in order:
            lowers = lowered[idx]
            prev, prev2 = _START
            for i, tok in enumerate(sentences[idx].tokens):
                guess = tagdict.get(lowers[i])
                if guess is None:
                    features = _tagger_features(lowers, i, prev, prev2)
                    guess = class_list[
                        _predict(weights.rows, weights.weights, features, everything)
                    ]
                    weights.update(tok.upos, guess, features)
                prev2 = prev
                prev = guess
    return TaggerModel(weights.averaged(), tagdict, class_list)


def tag(model: TaggerModel, sentence: Sentence) -> Sentence:
    """Fill UPOS only; every other field is preserved."""
    if not sentence.tokens:
        raise ValueError("cannot tag an empty sentence")
    names, rows, matrix = model._decoder
    everything = np.arange(len(names), dtype=np.intp)
    lowers = [t.form.lower() for t in sentence.tokens]
    prev, prev2 = _START
    tags = []
    for i in range(len(lowers)):
        guess = model.tagdict.get(lowers[i])
        if guess is None:
            features = _tagger_features(lowers, i, prev, prev2)
            guess = names[_predict(rows, matrix, features, everything)]
        tags.append(guess)
        prev2 = prev
        prev = guess
    tokens = [t.copy(upos=tag) for t, tag in zip(sentence.tokens, tags)]
    return replace(sentence, tokens=tokens)


# ---------------------------------------------------------------------------
# Model files: line-based text table under a magic header
# ---------------------------------------------------------------------------

def save_model(model: ParserModel | TaggerModel, sink: str | Path | IO) -> None:
    """Write ``CAITB1`` text format; rows are sorted so identical models
    produce identical files."""
    lines = []
    if isinstance(model, ParserModel):
        lines.append(f"{MODEL_MAGIC}\tparser\t{model.version}")
        lines.append(f"meta\tnonprojective_skipped\t{model.n_nonprojective_skipped}")
        for label in model.label_set:
            lines.append(f"label\t{label}")
    else:
        lines.append(f"{MODEL_MAGIC}\ttagger\t{model.version}")
        for cls in model.classes:
            lines.append(f"class\t{cls}")
        for word in sorted(model.tagdict):
            lines.append(f"tagdict\t{word}\t{model.tagdict[word]}")
    for feature in sorted(model.weights):
        row = model.weights[feature]
        for cls in sorted(row):
            lines.append(f"w\t{feature}\t{cls}\t{row[cls]!r}")
    for line in lines:  # the reader drops a line's trailing CRs
        if line.endswith("\r"):
            kind, *_, value = line.split("\t")
            raise ValueError(f"cannot save {kind} {value!r}: it ends in a carriage return")
    text = "\n".join(lines) + "\n"
    if hasattr(sink, "write"):
        sink.write(text)
        return
    Path(sink).write_text(text, encoding="utf-8")


def _number(kind: type, text: str, what: str, line_no: int):
    try:
        return kind(text)
    except ValueError:
        expected = "an integer" if kind is int else "a number"
        raise ModelFormatError(
            f"line {line_no}: {what} {text!r} is not {expected}"
        ) from None


def load_model(source: str | Path | bytes | IO) -> ParserModel | TaggerModel:
    """Read a model file from a path, bytes or a stream, line by line."""
    weights: dict[str, dict[str, float]] = {}
    labels: list[str] = []
    classes: list[str] = []
    tagdict: dict[str, str] = {}
    skipped = 0
    lines = conllu._lines(source)
    try:
        first = next(lines)
        if not first and next(lines, None) is None:  # the last line of b""
            raise ModelFormatError("empty model file")
        header = first.split("\t")
        if len(header) != 3 or header[0] != MODEL_MAGIC:
            raise ModelFormatError(f"bad magic header {first!r}; expected {MODEL_MAGIC}")
        kind, version = header[1], _number(int, header[2], "version", 1)
        if version != FEATURE_TEMPLATE_VERSION:
            raise ModelFormatError(f"unsupported feature template version {version}")
        for line_no, line in enumerate(lines, 2):
            if not line:
                continue
            fields = line.split("\t")
            if fields[0] == "w" and len(fields) == 4:
                weights.setdefault(fields[1], {})[fields[2]] = _number(
                    float, fields[3], "weight", line_no
                )
            elif fields[0] == "label" and len(fields) == 2:
                labels.append(fields[1])
            elif fields[0] == "class" and len(fields) == 2:
                classes.append(fields[1])
            elif fields[0] == "tagdict" and len(fields) == 3:
                tagdict[fields[1]] = fields[2]
            elif fields[0] == "meta" and len(fields) == 3:
                value = _number(int, fields[2], f"meta {fields[1]}", line_no)
                if fields[1] == "nonprojective_skipped":
                    skipped = value
            else:
                raise ModelFormatError(f"line {line_no}: unrecognized row {line!r}")
    except conllu.ConlluFormatError as exc:  # the one that _lines raises
        raise ModelFormatError(exc.reason) from None
    if kind == "parser":
        return ParserModel(weights, labels, version, skipped)
    if kind == "tagger":
        return TaggerModel(weights, tagdict, classes, version)
    raise ModelFormatError(f"unknown model kind {kind!r}")
