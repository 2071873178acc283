"""Trainable arc-eager dependency parser and greedy POS tagger, both with
averaged-perceptron scoring.

Desk-scale: training is online with a static oracle over projective
sentences (non-projective ones are skipped and counted), decoding is
greedy, and all randomness comes from one seed. Classes (transitions or
tags) are columns sorted by name, and the lowest column among equal scores
breaks ties on the name. Training keeps exact integer weights, each
feature's packed into one int of 32-bit fields (64-bit once scores could
outgrow them), so a score vector is a sum of a few ints, and one guard-bit
subtraction tells whether the oracle's class wins. Decoding sums the
averaged weights the same way in 32-bit fixed point, which is exact to
within k/2 units for k features; only when the top two candidates are
within ``2k + 2`` units, a state has more than 32 features, or the model
has a weight of ``2**1000`` or more, does it add each feature's float
weights in feature order. Either way it picks what the float sums pick.
Plain Python does both: no command loads numpy. Terminal cleanup after
decoding guarantees every output is a valid single-rooted tree regardless
of model quality, including the zero model.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import IO, Sequence

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


class OracleError(ValueError):
    pass


class ModelFormatError(ValueError):
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
    indices of each (shift, left, right, reduce) combination."""

    def __init__(self, label_set: Sequence[str]):
        self.names = sorted(
            {SHIFT, REDUCE}
            | {_LEFT + l for l in label_set}
            | {_RIGHT + l for l in label_set}
        )
        self.index = index = {name: i for i, name in enumerate(self.names)}
        # The indices of each move kind, in the order of ParserState._moves.
        self._kinds = (
            [index[SHIFT]],
            [index[_LEFT + l] for l in label_set],
            [index[_RIGHT + l] for l in label_set],
            [index[REDUCE]],
        )
        self._candidates: dict[tuple[bool, ...], tuple[int, ...]] = {}

    def candidates(self, state: ParserState) -> tuple[int, ...]:
        """Valid transition indices for ``state``, in ascending order."""
        key = state._moves()
        found = self._candidates.get(key)
        if found is None:
            found = self._candidates[key] = tuple(sorted({
                i for allowed, kind in zip(key, self._kinds) if allowed for i in kind
            }))
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


# Training starts with fields this many bits wide.
_NARROW_BITS = 32


class AveragedWeights:
    """Multiclass perceptron weights with lazily accumulated averages.

    ``rows[feature]`` packs the feature's integer class weights into one
    signed int, ``sum(w[feature, c] << (width * c))``. A score vector is
    the sum of the rows the features name plus ``2**(width - 2)`` in every
    field, which keeps each field in ``(0, 2**(width - 1))`` while
    ``|score| <= len(features) * updates`` stays below ``2**(width - 2)``.
    Fields are ``_NARROW_BITS`` (32) wide until a prediction's
    ``len(features) * updates`` could reach that bound; then every row is
    rebuilt once from the cells with 64-bit fields, whose bound is
    ``2**62``. Each (feature, class) pair that an update touched also keeps
    its weight, running total and the update at which it last changed.
    The classes, one column each, are fixed at construction; rows are added
    as updates first name them, and integer weights keep every score exact.
    """

    def __init__(self, classes: Sequence[str]):
        self.classes = list(classes)
        self._width = _NARROW_BITS
        self.rows: dict[str, int] = {}
        # feature -> column -> [weight, running total, update of last change]
        self._cells: dict[str, dict[int, list[int]]] = {}
        # candidates -> the guard bits of their fields
        self._guards_of: dict[tuple[int, ...], int] = {}
        self.updates = 0
        self._layout()

    def _layout(self) -> None:
        """The constants of the field width and the columns."""
        width = self._width
        self._cap = 1 << (width - 2)
        self._field = (1 << width) - 1
        self._ones = ones = sum(1 << (width * col) for col in range(len(self.classes)))
        self._bias = ones << (width - 2)
        self._guards = ones << (width - 1)
        # Per column: its shift, 1 in every field above it, and its guard bit.
        self._fields = [
            (width * col, ones >> (width * col + width) << (width * col + width),
             1 << (width * col + width - 1))
            for col in range(len(self.classes))
        ]
        self._guards_of.clear()

    def _widen(self) -> None:
        """Rebuild every row with 64-bit fields."""
        self._width = 64
        self._layout()
        self.rows = {
            feature: sum(cell[0] << (64 * col) for col, cell in row.items())
            for feature, row in self._cells.items()
        }

    def predict(
        self, features: Sequence[str], candidates: tuple[int, ...], expected: int
    ) -> int:
        """The candidate class with the highest score; the lowest index wins
        ties. ``candidates`` are class indices in ascending order.

        ``expected``, a class index, is tested first. With ``v`` its field,
        ``2**(width - 1) + f - v - [c > expected]`` keeps the guard bit
        ``2**(width - 1)`` exactly when the field ``f`` of class ``c`` beats
        ``expected``, a tie going to the lower index. One subtraction forms
        it in every field at once, and ``expected`` is returned when no
        other candidate's guard bit is set. Only otherwise are the fields
        unpacked.
        """
        if len(candidates) == 1:
            return candidates[0]
        if self._width < 64 and len(features) * self.updates >= self._cap:
            self._widen()
        total = sum(filter(None, map(self.rows.get, features)), self._bias)
        field = self._field
        guards = self._guards_of.get(candidates)
        if guards is None:
            guards = self._guards_of[candidates] = sum(
                self._fields[c][2] for c in candidates
            )
        shift, above, guard = self._fields[expected]
        value = (total >> shift) & field
        if ((total | self._guards) - (value * self._ones + above)) & guards == guard:
            return expected
        width = self._width
        scores = [(total >> (width * c)) & field for c in candidates]
        return candidates[scores.index(max(scores))]

    def update(self, truth: int, guess: int, features: Sequence[str]) -> None:
        """One perceptron step between two class columns; ``features`` must
        not repeat a string."""
        self.updates += 1
        if truth == guess:
            return
        now = self.updates
        delta = (1 << self._width * truth) - (1 << self._width * guess)
        rows, cells = self.rows, self._cells
        for feature in features:
            rows[feature] = rows.get(feature, 0) + delta
            row = cells.setdefault(feature, {})
            for col, step in ((truth, 1), (guess, -1)):
                cell = row.get(col) or row.setdefault(col, [0, 0, now])
                cell[1] += (now - cell[2]) * cell[0]
                cell[2] = now
                cell[0] += step

    def averaged(self) -> dict[str, dict[str, float]]:
        """Mean of the per-update weight snapshots, for every (feature,
        class) pair an update touched and whose mean is not zero; features
        in the order updates first named them, classes in column order."""
        if self.updates == 0:
            return {}
        now = self.updates
        out: dict[str, dict[str, float]] = {}
        for feature, row in self._cells.items():
            for col in sorted(row):
                weight, total, stamp = row[col]
                # A value set at update s is part of snapshots s..U inclusive.
                total += (now + 1 - stamp) * weight
                if total:
                    # Correctly rounded, so equal to the float64 quotient of
                    # the two ints while the total stays below 2**53.
                    out.setdefault(feature, {})[self.classes[col]] = total / now
        return out


# Decoding packs fixed-point weights into 32-bit fields: at most this many
# rows, each field in [0, 2**26], sum below 2**32.
_MAX_PACKED_ROWS = 32


class _Rows:
    """A model's weights in the two forms ``_decode`` reads, with ``n``
    columns, one per class of ``classes``; weights of other classes are
    dropped.

    ``pairs[feature]`` holds the feature's ``(column, weight)`` floats.
    ``packed[feature]`` holds the same weights in fixed point, one 32-bit
    field per column: ``round(ldexp(w, scale)) + 2**25``, a missing weight
    being 0. ``scale`` puts the largest ``|w|`` of the model in
    ``[2**24, 2**25)`` units, so every field is in ``[0, 2**26]``, and the
    offset, equal in every field, changes no comparison. ``packed`` is
    empty when no weight is non-zero, or one is not finite or is at least
    ``2**1000``, where a float sum could overflow.
    """

    __slots__ = ("n", "pairs", "packed", "masks")

    def __init__(self, weights: dict[str, dict[str, float]], classes: Sequence[str]):
        columns = {c: i for i, c in enumerate(classes)}
        self.n = len(classes)
        self.pairs = pairs = {
            feature: tuple((columns[c], w) for c, w in row.items() if c in columns)
            for feature, row in weights.items()
        }
        self.packed: dict[str, int] = {}
        # candidates -> all-ones in their fields
        self.masks: dict[Sequence[int], int] = {}
        values = [w for row in pairs.values() for _, w in row]
        top = max(map(abs, values), default=0.0)
        if not (0.0 < top < 2.0 ** 1000 and all(map(math.isfinite, values))):
            return
        scale = 25 - math.frexp(top)[1]
        offset = sum(1 << (32 * col + 25) for col in range(self.n))
        self.packed = {
            feature: sum(
                (round(math.ldexp(w, scale)) << (32 * col) for col, w in row), offset
            )
            for feature, row in pairs.items()
            if row
        }


def _decode(rows: _Rows, features: Sequence[str], candidates: Sequence[int]) -> int:
    """The candidate class with the highest score; the lowest index wins ties.

    Scores are the floats, and the ties, that adding each feature's weights
    in feature order gives, as whole rows of a dense ``[feature, class]``
    matrix would: there a missing weight adds 0.0, and ``x + 0.0`` is ``x``
    for any non-zero float.

    With k = ``len(features)``, the packed rows give every score in fixed
    point within k/2 units of the exact sum of its weights, and the float
    sum in feature order is within ``gamma(k - 1) * k * 2**25 < k**2 *
    2**-28`` units of that. So when the top candidate's fixed-point score
    beats every other's by more than ``2k + 2`` units, it is the float
    argmax, and the only one. Otherwise (a near-tie, k above
    ``_MAX_PACKED_ROWS``, or a model without packed rows) the float scores
    are summed.
    """
    if len(candidates) == 1:
        return candidates[0]
    k = len(features)
    if k <= _MAX_PACKED_ROWS:
        mask = rows.masks.get(candidates)
        if mask is None:
            mask = rows.masks[candidates] = sum(0xFFFFFFFF << (32 * c) for c in candidates)
        # Other columns read 0, which no candidate's field is below.
        total = sum(filter(None, map(rows.packed.get, features))) & mask
        packed = total.to_bytes(4 * rows.n, sys.byteorder)
        scores = memoryview(packed).cast("I").tolist()
        ranked = sorted(scores)
        if ranked[-1] - ranked[-2] > 2 * k + 2:
            return scores.index(ranked[-1])
    scores = [0.0] * rows.n
    for pairs in filter(None, map(rows.pairs.get, features)):
        for col, weight in pairs:
            scores[col] += weight
    return max(candidates, key=scores.__getitem__)


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
    def _decoder(self) -> tuple[_Transitions, _Rows]:
        transitions = _Transitions(self.label_set or ["dep"])
        return transitions, _Rows(self.weights, transitions.names)


# Features, gold transition index and valid candidates of one oracle state.
_Step = tuple[tuple[str, ...], int, tuple[int, ...]]


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
        out.append((features, transitions.index[truth], transitions.candidates(state)))
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
    weights = AveragedWeights(transitions.names)
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
                guess = weights.predict(features, candidates, truth)
                weights.update(truth, guess, features)
    return ParserModel(weights.averaged(), label_set, FEATURE_TEMPLATE_VERSION, skipped)


def _ids_in_order(sentence: Sentence) -> bool:
    return all(t.id == i for i, t in enumerate(sentence.tokens, 1))


def _needs_normalize(sentence: Sentence) -> bool:
    """Token ids other than 1..n, or multiword ranges ``normalize`` would
    drop: decoding by position would give an invalid tree."""
    ranges = conllu._kept_ranges(sentence.mwt, len(sentence.tokens))
    return not _ids_in_order(sentence) or not all(kept for _, kept in ranges)


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
    transitions, rows = model._decoder
    forms, tags = _parser_columns(sentence.tokens)
    state = ParserState(len(sentence.tokens))
    while not state.buffer_empty():
        features = _parser_features(state, forms, tags)
        best = _decode(rows, features, transitions.candidates(state))
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
    def _decoder(self) -> tuple[list[str], _Rows]:
        names = sorted(set(self.classes or ["X"]))
        return names, _Rows(self.weights, names)


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
    columns = {c: i for i, c in enumerate(class_list)}

    weights = AveragedWeights(class_list)
    everything = tuple(range(len(class_list)))
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
                    truth = columns[tok.upos]
                    best = weights.predict(features, everything, truth)
                    weights.update(truth, best, features)
                    guess = class_list[best]
                prev2 = prev
                prev = guess
    return TaggerModel(weights.averaged(), tagdict, class_list)


def tag(model: TaggerModel, sentence: Sentence) -> Sentence:
    """Fill UPOS only; every other field is preserved."""
    if not sentence.tokens:
        raise ValueError("cannot tag an empty sentence")
    names, rows = model._decoder
    lowers = [t.form.lower() for t in sentence.tokens]
    prev, prev2 = _START
    tags = []
    for i in range(len(lowers)):
        guess = model.tagdict.get(lowers[i])
        if guess is None:
            features = _tagger_features(lowers, i, prev, prev2)
            guess = names[_decode(rows, features, range(rows.n))]
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
    seen: set[str] = set()
    for line in lines:  # the reader drops a line's trailing CRs, and rejects a repeat
        if line.endswith("\r") or line in seen:
            kind, *_, value = line.split("\t")
            why = "it ends in a carriage return" if line.endswith("\r") else "it repeats"
            raise ValueError(f"cannot save {kind} {value!r}: {why}")
        seen.add(line)
    conllu._write("\n".join(lines) + "\n", sink)


def _number(kind: type, text: str, what: str, line_no: int):
    try:
        value = kind(text)
    except ValueError:
        expected = "an integer" if kind is int else "a number"
        raise ModelFormatError(
            f"line {line_no}: {what} {text!r} is not {expected}"
        ) from None
    # save_model writes means of integer totals, which are finite.
    if kind is float and not math.isfinite(value):
        raise ModelFormatError(f"line {line_no}: {what} {text!r} is not a finite number")
    return value


# Each row kind's number of fields, and how many of them name the row.
_ROW_SHAPES = {
    "w": (4, 3), "label": (2, 2), "class": (2, 2), "tagdict": (3, 2), "meta": (3, 2),
}


def load_model(source: str | Path | bytes | IO) -> ParserModel | TaggerModel:
    """Read a model file from a path, bytes or a stream, line by line. A row
    that names what an earlier row named (the same feature and class, label,
    class, tagdict word or meta key) is an error, as ``save_model`` never
    writes one."""
    weights: dict[str, dict[str, float]] = {}
    labels: list[str] = []
    classes: list[str] = []
    tagdict: dict[str, str] = {}
    line_of: dict[tuple[str, ...], int] = {}
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
            n_fields, n_named = _ROW_SHAPES.get(fields[0], (0, 0))
            if len(fields) != n_fields:
                raise ModelFormatError(f"line {line_no}: unrecognized row {line!r}")
            name = tuple(fields[:n_named])
            if line_of.setdefault(name, line_no) != line_no:
                shown = "\t".join(name)
                raise ModelFormatError(
                    f"line {line_no}: {shown!r} repeats line {line_of[name]}"
                )
            if fields[0] == "w":
                weights.setdefault(fields[1], {})[fields[2]] = _number(
                    float, fields[3], "weight", line_no
                )
            elif fields[0] == "label":
                labels.append(fields[1])
            elif fields[0] == "class":
                classes.append(fields[1])
            elif fields[0] == "tagdict":
                tagdict[fields[1]] = fields[2]
            else:
                value = _number(int, fields[2], f"meta {fields[1]}", line_no)
                if fields[1] == "nonprojective_skipped":
                    skipped = value
    except conllu.ConlluFormatError as exc:  # the one that _lines raises
        raise ModelFormatError(exc.reason) from None
    if kind == "parser":
        return ParserModel(weights, labels, version, skipped)
    if kind == "tagger":
        return TaggerModel(weights, tagdict, classes, version)
    raise ModelFormatError(f"unknown model kind {kind!r}")
