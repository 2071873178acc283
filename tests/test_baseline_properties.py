"""Property tests for parser training and the two scorers.

``train_parser`` computes each sentence's oracle steps on its first visit
and replays them in later epochs. It must give what the frozen per-epoch
loop (``reference_baseline``) gives: the same weights to the last bit, label
set, skip count and model file, and the same exception, raised on the same
sentence, on generated treebanks with non-projective trees and with
projective self-loops and cycles that make the oracle fail. The oracle runs
once per step, on the first visit, and never at zero epochs. The packed
integer weights predict and average like the reference's numpy arrays,
whatever class the oracle expects and across the widening of narrow fields,
and the fixed-point decoder, with its float fallback, picks what the
reference's dense scorer picks, near ties and beyond 32 features included.
"""

import io
import random
from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_baseline
from cait import baseline
from cait.baseline import is_projective, oracle_sequence, save_model
from cait.conllu import Treebank
from helpers import build_sentence
from synth import childes_treebank, random_valid_sentence

_CHILDES = childes_treebank(40, seed=11).sentences
_DEPRELS = ("root", "nsubj", "obj", "det", "dep")


@st.composite
def _sentence(draw, sent_id: str):
    kind = draw(st.sampled_from(("synth", "childes", "heads", "ids")))
    if kind == "childes":
        return replace(draw(st.sampled_from(_CHILDES)), sent_id=sent_id)
    if kind == "heads":
        # Any head vector: self-loops and cycles included, some projective.
        n = draw(st.integers(1, 5))
        heads = draw(st.lists(st.integers(0, n), min_size=n, max_size=n))
        rows = [
            (f"w{h}", "_", draw(st.sampled_from(("NOUN", "VERB"))), h,
             draw(st.sampled_from(_DEPRELS)))
            for h in heads
        ]
        return build_sentence(sent_id, rows)
    rng = random.Random(draw(st.integers(0, 2**32)))
    sentence = random_valid_sentence(rng, sent_id, max_len=draw(st.integers(1, 12)))
    if kind == "ids":
        # Rarely: ids shifted off 1..n, which training rejects.
        if draw(st.integers(0, 3)) == 0:
            for tok in sentence.tokens:
                tok.id += 1
    return sentence


@st.composite
def treebanks(draw) -> Treebank:
    n = draw(st.integers(0, 8))
    return Treebank([draw(_sentence(f"s{i}")) for i in range(n)])


_STATIC_ORACLE = baseline.static_oracle


class _Oracle:
    """``static_oracle`` that counts its calls and remembers the sentence
    of the last one (the failing sentence when it raises)."""

    def __init__(self):
        self.calls = 0
        self.sent_id = None

    def __call__(self, gold, state):
        self.calls += 1
        self.sent_id = gold.sent_id
        return _STATIC_ORACLE(gold, state)


def _train(module, tb: Treebank, epochs: int, seed: int):
    oracle = _Oracle()
    with mock.patch.object(module, "static_oracle", oracle):
        try:
            model = module.train_parser(tb, epochs=epochs, seed=seed)
        except Exception as exc:
            return (type(exc), str(exc), oracle.sent_id), oracle.calls
    sink = io.StringIO()
    save_model(model, sink)
    outcome = (model.weights, model.label_set, model.n_nonprojective_skipped,
               sink.getvalue())
    return outcome, oracle.calls


def _steps(tb: Treebank) -> int:
    return sum(
        len(oracle_sequence(s)) for s in tb.sentences if s.tokens and is_projective(s)
    )


@settings(max_examples=300)
@given(treebanks(), st.integers(0, 3), st.integers(0, 2**16))
def test_training_matches_the_reference(tb, epochs, seed):
    outcome, calls = _train(baseline, tb, epochs, seed)
    expected, _ = _train(reference_baseline, tb, epochs, seed)
    assert outcome == expected
    if epochs == 0:
        assert calls == 0
    elif not isinstance(outcome[0], type):
        assert calls == _steps(tb)


def test_the_generated_treebanks_reach_every_outcome():
    # The strategy must make the oracle fail on projective input, and
    # also train models and skip non-projective sentences.
    seen = set()

    @settings(max_examples=100)
    @given(treebanks())
    def record(tb):
        outcome, _ = _train(baseline, tb, 1, 0)
        if isinstance(outcome[0], type):
            seen.add(outcome[0].__name__)
        else:
            seen.add("trained")
            if outcome[2]:
                seen.add("skipped")

    record()
    assert {"OracleError", "ValueError", "trained", "skipped"} <= seen


def test_an_oracle_error_names_the_first_sentence_in_epoch_order():
    # heads (0, 2, 1): tokens 2 and 3 head each other, without crossing arcs.
    cyclic = [
        build_sentence(f"c{i}", [("a", "_", "X", 0, "root"), ("b", "_", "X", 3, "dep"),
                                 ("c", "_", "X", 2, "dep")])
        for i in range(6)
    ]
    assert all(is_projective(s) for s in cyclic)
    tb = Treebank(childes_treebank(10, seed=4).sentences + cyclic)
    for seed in range(5):
        assert _train(baseline, tb, 2, seed)[0] == _train(reference_baseline, tb, 2, seed)[0]


def _allowed(state, label_set):
    """The arc-eager moves by their rules: SHIFT when the buffer is
    non-empty; every LEFT when the buffer and stack are non-empty and s0 has
    no head; every RIGHT when both are non-empty; REDUCE when s0 has a head."""
    buffer = state.buffer_pos <= state.n
    s0 = state.stack[-1] if state.stack else None
    names = {"SHIFT"} if buffer else set()
    if buffer and s0 is not None:
        names.update(f"RIGHT:{label}" for label in label_set)
        if s0 not in state.heads:
            names.update(f"LEFT:{label}" for label in label_set)
    if s0 is not None and s0 in state.heads:
        names.add("REDUCE")
    return names


def _check_candidates(transitions, label_set, state):
    candidates = transitions.candidates(state)
    assert list(candidates) == sorted(set(candidates))
    assert {transitions.names[i] for i in candidates} == _allowed(state, label_set)
    return candidates


@settings(max_examples=200)
@given(st.integers(0, 2**32), st.lists(st.sampled_from(_DEPRELS), unique=True))
def test_candidates_follow_the_move_rules(seed, labels):
    # One transition table for every state, so that the per-key cache is
    # read across sentences, by random walks that take any allowed move
    # until none is left and by the static oracle's path through each tree.
    rng = random.Random(seed)
    sentences = [random_valid_sentence(rng, f"r{i}") for i in range(4)]
    sentences.append(rng.choice(_CHILDES))
    label_set = sorted(set(labels) | {t.deprel for s in sentences for t in s.tokens})
    transitions = baseline._Transitions(label_set)
    for sentence in sentences:
        state = baseline.ParserState(len(sentence.tokens))
        while candidates := _check_candidates(transitions, label_set, state):
            state.apply(transitions.names[rng.choice(candidates)])
        if is_projective(sentence):
            state = baseline.ParserState(len(sentence.tokens))
            for truth in oracle_sequence(sentence):
                candidates = _check_candidates(transitions, label_set, state)
                assert transitions.index[truth] in candidates
                state.apply(truth)


def test_reduce_along_rows_adds_them_in_order():
    rng = np.random.default_rng(7)
    order_matters = False
    for rows in range(1, 65):
        for cols in (2, 3, 4, 9, 40):
            m = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-9, 9, (rows, 1))
            reduced = np.add.reduce(m, axis=0)
            assert reduced.tobytes() == np.add.accumulate(m, axis=0)[-1].tobytes()
            order_matters |= reduced.tobytes() != np.add.reduce(m[::-1], axis=0).tobytes()
    assert order_matters  # the data can tell one summation order from another


@settings(max_examples=200)
@given(st.integers(0, 2**32), st.integers(1, 12), st.integers(0, 30))
def test_predict_matches_the_reference(seed, n_classes, n_features):
    rng = np.random.default_rng(seed)
    # Small integers make ties; wide magnitudes make the summation order count.
    matrix = rng.integers(-2, 3, (40, n_classes)).astype(float)
    if seed % 2:
        matrix *= 10.0 ** rng.integers(-9, 9, (40, 1))
    rows = {f"f{i}": i for i in range(40)}
    features = [f"f{i}" for i in rng.choice(50, n_features, replace=False)]
    k = int(rng.integers(1, n_classes + 1))
    candidates = tuple(sorted(rng.choice(n_classes, k, replace=False).tolist()))
    # The matrix as averaged weights: non-zero entries only, by class name.
    classes = [f"c{j:02d}" for j in range(n_classes)]
    weights = {
        feature: {classes[c]: w for c, w in enumerate(matrix[r].tolist()) if w}
        for feature, r in rows.items()
    }
    sparse = baseline._Rows(weights, classes)
    assert baseline._decode(sparse, features, candidates) == (
        reference_baseline._predict(rows, matrix, features, candidates)
    )


@settings(max_examples=300)
@given(st.integers(0, 2**32), st.integers(2, 8), st.integers(0, 45),
       st.sampled_from(("near", "wide", "huge")))
def test_packed_decode_matches_the_reference(seed, n_classes, n_features, kind):
    rng = np.random.default_rng(seed)
    unit = 2.0 ** int(rng.integers(-40, 40))
    # Row 45, never a feature, sets the fixed-point unit: its weight is 2**24
    # units. The others are a few units at most, in eighths of a unit, so
    # most decodes are near-ties inside the margin, where whole units can
    # order classes otherwise than the float sums.
    matrix = rng.integers(-24, 25, (46, n_classes)) * (unit / 8)
    matrix[45, 0] = 2.0 ** 24 * unit
    if kind == "wide":
        matrix[:45] *= 2.0 ** rng.integers(-4, 22, (45, 1))
    elif kind == "huge":  # no fixed point: a weight of 2**1000 or more
        matrix[int(rng.integers(0, 46)), 0] = 2.0 ** int(rng.integers(1000, 1015))
    rows = {f"f{i}": i for i in range(46)}
    features = [f"f{i}" for i in rng.choice(50, n_features, replace=False) if i != 45]
    k = int(rng.integers(1, n_classes + 1))
    candidates = tuple(sorted(rng.choice(n_classes, k, replace=False).tolist()))
    classes = [f"c{j:02d}" for j in range(n_classes)]
    weights = {
        feature: {classes[c]: w for c, w in enumerate(matrix[r].tolist()) if w}
        for feature, r in rows.items()
    }
    packed = baseline._Rows(weights, classes)
    assert baseline._decode(packed, features, candidates) == (
        reference_baseline._predict(rows, matrix, features, candidates)
    )


class _Reads(dict):
    """Float rows that count the decodes that read them."""

    def __init__(self, rows):
        super().__init__(rows)
        self.reads = 0

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)


def test_decode_sums_floats_only_when_fixed_point_cannot_tell():
    # Where the largest weight is 1.0, one unit is 2**-24.
    cases = [
        ({"f0": {"A": 1.0, "B": 0.5}}, ["f0"], 0, False),
        ({"f0": {"A": 1.0}, "f1": {"B": 1.0 - 2**-20}}, ["f0", "f1"], 0, False),
        # 6 units apart with 2 features: inside the margin of 2k + 2 units.
        ({"f0": {"A": 1.0}, "f1": {"B": 1.0 - 6 * 2**-24}}, ["f0", "f1"], 0, True),
        # Both are 2**24 units (2**-25 each), and B is larger as floats.
        ({"f0": {"A": 0.5, "B": 0.5 + 2**-26}}, ["f0"], 1, True),
        ({"f0": {"A": 1.0, "B": 0.5}}, ["f0"] + [f"x{i}" for i in range(32)], 0, True),
        ({"f0": {"A": 1.0, "B": 0.5}, "f1": {"B": 2.0**1000}}, ["f0"], 0, True),
        ({"f0": {"A": 0.0, "B": 0.0}}, ["f0"], 0, True),
    ]
    for weights, features, best, summed in cases:
        rows = baseline._Rows(weights, ["A", "B"])
        rows.pairs = _Reads(rows.pairs)
        assert baseline._decode(rows, features, (0, 1)) == best
        assert (rows.pairs.reads > 0) == summed, (weights, len(features))


def test_decode_adds_weights_in_feature_order():
    # Class A sums to 0.0 in the order f0, f1, f2 and to 1.0 in reverse;
    # class B scores 0.5 either way.
    weights = {"f0": {"A": 1.0}, "f1": {"A": 1e100, "B": 0.5}, "f2": {"A": -1e100}}
    rows = baseline._Rows(weights, ["A", "B"])
    matrix = np.array([[1.0, 0.0], [1e100, 0.5], [-1e100, 0.0]])
    for features, best in ((["f0", "f1", "f2"], 1), (["f2", "f1", "f0"], 0)):
        assert baseline._decode(rows, features, (0, 1)) == best
        assert reference_baseline._predict(
            {"f0": 0, "f1": 1, "f2": 2}, matrix, features, (0, 1)
        ) == best


_CLASSES = ("A", "B", "C", "D", "E")
_FEATURES = tuple(f"f{i}" for i in range(8))


def _predict_and_average_like_the_reference(data):
    # truth == guess too; an update repeated, so that scores grow past
    # narrow fields.
    live = baseline.AveragedWeights(_CLASSES)
    ref = reference_baseline.AveragedWeights(_CLASSES)
    for _ in range(data.draw(st.integers(0, 30))):
        features = data.draw(st.lists(st.sampled_from(_FEATURES), unique=True, max_size=6))
        candidates = tuple(sorted(data.draw(st.sets(
            st.integers(0, len(_CLASSES) - 1), min_size=1
        ))))
        best = reference_baseline._predict(
            ref.rows, ref.weights, features, np.array(candidates, dtype=np.intp)
        )
        # Whatever the oracle expects: the winner, a loser, a class tied
        # with the winner, or one that is not a candidate.
        for expected in range(len(_CLASSES)):
            assert live.predict(features, candidates, expected) == best
        truth = data.draw(st.sampled_from(_CLASSES))
        guess = data.draw(st.sampled_from(_CLASSES))
        for _ in range(data.draw(st.sampled_from((1, 1, 1, 12)))):
            live.update(_CLASSES.index(truth), _CLASSES.index(guess), features)
            ref.update(truth, guess, features)
    averaged, expected = live.averaged(), ref.averaged()
    assert [(f, list(row.items())) for f, row in averaged.items()] == [
        (f, list(row.items())) for f, row in expected.items()
    ]
    return live


@settings(max_examples=300)
@given(st.data())
def test_packed_weights_predict_and_average_like_the_reference(data):
    _predict_and_average_like_the_reference(data)


def test_an_expected_winner_is_answered_without_unpacking():
    weights = baseline.AveragedWeights(_CLASSES)
    for truth, guess in ((1, 0), (1, 2), (3, 0)):  # B over A, B over C, D over A
        weights.update(truth, guess, ["f0", "f1"])
    unpacked = []

    def counted(scores):  # the max over unpacked fields
        unpacked.append(scores)
        return max(scores)

    everything = tuple(range(5))
    with mock.patch.object(baseline, "max", counted, create=True):
        assert weights.predict(["f0", "f1"], everything, 1) == 1
        assert weights.predict(["f0"], (0, 2, 3), 3) == 3
        assert unpacked == []
        assert weights.predict(["f0", "f1"], everything, 3) == 1
    assert unpacked == [[2**30 - 4, 2**30 + 4, 2**30 - 2, 2**30 + 2, 2**30]]


def test_narrow_fields_widen_before_a_score_can_leave_them():
    # Fields of 8 bits hold scores below 2**6: the rows must be rebuilt at
    # 64 bits once len(features) * updates reaches 64.
    widened = []

    @settings(max_examples=300)
    @given(st.data())
    def narrow(data):
        widened.append(_predict_and_average_like_the_reference(data)._width == 64)

    with mock.patch.object(baseline, "_NARROW_BITS", 8):
        narrow()
    assert any(widened) and not all(widened)


def test_training_with_narrow_fields_matches_the_reference():
    tb = Treebank(childes_treebank(40, seed=5).sentences + _CHILDES)
    for seed in range(3):
        expected, _ = _train(reference_baseline, tb, 3, seed)
        with mock.patch.object(baseline, "_NARROW_BITS", 8):
            assert _train(baseline, tb, 3, seed)[0] == expected
