"""Property tests for the scoring functions.

``evaluate_treebanks``, ``tag_accuracy``, ``per_label_error_rates`` and
``confusion`` must give what the frozen per-function scoring
(``reference_evaluation``) gives, exceptions and messages included, on
generated gold/predicted treebanks with differing forms, token counts and
sentence counts; their aggregates must not depend on sentence order; and
``evaluate_treebanks`` must align each sentence pair once. ``aggregate``
must give what the reference gives on hand-built score lists.
"""

import random
import unicodedata

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_evaluation
from cait import evaluation
from cait.conllu import Sentence, SpeakerRole, Token, Treebank
from cait.evaluation import ConfusionScope, ErrorScope

_FORMS = ("a", "b", "the", "dog", "é", ".", "?")
_DEPRELS = ("root", "nsubj", "obj", "det", "nmod", "nmod:poss", "obl:tmod", "punct")
_UPOS = ("_", "NOUN", "VERB", "PRON", "PUNCT")
_XPOS = ("_", "NN", "VB")


def _sentence(rng: random.Random, sent_id: str) -> Sentence:
    n = rng.randint(0, 6)
    tokens = [
        Token(i, rng.choice(_FORMS), upos=rng.choice(_UPOS), xpos=rng.choice(_XPOS),
              head=rng.randint(0, n), deprel=rng.choice(_DEPRELS))
        for i in range(1, n + 1)
    ]
    role = rng.choice(list(SpeakerRole))
    return Sentence(sent_id=sent_id, speaker_role=role, tokens=tokens)


def _prediction(rng: random.Random, gold: Sentence, defect_rate: float) -> Sentence:
    tokens = [t.copy() for t in gold.tokens]
    for tok in tokens:
        if rng.random() < 0.3:
            tok.head = rng.randint(0, len(tokens))
        if rng.random() < 0.3:
            tok.deprel = rng.choice(_DEPRELS)
        if rng.random() < 0.3:
            tok.upos = rng.choice(_UPOS)
        if rng.random() < 0.3:
            tok.xpos = rng.choice(_XPOS)
        if tok.form == "é" and rng.random() < 0.5:
            tok.form = unicodedata.normalize("NFD", tok.form)  # aligns
        elif tok.form == "the" and rng.random() < 0.5:
            tok.form = "th e"  # aligns: whitespace is ignored
    if tokens and rng.random() < defect_rate:
        tokens[rng.randrange(len(tokens))].form = "zzz"
    if rng.random() < defect_rate:
        tokens.append(Token(len(tokens) + 1, "a"))
    return Sentence(sent_id=gold.sent_id, speaker_role=gold.speaker_role, tokens=tokens)


@st.composite
def treebank_pairs(draw):
    rng = random.Random(draw(st.integers(0, 2**32)))
    defect_rate = draw(st.sampled_from((0.0, 0.0, 0.02, 0.2)))
    gold = [_sentence(rng, f"s{i}") for i in range(draw(st.integers(0, 8)))]
    pred = [_prediction(rng, s, defect_rate) for s in gold]
    if draw(st.integers(0, 9)) == 0:
        pred = pred[:-1] if pred else [_sentence(rng, "extra")]
    return Treebank(gold), Treebank(pred)


def _outcome(fn, *args, **kwargs):
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    if hasattr(result, "counts"):  # a ConfusionMatrix
        return result.labels, result.counts.dtype, result.counts.tolist()
    return result


def _calls(module, gold, pred):
    calls = [(module.evaluate_treebanks, (gold, pred), {}),
             (module.evaluate_treebanks, (gold, pred), {"universal_deprel_only": True}),
             (module.tag_accuracy, (gold, pred, "upos"), {}),
             (module.tag_accuracy, (gold, pred, "xpos"), {}),
             (module.tag_accuracy, (gold, pred, "lemma"), {})]
    for scope in ErrorScope:
        for min_gold in (0, 1, 2):
            calls.append((module.per_label_error_rates, (gold, pred, min_gold, scope), {}))
    for scope in ConfusionScope:
        calls.append((module.confusion, (gold, pred, scope), {}))
    return [_outcome(fn, *args, **kwargs) for fn, args, kwargs in calls]


@settings(max_examples=250)
@given(treebank_pairs())
def test_scoring_matches_the_reference(pair):
    gold, pred = pair
    assert _calls(evaluation, gold, pred) == _calls(reference_evaluation, gold, pred)


def _aggregates(outcomes):
    for report in outcomes[:2]:
        report.per_sentence.sort(key=lambda s: s.sent_id)
    return outcomes


@settings(max_examples=100)
@given(treebank_pairs(), st.randoms(use_true_random=False))
def test_aggregates_do_not_depend_on_sentence_order(pair, rng):
    gold, pred = pair
    outcomes = _calls(evaluation, gold, pred)
    if any(isinstance(o, tuple) and isinstance(o[0], type) for o in outcomes[:4]):
        return  # which sentence fails first depends on the order
    order = list(range(len(gold.sentences)))
    rng.shuffle(order)
    shuffled_gold = Treebank([gold.sentences[i] for i in order])
    shuffled_pred = Treebank([pred.sentences[i] for i in order])
    assert _aggregates(_calls(evaluation, shuffled_gold, shuffled_pred)) == _aggregates(
        outcomes
    )


@pytest.mark.parametrize("name, args", [
    ("evaluate_treebanks", ()),
    ("tag_accuracy", ("xpos",)),
    ("per_label_error_rates", (1,)),
    ("confusion", (ConfusionScope.LAS_ERRORS,)),
])
def test_each_function_aligns_each_pair_once(monkeypatch, name, args):
    rng = random.Random(7)
    gold = Treebank([_sentence(rng, f"s{i}") for i in range(20)])
    gold.sentences.append(Sentence(sent_id="one", tokens=[Token(1, "a")]))
    pred = Treebank([_prediction(rng, s, 0.0) for s in gold.sentences])
    aligned = []

    def counting_align(g, p):
        aligned.append((g.sent_id, p.sent_id))
        return reference_evaluation.align(g, p)

    monkeypatch.setattr(evaluation, "align", counting_align)
    getattr(evaluation, name)(gold, pred, *args)
    assert aligned == [(s.sent_id, s.sent_id) for s in gold.sentences]


@st.composite
def score_lists(draw):
    """Hand-built scores, as a caller may make them: no tokens, every
    speaker role, every length bin and a length that fits no bin."""
    scores = []
    for i in range(draw(st.integers(0, 12))):
        n = draw(st.integers(0, 6))
        heads = draw(st.integers(0, n))
        las = draw(st.integers(0, heads))
        scores.append(evaluation.SentencePairScore(
            sent_id=f"s{i}",
            n_scored=n,
            n_head_correct=heads,
            n_las_correct=las,
            exact=draw(st.booleans()),
            unlabeled_exact=draw(st.booleans()),
            speaker_role=draw(st.sampled_from(list(SpeakerRole))),
            length_nopunct=draw(st.sampled_from((-1, 0, 3, 4, 6, 7, 10, 11, 40))),
        ))
    return scores


def _no_tokens(role, length):
    return evaluation.SentencePairScore("z", 0, 0, 0, True, True, role, length)


@settings(max_examples=300)
@given(score_lists())
@example([])
@example([_no_tokens(SpeakerRole.OTHER, -1), _no_tokens(SpeakerRole.CS, 0)])
def test_aggregate_matches_the_reference(scores):
    assert _outcome(evaluation.aggregate, scores) == _outcome(
        reference_evaluation.aggregate, scores
    )
