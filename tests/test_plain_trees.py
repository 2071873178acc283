"""The reader's plain-tree check, held to the frozen reference reader.

``iter_sentences`` calls ``validate`` only on a tree that breaks a rule of
its one-pass check. Random documents almost never sit on that check's
edges, so the property here starts from valid trees and gives one of them
exactly one defect; the guard counts ``validate`` calls, so that a change
that drops the check, or calls ``validate`` on every tree, shows.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_conllu
import synth
from cait import conllu
from cait.conllu import (
    ConlluError,
    MWTRange,
    Strictness,
    TreeValidationError,
    Treebank,
    conllu_string,
    iter_sentences,
)

DEFECTS = ("none", "self-loop", "head-past-n", "second-root", "root-off-head-0",
           "2-cycle", "3-cycle", "id-gap", "id-repeat", "range")


def _defective(sentence, defect: str, rng: random.Random):
    """``sentence`` with the one ``defect``; the tree is valid before."""
    toks = sentence.tokens
    n = len(toks)
    root = next(t for t in toks if t.head == 0)
    others = [t for t in toks if t is not root]
    tok = rng.choice(toks)
    if defect == "self-loop":
        tok.head = tok.id
    elif defect == "head-past-n":
        tok.head = n + 1
    elif defect == "second-root" and others:
        tok = rng.choice(others)
        tok.head, tok.deprel = 0, "root"
    elif defect == "root-off-head-0" and others:
        rng.choice(others).deprel = "root"
    elif defect in ("2-cycle", "3-cycle") and len(others) >= int(defect[0]):
        members = rng.sample(others, int(defect[0]))
        for member, head in zip(members, members[1:] + members[:1]):
            member.head = head.id
    elif defect == "id-gap":
        # The last token and the heads on it move to n + 1.
        last = toks[-1]
        for t in toks:
            if t.head == last.id:
                t.head = n + 1
        last.id = n + 1
    elif defect == "id-repeat" and n >= 2:
        k = rng.randrange(1, n)
        toks[k].id = toks[k - 1].id
    elif defect == "range":
        start = rng.randint(1, n + 1)
        sentence.mwt.append(MWTRange(start, rng.randint(start - 1, n + 1), "mwt"))
    return sentence


@st.composite
def near_valid_documents(draw) -> bytes:
    """Valid trees, of which one has exactly one defect (or none)."""
    seeds = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=4))
    sentences = [
        synth.random_valid_sentence(random.Random(seed), f"v{i}", max_len=8)
        for i, seed in enumerate(seeds)
    ]
    target = draw(st.integers(0, len(sentences) - 1))
    defect = draw(st.sampled_from(DEFECTS))
    _defective(sentences[target], defect, random.Random(draw(st.integers(0, 10**6))))
    return conllu_string(Treebank(sentences)).encode("utf-8")


def _outcome(read, data: bytes, strictness: Strictness):
    try:
        sentences = read(data, strictness)
    except ConlluError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return [(s, s.diagnostics) for s in sentences]


@settings(max_examples=400)
@given(near_valid_documents())
def test_near_valid_trees_read_as_the_reference_reads_them(data):
    for strictness in Strictness:
        got = _outcome(lambda d, s: list(iter_sentences(d, s)), data, strictness)
        want = _outcome(
            lambda d, s: reference_conllu.read_conllu(d, s).sentences, data, strictness
        )
        assert got == want


# ---------------------------------------------------------------------------
# validate is called once for each tree that breaks a rule, and only then
# ---------------------------------------------------------------------------

def _count_validate_calls(monkeypatch) -> list:
    calls = []
    real = conllu.validate
    monkeypatch.setattr(
        conllu, "validate", lambda sentence: calls.append(sentence) or real(sentence)
    )
    return calls


def _corpus(n: int, marked: set[int], defect: str) -> bytes:
    """``n`` valid trees; the ones at the ``marked`` indexes get ``defect``."""
    sentences = []
    for i in range(n):
        rng = random.Random(i)
        sentence = synth.random_valid_sentence(rng, f"s{i}", min_len=4, max_len=8)
        if i in marked:
            _defective(sentence, defect, rng)
        sentences.append(sentence)
    return conllu_string(Treebank(sentences)).encode("utf-8")


MARKED = {3, 17, 18, 40}


@pytest.mark.parametrize("strictness", Strictness)
def test_valid_trees_with_ranges_are_each_validated_once(monkeypatch, strictness):
    # A range is valid here (it fails only the plain check): no read fails.
    sentences = [synth.random_valid_sentence(random.Random(i), f"s{i}", min_len=3)
                 for i in range(50)]
    for i in MARKED:
        sentences[i].mwt.append(MWTRange(1, 2, "ab"))
    data = conllu_string(Treebank(sentences)).encode("utf-8")
    calls = _count_validate_calls(monkeypatch)
    read = list(iter_sentences(data, strictness))
    assert len(read) == 50
    assert [s.sent_id for s in calls] == [f"s{i}" for i in sorted(MARKED)]


BROKEN = [d for d in DEFECTS if d not in ("none", "range")]


@pytest.mark.parametrize("defect", BROKEN)
def test_broken_trees_are_each_validated_once(monkeypatch, defect):
    data = _corpus(50, MARKED, defect)
    calls = _count_validate_calls(monkeypatch)
    read = list(iter_sentences(data, Strictness.LENIENT))
    assert [s.sent_id for s in calls] == [f"s{i}" for i in sorted(MARKED)]
    assert [s.sent_id for s in read if s.diagnostics] == [s.sent_id for s in calls]


@pytest.mark.parametrize("defect", [d for d in BROKEN if d != "id-repeat"])
def test_strict_read_validates_once_and_stops_at_the_first_broken_tree(
    monkeypatch, defect
):
    data = _corpus(50, MARKED, defect)
    calls = _count_validate_calls(monkeypatch)
    with pytest.raises(TreeValidationError) as info:
        list(iter_sentences(data, Strictness.STRICT))
    assert info.value.sent_id == f"s{min(MARKED)}"
    assert [s.sent_id for s in calls] == [info.value.sent_id]
