"""Property tests for construction tagging.

The live tagger must give exactly what the frozen oracle
(``reference_cxntag``) gives: stripped sentences, labels, fired rules,
traces and errors. The inputs are valid, CHILDES-style, hand-annotated,
malformed and fuzz sentences with tree mutations, among them ids that are
not 1..n, duplicate ids and appended tag questions. The tagging functions
must also be total on lenient reads.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reference_cxntag
import synth
from cait.conllu import (
    EmptyNode,
    MWTRange,
    Sentence,
    Strictness,
    Token,
    Treebank,
    conllu_string,
    read_conllu,
    validate,
)
from cait.cxntag import (
    Backend,
    MissingAnnotationError,
    pos_rule_trace,
    strip_tag_question,
    tag_pos,
    tag_ud,
    tag_utterance,
    ud_rule_trace,
)
from cxn_fixture import UTTERANCES
from helpers import STRIPPED_ROOT_ROWS, build_sentence, london_gold

_KINDS = ("fixture", "fixture", "london", "childes", "valid", "malformed", "fuzz")

_DEPRELS = ("nsubj", "csubj", "obj", "expl", "aux", "cop", "punct", "root",
            "parataxis", "discourse", "vocative", "ccomp", "xcomp", "advcl",
            "acl", "conj", "advmod", "det", "nsubj:pass", "aux:pass", "_")
_UPOS = ("PUNCT", "AUX", "VERB", "INTJ", "PRON", "NOUN", "PROPN", "SCONJ",
         "DET", "ADV", "_")
_WORDS = ("what", "such", "a", "let", "'s", "us", "you", "be", "is", "not",
          "n't", "xxx", "want", "hello", "thank", "there", ",", "?", "right",
          "okay", "it", "do", "can", "where",
          # Forms that normalize_utterance changes (the surface tag check's
          # pre-check must read them as it does).
          "isn't", "n’t", "IT", "okay?", "(okay", "is it", "OK")
_FEATS = ({}, {"PronType": "Int"}, {"Mood": "Imp"}, {"VerbForm": "Part"},
          {"VerbForm": "Ger"}, {"VerbForm": "Inf"}, {"Voice": "Pass"})
_TAGS = (
    [("is", "be", "AUX", "parataxis"), ("n't", "not", "PART", "advmod"),
     ("it", "it", "PRON", "nsubj")],
    [("can", "can", "AUX", "parataxis"), ("you", "you", "PRON", "nsubj")],
    [("does", "do", "VERB", "parataxis"), ("she", "she", "PRON", "nsubj")],
    [("right", "right", "INTJ", "discourse")],
    [("okay", "okay", "INTJ", "dep")],
    [("is", "be", "AUX", "dep"), ("n't", "not", "PART", "dep"),
     ("it", "it", "PRON", "dep")],
    # One rule of normalize_utterance each: a one-token contraction, a curly
    # one, upper case, terminal punctuation inside a form, a last content
    # token that normalizes to "", and a form with an inner space.
    [("isn't", "be", "AUX", "parataxis"), ("it", "it", "PRON", "nsubj")],
    [("is", "be", "AUX", "dep"), ("n’t", "not", "PART", "dep"),
     ("it", "it", "PRON", "dep")],
    [("IS", "be", "AUX", "dep"), ("n't", "not", "PART", "dep"),
     ("IT", "it", "PRON", "dep")],
    [("okay?", "okay", "INTJ", "discourse")],
    [("(okay", "okay", "INTJ", "discourse")],
    [("okay", "okay", "INTJ", "dep"), ("?", "?", "SYM", "dep")],
    [("right", "right", "INTJ", "discourse"), (",", ",", "X", "dep")],
    [("is it", "be", "AUX", "discourse")],
)
_OPS = ("tag", "tag", "shift-ids", "duplicate", "duplicate", "swap", "deprel",
        "peripheral", "upos", "head", "word", "feats", "question", "question",
        "mwt", "empty", "text", "deps")


def _base(kind: str, seed: int) -> Sentence:
    rng = random.Random(seed)
    if kind == "london":  # the paper's tag-question example
        return london_gold()
    if kind == "fixture":
        sent_id, _, rows = UTTERANCES[seed % len(UTTERANCES)]
        return build_sentence(sent_id, rows)
    if kind == "childes":
        return synth.childes_treebank(1, seed, with_ages=True).sentences[0]
    if kind == "valid":
        return synth.random_valid_sentence(rng, f"v{seed}")
    if kind == "malformed":
        return synth.random_malformed_sentence(rng, f"m{seed}")
    return synth.random_fuzz_sentence(rng, f"f{seed}")


def _mutate(sentence: Sentence, op: str, rng: random.Random) -> None:
    toks = sentence.tokens
    heads = {t.head for t in toks}
    # Often a token that heads another: the rules look those up by id.
    tok = rng.choice([t for t in toks if t.id in heads and rng.random() < 0.5] or toks)
    n = max(t.id for t in toks)
    if op == "tag":
        root = next((t.id for t in toks if t.head == 0), 1)
        if rng.random() < 0.5:
            n += 1
            toks.append(Token(n, ",", ",", "PUNCT", head=root, deprel="punct"))
        rows = list(rng.choice(_TAGS))
        if rng.random() < 0.3:  # a grandchild in the tag's subtree
            rows.append(("too", "too", rng.choice(("ADV", "PUNCT")), "advmod"))
        tag_head = n + 1
        for form, lemma, upos, deprel in rows:
            n += 1
            head = tag_head
            if n == tag_head:
                head = root
            elif form == "too":  # under the token before it
                head = n - 1
            toks.append(Token(n, form, lemma, upos, head=head, deprel=deprel))
        toks.append(Token(n + 1, "?", "?", "PUNCT", head=root,
                          deprel=rng.choice(("punct", "dep"))))
    elif op == "shift-ids":
        k = rng.randint(1, 3)
        for t in toks:
            t.id += k
            t.head += k if t.head else 0
    elif op == "duplicate":
        toks.insert(toks.index(tok) + rng.randint(0, 1), tok.copy(
            form=rng.choice(_WORDS), upos=rng.choice(_UPOS),
            deprel=rng.choice(_DEPRELS), head=rng.randint(0, n + 1),
        ))
    elif op == "swap":
        i, j = rng.randrange(len(toks)), rng.randrange(len(toks))
        toks[i], toks[j] = toks[j], toks[i]
    elif op == "deprel":
        tok.deprel = rng.choice(_DEPRELS)
    elif op == "peripheral":
        tok.deprel = rng.choice(("discourse", "vocative"))
    elif op == "upos":
        tok.upos = rng.choice(_UPOS)
    elif op == "head":
        tok.head = rng.randint(0, n + 1)
    elif op == "word":
        tok.form = tok.lemma = rng.choice(_WORDS)
    elif op == "feats":
        tok.feats = dict(rng.choice(_FEATS))
    elif op == "question":
        # "?" where the UD rules and the POS rules disagree on its end.
        tok = toks[-1]
        tok.form = "?"
        tok.upos, tok.deprel = rng.choice((("SYM", "punct"), ("PUNCT", "dep")))
    elif op == "mwt":
        start = rng.randint(1, n + 1)
        sentence.mwt.append(MWTRange(start, start + rng.randint(1, 2), "xy"))
    elif op == "empty":
        anchor = rng.randint(0, n + 1)
        sentence.empty_nodes.append(
            EmptyNode(anchor, 1, (f"{anchor}.1", "e") + ("_",) * 8)
        )
    elif op == "deps":
        # Enhanced heads, some of them gone after stripping, on a token and
        # on an empty node.
        items = [f"{rng.randint(0, n + 1)}:{rng.choice(_DEPRELS)}",
                 f"{rng.randint(0, n + 1)}.1:dep", "x:dep"]
        tok.deps = "|".join(rng.sample(items, rng.randint(1, 3)))
        anchor = rng.randint(1, n)
        sentence.empty_nodes.append(EmptyNode(
            anchor, 1, (f"{anchor}.1", "e") + ("_",) * 6
            + (f"{rng.randint(0, n + 1)}:dep|{anchor}:conj", "_")
        ))
    else:
        sentence.text = "some text"
        sentence.comments.append("# text = some text")


def _sentence(kind: str, seed: int, ops: list[str], mutation_seed: int) -> Sentence:
    sentence = _base(kind, seed)
    rng = random.Random(mutation_seed)
    for op in ops:
        _mutate(sentence, op, rng)
    return sentence


def sentences(kinds=_KINDS, unique_ops=False) -> st.SearchStrategy[Sentence]:
    """A synth or fixture sentence with up to four tree mutations."""
    return st.builds(
        _sentence, st.sampled_from(kinds), st.integers(0, 10**6),
        st.lists(st.sampled_from(_OPS), max_size=4, unique=unique_ops),
        st.integers(0, 10**6),
    )


def _lenient(sentence: Sentence) -> Sentence:
    """The sentence as a lenient read of its written form gives it."""
    text = conllu_string(Treebank([sentence]))
    return read_conllu(text.encode("utf-8"), Strictness.LENIENT).sentences[0]


def _outcome(fn, *args):
    try:
        result = fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared with the oracle's
        return type(exc), str(exc)
    if isinstance(result, Sentence):
        return result is args[0], result, result.diagnostics
    return result


_STRIPPED_ROOT = build_sentence("stripped-root", STRIPPED_ROOT_ROWS)


_PAIRS = (
    (strip_tag_question, reference_cxntag.strip_tag_question),
    (tag_ud, reference_cxntag.tag_ud),
    (tag_pos, reference_cxntag.tag_pos),
    (ud_rule_trace, reference_cxntag.ud_rule_trace),
    (pos_rule_trace, reference_cxntag.pos_rule_trace),
)


@settings(max_examples=400)
@given(sentences())
# Each example tells the oracle from a view that gets one part wrong.
@example(_sentence("fixture", 14, ["duplicate"], 1))  # by_id: last token wins
@example(_sentence("fixture", 6, ["duplicate"], 2))  # children: every token
@example(_sentence("malformed", 3, ["head"], 6))  # root: the first of two
@example(_sentence("malformed", 27, ["duplicate"], 2))  # first_core
@example(_sentence("fixture", 28, ["peripheral"], 4))  # subtrees: grandchildren
@example(_sentence("fixture", 27, ["question"], 0))  # UD "?": punct deprel too
@example(_sentence("fixture", 14, ["question"], 0))  # POS "?": PUNCT only
@example(_sentence("valid", 1, [], 0))  # POS first content: no INTJ
@example(_sentence("london", 0, ["duplicate"], 0))  # the removed tag's text
@example(_sentence("london", 0, ["shift-ids", "deps"], 0))  # DEPS renumbered
@example(_sentence("london", 0, ["deps"], 18))  # DEPS heads that were stripped
# The surface check's pre-check reads the last form as normalize_utterance does.
@example(_sentence("fixture", 0, ["tag"], 19))  # one-token "isn't it"
@example(_sentence("fixture", 0, ["tag"], 1))  # curly "is n’t it", read as "isn't it"
@example(_sentence("fixture", 0, ["tag"], 0))  # upper case: "IS n't IT"
@example(_sentence("fixture", 0, ["tag"], 3))  # "okay?"
@example(_sentence("fixture", 0, ["tag"], 20))  # "(okay"
@example(_sentence("fixture", 0, ["tag"], 32))  # "okay", then a "?" that is not PUNCT
@example(_sentence("fixture", 23, ["tag"], 17))  # "right", then a "," that is not PUNCT
@example(_sentence("fixture", 0, ["tag"], 5))  # "is it": a form with a space
@example(_STRIPPED_ROOT)  # the root goes with the tag: "good" takes its place
def test_tagging_matches_reference(sentence):
    for s in (sentence, _lenient(sentence)):
        for live, reference in _PAIRS:
            assert _outcome(live, s) == _outcome(reference, s), live.__name__
        stripped = strip_tag_question(s)
        for fn in (tag_ud, tag_pos, ud_rule_trace, pos_rule_trace):
            assert _outcome(fn, stripped) == _outcome(
                getattr(reference_cxntag, fn.__name__), stripped
            ), fn.__name__
        for backend in Backend:
            assert _outcome(tag_utterance, s, backend) == _outcome(
                reference_cxntag.tag_utterance, s, backend
            )


_LENIENT_KINDS = ("valid", "malformed", "fuzz")


@settings(max_examples=200)
@given(sentences(kinds=_LENIENT_KINDS))
def test_tagging_is_total_on_lenient_reads(sentence):
    s = _lenient(sentence)
    strip_tag_question(s)
    tag_pos(s)
    try:
        tag_utterance(s, Backend.UD_RULES)
    except MissingAnnotationError:
        pass


@settings(max_examples=200)
@given(sentences(kinds=_LENIENT_KINDS, unique_ops=True))  # one appended tag at most
def test_strip_tag_question_is_idempotent_on_lenient_reads(sentence):
    once = strip_tag_question(_lenient(sentence))
    assert strip_tag_question(once) == once


def _rerooted(sentence: Sentence, index: int) -> Sentence:
    """A copy of ``sentence``, a valid tree, rooted at its token ``index``
    (taken modulo the length): the heads on the path from that token to the
    old root are reversed, and the old root becomes a ``dep``."""
    toks = [t.copy() for t in sentence.tokens]
    tok = toks[index % len(toks)]
    prev = 0
    while tok.head:
        nxt = toks[tok.head - 1]
        tok.head = prev
        prev, tok = tok.id, nxt
    if prev:
        tok.head, tok.deprel = prev, "dep"
        toks[index % len(toks)].deprel = "root"
    return replace(sentence, tokens=toks)


@settings(max_examples=300)
@given(sentences(), st.integers(-3, 10**6))
@example(_STRIPPED_ROOT, 0)
def test_stripping_a_valid_tree_leaves_a_valid_tree(sentence, index):
    # A negative index roots the tree at one of its last tokens, which a tag
    # question holds; index 0 keeps the tree as it is.
    assume(validate(sentence) == [])
    if index:
        sentence = _rerooted(sentence, index)
    assert validate(sentence) == []
    assert validate(strip_tag_question(sentence)) == []


def _punct(head: int, form: str = ".") -> tuple:
    return (form, form, "PUNCT", head, "punct")


# Hand-built utterances, one for each decision-list branch that the fixture
# and the generated sentences do not reach: (branch, backend, label, fired
# rule, rows). The last two trees are invalid on purpose; tagging is total.
_BRANCHES = [
    ("ud-2-bare-be-with-discourse", Backend.UD_RULES, "FRA", 2, [
        ("oh", "oh", "INTJ", 3, "discourse"),
        ("it", "it", "PRON", 3, "nsubj"),
        ("is", "be", "AUX", 0, "root"), _punct(3)]),
    ("ud-2-bare-be-with-negation", Backend.UD_RULES, "FRA", 2, [
        ("it", "it", "PRON", 2, "nsubj"),
        ("is", "be", "AUX", 0, "root"),
        ("not", "not", "PART", 2, "advmod"), _punct(2)]),
    ("ud-2-bare-be-with-other-dependent", Backend.UD_RULES, "SPI", 9, [
        ("I", "I", "PRON", 2, "nsubj"),
        ("am", "be", "AUX", 0, "root"),
        ("here", "here", "ADV", 2, "advmod"), _punct(2)]),
    ("ud-8-let-us-without-imp-mood", Backend.UD_RULES, "IMP", 8, [
        ("so", "so", "ADV", 2, "advmod"),
        ("let", "let", "VERB", 0, "root"),
        ("us", "we", "PRON", 2, "obj"), _punct(2)]),
    ("pos-6-let-s-after-a-non-verb", Backend.POS_RULES, "IMP", 6, [
        ("so", "so", "ADV", 2, "advmod"),
        ("let", "let", "VERB", 0, "root"),
        ("'s", "we", "PRON", 2, "obj"),
        ("go", "go", "VERB", 2, "xcomp"), _punct(2)]),
    ("ud-6-past-participle-by-voice", Backend.UD_RULES, "COP", 6, [
        ("it", "it", "PRON", 3, "nsubj:pass"),
        ("was", "be", "AUX", 3, "aux:pass"),
        ("broken", "break", "VERB", 0, "root", {"Voice": "Pass"}), _punct(3)]),
    ("ud-8-base-form-by-xpos", Backend.UD_RULES, "IMP", 8, [
        ("you", "you", "PRON", 2, "nsubj"),
        ("sit", "sit", "VERB", 0, "root", {"VerbForm": "Fin"}, "VB"), _punct(2)]),
    ("tag-span-starting-at-token-1", Backend.UD_RULES, "COM", 5, [
        ("is", "be", "AUX", 4, "parataxis"),
        ("n't", "not", "PART", 1, "advmod"),
        ("it", "it", "PRON", 1, "nsubj"),
        (".", ".", "PUNCT", 0, "root")]),
    ("tag-span-with-a-gap", Backend.UD_RULES, "COP", 6, [
        ("it", "it", "PRON", 3, "nsubj"),
        ("'s", "be", "AUX", 3, "cop"),
        ("nice", "nice", "ADJ", 0, "root"),
        ("is", "be", "AUX", 3, "parataxis"),
        ("n't", "not", "PART", 3, "advmod"),
        ("it", "it", "PRON", 4, "nsubj")]),
    ("tag-span-holding-the-root", Backend.UD_RULES, "FRA", 2, [
        ("go", "go", "VERB", 2, "dep"),
        ("now", "now", "ADV", 1, "advmod"),
        ("is", "be", "AUX", 0, "parataxis"),
        ("it", "it", "PRON", 3, "nsubj"), _punct(3, "?")]),
    ("ud-4-wh-with-a-head-that-is-no-token", Backend.UD_RULES, "SPI", 11, [
        ("what", "what", "PRON", 7, "obj"),
        ("you", "you", "PRON", 3, "nsubj"),
        ("want", "want", "VERB", 0, "root"), _punct(3, "?")]),
]


@pytest.mark.parametrize(
    "backend, label, rule, rows", [row[1:] for row in _BRANCHES],
    ids=[row[0] for row in _BRANCHES],
)
def test_rare_branches_match_reference(backend, label, rule, rows):
    sentence = build_sentence("branch", rows)
    tagged = tag_utterance(sentence, backend)
    assert (tagged.label.value, tagged.fired_rule) == (label, rule)
    stripped = strip_tag_question(sentence)
    for s in (sentence, stripped):
        for live, reference in _PAIRS:
            assert _outcome(live, s) == _outcome(reference, s), live.__name__
    for each in Backend:
        assert _outcome(tag_utterance, sentence, each) == _outcome(
            reference_cxntag.tag_utterance, sentence, each
        )

@pytest.mark.xfail(strict=True, reason="one call strips only the last of two stacked tags")
def test_strip_tag_question_is_idempotent_on_stacked_tags():
    sentence = build_sentence("stacked", [
        ("that", "that", "PRON", 3, "nsubj"),
        ("'s", "be", "AUX", 3, "cop"),
        ("good", "good", "ADJ", 0, "root"),
        (",", ",", "PUNCT", 5, "punct"),
        ("right", "right", "INTJ", 3, "discourse"),
        (",", ",", "PUNCT", 7, "punct"),
        ("is", "be", "AUX", 3, "parataxis"),
        ("n't", "not", "PART", 7, "advmod"),
        ("it", "it", "PRON", 7, "nsubj"),
        ("?", "?", "PUNCT", 3, "punct"),
    ])
    once = strip_tag_question(sentence)
    assert [t.form for t in once.tokens] == ["that", "'s", "good", ",", "right", "."]
    assert strip_tag_question(once) == once
