import re

import pytest

from cait import cxntag
from cait.conllu import SpeakerRole, Treebank, conllu_string, read_conllu, validate
from cait.cxntag import (
    CXN_LABEL_ORDER,
    Backend,
    CxnLabel,
    FormulaicLexicon,
    MissingAnnotationError,
    cxn_accuracy,
    normalize_utterance,
    pos_rule_trace,
    strip_tag_question,
    tag_pos,
    tag_treebank,
    tag_ud,
    tag_utterance,
    ud_rule_trace,
)
from cxn_fixture import CANONICAL_IDS, UTTERANCES
from helpers import P, Q, build_sentence, build_treebank, london_gold


def fixture_sentences():
    return {
        sent_id: build_sentence(sent_id, rows)
        for sent_id, _, rows in UTTERANCES
    }


def fixture_gold():
    return {sent_id: CxnLabel(label) for sent_id, label, _ in UTTERANCES}


# ---------------------------------------------------------------------------
# Fixture sanity
# ---------------------------------------------------------------------------

def test_fixture_has_100_valid_utterances():
    sentences = fixture_sentences()
    assert len(sentences) == 100
    for sent_id, sentence in sentences.items():
        assert validate(sentence) == [], sent_id


# ---------------------------------------------------------------------------
# Lexicon and normalization
# ---------------------------------------------------------------------------

def test_normalize_utterance():
    assert normalize_utterance("Thank you !") == "thank you"
    assert normalize_utterance("you 're welcome .") == "you're welcome"
    assert normalize_utterance("  OOPS  ") == "oops"
    assert normalize_utterance("do n't") == "don't"


def test_normalize_utterance_folds_the_curly_apostrophe():
    assert normalize_utterance("do n’t") == "don't"
    assert normalize_utterance("you ’re welcome .") == "you're welcome"
    assert normalize_utterance("Is N’T it ?") == "isn't it"


def test_curly_input_matches_a_straight_lexicon_pattern(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("don't worry\n", encoding="utf-8")
    lex = FormulaicLexicon.from_file(path)
    assert "Don’t worry !" in lex
    assert "do n’t worry" in lex
    assert FormulaicLexicon.from_file(b"don\xe2\x80\x99t worry\n").patterns == lex.patterns


def test_lexicon_exact_match_only():
    lex = FormulaicLexicon.default()
    assert "hello ." in lex
    assert "Thank you!" in lex
    assert "oops" in lex
    assert "oops I dropped it" not in lex
    assert "yeah" not in lex  # response particle, not a social routine


def test_lexicon_from_file(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("# mine\nboo\nGood Grief !\n", encoding="utf-8")
    lex = FormulaicLexicon.from_file(path)
    assert "boo ." in lex
    assert "good grief" in lex
    assert "hello" not in lex


def test_empty_lexicon_rejected():
    with pytest.raises(ValueError):
        FormulaicLexicon(frozenset())


# ---------------------------------------------------------------------------
# Tag-question stripping
# ---------------------------------------------------------------------------

def test_strip_thats_good_isnt_it():
    sentence = build_sentence("tag", [
        ("that", "that", "PRON", 3, "nsubj"),
        ("'s", "be", "AUX", 3, "cop"),
        ("good", "good", "ADJ", 0, "root"),
        ("is", "be", "AUX", 3, "parataxis"),
        ("n't", "not", "PART", 4, "advmod"),
        ("it", "it", "PRON", 4, "nsubj"),
        Q(3),
    ])
    out = strip_tag_question(sentence)
    assert [t.form for t in out.tokens] == ["that", "'s", "good", "."]
    assert validate(out) == []


@pytest.mark.parametrize("negation", ["n't", "n’t"])
def test_a_curly_tag_question_is_stripped_like_a_straight_one(negation):
    # "hello . , is n’t it ?" with the tag attached as dep: the surface check
    # reads "is n’t it" as "isn't it".
    sentence = build_sentence("curly", [
        ("hello", "hello", "INTJ", 0, "root"),
        (".", ".", "PUNCT", 1, "punct"),
        (",", ",", "PUNCT", 1, "punct"),
        ("is", "be", "AUX", 1, "dep"),
        (negation, "not", "PART", 4, "dep"),
        ("it", "it", "PRON", 4, "dep"),
        Q(1),
    ])
    out = strip_tag_question(sentence)
    assert [t.form for t in out.tokens] == ["hello", ".", "."]
    for backend in Backend:
        tagged = tag_utterance(sentence, backend)
        assert tagged.label is CxnLabel.FOR
        assert tagged.stripped_tag_question is not None


def test_strip_identity_when_no_tag():
    sentence = build_sentence("plain", [
        ("it", "it", "PRON", 4, "nsubj"),
        ("'s", "be", "AUX", 4, "cop"),
        ("a", "a", "DET", 4, "det"),
        ("kite", "kite", "NOUN", 0, "root"),
        P(4),
    ])
    assert strip_tag_question(sentence) == sentence


def test_strip_london_removes_parataxis_subtree():
    out = strip_tag_question(london_gold())
    assert [t.form for t in out.tokens] == ["It", "was", "in", "London", "."]
    assert [t.head for t in out.tokens] == [4, 4, 4, 0, 4]
    assert validate(out) == []


def test_strip_is_idempotent():
    once = strip_tag_question(london_gold())
    assert strip_tag_question(once) == once


def test_strip_does_not_eat_clause_core():
    # "what is it?" ends in an aux+pronoun bigram but it is the clause.
    sentence = build_sentence("core", [
        ("what", "what", "PRON", 0, "root", {"PronType": "Int"}),
        ("is", "be", "AUX", 1, "cop"),
        ("it", "it", "PRON", 1, "nsubj"),
        Q(1),
    ])
    assert strip_tag_question(sentence) == sentence


def test_strip_single_word_tag_requires_loose_attachment():
    with_discourse = build_sentence("okay1", [
        ("that", "that", "PRON", 3, "nsubj"),
        ("'s", "be", "AUX", 3, "cop"),
        ("good", "good", "ADJ", 0, "root"),
        ("okay", "okay", "INTJ", 3, "discourse"),
        Q(3),
    ])
    out = strip_tag_question(with_discourse)
    assert [t.form for t in out.tokens] == ["that", "'s", "good", "."]
    # Same surface shape but "okay" is the predicate: must not strip.
    predicate = build_sentence("okay2", [
        ("I", "I", "PRON", 3, "nsubj"),
        ("am", "be", "AUX", 3, "cop"),
        ("okay", "okay", "ADJ", 0, "root"),
        Q(3),
    ])
    assert strip_tag_question(predicate) == predicate


def test_strip_keeps_question_mark_when_wh_remains():
    sentence = build_sentence("whtag", [
        ("where", "where", "ADV", 4, "advmod", {"PronType": "Int"}),
        ("did", "do", "AUX", 4, "aux"),
        ("he", "he", "PRON", 4, "nsubj"),
        ("go", "go", "VERB", 0, "root"),
        (",", ",", "PUNCT", 4, "punct"),
        ("huh", "huh", "INTJ", 4, "discourse"),
        Q(4),
    ])
    out = strip_tag_question(sentence)
    assert [t.form for t in out.tokens] == ["where", "did", "he", "go", "?"]


def test_strip_rewrites_the_text_comment_whatever_its_case():
    # The reader takes any key that lower-cases to "text" as the text.
    rows = [("you", "PRON", 2, "nsubj"), ("like", "VERB", 0, "root"),
            ("it", "PRON", 2, "obj"), (",", "PUNCT", 2, "punct"),
            ("do", "AUX", 2, "parataxis"), ("n't", "PART", 5, "advmod"),
            ("you", "PRON", 5, "nsubj"), ("?", "PUNCT", 2, "punct")]
    data = "# sent_id = t1\n# Text = you like it , do n't you ?\n" + "".join(
        f"{i}\t{form}\t{form}\t{upos}\t_\t_\t{head}\t{deprel}\t_\t_\n"
        for i, (form, upos, head, deprel) in enumerate(rows, 1)
    )
    out = strip_tag_question(read_conllu(data.encode("utf-8")).sentences[0])
    assert out.text == "you like it ."
    assert out.comments == ["# sent_id = t1", "# text = you like it ."]
    again = read_conllu(conllu_string(Treebank([out])).encode("utf-8"))
    assert again.sentences[0].text == out.text


def test_strip_renumbers_enhanced_dependencies_with_the_heads():
    # Token 6 becomes token 4 and token 5 goes: DEPS heads on 6 and 6.1
    # follow, and an item whose head was stripped is dropped.
    rows = [("that", "PRON", 3, "nsubj", "3:nsubj|6.1:nsubj"),
            ("is", "AUX", 3, "cop", "3:cop"), ("good", "ADJ", 0, "root", "0:root"),
            (",", "PUNCT", 5, "punct", "5:punct"),
            ("right", "INTJ", 3, "discourse", "3:discourse"),
            (".", "PUNCT", 3, "punct", "3:punct|5:dep")]
    data = "# sent_id = e2\n" + "".join(
        f"{i}\t{form}\t{form}\t{upos}\t_\t_\t{head}\t{deprel}\t{deps}\t_\n"
        for i, (form, upos, head, deprel, deps) in enumerate(rows, 1)
    ) + "6.1\tgone\tgo\tVERB\t_\t_\t_\t_\t6:conj|5:dep\t_\n"
    out = strip_tag_question(read_conllu(data.encode("utf-8")).sentences[0])
    assert [(t.form, t.deps) for t in out.tokens] == [
        ("that", "3:nsubj|4.1:nsubj"), ("is", "3:cop"), ("good", "0:root"),
        (".", "3:punct"),
    ]
    assert out.empty_nodes[0].columns[8] == "4:conj"


def test_strip_moves_an_empty_node_with_its_anchor():
    # Token 6 becomes token 4, so the empty node 6.1 after it becomes 4.1.
    rows = [("that", "PRON", 3, "nsubj"), ("is", "AUX", 3, "cop"),
            ("good", "ADJ", 0, "root"), (",", "PUNCT", 5, "punct"),
            ("right", "INTJ", 3, "discourse"), (".", "PUNCT", 3, "punct")]
    data = "# sent_id = e1\n" + "".join(
        f"{i}\t{form}\t{form}\t{upos}\t_\t_\t{head}\t{deprel}\t_\t_\n"
        for i, (form, upos, head, deprel) in enumerate(rows, 1)
    ) + "6.1\tgone\tgo\tVERB\t_\t_\t_\t_\t3:conj\t_\n"
    out = strip_tag_question(read_conllu(data.encode("utf-8")).sentences[0])
    assert [t.form for t in out.tokens] == ["that", "is", "good", "."]
    assert [(e.anchor, e.columns[0]) for e in out.empty_nodes] == [(4, "4.1")]
    assert conllu_string(Treebank([out])).split("\n")[-4:-2] == [
        "4\t.\t.\tPUNCT\t_\t_\t3\tpunct\t_\t_",
        "4.1\tgone\tgo\tVERB\t_\t_\t_\t_\t3:conj\t_",
    ]


# ---------------------------------------------------------------------------
# Canonical exemplars (both backends)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sent_id,label", sorted(CANONICAL_IDS.items()))
def test_canonical_exemplars_ud(sent_id, label):
    sentence = fixture_sentences()[sent_id]
    assert tag_ud(sentence).label is CxnLabel(label)


@pytest.mark.parametrize("sent_id,label", sorted(CANONICAL_IDS.items()))
def test_canonical_exemplars_pos(sent_id, label):
    sentence = fixture_sentences()[sent_id]
    assert tag_pos(sentence).label is CxnLabel(label)


def test_she_is_running_is_spi_not_cop():
    sentence = fixture_sentences()["spi-07"]
    assert tag_ud(sentence).label is CxnLabel.SPI
    assert tag_pos(sentence).label is CxnLabel.SPI


def test_declarative_with_question_mark_is_not_qyn():
    sentence = build_sentence("decl-q", [
        ("you", "you", "PRON", 3, "nsubj"),
        ("can", "can", "AUX", 3, "aux"),
        ("hear", "hear", "VERB", 0, "root", {"VerbForm": "Inf"}),
        ("me", "I", "PRON", 3, "obj"),
        Q(3),
    ])
    tagged = tag_ud(sentence)
    assert tagged.label is not CxnLabel.QYN
    assert tagged.label is CxnLabel.SPT


def test_ud_fired_rules_match_expectations():
    sentences = fixture_sentences()
    assert tag_ud(sentences["for-01"]).fired_rule == 1
    assert tag_ud(sentences["fra-06"]).fired_rule == 2   # she's.
    assert tag_ud(sentences["qyn-01"]).fired_rule == 3
    assert tag_ud(sentences["qwh-01"]).fired_rule == 4
    assert tag_ud(sentences["com-01"]).fired_rule == 5
    assert tag_ud(sentences["cop-01"]).fired_rule == 6
    assert tag_ud(sentences["fra-01"]).fired_rule == 7   # Mummy.
    assert tag_ud(sentences["imp-03"]).fired_rule == 8
    assert tag_ud(sentences["spi-03"]).fired_rule == 9   # we did.
    assert tag_ud(sentences["spt-01"]).fired_rule == 10
    assert tag_ud(sentences["spi-01"]).fired_rule == 11
    assert tag_ud(sentences["x-01"]).fired_rule == 0


def test_exclusion_category_overrides_rules():
    sentence = build_sentence("xxx", [
        ("xxx", "xxx", "X", 0, "root"),
        ("yyy", "yyy", "X", 1, "flat"),
    ])
    assert tag_ud(sentence).label is CxnLabel.X
    assert tag_pos(sentence).label is CxnLabel.X


def test_missing_annotation_raises_for_ud_backend():
    sentence = build_sentence("bare", [("dog", "_", "_", 0, "root")])
    with pytest.raises(MissingAnnotationError) as err:
        tag_ud(sentence)
    assert "POS_RULES" in str(err.value)
    # POS backend is total even on unannotated input.
    assert tag_pos(sentence).label is CxnLabel.FRA


# ---------------------------------------------------------------------------
# Whole-fixture behaviour
# ---------------------------------------------------------------------------

def test_ud_backend_accuracy_on_fixture():
    sentences = fixture_sentences()
    gold = fixture_gold()
    hits = sum(
        tag_utterance(sentences[sid]).label is gold[sid] for sid in sentences
    )
    assert hits == 100


def test_first_match_property_ud():
    for sent_id, _, rows in UTTERANCES:
        sentence = build_sentence(sent_id, rows)
        stripped = strip_tag_question(sentence)
        tagged = tag_ud(stripped)
        trace = ud_rule_trace(stripped)
        for ordinal, label, fired in trace:
            if ordinal < tagged.fired_rule:
                assert not fired, (sent_id, ordinal, label)
            if ordinal == tagged.fired_rule:
                assert fired and label is tagged.label


def test_first_match_property_pos():
    for sent_id, _, rows in UTTERANCES:
        sentence = build_sentence(sent_id, rows)
        stripped = strip_tag_question(sentence)
        tagged = tag_pos(stripped)
        for ordinal, label, fired in pos_rule_trace(stripped):
            if ordinal < tagged.fired_rule:
                assert not fired, (sent_id, ordinal, label)
            if ordinal == tagged.fired_rule:
                assert fired and label is tagged.label


def test_labels_closed_over_both_backends():
    for sent_id, _, rows in UTTERANCES:
        sentence = build_sentence(sent_id, rows)
        assert tag_utterance(sentence, Backend.UD_RULES).label in CxnLabel
        assert tag_utterance(sentence, Backend.POS_RULES).label in CxnLabel


def test_determinism_across_runs():
    sentences = fixture_sentences()
    first = [tag_utterance(s) for s in sentences.values()]
    second = [tag_utterance(s) for s in sentences.values()]
    assert first == second


def test_tag_treebank_batch():
    tb = build_treebank(
        [build_sentence(sid, rows) for sid, _, rows in UTTERANCES]
    )
    tagged, errors = tag_treebank(tb)
    assert len(tagged) == 100
    assert errors == []


def test_tag_treebank_empty():
    tagged, errors = tag_treebank(build_treebank([]))
    assert tagged == [] and errors == []


def test_tag_treebank_collects_errors_without_aborting():
    good = build_sentence("good", [("hello", "hello", "INTJ", 0, "root"), P(1)])
    bad = build_sentence("bad", [("dog", "_", "_", 0, "root")])
    tagged, errors = tag_treebank(build_treebank([good, bad, good]))
    assert len(tagged) == 2
    assert len(errors) == 1
    assert errors[0][0] == "bad"


@pytest.mark.parametrize("backend", ["ud", "pos", None])
def test_a_backend_that_is_not_a_member_raises_value_error(backend):
    good = build_sentence("good", [("hello", "hello", "INTJ", 0, "root"), P(1)])
    message = f"backend {backend!r} is not one of Backend.UD_RULES, Backend.POS_RULES"
    with pytest.raises(ValueError, match=re.escape(message)):
        tag_utterance(good, backend)
    # Raised once, before tagging, rather than collected per sentence.
    with pytest.raises(ValueError, match=re.escape(message)):
        tag_treebank(build_treebank([good, good]), backend)


def test_tag_records_stripped_text():
    tagged = tag_utterance(london_gold())
    assert tagged.stripped_tag_question == "was n't it ?"
    assert tagged.label is CxnLabel.COP


@pytest.mark.parametrize("backend", list(Backend))
def test_tag_utterance_views_an_utterance_once_unless_it_strips(
    monkeypatch, corpus_bytes, backend
):
    # Stripping hands its view to the decision list: one view for an
    # utterance that keeps its tail, and one more for a stripped utterance.
    sentences = read_conllu(corpus_bytes).sentences
    stripped = [strip_tag_question(s) is not s for s in sentences]
    assert 0 < sum(stripped) < len(sentences)
    built = []

    class CountedView(cxntag._View):
        def __init__(self, sentence):
            built.append(sentence)
            super().__init__(sentence)

    monkeypatch.setattr(cxntag, "_View", CountedView)
    for sentence, was_stripped in zip(sentences, stripped):
        built.clear()
        try:
            tag_utterance(sentence, backend)
        except MissingAnnotationError:
            pass
        assert len(built) == 1 + was_stripped, sentence.sent_id


# ---------------------------------------------------------------------------
# cxn_accuracy
# ---------------------------------------------------------------------------

def test_cxn_accuracy_perfect():
    tb = build_treebank(
        [build_sentence(sid, rows) for sid, _, rows in UTTERANCES]
    )
    tagged, _ = tag_treebank(tb)
    report = cxn_accuracy(tagged, fixture_gold())
    assert report.accuracy == 100.0
    assert all(v == 100.0 for v in report.per_category.values())
    assert sum(map(sum, report.confusion)) == 100
    import numpy as np

    assert sum(map(sum, report.confusion)) == np.trace(report.confusion)


def test_cxn_accuracy_hand_count_and_confusion_rows():
    from cait.cxntag import TaggedUtterance

    gold = {f"u{i}": CxnLabel.SPI for i in range(10)}
    pred = [
        TaggedUtterance(f"u{i}", CxnLabel.SPI if i else CxnLabel.SPT,
                        Backend.UD_RULES, 11)
        for i in range(10)
    ]
    report = cxn_accuracy(pred, gold)
    assert report.accuracy == 90.0
    spi_row = report.confusion[CXN_LABEL_ORDER.index(CxnLabel.SPI)]
    assert sum(spi_row) == 10  # row sums equal gold category counts


def test_cxn_accuracy_speaker_split():
    from cait.cxntag import TaggedUtterance

    gold = {"a": CxnLabel.SPI, "b": CxnLabel.SPI}
    speakers = {"a": SpeakerRole.CS, "b": SpeakerRole.CDS}
    pred = [
        TaggedUtterance("a", CxnLabel.SPI, Backend.UD_RULES, 11),
        TaggedUtterance("b", CxnLabel.SPT, Backend.UD_RULES, 10),
    ]
    report = cxn_accuracy(pred, gold, speakers)
    assert report.by_speaker == {"CS": 100.0, "CDS": 0.0}


def test_cxn_accuracy_unknown_sent_id():
    from cait.cxntag import TaggedUtterance

    with pytest.raises(ValueError):
        cxn_accuracy(
            [TaggedUtterance("ghost", CxnLabel.SPI, Backend.UD_RULES, 11)], {}
        )



def test_cxn_accuracy_of_no_predictions_is_an_error():
    with pytest.raises(ValueError, match="no predictions to score"):
        cxn_accuracy([], {})

def test_load_gold_labels_names_the_line_of_a_bad_row(tmp_path):
    from cait.cxntag import load_gold_labels

    path = tmp_path / "gold.tsv"
    path.write_text("# sent_id label\na\tSPI\n\nb\tNOPE\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_gold_labels(path)
    assert str(info.value) == f"{path}: line 4: 'NOPE' is not a construction label"

    path.write_text("a\tSPI\nb SPT\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_gold_labels(path)
    assert str(info.value) == f"{path}: line 2: no tab in row 'b SPT'"



def test_load_gold_labels_strips_both_columns(tmp_path):
    from cait.cli import main
    from cait.cxntag import load_gold_labels

    labels = tmp_path / "gold.tsv"
    labels.write_text("s1 \tFOR \n", encoding="utf-8")
    assert load_gold_labels(labels) == {"s1": CxnLabel.FOR}

    data = tmp_path / "in.conllu"
    data.write_text(
        "# sent_id = s1\n1\tgo\tgo\tVERB\t_\t_\t0\troot\t_\t_\n\n",
        encoding="utf-8",
    )
    assert main(["tag-cxn", "--input", str(data), "--gold", str(labels),
                 "--out", str(tmp_path / "tags.tsv")]) == 0

def test_punct_parataxis_with_aux_lemma_is_not_a_tag_question():
    # A PUNCT parataxis dependent with an auxiliary lemma has no content
    # token in its subtree; the structural detector used to take max() of
    # an empty list.
    sentence = build_sentence(
        "punct-parataxis",
        [
            ("I", "I", "PRON", 2, "nsubj"),
            ("go", "go", "VERB", 0, "root"),
            ("x", "x", "NOUN", 2, "obj"),
            ("is", "be", "PUNCT", 2, "parataxis"),
        ],
    )
    assert strip_tag_question(sentence) is sentence
    assert tag_utterance(sentence).label is CxnLabel.COM  # parataxis: rule 5


def test_default_lexicon_is_read_once():
    assert FormulaicLexicon.default() is FormulaicLexicon.default()
