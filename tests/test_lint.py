from hypothesis import given, settings
from hypothesis import strategies as st

from cait.lint import LintRule, apply_fixes, lint_all
from helpers import P, build_sentence, build_treebank


def poss_sentence(sent_id, deprel):
    # "<pron> dolly ."
    return build_sentence(sent_id, [
        ("your", "your", "PRON", 2, deprel, {"Poss": "Yes", "PronType": "Prs"}),
        ("dolly", "dolly", "NOUN", 0, "root"),
        P(2),
    ])


def nn_sentence(sent_id, deprel, with_case=False):
    # "the toy box ." or "cup of tea ." when with_case
    if with_case:
        return build_sentence(sent_id, [
            ("cup", "cup", "NOUN", 0, "root"),
            ("of", "of", "ADP", 3, "case"),
            ("tea", "tea", "NOUN", 1, deprel),
            P(1),
        ])
    return build_sentence(sent_id, [
        ("the", "the", "DET", 3, "det"),
        ("toy", "toy", "NOUN", 3, deprel),
        ("box", "box", "NOUN", 0, "root"),
        P(3),
    ])


def test_poss_det_flagged_with_suggestion():
    tb = build_treebank([poss_sentence("a", "det")])
    report = lint_all(tb)[0]
    assert report.n_flagged == 1
    assert report.findings[0].suggested_deprel == "nmod:poss"
    assert report.findings[0].token_id == 1
    assert "your dolly" in report.findings[0].context


def test_poss_det_nmod_poss_is_clean():
    tb = build_treebank([poss_sentence("a", "nmod:poss")])
    report = lint_all(tb)[0]
    assert report.n_flagged == 0
    assert report.n_candidates == 1


def test_poss_det_no_candidates_rate_zero():
    tb = build_treebank([nn_sentence("a", "compound")])
    report = lint_all(tb)[0]
    assert report.n_flagged == 0
    assert report.n_candidates == 0
    assert report.rate == 0.0


def test_nn_nmod_flagged():
    tb = build_treebank([nn_sentence("a", "nmod")])
    report = lint_all(tb)[1]
    assert report.n_flagged == 1
    assert report.findings[0].suggested_deprel == "compound"


def test_nn_nmod_case_child_excludes():
    tb = build_treebank([nn_sentence("a", "nmod", with_case=True)])
    report = lint_all(tb)[1]
    assert report.n_flagged == 0
    assert report.n_candidates == 0  # postmodifier, not a candidate at all


def test_nn_nmod_compound_counts_as_candidate():
    tb = build_treebank([nn_sentence("a", "compound")])
    report = lint_all(tb)[1]
    assert report.n_flagged == 0
    assert report.n_candidates == 1


def test_rate_5_of_100():
    sentences = [
        nn_sentence(f"s{i:03d}", "nmod" if i < 5 else "compound")
        for i in range(100)
    ]
    report = lint_all(build_treebank(sentences))[1]
    assert report.n_candidates == 100
    assert report.rate == 0.05


def test_rate_monotone_under_non_candidate_sentences():
    sentences = [
        poss_sentence(f"s{i}", "det" if i < 3 else "nmod:poss") for i in range(10)
    ]
    base = lint_all(build_treebank(sentences))[0]
    padded = lint_all(
        build_treebank(sentences + [nn_sentence("pad", "compound")])
    )[0]
    assert padded.rate == base.rate


def test_findings_sorted_by_sent_id_and_token():
    sentences = [poss_sentence("b", "det"), poss_sentence("a", "det")]
    report = lint_all(build_treebank(sentences))[0]
    assert [f.sent_id for f in report.findings] == ["a", "b"]


def test_fix_reaches_fixed_point():
    sentences = (
        [poss_sentence(f"p{i}", "det") for i in range(7)]
        + [poss_sentence(f"q{i}", "nmod:poss") for i in range(93)]
        + [nn_sentence(f"n{i}", "nmod") for i in range(5)]
        + [nn_sentence(f"m{i}", "compound") for i in range(95)]
    )
    tb = build_treebank(sentences)
    reports = lint_all(tb)
    assert reports[0].rate == 0.07
    assert reports[1].rate == 0.05
    fixed = apply_fixes(tb, [f for r in reports for f in r.findings])
    for report in lint_all(fixed):
        assert report.n_flagged == 0
    # Candidates are preserved, just relabeled.
    assert lint_all(fixed)[0].n_candidates == 100
    assert lint_all(fixed)[1].n_candidates == 100


def test_fix_does_not_touch_unrelated_tokens():
    tb = build_treebank([poss_sentence("a", "det")])
    fixed = apply_fixes(tb, lint_all(tb)[0].findings)
    assert fixed.sentences[0].tokens[1] == tb.sentences[0].tokens[1]
    assert fixed.sentences[0].tokens[0].deprel == "nmod:poss"


def both_sentence(sent_id, poss_deprel, nn_deprel):
    # "your toy box .": one candidate of each rule in one sentence
    return build_sentence(sent_id, [
        ("your", "your", "PRON", 3, poss_deprel, {"Poss": "Yes", "PronType": "Prs"}),
        ("toy", "toy", "NOUN", 3, nn_deprel),
        ("box", "box", "NOUN", 0, "root"),
        P(3),
    ])


_BUILDERS = {
    "poss": lambda sid, poss, nn: poss_sentence(sid, poss),
    "nn": lambda sid, poss, nn: nn_sentence(sid, nn),
    "case": lambda sid, poss, nn: nn_sentence(sid, nn, with_case=True),
    "both": both_sentence,
}


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from(sorted(_BUILDERS)),
    st.sampled_from(["det", "nmod:poss", "nsubj"]),
    st.sampled_from(["nmod", "compound", "obj"]),
), max_size=12))
def test_one_pass_fixes_are_apply_fixes(rows):
    tb = build_treebank(
        _BUILDERS[kind](f"s{i}", poss, nn) for i, (kind, poss, nn) in enumerate(rows)
    )
    fixed = []
    reports = lint_all(tb, fixed.append)
    assert [r.rule for r in reports] == list(LintRule)
    findings = [f for r in reports for f in r.findings]
    assert fixed == apply_fixes(tb, findings).sentences
    assert reports == lint_all(tb)
