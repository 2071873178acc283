import math
import random

import numpy as np
import pytest
from scipy import integrate

from cait.conllu import SpeakerRole
from cait.evaluation import (
    AlignmentError,
    ConfusionScope,
    ErrorScope,
    aggregate,
    align,
    confusion,
    confusion_delta,
    evaluate_treebanks,
    length_bin,
    paired_ttest,
    per_label_error_rates,
    reg_inc_beta,
    score_sentence,
    tag_accuracy,
)
from helpers import P, build_sentence, build_treebank, london_gold, london_pred
from synth import corrupt_sentence, random_valid_sentence


def simple_pair(forms_heads_gold, forms_heads_pred, sent_id="s"):
    gold = build_sentence(sent_id, forms_heads_gold)
    pred = build_sentence(sent_id, forms_heads_pred)
    return gold, pred


# ---------------------------------------------------------------------------
# align
# ---------------------------------------------------------------------------

def test_align_identical_tokens():
    s = london_gold()
    pairs = align(s, london_pred())
    assert len(pairs) == 8
    assert all(g.form == p.form for g, p in pairs)


def test_align_ignores_mwt(corpus_path):
    from cait.conllu import read_conllu

    tb = read_conllu(corpus_path)
    dont = next(s for s in tb.sentences if s.sent_id == "mpi-002")
    pairs = align(dont, dont)
    assert len(pairs) == 5  # the 1-2 multiword line is not a token


def test_align_mwt_only_on_one_side():
    from cait.conllu import MWTRange

    gold = build_sentence("s", [
        ("do", "do", "AUX", 0, "root"),
        ("n't", "not", "PART", 1, "advmod"),
    ])
    gold.mwt.append(MWTRange(1, 2, "don't"))
    pred = build_sentence("s", [
        ("do", "do", "AUX", 0, "root"),
        ("n't", "not", "PART", 1, "advmod"),
    ])
    assert len(align(gold, pred)) == 2


def test_align_count_mismatch():
    gold = build_sentence("s", [("a", "a", "X", 0, "root")])
    pred = build_sentence("s", [("a", "a", "X", 0, "root"),
                                ("b", "b", "X", 1, "dep")])
    with pytest.raises(AlignmentError):
        align(gold, pred)


def test_align_form_mismatch_names_position():
    gold = build_sentence("s", [("a", "a", "X", 0, "root"),
                                ("b", "b", "X", 1, "dep")])
    pred = build_sentence("s", [("a", "a", "X", 0, "root"),
                                ("c", "c", "X", 1, "dep")])
    with pytest.raises(AlignmentError) as err:
        align(gold, pred)
    assert err.value.position == 2


def test_align_nfc_and_whitespace_normalization():
    gold = build_sentence("s", [("café", "cafe", "NOUN", 0, "root")])
    pred = build_sentence("s", [("café", "cafe", "NOUN", 0, "root")])
    assert len(align(gold, pred)) == 1


def test_align_normalizes_only_forms_that_differ(monkeypatch):
    from cait import evaluation

    normalized = []
    real = evaluation._norm_form
    monkeypatch.setattr(
        evaluation, "_norm_form", lambda form: normalized.append(form) or real(form)
    )
    gold = build_sentence("s", [("the", "the", "DET", 2, "det"),
                                ("café", "cafe", "NOUN", 0, "root")])
    pred = build_sentence("s", [("the", "the", "DET", 2, "det"),
                                ("cafe\u0301", "cafe", "NOUN", 0, "root")])
    assert len(align(gold, pred)) == 2
    assert normalized == ["café", "cafe\u0301"]


# ---------------------------------------------------------------------------
# score_sentence
# ---------------------------------------------------------------------------

def test_identical_sentence_scores_perfect():
    s = london_gold()
    score = score_sentence(s, s)
    assert score.n_scored == 8
    assert score.n_head_correct == 8
    assert score.n_las_correct == 8
    assert score.exact and score.unlabeled_exact


def test_london_reference_trees_token_by_token():
    # Oracle: direct token-by-token comparison of the two reference trees.
    # Heads match only at tokens 1-3 (the prediction moves the root to
    # "it", dragging tokens 4-8 with it), so UAS = LAS = 3/8 = 37.5.
    score = score_sentence(london_gold(), london_pred())
    assert score.n_scored == 8
    assert score.n_head_correct == 3
    assert score.n_las_correct == 3
    uas = 100.0 * score.n_head_correct / score.n_scored
    las = 100.0 * score.n_las_correct / score.n_scored
    assert uas == 37.5
    assert las == 37.5


def test_subtype_comparison_is_exact_by_default():
    gold = build_sentence("s", [
        ("my", "my", "PRON", 2, "nmod:poss"),
        ("ball", "ball", "NOUN", 0, "root"),
    ])
    pred = build_sentence("s", [
        ("my", "my", "PRON", 2, "nmod"),
        ("ball", "ball", "NOUN", 0, "root"),
    ])
    strict = score_sentence(gold, pred)
    assert strict.n_las_correct == 1
    relaxed = score_sentence(gold, pred, universal_deprel_only=True)
    assert relaxed.n_las_correct == 2


def test_punctuation_scored_but_excluded_from_length():
    score = score_sentence(london_gold(), london_gold())
    assert score.n_scored == 8      # "?" counts for attachment
    assert score.length_nopunct == 7
    assert length_bin(score.length_nopunct) == "7-10"


# ---------------------------------------------------------------------------
# aggregate
# ---------------------------------------------------------------------------

def _mk_score(sent_id, n, heads, las, role=SpeakerRole.CS, length=None):
    from cait.evaluation import SentencePairScore

    return SentencePairScore(
        sent_id=sent_id,
        n_scored=n,
        n_head_correct=heads,
        n_las_correct=las,
        exact=las == n,
        unlabeled_exact=heads == n,
        speaker_role=role,
        length_nopunct=length if length is not None else n,
    )


def test_aggregate_micro_average_hand_arithmetic():
    report = aggregate([_mk_score("a", 5, 5, 5), _mk_score("b", 5, 3, 2)])
    assert report.uas == 80.0
    assert report.las == 70.0
    assert report.em == 50.0
    assert report.uem == 50.0


def test_aggregate_single_perfect_sentence():
    report = aggregate([_mk_score("a", 4, 4, 4)])
    assert (report.las, report.uas, report.em, report.uem) == (
        100.0, 100.0, 100.0, 100.0,
    )


def test_aggregate_empty_errors():
    with pytest.raises(ValueError):
        aggregate([])


def test_aggregate_bins_partition_sentences():
    rng = random.Random(3)
    scores = [
        _mk_score(
            f"s{i}",
            6,
            rng.randint(0, 6),
            0,
            role=rng.choice([SpeakerRole.CS, SpeakerRole.CDS]),
            length=rng.randint(0, 15),
        )
        for i in range(50)
    ]
    report = aggregate(scores)
    bin_total = sum(
        report.slices[key].n_sentences
        for key in report.slices
        if ":" in key
    )
    assert bin_total == 50
    assert (
        report.slices["CS"].n_sentences + report.slices["CDS"].n_sentences == 50
    )


def test_aggregate_order_invariant():
    rng = random.Random(5)
    base = [random_valid_sentence(rng, f"s{i}") for i in range(30)]
    pred = [corrupt_sentence(s, 0.3, rng) for s in base]
    scores = [score_sentence(g, p) for g, p in zip(base, pred)]
    report_a = aggregate(scores)
    shuffled = scores[:]
    rng.shuffle(shuffled)
    report_b = aggregate(shuffled)
    assert (report_a.las, report_a.uas, report_a.em, report_a.uem) == (
        report_b.las, report_b.uas, report_b.em, report_b.uem,
    )
    assert report_a.slices == report_b.slices


def test_las_bounded_by_uas_em_by_uem():
    rng = random.Random(9)
    for rate in (0.0, 0.2, 0.5):
        gold = [random_valid_sentence(rng, f"g{i}") for i in range(20)]
        pred = [corrupt_sentence(s, rate, rng) for s in gold]
        report = aggregate([score_sentence(g, p) for g, p in zip(gold, pred)])
        assert report.las <= report.uas
        assert report.em <= report.uem


# ---------------------------------------------------------------------------
# tag accuracy
# ---------------------------------------------------------------------------

def test_tag_accuracy_identical_is_100(corpus_path):
    from cait.conllu import read_conllu

    tb = read_conllu(corpus_path)
    assert tag_accuracy(tb, tb, "upos") == 100.0
    assert tag_accuracy(tb, tb, "xpos") == 100.0


def test_tag_accuracy_hand_count():
    rows = [(f"w{i}", "_", "NOUN", 0 if i == 1 else 1,
             "root" if i == 1 else "dep") for i in range(1, 11)]
    gold = build_treebank([build_sentence("s", rows)])
    pred_rows = list(rows)
    pred_rows[4] = ("w5", "_", "VERB", 1, "dep")
    pred = build_treebank([build_sentence("s", pred_rows)])
    assert tag_accuracy(gold, pred, "upos") == 90.0


def test_tag_accuracy_underscore_matches_underscore():
    gold = build_treebank([build_sentence("s", [("a", "_", "_", 0, "root")])])
    assert tag_accuracy(gold, gold, "upos") == 100.0
    assert tag_accuracy(gold, gold, "xpos") == 100.0


# ---------------------------------------------------------------------------
# paired t-test
# ---------------------------------------------------------------------------

def _student_t_two_sided_quadrature(t, df):
    """Independent oracle: numerically integrate the unnormalized Student-t
    density and normalize by its full integral."""
    def density(x):
        return (1.0 + x * x / df) ** (-(df + 1) / 2.0)

    total, _ = integrate.quad(density, -np.inf, np.inf)
    tail, _ = integrate.quad(density, abs(t), np.inf)
    return 2.0 * tail / total


def test_ttest_identical_vectors_p_exactly_one():
    result = paired_ttest([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert result.mean_diff == 0.0
    assert result.t_stat == 0.0
    assert result.p_value == 1.0


def test_ttest_differences_1_2_3():
    result = paired_ttest([2.0, 4.0, 6.0], [1.0, 2.0, 3.0])
    assert result.n == 3
    assert result.df == 2
    assert result.mean_diff == pytest.approx(2.0)
    assert result.t_stat == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-9)
    assert result.p_value == pytest.approx(0.0742, abs=1e-4)
    oracle = _student_t_two_sided_quadrature(result.t_stat, result.df)
    assert result.p_value == pytest.approx(oracle, abs=1e-6)


def test_ttest_matches_quadrature_oracle_across_inputs():
    rng = random.Random(13)
    for n in (2, 3, 5, 10, 40):
        a = [rng.uniform(0, 100) for _ in range(n)]
        b = [rng.uniform(0, 100) for _ in range(n)]
        result = paired_ttest(a, b)
        if result.degenerate:
            continue
        oracle = _student_t_two_sided_quadrature(result.t_stat, result.df)
        assert result.p_value == pytest.approx(oracle, abs=1e-6)


def test_ttest_antisymmetric_t():
    a = [3.0, 5.0, 9.0, 4.0]
    b = [1.0, 7.0, 2.0, 8.0]
    assert paired_ttest(a, b).t_stat == -paired_ttest(b, a).t_stat


def test_ttest_degenerate_nonzero_mean():
    result = paired_ttest([2.0, 2.0], [1.0, 1.0])
    assert result.degenerate
    assert result.p_value == 0.0
    assert math.isinf(result.t_stat)


def test_ttest_zero_variance_zero_mean_n2():
    assert paired_ttest([5.0, 5.0], [5.0, 5.0]).p_value == 1.0


def test_ttest_input_validation():
    with pytest.raises(ValueError):
        paired_ttest([1.0], [1.0])
    with pytest.raises(ValueError):
        paired_ttest([1.0, 2.0], [1.0])


def test_reg_inc_beta_against_scipy():
    from scipy import special

    rng = random.Random(2)
    for _ in range(50):
        a = rng.uniform(0.3, 30)
        b = rng.uniform(0.3, 30)
        x = rng.random()
        assert reg_inc_beta(a, b, x) == pytest.approx(
            float(special.betainc(a, b, x)), rel=1e-10, abs=1e-12
        )


def test_reg_inc_beta_is_0_and_1_outside_the_unit_interval():
    assert reg_inc_beta(2.0, 3.0, 0.0) == reg_inc_beta(2.0, 3.0, -0.5) == 0.0
    assert reg_inc_beta(2.0, 3.0, 1.0) == reg_inc_beta(2.0, 3.0, 1.5) == 1.0


def test_length_bin_rejects_a_negative_length():
    assert length_bin(0) == "<=3"
    with pytest.raises(ValueError, match="negative length -1"):
        length_bin(-1)


# ---------------------------------------------------------------------------
# per-label error rates and confusion
# ---------------------------------------------------------------------------

def _label_corpus(n, wrong_every):
    """n 'conj' tokens under a root; every wrong_every-th one mislabeled."""
    gold_rows = [("r", "r", "VERB", 0, "root")]
    pred_rows = [("r", "r", "VERB", 0, "root")]
    for i in range(n):
        gold_rows.append((f"w{i}", "_", "NOUN", 1, "conj"))
        bad = (i % wrong_every) == 0
        pred_rows.append((f"w{i}", "_", "NOUN", 1, "cc" if bad else "conj"))
    gold = build_treebank([build_sentence("s", gold_rows)])
    pred = build_treebank([build_sentence("s", pred_rows)])
    return gold, pred


def test_per_label_all_correct_rates_zero():
    tb = build_treebank([london_gold()])
    rates = per_label_error_rates(tb, tb, min_gold=1)
    assert set(rates.values()) == {0.0}


def test_per_label_hand_count():
    # 100 gold conj, 15 errors -> 0.15
    gold, pred = _label_corpus(100, wrong_every=7)
    n_wrong = len([i for i in range(100) if i % 7 == 0])
    rates = per_label_error_rates(gold, pred, min_gold=100)
    assert rates["conj"] == pytest.approx(n_wrong / 100)


def test_per_label_threshold_omits_rare_labels():
    gold, pred = _label_corpus(99, wrong_every=5)
    rates = per_label_error_rates(gold, pred, min_gold=100)
    assert "conj" not in rates
    assert per_label_error_rates(gold, pred, min_gold=99)["conj"] > 0



@pytest.mark.parametrize("min_gold", [0, -5])
def test_per_label_rejects_min_gold_below_one_from_a_report_too(min_gold):
    tb = build_treebank([london_gold()])
    report = evaluate_treebanks(tb, tb)
    for rates in (
        lambda: per_label_error_rates(tb, tb, min_gold=min_gold),
        lambda: report.per_label_error_rates(min_gold),
    ):
        with pytest.raises(ValueError, match="min_gold must be >= 1"):
            rates()

def test_per_label_rate_mass_equals_las_errors():
    rng = random.Random(21)
    gold_sents = [random_valid_sentence(rng, f"g{i}") for i in range(40)]
    pred_sents = [corrupt_sentence(s, 0.35, rng) for s in gold_sents]
    gold, pred = build_treebank(gold_sents), build_treebank(pred_sents)
    rates = per_label_error_rates(gold, pred, min_gold=1)
    freq = {}
    wrong_total = 0
    for g, p in zip(gold.sentences, pred.sentences):
        for gt, pt in zip(g.tokens, p.tokens):
            freq[gt.deprel] = freq.get(gt.deprel, 0) + 1
            wrong_total += gt.head != pt.head or gt.deprel != pt.deprel
    mass = sum(rates[label] * freq[label] for label in rates)
    assert mass == pytest.approx(wrong_total)
    assert all(0.0 <= r <= 1.0 for r in rates.values())


def test_confusion_identical_is_diagonal():
    tb = build_treebank([london_gold()])
    matrix = confusion(tb, tb, ConfusionScope.LABEL_ONLY)
    off_diag = sum(map(sum, matrix.counts)) - np.trace(matrix.counts)
    assert off_diag == 0
    gold_freq = {}
    for tok in london_gold().tokens:
        gold_freq[tok.deprel] = gold_freq.get(tok.deprel, 0) + 1
    for label, count in gold_freq.items():
        i = matrix.labels.index(label)
        assert matrix.counts[i][i] == count


def test_confusion_counts_vocative_as_nsubj_cell():
    gold = build_treebank([build_sentence("s", [
        ("Thomas", "Thomas", "PROPN", 2, "vocative"),
        ("look", "look", "VERB", 0, "root"), P(2)])])
    pred = build_treebank([build_sentence("s", [
        ("Thomas", "Thomas", "PROPN", 2, "nsubj"),
        ("look", "look", "VERB", 0, "root"), P(2)])])
    matrix = confusion(gold, pred)
    g = matrix.labels.index("vocative")
    p = matrix.labels.index("nsubj")
    assert matrix.counts[g][p] == 1


def test_confusion_row_sums_equal_gold_frequencies():
    rng = random.Random(17)
    gold_sents = [random_valid_sentence(rng, f"g{i}") for i in range(25)]
    pred_sents = [corrupt_sentence(s, 0.4, rng) for s in gold_sents]
    gold, pred = build_treebank(gold_sents), build_treebank(pred_sents)
    matrix = confusion(gold, pred, ConfusionScope.LABEL_ONLY)
    freq = {}
    for s in gold.sentences:
        for t in s.tokens:
            freq[t.deprel] = freq.get(t.deprel, 0) + 1
    for i, label in enumerate(matrix.labels):
        assert sum(matrix.counts[i]) == freq.get(label, 0)


def test_confusion_las_scope_restricts_to_errors():
    tb = build_treebank([london_gold()])
    matrix = confusion(tb, tb, ConfusionScope.LAS_ERRORS)
    assert sum(map(sum, matrix.counts)) == 0


def test_row_normalized_rows_sum_to_one():
    rng = random.Random(19)
    gold_sents = [random_valid_sentence(rng, f"g{i}") for i in range(20)]
    pred_sents = [corrupt_sentence(s, 0.3, rng) for s in gold_sents]
    matrix = confusion(
        build_treebank(gold_sents), build_treebank(pred_sents)
    ).row_normalized()
    sums = map(sum, matrix.counts)
    for s in sums:
        assert s == pytest.approx(1.0, abs=1e-9) or s == 0.0


def test_confusion_delta():
    rng = random.Random(23)
    gold_sents = [random_valid_sentence(rng, f"g{i}") for i in range(20)]
    pred_a = [corrupt_sentence(s, 0.4, rng) for s in gold_sents]
    pred_b = [corrupt_sentence(s, 0.1, rng) for s in gold_sents]
    gold = build_treebank(gold_sents)
    a = confusion(gold, build_treebank(pred_a)).row_normalized()
    b = confusion(gold, build_treebank(pred_b)).row_normalized()
    zero = confusion_delta(a, a)
    assert np.allclose(zero.values, 0.0)
    delta = confusion_delta(a, b)
    assert set(delta.labels) == set(a.labels) | set(b.labels)
    anti = confusion_delta(b, a)
    assert np.allclose(delta.values, np.negative(anti.values))


def test_confusion_delta_needs_row_normalized_matrices():
    tb = build_treebank([london_gold()])
    raw = confusion(tb, build_treebank([london_pred()]))
    shares = raw.row_normalized()
    with pytest.raises(ValueError, match="matrix a must be row-normalized"):
        confusion_delta(raw, shares)
    with pytest.raises(ValueError, match="matrix b must be row-normalized"):
        confusion_delta(shares, raw)


def test_evaluate_treebanks_sets_tag_accuracy(corpus_path):
    from cait.conllu import read_conllu

    tb = read_conllu(corpus_path)
    report = evaluate_treebanks(tb, tb)
    assert report.las == 100.0
    assert report.upos_acc == 100.0
    assert report.xpos_acc == 100.0
