"""Scoring predicted trees against gold: attachment scores, exact match,
slices, per-label error rates, confusion matrices and the paired t-test.
"""

import random

from cait.conllu import Sentence, Token, Treebank
from cait.evaluation import (
    ConfusionScope,
    confusion,
    confusion_delta,
    evaluate_treebanks,
    paired_ttest,
    per_label_error_rates,
    score_sentence,
)


def sentence(sent_id, rows):
    tokens = [
        Token(id=i, form=f, lemma=f, upos=u, head=h, deprel=d)
        for i, (f, u, h, d) in enumerate(rows, 1)
    ]
    return Sentence(sent_id=sent_id, tokens=tokens)


gold = sentence("g", [
    ("the", "DET", 2, "det"),
    ("dog", "NOUN", 3, "nsubj"),
    ("sees", "VERB", 0, "root"),
    ("it", "PRON", 3, "obj"),
    (".", "PUNCT", 3, "punct"),
])
pred = sentence("g", [
    ("the", "DET", 2, "det"),
    ("dog", "NOUN", 3, "nsubj"),
    ("sees", "VERB", 0, "root"),
    ("it", "PRON", 3, "iobj"),      # wrong label
    (".", "PUNCT", 2, "punct"),     # wrong head
])

score = score_sentence(gold, pred)
print(f"scored {score.n_scored} tokens:",
      f"{score.n_head_correct} heads ok, {score.n_las_correct} labels+heads ok")

report = evaluate_treebanks(Treebank([gold]), Treebank([pred]))
print(f"LAS {report.las:.2f}  UAS {report.uas:.2f}  "
      f"EM {report.em:.2f}  UEM {report.uem:.2f}")

# Per-label error rates (errors normalized by gold label frequency). The
# threshold keeps rare labels out; here everything is rare, so use 1.
rates = per_label_error_rates(Treebank([gold]), Treebank([pred]), min_gold=1)
for label, rate in rates.items():
    print(f"error rate {label:8s} {rate:.2f}")

# Label confusion over all tokens, then row-normalized.
matrix = confusion(Treebank([gold]), Treebank([pred]), ConfusionScope.LABEL_ONLY)
print("confusion labels:", matrix.labels)
for label, row in zip(matrix.labels, matrix.counts):
    print(f"{label:8s}", row)

# Delta between two row-normalized matrices shows where one system errs
# more than another (here: against itself, so all zeros).
norm = matrix.row_normalized()
delta = confusion_delta(norm, norm)
print("self-delta is zero:", all(v == 0 for row in delta.values for v in row))

# Paired t-test over per-sentence scores. With real experiments these are
# per-sentence LAS values for two parsers over the same test set.
rng = random.Random(0)
system_a = [90 + rng.uniform(-5, 5) for _ in range(50)]
system_b = [s - rng.uniform(0, 3) for s in system_a]
result = paired_ttest(system_a, system_b)
print(f"t = {result.t_stat:.3f}, df = {result.df}, p = {result.p_value:.2e}")
