"""The benchmark's workloads: seeded inputs, the ``cait`` steps a user
would run on them, and the checks of every output.

Each workload writes its inputs into a work directory at construction,
exposes ``steps`` and ``inputs`` (provenance), and checks the outputs of
one pass with ``check``.  All paths in the steps are relative to the work
directory.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import corpus
from checks import Checker, is_valid_tree, read_blocks
from steps import Step, run_process

# Every step any workload runs; a workload reports 0 for the others.
STEP_NAMES = ("validate", "normalize", "lint", "tag-cxn-ud", "tag-cxn-pos", "case-study",
              "eval", "train-parser", "train-tagger", "parse", "tag")
_CDS_CODES = {"MOT", "FAT", "INV", "ADU"}
_NONCLAUSAL = {"FOR", "FRA", "X"}
_LABELS = {"FOR", "FRA", "QWH", "QYN", "COP", "IMP", "SPI", "SPT", "COM", "X"}
_LINT_FIXES = {  # template: (token id, rule, deprel, suggestion)
    "poss-det": (1, "POSS_AS_DET", "det", "nmod:poss"),
    "nn-nmod": (4, "NN_AS_NMOD", "nmod", "compound"),
}


def _lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def _tokens(utterances) -> int:
    return sum(len(u.tokens) for u in utterances)


def _same_words(out_rows, in_tokens) -> bool:
    return [r[1] for r in out_rows] == [t.form for t in in_tokens]


def _count_scores(gold, pred) -> tuple[int, int, int]:
    """(tokens, head-correct, head-and-label-correct), counted token by
    token; ``pred`` holds one list of (head, deprel) strings per sentence."""
    total = heads = labelled = 0
    for utt, arcs in zip(gold, pred):
        for tok, (head, deprel) in zip(utt.tokens, arcs):
            total += 1
            if str(tok.head) == head:
                heads += 1
                labelled += tok.deprel == deprel
    return total, heads, labelled


def _arcs(rows) -> list[tuple[str, str]]:
    return [(r[6], r[7]) for r in rows]


class Workload:
    long_tokens = 80  # parse calls on at least this many tokens count as long
    eval_pairs = 0
    model_bytes = 0
    parse_invalid_ratio = 0.0

    def __init__(self, work: Path):
        self.work = work
        self.inputs: dict[str, dict] = {}
        self._fired: dict[str, Counter] = {"ud": Counter(), "pos": Counter()}

    def write(self, name: str, utterances) -> int:
        size = corpus.write_corpus(self.work / name, utterances)
        tokens = _tokens(utterances)
        self.inputs[name] = {"sentences": len(utterances), "tokens": tokens,
                             "bytes": size}
        return tokens

    def fired_rules(self, backend: str) -> Counter:
        return self._fired[backend]

    def _check_tags(self, checker: Checker, step: str, path: Path, utterances,
                    backend: str, expected=None) -> None:
        """One row per input sentence, in order, with a known label; with
        ``expected`` (sent_id -> (label, rule)) the exact label and rule."""
        rows = [line.split("\t") for line in _lines(path)]
        self._fired[backend] = Counter()
        checker.check(len(rows) == len(utterances),
                      f"{step}: {len(rows)} rows for {len(utterances)} sentences")
        for utt, row in zip(utterances, rows):
            ok = (len(row) == 4 and row[0] == utt.sent_id and row[1] in _LABELS
                  and row[3] == backend)
            if ok and expected is not None:
                ok = (row[1], row[2]) == tuple(map(str, expected(utt)))
            checker.check(ok, f"{step}: row {row} for {utt.sent_id}")
            if len(row) == 4 and row[2].isdigit():
                self._fired[backend][int(row[2])] += 1
        errors = [line for line in _lines(self.work / f"{step}.stderr")
                  if line.startswith("error\t")]
        checker.check(not errors, f"{step}: {len(errors)} error lines")


# ---------------------------------------------------------------------------
# childes-annotate
# ---------------------------------------------------------------------------

class ChildesAnnotate(Workload):
    """The paper's main use: strict reads, construction tagging, lint,
    age curves and evaluation on a CHILDES-style corpus."""

    N = 5000

    def __init__(self, seed: int, work: Path, env: dict, jobs: int):
        super().__init__(work)
        self.corpus = corpus.childes_corpus(self.N, seed)
        self.pred = corpus.predictions(self.corpus, seed + 1, 0.10, 0.10)
        self.base = corpus.predictions(self.corpus, seed + 2, 0.20, 0.15)
        t = self.write("corpus.conllu", self.corpus)
        self.write("pred.conllu", self.pred)
        self.write("base.conllu", self.base)
        corpus.write_gold_labels(work / "gold.tsv", self.corpus)
        self.eval_pairs = self.N
        self.steps = [
            Step("validate", ["validate", "--input", "corpus.conllu"], t),
            Step("lint", ["lint", "--input", "corpus.conllu", "--tsv", "lint.tsv",
                          "--fix", "fixed.conllu"], t, ["lint.tsv", "fixed.conllu"]),
            Step("tag-cxn-ud", ["tag-cxn", "--input", "corpus.conllu", "--backend", "ud",
                                "--jobs", str(jobs), "--gold", "gold.tsv",
                                "--out", "ud.tsv"], t, ["ud.tsv"]),
            Step("tag-cxn-pos", ["tag-cxn", "--input", "corpus.conllu", "--backend", "pos",
                                 "--jobs", "1", "--out", "pos.tsv"], t, ["pos.tsv"]),
            Step("case-study", ["case-study", "--input", "corpus.conllu", "--jobs", "1",
                                "--out", "curves.csv"], t, ["curves.csv"]),
            Step("eval", ["eval", "--gold", "corpus.conllu", "--pred", "pred.conllu",
                          "--baseline", "base.conllu", "--json", "eval.json",
                          "--tsv", "confusion.tsv"], 3 * t, ["eval.json", "confusion.tsv"]),
        ]

    def check(self, checker: Checker) -> None:
        work = self.work
        n = len(self.corpus)
        checker.check(_lines(work / "validate.stdout") == [f"{n} sentences, 0 with violations"],
                      "validate: summary line")
        self._check_lint(work, checker)
        ud = {u.sent_id: corpus.expected_tag(u.template, "ud") for u in self.corpus}
        self._check_tags(checker, "tag-cxn-ud", work / "ud.tsv", self.corpus, "ud",
                         lambda u: ud[u.sent_id])
        hits = sum(ud[u.sent_id][0] == u.gold for u in self.corpus)
        checker.check(f"accuracy\t{100.0 * hits / n:.2f}\t({n} utterances)"
                      in _lines(work / "tag-cxn-ud.stdout"), "tag-cxn-ud: --gold accuracy")
        self._check_tags(checker, "tag-cxn-pos", work / "pos.tsv", self.corpus, "pos",
                         lambda u: corpus.expected_tag(u.template, "pos"))
        self._check_curves(work, checker, ud)
        self._check_eval(work, checker)

    def _check_lint(self, work: Path, checker: Checker) -> None:
        expected = set()
        for u in self.corpus:
            fix = _LINT_FIXES.get(u.template)
            if fix:
                expected.add((u.sent_id, str(fix[0]), fix[1], fix[2], fix[3]))
        rows = [tuple(line.split("\t")[:5]) for line in _lines(work / "lint.tsv")[1:]]
        checker.check(len(rows) == len(set(rows)), "lint: duplicate findings")
        found = set(rows)
        for row in expected:
            checker.check(row in found, f"lint: missing finding {row}")
        checker.check(found <= expected, f"lint: {len(found - expected)} unexpected findings")

        fixed_text = corpus.conllu_text([self._fixed(u) for u in self.corpus])
        want = fixed_text.split("\n\n")
        got = (work / "fixed.conllu").read_text(encoding="utf-8").split("\n\n")
        checker.check(len(got) == len(want), "lint --fix: sentence count")
        for u, a, b in zip(self.corpus, want, got):
            checker.check(a == b, f"lint --fix: {u.sent_id} differs")

    @staticmethod
    def _fixed(u):
        fix = _LINT_FIXES.get(u.template)
        if not fix:
            return u
        fixed = corpus.copy_utterance(u)
        fixed.tokens[fix[0] - 1].deprel = fix[3]
        return fixed

    def _check_curves(self, work: Path, checker: Checker, ud) -> None:
        # Clausal view, three-month bins, CS and CDS speakers only.
        cells: dict[tuple[int, str], Counter] = {}
        for u in self.corpus:
            role = "CS" if u.speaker == "CHI" else "CDS" if u.speaker in _CDS_CODES else None
            label = ud[u.sent_id][0]
            if role is None or u.age_months is None or label in _NONCLAUSAL:
                continue
            cells.setdefault((int(u.age_months // 3) * 3, role), Counter())[label] += 1
        lines = _lines(work / "curves.csv")
        checker.check(lines[:1] == ["bin_start,speaker,label,count,proportion,n_utterances"],
                      "case-study: header")
        got: dict[tuple[int, str], list] = {}
        for line in lines[1:]:
            b, speaker, label, count, prop, denom = line.split(",")
            got.setdefault((int(b), speaker), []).append(
                (label, int(count), float(prop), int(denom)))
        checker.check(set(got) == set(cells), "case-study: (bin, speaker) cells")
        for key, counts in sorted(cells.items()):
            rows = got.get(key, [])
            total = sum(counts.values())
            ok = (sorted((l, c, d) for l, c, _, d in rows)
                  == sorted((l, c, total) for l, c in counts.items())
                  and abs(sum(p for _, _, p, _ in rows) - 1.0) < 1e-4)
            checker.check(ok, f"case-study: cell {key}")

    def _check_eval(self, work: Path, checker: Checker) -> None:
        report = json.loads((work / "eval.json").read_text(encoding="utf-8"))
        total, heads, labelled = _count_scores(
            self.corpus, [[(str(t.head), t.deprel) for t in u.tokens] for u in self.pred])
        checker.check(abs(report["las"] - 100.0 * labelled / total) < 1e-9, "eval: LAS")
        checker.check(abs(report["uas"] - 100.0 * heads / total) < 1e-9, "eval: UAS")
        for name in ("las", "uas"):
            checker.check(report["ttest"][name]["n"] == len(self.corpus), f"eval: t-test {name} n")
        lines = _lines(work / "confusion.tsv")
        for line in lines[1:]:
            cells = [float(v) for v in line.split("\t")[1:]]
            checker.check(abs(sum(cells) - 1.0) < 1e-3 or sum(cells) == 0.0,
                          f"eval --tsv: row {line.split(chr(9))[0]} sum")


# ---------------------------------------------------------------------------
# baseline-train-parse
# ---------------------------------------------------------------------------

class BaselineTrainParse(Workload):
    """Train the baseline parser and tagger, then parse and tag held-out
    short sentences and long random trees, then score the parse."""

    TRAIN_CHILDES = 900
    TRAIN_FORMAL = 100
    HELDOUT = 1000
    LONG = ((80, 16), (320, 4))  # (length, count) of random held-out trees

    def __init__(self, seed: int, work: Path, env: dict, jobs: int):
        super().__init__(work)
        train = (corpus.childes_corpus(self.TRAIN_CHILDES, seed, "t")
                 + corpus.formal_corpus(self.TRAIN_FORMAL, seed))
        random.Random(seed).shuffle(train)
        self.heldout = corpus.childes_corpus(self.HELDOUT, seed + 1, "h")
        for length, count in self.LONG:
            self.heldout += corpus.random_trees(count, seed + length, length, f"r{length}-")
        t = self.write("train.conllu", train)
        h = self.write("heldout.conllu", self.heldout)
        self.eval_pairs = len(self.heldout)
        self.steps = [
            Step("train-parser", ["train", "--kind", "parser", "--input", "train.conllu",
                                  "--model", "parser.model", "--epochs", "5", "--seed", "0"],
                 t, ["parser.model"]),
            Step("train-tagger", ["train", "--kind", "tagger", "--input", "train.conllu",
                                  "--model", "tagger.model", "--epochs", "5", "--seed", "0"],
                 t, ["tagger.model"]),
            Step("parse", ["parse", "--input", "heldout.conllu", "--model", "parser.model",
                           "--out", "parsed.conllu"], h, ["parsed.conllu"]),
            Step("tag", ["tag", "--input", "heldout.conllu", "--model", "tagger.model",
                         "--out", "tagged.conllu"], h, ["tagged.conllu"]),
            Step("eval", ["eval", "--gold", "heldout.conllu", "--pred", "parsed.conllu",
                          "--json", "eval.json"], 2 * h, ["eval.json"]),
        ]

    def check(self, checker: Checker) -> None:
        work = self.work
        for kind in ("parser", "tagger"):
            model = work / f"{kind}.model"
            checker.check(_lines(model)[0].split("\t")[:2] == ["CAITB1", kind],
                          f"train {kind}: model header")
        self.model_bytes = sum((work / f"{k}.model").stat().st_size
                               for k in ("parser", "tagger"))
        parsed = read_blocks(work / "parsed.conllu")
        tagged = read_blocks(work / "tagged.conllu")
        for name, blocks in (("parse", parsed), ("tag", tagged)):
            checker.check(len(blocks) == len(self.heldout),
                          f"{name}: {len(blocks)} sentences for {len(self.heldout)}")
        invalid = 0
        for u, p, t in zip(self.heldout, parsed, tagged):
            valid = is_valid_tree(p.rows)
            invalid += not valid
            checker.check(valid and _same_words(p.rows, u.tokens),
                          f"parse: {u.sent_id} invalid or words changed")
            checker.check(is_valid_tree(t.rows) and _same_words(t.rows, u.tokens)
                          and _arcs(t.rows) == [(str(k.head), k.deprel) for k in u.tokens],
                          f"tag: {u.sent_id} changed more than UPOS")
        self.parse_invalid_ratio = invalid / max(1, len(self.heldout))
        report = json.loads((work / "eval.json").read_text(encoding="utf-8"))
        total, heads, labelled = _count_scores(self.heldout, [_arcs(b.rows) for b in parsed])
        checker.check(abs(report["las"] - 100.0 * labelled / total) < 1e-9, "eval: LAS")
        checker.check(abs(report["uas"] - 100.0 * heads / total) < 1e-9, "eval: UAS")


# ---------------------------------------------------------------------------
# repair
# ---------------------------------------------------------------------------

class Repair(Workload):
    """Lenient reads, repairs and large CoNLL-U writes on malformed trees."""

    N = 4000
    MODEL_SENTENCES = 300

    def __init__(self, seed: int, work: Path, env: dict, jobs: int):
        super().__init__(work)
        self.raw = corpus.malformed_corpus(self.N, seed)
        t = self.write("raw.conllu", self.raw)
        # The parser model is an input here, trained before timing starts on
        # the same sentences for every seed, so that only the raw file varies.
        self.write("model-train.conllu", corpus.childes_corpus(self.MODEL_SENTENCES, 0, "t"))
        r = run_process([sys.executable, "-m", "cait.cli", "train", "--kind", "parser",
                         "--input", "model-train.conllu", "--model", "parser.model",
                         "--epochs", "3", "--seed", "0"], work, env,
                        subprocess.DEVNULL, subprocess.DEVNULL)
        if r.code != 0:
            raise RuntimeError(f"training the repair workload's parser exited {r.code}")
        self.n_invalid = sum(not is_valid_tree(b.rows) for b in read_blocks(work / "raw.conllu"))
        self.steps = [
            Step("validate", ["validate", "--input", "raw.conllu"], t, exit_code=1),
            Step("normalize", ["normalize", "--input", "raw.conllu",
                               "--out", "normalized.conllu"], t, ["normalized.conllu"]),
            Step("parse", ["parse", "--input", "raw.conllu", "--model", "parser.model",
                           "--out", "parsed.conllu"], t, ["parsed.conllu"]),
            Step("tag-cxn-ud", ["tag-cxn", "--input", "normalized.conllu", "--backend", "ud",
                                "--jobs", "1", "--out", "tags.tsv"], t, ["tags.tsv"]),
        ]

    def check(self, checker: Checker) -> None:
        work = self.work
        n = len(self.raw)
        checker.check(_lines(work / "validate.stdout")
                      == [f"{n} sentences, {self.n_invalid} with violations"],
                      "validate: summary line")
        normalized = read_blocks(work / "normalized.conllu")
        parsed = read_blocks(work / "parsed.conllu")
        for name, blocks in (("normalize", normalized), ("parse", parsed)):
            checker.check(len(blocks) == n, f"{name}: {len(blocks)} sentences for {n}")
        invalid = 0
        for u, norm, p in zip(self.raw, normalized, parsed):
            checker.check(is_valid_tree(norm.rows) and _same_words(norm.rows, u.tokens),
                          f"normalize: {u.sent_id} invalid or words changed")
            checker.check(_same_words(p.rows, u.tokens), f"parse: {u.sent_id} words changed")
            valid = is_valid_tree(p.rows)
            invalid += not valid
            # The parser promises valid trees for any lenient input; on ids
            # that are not 1..n it breaks that promise (ROADMAP item 4).
            checker.check(valid, f"parse: {u.sent_id} output is not a valid tree",
                          known_defect=True)
        self.parse_invalid_ratio = invalid / max(1, n)
        self._check_tags(checker, "tag-cxn-ud", work / "tags.tsv", self.raw, "ud")


WORKLOADS = {
    "childes-annotate": ChildesAnnotate,
    "baseline-train-parse": BaselineTrainParse,
    "repair": Repair,
}
