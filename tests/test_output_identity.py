"""Byte identity of the evaluation and construction-accuracy outputs.

The digests were recorded with the numpy implementation of the deprel and
construction tables; the plain-Python counting must reproduce them byte
for byte: ``eval --json --tsv --baseline`` in both ``--confusion`` scopes
(stdout, stderr, exit code and both files) and ``tag-cxn --gold`` with and
without ``--out``. ``cxn_accuracy`` must still hand out the same int64
matrix and the same per-category recalls.
"""

import hashlib
import json
import random

import pytest

from cait.cli import main
from cait.conllu import read_conllu, write_conllu
from cait.cxntag import CXN_LABEL_ORDER, CxnLabel, cxn_accuracy, tag_conllu
from helpers import build_treebank
from synth import childes_treebank

DEPRELS = ["nsubj", "obj", "det", "advmod", "amod", "case", "obl", "nmod",
           "aux", "cop", "mark", "punct", "discourse", "vocative"]
UPOS = ["NOUN", "VERB", "PRON", "DET", "ADJ", "ADV", "ADP", "INTJ", "PUNCT"]


def _perturb(sentence, rate, rng):
    """Relabel, retag and re-head tokens at ``rate``, keeping a valid tree:
    only a token without dependents moves, so no cycle can form."""
    has_children = {t.head for t in sentence.tokens}
    tokens = []
    for t in sentence.tokens:
        changes = {}
        if t.head != 0 and t.id not in has_children and rng.random() < rate:
            changes["head"] = rng.choice([u.id for u in sentence.tokens if u is not t])
            has_children.add(changes["head"])
        if t.head != 0 and rng.random() < rate:
            changes["deprel"] = rng.choice(DEPRELS)
        if rng.random() < rate:
            changes["upos"] = rng.choice(UPOS)
        tokens.append(t.copy(**changes))
    sentence.tokens = tokens
    return sentence


@pytest.fixture(params=["corpus", "synth"])
def inputs(request, tmp_path, corpus_path):
    """Gold, prediction, baseline and gold construction labels."""
    if request.param == "corpus":
        gold = corpus_path
    else:
        gold = tmp_path / "gold.conllu"
        write_conllu(childes_treebank(300, seed=41, with_ages=True), gold)
    paths = {"name": request.param, "gold": gold}
    for name, rate, seed in (("pred", 0.15, 1), ("base", 0.3, 2)):
        rng = random.Random(seed)
        tb = read_conllu(gold)
        paths[name] = tmp_path / f"{name}.conllu"
        write_conllu(build_treebank(_perturb(s, rate, rng) for s in tb), paths[name])
    rng = random.Random(3)
    paths["labels"] = tmp_path / "labels.tsv"
    paths["labels"].write_text(
        "".join(
            f"{s.sent_id}\t{rng.choice(CXN_LABEL_ORDER).value}\n"
            for s in read_conllu(gold)
        ),
        encoding="utf-8",
    )
    return paths


def _sha(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:16]


def _run(capsys, *argv) -> str:
    """One digest of a command's exit code, stdout and stderr."""
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return _sha(f"{code}\0{captured.out}\0{captured.err}")


def output_digests(capsys, tmp_path, paths) -> dict[str, str]:
    out = tmp_path / "out"
    digests = {}
    for scope in ("label", "las"):
        common = ("eval", "--gold", paths["gold"], "--pred", paths["pred"],
                  "--baseline", paths["base"], "--confusion", scope,
                  "--tsv", out / "m.tsv")
        out.mkdir(exist_ok=True)
        digests[f"eval-{scope}"] = _run(capsys, *common, "--json", out / "r.json")
        digests[f"eval-{scope}.json"] = _sha((out / "r.json").read_bytes())
        digests[f"eval-{scope}.tsv"] = _sha((out / "m.tsv").read_bytes())
        digests[f"eval-{scope}-text"] = _run(capsys, *common)
    tag = ("tag-cxn", "--input", paths["gold"], "--gold", paths["labels"],
           "--jobs", "1")
    digests["tag-cxn-gold"] = _run(capsys, *tag)
    digests["tag-cxn-gold-out"] = _run(capsys, *tag, "--out", out / "tags.tsv")
    digests["tag-cxn-gold-out.tsv"] = _sha((out / "tags.tsv").read_bytes())
    return digests


EXPECTED = {
    "corpus": {
        "eval-label": "b0efbbc43054beee",
        "eval-label.json": "f3380fcdf7a2141f",
        "eval-label.tsv": "38070797ef047240",
        "eval-label-text": "6a8d2d25750a6e04",
        "eval-las": "b0efbbc43054beee",
        "eval-las.json": "f3380fcdf7a2141f",
        "eval-las.tsv": "95f947009401fa56",
        "eval-las-text": "6a8d2d25750a6e04",
        "tag-cxn-gold": "baf016e23dd7f796",
        "tag-cxn-gold-out": "6a3ab996dec9fa3f",
        "tag-cxn-gold-out.tsv": "6aea1c0c58b7fbde",
    },
    "synth": {
        "eval-label": "b0efbbc43054beee",
        "eval-label.json": "cecd3b48297dcbff",
        "eval-label.tsv": "ad64b1ee0d887b1f",
        "eval-label-text": "7dbf0e8757a0a1e1",
        "eval-las": "b0efbbc43054beee",
        "eval-las.json": "cecd3b48297dcbff",
        "eval-las.tsv": "0cfa453e43f6055c",
        "eval-las-text": "7dbf0e8757a0a1e1",
        "tag-cxn-gold": "ba892fabf7058d38",
        "tag-cxn-gold-out": "43fb842dee0996eb",
        "tag-cxn-gold-out.tsv": "cbd2fd863cbe3b20",
    },
}


def test_eval_and_tag_cxn_outputs_are_byte_identical(capsys, tmp_path, inputs):
    assert output_digests(capsys, tmp_path, inputs) == EXPECTED[inputs["name"]]


def cxn_matrix_digests(paths) -> dict[str, object]:
    results = tag_conllu(paths["gold"])
    tagged = [r.tagged for r in results if r.tagged is not None]
    gold = {
        sid: CxnLabel(label)
        for sid, label in (
            line.split("\t")
            for line in paths["labels"].read_text(encoding="utf-8").splitlines()
        )
    }
    speakers = {r.sent_id: r.speaker_role for r in results}
    report = cxn_accuracy(tagged, gold, speakers)
    return {
        "dtype": str(report.confusion.dtype),
        "shape": report.confusion.shape,
        "confusion": _sha(json.dumps(report.confusion.tolist())),
        "per_category": _sha(repr(
            [(label.value, float(v)) for label, v in report.per_category.items()]
        )),
    }


EXPECTED_CXN = {
    "corpus": {"dtype": "int64", "shape": (10, 10),
               "confusion": "55a47c40a237e410", "per_category": "da0c855262d50d4c"},
    "synth": {"dtype": "int64", "shape": (10, 10),
              "confusion": "e2e730f3632259dc", "per_category": "2e4c782d7256177e"},
}


def test_cxn_accuracy_matrix_and_recalls_are_unchanged(inputs):
    assert cxn_matrix_digests(inputs) == EXPECTED_CXN[inputs["name"]]
