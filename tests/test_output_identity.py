"""Byte identity of the evaluation and construction-accuracy outputs.

The digests were recorded with the numpy implementation of the deprel and
construction tables; the plain-Python counting must reproduce them byte
for byte: ``eval --json --tsv --baseline`` in both ``--confusion`` scopes
(stdout, stderr, exit code and both files) and ``tag-cxn --gold`` with and
without ``--out``. ``cxn_accuracy`` must still hand out the same 10x10
int counts and the same per-category recalls. ``case-study``, ``validate``
and ``tag-cxn`` on files with an untaggable sentence or a late repeated
``sent_id`` keep the digests recorded before they streamed their input.
``lint --tsv - --fix -`` and ``eval --json - --tsv -`` keep the order of
their two outputs on stdout, as recorded before output was spooled.
"""

import hashlib
import json
import random

import pytest

from cait.cli import main
from cait.conllu import Treebank, read_conllu, write_conllu
from cait.cxntag import CXN_LABEL_ORDER, CxnLabel, cxn_accuracy, tag_treebank
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
    treebank = read_conllu(paths["gold"])
    tagged, _ = tag_treebank(treebank)
    gold = {
        sid: CxnLabel(label)
        for sid, label in (
            line.split("\t")
            for line in paths["labels"].read_text(encoding="utf-8").splitlines()
        )
    }
    speakers = {s.sent_id: s.speaker_role for s in treebank.sentences}
    report = cxn_accuracy(tagged, gold, speakers)
    return {
        "cell": {type(v) for row in report.confusion for v in row},
        "shape": [len(row) for row in report.confusion],
        "confusion": _sha(json.dumps(report.confusion)),
        "per_category": _sha(repr(
            [(label.value, float(v)) for label, v in report.per_category.items()]
        )),
    }


EXPECTED_CXN = {
    "corpus": {"cell": {int}, "shape": [10] * 10,
               "confusion": "55a47c40a237e410", "per_category": "da0c855262d50d4c"},
    "synth": {"cell": {int}, "shape": [10] * 10,
              "confusion": "e2e730f3632259dc", "per_category": "2e4c782d7256177e"},
}


def test_cxn_accuracy_matrix_and_recalls_are_unchanged(inputs):
    assert cxn_matrix_digests(inputs) == EXPECTED_CXN[inputs["name"]]


@pytest.fixture(params=["corpus", "synth"])
def tagging_inputs(request, tmp_path, corpus_path):
    """A treebank, the same with the first token of its fourth sentence
    left without UPOS (the UD backend cannot tag it), and the same with its
    first sentence repeated at the end (a strict read fails there)."""
    if request.param == "corpus":
        clean = corpus_path
    else:
        clean = tmp_path / "clean.conllu"
        write_conllu(childes_treebank(300, seed=43, with_ages=True), clean)
    paths = {"name": request.param, "clean": clean}
    tb = read_conllu(clean)
    tb.sentences[3].tokens[0].upos = "_"
    paths["untaggable"] = tmp_path / "untaggable.conllu"
    write_conllu(tb, paths["untaggable"])
    tb = read_conllu(clean)
    paths["late-duplicate"] = tmp_path / "late-duplicate.conllu"
    write_conllu(Treebank(tb.sentences + tb.sentences[:1]), paths["late-duplicate"])
    return paths


def tagging_digests(capsys, tmp_path, paths) -> dict[str, str]:
    out = tmp_path / "out.csv"
    digests = {}
    for name in ("clean", "untaggable", "late-duplicate"):
        data = paths[name]
        digests[f"validate-{name}"] = _run(capsys, "validate", "--input", data)
        for backend in ("ud", "pos"):
            tag = ("tag-cxn", "--input", data, "--backend", backend)
            digests[f"tag-cxn-{backend}-{name}"] = _run(capsys, *tag)
            case = ("case-study", "--input", data, "--backend", backend)
            digests[f"case-study-{backend}-{name}"] = _run(capsys, *case)
            digests[f"case-study-{backend}-nonclausal-{name}"] = _run(
                capsys, *case, "--include-nonclausal"
            )
        if out.exists():
            out.unlink()
        digests[f"case-study-out-{name}"] = _run(
            capsys, "case-study", "--input", data, "--out", out, "--width", "6"
        )
        digests[f"case-study-out-{name}.csv"] = (
            _sha(out.read_bytes()) if out.exists() else None
        )
    return digests


# Recorded before tag-cxn and case-study streamed their input.
EXPECTED_TAGGING = {
    "corpus": {
        "validate-clean": "ca0b064e9b8f50aa",
        "tag-cxn-ud-clean": "217007c8d0a27f5f",
        "case-study-ud-clean": "3e754284782268a1",
        "case-study-ud-nonclausal-clean": "58a9724a0c99b4d5",
        "tag-cxn-pos-clean": "9d57bb78d2a1c721",
        "case-study-pos-clean": "553c4ba8f4088828",
        "case-study-pos-nonclausal-clean": "8386e0935c56519d",
        "case-study-out-clean": "b0efbbc43054beee",
        "case-study-out-clean.csv": "1a6faa765b96deea",
        "validate-untaggable": "ca0b064e9b8f50aa",
        "tag-cxn-ud-untaggable": "4d20adcbcf8be76a",
        "case-study-ud-untaggable": "8f63934653263808",
        "case-study-ud-nonclausal-untaggable": "9ff2a4d54ebdf0a9",
        "tag-cxn-pos-untaggable": "9d57bb78d2a1c721",
        "case-study-pos-untaggable": "553c4ba8f4088828",
        "case-study-pos-nonclausal-untaggable": "8386e0935c56519d",
        "case-study-out-untaggable": "da3a85538af94ebd",
        "case-study-out-untaggable.csv": "1a6faa765b96deea",
        "validate-late-duplicate": "4cd8f4987b9e0066",
        "tag-cxn-ud-late-duplicate": "df68a24cf6c067a5",
        "case-study-ud-late-duplicate": "df68a24cf6c067a5",
        "case-study-ud-nonclausal-late-duplicate": "df68a24cf6c067a5",
        "tag-cxn-pos-late-duplicate": "df68a24cf6c067a5",
        "case-study-pos-late-duplicate": "df68a24cf6c067a5",
        "case-study-pos-nonclausal-late-duplicate": "df68a24cf6c067a5",
        "case-study-out-late-duplicate": "df68a24cf6c067a5",
        "case-study-out-late-duplicate.csv": None,
    },
    "synth": {
        "validate-clean": "f29d4bab696014c6",
        "tag-cxn-ud-clean": "46984547ce2372d9",
        "case-study-ud-clean": "01b7fd00ad926ebc",
        "case-study-ud-nonclausal-clean": "b6424759dabbb24b",
        "tag-cxn-pos-clean": "aa01655309d760bd",
        "case-study-pos-clean": "af14f6e1b9bfb63f",
        "case-study-pos-nonclausal-clean": "24b4125a937ff378",
        "case-study-out-clean": "b0efbbc43054beee",
        "case-study-out-clean.csv": "cfac90f0c3a31e98",
        "validate-untaggable": "f29d4bab696014c6",
        "tag-cxn-ud-untaggable": "8f937bd7c0aa5414",
        "case-study-ud-untaggable": "69576b9e00b776d9",
        "case-study-ud-nonclausal-untaggable": "5d786ac6a7a73006",
        "tag-cxn-pos-untaggable": "aa01655309d760bd",
        "case-study-pos-untaggable": "af14f6e1b9bfb63f",
        "case-study-pos-nonclausal-untaggable": "24b4125a937ff378",
        "case-study-out-untaggable": "ed5eea02e080bb7e",
        "case-study-out-untaggable.csv": "3ed1e1c0e9ea13e0",
        "validate-late-duplicate": "b9faea98abfe8a05",
        "tag-cxn-ud-late-duplicate": "1e9d728d066ced06",
        "case-study-ud-late-duplicate": "1e9d728d066ced06",
        "case-study-ud-nonclausal-late-duplicate": "1e9d728d066ced06",
        "tag-cxn-pos-late-duplicate": "1e9d728d066ced06",
        "case-study-pos-late-duplicate": "1e9d728d066ced06",
        "case-study-pos-nonclausal-late-duplicate": "1e9d728d066ced06",
        "case-study-out-late-duplicate": "1e9d728d066ced06",
        "case-study-out-late-duplicate.csv": None,
    },
}


def test_case_study_validate_and_tag_cxn_outputs_are_byte_identical(
    capsys, tmp_path, tagging_inputs
):
    digests = tagging_digests(capsys, tmp_path, tagging_inputs)
    assert digests == EXPECTED_TAGGING[tagging_inputs["name"]]


def two_outputs_on_stdout(capsys, paths) -> dict[str, str]:
    """Commands whose two outputs both go to stdout, in the order written."""
    lint = ("lint", "--input", paths["pred"], "--tsv", "-", "--fix", "-")
    evaluate = ("eval", "--gold", paths["gold"], "--pred", paths["pred"],
                "--baseline", paths["base"], "--json", "-", "--tsv", "-")
    return {"lint": _run(capsys, *lint), "eval": _run(capsys, *evaluate)}


# Recorded while every command still held its output in lists.
EXPECTED_TWO_ON_STDOUT = {
    "corpus": {"lint": "0fc524f3252df03a", "eval": "9a2bc57ba16ffb3d"},
    "synth": {"lint": "e81cdb013b302068", "eval": "2c5b39fcf0439535"},
}


def test_two_outputs_on_stdout_keep_their_order(capsys, inputs):
    digests = two_outputs_on_stdout(capsys, inputs)
    assert digests == EXPECTED_TWO_ON_STDOUT[inputs["name"]]
