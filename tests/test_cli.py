import gc
import io
import json
import logging
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import cait
from cait.cli import build_parser, main
from cait.conllu import Strictness, read_conllu, write_conllu
from cxn_fixture import UTTERANCES
from helpers import build_sentence, build_treebank
from synth import childes_treebank, random_malformed_sentence


@pytest.fixture
def fixture_conllu(tmp_path):
    tb = build_treebank(
        [build_sentence(sid, rows) for sid, _, rows in UTTERANCES]
    )
    path = tmp_path / "fixture.conllu"
    write_conllu(tb, path)
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_self_comparison_json(capsys, corpus_path):
    code, out, _ = run(
        capsys, "eval", "--gold", str(corpus_path), "--pred",
        str(corpus_path), "--json", "-",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["las"] == 100.0
    assert payload["uas"] == 100.0
    assert payload["em"] == 100.0
    assert list(payload)[:6] == ["las", "uas", "em", "uem", "upos_acc", "xpos_acc"]
    assert payload["ttest"] is None
    assert "CS" in payload["slices"]


def test_eval_human_output_two_decimals(capsys, corpus_path):
    code, out, _ = run(
        capsys, "eval", "--gold", str(corpus_path), "--pred", str(corpus_path),
    )
    assert code == 0
    assert "LAS  100.00" in out


def test_eval_with_baseline_ttest(capsys, corpus_path):
    code, out, _ = run(
        capsys, "eval", "--gold", str(corpus_path), "--pred",
        str(corpus_path), "--baseline", str(corpus_path), "--json", "-",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ttest"]["las"]["p_value"] == 1.0
    assert payload["ttest"]["uas"]["t_stat"] == 0.0


def test_eval_confusion_tsv(capsys, tmp_path, corpus_path):
    tsv = tmp_path / "conf.tsv"
    code, _, _ = run(
        capsys, "eval", "--gold", str(corpus_path), "--pred",
        str(corpus_path), "--tsv", str(tsv),
    )
    assert code == 0
    lines = tsv.read_text(encoding="utf-8").rstrip("\n").split("\n")
    header = lines[0].split("\t")
    assert header[0] == ""
    assert len(lines) == len(header)  # square with label column
    # self-comparison: diagonal 1.0000, cells carry 4 fractional digits
    first_row = lines[1].split("\t")
    assert first_row[1] == "1.0000"


@pytest.mark.parametrize(
    "flags", [("--gold", "--pred"), ("--pred", "--baseline"), ("--gold", "--baseline")]
)
def test_eval_two_stdin_inputs_is_usage_error(capsys, monkeypatch, corpus_path, flags):
    stdin = io.TextIOWrapper(io.BytesIO(corpus_path.read_bytes()))
    monkeypatch.setattr(sys, "stdin", stdin)
    paths = {"--gold": str(corpus_path), "--pred": str(corpus_path)}
    paths.update(dict.fromkeys(flags, "-"))
    code, out, err = run(capsys, "eval", *[a for item in paths.items() for a in item])
    assert code == 2
    assert out == ""
    assert err == "error: only one of --gold, --pred and --baseline can be '-'\n"
    assert stdin.buffer.read() == corpus_path.read_bytes()  # stdin left unread


def test_eval_missing_file_is_data_error(capsys, corpus_path):
    code, _, err = run(
        capsys, "eval", "--gold", str(corpus_path), "--pred", "/nope.conllu",
    )
    assert code == 1
    assert "no such file" in err


@pytest.mark.parametrize("bad", [
    b"1\ta\n",  # a format error
    b"# sent_id = a\n1\tb\t_\tX\t_\t_\t1\troot\t_\t_\n",  # a tree error
])
@pytest.mark.parametrize("where", ["--gold", "--pred", "--baseline"])
def test_a_failed_eval_closes_its_inputs(capsys, tmp_path, corpus_path, bad, where):
    bad_path = tmp_path / "bad.conllu"
    bad_path.write_bytes(bad)
    inputs = {"--gold": corpus_path, "--pred": corpus_path, "--baseline": corpus_path}
    inputs[where] = bad_path
    argv = [arg for flag, path in inputs.items() for arg in (flag, str(path))]
    # With the cyclic collector off, only reference counting closes a file.
    gc.collect()
    gc.disable()
    try:
        code, _, err = run(capsys, "eval", *argv)
        still_open = [
            obj.name for obj in gc.get_objects()
            if isinstance(obj, io.BufferedReader) and not obj.closed
            and obj.name in {str(corpus_path), str(bad_path)}
        ]
    finally:
        gc.enable()
    assert code == 1 and err.startswith("error:")
    assert still_open == []


def test_unknown_flag_is_usage_error(capsys, corpus_path):
    code, _, _ = run(
        capsys, "eval", "--gold", str(corpus_path), "--pred",
        str(corpus_path), "--bogus",
    )
    assert code == 2


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_eval_min_gold_below_one_is_usage_error(capsys, corpus_path):
    code, _, err = run(
        capsys, "eval", "--gold", str(corpus_path), "--pred",
        str(corpus_path), "--min-gold", "0",
    )
    assert code == 2
    assert "--min-gold: invalid positive int value: '0'" in err


def test_eval_aligns_each_pair_once(capsys, monkeypatch, tmp_path, corpus_path):
    from cait import evaluation

    gold = read_conllu(corpus_path)
    text = corpus_path.read_text(encoding="utf-8")
    paths = {}
    for name in ("pred", "base"):
        paths[name] = tmp_path / f"{name}.conllu"
        paths[name].write_text(
            text.replace("# sent_id = ", f"# sent_id = {name}-"), encoding="utf-8"
        )
    aligned = []
    align = evaluation.align

    def counting_align(g, p):
        aligned.append((g.sent_id, p.sent_id))
        return align(g, p)

    monkeypatch.setattr(evaluation, "align", counting_align)
    code, _, _ = run(
        capsys, "eval", "--gold", str(corpus_path), "--pred", str(paths["pred"]),
        "--baseline", str(paths["base"]), "--tsv", str(tmp_path / "conf.tsv"),
    )
    assert code == 0
    # Gold is read once: each gold sentence meets pred, then base.
    assert aligned == [
        (s.sent_id, f"{name}-{s.sent_id}")
        for s in gold.sentences
        for name in ("pred", "base")
    ]


def test_byte_identical_json_across_invocations(capsys, corpus_path):
    _, out_a, _ = run(
        capsys, "eval", "--gold", str(corpus_path), "--pred",
        str(corpus_path), "--json", "-",
    )
    _, out_b, _ = run(
        capsys, "eval", "--gold", str(corpus_path), "--pred",
        str(corpus_path), "--json", "-",
    )
    assert out_a == out_b


# ---------------------------------------------------------------------------
# tag-cxn
# ---------------------------------------------------------------------------

def test_tag_cxn_fixture_labels(capsys, fixture_conllu):
    code, out, _ = run(
        capsys, "tag-cxn", "--input", str(fixture_conllu), "--backend", "ud",
        "--jobs", "1",
    )
    assert code == 0
    rows = [line.split("\t") for line in out.strip().split("\n")]
    assert len(rows) == 100
    by_id = {r[0]: r for r in rows}
    assert by_id["for-01"][1] == "FOR"
    assert by_id["qwh-01"][1] == "QWH"
    assert by_id["spi-07"][1] == "SPI"
    assert by_id["for-01"][2] == "1"
    assert by_id["for-01"][3] == "ud"


def test_tag_cxn_jobs_determinism(capsys, fixture_conllu):
    _, out_1, _ = run(
        capsys, "tag-cxn", "--input", str(fixture_conllu), "--jobs", "1",
    )
    _, out_8, _ = run(
        capsys, "tag-cxn", "--input", str(fixture_conllu), "--jobs", "8",
    )
    assert out_1 == out_8


def test_tag_cxn_gold_accuracy_report(capsys, tmp_path, fixture_conllu):
    gold = tmp_path / "gold.tsv"
    gold.write_text(
        "".join(f"{sid}\t{label}\n" for sid, label, _ in UTTERANCES),
        encoding="utf-8",
    )
    # Tags on stdout: the accuracy summary must not corrupt them.
    code, out, err = run(
        capsys, "tag-cxn", "--input", str(fixture_conllu), "--gold",
        str(gold), "--jobs", "1",
    )
    assert code == 0
    assert "accuracy\t100.00" in err
    assert "accuracy" not in out
    # Tags redirected to a file: the summary takes stdout.
    tags = tmp_path / "tags.tsv"
    code, out, err = run(
        capsys, "tag-cxn", "--input", str(fixture_conllu), "--gold",
        str(gold), "--out", str(tags), "--jobs", "1",
    )
    assert code == 0
    assert "accuracy\t100.00" in out
    assert "speaker" in out or True  # fixture has no CS/CDS metadata
    assert len(tags.read_text(encoding="utf-8").strip().split("\n")) == 100


def test_tag_cxn_gold_missing_sent_id_prints_the_message(
    capsys, tmp_path, fixture_conllu
):
    gold = tmp_path / "gold.tsv"
    gold.write_text(
        "".join(f"{sid}\t{label}\n" for sid, label, _ in UTTERANCES[1:]),
        encoding="utf-8",
    )
    code, _, err = run(
        capsys, "tag-cxn", "--input", str(fixture_conllu), "--gold",
        str(gold), "--jobs", "1",
    )
    assert code == 1
    assert err == f"error: sent_id {UTTERANCES[0][0]!r} missing from gold labels\n"


def test_tag_cxn_gold_bad_row_names_file_and_line(capsys, tmp_path, fixture_conllu):
    gold = tmp_path / "gold.tsv"
    gold.write_text("# header\nu1\tSPI\n\nu2\tNOPE\n", encoding="utf-8")
    code, _, err = run(
        capsys, "tag-cxn", "--input", str(fixture_conllu), "--gold",
        str(gold), "--jobs", "1",
    )
    assert code == 1
    assert err == f"error: {gold}: line 4: 'NOPE' is not a construction label\n"


def test_tag_cxn_gold_repeated_sent_id_is_an_error(capsys, tmp_path, fixture_conllu):
    gold = tmp_path / "gold.tsv"
    sid = UTTERANCES[0][0]
    gold.write_text(f"{sid}\tFOR\n# again\n{sid}\tSPT\n", encoding="utf-8")
    tags = tmp_path / "tags.tsv"
    code, out, err = run(
        capsys, "tag-cxn", "--input", str(fixture_conllu), "--gold",
        str(gold), "--out", str(tags), "--jobs", "1",
    )
    assert (code, out) == (1, "")
    assert err == f"error: {gold}: line 3: {sid!r} repeats line 1\n"
    assert not tags.exists()


def test_tag_cxn_custom_lexicon_flag_beats_env(
    capsys, tmp_path, fixture_conllu, monkeypatch
):
    env_lex = tmp_path / "env.txt"
    env_lex.write_text("zzz\n", encoding="utf-8")
    flag_lex = tmp_path / "flag.txt"
    flag_lex.write_text("hello\nhi\nbye bye\nthank you\noops\nuh oh\ngood night\nthere you go\n", encoding="utf-8")
    monkeypatch.setenv("CAIT_LEXICON", str(env_lex))
    _, out, _ = run(
        capsys, "tag-cxn", "--input", str(fixture_conllu), "--lexicon",
        str(flag_lex), "--jobs", "1",
    )
    by_id = {r.split("\t")[0]: r.split("\t")[1] for r in out.strip().split("\n")}
    assert by_id["for-01"] == "FOR"
    # With only the env lexicon (no flag), "hello" is not formulaic.
    _, out_env, _ = run(
        capsys, "tag-cxn", "--input", str(fixture_conllu), "--jobs", "1",
    )
    by_id_env = {
        r.split("\t")[0]: r.split("\t")[1] for r in out_env.strip().split("\n")
    }
    assert by_id_env["for-01"] == "FRA"


@pytest.mark.parametrize("content", ["", "# only a comment\n\n"])
@pytest.mark.parametrize("via", ["flag", "env"])
def test_empty_lexicon_names_the_file(
    capsys, tmp_path, fixture_conllu, monkeypatch, content, via
):
    lexicon = tmp_path / "lexicon.txt"
    lexicon.write_text(content, encoding="utf-8")
    argv = ["tag-cxn", "--input", str(fixture_conllu)]
    if via == "flag":
        argv += ["--lexicon", str(lexicon)]
    else:
        monkeypatch.setenv("CAIT_LEXICON", str(lexicon))
    assert run(capsys, *argv) == (
        1, "", f"error: {lexicon}: formulaic lexicon must not be empty\n"
    )


def test_tag_cxn_pos_backend(capsys, fixture_conllu):
    code, out, _ = run(
        capsys, "tag-cxn", "--input", str(fixture_conllu), "--backend", "pos",
        "--jobs", "1",
    )
    assert code == 0
    assert all(line.split("\t")[3] == "pos" for line in out.strip().split("\n"))


# ---------------------------------------------------------------------------
# lint
# ---------------------------------------------------------------------------

def _lint_corpus(tmp_path):
    rows_bad = [
        ("his", "his", "PRON", 2, "det", {"Poss": "Yes"}),
        ("coffee", "coffee", "NOUN", 0, "root"),
        (".", ".", "PUNCT", 2, "punct"),
    ]
    rows_good = [
        ("grape", "grape", "NOUN", 2, "nmod"),
        ("juice", "juice", "NOUN", 0, "root"),
        (".", ".", "PUNCT", 2, "punct"),
    ]
    tb = build_treebank([
        build_sentence("p1", rows_bad),
        build_sentence("n1", rows_good),
    ])
    path = tmp_path / "lint.conllu"
    write_conllu(tb, path)
    return path


def test_lint_summary_and_tsv(capsys, tmp_path):
    path = _lint_corpus(tmp_path)
    tsv = tmp_path / "findings.tsv"
    code, out, _ = run(capsys, "lint", "--input", str(path), "--tsv", str(tsv))
    assert code == 0
    lines = tsv.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0].split("\t") == [
        "sent_id", "token_id", "rule", "gold_deprel", "suggested_deprel",
        "context",
    ]
    assert len(lines) == 3
    code, out, _ = run(capsys, "lint", "--input", str(path))
    assert "POSS_AS_DET" in out and "NN_AS_NMOD" in out


def test_lint_fix_then_relint_zero(capsys, tmp_path):
    path = _lint_corpus(tmp_path)
    fixed = tmp_path / "fixed.conllu"
    run(capsys, "lint", "--input", str(path), "--fix", str(fixed))
    code, out, _ = run(capsys, "lint", "--input", str(fixed))
    assert code == 0
    assert "flagged 0" in out


# ---------------------------------------------------------------------------
# case-study
# ---------------------------------------------------------------------------

def test_case_study_curves(capsys, tmp_path):
    tb = childes_treebank(80, seed=12, with_ages=True)
    path = tmp_path / "aged.conllu"
    write_conllu(tb, path)
    out_csv = tmp_path / "curves.csv"
    code, _, _ = run(
        capsys, "case-study", "--input", str(path), "--backend", "ud",
        "--width", "3", "--out", str(out_csv), "--jobs", "1",
    )
    assert code == 0
    lines = out_csv.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "bin_start,speaker,label,count,proportion,n_utterances"
    assert len(lines) > 1
    assert not any(",FRA," in line or ",FOR," in line for line in lines[1:])
    code, _, _ = run(
        capsys, "case-study", "--input", str(path), "--include-nonclausal",
        "--out", str(out_csv), "--jobs", "1",
    )
    lines = out_csv.read_text(encoding="utf-8").strip().split("\n")
    assert any(",FRA," in line for line in lines[1:])


@pytest.mark.parametrize("age", ["inf", "infinity", "1e400"])
def test_case_study_unbins_a_non_finite_age(capsys, tmp_path, age):
    path = tmp_path / "aged.conllu"
    path.write_text("".join(
        f"# sent_id = {sid}\n# speaker = CHI\n# child_age = {value}\n"
        f"1\t{form}\t{form}\tINTJ\t_\t_\t0\troot\t_\t_\n\n"
        for sid, value, form in (("s1", "2;00", "yes"), ("s2", age, "no"))
    ), encoding="utf-8")
    code, out, err = run(capsys, "--log-level", "info", "case-study", "--input",
                         str(path), "--include-nonclausal")
    assert code == 0
    assert "binned 1 utterances into 1 cells; 1 unbinned" in err
    assert out.splitlines()[1:] == ["24,CS,FRA,1,1.000000,1"]


def test_case_study_width_below_one_is_usage_error(capsys, corpus_path):
    code, _, err = run(
        capsys, "case-study", "--input", str(corpus_path), "--width", "0",
    )
    assert code == 2
    assert "--width: invalid positive int value: '0'" in err


@pytest.mark.parametrize("argv, flag, value", [
    (["train", "--kind", "parser"], "--epochs", "0"),
    (["train", "--kind", "tagger"], "--epochs", "-1"),
    (["tag-cxn"], "--jobs", "0"),
    (["case-study"], "--jobs", "-2"),
    (["train", "--kind", "parser"], "--epochs", "abc"),
])
def test_counts_below_one_are_usage_errors(
    capsys, tmp_path, corpus_path, argv, flag, value
):
    model = tmp_path / "m.model"
    if argv[0] == "train":
        argv = [*argv, "--model", str(model)]
    code, out, err = run(capsys, *argv, "--input", str(corpus_path), flag, value)
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == (
        f"cait {argv[0]}: error: argument {flag}: invalid positive int value: '{value}'"
    )
    assert not model.exists()


# ---------------------------------------------------------------------------
# validate / normalize / composition
# ---------------------------------------------------------------------------

def test_validate_clean_and_dirty(capsys, tmp_path, corpus_path):
    code, out, err = run(capsys, "validate", "--input", str(corpus_path))
    assert code == 0
    assert "0 with violations" in out
    import random

    rng = random.Random(3)
    bad = build_treebank([random_malformed_sentence(rng, f"m{i}") for i in range(5)])
    bad_path = tmp_path / "bad.conllu"
    write_conllu(bad, bad_path)
    code, out, err = run(capsys, "validate", "--input", str(bad_path))
    assert code == 1
    assert err.strip()


def test_validate_reports_a_repeated_sent_id(capsys, tmp_path):
    block = "# sent_id = a\n1\thi\thi\tINTJ\t_\t_\t0\troot\t_\t_\n\n"
    path = tmp_path / "dup.conllu"
    path.write_text(block + block, encoding="utf-8")
    code, out, err = run(capsys, "validate", "--input", str(path))
    assert code == 1
    assert out == "2 sentences, 1 with violations\n"
    assert err == "a\tduplicate-sent-id\tduplicate sent_id 'a'\n"
    # The strict commands reject the same file.
    code, _, err = run(capsys, "lint", "--input", str(path))
    assert code == 1
    assert err == "error: sentence a: duplicate sent_id 'a'\n"


def test_validate_validates_each_broken_tree_once(capsys, monkeypatch, tmp_path):
    # The read checks every tree in its one pass and calls conllu.validate
    # only on a tree that breaks a rule of that check; cmd_validate reports
    # the read's diagnostics and validates nothing again.
    from cait import conllu

    rng = random.Random(8)
    tb = childes_treebank(40, seed=8)
    broken = [3, 4, 21]
    for i in broken:
        tb.sentences[i] = random_malformed_sentence(rng, tb.sentences[i].sent_id)
    path = tmp_path / "in.conllu"
    write_conllu(tb, path)
    calls = []
    real = conllu.validate
    monkeypatch.setattr(
        conllu, "validate", lambda sentence: calls.append(sentence) or real(sentence)
    )
    code, out, _ = run(capsys, "validate", "--input", str(path))
    assert (code, out) == (1, "40 sentences, 3 with violations\n")
    assert [s.sent_id for s in calls] == [tb.sentences[i].sent_id for i in broken]


def test_normalize_output_composes_with_eval_and_tag_cxn(capsys, tmp_path):
    import random

    rng = random.Random(4)
    bad = build_treebank(
        [random_malformed_sentence(rng, f"m{i}") for i in range(10)]
    )
    bad_path = tmp_path / "bad.conllu"
    write_conllu(bad, bad_path)
    repaired = tmp_path / "repaired.conllu"
    code, _, _ = run(
        capsys, "normalize", "--input", str(bad_path), "--out", str(repaired),
    )
    assert code == 0
    code, _, _ = run(
        capsys, "eval", "--gold", str(repaired), "--pred", str(repaired),
        "--json", "-",
    )
    assert code == 0
    code, _, _ = run(
        capsys, "tag-cxn", "--input", str(repaired), "--jobs", "1",
    )
    assert code == 0


def test_normalize_applies_default_label_map(capsys, tmp_path):
    sentence = build_sentence("s", [
        ("she", "she", "PRON", 2, "nsubjpass"),
        ("left", "leave", "VERB", 0, "root"),
    ])
    path = tmp_path / "in.conllu"
    write_conllu(build_treebank([sentence]), path)
    out_path = tmp_path / "out.conllu"
    code, _, _ = run(
        capsys, "normalize", "--input", str(path), "--out", str(out_path),
    )
    assert code == 0
    tb = read_conllu(out_path)
    assert tb.sentences[0].tokens[0].deprel == "nsubj:pass"


def test_normalize_label_map_row_without_a_tab_is_a_data_error(capsys, tmp_path):
    sentence = build_sentence("s", [
        ("toy", "toy", "NOUN", 2, "nn"),
        ("box", "box", "NOUN", 0, "root"),
    ])
    path = tmp_path / "in.conllu"
    write_conllu(build_treebank([sentence]), path)
    label_map = tmp_path / "map.tsv"
    label_map.write_text("nn compound\n", encoding="utf-8")
    out_path = tmp_path / "out.conllu"
    code, out, err = run(
        capsys, "normalize", "--input", str(path), "--label-map", str(label_map),
        "--out", str(out_path),
    )
    assert (code, out) == (1, "")
    assert err == f"error: {label_map}: line 1: no tab in row 'nn compound'\n"
    assert not out_path.exists()


# ---------------------------------------------------------------------------
# train / parse / tag
# ---------------------------------------------------------------------------

def test_train_parse_tag_pipeline(capsys, tmp_path):
    tb = childes_treebank(60, seed=13)
    train_path = tmp_path / "train.conllu"
    write_conllu(tb, train_path)

    parser_model = tmp_path / "parser.model"
    code, _, _ = run(
        capsys, "train", "--input", str(train_path), "--model",
        str(parser_model), "--epochs", "3", "--seed", "0",
    )
    assert code == 0
    assert parser_model.read_text(encoding="utf-8").startswith("CAITB1\tparser")

    parsed = tmp_path / "parsed.conllu"
    code, _, _ = run(
        capsys, "parse", "--input", str(train_path), "--model",
        str(parser_model), "--out", str(parsed),
    )
    assert code == 0
    out_tb = read_conllu(parsed)
    assert len(out_tb) == 60

    tagger_model = tmp_path / "tagger.model"
    code, _, _ = run(
        capsys, "train", "--input", str(train_path), "--model",
        str(tagger_model), "--kind", "tagger", "--epochs", "3", "--seed", "0",
    )
    assert code == 0
    tagged = tmp_path / "tagged.conllu"
    code, _, _ = run(
        capsys, "tag", "--input", str(train_path), "--model",
        str(tagger_model), "--out", str(tagged),
    )
    assert code == 0
    code, out, _ = run(
        capsys, "eval", "--gold", str(train_path), "--pred", str(parsed),
    )
    assert code == 0


def test_parse_accepts_unannotated_input(capsys, tmp_path):
    tb = childes_treebank(30, seed=15)
    train_path = tmp_path / "train.conllu"
    write_conllu(tb, train_path)
    model = tmp_path / "m.model"
    run(capsys, "train", "--input", str(train_path), "--model", str(model),
        "--epochs", "2")
    # Forms only: underscores everywhere else, including heads.
    raw = tmp_path / "raw.conllu"
    raw.write_text(
        "1\tthe\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "2\tdog\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "3\truns\t_\t_\t_\t_\t_\t_\t_\t_\n\n",
        encoding="utf-8",
    )
    parsed = tmp_path / "parsed.conllu"
    code, _, _ = run(
        capsys, "parse", "--input", str(raw), "--model", str(model),
        "--out", str(parsed),
    )
    assert code == 0
    out_tb = read_conllu(parsed)  # strict read: output is a valid tree
    assert sum(1 for t in out_tb.sentences[0].tokens if t.head == 0) == 1


def test_parse_info_log_leaves_outputs_unchanged(capsys, tmp_path):
    train_path = tmp_path / "train.conllu"
    write_conllu(childes_treebank(30, seed=16), train_path)
    model = tmp_path / "m.model"
    run(capsys, "train", "--input", str(train_path), "--model", str(model),
        "--epochs", "2")
    rng = random.Random(17)
    raw = tmp_path / "raw.conllu"
    write_conllu(
        build_treebank(random_malformed_sentence(rng, f"m{i}") for i in range(60)),
        raw,
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cait.__file__).parents[1]))
    outputs = {}
    for level in ("warning", "info"):
        out_path = tmp_path / f"{level}.conllu"
        base = [sys.executable, "-m", "cait.cli", "--log-level", level, "parse",
                "--input", str(raw), "--model", str(model)]
        to_file = subprocess.run(base + ["--out", str(out_path)], env=env,
                                 capture_output=True, check=True)
        to_stdout = subprocess.run(base, env=env, capture_output=True, check=True)
        outputs[level] = (out_path.read_bytes(), to_file.stdout, to_stdout.stdout)
        logs = to_file.stderr.decode("utf-8")
    assert outputs["warning"] == outputs["info"]
    assert outputs["info"][0] == outputs["info"][2]
    assert outputs["info"][1] == b""
    assert "normalized before decoding" in logs
    assert len(read_conllu(tmp_path / "info.conllu")) == 60  # strict: all valid


def test_parse_missing_model_path_is_data_error(capsys, tmp_path, corpus_path):
    code, _, err = run(
        capsys, "parse", "--input", str(corpus_path), "--model",
        str(tmp_path / "nope.model"),
    )
    assert code == 1
    assert "no such file" in err


def test_parse_rejects_tagger_model(capsys, tmp_path):
    tb = childes_treebank(20, seed=14)
    train_path = tmp_path / "t.conllu"
    write_conllu(tb, train_path)
    model = tmp_path / "m.model"
    run(capsys, "train", "--input", str(train_path), "--model", str(model),
        "--kind", "tagger", "--epochs", "1")
    code, _, err = run(
        capsys, "parse", "--input", str(train_path), "--model", str(model),
    )
    assert code == 2
    assert "not a parser model" in err


def test_tag_rejects_parser_model(capsys, tmp_path):
    tb = childes_treebank(20, seed=14)
    train_path = tmp_path / "t.conllu"
    write_conllu(tb, train_path)
    model = tmp_path / "m.model"
    run(capsys, "train", "--input", str(train_path), "--model", str(model),
        "--kind", "parser", "--epochs", "1")
    code, out, err = run(
        capsys, "tag", "--input", str(train_path), "--model", str(model),
    )
    assert (code, out, err) == (2, "", f"error: {model} is not a tagger model\n")


def test_commands_without_numeric_work_do_not_import_numpy(tmp_path, fixture_conllu):
    # numpy costs about half of the start-up time; no command loads it, and
    # tests/test_imports.py checks the baseline commands too.
    out = tmp_path / "out"
    script = (
        "import sys\n"
        "import cait.cli\n"
        "assert 'numpy' not in sys.modules, 'import'\n"
        "for argv in sys.argv[1:]:\n"
        "    cait.cli.main(argv.split('|'))\n"
        "    assert 'numpy' not in sys.modules, argv\n"
    )
    commands = [
        f"validate|--input|{fixture_conllu}",
        f"lint|--input|{fixture_conllu}|--fix|{out}",
        f"normalize|--input|{fixture_conllu}|--out|{out}",
        f"case-study|--input|{fixture_conllu}|--jobs|1|--out|{out}",
        f"tag-cxn|--input|{fixture_conllu}|--jobs|2|--out|{out}",
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(cait.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", script, *commands],
        env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr


# Public name of the package -> the module that defines it.
PACKAGE_EXPORTS = {
    **dict.fromkeys(
        ["Diagnostic", "MWTRange", "Sentence", "SpeakerRole", "Strictness",
         "Token", "Treebank", "normalize", "read_conllu", "validate",
         "write_conllu"],
        "cait.conllu",
    ),
    **dict.fromkeys(
        ["Backend", "CxnLabel", "FormulaicLexicon", "TaggedUtterance",
         "strip_tag_question", "tag_pos", "tag_treebank", "tag_ud"],
        "cait.cxntag",
    ),
    **dict.fromkeys(
        ["EvalReport", "aggregate", "align", "confusion", "evaluate_treebanks",
         "paired_ttest", "per_label_error_rates", "score_sentence",
         "tag_accuracy"],
        "cait.evaluation",
    ),
}


def _loaded_cait_modules(*argv):
    """Run ``python -m cait.cli ARGV`` in a fresh interpreter; returns its
    exit code and the ``cait.*`` submodules it loaded."""
    script = (
        "import json, runpy, sys\n"
        "sys.argv[1:] = json.loads(sys.argv.pop(1))\n"
        "try:\n"
        "    runpy.run_module('cait.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(json.dumps([code, sorted(\n"
        "    m for m in sys.modules if m.startswith('cait.'))]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cait.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argv)],
        env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    code, modules = json.loads(result.stdout.splitlines()[-1])
    return code, set(modules)


def test_import_cait_loads_no_submodule():
    # The modules that `import cait` used to load stay reachable as
    # attributes of the package.
    script = (
        "import sys, cait\n"
        "print([m for m in sys.modules if m.startswith('cait.')])\n"
        "assert cait.evaluation is sys.modules['cait.evaluation']\n"
        "assert cait.conllu.validate is cait.validate\n"
        "assert cait.cxntag.tag_ud is cait.tag_ud\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cait.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_each_command_loads_only_the_modules_it_runs(tmp_path, fixture_conllu):
    fixture = str(fixture_conllu)
    out = str(tmp_path / "out")
    write_conllu(childes_treebank(20, seed=3), tmp_path / "train.conllu")
    train = str(tmp_path / "train.conllu")
    parser_model = str(tmp_path / "parser.model")
    tagger_model = str(tmp_path / "tagger.model")
    assert main(["train", "--input", train, "--model", tagger_model,
                 "--kind", "tagger", "--epochs", "1"]) == 0
    # Failing runs: an error loads no module that the command did not run.
    malformed = tmp_path / "malformed.conllu"
    malformed.write_text("1\tx\n\n", encoding="utf-8")
    lines = fixture_conllu.read_text(encoding="utf-8").split("\n")
    first = next(i for i, line in enumerate(lines) if line.startswith("1\t"))
    fields = lines[first].split("\t")
    lines[first] = "\t".join([fields[0], fields[1] + "x", *fields[2:]])
    other_forms = tmp_path / "other_forms.conllu"
    other_forms.write_text("\n".join(lines), encoding="utf-8")
    bad_label = tmp_path / "bad_label.tsv"
    bad_label.write_text(f"{UTTERANCES[0][0]}\tNOPE\n", encoding="utf-8")
    conllu = {"cait.conllu"}
    baseline = conllu | {"cait.baseline"}
    cases = [
        (["--help"], 0, set()),
        (["validate", "--input", fixture], 0, conllu),
        (["normalize", "--input", fixture, "--out", out], 0, conllu),
        (["lint", "--input", fixture, "--tsv", out], 0, conllu | {"cait.lint"}),
        (["tag-cxn", "--input", fixture, "--jobs", "1", "--out", out],
         0, conllu | {"cait.cxntag"}),
        (["case-study", "--input", fixture, "--jobs", "1", "--out", out],
         0, conllu | {"cait.cxntag", "cait.casestudy"}),
        (["eval", "--gold", fixture, "--pred", fixture, "--json", out],
         0, conllu | {"cait.evaluation"}),
        (["train", "--input", train, "--model", parser_model, "--epochs", "1"],
         0, baseline),
        (["parse", "--input", train, "--model", parser_model, "--out", out],
         0, baseline),
        (["tag", "--input", train, "--model", tagger_model, "--out", out],
         0, baseline),
        (["validate", "--input", str(malformed)], 1, conllu),
        (["eval", "--gold", fixture, "--pred", str(other_forms)],
         1, conllu | {"cait.evaluation"}),
        (["tag-cxn", "--input", fixture, "--gold", str(bad_label)],
         1, conllu | {"cait.cxntag"}),
        (["parse", "--input", train, "--model", tagger_model], 2, baseline),
    ]
    for argv, code, expected in cases:
        assert _loaded_cait_modules(*argv) == (code, expected), argv


def test_package_names_resolve_to_their_defining_objects():
    import importlib

    assert sorted(cait.__all__) == sorted(PACKAGE_EXPORTS)
    listed = dir(cait)
    star: dict = {}
    exec("from cait import *", star)
    for name, home in PACKAGE_EXPORTS.items():
        obj = getattr(importlib.import_module(home), name)
        assert getattr(cait, name) is obj, name
        scope: dict = {}
        exec(f"from cait import {name}", scope)
        assert scope[name] is obj, name
        assert star[name] is obj, name
        assert name in listed, name
    assert cait.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no_such_name"):
        cait.no_such_name
    with pytest.raises(ImportError):
        exec("from cait import no_such_name", {})


@pytest.mark.parametrize("host_handler", ["null", "stream"])
def test_log_level_holds_when_the_host_configured_logging(
    capsys, fixture_conllu, host_handler
):
    root = logging.getLogger()
    # A stream handler on the root, as logging.basicConfig leaves it, writes
    # to the same stderr: a record that reached it too would show twice.
    handler = (
        logging.NullHandler() if host_handler == "null"
        else logging.StreamHandler(sys.stderr)
    )
    saved_level = root.level
    root.addHandler(handler)
    root.setLevel(logging.INFO)
    try:
        errs = [
            run(capsys, "--log-level", "info", "case-study", "--input",
                str(fixture_conllu), "--jobs", "1")[2]
            for _ in range(2)
        ]
    finally:
        root.removeHandler(handler)
        root.setLevel(saved_level)
    # One line per call: handlers do not pile up across in-process calls,
    # and the host's handler does not repeat the line.
    assert [err.count("INFO cait: binned") for err in errs] == [1, 1]
    assert [err.count(" utterances into ") for err in errs] == [1, 1]
    cait_log = logging.getLogger("cait")
    assert cait_log.handlers == []
    assert cait_log.level == logging.NOTSET
    assert cait_log.propagate


# The progress line of each command that prints one, on tests/data/corpus.conllu
# (parse: on 8 malformed trees), with its --out (train: --model) flag.
PROGRESS = {
    "train-parser": (
        ["train", "--input", "{corpus}", "--epochs", "1"], "--model",
        "trained parser on 12 sentences (0 non-projective skipped)",
    ),
    "train-tagger": (
        ["train", "--kind", "tagger", "--input", "{corpus}", "--epochs", "1"],
        "--model", "trained tagger on 12 sentences",
    ),
    "parse": (
        ["parse", "--input", "{raw}", "--model", "{parser}"], "--out",
        "parsed 8 sentences: 2 normalized before decoding, "
        "2 tokens attached to the root by cleanup",
    ),
    "case-study": (
        ["case-study", "--input", "{corpus}"], "--out",
        "binned 10 utterances into 2 cells; 2 unbinned",
    ),
}


@pytest.mark.parametrize("level", ["debug", "info", "warning", "error"])
@pytest.mark.parametrize("command", list(PROGRESS))
def test_progress_lines_by_log_level(capsys, tmp_path, corpus_path, command, level):
    files = dict(corpus=corpus_path, raw=tmp_path / "raw.conllu",
                 parser=tmp_path / "parser.model")
    rng = random.Random(23)
    write_conllu(
        build_treebank(random_malformed_sentence(rng, f"m{i}") for i in range(8)),
        files["raw"],
    )
    assert main(["train", "--input", str(corpus_path), "--model",
                 str(files["parser"]), "--epochs", "1"]) == 0
    argv, out_flag, line = PROGRESS[command]
    argv = [arg.format(**files) for arg in argv]
    out_path = tmp_path / "out"
    capsys.readouterr()
    quiet = run(capsys, *argv, out_flag, "-")
    to_stdout = run(capsys, "--log-level", level, *argv, out_flag, "-")
    to_file = run(capsys, "--log-level", level, *argv, out_flag, str(out_path))
    shown = f"INFO cait: {line}\n" if level in ("debug", "info") else ""
    assert quiet[0] == 0 and quiet[2] == ""
    assert to_stdout == (0, quiet[1], shown)
    assert to_file == (0, "", shown)
    assert out_path.read_text(encoding="utf-8") == quiet[1]


@pytest.mark.parametrize("command", ["parse", "tag"])
def test_bad_model_header_is_one_error_line(capsys, tmp_path, corpus_path, command):
    model = tmp_path / "bad.model"
    model.write_text("garbage\n", encoding="utf-8")
    code, out, err = run(
        capsys, command, "--input", str(corpus_path), "--model", str(model),
    )
    assert code == 1
    assert out == ""
    assert err == "error: bad magic header 'garbage'; expected CAITB1\n"


@pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "-Infinity"])
def test_non_finite_model_weight_is_one_error_line(capsys, tmp_path, corpus_path, weight):
    # save_model never writes one: every weight is a mean of integer totals.
    model = tmp_path / "nan.model"
    model.write_text(
        f"CAITB1\ttagger\t1\nclass\tNOUN\nclass\tVERB\nw\tbias\tNOUN\t{weight}\n",
        encoding="utf-8",
    )
    code, out, err = run(
        capsys, "tag", "--input", str(corpus_path), "--model", str(model),
    )
    assert code == 1
    assert out == ""
    assert err == f"error: line 4: weight {weight!r} is not a finite number\n"


@pytest.mark.parametrize("command, rows, message", [
    ("tag", "class\tNOUN\nclass\tVERB\nw\tbias\tNOUN\t1.0\nw\tbias\tNOUN\t-5.0\n",
     "line 5: 'w\\tbias\\tNOUN' repeats line 4"),
    ("tag", "class\tNOUN\nclass\tNOUN\n", "line 3: 'class\\tNOUN' repeats line 2"),
    ("tag", "class\tNOUN\ntagdict\tdog\tNOUN\ntagdict\tdog\tVERB\n",
     "line 4: 'tagdict\\tdog' repeats line 3"),
    ("parse", "label\tdet\nlabel\tnsubj\nlabel\tdet\n",
     "line 4: 'label\\tdet' repeats line 2"),
])
def test_a_repeated_model_row_is_one_error_line(capsys, tmp_path, corpus_path, command,
                                                rows, message):
    kind = "parser" if command == "parse" else "tagger"
    model = tmp_path / "repeat.model"
    model.write_text(f"CAITB1\t{kind}\t1\n{rows}", encoding="utf-8")
    code, out, err = run(
        capsys, command, "--input", str(corpus_path), "--model", str(model),
    )
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_every_cait_error_class_is_a_value_error():
    import importlib
    import pkgutil

    classes = set()
    for info in pkgutil.iter_modules(cait.__path__):
        module = importlib.import_module(f"cait.{info.name}")
        for name in getattr(module, "__all__", ()):
            value = getattr(module, name)
            if isinstance(value, type) and issubclass(value, BaseException):
                classes.add(value)
    assert {cls.__name__ for cls in classes} >= {
        "ConlluError", "ConlluFormatError", "TreeValidationError",
        "AlignmentError", "MissingAnnotationError", "ModelFormatError",
        "OracleError",
    }
    for cls in classes:
        assert issubclass(cls, ValueError), cls


_TWO_TOKENS = ("1\tI\tI\tPRON\t_\t_\t2\tnsubj\t_\t_\n"
               "2\tgo\tgo\tVERB\t_\t_\t0\troot\t_\t_\n\n")
_ERROR_INPUTS = {
    "malformed.conllu": "1\tI\n\n",
    "cycle.conllu": _TWO_TOKENS.replace("\t0\troot", "\t1\troot"),
    "gold.conllu": _TWO_TOKENS,
    "other_forms.conllu": _TWO_TOKENS.replace("\tgo\t", "\twent\t"),
    "bad.model": "garbage\n",
}


# Tagging errors (MissingAnnotationError) are rows of tag-cxn's report, and
# training skips the non-projective sentences an OracleError would reject:
# neither reaches the command line.
@pytest.mark.parametrize("error, argv", [
    ("ConlluFormatError", ["validate", "--input", "malformed.conllu"]),
    ("TreeValidationError", ["lint", "--input", "cycle.conllu"]),
    ("AlignmentError", ["eval", "--gold", "gold.conllu", "--pred", "other_forms.conllu"]),
    ("ModelFormatError", ["parse", "--input", "gold.conllu", "--model", "bad.model"]),
])
def test_each_data_error_is_exit_1_and_one_error_line(
    capsys, monkeypatch, tmp_path, error, argv
):
    for name, text in _ERROR_INPUTS.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    args = build_parser().parse_args(argv)
    with pytest.raises(ValueError) as info:
        args.func(args)
    assert type(info.value).__name__ == error
    capsys.readouterr()
    assert run(capsys, *argv) == (1, "", f"error: {info.value}\n")
