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
from cait.cli import main
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


def test_eval_missing_file_is_data_error(capsys, corpus_path):
    code, _, err = run(
        capsys, "eval", "--gold", str(corpus_path), "--pred", "/nope.conllu",
    )
    assert code == 1
    assert "no such file" in err


def test_unknown_flag_is_usage_error(capsys, corpus_path):
    code, _, _ = run(
        capsys, "eval", "--gold", str(corpus_path), "--pred",
        str(corpus_path), "--bogus",
    )
    assert code == 2


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


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


def test_commands_without_numeric_work_do_not_import_numpy(tmp_path, fixture_conllu):
    # numpy costs about half of the start-up time; only eval, tag-cxn
    # --gold and the baseline commands use it.
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
