import hashlib
import io
import random

import pytest

from cait.baseline import (
    AveragedWeights,
    ModelFormatError,
    OracleError,
    ParserModel,
    ParserState,
    TaggerModel,
    is_projective,
    load_model,
    oracle_sequence,
    parse,
    save_model,
    static_oracle,
    tag,
    train_parser,
    train_tagger,
)
from cait.conllu import (
    MWTRange,
    Strictness,
    Treebank,
    conllu_string,
    read_conllu,
    validate,
)
from cait.evaluation import evaluate_treebanks, tag_accuracy
from helpers import P, build_sentence, build_treebank, london_gold
from synth import (
    childes_treebank,
    formal_treebank,
    random_fuzz_sentence,
    random_malformed_sentence,
    random_valid_sentence,
)


def replay(sentence):
    state = ParserState(len(sentence.tokens))
    while not state.buffer_empty():
        state.apply(static_oracle(sentence, state))
    return state


# ---------------------------------------------------------------------------
# Projectivity and the static oracle
# ---------------------------------------------------------------------------

def test_projectivity_check():
    assert is_projective(london_gold())
    crossing = build_sentence("x", [
        ("a", "a", "X", 3, "dep"),
        ("b", "b", "X", 4, "dep"),
        ("c", "c", "X", 0, "root"),
        ("d", "d", "X", 3, "dep"),
    ])
    assert not is_projective(crossing)


def test_oracle_two_token_sentence():
    sentence = build_sentence("hi", [
        ("hi", "hi", "INTJ", 0, "root"),
        (".", ".", "PUNCT", 1, "punct"),
    ])
    assert oracle_sequence(sentence) == ["SHIFT", "RIGHT:punct"]


def test_oracle_rejects_non_projective():
    crossing = build_sentence("x", [
        ("a", "a", "X", 3, "dep"),
        ("b", "b", "X", 4, "dep"),
        ("c", "c", "X", 0, "root"),
        ("d", "d", "X", 3, "dep"),
    ])
    with pytest.raises(OracleError):
        oracle_sequence(crossing)


def test_oracle_replay_reconstructs_london_arcs():
    gold = london_gold()
    state = replay(gold)
    for tok in gold.tokens:
        if tok.head == 0:
            assert tok.id not in state.heads  # root closes at cleanup
        else:
            assert state.heads[tok.id] == tok.head
            assert state.labels[tok.id] == tok.deprel


def test_oracle_replay_over_synthetic_corpus():
    tb = childes_treebank(120, seed=5)
    for sentence in tb.sentences:
        assert is_projective(sentence), sentence.sent_id
        state = replay(sentence)
        headless = [t.id for t in sentence.tokens if t.id not in state.heads]
        assert headless == [t.id for t in sentence.tokens if t.head == 0]
        for tok in sentence.tokens:
            if tok.head:
                assert state.heads[tok.id] == tok.head, sentence.sent_id


def test_oracle_terminal_state_errors():
    sentence = build_sentence("s", [("a", "a", "X", 0, "root")])
    state = replay(sentence)
    with pytest.raises(OracleError):
        static_oracle(sentence, state)


# ---------------------------------------------------------------------------
# Averaging
# ---------------------------------------------------------------------------

def test_averaged_weights_equal_mean_of_snapshots():
    w = AveragedWeights(["A", "B"])
    # Three traceable updates, by column (A is 0, B is 1); snapshots after each:
    w.update(0, 1, ["f1", "f2"])
    # w: f1/f2 -> A:+1, B:-1
    w.update(0, 1, ["f1"])
    # w: f1 -> A:+2, B:-2 ; f2 -> A:+1, B:-1
    w.update(1, 0, ["f2"])
    # w: f2 -> A:0, B:0 ; f1 unchanged
    avg = w.averaged()
    # f1,A snapshots: 1, 2, 2 -> 5/3 ; f1,B: -1,-2,-2 -> -5/3
    assert avg["f1"]["A"] == pytest.approx(5 / 3)
    assert avg["f1"]["B"] == pytest.approx(-5 / 3)
    # f2,A snapshots: 1, 1, 0 -> 2/3 ; f2,B: -1,-1,0 -> -2/3
    assert avg["f2"]["A"] == pytest.approx(2 / 3)
    assert avg["f2"]["B"] == pytest.approx(-2 / 3)


def test_averaged_weights_drop_zero_entries():
    w = AveragedWeights(["A", "B"])
    w.update(0, 1, ["f"])
    w.update(1, 0, ["f"])  # cancels immediately? snapshots: +1 then 0
    avg = w.averaged()
    assert avg["f"]["A"] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Parser training and decoding
# ---------------------------------------------------------------------------

def test_training_on_repeated_sentence_reaches_exact_parse():
    sentence = build_sentence("rep", [
        ("the", "the", "DET", 2, "det"),
        ("dog", "dog", "NOUN", 3, "nsubj"),
        ("sees", "see", "VERB", 0, "root"),
        ("it", "it", "PRON", 3, "obj"),
        P(3),
    ])
    tb = build_treebank([sentence] * 50)
    model = train_parser(tb, epochs=5, seed=0)
    parsed = parse(model, sentence)
    assert [t.head for t in parsed.tokens] == [t.head for t in sentence.tokens]
    assert [t.deprel for t in parsed.tokens] == [
        t.deprel for t in sentence.tokens
    ]


def test_training_reproduces_toy_treebank():
    tb = childes_treebank(10, seed=9)
    model = train_parser(tb, epochs=20, seed=0)
    pred = Treebank([parse(model, s) for s in tb.sentences])
    report = evaluate_treebanks(tb, pred)
    assert report.las == 100.0


def test_zero_epochs_gives_uniform_model_and_valid_trees():
    tb = childes_treebank(20, seed=1)
    model = train_parser(tb, epochs=0, seed=0)
    assert model.weights == {}
    for sentence in tb.sentences:
        parsed = parse(model, sentence)
        assert validate(parsed) == []


def test_same_seed_identical_models_different_seed_may_differ():
    tb = childes_treebank(60, seed=2)
    a = train_parser(tb, epochs=2, seed=7)
    b = train_parser(tb, epochs=2, seed=7)
    assert a.weights == b.weights
    assert a.label_set == b.label_set


def test_nonprojective_sentences_skipped_and_counted():
    crossing = build_sentence("x", [
        ("a", "a", "X", 3, "dep"),
        ("b", "b", "X", 4, "dep"),
        ("c", "c", "X", 0, "root"),
        ("d", "d", "X", 3, "dep"),
    ])
    tb = childes_treebank(10, seed=3)
    tb.sentences.append(crossing)
    model = train_parser(tb, epochs=1, seed=0)
    assert model.n_nonprojective_skipped == 1
    with pytest.raises(ValueError):
        train_parser(build_treebank([crossing]), epochs=1, seed=0)


def test_empty_treebank_rejected():
    with pytest.raises(ValueError):
        train_parser(build_treebank([]), epochs=1, seed=0)


def test_parse_single_token_is_root():
    model = ParserModel({}, ["dep"])
    parsed = parse(model, build_sentence("one", [("hi", "hi", "INTJ", 0, "root")]))
    assert parsed.tokens[0].head == 0
    assert parsed.tokens[0].deprel == "root"


def test_parse_empty_sentence_errors():
    model = ParserModel({}, ["dep"])
    with pytest.raises(ValueError):
        parse(model, build_sentence("none", []))


def test_tagger_rejects_empty_input():
    empty = build_sentence("none", [])
    with pytest.raises(ValueError, match="cannot train on an empty treebank"):
        train_tagger(build_treebank([empty]), epochs=1)
    model = train_tagger(build_treebank([london_gold()]), epochs=1)
    with pytest.raises(ValueError, match="cannot tag an empty sentence"):
        tag(model, empty)


def test_parse_outputs_validate_for_arbitrary_models():
    rng = random.Random(77)
    tb = childes_treebank(40, seed=4)
    model = train_parser(tb, epochs=1, seed=0)
    for i in range(100):
        sentence = random_fuzz_sentence(rng, f"f{i}")
        assert validate(parse(model, sentence)) == []


def test_zero_model_takes_lowest_named_valid_transition():
    # Every score is 0: SHIFT first (the only move), then "LEFT:nsubj" is
    # the lowest name among SHIFT, LEFT:* and RIGHT:*.
    model = ParserModel({}, ["obj", "nsubj"])
    rows = [("a", "a", "X", 0, "root")] * 3
    parsed = parse(model, build_sentence("z", rows))
    assert [(t.head, t.deprel) for t in parsed.tokens] == [
        (2, "nsubj"), (3, "nsubj"), (0, "root"),
    ]


def test_equal_scores_break_on_transition_name():
    model = ParserModel({"bias": {"SHIFT": 1.0, "RIGHT:obj": 1.0}}, ["obj"])
    rows = [("a", "a", "X", 0, "root")] * 2
    parsed = parse(model, build_sentence("t", rows))
    assert [(t.head, t.deprel) for t in parsed.tokens] == [(0, "root"), (1, "obj")]


_BAD_IDS = """# sent_id = dup
1\tthe\t_\tDET\t_\t_\t2\tdet\t_\t_
2\tdog\t_\tNOUN\t_\t_\t0\troot\t_\t_
1\tit\t_\tPRON\t_\t_\t2\tnsubj\t_\t_
2\truns\t_\tVERB\t_\t_\t0\troot\t_\t_

# sent_id = gap
1\tthe\t_\tDET\t_\t_\t3\tdet\t_\t_
3\tdog\t_\tNOUN\t_\t_\t0\troot\t_\t_
7\tbarks\t_\tVERB\t_\t_\t3\tdep\t_\t_

# sent_id = mwt
1-5\tgonna\t_\t_\t_\t_\t_\t_\t_\t_
1\tgon\t_\tVERB\t_\t_\t0\troot\t_\t_
2\tna\t_\tPART\t_\t_\t1\tmark\t_\t_

"""


@pytest.mark.parametrize("epochs", [0, 2])
def test_parse_normalizes_bad_ids_and_multiword_ranges(epochs):
    tb = read_conllu(_BAD_IDS.encode(), Strictness.LENIENT)
    assert [validate(s) != [] for s in tb.sentences] == [True, True, True]
    model = train_parser(childes_treebank(20, seed=1), epochs=epochs, seed=0)
    for sentence in tb.sentences:
        parsed = parse(model, sentence)
        assert validate(parsed) == [], sentence.sent_id
        assert [t.form for t in parsed.tokens] == [t.form for t in sentence.tokens]
        assert parsed.diagnostics[0].code in ("renumber", "drop-mwt")


def test_training_rejects_ids_out_of_order():
    tb = read_conllu(_BAD_IDS.encode(), Strictness.LENIENT)
    with pytest.raises(ValueError, match="sentence gap: token ids"):
        train_parser(Treebank(tb.sentences[1:2]), epochs=1, seed=0)


def test_parse_reports_cleanup_attachments():
    # The zero model attaches each token to the next; a model that always
    # shifts leaves every token headless, so cleanup attaches all but one.
    model = ParserModel({"bias": {"SHIFT": 1.0}}, ["dep"])
    parsed = parse(model, build_sentence("c", [("a", "a", "X", 0, "root")] * 4))
    assert [t.head for t in parsed.tokens] == [0, 1, 1, 1]
    assert [(d.code, d.token_ids) for d in parsed.diagnostics] == [
        ("cleanup-attach", (2, 3, 4)),
    ]
    assert parse(ParserModel({}, ["dep"]), parsed).diagnostics == []


# ---------------------------------------------------------------------------
# Tagger
# ---------------------------------------------------------------------------

def test_tagger_converges_on_repeated_sentence():
    sentence = build_sentence("rep", [
        ("the", "the", "DET", 2, "det"),
        ("dog", "dog", "NOUN", 3, "nsubj"),
        ("runs", "run", "VERB", 0, "root"),
        P(3),
    ])
    tb = build_treebank([sentence] * 50)
    model = train_tagger(tb, epochs=5, seed=0)
    tagged = tag(model, sentence)
    assert [t.upos for t in tagged.tokens] == ["DET", "NOUN", "VERB", "PUNCT"]
    assert tag_accuracy(build_treebank([sentence]),
                        build_treebank([tagged])) == 100.0


def test_tagger_learns_ing_suffix_for_unseen_words():
    rng = random.Random(55)
    gerunds = ["running", "jumping", "sleeping", "playing", "eating",
               "laughing", "singing", "hopping", "crying"]
    nouns = ["dog", "cat", "ball", "cup", "book", "duck", "sock", "car"]
    sentences = []
    for i in range(60):
        g = rng.choice(gerunds)
        n = rng.choice(nouns)
        sentences.append(build_sentence(f"s{i}", [
            ("the", "the", "DET", 2, "det"),
            (n, n, "NOUN", 3, "nsubj"),
            ("is", "be", "AUX", 3, "aux"),  # placeholder head fix below
        ]))
        # Proper rows: the N is G .
        sentences[-1] = build_sentence(f"s{i}", [
            ("the", "the", "DET", 2, "det"),
            (n, n, "NOUN", 4, "nsubj"),
            ("is", "be", "AUX", 4, "aux"),
            (g, g[:-4], "VERB", 0, "root"),
            P(4),
        ])
    model = train_tagger(build_treebank(sentences), epochs=8, seed=0)
    unseen = build_sentence("u", [
        ("the", "the", "DET", 2, "det"),
        ("wug", "wug", "NOUN", 4, "nsubj"),
        ("is", "be", "AUX", 4, "aux"),
        ("glorping", "glorp", "VERB", 0, "root"),
        P(4),
    ])
    tagged = tag(model, unseen)
    assert tagged.tokens[3].upos == "VERB"


def test_tagger_fills_upos_only():
    tb = childes_treebank(30, seed=6)
    model = train_tagger(tb, epochs=3, seed=0)
    sentence = tb.sentences[0]
    tagged = tag(model, sentence)
    for before, after in zip(sentence.tokens, tagged.tokens):
        assert (before.form, before.head, before.deprel, before.xpos) == (
            after.form, after.head, after.deprel, after.xpos,
        )


def test_zero_tagger_takes_lowest_named_class():
    model = TaggerModel({}, {}, ["VERB", "NOUN", "ADJ"])
    tagged = tag(model, build_sentence("z", [("a", "a", "X", 0, "root")] * 3))
    assert [t.upos for t in tagged.tokens] == ["ADJ"] * 3


def test_tagger_determinism():
    tb = childes_treebank(50, seed=8)
    a = train_tagger(tb, epochs=3, seed=42)
    b = train_tagger(tb, epochs=3, seed=42)
    assert a.weights == b.weights
    assert a.tagdict == b.tagdict


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

def test_parser_model_roundtrip(tmp_path):
    tb = childes_treebank(30, seed=10)
    model = train_parser(tb, epochs=2, seed=0)
    path = tmp_path / "parser.model"
    save_model(model, path)
    assert path.read_text(encoding="utf-8").startswith("CAITB1\tparser\t1")
    loaded = load_model(path)
    assert isinstance(loaded, ParserModel)
    assert loaded.weights == model.weights
    assert loaded.label_set == model.label_set
    assert loaded.n_nonprojective_skipped == model.n_nonprojective_skipped


def test_tagger_model_roundtrip(tmp_path):
    tb = childes_treebank(30, seed=10)
    model = train_tagger(tb, epochs=2, seed=0)
    path = tmp_path / "tagger.model"
    save_model(model, path)
    assert path.read_text(encoding="utf-8").startswith("CAITB1\ttagger\t1")
    loaded = load_model(path)
    assert isinstance(loaded, TaggerModel)
    assert loaded.weights == model.weights
    assert loaded.tagdict == model.tagdict
    assert loaded.classes == model.classes


def test_model_files_are_deterministic(tmp_path):
    tb = childes_treebank(30, seed=10)
    a, b = tmp_path / "a", tmp_path / "b"
    save_model(train_parser(tb, epochs=2, seed=1), a)
    save_model(train_parser(tb, epochs=2, seed=1), b)
    assert a.read_bytes() == b.read_bytes()


def test_bad_magic_rejected():
    with pytest.raises(ModelFormatError):
        load_model(io.StringIO("NOTAMODEL\tparser\t1\n"))


@pytest.mark.parametrize("text, line", [
    ("CAITB1\tparser\tone\n", "line 1"),
    ("CAITB1\tparser\t1\nw\tbias\tSHIFT\theavy\n", "line 2"),
    ("CAITB1\tparser\t1\nlabel\tdep\nmeta\tnonprojective_skipped\t2.5\n",
     "line 3"),
])
def test_bad_numbers_name_the_line(text, line):
    with pytest.raises(ModelFormatError, match=line):
        load_model(io.StringIO(text))


@pytest.mark.parametrize("text, message", [
    ("CAITB1\tparser\t2\n", "unsupported feature template version 2"),
    ("CAITB1\tparser\t1\nlabel\tdep\nbias\t1\n", "line 3: unrecognized row 'bias\\t1'"),
    ("CAITB1\tchunker\t1\n", "unknown model kind 'chunker'"),
])
def test_unreadable_model_names_what_is_wrong(text, message):
    with pytest.raises(ModelFormatError) as info:
        load_model(io.StringIO(text))
    assert str(info.value) == message


@pytest.mark.parametrize("rows, message", [
    ("w\tbias\tSHIFT\t1.0\nw\tbias\tSHIFT\t-5.0\n",
     "line 3: 'w\\tbias\\tSHIFT' repeats line 2"),
    ("w\tbias\tSHIFT\t1.0\nw\tb0p=DET\tSHIFT\t1.0\n\nw\tbias\tSHIFT\t1.0\n",
     "line 5: 'w\\tbias\\tSHIFT' repeats line 2"),
    ("label\tdep\nlabel\tdep\n", "line 3: 'label\\tdep' repeats line 2"),
    ("meta\tnonprojective_skipped\t1\nmeta\tnonprojective_skipped\t2\n",
     "line 3: 'meta\\tnonprojective_skipped' repeats line 2"),
])
def test_a_repeated_row_names_both_lines(rows, message):
    with pytest.raises(ModelFormatError) as info:
        load_model(io.StringIO("CAITB1\tparser\t1\n" + rows))
    assert str(info.value) == message


@pytest.mark.parametrize("model, message", [
    (ParserModel({}, ["dep", "det", "dep"]), "cannot save label 'dep': it repeats"),
    (TaggerModel({}, {}, ["X", "X"]), "cannot save class 'X': it repeats"),
])
def test_a_model_with_a_repeated_label_or_class_is_not_saved(model, message):
    sink = io.StringIO()
    with pytest.raises(ValueError) as info:
        save_model(model, sink)
    assert str(info.value) == message
    assert sink.getvalue() == ""


def test_saved_models_load_and_save_again_unchanged():
    # save_model names each row once, so the repeat check rejects none.
    tb = childes_treebank(30, seed=3)
    for model in (train_parser(tb, epochs=2), train_tagger(tb, epochs=2)):
        sink = io.StringIO()
        save_model(model, sink)
        loaded = load_model(io.StringIO(sink.getvalue()))
        again = io.StringIO()
        save_model(loaded, again)
        assert again.getvalue() == sink.getvalue()


# ---------------------------------------------------------------------------
# Byte identity with the dict-scored perceptron these digests were recorded
# from: model files and decoded output must not change with the scorer.
# ---------------------------------------------------------------------------

_MODEL_DIGESTS = {
    ("parser", 0): "60b72b2cb875571210568b6355b95beb21972d875f6dab6b12e10088f8bcbe17",
    ("parser", 1): "e3b0507eb9b489b67c65f70bb58d48f218e0b6ce159511cad3699d5e0d5a37f8",
    ("parser", 2): "03326b3a9623261cc5a9776641bc22222f8a741e3cd914baa08b03767bfea31c",
    ("tagger", 0): "04463587748016bfdd313fbe484d97402926b6b7ee4a1166872b43a2b6aac1e9",
    ("tagger", 1): "83223dc2e27e80c325b41a831ec938733b100a895cf8bc0648e7a5caf2e5e269",
    ("tagger", 2): "2af5a5e3e1f15e1bc5b8433cd88141961e86aae208240b9936c4fae84fc3517e",
}
_PARSE_DIGEST = "73f8b9e26c36b10c09d6585e0e7c6243a486d522232a10266ca7dd4e31397ce7"
_TAG_DIGEST = "9ac64416fbdc4fc6c280ace04c840b8338174d6301df637667b8338685f2f1d2"
_MALFORMED_PARSE_DIGEST = "202dd26a55b57191bec348edf87e45b5853e29417f4c1af21e79342a0592276c"


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def digest_models():
    train = Treebank(childes_treebank(300).sentences + formal_treebank(30).sentences)
    trainers = {"parser": train_parser, "tagger": train_tagger}
    return {
        (kind, seed): trainers[kind](train, epochs=3, seed=seed)
        for kind, seed in _MODEL_DIGESTS
    }


@pytest.mark.parametrize("kind, seed", sorted(_MODEL_DIGESTS))
def test_model_files_match_recorded_digests(digest_models, kind, seed):
    sink = io.StringIO()
    save_model(digest_models[kind, seed], sink)
    assert _sha(sink.getvalue()) == _MODEL_DIGESTS[kind, seed]


def test_decoded_output_matches_recorded_digests(digest_models):
    rng = random.Random(12)
    held = (
        childes_treebank(60, seed=11).sentences
        + formal_treebank(10, seed=11).sentences
        + [random_valid_sentence(rng, f"l80-{i}", 80, 80) for i in range(2)]
        + [random_valid_sentence(rng, "l320", 320, 320)]
    )
    parser, tagger = digest_models["parser", 0], digest_models["tagger", 0]
    parsed = Treebank([parse(parser, s) for s in held])
    tagged = Treebank([tag(tagger, s) for s in held])
    assert _sha(conllu_string(parsed)) == _PARSE_DIGEST
    assert _sha(conllu_string(tagged)) == _TAG_DIGEST


def test_parse_of_malformed_input_matches_recorded_digest(digest_models):
    # The path that repair's parse takes: ids other than 1..n and multiword
    # ranges that normalize drops send a sentence through normalize before
    # decoding; self-loops and cycles only lose their heads.
    rng = random.Random(26)
    held = []
    for i in range(300):
        sentence = random_malformed_sentence(rng, f"m{i}")
        if i % 3 == 0:
            start = rng.randint(0, len(sentence.tokens))
            sentence.mwt.append(MWTRange(start, start + rng.randint(-1, 3), "xy"))
        held.append(sentence)
    parsed = [parse(digest_models["parser", 0], s) for s in held]
    assert sum(s.diagnostics[:1] != [] and s.diagnostics[0].code != "cleanup-attach"
               for s in parsed) > 50
    repairs = "".join(
        f"{s.sent_id} {d.code} {d.message} {d.token_ids}\n"
        for s in parsed for d in s.diagnostics
    )
    text = conllu_string(Treebank(parsed))
    assert _sha(text + repairs) == _MALFORMED_PARSE_DIGEST
