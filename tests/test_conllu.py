import hashlib
import io
import random

import pytest

from cait.conllu import (
    ConlluFormatError,
    Diagnostic,
    MWTRange,
    SpeakerRole,
    Strictness,
    Token,
    TreeValidationError,
    Treebank,
    default_label_map,
    load_label_map,
    normalize,
    parse_chat_age,
    read_conllu,
    sentence_text,
    validate,
    write_conllu,
)
from helpers import build_sentence, build_treebank, london_gold, P
from synth import random_malformed_sentence, random_valid_sentence


def roundtrip(tb: Treebank) -> Treebank:
    out = io.StringIO()
    write_conllu(tb, out)
    return read_conllu(io.StringIO(out.getvalue()), Strictness.LENIENT)


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------

def test_london_sentence_roundtrips_losslessly():
    tb = build_treebank([london_gold()])
    back = roundtrip(tb)
    assert back.sentences == tb.sentences
    sentence = back.sentences[0]
    assert [t.head for t in sentence.tokens] == [4, 4, 4, 0, 4, 5, 5, 4]
    assert [t.deprel for t in sentence.tokens] == [
        "nsubj", "cop", "case", "root", "parataxis", "advmod", "nsubj", "punct",
    ]


def test_empty_stream_gives_empty_treebank():
    assert len(read_conllu(io.BytesIO(b""))) == 0
    assert len(read_conllu(io.StringIO(""))) == 0


def test_self_loop_strict_error_and_lenient_diagnostic():
    text = (
        "# sent_id = s\n"
        "1\ta\ta\tDET\t_\t_\t2\tdet\t_\t_\n"
        "2\tb\tb\tNOUN\t_\t_\t0\troot\t_\t_\n"
        "3\tc\tc\tNOUN\t_\t_\t3\tdep\t_\t_\n\n"
    )
    with pytest.raises(TreeValidationError) as err:
        read_conllu(io.StringIO(text))
    assert "self-loop at token 3" in str(err.value)
    assert "s" in str(err.value)
    tb = read_conllu(io.StringIO(text), Strictness.LENIENT)
    assert any(
        d.code == "self-loop" and d.message == "self-loop at token 3"
        for d in tb.sentences[0].diagnostics
    )


def test_malformed_field_count_reports_line_number():
    text = "1\tonly\tthree\n\n"
    with pytest.raises(ConlluFormatError) as err:
        read_conllu(io.StringIO(text))
    assert err.value.line == 1


def test_non_integer_id_and_head_are_format_errors():
    bad_id = "x\ta\ta\tX\t_\t_\t0\troot\t_\t_\n\n"
    with pytest.raises(ConlluFormatError):
        read_conllu(io.StringIO(bad_id))
    bad_head = "1\ta\ta\tX\t_\t_\tz\troot\t_\t_\n\n"
    with pytest.raises(ConlluFormatError):
        read_conllu(io.StringIO(bad_head))


def test_comment_only_block_is_a_format_error():
    with pytest.raises(ConlluFormatError):
        read_conllu(io.StringIO("# sent_id = empty\n\n"))


def test_duplicate_ids_strict_error_lenient_diagnostic():
    text = (
        "1\ta\ta\tNOUN\t_\t_\t0\troot\t_\t_\n"
        "1\tb\tb\tNOUN\t_\t_\t1\tdep\t_\t_\n\n"
    )
    with pytest.raises(ConlluFormatError):
        read_conllu(io.StringIO(text))
    tb = read_conllu(io.StringIO(text), Strictness.LENIENT)
    assert any(d.code == "duplicate-id" for d in tb.sentences[0].diagnostics)


def test_metadata_extraction_speaker_and_age(corpus_path):
    tb = read_conllu(corpus_path)
    roles = {s.sent_id: s.speaker_role for s in tb.sentences}
    assert roles["mpi-003"] is SpeakerRole.CS       # CHI
    assert roles["mpi-001"] is SpeakerRole.CDS      # MOT
    assert roles["mpi-011"] is SpeakerRole.CDS      # INV
    assert roles["mpi-012"] is SpeakerRole.OTHER    # GRA, unmapped
    ages = {s.sent_id: s.child_age_months for s in tb.sentences}
    assert ages["mpi-009"] == 32.0
    assert ages["mpi-001"] == pytest.approx(2 * 12 + 6 + 10 / 30.4375)
    assert ages["mpi-012"] is None


def test_parse_chat_age_forms():
    assert parse_chat_age("2;03.15") == pytest.approx(27 + 15 / 30.4375)
    assert parse_chat_age("30") == 30.0
    assert parse_chat_age("4;00") == 48.0
    assert parse_chat_age("nonsense") is None


def test_age_with_unknown_days_reads_as_whole_months():
    # CHAT writes an age whose days are unknown with a bare trailing dot.
    assert parse_chat_age("2;06.") == 30.0
    assert parse_chat_age("2;") is None
    text = "# sent_id = s1\n# child_age = 2;06.\n1\tyes\tyes\tINTJ\t_\t_\t0\troot\t_\t_\n"
    (sentence,) = read_conllu(text.encode(), Strictness.LENIENT).sentences
    assert sentence.child_age_months == 30.0
    assert sentence.diagnostics == []


@pytest.mark.parametrize("age", ["inf", "Infinity", "1e400", "-inf", "nan"])
def test_non_finite_age_is_bad_age(age):
    assert parse_chat_age(age) is None
    text = f"# sent_id = s1\n# child_age = {age}\n1\tyes\tyes\tINTJ\t_\t_\t0\troot\t_\t_\n"
    (sentence,) = read_conllu(text.encode(), Strictness.LENIENT).sentences
    assert sentence.child_age_months is None
    assert [(d.code, d.message) for d in sentence.diagnostics] == [
        ("bad-age", f"unparseable age {age!r}")
    ]


def test_feats_serialize_case_insensitive_alphabetical():
    from cait.conllu import format_feats

    feats = {"VerbForm": "Fin", "Mood": "Ind", "NumType": "Card",
             "Number": "Sing"}
    # "Number" < "NumType" case-insensitively ("numb" < "numt").
    assert format_feats(feats) == "Mood=Ind|Number=Sing|NumType=Card|VerbForm=Fin"
    assert format_feats({}) == "_"


def test_underscore_head_reads_as_unattached():
    # Partially annotated input (head and deprel underscores) is readable
    # leniently, e.g. as input to the parser.
    text = (
        "1\thi\thi\tINTJ\t_\t_\t_\t_\t_\t_\n"
        "2\t.\t.\tPUNCT\t_\t_\t_\t_\t_\t_\n\n"
    )
    tb = read_conllu(io.StringIO(text), Strictness.LENIENT)
    assert [t.head for t in tb.sentences[0].tokens] == [0, 0]
    with pytest.raises(TreeValidationError):
        read_conllu(io.StringIO(text))


def test_role_map_file_overrides_default(tmp_path):
    from cait.conllu import load_role_map

    path = tmp_path / "roles.tsv"
    path.write_text("GRA\tCDS\nCHI\tCS\n", encoding="utf-8")
    role_map = load_role_map(path)
    text = (
        "# sent_id = s\n"
        "# speaker = GRA\n"
        "1\thi\thi\tINTJ\t_\t_\t0\troot\t_\t_\n\n"
    )
    tb = read_conllu(io.StringIO(text), role_map=role_map)
    assert tb.sentences[0].speaker_role is SpeakerRole.CDS
    # Default map does not know GRA.
    tb = read_conllu(io.StringIO(text))
    assert tb.sentences[0].speaker_role is SpeakerRole.OTHER


# ---------------------------------------------------------------------------
# Writing and round-trips
# ---------------------------------------------------------------------------

def test_corpus_roundtrip_byte_identity(corpus_bytes):
    tb = read_conllu(io.BytesIO(corpus_bytes))
    out = io.StringIO()
    write_conllu(tb, out)
    assert out.getvalue().encode("utf-8") == corpus_bytes



class _CountedReads(io.BytesIO):
    def __init__(self, data: bytes):
        super().__init__(data)
        self.reads = 0

    def read(self, size: int | None = -1) -> bytes:
        self.reads += 1
        return super().read(size)


def test_a_long_line_is_read_in_few_pieces():
    # Each read takes at least what is pending, so a line longer than a
    # buffer is copied a bounded number of times, not once per buffer.
    source = _CountedReads(b"x" * 2**20)
    with pytest.raises(ConlluFormatError, match="line 1: expected 10"):
        read_conllu(source)
    assert source.reads < 20

def test_empty_treebank_writes_empty_output():
    out = io.StringIO()
    write_conllu(Treebank(), out)
    assert out.getvalue() == ""


def test_output_ends_with_exactly_one_blank_line():
    tb = build_treebank([london_gold()])
    out = io.StringIO()
    write_conllu(tb, out)
    assert out.getvalue().endswith("punct\t_\t_\n\n")
    assert not out.getvalue().endswith("\n\n\n")


def test_random_valid_sentences_roundtrip_value_identity():
    rng = random.Random(7)
    sentences = [random_valid_sentence(rng, f"rv-{i}") for i in range(60)]
    tb = build_treebank(sentences)
    assert roundtrip(tb).sentences == tb.sentences


def test_mwt_and_empty_nodes_preserved(corpus_path):
    tb = read_conllu(corpus_path)
    by_id = {s.sent_id: s for s in tb.sentences}
    assert by_id["mpi-002"].mwt[0].start == 1
    assert by_id["mpi-002"].mwt[0].end == 2
    assert by_id["mpi-002"].mwt[0].form == "don't"
    node = by_id["mpi-005"].empty_nodes[0]
    assert (node.anchor, node.sub) == (5, 1)
    assert node.columns[0] == "5.1"


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_london_sentence_is_clean():
    assert validate(london_gold()) == []


def test_validate_multiple_roots():
    sentence = build_sentence(
        "two-roots",
        [
            ("a", "a", "NOUN", 0, "root"),
            ("b", "b", "NOUN", 0, "root"),
        ],
    )
    diags = validate(sentence)
    assert any(
        d.code == "multiple-roots" and "multiple roots" in d.message for d in diags
    )


def test_validate_cycle_message():
    sentence = build_sentence(
        "cycle",
        [
            ("a", "a", "NOUN", 2, "dep"),
            ("b", "b", "NOUN", 1, "dep"),
            ("c", "c", "NOUN", 0, "root"),
        ],
    )
    diags = validate(sentence)
    assert any(d.code == "cycle" and d.message == "cycle {1,2}" for d in diags)


def test_validate_head_out_of_range_and_root_deprel():
    sentence = build_sentence(
        "bad",
        [
            ("a", "a", "NOUN", 9, "dep"),
            ("b", "b", "NOUN", 0, "dep"),
        ],
    )
    codes = {d.code for d in validate(sentence)}
    assert "head-range" in codes
    assert "root-deprel" in codes


def test_validate_rejects_a_range_that_ends_where_it_starts():
    text = (
        "# sent_id = r\n"
        "1\tI\tI\tPRON\t_\t_\t2\tnsubj\t_\t_\n"
        "2\tsee\tsee\tVERB\t_\t_\t0\troot\t_\t_\n"
        "3-3\tit\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "3\tit\tit\tPRON\t_\t_\t2\tobj\t_\t_\n"
    )
    (sentence,) = read_conllu(text.encode(), Strictness.LENIENT).sentences
    assert [(d.code, d.message) for d in validate(sentence)] == [
        ("mwt-range", "invalid multiword range 3-3")
    ]


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------

def test_normalize_applies_label_map():
    sentence = build_sentence(
        "map",
        [
            ("she", "she", "PRON", 2, "nsubjpass"),
            ("left", "leave", "VERB", 0, "root"),
        ],
    )
    out = normalize(sentence, {"nsubjpass": "nsubj:pass"})
    assert out.tokens[0].deprel == "nsubj:pass"


def test_default_label_map_matches_published_correspondence():
    mapping = default_label_map()
    # Spot checks against the shipped ClearNLP-style table.
    assert mapping["nsubjpass"] == "nsubj:pass"
    assert mapping["dobj"] == "obj"
    assert mapping["poss"] == "nmod:poss"
    assert mapping["ROOT"] == "root"
    # The table must be idempotent: no mapped value is itself remapped.
    assert not (set(mapping.values()) & set(mapping.keys()))


def test_load_label_map_tsv(tmp_path):
    path = tmp_path / "map.tsv"
    path.write_text("# comment\nfoo\tbar\n\nbaz\tqux\n", encoding="utf-8")
    assert load_label_map(path) == {"foo": "bar", "baz": "qux"}


def test_load_label_map_names_the_line_of_a_row_without_a_tab(tmp_path):
    path = tmp_path / "map.tsv"
    path.write_text("# comment\nfoo\tbar\n\nnn compound\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_label_map(path)
    assert str(info.value) == f"{path}: line 4: no tab in row 'nn compound'"


def test_normalize_identity_on_valid_sentence():
    sentence = london_gold()
    out = normalize(sentence, {})
    assert out == sentence
    assert out.diagnostics == []


def test_normalize_two_roots_reattaches_parataxis():
    sentence = build_sentence(
        "two-roots",
        [
            ("a", "a", "NOUN", 0, "root"),
            ("b", "b", "NOUN", 0, "root"),
        ],
    )
    out = normalize(sentence, {})
    assert validate(out) == []
    assert out.tokens[0].head == 0
    assert out.tokens[1].head == 1
    assert out.tokens[1].deprel == "parataxis"


def test_normalize_breaks_cycle_at_smallest_id():
    sentence = build_sentence(
        "cycle",
        [
            ("a", "a", "NOUN", 2, "dep"),
            ("b", "b", "NOUN", 1, "dep"),
            ("c", "c", "NOUN", 0, "root"),
        ],
    )
    out = normalize(sentence, {})
    assert validate(out) == []
    assert out.tokens[0].head == 3  # smallest cycle member re-headed to root


def test_normalize_breaks_disjoint_cycles_in_one_pass(monkeypatch):
    from cait import conllu

    # Walk order finds {7,8} (from token 2), then {3,4}, then {5,6}.
    sentence = build_sentence(
        "cycles",
        [("r", "r", "VERB", 0, "root"), ("a", "a", "NOUN", 7, "dep")]
        + [(f, f, "NOUN", head, "dep")
           for f, head in (("b", 4), ("c", 3), ("d", 6), ("e", 5), ("f", 8), ("g", 7))],
    )
    calls = []
    find_cycles = conllu._find_cycles

    def counting_find_cycles(toks):
        calls.append(len(toks))
        return find_cycles(toks)

    monkeypatch.setattr(conllu, "_find_cycles", counting_find_cycles)
    out = normalize(sentence, {})
    assert calls == [8]
    assert [d.message for d in out.diagnostics if d.code == "break-cycle"] == [
        "broke cycle {3,4} at token 3",
        "broke cycle {5,6} at token 5",
        "broke cycle {7,8} at token 7",
    ]
    assert [t.head for t in out.tokens] == [0, 7, 1, 3, 1, 5, 1, 7]
    assert validate(out) == []


def test_normalize_zero_roots_picks_shallowest_cycle_free_token():
    sentence = build_sentence(
        "no-root",
        [
            ("a", "a", "NOUN", 2, "dep"),   # hangs off the cycle at depth 1
            ("b", "b", "NOUN", 3, "dep"),   # cycle {2, 3}
            ("c", "c", "NOUN", 2, "dep"),
        ],
    )
    out = normalize(sentence, {})
    assert validate(out) == []
    assert out.tokens[0].head == 0
    assert out.tokens[0].deprel == "root"


def test_normalize_repairs_mid_sentence_index_reset():
    sentence = build_sentence(
        "reset",
        [
            ("a", "a", "NOUN", 0, "root"),
            ("b", "b", "NOUN", 1, "dep"),
            ("c", "c", "NOUN", 0, "root"),
            ("d", "d", "NOUN", 1, "dep"),
        ],
    )
    sentence.tokens[2].id = 1  # second segment restarts at 1
    sentence.tokens[3].id = 2
    out = normalize(sentence, {})
    assert validate(out) == []
    assert [t.id for t in out.tokens] == [1, 2, 3, 4]
    # "d" referred to id 1; the nearest preceding occurrence is token 3.
    assert out.tokens[3].head == 3


def test_normalize_renumbers_enhanced_dependencies_with_the_heads():
    # Ids 10-12 become 1-3. A DEPS head follows as HEAD does: an integer head
    # to the token it named, a decimal head with its anchor, head 0 stays;
    # an item whose head is no token is dropped, and an emptied DEPS is "_".
    data = (
        "# sent_id = d1\n"
        "10\tI\tI\tPRON\t_\t_\t11\tnsubj\t11:nsubj|11.1:nsubj:xsubj\t_\n"
        "11\tgo\tgo\tVERB\t_\t_\t0\troot\t0:root|40:dep\t_\n"
        "11.1\tgo\tgo\tVERB\t_\t_\t_\t_\t11:conj|10:nsubj\t_\n"
        "12\t.\t.\tPUNCT\t_\t_\t11\tpunct\t40:dep\t_\n\n"
    )
    sentence = read_conllu(data.encode("utf-8"), Strictness.LENIENT).sentences[0]
    out = normalize(sentence)
    assert [t.deps for t in out.tokens] == ["2:nsubj|2.1:nsubj:xsubj", "0:root", "_"]
    assert out.empty_nodes[0].columns == (
        "2.1", "go", "go", "VERB", "_", "_", "_", "_", "2:conj|1:nsubj", "_"
    )
    assert normalize(out) == out


def test_normalize_idempotent_and_count_preserving_on_malformed():
    rng = random.Random(11)
    label_map = default_label_map()
    for i in range(150):
        broken = random_malformed_sentence(rng, f"m-{i}")
        n_before = len(broken.tokens)
        once = normalize(broken, label_map)
        assert len(once.tokens) == n_before
        assert validate(once) == []
        twice = normalize(once, label_map)
        assert twice == once


def test_normalize_logs_repairs_in_diagnostics():
    sentence = build_sentence(
        "log",
        [
            ("a", "a", "NOUN", 0, "root"),
            ("b", "b", "NOUN", 0, "root"),
        ],
    )
    out = normalize(sentence, {})
    assert any(isinstance(d, Diagnostic) and d.code == "extra-root"
               for d in out.diagnostics)


# Every repair that normalize makes, pinned: rootless, cyclic, multi-root,
# dangling and renumbered trees, a third of them with an added multiword
# range. The digest covers the written output and every diagnostic in order.
_MALFORMED_NORMALIZE_DIGEST = "a7d9168c27fe5c18c850f391af3706ad0f17e3653fd830295ae61aeebef13990"


def test_normalize_of_malformed_input_matches_recorded_digest():
    rng = random.Random(29)
    label_map = {"obl": "nmod", "advmod": "root"}  # a mapped root label too
    out = []
    for i in range(600):
        sentence = random_malformed_sentence(rng, f"m{i}")
        if i % 3 == 0:
            start = rng.randint(0, len(sentence.tokens))
            sentence.mwt.append(MWTRange(start, start + rng.randint(-1, 3), "xy"))
        out.append(normalize(sentence, label_map))
    diags = [(s.sent_id, d) for s in out for d in s.diagnostics]
    assert {d.code for _, d in diags} == {
        "add-root", "break-cycle", "drop-mwt", "extra-root", "reattach",
        "relabel", "renumber", "root-label",
    }
    text = "".join(map(sentence_text, out)) + "".join(
        f"{sent_id} {d.code} {d.message} {d.token_ids}\n" for sent_id, d in diags
    )
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == _MALFORMED_NORMALIZE_DIGEST


def test_role_map_names_the_line_of_a_bad_role(tmp_path):
    from cait.conllu import load_role_map

    path = tmp_path / "roles.tsv"
    path.write_text("# code\trole\n\nCHI\tCS\nGRA\tXyz \n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_role_map(path)
    assert str(info.value) == f"{path}: line 4: 'Xyz' is not a speaker role"


def test_token_copy_carries_every_field_and_never_shares_feats():
    import dataclasses

    tok = Token(3, "dogs", "dog", "NOUN", "NNS", {"Number": "Plur"}, 2, "obj",
                "2:obj", "SpaceAfter=No")
    names = [f.name for f in dataclasses.fields(Token)]
    copy = tok.copy()
    assert [getattr(copy, n) for n in names] == [getattr(tok, n) for n in names]
    assert copy.feats is not tok.feats
    copy.feats["Case"] = "Acc"
    assert tok.feats == {"Number": "Plur"}
    changed = tok.copy(head=0, deprel="root", upos="PROPN")
    assert (changed.head, changed.deprel, changed.upos) == (0, "root", "PROPN")
    assert (tok.head, tok.deprel, tok.upos) == (2, "obj", "NOUN")
    assert changed.feats == tok.feats and changed.feats is not tok.feats
    values = {"id": 9, "head": 9, "feats": {"Poss": "Yes"}}
    for name in names:
        value = values.get(name, "x")
        assert getattr(tok.copy(**{name: value}), name) == value, name


# ---------------------------------------------------------------------------
# Every line a lenient read keeps is written back
# ---------------------------------------------------------------------------

def _token_line(tid: int, head: int) -> str:
    return f"{tid}\tw\tw\tNOUN\t_\t_\t{head}\t{'root' if head == 0 else 'dep'}\t_\t_"


def _range_line(start: int, end: int) -> str:
    return f"{start}-{end}\tww\t_\t_\t_\t_\t_\t_\t_\t_"


def _lenient_rewrite(lines: list[str]) -> tuple[str, str]:
    """The written form of a lenient read of one sentence, and its input."""
    text = "\n".join(["# sent_id = w", *lines]) + "\n\n"
    tb = read_conllu(text.encode("utf-8"), Strictness.LENIENT)
    out = io.StringIO()
    write_conllu(tb, out)
    assert roundtrip(tb).sentences == tb.sentences
    return out.getvalue(), text


def test_writer_keeps_an_empty_node_whose_anchor_is_no_token():
    out, text = _lenient_rewrite([
        _range_line(3, 4), _token_line(3, 0), _token_line(4, 3),
        "5.1\te\t_\t_\t_\t_\t_\t_\t_\t_",
    ])
    assert out == text


def test_writer_keeps_a_range_whose_start_is_no_token():
    out, _ = _lenient_rewrite([
        _token_line(1, 0), "7.1\te\t_\t_\t_\t_\t_\t_\t_\t_", _range_line(5, 6),
        _token_line(2, 1),
    ])
    # Orphans follow the last token, ranges first, each kind in read order.
    assert out.splitlines()[1:-1] == [
        _token_line(1, 0), _token_line(2, 1), _range_line(5, 6),
        "7.1\te\t_\t_\t_\t_\t_\t_\t_\t_",
    ]


def test_writer_keeps_both_ranges_with_one_start():
    out, text = _lenient_rewrite([
        _range_line(1, 2), _range_line(1, 3),
        _token_line(1, 0), _token_line(2, 1), _token_line(3, 1),
    ])
    assert out == text


def test_two_column_tables_name_a_row_without_a_tab(tmp_path):
    from cait.conllu import load_label_map, load_role_map
    from cait.cxntag import load_gold_labels

    path = tmp_path / "table.tsv"
    path.write_text("# code\trole\n\nchi CS\n", encoding="utf-8")
    for load in (load_role_map, load_label_map, load_gold_labels):
        with pytest.raises(ValueError) as info:
            load(path)
        assert str(info.value) == f"{path}: line 3: no tab in row 'chi CS'", load


@pytest.mark.parametrize("loader, text, error", [
    ("load_gold_labels", "x\tFOR\ny\tSPI\n\n x \tSPT\n", "line 4: 'x' repeats line 1"),
    ("load_label_map", "dobj\tobj\nnn\tcompound\ndobj\tobj\n",
     "line 3: 'dobj' repeats line 1"),
    # A role map compares speaker codes in lower case.
    ("load_role_map", "CHI\tCS\nMOT\tCDS\nchi\tCDS\n", "line 3: 'chi' repeats line 1"),
])
def test_two_column_tables_reject_a_repeated_key(tmp_path, loader, text, error):
    from cait import conllu, cxntag

    path = tmp_path / "table.tsv"
    path.write_text(text, encoding="utf-8")
    load = getattr(conllu, loader, None) or getattr(cxntag, loader)
    with pytest.raises(ValueError) as info:
        load(path)
    assert str(info.value) == f"{path}: {error}"
