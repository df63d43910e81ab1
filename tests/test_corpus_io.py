"""M2, parallel-text, score-file and edit-TSV round trips and error reporting."""

import random
import re
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import annotations, vocab
from geckit import corpus
from geckit.align import extract_edits
from geckit.corpus import (
    Edit,
    GoldSentence,
    M2ParseError,
    OverlapError,
    SystemOutput,
    TokenSentence,
    ValidationError,
    atomic_write_text,
    load_parallel,
    parse_edit_tsv,
    parse_m2,
    parse_score_file,
    serialize_edit_tsv,
    serialize_m2,
    serialize_score_file,
    tsv,
)
from geckit.ranking import rank_corpus

SAMPLE_M2 = """S I likes turtles very much .
A 1 2|||SVA|||like|||REQUIRED|||-NONE-|||0
A 3 5|||Wci|||a lot|||REQUIRED|||-NONE-|||1

S She go to school yesterday .
A 1 2|||Vt|||went|||REQUIRED|||-NONE-|||0
A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||1
"""


def test_parse_sample():
    gold = parse_m2(SAMPLE_M2)
    assert len(gold) == 2
    assert gold[0].source.text == "I likes turtles very much ."
    assert gold[0].annotations == (
        (Edit(1, 2, ("like",)),),
        (Edit(3, 5, ("a", "lot")),),
    )
    # noop marker registers annotator 1 with an empty set
    assert gold[1].annotations == ((Edit(1, 2, ("went",)),), ())


def test_roundtrip_is_identity():
    gold = parse_m2(SAMPLE_M2)
    assert parse_m2(serialize_m2(gold)) == gold


def test_serialized_form_is_stable():
    text = serialize_m2(parse_m2(SAMPLE_M2))
    assert serialize_m2(parse_m2(text)) == text


def test_empty_replacement_spellings_agree():
    a = parse_m2("S a b\nA 0 1|||X|||-NONE-|||REQUIRED|||-NONE-|||0\n")
    b = parse_m2("S a b\nA 0 1|||X||||||REQUIRED|||-NONE-|||0\n")
    assert a[0].annotations == b[0].annotations == ((Edit(0, 1, ()),),)


def test_stanza_without_a_lines_means_one_empty_annotation():
    gold = parse_m2("S a b c\n")
    assert gold[0].annotations == ((),)


def test_annotator_ids_are_compacted_in_ascending_order():
    text = (
        "S a b c\n"
        "A 0 1|||X|||x|||REQUIRED|||-NONE-|||7\n"
        "A 1 2|||X|||y|||REQUIRED|||-NONE-|||2\n"
    )
    gold = parse_m2(text)
    # id 2 becomes annotator 0, id 7 becomes annotator 1
    assert gold[0].annotations == (
        (Edit(1, 2, ("y",)),),
        (Edit(0, 1, ("x",)),),
    )


@pytest.mark.parametrize(
    "bad, fragment",
    [
        ("S a\nS b\n", "second S line"),
        ("A 0 1|||X|||x|||R|||-NONE-|||0\n", "before any S"),
        ("S a b\nA 0 1|||X|||x|||0\n", "6 |||-separated fields"),
        ("S a b\nA zero 1|||X|||x|||R|||-NONE-|||0\n", "span"),
        ("S a b\nA 0 1|||X|||x|||R|||-NONE-|||seven\n", "annotator"),
        ("S a b\nwhat is this\n", "S or A prefix"),
    ],
)
def test_malformed_lines_raise_with_line_context(bad, fragment):
    with pytest.raises(M2ParseError) as exc:
        parse_m2(bad)
    assert fragment in str(exc.value)
    assert "line" in str(exc.value)


def test_out_of_bounds_span_rejected():
    with pytest.raises(ValidationError):
        parse_m2("S a b\nA 0 5|||X|||x|||R|||-NONE-|||0\n")


def test_noop_edit_rejected():
    # replacing a span with itself corrects nothing
    with pytest.raises(ValidationError):
        parse_m2("S a b\nA 0 1|||X|||a|||R|||-NONE-|||0\n")


def test_overlapping_edits_in_one_annotation_rejected():
    text = (
        "S a b c d\n"
        "A 0 2|||X|||x|||R|||-NONE-|||0\n"
        "A 1 3|||X|||y|||R|||-NONE-|||0\n"
    )
    with pytest.raises(ValidationError):
        parse_m2(text)


def test_gold_conflict_is_an_overlap_error_naming_file_and_stanza(tmp_path):
    # the same conflict in an edit TSV raises OverlapError too
    p = tmp_path / "gold.m2"
    p.write_text(
        "S a b\n\n"
        "S a b c d\n"
        "A 0 2|||X|||x|||R|||-NONE-|||0\n"
        "A 1 3|||X|||y|||R|||-NONE-|||0\n",
        encoding="utf-8",
    )
    with pytest.raises(OverlapError, match=rf"^{re.escape(str(p))}: stanza at line 3: conflicting edits"):
        corpus.load_m2(p)


def test_m2_parse_error_is_a_validation_error():
    assert issubclass(M2ParseError, ValidationError)


def test_insertion_inside_replaced_span_rejected():
    # not caught by the span-overlap predicate, but still unusable
    text = (
        "S a b c\n"
        "A 0 2|||X|||x|||R|||-NONE-|||0\n"
        "A 1 1|||X|||y|||R|||-NONE-|||0\n"
    )
    with pytest.raises(ValidationError):
        parse_m2(text)


def test_same_span_fine_across_annotators():
    text = (
        "S a b c\n"
        "A 0 1|||X|||x|||R|||-NONE-|||0\n"
        "A 0 1|||X|||y|||R|||-NONE-|||1\n"
    )
    gold = parse_m2(text)
    assert len(gold[0].annotations) == 2


def test_alternative_markers_kept_verbatim():
    gold = parse_m2("S a b\nA 0 1|||X|||his||her|||R|||-NONE-|||0\n")
    assert gold[0].annotations[0][0].replacement == ("his||her",)


# ---------------------------------------------------------------------------


def test_load_parallel_rejects_empty_lines(tmp_path):
    p = tmp_path / "x.txt"
    p.write_text("a b\n\nc d\n", encoding="utf-8")
    with pytest.raises(ValidationError) as exc:
        load_parallel(p)
    assert "2" in str(exc.value)


def test_load_parallel_length_check(tmp_path):
    p = tmp_path / "x.txt"
    p.write_text("a b\nc d\n", encoding="utf-8")
    assert len(load_parallel(p, expected_len=2)) == 2
    with pytest.raises(ValidationError):
        load_parallel(p, expected_len=3)


def test_token_sentence_rejects_whitespace_tokens():
    with pytest.raises(ValidationError):
        TokenSentence(("a b",))
    with pytest.raises(ValidationError):
        TokenSentence(("",))


# Every code point that str.isspace() accepts, plus characters that look
# like separators but are not whitespace (zero-width space, word joiner).
_SPACES = [chr(cp) for cp in range(sys.maxunicode + 1) if chr(cp).isspace()]
_LOOKALIKES = ["\u200b", "\u2060", "\ufeff"]


@settings(max_examples=300, deadline=None)
@given(
    st.text(
        alphabet=st.one_of(
            st.sampled_from(_SPACES + _LOOKALIKES), st.characters(), st.sampled_from("ab")
        ),
        max_size=30,
    )
)
def test_parse_equals_validated_construction(text):
    """parse skips the per-token checks; the validating constructor accepts
    the same tokens and builds the same sentence."""
    parsed = TokenSentence.parse(text)
    assert type(parsed) is TokenSentence
    assert parsed == TokenSentence(text.split())


def test_split_and_isspace_agree_on_every_code_point():
    """The fact TokenSentence.parse relies on: a character is a str.split()
    separator exactly when str.isspace() is true of it."""
    disagree = [
        hex(cp)
        for cp in range(sys.maxunicode + 1)
        if (chr(cp).split() == []) != chr(cp).isspace()
    ]
    assert disagree == []


def test_token_check_equals_the_per_character_check_on_every_code_point():
    """TokenSentence rejects a token exactly when a frozen copy of its former
    per-character whitespace test does, for every code point on its own and
    inside a token."""

    def former_rejects(token):
        return any(c.isspace() for c in token)

    def rejects(token):
        try:
            TokenSentence((token,))
        except ValidationError:
            return True
        return False

    disagree = [
        hex(cp)
        for cp in range(sys.maxunicode + 1)
        for token in (chr(cp), f"a{chr(cp)}b")
        if rejects(token) != former_rejects(token)
    ]
    assert disagree == []


def test_gold_sentence_needs_an_annotation():
    with pytest.raises(ValidationError):
        GoldSentence(TokenSentence(("a",)), ())


# ---------------------------------------------------------------------------


def test_score_file_roundtrip():
    text = "system\tsentence_index\tscore\nsysA\t0\t0.25\nsysA\t1\t-1.5\nsysB\t0\t3\n"
    scores = parse_score_file(text)
    assert scores[("sysA", 1)] == -1.5
    assert sorted(scores) == [("sysA", 0), ("sysA", 1), ("sysB", 0)]
    assert parse_score_file(serialize_score_file(scores)) == scores


def test_score_file_header_and_duplicates():
    with pytest.raises(ValidationError):
        parse_score_file("a\tb\tc\nx\t0\t1\n")
    with pytest.raises(ValidationError):
        parse_score_file(
            "system\tsentence_index\tscore\nx\t0\t1\nx\t0\t2\n"
        )


@pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "Infinity"])
def test_score_file_rejects_non_finite_scores(value):
    # no comparison ranks a NaN, so it would make the choice depend on member order
    with pytest.raises(ValidationError) as exc:
        parse_score_file(f"system\tsentence_index\tscore\nx\t0\t1\nx\t1\t{value}\n")
    assert str(exc.value) == f"score file line 3: non-finite score {value!r}"


def test_score_file_missing_entry_names_the_hole():
    scores = parse_score_file("system\tsentence_index\tscore\nx\t0\t1\ny\t0\t1\nx\t1\t2\n")
    outputs = [SystemOutput(name, (TokenSentence.parse("a"),) * 2) for name in ("x", "y")]
    with pytest.raises(ValidationError) as exc:
        rank_corpus(outputs, scores)
    assert str(exc.value) == "sentence 1: no score for system 'y'"


def test_tsv_writes_what_the_reader_reads():
    header, rows = ("k", "i", "v"), [("a", "0", "x y"), ("b", "1", "-")]
    text = tsv(header, rows)
    assert text == "k\ti\tv\na\t0\tx y\nb\t1\t-\n"
    assert [tuple(parts) for _, parts in corpus._tsv_rows(text, header, "test")] == rows


@pytest.mark.parametrize(
    "row", [("a\tb", "0"), ("a\nb", "0"), ("a\r", "0"), ("a",), ("a", "0", "1")]
)
def test_tsv_refuses_a_row_the_reader_would_split_differently(row):
    with pytest.raises(ValidationError, match="TSV rows need 2 fields free of tabs and line"):
        tsv(("k", "v"), [("x", "1"), row])


def test_atomic_write_replaces_whole_file(tmp_path):
    p = tmp_path / "out.txt"
    p.write_text("old", encoding="utf-8")
    atomic_write_text(p, "new contents\n")
    assert p.read_text(encoding="utf-8") == "new contents\n"
    assert list(tmp_path.iterdir()) == [p]  # no temp files left behind


# ---------------------------------------------------------------------------


@st.composite
def edit_lists(draw):
    """One coherent edit list per sentence of a small random corpus."""
    sources = draw(
        st.lists(st.lists(st.sampled_from(vocab(5)), min_size=1, max_size=8), max_size=4)
    )
    return sources, [list(draw(annotations(tuple(source)))) for source in sources]


@settings(max_examples=200, deadline=None)
@given(edit_lists())
def test_edit_tsv_roundtrip(sources_and_edits):
    sources, edits = sources_and_edits
    assert parse_edit_tsv(serialize_edit_tsv(edits), sources) == edits


_EDIT_HEADER = "sentence_index\tstart\tend\treplacement\n"


@pytest.mark.parametrize(
    "row, fragment",
    [
        ("0\t1\t2\n", "expected 4 columns"),
        ("0\t1\t2\tx\ty\n", "expected 4 columns"),
        ("0\tone\t2\tx\n", "non-integer field"),
        ("2\t1\t2\tx\n", "sentence 2 not in 0..1"),
        ("-1\t1\t2\tx\n", "sentence -1 not in 0..1"),
        ("1\t0\t9\tx\n", "edit span (0,9) out of bounds for 2-token sentence"),
        ("1\t0\t1\tc\n", "no-op edit at (0,1)"),
        ("0\t0\t2\tx\n", "conflicting edits"),
    ],
)
def test_edit_tsv_rejects_bad_rows_with_their_line(row, fragment):
    with pytest.raises(ValidationError) as exc:
        parse_edit_tsv(_EDIT_HEADER + "0\t0\t1\tok\n" + row, ["a b".split(), "c d".split()])
    assert fragment in str(exc.value)
    assert "line 3" in str(exc.value)


def _parse_edit_tsv_rechecking_every_pair(text, sources):
    """Frozen reference: the per-row loop that re-ran the whole-set check on
    the row's sentence, with a frozen copy of that check."""

    def check_edits(source, edits):
        for e in edits:
            if not (0 <= e.start <= e.end <= len(source)):
                raise ValidationError(
                    f"edit span ({e.start},{e.end}) out of bounds for "
                    f"{len(source)}-token sentence"
                )
            if tuple(e.replacement) == tuple(source[e.start : e.end]):
                raise ValidationError(
                    f"no-op edit at ({e.start},{e.end}): replacement equals source span"
                )
        for i, a in enumerate(edits):
            for b in edits[i + 1 :]:
                if a.start == b.start or a.start < b.start < a.end or b.start < a.start < b.end:
                    raise OverlapError(f"conflicting edits: {a} / {b}")

    lines = text.rstrip("\n").split("\n")
    if lines[0].rstrip("\r") != _EDIT_HEADER.rstrip("\n"):
        raise ValidationError(f"edit file must start with header {_EDIT_HEADER.rstrip()!r}")
    n = len(sources)
    edits = [[] for _ in range(n)]
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.rstrip("\r")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise ValidationError(f"edit file line {lineno}: expected 4 columns")
        try:
            index, start, end = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise ValidationError(f"edit file line {lineno}: non-integer field") from None
        if not 0 <= index < n:
            raise ValidationError(f"edit file line {lineno}: sentence {index} not in 0..{n - 1}")
        repl = () if parts[3] == "-NONE-" else tuple(parts[3].split())
        edits[index].append(Edit(start, end, repl))
        try:
            check_edits(sources[index], edits[index])
        except ValidationError as err:
            raise type(err)(f"edit file line {lineno}: {err}") from None
    return edits


def _random_edit_file(rng):
    """Sources and an edit TSV: the extracted edits of random hypotheses in
    shuffled order, with random rows mixed in about half the time."""
    words = vocab(4)
    sources = [
        [rng.choice(words) for _ in range(rng.randint(1, 8))] for _ in range(rng.randint(1, 4))
    ]
    rows = []
    for i, source in enumerate(sources):
        hyp = [rng.choice(words) for _ in range(rng.randint(0, 9))]
        rows += [(i, e.start, e.end, " ".join(e.replacement) or "-NONE-")
                 for e in extract_edits(source, hyp)]
    if rng.random() < 0.5:
        for _ in range(rng.randint(1, 4)):
            i = rng.randint(-1, len(sources))
            start = rng.randint(-1, 9)
            repl = " ".join(rng.choice(words) for _ in range(rng.randint(0, 2)))
            rows.append((i, start, start + rng.randint(-1, 3), repl or "-NONE-"))
    rng.shuffle(rows)
    text = _EDIT_HEADER + "".join("\t".join(map(str, row)) + "\n" for row in rows)
    if rng.random() < 0.05:
        text += "0\tx\t1\tw0\n"
    return sources, text


def test_edit_tsv_per_row_check_equals_rechecking_every_pair():
    def outcome(parse, text, sources):
        try:
            return parse(text, sources)
        except ValidationError as err:
            return type(err), str(err)

    rng = random.Random(20240801)
    kinds = set()
    for _ in range(3000):
        sources, text = _random_edit_file(rng)
        expected = outcome(_parse_edit_tsv_rechecking_every_pair, text, sources)
        assert outcome(parse_edit_tsv, text, sources) == expected, text
        if isinstance(expected, list):
            kinds.add("valid")
        else:  # the first word after "edit file line N: " names the check
            kinds.add(expected[1].split(": ", 1)[1].split(" ")[0])
    assert kinds == {"valid", "edit", "no-op", "conflicting", "sentence", "non-integer"}


def test_edit_tsv_checks_each_pair_of_rows_once(monkeypatch):
    calls = []
    real = corpus.conflicts
    monkeypatch.setattr(corpus, "conflicts", lambda a, b: calls.append(1) or real(a, b))
    k = 26
    source = [f"t{i}" for i in range(k)]
    rows = "".join(f"0\t{i}\t{i + 1}\tr{i}\n" for i in reversed(range(k)))
    (edits,) = parse_edit_tsv(_EDIT_HEADER + rows, [source])
    assert len(edits) == k
    assert 0 < len(calls) <= k * (k - 1) // 2


# ---------------------------------------------------------------------------
# Token sharing


def test_equal_tokens_read_anywhere_are_one_object(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("The turtles sleep .\n", encoding="utf-8")
    b.write_text("Two turtles slept .\n", encoding="utf-8")
    ((sa,), (sb,)) = load_parallel(a), load_parallel(b)
    assert sa[1] is sb[1]
    (gold,) = parse_m2("S Many turtles .\nA 1 2|||N|||tortoises|||REQUIRED|||-NONE-|||0\n")
    ((tsv_edit,),) = parse_edit_tsv(_EDIT_HEADER + "0\t0\t1\ttortoises turtles\n", [sa])
    assert gold.source[1] is sa[1]
    assert gold.annotations[0][0].replacement[0] is tsv_edit.replacement[0]
    assert tsv_edit.replacement[1] is sa[1]


def test_repeated_lines_cost_one_string_per_distinct_token(tmp_path):
    p = tmp_path / "x.txt"
    line = " ".join(f"repeat{i}" for i in range(20))
    p.write_text((line + "\n") * 2000, encoding="utf-8")
    tracemalloc.start()
    try:
        sentences = load_parallel(p)
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sentences) == 2000
    # With one string per token occurrence this load holds about 3.1 MB.
    assert size < 1_200_000


# ---------------------------------------------------------------------------
# Sentence sharing: loads given one line dict hold one sentence per distinct
# line, and must read exactly what loads without it read.

_SHARED_M2 = (
    "S a b c\nA 0 1|||X|||z|||REQUIRED|||-NONE-|||0\n\n"
    "S d e\r\nA -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\r\n\r\n"
    "S a b c\nA 2 3|||X|||-NONE-|||REQUIRED|||-NONE-|||0\n"
)


def _shared_loads(tmp_path, files):
    """Every file of ``files`` ({name: text}) loaded with one shared dict
    and with none: (shared, unshared) lists of sentence lists."""
    paths = {}
    for name, text in files.items():
        paths[name] = tmp_path / name
        paths[name].write_bytes(text.encode("utf-8"))

    def load(lines):
        return [
            [gs.source for gs in corpus.load_m2(p, lines)] if p.suffix == ".m2"
            else corpus.load_parallel(p, lines=lines)
            for p in paths.values()
        ]

    return load({}), load(None)


def test_shared_line_dict_loads_what_an_unshared_load_loads(tmp_path):
    shared, unshared = _shared_loads(tmp_path, {
        "gold.m2": _SHARED_M2,  # its S lines repeat, one stanza ends in CRLF
        "crlf.txt": "a b c\r\nd e\r\na b c\r\n",
        "no-final-lf.txt": "d e\na b c\nd  e",
        "member.txt": "a b c\nd f\na  b c\n",
    })
    assert shared == unshared
    for a, b in zip(shared, unshared):
        assert [type(s) for s in a] == [type(s) for s in b] == [TokenSentence] * len(a)
    gold, crlf, no_final_lf, member = shared
    # one object per distinct line text, whatever file or line ending it came from
    assert gold[0] is gold[2] is crlf[0] is crlf[2] is no_final_lf[1] is member[0]
    assert gold[1] is crlf[1] is no_final_lf[0]
    # the key is the text, so a line with other spacing is an equal, separate sentence
    assert member[2] == gold[0] and member[2] is not gold[0]
    assert no_final_lf[2] == gold[1] and no_final_lf[2] is not gold[1]


@pytest.mark.parametrize("lines", [None, {}, {"a b": TokenSentence.parse("a b")}])
def test_shared_line_dict_keeps_every_load_error(tmp_path, lines):
    p = tmp_path / "x.txt"
    p.write_text("a b\r\n\r\nc d\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=rf"^{re.escape(str(p))}: line 2 is empty$"):
        load_parallel(p, lines=lines)
    p.write_text("a b\nc d", encoding="utf-8")
    with pytest.raises(ValidationError, match=r"expected 3 sentences, found 2$"):
        load_parallel(p, expected_len=3, lines=lines)
    with pytest.raises(M2ParseError, match=r"^line 4: empty source sentence$"):
        parse_m2("S a b\nA 0 1|||X|||z|||REQUIRED|||-NONE-|||0\n\nS \n", lines)
    gold = parse_m2("S a b\n\nS a c\n", lines)
    p.write_text("a b\na d\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=r"sentence 1 disagrees with the gold M2 source"):
        corpus.check_source_file(p, gold, lines)
