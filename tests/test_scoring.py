"""Corpus scoring vs. an independent brute-force oracle, plus pinned values."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import brute_force_score
from conftest import annotations, corpora_with_hypotheses, vocab
from geckit.align import EditTable
from geckit.corpus import Edit, GoldSentence, SystemOutput, TokenSentence, ValidationError
from geckit.scoring import (
    SentenceCounts,
    best_annotator,
    f_beta,
    prf,
    report_table,
    round_score,
    score_cell,
    score_corpus,
)


def gs(src: str, *anns):
    return GoldSentence(
        TokenSentence(src.split()), tuple(tuple(a) for a in anns) or ((),)
    )


def as_output(*sentences):
    return SystemOutput("hyp", tuple(TokenSentence(s.split()) for s in sentences))


def test_f_beta_values():
    assert f_beta(1.0, 1.0) == 1.0
    assert f_beta(0.0, 1.0) == 0.0
    assert f_beta(1.0, 0.0) == 0.0
    # precision 1, recall 1/2: (1 + 0.25) * 0.5 / (0.25 + 0.5)
    assert math.isclose(f_beta(1.0, 0.5), 0.625 / 0.75)
    assert math.isclose(f_beta(0.5, 0.5), 0.5)


def test_f_beta_weights_precision_over_recall():
    assert f_beta(0.8, 0.4) > f_beta(0.4, 0.8)


def test_perfect_hypothesis_scores_one():
    gold = [gs("I likes turtles .", [Edit(1, 2, ("like",))])]
    report = score_corpus(as_output("I like turtles ."), gold, EditTable())
    assert (report.precision, report.recall, report.f05) == (1.0, 1.0, 1.0)


def test_unedited_hypothesis_has_perfect_precision_zero_recall():
    gold = [gs("I likes turtles .", [Edit(1, 2, ("like",))])]
    report = score_corpus(as_output("I likes turtles ."), gold, EditTable())
    assert report.precision == 1.0  # proposed nothing, broke nothing
    assert report.recall == 0.0
    assert report.f05 == 0.0


def test_single_annotator_closed_form():
    gold = [
        gs("a b c d", [Edit(0, 1, ("x",)), Edit(2, 3, ("y",))]),
        gs("e f g", [Edit(1, 2, ("z",))]),
    ]
    # hyp gets one of two edits right in sentence 0, proposes a wrong one in 1
    report = score_corpus(as_output("x b c d", "e q g"), gold, EditTable())
    assert report.totals == (1, 2, 3)
    assert math.isclose(report.precision, 0.5)
    assert math.isclose(report.recall, 1 / 3)
    assert math.isclose(report.f05, f_beta(0.5, 1 / 3))


def test_annotator_choice_maximizes_f():
    # annotator 0 matches nothing, annotator 1 matches the proposal
    gold = [
        gs(
            "a b c",
            [Edit(0, 1, ("q",))],
            [Edit(0, 1, ("x",))],
        )
    ]
    report = score_corpus(as_output("x b c"), gold, EditTable())
    assert report.f05 == 1.0
    assert report.per_sentence[0][0] == 1  # chosen annotator id


def test_tie_goes_to_lowest_annotator_id():
    gold = [gs("a b c", [Edit(0, 1, ("x",))], [Edit(0, 1, ("x",))])]
    report = score_corpus(as_output("x b c"), gold, EditTable())
    assert report.per_sentence[0][0] == 0


def test_length_mismatch_rejected():
    gold = [gs("a b", [Edit(0, 1, ("x",))])]
    with pytest.raises(ValidationError):
        score_corpus(as_output("x b", "extra sentence"), gold, EditTable())


@settings(max_examples=300, deadline=None)
@given(corpora_with_hypotheses())
def test_matches_brute_force(corpus):
    """The running-totals shortcut equals per-step re-summation from scratch."""
    gold, hyps = corpus
    report = score_corpus(SystemOutput("h", tuple(hyps)), gold, EditTable())
    p, r, f, c, np_, g, assignment = brute_force_score(hyps, gold)
    assert tuple(report.totals) == (c, np_, g)
    assert abs(report.f05 - f) < 1e-12
    assert abs(report.precision - p) < 1e-12
    assert abs(report.recall - r) < 1e-12
    assert [ann for ann, _ in report.per_sentence] == assignment


@settings(max_examples=150, deadline=None)
@given(corpora_with_hypotheses())
def test_identity_hypothesis_never_loses_precision(corpus):
    gold, _ = corpus
    hyps = [g.source for g in gold]
    report = score_corpus(SystemOutput("h", tuple(hyps)), gold, EditTable())
    assert report.precision == 1.0
    assert report.totals.n_proposed == 0


def test_round_score_is_half_up_one_decimal():
    assert round_score(0.7185) == 71.9
    assert round_score(0.87249) == 87.2
    assert round_score(0.8725) == 87.3
    assert round_score(1.0) == 100.0
    assert round_score(0.0) == 0.0
    fractions = (0.7185, 0.87249, 0.8725, 1.0, 0.0)
    assert [score_cell(x) for x in fractions] == ["71.9", "87.2", "87.3", "100.0", "0.0"]


def test_report_table_shows_rounded_percentages():
    gold = [gs("I likes turtles .", [Edit(1, 2, ("like",))])]
    table = report_table(score_corpus(as_output("I like turtles ."), gold, EditTable()))
    assert "100.0" in table
    assert "F0.5" in table


# --------------------------------------------------------------------------
# the one-set annotator choice against the per-annotator counts it replaced


def _reference_best_annotator(hyp_edits, gold, base=SentenceCounts(0, 0, 0)):
    """best_annotator as per-annotator counts + plus + prf, frozen for the differential test."""
    best = None
    hyp = set(hyp_edits)
    for ann_id, ann in enumerate(gold.annotations):
        gold_edits = set(ann)
        counts = SentenceCounts(len(hyp & gold_edits), len(hyp), len(gold_edits))
        total = base.plus(counts)
        key = (prf(total)[2], total.n_correct, -total.n_proposed)
        if best is None or key > best[2]:
            best = (ann_id, counts, key)
    return best


@st.composite
def annotator_choices(draw):
    """(hypothesis edits, gold sentence, base counts) with many full key ties:
    annotators repeat, may be empty, and the hypothesis reuses their edits."""
    source = TokenSentence(draw(st.lists(st.sampled_from(vocab(4)), min_size=1, max_size=8)))
    anns = []
    for _ in range(draw(st.integers(1, 4))):
        if anns and draw(st.booleans()):
            anns.append(draw(st.sampled_from(anns)))
        else:
            anns.append(draw(annotations(source, max_edits=3, repl_vocab=vocab(2, "r"))))
    gold = GoldSentence(source, tuple(anns))
    pool = sorted({e for ann in anns for e in ann})
    hyp = draw(st.lists(st.sampled_from(pool), max_size=4)) if pool else []
    hyp += draw(annotations(source, max_edits=2, repl_vocab=vocab(2, "r")))
    n_correct = draw(st.integers(0, 6))
    base = SentenceCounts(
        n_correct, n_correct + draw(st.integers(0, 4)), n_correct + draw(st.integers(0, 4))
    )
    return draw(st.permutations(hyp)), gold, draw(st.sampled_from([SentenceCounts(0, 0, 0), base]))


@settings(max_examples=500, deadline=None)
@given(annotator_choices())
def test_best_annotator_equals_per_annotator_counts(choice):
    hyp, gold, base = choice
    assert best_annotator(hyp, gold, base) == _reference_best_annotator(hyp, gold, base)
