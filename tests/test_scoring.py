"""Corpus scoring vs. the brute-force reference, plus pinned values."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import annotations, chosen_annotators, corpora_with_hypotheses, vocab
from geckit.align import apply_edits, extract_edits
from geckit.corpus import Edit, GoldSentence, SystemOutput, TokenSentence, ValidationError
from geckit.scoring import (
    ScoreReport,
    best_annotator,
    f_beta,
    prf,
    report_table,
    report_tsv,
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
    report = score_corpus(as_output("I like turtles ."), gold, extract_edits)
    assert prf(*report) == (1.0, 1.0, 1.0)


def test_unedited_hypothesis_has_perfect_precision_zero_recall():
    gold = [gs("I likes turtles .", [Edit(1, 2, ("like",))])]
    report = score_corpus(as_output("I likes turtles ."), gold, extract_edits)
    assert prf(*report)[:2] == (1.0, 0.0)  # proposed nothing, broke nothing
    assert report.f05 == 0.0


def test_single_annotator_closed_form():
    gold = [
        gs("a b c d", [Edit(0, 1, ("x",)), Edit(2, 3, ("y",))]),
        gs("e f g", [Edit(1, 2, ("z",))]),
    ]
    # hyp gets one of two edits right in sentence 0, proposes a wrong one in 1
    report = score_corpus(as_output("x b c d", "e q g"), gold, extract_edits)
    assert report == (1, 2, 3)
    assert math.isclose(prf(*report)[0], 0.5)
    assert math.isclose(prf(*report)[1], 1 / 3)
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
    report = score_corpus(as_output("x b c"), gold, extract_edits)
    assert report.f05 == 1.0
    assert best_annotator([Edit(0, 1, ("x",))], gold[0]) == (1, (1, 1, 1))


def test_tie_goes_to_lowest_annotator_id():
    gold = [gs("a b c", [Edit(0, 1, ("x",))], [Edit(0, 1, ("x",))])]
    assert best_annotator([Edit(0, 1, ("x",))], gold[0]) == (0, (1, 1, 1))


def test_length_mismatch_rejected():
    gold = [gs("a b", [Edit(0, 1, ("x",))])]
    with pytest.raises(ValidationError):
        score_corpus(as_output("x b", "extra sentence"), gold, extract_edits)


@settings(max_examples=300, deadline=None)
@given(corpora_with_hypotheses())
def test_matches_brute_force(corpus):
    """The running-totals shortcut equals per-step re-summation from scratch."""
    gold, hyps = corpus
    report = score_corpus(SystemOutput("h", tuple(hyps)), gold, extract_edits)
    counts, assignment = reference.score_corpus(hyps, gold)
    assert report == counts
    assert prf(*report) == reference.prf(*counts)
    assert chosen_annotators(gold, hyps) == assignment


@settings(max_examples=150, deadline=None)
@given(corpora_with_hypotheses())
def test_identity_hypothesis_never_loses_precision(corpus):
    gold, _ = corpus
    hyps = [g.source for g in gold]
    report = score_corpus(SystemOutput("h", tuple(hyps)), gold, extract_edits)
    assert prf(*report)[0] == 1.0
    assert report.n_proposed == 0


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
    table = report_table(score_corpus(as_output("I like turtles ."), gold, extract_edits))
    assert "100.0" in table
    assert "F0.5" in table


def test_a_report_is_its_three_counts():
    gold = [gs("a b c d", [Edit(0, 1, ("x",)), Edit(2, 3, ("y",))])]
    report = score_corpus(as_output("x b c q"), gold, extract_edits)
    assert report._fields == ("n_correct", "n_proposed", "n_gold")
    assert report == (1, 2, 2) and all(type(n) is int for n in report)
    assert report.f05 == prf(*report)[2] == prf(1, 2, 2)[2]
    assert report_tsv(report) == "P\tR\tF0.5\tn_correct\tn_proposed\tn_gold\n" \
        "50.0\t50.0\t50.0\t1\t2\t2\n"


# --------------------------------------------------------------------------
# the annotator choice and the corpus totals against the reference


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
    base = (n_correct, n_correct + draw(st.integers(0, 4)), n_correct + draw(st.integers(0, 4)))
    return draw(st.permutations(hyp)), gold, draw(st.sampled_from([(0, 0, 0), base]))


@settings(max_examples=500, deadline=None)
@given(annotator_choices())
def test_best_annotator_equals_per_annotator_counts(choice):
    hyp, gold, base = choice
    assert best_annotator(hyp, gold, ScoreReport(*base)) == reference.best_annotator(hyp, gold, base)


def _mutated(rng, source):
    """source with each token kept, substituted or deleted, and insertions."""
    out = []
    for token in source:
        roll = rng.random()
        if roll < 0.2:
            out.append(rng.choice(vocab(3, "r")))
        elif roll >= 0.3:
            out.append(token)
        if rng.random() < 0.1:
            out.append(rng.choice(vocab(3, "r")))
    return TokenSentence(out)


def _seeded_corpus(rng):
    """A gold corpus of 1-4 annotators per sentence, some of them repeated
    (full key ties), and a hypothesis that often makes one annotator's
    corrections exactly, so that annotators also tie on single counts."""
    gold, hyps = [], []
    for _ in range(rng.randint(1, 12)):
        source = TokenSentence(rng.choice(vocab(4)) for _ in range(rng.randint(1, 8)))
        anns = []
        for _ in range(rng.randint(1, 4)):
            if anns and rng.random() < 0.3:
                anns.append(rng.choice(anns))
            else:
                anns.append(extract_edits(source, _mutated(rng, source)))
        gold.append(GoldSentence(source, tuple(anns)))
        roll = rng.random()
        if roll < 0.4:
            hyps.append(apply_edits(source, rng.choice(anns)))
        elif roll < 0.5:
            hyps.append(source)
        else:
            hyps.append(_mutated(rng, source))
    return gold, SystemOutput("hyp", tuple(hyps))


def test_score_corpus_equals_summed_sentence_counts():
    rng = random.Random(20261019)
    repeated = 0
    for _ in range(2_000):
        gold, hyp = _seeded_corpus(rng)
        totals, chosen = reference.score_corpus(hyp.sentences, gold)
        assert score_corpus(hyp, gold, extract_edits) == totals
        assert chosen_annotators(gold, hyp.sentences) == chosen
        repeated += any(len(set(g.annotations)) < len(g.annotations) for g in gold)
    assert repeated >= 500, repeated
