"""Gold-informed upper bounds: edit selection and candidate selection."""

import pytest
from hypothesis import given, settings

from conftest import oracle_corpora, oracle_ensemble_one, oracle_rank_one
from geckit.align import EditTable, extract_edits
from geckit.corpus import Edit, GoldSentence, SystemOutput, TokenSentence, ValidationError
from geckit.oracle import choices_tsv, oracle_ensemble_corpus, oracle_rank_corpus
from geckit.scoring import f_beta, prf, score_corpus


def members(*pairs):
    return [(name, TokenSentence(text.split())) for name, text in pairs]


def gs(src: str, *anns):
    return GoldSentence(TokenSentence(src.split()), tuple(tuple(a) for a in anns) or ((),))


def test_ensemble_keeps_only_gold_edits():
    gold = gs("a b c d", [Edit(0, 1, ("x",)), Edit(2, 3, ("y",))])
    outputs = members(
        ("s1", "x b c d"),   # gold edit
        ("s2", "a b q d"),   # not in gold
        ("s3", "a b y d"),   # gold edit
    )
    assert oracle_ensemble_one(gold, outputs).text == "x b y d"


def test_ensemble_picks_annotation_with_largest_intersection():
    gold = gs(
        "a b c d",
        [Edit(0, 1, ("x",))],
        [Edit(0, 1, ("q",)), Edit(2, 3, ("y",))],
    )
    outputs = members(("s1", "q b c d"), ("s2", "a b y d"))
    # both of annotator 1's edits are in the pool, only correcting to x
    # would favor annotator 0
    assert oracle_ensemble_one(gold, outputs).text == "q b y d"


def test_ensemble_intersection_tie_prefers_lowest_annotator():
    gold = gs("a b c", [Edit(0, 1, ("x",))], [Edit(2, 3, ("y",))])
    outputs = members(("s1", "x b c"), ("s2", "a b y"))
    # one pool edit per annotation; annotator 0 wins the tie
    assert oracle_ensemble_one(gold, outputs).text == "x b c"


def test_ensemble_with_no_usable_edits_returns_source():
    gold = gs("a b c", [Edit(0, 1, ("x",))])
    outputs = members(("s1", "a q c"))
    assert oracle_ensemble_one(gold, outputs) == gold.source


def test_ensemble_drops_adjacent_gold_pair_to_protect_precision():
    # each member contributes one of two touching gold edits; applying both
    # would re-extract as the single merged edit (1, 3, (x, y)), which is
    # in no annotation, so the later one is sacrificed
    gold = gs("a b c d e", [Edit(1, 2, ("x",)), Edit(2, 3, ("y",))])
    outputs = members(("s1", "a x c d e"), ("s2", "a b y d e"))
    ensembled = oracle_ensemble_one(gold, outputs)
    assert ensembled.text == "a x c d e"
    report = score_corpus(
        SystemOutput("ens", (ensembled,)), [gold], EditTable()
    )
    assert prf(*report)[0] == 1.0
    assert report == (1, 1, 2)


def test_rank_picks_best_candidate():
    # gold edits kept non-adjacent so candidate edits re-extract one-to-one
    gold = gs("a b c d", [Edit(0, 1, ("x",)), Edit(2, 3, ("y",))])
    outputs = members(("worse", "x b c d"), ("better", "x b y d"), ("noop", "a b c d"))
    name, sentence = oracle_rank_one(gold, outputs)
    assert name == "better"
    assert sentence.text == "x b y d"


def test_rank_tie_keeps_input_order():
    gold = gs("a b c", [Edit(0, 1, ("x",))])
    outputs = members(("first", "x b c"), ("second", "x b c"))
    assert oracle_rank_one(gold, outputs)[0] == "first"
    assert oracle_rank_one(gold, list(reversed(outputs)))[0] == "second"


def test_rank_uses_most_favorable_annotator_per_candidate():
    gold = gs("a b c", [Edit(0, 1, ("x",))], [Edit(0, 1, ("z",))])
    outputs = members(("sx", "x b c"), ("sz", "z b c"))
    # each candidate is perfect under one annotator; first wins the tie
    assert oracle_rank_one(gold, outputs)[0] == "sx"


def test_rank_requires_candidates():
    gold = gs("a b", [Edit(0, 1, ("x",))])
    with pytest.raises(ValidationError):
        oracle_rank_one(gold, [])


def test_corpus_wrappers_misalignment_rejected():
    gold = [gs("a b", [Edit(0, 1, ("x",))])]
    short = [SystemOutput("s", ())]
    with pytest.raises(ValidationError):
        oracle_ensemble_corpus(gold, short, EditTable())
    with pytest.raises(ValidationError):
        oracle_rank_corpus(gold, short, EditTable())


def test_audit_trail_and_tsv():
    gold = [gs("a b", [Edit(0, 1, ("x",))])]
    outputs = [SystemOutput("s", (TokenSentence("x b".split()),))]
    combined, choices = oracle_rank_corpus(gold, outputs, EditTable())
    assert combined.sentences[0].text == "x b"
    assert choices[0].system == "s"
    text = choices_tsv(choices)
    assert text.splitlines()[0] == "sentence_index\tmethod\tannotator\tsystem\tn_selected"
    assert "oracle-rank" in text


# --------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(oracle_corpora())
def test_ensemble_precision_is_always_perfect(corpus):
    """Every applied edit is a gold edit, so precision stays at 1.0."""
    gold, outputs = corpus
    combined, _ = oracle_ensemble_corpus(gold, outputs, EditTable())
    report = score_corpus(combined, gold, EditTable())
    assert prf(*report)[0] == 1.0


@settings(max_examples=100, deadline=None)
@given(oracle_corpora())
def test_ensemble_is_member_order_invariant(corpus):
    gold, outputs = corpus
    baseline, _ = oracle_ensemble_corpus(gold, outputs, EditTable())
    flipped, _ = oracle_ensemble_corpus(gold, list(reversed(outputs)), EditTable())
    assert baseline.sentences == flipped.sentences


@settings(max_examples=100, deadline=None)
@given(oracle_corpora())
def test_rank_selection_dominates_per_sentence(corpus):
    """Each selected sentence has the best local (F0.5, correct, -proposed).

    Checked per sentence, not on the corpus score: the corpus metric picks
    annotators greedily across sentences, so sentence-local optimality does
    not translate into a corpus-level guarantee against every member.
    """
    gold, outputs = corpus
    combined, _ = oracle_rank_corpus(gold, outputs, EditTable())

    def local_key(source, sentence, gs):
        hyp = set(extract_edits(source, sentence))
        best = None
        for ann in gs.annotations:
            n_correct, n_proposed, n_gold = len(hyp & set(ann)), len(hyp), len(set(ann))
            p = n_correct / n_proposed if n_proposed else 1.0
            r = n_correct / n_gold if n_gold else 1.0
            key = (f_beta(p, r), n_correct, -n_proposed)
            best = key if best is None else max(best, key)
        return best

    for i, gs in enumerate(gold):
        chosen = local_key(gs.source, combined.sentences[i], gs)
        assert combined.sentences[i] in {out.sentences[i] for out in outputs}
        for out in outputs:
            assert chosen >= local_key(gs.source, out.sentences[i], gs)


@settings(max_examples=80, deadline=None)
@given(oracle_corpora(max_systems=1))
def test_rank_with_single_member_is_that_member(corpus):
    gold, outputs = corpus
    combined, choices = oracle_rank_corpus(gold, outputs, EditTable())
    assert combined.sentences == outputs[0].sentences
    assert all(c.system == outputs[0].name for c in choices)
