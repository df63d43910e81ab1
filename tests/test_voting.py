"""Majority-vote ensembling: agreement thresholds, ordering, invariances."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sentence_pairs, vocab
from geckit.corpus import Edit, SystemOutput, TokenSentence, ValidationError, conflicts
from geckit.vote import majority_vote, majority_vote_corpus, pool_edits, voted_edits


def members(*pairs):
    """[(name, text)] -> the per-sentence input shape."""
    return [(name, TokenSentence(text.split())) for name, text in pairs]


def out(name, *sentences):
    return SystemOutput(name, tuple(TokenSentence(s.split()) for s in sentences))


SRC = TokenSentence("I likes turtles very much .".split())


def test_unanimous_edit_survives_any_threshold_below_count():
    systems = members(*((n, "I like turtles very much .") for n in "abc"))
    for n_min in (0, 1, 2):
        assert majority_vote(SRC, systems, n_min).text == "I like turtles very much ."
    # strictly-greater: 3 votes do not clear a threshold of 3
    assert majority_vote(SRC, systems, 3).text == SRC.text


def test_minority_edit_dropped():
    systems = members(
        ("a", "I like turtles very much ."),
        ("b", "I like turtles very much ."),
        ("c", "I likes turtles a lot ."),
    )
    assert majority_vote(SRC, systems, 1).text == "I like turtles very much ."


def test_overlap_resolved_by_vote_count():
    # 2 systems say like, 1 says love: same span, the majority edit wins
    systems = members(
        ("a", "I like turtles very much ."),
        ("b", "I like turtles very much ."),
        ("c", "I love turtles very much ."),
    )
    assert majority_vote(SRC, systems, 0).text == "I like turtles very much ."


def test_vote_tie_broken_by_span_then_replacement():
    src = TokenSentence("a b c".split())
    systems = members(("s1", "x b c"), ("s2", "y b c"))
    # one vote each, overlapping: (0,1,x) sorts before (0,1,y)
    assert majority_vote(src, systems, 0).text == "x b c"


def test_pool_reports_votes_and_members():
    src = TokenSentence("a b c".split())
    systems = members(("s1", "x b c"), ("s2", "x b c"), ("s3", "a b q"))
    pool = pool_edits(src, systems)
    assert [(ve.edit, ve.votes) for ve in pool] == [
        (Edit(0, 1, ("x",)), 2),
        (Edit(2, 3, ("q",)), 1),
    ]
    assert pool[0].systems == frozenset({"s1", "s2"})


def test_voted_edits_is_the_application_order():
    src = TokenSentence("a b c d".split())
    systems = members(("s1", "x b c y"), ("s2", "x b c d"), ("s3", "a b c y"))
    kept = voted_edits(src, systems, 0)
    # higher-voted edit first, then position order
    assert kept == [Edit(0, 1, ("x",)), Edit(3, 4, ("y",))]


def test_nested_insertion_not_applied_alongside_outer_edit():
    # two systems replace "a b", a third inserts inside that span; applying
    # both is incoherent, so the lower-voted insertion is skipped
    src = TokenSentence("a b c".split())
    systems = members(("s1", "x c"), ("s2", "x c"), ("s3", "a y b c"))
    assert majority_vote(src, systems, 0).text == "x c"


def test_threshold_saturates_at_system_count():
    systems = members(*((n, "I like turtles very much .") for n in "abcd"))
    assert majority_vote(SRC, systems, 4).text == SRC.text  # 4 votes, need >4


def test_single_system_low_threshold_is_identity_of_that_system():
    systems = members(("only", "I like turtles a lot ."))
    assert majority_vote(SRC, systems, 0).text == "I like turtles a lot ."


def test_corpus_wrapper_validates_and_names():
    sources = [TokenSentence("a b".split())]
    systems = [out("s1", "x b"), out("s2", "x b")]
    ensemble = majority_vote_corpus(sources, systems, 1)
    assert ensemble.name == "majority-vote(n_min=1)[s1+s2]"
    assert ensemble.sentences[0].text == "x b"
    with pytest.raises(ValidationError):
        majority_vote_corpus(sources, systems, -1)
    with pytest.raises(ValidationError):
        majority_vote_corpus(sources, systems, 3)  # n_min > N_sys
    with pytest.raises(ValidationError):
        majority_vote_corpus(sources, [out("s1", "x b", "too long")], 0)


def test_corpus_wrapper_custom_name():
    sources = [TokenSentence("a b".split())]
    ensemble = majority_vote_corpus(sources, [out("s1", "x b")], 0, name="mine")
    assert ensemble.name == "mine"


# --------------------------------------------------------------------------


@st.composite
def vote_instances(draw, max_systems=4):
    alphabet = vocab(draw(st.integers(2, 6)))
    source = TokenSentence(
        draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=8))
    )
    n_sys = draw(st.integers(1, max_systems))
    systems = [
        (
            f"s{k}",
            TokenSentence(
                draw(st.lists(st.sampled_from(alphabet), min_size=0, max_size=8))
            ),
        )
        for k in range(n_sys)
    ]
    return source, systems


@settings(max_examples=200, deadline=None)
@given(vote_instances())
def test_survivor_sets_nest_as_threshold_grows(instance):
    """Before overlap skipping, raising n_min only removes edits."""
    source, systems = instance
    pool = pool_edits(source, systems)
    previous = None
    for n_min in range(len(systems) + 1):
        survivors = {ve.edit for ve in pool if ve.votes > n_min}
        if previous is not None:
            assert survivors <= previous
        previous = survivors


@settings(max_examples=100, deadline=None)
@given(vote_instances(max_systems=4), st.integers(0, 3))
def test_permutation_invariance(instance, n_min):
    """Output never depends on the order member systems are listed in."""
    source, systems = instance
    n_min = min(n_min, len(systems))
    baseline = majority_vote(source, systems, n_min)
    for perm in itertools.permutations(systems):
        assert majority_vote(source, list(perm), n_min) == baseline


@settings(max_examples=150, deadline=None)
@given(vote_instances())
def test_applied_edits_cleared_the_threshold_and_are_compatible(instance):
    source, systems = instance
    pool = {ve.edit: ve.votes for ve in pool_edits(source, systems)}
    for n_min in range(len(systems)):
        kept = voted_edits(source, systems, n_min)
        assert all(pool[e] > n_min for e in kept)
        for i, a in enumerate(kept):
            for b in kept[i + 1 :]:
                assert not conflicts(a, b)


@settings(max_examples=100, deadline=None)
@given(sentence_pairs())
def test_self_ensemble_reproduces_the_system(pair):
    # N copies of one system at n_min < N return exactly its output
    src, hyp = pair
    source = TokenSentence(src)
    systems = [(f"c{i}", TokenSentence(hyp)) for i in range(3)]
    assert tuple(majority_vote(source, systems, 2)) == hyp
