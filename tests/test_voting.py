"""Majority-vote ensembling: agreement thresholds, ordering, invariances."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    corpora_with_hypotheses, kept_one, oracle_corpora, sentence_pairs, vocab, vote_one,
)
from geckit.align import EditTable, apply_edits, extract_edits
from geckit.corpus import Edit, SystemOutput, TokenSentence, ValidationError, conflicts
from geckit.vote import VotedEdit, majority_vote_corpus, pool_corpus, pool_edits


def members(*pairs):
    """[(name, text)] -> the per-sentence input shape."""
    return [(name, TokenSentence(text.split())) for name, text in pairs]


def out(name, *sentences):
    return SystemOutput(name, tuple(TokenSentence(s.split()) for s in sentences))


SRC = TokenSentence("I likes turtles very much .".split())


def test_unanimous_edit_survives_any_threshold_below_count():
    systems = members(*((n, "I like turtles very much .") for n in "abc"))
    for n_min in (0, 1, 2):
        assert vote_one(SRC, systems, n_min).text == "I like turtles very much ."
    # strictly-greater: 3 votes do not clear a threshold of 3
    assert vote_one(SRC, systems, 3).text == SRC.text


def test_minority_edit_dropped():
    systems = members(
        ("a", "I like turtles very much ."),
        ("b", "I like turtles very much ."),
        ("c", "I likes turtles a lot ."),
    )
    assert vote_one(SRC, systems, 1).text == "I like turtles very much ."


def test_overlap_resolved_by_vote_count():
    # 2 systems say like, 1 says love: same span, the majority edit wins
    systems = members(
        ("a", "I like turtles very much ."),
        ("b", "I like turtles very much ."),
        ("c", "I love turtles very much ."),
    )
    assert vote_one(SRC, systems, 0).text == "I like turtles very much ."


def test_vote_tie_broken_by_span_then_replacement():
    src = TokenSentence("a b c".split())
    systems = members(("s1", "x b c"), ("s2", "y b c"))
    # one vote each, overlapping: (0,1,x) sorts before (0,1,y)
    assert vote_one(src, systems, 0).text == "x b c"


def test_pool_reports_votes_and_members():
    src = TokenSentence("a b c".split())
    systems = members(("s1", "x b c"), ("s2", "x b c"), ("s3", "a b q"))
    pool = pool_edits(src, systems, EditTable(), {})
    assert [(ve.edit, ve.votes) for ve in pool] == [
        (Edit(0, 1, ("x",)), 2),
        (Edit(2, 3, ("q",)), 1),
    ]
    assert pool[0].systems == frozenset({"s1", "s2"})


def test_voted_edits_is_the_application_order():
    src = TokenSentence("a b c d".split())
    systems = members(("s1", "x b c y"), ("s2", "x b c d"), ("s3", "a b c y"))
    kept = kept_one(src, systems, 0)
    # higher-voted edit first, then position order
    assert kept == [Edit(0, 1, ("x",)), Edit(3, 4, ("y",))]


def test_nested_insertion_not_applied_alongside_outer_edit():
    # two systems replace "a b", a third inserts inside that span; applying
    # both is incoherent, so the lower-voted insertion is skipped
    src = TokenSentence("a b c".split())
    systems = members(("s1", "x c"), ("s2", "x c"), ("s3", "a y b c"))
    assert vote_one(src, systems, 0).text == "x c"


def test_threshold_saturates_at_system_count():
    systems = members(*((n, "I like turtles very much .") for n in "abcd"))
    assert vote_one(SRC, systems, 4).text == SRC.text  # 4 votes, need >4


def test_single_system_low_threshold_is_identity_of_that_system():
    systems = members(("only", "I like turtles a lot ."))
    assert vote_one(SRC, systems, 0).text == "I like turtles a lot ."


def test_corpus_wrapper_validates_and_names():
    sources = [TokenSentence("a b".split())]
    systems = [out("s1", "x b"), out("s2", "x b")]
    pools = pool_corpus(sources, systems, EditTable())
    ensemble = majority_vote_corpus(sources, pools, ["s1", "s2"], 1)
    assert ensemble.name == "majority-vote(n_min=1)[s1+s2]"
    assert ensemble.sentences[0].text == "x b"
    with pytest.raises(ValidationError):
        majority_vote_corpus(sources, pools, ["s1", "s2"], -1)
    with pytest.raises(ValidationError):
        majority_vote_corpus(sources, pools, ["s1", "s2"], 3)  # n_min > N_sys
    with pytest.raises(ValidationError):
        pool_corpus(sources, [out("s1", "x b", "too long")], EditTable())


@pytest.mark.parametrize("n_pools", [1, 3])
def test_vote_refuses_pools_for_another_sentence_count(n_pools):
    """zip would otherwise drop the sentences past the shorter of the two."""
    sources = [TokenSentence("a b".split()), TokenSentence("c d".split())]
    pools = pool_corpus(sources, [out("s1", "x b", "c d")], EditTable())
    pools = (pools * 2)[:n_pools]
    with pytest.raises(ValidationError, match=f"^{n_pools} vote pools for 2 sentences$"):
        majority_vote_corpus(sources, pools, ["s1"], 0)


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
    pool = pool_edits(source, systems, EditTable(), {})
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
    baseline = vote_one(source, systems, n_min)
    for perm in itertools.permutations(systems):
        assert vote_one(source, list(perm), n_min) == baseline


@settings(max_examples=150, deadline=None)
@given(vote_instances())
def test_applied_edits_cleared_the_threshold_and_are_compatible(instance):
    source, systems = instance
    pool = {ve.edit: ve.votes for ve in pool_edits(source, systems, EditTable(), {})}
    for n_min in range(len(systems)):
        kept = kept_one(source, systems, n_min)
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
    assert tuple(vote_one(source, systems, 2)) == hyp


# --------------------------------------------------------------------------
# Pool once, threshold per run: sweeps and ablations pool each sentence's
# edits over the full member list and let every run count only its own
# members' votes. Checked against a frozen copy of the per-sentence vote.


def _reference_vote(source, outputs, n_min):
    """The vote of one sentence before pooling and thresholding were split:
    pool these members' edits, keep those with more than n_min votes and
    apply them in decreasing-vote order, ties by edit, skipping conflicts."""
    by_edit = {}
    for name, sentence in outputs:
        for edit in extract_edits(source, sentence):
            by_edit.setdefault(edit, set()).add(name)
    survivors = [(edit, len(names)) for edit, names in by_edit.items() if len(names) > n_min]
    survivors.sort(key=lambda pair: (-pair[1], pair[0]))
    kept = []
    for edit, _ in survivors:
        if not any(conflicts(edit, k) for k in kept):
            kept.append(edit)
    return apply_edits(source, kept)


def _full_and_remove_one(outputs):
    yield list(outputs)
    if len(outputs) > 1:
        for k in range(len(outputs)):
            yield [out for j, out in enumerate(outputs) if j != k]


def _assert_pooled_votes_equal_reference(sources, outputs):
    pools = pool_corpus(sources, outputs, EditTable())
    applied = {}  # shared by every run below, as a sweep and an ablation share it
    for subset in _full_and_remove_one(outputs):
        names = [out.name for out in subset]
        own_pools = pool_corpus(sources, subset, EditTable())
        for n_min in range(len(subset) + 1):
            expected = tuple(
                _reference_vote(source, [(out.name, out.sentences[i]) for out in subset], n_min)
                for i, source in enumerate(sources)
            )
            pooled = majority_vote_corpus(sources, pools, names, n_min)
            assert pooled.sentences == expected, (names, n_min)
            assert majority_vote_corpus(sources, own_pools, names, n_min).sentences == expected
            shared = majority_vote_corpus(sources, pools, names, n_min, applied)
            assert shared.sentences == expected, (names, n_min)


def _assert_pooled_votes_ignore_member_order(sources, outputs, rng):
    shuffled = list(outputs)
    rng.shuffle(shuffled)
    pools, shuffled_pools = (
        pool_corpus(sources, outputs, EditTable()), pool_corpus(sources, shuffled, EditTable())
    )
    for subset in _full_and_remove_one(outputs):
        reordered = [out for out in shuffled if out in subset]
        names, reordered_names = [o.name for o in subset], [o.name for o in reordered]
        for n_min in range(len(subset) + 1):
            one = majority_vote_corpus(sources, pools, names, n_min)
            two = majority_vote_corpus(sources, shuffled_pools, reordered_names, n_min)
            assert one.sentences == two.sentences


@st.composite
def agreeing_members(draw):
    """A corpus from corpora_with_hypotheses and 5-7 members, each sentence
    of which is the source, the hypothesis or one annotator's correction:
    few candidates, so members often agree, and overlapping ones."""
    gold, hyps = draw(corpora_with_hypotheses(max_sentences=4))
    candidates = [
        [gs.source, hyp, *(apply_edits(gs.source, ann) for ann in gs.annotations)]
        for gs, hyp in zip(gold, hyps)
    ]
    outputs = [
        SystemOutput(f"m{k}", tuple(draw(st.sampled_from(c)) for c in candidates))
        for k in range(draw(st.integers(5, 7)))
    ]
    return [gs.source for gs in gold], outputs


def _seeded_members(rng, n_sentences=60, n_members=6):
    """Members that apply random subsets of a few overlapping edits drawn
    per sentence, and sometimes copy an earlier member outright."""
    words, replacements = vocab(6), vocab(4, "r")
    sources = []
    chosen = [[] for _ in range(n_members)]
    for _ in range(n_sentences):
        source = TokenSentence(rng.choices(words, k=rng.randint(3, 12)))
        sources.append(source)
        proposals = []
        for _ in range(rng.randint(1, 5)):
            start = rng.randint(0, len(source))
            end = min(len(source), start + rng.randint(0, 2))
            width = rng.randint(1 if start == end else 0, 2)
            proposals.append(Edit(start, end, tuple(rng.choices(replacements, k=width))))
        for k in range(n_members):
            if k and rng.random() < 0.3:
                chosen[k].append(chosen[rng.randrange(k)][-1])
                continue
            kept = []
            for edit in rng.sample(proposals, len(proposals)):
                if rng.random() < 0.6 and not any(conflicts(edit, e) for e in kept):
                    kept.append(edit)
            chosen[k].append(apply_edits(source, kept))
    return sources, [SystemOutput(f"m{k}", tuple(c)) for k, c in enumerate(chosen)]


def test_pooled_votes_equal_per_sentence_votes_on_a_seeded_corpus(rng):
    for n_members in (5, 6, 7):
        sources, outputs = _seeded_members(rng, n_members=n_members)
        _assert_pooled_votes_equal_reference(sources, outputs)
        _assert_pooled_votes_ignore_member_order(sources, outputs, rng)


@settings(max_examples=60, deadline=None)
@given(oracle_corpora(max_sentences=3, max_systems=7), st.randoms(use_true_random=False))
def test_pooled_votes_equal_per_sentence_votes_on_oracle_corpora(corpus, order):
    gold, outputs = corpus
    sources = [gs.source for gs in gold]
    _assert_pooled_votes_equal_reference(sources, outputs)
    _assert_pooled_votes_ignore_member_order(sources, outputs, order)


@settings(max_examples=60, deadline=None)
@given(agreeing_members(), st.randoms(use_true_random=False))
def test_pooled_votes_equal_per_sentence_votes_on_agreeing_members(corpus, order):
    sources, outputs = corpus
    _assert_pooled_votes_equal_reference(sources, outputs)
    _assert_pooled_votes_ignore_member_order(sources, outputs, order)


def test_pool_corpus_equals_per_sentence_pools_over_every_member_order(rng):
    sources, outputs = _seeded_members(rng, n_sentences=30, n_members=5)
    expected = [
        pool_edits(source, [(out.name, out.sentences[i]) for out in outputs], EditTable(), {})
        for i, source in enumerate(sources)
    ]
    for order in itertools.permutations(outputs):
        pools = pool_corpus(sources, order, EditTable())
        assert pools == expected
        for i, source in enumerate(sources):
            assert pools[i] == pool_edits(
                source, [(out.name, out.sentences[i]) for out in order], EditTable(), {}
            )


def test_pool_corpus_shares_one_voter_set_per_member_subset(rng):
    sources, outputs = _seeded_members(rng, n_members=6)
    pools = pool_corpus(sources, outputs, EditTable())
    by_value = {}
    for pool in pools:
        for ve in pool:
            assert by_value.setdefault(ve.systems, ve.systems) is ve.systems
    assert 1 < len(by_value) < sum(map(len, pools))
    # a voted edit holds no per-instance dict, and still compares by value
    ve = pools[0][0]
    assert not hasattr(ve, "__dict__")
    assert ve == VotedEdit(ve.edit, frozenset(set(ve.systems)))
