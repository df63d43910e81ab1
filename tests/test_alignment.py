"""Edit extraction/application: pinned examples plus the roundtrip property."""

import random

import pytest
from hypothesis import given, settings

import reference
from conftest import sentence_pairs
from geckit import align
from geckit.align import apply_edits, extract_edits
from geckit.corpus import (
    Edit, OverlapError, TokenSentence, ValidationError, check_edits, conflicts,
)


def ext(src: str, hyp: str):
    return extract_edits(src.split(), hyp.split())


def test_single_substitution():
    assert ext("I likes turtles .", "I like turtles .") == (Edit(1, 2, ("like",)),)


def test_adjacent_changes_merge_into_one_edit():
    assert ext("a b c", "a x y c") == (Edit(1, 2, ("x", "y")),)


def test_insertion_and_deletion():
    assert ext("a b", "a x b") == (Edit(1, 1, ("x",)),)
    assert ext("a x b", "a b") == (Edit(1, 2, ()),)


def test_identical_sentences_have_no_edits():
    assert ext("a b c", "a b c") == ()


def test_canonical_position_with_repeated_tokens():
    # "a a b" -> "a b" could drop either "a"; the canonical choice is pinned
    # so that every caller sees the same edit for the same pair
    edits = ext("a a b", "a b")
    assert len(edits) == 1
    assert edits == ext("a a b", "a b")  # deterministic
    src, hyp = "a a b".split(), "a b".split()
    assert list(apply_edits(src, edits)) == hyp


def test_whole_sentence_rewrite():
    assert ext("a b", "x y z") == (Edit(0, 2, ("x", "y", "z")),)


def test_empty_hypothesis_is_one_deletion():
    assert ext("a b c", "") == (Edit(0, 3, ()),)


def test_apply_respects_span_order():
    src = "a b c d".split()
    edited = apply_edits(src, [Edit(3, 4, ("x",)), Edit(0, 1, ("y",))])
    assert list(edited) == "y b c x".split()


def test_apply_rejects_overlap():
    src = "a b c d".split()
    with pytest.raises(OverlapError):
        apply_edits(src, [Edit(0, 2, ("x",)), Edit(1, 3, ("y",))])


def test_apply_rejects_insertion_inside_replaced_span():
    # the span predicate alone does not flag this pair, but there is no
    # coherent way to place the insertion once the outer span is replaced
    src = "a b c".split()
    with pytest.raises(OverlapError):
        apply_edits(src, [Edit(0, 2, ("x",)), Edit(1, 1, ("y",))])


def test_apply_rejects_out_of_bounds():
    with pytest.raises(ValidationError):
        apply_edits(["a"], [Edit(0, 2, ("x",))])


def test_apply_checks_replacement_tokens_and_a_plain_source():
    with pytest.raises(ValidationError, match=r"^token contains whitespace: 'x y'$"):
        apply_edits(TokenSentence.parse("a b"), [Edit(0, 1, ("x y",))])
    with pytest.raises(ValidationError, match=r"^empty or non-string token: ''$"):
        apply_edits(["", "b"], [Edit(1, 2, ("c",))])


def test_apply_allows_insertion_at_replacement_boundary():
    src = "a b c".split()
    out = apply_edits(src, [Edit(0, 1, ("x",)), Edit(1, 1, ("y",))])
    assert list(out) == "x y b c".split()


# --------------------------------------------------------------------------
# overlap predicate truth table


@pytest.mark.parametrize(
    "a, b, expected",
    [
        (Edit(0, 2, ("x",)), Edit(1, 3, ("y",)), True),  # plain intersection
        (Edit(0, 2, ("x",)), Edit(2, 4, ("y",)), False),  # touching spans
        (Edit(0, 1, ("x",)), Edit(3, 4, ("y",)), False),  # disjoint
        (Edit(1, 1, ("x",)), Edit(1, 1, ("y",)), True),  # same-point insertions
        (Edit(1, 1, ("x",)), Edit(1, 2, ("y",)), True),  # insertion at span start
        (Edit(1, 2, ("x",)), Edit(1, 2, ("y",)), True),  # identical spans
        (Edit(1, 1, ("x",)), Edit(0, 1, ("y",)), False),  # insertion at span end
        (Edit(1, 1, ("x",)), Edit(0, 2, ("y",)), True),  # insertion inside a span
    ],
)
def test_conflicts_truth_table(a, b, expected):
    assert conflicts(a, b) is expected
    assert conflicts(b, a) is expected  # symmetric


def test_conflicts_equals_the_two_part_rule_on_every_span_pair():
    # every span of a 6-token sentence, insertions (start == end) included
    spans = [Edit(s, e, ("x",)) for s in range(7) for e in range(s, 7)]
    pairs = [(a, b) for a in spans for b in spans]
    assert len(pairs) == 28 * 28
    for a, b in pairs:
        assert conflicts(a, b) is reference.conflicts(a, b), (a, b)


# --------------------------------------------------------------------------
# the load-bearing property: extraction is exact, minimal-cost and clean


@settings(max_examples=400, deadline=None)
@given(sentence_pairs())
def test_roundtrip(pair):
    """apply(extract(src, hyp)) == hyp, with mutually compatible edits."""
    src, hyp = pair
    edits = extract_edits(src, hyp)
    assert tuple(apply_edits(src, edits)) == hyp
    for i, a in enumerate(edits):
        for b in edits[i + 1 :]:
            assert not conflicts(a, b)
    # no degenerate members
    for e in edits:
        assert tuple(e.replacement) != tuple(src[e.start : e.end])
    # deterministic
    assert extract_edits(src, hyp) == edits


@settings(max_examples=200, deadline=None)
@given(sentence_pairs())
def test_extracted_edits_are_sorted_and_separated(pair):
    src, hyp = pair
    edits = extract_edits(src, hyp)
    for prev, nxt in zip(edits, edits[1:]):
        # maximal runs: consecutive edits keep at least one matched token
        # between them, otherwise they would have merged
        assert nxt.start > prev.end


@settings(max_examples=300, deadline=None)
@given(sentence_pairs())
def test_extracted_edits_are_in_normal_form(pair):
    src, hyp = pair
    edits = extract_edits(src, hyp)
    assert check_edits(src, edits) == edits


def test_result_type_is_token_sentence():
    out = apply_edits(("a", "b"), [Edit(0, 1, ("x",))])
    assert isinstance(out, TokenSentence)
    assert out.text == "x b"


# --------------------------------------------------------------------------
# the bit-parallel alignment and its strips against the full-matrix reference


def _mutated(rng, tokens, alphabet, rate):
    """tokens with each one kept, substituted, deleted or followed by an insertion."""
    out = []
    for t in tokens:
        roll = rng.random()
        if roll < rate:
            out.append(rng.choice(alphabet))
        elif roll < 2 * rate:
            continue
        else:
            out.append(t)
        if rng.random() < rate:
            out.append(rng.choice(alphabet))
    return out


def test_extract_edits_equals_reference_dp():
    rng = random.Random(20261018)

    # short pairs over 1-5 token alphabets: few distinct tokens force ties
    for _ in range(100_000):
        alphabet = "abcde"[: rng.randint(1, 5)]
        src = [rng.choice(alphabet) for _ in range(rng.randint(0, 14))]
        hyp = [rng.choice(alphabet) for _ in range(rng.randint(0, 14))]
        assert extract_edits(src, hyp) == reference.extract_edits(src, hyp), (src, hyp)

    # long pairs: bit vectors wider than CPython's 30-bit digits and than 64 bits
    wide = 0
    for _ in range(1_000):
        alphabet = [f"w{t}" for t in range(rng.choice((1, 2, 3, 5, 40)))]
        src = [rng.choice(alphabet) for _ in range(rng.randint(25, 130))]
        if rng.random() < 0.5:
            hyp = [rng.choice(alphabet) for _ in range(rng.randint(25, 130))]
        else:
            hyp = _mutated(rng, src, alphabet + ["x"], rng.uniform(0.02, 0.3))
        assert extract_edits(src, hyp) == reference.extract_edits(src, hyp), (src, hyp)
        suffix = 0
        while suffix < min(len(src), len(hyp)) and src[~suffix] == hyp[~suffix]:
            suffix += 1
        wide += len(src) - suffix > 64
    assert wide >= 300  # enough pairs keep more than 64 rows after the suffix strip

    @settings(max_examples=500, deadline=None)
    @given(sentence_pairs())
    def matches_reference(pair):
        src, hyp = pair
        assert extract_edits(src, hyp) == reference.extract_edits(src, hyp)

    matches_reference()


def test_prefix_strip_equals_reference_dp(monkeypatch):
    """A long shared prefix whose last token recurs in the inserted or deleted
    run: the walk over the middle block must fall back to the whole matrix
    exactly where the full walk would match that token instead."""
    blocks = []  # the source side of every walk; two walks in a call are a fallback
    walk = align._walk
    monkeypatch.setattr(align, "_walk", lambda src, hyp: blocks.append(src) or walk(src, hyp))
    rng = random.Random(20261019)
    stripped = fallbacks = 0
    for _ in range(5_000):
        alphabet = "abcd"[: rng.randint(1, 4)]
        prefix = [rng.choice(alphabet) for _ in range(rng.randint(1, 80))]
        runs = [rng.choice(alphabet + prefix[-1] * 2) for _ in range(rng.randint(0, 6))]
        other = [rng.choice(alphabet) for _ in range(rng.randint(0, 3))]
        suffix = [rng.choice(alphabet) for _ in range(rng.randint(0, 3))]
        src, hyp = prefix + other + suffix, prefix + runs + suffix
        if rng.random() < 0.5:
            src, hyp = hyp, src
        blocks.clear()
        assert extract_edits(src, hyp) == reference.extract_edits(src, hyp), (src, hyp)
        if len(blocks) == 2:
            fallbacks += 1
        elif blocks and blocks[0] != tuple(src[: len(blocks[0])]):
            stripped += 1  # the one walk started after the prefix
    assert stripped >= 500 and fallbacks >= 500, (stripped, fallbacks)
