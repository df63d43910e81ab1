"""Score-based selection, frequency weighting, and similarity clustering."""

import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import vocab
from geckit.corpus import SystemOutput, TokenSentence, ValidationError
from geckit.ranking import (
    SimilarityMatrix,
    _average_linkage,
    _flat_clusters,
    aggr_rank,
    cluster_systems,
    rank_by_score,
    rank_weighted,
    similarity_matrix,
    weight_candidates,
)

def ts(text):
    return TokenSentence(text.split())


def cands(*pairs):
    return [(name, ts(text)) for name, text in pairs]


def test_rank_by_score_is_argmax():
    candidates = cands(("a", "x y"), ("b", "p q"), ("c", "m n"))
    assert rank_by_score(candidates, [0.1, 0.9, 0.5])[0] == "b"


def test_rank_by_score_tie_prefers_lexicographically_smaller_sentence():
    candidates = cands(("a", "z z"), ("b", "a a"))
    assert rank_by_score(candidates, [0.5, 0.5])[0] == "b"


def test_rank_by_score_full_tie_keeps_input_order():
    candidates = cands(("first", "a a"), ("second", "a a"))
    assert rank_by_score(candidates, [0.5, 0.5])[0] == "first"


def test_rank_by_score_validates():
    with pytest.raises(ValidationError):
        rank_by_score([], [])
    with pytest.raises(ValidationError):
        rank_by_score(cands(("a", "x")), [0.5, 0.5])


def test_weights_match_frequency_ratios():
    # frequencies [3, 1, 2] over three distinct outputs
    candidates = cands(
        ("s1", "a a"), ("s2", "a a"), ("s3", "a a"),
        ("s4", "b b"),
        ("s5", "c c"), ("s6", "c c"),
    )
    weighted = weight_candidates(candidates, [1.0] * 6)
    by_sentence = {w.sentence.text: w.weight for w in weighted}
    assert math.isclose(by_sentence["a a"], 1.0, abs_tol=1e-15)
    assert math.isclose(by_sentence["b b"], 1 / 3, abs_tol=1e-15)
    assert math.isclose(by_sentence["c c"], 2 / 3, abs_tol=1e-15)


def test_weighting_prefers_popular_output_on_close_scores():
    candidates = cands(("s1", "a a"), ("s2", "a a"), ("s3", "b b"))
    # b has the best raw score, but only 1/2 the weight
    assert rank_by_score(candidates, [0.8, 0.8, 0.9])[0] == "s3"
    assert rank_weighted(candidates, [0.8, 0.8, 0.9])[0] == "s1"


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.floats(0.01, 10.0)),
        min_size=1,
        max_size=6,
    )
)
def test_weighted_equals_plain_when_all_outputs_distinct(seed_rows):
    """Eq-degeneracy: unique outputs give every candidate the same weight."""
    candidates = [
        (f"s{i}", TokenSentence((f"tok{i}", f"alt{v}"))) for i, (v, _) in enumerate(seed_rows)
    ]
    # tok{i} makes every sentence distinct regardless of drawn values
    scores = [score for _, score in seed_rows]
    assert rank_weighted(candidates, scores) == rank_by_score(candidates, scores)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-1000, 1000), min_size=2, max_size=6),
    st.sampled_from([0.25, 0.5, 2.0, 8.0]),
)
def test_rank_by_score_invariant_under_exact_positive_rescale(scores, factor):
    # power-of-two factors keep the rescale exact; an inexact one (say 0.1)
    # may collapse near-equal floats and legitimately flip the argmax
    candidates = [(f"s{i}", TokenSentence((f"t{i}",))) for i in range(len(scores))]
    scores = [float(s) for s in scores]
    assert rank_by_score(candidates, scores) == rank_by_score(
        candidates, [s * factor for s in scores]
    )


# --------------------------------------------------------------------------
# aggressiveness: all four (e_p >= 1, e_p < e_a) combinations


SRC = ts("a b c d e")


@pytest.mark.parametrize(
    "primary, alternative, expected",
    [
        ("x b c d e", "x b y d e", "primary"),  # 1 edit < 2 edits, edits
        ("x b y d e", "x b c d e", "alternative"),  # more aggressive
        ("a b c d e", "x b c d e", "alternative"),  # no edits at all
        ("x b c d e", "y b c d e", "alternative"),  # equal aggressiveness
        ("a b c d e", "a b c d e", "alternative"),  # both no-ops, 0 < 0 fails
    ],
)
def test_aggr_rank_truth_table(primary, alternative, expected):
    chosen = aggr_rank(ts(primary), ts(alternative), SRC)
    assert chosen == (ts(primary) if expected == "primary" else ts(alternative))


# --------------------------------------------------------------------------
# similarity + clustering


def sys_out(name, *sentences):
    return SystemOutput(name, tuple(ts(s) for s in sentences))


def test_identical_systems_have_similarity_one():
    a = sys_out("a", "x y z", "p q")
    b = sys_out("b", "x y z", "p q")
    m = similarity_matrix([a, b])
    assert m.sim("a", "b") == pytest.approx(1.0)


def test_disjoint_systems_have_similarity_zero():
    a = sys_out("a", "x y")
    b = sys_out("b", "p q")
    m = similarity_matrix([a, b])
    assert m.sim("a", "b") == pytest.approx(0.0)


def test_matrix_is_symmetric_unit_diagonal_bounded():
    outs = [
        sys_out("a", "x y z", "p q"),
        sys_out("b", "x y w", "p q"),
        sys_out("c", "m n o", "r s"),
    ]
    m = similarity_matrix(outs)
    assert np.allclose(m.values, m.values.T)
    assert np.allclose(np.diag(m.values), 1.0)
    assert (m.values >= 0).all() and (m.values <= 1).all()


def test_identical_twins_cluster_together():
    outs = [
        sys_out("a", "x y z"),
        sys_out("a2", "x y z"),
        sys_out("b", "completely different text"),
    ]
    clusters = cluster_systems(outs, threshold=0.11)
    assert [c.members for c in clusters] == [("a", "a2"), ("b",)]
    assert clusters[0].representative in ("a", "a2")
    assert clusters[1].representative == "b"


def test_all_disjoint_systems_stay_singletons():
    outs = [sys_out("a", "x x"), sys_out("b", "y y"), sys_out("c", "z z")]
    clusters = cluster_systems(outs, threshold=0.11)
    assert [c.members for c in clusters] == [("a",), ("b",), ("c",)]


def test_threshold_one_merges_everything():
    outs = [sys_out("a", "x x"), sys_out("b", "y y"), sys_out("c", "z z")]
    clusters = cluster_systems(outs, threshold=1.5)
    assert len(clusters) == 1
    assert clusters[0].members == ("a", "b", "c")


def test_representative_is_most_central_member():
    # a and b are identical; c shares the sentence shape but differs in one
    # token, so a or b (not c) must represent the merged cluster
    outs = [
        sys_out("a", "x y z w"),
        sys_out("b", "x y z w"),
        sys_out("c", "x y z q"),
    ]
    clusters = cluster_systems(outs, threshold=0.9)
    assert len(clusters) == 1
    assert clusters[0].representative == "a"  # tie with b -> input order


def test_similarity_validates_shapes():
    with pytest.raises(ValidationError):
        similarity_matrix([sys_out("a", "x")])
    with pytest.raises(ValidationError):
        similarity_matrix([sys_out("a", "x"), sys_out("b", "x", "y")])


def test_empty_output_sentence_rejected():
    a = SystemOutput("a", (TokenSentence(()),))
    b = sys_out("b", "x")
    with pytest.raises(ValidationError):
        similarity_matrix([a, b])


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 5), st.integers(1, 4), st.integers(0, 10_000))
def test_matrix_invariants_on_random_outputs(n_sys, n_sent, seed):
    import random

    rng = random.Random(seed)
    words = vocab(8)
    outs = [
        SystemOutput(
            f"s{k}",
            tuple(
                TokenSentence(rng.choices(words, k=rng.randint(1, 7)))
                for _ in range(n_sent)
            ),
        )
        for k in range(n_sys)
    ]
    m = similarity_matrix(outs)
    assert np.allclose(m.values, m.values.T)
    assert np.allclose(np.diag(m.values), 1.0)
    assert (m.values >= 0).all() and (m.values <= 1).all()
    # permutation of systems permutes the matrix accordingly
    flipped = similarity_matrix(list(reversed(outs)))
    assert np.allclose(np.flip(m.values), flipped.values)


@pytest.mark.parametrize(
    "names, values, problem",
    [
        (("a",), [[1.0]], "at least 2 systems"),
        (("a", "b", "c"), [[1.0, 0.5], [0.5, 1.0]], "shape (2, 2) for 3 systems"),
        (("a", "b"), [[1.0, math.nan], [math.nan, 1.0]], "entry (0, 1) is nan"),
    ],
    ids=["one-system", "wrong-shape", "non-finite"],
)
def test_cluster_rejects_bad_matrix(names, values, problem):
    matrix = SimilarityMatrix(names, np.array(values))
    with pytest.raises(ValidationError, match=re.escape(problem)):
        cluster_systems([], 0.11, matrix=matrix)


def _random_distances(rng, n, kind):
    if kind == "ties":
        draw = lambda: rng.choice((0.0, 0.25, 0.5, 0.5, 0.75, 1.0))  # noqa: E731
    elif kind == "similarity":  # 1 - cosine of mostly near-duplicate systems
        draw = lambda: 1.0 - rng.betavariate(5, 1)  # noqa: E731
    elif kind == "ulp":  # distances a few ulps apart
        base = rng.random()
        draw = lambda: base + rng.randint(-2, 2) * math.ulp(base)  # noqa: E731
    else:
        draw = rng.random
    dist = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = draw()
    return dist


def _partition(labels):
    first = {}
    return [first.setdefault(int(label), len(first)) for label in labels]


def test_average_linkage_matches_scipy_on_random_matrices():
    hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
    from scipy.spatial.distance import squareform

    rng = random.Random(20240423)
    for k in range(10_000):
        n = rng.randint(2, 9)
        dist = _random_distances(rng, n, ("ties", "similarity", "ulp", "uniform")[k % 4])
        tree = hierarchy.linkage(squareform(np.array(dist), checks=False), method="average")
        merges = _average_linkage(dist)
        heights = tree[:, 2].tolist()
        assert [height for height, _, _ in merges] == heights, f"matrix {k}: {dist}"
        thresholds = {0.0, 0.11, 1.5}
        for height in heights:
            thresholds |= {
                height, math.nextafter(height, -math.inf), math.nextafter(height, math.inf)
            }
        for t in sorted(thresholds):
            expected = hierarchy.fcluster(tree, t=t, criterion="distance")
            assert _partition(_flat_clusters(merges, t)) == _partition(expected), (
                f"matrix {k} ({dist}) at threshold {t!r}"
            )
