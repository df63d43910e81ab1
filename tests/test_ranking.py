"""Score-based selection, frequency weighting, and similarity clustering."""

import math
import random
import re
from collections import Counter
from itertools import chain
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import vocab
from geckit.align import EditTable
from geckit.corpus import SystemOutput, TokenSentence, ValidationError, check_aligned
from geckit.ranking import (
    SimilarityMatrix,
    _average_linkage,
    _flat_clusters,
    aggr_rank,
    cluster_systems,
    matrix_tsv,
    rank_by_score,
    rank_corpus,
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


def test_rank_weighted_refuses_no_candidates():
    with pytest.raises(ValidationError, match="rank_weighted needs at least one candidate"):
        rank_weighted([], [])


@pytest.mark.parametrize("weighted", [False, True])
def test_rank_corpus_refuses_an_empty_member_list(weighted):
    with pytest.raises(ValidationError, match="needs at least one candidate"):
        rank_corpus([], {}, weighted)


def test_weights_match_frequency_ratios():
    # frequencies [3, 1, 2] over three distinct outputs
    candidates = cands(
        ("s1", "a a"), ("s2", "a a"), ("s3", "a a"),
        ("s4", "b b"),
        ("s5", "c c"), ("s6", "c c"),
    )
    weights = weight_candidates(candidates)
    by_sentence = {sentence.text: w for (_, sentence), w in zip(candidates, weights)}
    assert math.isclose(by_sentence["a a"], 1.0, abs_tol=1e-15)
    assert math.isclose(by_sentence["b b"], 1 / 3, abs_tol=1e-15)
    assert math.isclose(by_sentence["c c"], 2 / 3, abs_tol=1e-15)


def test_weighting_prefers_popular_output_on_close_scores():
    candidates = cands(("s1", "a a"), ("s2", "a a"), ("s3", "b b"))
    # b has the best raw score, but only 1/2 the weight
    assert rank_by_score(candidates, [0.8, 0.8, 0.9])[0] == "s3"
    assert rank_weighted(candidates, [0.8, 0.8, 0.9])[0] == "s1"


def _reference_rank_weighted(candidates, scores):
    """rank_weighted through one six-field record per candidate (system,
    sentence, raw score, frequency, weight, weighted score), frozen for the
    differential test."""
    if len(scores) != len(candidates):
        raise ValidationError(f"{len(candidates)} candidates but {len(scores)} scores")
    if not candidates:
        raise ValidationError("rank_weighted needs at least one candidate")
    freq = Counter(tuple(sentence) for _, sentence in candidates)
    max_n = max(freq.values())
    weighted = []
    for (name, sentence), score in zip(candidates, scores):
        n_j = freq[tuple(sentence)]
        w_j = n_j / max_n
        weighted.append((name, sentence, score, n_j, w_j, score * w_j))
    return rank_by_score(candidates, [w[5] for w in weighted])


def test_rank_weighted_equals_weighted_candidate_records():
    def outcome(select, candidates, scores):
        try:
            return select(candidates, scores)
        except (ValidationError, ValueError) as err:
            return type(err), str(err)

    rng = random.Random(20261019)
    sentences = [ts("a"), ts("b"), ts("a b"), ts("b a"), ts("c")]
    mismatched = 0
    for _ in range(20_000):
        n = rng.randint(0, 7)
        candidates = [(f"s{k}", rng.choice(sentences)) for k in range(n)]
        scores = [rng.choice([0.0, 0.25, 0.5, 1.0, rng.uniform(-2, 2)]) for _ in range(n)]
        if rng.random() < 0.1:
            scores = scores[:-1] if scores and rng.random() < 0.5 else scores + [0.5]
            mismatched += 1
        assert outcome(rank_weighted, candidates, scores) == outcome(
            _reference_rank_weighted, candidates, scores
        ), (candidates, scores)
    assert mismatched >= 1_000, mismatched


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


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_rank_corpus_is_invariant_under_member_permutation(data):
    # few distinct sentences and scores, so equal outputs and score ties are common
    n_sys, n_sent = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 4))
    sentence = st.sampled_from([ts("a"), ts("b"), ts("a b"), ts("b a")])
    score = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(-1e6, 1e6)
    outputs = [
        SystemOutput(f"s{k}", tuple(data.draw(st.lists(sentence, min_size=n_sent,
                                                       max_size=n_sent))))
        for k in range(n_sys)
    ]
    scores = {(f"s{k}", i): data.draw(score) for k in range(n_sys) for i in range(n_sent)}
    permuted = [outputs[k] for k in data.draw(st.permutations(range(n_sys)))]
    for weighted in (False, True):
        assert (rank_corpus(permuted, scores, weighted).sentences
                == rank_corpus(outputs, scores, weighted).sentences)


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
    chosen = aggr_rank(ts(primary), ts(alternative), SRC, EditTable())
    assert chosen == (ts(primary) if expected == "primary" else ts(alternative))


# --------------------------------------------------------------------------
# similarity + clustering


def sys_out(name, *sentences):
    return SystemOutput(name, tuple(ts(s) for s in sentences))


def test_identical_systems_have_similarity_one():
    a = sys_out("a", "x y z", "p q")
    b = sys_out("b", "x y z", "p q")
    m = similarity_matrix([a, b])
    assert m.values[0][1] == pytest.approx(1.0)


def test_disjoint_systems_have_similarity_zero():
    a = sys_out("a", "x y")
    b = sys_out("b", "p q")
    m = similarity_matrix([a, b])
    assert m.values[0][1] == pytest.approx(0.0)


def test_rounding_never_lifts_a_similarity_past_one():
    # unclipped, the cosine of this sentence with itself is 1.0000000000000002
    a = sys_out("a", "x x y y y z z z w")
    b = sys_out("b", "x x y y y z z z w")
    assert similarity_matrix([a, b]).values == ((1.0, 1.0), (1.0, 1.0))


def test_matrix_is_symmetric_unit_diagonal_bounded():
    outs = [
        sys_out("a", "x y z", "p q"),
        sys_out("b", "x y w", "p q"),
        sys_out("c", "m n o", "r s"),
    ]
    _assert_matrix_invariants(outs)


def _assert_matrix_invariants(outs):
    """Exact symmetry, a diagonal of exactly 1.0, entries in [0, 1], and
    reversing the systems reverses the matrix bit for bit."""
    values = similarity_matrix(outs).values
    n = len(outs)
    assert len(values) == n and all(len(row) == n for row in values)
    for i in range(n):
        assert values[i][i] == 1.0
        for j in range(n):
            assert values[i][j] == values[j][i]
            assert 0.0 <= values[i][j] <= 1.0
    flipped = similarity_matrix(list(reversed(outs))).values
    assert flipped == tuple(tuple(reversed(row)) for row in reversed(values))


def test_identical_twins_cluster_together():
    outs = [
        sys_out("a", "x y z"),
        sys_out("a2", "x y z"),
        sys_out("b", "completely different text"),
    ]
    clusters = cluster_systems(similarity_matrix(outs), threshold=0.11)
    assert [c.members for c in clusters] == [("a", "a2"), ("b",)]
    assert clusters[0].representative in ("a", "a2")
    assert clusters[1].representative == "b"


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
def test_cluster_rejects_a_threshold_that_is_not_finite_and_non_negative(threshold):
    matrix = similarity_matrix([sys_out("a", "x y z"), sys_out("b", "x y")])
    with pytest.raises(ValidationError) as exc:
        cluster_systems(matrix, threshold)
    assert str(exc.value) == f"cluster threshold must be finite and >= 0, got {threshold}"
    assert [c.members for c in cluster_systems(matrix, 0.0)] == [("a",), ("b",)]


def test_all_disjoint_systems_stay_singletons():
    outs = [sys_out("a", "x x"), sys_out("b", "y y"), sys_out("c", "z z")]
    clusters = cluster_systems(similarity_matrix(outs), threshold=0.11)
    assert [c.members for c in clusters] == [("a",), ("b",), ("c",)]


def test_threshold_one_merges_everything():
    outs = [sys_out("a", "x x"), sys_out("b", "y y"), sys_out("c", "z z")]
    clusters = cluster_systems(similarity_matrix(outs), threshold=1.5)
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
    clusters = cluster_systems(similarity_matrix(outs), threshold=0.9)
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
    _assert_matrix_invariants(outs)


@pytest.mark.parametrize(
    "names, values, problem",
    [
        (("a",), ((1.0,),), "at least 2 systems"),
        (("a", "b", "c"), ((1.0, 0.5), (0.5, 1.0)), "shape (2, 2) for 3 systems"),
        (("a", "b"), ((1.0, math.nan), (math.nan, 1.0)), "entry (0, 1) is nan"),
    ],
    ids=["one-system", "wrong-shape", "non-finite"],
)
def test_cluster_rejects_bad_matrix(names, values, problem):
    matrix = SimilarityMatrix(names, values)
    with pytest.raises(ValidationError, match=re.escape(problem)):
        cluster_systems(matrix, 0.11)


def _numpy_similarity_matrix(outputs):
    """Frozen copy of the numpy similarity_matrix that the pure-Python one
    replaced; returns the (N, N) array."""
    import numpy as np

    if len(outputs) < 2:
        raise ValidationError("similarity needs at least 2 systems")
    n_sys = len(outputs)
    n_sentences = len(outputs[0].sentences)
    check_aligned(outputs, n_sentences)
    if n_sentences == 0:
        raise ValidationError("similarity needs at least 1 sentence")

    acc = np.zeros((n_sys, n_sys))
    for i in range(n_sentences):
        docs = [Counter(out.sentences[i]) for out in outputs]
        vocab = sorted(set().union(*docs))
        index = {tok: k for k, tok in enumerate(vocab)}
        df = Counter(tok for doc in docs for tok in doc)
        idf = np.array(
            [math.log((1 + n_sys) / (1 + df[tok])) + 1 for tok in vocab]
        )
        vectors = np.zeros((n_sys, len(vocab)))
        for s, doc in enumerate(docs):
            for tok, count in doc.items():
                vectors[s, index[tok]] = count
        vectors *= idf
        norms = np.linalg.norm(vectors, axis=1, keepdims=True)
        if not norms.all():
            empty = outputs[int(np.argmin(norms))].name
            raise ValidationError(f"sentence {i}: empty output from {empty!r}")
        vectors /= norms
        acc += vectors @ vectors.T

    mean = acc / n_sentences
    mean = (mean + mean.T) / 2  # exact symmetry despite float noise
    mean = np.clip(mean, 0.0, 1.0)
    np.fill_diagonal(mean, 1.0)
    return mean


def _near_duplicate_outputs(rng):
    """2-9 systems over 1-40 sentences of a small vocabulary: each system is
    an exact copy of an earlier one, or the base output with its tokens
    substituted, inserted or deleted at a rate between 0 and 0.5."""
    words = vocab(rng.randint(2, 12))
    base = [rng.choices(words, k=rng.randint(1, 10)) for _ in range(rng.randint(1, 40))]
    outs = []
    for k in range(rng.randint(2, 9)):
        if outs and rng.random() < 0.2:
            outs.append(SystemOutput(f"s{k}", rng.choice(outs).sentences))
            continue
        rate = rng.choice((0.0, 0.02, 0.1, 0.5))
        sentences = []
        for tokens in base:
            tokens = [rng.choice(words) if rng.random() < rate else t for t in tokens]
            if rng.random() < rate:
                tokens.insert(rng.randint(0, len(tokens)), rng.choice(words))
            if len(tokens) > 1 and rng.random() < rate:
                del tokens[rng.randrange(len(tokens))]
            sentences.append(TokenSentence(tokens))
        outs.append(SystemOutput(f"s{k}", tuple(sentences)))
    return outs


def test_similarity_matrix_matches_numpy_reference():
    pytest.importorskip("numpy")
    rng = random.Random(20240422)
    for k in range(2_000):
        outs = _near_duplicate_outputs(rng)
        got = similarity_matrix(outs)
        reference = _numpy_similarity_matrix(outs).tolist()
        ref = SimilarityMatrix(got.names, tuple(map(tuple, reference)))
        for i, (row, ref_row) in enumerate(zip(got.values, ref.values)):
            for j, (v, r) in enumerate(zip(row, ref_row)):
                assert abs(v - r) <= 1e-12, f"corpus {k}: entry ({i}, {j}) {v!r} vs {r!r}"
        # Entries may differ by 1e-12, and so may merge heights: heights
        # closer than twice that are one height (identical twins, say, are
        # 0.0 apart here and 1.1e-16 apart in the reference).
        dist = [[1.0 - v for v in row] for row in ref.values]
        heights = sorted({height for height, _, _ in _average_linkage(dist)})
        thresholds = [0.11] + [
            (lo + hi) / 2 for lo, hi in zip(heights, heights[1:]) if hi - lo > 2e-12
        ]
        for t in thresholds:
            members = [c.members for c in cluster_systems(got, t)]
            expected = [c.members for c in cluster_systems(ref, t)]
            assert members == expected, f"corpus {k} at threshold {t!r}"


def _similarity_matrix_per_system(outputs):
    """similarity_matrix as it was before it shared vectors and products
    between systems with the same output: one vector per system, one
    product per system pair. Frozen as the reference of the test below."""
    n_sys = len(outputs)
    n_sentences = len(outputs[0].sentences)
    acc = [[0.0] * n_sys for _ in range(n_sys)]
    for i in range(n_sentences):
        docs = [Counter(out.sentences[i]) for out in outputs]
        df = Counter(chain.from_iterable(docs))
        idf = [(tok, math.log((1 + n_sys) / (1 + d)) + 1) for tok, d in df.items()]
        vectors = []
        for out, doc in zip(outputs, docs):
            vec = [doc.get(tok, 0) * w for tok, w in idf]
            norm = math.sqrt(math.fsum(map(mul, vec, vec)))
            if not norm:
                raise ValidationError(f"sentence {i}: empty output from {out.name!r}")
            vectors.append([x / norm for x in vec])
        for a, u in enumerate(vectors):
            for b in range(a + 1, n_sys):
                acc[a][b] += math.fsum(map(mul, u, vectors[b]))
    mean = [[1.0] * n_sys for _ in range(n_sys)]
    for a in range(n_sys):
        for b in range(a + 1, n_sys):
            mean[a][b] = mean[b][a] = min(acc[a][b] / n_sentences, 1.0)
    return SimilarityMatrix(tuple(out.name for out in outputs), tuple(map(tuple, mean)))


def test_similarity_matrix_equals_the_per_system_computation():
    """Sharing work between repeated outputs changes no bit of the matrix."""
    rng = random.Random(20240918)
    repeated = 0
    for k in range(1_000):
        outs = _near_duplicate_outputs(rng)
        repeated += any(
            len({out.sentences[i] for out in outs}) < len(outs)
            for i in range(len(outs[0].sentences))
        )
        got = similarity_matrix(outs)
        reference = _similarity_matrix_per_system(outs)
        assert got == reference, f"corpus {k}"
        assert matrix_tsv(got) == matrix_tsv(reference), f"corpus {k}"
    assert repeated > 500  # most corpora repeat some output


def test_empty_output_error_names_the_first_empty_system():
    outs = [sys_out("a", "x"), SystemOutput("b", (TokenSentence(()),)),
            SystemOutput("c", (TokenSentence(()),))]
    errors = []
    for compute in (similarity_matrix, _similarity_matrix_per_system):
        with pytest.raises(ValidationError) as err:
            compute(outs)
        errors.append(str(err.value))
    assert errors == ["sentence 0: empty output from 'b'"] * 2


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
    np = pytest.importorskip("numpy")
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
