"""Score-based candidate selection and system clustering.

Three selection modes over one sentence's member sentences, the first two
returning the winner's position:

* plain ranking: argmax of an externally supplied quality score;
* weighted ranking: the same argmax after multiplying each score by
  w_j = n_j / max_k(n_k), where n_j counts how many systems produced the
  candidate's exact output sentence;
* aggressiveness ranking: prefer the primary candidate only when it edits
  less than the alternative while still editing something.

Clustering groups near-duplicate systems: per sentence, each system's
output becomes a token TF-IDF vector over that sentence's vocabulary;
pairwise cosine similarities are averaged across the corpus into one
matrix, and average-linkage agglomerative clustering cuts the dendrogram
at a distance threshold. One representative per cluster keeps ensembles
from double-counting families of similar systems.

The linkage is written here, not imported: it repeats the floating-point
operations of SciPy's average linkage (nearest-neighbour chain,
Lance-Williams update) and its ``fcluster(criterion="distance")`` cut, so
it gives the same partition. The similarity matrix is plain Python too:
every sum over tokens is a :func:`math.fsum`, whose correctly rounded
result does not depend on iteration order, hash seed or Python version.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain
from operator import mul
from typing import NamedTuple, Sequence

from .align import EditTable
from .corpus import SystemOutput, TokenSentence, ValidationError, check_aligned, tsv


class SimilarityMatrix(NamedTuple):
    """Mean pairwise cosine similarities between systems."""

    names: tuple[str, ...]
    values: tuple[tuple[float, ...], ...]  # N rows of N, symmetric, unit diagonal


class SystemCluster(NamedTuple):
    members: tuple[str, ...]  # input order
    representative: str


def rank_by_score(candidates: Sequence[TokenSentence], scores: Sequence[float]) -> int:
    """The position of the argmax by score; ties go to the lexicographically
    smallest sentence, then to input order."""
    if len(scores) != len(candidates):
        raise ValidationError(
            f"{len(candidates)} candidates but {len(scores)} scores"
        )
    if not candidates:
        raise ValidationError("rank_by_score needs at least one candidate")
    best_i = 0
    for i in range(1, len(candidates)):
        if scores[i] > scores[best_i] or (
            scores[i] == scores[best_i] and candidates[i] < candidates[best_i]
        ):
            best_i = i
    return best_i


def weight_candidates(candidates: Sequence[TokenSentence]) -> list[float]:
    """The output-frequency weight w_j = n_j / max_k(n_k) of each candidate,
    where n_j counts the candidates equal to candidate j.

    >>> s = TokenSentence.parse
    >>> weight_candidates([s("x y"), s("x y"), s("z")])
    [1.0, 1.0, 0.5]
    """
    freq = Counter(candidates)
    max_n = max(freq.values())
    return [freq[sentence] / max_n for sentence in candidates]


def rank_weighted(candidates: Sequence[TokenSentence], scores: Sequence[float]) -> int:
    """Position of the argmax of score x weight, with rank_by_score tie-breaks."""
    if len(scores) != len(candidates):
        raise ValidationError(f"{len(candidates)} candidates but {len(scores)} scores")
    if not candidates:  # weight_candidates would take the max of no counts
        raise ValidationError("rank_weighted needs at least one candidate")
    weights = weight_candidates(candidates)
    return rank_by_score(candidates, [score * w_j for score, w_j in zip(scores, weights)])


def aggr_rank(
    primary: TokenSentence,
    alternative: TokenSentence,
    source: TokenSentence,
    table: EditTable,
) -> TokenSentence:
    """Keep the primary candidate only when it is the less aggressive one.

    Primary wins iff it proposes strictly fewer edits than the alternative
    and proposes at least one; everything else falls back to the
    alternative. Edits are read from ``table``.
    """
    e_p = len(table.edits(source, primary))
    e_a = len(table.edits(source, alternative))
    return primary if 1 <= e_p < e_a else alternative


def rank_corpus(
    outputs: Sequence[SystemOutput], scores: dict[tuple[str, int], float], weighted: bool = False
) -> SystemOutput:
    """Per-sentence :func:`rank_by_score` (:func:`rank_weighted` when
    ``weighted``) over aligned member outputs, with ``scores`` keyed by
    (system name, sentence index)."""
    method = "rank-w" if weighted else "rank"
    if not outputs:
        raise ValidationError(f"{method} needs at least one candidate")
    n = len(outputs[0].sentences)
    check_aligned(outputs, n)
    select = rank_weighted if weighted else rank_by_score
    sentences = []
    for i in range(n):
        candidates = [out.sentences[i] for out in outputs]
        per_candidate = [scores.get((out.name, i)) for out in outputs]
        if None in per_candidate:
            name = outputs[per_candidate.index(None)].name
            raise ValidationError(f"sentence {i}: no score for system {name!r}")
        sentences.append(candidates[select(candidates, per_candidate)])
    members = "+".join(out.name for out in outputs)
    return SystemOutput(f"{method}[{members}]", tuple(sentences))


def aggr_rank_corpus(
    sources: Sequence[TokenSentence],
    primary: SystemOutput,
    alternative: SystemOutput,
    table: EditTable,
) -> SystemOutput:
    """Per-sentence :func:`aggr_rank`; edits are read from ``table``."""
    check_aligned((primary, alternative), len(sources))
    sentences = tuple(
        aggr_rank(p, a, s, table)
        for p, a, s in zip(primary.sentences, alternative.sentences, sources)
    )
    return SystemOutput(f"aggr-rank[{primary.name}|{alternative.name}]", sentences)


# ---------------------------------------------------------------------------
# System clustering


def similarity_matrix(outputs: Sequence[SystemOutput]) -> SimilarityMatrix:
    """Mean per-sentence cosine similarity between all system pairs.

    Per sentence, each system's output is a raw-count token vector over the
    union vocabulary of that sentence's variants, scaled by smoothed IDF
    (ln((1+N)/(1+df)) + 1, N = number of systems) and L2-normalized. Each
    pair is computed once, its per-sentence cosines added in corpus order;
    the norms and dot products are :func:`math.fsum` sums. Systems with the
    same output share its vector and their products with the others.
    """
    if len(outputs) < 2:
        raise ValidationError("similarity needs at least 2 systems")
    n_sys = len(outputs)
    n_sentences = len(outputs[0].sentences)
    check_aligned(outputs, n_sentences)
    if n_sentences == 0:
        raise ValidationError("similarity needs at least 1 sentence")

    acc = [[0.0] * n_sys for _ in range(n_sys)]  # upper triangle only
    for i in range(n_sentences):
        # Members often agree: one vector per distinct output, one product
        # per distinct pair of them (fsum of exact products is symmetric).
        distinct: dict[TokenSentence, int] = {}
        slot = [distinct.setdefault(out.sentences[i], len(distinct)) for out in outputs]
        docs = [Counter(sentence) for sentence in distinct]
        # the sentence's vocabulary; df counts systems, not distinct outputs
        df = Counter(chain.from_iterable(docs[k] for k in slot))
        idf = [(tok, math.log((1 + n_sys) / (1 + d)) + 1) for tok, d in df.items()]
        vectors = []
        for k, doc in enumerate(docs):
            vec = [doc.get(tok, 0) * w for tok, w in idf]
            norm = math.sqrt(math.fsum(map(mul, vec, vec)))
            if not norm:
                name = outputs[slot.index(k)].name
                raise ValidationError(f"sentence {i}: empty output from {name!r}")
            vectors.append([x / norm for x in vec])
        dots: dict[tuple[int, int], float] = {}
        for a in range(n_sys):
            for b in range(a + 1, n_sys):
                key = (slot[a], slot[b]) if slot[a] <= slot[b] else (slot[b], slot[a])
                dot = dots.get(key)
                if dot is None:
                    dot = dots[key] = math.fsum(map(mul, vectors[key[0]], vectors[key[1]]))
                acc[a][b] += dot

    mean = [[1.0] * n_sys for _ in range(n_sys)]
    for a in range(n_sys):
        for b in range(a + 1, n_sys):
            # Cosines of non-negative vectors are >= 0; rounding can pass 1.
            mean[a][b] = mean[b][a] = min(acc[a][b] / n_sentences, 1.0)
    return SimilarityMatrix(tuple(out.name for out in outputs), tuple(map(tuple, mean)))


def check_cluster(n_systems: int, threshold: float) -> None:
    """Raise :class:`ValidationError` unless ``n_systems >= 2`` and ``0 <= threshold < inf``."""
    if n_systems < 2:
        raise ValidationError("similarity needs at least 2 systems")
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ValidationError(f"cluster threshold must be finite and >= 0, got {threshold}")


def cluster_systems(matrix: SimilarityMatrix, threshold: float) -> list[SystemCluster]:
    """Cut the average-linkage dendrogram over 1 - similarity at ``threshold``.

    ``matrix`` is :func:`similarity_matrix` of the systems, or any square
    matrix of finite similarities. Within a cluster the representative is
    the member with the highest mean similarity to the other members (ties
    to input order); singletons represent themselves. Clusters are ordered
    by their first member's input position; see :func:`check_cluster`.
    """
    names, values = matrix.names, matrix.values
    n = len(names)
    check_cluster(n, threshold)
    columns = next((len(row) for row in values if len(row) != n), n)
    if len(values) != n or columns != n:
        raise ValidationError(
            f"similarity matrix has shape ({len(values)}, {columns}) for {n} systems"
        )
    for i, row in enumerate(values):
        for j, v in enumerate(row):
            if not math.isfinite(v):
                raise ValidationError(f"similarity matrix entry ({i}, {j}) is {v}")
    labels = _flat_clusters(
        _average_linkage([[1.0 - v for v in row] for row in values]), threshold
    )

    groups: dict[int, list[int]] = {}
    for idx, label in enumerate(labels):
        groups.setdefault(label, []).append(idx)
    clusters = []
    for members in sorted(groups.values(), key=lambda ms: ms[0]):
        best = members[0]
        if len(members) > 1:
            best_mean = -1.0
            for i in members:
                mean_sim = sum(values[i][j] for j in members if j != i) / (
                    len(members) - 1
                )
                if mean_sim > best_mean:
                    best, best_mean = i, mean_sim
        clusters.append(
            SystemCluster(tuple(names[i] for i in members), names[best])
        )
    return clusters


def _average_linkage(dist: list[list[float]]) -> list[tuple[float, int, int]]:
    """The merges ``(height, x, y)`` of average linkage over ``dist``, sorted
    stably by height: the rows of SciPy's ``linkage(d, "average")``, with the
    same arithmetic, except that ``x`` and ``y`` are points of the two merged
    clusters rather than cluster ids.

    The tree is built by the nearest-neighbour chain (Müllner 2011,
    arXiv:1109.2378) with the Lance-Williams average update. Only the upper
    triangle of ``dist`` is read.
    """
    n = len(dist)
    d = [[dist[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    size = [1] * n
    merges = []
    chain: list[int] = []
    for _ in range(n - 1):
        if not chain:
            chain = [next(i for i in range(n) if size[i])]  # lowest live index
        while True:
            x = chain[-1]
            # A tie keeps the chain's previous element, so the chain cannot cycle.
            y, best = (chain[-2], d[x][chain[-2]]) if len(chain) > 1 else (-1, math.inf)
            for i in range(n):
                if size[i] and i != x and d[x][i] < best:
                    y, best = i, d[x][i]
            if len(chain) > 1 and y == chain[-2]:
                break
            chain.append(y)
        del chain[-2:]
        x, y = min(x, y), max(x, y)  # y becomes the merged cluster
        nx, ny = size[x], size[y]
        merges.append((best, x, y))
        size[x], size[y] = 0, nx + ny
        for i in range(n):
            if size[i] and i != y:
                d[i][y] = d[y][i] = (nx * d[i][x] + ny * d[i][y]) / (nx + ny)
    return sorted(merges, key=lambda m: m[0])


def _flat_clusters(merges: list[tuple[float, int, int]], threshold: float) -> list[int]:
    """A cluster label per point, cutting the :func:`_average_linkage` tree
    as SciPy's ``fcluster(criterion="distance")`` does: a subtree stays one
    cluster iff the highest merge inside it is <= ``threshold``."""
    n = len(merges) + 1
    labels = list(range(n))
    owner = list(range(n))  # point -> node of its current cluster
    nodes = {i: ([i], -math.inf) for i in range(n)}  # node -> (points, highest merge)
    for node, (height, x, y) in enumerate(merges, start=n):
        (px, hx), (py, hy) = nodes.pop(owner[x]), nodes.pop(owner[y])
        points, top = px + py, max(height, hx, hy)
        nodes[node] = (points, top)
        for p in points:
            owner[p] = node
            if top <= threshold:
                labels[p] = node
    return labels


def matrix_tsv(matrix: SimilarityMatrix) -> str:
    return tsv(("system", *matrix.names), (
        (name, *(f"{v:.6f}" for v in row)) for name, row in zip(matrix.names, matrix.values)
    ))


def clusters_tsv(clusters: Sequence[SystemCluster]) -> str:
    return tsv(("system", "cluster", "representative"), (
        (member, f"{cid}", "1" if member == cluster.representative else "0")
        for cid, cluster in enumerate(clusters, start=1) for member in cluster.members
    ))
