"""End-to-end acceptance checks, one test and one printed verdict line per
shipped guarantee.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
The last two checks need the released system outputs and gold files under
data/ (see scripts/fetch_data.py); they skip when the files are absent.
"""

import itertools
import random
import time
from pathlib import Path

import pytest

from bruteforce import brute_force_score
from conftest import vote_one
from geckit.align import EditTable, apply_edits, extract_edits
from geckit.corpus import (
    Edit,
    GoldSentence,
    SystemOutput,
    TokenSentence,
    atomic_write_text,
    conflicts,
    load_m2,
    load_system_output,
    serialize_parallel,
)
from geckit.llm import MockLexminBackend, llm_rank_corpus
from geckit.oracle import oracle_ensemble_corpus, oracle_rank_corpus
from geckit.ranking import (
    aggr_rank,
    cluster_systems,
    matrix_tsv,
    rank_by_score,
    rank_weighted,
    similarity_matrix,
    weight_candidates,
)
from geckit.scoring import round_score, score_corpus
from geckit.vote import majority_vote_corpus, pool_corpus, pool_edits

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "data"
RESULTS = ROOT / "results"

BEST7 = (
    "chat-llama-2-13b-ft",
    "ul2-20b",
    "chat-llama-2-7b-ft",
    "editscorer",
    "t5-11b",
    "ctc-copy",
    "gector-2024",
)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _require_files(paths):
    missing = [p for p in paths if not p.exists()]
    if missing:
        pytest.skip(
            "external data not present; run scripts/fetch_data.py or place the "
            f"files by hand (missing {missing[0]}"
            + (f" and {len(missing) - 1} more)" if len(missing) > 1 else ")")
        )


# ---------------------------------------------------------------------------
# random instance builders (plain random.Random; counts are exact by design)


def _mutate(rng, tokens, alphabet):
    out = []
    for tok in tokens:
        roll = rng.random()
        if roll < 0.10:
            continue
        if roll < 0.20:
            out.append(rng.choice(alphabet))
        else:
            out.append(tok)
        if rng.random() < 0.08:
            out.append(rng.choice(alphabet))
    return TokenSentence(out)


def _random_annotation(rng, source, alphabet, max_edits=4):
    edits = []
    for _ in range(rng.randint(0, max_edits)):
        for _attempt in range(10):
            start = rng.randint(0, len(source))
            end = rng.randint(start, min(len(source), start + 2))
            repl = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 2)))
            cand = Edit(start, end, repl)
            if repl == tuple(source[start:end]):
                continue  # no-op
            if any(conflicts(cand, e) for e in edits):
                continue
            edits.append(cand)
            break
    return tuple(sorted(edits))


def _random_scoring_corpus(rng):
    gold = []
    hyps = []
    for _ in range(rng.randint(1, 5)):
        alphabet = [f"w{j}" for j in range(rng.randint(2, 20))]
        source = TokenSentence(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
        annotations = tuple(
            _random_annotation(rng, source, alphabet) for _ in range(rng.randint(1, 3))
        )
        gold.append(GoldSentence(source, annotations))
        hyps.append(_mutate(rng, source, alphabet))
    return gold, hyps


def _exact_oracle_corpus(rng, corpus_idx):
    """Distinct source tokens, alien replacements, edit widths <= 2 and >= 3
    untouched tokens between edits, so member diffs re-extract verbatim;
    annotator edit sets are kept disjoint."""
    n_sent = rng.randint(1, 4)
    n_ann = rng.randint(1, 3)
    n_sys = rng.randint(1, 4)
    gold = []
    member_sentences = [[] for _ in range(n_sys)]
    serial = 0
    for si in range(n_sent):
        n_tok = rng.randint(6, 18)
        source = TokenSentence(f"s{si}t{j}" for j in range(n_tok))
        masters = []
        pos = rng.randint(0, 2)
        while len(masters) < 4 and pos <= n_tok:
            kind = rng.choice(("replace", "delete", "insert"))
            width = 0 if kind == "insert" else rng.randint(1, 2)
            if pos + width > n_tok:
                break
            if kind == "delete":
                repl = ()
            else:
                repl = tuple(
                    f"r{corpus_idx}x{serial}y{k}" for k in range(rng.randint(1, 2))
                )
                serial += 1
            masters.append(Edit(pos, pos + width, repl))
            pos = pos + width + 3 + rng.randint(0, 2)
        owners = [rng.randint(-1, n_ann - 1) for _ in masters]
        gold.append(
            GoldSentence(
                source,
                tuple(
                    tuple(m for m, o in zip(masters, owners) if o == a)
                    for a in range(n_ann)
                ),
            )
        )
        for sentences in member_sentences:
            subset = [m for m in masters if rng.random() < 0.5]
            sentences.append(apply_edits(source, subset))
    outputs = [
        SystemOutput(f"m{k}", tuple(sents)) for k, sents in enumerate(member_sentences)
    ]
    return gold, outputs


def _random_vote_instance(rng):
    alphabet = [f"w{j}" for j in range(rng.randint(3, 15))]
    source = TokenSentence(rng.choice(alphabet) for _ in range(rng.randint(1, 10)))
    members = [
        (f"m{k}", _mutate(rng, source, alphabet)) for k in range(rng.randint(1, 4))
    ]
    return source, members


# ---------------------------------------------------------------------------
# 1. edit extraction round-trips and stays under the time budget


def test_criterion_1_roundtrip_10k_pairs_under_10s():
    rng = random.Random(101)
    pairs = []
    for _ in range(10_000):
        alphabet = [f"w{j}" for j in range(rng.randint(2, 50))]
        source = TokenSentence(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
        if rng.random() < 0.5:
            hyp = TokenSentence(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
        else:
            hyp = _mutate(rng, source, alphabet)
        pairs.append((source, hyp))
    started = time.monotonic()
    for source, hyp in pairs:
        edits = extract_edits(source, hyp)
        assert apply_edits(source, edits) == hyp
        for prev, nxt in zip(edits, edits[1:]):
            # strictly separated in position order, hence mutually
            # non-overlapping for every pair
            assert nxt.start > prev.end
            assert not conflicts(prev, nxt)
    elapsed = time.monotonic() - started
    _verdict(
        1,
        elapsed < 10.0,
        f"10,000 random pairs round-trip exactly, edits non-overlapping, "
        f"in {elapsed:.2f}s (< 10s)",
    )


# ---------------------------------------------------------------------------
# 2. the scorer agrees with an independent brute-force implementation


def test_criterion_2_scorer_matches_brute_force_on_1000_corpora():
    rng = random.Random(202)
    worst = 0.0
    for _ in range(1000):
        gold, hyps = _random_scoring_corpus(rng)
        report = score_corpus(SystemOutput("sys", tuple(hyps)), gold, EditTable())
        p, r, f, c, proposed, g, assignment = brute_force_score(hyps, gold)
        assert tuple(report.totals) == (c, proposed, g)
        assert [ann for ann, _ in report.per_sentence] == assignment
        worst = max(
            worst,
            abs(report.precision - p),
            abs(report.recall - r),
            abs(report.f05 - f),
        )
        assert worst <= 1e-12
    _verdict(
        2,
        worst <= 1e-12,
        f"1,000 random corpora match brute force exactly on counts and "
        f"annotator choices; max P/R/F0.5 delta {worst:.1e} (<= 1e-12)",
    )


# ---------------------------------------------------------------------------
# 3. oracle ensembling scores Precision = 100.0 exactly


def test_criterion_3_oracle_ensemble_precision_100_on_100_corpora():
    rng = random.Random(303)
    for corpus_idx in range(100):
        gold, outputs = _exact_oracle_corpus(rng, corpus_idx)
        ensembled, _ = oracle_ensemble_corpus(gold, outputs, EditTable())
        report = score_corpus(ensembled, gold, EditTable())
        assert report.precision == 1.0
        assert round_score(report.precision) == 100.0
    _verdict(
        3,
        True,
        "100 random synthetic corpora: oracle-ensemble output scores "
        "Precision = 100.0 exactly on every one",
    )


# ---------------------------------------------------------------------------
# 4. voting: survivor nesting and member-order invariance


def test_criterion_4_vote_nesting_and_permutation_invariance():
    rng = random.Random(404)
    for _ in range(150):
        source, members = _random_vote_instance(rng)
        survivors = [
            {ve.edit for ve in pool_edits(source, members, EditTable(), {}) if ve.votes > n}
            for n in range(len(members) + 1)
        ]
        for tighter, looser in zip(survivors[1:], survivors):
            assert tighter <= looser
        for n_min in range(len(members) + 1):
            base = vote_one(source, members, n_min)
            for perm in itertools.permutations(members):
                assert vote_one(source, list(perm), n_min) == base
    _verdict(
        4,
        True,
        "150 random instances: pre-overlap survivor sets nest as n_min "
        "grows and output is invariant under all member permutations "
        "(exhaustive, <= 4 members)",
    )


# ---------------------------------------------------------------------------
# 5. frequency weighting degenerates to plain ranking on distinct outputs


def test_criterion_5_weighted_ranking_degeneracy_and_spot_weights():
    rng = random.Random(505)
    for i in range(1000):
        n = rng.randint(2, 6)
        shared = tuple(rng.choice(("the", "a", "one")) for _ in range(rng.randint(1, 6)))
        candidates = [
            (f"c{j}", TokenSentence(shared + (f"u{i}x{j}",))) for j in range(n)
        ]
        scores = [rng.random() for _ in range(n)]
        assert rank_weighted(candidates, scores) == rank_by_score(candidates, scores)

    s = TokenSentence
    grouped = [
        ("a1", s(("x",))), ("a2", s(("x",))), ("a3", s(("x",))),
        ("b1", s(("y",))),
        ("c1", s(("z",))), ("c2", s(("z",))),
    ]
    weights = [w.weight for w in weight_candidates(grouped, [0.0] * 6)]
    spot_ok = (
        weights[0] == 1.0
        and abs(weights[3] - 1 / 3) <= 1e-15
        and abs(weights[4] - 2 / 3) <= 1e-15
    )
    _verdict(
        5,
        spot_ok,
        "1,000 all-distinct instances: rank_weighted == rank_by_score; "
        "frequencies [3,1,2] weight to [1.0, 1/3, 2/3] within 1e-15",
    )


# ---------------------------------------------------------------------------
# 6. aggressiveness-gated ranking truth table


def test_criterion_6_aggr_rank_truth_table():
    src = TokenSentence("a b c d e".split())
    one = TokenSentence("x b c d e".split())     # 1 edit
    one_b = TokenSentence("q b c d e".split())   # 1 edit, distinct object
    two = TokenSentence("x b y d e".split())     # 2 separated edits
    zero = TokenSentence(src)                    # 0 edits

    assert aggr_rank(one, two, src, EditTable()) is one       # e_p >= 1 and e_p < e_a
    assert aggr_rank(two, one, src, EditTable()) is one       # e_p >= 1 and e_p >= e_a
    assert aggr_rank(one, one_b, src, EditTable()) is one_b   # equal counts -> alternative
    assert aggr_rank(zero, one, src, EditTable()) is one      # e_p = 0 and e_p < e_a
    alt_zero = TokenSentence(src)
    assert aggr_rank(zero, alt_zero, src, EditTable()) is alt_zero  # e_p = 0 and e_a = 0
    _verdict(
        6,
        True,
        "all four (e_p < e_a, e_p >= 1) combinations take the documented "
        "branch on constructed fixtures",
    )


# ---------------------------------------------------------------------------
# 7. LLM ranking with a content-deterministic backend ignores presentation


def test_criterion_7_llm_rank_bias_immunity():
    sources = [
        TokenSentence(t.split())
        for t in ("a cat sat .", "dogs runs fast .", "she like tea .")
    ]
    outputs = [
        SystemOutput("s1", tuple(TokenSentence(t.split()) for t in
                                 ("a cat sat .", "dogs run fast .", "she likes tea ."))),
        SystemOutput("s2", tuple(TokenSentence(t.split()) for t in
                                 ("the cat sat .", "dogs runs fast .", "she like tea ."))),
        SystemOutput("s3", tuple(TokenSentence(t.split()) for t in
                                 ("a cat sits .", "a dog runs fast .", "she liked tea ."))),
    ]
    blobs = set()
    for seed in (1, 2, 3, 4):
        run = llm_rank_corpus(sources, outputs, "a", [seed], MockLexminBackend())[0]
        blobs.add(serialize_parallel(run.output.sentences).encode())
    reversed_run = llm_rank_corpus(
        sources, list(reversed(outputs)), "a", [99], MockLexminBackend()
    )[0]
    blobs.add(serialize_parallel(reversed_run.output.sentences).encode())
    _verdict(
        7,
        len(blobs) == 1,
        "content-deterministic mock output is byte-identical across seeds "
        "1-4 and across reversed member order",
    )


# ---------------------------------------------------------------------------
# 8. reproduction of the released CoNLL-14 combination numbers


def test_criterion_8_conll14_reproduction():
    gold_path = DATA / "conll14.gold.m2"
    member_paths = [DATA / "conll14" / f"{slug}.txt" for slug in BEST7]
    _require_files([gold_path, *member_paths])

    started = time.monotonic()
    gold = load_m2(gold_path)
    sources = [g.source for g in gold]
    outputs = [
        load_system_output(path, name=slug, expected_len=len(gold))
        for slug, path in zip(BEST7, member_paths)
    ]

    voted = majority_vote_corpus(sources, pool_corpus(sources, outputs, EditTable()), BEST7, 3)
    vote_report = score_corpus(voted, gold, EditTable())
    vote_f = round_score(vote_report.f05)

    ranked, _ = oracle_rank_corpus(gold, outputs, EditTable())
    rank_f = round_score(score_corpus(ranked, gold, EditTable()).f05)

    ensembled, _ = oracle_ensemble_corpus(gold, outputs, EditTable())
    ens_report = score_corpus(ensembled, gold, EditTable())
    ens_f = round_score(ens_report.f05)
    elapsed = time.monotonic() - started

    if vote_f != 71.8:
        # residual extractor divergence: archive the per-sentence counts
        RESULTS.mkdir(exist_ok=True)
        rows = ["sentence_index\tannotator\tn_correct\tn_proposed\tn_gold"]
        rows += [
            f"{i}\t{ann}\t{c.n_correct}\t{c.n_proposed}\t{c.n_gold}"
            for i, (ann, c) in enumerate(vote_report.per_sentence)
        ]
        residual = RESULTS / "conll14_vote_per_sentence.tsv"
        atomic_write_text(residual, "\n".join(rows) + "\n")
        print(f"[criterion 8] note: vote F0.5 {vote_f} != 71.8; "
              f"per-sentence counts archived at {residual}")

    ok = (
        abs(vote_f - 71.8) <= 0.3 + 1e-9
        and abs(rank_f - 84.2) <= 0.3 + 1e-9
        and ens_report.precision == 1.0
        and abs(ens_f - 87.2) <= 0.3 + 1e-9
        and elapsed < 120.0
    )
    _verdict(
        8,
        ok,
        f"vote n_min=3 F0.5={vote_f} (71.8 +/- 0.3), oracle-rank F0.5={rank_f} "
        f"(84.2 +/- 0.3), oracle-ensemble P={round_score(ens_report.precision)} "
        f"(100.0 exactly) F0.5={ens_f} (87.2 +/- 0.3), {elapsed:.1f}s (< 120s)",
    )


# ---------------------------------------------------------------------------
# 9. clustering the released systems on BEA-dev


def test_criterion_9_bea_dev_clustering():
    member_paths = [DATA / "bea-dev" / f"{slug}.txt" for slug in BEST7]
    _require_files(member_paths)

    first = load_system_output(member_paths[0], name=BEST7[0])
    outputs = [first] + [
        load_system_output(path, name=slug, expected_len=len(first.sentences))
        for slug, path in zip(BEST7[1:], member_paths[1:])
    ]
    matrix = similarity_matrix(outputs)
    RESULTS.mkdir(exist_ok=True)
    archive = RESULTS / "bea_dev_similarity.tsv"
    atomic_write_text(archive, matrix_tsv(matrix))

    clusters = cluster_systems(matrix, 0.11)
    groups = " | ".join(",".join(c.members) for c in clusters)
    note = "matches the expected 3" if len(clusters) == 3 else "soft target is 3"
    _verdict(
        9,
        archive.exists(),
        f"t=0.11 yields {len(clusters)} clusters ({note}): {groups}; "
        f"similarity matrix archived at {archive}",
    )
