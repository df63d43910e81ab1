"""Config loading, experiment dispatch, ablations, and rerun determinism."""

import hashlib
import json
import random
import re
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from conftest import kept_one
import geckit.align
import geckit.corpus
import geckit.experiment
import geckit.vote
from geckit.align import apply_edits
from geckit.cli import main
from geckit.corpus import (
    SCORE_FILE_HEADER,
    Edit,
    GoldSentence,
    TokenSentence,
    ValidationError,
    conflicts,
    load_parallel,
    save_m2,
    save_parallel,
    tsv,
)
from geckit.experiment import (
    METHODS,
    ExperimentConfig,
    combine,
    load_config,
    load_inputs,
    plan,
    run_experiment,
    run_study,
)

GOLD = """S I likes turtles very much .
A 1 2|||SVA|||like|||REQUIRED|||-NONE-|||0

S She go to school yesterday .
A 1 2|||Vt|||went|||REQUIRED|||-NONE-|||0

S Nothing wrong here .
A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0
"""

SYSTEMS = {
    "a": ["I like turtles very much .", "She went to school yesterday .", "Nothing wrong here ."],
    "b": ["I like turtles very much .", "She go to school yesterday .", "Nothing wrong here ."],
    "c": ["I likes turtles very much .", "She went to school yesterday .", "Nothing wrong here ."],
    # proposes only edits nobody else does
    "noise": ["I likes turtles very miau .", "She go to miau yesterday .", "Nothing miau here ."],
}


def write_fixture(tmp_path, systems=("a", "b", "c")):
    (tmp_path / "gold.m2").write_text(GOLD, encoding="utf-8")
    for name in systems:
        (tmp_path / f"{name}.txt").write_text(
            "\n".join(SYSTEMS[name]) + "\n", encoding="utf-8"
        )
    return {
        "name": "fixture",
        "method": "vote",
        "gold": "gold.m2",
        "n_min": 1,
        "output_dir": "results",
        "systems": [f"{n}.txt" for n in systems],
    }


def write_config(tmp_path, payload):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_load_config_resolves_paths_relative_to_config(tmp_path):
    payload = write_fixture(tmp_path)
    config = load_config(write_config(tmp_path, payload))
    assert config.gold == tmp_path / "gold.m2"
    assert config.systems[0] == ("a", tmp_path / "a.txt")
    assert config.output_dir == tmp_path / "results"


def test_load_config_rejects_unknown_keys(tmp_path):
    payload = write_fixture(tmp_path)
    payload["typo_key"] = 1
    with pytest.raises(ValidationError) as exc:
        load_config(write_config(tmp_path, payload))
    assert "typo_key" in str(exc.value)


def test_load_config_requires_core_keys(tmp_path):
    payload = write_fixture(tmp_path)
    del payload["method"]
    with pytest.raises(ValidationError):
        load_config(write_config(tmp_path, payload))


@pytest.mark.parametrize(
    "key, value, problem",
    [
        ("n_min", 0.9, "key 'n_min' must be an integer, got 0.9"),
        ("runs", "2", 'key \'runs\' must be an integer, got "2"'),
        ("seed", 1.5, "key 'seed' must be an integer, got 1.5"),
        ("jobs", True, "key 'jobs' must be an integer, got true"),
        ("seeds", [], "key 'seeds' must be a non-empty list, got []"),
        ("seeds", 5, "key 'seeds' must be a non-empty list, got 5"),
        ("seeds", [3, 4.0], "key 'seeds[1]' must be an integer, got 4.0"),
        ("gold", 5, "key 'gold' must be a string, got 5"),
        ("base_url", 5, "key 'base_url' must be a string, got 5"),
        ("systems", "h1.txt", 'key \'systems\' must be a list, got "h1.txt"'),
        ("name", "a\nb", "experiment name 'a\\nb' contains a tab or a line break"),
        ("method", "sorcery", "unknown method 'sorcery'; expected one of"),
        ("n_min", 5, "n_min must be within 0..3, got 5"),
        ("gold", "", 'key \'gold\' must be a non-empty string, got ""'),
        ("source", "", 'key \'source\' must be a non-empty string, got ""'),
        ("scores", "", 'key \'scores\' must be a non-empty string, got ""'),
    ],
    ids=["n_min-float", "runs-string", "seed-float", "jobs-bool", "seeds-empty",
         "seeds-not-a-list", "seeds-float-entry", "gold-int", "base_url-int",
         "systems-string", "name-newline", "unknown-method", "n_min-too-big",
         "gold-empty", "source-empty", "scores-empty"],
)
def test_config_numbers_must_be_json_integers(tmp_path, key, value, problem):
    """So must every other config value have its type and range; each error
    names the config file."""
    payload = write_fixture(tmp_path)
    payload[key] = value
    path = write_config(tmp_path, payload)
    with pytest.raises(ValidationError, match=re.escape(f"{path}: {problem}")):
        load_config(path)


def test_config_integers_load_as_given(tmp_path):
    payload = write_fixture(tmp_path)
    payload.update(n_min=2)
    vote_config = load_config(write_config(tmp_path, payload))
    del payload["n_min"]
    payload.update(method="llm-rank", runs=3, seed=-4, jobs=2, seeds=[5, 6, 7])
    config = load_config(write_config(tmp_path, payload))
    assert (vote_config.n_min, config.runs, config.seed, config.jobs) == (2, 3, -4, 2)
    assert config.seeds == (5, 6, 7)
    del payload["seeds"]
    assert load_config(write_config(tmp_path, payload)).seeds is None


def test_absent_keys_take_the_field_defaults(tmp_path):
    payload = write_fixture(tmp_path)
    del payload["n_min"], payload["output_dir"]
    config = load_config(write_config(tmp_path, payload))
    defaults = {**ExperimentConfig._field_defaults, "output_dir": tmp_path / "results"}
    assert {key: getattr(config, key) for key in defaults} == defaults


def test_an_empty_output_dir_is_the_config_directory(tmp_path):
    payload = dict(write_fixture(tmp_path), output_dir="")
    assert load_config(write_config(tmp_path, payload)).output_dir == tmp_path


def test_config_validation_rules(tmp_path):
    payload = write_fixture(tmp_path)
    del payload["n_min"]  # so that the rank and aggr-rank cases reach their own checks
    base = load_config(write_config(tmp_path, payload))
    with pytest.raises(ValidationError):
        ExperimentConfig(**{**base._asdict(), "method": "sorcery"})
    with pytest.raises(ValidationError):
        ExperimentConfig(**{**base._asdict(), "method": "rank"})  # no scores
    with pytest.raises(ValidationError):
        ExperimentConfig(**{**base._asdict(), "method": "aggr-rank"})  # needs 2
    with pytest.raises(ValidationError):
        ExperimentConfig(**{**base._asdict(), "systems": ()})
    with pytest.raises(ValidationError):
        ExperimentConfig(
            **{**base._asdict(), "systems": (("x", tmp_path / "a.txt"),) * 2}
        )


@pytest.mark.parametrize(
    "path", sorted((Path(__file__).parent.parent / "configs").glob("*.json")), ids=lambda p: p.name
)
def test_every_shipped_config_loads(path):
    """Loading reads only the config itself, so its checks need no data files."""
    assert load_config(path).name == json.loads(path.read_text(encoding="utf-8"))["name"]


def test_only_the_experiment_needs_gold_not_its_method_step(tmp_path):
    config = load_config(write_config(tmp_path, write_fixture(tmp_path)))
    (tmp_path / "src.txt").write_text(
        "I likes turtles very much .\nShe go to school yesterday .\nNothing wrong here .\n",
        encoding="utf-8",
    )
    no_gold = config._replace(gold=None, source=tmp_path / "src.txt")
    with pytest.raises(ValidationError, match="experiment 'fixture' needs a gold file"):
        run_experiment(no_gold, load_inputs(no_gold))
    assert not (tmp_path / "results").exists()
    # without gold, the sources come from the source file
    assert combine(no_gold, load_inputs(no_gold)) == combine(config, load_inputs(config))


def test_system_entries_accept_name_equals_path_and_dicts(tmp_path):
    payload = write_fixture(tmp_path)
    payload["systems"] = [
        "alpha=a.txt",
        {"name": "beta", "path": "b.txt"},
        "c.txt",
    ]
    config = load_config(write_config(tmp_path, payload))
    assert [name for name, _ in config.systems] == ["alpha", "beta", "c"]


def test_vote_experiment_end_to_end(tmp_path):
    config = load_config(write_config(tmp_path, write_fixture(tmp_path)))
    result = run_experiment(config, load_inputs(config))
    # 2-of-3 agreement fixes both errors
    out = load_parallel(tmp_path / "results" / "fixture.out.txt")
    assert out[0].text == "I like turtles very much ."
    assert out[1].text == "She went to school yesterday ."
    assert out[2].text == "Nothing wrong here ."
    assert result.report.f05 == 1.0
    for suffix in ("out.txt", "report.txt", "row.tsv"):
        assert (tmp_path / "results" / f"fixture.{suffix}").exists()


def test_rerun_is_bit_identical(tmp_path):
    config = load_config(write_config(tmp_path, write_fixture(tmp_path)))
    run_experiment(config, load_inputs(config))
    artifacts = sorted((tmp_path / "results").iterdir())
    first = {p.name: p.read_bytes() for p in artifacts}
    run_experiment(config, load_inputs(config))
    second = {p.name: p.read_bytes() for p in sorted((tmp_path / "results").iterdir())}
    assert first == second


def test_llm_rank_experiment_runs_and_reruns_identically(tmp_path):
    payload = write_fixture(tmp_path)
    payload.update(method="llm-rank", runs=3, seed=17, backend="mock-lexmin")
    del payload["n_min"]
    config = load_config(write_config(tmp_path, payload))
    result = run_experiment(config, load_inputs(config))
    assert len(result.reports) == 3
    assert result.spread_f05() >= 0.0
    files = {p.name for p in (tmp_path / "results").iterdir()}
    assert {"fixture.run0.txt", "fixture.run1.txt", "fixture.run2.txt"} <= files
    snapshot = {
        p.name: p.read_bytes() for p in (tmp_path / "results").iterdir()
    }
    run_experiment(config, load_inputs(config))
    assert snapshot == {
        p.name: p.read_bytes() for p in (tmp_path / "results").iterdir()
    }


def test_rank_experiment_uses_score_file(tmp_path):
    payload = write_fixture(tmp_path)
    payload.update(method="rank", scores="scores.tsv")
    del payload["n_min"]
    rows = ["system\tsentence_index\tscore"]
    for name in ("a", "b", "c"):
        for i in range(3):
            rows.append(f"{name}\t{i}\t{1.0 if name == 'a' else 0.1}")
    (tmp_path / "scores.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    config = load_config(write_config(tmp_path, payload))
    result = run_experiment(config, load_inputs(config))
    assert result.outputs[0].sentences == tuple(
        load_parallel(tmp_path / "a.txt")
    )


def test_rank_experiment_reports_score_holes_with_sentence(tmp_path):
    payload = write_fixture(tmp_path)
    payload.update(method="rank", scores="scores.tsv")
    del payload["n_min"]
    (tmp_path / "scores.tsv").write_text(
        "system\tsentence_index\tscore\na\t0\t1\nb\t0\t1\nc\t0\t1\n",
        encoding="utf-8",
    )
    config = load_config(write_config(tmp_path, payload))
    with pytest.raises(ValidationError) as exc:
        run_experiment(config, load_inputs(config))
    assert str(exc.value) == (
        f"{tmp_path / 'scores.tsv'}: sentence 1: no score for system 'a'"
    )


def test_aggr_rank_experiment_names_both_sides(tmp_path):
    payload = write_fixture(tmp_path, systems=("a", "b"))
    payload.update(method="aggr-rank")
    del payload["n_min"]
    config = load_config(write_config(tmp_path, payload))
    result = run_experiment(config, load_inputs(config))
    assert result.outputs[0].name == "aggr-rank[a|b]"


def test_source_file_mismatch_is_reported_per_sentence(tmp_path):
    payload = write_fixture(tmp_path)
    (tmp_path / "src.txt").write_text(
        "I likes turtles very much .\nWRONG LINE HERE .\nNothing wrong here .\n",
        encoding="utf-8",
    )
    payload["source"] = "src.txt"
    config = load_config(write_config(tmp_path, payload))
    with pytest.raises(ValidationError) as exc:
        run_experiment(config, load_inputs(config))
    assert "sentence 1" in str(exc.value)


def test_ablation_needs_three_systems(tmp_path):
    payload = write_fixture(tmp_path, systems=("a", "b"))
    config = load_config(write_config(tmp_path, payload))
    with pytest.raises(ValidationError):
        run_study(config, "ablation")


def test_ablation_rows_and_noise_system_is_harmless(tmp_path):
    """Edits proposed by one system alone never clear n_min=1, so removing
    the noise member cannot change the vote output."""
    payload = write_fixture(tmp_path, systems=("a", "b", "c", "noise"))
    config = load_config(write_config(tmp_path, payload))
    rows = run_study(config, "ablation")
    assert [label for label, _ in rows] == [
        "full", "w/o a", "w/o b", "w/o c", "w/o noise",
    ]
    by_label = dict(rows)
    full = by_label["full"]
    without_noise = by_label["w/o noise"]
    assert full.outputs[0].sentences == without_noise.outputs[0].sentences
    assert (tmp_path / "results" / "fixture.ablation.tsv").exists()


def test_sweep_covers_all_thresholds(tmp_path):
    config = load_config(write_config(tmp_path, write_fixture(tmp_path)))
    rows = run_study(config, "sweep")
    assert [n for n, _ in rows] == [0, 1, 2, 3]
    # at n_min = N_sys nothing can win the vote, so output equals source
    saturated = rows[-1][1]
    assert saturated.report.n_proposed == 0
    sweep = (tmp_path / "results" / "fixture.sweep.tsv").read_text(encoding="utf-8")
    assert sweep.splitlines()[0] == "n_min\tP\tR\tF0.5"
    assert len(sweep.splitlines()) == 5


@pytest.mark.parametrize("method, study", [
    ("vote", None), ("vote", "sweep"), ("vote", "ablation"), ("oracle-ensemble", None),
    ("oracle-rank", "ablation"), ("llm-rank", None), ("llm-rank", "ablation"),
])
def test_artifact_paths_are_the_files_a_run_writes_in_order(tmp_path, monkeypatch,
                                                            method, study):
    """What the CLI checks before a run is what the run then writes."""
    payload = write_fixture(tmp_path, systems=("a", "b", "c", "noise"))
    payload["method"] = method
    if method != "vote":
        del payload["n_min"]
    if method == "llm-rank":
        payload["runs"] = 2
    config = load_config(write_config(tmp_path, payload))
    written = []
    write = geckit.experiment.atomic_write_text
    monkeypatch.setattr(geckit.experiment, "atomic_write_text",
                        lambda path, text: (written.append(path), write(path, text)))
    if study is None:
        run_experiment(config, load_inputs(config))
    else:
        run_study(config, study)
    assert written == [path for _, path in plan(config, study)[1]]
    assert sorted(p.name for p in (tmp_path / "results").iterdir()) == sorted(
        p.name for p in written)


def test_tsv_artifacts_keep_their_bytes(tmp_path):
    """The sweep, ablation, row and audit tables, pinned byte for byte."""
    payload = write_fixture(tmp_path, systems=("a", "b", "c", "noise"))
    run_study(load_config(write_config(tmp_path, payload)), "ablation")
    run_study(load_config(write_config(tmp_path, payload)), "sweep")
    payload.update(name="llm", method="llm-rank", runs=3)
    del payload["n_min"]
    config = load_config(write_config(tmp_path, payload))
    run_experiment(config, load_inputs(config))
    payload.update(name="orank", method="oracle-rank")
    del payload["runs"]
    config = load_config(write_config(tmp_path, payload))
    run_experiment(config, load_inputs(config))
    row_header = "experiment\tmethod\tP\tR\tF0.5\tF0.5_2std\tn_correct\tn_proposed\tn_gold\truns\n"
    expected = {
        "fixture.ablation.tsv": "variant\tP\tR\tF0.5\nfull\t100.0\t100.0\t100.0\n"
        "w/o a\t100.0\t0.0\t0.0\nw/o b\t100.0\t50.0\t83.3\nw/o c\t100.0\t50.0\t83.3\n"
        "w/o noise\t100.0\t100.0\t100.0\n",
        "fixture.sweep.tsv": "n_min\tP\tR\tF0.5\n0\t40.0\t100.0\t45.5\n1\t100.0\t100.0\t100.0\n"
        "2\t100.0\t0.0\t0.0\n3\t100.0\t0.0\t0.0\n4\t100.0\t0.0\t0.0\n",
        "fixture.row.tsv": row_header + "fixture\tvote\t100.0\t100.0\t100.0\t-\t2\t2\t2\t1\n",
        "llm.row.tsv": row_header + "llm\tllm-rank\t33.3\t50.0\t35.7\t0.0\t1\t3\t2\t3\n",
        "orank.audit.tsv": "sentence_index\tmethod\tannotator\tsystem\tn_selected\n"
        "0\toracle-rank\t0\ta\t1\n1\toracle-rank\t0\ta\t1\n2\toracle-rank\t0\ta\t0\n",
    }
    for name, text in expected.items():
        assert (tmp_path / "results" / name).read_bytes() == text.encode(), name


def test_sweep_rejects_non_vote_methods(tmp_path):
    payload = write_fixture(tmp_path, systems=("a", "b"))
    payload.update(method="aggr-rank")
    del payload["n_min"]
    config = load_config(write_config(tmp_path, payload))
    with pytest.raises(ValidationError):
        run_study(config, "sweep")


# --------------------------------------------------------------------------
# Sweeps and ablations load their inputs once and share one edit table; the
# artifacts must not change.


def _artifacts(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _shared_and_standalone(tmp_path, method):
    payload = write_fixture(tmp_path, systems=("a", "b", "c", "noise"))
    payload.update(method=method, source="src.txt")
    if "n_min" not in METHODS[method]:
        del payload["n_min"]
    (tmp_path / "src.txt").write_text(
        "".join(line[2:] + "\n" for line in GOLD.splitlines() if line.startswith("S ")),
        encoding="utf-8",
    )
    config = load_config(write_config(tmp_path, payload))
    alone = config._replace(output_dir=tmp_path / "alone")
    return config, alone


def test_sweep_artifacts_equal_standalone_runs(tmp_path):
    config, alone = _shared_and_standalone(tmp_path, "vote")
    rows = run_study(config, "sweep")
    for n_min, _ in rows:
        run_experiment(
            alone._replace(name=f"{config.name}.nmin{n_min}", n_min=n_min), load_inputs(alone)
        )
    shared = _artifacts(config.output_dir)
    assert shared.pop("fixture.sweep.tsv")
    assert shared == _artifacts(alone.output_dir)


@pytest.mark.parametrize("method", ["vote", "oracle-ensemble", "oracle-rank"])
def test_ablation_artifacts_equal_standalone_runs(tmp_path, method):
    config, alone = _shared_and_standalone(tmp_path, method)
    run_study(config, "ablation")
    run_experiment(alone, load_inputs(alone))
    for name, _ in config.systems:
        systems = tuple(s for s in config.systems if s[0] != name)
        run_experiment(
            alone._replace(name=f"{config.name}.wo-{name}", systems=systems), load_inputs(alone)
        )
    shared = _artifacts(config.output_dir)
    assert shared.pop("fixture.ablation.tsv")
    assert shared == _artifacts(alone.output_dir)


@pytest.mark.parametrize("study", ["sweep", "ablation"])
def test_repeated_runs_extract_each_pair_once_and_load_each_file_once(
    tmp_path, monkeypatch, study
):
    payload = write_fixture(tmp_path)  # then cut down to 2 sentences
    gold = GOLD.split("\n\n")[:2]
    (tmp_path / "gold.m2").write_text("\n\n".join(gold) + "\n", encoding="utf-8")
    for name in ("a", "b", "c"):
        (tmp_path / f"{name}.txt").write_text(
            "".join(line + "\n" for line in SYSTEMS[name][:2]), encoding="utf-8"
        )
    config = load_config(write_config(tmp_path, payload))

    extracted = Counter()
    real_extract = geckit.align.extract_edits

    def counting_extract(source, hypothesis):
        extracted[(tuple(source), tuple(hypothesis))] += 1
        return real_extract(source, hypothesis)

    loaded = Counter()

    def counting(fn):
        def wrapper(path, *args, **kwargs):
            loaded[path] += 1
            return fn(path, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(geckit.align, "extract_edits", counting_extract)
    for loader in ("load_m2", "load_system_output"):
        monkeypatch.setattr(
            geckit.experiment, loader, counting(getattr(geckit.experiment, loader))
        )
    run_study(config, study)

    sources = [stanza.split("\n")[0][2:].split() for stanza in gold]
    member_pairs = {
        (tuple(src), tuple(SYSTEMS[name][i].split()))
        for name in ("a", "b", "c")
        for i, src in enumerate(sources)
    }
    assert member_pairs <= set(extracted)
    assert set(extracted.values()) == {1}
    assert loaded == Counter([config.gold] + [path for _, path in config.systems])


def test_a_rank_ablation_loads_its_score_file_once(tmp_path, monkeypatch):
    payload = write_fixture(tmp_path)
    del payload["n_min"]
    rows = ((name, f"{i}", f"{(k + i) % 3}") for k, name in enumerate("abc") for i in range(3))
    (tmp_path / "scores.tsv").write_text(tsv(SCORE_FILE_HEADER, rows), encoding="utf-8")
    payload.update(method="rank", scores="scores.tsv")
    config = load_config(write_config(tmp_path, payload))
    loaded = Counter()
    real_load = geckit.experiment.load_score_file

    def counting_load(path):
        loaded[path] += 1
        return real_load(path)

    monkeypatch.setattr(geckit.experiment, "load_score_file", counting_load)
    assert len(run_study(config, "ablation")) == 4
    assert loaded == Counter([config.scores])


# --------------------------------------------------------------------------
# Sweeps and ablations share what their runs hold: one sentence per distinct
# line, one vote output per (sentence, kept edit set), one voter set per
# member subset. The artifacts must not change.


def _write_seeded_corpus(tmp_path, seed=17, n_sentences=40, n_members=5):
    """A gold M2 and ``n_members`` member files whose lines mostly repeat the
    source and each other: each member line is the source with a random
    subset of a few overlapping edits. Returns the vote config's payload."""
    rng = random.Random(seed)
    words, replacements = [f"w{i}" for i in range(8)], [f"r{i}" for i in range(4)]
    gold, members = [], [[] for _ in range(n_members)]
    for _ in range(n_sentences):
        source = TokenSentence(rng.choices(words, k=rng.randint(3, 12)))
        proposals = []
        for _ in range(rng.randint(1, 4)):
            start = rng.randint(0, len(source))
            end = min(len(source), start + rng.randint(0, 2))
            width = rng.randint(1 if start == end else 0, 2)
            edit = Edit(start, end, tuple(rng.choices(replacements, k=width)))
            if edit.replacement != source[start:end]:
                proposals.append(edit)

        def correction():
            kept = []
            for edit in rng.sample(proposals, len(proposals)):
                if rng.random() < 0.5 and not any(conflicts(edit, e) for e in kept):
                    kept.append(edit)
            return kept

        gold.append(GoldSentence(source, (tuple(correction()),)))
        for member in members:
            member.append(apply_edits(source, correction()))
    save_m2(tmp_path / "gold.m2", gold)
    for k, member in enumerate(members):
        save_parallel(tmp_path / f"m{k}.txt", member)
    return {
        "name": "seeded",
        "method": "vote",
        "gold": "gold.m2",
        "n_min": 1,
        "output_dir": "results",
        "systems": [f"m{k}.txt" for k in range(n_members)],
    }


def test_sweep_ablation_and_vote_bytes_stay_pinned(tmp_path):
    config = load_config(write_config(tmp_path, _write_seeded_corpus(tmp_path)))
    run_study(config, "sweep")
    run_study(config, "ablation")
    run_experiment(config._replace(name="vote"), load_inputs(config))
    digest = hashlib.sha256()
    for name, data in _artifacts(config.output_dir).items():
        digest.update(name.encode() + b"\0" + data + b"\0")
    assert len(_artifacts(config.output_dir)) == 3 * 6 + 2 + 3 * 6 + 3
    # the digest of the artifacts before these runs shared anything
    assert digest.hexdigest() == "01e316e26d3941953f14310ef44f4971f7040c666965cc5b250590fe0e37a8a5"


def _method_config(tmp_path, method):
    """The seeded corpus's config for ``method``: rank and rank-w read a
    seeded score file, aggr-rank ranks the first two members, llm-rank runs
    mock-lexmin twice and second-order-vote votes over a vote output and two
    members."""
    payload = _write_seeded_corpus(tmp_path)
    payload.update(name=method, method=method)
    if "n_min" not in METHODS[method]:
        del payload["n_min"]
    if method in ("rank", "rank-w"):
        rng = random.Random(5)
        scores = {(f"m{k}", i): rng.random() for k in range(5) for i in range(40)}
        rows = ((s, f"{i}", f"{value!r}") for (s, i), value in sorted(scores.items()))
        (tmp_path / "scores.tsv").write_text(tsv(SCORE_FILE_HEADER, rows), encoding="utf-8")
        payload["scores"] = "scores.tsv"
    elif method == "aggr-rank":
        payload["systems"] = ["m0.txt", "m1.txt"]
    elif method == "llm-rank":
        payload.update(backend="mock-lexmin", runs=2)
    elif method == "second-order-vote":
        first = load_config(write_config(tmp_path, dict(payload, name="vote", method="vote")))
        run_experiment(first, load_inputs(first))
        payload["systems"] = ["vote=results/vote.out.txt", "m0.txt", "m1.txt"]
    return load_config(write_config(tmp_path, payload))


# sha256 of each method's artifacts on the seeded corpus, recorded before
# every corpus function took the caller's edit table
METHOD_DIGESTS = {
    "vote": "6b47f8032909144fc2ceb54cc3461492a9a57e7b93b877556f2c593607315022",
    "second-order-vote": "947d531b0159c65f41005c8eeb6f1b9f87f1f4d3754d4c29b2f155f6b9e027fd",
    "oracle-ensemble": "49a482a18db0f7f6668baf267bf410b0e2ce91f1aa8b61a86064be47067cb08a",
    "oracle-rank": "f38521ec6f9cfc15858143f3ad5682a1a18aff5a58f83e42a86df35e434599f8",
    "rank": "cd3ec36fc6f4626fee0acc9a7544198cde74301090462c9817f992e2c822f554",
    "rank-w": "7aec917db2a4d5ef6c8327d15206f540602df852bd344aeacdb4ca02020282d3",
    "aggr-rank": "61904fa23972e6cefd464aae50b67d07a0e759fa3c8a9ef6091227cd1c6c9c6b",
    "llm-rank": "9ff1bcc024b9012ce31ee9e600a7c3b09352e3769af6b52348f36da8c966557b",
}


@pytest.mark.parametrize("method", METHODS)
def test_method_bytes_stay_pinned(tmp_path, method):
    config = _method_config(tmp_path, method)
    run_experiment(config, load_inputs(config))
    digest = hashlib.sha256()
    for name, data in _artifacts(config.output_dir).items():
        digest.update(name.encode() + b"\0" + data + b"\0")
    assert digest.hexdigest() == METHOD_DIGESTS[method]


@pytest.mark.parametrize("method", ["vote", "oracle-ensemble", "oracle-rank", "aggr-rank"])
def test_one_experiment_extracts_each_pair_once(tmp_path, monkeypatch, method):
    """The method step and the scoring of its output share one edit table."""
    config = _method_config(tmp_path, method)
    extracted = Counter()
    real_extract = geckit.align.extract_edits

    def counting_extract(source, hypothesis):
        extracted[(tuple(source), tuple(hypothesis))] += 1
        return real_extract(source, hypothesis)

    monkeypatch.setattr(geckit.align, "extract_edits", counting_extract)
    inputs = load_inputs(config)  # which pools the members' edits of a vote
    result = run_experiment(config, inputs)

    scored = {  # the pairs of the members and of the output scored
        (tuple(gs.source), tuple(out.sentences[i]))
        for out in (*(inputs.members[name] for name, _ in config.systems), *result.outputs)
        for i, gs in enumerate(inputs.gold)
    }
    assert scored <= set(extracted)
    assert set(extracted.values()) == {1}


@pytest.mark.parametrize("method", METHODS)
def test_combine_reads_no_file(tmp_path, monkeypatch, method):
    """load_inputs reads every file a run reads, the score file included."""
    config = _method_config(tmp_path, method)
    inputs = load_inputs(config)

    def refuse(path):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr(geckit.corpus, "read_text", refuse)
    outputs, _, _ = combine(config, inputs)
    assert len(outputs) == config.runs


def test_score_and_cluster_bytes_stay_pinned(tmp_path):
    payload = _write_seeded_corpus(tmp_path)
    members = [str(tmp_path / path) for path in payload["systems"]]
    score, clusters, matrix = (tmp_path / f"{name}.tsv" for name in ("score", "clusters", "matrix"))
    gold = str(tmp_path / "gold.m2")
    assert main(["score", "--tsv", "--hyp", members[0], "--gold", gold, "--out", str(score)]) == 0
    assert main(["cluster", *(f"--sys={m}" for m in members), "--threshold", "0.15",
                 "--out", str(clusters), "--matrix", str(matrix)]) == 0
    digests = [hashlib.sha256(path.read_bytes()).hexdigest() for path in (score, clusters, matrix)]
    # recorded before every corpus function took the caller's edit table
    assert digests == [
        "1e1d10e6dd7f3b1f1558963815fcc87bacd757ebd6f531df319c970702dcc9e2",
        "2d7e4ef76850d66e23c62e686a34eee422239ff501df5f76ce55e67f323439f7",
        "1d1b9a482862ed7796ae90442be2192b6d50cdb800a81598ce5d50b93f3e02fc",
    ]


@pytest.mark.parametrize("study", ["sweep", "ablation"])
def test_repeated_runs_apply_each_kept_edit_set_once(tmp_path, monkeypatch, study):
    config = load_config(write_config(tmp_path, _write_seeded_corpus(tmp_path)))
    applied = Counter()
    real_apply = geckit.vote.apply_edits

    def counting_apply(source, edits):
        applied[(tuple(source), frozenset(edits))] += 1
        return real_apply(source, edits)

    monkeypatch.setattr(geckit.vote, "apply_edits", counting_apply)
    run_study(config, study)

    # every run's kept sets, recounted one sentence at a time
    inputs = load_inputs(config)
    runs = (
        [(config.systems, n_min) for n_min in range(len(config.systems) + 1)]
        if study == "sweep"
        else [(config.systems, config.n_min)] + [
            (tuple(s for s in config.systems if s != left_out), config.n_min)
            for left_out in config.systems
        ]
    )
    expected = set()
    for systems, n_min in runs:
        for i, source in enumerate(inputs.sources):
            outputs = [(name, inputs.members[name].sentences[i]) for name, _ in systems]
            kept = kept_one(source, outputs, n_min)
            if kept:
                expected.add((tuple(source), frozenset(kept)))
    assert set(applied) == expected
    assert set(applied.values()) == {1}
    # runs share outputs: fewer applications than runs times sentences
    assert len(expected) < len(runs) * len(inputs.sources) / 2


def test_a_single_vote_run_applies_each_edited_sentence_once(tmp_path, monkeypatch):
    config = load_config(write_config(tmp_path, _write_seeded_corpus(tmp_path)))
    calls = []
    real_apply = geckit.vote.apply_edits

    def counting_apply(source, edits):
        calls.append(source)
        return real_apply(source, edits)

    monkeypatch.setattr(geckit.vote, "apply_edits", counting_apply)
    inputs = load_inputs(config)
    run_experiment(config, inputs)
    edited = [
        i for i, source in enumerate(inputs.sources)
        if kept_one(
            source, [(name, inputs.members[name].sentences[i]) for name, _ in config.systems],
            config.n_min,
        )
    ]
    assert calls == [inputs.sources[i] for i in edited]
    # the run's memo holds one entry per edited sentence
    assert sorted(key[0] for key in inputs.applied) == edited


def test_load_inputs_holds_one_sentence_per_distinct_line(tmp_path):
    """Members that repeat the source hold no sentence of their own."""
    payload = write_fixture(tmp_path, systems=())
    n = 400
    lines = [" ".join(f"t{i}x{k}" for k in range(20)) for i in range(n)]
    (tmp_path / "gold.m2").write_text("".join(f"S {s}\n\n" for s in lines), encoding="utf-8")
    (tmp_path / "src.txt").write_text("".join(f"{s}\n" for s in lines), encoding="utf-8")
    systems = []
    for k in range(7):
        (tmp_path / f"m{k}.txt").write_text("".join(f"{s}\n" for s in lines), encoding="utf-8")
        systems.append(f"m{k}.txt")
    payload.update(systems=systems, source="src.txt")
    config = load_config(write_config(tmp_path, payload))
    # hold every token, so that interning them cannot grow the interpreter's
    # table of interned strings while the load is traced
    tokens = [TokenSentence.parse(s) for s in lines]
    tracemalloc.start()
    try:
        inputs = load_inputs(config)
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tokens) == n
    sentences = [gs.source for gs in inputs.gold]
    assert sentences == inputs.sources
    for member in inputs.members.values():
        assert all(a is b for a, b in zip(member.sentences, sentences))
    # 400 gold sentences and 7 members of 400 pointers each hold about
    # 0.25 MB; with one tuple per member line the load held 1.07 MB.
    assert size < 500_000, size


def test_a_fresh_load_shares_no_sentence_with_an_earlier_one(tmp_path):
    payload = write_fixture(tmp_path, systems=("a", "b", "c", "noise"))
    config = load_config(write_config(tmp_path, payload))

    def sentences(inputs):
        return [gs.source for gs in inputs.gold] + [
            s for member in inputs.members.values() for s in member.sentences
        ]

    first, second = load_inputs(config), load_inputs(config)
    assert sentences(first) == sentences(second)
    assert not {id(s) for s in sentences(first)} & {id(s) for s in sentences(second)}
    # within one load, the members' unchanged lines are the gold's sentences
    assert first.members["b"].sentences[2] is first.gold[2].source


def test_a_json_syntax_error_names_the_config_and_its_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "name": "x",\n', encoding="utf-8")
    with pytest.raises(ValidationError) as exc:
        load_config(path)
    assert str(exc.value).startswith(f"{path}: line 3 column 1: invalid JSON: ")


@pytest.mark.parametrize("text, key", [
    ('{"name": "x", "method": "vote", "gold": "gold.m2", "n_min": 1,'
     ' "systems": ["a.txt", "b.txt"], "n_min": 2}', "n_min"),
    ('{"name": "x", "method": "vote", "gold": "gold.m2",'
     ' "systems": [{"name": "a", "path": "a.txt", "path": "b.txt"}, "c.txt"]}', "path"),
], ids=["top-level", "systems-entry"])
def test_a_config_that_gives_a_key_twice_is_refused(tmp_path, capsys, text, key):
    """json keeps the last value of a repeated key; a config refuses the
    repeat at any depth, before any input is read: none of its files exists."""
    path = tmp_path / "cfg.json"
    path.write_text(text, encoding="utf-8")
    assert main(["experiment", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: key {key!r} given twice\n"


def test_an_empty_experiment_name_is_refused(tmp_path):
    payload = dict(write_fixture(tmp_path), name="")
    with pytest.raises(ValidationError, match="experiment name must be non-empty"):
        load_config(write_config(tmp_path, payload))
    assert not (tmp_path / "results").exists()
