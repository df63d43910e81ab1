"""Exit codes, file outputs, and determinism of the command-line interface."""

import errno
import gc
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from geckit import align, scoring
from geckit.cli import main
from geckit.experiment import METHODS

GOLD = """S I likes turtles very much .
A 1 2|||SVA|||like|||REQUIRED|||-NONE-|||0

S She go to school yesterday .
A 1 2|||Vt|||went|||REQUIRED|||-NONE-|||0
"""

SRC = "I likes turtles very much .\nShe go to school yesterday .\n"
SYS_A = "I like turtles very much .\nShe went to school yesterday .\n"
SYS_B = "I like turtles very much .\nShe go to school yesterday .\n"
SYS_C = "I likes turtles very much .\nShe went to school yesterday .\n"


@pytest.fixture
def data(tmp_path):
    (tmp_path / "gold.m2").write_text(GOLD, encoding="utf-8")
    (tmp_path / "src.txt").write_text(SRC, encoding="utf-8")
    (tmp_path / "a.txt").write_text(SYS_A, encoding="utf-8")
    (tmp_path / "b.txt").write_text(SYS_B, encoding="utf-8")
    (tmp_path / "c.txt").write_text(SYS_C, encoding="utf-8")
    return tmp_path


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "COMMAND" in capsys.readouterr().out


def test_unknown_subcommand_exits_one(capsys):
    assert main(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_flag_exits_one(capsys):
    assert main(["score", "--bogus"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err


def test_missing_file_exits_one(data, capsys):
    missing = data / "nope.txt"
    code = main(["score", "--hyp", str(missing), "--gold", str(data / "gold.m2")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {missing}: no such file\n"


def test_non_utf8_member_exits_one_naming_the_byte(data, capsys):
    member = data / "latin1.txt"
    member.write_bytes("I like turtles very much .\nShe went to caf\xe9 .\n".encode("latin-1"))
    code = main(["extract", "--src", str(data / "src.txt"), "--hyp", str(member)])
    assert code == 1
    offset = len("I like turtles very much .\nShe went to caf")
    assert capsys.readouterr().err == f"error: {member}: not UTF-8: byte 0xe9 at offset {offset}\n"


def test_directory_as_input_exits_one_naming_it(data, capsys):
    code = main(["extract", "--src", str(data / "src.txt"), "--hyp", str(data)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {data}: is a directory, not a file\n"


def test_malformed_gold_exits_one(data, capsys):
    bad = data / "bad.m2"
    bad.write_text("S a b\nA zero 1|||X|||x|||R|||-NONE-|||0\n", encoding="utf-8")
    assert main(["score", "--hyp", str(data / "a.txt"), "--gold", str(bad)]) == 1


def test_runtime_failure_exits_two(data, monkeypatch, capsys):
    # an internal fault, not a problem with the user's input
    def fail(*args, **kwargs):
        raise RuntimeError("internal fault")

    monkeypatch.setattr(scoring, "score_corpus", fail)
    code = main(["score", "--hyp", str(data / "a.txt"), "--gold", str(data / "gold.m2")])
    assert code == 2
    assert "RuntimeError: internal fault" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["score", "--hyp", "a.txt", "--gold", "gold.m2", "--out"],
    ["cluster", "--sys", "a.txt", "--sys", "b.txt", "--matrix"],
], ids=["score-out", "cluster-matrix"])
def test_directory_as_output_exits_one_naming_it(data, monkeypatch, capsys, argv):
    monkeypatch.chdir(data)
    (data / "results").mkdir()
    assert main([*argv, "results"]) == 1
    assert capsys.readouterr().err == "error: results: is a directory, not a file\n"
    assert list((data / "results").iterdir()) == []  # no temporary file left behind


@pytest.mark.parametrize("out", ["a.txt/x", "a.txt/sub/x"], ids=["file-parent", "file-grandparent"])
def test_output_path_through_a_file_exits_one_naming_it(data, monkeypatch, capsys, out):
    monkeypatch.chdir(data)
    assert main(["extract", "--src", "src.txt", "--hyp", "a.txt", "--out", out]) == 1
    assert capsys.readouterr().err == f"error: {out}: a parent is a file, not a directory\n"


@pytest.mark.parametrize("out", ["loop1/x", "loop1/sub/x"], ids=["loop-parent", "loop-grandparent"])
def test_output_path_through_a_symlink_loop_exits_one_naming_it(data, monkeypatch, capsys, out):
    monkeypatch.chdir(data)
    os.symlink("loop2", "loop1")
    os.symlink("loop1", "loop2")
    assert main(["score", "--hyp", "a.txt", "--gold", "gold.m2", "--out", out]) == 1
    assert capsys.readouterr().err == f"error: {out}: symbolic links in the path form a loop\n"


@pytest.mark.parametrize("hyp", ["a.txt/x", "a.txt/sub/x"], ids=["file-parent", "file-grandparent"])
def test_input_path_through_a_file_exits_one_naming_it(data, monkeypatch, capsys, hyp):
    monkeypatch.chdir(data)
    assert main(["score", "--hyp", hyp, "--gold", "gold.m2"]) == 1
    assert capsys.readouterr().err == f"error: {hyp}: a parent is a file, not a directory\n"


def test_unreadable_input_exits_one_naming_it(data, monkeypatch, capsys):
    def refuse(path, *args, **kwargs):  # root reads any file, whatever its mode
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.chdir(data)
    monkeypatch.setattr(Path, "read_text", refuse)
    assert main(["score", "--hyp", "a.txt", "--gold", "gold.m2"]) == 1
    assert capsys.readouterr().err == "error: gold.m2: permission denied\n"


@pytest.mark.parametrize("hyp, reason", [
    ("x" * 300, "a name in the path is too long"),
    ("loop1", "symbolic links in the path form a loop"),
], ids=["name-too-long", "symlink-loop"])
def test_input_path_the_file_system_refuses_exits_one_naming_it(data, monkeypatch, capsys,
                                                               hyp, reason):
    monkeypatch.chdir(data)
    os.symlink("loop2", "loop1")
    os.symlink("loop1", "loop2")
    assert main(["score", "--hyp", hyp, "--gold", "gold.m2"]) == 1
    assert capsys.readouterr().err == f"error: {hyp}: {reason}\n"


def test_input_io_failure_not_about_the_path_exits_two(data, monkeypatch, capsys):
    def fail(path, *args, **kwargs):
        raise OSError(errno.EIO, "Input/output error", str(path))

    monkeypatch.chdir(data)
    monkeypatch.setattr(Path, "read_text", fail)
    assert main(["score", "--hyp", "a.txt", "--gold", "gold.m2"]) == 2
    assert "OSError: [Errno 5] Input/output error" in capsys.readouterr().err


def test_output_name_of_250_bytes_is_written_with_no_temp_file_left(data, monkeypatch):
    monkeypatch.chdir(data)
    out = "r" * 246 + ".tsv"
    assert main(["score", "--hyp", "a.txt", "--gold", "gold.m2", "--out", out]) == 0
    assert "F0.5" in (data / out).read_text(encoding="utf-8")
    assert not [p for p in os.listdir(data) if p.endswith(".tmp")]


def test_output_name_the_file_system_refuses_exits_one_naming_it(data, monkeypatch, capsys):
    monkeypatch.chdir(data)
    before = sorted(os.listdir(data))
    out = "r" * 252 + ".tsv"
    assert main(["score", "--hyp", "a.txt", "--gold", "gold.m2", "--out", out]) == 1
    assert capsys.readouterr().err == f"error: {out}: a name in the path is too long\n"
    assert sorted(os.listdir(data)) == before  # no temporary file left behind


def test_score_prints_table(data, capsys):
    code = main(["score", "--hyp", str(data / "a.txt"), "--gold", str(data / "gold.m2")])
    assert code == 0
    out = capsys.readouterr().out
    assert "F0.5" in out and "100.0" in out


def test_score_tsv_mode(data, capsys):
    code = main([
        "score", "--hyp", str(data / "b.txt"), "--gold", str(data / "gold.m2"), "--tsv",
    ])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split("\t") == ["P", "R", "F0.5", "n_correct", "n_proposed", "n_gold"]
    assert lines[1].split("\t") == ["100.0", "50.0", "83.3", "1", "1", "2"]


def test_score_src_crosscheck(data, capsys):
    code = main([
        "score", "--hyp", str(data / "a.txt"), "--gold", str(data / "gold.m2"),
        "--src", str(data / "a.txt"),  # wrong file on purpose
    ])
    assert code == 1
    assert "disagrees" in capsys.readouterr().err


def test_extract_apply_roundtrip(data, capsys):
    edits = data / "edits.tsv"
    assert main([
        "extract", "--src", str(data / "src.txt"), "--hyp", str(data / "a.txt"),
        "--out", str(edits),
    ]) == 0
    restored = data / "restored.txt"
    assert main([
        "apply", "--src", str(data / "src.txt"), "--edits", str(edits),
        "--out", str(restored),
    ]) == 0
    assert restored.read_text(encoding="utf-8") == SYS_A


def test_extract_stdout_format(data, capsys):
    assert main(["extract", "--src", str(data / "src.txt"), "--hyp", str(data / "a.txt")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "sentence_index\tstart\tend\treplacement"
    assert lines[1] == "0\t1\t2\tlike"
    assert lines[2] == "1\t1\t2\twent"


def test_extract_refuses_a_replacement_that_apply_would_read_as_a_deletion(data, monkeypatch,
                                                                            capsys):
    monkeypatch.chdir(data)
    (data / "s.txt").write_text("a b .\n", encoding="utf-8")
    (data / "h.txt").write_text("a -NONE- .\n", encoding="utf-8")
    assert main(["extract", "--src", "s.txt", "--hyp", "h.txt", "--out", "e.tsv"]) == 1
    err = capsys.readouterr().err
    assert err == "error: sentence 0: replacement '-NONE-' would read back as a deletion\n"
    assert not (data / "e.tsv").exists()


def test_apply_rejects_bad_header(data, capsys):
    edits = data / "edits.tsv"
    edits.write_text("wrong\theader\n", encoding="utf-8")
    assert main([
        "apply", "--src", str(data / "src.txt"), "--edits", str(edits),
    ]) == 1


def test_vote_usage_names_the_flags_as_typed(capsys):
    assert main(["vote"]) == 1
    usage = capsys.readouterr().err
    assert "--src SRC" in usage and "--nmin NMIN" in usage


def test_vote_writes_output(data, capsys):
    out = data / "ens.txt"
    code = main([
        "vote", "--src", str(data / "src.txt"),
        "--sys", str(data / "a.txt"), "--sys", str(data / "b.txt"),
        "--sys", str(data / "c.txt"), "--nmin", "1", "--out", str(out),
    ])
    assert code == 0
    assert out.read_text(encoding="utf-8") == SYS_A  # 2-of-3 on both edits


def test_vote_names_the_ensemble_on_stderr(data, capsys):
    argv = ["vote", "--src", str(data / "src.txt"), "--sys", str(data / "a.txt"),
            "--sys", str(data / "b.txt"), "--nmin", "1", "--out", str(data / "ens.txt")]
    assert main(argv) == 0
    assert capsys.readouterr().err == f"wrote {data / 'ens.txt'} (majority-vote(n_min=1)[a+b])\n"


def test_vote_named_systems(data):
    out = data / "ens.txt"
    code = main([
        "vote", "--src", str(data / "src.txt"),
        "--sys", f"left={data / 'a.txt'}", "--sys", f"right={data / 'b.txt'}",
        "--nmin", "0", "--out", str(out),
    ])
    assert code == 0


def test_vote_duplicate_names_rejected(data, capsys):
    code = main([
        "vote", "--src", str(data / "src.txt"),
        "--sys", str(data / "a.txt"), "--sys", str(data / "a.txt"),
        "--nmin", "0", "--out", str(data / "x.txt"),
    ])
    assert code == 1


def test_duplicate_system_name_is_named_on_stderr(data, capsys):
    code = main([
        "vote", "--src", str(data / "src.txt"),
        "--sys", str(data / "b.txt"), "--sys", str(data / "a.txt"),
        "--sys", str(data / "a.txt"), "--nmin", "0", "--out", str(data / "x.txt"),
    ])
    assert code == 1
    assert capsys.readouterr().err == "error: duplicate system name 'a'\n"

    config = data / "exp.json"
    config.write_text(
        '{"name": "dup", "method": "vote", "gold": "gold.m2",'
        ' "systems": ["a.txt", "c=b.txt", "c.txt"]}',
        encoding="utf-8",
    )
    assert main(["experiment", "--config", str(config)]) == 1
    assert capsys.readouterr().err == f"error: {config}: duplicate system name 'c'\n"


def test_oracle_subcommands_write_audit(data):
    for method in ("oracle-ensemble", "oracle-rank"):
        out = data / f"{method}.txt"
        audit = data / f"{method}.tsv"
        code = main([
            method, "--gold", str(data / "gold.m2"),
            "--sys", str(data / "a.txt"), "--sys", str(data / "b.txt"),
            "--out", str(out), "--audit", str(audit),
        ])
        assert code == 0
        assert out.read_text(encoding="utf-8") == SYS_A
        assert audit.read_text(encoding="utf-8").startswith("sentence_index\t")


def test_rank_with_score_file(data, capsys):
    scores = data / "scores.tsv"
    rows = ["system\tsentence_index\tscore"]
    for i in range(2):
        rows += [f"a\t{i}\t0.9", f"b\t{i}\t0.1", f"c\t{i}\t0.1"]
    scores.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code = main([
        "rank", "--sys", str(data / "a.txt"), "--sys", str(data / "b.txt"),
        "--sys", str(data / "c.txt"), "--scores", str(scores),
    ])
    assert code == 0
    assert capsys.readouterr().out == SYS_A


@pytest.mark.parametrize("method", ["rank", "rank-w"])
def test_rank_rejects_a_nan_score_in_either_member_order(tmp_path, monkeypatch, capsys, method):
    # No comparison ranks a NaN: h1 would win in one order and h2 in the other.
    monkeypatch.chdir(tmp_path)
    Path("h1.txt").write_text("a b .\nx y\n", encoding="utf-8")
    Path("h2.txt").write_text("a b c\nx y\n", encoding="utf-8")
    Path("s.tsv").write_text(
        "system\tsentence_index\tscore\nh1\t0\tnan\nh1\t1\t0.5\nh2\t0\t0.5\nh2\t1\t0.5\n",
        encoding="utf-8",
    )
    for members in (["h1.txt", "h2.txt"], ["h2.txt", "h1.txt"]):
        argv = [method, "--scores", "s.tsv", *(flag for m in members for flag in ("--sys", m))]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: s.tsv: score file line 2: non-finite score 'nan'\n"


def test_aggr_rank_cli(data, capsys):
    code = main([
        "aggr-rank", "--src", str(data / "src.txt"),
        "--primary", str(data / "b.txt"), "--alt", str(data / "a.txt"),
    ])
    assert code == 0
    # sentence 0: equal aggressiveness -> alt; sentence 1: primary edits
    # nothing -> alt
    assert capsys.readouterr().out == SYS_A


def test_aggr_rank_members_may_share_a_file_stem(data, capsys):
    for directory, text in (("d1", SYS_B), ("d2", SYS_A)):
        (data / directory).mkdir()
        (data / directory / "a.txt").write_text(text, encoding="utf-8")
    code = main([
        "aggr-rank", "--src", str(data / "src.txt"),
        "--primary", str(data / "d1" / "a.txt"), "--alt", str(data / "d2" / "a.txt"),
    ])
    assert code == 0
    assert capsys.readouterr().out == SYS_A  # as test_aggr_rank_cli


def test_cluster_writes_matrix(data, capsys):
    matrix = data / "sim.tsv"
    code = main([
        "cluster", "--sys", str(data / "a.txt"), "--sys", str(data / "b.txt"),
        "--sys", str(data / "c.txt"), "--threshold", "0.11",
        "--matrix", str(matrix),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "system\tcluster\trepresentative"
    assert matrix.read_text(encoding="utf-8").startswith("system\t")


@pytest.mark.parametrize("name", ["a\tb", "a\nb", "a\rb"])
def test_a_system_name_with_a_tab_or_line_break_stops_the_run(tmp_path, monkeypatch, capsys,
                                                              name):
    # Written out, the name would add a column to the clusters and matrix rows.
    # No member file exists, so any read would fail with a different error.
    monkeypatch.chdir(tmp_path)
    argv = ["cluster", "--sys", f"{name}=h1.txt", "--sys", "h2.txt", "--sys", "h3.txt",
            "--matrix", "m.tsv"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: system name {name!r} contains a tab or a line break\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("threshold", ["nan", "inf", "-1"])
def test_cluster_rejects_a_threshold_that_is_not_finite_and_non_negative(data, capsys,
                                                                         threshold):
    code = main(["cluster", "--sys", str(data / "a.txt"), "--sys", str(data / "b.txt"),
                 "--threshold", threshold])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: cluster threshold must be finite and >= 0, got {float(threshold)}\n"
    )


def test_cluster_matrix_bytes_do_not_depend_on_hash_seed(tmp_path):
    """Two fresh interpreters with different string hashes, so different
    set and dict orders, write the same matrix, clusters and exact values."""
    rng = random.Random(7)
    words = [f"w{i}" for i in range(40)]
    base = [rng.choices(words, k=rng.randint(5, 25)) for _ in range(30)]
    paths = []
    for k in range(5):
        lines = [" ".join(t if rng.random() > 0.1 * k else rng.choice(words) for t in tokens)
                 for tokens in base]
        paths.append(tmp_path / f"s{k}.txt")
        paths[-1].write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = (
        "import sys\n"
        "from geckit.cli import main\n"
        "from geckit.corpus import load_system_output\n"
        "from geckit.ranking import similarity_matrix\n"
        "paths = sys.argv[2:]\n"
        "argv = ['cluster', '--matrix', sys.argv[1]]\n"
        "for p in paths:\n"
        "    argv += ['--sys', p]\n"
        "assert main(argv) == 0\n"
        "outs = [load_system_output(p, p) for p in paths]\n"
        "print([v.hex() for row in similarity_matrix(outs).values for v in row])\n"
    )
    runs = []
    for hash_seed in ("0", "1"):
        matrix = tmp_path / f"matrix{hash_seed}.tsv"
        result = subprocess.run(
            [sys.executable, "-c", code, str(matrix), *map(str, paths)],
            capture_output=True, text=True, encoding="utf-8",
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
        )
        assert result.returncode == 0, result.stderr
        runs.append((matrix.read_bytes(), result.stdout))
    assert runs[0] == runs[1]
    assert runs[0][0].startswith(b"system\ts0\t")


def test_llm_rank_variant_b_writes_the_runs_of_variant_a(data):
    """mock-lexmin ranks by content, so both variants pick the smallest
    sentence, here member b's in both sentences."""
    argv = ["llm-rank", "--src", str(data / "src.txt"), "--sys", str(data / "a.txt"),
            "--sys", str(data / "b.txt"), "--sys", str(data / "c.txt"), "--runs", "2",
            "--seed", "3", "--mock", "lexmin"]
    for variant in ("a", "b"):
        assert main([*argv, "--variant", variant, "--out-prefix", str(data / variant)]) == 0
    for r in range(2):
        written = (data / f"b.run{r}.txt").read_bytes()
        assert written == (data / f"a.run{r}.txt").read_bytes() == (data / "b.txt").read_bytes()


def test_stdout_is_utf8_whatever_the_locale(data):
    """extract to stdout under a Latin-1 locale writes the bytes of --out,
    and apply reads them back."""
    (data / "cafe.txt").write_text("I likes café very much .\n" + SRC.splitlines()[1] + "\n",
                                   encoding="utf-8")
    extract = ["extract", "--src", str(data / "src.txt"), "--hyp", str(data / "cafe.txt")]
    result = subprocess.run(
        [sys.executable, "-m", "geckit.cli", *extract],
        capture_output=True, env={**os.environ, "PYTHONIOENCODING": "latin-1"},
    )
    assert result.returncode == 0, result.stderr
    assert main([*extract, "--out", str(data / "edits.tsv")]) == 0
    assert result.stdout == (data / "edits.tsv").read_bytes()
    (data / "stdout.tsv").write_bytes(result.stdout)
    assert main(["apply", "--src", str(data / "src.txt"), "--edits", str(data / "stdout.tsv"),
                 "--out", str(data / "applied.txt")]) == 0
    assert (data / "applied.txt").read_bytes() == (data / "cafe.txt").read_bytes()


def test_llm_rank_is_deterministic_across_invocations(data):
    args = [
        "llm-rank", "--src", str(data / "src.txt"),
        "--sys", str(data / "a.txt"), "--sys", str(data / "b.txt"),
        "--sys", str(data / "c.txt"), "--variant", "a", "--runs", "2",
        "--seed", "11", "--mock", "lexmin",
    ]
    assert main(args + ["--out-prefix", str(data / "first")]) == 0
    assert main(args + ["--out-prefix", str(data / "second")]) == 0
    for r in range(2):
        one = (data / f"first.run{r}.txt").read_bytes()
        two = (data / f"second.run{r}.txt").read_bytes()
        assert one == two


def _distinct_members(tmp_path) -> list[str]:
    """llm-rank arguments over 20 sentences, in which the 3 members differ."""
    (tmp_path / "src.txt").write_text("".join(f"s{i} .\n" for i in range(20)), encoding="utf-8")
    argv = ["llm-rank", "--src", str(tmp_path / "src.txt")]
    for k in range(3):
        member = "".join(f"s{i} m{k} .\n" for i in range(20))
        (tmp_path / f"m{k}.txt").write_text(member, encoding="utf-8")
        argv += ["--sys", str(tmp_path / f"m{k}.txt")]
    return [*argv, "--mock", "label-a"]


def test_llm_rank_no_shuffle_keeps_the_first_member_under_label_a(tmp_path):
    """With candidates in input order, a backend that always answers A picks
    the first --sys member in every sentence of every run."""
    argv = [*_distinct_members(tmp_path), "--runs", "2", "--no-shuffle"]
    assert main([*argv, "--out-prefix", str(tmp_path / "ordered")]) == 0
    for run in range(2):
        written = (tmp_path / f"ordered.run{run}.txt").read_text(encoding="utf-8")
        assert written == (tmp_path / "m0.txt").read_text(encoding="utf-8")


def test_llm_rank_shuffles_candidates_by_default(tmp_path):
    """Without --no-shuffle, label A is some other member in some sentence."""
    assert main([*_distinct_members(tmp_path), "--out-prefix", str(tmp_path / "shuffled")]) == 0
    chosen = (tmp_path / "shuffled.run0.txt").read_text(encoding="utf-8").splitlines()
    assert len(chosen) == 20
    assert any(line != f"s{i} m0 ." for i, line in enumerate(chosen))


def test_experiment_cli(data, capsys):
    config = data / "exp.json"
    config.write_text(
        """{
  "name": "cli-exp", "method": "vote", "gold": "gold.m2", "n_min": 1,
  "output_dir": "results",
  "systems": ["a.txt", "b.txt", "c.txt"]
}""",
        encoding="utf-8",
    )
    assert main(["experiment", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("experiment\tmethod\t")
    assert (data / "results" / "cli-exp.out.txt").exists()
    assert main(["experiment", "--config", str(config), "--ablation"]) == 0
    assert "w/o" in capsys.readouterr().out


def test_experiment_ablation_and_sweep_are_exclusive(data, capsys):
    # Each writes its own table; given both, the command must not quietly
    # run one of them.
    config = data / "exp.json"
    config.write_text(
        '{"name": "both", "method": "vote", "gold": "gold.m2", "n_min": 1,'
        ' "output_dir": "results", "systems": ["a.txt", "b.txt", "c.txt"]}',
        encoding="utf-8",
    )
    argv = ["experiment", "--config", str(config), "--ablation", "--sweep-nmin"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "--ablation" in err.splitlines()[-1] and "--sweep-nmin" in err.splitlines()[-1]
    assert not (data / "results").exists()


# (bad file contents, arguments that read it as the given path)
_BAD_INPUTS = {
    "score": (
        "S a b\nA zero 1|||X|||x|||R|||-NONE-|||0\n",
        lambda bad: ["score", "--hyp", "a.txt", "--gold", bad],
    ),
    "rank": (
        "system\tsentence_index\tscore\na\t0\t1\na\tone\t1\n",
        lambda bad: ["rank", "--sys", "a.txt", "--scores", bad],
    ),
    "rank-hole": (
        "system\tsentence_index\tscore\na\t0\t1\n",
        lambda bad: ["rank", "--sys", "a.txt", "--sys", "b.txt", "--scores", bad],
    ),
    "experiment": (
        '{"name": "x",',
        lambda bad: ["experiment", "--config", bad],
    ),
    "apply": (
        "wrong\theader\n",
        lambda bad: ["apply", "--src", "src.txt", "--edits", bad],
    ),
    "apply-span": (
        "sentence_index\tstart\tend\treplacement\n0\t0\t9\tx\n",
        lambda bad: ["apply", "--src", "src.txt", "--edits", bad],
    ),
    # Latin-1 bytes: the M2 and config readers, as the parallel one, name the file
    "score-latin1": (
        "S caf\xe9 b\n".encode("latin-1"),
        lambda bad: ["score", "--hyp", "a.txt", "--gold", bad],
    ),
    "experiment-latin1": (
        '{"name": "caf\xe9"}'.encode("latin-1"),
        lambda bad: ["experiment", "--config", bad],
    ),
}


@pytest.mark.parametrize("command", sorted(_BAD_INPUTS))
def test_errors_name_the_bad_file(data, capsys, monkeypatch, command):
    monkeypatch.chdir(data)
    contents, argv = _BAD_INPUTS[command]
    bad = str(data / "bad.input")
    if isinstance(contents, bytes):
        Path(bad).write_bytes(contents)
    else:
        Path(bad).write_text(contents, encoding="utf-8")
    assert main(argv(bad)) == 1
    assert f"error: {bad}: " in capsys.readouterr().err


_MEMBERS = ["--sys", "a.txt", "--sys", "b.txt", "--sys", "c.txt"]
_ORACLE_ARGS = ["--gold", "gold.m2", *_MEMBERS, "--out", "cli.txt", "--audit", "cli.tsv"]
_ORACLE_FILES = {"cli.txt": "out.txt", "cli.tsv": "audit.tsv"}
_RANK_ARGS = [*_MEMBERS, "--scores", "scores.tsv", "--out", "cli.txt"]
_OUT = {"cli.txt": "out.txt"}
# rank outputs c, the best-scored member. rank-w outputs SYS_A: on sentence 0
# only c keeps "likes", and that unique output halves its weighted score.
_SCORES = "system\tsentence_index\tscore\n" + "".join(
    f"{name}\t{i}\t{score}\n"
    for i in range(2)
    for name, score in (("a", 0.6), ("b", 0.6), ("c", 0.9))
)


# method: (experiment config keys, subcommand arguments,
#          {subcommand output file: experiment artifact suffix})
_FRONT_ENDS = {
    "vote": ({"n_min": 1}, ["--src", "src.txt", *_MEMBERS, "--nmin", "1", "--out", "cli.txt"],
             _OUT),
    "oracle-ensemble": ({}, _ORACLE_ARGS, _ORACLE_FILES),
    "oracle-rank": ({}, _ORACLE_ARGS, _ORACLE_FILES),
    "rank": ({"scores": "scores.tsv"}, _RANK_ARGS, _OUT),
    "rank-w": ({"scores": "scores.tsv"}, _RANK_ARGS, _OUT),
    "aggr-rank": (
        {"systems": ["b.txt", "a.txt"]},
        ["--src", "src.txt", "--primary", "b.txt", "--alt", "a.txt", "--out", "cli.txt"],
        _OUT,
    ),
    "llm-rank": (
        {"runs": 2, "seed": 5, "backend": "mock-lexmin"},
        ["--src", "src.txt", *_MEMBERS, "--runs", "2", "--seed", "5", "--mock", "lexmin",
         "--out-prefix", "cli"],
        {"cli.run0.txt": "run0.txt", "cli.run1.txt": "run1.txt"},
    ),
}


@pytest.mark.parametrize("method", list(_FRONT_ENDS))
def test_subcommand_and_experiment_write_identical_bytes(data, monkeypatch, method):
    """Each method has one implementation behind both front ends."""
    config, argv, files = _FRONT_ENDS[method]
    monkeypatch.chdir(data)
    (data / "scores.tsv").write_text(_SCORES, encoding="utf-8")
    payload = {"name": "exp", "method": method, "gold": "gold.m2", "output_dir": "results",
               "systems": ["a.txt", "b.txt", "c.txt"], **config}
    (data / "exp.json").write_text(json.dumps(payload), encoding="utf-8")
    assert main([method, *argv]) == 0
    assert main(["experiment", "--config", "exp.json"]) == 0
    for cli_file, suffix in files.items():
        assert (data / cli_file).read_bytes() == (data / "results" / f"exp.{suffix}").read_bytes()


def test_front_ends_cover_every_experiment_method():
    # second-order-vote is the vote subcommand with ensemble outputs as members
    assert sorted(_FRONT_ENDS) == sorted(set(METHODS) - {"second-order-vote"})


# parameter: (method, experiment config keys, subcommand arguments, error,
#             whether the config check finds it: then the experiment's error
#             names the config file)
_BAD_PARAMETERS = {
    "runs": ("llm-rank", {"runs": 0}, ["--runs", "0"], "runs must be >= 1", True),
    "jobs": ("llm-rank", {"jobs": 0}, ["--jobs", "0"], "jobs must be >= 1, got 0", True),
    "n_min": ("vote", {"n_min": 4}, ["--nmin", "4"], "n_min must be within 0..3, got 4", True),
}


@pytest.mark.parametrize("parameter", list(_BAD_PARAMETERS))
def test_bad_parameter_gives_one_error_from_both_front_ends(data, monkeypatch, capsys,
                                                           parameter):
    method, bad_config, bad_argv, error, in_config = _BAD_PARAMETERS[parameter]
    config, argv, _ = _FRONT_ENDS[method]
    monkeypatch.chdir(data)
    payload = {"name": "exp", "method": method, "gold": "gold.m2", "output_dir": "results",
               "systems": ["a.txt", "b.txt", "c.txt"], **config, **bad_config}
    (data / "exp.json").write_text(json.dumps(payload), encoding="utf-8")
    assert main([method, *argv, *bad_argv]) == 1  # a repeated flag's last value wins
    assert capsys.readouterr().err == f"error: {error}\n"
    assert main(["experiment", "--config", "exp.json"]) == 1
    where = "exp.json: " if in_config else ""
    assert capsys.readouterr().err == f"error: {where}{error}\n"


@pytest.mark.parametrize("n_members", [1, 27])
def test_llm_rank_member_count_fails_before_loading(tmp_path, monkeypatch, capsys, n_members):
    """A prompt labels 2 to 26 candidates A to Z. Both front ends check the
    count first: none of these files exists, so a read would fail otherwise."""
    monkeypatch.chdir(tmp_path)
    members = [f"m{k}.txt" for k in range(n_members)]
    error = f"llm-rank takes 2 to 26 systems, got {n_members}"
    argv = [arg for member in members for arg in ("--sys", member)]
    assert main(["llm-rank", "--src", "src.txt", *argv, "--out-prefix", "l"]) == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    payload = {"name": "exp", "method": "llm-rank", "gold": "gold.m2", "systems": members}
    Path("exp.json").write_text(json.dumps(payload), encoding="utf-8")
    assert main(["experiment", "--config", "exp.json"]) == 1
    assert capsys.readouterr().err == f"error: exp.json: {error}\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["exp.json"]


@pytest.mark.parametrize("method", ["vote", "second-order-vote"])
def test_bad_n_min_fails_before_any_extraction(data, monkeypatch, capsys, method):
    """Both front ends check n_min against the member count before loading, so a
    bad value is reported at once, ahead of a missing member file too."""
    pairs = []
    extract = align.extract_edits
    monkeypatch.setattr(align, "extract_edits", lambda s, h: pairs.append(s) or extract(s, h))
    monkeypatch.chdir(data)
    payload = {"name": "exp", "method": method, "gold": "gold.m2", "output_dir": "results"}
    for n_min, missing in ((-1, "b.txt"), (4, "missing.txt")):
        systems = ["a.txt", missing, "c.txt"]
        error = f"n_min must be within 0..3, got {n_min}\n"
        config = {**payload, "systems": systems, "n_min": n_min}
        (data / "exp.json").write_text(json.dumps(config), encoding="utf-8")
        assert main(["experiment", "--config", "exp.json"]) == 1
        assert capsys.readouterr().err == f"error: exp.json: {error}"
        argv = [arg for path in systems for arg in ("--sys", path)]
        assert main(["vote", "--src", "src.txt", *argv, "--nmin", str(n_min),
                     "--out", "x.txt"]) == 1
        assert capsys.readouterr().err == f"error: {error}"
    assert pairs == []
    config = {**payload, "systems": ["a.txt", "b.txt", "c.txt"], "n_min": 3}
    (data / "exp.json").write_text(json.dumps(config), encoding="utf-8")
    assert main(["experiment", "--config", "exp.json"]) == 0
    assert pairs  # the counter sees the extraction of a good run


def test_seeds_runs_mismatch_fails_before_any_file_is_read(data, monkeypatch, capsys):
    """An llm-rank config checks its seed list against its run count before
    loading, so a mismatch names the config, ahead of a missing member file too."""
    monkeypatch.chdir(data)
    config = {"name": "exp", "method": "llm-rank", "gold": "gold.m2", "output_dir": "results",
              "systems": ["a.txt", "missing.txt", "c.txt"], "seeds": [1, 2, 3]}
    (data / "exp.json").write_text(json.dumps(config), encoding="utf-8")
    assert main(["experiment", "--config", "exp.json"]) == 1
    assert capsys.readouterr().err == "error: exp.json: 1 runs but 3 seeds\n"
    config.update(systems=["a.txt", "b.txt", "c.txt"], runs=3)
    (data / "exp.json").write_text(json.dumps(config), encoding="utf-8")
    assert main(["experiment", "--config", "exp.json"]) == 0


def test_experiment_jobs_flag_is_checked_before_any_file_is_read(data, monkeypatch, capsys):
    """--jobs replaces the config's value through its checks, so a bad one is
    reported ahead of the missing gold file, as the same value in the config is."""
    monkeypatch.chdir(data)
    config = {"name": "exp", "method": "llm-rank", "gold": "missing.m2",
              "systems": ["a.txt", "b.txt"]}
    (data / "exp.json").write_text(json.dumps({**config, "jobs": 0}), encoding="utf-8")
    assert main(["experiment", "--config", "exp.json"]) == 1
    assert capsys.readouterr().err == "error: exp.json: jobs must be >= 1, got 0\n"
    (data / "exp.json").write_text(json.dumps(config), encoding="utf-8")
    assert main(["experiment", "--config", "exp.json", "--jobs", "0"]) == 1
    assert capsys.readouterr().err == "error: jobs must be >= 1, got 0\n"
    assert main(["experiment", "--config", "exp.json", "--jobs", "2", "--seed", "3"]) == 1
    assert capsys.readouterr().err == "error: missing.m2: no such file\n"


def test_main_restores_the_callers_gc_thresholds(data, monkeypatch, capsys):
    """main collects rarely while a command runs, then gives back the thresholds
    it found, whether the command succeeds or fails with an error."""
    seen = []
    score = scoring.score_corpus
    monkeypatch.setattr(scoring, "score_corpus",
                        lambda *a, **k: seen.append(gc.get_threshold()) or score(*a, **k))
    monkeypatch.chdir(data)
    saved = gc.get_threshold()
    sentinel = (1234, 7, 9)
    try:
        gc.set_threshold(*sentinel)
        assert main(["score", "--hyp", "a.txt", "--gold", "gold.m2"]) == 0
        assert gc.get_threshold() == sentinel
        assert main(["vote", "--src", "src.txt", "--sys", "a.txt", "--nmin", "2",
                     "--out", "x.txt"]) == 1
        assert gc.get_threshold() == sentinel
    finally:
        gc.set_threshold(*saved)
    assert capsys.readouterr().err == "error: n_min must be within 0..1, got 2\n"
    assert seen == [(100_000, 50, 1000)]


@pytest.mark.parametrize(
    "argv",
    [
        ["llm-rank", "--src", "src.txt", *_MEMBERS, "--base-url", "http://localhost:1",
         "--model", "m", "--out-prefix", "cli"],
        ["experiment", "--config", "exp.json"],
    ],
    ids=["llm-rank", "experiment"],
)
def test_http_backend_without_api_key_exits_one_at_once(data, monkeypatch, capsys, argv):
    monkeypatch.chdir(data)
    monkeypatch.delenv("GECKIT_API_KEY", raising=False)
    sleeps = []
    monkeypatch.setattr("geckit.llm.time.sleep", sleeps.append)
    payload = {"name": "exp", "method": "llm-rank", "gold": "gold.m2", "output_dir": "results",
               "systems": ["a.txt", "b.txt", "c.txt"], "backend": "http",
               "base_url": "http://localhost:1", "model": "m"}
    (data / "exp.json").write_text(json.dumps(payload), encoding="utf-8")
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: environment variable GECKIT_API_KEY is not set\n"
    assert sleeps == []


def test_llm_rank_experiment_reports_fallbacks_like_the_subcommand(data, monkeypatch, capsys):
    """A backend that answers garbage falls back to label A on every sentence.
    Both front ends say so on stderr per run; the experiment's stdout and
    artifacts are byte for byte those of a backend that answers label A."""
    monkeypatch.chdir(data)

    def experiment(output_dir):
        payload = {"name": "exp", "method": "llm-rank", "gold": "gold.m2", "runs": 2,
                   "systems": ["a.txt", "b.txt", "c.txt"], "backend": "mock-label-a",
                   "output_dir": output_dir}
        (data / "exp.json").write_text(json.dumps(payload), encoding="utf-8")
        assert main(["experiment", "--config", "exp.json"]) == 0
        return capsys.readouterr()

    label_a = experiment("label-a")
    garbage_backend = lambda *args, **kwargs: lambda system, user, temperature: "???"
    monkeypatch.setattr("geckit.llm.make_backend", garbage_backend)
    garbage = experiment("garbage")
    assert label_a.err == ""
    assert garbage.err == "exp run0, 2 fallback sentences\nexp run1, 2 fallback sentences\n"
    assert garbage.out == label_a.out
    names = sorted(path.name for path in (data / "label-a").iterdir())
    assert names == sorted(path.name for path in (data / "garbage").iterdir())
    for name in names:
        assert (data / "garbage" / name).read_bytes() == (data / "label-a" / name).read_bytes()

    assert main(["llm-rank", "--src", "src.txt", *_MEMBERS, "--runs", "2",
                 "--out-prefix", "cli"]) == 0
    assert capsys.readouterr().err == (
        "wrote cli.run0.txt, 2 fallback sentences\nwrote cli.run1.txt, 2 fallback sentences\n"
    )


def test_rank_and_rank_w_fixture_tells_them_apart(data, monkeypatch, capsys):
    monkeypatch.chdir(data)
    (data / "scores.tsv").write_text(_SCORES, encoding="utf-8")
    outputs = []
    for method in ("rank", "rank-w"):
        assert main([method, *_MEMBERS, "--scores", "scores.tsv"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs == [SYS_C, SYS_A]


def _console_script() -> list[str]:
    """The argv prefix that runs the `geckit` console command.

    An installed `geckit` executable on PATH is preferred, since that is
    what users run. Without one (the suite also runs from a source tree
    with `PYTHONPATH=src`), the `geckit` target declared in
    `[project.scripts]` of pyproject.toml runs in a fresh interpreter
    through the code of the wrapper pip writes on install: import the
    target, set `sys.argv[0]`, and exit with its return value, called
    without arguments so that it must read `sys.argv` itself.
    """
    installed = shutil.which("geckit")
    if installed:
        return [installed]
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["geckit"]
    module, _, func = target.partition(":")
    wrapper = (
        "import sys\n"
        f"from {module} import {func}\n"
        "sys.argv[0] = 'geckit'\n"
        f"sys.exit({func}())\n"
    )
    return [sys.executable, "-c", wrapper]


def test_console_script_is_installed(data):
    result = subprocess.run(
        _console_script() + ["score", "--hyp", str(data / "a.txt"),
                             "--gold", str(data / "gold.m2")],
        capture_output=True, text=True, encoding="utf-8",
    )
    assert result.returncode == 0
    assert "100.0" in result.stdout


def test_interpreter_entry_point(data):
    result = subprocess.run(
        [sys.executable, "-m", "geckit.cli", "extract",
         "--src", str(data / "src.txt"), "--hyp", str(data / "a.txt")],
        capture_output=True, text=True, encoding="utf-8",
    )
    assert result.returncode == 0
    assert result.stdout.startswith("sentence_index")
