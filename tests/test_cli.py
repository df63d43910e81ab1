"""Exit codes, file outputs, and determinism of the command-line interface."""

import contextlib
import errno
import gc
import io
import json
import os
import random
import shutil
import stat
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest

from geckit import align, ranking, scoring
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
            "--seed", "3", "--backend", "mock-lexmin"]
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


@pytest.mark.parametrize("command", ["score", "extract"])
def test_stdout_without_a_byte_buffer_gets_the_text_of_out(data, command):
    """A caller that redirects stdout to a StringIO gets the text, not an
    AttributeError: the bytes --out writes, decoded."""
    (data / "cafe.txt").write_text("I like café very much .\n" + SRC.splitlines()[1] + "\n",
                                   encoding="utf-8")
    argv = {"score": ["score", "--hyp", str(data / "cafe.txt"), "--gold", str(data / "gold.m2")],
            "extract": ["extract", "--src", str(data / "src.txt"),
                        "--hyp", str(data / "cafe.txt")]}[command]
    stream = io.StringIO()
    with contextlib.redirect_stdout(stream):
        assert main(argv) == 0
    assert main([*argv, "--out", str(data / "out.txt")]) == 0
    assert stream.getvalue() == (data / "out.txt").read_bytes().decode("utf-8")


def test_llm_rank_is_deterministic_across_invocations(data):
    args = [
        "llm-rank", "--src", str(data / "src.txt"),
        "--sys", str(data / "a.txt"), "--sys", str(data / "b.txt"),
        "--sys", str(data / "c.txt"), "--variant", "a", "--runs", "2",
        "--seed", "11", "--backend", "mock-lexmin",
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
    return [*argv, "--backend", "mock-label-a"]


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
        ["--src", "src.txt", *_MEMBERS, "--runs", "2", "--seed", "5", "--backend", "mock-lexmin",
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


def _tree(root: Path) -> list[str]:
    """Every path under ``root``, links not followed."""
    return sorted(os.path.join(d, name) for d, dirs, files in os.walk(root)
                  for name in dirs + files)


def test_existing_directories_that_are_not_outputs_do_not_stop_a_command(data, monkeypatch):
    """Only the files a command writes are checked: llm-rank's --out-prefix and
    the NAME under an experiment's output_dir may be existing directories."""
    monkeypatch.chdir(data)
    Path("cli").mkdir()
    assert main(["llm-rank", "--src", "src.txt", *_MEMBERS, "--out-prefix", "cli"]) == 0
    assert Path("cli.run0.txt").is_file()
    Path("results", "exp").mkdir(parents=True)
    payload = {"name": "exp", "method": "vote", "gold": "gold.m2", "output_dir": "results",
               "systems": ["a.txt", "b.txt", "c.txt"]}
    Path("exp.json").write_text(json.dumps(payload), encoding="utf-8")
    assert main(["experiment", "--config", "exp.json"]) == 0
    assert Path("results", "exp.row.tsv").is_file()


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask-022", "umask-077"])
def test_written_files_get_the_mode_open_would_give_them(data, monkeypatch, umask):
    """A new file gets 0o666 less the umask, as open(path, "w") gives it, and
    an overwritten file keeps its mode; the caller's umask is left as it was."""
    monkeypatch.chdir(data)

    def mode(name):
        return stat.S_IMODE(os.stat(name).st_mode)

    oracle = ["oracle-ensemble", "--gold", "gold.m2", *_MEMBERS, "--out", "o.txt",
              "--audit", "a.tsv"]
    saved = os.umask(umask)
    try:
        with open("opened.txt", "w", encoding="utf-8"):
            pass
        assert main(["cluster", "--sys", "a.txt", "--sys", "b.txt", "--out", "c.tsv",
                     "--matrix", "m.tsv"]) == 0
        assert main(oracle) == 0
        for name in ("c.tsv", "m.tsv", "o.txt", "a.tsv"):
            assert mode(name) == mode("opened.txt") == 0o666 & ~umask
        os.chmod("o.txt", 0o640)
        assert main(oracle) == 0
        assert mode("o.txt") == 0o640
    finally:
        assert os.umask(saved) == umask


def test_a_temp_file_the_system_refuses_exits_one_naming_the_output(data, monkeypatch, capsys):
    monkeypatch.chdir(data)
    before = _tree(data)
    for code, reason in [(errno.EACCES, "permission denied"),
                         (errno.EROFS, "read-only file system")]:
        def refuse(*args, code=code, **kwargs):  # root may create a file anywhere
            raise OSError(code, os.strerror(code), str(kwargs.get("dir")))

        monkeypatch.setattr(tempfile, "mkstemp", refuse)
        assert main(["extract", "--src", "src.txt", "--hyp", "a.txt", "--out", "e.tsv"]) == 1
        assert capsys.readouterr().err == f"error: e.tsv: {reason}\n"
        assert _tree(data) == before


_VOTE = ["vote", "--src", "src.txt", *_MEMBERS, "--nmin", "1"]
_EXPERIMENT = ["experiment", "--config", "exp.json"]
# an experiment over the three members, without its method
_CONFIG = {"name": "exp", "gold": "gold.m2", "output_dir": "results",
           "systems": ["a.txt", "b.txt", "c.txt"]}
_VOTE_CONFIG = {**_CONFIG, "method": "vote"}
_LLM_CONFIG = {**_CONFIG, "method": "llm-rank"}
_LLM_RANK = ["llm-rank", "--src", "src.txt", *_MEMBERS, "--out-prefix", "l"]
_LOOP = {"loop1": (os.symlink, "loop2"), "loop2": (os.symlink, "loop1")}
_URL = "http://localhost:1"
_OFFLINE = "runs offline: base_url and model are for http"
_WITHIN = "n_min must be within 0..3, got"


def _front_ends(command: list[str], config: dict, cases: list[tuple]) -> dict:
    """Two rows per case (id, config keys, flags, error): ``command`` with the
    flags, and an experiment of ``config`` with the keys, whose error names
    the config file first."""
    rows = {}
    for case, keys, flags, error in cases:
        rows[case] = ([*command, *flags], {}, f"error: {error}")
        rows[f"{case}-experiment"] = (_EXPERIMENT, {"exp.json": {**config, **keys}},
                                      f"error: exp.json: {error}")
    return rows


def _refused_outputs() -> dict:
    """A row for each output flag of each command, and an experiment's
    output_dir, given each path that the writer refuses: the error names the
    file it would write, and no other output is written first."""
    commands = {  # command: (input arguments, output flags)
        "score": (["--hyp", "a.txt", "--gold", "gold.m2"], ["--out"]),
        "extract": (["--src", "src.txt", "--hyp", "a.txt"], ["--out"]),
        "apply": (["--src", "src.txt", "--edits", "edits.tsv"], ["--out"]),
        "cluster": (["--sys", "a.txt", "--sys", "b.txt"], ["--out", "--matrix"]),
        "vote": (_VOTE[1:], ["--out"]),
        "oracle-ensemble": (["--gold", "gold.m2", *_MEMBERS], ["--out", "--audit"]),
        "oracle-rank": (["--gold", "gold.m2", *_MEMBERS], ["--out", "--audit"]),
        "rank": ([*_MEMBERS, "--scores", "scores.tsv"], ["--out"]),
        "rank-w": ([*_MEMBERS, "--scores", "scores.tsv"], ["--out"]),
        "aggr-rank": (["--src", "src.txt", "--primary", "a.txt", "--alt", "b.txt"], ["--out"]),
        "llm-rank": (["--src", "src.txt", *_MEMBERS], ["--out-prefix"]),
        "experiment": (_EXPERIMENT[1:], ["output_dir"]),
    }
    reasons = {  # reason: (path, files made first, the writer's error); a directory
        # is made at the file written for "directory"
        "parent-is-a-file": ("taken/x", {"taken": ""}, "a parent is a file, not a directory"),
        "directory": ("d", {}, "is a directory, not a file"),
        "symlink-loop-parent": ("loop1/x", _LOOP, "symbolic links in the path form a loop"),
        "long-name": ("n" * 300, {}, "a name in the path is too long"),
    }

    def row(command, flag, reason):
        (inputs, flags), (path, files, error) = commands[command], reasons[reason]
        if command == "experiment":  # a vote run writes its output first
            written = str(Path(path, "exp.out.txt"))
            files = {**files, "exp.json": {**_VOTE_CONFIG, "output_dir": path}}
        else:
            written = f"{path}.run0.txt" if flag == "--out-prefix" else path
            inputs = [*inputs, *(arg for other in flags
                                 for arg in (other, path if other == flag else other[2:]))]
        if reason == "directory":
            files = {**files, written: None}
        return [command, *inputs], files, f"error: {written}: {error}"

    return {f"{command}-{flag.lstrip('-')}-{reason}": row(command, flag, reason)
            for command, (_, flags) in commands.items() for flag in flags for reason in reasons}


# case: (argv, with {tmp} for the directory it runs in; files made there first:
# text, a config as a dict, None for a directory, or (os.symlink or os.link,
# target); the one stderr line, after argparse's usage for a usage error)
_REFUSALS = {
    # two outputs that are one file, by another spelling
    "oracle-out-audit": (["oracle-ensemble", "--gold", "gold.m2", *_MEMBERS, "--out", "o.txt",
                          "--audit", "{tmp}/o.txt"], {},
                         "error: {tmp}/o.txt: named by both --out and --audit"),
    "cluster-out-matrix": (["cluster", "--sys", "a.txt", "--sys", "b.txt", "--out", "o.txt",
                            "--matrix", "{tmp}/o.txt"], {},
                           "error: {tmp}/o.txt: named by both --out and --matrix"),
    # an empty path flag would read the working directory, or write to stdout
    # or nothing; an empty --out-prefix would fail after every sentence
    **{f"{argv[0]}-{flag}": (argv, {}, f"error: {flag} must not be empty") for flag, argv in [
        ("--src", ["extract", "--src", "", "--hyp", "a.txt"]),
        ("--hyp", ["extract", "--src", "src.txt", "--hyp", ""]),
        ("--edits", ["apply", "--src", "src.txt", "--edits", ""]),
        ("--src", ["score", "--hyp", "a.txt", "--gold", "gold.m2", "--src", ""]),
        ("--gold", ["score", "--hyp", "a.txt", "--gold", ""]),
        ("--src", ["vote", "--src", "", *_MEMBERS, "--nmin", "1", "--out", "out"]),
        ("--out", [*_VOTE, "--out", ""]),
        ("--gold", ["oracle-ensemble", "--gold", "", *_MEMBERS, "--out", "out"]),
        ("--audit", ["oracle-rank", "--gold", "gold.m2", *_MEMBERS, "--out", "out", "--audit", ""]),
        ("--scores", ["rank", *_MEMBERS, "--scores", ""]),
        ("--primary", ["aggr-rank", "--src", "src.txt", "--primary", "", "--alt", "b.txt"]),
        ("--alt", ["aggr-rank", "--src", "src.txt", "--primary", "a.txt", "--alt", ""]),
        ("--sys", ["cluster", "--sys", "a.txt", "--sys", ""]),
        ("--matrix", ["cluster", "--sys", "a.txt", "--sys", "b.txt", "--out", "out",
                      "--matrix", ""]),
        ("--out-prefix", ["llm-rank", "--src", "src.txt", *_MEMBERS, "--out-prefix", ""]),
        ("--config", ["experiment", "--config", ""]),
    ]},
    "vote---sys-NAME=": ([*_VOTE, "--sys", "d=", "--out", "out"], {},
                         "error: --sys must not be empty"),
    # checked before the config, so ahead of a bad parameter
    "vote---out-before-n_min": ([*_VOTE, "--nmin", "9", "--out", ""], {},
                                "error: --out must not be empty"),
    # an output that is one of the command's inputs
    "extract-out-is-source": (["extract", "--src", "src.txt", "--hyp", "a.txt", "--out",
                               "src.txt"], {}, "error: src.txt: named by --out and read as source"),
    "extract-out-is-hypothesis": (["extract", "--src", "src.txt", "--hyp", "a.txt", "--out",
                                   "a.txt"], {},
                                  "error: a.txt: named by --out and read as hypothesis"),
    "apply-out-is-edits": (["apply", "--src", "src.txt", "--edits", "e.tsv", "--out", "e.tsv"],
                           {"e.tsv": ""}, "error: e.tsv: named by --out and read as edits"),
    "score-out-is-hypothesis": (["score", "--hyp", "a.txt", "--gold", "gold.m2", "--out",
                                 "a.txt"], {}, "error: a.txt: named by --out and read as hypothesis"),
    "score-out-is-gold": (["score", "--hyp", "a.txt", "--gold", "gold.m2", "--out", "gold.m2"],
                          {}, "error: gold.m2: named by --out and read as gold"),
    "score-out-is-source": (["score", "--hyp", "a.txt", "--gold", "gold.m2", "--src", "src.txt",
                             "--out", "src.txt"], {},
                            "error: src.txt: named by --out and read as source"),
    "vote-out-is-member": ([*_VOTE, "--out", "a.txt"], {},
                           "error: a.txt: named by --out and read as member a"),
    "vote-out-is-source": ([*_VOTE, "--out", "src.txt"], {},
                           "error: src.txt: named by --out and read as source"),
    "oracle-audit-is-gold": (["oracle-rank", "--gold", "gold.m2", *_MEMBERS, "--out", "o.txt",
                              "--audit", "gold.m2"], {},
                             "error: gold.m2: named by --audit and read as gold"),
    "rank-out-is-scores": (["rank", *_MEMBERS, "--scores", "s.tsv", "--out", "s.tsv"],
                           {"s.tsv": ""}, "error: s.tsv: named by --out and read as scores"),
    "aggr-rank-out-is-alternative": (["aggr-rank", "--src", "src.txt", "--primary", "a.txt",
                                      "--alt", "b.txt", "--out", "b.txt"], {},
                                     "error: b.txt: named by --out and read as member alternative"),
    "cluster-matrix-is-member": (["cluster", "--sys", "a.txt", "--sys", "b.txt", "--matrix",
                                  "b.txt"], {}, "error: b.txt: named by --matrix and read as member b"),
    "llm-rank-run0-is-member": (["llm-rank", "--src", "src.txt", "--sys", "a=x.run0.txt",
                                 "--sys", "b.txt", "--out-prefix", "x"], {"x.run0.txt": SYS_A},
                                "error: x.run0.txt: named by --out-prefix and read as member a"),
    "llm-rank-run1-is-source": (["llm-rank", "--src", "x.run1.txt", *_MEMBERS, "--runs", "2",
                                 "--out-prefix", "x"], {"x.run1.txt": SRC},
                                "error: x.run1.txt: named by --out-prefix and read as source"),
    # ... by a symbolic or a hard link
    "symlink-to-member": ([*_VOTE, "--out", "link.txt"], {"link.txt": (os.symlink, "a.txt")},
                          "error: link.txt: named by --out and read as member a"),
    "hard-link-to-member": ([*_VOTE, "--out", "link.txt"], {"link.txt": (os.link, "{tmp}/b.txt")},
                            "error: link.txt: named by --out and read as member b"),
    "symlinked-directory": ([*_VOTE, "--out", "d/src.txt"], {"d": (os.symlink, "{tmp}")},
                            "error: d/src.txt: named by --out and read as source"),
    # an experiment's artifact that is one of its inputs
    "experiment-out-is-member": (_EXPERIMENT, {
        "results/exp.out.txt": SYS_A,
        "exp.json": {**_VOTE_CONFIG, "systems": ["results/exp.out.txt", "b.txt", "c.txt"]},
    }, "error: results/exp.out.txt: named by artifact exp.out.txt and read as member exp.out"),
    "experiment-row-is-gold": (_EXPERIMENT, {
        "exp.json": {**_VOTE_CONFIG, "gold": "exp.row.tsv", "output_dir": "",
                     "systems": ["a.txt", "b.txt"]},
        "exp.row.tsv": GOLD,
    }, "error: exp.row.tsv: named by artifact exp.row.tsv and read as gold"),
    "sweep-artifact-is-member": ([*_EXPERIMENT, "--sweep-nmin"], {
        "results/exp.nmin2.out.txt": SYS_C,
        "exp.json": {**_VOTE_CONFIG, "systems": ["a.txt", "b.txt", "results/exp.nmin2.out.txt"]},
    }, "error: results/exp.nmin2.out.txt: named by artifact exp.nmin2.out.txt and read as member "
       "exp.nmin2.out"),
    "ablation-artifact-is-member": ([*_EXPERIMENT, "--ablation"], {
        "results/exp.wo-b.out.txt": SYS_C,
        "exp.json": {**_VOTE_CONFIG,
                     "systems": ["a.txt", "b.txt", "c.txt", "results/exp.wo-b.out.txt"]},
    }, "error: results/exp.wo-b.out.txt: named by artifact exp.wo-b.out.txt and read as member "
       "exp.wo-b.out"),
    # an output the writer refuses, named as the file it would write
    **_refused_outputs(),
    "extract-out-file-grandparent": (["extract", "--src", "src.txt", "--hyp", "a.txt", "--out",
                                      "a.txt/sub/x"], {},
                                     "error: a.txt/sub/x: a parent is a file, not a directory"),
    "score-out-symlink-loop-grandparent": (
        ["score", "--hyp", "a.txt", "--gold", "gold.m2", "--out", "loop1/sub/x"], _LOOP,
        "error: loop1/sub/x: symbolic links in the path form a loop"),
    "score-out-name-of-256-bytes": (["score", "--hyp", "a.txt", "--gold", "gold.m2", "--out",
                                     "r" * 252 + ".tsv"], {},
                                    f"error: {'r' * 252}.tsv: a name in the path is too long"),
    "llm-rank-out-prefix-under-a-file": (
        ["llm-rank", "--src", "src.txt", *_MEMBERS, "--out-prefix", "taken/x/cli"], {"taken": ""},
        "error: taken/x/cli.run0.txt: a parent is a file, not a directory"),
    # any file that an experiment, a sweep or an ablation writes, so no earlier
    # artifact is left behind: a directory under output_dir, or output_dir under a file
    **{f"experiment-{case}": ([*_EXPERIMENT, *flags],
                              {"exp.json": {**_CONFIG, **keys}, f"results/{artifact}": None},
                              f"error: results/{artifact}: is a directory, not a file")
       for case, keys, flags, artifact in [
           ("oracle-out", {"method": "oracle-ensemble"}, [], "exp.out.txt"),
           ("oracle-report", {"method": "oracle-rank"}, [], "exp.report.txt"),
           ("llm-rank-run1", {"method": "llm-rank", "runs": 2}, [], "exp.run1.txt"),
           ("sweep-variant", {"method": "vote"}, ["--sweep-nmin"], "exp.nmin2.row.tsv"),
           ("sweep-table", {"method": "vote"}, ["--sweep-nmin"], "exp.sweep.tsv"),
           ("ablation-variant", {"method": "llm-rank"}, ["--ablation"], "exp.wo-b.out.txt"),
           ("ablation-table", {"method": "oracle-ensemble"}, ["--ablation"], "exp.ablation.tsv"),
       ]},
    **{f"experiment-{case}-under-a-file": (
        [*_EXPERIMENT, *flags], {"taken": "", "exp.json": {**_CONFIG, **keys,
                                                           "output_dir": "taken/out"}},
        f"error: taken/out/{written}: a parent is a file, not a directory")
       for case, keys, flags, written in [
           ("llm-rank", {"method": "llm-rank", "runs": 2}, [], "exp.run0.txt"),
           ("llm-rank-ablation", {"method": "llm-rank"}, ["--ablation"], "exp.out.txt"),
           ("vote-sweep", {"method": "vote", "n_min": 1}, ["--sweep-nmin"], "exp.nmin0.out.txt"),
       ]},
    # a config that cannot run, refused when it is built: llm-rank labels 2 to
    # 26 candidates A to Z, and no backend setting falls back to a mock silently
    **_front_ends(["llm-rank", "--src", "src.txt", "--out-prefix", "l"],
                  _LLM_CONFIG, [
        (f"llm-rank-with-{len(members)}", {"systems": members},
         [arg for member in members for arg in ("--sys", member)],
         f"llm-rank takes 2 to 26 systems, got {len(members)}")
        for members in (["a.txt"], [f"m{k}.txt" for k in range(27)])
    ]),
    **_front_ends(_LLM_RANK, _LLM_CONFIG, [
        ("llm-rank-unknown-backend", {"backend": "mock-lexmn"}, ["--backend", "mock-lexmn"],
         "unknown backend 'mock-lexmn'; expected one of mock-lexmin, mock-label-a, http"),
        ("llm-rank-http-without-base-url", {"backend": "http", "model": "m"},
         ["--backend", "http", "--model", "m"], "http backend needs base_url and model"),
        ("llm-rank-http-without-model", {"backend": "http", "base_url": _URL},
         ["--backend", "http", "--base-url", _URL], "http backend needs base_url and model"),
        ("llm-rank-mock-with-base-url-and-model", {"base_url": _URL, "model": "m"},
         ["--base-url", _URL, "--model", "m"], f"backend mock-lexmin {_OFFLINE}"),
        ("llm-rank-mock-with-model", {"model": "gpt-4o"}, ["--model", "gpt-4o"],
         f"backend mock-lexmin {_OFFLINE}"),
        ("llm-rank-mock-label-a-with-base-url", {"backend": "mock-label-a", "base_url": _URL},
         ["--backend", "mock-label-a", "--base-url", _URL], f"backend mock-label-a {_OFFLINE}"),
        # urllib refuses such a URL on every request, which would be retried
        # with backoff and then fall back to label A on every sentence
        *((f"llm-rank-base-url-{url}", {"backend": "http", "base_url": url, "model": "m"},
           ["--backend", "http", "--base-url", url, "--model", "m"],
           f"base_url must be an http:// or https:// URL with a host, got {url!r}")
          for url in ["localhost:8000", "ftp://host/v1", "http://", "http://[::1",
                      "http://localhost:abc"]),
    ]),
    # a parameter out of range, given after the flags that run the method: a
    # repeated flag's last value wins
    **_front_ends(["llm-rank", *_FRONT_ENDS["llm-rank"][1]],
                  {**_LLM_CONFIG, **_FRONT_ENDS["llm-rank"][0]}, [
        ("llm-rank-bad-runs", {"runs": 0}, ["--runs", "0"], "runs must be >= 1"),
        ("llm-rank-bad-jobs", {"jobs": 0}, ["--jobs", "0"], "jobs must be >= 1, got 0"),
        ("llm-rank-bad-variant", {"variant": "c"}, ["--variant", "c"],
         "unknown prompt variant 'c'"),
    ]),
    **_front_ends(["vote", *_FRONT_ENDS["vote"][1]], {**_VOTE_CONFIG, **_FRONT_ENDS["vote"][0]},
                  [("vote-bad-n_min", {"n_min": 4}, ["--nmin", "4"], f"{_WITHIN} 4")]),
    **_front_ends(["vote", "--src", "src.txt", *_MEMBERS, "--out", "x.txt"],
                  _VOTE_CONFIG,
                  [(f"vote-n_min-{n}", {"n_min": n}, ["--nmin", str(n)], f"{_WITHIN} {n}")
                   for n in (-1, 4)]),
    **{f"second-order-vote-n_min-{n}-experiment": (
        _EXPERIMENT, {"exp.json": {**_CONFIG, "method": "second-order-vote", "n_min": n}},
        f"error: exp.json: {_WITHIN} {n}") for n in (-1, 4)},
    "llm-rank-1-run-3-seeds-experiment": (
        _EXPERIMENT, {"exp.json": {**_LLM_CONFIG, "seeds": [1, 2, 3]}},
        "error: exp.json: 1 runs but 3 seeds"),
    # --jobs and --seed replace the config's values through the same checks
    "experiment-jobs-0": (_EXPERIMENT, {"exp.json": {**_LLM_CONFIG, "jobs": 0}},
                          "error: exp.json: jobs must be >= 1, got 0"),
    "experiment---jobs-0": ([*_EXPERIMENT, "--jobs", "0"],
                            {"exp.json": _LLM_CONFIG},
                            "error: jobs must be >= 1, got 0"),
    # a setting for another method is refused, not ignored; the first key in
    # field order is named, and a flag given is refused even at its default
    **{f"experiment-{case}": ([*_EXPERIMENT, *flags], {"exp.json": {**_CONFIG, **keys}},
                              f"error: {error}") for case, keys, flags, error in [
        ("vote-with-llm-keys",
         {"method": "vote", "n_min": 1, "backend": "mock-lexmn", "variant": "z", "runs": 0}, [],
         "exp.json: method vote does not read key 'variant'"),
        ("oracle-rank-with-n_min", {"method": "oracle-rank", "n_min": 3}, [],
         "exp.json: method oracle-rank does not read key 'n_min'"),
        ("vote-seed-and-jobs-flags", {"method": "vote", "n_min": 1}, ["--jobs", "3", "--seed", "5"],
         "method vote does not read key 'seed'"),
        ("vote-jobs-flag", {"method": "vote", "n_min": 1}, ["--jobs", "3"],
         "method vote does not read key 'jobs'"),
        ("vote-seed-0-flag", {"method": "vote", "n_min": 1}, ["--seed", "0"],
         "method vote does not read key 'seed'"),
        ("vote-jobs-1-flag", {"method": "vote", "n_min": 1}, ["--jobs", "1"],
         "method vote does not read key 'jobs'"),
    ]},
    # a system name given twice, or one that would add a column to a TSV row
    "vote-duplicate-name": (["vote", "--src", "src.txt", "--sys", "b.txt", "--sys", "a.txt",
                             "--sys", "a.txt", "--nmin", "0", "--out", "x.txt"], {},
                            "error: duplicate system name 'a'"),
    "vote-member-given-twice": (["vote", "--src", "src.txt", "--sys", "a.txt", "--sys", "a.txt",
                                 "--nmin", "0", "--out", "x.txt"], {},
                                "error: duplicate system name 'a'"),
    "experiment-duplicate-name": (["experiment", "--config", "{tmp}/exp.json"], {"exp.json": {
        **_VOTE_CONFIG, "name": "dup", "systems": ["a.txt", "c=b.txt", "c.txt"],
    }}, "error: {tmp}/exp.json: duplicate system name 'c'"),
    **{f"cluster-name-with-{label}": (
        ["cluster", "--sys", f"{name}=h1.txt", "--sys", "h2.txt", "--sys", "h3.txt", "--matrix",
         "m.tsv"], {}, f"error: system name {name!r} contains a tab or a line break")
       for label, name in [("tab", "a\tb"), ("lf", "a\nb"), ("cr", "a\rb")]},
    # cluster checks its threshold and member count before it reads a member
    **{f"cluster-threshold-{threshold}": (
        ["cluster", "--sys", "a.txt", "--sys", "b.txt", "--threshold", threshold], {},
        f"error: cluster threshold must be finite and >= 0, got {float(threshold)}")
       for threshold in ["nan", "inf", "-1"]},
    "cluster-1-member": (["cluster", "--sys", "a.txt"], {},
                         "error: similarity needs at least 2 systems"),
    # --ablation and --sweep-nmin write their own tables: given both, neither runs
    "experiment-ablation-and-sweep": (
        [*_EXPERIMENT, "--ablation", "--sweep-nmin"],
        {"exp.json": {**_VOTE_CONFIG, "n_min": 1}},
        "error: argument --sweep-nmin: not allowed with argument --ablation"),
}


def _contents(root: Path) -> dict[str, object]:
    """Every path under ``root`` and what it holds: a link's target, a file's
    bytes, or None for a directory; links not followed."""
    return {path: os.readlink(path) if os.path.islink(path)
            else None if os.path.isdir(path) else Path(path).read_bytes()
            for path in _tree(root)}


def _assert_refused(root: Path, monkeypatch, capsys, argv: list[str], error: str) -> None:
    """``main(argv)``, run in ``root`` with every read of an input but the
    config exp.json refused, exits 1 with nothing on stdout and ``error`` as
    its one stderr line, after argparse's usage for a usage error, and leaves
    every file under ``root`` as it was."""
    from geckit import corpus

    read_text = corpus.read_text

    def refuse(path):
        if Path(path).name != "exp.json":
            raise AssertionError(f"{path} was read")
        return read_text(path)

    monkeypatch.setattr(corpus, "read_text", refuse)
    monkeypatch.chdir(root)
    before = _contents(root)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    if error.startswith("error: argument "):
        usage, _, err = err.partition("\nerror: ")
        assert usage.startswith(f"usage: geckit {argv[0]} ")
        err = f"error: {err}"
    assert err == f"{error}\n"
    assert _contents(root) == before


@pytest.mark.parametrize("case", list(_REFUSALS))
def test_every_early_refusal_stops_the_command_before_any_input_is_read(
    data, monkeypatch, capsys, case
):
    """Each row's command is refused with its one error before it reads any
    input but an experiment's config, and before it writes any file."""
    argv, files, error = _REFUSALS[case]
    for name, made in files.items():
        if made is None:
            (data / name).mkdir(parents=True)
            continue
        (data / name).parent.mkdir(parents=True, exist_ok=True)
        if isinstance(made, tuple):
            make, target = made
            make(target.format(tmp=data), data / name)
        else:
            text = json.dumps(made) if isinstance(made, dict) else made
            (data / name).write_text(text, encoding="utf-8")
    argv = [arg.format(tmp=data) for arg in argv]
    _assert_refused(data, monkeypatch, capsys, argv, error.format(tmp=data))


@pytest.mark.parametrize("read_only, reason", [
    (False, "permission denied"), (True, "read-only file system"),
], ids=["no-permission", "read-only"])
def test_an_output_directory_that_cannot_be_written_stops_the_command_before_any_input_is_read(
    data, monkeypatch, capsys, read_only, reason
):
    """Root passes every permission check, so the file system's answers are
    patched: the directory refuses writing, and is or is not mounted read-only."""
    monkeypatch.setattr(os, "access", lambda path, mode: False)
    monkeypatch.setattr(os, "statvfs", lambda path: SimpleNamespace(
        f_flag=os.ST_RDONLY if read_only else 0))
    _assert_refused(data, monkeypatch, capsys, [*_VOTE, "--out", "v.txt"],
                    f"error: v.txt: {reason}")


# flags whose value is no path: each other flag that takes a string must be in the plan
_NOT_PATHS = {"variant", "backend", "base_url", "model"}


def test_every_path_flag_of_every_command_is_in_its_plan(tmp_path, monkeypatch, capsys):
    """So a new path flag cannot skip the check of the plan unnoticed, nor
    the refusal of "" (and of --sys NAME=) by name before any file is read,
    and a new command has at least one row of early refusals."""
    import argparse

    from geckit import cli

    monkeypatch.chdir(tmp_path)
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(commands.choices) <= {argv[0] for argv, _, _ in _REFUSALS.values()}
    for command, sub in commands.choices.items():
        argv, paths = [command], {}
        for action in sub._actions:
            if action.nargs == 0 or not action.option_strings:  # --help, --tsv, --ablation
                continue
            if action.type in (int, float) or action.dest in _NOT_PATHS:
                argv += [action.option_strings[0], "1"] if action.required else []
                continue
            # each path flag named twice, so a member list has two entries
            for k in range(2 if isinstance(action, argparse._AppendAction) else 1):
                value = f"{action.dest}{k}.txt"
                paths[value] = action.option_strings[0]
                argv += [action.option_strings[0], value]
        if command == "experiment":
            Path("config0.txt").write_text(json.dumps(
                {**_VOTE_CONFIG, "systems": ["a.txt", "b.txt"]}), encoding="utf-8")
        args = parser.parse_args(argv)
        reads, writes = cli.plan(args, cli._config(args))
        planned = {str(path) for _, path in reads + writes}
        for value, flag in paths.items():
            # a prefix is in the plan as the files it names
            name = f"{value}.run0.txt" if flag == "--out-prefix" else value
            assert name in planned, f"{command} {flag} {value} is not in its plan"
            for empty in ("", "x=") if flag == "--sys" else ("",):
                refused = [empty if arg == value else arg for arg in argv]
                _assert_refused(tmp_path, monkeypatch, capsys, refused,
                                f"error: {flag} must not be empty")
        assert paths, command  # the walk found the command's path flags


def test_a_member_with_a_byte_order_mark_scores_like_the_plain_one(data, monkeypatch, capsys):
    monkeypatch.chdir(data)
    Path("bom.txt").write_text("\ufeff" + SYS_A, encoding="utf-8")
    assert main(["score", "--hyp", "a.txt", "--gold", "gold.m2"]) == 0
    plain = capsys.readouterr().out
    assert plain.splitlines()[1].split()[:3] == ["100.0"] * 3  # P, R and F0.5
    assert main(["score", "--hyp", "bom.txt", "--gold", "gold.m2"]) == 0
    assert capsys.readouterr().out == plain
    assert main(["extract", "--src", "src.txt", "--hyp", "a.txt"]) == 0
    edits = capsys.readouterr().out
    assert main(["extract", "--src", "src.txt", "--hyp", "bom.txt"]) == 0
    assert capsys.readouterr().out == edits


def test_a_byte_order_mark_leaves_the_offset_of_a_bad_byte_a_file_offset(data, capsys):
    member = data / "bom-latin1.txt"
    member.write_bytes(b"\xef\xbb\xbfa\ncaf\xe9\n")
    assert main(["extract", "--src", str(data / "src.txt"), "--hyp", str(member)]) == 1
    assert capsys.readouterr().err == f"error: {member}: not UTF-8: byte 0xe9 at offset 8\n"


def test_seed_and_jobs_flags_at_their_defaults_run_an_llm_rank_config(data, monkeypatch,
                                                                        capsys):
    """llm-rank reads seed and jobs, so the flags at their default values
    run it, and print the row that the config alone prints."""
    monkeypatch.chdir(data)
    payload = {"name": "exp", "method": "llm-rank", "gold": "gold.m2", "output_dir": "results",
               "systems": ["a.txt", "b.txt", "c.txt"]}
    Path("exp.json").write_text(json.dumps(payload), encoding="utf-8")
    rows = []
    for flags in ([], ["--seed", "0"], ["--jobs", "1"], ["--seed", "0", "--jobs", "1"]):
        assert main(["experiment", "--config", "exp.json", *flags]) == 0
        rows.append(capsys.readouterr().out)
    assert rows[0].startswith("experiment\t") and rows == rows[:1] * 4


def test_cluster_members_that_share_a_line_share_its_sentence(data, monkeypatch):
    """cluster reads its members through one line dict, as an experiment
    does, so an equal line is one sentence object in every member."""
    seen = []
    similarity_matrix = ranking.similarity_matrix

    def recording(systems):
        seen.extend(systems)
        return similarity_matrix(systems)

    monkeypatch.setattr(ranking, "similarity_matrix", recording)
    assert main(["cluster", "--sys", str(data / "a.txt"), "--sys", str(data / "b.txt"),
                 "--out", str(data / "clusters.tsv")]) == 0
    a, b = seen
    assert a.sentences[0] == b.sentences[0] and a.sentences[1] != b.sentences[1]
    assert a.sentences[0] is b.sentences[0]


@pytest.mark.parametrize("method", ["vote", "second-order-vote"])
def test_n_min_at_the_member_count_runs_and_extracts(data, monkeypatch, method):
    """The largest n_min that the check lets through runs the method: the
    rows of its refusal stop before any extraction, and this one does not."""
    pairs = []
    extract = align.extract_edits
    monkeypatch.setattr(align, "extract_edits", lambda s, h: pairs.append(s) or extract(s, h))
    monkeypatch.chdir(data)
    Path("exp.json").write_text(json.dumps({**_CONFIG, "method": method, "n_min": 3}),
                                encoding="utf-8")
    assert main(_EXPERIMENT) == 0
    assert pairs


def test_an_llm_rank_config_with_a_seed_per_run_runs(data, monkeypatch):
    monkeypatch.chdir(data)
    config = {**_LLM_CONFIG, "seeds": [1, 2, 3], "runs": 3}
    Path("exp.json").write_text(json.dumps(config), encoding="utf-8")
    assert main(_EXPERIMENT) == 0


def test_experiment_jobs_and_seed_flags_in_range_reach_the_inputs(data, monkeypatch, capsys):
    """--jobs and --seed pass their checks, so the run goes on to read the
    gold, which is missing here."""
    monkeypatch.chdir(data)
    config = {"name": "exp", "method": "llm-rank", "gold": "missing.m2",
              "systems": ["a.txt", "b.txt"]}
    Path("exp.json").write_text(json.dumps(config), encoding="utf-8")
    assert main([*_EXPERIMENT, "--jobs", "2", "--seed", "3"]) == 1
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
        ["llm-rank", "--src", "src.txt", *_MEMBERS, "--backend", "http",
         "--base-url", "http://localhost:1", "--model", "m", "--out-prefix", "cli"],
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
