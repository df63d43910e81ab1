"""What an import loads: the package loads no module of its own, a module
only what it uses, and neither geckit nor `cluster` loads numpy or scipy.
`import geckit.cli` loads no standard-library module that only one code
path uses. It registers every module the bench's tracer wraps, yet runs
none of them: a command runs only the modules it reads."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

TRACE_CHILD = Path(__file__).resolve().parent.parent / "bench" / "trace_child.py"


def _fresh_interpreter(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, encoding="utf-8"
    )


@pytest.mark.parametrize("module", ["geckit", "geckit.cli"])
def test_import_loads_neither_numpy_nor_scipy(module):
    result = _fresh_interpreter(
        f"import sys\nimport {module}\n"
        "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_cluster_command_loads_neither_numpy_nor_scipy(tmp_path):
    argv = ["cluster"]
    for name, text in (("a", "x y z .\np q .\n"), ("b", "x y z .\np r .\n"),
                       ("c", "m n o .\nr s .\n")):
        (tmp_path / f"{name}.txt").write_text(text, encoding="utf-8")
        argv += ["--sys", str(tmp_path / f"{name}.txt")]
    result = _fresh_interpreter(
        "import sys\n"
        "from geckit.cli import main\n"
        f"code = main({argv!r})\n"
        "print(code, sorted(m for m in ('numpy', 'scipy') if m in sys.modules))\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 []"
    assert result.stdout.startswith("system\tcluster\trepresentative\n")


@pytest.mark.parametrize("module, loaded", [
    ("geckit", []),
    ("geckit.corpus", ["geckit.corpus"]),
])
def test_import_loads_only_what_it_names(module, loaded):
    result = _fresh_interpreter(
        f"import sys\nimport {module}\n"
        "print(sorted(m for m in sys.modules if m.startswith('geckit.')))\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"{loaded}\n"


# Each is loaded on first use only: the dataclass machinery (with inspect)
# by nothing, the others by the one code path that needs them.
_SINGLE_PATH = ("dataclasses", "inspect", "traceback", "concurrent.futures",
                "statistics", "hashlib", "json", "string")


def test_cli_import_adds_no_single_path_stdlib_module():
    """Only what the import adds counts, so a site that preloads one passes."""
    result = _fresh_interpreter(
        "import sys\nbefore = set(sys.modules)\nimport geckit.cli\n"
        f"print(sorted(m for m in {_SINGLE_PATH!r} if m in set(sys.modules) - before))\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def _traced_functions() -> set[tuple[str, str]]:
    """The (module, function) keys of bench/trace_child.py's SPANS, read
    without running it."""
    tree = ast.parse(TRACE_CHILD.read_text(encoding="utf-8"))
    spans = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "SPANS" for t in node.targets))
    return set(ast.literal_eval(spans))


# exec inserts __builtins__ into the globals of the code it runs, so a module
# whose code has run has it; reading __dict__ this way runs no lazy module
_EXECUTED = (
    "executed = sorted(name for name, module in sys.modules.items()\n"
    "                  if name.startswith('geckit.')\n"
    "                  and '__builtins__' in object.__getattribute__(module, '__dict__'))\n"
)


def test_cli_import_loads_every_traced_module():
    """The tracer reads each traced module from sys.modules right after
    `import geckit.cli` and wraps each traced function by its name, which
    runs a module registered lazily. So a module left unregistered, or a
    traced function renamed or removed, would break `--trace 1`. Until
    then, the import runs no geckit module but cli."""
    functions = sorted(_traced_functions())
    traced = {module for module, _ in functions} | {"geckit.cli"}
    assert len(traced) == 9
    result = _fresh_interpreter(
        f"import sys\nimport geckit.cli\n{_EXECUTED}print(executed)\n"
        f"print(sorted(m for m in {sorted(traced)!r} if m not in sys.modules))\n"
        f"print([key for key in {functions!r}\n"
        "       if not callable(getattr(sys.modules.get(key[0]), key[1], None))])\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "['geckit.cli']\n[]\n[]\n"


_FILES = {
    "gold.m2": "S a b c .\nA 0 1|||X|||the|||REQUIRED|||-NONE-|||0\n",
    "src.txt": "a b c .\n",
    "hyp.txt": "the b c .\n",
    "alt.txt": "a b d .\n",
    "edits.tsv": "sentence_index\tstart\tend\treplacement\n0\t0\t1\tthe\n",
    "vote.json": '{"name": "v", "gold": "gold.m2", "systems": ["hyp.txt", "alt.txt"],'
                 ' "method": "vote", "n_min": 0, "output_dir": "out"}',
}
_METHODS = ["geckit.experiment", "geckit.llm", "geckit.oracle", "geckit.vote"]
_NOT_VOTE = ["geckit.llm", "geckit.oracle", "geckit.ranking", "geckit.seeds"]


@pytest.mark.parametrize("argv, unexecuted", [
    (["score", "--hyp", "hyp.txt", "--gold", "gold.m2"], [*_METHODS, "geckit.ranking"]),
    (["extract", "--src", "src.txt", "--hyp", "hyp.txt"], [*_METHODS, "geckit.ranking"]),
    (["apply", "--src", "src.txt", "--edits", "edits.tsv"], [*_METHODS, "geckit.ranking"]),
    (["cluster", "--sys", "hyp.txt", "--sys", "alt.txt"], _METHODS),
    (["vote", "--src", "src.txt", "--sys", "hyp.txt", "--sys", "alt.txt", "--nmin", "0",
      "--out", "out.txt"], [*_NOT_VOTE, "geckit.scoring"]),
    (["experiment", "--config", "vote.json"], _NOT_VOTE),
], ids=["score", "extract", "apply", "cluster", "vote", "experiment-vote"])
def test_a_command_runs_only_the_modules_it_reads(tmp_path, argv, unexecuted):
    for name, text in _FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = [str(tmp_path / arg) if arg in (*_FILES, "out.txt") else arg for arg in argv]
    # nor does any load statistics, which only a multi-run llm-rank's spread reads
    result = _fresh_interpreter(
        "import sys\nbefore = set(sys.modules)\n"
        f"from geckit.cli import main\ncode = main({argv!r})\n{_EXECUTED}"
        f"print(code, [m for m in {unexecuted!r} if m in executed],\n"
        "      'statistics' in set(sys.modules) - before)\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 [] False"


def test_a_module_imported_before_cli_stays_one_module(tmp_path):
    """cli takes the module already loaded rather than building a second
    one, so the ValidationError it catches is the class corpus raises."""
    (tmp_path / "bad.m2").write_text("S a b\nA zero 1|||X|||x|||R|||-NONE-|||0\n",
                                     encoding="utf-8")
    (tmp_path / "hyp.txt").write_text("a b\n", encoding="utf-8")
    argv = ["score", "--hyp", str(tmp_path / "hyp.txt"), "--gold", str(tmp_path / "bad.m2")]
    result = _fresh_interpreter(
        "import sys\nimport geckit.corpus\ncorpus = geckit.corpus\nimport geckit.cli\n"
        "print(sys.modules['geckit.corpus'] is corpus, geckit.corpus is corpus,\n"
        "      geckit.cli.corpus is corpus)\n"
        f"print(geckit.cli.main({argv!r}))\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "True True True\n1\n"
    assert result.stderr.startswith(f"error: {tmp_path / 'bad.m2'}: ")


@pytest.mark.parametrize("statement", [
    "import geckit.corpus\nfn = geckit.corpus.load_m2",
    "from geckit.corpus import load_m2 as fn",
    "from geckit import corpus\nfn = corpus.load_m2",
], ids=["import-module", "from-module", "from-package"])
def test_a_module_registered_by_cli_imports_as_usual(statement):
    result = _fresh_interpreter(f"import geckit.cli\n{statement}\nprint(callable(fn))\n")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "True\n"


def test_llm_rank_writes_the_same_bytes_with_one_worker_or_four(tmp_path):
    """Each run starts in a fresh interpreter, so the modules the command
    reads run there before its workers start."""
    words = ["a", "b", "c", "d", "e"]
    for name, shift in (("src", 0), ("x", 1), ("y", 2), ("z", 3)):
        lines = (" ".join(words[(i + k * shift) % 5] for k in range(4)) for i in range(12))
        (tmp_path / f"{name}.txt").write_text("".join(f"{line} .\n" for line in lines),
                                              encoding="utf-8")
    written = []
    for jobs in ("1", "4"):
        argv = ["llm-rank", "--src", str(tmp_path / "src.txt"),
                *(arg for name in "xyz" for arg in ("--sys", str(tmp_path / f"{name}.txt"))),
                "--backend", "mock-lexmin", "--runs", "2", "--seed", "3", "--jobs", jobs,
                "--out-prefix", str(tmp_path / f"jobs{jobs}")]
        result = _fresh_interpreter(f"from geckit.cli import main\nprint(main({argv!r}))\n")
        assert result.returncode == 0, result.stderr
        assert result.stdout == "0\n"
        written.append([(tmp_path / f"jobs{jobs}.run{run}.txt").read_bytes() for run in (0, 1)])
    assert written[0] == written[1]
