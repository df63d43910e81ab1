"""What an import loads: the package loads no module of its own, a module
only what it uses, and neither geckit nor `cluster` loads numpy or scipy.
`import geckit.cli` loads no standard-library module that only one code
path uses, yet every module the bench's tracer wraps."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

TRACE_CHILD = Path(__file__).resolve().parent.parent / "bench" / "trace_child.py"


def _fresh_interpreter(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)


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


def test_cli_import_loads_every_traced_module():
    """The tracer reads each traced module from sys.modules right after
    `import geckit.cli` and wraps each traced function by its name, so a
    module loaded lazily, or a traced function renamed or removed, would
    break `--trace 1`."""
    functions = sorted(_traced_functions())
    traced = {module for module, _ in functions} | {"geckit.cli"}
    assert len(traced) == 9
    result = _fresh_interpreter(
        "import sys\nimport geckit.cli\n"
        f"print(sorted(m for m in {sorted(traced)!r} if m not in sys.modules))\n"
        f"print([key for key in {functions!r}\n"
        "       if not callable(getattr(sys.modules.get(key[0]), key[1], None))])\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n[]\n"
