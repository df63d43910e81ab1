"""What an import loads: the package loads no module of its own, a module
only what it uses, and neither geckit nor `cluster` loads numpy or scipy."""

import subprocess
import sys

import pytest


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
