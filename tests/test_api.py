"""The public names each module exports: they exist, each has one
spelling, and the README's library example runs as written."""

import contextlib
import importlib
import inspect
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import scalimm

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
GOLDEN = ROOT / "tests" / "golden"

MODULES = [
    "scalimm",
    "scalimm.classify",
    "scalimm.cli",
    "scalimm.ir",
    "scalimm.lattice",
    "scalimm.parser",
    "scalimm.report",
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("module_name", MODULES[1:])
def test_exported_classes_and_functions_are_defined_where_exported(module_name):
    module = importlib.import_module(module_name)
    elsewhere = [
        name
        for name in module.__all__
        if (inspect.isclass(obj := getattr(module, name)) or inspect.isfunction(obj))
        and obj.__module__ != module_name
    ]
    assert elsewhere == []


def _library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_prints_its_report():
    example = _library_example()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(example, {})
    assert out.getvalue() == (
        "Immutability by template kind\n"
        "\n"
        "Kind         Occurrences  Mutable     Shallow   Deep      Cond. deep\n"
        "Class        1 (100.0%)   1 (100.0%)  0 (0.0%)  0 (0.0%)  0 (0.0%)\n"
        "Case class   0 (0.0%)     0 (0.0%)    0 (0.0%)  0 (0.0%)  0 (0.0%)\n"
        "Anon. class  0 (0.0%)     0 (0.0%)    0 (0.0%)  0 (0.0%)  0 (0.0%)\n"
        "Trait        0 (0.0%)     0 (0.0%)    0 (0.0%)  0 (0.0%)  0 (0.0%)\n"
        "Object       0 (0.0%)     0 (0.0%)    0 (0.0%)  0 (0.0%)  0 (0.0%)\n"
        "Case object  0 (0.0%)     0 (0.0%)    0 (0.0%)  0 (0.0%)  0 (0.0%)\n"
        "Total        1 (100.0%)   1 (100.0%)  0 (0.0%)  0 (0.0%)  0 (0.0%)\n"
        "\n"
        "Attributes causing mutable verdicts\n"
        "\n"
        "Attributes  Occurrences\n"
        "C           1 (100.0%)\n"
        "\n"
        "Attributes causing shallow immutable verdicts\n"
        "\n"
        "Attributes  Occurrences\n"
        "\n"
    )


def test_package_exports_exactly_what_the_readme_example_imports():
    imported = re.search(r"^from scalimm import (.+)$", _library_example(), re.M)
    assert set(scalimm.__all__) == {n.strip() for n in imported.group(1).split(",")}


def test_a_text_report_never_imports_dataclasses_inspect_or_json(tmp_path):
    """Start-up cost, measured as the modules loaded rather than in
    seconds.  ``-S`` keeps a site hook from importing any of them first."""
    probe = (
        "import sys, scalimm.cli; code = scalimm.cli.run_cli(sys.argv[1:]); "
        "print(code, sorted({'dataclasses', 'inspect', 'json'} & sys.modules.keys()))"
    )
    argv = ["analyze", str(GOLDEN), "--assume", str(GOLDEN / "assumptions.txt"),
            "--out", str(tmp_path / "report.txt")]
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe, *argv],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True,
    )
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "0 []\n")
    assert (tmp_path / "report.txt").read_bytes() == (GOLDEN / "expected_report.txt").read_bytes()


def test_a_run_from_an_ir_document_never_imports_the_parser(tmp_path):
    """An ``--ir`` run reads no source, so it never loads the frontend."""
    probe = (
        "import sys, scalimm.cli; code = scalimm.cli.run_cli(sys.argv[1:]); "
        "print(code, 'scalimm.parser' in sys.modules)"
    )
    argv = ["analyze", str(GOLDEN / "expected_ir.json"), "--ir",
            "--assume", str(GOLDEN / "assumptions.txt"), "--out", str(tmp_path / "report.txt")]
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe, *argv],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True,
    )
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "0 False\n")
    assert (tmp_path / "report.txt").read_bytes() == (GOLDEN / "expected_report.txt").read_bytes()
