"""The public names each module exports: they exist, each has one
spelling, and the README's library example runs as written."""

import contextlib
import importlib
import inspect
import io
import re
from pathlib import Path

import pytest

import scalimm

README = Path(__file__).resolve().parents[1] / "README.md"

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
