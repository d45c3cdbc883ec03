"""Seeded mutation runs over the golden corpus, sources and IR document.

Every mutant must end the way the command line documents: a report (exit
0), diagnostics (exit 1) or a usage error (exit 2), never an internal
error.  On exit 1 every line on the error stream is a diagnostic that
names the input: ``file:line:col: `` for sources, ``<document>: `` for an
IR document.  A source file gets at most one diagnostic per position, and
its positions strictly increase.
"""

import copy
import json
import random
import re
from pathlib import Path

from scalimm.cli import run_cli

GOLDEN = Path(__file__).resolve().parent / "golden"
MUTANTS = 250  # of each input form; about 3 s together

#: Grammar fragments inserted into sources, whole or as single tokens.
FRAGMENTS = [
    "class Q[T] extends T", "trait R[A, B]", "object O",
    "case class K(x: Int)",
    "case object Z", "extends T", " with Box[T]", "[T]", "[T <: (Int, Int)]",
    "(val v: T)", "(var w: Int)", "{ val a: P[Q[R]] }", "{ var b: Int = 1 }",
    "val c: T", "var d: lib.Buf", "def f(x: Int): Int = { x }", "type M",
    "type N = Int", "new Base { val e: Int = 1 }", "private", "private[p]",
    "lazy", "override", "(", ")", "[", "]", "{", "}", ",", ".", ";", ":", "=",
    "<:", "=>", '"', '"""', "'", "/*", "*/", "//", "\n", "1", "\ufeff",
    "\u00e9", "\u00b2", "\u216b",
]

#: Values that replace a node of the IR document.
IR_VALUES = [
    None, True, False, 0, -1, 1.5, "", "x", "T", "class", "object",
    "anon_class", [], [""], ["T", "T"], {}, {"head": "T"}, {"head": ""},
    {"head": "T", "args": [{"head": "T"}]}, {"name": "f"},
]


def _mutate_source(rng, text):
    for _ in range(rng.randint(1, 3)):
        start = rng.randint(0, len(text))
        if rng.randrange(2):  # at a line start, where a definition can go
            start = text.rfind("\n", 0, start) + 1
        end = min(len(text), start + rng.randint(1, 80))
        action = rng.randrange(3)
        if action == 0:
            text = text[:start] + rng.choice(FRAGMENTS) + text[start:]
        elif action == 1:
            text = text[:start] + text[end:]
        else:
            text = text[:end] + text[start:end] + text[end:]
    return text


def _nodes(node, found):
    """Every (container, key) pair below ``node``, in document order."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in list(items):
        found.append((node, key))
        if isinstance(child, (dict, list)):
            _nodes(child, found)
    return found


def _mutate_ir(rng, document):
    for _ in range(rng.randint(1, 3)):
        nodes = _nodes(document, [])
        if not nodes:
            return document
        container, key = rng.choice(nodes)
        action = rng.randrange(3)
        if action == 0:
            value = rng.choice(IR_VALUES + [container[key]])
            container[key] = copy.deepcopy(value)
        elif action == 1:
            del container[key]
        elif isinstance(container, list):
            container.insert(key, copy.deepcopy(container[key]))
        else:  # an object: repeat the value under another of its keys
            other = rng.choice(list(container))
            container[other] = copy.deepcopy(container[key])
    return document


def _check(capsys, argv, diagnostic):
    code = run_cli(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (argv, code, err)
    assert "internal error" not in err, (argv, err)
    if code == 1:
        last = {}  # file -> (line, column) of its latest diagnostic
        for line in err.splitlines():
            match = diagnostic.match(line)
            assert match, (argv, line)
            if match.groups():  # file, line and column of a source diagnostic
                file, at = match[1], (int(match[2]), int(match[3]))
                previous = last.get(file, (0, 0))
                assert at != previous, ("repeated position", argv, line)
                assert at > previous, ("out of order", argv, line)
                last[file] = at


def test_mutated_sources_end_in_a_report_or_positioned_diagnostics(
    tmp_path, capsys
):
    rng = random.Random(1)
    sources = {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted(GOLDEN.glob("*.scala"))
    }
    expected = (GOLDEN / "expected_result.json").read_text(encoding="utf-8")
    names = list(json.loads(expected)["verdicts"])
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    assume = str(GOLDEN / "assumptions.txt")
    diagnostic = re.compile(
        re.escape(str(corpus)) + r"/(\w+\.scala):(\d+):(\d+): "
    )
    for _ in range(MUTANTS):
        victim = rng.choice(sorted(sources))
        for name, text in sources.items():
            if name == victim:
                text = _mutate_source(rng, text)
            (corpus / name).write_text(text, encoding="utf-8")
        argv = ["analyze", str(corpus), "--assume", assume]
        argv += rng.choice(
            [[], ["--format", "json"], ["--explain", rng.choice(names + ["Q"])]]
        )
        _check(capsys, argv, diagnostic)


def test_mutated_ir_documents_end_in_a_report_or_located_diagnostics(
    tmp_path, capsys
):
    rng = random.Random(1)
    original = json.loads(
        (GOLDEN / "expected_ir.json").read_text(encoding="utf-8")
    )
    names = [t["name"] for t in original["templates"]]
    doc = tmp_path / "graph.json"
    diagnostic = re.compile(re.escape(f"{doc}: "))
    for _ in range(MUTANTS):
        mutant = _mutate_ir(rng, copy.deepcopy(original))
        doc.write_text(json.dumps(mutant), encoding="utf-8")
        argv = ["analyze", str(doc), "--ir"]
        argv += rng.choice(
            [[], ["--format", "csv"], ["--explain", rng.choice(names + ["Q"])]]
        )
        _check(capsys, argv, diagnostic)
