"""Command-line driver: exit codes, formats, IR round trips, diagnostics."""

import contextlib
import gc
import glob
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from scalimm import cli
from scalimm.cli import run_cli
from scalimm.ir import MAX_TEMPLATE_NESTING, MAX_TYPE_DEPTH, load_ir, serialize_ir
from scalimm.parser import parse_corpus

GOOD_SOURCE = (
    "class Counter { var count: Int = 0 }\n"
    "class Child extends Counter\n"
    "case class Pair[T](v: T)\n"
    "object Single\n"
)


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.scala"
    path.write_text(GOOD_SOURCE, encoding="utf-8")
    return path


def run(capsys, argv):
    code = run_cli([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_prints_text_tables(corpus_file, capsys):
    code, out, err = run(capsys, ["analyze", corpus_file])
    assert code == 0
    assert err == ""
    assert out.startswith("Immutability by template kind\n")
    assert "Attributes causing mutable verdicts" in out
    assert "Total" in out


def test_analyze_csv_and_json_formats(corpus_file, capsys):
    code, out, _ = run(capsys, ["analyze", corpus_file, "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0].startswith("kind,occurrences")

    code, out, _ = run(capsys, ["analyze", corpus_file, "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"][-1]["kind"] == "Total"
    assert payload["summary"][-1]["occurrences"] == 4


def test_analyze_directory_recurses_and_sorts(tmp_path, capsys):
    (tmp_path / "sub").mkdir()
    (tmp_path / "a.scala").write_text("class A\n", encoding="utf-8")
    (tmp_path / "sub" / "b.scala").write_text(
        "class B extends A\n", encoding="utf-8"
    )
    (tmp_path / "notes.txt").write_text("class Ignored\n", encoding="utf-8")
    code, out, err = run(
        capsys, ["analyze", tmp_path, "--format", "json"]
    )
    assert code == 0
    assert json.loads(out)["summary"][-1]["occurrences"] == 2


def test_analyze_empty_directory_reports_zero_totals(tmp_path, capsys):
    code, out, err = run(capsys, ["analyze", tmp_path, "--format", "json"])
    assert code == 0
    assert json.loads(out)["summary"][-1]["occurrences"] == 0


def test_directory_named_like_a_source_is_searched_not_read(tmp_path, capsys):
    (tmp_path / "a.scala").write_text("class A\n", encoding="utf-8")
    (tmp_path / "pkg.scala").mkdir()
    (tmp_path / "pkg.scala" / "b.scala").write_text(
        "class B extends A\n", encoding="utf-8"
    )
    code, out, err = run(capsys, ["analyze", tmp_path, "--format", "json"])
    assert (code, err) == (0, "")
    assert json.loads(out)["summary"][-1]["occurrences"] == 2

    # A dangling link is not a directory: it is read, and that fails.
    (tmp_path / "gone.scala").symlink_to(tmp_path / "absent")
    code, out, err = run(capsys, ["analyze", tmp_path])
    assert (code, out) == (1, "")
    assert err.startswith(f"{tmp_path / 'gone.scala'}: ")


def test_each_file_is_read_once_under_its_first_spelling(tmp_path, capsys):
    source = tmp_path / "a.scala"
    source.write_text("class A\nclass B {\n", encoding="utf-8")
    argv = ["analyze", source, tmp_path, tmp_path / "." / "a.scala", source]
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    # One parse of the file: one diagnostic under the first spelling, and
    # no duplicate-name report for A.
    assert err.splitlines() == [
        f"{source}:3:1: unexpected end of input, expected '}}'"
    ]
    source.write_text("class A\n", encoding="utf-8")
    code, out, err = run(capsys, [*argv, "--format", "json"])
    assert (code, err) == (0, "")
    assert json.loads(out)["summary"][-1]["occurrences"] == 1


def test_missing_path_exits_one(tmp_path, capsys):
    code, out, err = run(capsys, ["analyze", tmp_path / "absent.scala"])
    assert code == 1
    assert out == ""
    assert "no such file or directory" in err


#: Exit-1 paths other than parse and IR diagnostics: the files to create in
#: an empty working directory, the arguments and the exact error stream.
EXIT_ONE_CASES = {
    "extends-own-parameter": (
        {"a.scala": b"class A[T] extends T\n"},
        ["analyze", "a.scala"],
        "a.scala:1:7: template 'A': parent T is abstract in its own scope "
        "and cannot be extended\n",
    ),
    "ir-extends-own-parameter": (
        {
            "graph.json": b'{"templates": [{"name": "A", "kind": "class", '
            b'"type_params": ["T"], "parents": [{"head": "T"}]}]}'
        },
        ["analyze", "graph.json", "--ir"],
        "graph.json: templates[0]: template 'A': parent T is abstract in its "
        "own scope and cannot be extended\n",
    ),
    "source-not-utf8": (
        {"bad.scala": b"class A\xff\n"},
        ["analyze", "bad.scala"],
        "bad.scala: not valid UTF-8 (invalid start byte)\n",
    ),
    "ir-directory": (
        {"docs/a.json": b"{}"},
        ["analyze", "docs", "--ir"],
        "docs: Is a directory\n",
    ),
    "assume-missing": (
        {"a.scala": b"class A\n"},
        ["analyze", "a.scala", "--assume", "none.txt"],
        "none.txt: No such file or directory\n",
    ),
    "assume-not-utf8": (
        {"a.scala": b"class A\n", "assume.txt": b"lib.X mutable \xff\n"},
        ["analyze", "a.scala", "--assume", "assume.txt"],
        "assume.txt: not valid UTF-8 (invalid start byte)\n",
    ),
    "out-directory-missing": (
        {"a.scala": b"class A\n"},
        ["analyze", "a.scala", "--out", "nodir/x"],
        "nodir/x: No such file or directory\n",
    ),
}


@pytest.mark.parametrize(
    "files, argv, stderr", EXIT_ONE_CASES.values(), ids=EXIT_ONE_CASES.keys()
)
def test_exit_one_paths_print_one_exact_line(
    tmp_path, monkeypatch, capsys, files, argv, stderr
):
    for name, data in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_bytes(data)
    monkeypatch.chdir(tmp_path)
    assert run(capsys, argv) == (1, "", stderr)


def test_parse_diagnostics_exit_one_with_positions(tmp_path, capsys):
    bad = tmp_path / "bad.scala"
    bad.write_text("class {\n", encoding="utf-8")
    code, out, err = run(capsys, ["analyze", bad])
    assert code == 1
    assert out == ""
    assert err.startswith(f"{bad}:1:7: ")
    assert "expected identifier" in err


def test_an_unmatched_bracket_in_a_skipped_body_exits_one(tmp_path, capsys):
    # Passed over in silence, the ( would hide ``var y`` up to the closing
    # brace of the class, and A would read deep immutable.
    source = tmp_path / "a.scala"
    source.write_text("class A { def f = { ( }; var y: Int }\n", encoding="utf-8")
    assert run(capsys, ["analyze", source, "--explain", "A"]) == (
        1, "", f"{source}:1:23: expected ')', got '}}'\n"
    )


def test_assumptions_flag_changes_verdicts(tmp_path, capsys):
    source = tmp_path / "keeper.scala"
    source.write_text("class Keeper { val n: Int = 0 }\n", encoding="utf-8")
    assume = tmp_path / "assume.txt"
    assume.write_text("Int deep\n", encoding="utf-8")

    # Without the assumption Int is an unknown external type.
    code, out, _ = run(capsys, ["analyze", source, "--explain", "Keeper"])
    assert code == 0
    assert out == (
        "Keeper: shallow immutable\n  G: field 'n' has unknown type 'Int'\n"
    )

    code, out, _ = run(
        capsys,
        ["analyze", source, "--assume", assume, "--explain", "Keeper"],
    )
    assert code == 0
    assert out == "Keeper: deep immutable; no causes\n"


def test_a_tuple_bound_leaves_the_field_type_unknown(tmp_path, capsys):
    source = tmp_path / "a.scala"
    source.write_text("class A[T <: (Int, Int)](val x: Int)\n", encoding="utf-8")
    code, out, _ = run(capsys, ["analyze", source, "--explain", "A"])
    assert code == 0
    assert out == "A: shallow immutable\n  G: field 'x' has unknown type 'Int'\n"


def test_a_byte_order_mark_is_dropped_from_a_source(tmp_path, capsys):
    source = tmp_path / "c.scala"
    source.write_bytes(b"\xef\xbb\xbfclass C { var n: Int = 0 }\n")
    code, out, err = run(capsys, ["analyze", source, "--explain", "C"])
    assert (code, err) == (0, "")
    assert out == "C: mutable\n  C: reassignable field 'n' is public\n"


def test_a_byte_order_mark_is_dropped_from_an_assumption_file(
    tmp_path, capsys
):
    source = tmp_path / "c.scala"
    source.write_text("class C { val b: lib.Buf }\n", encoding="utf-8")
    assume = tmp_path / "assume.txt"
    assume.write_bytes(b"\xef\xbb\xbflib.Buf mutable\n")
    code, out, err = run(
        capsys, ["analyze", source, "--assume", assume, "--explain", "C"]
    )
    assert (code, err) == (0, "")
    assert out == (
        "C: shallow immutable\n"
        "  I: field 'b' has mutable type 'lib.Buf' (assumption)\n"
    )


def test_a_byte_order_mark_is_dropped_from_an_ir_document(tmp_path, capsys):
    document = tmp_path / "graph.json"
    document.write_bytes(
        b'\xef\xbb\xbf{"templates": [{"name": "C", "kind": "class", "fields": '
        b'[{"name": "n", "var": true, "private": false, "type": {"head": "Int"}}]}]}'
    )
    code, out, err = run(capsys, ["analyze", document, "--ir", "--explain", "C"])
    assert (code, err) == (0, "")
    assert out == "C: mutable\n  C: reassignable field 'n' is public\n"


def test_malformed_assumptions_exit_one(tmp_path, corpus_file, capsys):
    assume = tmp_path / "assume.txt"
    assume.write_text("Int deep\nwat\n", encoding="utf-8")
    code, _, err = run(capsys, ["analyze", corpus_file, "--assume", assume])
    assert code == 1
    assert "line 2" in err


def test_explain_prints_single_template(corpus_file, capsys):
    code, out, err = run(capsys, ["analyze", corpus_file, "--explain", "Child"])
    assert code == 0
    assert out == "Child: mutable\n  B: parent 'Counter' is mutable\n"


def test_explain_unknown_name_exits_two(corpus_file, capsys):
    code, out, err = run(
        capsys, ["analyze", corpus_file, "--explain", "NoSuchName"]
    )
    assert code == 2
    assert "unknown template name 'NoSuchName'" in err


def test_out_flag_writes_file_and_silences_stdout(
    tmp_path, corpus_file, capsys
):
    target = tmp_path / "report.csv"
    code, out, _ = run(
        capsys,
        ["analyze", corpus_file, "--format", "csv", "--out", target],
    )
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8").startswith("kind,occurrences")


def test_ir_document_round_trip(tmp_path, corpus_file, capsys):
    corpus = parse_corpus([("corpus.scala", GOOD_SOURCE)])
    document = tmp_path / "graph.json"
    document.write_bytes(serialize_ir(corpus.graph))

    code, from_ir, _ = run(
        capsys, ["analyze", document, "--ir", "--format", "json"]
    )
    assert code == 0
    code, from_source, _ = run(
        capsys, ["analyze", corpus_file, "--format", "json"]
    )
    assert code == 0
    assert json.loads(from_ir) == json.loads(from_source)

    # The document itself survives a load/serialize cycle byte for byte.
    assert serialize_ir(load_ir(document.read_bytes())) == document.read_bytes()


def test_ir_flag_requires_exactly_one_path(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for p in (a, b):
        p.write_text("{}", encoding="utf-8")
    code, _, err = run(capsys, ["analyze", a, b, "--ir"])
    assert code == 2
    assert "--ir takes exactly one document path" in err


def test_invalid_ir_document_exits_one(tmp_path, capsys):
    document = tmp_path / "graph.json"
    document.write_text('{"templates": [{"name": "A"}]}', encoding="utf-8")
    code, _, err = run(capsys, ["analyze", document, "--ir"])
    assert code == 1
    assert "templates[0]" in err


def _field_document(type_json):
    """An IR document with one class whose one field has the given type."""
    return (
        '{"templates": [{"name": "A", "kind": "class", "type_params": [], '
        '"abstract_types": [], "parents": [], "fields": [{"name": "f", '
        f'"var": false, "private": false, "type": {type_json}}}]}}]}}'
    )


@pytest.mark.parametrize(
    "document, reason",
    [
        # Python refuses to convert integers of more than 4,300 digits.
        ('{"templates": [], "n": ' + "7" * 5000 + "}", "Exceeds the limit"),
        # The decoder itself runs out of stack before load_ir sees a node.
        (
            _field_document(
                '{"head": "P", "args": [' * 1000 + '{"head": "Int", "args": []}'
                + "]}" * 1000
            ),
            "maximum recursion depth",
        ),
    ],
    ids=["huge-integer", "deep-args-chain"],
)
def test_undecodable_ir_document_exits_one(tmp_path, capsys, document, reason):
    path = tmp_path / "graph.json"
    path.write_text(document, encoding="utf-8")
    code, out, err = run(capsys, ["analyze", path, "--ir"])
    assert code == 1
    assert out == ""
    assert err.startswith(f"{path}: invalid JSON: ")
    assert reason in err


def _nested_source(shape, depth):
    """One file whose ``shape`` nests ``depth`` levels, with its outer name."""
    if shape == "type":
        ref = "scala.Int"
        for _ in range(depth - 1):
            ref = f"P[{ref}]"
        return f"class P[T](val t: T)\nclass A(val f: {ref})\n", "A"
    if shape == "objects":
        return "object O { " * depth + "val x: Int = 1 " + "} " * depth, "O"
    # The outer object's body is the first level; each anonymous body
    # opens another.
    return (
        "class T\nobject O { " + "val x = new T { " * (depth - 1) + "} " * depth,
        "O",
    )


#: Per shape: its limit, and where and what the one diagnostic past it is.
NESTING = {
    "type": (
        MAX_TYPE_DEPTH,
        f"2:{16 + 2 * MAX_TYPE_DEPTH}: nesting too deep: "
        f"over {MAX_TYPE_DEPTH} type levels",
    ),
    "objects": (
        MAX_TEMPLATE_NESTING,
        f"1:{10 + 11 * MAX_TEMPLATE_NESTING}: nesting too deep: "
        f"over {MAX_TEMPLATE_NESTING} template bodies",
    ),
    "anon": (
        MAX_TEMPLATE_NESTING,
        f"2:{10 + 16 * MAX_TEMPLATE_NESTING}: nesting too deep: "
        f"over {MAX_TEMPLATE_NESTING} template bodies",
    ),
}


@pytest.mark.parametrize("shape", sorted(NESTING))
def test_nesting_just_inside_the_limit_runs_every_output(tmp_path, capsys, shape):
    limit, _ = NESTING[shape]
    text, name = _nested_source(shape, limit - 1)
    source = tmp_path / "deep.scala"
    source.write_text(text, encoding="utf-8")
    outputs = {}
    for flags in ((), ("--explain", name), ("--format", "json")):
        code, outputs[flags], _ = run(capsys, ["analyze", source, *flags])
        assert code == 0

    document = tmp_path / "deep.json"
    document.write_bytes(serialize_ir(parse_corpus([(str(source), text)]).graph))
    assert serialize_ir(load_ir(document.read_bytes())) == document.read_bytes()
    for flags, expected in outputs.items():
        assert run(capsys, ["analyze", document, "--ir", *flags])[:2] == (0, expected)


@pytest.mark.parametrize("excess", [1, 500])
@pytest.mark.parametrize("shape", sorted(NESTING))
def test_nesting_past_the_limit_is_one_positioned_diagnostic(
    tmp_path, capsys, shape, excess
):
    limit, diagnostic = NESTING[shape]
    text, _ = _nested_source(shape, limit + excess)
    source = tmp_path / "deep.scala"
    source.write_text(text, encoding="utf-8")
    assert run(capsys, ["analyze", source]) == (1, "", f"{source}:{diagnostic}\n")


def _deep_ir_document(depth):
    """The IR form of ``_nested_source("type", depth)``: ``class P[T]`` and
    ``class A`` whose one field's type nests ``depth`` levels."""
    ref = {"head": "scala.Int", "args": []}
    for _ in range(depth - 1):
        ref = {"head": "P", "args": [ref]}

    def template(name, params, field, field_type):
        return {
            "name": name,
            "kind": "class",
            "type_params": params,
            "abstract_types": [],
            "parents": [],
            "fields": [
                {"name": field, "var": False, "private": False, "type": field_type}
            ],
        }

    doc = {
        "templates": [
            template("P", ["T"], "t", {"head": "T", "args": []}),
            template("A", [], "f", ref),
        ]
    }
    return (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def test_ir_nesting_at_the_limit_runs_every_output(tmp_path, capsys):
    document = tmp_path / "deep.json"
    document.write_bytes(_deep_ir_document(MAX_TYPE_DEPTH))
    # Both entry points accept the same depth.
    text, _ = _nested_source("type", MAX_TYPE_DEPTH)
    source = tmp_path / "deep.scala"
    source.write_text(text, encoding="utf-8")
    assert serialize_ir(parse_corpus([(str(source), text)]).graph) == document.read_bytes()
    assert serialize_ir(load_ir(document.read_bytes())) == document.read_bytes()
    for flags in ((), ("--explain", "A"), ("--format", "json")):
        code, out, _ = run(capsys, ["analyze", document, "--ir", *flags])
        assert code == 0
        assert run(capsys, ["analyze", source, *flags]) == (0, out, "")


@pytest.mark.parametrize("excess", [1, 200])
def test_ir_nesting_past_the_limit_exits_one(tmp_path, capsys, excess):
    document = tmp_path / "deep.json"
    document.write_bytes(_deep_ir_document(MAX_TYPE_DEPTH + excess))
    path = "templates[1].fields[0].type" + ".args[0]" * MAX_TYPE_DEPTH
    for flags in ((), ("--explain", "A")):
        assert run(capsys, ["analyze", document, "--ir", *flags]) == (
            1,
            "",
            f"{document}: {path}: nesting too deep: over {MAX_TYPE_DEPTH} type levels\n",
        )


def test_usage_errors_exit_two(capsys):
    assert run_cli([]) == 2
    capsys.readouterr()
    assert run_cli(["analyze"]) == 2
    capsys.readouterr()
    assert run_cli(["analyze", "x.scala", "--format", "yaml"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run_cli(["--help"]) == 0
    out = capsys.readouterr().out
    assert "analyze" in out


def test_internal_error_exits_three_without_traceback(corpus_file, capsys, monkeypatch):
    def broken(graph, assumptions=None):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "classify_corpus", broken)
    code, out, err = run(capsys, ["analyze", corpus_file])
    assert code == 3
    assert out == ""
    assert err == "internal error: RecursionError: maximum recursion depth exceeded\n"
    assert "Traceback" not in err


SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"
MAIN = "from scalimm.cli import main; main()"


def _env_with_src(**extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    env.update(extra)
    return env


def test_command_line_does_not_load_numpy():
    env = _env_with_src()
    probe = "import sys, scalimm.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "False\n"


@pytest.mark.parametrize(
    "flags", [["--explain", "Äpfel"], ["--format", "json"]], ids=["explain", "json"]
)
def test_stdout_gets_the_out_bytes_under_a_non_utf8_encoding(tmp_path, flags):
    source = tmp_path / "a.scala"
    source.write_text("class Äpfel { var x: Int = 0 }\n", encoding="utf-8")
    argv = [sys.executable, "-c", MAIN, "analyze", str(source), *flags]
    env = _env_with_src(PYTHONIOENCODING="ascii")
    out = tmp_path / "out"
    written = subprocess.run([*argv, "--out", str(out)], env=env, capture_output=True)
    printed = subprocess.run(argv, env=env, capture_output=True)
    assert (written.returncode, written.stdout, written.stderr) == (0, b"", b"")
    assert (printed.returncode, printed.stderr) == (0, b"")
    assert printed.stdout == out.read_bytes()


def test_a_text_only_stdout_gets_the_report_decoded():
    """A stream without a byte buffer, such as io.StringIO, is written the
    report's text instead of its bytes."""
    argv = ["analyze", str(GOLDEN), "--assume", str(GOLDEN / "assumptions.txt")]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run_cli(argv)
    assert code == 0
    expected = (GOLDEN / "expected_report.txt").read_bytes().decode("utf-8")
    assert stdout.getvalue() == expected


def _python_3_10():
    """A CPython 3.10 interpreter, or None.  A version shim on PATH may
    exist without the version it names, so each candidate is asked."""
    candidates = [shutil.which("python3.10")]
    candidates += sorted(
        glob.glob(os.path.expanduser("~/.pyenv/versions/3.10.*/bin/python3"))
    )
    for exe in filter(None, candidates):
        try:
            probe = subprocess.run(
                [exe, "-c", "import sys; print(sys.version_info[:2])"],
                capture_output=True, text=True, timeout=60,
            )
        except (OSError, subprocess.TimeoutExpired):
            continue
        if probe.returncode == 0 and probe.stdout == "(3, 10)\n":
            return exe
    return None


def test_golden_report_is_the_same_on_the_oldest_supported_python(tmp_path):
    """pyproject.toml declares requires-python >= 3.10; the package must
    load and give the same report bytes there."""
    exe = _python_3_10()
    if exe is None:
        pytest.skip("no CPython 3.10: no python3.10 on PATH reports (3, 10) "
                    "and no ~/.pyenv/versions/3.10.* exists")
    argv = ["analyze", str(GOLDEN), "--assume", str(GOLDEN / "assumptions.txt")]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    text = subprocess.run([exe, "-c", MAIN, *argv], env=env, capture_output=True)
    assert (text.returncode, text.stderr) == (0, b"")
    assert text.stdout == (GOLDEN / "expected_report.txt").read_bytes()

    as_json = subprocess.run(
        [exe, "-c", MAIN, *argv, "--format", "json"], env=env, capture_output=True
    )
    expected = tmp_path / "report.json"
    assert run_cli([*argv, "--format", "json", "--out", str(expected)]) == 0
    assert (as_json.returncode, as_json.stderr) == (0, b"")
    assert as_json.stdout == expected.read_bytes()

    # The same corpus read from its IR document goes through load_ir.
    ir_argv = ["analyze", str(GOLDEN / "expected_ir.json"), "--ir",
               "--assume", str(GOLDEN / "assumptions.txt")]
    from_ir = subprocess.run([exe, "-c", MAIN, *ir_argv], env=env, capture_output=True)
    assert (from_ir.returncode, from_ir.stderr) == (0, b"")
    assert from_ir.stdout == (GOLDEN / "expected_report.txt").read_bytes()


def test_regenerate_rewrites_the_golden_artifacts_byte_for_byte(tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(GOLDEN, golden)
    done = subprocess.run(
        [sys.executable, str(golden / "regenerate.py")],
        cwd=tmp_path, env=_env_with_src(), capture_output=True, text=True,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("regenerated ")
    for name in ("expected_ir.json", "expected_report.txt",
                 "expected_report.csv", "expected_report.json",
                 "expected_explain.txt", "expected_result.json"):
        assert (golden / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def _cyclic_garbage(argv):
    """The exit code of an in-process run with the cyclic collector paused,
    and how many unreachable objects a collection then finds."""
    gc.collect()
    gc.disable()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = run_cli(argv)
        return code, gc.collect()
    finally:
        gc.enable()


def test_the_cyclic_garbage_of_a_run_does_not_grow_with_its_input(tmp_path):
    # main() turns the cyclic collector off, so reference counting alone
    # must free what a run builds.  The cycles a run leaves (argparse's and
    # the JSON encoder's own) are the same for a corpus 200 times larger.
    found = {}
    for n in (10, 2000):
        good = tmp_path / f"good{n}.scala"
        good.write_text("\n".join(
            f"class C{i}(val a: Int) {{ var b: List[Map[Int, C{max(i - 1, 0)}]] = null; "
            f"def m(x: Int) = {{ x + 1 }} }}" for i in range(n)))
        broken = tmp_path / f"broken{n}.scala"
        broken.write_text("\n".join(f"class C{i} {{ val = ) ; def }}" for i in range(n)))
        document = tmp_path / f"graph{n}.json"
        document.write_bytes(serialize_ir(parse_corpus([(str(good), good.read_text())]).graph))
        found[n] = [_cyclic_garbage(["analyze", *argv]) for argv in (
            [str(good)],
            [str(good), "--format", "csv"],
            [str(document), "--ir", "--format", "json"],
            [str(document), "--ir", "--explain", "C5"],
            [str(broken)],
        )]
    assert [code for code, _ in found[2000]] == [0, 0, 0, 0, 1]
    assert found[2000] == found[10]


def test_main_runs_with_the_cyclic_collector_off():
    probe = ("import gc, scalimm.cli as c; "
             "c.run_cli = lambda argv: print(gc.isenabled()) or 0; c.main()")
    done = subprocess.run([sys.executable, "-c", probe], env=_env_with_src(),
                          capture_output=True, text=True)
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "False\n")
