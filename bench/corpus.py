"""Seeded benchmark corpora and the independent model of what scalimm must print.

Each generator builds a list of ``Template`` objects from a seed, and the
same objects are then written out as Scala-subset source or as one
serialized template-graph document.  The expected verdicts, attribute
letters, reports and explanations are computed here by a small
greatest-fixpoint solver over this module's own data model.  Nothing in
this file imports ``scalimm``: the model is a second implementation of
the semantics the README states, so a wrong answer from the analyzer
cannot also be the reference it is checked against.

Same seed, same bytes: every choice comes from ``random.Random`` seeded
with a string (seeded through SHA-512, so the hash seed does not matter),
and no set or dict of strings is iterated in an order that depends on
hashing.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

INFERRED = "$inferred"

# Verdicts, ordered as the lattice: smaller is less immutable.
MUTABLE, SHALLOW, COND_DEEP, DEEP = 0, 1, 2, 3
VERDICT_TOKENS = ("mutable", "shallow", "conditionally_deep", "deep")
VERDICT_PHRASES = (
    "mutable",
    "shallow immutable",
    "conditionally deep immutable",
    "deep immutable",
)

# Outcomes of evaluating one type reference, ordered by severity so that
# folding type arguments with min gives the instantiated answer.
T_MUTABLE, T_UNKNOWN, T_SHALLOW, T_ABSTRACT, T_DEEP = 0, 1, 2, 3, 4

KINDS = ("class", "case_class", "anon_class", "trait", "object", "case_object")
KIND_LABELS = ("Class", "Case class", "Anon. class", "Trait", "Object", "Case object")
OBJECT_LIKE = ("anon_class", "object", "case_object")
MUTABLE_LETTERS = "ABCDE"
SHALLOW_LETTERS = "FGHIJ"

SCALARS = ("scala.Int", "scala.String", "scala.Boolean", "scala.Long")


@dataclass(frozen=True)
class Ref:
    """A type reference: dotted head plus type arguments."""

    head: str
    args: tuple[Ref, ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return self.head
        return f"{self.head}[{', '.join(str(a) for a in self.args)}]"

    def depth(self) -> int:
        """Type-argument nesting depth: 0 for a bare head."""
        return 1 + max(a.depth() for a in self.args) if self.args else 0


@dataclass
class Field:
    name: str
    var: bool
    type: Ref
    modifier: str = ""  # "", "private ", "protected " or "private[bench] "
    ctor: bool = False  # declared as a constructor parameter
    init: str = "init()"
    anon: Template | None = None  # initialized with `new Parent { ... }`

    @property
    def private(self) -> bool:
        # Only a bare `private` is private to the analysis; qualified
        # private and protected count as public.
        return self.modifier == "private "


@dataclass
class Template:
    name: str
    kind: str
    tparams: tuple[str, ...] = ()
    amembers: tuple[str, ...] = ()
    parents: list[Ref] = field(default_factory=list)
    fields: list[Field] = field(default_factory=list)
    filler: list[str] = field(default_factory=list)  # method and comment text
    doc: str = ""

    @property
    def abstract(self) -> tuple[str, ...]:
        return self.tparams + self.amembers


@dataclass
class Corpus:
    """One generated workload input plus everything needed to check it."""

    templates: list[Template]  # graph order, anonymous classes after owners
    files: list[list[Template]]  # top-level templates per source file
    assumptions: dict[str, int]
    explain: list[str] = field(default_factory=list)


# ---- the expectation model -------------------------------------------------


class Model:
    """Greatest fixpoint of the classification over a corpus.

    ``verdicts``, ``letters`` and ``evidence`` hold the packaged result:
    letters and evidence only from the group that explains the verdict.
    """

    def __init__(self, templates: list[Template], assumptions: dict[str, int]):
        self.templates = templates
        self.index = {t.name: t for t in templates}
        self.assumptions = assumptions
        values = {t.name: DEEP for t in templates}
        changed = True
        while changed:
            changed = False
            for t in templates:
                verdict, _ = self._transfer(t, values)
                if verdict < values[t.name]:
                    values[t.name] = verdict
                    changed = True
        self.verdicts = values
        self.letters: dict[str, str] = {}
        self.evidence: dict[str, list] = {}
        for t in templates:
            verdict, evidence = self._transfer(t, values)
            assert verdict == values[t.name], f"model not at a fixpoint: {t.name}"
            keep = {MUTABLE: MUTABLE_LETTERS, SHALLOW: SHALLOW_LETTERS}.get(verdict, "")
            kept = [e for e in evidence if e[0] in keep]
            self.evidence[t.name] = kept
            self.letters[t.name] = "".join(sorted({e[0] for e in kept}))

    def _evaluate(self, ref: Ref, scope: Template, values) -> tuple[int, bool]:
        head = ref.head
        if head == INFERRED:
            return T_UNKNOWN, False
        if "." not in head and head in scope.abstract:
            return T_ABSTRACT, False
        if head in self.index:
            base, assumed = values[head], False
        elif head in self.assumptions:
            base, assumed = self.assumptions[head], True
        else:
            return T_UNKNOWN, False
        if base == MUTABLE:
            return T_MUTABLE, assumed
        if base == SHALLOW:
            return T_SHALLOW, False
        if base == DEEP:
            return T_DEEP, False
        if not ref.args:
            return (T_ABSTRACT if scope.abstract else T_UNKNOWN), False
        return min(
            (self._evaluate(a, scope, values) for a in ref.args), key=lambda o: o[0]
        )

    def _transfer(self, t: Template, values) -> tuple[int, list]:
        verdict = DEEP
        evidence: list = []

        def lower(v: int, letter: str | None = None, cause=None) -> None:
            nonlocal verdict
            verdict = min(verdict, v)
            if letter is not None:
                evidence.append((letter, cause))

        def outcome(kind: int, assumed: bool, cause) -> None:
            if kind == T_ABSTRACT and t.kind in OBJECT_LIKE:
                kind = T_UNKNOWN
            if kind == T_ABSTRACT:
                lower(COND_DEEP)
            elif kind == T_MUTABLE:
                lower(SHALLOW, "I" if assumed else "H", cause)
            elif kind == T_UNKNOWN:
                lower(SHALLOW, "G", cause)
            elif kind == T_SHALLOW:
                lower(SHALLOW, "J", cause)

        for f in t.fields:
            if f.var:
                lower(MUTABLE, "D" if f.private else "C", ("field", f.name, f.type))
        for p in t.parents:
            if p.head in self.index:
                base, letter = values[p.head], "B"
            elif p.head in self.assumptions:
                base, letter = self.assumptions[p.head], "A"
            else:
                lower(MUTABLE, "E", ("parent", p, None))
                continue
            if base == MUTABLE:
                lower(MUTABLE, letter, ("parent", p, None))
            elif base == SHALLOW:
                lower(SHALLOW, "F", ("parent", p, None))
            elif base == COND_DEEP:
                if not p.args:
                    kind = T_ABSTRACT if t.abstract else T_UNKNOWN
                    outcome(kind, False, ("parent", p, None))
                for a in p.args:
                    outcome(*self._evaluate(a, t, values), ("parent", p, a))
        for f in t.fields:
            if not f.var:
                outcome(*self._evaluate(f.type, t, values), ("field", f.name, f.type))
        return verdict, evidence

    # -- counters --

    def edges(self) -> int:
        """Dependency edges: distinct internal heads each template mentions."""
        total = 0
        for t in self.templates:
            heads: set[str] = set()
            for ref in _refs(t):
                for node in _walk(ref):
                    if node.head in self.index and not _shadowed(node.head, t):
                        heads.add(node.head)
            total += len(heads)
        return total

    def externals(self) -> int:
        """Referenced heads that are neither templates nor shadowed names."""
        out: set[str] = set()
        for t in self.templates:
            for ref in _refs(t):
                for node in _walk(ref):
                    h = node.head
                    if h != INFERRED and h not in self.index and not _shadowed(h, t):
                        out.add(h)
        return len(out)

    def nesting_depth(self) -> int:
        return max((r.depth() for t in self.templates for r in _refs(t)), default=0)

    def kinds(self) -> dict[str, int]:
        counts = {k: 0 for k in KINDS}
        for t in self.templates:
            counts[t.kind] += 1
        return counts

    # -- expected outputs --

    def result(self) -> dict:
        """Per-template verdicts and letters, shaped like the golden
        ``expected_result.json``."""
        return {
            "verdicts": {t.name: VERDICT_TOKENS[self.verdicts[t.name]] for t in self.templates},
            "attributes": {t.name: list(self.letters[t.name]) for t in self.templates},
        }

    def report(self, fmt: str) -> bytes:
        kinds = [t.kind for t in self.templates]
        return render_report(kinds, [self.verdicts[t.name] for t in self.templates],
                             [self.letters[t.name] for t in self.templates], fmt)

    def explanation(self, name: str) -> bytes:
        phrase = VERDICT_PHRASES[self.verdicts[name]]
        records = sorted(self.evidence[name], key=lambda e: e[0])
        if not records:
            return f"{name}: {phrase}; no causes\n".encode()
        lines = [f"{name}: {phrase}"]
        lines += [f"  {letter}: {_describe(letter, cause)}" for letter, cause in records]
        return ("\n".join(lines) + "\n").encode()


def _refs(t: Template):
    yield from t.parents
    for f in t.fields:
        yield f.type


def _walk(ref: Ref):
    yield ref
    for a in ref.args:
        yield from _walk(a)


def _shadowed(head: str, t: Template) -> bool:
    return "." not in head and head in t.abstract


def _describe(letter: str, cause) -> str:
    if cause[0] == "field":
        _, name, declared = cause
        if letter in "CD":
            return f"reassignable field '{name}' is {'public' if letter == 'C' else 'private'}"
        if letter == "G":
            if declared.head == INFERRED:
                return f"field '{name}' has no declared type"
            return f"field '{name}' has unknown type '{declared}'"
        if letter == "H":
            return f"field '{name}' has mutable type '{declared}'"
        if letter == "I":
            return f"field '{name}' has mutable type '{declared}' (assumption)"
        return f"field '{name}' has shallow immutable type '{declared}'"
    _, parent, arg = cause
    if letter == "A":
        return f"parent '{parent}' is mutable (assumption)"
    if letter == "B":
        return f"parent '{parent}' is mutable"
    if letter == "E":
        return f"parent '{parent}' is unknown"
    if letter == "F":
        return f"parent '{parent}' is shallow immutable"
    if arg is None:
        return f"parent '{parent}' has unknown type arguments"
    what = {"G": "unknown", "H": "mutable", "I": "mutable (assumption)",
            "J": "shallow immutable"}[letter]
    return f"type argument '{arg}' of parent '{parent}' is {what}"


# ---- report rendering ------------------------------------------------------


def _count(count: int, total: int) -> str:
    return f"{count} ({0.0 if total == 0 else count / total * 100.0:.1f}%)"


def _layout(headers: tuple[str, ...], rows: list[tuple[str, ...]]) -> list[str]:
    widths = [max([len(h)] + [len(r[i]) for r in rows]) for i, h in enumerate(headers)]
    return [
        "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
        for cells in [headers] + rows
    ]


def render_report(kinds: list[str], verdicts: list[int], letters: list[str], fmt: str) -> bytes:
    """The summary and the two attribute-combination tables, as text or JSON."""
    rows = []  # (label, occurrences, mutable, shallow, deep, cond_deep)
    for kind, label in zip(KINDS, KIND_LABELS):
        mine = [v for k, v in zip(kinds, verdicts) if k == kind]
        rows.append((label, len(mine), mine.count(MUTABLE), mine.count(SHALLOW),
                     mine.count(DEEP), mine.count(COND_DEEP)))
    rows.append(("Total",) + tuple(sum(r[i] for r in rows) for i in range(1, 6)))
    combos = []
    for verdict in (MUTABLE, SHALLOW):
        counts: dict[str, int] = {}
        for v, ls in zip(verdicts, letters):
            if v == verdict:
                key = " ".join(ls)
                counts[key] = counts.get(key, 0) + 1
        combos.append(sorted(counts.items()))

    if fmt == "json":
        doc = {
            "summary": [
                dict(zip(("kind", "occurrences", "mutable", "shallow", "deep", "cond_deep"), r))
                for r in rows
            ],
            "mutable_combos": [{"attributes": k, "occurrences": n} for k, n in combos[0]],
            "shallow_combos": [{"attributes": k, "occurrences": n} for k, n in combos[1]],
        }
        return (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode()

    total = rows[-1][1]
    lines = ["Immutability by template kind", ""]
    lines += _layout(
        ("Kind", "Occurrences", "Mutable", "Shallow", "Deep", "Cond. deep"),
        [(r[0], _count(r[1], total)) + tuple(_count(c, r[1]) for c in r[2:]) for r in rows],
    )
    for phrase, combo in zip(("mutable", "shallow immutable"), combos):
        verdict_total = sum(n for _, n in combo)
        lines += ["", f"Attributes causing {phrase} verdicts", ""]
        lines += _layout(("Attributes", "Occurrences"),
                         [(k, _count(n, verdict_total)) for k, n in combo])
    return ("\n".join(lines) + "\n").encode()


# ---- writing inputs --------------------------------------------------------

_KEYWORD = {"class": "class", "case_class": "case class", "trait": "trait",
            "object": "object", "case_object": "case object"}


def _member(f: Field) -> str:
    word = "var" if f.var else "val"
    if f.anon is not None:
        body = " ".join(_member(g) for g in f.anon.fields)
        return f"{f.modifier}{word} {f.name} = new {f.anon.parents[0]} {{ {body} }}"
    if f.type.head == INFERRED:
        return f"{f.modifier}{word} {f.name} = {f.init}"
    return f"{f.modifier}{word} {f.name}: {f.type} = {f.init}"


def _param(f: Field) -> str:
    word = "var " if f.var else "val "
    return f"{f.modifier}{word}{f.name}: {f.type}"


def emit_template(t: Template) -> str:
    head = f"{_KEYWORD[t.kind]} {t.name}"
    if t.tparams:
        head += "[" + ", ".join(t.tparams) + "]"
    params = [f for f in t.fields if f.ctor]
    if params or t.kind == "case_class":
        head += "(" + ", ".join(_param(f) for f in params) + ")"
    if t.parents:
        head += " extends " + " with ".join(str(p) for p in t.parents)
    body = [f"  type {m}" for m in t.amembers]
    members = [f for f in t.fields if not f.ctor]
    filler = list(t.filler)
    for f in members:
        if filler:
            body.append(filler.pop())
        body.append("  " + _member(f))
    body.extend(filler)
    text = t.doc + head
    if body:
        text += " {\n" + "\n".join(body) + "\n}"
    return text + "\n"


def write_sources(corpus: Corpus, directory: Path) -> list[Path]:
    """One ``part-NN.scala`` file per group of top-level templates."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, group in enumerate(corpus.files):
        path = directory / f"part-{i:02d}.scala"
        path.write_bytes("\n".join(emit_template(t) for t in group).encode())
        paths.append(path)
    return paths


def _ref_json(ref: Ref) -> dict:
    return {"head": ref.head, "args": [_ref_json(a) for a in ref.args]}


def serialize_document(corpus: Corpus) -> bytes:
    """The corpus as one template-graph document in the published IR format."""
    doc = {
        "templates": [
            {
                "name": t.name,
                "kind": t.kind,
                "type_params": list(t.tparams),
                "abstract_types": sorted(t.amembers),
                "parents": [_ref_json(p) for p in t.parents],
                "fields": [
                    {"name": f.name, "var": f.var, "private": f.private, "type": _ref_json(f.type)}
                    for f in t.fields
                ],
            }
            for t in corpus.templates
        ]
    }
    return (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode()


def assumptions_text(assumptions: dict[str, int]) -> bytes:
    lines = ["# Verdicts for library names the corpus does not define."]
    lines += [f"{name} {VERDICT_TOKENS[v]}" for name, v in assumptions.items()]
    return ("\n".join(lines) + "\n").encode()


# ---- generators ------------------------------------------------------------

_PREFIX = {"class": "Cl", "case_class": "Cc", "trait": "Tr", "object": "Ob",
           "case_object": "Co"}

_ASSUMED = {
    "scala.Int": DEEP, "scala.String": DEEP, "scala.Boolean": DEEP, "scala.Long": DEEP,
    "lib.Buffer": MUTABLE, "lib.Socket": MUTABLE, "lib.View": SHALLOW,
    "lib.Box": COND_DEEP, "lib.Seq": COND_DEEP, "lib.Token": DEEP,
}
_LIB = ("lib.Buffer", "lib.Socket", "lib.View", "lib.Token")
_EXTERNAL = tuple(f"ext.Vendor{i}" for i in range(24))


def _quota(rng: random.Random, n: int, shares: dict[str, float]) -> list[str]:
    """``int(n * share)`` of each kind, the remainder to the first, shuffled."""
    kinds: list[str] = []
    for kind, share in shares.items():
        kinds += [kind] * int(n * share)
    kinds = [next(iter(shares))] * (n - len(kinds)) + kinds
    rng.shuffle(kinds)
    return kinds


def _pick(rng: random.Random, weights: dict[str, float]) -> str:
    return rng.choices(list(weights), weights=list(weights.values()))[0]


def _split(templates: list[Template], files: int) -> list[list[Template]]:
    size = -(-len(templates) // files)
    return [templates[i : i + size] for i in range(0, len(templates), size)]


def _graph_order(top: list[Template]) -> list[Template]:
    """Owners first, each followed by its anonymous classes in field order,
    which is the order the frontend creates them in."""
    out = []
    for t in top:
        out.append(t)
        out.extend(f.anon for f in t.fields if f.anon is not None)
    return out


def _signatures(rng: random.Random, kinds: list[str], generic_share: float):
    """Name and type parameters per top-level template."""
    out = []
    for i, kind in enumerate(kinds):
        tparams: tuple[str, ...] = ()
        amembers: tuple[str, ...] = ()
        if kind in ("class", "case_class", "trait") and rng.random() < generic_share:
            tparams = ("A", "B")[: rng.choice((1, 1, 2))]
            if rng.random() < 0.3:
                amembers = ("M",)
        out.append(Template(f"{_PREFIX[kind]}{i}", kind, tparams, amembers))
    return out


def _applied(target: Template, leaf) -> Ref:
    """A reference to ``target`` with one argument per type parameter."""
    return Ref(target.name, tuple(leaf() for _ in target.tparams))


def graph_heavy(seed: int, n: int = 2000) -> Corpus:
    """Compact templates of every kind with extends chains, field-type
    cycles, vars, externals, assumed names and anonymous classes."""
    rng = random.Random(f"graph_heavy/{seed}")
    n_anon = n * 15 // 100
    kinds = _quota(rng, n - n_anon, {"class": 0.45, "case_class": 0.12, "trait": 0.18,
                                      "object": 0.15, "case_object": 0.10})
    top = _signatures(rng, kinds, 0.08)
    extendable = [t for t in top if t.kind in ("class", "trait")]
    traits = [t for t in top if t.kind == "trait"]

    def leaf(scope: Template) -> Ref:
        pick = _pick(rng, {"scalar": 5, "internal": 3, "lib": 1, "own": 2 if scope.abstract else 0})
        if pick == "scalar":
            return Ref(rng.choice(SCALARS))
        if pick == "lib":
            return Ref(rng.choice(_LIB))
        if pick == "own":
            return Ref(rng.choice(scope.abstract))
        target = rng.choice(top)
        return _applied(target, lambda: Ref(rng.choice(SCALARS)))

    def field_type(scope: Template) -> Ref:
        pick = _pick(rng, {"scalar": 36, "internal": 50, "lib": 7, "external": 4,
                           "inferred": 4, "box": 3, "own": 10 if scope.abstract else 0})
        if pick == "scalar":
            return Ref(rng.choice(SCALARS))
        if pick == "lib":
            return Ref(rng.choice(_LIB))
        if pick == "external":
            return Ref(rng.choice(_EXTERNAL))
        if pick == "inferred":
            return Ref(INFERRED)
        if pick == "own":
            return Ref(rng.choice(scope.abstract))
        if pick == "box":
            return Ref("lib.Box", (leaf(scope),))
        return _applied(rng.choice(top), lambda: leaf(scope))

    for i, t in enumerate(top):
        if t.kind not in ("object", "case_object") or rng.random() < 0.3:
            pick = _pick(rng, {"chain": 40, "lib": 8, "external": 3, "none": 49})
            if pick == "chain":
                # A recent class or trait, so that extends chains form.
                nearby = [c for c in top[max(0, i - 12) : i] if c.kind in ("class", "trait")]
                target = rng.choice(nearby or extendable)
                if target is not t:
                    t.parents.append(_applied(target, lambda: leaf(t)))
            elif pick == "lib":
                t.parents.append(Ref(rng.choice(("lib.Buffer", "lib.View", "lib.Token"))))
            elif pick == "external":
                t.parents.append(Ref(rng.choice(_EXTERNAL)))
            if rng.random() < 0.15:
                mixin = rng.choice(traits)
                if mixin is not t and all(p.head != mixin.name for p in t.parents):
                    t.parents.append(_applied(mixin, lambda: leaf(t)))
        for j in range(rng.choice((0, 1, 1, 2, 2, 3))):
            ctor = t.kind == "case_class" and rng.random() < 0.7
            ftype = field_type(t)
            if ctor and ftype.head == INFERRED:
                ftype = Ref("scala.Int")
            modifier = rng.choice(("", "", "private "))
            t.fields.append(Field(f"f{j}", rng.random() < 0.035, ftype, modifier, ctor))
        # Constructor parameters come first in the frontend's field order.
        t.fields.sort(key=lambda f: not f.ctor)
    for _ in range(n_anon):
        owner = rng.choice(top)
        pick = _pick(rng, {"internal": 6, "lib": 2.5, "external": 1.5})
        if pick == "internal":
            parent = _applied(rng.choice(extendable), lambda: Ref(rng.choice(SCALARS)))
        elif pick == "lib":
            parent = Ref(rng.choice(_LIB))
        else:
            parent = Ref(rng.choice(_EXTERNAL))
        count = sum(1 for f in owner.fields if f.anon is not None) + 1
        anon = Template(f"{owner.name}$anon${count}", "anon_class", parents=[parent])
        for j in range(rng.choice((0, 1, 1, 2))):
            anon.fields.append(Field(f"g{j}", rng.random() < 0.1, field_type(anon)))
        owner.fields.append(Field(f"a{count}", False, Ref(anon.name), anon=anon))
    return Corpus(_graph_order(top), _split(top, 4), dict(_ASSUMED))


_WORDS = ("cache", "index", "window", "buffer", "ledger", "cursor", "render", "shard",
          "route", "token", "offset", "sample", "queue", "batch", "frame", "digest")


def _method(rng: random.Random, name: str) -> str:
    """A method with a braced body of comments, literals and nested blocks;
    the frontend skips all of it."""
    w = lambda: rng.choice(_WORDS)  # noqa: E731
    doc = (f"  /** Returns the {w()} {w()} for `{name}`; {{braces}} and \"quotes\"\n"
           f"    * in comments are ignored.  /* nested */ still comment */\n")
    stmts = [
        f"    // {w()}: fold the {w()} over the {w()} (see notes)",
        f"    val {w()}{rng.randrange(9)} = x * {rng.randrange(2, 97)} + {rng.randrange(1000)}L",
        f"    val msg = \"{w()} of {name}: \\\"\" + x + \"\\\" {{not a block}}\"",
        f"    if (x > {rng.randrange(100)}) {{ x - {rng.randrange(9)} }} else {{ y.length + 0x{rng.randrange(255):X} }}",
        f"    xs.map(v => v * {rng.randrange(9)}.{rng.randrange(99)}).filter(_ != '{rng.choice('abcxyz')}')",
        "    /* block comment /* with nesting */ and ; separators */",
        f"    val raw = \"\"\"{w()} \"{w()}\"\n      {w()}\"\"\"",
        f"    for (i <- 0 until {rng.randrange(4, 64)}) {{ total += i; log(\"step \" + i) }}",
    ]
    rng.shuffle(stmts)
    body = "\n".join(stmts[: rng.randrange(5, 9)])
    return (f"{doc}  def {name}(x: scala.Int, y: scala.String): scala.Int = {{\n"
            f"{body}\n    x\n  }}")


def source_heavy(seed: int, n: int = 500) -> Corpus:
    """Few references but long bodies: many methods with comments and
    string literals per template, so lexing and parsing dominate."""
    rng = random.Random(f"source_heavy/{seed}")
    kinds = _quota(rng, n, {"class": 0.40, "case_class": 0.15, "trait": 0.20,
                            "object": 0.20, "case_object": 0.05})
    top = _signatures(rng, kinds, 0.1)
    for i, t in enumerate(top):
        t.doc = (f"/** {t.name}: a {rng.choice(_WORDS)} {rng.choice(_WORDS)} component.\n"
                 f"  * Generated for the parse-heavy benchmark workload.\n  */\n")
        for j in range(rng.randrange(3, 6)):
            pick = _pick(rng, {"scalar": 60, "internal": 22, "lib": 10,
                               "own": 8 if t.abstract else 0})
            if pick == "scalar":
                ftype = Ref(rng.choice(SCALARS))
            elif pick == "lib":
                ftype = Ref(rng.choice(_LIB))
            elif pick == "own":
                ftype = Ref(rng.choice(t.abstract))
            else:
                ftype = _applied(rng.choice(top), lambda: Ref(rng.choice(SCALARS)))
            modifier = rng.choice(("", "", "private ", "protected ", "private[bench] "))
            init = f"compute({rng.randrange(100)}, \"{rng.choice(_WORDS)}\")"
            ctor = t.kind == "case_class" and j < 2
            t.fields.append(Field(f"f{j}", rng.random() < 0.04, ftype, modifier, ctor, init))
        if i and t.kind not in ("object", "case_object") and rng.random() < 0.25:
            t.parents.append(_applied(rng.choice(top[:i]), lambda: Ref("scala.Int")))
        t.filler = [_method(rng, f"m{k}") for k in range(rng.randrange(3, 6))]
    return Corpus(top, _split(top, 10), dict(_ASSUMED))



def generic_ir(seed: int, n: int = 2000) -> Corpus:
    """A fifth generic templates; every other template reaches one of
    them through type arguments nested four deep."""
    rng = random.Random(f"generic_ir/{seed}")
    n_generic = n // 5
    generics = []
    for i in range(n_generic):
        kind = ("class", "case_class", "trait")[i % 3]
        tparams = ("A", "B") if rng.random() < 0.3 else ("A",)
        generics.append(Template(f"G{i}", kind, tparams, ("M",)))
    concrete_kinds = _quota(rng, n - n_generic, {"class": 0.40, "case_class": 0.15,
                                                 "trait": 0.10, "object": 0.15,
                                                 "case_object": 0.10, "anon_class": 0.10})
    concrete = [Template(f"K{i}", kind) for i, kind in enumerate(concrete_kinds)]

    def nested(depth: int, leaf: Ref) -> Ref:
        ref = leaf
        for _ in range(depth):
            g = rng.choice(generics)
            ref = Ref(g.name, (ref,) + tuple(Ref("scala.Int") for _ in g.tparams[1:]))
        return ref

    def leaf() -> Ref:
        pick = _pick(rng, {"internal": 25, "scalar": 45, "lib": 15, "external": 10, "bare": 5})
        if pick == "internal":
            return Ref(rng.choice(concrete).name)
        if pick == "scalar":
            return Ref(rng.choice(SCALARS))
        if pick == "lib":
            return Ref(rng.choice(_LIB))
        if pick == "external":
            return Ref(rng.choice(_EXTERNAL))
        return Ref(rng.choice(generics).name)

    # Exact quotas for the choices that decide how far downgrades spread,
    # so every seed costs the analyzer about the same.
    roles = _quota(rng, n_generic, {"plain": 0.88, "var": 0.06, "lib": 0.06})
    for g, role in zip(generics, roles):
        g.fields = [Field(p.lower(), False, Ref(p)) for p in g.tparams]
        g.fields.append(Field("m", False, Ref("M")))
        # Few references between generic templates, so a downgrade does
        # not cascade through a seed-dependent share of them.
        if rng.random() < 0.3:
            other = rng.choice(generics)
            own = lambda: Ref(rng.choice(g.tparams))  # noqa: E731
            g.fields.append(Field("inner", False, _applied(other, own)))
        other = rng.choice(generics)
        if rng.random() < 0.1 and other is not g:
            g.parents.append(_applied(other, lambda: Ref(rng.choice(g.tparams + SCALARS))))
        if role == "var":
            g.fields.append(Field("state", True, Ref("scala.Int"), rng.choice(("", "private "))))
        elif role == "lib":
            g.fields.append(Field("buf", False, Ref(rng.choice(_LIB))))

    counted = _quota(rng, len(concrete), {"plain": 0.95, "var": 0.05})
    for t, role in zip(concrete, counted):
        if t.kind == "anon_class" or rng.random() < 0.2:
            other = rng.choice(concrete)
            if rng.random() < 0.5 and other is not t:
                t.parents.append(Ref(other.name))
            else:
                t.parents.append(nested(rng.choice((1, 2)), leaf()))
        t.fields.append(Field("deep", False, nested(4, leaf())))
        if rng.random() < 0.6:
            t.fields.append(Field("pair", False, nested(rng.choice((1, 2)), leaf())))
        if role == "var":
            t.fields.append(Field("count", True, Ref("scala.Int"), rng.choice(("", "private "))))
    # A fixed interleaving, one generic template then four others: where
    # generics sit in the worklist decides how many templates are queued
    # again when they settle, so a shuffled order would vary the work.
    step = len(concrete) // n_generic
    templates = []
    for i, g in enumerate(generics):
        templates += [g] + concrete[i * step : (i + 1) * step]
    templates += concrete[n_generic * step :]
    # The explained names sit at fixed positions, so they are the same on
    # every seed: three generic templates and five of the others.
    explain = [generics[n_generic * k // 3].name for k in range(3)]
    explain += [concrete[len(concrete) * k // 5].name for k in range(5)]
    return Corpus(templates, [], dict(_ASSUMED), explain)


GENERATORS = {"graph_heavy": graph_heavy, "source_heavy": source_heavy, "generic_ir": generic_ir}
