"""Random template-graph generators and test-side oracles.

Two generator families: ``make_graph`` produces arbitrary graphs (cycles,
every kind, every resolution outcome) for the fixpoint and invariant
properties; ``make_generic_graph`` produces layered acyclic graphs whose
generics are always fully applied, the shape the monomorphization
equivalence is stated over.

Three oracles compute the greatest fixpoint without the engine loop.
``exhaustive_fixpoint_oracle`` enumerates every assignment with numpy
table lookups; ``naive_fixpoint_oracle`` re-derives it with plain
dictionaries and no vectorization, as an independent check on the first.
Both are limited to tiny graphs.  ``kleene_fixpoint`` iterates downward
from the top in whole rounds, so it scales to graphs of any size; its
final pass gives the reference evidence that the engine's must equal.
numpy is a test dependency only; the ``scalimm`` package does not use it.
``monomorphize`` textually instantiates every generic use so the
substitution semantics can be compared against analyzing fully concrete
code.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from scalimm.ir import (
    FieldDecl,
    TemplateDef,
    TemplateGraph,
    TemplateKind,
    TypeRef,
    UNPARAMETERIZED_KINDS,
    Visibility,
    build_graph,
)
from scalimm.lattice import TransferFn, Verdict

_ASSUMED_VERDICTS = (
    Verdict.MUTABLE,
    Verdict.SHALLOW_IMMUTABLE,
    Verdict.CONDITIONALLY_DEEP,
    Verdict.DEEP_IMMUTABLE,
)

_ALL_KINDS = (
    TemplateKind.CLASS,
    TemplateKind.CASE_CLASS,
    TemplateKind.ANON_CLASS,
    TemplateKind.TRAIT,
    TemplateKind.OBJECT,
    TemplateKind.CASE_OBJECT,
)


def make_graph(
    rng: random.Random,
    *,
    min_templates: int = 1,
    max_templates: int = 8,
    mention_cap: int = 3,
) -> tuple[TemplateGraph, dict[str, Verdict]]:
    """A random graph plus assumption list.

    Cycles and self-references are allowed.  Each template mentions at
    most ``mention_cap`` distinct graph templates so the enumeration
    oracle's per-template tables stay small.  Parent heads never collide
    with the template's own abstract names, keeping inputs well formed.
    Half the assumption lists also name a graph template, whose own
    verdict must win over the assumed one.
    """
    n = rng.randint(min_templates, max_templates)
    names = [f"G{i}" for i in range(n)]

    assumptions: dict[str, Verdict] = {}
    for i in range(rng.randint(0, 3)):
        assumptions[f"lib.A{i}"] = rng.choice(_ASSUMED_VERDICTS)
    assumed_names = list(assumptions)
    external_names = ["ext.X", "ext.Y"][: rng.randint(0, 2)]

    # Signatures first, so references can respect target arity.
    kinds: list[TemplateKind] = []
    params: list[tuple[str, ...]] = []
    members: list[frozenset[str]] = []
    for _ in names:
        kind = rng.choice(_ALL_KINDS)
        kinds.append(kind)
        if kind in UNPARAMETERIZED_KINDS:
            params.append(())
            members.append(frozenset())
        else:
            params.append(("T", "U")[: rng.choice((0, 0, 1, 2))])
            members.append(
                frozenset({"M"}) if rng.random() < 0.15 else frozenset()
            )

    templates: list[TemplateDef] = []
    for i, name in enumerate(names):
        pool = rng.sample(names, min(mention_cap, n))
        own_abstract = list(params[i]) + sorted(members[i])

        def internal_ref(depth: int) -> TypeRef:
            target = rng.choice(pool)
            arity = len(params[names.index(target)])
            if arity == 0 or depth >= 2:
                return TypeRef(target, ())
            return TypeRef(
                target, tuple(field_ref(depth + 1) for _ in range(arity))
            )

        def field_ref(depth: int = 0) -> TypeRef:
            choices = ["internal", "external", "inferred"]
            if assumed_names:
                choices.append("assumed")
            if own_abstract:
                choices.extend(["abstract", "abstract"])
            pick = rng.choice(choices)
            if pick == "internal":
                return internal_ref(depth)
            if pick == "assumed":
                head = rng.choice(assumed_names)
                if rng.random() < 0.3:
                    return TypeRef(head, (field_ref(depth + 1),))
                return TypeRef(head, ())
            if pick == "abstract":
                return TypeRef(rng.choice(own_abstract), ())
            if pick == "inferred":
                return TypeRef("$inferred", ())
            return TypeRef(rng.choice(external_names or ["ext.Z"]), ())

        def parent_ref() -> TypeRef:
            pick = rng.random()
            if pick < 0.6:
                return internal_ref(0)
            if pick < 0.8 and assumed_names:
                return TypeRef(rng.choice(assumed_names), ())
            return TypeRef(rng.choice(external_names or ["ext.Z"]), ())

        if kinds[i] is TemplateKind.ANON_CLASS:
            parent_count = 1
        else:
            parent_count = rng.choice((0, 0, 1, 1, 2))
        parents = tuple(parent_ref() for _ in range(parent_count))

        fields = []
        for j in range(rng.choice((0, 1, 1, 2, 3))):
            fields.append(
                FieldDecl(
                    name=f"f{j}",
                    reassignable=rng.random() < 0.25,
                    visibility=rng.choice(
                        (Visibility.PUBLIC, Visibility.PRIVATE)
                    ),
                    declared_type=field_ref(),
                )
            )

        templates.append(
            TemplateDef(
                name=name,
                kind=kinds[i],
                type_params=params[i],
                abstract_type_members=members[i],
                parents=parents,
                fields=tuple(fields),
            )
        )

    if rng.random() < 0.5:
        assumptions[rng.choice(names)] = rng.choice(_ASSUMED_VERDICTS)
    return build_graph(templates), assumptions


def permuted(graph: TemplateGraph, rng: random.Random) -> TemplateGraph:
    """The same templates in a shuffled order.  The engine seeds its
    worklist in template order, so this reorders every pop and re-queue."""
    templates = list(graph.templates.values())
    rng.shuffle(templates)
    return build_graph(templates)


# ---- oracles --------------------------------------------------------------


def naive_fixpoint_oracle(
    graph: TemplateGraph,
    transfer: TransferFn,
    assumptions_unused: object = None,
) -> dict[str, Verdict]:
    """Greatest fixpoint by plain enumeration over full assignments.

    No tables, no projections: every candidate assignment is checked by
    evaluating the transfer on all templates.  Usable only for tiny
    graphs; exists to cross-check the vectorized oracle.
    """
    names = list(graph.templates)
    best: tuple[int, ...] | None = None
    for combo in itertools.product(
        (
            Verdict.DEEP_IMMUTABLE,
            Verdict.CONDITIONALLY_DEEP,
            Verdict.SHALLOW_IMMUTABLE,
            Verdict.MUTABLE,
        ),
        repeat=len(names),
    ):
        assignment = dict(zip(names, combo))
        if all(
            transfer(graph, name, assignment).verdict == assignment[name]
            for name in names
        ):
            key = tuple(int(v) for v in combo)
            if best is None or key > best:
                best = key
    if best is None:
        raise RuntimeError("no fixpoint exists")
    return {name: Verdict(v) for name, v in zip(names, best)}


def kleene_fixpoint(
    graph: TemplateGraph,
    transfer: TransferFn,
) -> tuple[dict[str, Verdict], dict[str, tuple]]:
    """Greatest fixpoint by round-robin Kleene iteration from the top.

    Each round evaluates every template against a copy of the previous
    round's assignment and meets the result in; iteration stops after a
    round that changes nothing.  There is no worklist, no dependency
    index and no live assignment, so the result is independent of the
    engine's bookkeeping.  Evidence comes from one final transfer per
    template at the fixpoint.  The engine has no such pass: it keeps each
    template's last evaluation, and this is the reference that must equal.
    """
    names = list(graph.templates)
    assignment = dict.fromkeys(names, Verdict.DEEP_IMMUTABLE)
    changed = True
    while changed:
        previous = dict(assignment)
        for name in names:
            assignment[name] = min(
                previous[name], transfer(graph, name, previous).verdict
            )
        changed = assignment != previous
    evidence = {name: transfer(graph, name, assignment).evidence for name in names}
    return assignment, evidence


#: Enumerating assignments is 4**n rows; beyond this many templates the
#: table no longer fits in reasonable memory or time.
ORACLE_TEMPLATE_LIMIT = 10

_digit_matrix_cache: dict[int, np.ndarray] = {}


def _digit_matrix(n: int) -> np.ndarray:
    """All base-4 words of length n as a (4**n, n) uint8 matrix, most
    significant digit first."""
    cached = _digit_matrix_cache.get(n)
    if cached is None:
        rows = np.arange(4**n, dtype=np.int64)[:, None]
        shifts = 2 * np.arange(n - 1, -1, -1, dtype=np.int64)
        cached = ((rows >> shifts) & 3).astype(np.uint8)
        _digit_matrix_cache[n] = cached
    return cached


def _mentioned_templates(graph: TemplateGraph, name: str) -> list[str]:
    """Graph templates mentioned anywhere in a template's parents or field
    types, shadowed or not.

    This deliberately over-approximates the engine's dependency relation
    and ignores scope, so the oracle stays independent of that logic: a
    mentioned name the transfer never reads just adds a constant axis to
    its table.
    """
    template = graph.templates[name]
    mentioned: set[str] = set()

    def walk(ref) -> None:
        if ref.head in graph.templates:
            mentioned.add(ref.head)
        for a in ref.args:
            walk(a)

    for ref in template.parents:
        walk(ref)
    for f in template.fields:
        walk(f.declared_type)
    return sorted(mentioned)


def exhaustive_fixpoint_oracle(
    graph: TemplateGraph,
    transfer: TransferFn,
) -> dict[str, Verdict]:
    """Greatest fixpoint of ``transfer`` by enumerating every assignment.

    Tabulates each template's transfer over all combinations of the
    verdicts it can mention, filters the full assignment space down to
    exact fixpoints with vectorized table lookups, and returns the
    pointwise maximum.  That maximum must itself be a fixpoint; if it is
    not, or no fixpoint exists, the transfer function is not monotone and
    RuntimeError is raised.

    Only graphs with at most ORACLE_TEMPLATE_LIMIT templates are accepted.
    """
    names = list(graph.templates)
    n = len(names)
    if n > ORACLE_TEMPLATE_LIMIT:
        raise ValueError(
            f"oracle enumerates 4**n assignments; {n} templates exceeds the "
            f"limit of {ORACLE_TEMPLATE_LIMIT}"
        )
    if n == 0:
        return {}

    column = {name: i for i, name in enumerate(names)}
    matrix = _digit_matrix(n)
    mask = np.ones(len(matrix), dtype=bool)

    for i, name in enumerate(names):
        deps = _mentioned_templates(graph, name)
        k = len(deps)
        table = np.empty(4**k, dtype=np.uint8)
        for combo in itertools.product(range(4), repeat=k):
            assignment = {d: Verdict(v) for d, v in zip(deps, combo)}
            flat = 0
            for v in combo:
                flat = flat * 4 + v
            table[flat] = int(transfer(graph, name, assignment).verdict)

        if k:
            cols = [column[d] for d in deps]
            weights = 4 ** np.arange(k - 1, -1, -1, dtype=np.int64)
            flat_all = matrix[:, cols].astype(np.int64) @ weights
            mask &= table[flat_all] == matrix[:, i]
        else:
            mask &= table[0] == matrix[:, i]

    fixed = matrix[mask]
    if len(fixed) == 0:
        raise RuntimeError("no fixpoint exists; transfer is not monotone")
    best = fixed.max(axis=0)
    if not (fixed == best).all(axis=1).any():
        raise RuntimeError(
            "pointwise maximum of fixpoints is not a fixpoint; transfer is "
            "not monotone"
        )
    return {name: Verdict(int(best[i])) for i, name in enumerate(names)}


# ---- monomorphization ------------------------------------------------------


def make_generic_graph(
    rng: random.Random, *, max_templates: int = 6
) -> tuple[TemplateGraph, dict[str, Verdict]]:
    """A layered acyclic graph where every generic use is fully applied.

    Template i references only templates with a higher index, so there is
    no recursion.  Every type parameter of a generic template occurs as a
    bare field, and inside generic templates every conditionally-deep-
    capable head carries explicit arguments; both are the preconditions
    under which argument substitution is equivalent to full instantiation.
    """
    n = rng.randint(2, max_templates)
    names = [f"G{i}" for i in range(n)]

    assumptions: dict[str, Verdict] = {}
    for i in range(rng.randint(0, 3)):
        assumptions[f"lib.A{i}"] = rng.choice(_ASSUMED_VERDICTS)
    assumed_names = list(assumptions)
    assumed_concrete = [
        a for a in assumed_names
        if assumptions[a] is not Verdict.CONDITIONALLY_DEEP
    ]
    external_names = ["ext.X"][: rng.randint(0, 1)]

    kinds: list[TemplateKind] = []
    params: list[tuple[str, ...]] = []
    for i in range(n):
        kind = rng.choice(_ALL_KINDS)
        generic = (
            kind not in UNPARAMETERIZED_KINDS
            and i < n - 1
            and rng.random() < 0.5
        )
        kinds.append(kind)
        params.append(("T", "U")[: rng.randint(1, 2)] if generic else ())

    templates: list[TemplateDef] = []
    for i, name in enumerate(names):
        later = list(range(i + 1, n))
        later_concrete = [j for j in later if not params[j]]
        later_generic = [j for j in later if params[j]]
        own_params = params[i]
        in_generic_scope = bool(own_params)

        def concrete_head() -> TypeRef:
            # Closed, scope-independent references only.
            choices: list[TypeRef] = [TypeRef("ext.Q", ())]
            choices.extend(TypeRef(names[j], ()) for j in later_concrete)
            choices.extend(TypeRef(a, ()) for a in assumed_concrete)
            choices.extend(TypeRef(e, ()) for e in external_names)
            return rng.choice(choices)

        def closed_or_param() -> TypeRef:
            if own_params and rng.random() < 0.5:
                return TypeRef(rng.choice(own_params), ())
            return concrete_head()

        def generic_use() -> TypeRef | None:
            if not later_generic:
                return None
            j = rng.choice(later_generic)
            args = tuple(closed_or_param() for _ in params[j])
            return TypeRef(names[j], args)

        def concrete_field_ref() -> TypeRef:
            # In concrete scope: anything goes, including bare heads of
            # conditionally deep assumptions (the no-argument rule is
            # scope-independent between a concrete template and its
            # monomorphized copy).
            use = generic_use()
            if use is not None and rng.random() < 0.5:
                return use
            if assumed_names and rng.random() < 0.3:
                return TypeRef(rng.choice(assumed_names), ())
            return concrete_head()

        fields: list[FieldDecl] = []
        for p in own_params:
            fields.append(
                FieldDecl(
                    name=f"p_{p}",
                    reassignable=False,
                    visibility=Visibility.PUBLIC,
                    declared_type=TypeRef(p, ()),
                )
            )
        for j in range(rng.choice((0, 1, 1, 2))):
            if in_generic_scope:
                use = generic_use()
                declared = (
                    use
                    if use is not None and rng.random() < 0.5
                    else closed_or_param()
                )
            else:
                declared = concrete_field_ref()
            fields.append(
                FieldDecl(
                    name=f"f{j}",
                    reassignable=rng.random() < 0.2,
                    visibility=rng.choice(
                        (Visibility.PUBLIC, Visibility.PRIVATE)
                    ),
                    declared_type=declared,
                )
            )

        if kinds[i] is TemplateKind.ANON_CLASS:
            parents: tuple[TypeRef, ...] = (concrete_head(),)
        elif later_concrete and rng.random() < 0.4:
            parents = (TypeRef(names[rng.choice(later_concrete)], ()),)
        else:
            parents = ()

        templates.append(
            TemplateDef(
                name=name,
                kind=kinds[i],
                type_params=own_params,
                parents=parents,
                fields=tuple(fields),
            )
        )

    return build_graph(templates), assumptions


def monomorphize(graph: TemplateGraph) -> TemplateGraph:
    """Instantiate every fully applied generic use as its own template.

    Returns a graph of the original non-generic templates (their
    references rewritten to instance names) plus one concrete instance
    per distinct generic application, named ``G[arg,...]``.  Only valid
    for acyclic graphs whose generic references all carry full argument
    lists, as produced by ``make_generic_graph``.
    """

    def is_generic(head: str) -> bool:
        template = graph.templates.get(head)
        return template is not None and bool(template.type_params)

    def mangle(head: str, args: tuple[TypeRef, ...]) -> str:
        rendered = ",".join(str(a) for a in args)
        return f"{head}[{rendered}]"

    instances: dict[str, tuple[str, tuple[TypeRef, ...]]] = {}

    def rewrite(ref: TypeRef, substitution: dict[str, TypeRef]) -> TypeRef:
        if ref.head in substitution:
            assert not ref.args, "type parameters are used bare"
            return substitution[ref.head]
        args = tuple(rewrite(a, substitution) for a in ref.args)
        if is_generic(ref.head):
            name = mangle(ref.head, args)
            if name not in instances:
                instances[name] = (ref.head, args)
            return TypeRef(name, ())
        return TypeRef(ref.head, args)

    out: list[TemplateDef] = []
    for template in graph.templates.values():
        if template.type_params:
            continue
        out.append(
            TemplateDef(
                name=template.name,
                kind=template.kind,
                abstract_type_members=template.abstract_type_members,
                parents=tuple(rewrite(p, {}) for p in template.parents),
                fields=tuple(
                    FieldDecl(
                        f.name,
                        f.reassignable,
                        f.visibility,
                        rewrite(f.declared_type, {}),
                    )
                    for f in template.fields
                ),
            )
        )

    done: set[str] = set()
    while len(done) < len(instances):
        for name, (head, args) in list(instances.items()):
            if name in done:
                continue
            done.add(name)
            origin = graph.templates[head]
            substitution = dict(zip(origin.type_params, args))
            out.append(
                TemplateDef(
                    name=name,
                    kind=origin.kind,
                    parents=tuple(
                        rewrite(p, substitution) for p in origin.parents
                    ),
                    fields=tuple(
                        FieldDecl(
                            f.name,
                            f.reassignable,
                            f.visibility,
                            rewrite(f.declared_type, substitution),
                        )
                        for f in origin.fields
                    ),
                )
            )

    return build_graph(out)
