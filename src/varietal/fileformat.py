"""The on-disk text format: parsing into validated structures and printing.

Declarations are line-oriented s-expressions, resolved in order of
appearance; every structure goes through the library constructors, so a file
that parses is a file whose invariants hold.  The printer emits one
declaration per line in a fixed layout, and parse(print(w)) reproduces the
workspace exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from . import sexpr
from .base import (
    IndexCategory,
    Presheaf,
    PresheafMorphism,
    StructureError,
    hom_list,
)
from .syntax import (
    Equation,
    FreeFormSignature,
    OperationSymbol,
    ParamTerm,
    Term,
    app,
    var,
)
from .algebra import Algebra
from .presentation import Presentation
from .clones import RelativeMonad
from .pretheory import Pretheory


class ParseError(ValueError):
    pass


@dataclass
class Workspace:
    """Parsed declarations keyed by kind and name."""

    indexes: dict[str, IndexCategory] = field(default_factory=dict)
    objects: dict[str, Presheaf] = field(default_factory=dict)
    signatures: dict[str, FreeFormSignature] = field(default_factory=dict)
    equations: dict[str, Equation] = field(default_factory=dict)
    presentations: dict[str, Presentation] = field(default_factory=dict)
    algebras: dict[str, Algebra] = field(default_factory=dict)
    relmonads: dict[str, RelativeMonad] = field(default_factory=dict)
    pretheories: dict[str, Pretheory] = field(default_factory=dict)

    def _declare(self, kind: str, name: str, value, table: dict,
                 filename: str, line: int):
        if name in table:
            raise ParseError(f"{filename}:{line}: duplicate {kind} {name!r}")
        table[name] = value


def _err(node: sexpr.Node, filename: str, message: str) -> ParseError:
    return ParseError(f"{filename}:{node.line}:{node.column}: {message}")


def _expect_list(node, filename, what):
    if not node.is_list:
        raise _err(node, filename, f"expected {what}")
    return node.items


def _atom(node, filename, what="atom"):
    if node.is_list:
        raise _err(node, filename, f"expected {what}")
    return node.value


def _named(items, filename, keyword):
    for i, node in enumerate(items[:-1]):
        if not node.is_list and node.value == keyword:
            return items[i + 1]
    raise _err(items[0], filename, f"missing {keyword}")


def _section(items, filename, keyword):
    """The one sublist whose head atom is the keyword; returns its tail."""
    found = [node for node in items
             if node.is_list and node.items and not node.items[0].is_list
             and node.items[0].value == keyword]
    if not found:
        raise ParseError(f"{filename}: missing ({keyword} ...) section")
    if len(found) > 1:
        raise _err(found[1], filename, f"repeated ({keyword} ...) section")
    return found[0].items[1:]


def _items(node, filename, what, n):
    """The items of a list node that needs at least ``n`` of them."""
    items = _expect_list(node, filename, what)
    if len(items) < n:
        raise _err(node, filename, f"{what} is missing items")
    return items


def _int(node, filename, what, bound=None):
    """An integer atom; with ``bound``, one in ``0..bound-1``."""
    value = _atom(node, filename, what)
    if not isinstance(value, int):
        raise _err(node, filename, f"expected {what}")
    if bound is not None and not 0 <= value < bound:
        raise _err(node, filename, f"{what} {value} out of range")
    return value


def _ints(nodes, filename, what) -> tuple[int, ...]:
    return tuple(_int(x, filename, what) for x in nodes)


def _entry_key(node, parts, size, n, seen, filename) -> tuple[int, ...]:
    """The ``size`` object indices, each below ``n``, that key an entry such
    as ``(m i j ...)``; a key already in ``seen`` is a repeated entry."""
    key = tuple(_int(x, filename, "object index", n)
                for x in parts[1:1 + size])
    if key in seen:
        raise _err(node, filename, f"repeated ({parts[0].value} "
                   f"{' '.join(map(str, key))} ...) entry")
    return key


def _exactly(node, filename, what, n):
    """The items of a list node that needs exactly ``n`` of them."""
    items = _expect_list(node, filename, what)
    if len(items) != n:
        raise _err(node, filename, f"{what} needs {n} items")
    return items


def _object(node, filename, ws: Workspace) -> Presheaf:
    name = str(_atom(node, filename, "object name"))
    if name not in ws.objects:
        raise _err(node, filename, f"unknown object {name!r}")
    return ws.objects[name]


def parse_term(node: sexpr.Node, sig: FreeFormSignature,
               variables: Presheaf, filename: str) -> Term:
    items = _items(node, filename, "term", 1)
    head = _atom(items[0], filename)
    if head == "var":
        items = _items(node, filename, "var term", 3)
        sort = str(_atom(items[1], filename))
        if sort not in variables.index.sorts:
            raise _err(items[1], filename, f"unknown sort {sort!r}")
        elt = _int(items[2], filename, "variable element", variables.size(sort))
        return var(sig, sort, elt)
    if head == "app":
        items = _items(node, filename, "app term", 4)
        name = str(_atom(items[1], filename))
        try:
            sym = sig.symbol(name)
        except StructureError as exc:
            raise _err(items[1], filename, str(exc))
        entries = _expect_list(items[2], filename, "binding list")
        rows = {sort: {} for sort in sig.index.sorts}
        for entry in entries:
            parts = _items(entry, filename, "binding entry", 3)
            sort = str(_atom(parts[0], filename))
            if sort not in rows:
                raise _err(parts[0], filename, f"unknown sort {sort!r}")
            elt = _int(parts[1], filename, "binding element")
            rows[sort][elt] = parse_term(parts[2], sig, variables, filename)
        binding = []
        for sort in sig.index.sorts:
            want = sym.arity.size(sort)
            got = rows[sort]
            if sorted(got) != list(range(want)):
                raise _err(node, filename,
                           f"binding for {name} must cover 0..{want - 1} at {sort}")
            binding.append(tuple(got[i] for i in range(want)))
        tail = _items(items[3], filename, "parameter element", 2)
        sort = str(_atom(tail[0], filename))
        c = _int(tail[1], filename, "parameter element")
        try:
            return app(sig, name, binding, sort, c, variables)
        except StructureError as exc:
            raise _err(node, filename, str(exc))
    raise _err(node, filename, f"unknown term head {head!r}")


def term_node(t: Term, index: IndexCategory) -> sexpr.Node:
    if t.is_var:
        return sexpr.lst("var", t.sort, t.var)
    entries = []
    for sort, row in zip(index.sorts, t.binding):
        for i, sub in enumerate(row):
            entries.append(sexpr.lst(sort, i, term_node(sub, index)))
    return sexpr.lst("app", t.symbol.name, sexpr.Node(items=entries),
                     sexpr.lst(t.sort, t.param))


def _parse_index(items, filename, ws: Workspace, line):
    name = str(_atom(items[1], filename))
    sorts = tuple(str(_atom(n, filename))
                  for n in _section(items, filename, "sorts"))
    arrows = []
    for node in _section(items, filename, "arrows"):
        arrows.append(tuple(str(_atom(x, filename))
                            for x in _exactly(node, filename, "arrow", 3)))
    idents = {}
    for node in _section(items, filename, "identities"):
        sort, m = _exactly(node, filename, "identity entry", 2)
        idents[str(_atom(sort, filename))] = str(_atom(m, filename))
    comp = []
    for node in _section(items, filename, "compose"):
        comp.append(tuple(str(_atom(x, filename))
                          for x in _exactly(node, filename, "compose entry", 3)))
    try:
        idx = IndexCategory(sorts, tuple(arrows),
                            tuple(idents[s] for s in sorts), tuple(comp))
    except (StructureError, KeyError) as exc:
        raise ParseError(f"{filename}:{line}: invalid index {name!r}: {exc}")
    ws._declare("index", name, idx, ws.indexes, filename, line)


def _parse_object(items, filename, ws: Workspace, line):
    name = str(_atom(items[1], filename))
    index_name = str(_atom(items[2], filename))
    if index_name not in ws.indexes:
        raise ParseError(f"{filename}:{line}: unknown index {index_name!r}")
    idx = ws.indexes[index_name]
    sizes = {}
    for node in _section(items, filename, "elems"):
        parts = _items(node, filename, "elems entry", 2)
        sort = str(_atom(parts[0], filename))
        if sort not in idx.sorts:
            raise _err(parts[0], filename, f"unknown sort {sort!r}")
        if sort in sizes:
            raise _err(parts[0], filename, f"repeated sort {sort!r}")
        sizes[sort] = _int(parts[1], filename, "element count")
    maps = {}
    for node in items:
        if node.is_list and node.items and not node.items[0].is_list \
                and node.items[0].value == "map":
            parts = _items(node, filename, "map entry", 2)
            m = str(_atom(parts[1], filename))
            table = _ints(parts[2:], filename, "map value")
            if m not in [n for n, _, _ in idx.morphisms]:
                raise _err(parts[1], filename, f"unknown morphism {m!r}")
            if m in idx.identities:
                raise _err(parts[1], filename, f"identity {m!r} takes no map")
            if m in maps:
                raise _err(parts[1], filename, f"repeated map for {m!r}")
            maps[m] = table
    action = []
    for (m, src, tgt) in idx.morphisms:
        if m in idx.identities:
            action.append(tuple(range(sizes.get(src, 0))))
        elif m in maps:
            action.append(maps[m])
        else:
            raise ParseError(f"{filename}:{line}: object {name!r} lacks map for {m}")
    try:
        X = Presheaf(idx, tuple(sizes.get(s, 0) for s in idx.sorts),
                     tuple(action))
    except StructureError as exc:
        raise ParseError(f"{filename}:{line}: invalid object {name!r}: {exc}")
    ws._declare("object", name, X, ws.objects, filename, line)


def _parse_signature(items, filename, ws: Workspace, line):
    name = str(_atom(items[1], filename))
    index_name = str(_atom(items[2], filename))
    if index_name not in ws.indexes:
        raise ParseError(f"{filename}:{line}: unknown index {index_name!r}")
    symbols = []
    for node in items[3:]:
        parts = _items(node, filename, "op declaration", 2)
        if str(_atom(parts[0], filename)) != "op":
            raise _err(node, filename, "expected (op ...)")
        op_name = str(_atom(parts[1], filename))
        symbols.append(OperationSymbol(
            op_name, _object(_named(parts, filename, ":arity"), filename, ws),
            _object(_named(parts, filename, ":param"), filename, ws)))
    try:
        sig = FreeFormSignature(name, symbols)
        if sig.index is None:
            sig.index = ws.indexes[index_name]
    except StructureError as exc:
        raise ParseError(f"{filename}:{line}: invalid signature {name!r}: {exc}")
    ws._declare("signature", name, sig, ws.signatures, filename, line)


def _parse_equation(items, filename, ws: Workspace, line):
    name = str(_atom(items[1], filename))
    sig_name = str(_atom(items[2], filename))
    if sig_name not in ws.signatures:
        raise ParseError(f"{filename}:{line}: unknown signature {sig_name!r}")
    sig = ws.signatures[sig_name]
    arity = _object(_named(items, filename, ":arity"), filename, ws)
    param = _object(_named(items, filename, ":param"), filename, ws)
    lhs_rows = {s: {} for s in sig.index.sorts}
    rhs_rows = {s: {} for s in sig.index.sorts}
    for node in items:
        if node.is_list and node.items and not node.items[0].is_list \
                and node.items[0].value == "pair":
            try:
                parts = _items(node, filename, "pair", 4)
                where = _items(parts[1], filename, "parameter element", 2)
                sort = str(_atom(where[0], filename))
                if sort not in lhs_rows:
                    raise _err(where[0], filename, f"unknown sort {sort!r}")
                c = _int(where[1], filename, "parameter element")
                lhs_rows[sort][c] = parse_term(parts[2], sig, arity, filename)
                rhs_rows[sort][c] = parse_term(parts[3], sig, arity, filename)
            except ParseError as exc:
                raise ParseError(f"in equation {name!r}: {exc}") from None
    def rows_of(table):
        rows = []
        for sort in sig.index.sorts:
            want = param.size(sort)
            got = table[sort]
            if sorted(got) != list(range(want)):
                raise ParseError(
                    f"{filename}:{line}: equation {name!r} must give one pair "
                    f"per parameter element at {sort}")
            rows.append(tuple(got[c] for c in range(want)))
        return tuple(rows)
    try:
        eq = Equation(name,
                      ParamTerm(sig, arity, param, rows_of(lhs_rows)),
                      ParamTerm(sig, arity, param, rows_of(rhs_rows)))
    except StructureError as exc:
        raise ParseError(f"{filename}:{line}: invalid equation {name!r}: {exc}")
    ws._declare("equation", name, eq, ws.equations, filename, line)


def _parse_presentation(items, filename, ws: Workspace, line):
    name = str(_atom(items[1], filename))
    sig_name = str(_atom(items[2], filename))
    if sig_name not in ws.signatures:
        raise ParseError(f"{filename}:{line}: unknown signature {sig_name!r}")
    eqs = []
    for node in items[3:]:
        parts = _items(node, filename, "(equations ...)", 1)
        if str(_atom(parts[0], filename)) != "equations":
            raise _err(node, filename, "expected (equations ...)")
        for ref in parts[1:]:
            eq_name = str(_atom(ref, filename))
            if eq_name not in ws.equations:
                raise ParseError(
                    f"{filename}:{line}: unknown equation {eq_name!r}")
            eqs.append(ws.equations[eq_name])
    try:
        P = Presentation(name, ws.signatures[sig_name], eqs)
    except StructureError as exc:
        raise ParseError(f"{filename}:{line}: invalid presentation {name!r}: {exc}")
    ws._declare("presentation", name, P, ws.presentations, filename, line)


def _parse_algebra(items, filename, ws: Workspace, line):
    name = str(_atom(items[1], filename))
    sig_name = str(_atom(items[2], filename))
    if sig_name not in ws.signatures:
        raise ParseError(f"{filename}:{line}: unknown signature {sig_name!r}")
    sig = ws.signatures[sig_name]
    carrier = _object(items[3], filename, ws)
    values = {}
    for node in items[4:]:
        parts = _items(node, filename, "op table", 2)
        if str(_atom(parts[0], filename)) != "op":
            raise _err(node, filename, "expected (op ...)")
        op_name = str(_atom(parts[1], filename))
        if op_name in values:
            raise _err(parts[1], filename, f"repeated op table {op_name!r}")
        try:
            sym = sig.symbol(op_name)
        except StructureError as exc:
            raise _err(parts[1], filename, str(exc))
        homs = hom_list(sym.arity, carrier)
        vals = []
        groups = parts[2:]
        if len(groups) != len(homs):
            raise ParseError(
                f"{filename}:{line}: op {op_name!r} needs {len(homs)} value "
                f"groups, got {len(groups)}")
        for group in groups:
            flat = _ints(_expect_list(group, filename, "value group"),
                         filename, "table value")
            comps = []
            k = 0
            for sort in sig.index.sorts:
                m = sym.parameter.size(sort)
                comps.append(tuple(flat[k:k + m]))
                k += m
            if k != len(flat):
                raise ParseError(
                    f"{filename}:{line}: op {op_name!r} value group has "
                    f"wrong length")
            try:
                vals.append(PresheafMorphism(sym.parameter, carrier,
                                             tuple(comps)))
            except StructureError as exc:
                raise ParseError(
                    f"{filename}:{line}: op {op_name!r}: {exc}")
        values[op_name] = vals
    try:
        A = Algebra(sig, carrier, values)
    except StructureError as exc:
        raise ParseError(f"{filename}:{line}: invalid algebra {name!r}: {exc}")
    ws._declare("algebra", name, A, ws.algebras, filename, line)


def _parse_relmonad(items, filename, ws: Workspace, line):
    name = str(_atom(items[1], filename))
    objects = [_object(n, filename, ws)
               for n in _section(items, filename, "objects")]
    carriers = [_object(n, filename, ws)
                for n in _section(items, filename, "carriers")]
    n = len(objects)
    if len(carriers) != n:
        raise _err(items[0], filename, "relmonad needs one carrier per object")

    def morphism(source, target, groups):
        comps = tuple(_ints(_expect_list(g, filename, "component")[1:],
                            filename, "component value") for g in groups)
        return PresheafMorphism(source, target, comps)

    units: dict[tuple[int], PresheafMorphism] = {}
    mult: dict[tuple[int, int], list] = {}
    for node in items:
        if not (node.is_list and node.items and not node.items[0].is_list):
            continue
        head = node.items[0].value
        if head == "e":
            parts = _items(node, filename, "unit entry", 2)
            (i,) = key = _entry_key(node, parts, 1, n, units, filename)
            units[key] = morphism(objects[i], carriers[i], parts[2:])
        elif head == "m":
            parts = _items(node, filename, "m entry", 3)
            i, j = key = _entry_key(node, parts, 2, n, mult, filename)
            mult[key] = [
                morphism(carriers[i], carriers[j],
                         _expect_list(group, filename, "m value")[1:])
                for group in parts[3:]]
    unit = [units.get((i,)) for i in range(n)]
    if None in unit:
        raise _err(items[0], filename, f"relmonad {name!r} lacks unit "
                   f"entry (e {unit.index(None)} ...)")
    try:
        M = RelativeMonad(name, objects, carriers, unit, mult)
    except StructureError as exc:
        raise ParseError(f"{filename}:{line}: invalid relmonad {name!r}: {exc}")
    ws._declare("relmonad", name, M, ws.relmonads, filename, line)


def _parse_pretheory(items, filename, ws: Workspace, line):
    name = str(_atom(items[1], filename))
    objects = [_object(n, filename, ws)
               for n in _section(items, filename, "objects")]
    identities = _ints(_section(items, filename, "identities"), filename,
                       "identity token")
    n = len(objects)
    homs, entries, tau = {}, {}, {}
    for node in items:
        if not (node.is_list and node.items and not node.items[0].is_list):
            continue
        head = node.items[0].value
        if head == "homs":
            parts = _items(node, filename, "homs entry", 3)
            key = _entry_key(node, parts, 2, n, homs, filename)
            homs[key] = tuple(str(_atom(x, filename)) for x in parts[3:])
        elif head == "compose":
            parts = _items(node, filename, "compose entry", 4)
            entries[_entry_key(node, parts, 3, n, entries, filename)] = node
        elif head == "tau":
            parts = _items(node, filename, "tau entry", 3)
            key = _entry_key(node, parts, 2, n, tau, filename)
            tau[key] = _ints(parts[3:], filename, "hom token index")
    compose = {}
    for (i, j, k), node in entries.items():
        if (i, j) not in homs or (j, k) not in homs:
            continue  # Pretheory names the missing hom tokens
        # each (f g h) triple places h at entry g of row f, once
        rows = compose[(i, j, k)] = [[None] * len(homs[(j, k)])
                                     for _ in homs[(i, j)]]
        for entry in node.items[4:]:
            f, g, h = _exactly(entry, filename, "composite", 3)
            row = rows[_int(f, filename, "hom token index", len(rows))]
            g = _int(g, filename, "hom token index", len(row))
            if row[g] is not None:
                raise _err(entry, filename, "repeated composite pair")
            row[g] = _int(h, filename, "hom token index")
        if any(None in row for row in rows):
            raise _err(node, filename, "compose entry lacks a composite pair")
    try:
        T = Pretheory(name, objects, homs, compose, identities, tau)
    except StructureError as exc:
        raise ParseError(f"{filename}:{line}: invalid pretheory {name!r}: {exc}")
    ws._declare("pretheory", name, T, ws.pretheories, filename, line)


# each declaration's parser, and how many items its head reads unchecked
_PARSERS = {
    "index": (_parse_index, 2),
    "object": (_parse_object, 3),
    "signature": (_parse_signature, 3),
    "equation": (_parse_equation, 3),
    "presentation": (_parse_presentation, 3),
    "algebra": (_parse_algebra, 4),
    "relmonad": (_parse_relmonad, 2),
    "pretheory": (_parse_pretheory, 2),
}


def parse_file(path: str, ws: Workspace | None = None) -> Workspace:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_text(fh.read(), path, ws)


def parse_text(text: str, filename: str = "<text>",
               ws: Workspace | None = None) -> Workspace:
    if ws is None:
        ws = Workspace()
    try:
        forms = sexpr.parse(text)
    except sexpr.SexprError as exc:
        raise ParseError(f"{filename}: {exc}")
    for form in forms:
        head = str(_atom(_items(form, filename, "declaration", 1)[0], filename))
        if head not in _PARSERS:
            raise _err(form, filename, f"unknown declaration kind {head!r}")
        parser, n = _PARSERS[head]
        parser(_items(form, filename, f"{head} declaration", n),
               filename, ws, form.line)
    return ws


# ---------------------------------------------------------------------------
# Printing


def index_node(name: str, idx: IndexCategory) -> sexpr.Node:
    return sexpr.lst(
        "index", name,
        sexpr.Node(items=[sexpr.atom("sorts"),
                          *(sexpr.atom(s) for s in idx.sorts)]),
        sexpr.Node(items=[sexpr.atom("arrows"),
                          *(sexpr.lst(m, s, t) for m, s, t in idx.morphisms)]),
        sexpr.Node(items=[sexpr.atom("identities"),
                          *(sexpr.lst(s, m)
                            for s, m in zip(idx.sorts, idx.identities))]),
        sexpr.Node(items=[sexpr.atom("compose"),
                          *(sexpr.lst(f, g, h) for f, g, h in idx.composition)]),
    )


def object_node(name: str, X: Presheaf, index_name: str) -> sexpr.Node:
    parts = [sexpr.atom("object"), sexpr.atom(name), sexpr.atom(index_name),
             sexpr.Node(items=[sexpr.atom("elems"),
                               *(sexpr.lst(s, n)
                                 for s, n in zip(X.index.sorts, X.sizes))])]
    for (m, src, _), table in zip(X.index.morphisms, X.action):
        if m in X.index.identities:
            continue
        parts.append(sexpr.Node(items=[sexpr.atom("map"), sexpr.atom(m),
                                       *(sexpr.atom(v) for v in table)]))
    return sexpr.Node(items=parts)


def signature_node(name: str, sig: FreeFormSignature, index_name: str,
                   object_names: dict[Presheaf, str]) -> sexpr.Node:
    parts = [sexpr.atom("signature"), sexpr.atom(name), sexpr.atom(index_name)]
    for sym in sig.symbols:
        parts.append(sexpr.lst("op", sym.name,
                               ":arity", object_names[sym.arity],
                               ":param", object_names[sym.parameter]))
    return sexpr.Node(items=parts)


def equation_node(eq: Equation, sig_name: str,
                  object_names: dict[Presheaf, str]) -> sexpr.Node:
    idx = eq.parameter.index
    parts = [sexpr.atom("equation"), sexpr.atom(eq.name), sexpr.atom(sig_name),
             sexpr.atom(":arity"), sexpr.atom(object_names[eq.arity]),
             sexpr.atom(":param"), sexpr.atom(object_names[eq.parameter])]
    for sort in idx.sorts:
        for c in eq.parameter.elements(sort):
            parts.append(sexpr.lst(
                "pair", sexpr.lst(sort, c),
                term_node(eq.lhs(sort, c), idx),
                term_node(eq.rhs(sort, c), idx)))
    return sexpr.Node(items=parts)


def _preamble(idx: IndexCategory,
              objects) -> tuple[list[sexpr.Node], dict[Presheaf, str]]:
    """The declarations a printed list starts with: the index as ``I``, then
    each distinct object as ``ob0``, ``ob1``, ... in order of first use."""
    names: dict[Presheaf, str] = {}
    for X in objects:
        names.setdefault(X, f"ob{len(names)}")
    return ([index_node("I", idx),
             *(object_node(oname, X, "I") for X, oname in names.items())],
            names)


def presentation_nodes(P: Presentation) -> list[sexpr.Node]:
    """Self-contained declaration list for a presentation."""
    name = P.name
    sig = P.signature
    nodes, object_names = _preamble(sig.index, [
        X for part in (*sig.symbols, *P.equations)
        for X in (part.arity, part.parameter)])
    nodes.append(signature_node(f"{name}.sig", sig, "I", object_names))
    for eq in P.equations:
        nodes.append(equation_node(eq, f"{name}.sig", object_names))
    nodes.append(sexpr.Node(items=[
        sexpr.atom("presentation"), sexpr.atom(name), sexpr.atom(f"{name}.sig"),
        sexpr.Node(items=[sexpr.atom("equations"),
                          *(sexpr.atom(eq.name) for eq in P.equations)])]))
    return nodes


def algebra_nodes(name: str, A: Algebra, *,
                  presentation: Presentation) -> list[sexpr.Node]:
    nodes = [object_node("carrier", A.carrier, "I")]
    parts = [sexpr.atom("algebra"), sexpr.atom(name),
             sexpr.atom(f"{presentation.name}.sig"), sexpr.atom("carrier")]
    for sym in A.signature.symbols:
        groups = [sexpr.atom("op"), sexpr.atom(sym.name)]
        for g in A.values[sym.name]:
            flat = [v for comp in g.components for v in comp]
            groups.append(sexpr.Node(items=[sexpr.atom(v) for v in flat]))
        parts.append(sexpr.Node(items=groups))
    nodes.append(sexpr.Node(items=parts))
    return nodes


def relmonad_nodes(M: RelativeMonad, *,
                   name: str | None = None) -> list[sexpr.Node]:
    name = name or M.name
    idx = M.objects[0].index
    nodes, object_names = _preamble(idx, [*M.objects, *M.carriers])
    parts = [sexpr.atom("relmonad"), sexpr.atom(name),
             sexpr.Node(items=[sexpr.atom("objects"),
                               *(sexpr.atom(object_names[X]) for X in M.objects)]),
             sexpr.Node(items=[sexpr.atom("carriers"),
                               *(sexpr.atom(object_names[X]) for X in M.carriers)])]
    for i, e in enumerate(M.unit):
        groups = [sexpr.atom("e"), sexpr.atom(i)]
        for sort, comp in zip(idx.sorts, e.components):
            groups.append(sexpr.Node(items=[sexpr.atom(sort),
                                            *(sexpr.atom(v) for v in comp)]))
        parts.append(sexpr.Node(items=groups))
    for i, j in product(range(len(M.objects)), repeat=2):
        groups = [sexpr.atom("m"), sexpr.atom(i), sexpr.atom(j)]
        for gi, g in enumerate(M.mult[(i, j)]):
            comps = [sexpr.atom(gi)]
            for sort, comp in zip(idx.sorts, g.components):
                comps.append(sexpr.Node(items=[
                    sexpr.atom(sort), *(sexpr.atom(v) for v in comp)]))
            groups.append(sexpr.Node(items=comps))
        parts.append(sexpr.Node(items=groups))
    nodes.append(sexpr.Node(items=parts))
    return nodes


def pretheory_nodes(T: Pretheory, *,
                    name: str | None = None) -> list[sexpr.Node]:
    name = name or T.name
    nodes, object_names = _preamble(T.objects[0].index, T.objects)
    parts = [sexpr.atom("pretheory"), sexpr.atom(name),
             sexpr.Node(items=[sexpr.atom("objects"),
                               *(sexpr.atom(object_names[X]) for X in T.objects)])]
    n = len(T.objects)
    for i, j in product(range(n), repeat=2):
        parts.append(sexpr.Node(items=[
            sexpr.atom("homs"), sexpr.atom(i), sexpr.atom(j),
            *(sexpr.atom(t) for t in T.homs[(i, j)])]))
    parts.append(sexpr.Node(items=[sexpr.atom("identities"),
                                   *(sexpr.atom(t) for t in T.identities)]))
    for i, j, k in product(range(n), repeat=3):
        entries = [sexpr.atom("compose"), sexpr.atom(i), sexpr.atom(j),
                   sexpr.atom(k)]
        for f, row in enumerate(T.compose[(i, j, k)]):
            entries += (sexpr.lst(f, g, h) for g, h in enumerate(row))
        parts.append(sexpr.Node(items=entries))
    for i, j in product(range(n), repeat=2):
        parts.append(sexpr.Node(items=[
            sexpr.atom("tau"), sexpr.atom(i), sexpr.atom(j),
            *(sexpr.atom(t) for t in T.tau[(i, j)])]))
    nodes.append(sexpr.Node(items=parts))
    return nodes


def render(nodes: list[sexpr.Node]) -> str:
    return "\n".join(sexpr.write(n) for n in nodes) + "\n"
