"""The on-disk text format: parsing into validated structures and printing.

Declarations are line-oriented s-expressions, resolved in order of
appearance, and every one goes through one pipeline, `parse_text`.  It reads
the declaration's kind and name and lets the kind's parser build the value
through the library constructors, so a file that parses is a file whose
invariants hold.  A ``StructureError`` from anywhere in that build reads
``file:line: invalid <kind> 'name': ...``; only then is a duplicate name
rejected and the value stored.  The printers build every node with
`sexpr.lst` and emit one declaration per line in a fixed layout, and
parse(print(w)) reproduces the workspace exactly.
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


def _entries(items, keyword) -> list[sexpr.Node]:
    """The sublists of ``items`` whose head atom is the keyword."""
    return [node for node in items
            if node.is_list and node.items and not node.items[0].is_list
            and node.items[0].value == keyword]


def _section(items, filename, keyword):
    """The one sublist whose head atom is the keyword; returns its tail."""
    found = _entries(items, keyword)
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


def _declared(table: dict, kind: str, name: str, where: str):
    """The ``kind`` declared as ``name``; ``where`` (``file:line``, or with
    a column) locates the reference in the error for an unknown name."""
    if name not in table:
        raise ParseError(f"{where}: unknown {kind} {name!r}")
    return table[name]


def _object(node, filename, ws: Workspace) -> Presheaf:
    return _declared(ws.objects, "object",
                     str(_atom(node, filename, "object name")),
                     f"{filename}:{node.line}:{node.column}")


def _labelled(groups, labels, filename, what) -> list[list[sexpr.Node]]:
    """The items after the label of each group, where the k-th group's label
    must be ``labels[k]``; a group past the labels is not checked here."""
    tails = []
    for k, group in enumerate(groups):
        items = _expect_list(group, filename, what)
        if k < len(labels) and (not items or items[0].is_list
                                or str(items[0].value) != str(labels[k])):
            raise _err(group, filename,
                       f"expected {what} labelled {labels[k]}")
        tails.append(items[1:])
    return tails


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


def _parse_index(items, name, filename, ws: Workspace, line):
    def names(keyword, what, n):
        return tuple(tuple(str(_atom(x, filename))
                           for x in _exactly(node, filename, what, n))
                     for node in _section(items, filename, keyword))

    sorts = tuple(str(_atom(n, filename))
                  for n in _section(items, filename, "sorts"))
    arrows = names("arrows", "arrow", 3)
    idents = dict(names("identities", "identity entry", 2))
    comp = names("compose", "compose entry", 3)
    for sort in sorts:
        if sort not in idents:
            raise StructureError(f"no identity for sort {sort!r}")
    return IndexCategory(sorts, arrows, tuple(idents[s] for s in sorts), comp)


def _parse_object(items, name, filename, ws: Workspace, line):
    idx = _declared(ws.indexes, "index", str(_atom(items[2], filename)),
                    f"{filename}:{line}")
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
    for node in _entries(items, "map"):
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
    return Presheaf(idx, tuple(sizes.get(s, 0) for s in idx.sorts),
                    tuple(action))


def _parse_signature(items, name, filename, ws: Workspace, line):
    idx = _declared(ws.indexes, "index", str(_atom(items[2], filename)),
                    f"{filename}:{line}")
    symbols = []
    for node in items[3:]:
        parts = _items(node, filename, "op declaration", 2)
        if str(_atom(parts[0], filename)) != "op":
            raise _err(node, filename, "expected (op ...)")
        op_name = str(_atom(parts[1], filename))
        symbols.append(OperationSymbol(
            op_name, _object(_named(parts, filename, ":arity"), filename, ws),
            _object(_named(parts, filename, ":param"), filename, ws)))
    sig = FreeFormSignature(name, symbols)
    if sig.index is None:
        sig.index = idx
    return sig


def _parse_equation(items, name, filename, ws: Workspace, line):
    sig = _declared(ws.signatures, "signature", str(_atom(items[2], filename)),
                    f"{filename}:{line}")
    arity = _object(_named(items, filename, ":arity"), filename, ws)
    param = _object(_named(items, filename, ":param"), filename, ws)
    lhs_rows = {s: {} for s in sig.index.sorts}
    rhs_rows = {s: {} for s in sig.index.sorts}
    for node in _entries(items, "pair"):
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
    return Equation(name, ParamTerm(sig, arity, param, rows_of(lhs_rows)),
                    ParamTerm(sig, arity, param, rows_of(rhs_rows)))


def _parse_presentation(items, name, filename, ws: Workspace, line):
    sig = _declared(ws.signatures, "signature", str(_atom(items[2], filename)),
                    f"{filename}:{line}")
    eqs = []
    for node in items[3:]:
        parts = _items(node, filename, "(equations ...)", 1)
        if str(_atom(parts[0], filename)) != "equations":
            raise _err(node, filename, "expected (equations ...)")
        eqs += (_declared(ws.equations, "equation", str(_atom(ref, filename)),
                          f"{filename}:{line}") for ref in parts[1:])
    return Presentation(name, sig, eqs)


def _parse_algebra(items, name, filename, ws: Workspace, line):
    sig = _declared(ws.signatures, "signature", str(_atom(items[2], filename)),
                    f"{filename}:{line}")
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
    return Algebra(sig, carrier, values)


def _parse_relmonad(items, name, filename, ws: Workspace, line):
    objects = [_object(n, filename, ws)
               for n in _section(items, filename, "objects")]
    carriers = [_object(n, filename, ws)
                for n in _section(items, filename, "carriers")]
    n = len(objects)
    if len(carriers) != n:
        raise _err(items[0], filename, "relmonad needs one carrier per object")

    def morphism(source, target, groups):
        """A morphism given as one ``(sort v ...)`` group per sort."""
        comps = tuple(_ints(values, filename, "component value")
                      for values in _labelled(groups, source.index.sorts,
                                              filename, "component"))
        return PresheafMorphism(source, target, comps)

    units: dict[tuple[int], PresheafMorphism] = {}
    for node in _entries(items, "e"):
        parts = _items(node, filename, "unit entry", 2)
        (i,) = key = _entry_key(node, parts, 1, n, units, filename)
        units[key] = morphism(objects[i], carriers[i], parts[2:])
    mult: dict[tuple[int, int], list] = {}
    for node in _entries(items, "m"):
        parts = _items(node, filename, "m entry", 3)
        i, j = key = _entry_key(node, parts, 2, n, mult, filename)
        groups = parts[3:]
        mult[key] = [morphism(carriers[i], carriers[j], comps)
                     for comps in _labelled(groups, range(len(groups)),
                                            filename, "m value")]
    unit = [units.get((i,)) for i in range(n)]
    if None in unit:
        raise _err(items[0], filename, f"relmonad {name!r} lacks unit "
                   f"entry (e {unit.index(None)} ...)")
    return RelativeMonad(name, objects, carriers, unit, mult)


def _parse_pretheory(items, name, filename, ws: Workspace, line):
    objects = [_object(n, filename, ws)
               for n in _section(items, filename, "objects")]
    identities = _ints(_section(items, filename, "identities"), filename,
                       "identity token")
    n = len(objects)
    homs, entries, tau = {}, {}, {}
    for node in _entries(items, "homs"):
        parts = _items(node, filename, "homs entry", 3)
        key = _entry_key(node, parts, 2, n, homs, filename)
        homs[key] = tuple(str(_atom(x, filename)) for x in parts[3:])
    for node in _entries(items, "compose"):
        parts = _items(node, filename, "compose entry", 4)
        entries[_entry_key(node, parts, 3, n, entries, filename)] = node
    for node in _entries(items, "tau"):
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
    return Pretheory(name, objects, homs, compose, identities, tau)


# each declaration's parser, how many items its head reads unchecked, and
# the workspace table that holds its values
_PARSERS = {
    "index": (_parse_index, 2, "indexes"),
    "object": (_parse_object, 3, "objects"),
    "signature": (_parse_signature, 3, "signatures"),
    "equation": (_parse_equation, 3, "equations"),
    "presentation": (_parse_presentation, 3, "presentations"),
    "algebra": (_parse_algebra, 4, "algebras"),
    "relmonad": (_parse_relmonad, 2, "relmonads"),
    "pretheory": (_parse_pretheory, 2, "pretheories"),
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
        kind = str(_atom(_items(form, filename, "declaration", 1)[0], filename))
        if kind not in _PARSERS:
            raise _err(form, filename, f"unknown declaration kind {kind!r}")
        parser, n, table_name = _PARSERS[kind]
        items = _items(form, filename, f"{kind} declaration", n)
        name = str(_atom(items[1], filename))
        try:
            value = parser(items, name, filename, ws, form.line)
        except StructureError as exc:
            raise ParseError(
                f"{filename}:{form.line}: invalid {kind} {name!r}: {exc}")
        table = getattr(ws, table_name)
        if name in table:
            raise ParseError(f"{filename}:{form.line}: duplicate {kind} {name!r}")
        table[name] = value
    return ws


# ---------------------------------------------------------------------------
# Printing


def index_node(name: str, idx: IndexCategory) -> sexpr.Node:
    return sexpr.lst(
        "index", name,
        sexpr.lst("sorts", *idx.sorts),
        sexpr.lst("arrows", *(sexpr.lst(*arrow) for arrow in idx.morphisms)),
        sexpr.lst("identities", *(sexpr.lst(s, m) for s, m
                                  in zip(idx.sorts, idx.identities))),
        sexpr.lst("compose", *(sexpr.lst(*entry)
                               for entry in idx.composition)))


def object_node(name: str, X: Presheaf, index_name: str) -> sexpr.Node:
    return sexpr.lst(
        "object", name, index_name,
        sexpr.lst("elems", *(sexpr.lst(s, n)
                             for s, n in zip(X.index.sorts, X.sizes))),
        *(sexpr.lst("map", m, *table)
          for (m, _, _), table in zip(X.index.morphisms, X.action)
          if m not in X.index.identities))


def signature_node(name: str, sig: FreeFormSignature, index_name: str,
                   object_names: dict[Presheaf, str]) -> sexpr.Node:
    return sexpr.lst(
        "signature", name, index_name,
        *(sexpr.lst("op", sym.name, ":arity", object_names[sym.arity],
                    ":param", object_names[sym.parameter])
          for sym in sig.symbols))


def equation_node(eq: Equation, sig_name: str,
                  object_names: dict[Presheaf, str]) -> sexpr.Node:
    idx = eq.parameter.index
    return sexpr.lst(
        "equation", eq.name, sig_name,
        ":arity", object_names[eq.arity], ":param", object_names[eq.parameter],
        *(sexpr.lst("pair", sexpr.lst(sort, c),
                    term_node(eq.lhs(sort, c), idx),
                    term_node(eq.rhs(sort, c), idx))
          for sort in idx.sorts for c in eq.parameter.elements(sort)))


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
    nodes.append(sexpr.lst("presentation", name, f"{name}.sig",
                           sexpr.lst("equations",
                                     *(eq.name for eq in P.equations))))
    return nodes


def algebra_nodes(name: str, A: Algebra, *,
                  presentation: Presentation) -> list[sexpr.Node]:
    return [object_node("carrier", A.carrier, "I"),
            sexpr.lst("algebra", name, f"{presentation.name}.sig", "carrier",
                      *(sexpr.lst("op", sym.name,
                                  *(sexpr.lst(*(v for comp in g.components
                                                for v in comp))
                                    for g in A.values[sym.name]))
                        for sym in A.signature.symbols))]


def _groups(sorts, f: PresheafMorphism) -> list[sexpr.Node]:
    """A morphism's components as one ``(sort v ...)`` group per sort."""
    return [sexpr.lst(sort, *comp) for sort, comp in zip(sorts, f.components)]


def relmonad_nodes(M: RelativeMonad, *,
                   name: str | None = None) -> list[sexpr.Node]:
    sorts = M.objects[0].index.sorts
    nodes, object_names = _preamble(M.objects[0].index,
                                    [*M.objects, *M.carriers])
    nodes.append(sexpr.lst(
        "relmonad", name or M.name,
        sexpr.lst("objects", *(object_names[X] for X in M.objects)),
        sexpr.lst("carriers", *(object_names[X] for X in M.carriers)),
        *(sexpr.lst("e", i, *_groups(sorts, e)) for i, e in enumerate(M.unit)),
        *(sexpr.lst("m", i, j, *(sexpr.lst(k, *_groups(sorts, g))
                                 for k, g in enumerate(M.mult[(i, j)])))
          for i, j in product(range(len(M.objects)), repeat=2))))
    return nodes


def pretheory_nodes(T: Pretheory, *,
                    name: str | None = None) -> list[sexpr.Node]:
    nodes, object_names = _preamble(T.objects[0].index, T.objects)
    n = len(T.objects)
    nodes.append(sexpr.lst(
        "pretheory", name or T.name,
        sexpr.lst("objects", *(object_names[X] for X in T.objects)),
        *(sexpr.lst("homs", i, j, *T.homs[(i, j)])
          for i, j in product(range(n), repeat=2)),
        sexpr.lst("identities", *T.identities),
        *(sexpr.lst("compose", i, j, k,
                    *(sexpr.lst(f, g, h)
                      for f, row in enumerate(T.compose[(i, j, k)])
                      for g, h in enumerate(row)))
          for i, j, k in product(range(n), repeat=3)),
        *(sexpr.lst("tau", i, j, *T.tau[(i, j)])
          for i, j in product(range(n), repeat=2))))
    return nodes


def render(nodes: list[sexpr.Node]) -> str:
    return "\n".join(sexpr.write(n) for n in nodes) + "\n"
