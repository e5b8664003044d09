"""Finite algebras for a free-form signature: evaluation, satisfaction,
homomorphisms, and exhaustive model enumeration.

An operation for a symbol with arity J and parameter C assigns to every
natural family h : J -> A a natural family C -> A; storing the values as
presheaf morphisms makes naturality of the operation automatic.  Tables are
laid out over the canonical hom_set order from :mod:`varietal.base`, so
every listing and count here is deterministic.

Every table lives in one cell layout: a cell is one symbol at one input
family and holds an index into that symbol's choices, the parameter homs in
the model search and the algebra's own table in an :class:`Algebra`.  Homs
are flat tables (``base.flat_table``), and so are the values the evaluator
computes: an element is numbered across the carrier's sorts.  Terms,
free-algebra classes' representatives (``FreeAlgebra.rep_term``) among
them, are compiled once against a layout into integer tuples
(``_compile``) and evaluated over a complete flat list of cell values
(``_value``): ``evaluate``, ``satisfies``, ``interpretation_table`` and
``FreeAlgebra``'s ``class_values`` and ``evaluate_class`` share this one
evaluator, for term and quotient equations alike.
Model enumeration sets one cell at a time and checks each equation instance
as soon as the cells it reaches are set, after SEM (Zhang & Zhang, 1995) and
Mace4 (McCune, 2003); its ceiling counts cell assignments tried.  It does
not run ``_value``: each side pair of an equation runs as one generated
straight-line kernel (``_search_kernel``), cached by the pair's shape.  An
application whose children are all variables reads a fixed cell once the
input family is known, so an instance is that kernel with its fixed cells
and variables' flat elements as arguments; it is checked first at the level
of its highest fixed cell, from a static list, and after that only on the
watch lists of cells it reaches through table values.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import product as iproduct
from typing import TYPE_CHECKING, Sequence

from .base import (
    Presheaf,
    PresheafMorphism,
    ResourceCeiling,
    StructureError,
    HomList,
    composite_positions,
    flat_table,
    gather,
    hom_list,
    product,
    projections,
    trivial_index,
)
from .syntax import (
    Equation,
    FreeFormSignature,
    Term,
    enumerate_terms,
)

if TYPE_CHECKING:
    from .presentation import QuotientEquation

DEFAULT_CEILING = 10_000_000


def _cell_layout(sig: FreeFormSignature, X: Presheaf,
                 choices) -> tuple[dict[str, tuple], list[int]]:
    """The table cells of ``sig`` over the carrier ``X``, where a cell of
    the symbol ``s`` holds an index into ``choices(s)``.

    Gives each symbol ``(input positions, first cell, choice flat tables)``,
    symbols with fewer cells first (so constants come first), and each cell
    the number of values it can take.
    """
    cells: dict[str, tuple] = {}
    nvals: list[int] = []
    for s in sorted(sig.symbols, key=lambda s: len(hom_list(s.arity, X))):
        inputs, values = hom_list(s.arity, X), choices(s)
        cells[s.name] = (inputs.position, len(nvals),
                         [flat_table(g) for g in values])
        nvals += [len(values)] * len(inputs)
    return cells, nvals


class Algebra:
    """A carrier presheaf with one operation table per signature symbol."""

    def __init__(
        self,
        signature: FreeFormSignature,
        carrier: Presheaf,
        values: dict[str, Sequence[PresheafMorphism]],
    ):
        self.signature = signature
        self.carrier = carrier
        self.values = {k: tuple(v) for k, v in values.items()}
        self._canonical_key: tuple | None = None
        for name in self.values:
            signature.symbol(name)  # raises for a symbol the signature lacks
        for sym in signature.symbols:
            if sym.name not in self.values:
                raise StructureError(f"missing operation table for {sym.name}")
            vals = self.values[sym.name]
            if len(vals) != len(hom_list(sym.arity, carrier)):
                raise StructureError(
                    f"table for {sym.name} must have one value per input family")
            for g in vals:
                if g.source != sym.parameter or g.target != carrier:
                    raise StructureError(
                        f"table value for {sym.name} has wrong endpoints")

    @cached_property
    def _cells(self) -> tuple[dict[str, tuple], list[int]]:
        """The search's cell layout over the carrier, and the flat list of
        cell values; built on first use, so models the search lists never pay
        for it.  A symbol's choices are its own table, not every parameter
        hom (there can be far more of those), so its i-th cell holds i."""
        cells, nvals = _cell_layout(self.signature, self.carrier,
                                    lambda s: self.values[s.name])
        table = [0] * len(nvals)
        for _, first, values in cells.values():
            table[first:first + len(values)] = range(len(values))
        return cells, table

    def homs_from(self, J: Presheaf) -> HomList:
        return hom_list(J, self.carrier)

    def canonical_key(self) -> tuple:
        # carrier and tables never change after construction
        if self._canonical_key is None:
            self._canonical_key = (
                self.carrier.sizes,
                self.carrier.action,
                tuple(
                    tuple(g.components for g in self.values[sym.name])
                    for sym in self.signature.symbols
                ),
            )
        return self._canonical_key

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Algebra(carrier sizes={self.carrier.sizes})"


def _compile(t: Term, J: Presheaf, cells: dict, memo: dict):
    """A term over the context ``J`` as a flat node: a variable becomes its
    index into an input family's ``flat_table``, an application ``(input
    positions, first cell, value flat tables, flat parameter element,
    children)``, the children of all binding rows in one tuple; ``memo``
    serves one ``J`` and ``cells``, so a shared subterm compiles once."""
    if t.is_var:
        return J.offset(t.sort) + t.var
    got = memo.get(t)
    if got is None:
        try:
            position, first, values = cells[t.symbol.name]
        except KeyError:
            raise StructureError(
                f"unknown operation symbol {t.symbol.name!r}") from None
        got = memo[t] = (
            position, first, values, t.symbol.parameter.offset(t.sort) + t.param,
            tuple(_compile(u, J, cells, memo) for row in t.binding for u in row))
    return got


def _value(node, phi: tuple, table: list) -> int:
    """The flat element a compiled term denotes under the input family with
    ``flat_table`` ``phi`` and the complete list of cell values ``table``."""
    if type(node) is int:
        return phi[node]
    position, first, values, c, children = node
    key = tuple([phi[u] if type(u) is int else _value(u, phi, table)
                 for u in children])
    return values[table[first + position[key]]][c]


def evaluate(A: Algebra, t: Term, phi: PresheafMorphism) -> int:
    """Interpret a term: variables via phi, applications via the tables."""
    if not t.fits(phi.source):
        raise StructureError("evaluate: the term is not over phi's source")
    cells, table = A._cells
    return (_value(_compile(t, phi.source, cells, {}), flat_table(phi), table)
            - A.carrier.offset(t.sort))


def _compiled_sides(eq: Equation | QuotientEquation,
                    cells: dict) -> list[tuple]:
    """``(sort, c, lhs, rhs)`` per parameter element, both sides compiled
    against ``cells``: terms, or the representative terms of a
    ``QuotientEquation``'s classes."""
    memo: dict = {}
    return [(sort, c, _compile(eq.lhs(sort, c), eq.arity, cells, memo),
             _compile(eq.rhs(sort, c), eq.arity, cells, memo))
            for sort in eq.parameter.index.sorts
            for c in eq.parameter.elements(sort)]


def satisfies(A: Algebra, eq: Equation | QuotientEquation,
              witness: bool = False):
    """Check one parametrized equation against every input family.

    A ``QuotientEquation`` raises ``StructureError`` unless ``A`` models its
    base presentation.  With ``witness=True`` returns ``None`` when
    satisfied, else a triple ``(phi, sort, c)`` exhibiting the first failure,
    input families in hom order and parameter elements in sort order.
    """
    if not isinstance(eq, Equation):
        base = eq.base.presentation
        if not all(satisfies(A, e) for e in base.equations):
            raise StructureError(f"{eq.name}: not a model of {base.name}")
    cells, table = A._cells
    sides = _compiled_sides(eq, cells)
    homs = A.homs_from(eq.arity)
    for pi, phi in enumerate(homs.position):
        for sort, c, lhs, rhs in sides:
            if _value(lhs, phi, table) != _value(rhs, phi, table):
                return (homs[pi], sort, c) if witness else False
    return None if witness else True


def _preserves(A: Algebra, B: Algebra):
    """The test of a flat carrier table f for being a homomorphism A -> B:
    at each input family h, A's value then f is B's value at "h then f"."""
    if A.signature is not B.signature and (
            [s.name for s in A.signature.symbols]
            != [s.name for s in B.signature.symbols]):
        raise StructureError("homomorphism check requires a common signature")
    a_cells, b_cells = A._cells[0], B._cells[0]
    ops = [(hom_list(sym.arity, A.carrier), hom_list(sym.arity, B.carrier),
            [gather(g) for g in a_cells[sym.name][2]], b_cells[sym.name][2])
           for sym in A.signature.symbols]

    def preserves(f: tuple[int, ...]) -> bool:
        return all(g_then(f) == values[k]
                   for homs, into, g_thens, values in ops
                   for g_then, k in zip(g_thens, composite_positions(homs, f, into)))
    return preserves


def is_homomorphism(f: PresheafMorphism, A: Algebra, B: Algebra) -> bool:
    """Does f commute with every operation of the shared signature?"""
    preserves = _preserves(A, B)
    if f.source != A.carrier or f.target != B.carrier:
        raise StructureError("candidate does not map the carriers")
    return preserves(flat_table(f))


def homomorphisms(A: Algebra, B: Algebra) -> list[PresheafMorphism]:
    preserves = _preserves(A, B)
    homs = hom_list(A.carrier, B.carrier)
    return [f for f, ft in zip(homs, homs.position) if preserves(ft)]


def are_isomorphic(A: Algebra, B: Algebra) -> bool:
    if A.carrier.sizes != B.carrier.sizes:
        return False
    preserves = _preserves(A, B)
    # with equal sizes, a map injective across the sorts is a bijection
    return any(len(set(ft)) == len(ft) and preserves(ft)
               for ft in hom_list(A.carrier, B.carrier).position)


def enumerate_carriers(
    index, max_sizes: Sequence[int]
) -> list[Presheaf]:
    """All presheaves with per-sort sizes within the bounds, canonical order."""
    out = []
    for sizes in iproduct(*(range(n + 1) for n in max_sizes)):
        tables_pools = []
        for (m, src, tgt) in index.morphisms:
            if m in index.identities:
                tables_pools.append(
                    [tuple(range(sizes[index.sort_index(src)]))])
            else:
                nsrc = sizes[index.sort_index(src)]
                ntgt = sizes[index.sort_index(tgt)]
                tables_pools.append(
                    list(iproduct(range(ntgt), repeat=nsrc)))
        for action in iproduct(*tables_pools):
            try:
                out.append(Presheaf(index, tuple(sizes), tuple(action)))
            except StructureError:
                continue
    return out


def _program_step(node, steps: list, consts: list, leaves: list,
                  memo: dict) -> int:
    """Append the steps of a compiled node (``_compile``) in post-order, a
    shared subterm once, and return the node's step.

    A step is ``("a",)`` for a variable, ``("f",)`` for an application
    whose children are all variables (a fixed cell, once the input family
    is known), or ``("p", child steps)`` for any other application.  An
    application's constants go to ``consts``: its position dict and first
    cell for a ``"p"`` step, then its value column, each value table read at
    the node's parameter element.  An ``"a"`` or ``"f"`` step is a leaf, and
    ``leaves`` gets ``(position, first, variables)`` for it, with position
    None for a variable."""
    key = ~node if type(node) is int else id(node)  # ids are nonnegative
    got = memo.get(key)
    if got is None:
        if type(node) is int:
            step = ("a",)
            leaves.append((None, 0, node))
        else:
            position, first, values, c, children = node
            if all(type(u) is int for u in children):
                step = ("f",)
                leaves.append((position, first, children))
            else:
                step = ("p", tuple(_program_step(u, steps, consts, leaves, memo)
                                   for u in children))
                consts += (position, first)
            consts.append([v[c] for v in values])
        got = memo[key] = len(steps)
        steps.append(step)
    return got


def _side_program(lhs, rhs) -> tuple[tuple, list, list]:
    """One side pair's shape for ``_search_kernel``, its constants and its
    leaves (``_program_step``), the left side's steps first."""
    steps: list[tuple] = []
    consts: list = []
    leaves: list[tuple] = []
    memo: dict = {}
    left = _program_step(lhs, steps, consts, leaves, memo)
    right = _program_step(rhs, steps, consts, leaves, memo)
    return (tuple(steps), left, right), consts, leaves


@lru_cache(maxsize=1024)
def _search_kernel(shape: tuple):
    """The generated ``make`` for a side pair's shape ``(steps, left,
    right)`` (``_side_program``).  ``make(*consts)`` gives ``kernel(table,
    args)``, which runs the steps in order over the partial cell values
    ``table``; ``args`` holds each leaf's flat element or fixed cell.  The
    kernel returns the first unassigned cell it reads, None when the two
    sides agree, and -1 when they differ.

    The source (``_kernel_source``) holds integers and generated names
    only; symbol names come from user files, and every table is a bound
    constant.  Kernels are cached by shape, the 1,024 last used, so one
    serves every carrier and input family of its side pairs."""
    namespace: dict = {}
    exec(_kernel_source(shape), namespace)
    return namespace.pop("make")


def _kernel_source(shape: tuple) -> str:
    """The straight-line source of ``_search_kernel``'s ``make``."""
    steps, left, right = shape
    params: list[str] = []
    unpack: list[str] = []
    body: list[str] = []
    for i, (kind, *rest) in enumerate(steps):
        if kind == "a":
            unpack.append(f"v{i:d}")
            continue
        if kind == "f":
            unpack.append(f"c{i:d}")
        else:
            params += [f"p{i:d}", f"f{i:d}"]
            key = "".join(f"v{j:d}, " for j in rest[0])
            body.append(f"c{i:d} = f{i:d} + p{i:d}[{key}]")
        params.append(f"t{i:d}")
        body += [f"v{i:d} = table[c{i:d}]", f"if v{i:d} is None:",
                 f"    return c{i:d}", f"v{i:d} = t{i:d}[v{i:d}]"]
    body.append(f"return None if v{left:d} == v{right:d} else -1")
    return (f"def make({', '.join(params)}):\n"
            "    def kernel(table, args):\n"
            f"        {''.join(f'{name}, ' for name in unpack)}= args\n"
            + "".join(f"        {line}\n" for line in body)
            + "    return kernel\n")


def _propagate(insts, table: list, watch: list, moved: list) -> bool:
    """Run equation instances ``(kernel, args)`` over the partial table;
    False on the first violation.  An instance that stops at an unassigned
    cell, which only a table value can lead to, joins that cell's watch
    list, and the cell is recorded in ``moved`` for undoing."""
    for inst in insts:
        kernel, args = inst
        got = kernel(table, args)
        if got is not None:
            if got < 0:
                return False
            watch[got].append(inst)
            moved.append(got)
    return True


def enumerate_algebras(
    target,
    max_sizes,
    ceiling: int = DEFAULT_CEILING,
    carrier: Presheaf | None = None,
    iso: bool = False,
) -> list[Algebra]:
    """All labeled algebras within the size bounds, optionally one carrier.

    ``target`` is a signature or a presentation (anything with ``signature``
    and ``equations``).  Cells (see :func:`_cell_layout`) are set one at a
    time in layout order, so constants come first.  Each equation instance
    (equation, input family, parameter element) is its side pair's kernel
    (:func:`_search_kernel`) with the input family's leaves as arguments:
    the cells of the applications whose children are all variables, which
    are fixed, and the other variables' flat elements.  It is filed on a
    static list at the level of its highest fixed cell, or checked before
    the first assignment if it has none; when its kernel stops at a cell
    reached through a table value, it waits on that cell's watch list.
    Level k runs its static list, then its watch list, so an instance is
    checked in full at the level where the last cell it reads is set.  Each
    carrier's models are listed in lexicographic order of their tables, in
    signature order.  Raises :class:`StructureError` on a negative size bound
    and :class:`ResourceCeiling` once more than ``ceiling`` cell assignments
    have been tried.

    A ``QuotientEquation``'s class programs look up input families that are
    natural only where the base equations hold, and no guard catches a miss.
    Static lists keep equation order, term equations before quotient
    equations, and run before the watch lists.  So a base equation that
    reads one cell (an endpoint law of ``internalcat``) is on the static list
    of that cell's level and rejects a bad value of it before any class
    program reads it.
    """
    sig = getattr(target, "signature", target)
    equations = getattr(target, "equations", ())
    index = sig.index
    if index is None:
        index = carrier.index if carrier is not None else trivial_index()
    if isinstance(max_sizes, int):
        max_sizes = [max_sizes] * len(index.sorts)
    if any(n < 0 for n in max_sizes):
        raise StructureError("size bounds must be nonnegative")
    carriers = [carrier] if carrier is not None else enumerate_carriers(index, max_sizes)

    out: list[Algebra] = []
    tried = 0
    for X in carriers:
        cells, nvals = _cell_layout(sig, X, lambda s: hom_list(s.parameter, X))
        n = len(nvals)
        # static[k]: instances whose highest fixed cell is k, in equation
        # order; initial: those with no fixed cell
        static: list[list[tuple]] = [[] for _ in range(n)]
        initial: list[tuple] = []
        for eq in equations:
            programs = []
            for _, _, lhs, rhs in _compiled_sides(eq, cells):
                shape, consts, leaves = _side_program(lhs, rhs)
                programs.append((_search_kernel(shape)(*consts), leaves))
            for phi in hom_list(eq.arity, X).position:
                for kernel, leaves in programs:
                    args, level = [], -1
                    for position, first, u in leaves:
                        if position is None:
                            args.append(phi[u])
                        else:
                            cell = first + position[tuple([phi[w] for w in u])]
                            args.append(cell)
                            level = max(level, cell)
                    (static[level] if level >= 0 else initial).append(
                        (kernel, tuple(args)))
        table: list[int | None] = [None] * n
        # watch[k]: instances whose evaluation stopped at unassigned cell k;
        # moved[k]: the cells whose watch lists got an instance at level k
        watch: list[list[tuple]] = [[] for _ in range(n)]
        moved: list[list[int]] = [[] for _ in range(n + 1)]
        nxt = [0] * n
        spans = [slice(first, first + len(position))
                 for position, first, _ in (cells[s.name] for s in sig.symbols)]
        found: list[tuple] = []
        k = 0 if _propagate(initial, table, watch, []) else -1
        while k >= 0:
            for cell in moved[k]:
                watch[cell].pop()
            moved[k].clear()
            if k == n:
                found.append(tuple(tuple(table[span]) for span in spans))
                k -= 1
            elif nxt[k] == nvals[k]:
                table[k] = None
                nxt[k] = 0
                k -= 1
            else:
                table[k] = nxt[k]
                nxt[k] += 1
                tried += 1
                if tried > ceiling:
                    raise ResourceCeiling(
                        f"cell assignments tried exceeded the ceiling {ceiling}")
                if (_propagate(static[k], table, watch, moved[k])
                        and _propagate(watch[k], table, watch, moved[k])):
                    k += 1
        params = [hom_list(s.parameter, X) for s in sig.symbols]
        for key in sorted(found):
            out.append(Algebra(sig, X, {
                s.name: tuple(ps[v] for v in row)
                for s, ps, row in zip(sig.symbols, params, key)}))
    if iso:
        reduced: list[Algebra] = []
        for A in out:
            if not any(are_isomorphic(A, B) for B in reduced):
                reduced.append(A)
        out = reduced
    return out


def interpretation_table(
    A: Algebra, J: Presheaf, depth: int
) -> dict[Term, tuple[int, ...]]:
    """Rows of the truncated interpretation: term -> values over hom(J, A).

    Two terms with equal rows are exactly the pairs the algebra satisfies as
    an equation with terminal parameter.
    """
    cells, table = A._cells
    homs = list(A.homs_from(J).position)
    universe = enumerate_terms(A.signature, J, depth)
    out: dict[Term, tuple[int, ...]] = {}
    memo: dict = {}
    for sort in J.index.sorts:
        offset = A.carrier.offset(sort)
        for t in universe.terms(sort):
            node = _compile(t, J, cells, memo)
            out[t] = tuple(_value(node, phi, table) - offset for phi in homs)
    return out


def product_algebra(A: Algebra, B: Algebra) -> Algebra:
    """Componentwise product; projections are homomorphisms by construction."""
    if A.signature is not B.signature:
        raise StructureError("product of algebras over different signatures")
    P = product(A.carrier, B.carrier)
    p1, p2 = map(flat_table, projections(A.carrier, B.carrier))
    values: dict[str, list[PresheafMorphism]] = {}
    for sym in A.signature.symbols:
        vals = []
        homs = hom_list(sym.arity, P)
        for ka, kb in zip(
                composite_positions(homs, p1, hom_list(sym.arity, A.carrier)),
                composite_positions(homs, p2, hom_list(sym.arity, B.carrier))):
            ga = A.values[sym.name][ka].components
            gb = B.values[sym.name][kb].components
            comps = tuple(
                tuple(a * nb + b for a, b in zip(ra, rb))
                for ra, rb, nb in zip(ga, gb, B.carrier.sizes))
            vals.append(PresheafMorphism(sym.parameter, P, comps))
        values[sym.name] = vals
    return Algebra(A.signature, P, values)
