"""Finite algebras for a free-form signature: evaluation, satisfaction,
homomorphisms, and exhaustive model enumeration.

An operation for a symbol with arity J and parameter C assigns to every
natural family h : J -> A a natural family C -> A; storing the values as
presheaf morphisms makes naturality of the operation automatic.  Tables are
laid out over the canonical hom_set order from :mod:`varietal.base`, so
every listing and count here is deterministic.

Model enumeration sets one table cell at a time and checks each equation
instance as soon as the cells it reaches are set, after SEM (Zhang & Zhang,
1995) and Mace4 (McCune, 2003); its ceiling counts cell assignments tried.
"""

from __future__ import annotations

from itertools import product as iproduct
from typing import Sequence

from .base import (
    Presheaf,
    PresheafMorphism,
    StructureError,
    HomList,
    hom_list,
    product,
    projections,
)
from .syntax import (
    Equation,
    FreeFormSignature,
    Term,
    TermUniverse,
    app,
    enumerate_terms,
)

DEFAULT_CEILING = 10_000_000


class ResourceCeiling(RuntimeError):
    """An enumeration went past its ceiling; the message names what it counted."""


class Algebra:
    """A carrier presheaf with one operation table per signature symbol."""

    def __init__(
        self,
        signature: FreeFormSignature,
        carrier: Presheaf,
        values: dict[str, Sequence[PresheafMorphism]],
        table_indices: dict[str, tuple[int, ...]] | None = None,
    ):
        self.signature = signature
        self.carrier = carrier
        self.values = {k: tuple(v) for k, v in values.items()}
        self.table_indices = table_indices
        self._canonical_key: tuple | None = None
        # per symbol: input family components -> hom index, and the values
        self._tables: dict[str, tuple[dict, tuple[PresheafMorphism, ...]]] = {}
        for sym in signature.symbols:
            if sym.name not in self.values:
                raise StructureError(f"missing operation table for {sym.name}")
            homs = hom_list(sym.arity, carrier)
            vals = self.values[sym.name]
            if len(vals) != len(homs):
                raise StructureError(
                    f"table for {sym.name} must have one value per input family")
            for g in vals:
                if g.source != sym.parameter or g.target != carrier:
                    raise StructureError(
                        f"table value for {sym.name} has wrong endpoints")
            self._tables[sym.name] = (homs.position, vals)

    def arity_homs(self, name: str) -> HomList:
        return hom_list(self.signature.symbol(name).arity, self.carrier)

    def homs_from(self, J: Presheaf) -> HomList:
        return hom_list(J, self.carrier)

    def apply(self, name: str, rows: tuple[tuple[int, ...], ...],
              sort: str, c: int) -> int:
        """Value of the operation at the input family given by ``rows``."""
        try:
            position, vals = self._tables[name]
        except KeyError:
            raise StructureError(f"unknown operation symbol {name!r}") from None
        return vals[position[rows]](sort, c)

    def op_value(self, name: str, h: PresheafMorphism) -> PresheafMorphism:
        try:
            position, vals = self._tables[name]
        except KeyError:
            raise StructureError(f"unknown operation symbol {name!r}") from None
        return vals[position[h.components]]

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


def evaluate(A, t: Term, phi, memo: dict | None = None) -> int:
    """Interpret a term: variables via phi, applications via the tables.

    ``A`` needs ``apply(name, rows, sort, c)`` and ``phi(sort, x)``; both the
    finite :class:`Algebra` and the truncated term algebra below qualify.
    """
    if memo is None:
        memo = {}

    def go(s: Term):
        got = memo.get(id(s))
        if got is not None:
            return got
        if s.is_var:
            out = phi(s.sort, s.var)
        else:
            rows = tuple(
                tuple(go(u) for u in row) for row in s.binding)
            out = A.apply(s.symbol.name, rows, s.sort, s.param)
        memo[id(s)] = out
        return out

    return go(t)


class TruncatedTermAlgebra:
    """The free term algebra cut off at a depth bound; application is partial.

    Evaluating a term of depth within the bound against the variable
    assignment reproduces the term itself; deeper applications raise.
    """

    def __init__(self, universe: TermUniverse):
        self.universe = universe
        self.signature = universe.signature

    def apply(self, name: str, rows, sort: str, c: int) -> Term:
        t = app(self.signature, name, rows, sort, c, self.universe.variables)
        if t.depth > self.universe.depth:
            raise ResourceCeiling(
                f"application exceeds depth bound {self.universe.depth}")
        return t


def satisfies(A: Algebra, eq: Equation, witness: bool = False):
    """Check one parametrized equation against every input family.

    With ``witness=True`` returns ``None`` when satisfied, else a triple
    ``(phi, sort, c)`` exhibiting the failure.
    """
    idx = eq.parameter.index
    for phi in A.homs_from(eq.arity):
        memo_l: dict = {}
        memo_r: dict = {}
        for sort in idx.sorts:
            for c in eq.parameter.elements(sort):
                lv = evaluate(A, eq.lhs(sort, c), phi, memo_l)
                rv = evaluate(A, eq.rhs(sort, c), phi, memo_r)
                if lv != rv:
                    return (phi, sort, c) if witness else False
    return None if witness else True


def is_homomorphism(f: PresheafMorphism, A: Algebra, B: Algebra) -> bool:
    """Does f commute with every operation of the shared signature?"""
    if A.signature is not B.signature and (
            [s.name for s in A.signature.symbols]
            != [s.name for s in B.signature.symbols]):
        raise StructureError("homomorphism check requires a common signature")
    if f.source != A.carrier or f.target != B.carrier:
        raise StructureError("candidate does not map the carriers")
    for sym in A.signature.symbols:
        for h in A.arity_homs(sym.name):
            lhs = A.op_value(sym.name, h).then(f)
            rhs = B.op_value(sym.name, h.then(f))
            if lhs.components != rhs.components:
                return False
    return True


def homomorphisms(A: Algebra, B: Algebra) -> list[PresheafMorphism]:
    return [f for f in hom_list(A.carrier, B.carrier)
            if is_homomorphism(f, A, B)]


def are_isomorphic(A: Algebra, B: Algebra) -> bool:
    if A.carrier.sizes != B.carrier.sizes:
        return False
    for f in hom_list(A.carrier, B.carrier):
        if f.is_injective() and f.is_surjective() and is_homomorphism(f, A, B):
            return True
    return False


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


def _compile(t: Term, index, cells: dict) -> tuple:
    """A term over one carrier as nested tuples: a variable becomes
    ``(sort index, element)``, an application ``(input position, first cell,
    value components, sort index, parameter element, compiled binding)``."""
    si = index.sort_index(t.sort)
    if t.is_var:
        return (si, t.var)
    position, first, comps = cells[t.symbol.name]
    return (position, first, comps, si, t.param, tuple(
        tuple(_compile(u, index, cells) for u in row) for row in t.binding))


def _value(node: tuple, phi: tuple, table: list) -> int:
    """The element a compiled term denotes under the partial cell ``table``,
    or ``~cell`` for the first unassigned cell its evaluation needs."""
    if len(node) == 2:
        return phi[node[0]][node[1]]
    position, first, comps, si, c, rows = node
    key = []
    for row in rows:
        vs = []
        for u in row:
            x = phi[u[0]][u[1]] if len(u) == 2 else _value(u, phi, table)
            if x < 0:
                return x
            vs.append(x)
        key.append(tuple(vs))
    cell = first + position[tuple(key)]
    v = table[cell]
    return ~cell if v is None else comps[v][si][c]


def _propagate(insts, table: list, watch: list, moved: list) -> bool:
    """Check equation instances against the partial table; False on the first
    violation.  An instance that needs an unassigned cell joins that cell's
    watch list, and the cell is recorded in ``moved`` for undoing."""
    for inst in insts:
        lhs, rhs, phi = inst
        lv = _value(lhs, phi, table)
        rv = _value(rhs, phi, table) if lv >= 0 else lv
        if rv < 0:
            watch[~rv].append(inst)
            moved.append(~rv)
        elif lv != rv:
            return False
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
    and ``equations``).  A cell is a symbol at one input family; its value
    indexes the symbol's parameter homs.  Cells are set one at a time, those
    of symbols with fewer cells first, so constants come first.  Each
    equation instance (equation, input family, parameter element) waits on
    the first unassigned cell its evaluation needs and is checked again when
    that cell is set.  Each carrier's models are listed in lexicographic
    order of their tables, in signature order.  Raises
    :class:`ResourceCeiling` once more than ``ceiling`` cell assignments
    have been tried.
    """
    if hasattr(target, "signature"):
        sig = target.signature
        equations = list(target.equations)
    else:
        sig = target
        equations = []
    index = sig.index
    if index is None and carrier is not None:
        index = carrier.index
    if index is None:
        from .base import trivial_index
        index = trivial_index()
    if isinstance(max_sizes, int):
        max_sizes = [max_sizes] * len(index.sorts)
    carriers = [carrier] if carrier is not None else enumerate_carriers(index, max_sizes)

    out: list[Algebra] = []
    tried = 0
    for X in carriers:
        params = {s.name: hom_list(s.parameter, X) for s in sig.symbols}
        cells: dict[str, tuple] = {}
        spans: dict[str, slice] = {}
        nvals: list[int] = []
        for s in sorted(sig.symbols, key=lambda s: len(hom_list(s.arity, X))):
            inputs = hom_list(s.arity, X)
            first = len(nvals)
            cells[s.name] = (inputs.position, first,
                             [g.components for g in params[s.name]])
            spans[s.name] = slice(first, first + len(inputs))
            nvals += [len(params[s.name])] * len(inputs)
        insts = []
        for eq in equations:
            sides = [(_compile(eq.lhs(sort, c), index, cells),
                      _compile(eq.rhs(sort, c), index, cells))
                     for sort in index.sorts for c in eq.parameter.elements(sort)]
            insts += [(lhs, rhs, phi.components)
                      for phi in hom_list(eq.arity, X) for lhs, rhs in sides]
        n = len(nvals)
        table: list[int | None] = [None] * n
        # watch[k]: instances whose evaluation stopped at unassigned cell k;
        # moved[k]: the cells whose watch lists got an instance at level k
        watch: list[list[tuple]] = [[] for _ in range(n)]
        moved: list[list[int]] = [[] for _ in range(n + 1)]
        nxt = [0] * n
        found: list[tuple] = []
        k = 0 if _propagate(insts, table, watch, []) else -1
        while k >= 0:
            for cell in moved[k]:
                watch[cell].pop()
            moved[k].clear()
            if k == n:
                found.append(tuple(
                    tuple(table[spans[s.name]]) for s in sig.symbols))
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
                if _propagate(watch[k], table, watch, moved[k]):
                    k += 1
        for key in sorted(found):
            out.append(Algebra(
                sig, X,
                {s.name: tuple(params[s.name][v] for v in row)
                 for s, row in zip(sig.symbols, key)},
                {s.name: row for s, row in zip(sig.symbols, key)}))
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
    universe = enumerate_terms(A.signature, J, depth)
    homs = A.homs_from(J)
    memos = [dict() for _ in homs]
    table: dict[Term, tuple[int, ...]] = {}
    for sort in J.index.sorts:
        for t in universe.terms(sort):
            table[t] = tuple(
                evaluate(A, t, phi, memo) for phi, memo in zip(homs, memos))
    return table


def product_algebra(A: Algebra, B: Algebra) -> Algebra:
    """Componentwise product; projections are homomorphisms by construction."""
    if A.signature is not B.signature:
        raise StructureError("product of algebras over different signatures")
    P = product(A.carrier, B.carrier)
    p1, p2 = projections(A.carrier, B.carrier)
    values: dict[str, list[PresheafMorphism]] = {}
    for sym in A.signature.symbols:
        vals = []
        for h in hom_list(sym.arity, P):
            ga = A.op_value(sym.name, h.then(p1))
            gb = B.op_value(sym.name, h.then(p2))
            comps = tuple(
                tuple(
                    ga.components[si][c] * B.carrier.sizes[si]
                    + gb.components[si][c]
                    for c in range(len(ga.components[si])))
                for si in range(len(P.index.sorts)))
            vals.append(PresheafMorphism(sym.parameter, P, comps))
        values[sym.name] = vals
    return Algebra(A.signature, P, values)
