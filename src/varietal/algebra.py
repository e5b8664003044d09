"""Finite algebras for a free-form signature: evaluation, satisfaction,
homomorphisms, and exhaustive model enumeration.

An operation for a symbol with arity J and parameter C assigns to every
natural family h : J -> A a natural family C -> A; storing the values as
presheaf morphisms makes naturality of the operation automatic.  Tables are
laid out over the canonical hom_set order from :mod:`varietal.base`, so
every listing and count here is deterministic.
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
    """An enumeration would visit more candidates than the configured ceiling."""


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
    from .base import hom_set
    return [f for f in hom_set(A.carrier, B.carrier)
            if is_homomorphism(f, A, B)]


def are_isomorphic(A: Algebra, B: Algebra) -> bool:
    if A.carrier.sizes != B.carrier.sizes:
        return False
    from .base import hom_set
    for f in hom_set(A.carrier, B.carrier):
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


def _equation_support(eq: Equation) -> frozenset[str]:
    names: set[str] = set()

    def walk(t: Term, seen: set[int]):
        if id(t) in seen or t.is_var:
            return
        seen.add(id(t))
        names.add(t.symbol.name)
        for row in t.binding:
            for u in row:
                walk(u, seen)

    seen: set[int] = set()
    for pt in (eq.lhs, eq.rhs):
        for row in pt.rows:
            for t in row:
                walk(t, seen)
    return frozenset(names)


def _equation_cost(eq: Equation, carrier: Presheaf) -> int:
    fam = 1
    for b, n in zip(carrier.index.sorts, eq.arity.sizes):
        fam *= max(carrier.size(b), 1) ** n
    return fam * max(eq.parameter.total_size, 1)


def enumerate_algebras(
    target,
    max_sizes,
    ceiling: int = DEFAULT_CEILING,
    carrier: Presheaf | None = None,
    iso: bool = False,
) -> list[Algebra]:
    """All labeled algebras within the size bounds, optionally one carrier.

    ``target`` is a signature or a presentation (anything with ``signature``
    and ``equations``).  Equations are checked as soon as all their symbols
    have tables, with verdicts memoized per support assignment, so presenta-
    tions whose equations touch disjoint symbol sets enumerate in near-product
    time.  Raises :class:`ResourceCeiling` when any single symbol's table
    space, or the number of visited candidates, exceeds the ceiling.
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

    supports = [_equation_support(eq) for eq in equations]
    out: list[Algebra] = []
    visited = 0
    for X in carriers:
        arity_homs = {s.name: hom_list(s.arity, X) for s in sig.symbols}
        param_homs = {s.name: hom_list(s.parameter, X) for s in sig.symbols}
        for s in sig.symbols:
            space = len(param_homs[s.name]) ** len(arity_homs[s.name])
            if space > ceiling:
                raise ResourceCeiling(
                    f"table space for {s.name} on carrier {X.sizes} is {space}")
        sym_names = [s.name for s in sig.symbols]
        # Which equations become checkable at each assignment level.
        level_eqs: list[list[int]] = [[] for _ in sym_names]
        closed_eqs: list[int] = []
        for i, sup in enumerate(supports):
            if not sup:
                closed_eqs.append(i)
                continue
            level = max(sym_names.index(n) for n in sup)
            level_eqs[level].append(i)
        for eqs in level_eqs:
            eqs.sort(key=lambda i: _equation_cost(equations[i], X))
        memo: dict[tuple, bool] = {}
        partial_idx: dict[str, tuple[int, ...]] = {}

        def check(eq_i: int) -> bool:
            sup = sorted(supports[eq_i])
            key = (eq_i,) + tuple(partial_idx[n] for n in sup)
            got = memo.get(key)
            if got is None:
                algebra = Algebra(
                    _restricted_signature(sig, supports[eq_i]),
                    X,
                    {n: tuple(param_homs[n][k] for k in partial_idx[n])
                     for n in sup},
                )
                got = bool(satisfies(algebra, equations[eq_i]))
                memo[key] = got
            return got

        def rec(level: int):
            nonlocal visited
            if level == len(sym_names):
                values = {
                    n: tuple(param_homs[n][k] for k in partial_idx[n])
                    for n in sym_names}
                out.append(Algebra(sig, X, values, dict(partial_idx)))
                return
            name = sym_names[level]
            n_inputs = len(arity_homs[name])
            for table in iproduct(range(len(param_homs[name])), repeat=n_inputs):
                visited += 1
                if visited > ceiling:
                    raise ResourceCeiling(
                        f"visited more than {ceiling} candidate tables")
                partial_idx[name] = table
                if all(check(i) for i in level_eqs[level]):
                    rec(level + 1)
            partial_idx.pop(name, None)

        viable = True
        for eq_i in closed_eqs:
            # Equations whose sides are pure variables constrain nothing or
            # everything; check them once on the empty structure.
            algebra = Algebra(FreeFormSignature(sig.name + "/none", []), X, {})
            if not satisfies(algebra, equations[eq_i]):
                viable = False
                break
        if viable:
            rec(0)
    if iso:
        reduced: list[Algebra] = []
        for A in out:
            if not any(are_isomorphic(A, B) for B in reduced):
                reduced.append(A)
        out = reduced
    return out


def _restricted_signature(sig: FreeFormSignature, names: frozenset[str]) -> FreeFormSignature:
    cache = getattr(sig, "_restrictions", None)
    if cache is None:
        cache = {}
        sig._restrictions = cache
    got = cache.get(names)
    if got is None:
        got = FreeFormSignature(
            sig.name + "/" + ",".join(sorted(names)),
            [s for s in sig.symbols if s.name in names])
        cache[names] = got
    return got


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
