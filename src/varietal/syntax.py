"""Free-form signatures and the sorted term syntax of the free monad.

A term over a variable presheaf J is either a variable (an element of J at
some sort) or an operation symbol applied to a natural binding of its arity
into terms, together with a parameter element at the term's sort.  Terms are
interned per signature on their structure alone, so structural equality is
identity and hashing is O(1); build them only through :func:`var` and
:func:`app`.  Validity is relative to J: :meth:`Term.fits` tells whether a
term's variables lie in J and its bindings are natural along J's maps; app,
assignments and parametrized terms check entries against J with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .base import (
    Presheaf,
    PresheafMorphism,
    ResourceCeiling,
    StructureError,
    check_family,
    enumerate_families,
    identity_morphism,
    injections,
)


@dataclass(frozen=True)
class OperationSymbol:
    name: str
    arity: Presheaf
    parameter: Presheaf

    def __post_init__(self):
        if self.arity.index != self.parameter.index:
            raise StructureError(
                f"symbol {self.name}: arity and parameter over different indices")


class FreeFormSignature:
    """A finite family of operation symbols over one index category."""

    def __init__(self, name: str, symbols: Sequence[OperationSymbol]):
        symbols = tuple(symbols)
        names = [s.name for s in symbols]
        if len(set(names)) != len(names):
            raise StructureError("duplicate operation symbol names")
        if symbols:
            index = symbols[0].arity.index
            for s in symbols:
                if s.arity.index != index:
                    raise StructureError("symbols over different index categories")
            self.index = index
        else:
            self.index = None  # fixed on first use; empty signatures carry none
        self.name = name
        self.symbols = symbols
        self._by_name = {s.name: s for s in symbols}
        self._sym_index = {s.name: i for i, s in enumerate(symbols)}
        self._intern: dict = {}
        self._universes: dict = {}

    def symbol(self, name: str) -> OperationSymbol:
        try:
            return self._by_name[name]
        except KeyError:
            raise StructureError(f"unknown operation symbol {name!r}") from None

    def symbol_index(self, name: str) -> int:
        return self._sym_index[name]

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"FreeFormSignature({self.name}, {[s.name for s in self.symbols]})"


@dataclass(frozen=True)
class TraditionalSignature:
    """One parameter object per (distinct) arity object."""

    arities: tuple[Presheaf, ...]
    parameters: tuple[Presheaf, ...]

    def __post_init__(self):
        if len(self.arities) != len(self.parameters):
            raise StructureError("arity/parameter lists must align")
        for i, a in enumerate(self.arities):
            for b in self.arities[i + 1:]:
                if a == b:
                    raise StructureError("arity objects must be pairwise distinct")


@dataclass(eq=False)
class Term:
    """An interned term node; compare with ``is`` or ``==`` (same thing)."""

    sort: str
    var: int | None = None
    symbol: OperationSymbol | None = None
    binding: tuple[tuple["Term", ...], ...] | None = None
    param: int | None = None
    depth: int = 0
    # (sort, one more than the largest variable there), at any depth
    bound: tuple[tuple[str, int], ...] = ()
    # (m, x, y): the bindings at any depth need J.map(m)[x] to be y
    maps: tuple[tuple[str, int, int | None], ...] = ()

    @property
    def is_var(self) -> bool:
        return self.var is not None

    def fits(self, J: Presheaf) -> bool:
        """Are all variables in J and all bindings natural along J's maps?"""
        return (all(n <= J.size(s) for s, n in self.bound)
                and all(J.map(m)[x] == y for m, x, y in self.maps))

    def __repr__(self):
        if self.is_var:
            return f"(var {self.sort} {self.var})"
        entries = []
        for bsort, terms in zip(self.symbol.arity.index.sorts, self.binding):
            entries.extend(
                f"({bsort} {i} {t!r})" for i, t in enumerate(terms))
        return (f"(app {self.symbol.name} ({' '.join(entries)})"
                f" ({self.sort} {self.param}))")


def var(sig: FreeFormSignature, sort: str, x: int) -> Term:
    key = ("v", sort, x)
    t = sig._intern.get(key)
    if t is None:
        if sig.index is not None and sort not in sig.index.sorts:
            raise StructureError(f"unknown sort {sort!r}")
        if x < 0:
            raise StructureError("negative variable element")
        t = sig._intern[key] = Term(sort=sort, var=x, bound=((sort, x + 1),))
    return t


def app(
    sig: FreeFormSignature,
    symbol: str,
    binding: Sequence[Sequence[Term]],
    sort: str,
    param_elt: int,
    variables: Presheaf,
) -> Term:
    """Apply ``symbol`` with a natural binding of its arity into terms.

    Every call checks it against ``variables``: each child has its slot's
    sort and fits ``variables``, and the binding is natural along it.
    """
    sym = sig.symbol(symbol)
    binding = tuple(tuple(row) for row in binding)
    if sort not in sym.arity.index.sorts:
        raise StructureError(f"unknown sort {sort!r}")
    if not (0 <= param_elt < sym.parameter.size(sort)):
        raise StructureError(
            f"parameter element {param_elt} out of range for {symbol} at {sort}")
    check_family(sym.arity, binding, _fits_in(variables),
                 lambda m, t: act(sig, variables, m, t), f"binding for {symbol}")
    return _node(sig, sym, binding, sort, param_elt)


def _node(sig: FreeFormSignature, sym: OperationSymbol,
          binding: tuple[tuple[Term, ...], ...], sort: str, param: int) -> Term:
    """The interned application, built unchecked: for bindings already known
    to be natural, such as a transported term's or an enumerated family."""
    key = ("a", sym.name, sort, param,
           tuple(tuple(id(t) for t in row) for row in binding))
    t = sig._intern.get(key)
    if t is None:
        children = [u for row in binding for u in row]
        # sorted pairs: the last one of each sort holds its largest bound
        bound = tuple(dict(sorted(p for u in children for p in u.bound)).items())
        # where a variable goes along m, naturality depends on the context
        X = sym.arity
        maps = {(m, u.var, binding[X.index.sort_index(tgt)][X.map(m)[x]].var)
                for m, src, tgt in X.index.morphisms if m not in X.index.identities
                for x, u in enumerate(binding[X.index.sort_index(src)]) if u.is_var}
        t = sig._intern[key] = Term(
            sort=sort, symbol=sym, binding=binding, param=param, bound=bound,
            maps=tuple(maps.union(*(u.maps for u in children))),
            depth=1 + max((u.depth for u in children), default=0))
    return t


def _fits_in(J: Presheaf):
    """The check on each entry of a term family over J."""
    return lambda sort, t: t.sort == sort and t.fits(J)


def act(sig: FreeFormSignature, variables: Presheaf, m: str, t: Term) -> Term:
    """Transport a term of sort src(m) to sort tgt(m); bindings are untouched."""
    idx = variables.index
    if t.sort != idx.src(m):
        raise StructureError(f"act: term sort {t.sort} does not match src({m})")
    if m in idx.identities:
        return t
    tgt = idx.tgt(m)
    if t.is_var:
        return var(sig, tgt, variables.map(m)[t.var])
    return _node(sig, t.symbol, t.binding, tgt,
                 t.symbol.parameter.map(m)[t.param])


@dataclass(frozen=True, eq=False)
class Assignment:
    """A natural family from a presheaf J into terms over a presheaf J'."""

    signature: FreeFormSignature
    source: Presheaf
    context: Presheaf
    rows: tuple[tuple[Term, ...], ...]

    def __post_init__(self):
        check_family(self.source, self.rows, _fits_in(self.context),
                     lambda m, t: act(self.signature, self.context, m, t),
                     "assignment")

    def __call__(self, sort: str, x: int) -> Term:
        return self.rows[self.source.index.sort_index(sort)][x]


def var_assignment(sig: FreeFormSignature, J: Presheaf) -> Assignment:
    rows = tuple(
        tuple(var(sig, sort, x) for x in J.elements(sort))
        for sort in J.index.sorts)
    return Assignment(sig, J, J, rows)


def substitute(sig: FreeFormSignature, t: Term, phi: Assignment) -> Term:
    """Kleisli extension: replace variables by phi, keeping App structure."""
    return _substitute(sig, t, phi, {})


def _substitute(sig: FreeFormSignature, s: Term, phi: Assignment,
                memo: dict[int, Term]) -> Term:
    got = memo.get(id(s))
    if got is not None:
        return got
    if s.is_var:
        out = phi(s.sort, s.var)
    else:
        rows = tuple(tuple(_substitute(sig, u, phi, memo) for u in row)
                     for row in s.binding)
        out = app(sig, s.symbol.name, rows, s.sort, s.param, phi.context)
    memo[id(s)] = out
    return out


def compose_assignments(
    sig: FreeFormSignature, phi: Assignment, psi: Assignment
) -> Assignment:
    """Kleisli composition: apply phi, then substitute along psi."""
    rows = tuple(
        tuple(substitute(sig, t, psi) for t in row) for row in phi.rows)
    return Assignment(sig, phi.source, psi.context, rows)


@dataclass(frozen=True, eq=False)
class ParamTerm:
    """A natural family from a parameter presheaf into terms over J."""

    signature: FreeFormSignature
    arity: Presheaf
    parameter: Presheaf
    rows: tuple[tuple[Term, ...], ...]

    def __post_init__(self):
        if self.arity.index != self.parameter.index:
            raise StructureError("arity and parameter over different indices")
        check_family(self.parameter, self.rows, _fits_in(self.arity),
                     lambda m, t: act(self.signature, self.arity, m, t),
                     "parametrized term")

    def __call__(self, sort: str, c: int) -> Term:
        return self.rows[self.parameter.index.sort_index(sort)][c]


@dataclass(frozen=True, eq=False)
class Equation:
    """A parallel pair of parametrized terms with shared arity and parameter."""

    name: str
    lhs: ParamTerm
    rhs: ParamTerm

    def __post_init__(self):
        if self.lhs.arity != self.rhs.arity:
            raise StructureError(f"equation {self.name}: arity mismatch")
        if self.lhs.parameter != self.rhs.parameter:
            raise StructureError(f"equation {self.name}: parameter mismatch")
        if self.lhs.signature is not self.rhs.signature:
            raise StructureError(f"equation {self.name}: signature mismatch")

    @property
    def signature(self) -> FreeFormSignature:
        return self.lhs.signature

    @property
    def arity(self) -> Presheaf:
        return self.lhs.arity

    @property
    def parameter(self) -> Presheaf:
        return self.lhs.parameter


def standardize(
    sig: FreeFormSignature,
) -> tuple[TraditionalSignature, dict[str, PresheafMorphism]]:
    """Bundle symbols of equal arity into one parameter coproduct per arity.

    Returns the traditional signature together with the coproduct insertion
    of each symbol's parameter into its arity's bundled parameter.
    """
    groups: list[list[OperationSymbol]] = []
    for s in sig.symbols:
        group = next((g for g in groups if g[0].arity == s.arity), None)
        if group is None:
            groups.append([s])
        else:
            group.append(s)
    params: list[Presheaf] = []
    insertions: dict[str, PresheafMorphism] = {}
    for syms in groups:
        total = syms[0].parameter
        ins = [identity_morphism(total)]
        for sym in syms[1:]:
            i1, i2 = injections(total, sym.parameter)
            total = i1.target
            ins = [m.then(i1) for m in ins] + [i2]
        params.append(total)
        insertions.update((s.name, m) for s, m in zip(syms, ins))
    arities = tuple(g[0].arity for g in groups)
    return TraditionalSignature(arities, tuple(params)), insertions


def from_traditional(
    trad: TraditionalSignature, name: str = "std"
) -> FreeFormSignature:
    """One symbol per arity object, with the bundled parameter."""
    symbols = [
        OperationSymbol(f"op{i}", a, p)
        for i, (a, p) in enumerate(zip(trad.arities, trad.parameters))
    ]
    return FreeFormSignature(name, symbols)


class TermUniverse:
    """All terms of depth <= d over a variable presheaf, per sort.

    Closed under the index action; membership and per-sort listing are O(1).
    """

    def __init__(self, sig: FreeFormSignature, variables: Presheaf,
                 depth: int, by_sort: dict[str, list[Term]]):
        self.signature = sig
        self.variables = variables
        self.depth = depth
        self.by_sort = by_sort
        self._members = {id(t) for ts in by_sort.values() for t in ts}

    def __contains__(self, t: Term) -> bool:
        return id(t) in self._members

    def terms(self, sort: str) -> list[Term]:
        return self.by_sort[sort]

    def act(self, m: str, t: Term) -> Term:
        return act(self.signature, self.variables, m, t)

    @property
    def total(self) -> int:
        return len(self._members)


# the most terms one universe may hold; read at each call
MAX_TERMS = 2_000_000


def enumerate_terms(
    sig: FreeFormSignature,
    variables: Presheaf,
    depth: int,
) -> TermUniverse:
    """Exactly the terms of depth <= d, layered by depth, canonical order.

    Each universe is listed once per signature and then shared, as the terms
    in it are.  A universe of more than ``MAX_TERMS`` terms raises
    ``ResourceCeiling``.
    """
    if depth < 0:
        raise StructureError("depth must be nonnegative")
    key = (variables, depth)
    got = sig._universes.get(key)
    if got is not None:
        return got
    idx = variables.index
    by_sort: dict[str, list[Term]] = {
        sort: [var(sig, sort, x) for x in variables.elements(sort)]
        for sort in idx.sorts
    }
    seen = {id(t) for ts in by_sort.values() for t in ts}
    for _level in range(depth):
        new: dict[str, list[Term]] = {sort: [] for sort in idx.sorts}
        for sym in sig.symbols:
            families = enumerate_families(
                sym.arity,
                lambda sort, x: by_sort[sort],
                lambda m, t: act(sig, variables, m, t),
            )
            for fam in families:
                for sort in idx.sorts:
                    for c in sym.parameter.elements(sort):
                        t = _node(sig, sym, fam, sort, c)
                        if id(t) not in seen:
                            seen.add(id(t))
                            new[sort].append(t)
                            if len(seen) > MAX_TERMS:
                                raise ResourceCeiling(
                                    f"term universe reached {len(seen)} "
                                    f"terms, over the bound {MAX_TERMS}")
        for sort in idx.sorts:
            by_sort[sort].extend(new[sort])
    return sig._universes.setdefault(
        key, TermUniverse(sig, variables, depth, by_sort))


def precompose(pt: ParamTerm, x: PresheafMorphism) -> ParamTerm:
    """Reparametrize along x : G -> C; the arity is unchanged."""
    if x.target != pt.parameter:
        raise StructureError("precompose: morphism does not target the parameter")
    idx = pt.parameter.index
    rows = tuple(
        tuple(pt(sort, x(sort, g)) for g in x.source.elements(sort))
        for sort in idx.sorts)
    return ParamTerm(pt.signature, pt.arity, x.source, rows)


def precompose_equation(
    eq: Equation, x: PresheafMorphism, name: str | None = None
) -> Equation:
    return Equation(
        name if name is not None else f"{eq.name}/pre",
        precompose(eq.lhs, x),
        precompose(eq.rhs, x),
    )


def param_term_from_map(
    sig: FreeFormSignature,
    arity: Presheaf,
    parameter: Presheaf,
    fn: Callable[[str, int], Term],
) -> ParamTerm:
    rows = tuple(
        tuple(fn(sort, c) for c in parameter.elements(sort))
        for sort in parameter.index.sorts)
    return ParamTerm(sig, arity, parameter, rows)


def term_leaf_depths(t: Term) -> dict[tuple[str, int], int]:
    """Minimal remaining-depth budget per variable leaf: leaf -> max path length.

    Used to bound substitution images: substituting x by a term of depth k
    yields depth max over leaves (path + k), so the image depth allowed for x
    at total budget d is d - out[(sort, x)].
    """
    out: dict[tuple[str, int], int] = {}
    _leaf_depths(t, 0, out)
    return out


def _leaf_depths(s: Term, path: int, out: dict) -> None:
    if s.is_var:
        key = (s.sort, s.var)
        if path > out.get(key, -1):
            out[key] = path
    else:
        for row in s.binding:
            for u in row:
                _leaf_depths(u, path + 1, out)
