"""Finite presheaves over a finite index category.

Everything is finite and extensional: an index category is a composition
table, a presheaf assigns a finite set ``{0, .., n-1}`` to each sort and a
function table to each index morphism, and hom-sets are enumerated outright.
All values are immutable after construction, and index categories and
presheaves are interned on their structure, so equality is identity.

Values are validated once, at the boundary: the parser and the public
constructors check every invariant eagerly, and each natural family out of a
presheaf (a morphism, binding, assignment, parametrized term or class family)
goes through ``check_family``.  Values natural by construction are built
trusted: ``then`` composites, ``hom_set`` listings, identities, projections,
injections and Yoneda maps.  A morphism whose naturality rests on an engine
being right, such as a free algebra's unit, keeps the check.

Canonical orders are lexicographic on the underlying integer tables; every
enumeration in this module is deterministic and stable across runs.
``hom_set`` enumerates afresh on each call; ``hom_list`` lists hom(X, Y) once
per target presheaf Y and then shares that immutable listing with every
caller, so tables indexed by it agree without passing caches around.

Inside the library a hom is its ``flat_table``, elements numbered across
sorts (``Presheaf.offset``); each listing keys its positions on flat tables
once (``HomList.position``), and composites are C-level gathers over them.
``PresheafMorphism`` is the type of the public API and the parser.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, repeat
from operator import itemgetter
from typing import Callable, Iterator, Sequence


class StructureError(ValueError):
    """An invariant of a finite structure failed; the message names it."""


class ResourceCeiling(RuntimeError):
    """An enumeration went past its ceiling; the message names what it counted."""


# every IndexCategory and Presheaf alive, keyed by class and structure
_STRUCTURES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_STORING = threading.Lock()  # two threads building one structure keep one


def _interned(cls, key, **fields):
    """The one ``cls`` value with this structure ``key``.

    The first request builds it from ``fields`` and runs its ``_build``,
    which derives its tables and checks every invariant.  Only a valid value
    is stored, so an invalid structure raises on every attempt, and equal
    structures are one object: equality and hashing are identity.
    """
    value = _STRUCTURES.get((cls, key))
    if value is None:
        value = object.__new__(cls)
        value.__dict__.update(fields)
        value._build()
        with _STORING:
            value = _STRUCTURES.setdefault((cls, key), value)
    return value


@dataclass(frozen=True, eq=False, init=False)
class IndexCategory:
    """A finite category given by a full composition table.

    ``morphisms`` lists triples ``(name, source sort, target sort)``;
    ``identities`` maps each sort to the name of its identity; ``composition``
    lists ``(f, g, h)`` entries meaning "f then g is h" for every composable
    pair ``(f, g)``.  Interned on these four, with the composition as a set:
    the first-built entry order is the one kept.  Names of index categories
    belong to the files that declare them.
    """

    sorts: tuple[str, ...]
    morphisms: tuple[tuple[str, str, str], ...]
    identities: tuple[str, ...]
    composition: tuple[tuple[str, str, str], ...]

    def __new__(cls, sorts, morphisms, identities, composition):
        return _interned(
            cls, (sorts, morphisms, identities, frozenset(composition)),
            sorts=sorts, morphisms=morphisms, identities=identities,
            composition=composition)

    def _build(self):
        table = {}  # the composites, filled in as they are checked below
        self.__dict__.update(
            _ends={m: (s, t) for m, s, t in self.morphisms},
            _position={m: i for i, (m, _, _) in enumerate(self.morphisms)},
            _composite=table)
        if len(set(self.sorts)) != len(self.sorts):
            raise StructureError("duplicate sort names")
        names = [m[0] for m in self.morphisms]
        if len(set(names)) != len(names):
            raise StructureError("duplicate morphism names")
        known = set(names)
        for mname, src, tgt in self.morphisms:
            if src not in self.sorts or tgt not in self.sorts:
                raise StructureError(f"morphism {mname} uses unknown sort")
        if len(self.identities) != len(self.sorts):
            raise StructureError("need exactly one identity per sort")
        for sort, ident in zip(self.sorts, self.identities):
            if ident not in known:
                raise StructureError(f"identity {ident} is not a morphism")
            if self.src(ident) != sort or self.tgt(ident) != sort:
                raise StructureError(f"identity {ident} is not an endo on {sort}")
        for f, g, h in self.composition:
            if f not in known or g not in known or h not in known:
                raise StructureError("composition entry uses unknown morphism")
            if self.tgt(f) != self.src(g):
                raise StructureError(f"({f}, {g}) is not a composable pair")
            if (f, g) in table:
                raise StructureError(f"duplicate composition entry for ({f}, {g})")
            if self.src(h) != self.src(f) or self.tgt(h) != self.tgt(g):
                raise StructureError(f"composite of ({f}, {g}) has wrong endpoints")
            table[(f, g)] = h
        for f, _, ftgt in self.morphisms:
            for g, gsrc, _ in self.morphisms:
                if ftgt == gsrc and (f, g) not in table:
                    raise StructureError(f"missing composite for ({f}, {g})")
        for sort, ident in zip(self.sorts, self.identities):
            for f, src, tgt in self.morphisms:
                if src == sort and table[(ident, f)] != f:
                    raise StructureError(f"left unit law fails at ({ident}, {f})")
                if tgt == sort and table[(f, ident)] != f:
                    raise StructureError(f"right unit law fails at ({f}, {ident})")
        for f, _, _ in self.morphisms:
            for g, _, _ in self.morphisms:
                if (f, g) not in table:
                    continue
                for h, _, _ in self.morphisms:
                    if (g, h) not in table:
                        continue
                    if table[(table[(f, g)], h)] != table[(f, table[(g, h)])]:
                        raise StructureError(
                            f"associativity fails at ({f}, {g}, {h})")

    def sort_index(self, sort: str) -> int:
        return self.sorts.index(sort)

    def src(self, morphism: str) -> str:
        return self._ends[morphism][0]

    def tgt(self, morphism: str) -> str:
        return self._ends[morphism][1]

    def identity(self, sort: str) -> str:
        return self.identities[self.sort_index(sort)]

    def compose(self, f: str, g: str) -> str:
        """Composite "f then g"."""
        return self._composite[(f, g)]

    @property
    def is_trivial(self) -> bool:
        return len(self.sorts) == 1 and len(self.morphisms) == 1


def trivial_index() -> IndexCategory:
    """The one-object index; presheaves over it are plain finite sets."""
    return IndexCategory(
        sorts=("*",),
        morphisms=(("id", "*", "*"),),
        identities=("id",),
        composition=(("id", "id", "id"),),
    )


def parallel_pair_index() -> IndexCategory:
    """Two sorts e, v with s, t : e -> v; presheaves are directed graphs."""
    return IndexCategory(
        sorts=("v", "e"),
        morphisms=(("idv", "v", "v"), ("ide", "e", "e"), ("s", "e", "v"), ("t", "e", "v")),
        identities=("idv", "ide"),
        composition=(
            ("idv", "idv", "idv"),
            ("ide", "ide", "ide"),
            ("ide", "s", "s"),
            ("ide", "t", "t"),
            ("s", "idv", "s"),
            ("t", "idv", "t"),
        ),
    )


@dataclass(frozen=True, eq=False, init=False)
class Presheaf:
    """A functor from the index category to finite sets.

    Elements of each sort are dense integers ``0..sizes[b]-1``; ``action``
    holds one image tuple per index morphism, aligned with the index
    category's morphism order.  Interned on all three fields.
    """

    index: IndexCategory
    sizes: tuple[int, ...]
    action: tuple[tuple[int, ...], ...]

    def __new__(cls, index, sizes, action):
        return _interned(cls, (index, sizes, action),
                         index=index, sizes=sizes, action=action)

    def _build(self):
        self.__dict__["_homs_from"] = {}  # hom_list's listings into self
        if len(self.sizes) != len(self.index.sorts):
            raise StructureError("one size per sort required")
        if any(n < 0 for n in self.sizes):
            raise StructureError("negative sort size")
        if len(self.action) != len(self.index.morphisms):
            raise StructureError("one action table per index morphism required")
        for (m, src, tgt), table in zip(self.index.morphisms, self.action):
            if len(table) != self.size(src):
                raise StructureError(f"action table for {m} has wrong length")
            if any(not (0 <= y < self.size(tgt)) for y in table):
                raise StructureError(f"action table for {m} is out of range")
        for sort, ident in zip(self.index.sorts, self.index.identities):
            if self.map(ident) != tuple(range(self.size(sort))):
                raise StructureError(f"functoriality fails: {ident} is not identity")
        for f, g, h in self.index.composition:
            ftab, gtab, htab = self.map(f), self.map(g), self.map(h)
            if tuple(gtab[y] for y in ftab) != htab:
                raise StructureError(f"functoriality fails at composite ({f}, {g})")

    def size(self, sort: str) -> int:
        return self.sizes[self.index.sort_index(sort)]

    def map(self, morphism: str) -> tuple[int, ...]:
        return self.action[self.index._position[morphism]]

    def elements(self, sort: str) -> range:
        return range(self.size(sort))

    @property
    def total_size(self) -> int:
        return sum(self.sizes)

    def offset(self, sort: str) -> int:
        """The flat number of the first element of ``sort`` (``flat_table``)."""
        return sum(self.sizes[:self.index.sort_index(sort)])

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Presheaf(sizes={self.sizes})"


@dataclass(frozen=True)
class PresheafMorphism:
    """A natural family of functions between presheaves over one index."""

    source: Presheaf
    target: Presheaf
    components: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.source.index != self.target.index:
            raise StructureError("morphism between presheaves over different indices")
        check_family(self.source, self.components,
                     lambda sort, y: 0 <= y < self.target.size(sort),
                     lambda m, y: self.target.map(m)[y], "morphism")

    def __call__(self, sort: str, x: int) -> int:
        return self.components[self.source.index.sort_index(sort)][x]

    def then(self, other: "PresheafMorphism") -> "PresheafMorphism":
        if self.target != other.source:
            raise StructureError("composition of non-composable presheaf morphisms")
        return PresheafMorphism._trusted(
            self.source, other.target,
            tuple(tuple(c[y] for y in s)
                  for s, c in zip(self.components, other.components)))

    @classmethod
    def _trusted(cls, source, target, components) -> "PresheafMorphism":
        """A morphism known to be natural, built without ``__post_init__``."""
        f = object.__new__(cls)
        f.__dict__.update(source=source, target=target, components=components)
        return f


def identity_morphism(X: Presheaf) -> PresheafMorphism:
    return PresheafMorphism._trusted(
        X, X, tuple(tuple(range(n)) for n in X.sizes))


def constant_presheaf(index: IndexCategory, n: int) -> Presheaf:
    action = tuple(tuple(range(n)) for _ in index.morphisms)
    return Presheaf(index, tuple(n for _ in index.sorts), action)


def terminal(index: IndexCategory) -> Presheaf:
    return constant_presheaf(index, 1)


def empty(index: IndexCategory) -> Presheaf:
    return constant_presheaf(index, 0)


def finite_set(n: int, index: IndexCategory | None = None) -> Presheaf:
    """The n-element set as a presheaf over the trivial index."""
    return constant_presheaf(index if index is not None else trivial_index(), n)


def check_family(X: Presheaf, rows: Sequence[Sequence[object]],
                 valid: Callable[[str, object], bool],
                 act: Callable[[str, object], object], what: str) -> None:
    """Raise ``StructureError`` unless ``rows`` is a natural family out of X.

    One row per sort, one value per element of X there, each passing
    ``valid(sort, y)``; and ``act(m, row_src[x]) == row_tgt[X.map(m)[x]]``
    for every non-identity m, with ``act`` as for ``iter_families``.
    ``what`` names the family in the messages; an entry that fails ``valid``
    is out of range if it is an integer and not a term over the context
    otherwise.
    """
    idx = X.index
    if len(rows) != len(idx.sorts):
        raise StructureError(f"{what} needs one row per sort")
    for sort, row in zip(idx.sorts, rows):
        if len(row) != X.size(sort):
            raise StructureError(f"{what}: row at {sort} has wrong length")
        for x, y in enumerate(row):
            if not valid(sort, y):
                problem = ("out of range" if isinstance(y, int)
                           else "not a term over the context")
                raise StructureError(f"{what}: entry {x} at {sort} is {problem}")
    for m, src, tgt in idx.morphisms:
        if m in idx.identities:
            continue
        src_row, tgt_row = rows[idx.sort_index(src)], rows[idx.sort_index(tgt)]
        table = X.map(m)
        for x, y in enumerate(src_row):
            if act(m, y) != tgt_row[table[x]]:
                raise StructureError(
                    f"{what} is not natural at {m}, element {x}")


def enumerate_families(X: Presheaf, choices, act) -> list[tuple]:
    """All of ``iter_families``, as a list."""
    return list(iter_families(X, choices, act))


def iter_families(
    X: Presheaf,
    choices: Callable[[str, int], Sequence[object]],
    act: Callable[[str, object], object],
) -> Iterator[tuple[tuple[object, ...], ...]]:
    """The natural families from X into a finite "presheaf of values", lazily.

    ``choices(sort, x)`` lists the values that element ``x`` of X at ``sort``
    may take; it is called once per element, when the first family is asked
    for.  ``act(u, y)`` transports a value along an index morphism.
    Naturality is enforced against already-chosen elements, so enumeration
    order (sort-major, element-minor, value order as listed) is the
    canonical lexicographic one.  A caller that stops early does no work
    for the families it never asks for.
    """
    idx = X.index
    slots: list[tuple[str, int]] = []
    cuts: list[tuple[int, int]] = []  # each sort's stretch of slots
    for sort in idx.sorts:
        start = len(slots)
        slots.extend((sort, x) for x in X.elements(sort))
        cuts.append((start, len(slots)))
    pos = {slot: i for i, slot in enumerate(slots)}
    pools = [choices(sort, x) for sort, x in slots]
    # (m, i, j): act(m, chosen[i]) == chosen[j], checked at the later slot
    constraints: list[list[tuple[str, int, int]]] = [[] for _ in slots]
    for m, src, tgt in idx.morphisms:
        if m in idx.identities:
            continue
        for x in X.elements(src):
            i, j = pos[(src, x)], pos[(tgt, X.map(m)[x])]
            constraints[max(i, j)].append((m, i, j))
    if not slots:
        yield tuple(() for _ in cuts)
        return
    # depth first: each slot's iterator resumes when the search backs up to it
    last, k = len(slots) - 1, 0
    chosen: list[object] = [None] * len(slots)
    its = [iter(pools[0])] + [None] * last
    while k >= 0:
        checked = constraints[k]
        for value in its[k]:
            chosen[k] = value
            if checked and any(
                    act(m, chosen[i]) != chosen[j] for m, i, j in checked):
                continue
            if k == last:
                yield tuple([tuple(chosen[i:j]) for i, j in cuts])
            else:
                k += 1
                its[k] = iter(pools[k])
                break
        else:
            k -= 1


def hom_set(X: Presheaf, Y: Presheaf) -> list[PresheafMorphism]:
    """All presheaf morphisms X -> Y in canonical lexicographic order."""
    if X.index != Y.index:
        raise StructureError("hom_set requires a common index category")
    families = enumerate_families(
        X, lambda sort, x: range(Y.size(sort)), lambda m, y: Y.map(m)[y])
    return [PresheafMorphism._trusted(X, Y, fam) for fam in families]


class HomList(tuple):
    """A canonical hom_set listing, shared by everything that reads it."""

    @cached_property
    def position(self) -> dict[tuple[int, ...], int]:
        """Each hom's ``flat_table`` mapped to its position, in listing order."""
        return {t: i for i, t in enumerate(map(flat_table, self))}

    @cached_property
    def then_flat(self) -> Callable[[Sequence[int]], tuple[int, ...]]:
        """Takes a flat table f to every hom's ``flat_table`` followed by f,
        concatenated in listing order."""
        return gather(tuple(chain.from_iterable(self.position)))


def gather(indices: Sequence[int]) -> Callable[[Sequence], tuple]:
    """The map from a table t to ``tuple(t[i] for i in indices)``, in C."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return lambda table: tuple(map(table.__getitem__, indices))


def flat_table(f: PresheafMorphism) -> tuple[int, ...]:
    """f as one table, with source and target elements numbered across sorts:
    sort s starts at the sum of the sizes of the sorts before it.  Over one
    sort the table is f's only component."""
    comps = f.components
    if len(comps) == 1:
        return comps[0]
    offsets = accumulate(f.target.sizes[:-1], initial=0)
    return tuple([o + y for o, c in zip(offsets, comps) for y in c])


def composite_positions(homs: HomList, f: Sequence[int],
                        into: HomList) -> Iterator[int]:
    """The position in ``into`` of "g then f", for each g of ``homs`` in order.

    ``f`` is a ``flat_table``.  One C-level pass (``homs.then_flat``)
    composes f with every g at once; the images are cut into rows of g's
    width and each row is looked up in ``into.position``, so no tuple is
    built in Python per g.
    """
    if not homs:
        return iter(())
    width = homs[0].source.total_size
    images = iter(homs.then_flat(f))
    rows = zip(*[images] * width) if width else repeat((), len(homs))
    return map(into.position.__getitem__, rows)


def hom_list(X: Presheaf, Y: Presheaf) -> HomList:
    """hom(X, Y), listed once per target presheaf and then shared.

    Kept on Y itself, so it is freed with its target: a reference cycle (Y's
    ``_homs_from``, the listing, each morphism's ``target``) that only the
    cyclic collector frees, so when a listing is rebuilt follows its timing.
    """
    homs = Y._homs_from.get(X)
    if homs is None:
        homs = Y._homs_from.setdefault(X, HomList(hom_set(X, Y)))
    return homs


def copower(n: int, X: Presheaf) -> Presheaf:
    """n . X, with (i, x) encoded as i*|X(b)| + x and action on x only."""
    sizes = tuple(n * k for k in X.sizes)
    action = []
    for (m, src, tgt), table in zip(X.index.morphisms, X.action):
        ksrc, ktgt = X.size(src), X.size(tgt)
        action.append(tuple(
            (z // ksrc) * ktgt + table[z % ksrc] for z in range(n * ksrc)))
    return Presheaf(X.index, sizes, tuple(action))


def product(X: Presheaf, Y: Presheaf) -> Presheaf:
    """Pointwise product, (x, y) encoded as x*|Y(b)| + y."""
    if X.index != Y.index:
        raise StructureError("product requires a common index category")
    sizes = tuple(a * b for a, b in zip(X.sizes, Y.sizes))
    action = []
    for (m, src, tgt) in X.index.morphisms:
        xs, ys = X.size(src), Y.size(src)
        yt = Y.size(tgt)
        xtab, ytab = X.map(m), Y.map(m)
        action.append(tuple(
            xtab[z // ys] * yt + ytab[z % ys] for z in range(xs * ys)))
    return Presheaf(X.index, sizes, tuple(action))


def product_pair(X: Presheaf, Y: Presheaf, sort: str, x: int, y: int) -> int:
    return x * Y.size(sort) + y


def projections(X: Presheaf, Y: Presheaf) -> tuple[PresheafMorphism, PresheafMorphism]:
    P = product(X, Y)
    p1 = tuple(
        tuple(z // Y.size(sort) for z in P.elements(sort))
        for sort in X.index.sorts)
    p2 = tuple(
        tuple(z % Y.size(sort) for z in P.elements(sort))
        for sort in X.index.sorts)
    return (PresheafMorphism._trusted(P, X, p1),
            PresheafMorphism._trusted(P, Y, p2))


def coproduct(X: Presheaf, Y: Presheaf) -> Presheaf:
    """Pointwise disjoint union; X's elements come first at every sort."""
    if X.index != Y.index:
        raise StructureError("coproduct requires a common index category")
    sizes = tuple(a + b for a, b in zip(X.sizes, Y.sizes))
    action = []
    for (m, src, tgt) in X.index.morphisms:
        xs = X.size(src)
        xt = X.size(tgt)
        xtab, ytab = X.map(m), Y.map(m)
        action.append(tuple(
            xtab[z] if z < xs else xt + ytab[z - xs]
            for z in range(xs + Y.size(src))))
    return Presheaf(X.index, sizes, tuple(action))


def coproduct_of(summands: Sequence[Presheaf]) -> Presheaf:
    """Left-fold of binary coproducts; elements are concatenated in order."""
    if not summands:
        raise StructureError("coproduct_of needs at least one summand")
    total = summands[0]
    for X in summands[1:]:
        total = coproduct(total, X)
    return total


def injections(X: Presheaf, Y: Presheaf) -> tuple[PresheafMorphism, PresheafMorphism]:
    S = coproduct(X, Y)
    i1 = tuple(tuple(range(X.size(sort))) for sort in X.index.sorts)
    i2 = tuple(
        tuple(X.size(sort) + y for y in Y.elements(sort))
        for sort in X.index.sorts)
    return (PresheafMorphism._trusted(X, S, i1),
            PresheafMorphism._trusted(Y, S, i2))


def jointly_surjective(
    family: Sequence[PresheafMorphism], codomain: Presheaf | None = None
) -> bool:
    """True iff every element of the common codomain is hit at every sort."""
    if not family:
        return codomain is not None and codomain.total_size == 0
    cod = family[0].target
    if codomain is not None and codomain != cod:
        raise StructureError("family does not target the stated codomain")
    for f in family:
        if f.target != cod:
            raise StructureError("jointly_surjective requires a common codomain")
    for si, sort in enumerate(cod.index.sorts):
        hit = set()
        for f in family:
            hit.update(f.components[si])
        if hit != set(range(cod.size(sort))):
            return False
    return True


def representable(index: IndexCategory, sort: str) -> tuple[Presheaf, list[str]]:
    """The covariant representable at ``sort`` plus its element labels.

    Element i of sort b is the i-th index morphism sort -> b in morphism-list
    order; the returned label list is in that same flat order.
    """
    by_sort: dict[str, list[str]] = {b: [] for b in index.sorts}
    for m, src, tgt in index.morphisms:
        if src == sort:
            by_sort[tgt].append(m)
    sizes = tuple(len(by_sort[b]) for b in index.sorts)
    action = []
    for (u, src, tgt) in index.morphisms:
        table = []
        for v in by_sort[src]:
            table.append(by_sort[tgt].index(index.compose(v, u)))
        action.append(tuple(table))
    labels = [m for b in index.sorts for m in by_sort[b]]
    return Presheaf(index, sizes, tuple(action)), labels


def element_family(X: Presheaf) -> list[PresheafMorphism]:
    """The jointly surjective family of all elements of X: for x of sort s,
    the Yoneda map from the representable at s that picks out x."""
    out = []
    for sort in X.index.sorts:
        Y, _ = representable(X.index, sort)
        arrows = [[m for m, s, t in X.index.morphisms if s == sort and t == b]
                  for b in X.index.sorts]
        out += (PresheafMorphism._trusted(Y, X, tuple(
                    tuple(X.map(m)[x] for m in row) for row in arrows))
                for x in X.elements(sort))
    return out
