"""Presentations, their combinators, and depth-bounded free algebras.

The free algebra on a generator presheaf is computed as a congruence closure
over class-level application nodes (an e-graph): nodes are variables or
"symbol applied to a natural family of classes with a parameter element",
merged by equation instances, congruence, and the index action.  Growth and
equation instantiation are both bounded so that every identification is
witnessed inside the depth-d term universe; a "saturated" certificate means
every one-step application over the final classes already has a class, which
makes the truncation the genuine free algebra.

Soundness is unconditional: each union is logged with the equation instance
or the congruence/act step that forced it.

Depth, best nodes and saturation each have one home in FreeAlgebra, and so
do representative terms: the printed classes, the audit and the compiled
class programs all read a class through one best-node walk.  The e-graph's
bookkeeping follows changes (parent lists, a depth worklist, skipped no-op
rebuilds, rebuilds that skip a confirming scan no merge made necessary,
equation passes that skip the families that provably add and merge nothing),
but a rebuild that runs still scans every node once.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .base import (
    Presheaf,
    PresheafMorphism,
    ResourceCeiling,
    StructureError,
    check_family,
    coproduct_of,
    enumerate_families,
    flat_table,
    hom_list,
    iter_families,
    product,
    product_pair,
)
from .syntax import (
    Equation,
    FreeFormSignature,
    OperationSymbol,
    ParamTerm,
    Term,
    _node,
    app,
    param_term_from_map,
    term_leaf_depths,
    var,
)
from .algebra import (
    DEFAULT_CEILING, Algebra, _compile, _value, enumerate_algebras, satisfies)


class Presentation:
    """A free-form signature together with finitely many equations."""

    def __init__(self, name: str, signature: FreeFormSignature,
                 equations: Sequence[Equation]):
        self.name = name
        self.signature = signature
        self.equations = tuple(equations)
        names = [e.name for e in self.equations]
        if len(set(names)) != len(names):
            raise StructureError("duplicate equation names")
        for eq in self.equations:
            if eq.signature is not signature:
                raise StructureError(
                    f"equation {eq.name} is not over the presentation's signature")
            if signature.index is not None and eq.arity.index != signature.index:
                raise StructureError(
                    f"equation {eq.name} lives over a different index category")

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Presentation({self.name}, |S|={len(self.signature.symbols)}, |E|={len(self.equations)})"


def palg_satisfies(A: Algebra, P: Presentation) -> bool:
    return all(satisfies(A, eq) for eq in P.equations)


def _rename_terms(new_sig, rename: dict[str, str], t: Term, variables, memo):
    got = memo.get(id(t))
    if got is not None:
        return got
    if t.is_var:
        out = var(new_sig, t.sort, t.var)
    else:
        rows = tuple(
            tuple(_rename_terms(new_sig, rename, u, variables, memo) for u in row)
            for row in t.binding)
        out = app(new_sig, rename[t.symbol.name], rows, t.sort, t.param, variables)
    memo[id(t)] = out
    return out


def _transport_equation(eq: Equation, new_sig, rename, suffix: str) -> Equation:
    memo: dict = {}
    sides = []
    for pt in (eq.lhs, eq.rhs):
        rows = tuple(
            tuple(_rename_terms(new_sig, rename, t, eq.arity, memo) for t in row)
            for row in pt.rows)
        sides.append(ParamTerm(new_sig, eq.arity, eq.parameter, rows))
    return Equation(eq.name + suffix, sides[0], sides[1])


def sum_presentations(P1: Presentation, P2: Presentation,
                      name: str | None = None) -> Presentation:
    """Disjoint union of signatures (symbols tagged .1/.2), all equations kept."""
    if (P1.signature.index is not None and P2.signature.index is not None
            and P1.signature.index != P2.signature.index):
        raise StructureError("sum requires a common index category")
    symbols = (
        [OperationSymbol(s.name + ".1", s.arity, s.parameter)
         for s in P1.signature.symbols]
        + [OperationSymbol(s.name + ".2", s.arity, s.parameter)
           for s in P2.signature.symbols])
    sig = FreeFormSignature(f"{P1.name}+{P2.name}", symbols)
    if sig.index is None:
        sig.index = P1.signature.index or P2.signature.index
    r1 = {s.name: s.name + ".1" for s in P1.signature.symbols}
    r2 = {s.name: s.name + ".2" for s in P2.signature.symbols}
    equations = (
        [_transport_equation(eq, sig, r1, ".1") for eq in P1.equations]
        + [_transport_equation(eq, sig, r2, ".2") for eq in P2.equations])
    return Presentation(name or f"{P1.name}+{P2.name}", sig, equations)


def kronecker_equation(sig: FreeFormSignature, name1: str, name2: str) -> Equation:
    """The commutation equation for two symbols over a one-sort base.

    Both nestings of the two operations over the product arity and product
    parameter; the left side has the second symbol outermost, matching the
    composite that applies the first symbol inside.
    """
    s1, s2 = sig.symbol(name1), sig.symbol(name2)
    idx = s1.arity.index
    if not idx.is_trivial:
        raise StructureError("Kronecker products require the one-sort base")
    sort = idx.sorts[0]
    J1, J2, C1, C2 = s1.arity, s2.arity, s1.parameter, s2.parameter
    J = product(J1, J2)
    C = product(C1, C2)

    def lhs(b: str, c: int) -> Term:
        c1, c2 = divmod(c, C2.size(sort))
        inner = [
            app(sig, name1,
                ((tuple(var(sig, sort, product_pair(J1, J2, sort, j1, j2))
                        for j1 in J1.elements(sort))),),
                sort, c1, J)
            for j2 in J2.elements(sort)]
        return app(sig, name2, (tuple(inner),), sort, c2, J)

    def rhs(b: str, c: int) -> Term:
        c1, c2 = divmod(c, C2.size(sort))
        inner = [
            app(sig, name2,
                ((tuple(var(sig, sort, product_pair(J1, J2, sort, j1, j2))
                        for j2 in J2.elements(sort))),),
                sort, c2, J)
            for j1 in J1.elements(sort)]
        return app(sig, name1, (tuple(inner),), sort, c1, J)

    return Equation(
        f"kron[{name1},{name2}]",
        param_term_from_map(sig, J, C, lhs),
        param_term_from_map(sig, J, C, rhs),
    )


def tensor(P1: Presentation, P2: Presentation,
           name: str | None = None) -> Presentation:
    """Sum plus one commutation equation per pair of symbols."""
    S = sum_presentations(P1, P2, name=name or f"{P1.name}*{P2.name}")
    extra = [
        kronecker_equation(S.signature, s1.name + ".1", s2.name + ".2")
        for s1 in P1.signature.symbols
        for s2 in P2.signature.symbols]
    return Presentation(S.name, S.signature, list(S.equations) + extra)


def bundle_equations(P: Presentation) -> Presentation:
    """Coproduct-bundle all equations of equal arity into one equation each."""
    groups: list[tuple[Presheaf, list[Equation]]] = []
    for eq in P.equations:
        for a, eqs in groups:
            if a == eq.arity:
                eqs.append(eq)
                break
        else:
            groups.append((eq.arity, [eq]))
    bundled = []
    for i, (arity, eqs) in enumerate(groups):
        parameter = coproduct_of([e.parameter for e in eqs])
        idx = parameter.index
        lrows = tuple(
            tuple(e.lhs(sort, c) for e in eqs for c in e.parameter.elements(sort))
            for sort in idx.sorts)
        rrows = tuple(
            tuple(e.rhs(sort, c) for e in eqs for c in e.parameter.elements(sort))
            for sort in idx.sorts)
        bundled.append(Equation(
            f"bundle{i}",
            ParamTerm(P.signature, arity, parameter, lrows),
            ParamTerm(P.signature, arity, parameter, rrows)))
    return Presentation(P.name + "/bundled", P.signature, bundled)


# ---------------------------------------------------------------------------
# Free algebras by congruence closure


DEFAULT_MAX_NODES = 500_000  # node ceiling of a free algebra


@dataclass
class AuditEntry:
    kind: str                 # "eq" | "cong" | "act"
    left: int                 # node ids at merge time
    right: int
    equation: str | None = None
    phi: tuple | None = None  # class-choice rows, for "eq" entries
    morphism: str | None = None


class FreeAlgebra:
    """Depth-bounded free algebra of a presentation on a generator presheaf.

    Exposes the class presheaf, the unit (generators to classes), canonical
    representative terms, operation application at class level, and the
    saturation certificate.  ``saturated`` being False is a value, not an
    error: it means the depth budget could not certify closure.

    A node's key is ``("v", sort, x)`` for a generator, else the flat
    ``(op, *children)``: ``_op``'s id of (symbol, sort, parameter element),
    then the binding rows concatenated in sort order.  ``node_form`` gives
    the nested form that shapes, terms and the saturation witness read.

    ``_depth`` is the one depth rule (``_insert`` applies it to a new node,
    whose children are roots), ``_kernel`` the one insertion walk (of
    seeds and equation sides, compiled into a loop over families that is
    generated once per program shape), ``_equation_pass`` reruns only
    what could still add or merge something, ``_rebuild`` scans again only
    when a merge left a stored key stale, and
    ``_applications`` the one list of one-step applications, which
    ``_grow_pass`` grows over the classes shallow enough to stay within the
    depth and ``_check_saturated`` walks lazily up to the first gap;
    ``_finalize`` finds every class's best node in one scan, and
    ``_root_term`` makes it the representative term that all readers use.
    ``_union`` queues the deeper side's parents for ``_recompute_depths``,
    whose fixpoint (each class's least term depth) no queue order changes.
    ``_close`` runs equation passes to their fixpoint before each grow pass,
    so nothing grows over classes the equations could still merge; node ids
    and audits follow that order, classes and saturation do not.
    """

    def __init__(self, P: Presentation, generators: Presheaf, depth: int,
                 grow: bool = True, seeds: Sequence[Term] = (),
                 max_nodes: int = DEFAULT_MAX_NODES):
        if depth < 0:
            raise StructureError("depth must be nonnegative")
        self.presentation = P
        self.signature = P.signature
        self.generators = generators
        self.depth = depth
        self.index = generators.index
        self.max_nodes = max_nodes
        self._nodes: list[tuple] = []
        self._parent: list[int] = []
        self._hash: dict[tuple, int] = {}
        self._node_sort: list[str] = []
        self._mindepth: list[int] = []
        self._parents: list[list[int]] = []  # a class's parent nodes
        self._lowered: list[list[int]] = []  # nodes whose depth may fall
        self._unions = 0
        self._clean: tuple | None = None  # counts at the last no-op rebuild
        self._roots: tuple | None = None  # counts and class lists at them
        self.audit: list[AuditEntry] = []
        self._gen_rows = tuple(  # the variable node of each generator
            tuple(self._add_node(("v", sort, x), sort)
                  for x in generators.elements(sort))
            for sort in self.index.sorts)
        self._families_run = 0  # equation families run, over all passes
        _kernel(None, _compile_terms(generators, seeds)[0], None, None, ())(
            self, (sum(self._gen_rows, ()),), None, 0)
        self._instances = self._equation_instances()
        # each unconstrained instance's slot pools at its last pass, as sets
        self._seen_pools: list[list[set] | None] = [None] * len(
            self._instances)
        self._close(grow)
        self._finalize()

    # -- union-find ---------------------------------------------------------

    def _find(self, a: int) -> int:
        p = self._parent
        while p[a] != a:
            p[a] = p[p[a]]
            a = p[a]
        return a

    def _union(self, a: int, b: int, entry: AuditEntry | None) -> bool:
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._unions += 1
        mindepth, parents = self._mindepth, self._parents
        da, db = mindepth[ra], mindepth[rb]
        if da != db:  # the parents of the deeper side may get shallower
            self._lowered.append(parents[ra if da > db else rb])
            mindepth[ra] = min(da, db)
        parents[ra] += parents[rb]
        parents[rb] = []
        if entry is not None:
            self.audit.append(entry)
        return True

    # -- nodes ---------------------------------------------------------------

    def _canon_key(self, node: tuple) -> tuple:
        if node[0] == "v":
            return node
        find = self._find
        return (node[0], *[find(r) for r in node[1:]])

    def _add_node(self, node: tuple, sort: str) -> int:
        key = self._canon_key(node)
        got = self._hash.get(key)
        if got is not None:
            return self._find(got)
        return self._insert(key, sort)

    def _insert(self, key: tuple, sort: str) -> int:
        """Add a node under a canonical key that has none yet.  Its children
        are roots, so its depth (``_depth``) needs no find."""
        nid = len(self._nodes)
        if nid >= self.max_nodes:
            raise ResourceCeiling(
                f"free algebra exceeded {self.max_nodes} nodes")
        self._nodes.append(key)
        self._parent.append(nid)
        self._node_sort.append(sort)
        self._hash[key] = nid
        self._parents.append([])
        depth = 0
        if key[0] != "v":
            parents, mindepth = self._parents, self._mindepth
            children = set(key[1:])
            for r in children:
                parents[r].append(nid)
            depth = 1 + max([mindepth[r] for r in children], default=0)
        self._mindepth.append(depth)
        return nid

    def _depth(self, key: tuple) -> int:
        """Depth of a node: one more than its shallowest-class children."""
        if key[0] == "v":
            return 0
        find, mindepth = self._find, self._mindepth
        return 1 + max([mindepth[find(r)] for r in key[1:]], default=0)

    def node_form(self, nid: int) -> tuple:
        """Node ``nid`` as ``("v", sort, x)`` or as ``("a", symbol, sort,
        parameter element, binding rows)``."""
        key = self._nodes[nid]
        return key if key[0] == "v" else ("a", *self._split(key))

    def _split(self, key: tuple) -> tuple:
        """An application's names and its children cut into binding rows."""
        sym, sort, c = _OP_NAMES[key[0]]
        X = self.signature.symbol(sym).arity
        return sym, sort, c, tuple(
            key[1 + X.offset(s):1 + X.offset(s) + X.size(s)]
            for s in self.index.sorts)

    def class_of_term(self, t: Term) -> int | None:
        """Final class of a term, or None if it leads outside the universe."""
        if t.is_var:
            row = self._gen_rows[self.index.sort_index(t.sort)]
            return self._class_index[self._find(row[t.var])]
        rows = tuple(tuple(self.class_of_term(u) for u in row)
                     for row in t.binding)
        if any(c is None for row in rows for c in row):
            return None
        return self.apply(t.symbol.name, rows, t.sort, t.param)

    # -- closure -------------------------------------------------------------

    def _recompute_depths(self):
        """Lower mindepths to their fixpoint (each class's least term depth)
        from the nodes in ``_lowered``, then the parents of each class whose
        mindepth falls."""
        lowered, parents, nodes = self._lowered, self._parents, self._nodes
        find, mindepth = self._find, self._mindepth
        while lowered:
            for nid in lowered.pop():
                root, d = find(nid), self._depth(nodes[nid])
                if d < mindepth[root]:
                    mindepth[root] = d
                    lowered.append(parents[root])

    def _act_image(self, m: str, nid: int) -> int:
        key = self._nodes[nid]
        tgt = self.index.tgt(m)
        if key[0] == "v":
            _, sort, x = key
            row = self._gen_rows[self.index.sort_index(tgt)]
            return self._find(row[self.generators.map(m)[x]])
        sym, _, c = _OP_NAMES[key[0]]
        c = self.signature.symbol(sym).parameter.map(m)[c]
        return self._find(self._add_node((_op(sym, tgt, c), *key[1:]), tgt))

    def _act_memo(self):
        """``_act_image`` cached for one family search: nothing merges
        during a listing, so a repeated call would give the same class."""
        return functools.cache(self._act_image)

    def _rebuild(self) -> bool:
        """Congruence and act closure to a local fixpoint; True if changed.
        Returns at once when nothing was added or merged since the last
        rebuild that found nothing to do.

        A scan keys every node by its children's roots.  A scan that merged
        needs no confirming scan when no union absorbed a root with a
        parent node keyed earlier in the scan, and the act step then added
        and merged nothing: every key it stored is still canonical, so
        another scan would store the same keys and merge nothing."""
        if self._clean == (len(self._nodes), self._unions):
            return False
        nodes, parents, find = self._nodes, self._parents, self._find
        arrows = [(m, msrc) for m, msrc, _ in self.index.morphisms
                  if m not in self.index.identities]
        any_change = False
        while True:
            self._recompute_depths()
            start, stale = self._unions, False
            fresh: dict[tuple, int] = {}
            for nid in range(len(nodes)):
                key = self._canon_key(nodes[nid])
                other = fresh.get(key)
                if other is None:
                    fresh[key] = nid
                    continue
                if not stale:  # the absorbed root's parents, before the union
                    ra, rb = find(other), find(nid)
                    stale = ra != rb and min(
                        parents[max(ra, rb)], default=nid) < nid
                self._union(other, nid, AuditEntry("cong", other, nid))
            self._hash = fresh
            size, scanned = len(nodes), self._unions
            classes: dict[int, list[int]] = {}
            if arrows:  # only the act step reads the classes
                for nid in range(size):
                    classes.setdefault(find(nid), []).append(nid)
            for m, msrc in arrows:
                for root, members in list(classes.items()):
                    if self._node_sort[root] != msrc:
                        continue
                    images = [self._act_image(m, nid) for nid in members
                              if self._node_sort[nid] == msrc]
                    for other in images[1:]:
                        self._union(images[0], other, AuditEntry(
                            "act", images[0], other, morphism=m))
            if self._unions == start:
                if len(nodes) == size:
                    self._clean = (size, self._unions)
                return any_change
            any_change = True
            if not stale and self._unions == scanned and len(nodes) == size:
                self._recompute_depths()  # all a confirming scan would do
                self._clean = (size, self._unions)
                return True

    def _class_lists(self) -> dict[str, list[int]]:
        """Each sort's roots in id order (a root is its class's least id),
        as fresh lists; the scan reruns only after an insert or a union."""
        counts = (len(self._parent), self._unions)
        if self._roots is None or self._roots[0] != counts:
            roots: dict[str, list[int]] = {s: [] for s in self.index.sorts}
            for nid, p in enumerate(self._parent):
                if p == nid:
                    roots[self._node_sort[nid]].append(nid)
            self._roots = counts, roots
        return {s: list(r) for s, r in self._roots[1].items()}

    def _class_pools(self, wanted) -> dict:
        """Each wanted ``(sort, limit)``'s current classes of mindepth at
        most ``limit``, in class-list order; a family search lists each
        element's pool from it."""
        roots, mindepth = self._class_lists(), self._mindepth
        return {(sort, b): [r for r in roots[sort] if mindepth[r] <= b]
                for sort, b in wanted}

    def _equation_instances(self) -> list[tuple]:
        """Each equation instance whose sides fit the depth, compiled once:
        its arity, each arity element's ``(sort, class-depth budget)`` (the
        least over its leaves), whether it is unconstrained (no non-identity
        index arrow acts on an element of the arity, so its families are a
        plain product of pools), and the ``_kernel`` that runs its sides
        over families."""
        idx = self.index
        sources = {src for m, src, _ in idx.morphisms
                   if m not in idx.identities}
        out = []
        for eq in self.presentation.equations:
            X = eq.arity
            cuts = tuple((X.offset(s), X.offset(s) + X.size(s))
                         for s in idx.sorts)
            unconstrained = not any(X.size(s) for s in sources)
            for sort in idx.sorts:
                for c in eq.parameter.elements(sort):
                    lt, rt = eq.lhs(sort, c), eq.rhs(sort, c)
                    if max(lt.depth, rt.depth) > self.depth:
                        continue
                    budgets: dict[tuple[str, int], int] = {}
                    for t in (lt, rt):  # no leaf lies deeper than its term
                        for leaf, path in term_leaf_depths(t).items():
                            b = self.depth - path
                            budgets[leaf] = min(b, budgets.get(leaf, b))
                    slots = tuple((s, budgets.get((s, x), self.depth))
                                  for s in idx.sorts for x in X.elements(s))
                    steps, (left, right) = _compile_terms(X, (lt, rt))
                    out.append((X, slots, unconstrained, _kernel(
                        eq.name, steps, left, right, cuts)))
        return out

    def _equation_pass(self) -> bool:
        """Run every equation instance over its families of classes and
        merge the two sides of each.

        A pass starts right after a rebuild, so until its first merge every
        hash key is canonical.  Until then it skips, for an unconstrained
        instance, each family whose classes all sat in their slots' pools
        at the previous pass, and the whole instance when no pool has a new
        class.  Such a family is a tuple of roots (a root stays a root while
        it exists) that already ran, so its nodes exist under canonical
        keys and its sides are merged: a rerun would add and merge nothing.
        From the pass's first merge on, and for instances whose arity has
        naturality constraints, every family runs."""
        start = self._unions
        seen_pools = self._seen_pools
        for k, (X, slots, unconstrained, kernel) in enumerate(
                self._instances):
            pools = self._class_pools(set(slots))
            seen = None
            if unconstrained:
                sets = {key: set(pool) for key, pool in pools.items()}
                seen, seen_pools[k] = seen_pools[k], [sets[s] for s in slots]
                if seen is not None and self._unions == start and all(
                        map(set.issuperset, seen, seen_pools[k])):
                    continue
                families = itertools.product(*[pools[s] for s in slots])
            else:
                families = [sum(rows, ()) for rows in enumerate_families(
                    X, lambda s, x: pools[slots[X.offset(s) + x]],
                    self._act_memo())]
            self._families_run += kernel(self, families, seen, start)
        return self._unions != start

    def _applications(self, limit: float, listing):
        """The one-step applications over the classes of mindepth at most
        ``limit``: for each natural family, as ``listing`` gives them, the
        node keys at every parameter element.  Each symbol's families are
        listed when the walk reaches it; callers merge nothing meanwhile, so
        a family's classes are roots and the family is a binding as is."""
        for sym in self.signature.symbols:
            ops = [_op(sym.name, sort, c) for sort in self.index.sorts
                   for c in sym.parameter.elements(sort)]
            pools = self._class_pools([(s, limit) for s in self.index.sorts])
            for fam in listing(sym.arity, lambda s, x: pools[s, limit],
                               self._act_memo()):
                children = sum(fam, ())
                yield [(op, *children) for op in ops]

    def _grow_pass(self) -> bool:
        """Add the one-step applications of depth at most ``depth``."""
        if self.depth == 0:
            return False
        before = len(self._nodes)
        for keys in self._applications(self.depth - 1, enumerate_families):
            for key in keys:
                self._add_node(key, _OP_NAMES[key[0]][1])
        return len(self._nodes) > before

    def _close(self, grow: bool):
        self._rebuild()
        while True:
            while self._equation_pass() | self._rebuild():
                pass
            if not (grow and self._grow_pass() | self._rebuild()):
                return

    # -- finalization ---------------------------------------------------------

    def _node_term(self, nid: int) -> Term:
        """Node ``nid`` with its children's representatives, interned unchecked:
        over a nontrivial index a class can lack a term that fits."""
        key = self.node_form(nid)
        if key[0] == "v":
            return var(self.signature, key[1], key[2])
        _, sym, sort, c, binding = key
        return _node(self.signature, self.signature.symbol(sym), tuple(
            tuple(self._root_term(self._find(r)) for r in row)
            for row in binding), sort, c)

    def _root_term(self, root: int) -> Term:
        got = self._terms.get(root)
        if got is None:
            got = self._terms[root] = self._node_term(self._best[root])
        return got

    def _finalize(self):
        """Best nodes (lowest id among a class's shallowest) in one scan, then
        classes ordered by depth and best-node structure.  Classes can lack
        an honest term representative over a nontrivial index, so the order
        works on node structure; a best node's children are shallower, so
        their shapes come first.
        """
        self._recompute_depths()
        self._best: dict[int, int] = {}
        self._terms: dict[int, Term] = {}  # each root's representative
        for nid, key in enumerate(self._nodes):
            root = self._find(nid)
            if root not in self._best and self._depth(key) == self._mindepth[root]:
                self._best[root] = nid
        shape: dict[int, tuple] = {}
        for root in sorted(self._best, key=self._mindepth.__getitem__):
            key = self.node_form(self._best[root])
            shape[root] = (0, key[1], key[2]) if key[0] == "v" else (
                1, self.signature.symbol_index(key[1]), key[2], key[3],
                tuple(tuple(shape[self._find(r)] for r in row) for row in key[4]))
        order = self._class_lists()
        for sort in self.index.sorts:
            order[sort].sort(key=lambda r: (self._mindepth[r], shape[r]))
        self._class_index: dict[int, int] = {}
        self._roots_by_sort = order
        for sort in self.index.sorts:
            for i, r in enumerate(order[sort]):
                self._class_index[r] = i
        sizes = tuple(len(order[s]) for s in self.index.sorts)
        action = []
        for m, msrc, mtgt in self.index.morphisms:
            table = [
                self._class_index[self._find(self._act_image(m, r))]
                for r in order[msrc]]
            action.append(tuple(table))
        self.classes = Presheaf(self.index, sizes, tuple(action))
        self.saturated, self.saturation_witness = self._check_saturated()

    def _check_saturated(self) -> tuple[bool, tuple | None]:
        for keys in self._applications(math.inf, iter_families):
            for key in keys:
                if key not in self._hash:
                    sym, sort, c, binding = self._split(key)
                    return False, (sym, binding, sort, c)
        return True, None

    # -- public surface --------------------------------------------------------

    def class_count(self, sort: str | None = None) -> int:
        if sort is None:
            return sum(self.classes.sizes)
        return self.classes.size(sort)

    def rep_term(self, sort: str, i: int) -> Term:
        """Class ``i`` of ``sort``'s best node, each child replaced by its
        class's representative term (see ``_node_term``)."""
        return self._root_term(self._roots_by_sort[sort][i])

    def rep_text(self, sort: str, i: int) -> str:
        """Printable canonical representative (class-level, always defined)."""
        return repr(self.rep_term(sort, i))

    def unit(self) -> PresheafMorphism:
        comps = tuple(tuple(self._class_index[self._find(v)] for v in row)
                      for row in self._gen_rows)
        return PresheafMorphism(self.generators, self.classes, comps)

    def apply(self, sym_name: str, rows, sort: str, c: int) -> int | None:
        """Class of the one-step application, or None outside the universe."""
        key = self._canon_key((_op(sym_name, sort, c), *[
            self._roots_by_sort[s][i]
            for s, row in zip(self.index.sorts, rows) for i in row]))
        nid = self._hash.get(key)
        if nid is None:
            return None
        return self._class_index[self._find(nid)]

    def act_class(self, m: str, i: int) -> int:
        return self.classes.map(m)[i]

    def as_algebra(self) -> Algebra:
        if not self.saturated:
            raise StructureError(
                "only a saturated quotient carries a total algebra structure")
        values: dict[str, list[PresheafMorphism]] = {}
        for sym in self.signature.symbols:
            vals = []
            for h in hom_list(sym.arity, self.classes):
                comps = tuple(
                    tuple(self.apply(sym.name, h.components, sort, c)
                          for c in sym.parameter.elements(sort))
                    for sort in self.index.sorts)
                vals.append(PresheafMorphism(sym.parameter, self.classes, comps))
            values[sym.name] = vals
        return Algebra(self.signature, self.classes, values)

    def compile_class(self, sort: str, i: int, cells: dict, memo: dict):
        """Class ``i`` of ``sort``'s representative term compiled against
        the cell layout ``cells`` (``algebra._compile``), the flat node
        ``algebra._value`` runs; ``memo`` serves one layout only."""
        return _compile(self.rep_term(sort, i), self.generators, cells, memo)

    def class_values(self, A: Algebra) -> list[tuple[int, ...]]:
        """For each phi of ``hom_list(generators, A.carrier)``, in listing
        order, the flat value in ``A`` of every class; each compiles once."""
        (cells, table), memo = A._cells, {}
        nodes = [self.compile_class(s, c, cells, memo)
                 for s in self.index.sorts for c in self.classes.elements(s)]
        return [tuple([_value(v, phi, table) for v in nodes])
                for phi in hom_list(self.generators, A.carrier).position]

    def evaluate_class(self, A: Algebra, phi: PresheafMorphism, sort: str,
                       i: int, memo: dict | None = None) -> int:
        """Interpret a class in an algebra satisfying the base presentation.

        ``phi`` assigns carrier elements to the generators, and ``memo``
        caches compiled classes for ``A``; the value is independent of the
        chosen representative exactly when ``A`` models the presentation.
        """
        if memo is None:
            memo = {}
        cells, table = A._cells
        return (_value(self.compile_class(sort, i, cells, memo),
                       flat_table(phi), table) - A.carrier.offset(sort))

    def audit_lines(self) -> list[str]:
        lines, term = [], self._node_term
        for e in self.audit:
            if e.kind == "eq":
                phi = " ".join(
                    repr(term(r)) for row in (e.phi or ()) for r in row)
                lines.append(
                    f"merge {term(e.left)!r} {term(e.right)!r} by {e.equation} "
                    f"phi=[{phi}]")
            elif e.kind == "cong":
                lines.append(f"merge {term(e.left)!r} {term(e.right)!r} by cong")
            else:
                lines.append(f"merge {term(e.left)!r} {term(e.right)!r} "
                             f"by act {e.morphism}")
        return lines


def free_algebra(P: Presentation, generators: Presheaf, depth: int,
                 max_nodes: int = DEFAULT_MAX_NODES) -> FreeAlgebra:
    """The depth-bounded free P-algebra on a generator presheaf."""
    return FreeAlgebra(P, generators, depth, grow=True, max_nodes=max_nodes)


def _compile_terms(X: Presheaf, terms) -> tuple[tuple, list[int]]:
    """Post-order step programs for ``_kernel`` over terms in the variables
    ``X``, a shared subterm object once, and each term's slot.  A step is
    ``(None, flat position of the variable in X)`` or ``(sort, symbol,
    parameter element, binding rows of earlier steps)``."""
    steps: list[tuple] = []
    memo: dict[int, int] = {}
    slots = [_compile_step(X, t, steps, memo) for t in terms]
    return tuple(steps), slots


def _compile_step(X: Presheaf, t: Term, steps: list[tuple],
                  memo: dict[int, int]) -> int:
    got = memo.get(id(t))
    if got is None:
        if t.is_var:
            step = (None, X.offset(t.sort) + t.var)
        else:
            step = (t.sort, t.symbol.name, t.param, tuple(
                tuple(_compile_step(X, u, steps, memo) for u in row)
                for row in t.binding))
        got = memo[id(t)] = len(steps)
        steps.append(step)
    return got


_OPS: dict[tuple[str, str, int], int] = {}  # (symbol, sort, c) -> op id
_OP_NAMES: list[tuple[str, str, int]] = []  # op id -> (symbol, sort, c)


def _op(sym: str, sort: str, c: int) -> int:
    """The process-wide id of a symbol at a sort and parameter element: it
    depends on the names alone, so cached kernels can hold it as a literal."""
    got = _OPS.get((sym, sort, c))
    if got is None:
        got = _OPS[sym, sort, c] = len(_OP_NAMES)
        _OP_NAMES.append((sym, sort, c))
    return got


_KERNEL_HEAD = """\
def make(AuditEntry, contains, {consts}):
    def kernel(fa, families, seen, start):
        find, lookup, parent = fa._find, fa._hash.get, fa._parent
        insert, union = fa._insert, fa._union
        ran = 0
        for phi in families:
            if seen is not None:
                if fa._unions != start:
                    seen = None
                elif all(map(contains, seen, phi)):
                    continue
            ran += 1
"""


@functools.lru_cache(maxsize=1024)
def _kernel(name: str | None, steps: tuple, left: int | None,
            right: int | None, cuts: tuple):
    """One compiled program as a generated loop, the one insertion walk:
    ``kernel(fa, families, seen, start)`` runs ``steps`` in straight-line
    code on every family ``phi`` of ``families`` in ``fa``, and returns how
    many it ran.  While ``seen`` is set and ``fa`` has merged nothing since
    ``start``, it skips a family whose classes all lie in ``seen``'s pools
    (``FreeAlgebra._equation_pass``).  A variable step reads ``phi``; an
    application step looks its flat key ``(op, *children)`` up and inserts
    it if missing.  Nothing merges during a family's steps, so every child
    is taken to its root as it is built and each key is canonical.  For an equation instance
    (``name`` set) the kernel then merges the classes of the steps
    ``left`` and ``right``, logging ``phi`` cut at ``cuts``.

    The source holds integers and generated names only: symbol, sort and
    equation names come from user files, so they are bound constants; op
    ids depend on the names alone (``_op``) and are literals.
    Kernels are cached by program shape, the 1,024 last used, so an
    equation instance compiles once per process, not once per free
    algebra; seed programs vary from call to call, hence the bound."""
    consts: dict[str, str] = {}

    def const(value: str) -> str:
        return consts.setdefault(value, f"k{len(consts)}")

    def root(v: str, indent: str) -> list[str]:  # what _find returns
        return [f"{indent}u = parent[{v}]", f"{indent}if u != {v}:",
                f"{indent}    {v} = u if parent[u] == u else find({v})"]

    body: list[str] = []
    for i, (sort, *rest) in enumerate(steps):
        v = f"v{i:d}"
        if sort is None:
            body += [f"{v} = phi[{rest[0]:d}]", *root(v, "")]
            continue
        sym, c, rows = rest
        children = "".join(f", v{j:d}" for row in rows for j in row)
        body += [f"k = ({_op(sym, sort, c):d}{children},)",
                 f"{v} = lookup(k)", f"if {v} is None:",
                 f"    {v} = insert(k, {const(sort)})", "else:",
                 *root(v, "    ")]
    if name is not None:
        a, b = f"v{left:d}", f"v{right:d}"
        cut = "".join(f"phi[{i:d}:{j:d}], " for i, j in cuts)
        body += [f"if {a} != {b}:",
                 f'    union({a}, {b}, AuditEntry("eq", {a}, {b}, '
                 f'equation={const(name)}, phi=({cut})))']
    source = (_KERNEL_HEAD.format(consts=", ".join(consts.values()))
              + "".join(f"            {line}\n" for line in body)
              + "        return ran\n    return kernel\n")
    namespace: dict = {}
    exec(source, namespace)
    return namespace.pop("make")(AuditEntry, set.__contains__, *consts)


# ---------------------------------------------------------------------------
# Word problem verdicts


EQUAL = "Equal"
DISTINCT = "Distinct"
UNKNOWN = "Unknown"


def quotient_map_equal(P: Presentation, t: ParamTerm, u: ParamTerm,
                       depth: int, search_size: int = 3,
                       max_nodes: int = 200_000,
                       ceiling: int = DEFAULT_CEILING) -> tuple[str, object]:
    """Do two parametrized terms become equal in the presented monad?

    Equal verdicts come from the congruence closure (sound by the audit
    trail); Distinct verdicts carry either a saturated free algebra or an
    explicit finite countermodel; everything else is Unknown.
    """
    if t.arity != u.arity or t.parameter != u.parameter:
        raise StructureError("terms must share arity and parameter")
    seeds = [s for pt in (t, u) for row in pt.rows for s in row]
    lazy = FreeAlgebra(P, t.arity, depth, grow=False, seeds=seeds,
                       max_nodes=max_nodes)
    idx = t.parameter.index
    pairs = [
        (t(sort, c), u(sort, c))
        for sort in idx.sorts for c in t.parameter.elements(sort)]
    if all(lazy.class_of_term(a) == lazy.class_of_term(b) for a, b in pairs):
        return EQUAL, lazy
    try:
        full = free_algebra(P, t.arity, depth, max_nodes=max_nodes)
    except ResourceCeiling:
        full = None
    if full is not None:
        folds = [(full.class_of_term(a), full.class_of_term(b)) for a, b in pairs]
        if all(x is not None and y is not None for x, y in folds):
            if all(x == y for x, y in folds):
                return EQUAL, full
            if full.saturated:
                return DISTINCT, full
    eq = Equation("probe", t, u)
    for A in enumerate_algebras(P, search_size, ceiling=ceiling):
        witness = satisfies(A, eq, witness=True)
        if witness is not None:
            return DISTINCT, (A, witness)
    return UNKNOWN, None


# ---------------------------------------------------------------------------
# Equations over a base presentation (two-stage presentations)


@dataclass(frozen=True, eq=False)
class QuotientEquation:
    """A parallel pair of class-valued families over a base free algebra.

    This is how equations whose sides only exist modulo earlier equations are
    expressed: the sides are classes of the base presentation's free algebra
    on the arity.  ``satisfies`` and ``enumerate_algebras`` take it like an
    :class:`Equation` whose sides are the classes' representative terms
    (``lhs``, ``rhs``); class values are well defined on algebras of the
    base presentation.
    """

    name: str
    base: FreeAlgebra
    parameter: Presheaf
    lhs_rows: tuple[tuple[int, ...], ...]
    rhs_rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for rows in (self.lhs_rows, self.rhs_rows):
            check_family(self.parameter, rows,
                         lambda sort, i: 0 <= i < self.base.classes.size(sort),
                         self.base.act_class, "class family")

    @property
    def arity(self) -> Presheaf:
        return self.base.generators

    def lhs(self, sort: str, c: int) -> Term:
        return self.base.rep_term(
            sort, self.lhs_rows[self.parameter.index.sort_index(sort)][c])

    def rhs(self, sort: str, c: int) -> Term:
        return self.base.rep_term(
            sort, self.rhs_rows[self.parameter.index.sort_index(sort)][c])


@dataclass(frozen=True, eq=False)
class TwoStagePresentation:
    """A presentation plus further equations stated over its algebras; its
    ``equations`` are the base equations, then the quotient equations, and
    one model search checks both."""

    name: str
    base: Presentation
    extra: tuple[QuotientEquation, ...]

    @property
    def signature(self) -> FreeFormSignature:
        return self.base.signature

    @property
    def equations(self) -> tuple:
        return self.base.equations + self.extra

    def models_on(self, carrier: Presheaf,
                  ceiling: int = DEFAULT_CEILING) -> list[Algebra]:
        return enumerate_algebras(self, 0, carrier=carrier, ceiling=ceiling)
