"""Builders for the bundled example presentations, clones, and witnesses.

Everything here is plain construction code over the core modules: lattice
and monoid axioms, mutable-store operations with the lookup/update laws,
modules over a finite rig, category structure on graphs, and the clones of
states and matrices.  Tests and the bundled data files are generated from
these builders.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from .base import (
    Presheaf,
    PresheafMorphism,
    StructureError,
    finite_set,
    hom_list,
    parallel_pair_index,
    terminal,
    trivial_index,
)
from .syntax import (
    Equation,
    FreeFormSignature,
    OperationSymbol,
    ParamTerm,
    app,
    param_term_from_map,
    var,
)
from .algebra import Algebra
from .presentation import (
    Presentation,
    QuotientEquation,
    TwoStagePresentation,
    free_algebra,
)
from .clones import RelativeMonad


def _single(sig, J, t):
    """Parametrized term with terminal parameter over a one-sort base."""
    one = terminal(J.index)
    return ParamTerm(sig, J, one, ((t,),))


def semilattice_presentation() -> Presentation:
    I = trivial_index()
    two, three, one_set = finite_set(2, I), finite_set(3, I), finite_set(1, I)
    sig = FreeFormSignature(
        "semilattice", [OperationSymbol("join", two, terminal(I))])
    x, y, z = (var(sig, "*", i) for i in range(3))

    def j(J, a, b):
        return app(sig, "join", ((a, b),), "*", 0, J)

    return Presentation("semilattice", sig, [
        Equation("idem", _single(sig, one_set, j(one_set, x, x)),
                 _single(sig, one_set, x)),
        Equation("comm", _single(sig, two, j(two, x, y)),
                 _single(sig, two, j(two, y, x))),
        Equation("assoc", _single(sig, three, j(three, j(three, x, y), z)),
                 _single(sig, three, j(three, x, j(three, y, z)))),
    ])


def monoid_presentation() -> Presentation:
    I = trivial_index()
    zero, one_set = finite_set(0, I), finite_set(1, I)
    two, three = finite_set(2, I), finite_set(3, I)
    sig = FreeFormSignature("monoid", [
        OperationSymbol("mul", two, terminal(I)),
        OperationSymbol("unit", zero, terminal(I)),
    ])
    x, y, z = (var(sig, "*", i) for i in range(3))

    def m(J, a, b):
        return app(sig, "mul", ((a, b),), "*", 0, J)

    def e(J):
        return app(sig, "unit", ((),), "*", 0, J)

    return Presentation("monoid", sig, [
        Equation("assoc", _single(sig, three, m(three, m(three, x, y), z)),
                 _single(sig, three, m(three, x, m(three, y, z)))),
        Equation("unitl", _single(sig, one_set, m(one_set, e(one_set), x)),
                 _single(sig, one_set, x)),
        Equation("unitr", _single(sig, one_set, m(one_set, x, e(one_set))),
                 _single(sig, one_set, x)),
    ])


def max_semilattice_algebra(P: Presentation, n: int) -> Algebra:
    """The chain 0 < 1 < ... < n-1 under max."""
    carrier = finite_set(n, P.signature.index)
    homs = hom_list(P.signature.symbol("join").arity, carrier)
    points = hom_list(terminal(P.signature.index), carrier)
    values = {"join": [points[max(h.components[0])] for h in homs]}
    return Algebra(P.signature, carrier, values)


def cyclic_monoid_algebra(P: Presentation, n: int) -> Algebra:
    """Z/n under addition, as a monoid witness."""
    carrier = finite_set(n, P.signature.index)
    one = terminal(P.signature.index)
    points = hom_list(one, carrier)
    mul_homs = hom_list(P.signature.symbol("mul").arity, carrier)
    values = {
        "mul": [points[sum(h.components[0]) % n] for h in mul_homs],
        "unit": [points[0] for _ in hom_list(P.signature.symbol("unit").arity, carrier)],
    }
    return Algebra(P.signature, carrier, values)


# ---------------------------------------------------------------------------
# Global state (lookup/update over a finite store)


def global_state_presentation(num_values: int = 2, num_locations: int = 1) -> Presentation:
    """Lookup and update over ``num_locations`` cells holding ``num_values``.

    Operations: lookup with arity V and parameter L; update with arity 1 and
    parameter L x V.  The seven laws cover read-after-write, write-after-
    write, read-after-read, write-of-read, and the three commutation laws
    for distinct locations (empty when there is a single location).
    """
    I = trivial_index()
    V, L = num_values, num_locations
    arity_v = finite_set(V, I)
    arity_1 = finite_set(1, I)
    param_l = finite_set(L, I)
    param_lv = finite_set(L * V, I)
    sig = FreeFormSignature("globalstate", [
        OperationSymbol("lookup", arity_v, param_l),
        OperationSymbol("update", arity_1, param_lv),
    ])
    x = var(sig, "*", 0)

    def lk(J, kont, loc):
        return app(sig, "lookup", (tuple(kont),), "*", loc, J)

    def up(J, body, loc, val):
        return app(sig, "update", ((body,),), "*", loc * V + val, J)

    vv = finite_set(V * V, I)
    equations = []
    # update after lookup of the same value is the identity
    equations.append(Equation(
        "lookup-update",
        param_term_from_map(sig, arity_1, param_l, lambda s, l: lk(
            arity_1, [up(arity_1, x, l, v) for v in range(V)], l)),
        param_term_from_map(sig, arity_1, param_l, lambda s, l: x),
    ))
    # two reads of one location agree
    equations.append(Equation(
        "lookup-lookup",
        param_term_from_map(sig, vv, param_l, lambda s, l: lk(
            vv, [lk(vv, [var(sig, "*", v * V + w) for w in range(V)], l)
                 for v in range(V)], l)),
        param_term_from_map(sig, vv, param_l, lambda s, l: lk(
            vv, [var(sig, "*", v * V + v) for v in range(V)], l)),
    ))
    # the later write wins
    param_lvv = finite_set(L * V * V, I)
    equations.append(Equation(
        "update-update",
        param_term_from_map(
            sig, arity_1, param_lvv,
            lambda s, c: up(arity_1, up(arity_1, x, c // (V * V),
                                        c % V), c // (V * V), (c // V) % V)),
        param_term_from_map(
            sig, arity_1, param_lvv,
            lambda s, c: up(arity_1, x, c // (V * V), c % V)),
    ))
    # a read after a write returns the written value
    equations.append(Equation(
        "update-lookup",
        param_term_from_map(
            sig, arity_v, param_lv,
            lambda s, c: up(arity_v,
                            lk(arity_v, [var(sig, "*", w) for w in range(V)],
                               c // V),
                            c // V, c % V)),
        param_term_from_map(
            sig, arity_v, param_lv,
            lambda s, c: up(arity_v, var(sig, "*", c % V), c // V, c % V)),
    ))
    # commutation laws for distinct locations
    l2 = [(a, b) for a in range(L) for b in range(L) if a != b]
    param_l2 = finite_set(len(l2), I)
    equations.append(Equation(
        "lookup-comm",
        param_term_from_map(sig, vv, param_l2, lambda s, c: lk(
            vv, [lk(vv, [var(sig, "*", v * V + w) for w in range(V)], l2[c][1])
                 for v in range(V)], l2[c][0])),
        param_term_from_map(sig, vv, param_l2, lambda s, c: lk(
            vv, [lk(vv, [var(sig, "*", v * V + w) for v in range(V)], l2[c][0])
                 for w in range(V)], l2[c][1])),
    ))
    param_l2vv = finite_set(len(l2) * V * V, I)
    equations.append(Equation(
        "update-comm",
        param_term_from_map(
            sig, arity_1, param_l2vv,
            lambda s, c: up(arity_1,
                            up(arity_1, x, l2[c // (V * V)][1], c % V),
                            l2[c // (V * V)][0], (c // V) % V)),
        param_term_from_map(
            sig, arity_1, param_l2vv,
            lambda s, c: up(arity_1,
                            up(arity_1, x, l2[c // (V * V)][0], (c // V) % V),
                            l2[c // (V * V)][1], c % V)),
    ))
    param_l2v = finite_set(len(l2) * V, I)
    equations.append(Equation(
        "update-lookup-comm",
        param_term_from_map(
            sig, arity_v, param_l2v,
            lambda s, c: up(arity_v,
                            lk(arity_v, [var(sig, "*", w) for w in range(V)],
                               l2[c // V][1]),
                            l2[c // V][0], c % V)),
        param_term_from_map(
            sig, arity_v, param_l2v,
            lambda s, c: lk(arity_v,
                            [up(arity_v, var(sig, "*", w), l2[c // V][0], c % V)
                             for w in range(V)],
                            l2[c // V][1])),
    ))
    return Presentation("globalstate", sig, equations)


def state_transformer_algebra(P: Presentation, base_size: int,
                              num_values: int = 2, num_locations: int = 1) -> Algebra:
    """The algebra (X x S)^S for the store monad, with pointwise operations.

    Elements encode functions from states to (element, state) pairs in base
    |X x S|, digit s being the image of state s; states are value tuples in
    base ``num_values``.
    """
    V, L, X = num_values, num_locations, base_size
    S = V ** L
    I = P.signature.index
    XS = X * S
    carrier = finite_set(XS ** S, I)

    def decode(w, s):
        return (w // (XS ** s)) % XS

    def encode(values):
        return sum(v * (XS ** s) for s, v in enumerate(values))

    def state_get(s, loc):
        return (s // (V ** loc)) % V

    def state_set(s, loc, v):
        return s - state_get(s, loc) * (V ** loc) + v * (V ** loc)

    lookup_homs = hom_list(P.signature.symbol("lookup").arity, carrier)
    update_homs = hom_list(P.signature.symbol("update").arity, carrier)
    lookup_vals, update_vals = [], []
    param_l = P.signature.symbol("lookup").parameter
    param_lv = P.signature.symbol("update").parameter
    for h in lookup_homs:
        kont = h.components[0]
        comps = []
        for loc in param_l.elements("*"):
            comps.append(encode([
                decode(kont[state_get(s, loc)], s) for s in range(S)]))
        lookup_vals.append(PresheafMorphism(param_l, carrier, (tuple(comps),)))
    for h in update_homs:
        body = h.components[0][0]
        comps = []
        for c in param_lv.elements("*"):
            loc, v = c // V, c % V
            comps.append(encode([
                decode(body, state_set(s, loc, v)) for s in range(S)]))
        update_vals.append(PresheafMorphism(param_lv, carrier, (tuple(comps),)))
    return Algebra(P.signature, carrier,
                   {"lookup": lookup_vals, "update": update_vals})


# ---------------------------------------------------------------------------
# Modules over a finite rig


@dataclass(frozen=True)
class FiniteRig:
    """A finite unital semiring on elements 0..n-1."""

    name: str
    size: int
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]
    zero: int
    one: int

    def __post_init__(self):
        n = range(self.size)
        for a in n:
            if self.add[a][self.zero] != a or self.add[self.zero][a] != a:
                raise StructureError("additive unit fails")
            if self.mul[a][self.one] != a or self.mul[self.one][a] != a:
                raise StructureError("multiplicative unit fails")
            if self.mul[a][self.zero] != self.zero or self.mul[self.zero][a] != self.zero:
                raise StructureError("zero is not absorbing")
            for b in n:
                if self.add[a][b] != self.add[b][a]:
                    raise StructureError("addition is not commutative")
                for c in n:
                    if self.add[self.add[a][b]][c] != self.add[a][self.add[b][c]]:
                        raise StructureError("addition is not associative")
                    if self.mul[self.mul[a][b]][c] != self.mul[a][self.mul[b][c]]:
                        raise StructureError("multiplication is not associative")
                    if self.mul[a][self.add[b][c]] != self.add[self.mul[a][b]][self.mul[a][c]]:
                        raise StructureError("left distributivity fails")
                    if self.mul[self.add[a][b]][c] != self.add[self.mul[a][c]][self.mul[b][c]]:
                        raise StructureError("right distributivity fails")

    def sum(self, values) -> int:
        out = self.zero
        for v in values:
            out = self.add[out][v]
        return out


def boolean_rig() -> FiniteRig:
    return FiniteRig("bool", 2, ((0, 1), (1, 1)), ((0, 0), (0, 1)), 0, 1)


def z2_rig() -> FiniteRig:
    return FiniteRig("z2", 2, ((0, 1), (1, 0)), ((0, 0), (0, 1)), 0, 1)


def rig_module_presentation(rig: FiniteRig) -> Presentation:
    """Left modules over a finite rig: commutative monoid plus scaling."""
    I = trivial_index()
    zero_set, one_set = finite_set(0, I), finite_set(1, I)
    two, three = finite_set(2, I), finite_set(3, I)
    R = finite_set(rig.size, I)
    RR = finite_set(rig.size * rig.size, I)
    sig = FreeFormSignature(f"{rig.name}-module", [
        OperationSymbol("plus", two, terminal(I)),
        OperationSymbol("zero", zero_set, terminal(I)),
        OperationSymbol("smul", finite_set(1, I), R),
    ])
    x, y, z = (var(sig, "*", i) for i in range(3))

    def pl(J, a, b):
        return app(sig, "plus", ((a, b),), "*", 0, J)

    def ze(J):
        return app(sig, "zero", ((),), "*", 0, J)

    def sm(J, r, t):
        return app(sig, "smul", ((t,),), "*", r, J)

    return Presentation(f"{rig.name}-module", sig, [
        Equation("add-assoc",
                 _single(sig, three, pl(three, pl(three, x, y), z)),
                 _single(sig, three, pl(three, x, pl(three, y, z)))),
        Equation("add-comm", _single(sig, two, pl(two, x, y)),
                 _single(sig, two, pl(two, y, x))),
        Equation("add-unit", _single(sig, one_set, pl(one_set, x, ze(one_set))),
                 _single(sig, one_set, x)),
        Equation("add-unit-l", _single(sig, one_set, pl(one_set, ze(one_set), x)),
                 _single(sig, one_set, x)),
        Equation("scale-one",
                 param_term_from_map(sig, one_set, terminal(I),
                                     lambda s, c: sm(one_set, rig.one, x)),
                 param_term_from_map(sig, one_set, terminal(I),
                                     lambda s, c: x)),
        Equation("scale-mul",
                 param_term_from_map(sig, one_set, RR, lambda s, c: sm(
                     one_set, c // rig.size, sm(one_set, c % rig.size, x))),
                 param_term_from_map(sig, one_set, RR, lambda s, c: sm(
                     one_set, rig.mul[c // rig.size][c % rig.size], x))),
        Equation("scale-zero",
                 param_term_from_map(sig, one_set, terminal(I),
                                     lambda s, c: sm(one_set, rig.zero, x)),
                 param_term_from_map(sig, one_set, terminal(I),
                                     lambda s, c: ze(one_set))),
        Equation("scale-zero-elt",
                 param_term_from_map(sig, zero_set, R,
                                     lambda s, r: sm(zero_set, r, ze(zero_set))),
                 param_term_from_map(sig, zero_set, R,
                                     lambda s, r: ze(zero_set))),
        Equation("scale-add-left",
                 param_term_from_map(sig, one_set, RR, lambda s, c: sm(
                     one_set, rig.add[c // rig.size][c % rig.size], x)),
                 param_term_from_map(sig, one_set, RR, lambda s, c: pl(
                     one_set, sm(one_set, c // rig.size, x),
                     sm(one_set, c % rig.size, x)))),
        Equation("scale-add-right",
                 param_term_from_map(sig, two, R, lambda s, r: sm(
                     two, r, pl(two, x, y))),
                 param_term_from_map(sig, two, R, lambda s, r: pl(
                     two, sm(two, r, x), sm(two, r, y)))),
    ])


def rig_self_module(P: Presentation, rig: FiniteRig) -> Algebra:
    """The rig acting on itself by left multiplication."""
    I = P.signature.index
    carrier = finite_set(rig.size, I)
    points = hom_list(terminal(I), carrier)
    plus_vals = [points[rig.add[h.components[0][0]][h.components[0][1]]]
                 for h in hom_list(P.signature.symbol("plus").arity, carrier)]
    zero_vals = [points[rig.zero]
                 for _ in hom_list(P.signature.symbol("zero").arity, carrier)]
    R = P.signature.symbol("smul").parameter
    smul_vals = [
        PresheafMorphism(R, carrier, (tuple(
            rig.mul[r][h.components[0][0]] for r in range(rig.size)),))
        for h in hom_list(P.signature.symbol("smul").arity, carrier)]
    return Algebra(P.signature, carrier,
                   {"plus": plus_vals, "zero": zero_vals, "smul": smul_vals})


# ---------------------------------------------------------------------------
# Internal categories over the graph base (two-stage)


def graph_presheaf(num_vertices: int, edges: list[tuple[int, int]]) -> Presheaf:
    B = parallel_pair_index()
    return Presheaf(
        B, (num_vertices, len(edges)),
        (tuple(range(num_vertices)), tuple(range(len(edges))),
         tuple(e[0] for e in edges), tuple(e[1] for e in edges)))


def path_graph(length: int) -> Presheaf:
    """The walking path with ``length`` edges (the arity ladder)."""
    return graph_presheaf(length + 1, [(i, i + 1) for i in range(length)])


def internal_category_presentation() -> TwoStagePresentation:
    """Identity and composition on graphs, with the category laws.

    Stage one pins the endpoints of identities and composites; associativity
    and the unit laws only typecheck modulo stage one, so they are stated as
    class-level equations over its free algebras on the path arities.
    """
    B = parallel_pair_index()
    g0, g1, g2, g3 = path_graph(0), path_graph(1), path_graph(2), path_graph(3)
    sig = FreeFormSignature("internalcat", [
        OperationSymbol("ident", g0, g1),
        OperationSymbol("comp", g2, g1),
    ])

    # stage one: endpoints of ident and comp.  The parameter [0] has a single
    # vertex element, so each equation pins one endpoint.
    v0 = var(sig, "v", 0)
    eq_ident_ends = Equation(
        "ident-endpoints",
        param_term_from_map(
            sig, g0, g0,
            lambda sort, c: app(sig, "ident", ((v0,), ()), "v", 0, g0)),
        param_term_from_map(sig, g0, g0, lambda sort, c: v0))
    eq_ident_ends_t = Equation(
        "ident-endpoints-t",
        param_term_from_map(
            sig, g0, g0,
            lambda sort, c: app(sig, "ident", ((v0,), ()), "v", 1, g0)),
        param_term_from_map(sig, g0, g0, lambda sort, c: v0))

    w = [var(sig, "v", i) for i in range(3)]
    e = [var(sig, "e", i) for i in range(2)]
    comp_binding = ((w[0], w[1], w[2]), (e[0], e[1]))
    eq_comp_src = Equation(
        "comp-source",
        param_term_from_map(
            sig, g2, g0,
            lambda sort, c: app(sig, "comp", comp_binding, "v", 0, g2)),
        param_term_from_map(sig, g2, g0, lambda sort, c: w[0]))
    eq_comp_tgt = Equation(
        "comp-target",
        param_term_from_map(
            sig, g2, g0,
            lambda sort, c: app(sig, "comp", comp_binding, "v", 1, g2)),
        param_term_from_map(sig, g2, g0, lambda sort, c: w[2]))
    base = Presentation("internalcat", sig, [
        eq_ident_ends, eq_ident_ends_t, eq_comp_src, eq_comp_tgt])

    # stage two: associativity and unit laws, over the stage-one quotients
    q3 = free_algebra(base, g3, 3)
    q1 = free_algebra(base, g1, 3)

    def cls_var(Q, sort, i):
        return Q.class_of_term(var(sig, sort, i))

    def cls_comp(Q, fam):
        got = Q.apply("comp", fam, "e", 0)
        assert got is not None
        return got

    def edge_rows(Q, cls):
        # an edge class together with its endpoint classes: a [1]-parameter row
        return ((Q.act_class("s", cls), Q.act_class("t", cls)), (cls,))

    # associativity over the path of length three
    vs3 = [cls_var(q3, "v", i) for i in range(4)]
    es3 = [cls_var(q3, "e", i) for i in range(3)]
    c01 = cls_comp(q3, ((vs3[0], vs3[1], vs3[2]), (es3[0], es3[1])))
    c12 = cls_comp(q3, ((vs3[1], vs3[2], vs3[3]), (es3[1], es3[2])))
    left = cls_comp(q3, ((vs3[0], vs3[2], vs3[3]), (c01, es3[2])))
    right = cls_comp(q3, ((vs3[0], vs3[1], vs3[3]), (es3[0], c12)))
    assoc = QuotientEquation(
        "comp-assoc", q3, path_graph(1),
        edge_rows(q3, left), edge_rows(q3, right))

    # unit laws over the single edge
    vs1 = [cls_var(q1, "v", i) for i in range(2)]
    e1 = cls_var(q1, "e", 0)
    idl = q1.apply("ident", ((vs1[0],), ()), "e", 0)
    idr = q1.apply("ident", ((vs1[1],), ()), "e", 0)
    left_unit = cls_comp(q1, ((vs1[0], vs1[0], vs1[1]), (idl, e1)))
    right_unit = cls_comp(q1, ((vs1[0], vs1[1], vs1[1]), (e1, idr)))
    unit_l = QuotientEquation("comp-unit-left", q1, path_graph(1),
                              edge_rows(q1, left_unit), edge_rows(q1, e1))
    unit_r = QuotientEquation("comp-unit-right", q1, path_graph(1),
                              edge_rows(q1, right_unit), edge_rows(q1, e1))
    # unit laws first: cheaper, they run first on cells shared with assoc
    return TwoStagePresentation("internalcat", base, (unit_l, unit_r, assoc))


def count_category_structures(G: Presheaf) -> int:
    """Direct oracle: identity and composition tables satisfying the axioms."""
    nv, ne = G.sizes
    src, tgt = G.map("s"), G.map("t")
    pairs = [(f, g) for f in range(ne) for g in range(ne) if tgt[f] == src[g]]
    ident_pool = [
        e_choice for e_choice in iproduct(range(ne), repeat=nv)
        if all(src[e_choice[v]] == v and tgt[e_choice[v]] == v
               for v in range(nv))]
    cell_pools = [
        [e for e in range(ne) if src[e] == src[f] and tgt[e] == tgt[g]]
        for f, g in pairs]
    count = 0
    for comp in iproduct(*cell_pools):
        table = {p: c for p, c in zip(pairs, comp)}
        ok = True
        for f, g in pairs:
            fg = table[(f, g)]
            for h in range(ne):
                if src[h] == tgt[g]:
                    if table[(fg, h)] != table[(f, table[(g, h)])]:
                        ok = False
                        break
            if not ok:
                break
        if not ok:
            continue
        for ident in ident_pool:
            if all(table[(ident[src[f]], f)] == f and table[(f, ident[tgt[f]])] == f
                   for f in range(ne)):
                count += 1
    return count


# ---------------------------------------------------------------------------
# Reading bits and restriction (parametrized effect theories)


def reading_bits_presentation(alpha_size: int = 2) -> Presentation:
    """One binary choice operation parametrized by which bit is read."""
    I = trivial_index()
    two = finite_set(2, I)
    alpha = finite_set(alpha_size, I)
    sig = FreeFormSignature("readbits", [OperationSymbol("read", two, alpha)])
    x = var(sig, "*", 0)

    def rd(J, a, b, c):
        return app(sig, "read", ((a, b),), "*", c, J)

    one_set, four = finite_set(1, I), finite_set(4, I)
    u, v, xx, y = (var(sig, "*", i) for i in range(4))
    aa = finite_set(alpha_size * alpha_size, I)
    equations = [
        Equation("read-idem",
                 param_term_from_map(sig, one_set, alpha,
                                     lambda s, a: rd(one_set, x, x, a)),
                 param_term_from_map(sig, one_set, alpha, lambda s, a: x)),
        Equation("read-dup",
                 param_term_from_map(sig, four, alpha, lambda s, a: rd(
                     four, rd(four, u, v, a), rd(four, xx, y, a), a)),
                 param_term_from_map(sig, four, alpha,
                                     lambda s, a: rd(four, u, y, a))),
        Equation("read-comm",
                 param_term_from_map(sig, four, aa, lambda s, c: rd(
                     four, rd(four, u, v, c % alpha_size),
                     rd(four, xx, y, c % alpha_size), c // alpha_size)),
                 param_term_from_map(sig, four, aa, lambda s, c: rd(
                     four, rd(four, u, xx, c // alpha_size),
                     rd(four, v, y, c // alpha_size), c % alpha_size))),
    ]
    return Presentation("readbits", sig, equations)


def bit_reader_algebra(P: Presentation, base_size: int, alpha_size: int = 2) -> Algebra:
    """Environment-reader witness: carrier X^(2^alpha), pointwise choice."""
    I = P.signature.index
    envs = 2 ** alpha_size
    carrier = finite_set(base_size ** envs, I)

    def decode(w, env):
        return (w // (base_size ** env)) % base_size

    def encode(values):
        return sum(v * (base_size ** env) for env, v in enumerate(values))

    alpha = P.signature.symbol("read").parameter
    vals = []
    for h in hom_list(P.signature.symbol("read").arity, carrier):
        a0, a1 = h.components[0]
        comps = []
        for bit in alpha.elements("*"):
            comps.append(encode([
                decode(a0, env) if (env >> bit) & 1 == 0 else decode(a1, env)
                for env in range(envs)]))
        vals.append(PresheafMorphism(alpha, carrier, (tuple(comps),)))
    return Algebra(P.signature, carrier, {"read": vals})


def restriction_presentation(j_size: int = 2) -> Presentation:
    """A single J-ary operation that is idempotent and self-commuting."""
    I = trivial_index()
    J = finite_set(j_size, I)
    sig = FreeFormSignature("restriction", [
        OperationSymbol("nu", J, terminal(I))])

    def nu(ctx, row):
        return app(sig, "nu", (tuple(row),), "*", 0, ctx)

    one_set = finite_set(1, I)
    x = var(sig, "*", 0)
    jj = finite_set(j_size * j_size, I)
    grid = [var(sig, "*", i) for i in range(j_size * j_size)]
    equations = [
        Equation("nu-idem",
                 _single(sig, one_set, nu(one_set, [x] * j_size)),
                 _single(sig, one_set, x)),
        Equation("nu-comm",
                 _single(sig, jj, nu(jj, [
                     nu(jj, [grid[j * j_size + k] for k in range(j_size)])
                     for j in range(j_size)])),
                 _single(sig, jj, nu(jj, [
                     nu(jj, [grid[k * j_size + j] for k in range(j_size)])
                     for j in range(j_size)]))),
    ]
    return Presentation("restriction", sig, equations)


def constant_nu_algebra(P: Presentation, n: int, j_size: int = 2) -> Algebra:
    """Witness for restriction: nu returns the diagonal entry at index 0."""
    I = P.signature.index
    carrier = finite_set(n, I)
    one = terminal(I)
    points = hom_list(one, carrier)
    vals = [points[h.components[0][0]]
            for h in hom_list(P.signature.symbol("nu").arity, carrier)]
    return Algebra(P.signature, carrier, {"nu": vals})


# ---------------------------------------------------------------------------
# Clones: state and matrices


def state_clone(object_sizes, num_states: int = 2,
                name: str = "state") -> RelativeMonad:
    """H(J) = (J x S)^S with the store unit and Kleisli substitution."""
    I = trivial_index()
    S = num_states
    objects = [finite_set(n, I) for n in object_sizes]
    carriers = []
    for n in object_sizes:
        carriers.append(finite_set((n * S) ** S, I))

    def decode(n, w, s):
        pair = (w // ((n * S) ** s)) % (n * S)
        return pair // S, pair % S

    def encode(n, values):
        return sum((j * S + s1) * ((n * S) ** s)
                   for s, (j, s1) in enumerate(values))

    # over the trivial index every function is natural, so the values are
    # built trusted
    unit = []
    for n, J, HJ in zip(object_sizes, objects, carriers):
        unit.append(PresheafMorphism._trusted(J, HJ, (tuple(
            encode(n, [(j, s) for s in range(S)]) for j in range(n)),)))
    mult = {}
    for i, n_i in enumerate(object_sizes):
        for j, n_j in enumerate(object_sizes):
            values = []
            for g in hom_list(objects[i], carriers[j]):
                (ga,) = g.components
                comps = []
                for w in carriers[i].elements("*"):
                    values_per_state = []
                    for s in range(S):
                        a, s1 = decode(n_i, w, s)
                        values_per_state.append(decode(n_j, ga[a], s1))
                    comps.append(encode(n_j, values_per_state))
                values.append(PresheafMorphism._trusted(
                    carriers[i], carriers[j], (tuple(comps),)))
            mult[(i, j)] = values
    return RelativeMonad(name, objects, carriers, unit, mult)


def matrix_clone(rig: FiniteRig, sizes, affine: bool = False,
                 name: str | None = None) -> RelativeMonad:
    """H(n) = rows in R^n (all rows, or the rows with sum one)."""
    I = trivial_index()
    R = rig.size

    def rows(n):
        all_rows = list(iproduct(range(R), repeat=n))
        if affine:
            all_rows = [r for r in all_rows if rig.sum(r) == rig.one]
        return all_rows

    row_lists = {n: rows(n) for n in sizes}
    row_index = {n: {r: i for i, r in enumerate(row_lists[n])} for n in sizes}
    objects = [finite_set(n, I) for n in sizes]
    carriers = [finite_set(len(row_lists[n]), I) for n in sizes]
    # over the trivial index every function is natural, so the values are
    # built trusted
    unit = []
    for n, J, HJ in zip(sizes, objects, carriers):
        comps = []
        for i in range(n):
            basis = tuple(rig.one if k == i else rig.zero for k in range(n))
            comps.append(row_index[n][basis])
        unit.append(PresheafMorphism._trusted(J, HJ, (tuple(comps),)))
    mult = {}
    for a, n_a in enumerate(sizes):
        for b, n_b in enumerate(sizes):
            values = []
            for g in hom_list(objects[a], carriers[b]):
                (ga,) = g.components
                comps = []
                for wi in carriers[a].elements("*"):
                    v = row_lists[n_a][wi]
                    out = tuple(
                        rig.sum(rig.mul[v[i]][row_lists[n_b][ga[i]][k]]
                                for i in range(n_a))
                        for k in range(n_b))
                    comps.append(row_index[n_b][out])
                values.append(PresheafMorphism._trusted(
                    carriers[a], carriers[b], (tuple(comps),)))
            mult[(a, b)] = values
    return RelativeMonad(
        name or (f"{rig.name}-affine" if affine else f"{rig.name}-matrix"),
        objects, carriers, unit, mult)
