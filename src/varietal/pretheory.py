"""Pretheories over a finite object family, concrete models, compilation to
presentations, and Kleisli pretheories of relative monads.

A pretheory is a finite category on the chosen arity objects together with
an identity-on-objects functor from the opposite of their full subcategory;
hom-sets are abstract tokens with explicit composition tables, one row per
token: ``compose[(i, j, k)][f][g]`` is the token of "f then g".  The
structural functor is contravariant, so a presheaf morphism x : K -> J
yields a token in T(J, K).

Every relative monad has a Kleisli pretheory, read off its tables by
``pretheory_of_clone``; the free and Kleisli pretheories are built through
it.  Law checks locate base composites by their ``hom_list`` position,
found by gathers over flat tables (``base.composite_positions``), and so
does ``kleisli_models`` when it forces the action of each candidate that
its one model search, over the laws ``_kleisli_laws`` states, lists.
"""

from __future__ import annotations

from contextlib import suppress
from itertools import product
from typing import Sequence

from .base import (
    HomList,
    Presheaf,
    PresheafMorphism,
    StructureError,
    composite_positions,
    copower,
    flat_table,
    gather,
    hom_list,
    representable,
)
from .syntax import (
    Assignment,
    Equation,
    FreeFormSignature,
    OperationSymbol,
    act,
    app,
    param_term_from_map,
    substitute,
    var,
    var_assignment,
)
from .algebra import Algebra, enumerate_algebras
from .presentation import FreeAlgebra, Presentation
from .clones import (RelativeMonad, Violation, _clone_and_free_algebras,
                     clone_of_presentation, identity_clone)


def _int_table(tables: dict, key: tuple, rows: int | None, width: int,
               bound: int, what: str) -> tuple:
    """``tables[key]`` as ``rows`` tuples of ``width`` integers, each in
    ``0..bound-1``; with ``rows`` None, as one such tuple.  The range of a
    row is read by C-level ``min`` and ``max``, not by a test per entry."""
    try:
        table = tables[key]
    except KeyError:
        raise StructureError(f"missing {what} for {key}") from None
    flat = rows is None
    table = (tuple(table),) if flat else tuple(map(tuple, table))
    if len(table) != (1 if flat else rows) or any(
            len(row) != width for row in table):
        raise StructureError(f"{what} {key} has the wrong shape")
    if width and table and (min(map(min, table)) < 0
                            or max(map(max, table)) >= bound):
        raise StructureError(f"{what} {key} has an entry out of range")
    return table[0] if flat else table


class Pretheory:
    """Finite category data on arity objects with the structural functor.

    ``compose[(i, j, k)]`` holds one row per token f of T(i, j): entry g of
    row f is the token of "f then g" in T(i, k), for g in T(j, k).
    ``tau[(i, j)]`` gives the token of each x in hom(K_j, K_i), in
    ``hom_list`` order.
    """

    def __init__(
        self,
        name: str,
        objects: Sequence[Presheaf],
        homs: dict[tuple[int, int], Sequence[str]],
        compose: dict[tuple[int, int, int], Sequence[Sequence[int]]],
        identities: Sequence[int],
        tau: dict[tuple[int, int], Sequence[int]],
    ):
        self.name = name
        self.objects = tuple(objects)
        n = len(self.objects)
        self.homs = {}
        for i, j in product(range(n), repeat=2):
            try:
                tokens = tuple(homs[(i, j)])
            except KeyError:
                raise StructureError(f"missing hom tokens for {(i, j)}")
            if len(set(tokens)) != len(tokens):
                raise StructureError(f"duplicate hom tokens in {(i, j)}")
            self.homs[(i, j)] = tokens
        self.compose = {
            (i, j, k): _int_table(compose, (i, j, k), self.hom_count(i, j),
                                  self.hom_count(j, k), self.hom_count(i, k),
                                  "composition table")
            for i, j, k in product(range(n), repeat=3)}
        self.identities = tuple(identities)
        if len(self.identities) != n:
            raise StructureError("one identity token per object required")
        for i, t in enumerate(self.identities):
            if not (0 <= t < len(self.homs[(i, i)])):
                raise StructureError(f"identity token at {i} out of range")
        self.tau = {
            (i, j): _int_table(tau, (i, j), None, len(self.c_homs(j, i)),
                               self.hom_count(i, j), "tau table")
            for i, j in product(range(n), repeat=2)}

    def c_homs(self, j: int, i: int) -> HomList:
        """hom of the base category from objects[j] to objects[i]."""
        return hom_list(self.objects[j], self.objects[i])

    def hom_count(self, i: int, j: int) -> int:
        return len(self.homs[(i, j)])

    def comp(self, i: int, j: int, k: int, f: int, g: int) -> int:
        return self.compose[(i, j, k)][f][g]


def check_pretheory(T: Pretheory) -> list[Violation]:
    """Category laws plus contravariant functoriality of the tau tables."""
    out: list[Violation] = []
    n = len(T.objects)
    for i, j in product(range(n), repeat=2):
        for f in range(T.hom_count(i, j)):
            if T.comp(i, i, j, T.identities[i], f) != f:
                out.append(Violation("left-identity", (i, j, f)))
            if T.comp(i, j, j, f, T.identities[j]) != f:
                out.append(Violation("right-identity", (i, j, f)))
    for i, j, k, l in product(range(n), repeat=4):
        c_ijk, c_ikl = T.compose[(i, j, k)], T.compose[(i, k, l)]
        c_jkl, c_ijl = T.compose[(j, k, l)], T.compose[(i, j, l)]
        gh_gathers = [gather(gh_row) for gh_row in c_jkl]
        for f, (row_f, via_f) in enumerate(zip(c_ijk, c_ijl)):
            for g, (gh_row, via_gh) in enumerate(zip(c_jkl, gh_gathers)):
                lhs_row = c_ikl[row_f[g]]
                if lhs_row != via_gh(via_f):
                    for h in range(T.hom_count(k, l)):
                        if lhs_row[h] != via_f[gh_row[h]]:
                            out.append(Violation(
                                "associativity", (i, j, k, l, f, g, h)))
    for i in range(n):
        ident_c = T.c_homs(i, i).position[
            tuple(range(T.objects[i].total_size))]
        if T.tau[(i, i)][ident_c] != T.identities[i]:
            out.append(Violation("tau-identity", (i,)))
    for i, j, k in product(range(n), repeat=3):
        homs_kj, into = T.c_homs(k, j), T.c_homs(k, i)
        tau_ik, tau_kj = T.tau[(i, k)], T.tau[(j, k)]
        for xi, x in enumerate(T.c_homs(j, i).position):
            tau_x = T.tau[(i, j)][xi]
            # the position of "y then x", for every y at once
            for yi, xy in enumerate(composite_positions(homs_kj, x, into)):
                if tau_ik[xy] != T.comp(i, j, k, tau_x, tau_kj[yi]):
                    out.append(Violation("tau-composition", (i, j, k, xi, yi)))
    return out


class ConcreteModel:
    """A carrier with an action of every hom token on its input families.

    ``action[(i, j)][t]`` maps indices of hom(J_i, A) to indices of
    hom(J_j, A), one table per token t.
    """

    def __init__(self, T: Pretheory, carrier: Presheaf,
                 action: dict[tuple[int, int], Sequence[Sequence[int]]]):
        self.pretheory = T
        self.carrier = carrier
        self.action = {
            (i, j): _int_table(action, (i, j), T.hom_count(i, j),
                               len(self.homs(i)), len(self.homs(j)),
                               "action table")
            for i, j in product(range(len(T.objects)), repeat=2)}

    def homs(self, i: int) -> HomList:
        return hom_list(self.pretheory.objects[i], self.carrier)


def check_concrete_model(M: ConcreteModel,
                         first_only: bool = False) -> list[Violation]:
    """Functoriality and the nerve condition, checked by exhaustion."""
    T = M.pretheory
    out: list[Violation] = []
    n = len(T.objects)
    for i in range(n):
        ident = M.action[(i, i)][T.identities[i]]
        if ident != tuple(range(len(M.homs(i)))):
            out.append(Violation("model-identity", (i,)))
            if first_only:
                return out
    for i in range(n):
        homs_i = M.homs(i).position
        for j in range(n):
            position = M.homs(j).position
            for xi, x in enumerate(T.c_homs(j, i).position):
                table = M.action[(i, j)][T.tau[(i, j)][xi]]
                then_phi = gather(x)  # a flat table phi to "x then phi"
                expected = tuple(position[then_phi(phi)] for phi in homs_i)
                if table != expected:
                    out.append(Violation("model-nerve", (i, j, xi)))
                    if first_only:
                        return out
    for i, j, k in product(range(n), repeat=3):
        comp, composites = T.compose[(i, j, k)], M.action[(i, k)]
        for f, table_f in enumerate(M.action[(i, j)]):
            after_f, row_f = gather(table_f), comp[f]
            for g, table_g in enumerate(M.action[(j, k)]):
                if after_f(table_g) != composites[row_f[g]]:
                    out.append(Violation("model-composition", (i, j, k, f, g)))
                    if first_only:
                        return out
    return out


def pretheory_of_clone(M: RelativeMonad, name: str) -> Pretheory:
    """The Kleisli pretheory of a relative monad, read off its tables.

    T(J_i, J_j) is hom(J_j, H J_i), listed as ``M.homs_into(j, i)``; "f then
    g" is g followed by the substitution m(f), the identity at J_i is the
    unit e_i, and tau(x) is x followed by e_i.  Every token is ``k{t}``.
    """
    n = len(M.objects)
    units = [flat_table(e) for e in M.unit]
    homs, compose, tau = {}, {}, {}
    for i, j in product(range(n), repeat=2):
        kleisli_homs = M.homs_into(j, i)
        homs[(i, j)] = tuple(f"k{t}" for t in range(len(kleisli_homs)))
        tau[(i, j)] = tuple(composite_positions(
            hom_list(M.objects[j], M.objects[i]), units[i], kleisli_homs))
        mult = [flat_table(mf) for mf in M.mult[(j, i)]]
        for k in range(n):
            gs, into = M.homs_into(k, j), M.homs_into(k, i)
            compose[(i, j, k)] = tuple(
                tuple(composite_positions(gs, mf, into)) for mf in mult)
    identities = [M.homs_into(i, i).position[units[i]] for i in range(n)]
    return Pretheory(name, M.objects, homs, compose, identities, tau)


def free_pretheory(objects: Sequence[Presheaf], name: str = "free") -> Pretheory:
    """T(J, K) = hom(K, J): the Kleisli pretheory of the identity clone."""
    return pretheory_of_clone(identity_clone(objects), name)


def presentation_of_pretheory(T: Pretheory, name: str | None = None) -> Presentation:
    """Compile a pretheory to a presentation with one symbol per hom pair.

    The symbol for (J, K) has arity J and parameter T(J,K) . K; equations
    express preservation of composition and identities and that the model
    extends precomposition along the structural functor.
    """
    n = len(T.objects)
    symbols = []
    for i, j in product(range(n), repeat=2):
        symbols.append(OperationSymbol(
            f"m{i}_{j}", T.objects[i],
            copower(T.hom_count(i, j), T.objects[j])))
    sig = FreeFormSignature(name or f"preth[{T.name}]", symbols)
    idx = sig.index
    equations = []
    for k in range(n):
        K = T.objects[k]
        vass = var_assignment(sig, K)

        def lhs(sort, x, k=k, K=K, vass=vass):
            c = T.identities[k] * K.size(sort) + x
            return app(sig, f"m{k}_{k}", vass.rows, sort, c, K)

        equations.append(Equation(
            f"id{k}",
            param_term_from_map(sig, K, K, lhs),
            param_term_from_map(sig, K, K, lambda sort, x: var(sig, sort, x)),
        ))
    for i, j, k in product(range(n), repeat=3):
        J, K, L = T.objects[i], T.objects[j], T.objects[k]
        npairs = T.hom_count(i, j) * T.hom_count(j, k)
        parameter = copower(npairs, L)
        vi = var_assignment(sig, J)

        def lhs(sort, z, i=i, j=j, k=k, L=L):
            pair, x = divmod(z, L.size(sort))
            f, g = divmod(pair, T.hom_count(j, k))
            c = T.comp(i, j, k, f, g) * L.size(sort) + x
            return app(sig, f"m{i}_{k}", vi.rows, sort, c, J)

        def rhs(sort, z, i=i, j=j, k=k, K=K, L=L):
            pair, x = divmod(z, L.size(sort))
            f, g = divmod(pair, T.hom_count(j, k))
            rows = tuple(
                tuple(
                    app(sig, f"m{i}_{j}", vi.rows, bsort,
                        f * K.size(bsort) + y, J)
                    for y in K.elements(bsort))
                for bsort in idx.sorts)
            c = g * L.size(sort) + x
            return app(sig, f"m{j}_{k}", rows, sort, c, J)

        equations.append(Equation(
            f"comp{i}_{j}_{k}",
            param_term_from_map(sig, J, parameter, lhs),
            param_term_from_map(sig, J, parameter, rhs),
        ))
    for i, j in product(range(n), repeat=2):
        J, K = T.objects[i], T.objects[j]
        homs_ji = T.c_homs(j, i)
        parameter = copower(len(homs_ji), K)

        def lhs(sort, z, i=i, j=j, K=K, homs_ji=homs_ji):
            xi, y = divmod(z, K.size(sort))
            vi = var_assignment(sig, J)
            c = T.tau[(i, j)][xi] * K.size(sort) + y
            return app(sig, f"m{i}_{j}", vi.rows, sort, c, J)

        def rhs(sort, z, j=j, K=K, homs_ji=homs_ji):
            xi, y = divmod(z, K.size(sort))
            return var(sig, sort, homs_ji[xi](sort, y))

        equations.append(Equation(
            f"nerve{i}_{j}",
            param_term_from_map(sig, J, parameter, lhs),
            param_term_from_map(sig, J, parameter, rhs),
        ))
    return Presentation(name or f"preth[{T.name}]", sig, equations)


def model_as_algebra(P: Presentation, M: ConcreteModel) -> Algebra:
    """Read a concrete model as an algebra of the compiled presentation: the
    value of ``m{i}_{j}`` at the h-th family is, on the summand of the token
    t, the family that t's action takes h to."""
    T = M.pretheory
    n = len(T.objects)
    values = {}
    for i, j in product(range(n), repeat=2):
        sym = P.signature.symbol(f"m{i}_{j}")
        homs_j, tables = M.homs(j), M.action[(i, j)]
        values[sym.name] = [PresheafMorphism(sym.parameter, M.carrier, tuple(
            tuple(homs_j[table[hi]].components[si][y]
                  for table in tables for y in range(k))
            for si, k in enumerate(T.objects[j].sizes)))
            for hi in range(len(M.homs(i)))]
    return Algebra(P.signature, M.carrier, values)


def algebra_as_model(T: Pretheory, A: Algebra) -> ConcreteModel:
    """Read an algebra of the compiled presentation as a concrete model."""
    n = len(T.objects)
    action = {}
    for i, j in product(range(n), repeat=2):
        name, K = f"m{i}_{j}", T.objects[j]
        position = A.homs_from(K).position
        values = [flat_table(g) for g in A.values[name]]
        C = A.signature.symbol(name).parameter
        tables = []
        for t in range(T.hom_count(i, j)):
            # a natural map restricted to the summand t is natural
            summand = gather(tuple(
                C.offset(s) + t * K.size(s) + y
                for s in K.index.sorts for y in K.elements(s)))
            tables.append(tuple(position[summand(g)] for g in values))
        action[(i, j)] = tables
    return ConcreteModel(T, A.carrier, action)


def kleisli_pretheory(P: Presentation, objects: Sequence[Presheaf],
                      depth: int) -> Pretheory | None:
    """Hom tokens are families into the free algebras; None if unsaturated.

    T(J, K) enumerates hom(K, T_P J): this is the Kleisli pretheory of
    ``clone_of_presentation``, which has checked the relative-monad laws on
    the same tables, so the result is not checked again.  With "f then g"
    = g;m(f), the unit laws m(e) = id and e;m(f) = f give the identity laws;
    m(g;m(f)) = m(g);m(f) gives associativity; tau(x) = x;e sends the
    identity to e, and e;m(x;e) = x;e gives tau(x) then tau(y) = tau(y;x).
    """
    M = clone_of_presentation(P, objects, depth)
    return None if M is None else pretheory_of_clone(M, f"kleisli[{P.name}]")


def _kleisli_laws(M: RelativeMonad, quotients: Sequence[FreeAlgebra],
                  sig: FreeFormSignature) -> list[Equation]:
    """Equations over ``sig`` that every concrete model's algebra satisfies,
    on the free classes' representative terms (rep), at each class c of
    H J_j that a token g reaches at some x, where the forced action reads
    alpha_j: composition at (f, g), rep(m(f)(c)) = rep(c)[y := rep(f(y))]
    over J_i, whose sides denote those of the model's law at x under each
    phi; and naturality of alpha_j(phi), rep(c.u) = act(u, rep(c)) over J_j.
    Each is stated once, on the representable at its sort; one with
    identical sides or with a term that does not fit is left out."""
    n = len(M.objects)
    reps = [[Q.rep_term(s, c) for s in Q.index.sorts
             for c in Q.classes.elements(s)] for Q in quotients]
    pending: dict[tuple, None] = {}  # (i, lhs, rhs), in first order
    for j, (J, Q) in enumerate(zip(M.objects, quotients)):
        reached = sorted({c for k in range(n)
                          for table in M.homs_into(k, j).position for c in table})
        for c in reached:
            sort = reps[j][c].sort
            for u, src, tgt in Q.index.morphisms:
                if src == sort and u not in Q.index.identities:
                    image = Q.classes.offset(tgt) + Q.act_class(
                        u, c - Q.classes.offset(sort))
                    pending[(j, reps[j][image], act(sig, J, u, reps[j][c]))] = None
        for i in range(n):
            for f, mf in zip(M.homs_into(j, i).position,
                             map(flat_table, M.mult[(j, i)])):
                try:
                    phi = Assignment(sig, J, M.objects[i], tuple(
                        tuple(reps[i][y] for y in f[J.offset(s):][:J.size(s)])
                        for s in J.index.sorts))
                except StructureError:
                    continue
                for c in reached:
                    with suppress(StructureError):
                        pending[(i, reps[i][mf[c]],
                                 substitute(sig, reps[j][c], phi))] = None
    laws = []
    for i, lhs, rhs in (key for key in pending if key[1] is not key[2]):
        J, (Y, labels) = M.objects[i], representable(M.objects[i].index, lhs.sort)
        with suppress(StructureError):
            laws.append(Equation(f"law{len(laws)}", *(
                param_term_from_map(sig, J, Y, lambda b, e, t=t: act(
                    sig, J, labels[Y.offset(b) + e], t)) for t in (lhs, rhs))))
    return laws


def kleisli_models(P: Presentation, objects: Sequence[Presheaf], depth: int,
                   max_size: int) -> list[tuple[Algebra, ConcreteModel]] | None:
    """The concrete models of ``kleisli_pretheory(P, objects, depth)`` with
    at most ``max_size`` elements per sort, with their signature algebras,
    in ``enumerate_algebras(P.signature, max_size)`` order; None if a free
    algebra fails to saturate.

    A model's action is forced by its tables: the token g in hom(J_j, H J_i)
    sends phi to "g then alpha_i(phi)", where alpha_i(phi) : H J_i -> A
    interprets each free class under phi.  One model search lists the
    signature algebras that satisfy ``_kleisli_laws``, as every model does,
    and each one's forced action is kept if it passes the full model check.
    The laws do not ask alpha_i(phi) to be a homomorphism: for s(x, y) = x
    over arities 1, 2, all 18 tables of size <= 2 are models, not P's 3.
    """
    got = _clone_and_free_algebras(P, objects, depth)
    if got is None:
        return None
    M, quotients = got
    n, T = len(M.objects), pretheory_of_clone(M, f"kleisli[{P.name}]")
    laws = Presentation(f"laws[{P.name}]", P.signature,
                        _kleisli_laws(M, quotients, P.signature))
    out = []
    for A in enumerate_algebras(laws, max_size):
        alphas, action = [Q.class_values(A) for Q in quotients], {}
        try:
            for i, j in product(range(n), repeat=2):
                tokens, into = M.homs_into(j, i), hom_list(M.objects[j], A.carrier)
                rows = [tuple(composite_positions(tokens, alpha, into))
                        for alpha in alphas[i]]
                action[(i, j)] = list(zip(*rows)) if rows else [()] * len(tokens)
        except KeyError:  # some alpha_i(phi) is not natural: no action
            continue
        model = ConcreteModel(T, A.carrier, action)
        if not check_concrete_model(model, first_only=True):
            out.append((A, model))
    return out
