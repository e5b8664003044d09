"""Relative monads on a finite family of arity objects, their algebras,
the standardized presentation, and extraction from a presentation.

A relative monad here is the finite data (H, e, m): one carrier presheaf HJ
per arity object J, a unit J -> HJ, and a substitution map taking each
family J -> HK to a family HJ -> HK.  All three laws are checked by
exhaustion and every violation carries a concrete witness.

The law checks run on flat integer tables (``base.flat_table``): a hom is
its flat table or its position in the shared ``hom_list``, and the
substitution laws are checked one family f at a time over every g at once.
``composite_positions`` finds "g then f" for all g in one C-level pass over
the hom list's concatenated tables; the two sides of a law are then two flat
tuples, compared once, and only a mismatch is cut into rows to name its
witnesses.  No ``PresheafMorphism`` is built or composed.

Associativity is decided before it is listed.  Write A(i; x) for
"associativity holds at x in H J_i for every j, k, g and h".  Two facts hold
element by element, so over graph indexes too:

1. If the right-unit law holds everywhere, A(i; e_i(v)) holds: both sides
   reduce to (m(h) after g)(v).
2. If A(l; x') holds, and A(i; s(v)) holds for every element v of J_l, then
   A(i; m_li(s)(x')) holds for s : J_l -> H J_i.  Apply A(l; x') in the
   blocks (l, i, k), (l, i, j) and (l, j, k), then A(i; s(v)) at each v.

So once the unit loops find no right-unit violation, each carrier's proven
set starts as its unit image and is closed under fact 2.  Where the closure
stalls, the object with the fewest (g, h) pairs has its least unproven
element checked directly, and the closure runs again; if it stalls at that
object a second time, all of the object's unproven elements are checked at
once.  A lawful monad is proven without listing anything.  If a direct check
fails, the full associativity loop runs over each i whose carrier was not
proven at every element; no violation (i, j, k, g, h) exists at the others.
It is the only code that lists violations, so their order and
``first_only`` do not depend on the proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
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
    identity_morphism,
)
from .syntax import (
    Equation,
    FreeFormSignature,
    OperationSymbol,
    app,
    param_term_from_map,
    var,
    var_assignment,
)
from .presentation import FreeAlgebra, Presentation, free_algebra


@dataclass(frozen=True, eq=False)
class Violation:
    law: str
    witness: tuple

    def __repr__(self):
        return f"{self.law} at {self.witness}"


class RelativeMonad:
    """The triple (H, e, m) over an explicit finite list of arity objects."""

    def __init__(
        self,
        name: str,
        objects: Sequence[Presheaf],
        carriers: Sequence[Presheaf],
        unit: Sequence[PresheafMorphism],
        mult: dict[tuple[int, int], Sequence[PresheafMorphism]],
    ):
        self.name = name
        self.objects = tuple(objects)
        self.carriers = tuple(carriers)
        self.unit = tuple(unit)
        if len(self.carriers) != len(self.objects):
            raise StructureError("one carrier per arity object required")
        if len(self.unit) != len(self.objects):
            raise StructureError("one unit component per arity object required")
        for J, HJ, e in zip(self.objects, self.carriers, self.unit):
            if e.source != J or e.target != HJ:
                raise StructureError("unit component has wrong endpoints")
        self.mult = {}
        for i, j in product(range(len(self.objects)), repeat=2):
            homs = self.homs_into(i, j)
            try:
                values = tuple(mult[(i, j)])
            except KeyError:
                raise StructureError(f"missing substitution table for {(i, j)}")
            if len(values) != len(homs):
                raise StructureError(
                    f"substitution table {(i, j)} must cover hom({i}, H{j})")
            for g in values:
                if g.source != self.carriers[i] or g.target != self.carriers[j]:
                    raise StructureError(
                        f"substitution value in {(i, j)} has wrong endpoints")
            self.mult[(i, j)] = values
        for key in mult:
            if key not in self.mult:
                raise StructureError(f"substitution table {key!r} is keyed "
                                     "outside the arity objects")

    def homs_into(self, i: int, j: int) -> HomList:
        """hom(J_i, H J_j) in canonical order."""
        return hom_list(self.objects[i], self.carriers[j])

    def m(self, i: int, j: int, g: PresheafMorphism) -> PresheafMorphism:
        return self.mult[(i, j)][self.homs_into(i, j).position[flat_table(g)]]

    def __repr__(self):  # pragma: no cover - debugging aid
        return (f"RelativeMonad({self.name}, "
                f"sizes={[c.sizes for c in self.carriers]})")


def check_relative_monad(M: RelativeMonad,
                         first_only: bool = False) -> list[Violation]:
    """All failures of the unit and associativity diagrams, with witnesses.

    ``first_only`` stops at the first violation; mutation sweeps only need
    to know that one exists.  When the right-unit law holds, associativity
    is first proven from a generating set of each carrier (facts 1 and 2 of
    the module docstring); the full associativity loop runs only when that
    proof is not reached, that is, when a right-unit violation was found or
    a direct check failed, and then only over the objects not proven.
    """
    out: list[Violation] = []
    n = len(M.objects)
    unit = [flat_table(e) for e in M.unit]
    flat = {key: [flat_table(mg) for mg in values]
            for key, values in M.mult.items()}
    for j in range(n):
        mj = flat[(j, j)][M.homs_into(j, j).position[unit[j]]]
        if mj != tuple(range(M.carriers[j].total_size)):
            out.append(Violation("left-unit", (j,)))
            if first_only:
                return out
    for i in range(n):
        after_unit = gather(unit[i])
        for j in range(n):
            for gi, (g, mg) in enumerate(zip(M.homs_into(i, j).position,
                                             flat[(i, j)])):
                if after_unit(mg) != g:
                    out.append(Violation("right-unit", (i, j, gi)))
                    if first_only:
                        return out
    proven = (_proven_objects(M, unit, flat)
              if all(v.law != "right-unit" for v in out) else set())
    if len(proven) == n:
        return out
    return _associativity_violations(M, flat, out, first_only, proven)


def _associativity_violations(M: RelativeMonad, flat, out: list[Violation],
                              first_only: bool,
                              proven: set[int]) -> list[Violation]:
    """``out`` followed by every associativity violation, in the order
    (i, j, k, g, h).  Associativity holds at every element of H J_i for each
    i in ``proven``, so those i are skipped."""
    n = len(M.objects)
    for i in range(n):
        if i in proven:
            continue
        width = M.carriers[i].total_size
        for j in range(n):
            homs = M.homs_into(i, j)
            substituted = gather(tuple(chain.from_iterable(flat[(i, j)])))
            for k in range(n):
                into, mik = M.homs_into(i, k), flat[(i, k)]
                # m(g then m(h)) against m(g) then m(h), every g per h;
                # sorted, the pairs are in the order g, then h
                bad = sorted(
                    (gi, hi) for hi, mh in enumerate(flat[(j, k)])
                    for gi in _substitution_failures(
                        homs, substituted, mh, into, mik, width))
                for gi, hi in bad:
                    out.append(Violation("associativity", (i, j, k, gi, hi)))
                    if first_only:
                        return out
    return out


def _proven_objects(M: RelativeMonad, unit, flat) -> set[int]:
    """The i such that associativity is proven at every element of H J_i;
    all of them unless some associativity violation exists.

    Call only when the right-unit law holds everywhere.  Each proven set
    starts as its unit image (fact 1) and is closed under substitution (fact
    2).  When the closure stalls, the object with the fewest (g, h) pairs has
    its least unproven element checked directly; the second time it stalls,
    all its unproven elements are.  So each object has at most one
    single-element and one batch check.  The proof stops at the first direct
    check that fails, and the objects proven by then are returned.
    """
    n = len(M.objects)
    homs = {key: M.homs_into(*key) for key in product(range(n), repeat=2)}
    sizes = [H.total_size for H in M.carriers]
    proven = [set(e) for e in unit]
    cost = [sum(len(homs[i, j]) * sum(len(homs[j, k]) for k in range(n))
                for j in range(n)) for i in range(n)]
    order = sorted(range(n), key=cost.__getitem__)
    stalled_once: set[int] = set()
    while True:
        _close_under_substitution(proven, homs, flat)
        stalled = [i for i in order if len(proven[i]) < sizes[i]]
        if not stalled:
            return set(range(n))
        i = stalled[0]
        columns = [x for x in range(sizes[i]) if x not in proven[i]]
        if i not in stalled_once:
            stalled_once.add(i)
            columns = columns[:1]
        if not _associative_at(M, homs, flat, i, columns):
            return {l for l in range(n) if len(proven[l]) == sizes[l]}
        proven[i].update(columns)


def _close_under_substitution(proven: list[set[int]], homs, flat) -> None:
    """Grow the proven sets by fact 2 until a sweep adds nothing: for each
    s : J_l -> H J_i whose entries are all proven, the value of m(s) at each
    proven x' of H J_l.  A block is swept again only once either of its
    two proven sets has grown."""
    swept: dict[tuple[int, int], tuple[int, int]] = {}
    grew = True
    while grew:
        grew = False
        for (l, i), listing in homs.items():
            state = (len(proven[l]), len(proven[i]))
            if not state[0] or swept.get((l, i)) == state:
                continue
            swept[(l, i)] = state
            into = proven[i]
            at = gather(tuple(proven[l]))
            for s, ms in zip(listing.position, flat[(l, i)]):
                if into.issuperset(s):
                    into.update(at(ms))
            grew |= len(into) > state[1]


def _associative_at(M: RelativeMonad, homs, flat, i: int,
                    columns: list[int]) -> bool:
    """Whether associativity holds at the ``columns`` of H J_i for every j,
    k, g and h: the full loop's comparison on tables cut to those columns."""
    n = len(M.objects)
    cut = gather(columns)
    values = [[cut(t) for t in flat[(i, k)]] for k in range(n)]
    for j in range(n):
        substituted = gather(tuple(chain.from_iterable(values[j])))
        for k in range(n):
            for mh in flat[(j, k)]:
                if _substitution_failures(homs[i, j], substituted, mh,
                                          homs[i, k], values[k], len(columns)):
                    return False
    return True


def _substitution_failures(homs, substituted, f, into, values, width) -> list[int]:
    """The positions of the g in ``homs`` where "g then f" has the wrong value.

    ``values`` lists the flat tables of the values at ``into``, and
    ``substituted`` gathers the concatenated flat tables of the m(g), each
    ``width`` long; the law asks that the value at "g then f" be "m(g) then
    f".  Both sides are built for all g at once and compared once.
    """
    lhs = tuple(chain.from_iterable(
        map(values.__getitem__, composite_positions(homs, f, into))))
    rhs = substituted(f)
    if lhs == rhs:
        return []
    return [gi for gi, start in enumerate(range(0, len(lhs), width))
            if lhs[start:start + width] != rhs[start:start + width]]


class HAlgebraStructure:
    """A carrier with one extension operator per arity object."""

    def __init__(self, M: RelativeMonad, carrier: Presheaf,
                 alpha: Sequence[Sequence[PresheafMorphism]]):
        self.monad = M
        self.carrier = carrier
        self.alpha = []
        for i, values in enumerate(alpha):
            homs = self.homs(i)
            values = tuple(values)
            if len(values) != len(homs):
                raise StructureError(
                    f"alpha_{i} must cover hom(J_{i}, carrier)")
            for g in values:
                if g.source != M.carriers[i] or g.target != carrier:
                    raise StructureError(f"alpha_{i} value has wrong endpoints")
            self.alpha.append(values)
        if len(self.alpha) != len(M.objects):
            raise StructureError("one alpha per arity object required")

    def homs(self, i: int) -> HomList:
        return hom_list(self.monad.objects[i], self.carrier)


def check_h_algebra(M: RelativeMonad, struct: HAlgebraStructure) -> list[Violation]:
    """Failures of the unit and substitution laws for an algebra structure."""
    out: list[Violation] = []
    n = len(M.objects)
    homs = [struct.homs(i) for i in range(n)]
    alpha = [[flat_table(f) for f in values] for values in struct.alpha]
    for i in range(n):
        after_unit = gather(flat_table(M.unit[i]))
        for pi, (phi, aphi) in enumerate(zip(homs[i].position, alpha[i])):
            if after_unit(aphi) != phi:
                out.append(Violation("alg-unit", (i, pi)))
    for i in range(n):
        width = M.carriers[i].total_size
        for j in range(n):
            substituted = gather(tuple(chain.from_iterable(
                map(flat_table, M.mult[(i, j)]))))
            for pj, aphi in enumerate(alpha[j]):
                for gi in _substitution_failures(M.homs_into(i, j), substituted,
                                                 aphi, homs[i], alpha[i], width):
                    out.append(Violation("alg-subst", (i, j, pj, gi)))
    return out


def standardized_presentation(M: RelativeMonad, name: str | None = None) -> Presentation:
    """One extension symbol per arity object, with unit and substitution laws.

    The symbol for J has arity J and parameter HJ; substitution laws are
    stated with parameter hom(J, HK) . HJ, materialized as a copower.
    """
    symbols = [
        OperationSymbol(f"alpha{i}", J, HJ)
        for i, (J, HJ) in enumerate(zip(M.objects, M.carriers))]
    sig = FreeFormSignature(name or f"std[{M.name}]", symbols)
    idx = sig.index
    equations: list[Equation] = []
    for i, J in enumerate(M.objects):
        vass = var_assignment(sig, J)

        def unit_side(sort: str, j: int, i=i, vass=vass):
            return app(sig, f"alpha{i}", vass.rows, sort,
                       M.unit[i](sort, j), M.objects[i])

        equations.append(Equation(
            f"unit{i}",
            param_term_from_map(sig, J, J, unit_side),
            param_term_from_map(sig, J, J,
                                lambda sort, j: var(sig, sort, j)),
        ))
    for i, j in product(range(len(M.objects)), repeat=2):
        homs = M.homs_into(i, j)
        HJ = M.carriers[i]
        parameter = copower(len(homs), HJ)
        vj = var_assignment(sig, M.objects[j])

        def lhs(sort: str, z: int, i=i, j=j, homs=homs, HJ=HJ, vj=vj):
            gi, w = z // HJ.size(sort), z % HJ.size(sort)
            return app(sig, f"alpha{j}", vj.rows, sort,
                       M.mult[(i, j)][gi](sort, w), M.objects[j])

        def rhs(sort: str, z: int, i=i, j=j, homs=homs, HJ=HJ, vj=vj):
            gi, w = z // HJ.size(sort), z % HJ.size(sort)
            g = homs[gi]
            rows = tuple(
                tuple(
                    app(sig, f"alpha{j}", vj.rows, bsort, g(bsort, y),
                        M.objects[j])
                    for y in M.objects[i].elements(bsort))
                for bsort in idx.sorts)
            return app(sig, f"alpha{i}", rows, sort, w, M.objects[j])

        equations.append(Equation(
            f"subst{i}_{j}",
            param_term_from_map(sig, M.objects[j], parameter, lhs),
            param_term_from_map(sig, M.objects[j], parameter, rhs),
        ))
    return Presentation(name or f"std[{M.name}]", sig, equations)


def h_algebra_as_algebra(P: Presentation, struct: HAlgebraStructure):
    """The same data read as an algebra of the standardized presentation."""
    from .algebra import Algebra
    values = {
        f"alpha{i}": tuple(struct.alpha[i])
        for i in range(len(struct.monad.objects))}
    return Algebra(P.signature, struct.carrier, values)


def algebra_as_h_structure(M: RelativeMonad, A) -> HAlgebraStructure:
    """Read an algebra of the standardized presentation as (A, alpha)."""
    # an algebra lists its values in the order of its input families
    alpha = [A.values[f"alpha{i}"] for i in range(len(M.objects))]
    return HAlgebraStructure(M, A.carrier, alpha)


def clone_of_presentation(
    P: Presentation, objects: Sequence[Presheaf], depth: int,
) -> RelativeMonad | None:
    """The relative monad of saturated free algebras, or None if any
    generator fails to saturate at this depth."""
    got = _clone_and_free_algebras(P, objects, depth)
    return None if got is None else got[0]


def _clone_and_free_algebras(
    P: Presentation, objects: Sequence[Presheaf], depth: int,
) -> tuple[RelativeMonad, list[FreeAlgebra]] | None:
    """``clone_of_presentation`` with the free algebra on each arity."""
    quotients: list[FreeAlgebra] = []
    for J in objects:
        Q = free_algebra(P, J, depth)
        if not Q.saturated:
            return None
        quotients.append(Q)
    carriers = [Q.classes for Q in quotients]
    unit = [Q.unit() for Q in quotients]
    mult: dict[tuple[int, int], list[PresheafMorphism]] = {}
    idx = P.signature.index
    algebras = [Q.as_algebra() for Q in quotients]
    for i, (X, Qi) in enumerate(zip(carriers, quotients)):
        for j, (Y, Aj) in enumerate(zip(carriers, algebras)):
            # m(g) for each g : J_i -> Y in listing order, split into sorts
            mult[(i, j)] = [PresheafMorphism(X, Y, tuple(
                tuple(v - Y.offset(s)
                      for v in flat[X.offset(s):X.offset(s) + X.size(s)])
                for s in idx.sorts)) for flat in Qi.class_values(Aj)]
    M = RelativeMonad(f"clone[{P.name}]", objects, carriers, unit, mult)
    bad = check_relative_monad(M, first_only=True)
    if bad:
        raise StructureError(f"extracted clone violates monad laws: {bad[0]}")
    return M, quotients


def identity_clone(objects: Sequence[Presheaf], name: str = "identity") -> RelativeMonad:
    """HJ = J with unit and substitution the identities."""
    objects = tuple(objects)
    mult = {}
    for i, J in enumerate(objects):
        for j, K in enumerate(objects):
            mult[(i, j)] = list(hom_list(J, K))
    return RelativeMonad(
        name, objects, objects,
        [identity_morphism(J) for J in objects], mult)
