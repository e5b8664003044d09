"""The satisfaction Galois connection between algebras and parametrized
equations, restricted to an explicit finite window.

The window fixes a carrier size bound, a term depth bound, a set of
generator parameters, and an arity list; equation candidates are pairs of
natural families from a generator into the depth-bounded term presheaf.
A theory is a partition of each block of families, met by an algebra whose
kernel agrees on one spanning pair per merge; ``Equation`` lists exist only
at the API edge.
Every result is relative to the window: nothing here claims anything about
the unbounded connection, and reports carry the scale so a finite run is
never mistaken for a theorem.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Sequence

from .base import (
    Presheaf,
    StructureError,
    enumerate_families,
    hom_set,
)
from .syntax import (
    Equation,
    FreeFormSignature,
    ParamTerm,
    enumerate_terms,
    precompose_equation,
)
from .algebra import (
    DEFAULT_CEILING,
    Algebra,
    enumerate_algebras,
    interpretation_table,
    satisfies,
)


class ScaleError(StructureError):
    """An input lies outside the declared finite window."""


@dataclass(frozen=True)
class GaloisScale:
    """Finite window: carrier bound, term depth, generators, arity list."""

    size: int
    depth: int
    generators: tuple[Presheaf, ...]
    arities: tuple[Presheaf, ...] = ()

    def __post_init__(self):
        if self.size < 0 or self.depth < 0:
            raise StructureError("scale bounds must be nonnegative")
        if not self.generators:
            raise StructureError("scale needs at least one generator object")


class BirkhoffWindow:
    """All Galois-connection computations for one signature at one scale."""

    def __init__(self, signature: FreeFormSignature, scale: GaloisScale,
                 ceiling: int = DEFAULT_CEILING):
        self.signature = signature
        self.scale = scale
        self.ceiling = ceiling
        arities = scale.arities
        if not arities:
            seen: list[Presheaf] = []
            for sym in signature.symbols:
                if sym.arity not in seen:
                    seen.append(sym.arity)
            arities = tuple(seen)
        self.arities = arities
        self._param_terms: dict[tuple[int, int], list[ParamTerm]] = {}
        self._algebras: list[Algebra] | None = None
        self._kernels: dict[Algebra, list[int]] = {}
        self._algebra_keys: set[tuple] | None = None

    # -- window construction -------------------------------------------------

    def param_terms(self, ai: int, gi: int) -> list[ParamTerm]:
        """Natural families from a generator into the truncated terms."""
        got = self._param_terms.get((ai, gi))
        if got is None:
            uni = enumerate_terms(
                self.signature, self.arities[ai], self.scale.depth)
            G = self.scale.generators[gi]
            fams = enumerate_families(
                G, lambda sort, x: uni.terms(sort), uni.act)
            got = [
                ParamTerm(self.signature, self.arities[ai], G, rows)
                for rows in fams]
            self._param_terms[ai, gi] = got
        return got

    def equation_window(self) -> list[Equation]:
        """All candidate equations at scale: unordered pairs, deduplicated.

        Window equations are known by identity; their ``w[ai,gi,i,j]`` names
        are for display only.  ``sat_lower_g`` returns members of this list,
        and ``check_galois_laws`` accepts no other equations.
        """
        return list(self._window)

    @cached_property
    def _window(self) -> dict[Equation, tuple[int, int]]:
        """Each window equation, keyed by identity, to the positions of its
        two sides in a kernel (see ``_kernel``)."""
        out, start = {}, 0
        for ai in range(len(self.arities)):
            for gi in range(len(self.scale.generators)):
                pts = self.param_terms(ai, gi)
                for i in range(len(pts)):
                    for j in range(i + 1, len(pts)):
                        eq = Equation(f"w[{ai},{gi},{i},{j}]", pts[i], pts[j])
                        out[eq] = (start + i, start + j)
                start += len(pts)
        return out

    def algebras(self) -> list[Algebra]:
        if self._algebras is None:
            self._algebras = enumerate_algebras(
                self.signature, self.scale.size, ceiling=self.ceiling)
        return self._algebras

    # -- the two polarities ----------------------------------------------------

    def _kernel(self, A: Algebra) -> list[int]:
        """A class id per window parametrized term, block by block (arity,
        then generator): two terms of a block have equal ids iff A equates
        them.  Cached per algebra object."""
        got = self._kernels.get(A)
        if got is None:
            self._require_signature(A)
            ids: dict[tuple, int] = {}
            got = []
            for ai, J in enumerate(self.arities):
                table = interpretation_table(A, J, self.scale.depth)
                for gi in range(len(self.scale.generators)):
                    got += [ids.setdefault(
                        tuple(tuple(table[t] for t in row) for row in pt.rows),
                        len(ids)) for pt in self.param_terms(ai, gi)]
            self._kernels[A] = got
        return got

    @cached_property
    def _blocks(self) -> list[int]:
        """The block (arity, then generator) of each kernel position."""
        n = len(self.scale.generators)
        return [ai * n + gi for ai in range(len(self.arities)) for gi in range(n)
                for _ in self.param_terms(ai, gi)]

    def _meet(self, algebras: Sequence[Algebra]) -> list[tuple]:
        """The algebras' theory: a label per kernel position, its block (class
        ids are shared across blocks) and its class id in each kernel."""
        return list(zip(self._blocks, *map(self._kernel, algebras)))

    def _models(self, pairs: list, others: Sequence = ()) -> list[Algebra]:
        """The window algebras whose kernels agree at each spanning pair and
        that satisfy every equation in others."""
        algebras = self.algebras()
        if pairs:
            left, right = (itemgetter(*side) for side in zip(*pairs))
            algebras = [A for A in algebras
                        if left(k := self._kernel(A)) == right(k)]
        return [A for A in algebras if all(satisfies(A, eq) for eq in others)]

    def sat_star(self, E: Sequence[Equation]) -> list[Algebra]:
        """All window algebras satisfying every equation in E: a union-find
        over window equations keeps each merge's pair; others are checked."""
        root: dict[int, int] = {}
        pairs, others = [], []
        for eq in E:
            at = self._window.get(eq)
            if at is None:
                others.append(eq)
                continue
            i, j = at
            while i in root:
                i = root[i]
            while j in root:
                j = root[j]
            if i != j:
                root[i] = j
                pairs.append(at)
        return self._models(pairs, others)

    def sat_lower_g(self, algebras: Sequence[Algebra]) -> list[Equation]:
        """All window equations satisfied by every algebra in the set (the
        whole window for the empty set): the pairs in one class of the meet."""
        lower = self._meet(algebras)
        return [eq for eq, (i, j) in self._window.items()
                if lower[i] == lower[j]]

    def variety_generated(self, algebras: Sequence[Algebra]) -> list[Algebra]:
        return self._models(_spanning(self._meet(algebras)))

    def theory_generated(self, E: Sequence[Equation]) -> list[Equation]:
        return self.sat_lower_g(self.sat_star(E))

    # -- law checking ------------------------------------------------------------

    def _require_signature(self, A: Algebra):
        if A.signature is not self.signature:
            raise ScaleError(f"algebra over signature {A.signature.name}, "
                             f"not the window's {self.signature.name}")

    def require_window_algebras(self, algebras: Sequence[Algebra]):
        """Raise :class:`ScaleError` unless every algebra is a window algebra:
        one over the window's signature, equal to one the window lists (the
        only place where algebras are compared by structure)."""
        if self._algebra_keys is None:
            self._algebra_keys = {A.canonical_key() for A in self.algebras()}
        for A in algebras:
            self._require_signature(A)
            if A.canonical_key() not in self._algebra_keys:
                raise ScaleError("algebra outside the window scale")

    def check_galois_laws(self, E: Sequence[Equation],
                          algebras: Sequence[Algebra]) -> tuple[bool, list[str]]:
        """Adjunction, triple laws, and closure idempotence at this scale."""
        for eq in E:
            if eq not in self._window:
                raise ScaleError(f"equation {eq.name} is outside the window")
        self.require_window_algebras(algebras)
        scale_tag = (f"scale=({self.scale.size},{self.scale.depth},"
                     f"{len(self.scale.generators)})")
        lines = []
        ok_all = True

        def record(name: str, ok: bool, witness: str = "-"):
            nonlocal ok_all
            ok_all = ok_all and ok
            lines.append(
                f"LAW {name} {'OK' if ok else 'FAIL'} witness={witness} {scale_tag}")

        left = all(satisfies(A, eq) for A in algebras for eq in E)
        lower = self._meet(algebras)
        right = all(lower[i] == lower[j] for i, j in map(self._window.get, E))
        record("adjunction", left == right, f"left={left},right={right}")

        # algebras compare by identity, theories by their ``_spanning`` pairs
        sat_e = self.sat_star(E)
        te = _spanning(self._meet(sat_e))
        tri1 = self._models(te)
        record("triple-algebras", set(tri1) == set(sat_e))
        low = _spanning(lower)
        va = self._models(low)
        record("triple-equations", _spanning(self._meet(va)) == low)
        vva = self.variety_generated(va)
        record("variety-idempotent", set(va) == set(vva))
        record("theory-idempotent", _spanning(self._meet(tri1)) == te)
        return ok_all, lines


def _spanning(labels: Sequence) -> list[tuple[int, int]]:
    """Spanning pairs of the labels' partition: each position paired with
    the first position of its class, so equal iff the partitions are."""
    first: dict = {}
    pairs = [(first.setdefault(label, p), p) for p, label in enumerate(labels)]
    return [(rep, p) for rep, p in pairs if rep != p]


def restrict_to_generators(equations: Sequence[Equation],
                           generators: Sequence[Presheaf]) -> list[Equation]:
    """All precompositions of the equations along maps from the generators."""
    out = []
    for eq in equations:
        for gi, G in enumerate(generators):
            for xi, x in enumerate(hom_set(G, eq.parameter)):
                out.append(precompose_equation(
                    eq, x, name=f"{eq.name}|{gi}:{xi}"))
    return out
