"""Answers the benchmark checks varietal's output against.

Nothing here calls the code under test.  Model counts come from brute-force
enumeration of operation tables written straight from each theory's axioms;
free-algebra class counts and clone sizes come from closed formulas; window
satisfaction comes from an evaluator of our own over the window's terms.
The one library function used, ``catalog.count_category_structures``, is
itself a direct table oracle that shares no code with model search.

Tables over an n-element set are flat tuples: a binary table ``t`` holds
``t[a * n + b]``, the canonical hom order of varietal's files.
"""

from __future__ import annotations

import functools
import itertools

# ---------------------------------------------------------------------------
# Free-algebra class counts


def free_classes(theory: str, k: int) -> int | None:
    """Class count of the free algebra on k generators, None when infinite."""
    if theory == "semilattice":
        return 2 ** k - 1           # nonempty subsets of the generators
    if theory == "globalstate":
        return (2 * k) ** 2         # maps state -> (generator, state), 2 states
    if theory in ("z2mod", "boolmod"):
        return 2 ** k               # Z2^k, and the free bounded semilattice
    if theory == "readbits":
        return k ** 4               # a generator per assignment of two bits
    if theory == "restriction":
        # idempotent medial binary operation: x*y = (x+y)/2 over the rationals
        # is a model, so two generators already give infinitely many classes
        return 1 if k <= 1 else None
    if theory == "monoid":
        return None                 # words over the generators
    raise KeyError(theory)


# ---------------------------------------------------------------------------
# Brute-force model counts (labeled, carriers of size 0..max_size)


def _assoc(t, n) -> bool:
    return all(t[t[a * n + b] * n + c] == t[a * n + t[b * n + c]]
               for a in range(n) for b in range(n) for c in range(n))


def _medial(t, n) -> bool:
    return all(
        t[t[a * n + b] * n + t[c * n + d]] == t[t[a * n + c] * n + t[b * n + d]]
        for a in range(n) for b in range(n) for c in range(n) for d in range(n))


def _idempotent_tables(n):
    off = [(a, b) for a in range(n) for b in range(n) if a != b]
    for choice in itertools.product(range(n), repeat=len(off)):
        t = [0] * (n * n)
        for a in range(n):
            t[a * n + a] = a
        for (a, b), v in zip(off, choice):
            t[a * n + b] = v
        yield tuple(t)


@functools.cache
def semilattice_tables(n: int) -> tuple:
    upper = [(a, b) for a in range(n) for b in range(a + 1, n)]
    out = []
    for choice in itertools.product(range(n), repeat=len(upper)):
        t = [0] * (n * n)
        for a in range(n):
            t[a * n + a] = a
        for (a, b), v in zip(upper, choice):
            t[a * n + b] = t[b * n + a] = v
        if _assoc(t, n):
            out.append(tuple(t))
    return tuple(out)


def semilattices(n: int) -> int:
    return len(semilattice_tables(n))


@functools.cache
def unit_zero_monoids(n: int, commutative: bool = False) -> tuple:
    """Monoid tables on n >= 1 elements whose unit is 0."""
    if commutative:
        cells = [(a, b) for a in range(1, n) for b in range(a, n)]
    else:
        cells = [(a, b) for a in range(1, n) for b in range(1, n)]
    out = []
    for choice in itertools.product(range(n), repeat=len(cells)):
        t = [0] * (n * n)
        for a in range(n):
            t[a] = t[a * n] = a
        for (a, b), v in zip(cells, choice):
            t[a * n + b] = v
            if commutative:
                t[b * n + a] = v
        if _assoc(t, n):
            out.append(tuple(t))
    return tuple(out)


def monoids(n: int) -> int:
    # the unit is unique and relabeling moves it anywhere
    return 0 if n == 0 else n * len(unit_zero_monoids(n, False))


def commutative_monoids(n: int) -> int:
    return 0 if n == 0 else n * len(unit_zero_monoids(n, True))


@functools.cache
def monoid_iso_classes(n: int) -> int:
    if n == 0:
        return 0
    seen = set()
    for t in unit_zero_monoids(n, False):
        forms = []
        for p in itertools.permutations(range(n)):
            q = [0] * n
            for a in range(n):
                q[p[a]] = a
            forms.append(tuple(p[t[q[a] * n + q[b]]]
                               for a in range(n) for b in range(n)))
        seen.add(min(forms))
    return len(seen)


@functools.cache
def restriction_models(n: int) -> int:
    """nu: J=2-ary, idempotent and self-commuting (medial)."""
    if n == 0:
        return 1
    return sum(_medial(t, n) for t in _idempotent_tables(n))


@functools.cache
def _rectangular_bands(n: int) -> tuple:
    # read-idem and read-dup for one bit: x r x = x, (u r v) r (x r y) = u r y
    return tuple(
        t for t in _idempotent_tables(n)
        if all(t[t[u * n + v] * n + t[x * n + y]] == t[u * n + y]
               for u in range(n) for v in range(n)
               for x in range(n) for y in range(n)))


@functools.cache
def readbits_models(n: int) -> int:
    """Two binary reads, one per bit, each a rectangular band, commuting."""
    if n == 0:
        return 1
    bands = _rectangular_bands(n)

    def commute(ra, rb):
        # read-comm: (u rb v) ra (x rb y) == (u ra x) rb (v ra y)
        return all(
            ra[rb[u * n + v] * n + rb[x * n + y]]
            == rb[ra[u * n + x] * n + ra[v * n + y]]
            for u in range(n) for v in range(n)
            for x in range(n) for y in range(n))

    return sum(1 for r0 in bands for r1 in bands
               if commute(r0, r1) and commute(r1, r0)
               and commute(r0, r0) and commute(r1, r1))


def _unary_tables(n):
    return itertools.product(range(n), repeat=n)


@functools.cache
def globalstate_models(n: int) -> int:
    """lookup: binary branch on the stored bit; update_v: unary, v in {0,1}."""
    if n == 0:
        return 1
    count = 0
    for lk in itertools.product(range(n), repeat=n * n):
        # lookup-lookup: lk(lk(a,b), lk(c,d)) == lk(a, d)
        if not all(lk[lk[a * n + b] * n + lk[c * n + d]] == lk[a * n + d]
                   for a in range(n) for b in range(n)
                   for c in range(n) for d in range(n)):
            continue
        for u0 in _unary_tables(n):
            for u1 in _unary_tables(n):
                u = (u0, u1)
                ok = (
                    # lookup-update: lk(u0 x, u1 x) == x
                    all(lk[u0[x] * n + u1[x]] == x for x in range(n))
                    # update-update: the later write wins
                    and all(u[v][u[w][x]] == u[w][x]
                            for v in range(2) for w in range(2)
                            for x in range(n))
                    # update-lookup: u_v(lk(x0, x1)) == u_v(x_v)
                    and all(u[v][lk[x0 * n + x1]] == u[v][(x0, x1)[v]]
                            for v in range(2) for x0 in range(n)
                            for x1 in range(n)))
                count += ok
    return count


_RIGS = {
    # (add, mul) over {0, 1}; zero is 0 and one is 1
    "z2mod": (lambda a, b: a ^ b, lambda a, b: a & b),
    "boolmod": (lambda a, b: a | b, lambda a, b: a & b),
}


@functools.cache
def module_models(rig: str, n: int) -> int:
    """Commutative monoid (plus, zero) with an action smul_r, r in {0, 1}."""
    if n == 0:
        return 0                    # zero is a constant
    radd, rmul = _RIGS[rig]
    count = 0
    for z in range(n):
        for pl in itertools.product(range(n), repeat=n * n):
            if not (all(pl[x * n + z] == x and pl[z * n + x] == x
                        for x in range(n))
                    and all(pl[x * n + y] == pl[y * n + x]
                            for x in range(n) for y in range(n))
                    and _assoc(pl, n)):
                continue
            for s0 in _unary_tables(n):
                for s1 in _unary_tables(n):
                    s = (s0, s1)
                    count += (
                        all(s1[x] == x for x in range(n))              # one
                        and all(s0[x] == z for x in range(n))          # zero
                        and all(s[r][z] == z for r in range(2))
                        and all(s[r][s[q][x]] == s[rmul(r, q)][x]
                                for r in range(2) for q in range(2)
                                for x in range(n))
                        and all(s[radd(r, q)][x] == pl[s[r][x] * n + s[q][x]]
                                for r in range(2) for q in range(2)
                                for x in range(n))
                        and all(s[r][pl[x * n + y]] == pl[s[r][x] * n + s[r][y]]
                                for r in range(2) for x in range(n)
                                for y in range(n)))
    return count


_MODEL_COUNTS = {
    "semilattice": semilattices,
    "monoid": monoids,
    "restriction": restriction_models,
    "readbits": readbits_models,
    "globalstate": globalstate_models,
    "z2mod": functools.partial(module_models, "z2mod"),
    "boolmod": functools.partial(module_models, "boolmod"),
    "commutative-monoid": commutative_monoids,
    "semilattice+monoid": lambda n: semilattices(n) * monoids(n),
}


def model_count(theory: str, max_size: int, iso: bool = False) -> int:
    """Labeled models on carriers of size 0..max_size (iso: up to iso)."""
    if iso:
        if theory != "monoid":
            raise KeyError(theory)
        return sum(monoid_iso_classes(n) for n in range(max_size + 1))
    count = _MODEL_COUNTS[theory]
    return sum(count(n) for n in range(max_size + 1))


# ---------------------------------------------------------------------------
# Equation checks on a binary table (the seeded `varietal check` inputs)


def semilattice_verdicts(t, n) -> dict[str, bool]:
    return {
        "idem": all(t[a * n + a] == a for a in range(n)),
        "comm": all(t[a * n + b] == t[b * n + a]
                    for a in range(n) for b in range(n)),
        "assoc": _assoc(t, n),
    }


def monoid_verdicts(t, unit, n) -> dict[str, bool]:
    return {
        "assoc": _assoc(t, n),
        "unitl": all(t[unit * n + a] == a for a in range(n)),
        "unitr": all(t[a * n + unit] == a for a in range(n)),
    }


# ---------------------------------------------------------------------------
# Birkhoff windows over the one-sorted index


class WindowOracle:
    """Satisfaction in a window, from our own evaluation of its terms.

    Each window parametrized term gets one value vector per algebra, over
    every assignment of the arity into the carrier; an equation holds in an
    algebra exactly when its two sides have equal vectors there.
    """

    def __init__(self, equations, algebras):
        self.equations = list(equations)
        self.algebras = list(algebras)
        terms = {}
        for eq in self.equations:
            terms[id(eq.lhs)] = eq.lhs
            terms[id(eq.rhs)] = eq.rhs
        self.vectors = [
            {key: _pt_vector(A, pt) for key, pt in terms.items()}
            for A in self.algebras]

    def holds(self, ai: int, eq) -> bool:
        vec = self.vectors[ai]
        return vec[id(eq.lhs)] == vec[id(eq.rhs)]

    def sat_star(self, E) -> list[int]:
        return [ai for ai in range(len(self.algebras))
                if all(self.holds(ai, eq) for eq in E)]

    def sat_lower(self, algebra_ids) -> list[int]:
        return [ei for ei, eq in enumerate(self.equations)
                if all(self.holds(ai, eq) for ai in algebra_ids)]

    def variety(self, algebra_ids) -> list[int]:
        E = [self.equations[ei] for ei in self.sat_lower(algebra_ids)]
        return self.sat_star(E)


def _pt_vector(A, pt) -> tuple:
    (n,) = A.carrier.sizes
    (m,) = pt.arity.sizes
    tables = {}
    for name, values in A.values.items():
        tables[name] = [g.components[0] for g in values]
    out = []
    for phi in itertools.product(range(n), repeat=m):
        memo = {}

        def ev(t):
            got = memo.get(id(t))
            if got is None:
                if t.var is not None:
                    got = phi[t.var]
                else:
                    args = [ev(u) for u in t.binding[0]]
                    index = 0
                    for a in args:
                        index = index * n + a
                    got = tables[t.symbol.name][index][t.param]
                memo[id(t)] = got
            return got

        out.append(tuple(ev(t) for t in pt.rows[0]))
    return tuple(out)


def window_algebra_count(arities: list[int], max_size: int) -> int:
    """Algebras with one unparametrized op per arity, carriers 0..max_size."""
    total = 0
    for n in range(max_size + 1):
        count = 1
        for k in arities:
            count *= n ** (n ** k)
        total += count
    return total
