import gc
import itertools
import pathlib
import random

import pytest

from varietal import catalog, fileformat, syntax
from varietal.base import (
    PresheafMorphism,
    ResourceCeiling,
    enumerate_families,
    finite_set,
    flat_table,
    hom_list,
    hom_set,
    terminal,
    trivial_index,
)
from varietal.syntax import (
    Equation,
    FreeFormSignature,
    OperationSymbol,
    ParamTerm,
    app,
    enumerate_terms,
    from_traditional,
    standardize,
    substitute,
    term_leaf_depths,
    var,
    var_assignment,
)
from varietal.algebra import Algebra, enumerate_algebras, satisfies
from varietal.presentation import (
    DEFAULT_MAX_NODES,
    DISTINCT,
    EQUAL,
    UNKNOWN,
    AuditEntry,
    FreeAlgebra,
    Presentation,
    _compile_terms,
    _kernel,
    bundle_equations,
    free_algebra,
    kronecker_equation,
    palg_satisfies,
    quotient_map_equal,
    sum_presentations,
    tensor,
)
from varietal.catalog import max_semilattice_algebra, state_transformer_algebra

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "varietal" / "data"
I = trivial_index()
ONE = terminal(I)
TWO = finite_set(2, I)


def empty_presentation():
    sig = FreeFormSignature("nothing", [])
    sig.index = I
    return Presentation("nothing", sig, [])


def model_counts(P, size):
    counts = {}
    for A in enumerate_algebras(P, size):
        counts[A.carrier.sizes[0]] = counts.get(A.carrier.sizes[0], 0) + 1
    return counts


# -- satisfaction -------------------------------------------------------------


def test_empty_equations_always_satisfied(semilattice):
    P = Presentation("bare", semilattice.signature, [])
    for A in enumerate_algebras(semilattice.signature, 2):
        assert palg_satisfies(A, P)


def test_chain_is_semilattice_model(semilattice):
    assert palg_satisfies(max_semilattice_algebra(semilattice, 2), semilattice)


def test_saturated_quotient_models_its_presentation(semilattice):
    Q = free_algebra(semilattice, finite_set(3, I), 3)
    assert Q.saturated
    assert palg_satisfies(Q.as_algebra(), semilattice)


# -- sum ----------------------------------------------------------------------


def test_sum_with_empty_presentation(semilattice):
    S = sum_presentations(semilattice, empty_presentation())
    assert len(S.signature.symbols) == len(semilattice.signature.symbols)
    assert model_counts(S, 2) == model_counts(semilattice, 2)


def test_sum_symbol_count(semilattice, monoid):
    S = sum_presentations(semilattice, monoid)
    assert len(S.signature.symbols) == 3
    assert len(S.equations) == 6


def test_sum_models_are_pairs(semilattice, monoid):
    S = sum_presentations(semilattice, monoid)
    joint = model_counts(S, 2)
    left = model_counts(semilattice, 2)
    right = model_counts(monoid, 2)
    for size in range(3):
        assert joint.get(size, 0) == left.get(size, 0) * right.get(size, 0)


# -- Kronecker products and tensor ---------------------------------------------


def test_kronecker_nullary_pair():
    zero = finite_set(0, I)
    sig = FreeFormSignature("pts", [
        OperationSymbol("a", zero, ONE), OperationSymbol("b", zero, ONE)])
    eq = kronecker_equation(sig, "a", "b")
    assert eq.arity.sizes == (0,)
    # both sides collapse to the bare constants: the equation merges them
    assert eq.lhs("*", 0).symbol.name == "b"
    assert eq.rhs("*", 0).symbol.name == "a"
    assert eq.lhs("*", 0).binding == ((),)


def test_kronecker_binary_is_middle_four(monoid):
    S = sum_presentations(monoid, monoid)
    eq = kronecker_equation(S.signature, "mul.1", "mul.2")
    assert eq.arity.sizes == (4,)
    lhs = eq.lhs("*", 0)
    assert lhs.symbol.name == "mul.2"
    inner = lhs.binding[0][0]
    assert inner.symbol.name == "mul.1"
    # variable grid: inner terms bind pairs (j1, j2) with j2 fixed
    assert [t.var for t in inner.binding[0]] == [0, 2]


def test_kronecker_arity_sizes_multiply(semilattice, monoid):
    S = sum_presentations(semilattice, monoid)
    eq = kronecker_equation(S.signature, "join.1", "mul.2")
    assert eq.arity.sizes == (4,)
    eq2 = kronecker_equation(S.signature, "join.1", "unit.2")
    assert eq2.arity.sizes == (0,)


def test_tensor_equation_count(semilattice, monoid):
    T = tensor(semilattice, monoid)
    assert len(T.equations) == 3 + 3 + 1 * 2


def test_tensor_with_empty_presentation(semilattice):
    T = tensor(semilattice, empty_presentation())
    assert model_counts(T, 2) == model_counts(semilattice, 2)


def commutative_monoid_count(n):
    """Direct table enumeration of commutative monoids on {0..n-1}."""
    count = 0
    for unit in range(n):
        cells = [(a, b) for a in range(n) for b in range(n) if a <= b]
        free = [c for c in cells if unit not in c]
        for choice in itertools.product(range(n), repeat=len(free)):
            tab = {}
            for a in range(n):
                tab[(unit, a)] = a
                tab[(a, unit)] = a
            for (a, b), v in zip(free, choice):
                tab[(a, b)] = v
                tab[(b, a)] = v
            if all(tab[(tab[(a, b)], c)] == tab[(a, tab[(b, c)])]
                   for a in range(n) for b in range(n) for c in range(n)):
                count += 1
    return count


def test_tensor_monoid_monoid_is_commutative_monoid_small(monoid):
    T = tensor(monoid, monoid)
    models = enumerate_algebras(T, 2)
    expected = sum(commutative_monoid_count(n) for n in range(3))
    assert len(models) == expected
    # Eckmann-Hilton collapse: both operations coincide, both units coincide
    for A in models:
        assert A.values["mul.1"] == A.values["mul.2"]
        assert A.values["unit.1"] == A.values["unit.2"]


# -- free algebras ---------------------------------------------------------------


def test_free_algebra_no_equations_is_discrete(semilattice):
    P = Presentation("bare", semilattice.signature, [])
    for k, d in [(1, 2), (2, 2)]:
        Q = free_algebra(P, finite_set(k, I), d)
        uni = enumerate_terms(semilattice.signature, finite_set(k, I), d)
        assert Q.class_count() == uni.total
        assert not Q.saturated


def test_free_semilattices_subset_oracle(semilattice):
    for k, d, expect in [(1, 3, 1), (2, 3, 3), (3, 3, 7)]:
        Q = free_algebra(semilattice, finite_set(k, I), d)
        assert Q.class_count() == expect
        assert Q.saturated
        # explicit bijection onto nonempty subsets under union
        subsets = sorted(
            frozenset(s)
            for r in range(1, k + 1)
            for s in itertools.combinations(range(k), r))
        oracle_carrier = finite_set(len(subsets), I)
        pts = hom_list(ONE, oracle_carrier)
        joins = []
        for h in hom_list(TWO, oracle_carrier):
            a, b = h.components[0]
            joins.append(pts[subsets.index(frozenset(subsets[a] | subsets[b]))])
        oracle = Algebra(semilattice.signature, oracle_carrier,
                         {"join": joins})
        gen = PresheafMorphism(
            finite_set(k, I), oracle_carrier,
            (tuple(subsets.index(frozenset([i])) for i in range(k)),))
        images = {
            Q.evaluate_class(oracle, gen, "*", i)
            for i in range(Q.class_count())}
        assert len(images) == Q.class_count() == len(subsets)


def test_free_algebra_audit_log(semilattice):
    Q = free_algebra(semilattice, TWO, 2)
    lines = Q.audit_lines()
    assert lines
    eq_names = {e.name for e in semilattice.equations}
    for line in lines:
        assert line.startswith("merge ")
        assert (" by cong" in line or " by act" in line
                or any(f" by {n} " in line for n in eq_names))


def test_free_algebra_exactness(semilattice):
    # universal property at small scale: unique extension of generator maps
    X = TWO
    Q = free_algebra(semilattice, X, 3)
    FA = Q.as_algebra()
    unit = Q.unit()
    from varietal.algebra import homomorphisms
    for A in enumerate_algebras(semilattice, 3):
        for phi in hom_set(X, A.carrier):
            extensions = [
                f for f in homomorphisms(FA, A)
                if unit.then(f).components == phi.components]
            assert len(extensions) == 1


def test_global_state_free_algebra_bijection(global_state):
    for k, expect in [(1, 4), (2, 16)]:
        Q = free_algebra(global_state, finite_set(k, I), 3)
        assert Q.saturated and Q.class_count() == expect
        A = state_transformer_algebra(global_state, k)
        base = k * 2
        gen = PresheafMorphism(
            finite_set(k, I), A.carrier,
            (tuple(sum((x * 2 + s) * base ** s for s in range(2))
                   for x in range(k)),))
        images = {Q.evaluate_class(A, gen, "*", i)
                  for i in range(Q.class_count())}
        assert len(images) == expect == A.carrier.sizes[0]


# -- word problem -----------------------------------------------------------------


def single(sig, J, t):
    return ParamTerm(sig, J, ONE, ((t,),))


def test_quotient_map_equal_syntactic(semilattice):
    x = var(semilattice.signature, "*", 0)
    t = single(semilattice.signature, finite_set(1, I), x)
    verdict, _ = quotient_map_equal(semilattice, t, t, 0)
    assert verdict == EQUAL


def test_quotient_map_equal_commutativity(semilattice):
    sig = semilattice.signature
    x, y = (var(sig, "*", i) for i in range(2))
    t = single(sig, TWO, app(sig, "join", ((x, y),), "*", 0, TWO))
    u = single(sig, TWO, app(sig, "join", ((y, x),), "*", 0, TWO))
    verdict, _ = quotient_map_equal(semilattice, t, u, 2)
    assert verdict == EQUAL


def test_quotient_map_equal_monoid_distinct(monoid):
    sig = monoid.signature
    x, y = (var(sig, "*", i) for i in range(2))
    t = single(sig, TWO, app(sig, "mul", ((x, y),), "*", 0, TWO))
    u = single(sig, TWO, app(sig, "mul", ((y, x),), "*", 0, TWO))
    verdict, witness = quotient_map_equal(monoid, t, u, 2, search_size=3)
    assert verdict == DISTINCT
    A, (phi, sort, c) = witness
    assert not satisfies(A, Equation("probe", t, u))


def test_quotient_map_equal_unknown_without_countermodel(monoid):
    # all monoids of size <= 2 are commutative and the free monoid never
    # saturates, so a size-2 search cannot decide xy = yx
    sig = monoid.signature
    x, y = (var(sig, "*", i) for i in range(2))
    t = single(sig, TWO, app(sig, "mul", ((x, y),), "*", 0, TWO))
    u = single(sig, TWO, app(sig, "mul", ((y, x),), "*", 0, TWO))
    verdict, _ = quotient_map_equal(monoid, t, u, 2, search_size=2)
    assert verdict == UNKNOWN


def test_equal_implies_all_models_satisfy(semilattice):
    sig = semilattice.signature
    x, y = (var(sig, "*", i) for i in range(2))
    t = single(sig, TWO, app(sig, "join", ((x, app(sig, "join", ((x, y),), "*", 0, TWO)),), "*", 0, TWO))
    u = single(sig, TWO, app(sig, "join", ((x, y),), "*", 0, TWO))
    verdict, _ = quotient_map_equal(semilattice, t, u, 3)
    assert verdict == EQUAL
    eq = Equation("absorb", t, u)
    for A in enumerate_algebras(semilattice, 2):
        assert satisfies(A, eq)


def test_quotient_map_equal_lazy_algebra_is_pinned(semilattice):
    # the seeded, non-growing closure behind an Equal verdict; the audit
    # trail in tests/golden/quotient-absorb-audit.txt is pinned byte for byte
    sig = semilattice.signature
    x, y = (var(sig, "*", i) for i in range(2))
    xy = app(sig, "join", ((x, y),), "*", 0, TWO)
    t = single(sig, TWO, app(sig, "join", ((x, xy),), "*", 0, TWO))
    verdict, lazy = quotient_map_equal(semilattice, t, single(sig, TWO, xy), 3)
    assert verdict == EQUAL
    assert lazy.class_count() == 3
    golden = GOLDEN / "quotient-absorb-audit.txt"
    assert "".join(f"{line}\n" for line in lazy.audit_lines()) == golden.read_text()


def test_saturated_free_algebra_satisfaction_matches_equality(semilattice):
    sig = semilattice.signature
    Q = free_algebra(semilattice, TWO, 3)
    FA = Q.as_algebra()
    x, y = (var(sig, "*", i) for i in range(2))
    pairs = [
        (x, y, False),
        (app(sig, "join", ((x, y),), "*", 0, TWO),
         app(sig, "join", ((y, x),), "*", 0, TWO), True),
        (app(sig, "join", ((x, x),), "*", 0, TWO), x, True),
    ]
    for a, b, expect in pairs:
        t, u = single(sig, TWO, a), single(sig, TWO, b)
        verdict, _ = quotient_map_equal(semilattice, t, u, 3)
        assert (verdict == EQUAL) == expect
        assert satisfies(FA, Equation("probe", t, u)) == expect


# -- traditional signatures and bundling -----------------------------------------


def test_traditional_round_trip_model_bijection():
    two_ops = FreeFormSignature("pair", [
        OperationSymbol("f", TWO, ONE),
        OperationSymbol("g", TWO, ONE),
    ])
    trad, insertions = standardize(two_ops)
    back = from_traditional(trad)
    for n in range(3):
        carrier = finite_set(n, I)
        left = enumerate_algebras(two_ops, 0, carrier=carrier)
        right = enumerate_algebras(back, 0, carrier=carrier)
        assert len(left) == len(right)
        # explicit bijection through the insertions
        seen = set()
        for B in right:
            values = {}
            for sym in two_ops.symbols:
                ins = insertions[sym.name]
                vals = []
                for h in hom_list(sym.arity, carrier):
                    bundled = B.values["op0"][
                        B.homs_from(h.source).position[flat_table(h)]]
                    vals.append(ins.then(bundled))
                values[sym.name] = vals
            A = Algebra(two_ops, carrier, values)
            seen.add(A.canonical_key())
        assert seen == {A.canonical_key() for A in left}


def test_bundled_equations_same_models(semilattice):
    bundled = bundle_equations(semilattice)
    assert len(bundled.equations) == 3  # three distinct arities
    left = {A.canonical_key() for A in enumerate_algebras(semilattice, 2)}
    right = {A.canonical_key() for A in enumerate_algebras(bundled, 2)}
    assert left == right


def test_global_state_bundling(global_state):
    bundled = bundle_equations(global_state)
    left = {A.canonical_key() for A in enumerate_algebras(global_state, 2)}
    right = {A.canonical_key() for A in enumerate_algebras(bundled, 2)}
    assert left == right


# -- reference engine ----------------------------------------------------------


class ReferenceFreeAlgebra(FreeAlgebra):
    """The closure as it was before compiled sides and capped pools: seeds
    and equation sides by a memoized recursive walk, the grow pass over
    every class with a per-family depth test, and the saturation check over
    the whole eager listing.  Its nodes keep the nested keys ``("a",
    symbol, sort, parameter element, binding rows)``, built and read by its
    own primitives below, so it stays independent of the engine's flat key
    layout.  Kept as the reference the engine must match node for node,
    through ``node_form``."""

    def __init__(self, P, generators, depth, grow=True, seeds=(),
                 max_nodes=DEFAULT_MAX_NODES):
        self.presentation = P
        self.signature = P.signature
        self.generators = generators
        self.depth = depth
        self.index = generators.index
        self.max_nodes = max_nodes
        self._nodes, self._parent, self._node_sort, self._mindepth = [], [], [], []
        self._hash = {}
        self._parents, self._lowered, self._unions, self._clean = [], [], 0, None
        self._roots = None
        self.audit = []
        self._gen_rows = tuple(
            tuple(self._add_node(("v", sort, x), sort)
                  for x in generators.elements(sort))
            for sort in self.index.sorts)
        memo = {}
        for t in seeds:
            self._build_side(t, self._gen_rows, memo)
        self._close(grow)
        self._finalize()

    def node_form(self, nid):
        return self._nodes[nid]

    def _canon_key(self, node):
        if node[0] == "v":
            return node
        _, sym, sort, c, binding = node
        return ("a", sym, sort, c,
                tuple(tuple(self._find(r) for r in row) for row in binding))

    def _insert(self, key, sort):
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
        if key[0] == "a":
            children = {r for row in key[4] for r in row}
            for r in children:
                self._parents[r].append(nid)
            depth = 1 + max([self._mindepth[r] for r in children], default=0)
        self._mindepth.append(depth)
        return nid

    def _depth(self, key):
        if key[0] == "v":
            return 0
        return 1 + max([self._mindepth[self._find(r)]
                        for row in key[4] for r in row], default=0)

    def _act_image(self, m, nid):
        key = self._nodes[nid]
        tgt = self.index.tgt(m)
        if key[0] == "v":
            row = self._gen_rows[self.index.sort_index(tgt)]
            return self._find(row[self.generators.map(m)[key[2]]])
        _, sym, sort, c, binding = key
        param = self.signature.symbol(sym).parameter
        return self._find(
            self._add_node(("a", sym, tgt, param.map(m)[c], binding), tgt))

    def _app_node(self, sym_name, binding_cls, sort, c):
        return self._add_node(("a", sym_name, sort, c, binding_cls), sort)

    def _enumerate_class_families(self, X, budgets=None):
        roots = self._class_lists()

        def choices(sort, x):
            if budgets is None:
                return roots[sort]
            limit = budgets.get((sort, x), self.depth)
            return [r for r in roots[sort] if self._mindepth[r] <= limit]

        return enumerate_families(X, choices, self._act_image)

    def _build_side(self, t, phi_rows, memo):
        got = memo.get(id(t))
        if got is not None:
            return got
        if t.is_var:
            out = self._find(phi_rows[self.index.sort_index(t.sort)][t.var])
        else:
            rows = []
            for row in t.binding:
                rows.append(tuple(
                    self._build_side(u, phi_rows, memo) for u in row))
            out = self._find(
                self._app_node(t.symbol.name, tuple(rows), t.sort, t.param))
        memo[id(t)] = out
        return out

    def _equation_pass(self):
        changed = False
        for eq in self.presentation.equations:
            for sort in self.index.sorts:
                for c in eq.parameter.elements(sort):
                    lt, rt = eq.lhs(sort, c), eq.rhs(sort, c)
                    if max(lt.depth, rt.depth) > self.depth:
                        continue
                    budgets = {}
                    for t in (lt, rt):
                        for leaf, path in term_leaf_depths(t).items():
                            b = self.depth - path
                            if b < budgets.get(leaf, 1 << 30):
                                budgets[leaf] = b
                    if any(b < 0 for b in budgets.values()):
                        continue
                    for fam in self._enumerate_class_families(eq.arity, budgets):
                        memo = {}
                        a = self._build_side(lt, fam, memo)
                        b = self._build_side(rt, fam, memo)
                        if self._union(a, b, AuditEntry(
                                "eq", a, b, equation=eq.name,
                                phi=tuple(fam))):
                            changed = True
        return changed

    def _applications(self):
        for sym in self.signature.symbols:
            params = [(sort, c) for sort in self.index.sorts
                      for c in sym.parameter.elements(sort)]
            for fam in self._enumerate_class_families(sym.arity):
                yield [("a", sym.name, sort, c, fam) for sort, c in params]

    def _grow_pass(self):
        before = len(self._nodes)
        for keys in self._applications():
            if keys and self._depth(keys[0]) <= self.depth:
                for key in keys:
                    self._add_node(key, key[2])
        return len(self._nodes) > before

    def _check_saturated(self):
        for keys in self._applications():
            for key in keys:
                if key not in self._hash:
                    _, sym, sort, c, binding = key
                    return False, (sym, binding, sort, c)
        return True, None


def _bundled_presentation(theory):
    ws = fileformat.parse_file(str(DATA / f"{theory}.var"))
    return next(iter(ws.presentations.values()))


def _node_forms(Q):
    return [Q.node_form(nid) for nid in range(len(Q._nodes))]


def _same_closure(engine, reference):
    assert _node_forms(engine) == _node_forms(reference)
    assert engine._parent == reference._parent
    assert engine._mindepth == reference._mindepth
    assert ([(e.kind, e.left, e.right, e.equation, e.phi) for e in engine.audit]
            == [(e.kind, e.left, e.right, e.equation, e.phi)
                for e in reference.audit])
    assert engine.saturated == reference.saturated
    assert engine.saturation_witness == reference.saturation_witness


BUNDLED_THEORIES = sorted(path.stem for path in DATA.glob("*.var"))


ENGINE_CASES = [
    *((theory, k, d) for theory in BUNDLED_THEORIES
      for k, d in ((1, 2), (2, 2), (1, 3))),
    ("semilattice", 4, 4), ("globalstate", 2, 3), ("readbits", 2, 3),
    # closures whose later passes skip families that ran before; the
    # reference engine's own pass never skips
    ("z2mod", 3, 3), ("boolmod", 3, 3), ("monoid", 1, 4),
    ("restriction", 2, 3),
]

# generator graphs for internalcat, so the act step has work
GRAPH_CASES = [(1, [(0, 0)], 3), (2, [(0, 1)], 3), (2, [(0, 1), (1, 0)], 2)]


@pytest.mark.parametrize("theory,k,d", [
    # the last equation pass of semilattice 5/4 skips all 27,992 of its
    # families, which the reference engine's own pass runs
    *ENGINE_CASES, ("semilattice", 5, 4),
])
def test_free_algebra_matches_reference_engine(theory, k, d):
    P = _bundled_presentation(theory)
    gens = finite_set(k, P.signature.index)
    _same_closure(FreeAlgebra(P, gens, d), ReferenceFreeAlgebra(P, gens, d))


@pytest.mark.parametrize("vertices,edges,d", [
    *GRAPH_CASES, (2, [(0, 1), (1, 0)], 3),
])
def test_graph_closure_matches_reference_engine(vertices, edges, d):
    P = _bundled_presentation("internalcat")
    gens = catalog.graph_presheaf(vertices, edges)
    _same_closure(FreeAlgebra(P, gens, d), ReferenceFreeAlgebra(P, gens, d))


def _seeded_closure_case(monoid):
    """The seeded, non-growing closure that quotient_map_equal builds, on
    random terms deeper than its depth; the universe shares subterms."""
    sig = monoid.signature
    terms = enumerate_terms(sig, TWO, 3).terms("*")
    rng = random.Random(2718)
    t, u = (single(sig, TWO, rng.choice(terms)) for _ in range(2))
    seeds = [s for pt in (t, u) for row in pt.rows for s in row]
    assert max(s.depth for s in seeds) > 2
    return (monoid, TWO, 2), dict(grow=False, seeds=seeds, max_nodes=200_000)


def test_seeded_closure_matches_reference_engine(monoid):
    args, options = _seeded_closure_case(monoid)
    _same_closure(FreeAlgebra(*args, **options),
                  ReferenceFreeAlgebra(*args, **options))


# -- the bookkeeping before parent lists ---------------------------------------


class OldBookkeepingFreeAlgebra(FreeAlgebra):
    """The engine with its earlier bookkeeping: depths swept over every node
    to a fixpoint, every rebuild scanning the whole graph, classes listed by
    a find per node, and act images recomputed at every call of a family
    search.  The engine's parent lists, depth worklist, skipped rebuilds and
    memoized act images must give the same closure node for node."""

    def _recompute_depths(self):
        changed = True
        while changed:
            changed = False
            for nid, key in enumerate(self._nodes):
                root = self._find(nid)
                d = self._depth(key)
                if d < self._mindepth[root]:
                    self._mindepth[root] = d
                    changed = True

    def _act_memo(self):
        return self._act_image

    def _rebuild(self):
        any_change = False
        while True:
            changed = False
            self._recompute_depths()
            fresh = {}
            for nid in range(len(self._nodes)):
                key = self._canon_key(self._nodes[nid])
                other = fresh.get(key)
                if other is None:
                    fresh[key] = nid
                elif self._union(other, nid, AuditEntry("cong", other, nid)):
                    changed = True
            self._hash = fresh
            classes = {}
            for nid in range(len(self._nodes)):
                classes.setdefault(self._find(nid), []).append(nid)
            for m, msrc, _ in self.index.morphisms:
                if m in self.index.identities:
                    continue
                for root, members in list(classes.items()):
                    if self._node_sort[root] != msrc:
                        continue
                    images = [self._act_image(m, nid) for nid in members
                              if self._node_sort[nid] == msrc]
                    for other in images[1:]:
                        if self._union(images[0], other,
                                       AuditEntry("act", images[0], other,
                                                  morphism=m)):
                            changed = True
            if not changed:
                return any_change
            any_change = True

    def _class_lists(self):
        roots = {s: [] for s in self.index.sorts}
        seen = set()
        for nid in range(len(self._nodes)):
            r = self._find(nid)
            if r not in seen:
                seen.add(r)
                roots[self._node_sort[r]].append(r)
        return roots


def _same_bookkeeping(engine, old):
    # path compression may leave different raw parents; classes must agree
    assert engine._nodes == old._nodes
    assert ([engine._find(i) for i in range(len(engine._nodes))]
            == [old._find(i) for i in range(len(old._nodes))])
    assert engine._mindepth == old._mindepth
    assert ([(e.kind, e.left, e.right, e.equation, e.phi, e.morphism)
             for e in engine.audit]
            == [(e.kind, e.left, e.right, e.equation, e.phi, e.morphism)
                for e in old.audit])
    assert engine._hash == old._hash
    assert engine.saturated == old.saturated
    assert engine.saturation_witness == old.saturation_witness


@pytest.mark.parametrize("theory,k,d", [
    # semilattice 5/4, the largest closure here: with the equations at
    # their fixpoint before its one grow pass, none of its rebuilds merges
    *ENGINE_CASES, ("semilattice", 5, 4),
])
def test_free_algebra_matches_old_bookkeeping(theory, k, d):
    P = _bundled_presentation(theory)
    gens = finite_set(k, P.signature.index)
    _same_bookkeeping(FreeAlgebra(P, gens, d),
                      OldBookkeepingFreeAlgebra(P, gens, d))


@pytest.mark.parametrize("vertices,edges,d", GRAPH_CASES)
def test_graph_closure_matches_old_bookkeeping(vertices, edges, d):
    P = _bundled_presentation("internalcat")
    gens = catalog.graph_presheaf(vertices, edges)
    _same_bookkeeping(FreeAlgebra(P, gens, d),
                      OldBookkeepingFreeAlgebra(P, gens, d))


def test_seeded_closure_matches_old_bookkeeping(monoid):
    args, options = _seeded_closure_case(monoid)
    _same_bookkeeping(FreeAlgebra(*args, **options),
                      OldBookkeepingFreeAlgebra(*args, **options))


def test_internal_category_closures_match_old_bookkeeping(monkeypatch):
    built = []

    def checked_free_algebra(P, generators, depth):
        engine = free_algebra(P, generators, depth)
        _same_bookkeeping(engine,
                          OldBookkeepingFreeAlgebra(P, generators, depth))
        built.append(engine)
        return engine

    monkeypatch.setattr(catalog, "free_algebra", checked_free_algebra)
    catalog.internal_category_presentation()
    assert len(built) == 2


# -- the loop order before equation fixpoints ----------------------------------


class InterleavedFreeAlgebra(FreeAlgebra):
    """The engine with its earlier loop order: one equation pass, a rebuild,
    a grow pass and a rebuild in every round.  Node ids, merges and the
    representatives of unsaturated closures may differ, but both orders
    reach the same least fixpoint: the same classes, the same saturation
    and the same class for every term."""

    def _close(self, grow):
        self._rebuild()
        while True:
            changed = self._equation_pass()
            changed |= self._rebuild()
            if grow:
                changed |= self._grow_pass()
                changed |= self._rebuild()
            if not changed:
                break


def _term_partition(Q, terms):
    """The classes of ``terms`` in Q as first-occurrence labels (a class's
    index depends on its representative), None outside the universe."""
    labels = {}
    return [None if c is None else labels.setdefault(c, len(labels))
            for c in map(Q.class_of_term, terms)]


def _same_quotient(monkeypatch, engine, interleaved, extra_terms=()):
    assert engine.classes == interleaved.classes
    assert engine.saturated == interleaved.saturated
    monkeypatch.setattr(syntax, "MAX_TERMS", 20_000)  # a small universe only
    try:
        universe = enumerate_terms(
            engine.signature, engine.generators, engine.depth)
    except ResourceCeiling:
        return
    for sort in engine.index.sorts:
        terms = [*universe.terms(sort), *(t for t in extra_terms
                                          if t.sort == sort)]
        assert (_term_partition(engine, terms)
                == _term_partition(interleaved, terms))


@pytest.mark.parametrize("theory,k,d", [*ENGINE_CASES, ("semilattice", 5, 4)])
def test_free_algebra_matches_interleaved_loop(monkeypatch, theory, k, d):
    P = _bundled_presentation(theory)
    gens = finite_set(k, P.signature.index)
    _same_quotient(monkeypatch, FreeAlgebra(P, gens, d),
                   InterleavedFreeAlgebra(P, gens, d))


@pytest.mark.parametrize("vertices,edges,d", GRAPH_CASES)
def test_graph_closure_matches_interleaved_loop(monkeypatch, vertices, edges,
                                                d):
    P = _bundled_presentation("internalcat")
    gens = catalog.graph_presheaf(vertices, edges)
    _same_quotient(monkeypatch, FreeAlgebra(P, gens, d),
                   InterleavedFreeAlgebra(P, gens, d))


def test_seeded_closure_matches_interleaved_loop(monkeypatch, monoid):
    args, options = _seeded_closure_case(monoid)
    _same_quotient(monkeypatch, FreeAlgebra(*args, **options),
                   InterleavedFreeAlgebra(*args, **options), options["seeds"])


def _count_calls(monkeypatch, name):
    """A list that gains an entry at each call of FreeAlgebra.<name>."""
    calls, method = [], getattr(FreeAlgebra, name)

    def counted(self, *args):
        calls.append(name)
        return method(self, *args)

    monkeypatch.setattr(FreeAlgebra, name, counted)
    return calls


def test_internal_category_act_images_once_per_family_search(monkeypatch):
    # 392,677 calls without the memo; 1,903 when a grow pass followed every
    # equation pass, which ran 8 equation passes where the fixpoint of
    # equation passes before each grow pass runs 14
    calls = _count_calls(monkeypatch, "_act_image")
    catalog.internal_category_presentation()
    assert len(calls) == 2191


def test_semilattice_closure_canonical_key_count(semilattice, monkeypatch):
    # 7,324 calls when the insertion walk went through _add_node and every
    # rebuild rescanned the whole graph; 3,381 when a merging rebuild ran
    # one more scan only to confirm its fixpoint; 2,388 when a grow pass
    # followed every equation pass and added applications over classes the
    # equations had yet to merge
    calls = _count_calls(monkeypatch, "_canon_key")
    free_algebra(semilattice, finite_set(4, I), 4)
    assert len(calls) == 946


def test_semilattice_closure_find_count(semilattice, monkeypatch):
    # 51,904 calls when every rebuild grouped the nodes by class, though
    # over an index with no non-identity arrow the act step never reads
    # the groups; 49,213 when every equation pass reran every family and
    # each lookup that hit a root's child called _find; 17,670 when a
    # merging rebuild ran one more scan only to confirm its fixpoint;
    # 14,250 when a grow pass followed every equation pass
    calls = _count_calls(monkeypatch, "_find")
    free_algebra(semilattice, finite_set(4, I), 4)
    assert len(calls) == 4461


def test_semilattice_closure_run_count(semilattice, monkeypatch):
    # 9,275 families (9,276 _run calls with the seed walk) when every
    # equation pass reran every family, including the last pass, which
    # only confirms the fixpoint; the skipped families add and merge
    # nothing, so inserts and audit entries did not move; (5,656, 993, 978)
    # when a grow pass followed every equation pass: the second pass then
    # ran the equations over applications of unmerged classes
    inserts = _count_calls(monkeypatch, "_insert")
    Q = free_algebra(semilattice, finite_set(4, I), 4)
    assert (Q._families_run, len(inserts), len(Q.audit)) == (4631, 364, 349)


def test_semilattice_five_generators_closure_run_count(monkeypatch):
    # (88,737, 23,104, 23,073) when a grow pass followed every equation
    # pass: its second equation pass ran comm over 241 classes, and the
    # next rebuild merged 10,709 of the nodes it inserted
    P = _bundled_presentation("semilattice")
    inserts = _count_calls(monkeypatch, "_insert")
    Q = free_algebra(P, finite_set(5, I), 4)
    assert (Q._families_run, len(inserts), len(Q.audit)) == (31392, 1440, 1409)
    assert (Q.class_count(), Q.saturated) == (31, True)


def _scans_per_merging_rebuild(monkeypatch, theory, k, d):
    """The number of congruence scans of each rebuild that merged, in a
    closure over the one-sort index, where a scan keys each node once and
    nothing else calls ``_canon_key`` during a rebuild."""
    keyed, scans = _count_calls(monkeypatch, "_canon_key"), []
    rebuild = FreeAlgebra._rebuild

    def counted(self):
        before, unions = len(keyed), self._unions
        changed = rebuild(self)
        if self._unions != unions:
            scans.append((len(keyed) - before) / len(self._nodes))
        return changed

    monkeypatch.setattr(FreeAlgebra, "_rebuild", counted)
    P = _bundled_presentation(theory)
    free_algebra(P, finite_set(k, P.signature.index), d)
    return scans


def test_merging_rebuild_scans_again_only_after_a_stale_key(monkeypatch):
    # [2] for semilattice 4/4 and [3, 2] for z2mod when each merging rebuild
    # ran one more scan only to confirm its fixpoint; z2mod's first scan
    # leaves keys stale (a union absorbs a root with a parent keyed before
    # it).  When a grow pass followed every equation pass these read [1]
    # for semilattice 4/4, [1, 1] for boolmod and [2, 1] for z2mod; with
    # the equations at their fixpoint before each grow pass, semilattice
    # 4/4 has no merging rebuild left
    assert _scans_per_merging_rebuild(monkeypatch, "boolmod", 3, 3) == [1]
    monkeypatch.undo()
    assert _scans_per_merging_rebuild(monkeypatch, "z2mod", 3, 3) == [2]


def test_equation_kernels_are_generated_once_per_program():
    # a freshly parsed copy of the same file reuses every kernel
    first = free_algebra(_bundled_presentation("semilattice"), TWO, 3)
    misses = _kernel.cache_info().misses
    again = free_algebra(_bundled_presentation("semilattice"), TWO, 3)
    assert _kernel.cache_info().misses == misses
    assert ([kernel for *_, kernel in again._instances]
            == [kernel for *_, kernel in first._instances])


def test_equation_kernels_bind_names_that_are_not_identifiers():
    # symbol and equation names reach the generated loops as constants only
    odd = {"join": "j\"o'i\\n{k0}", "idem": "k0", "comm": 'phi[0:1]"+\\',
           "assoc": 'as-soc"""'}
    text = (DATA / "semilattice.var").read_text()
    for name, new in odd.items():
        text = text.replace(name, new)
    P = next(iter(fileformat.parse_text(text).presentations.values()))
    assert [P.signature.symbols[0].name, *(e.name for e in P.equations)] == [
        odd[name] for name in ("join", "idem", "comm", "assoc")]
    gens = finite_set(3, I)
    _same_closure(FreeAlgebra(P, gens, 3), ReferenceFreeAlgebra(P, gens, 3))
    plain = free_algebra(_bundled_presentation("semilattice"), gens, 3)
    renamed = free_algebra(P, gens, 3)
    lines = plain.audit_lines()
    for name, new in odd.items():
        lines = [line.replace(name, new) for line in lines]
    assert renamed.audit_lines() == lines
    assert renamed.classes == plain.classes


def _same_closure_and_audit(P, gens, depth):
    engine, reference = (FreeAlgebra(P, gens, depth),
                         ReferenceFreeAlgebra(P, gens, depth))
    _same_closure(engine, reference)
    assert engine.audit_lines() == reference.audit_lines()
    return engine


SHARED_NAMES = """\
(index I (sorts *) (arrows (id * *)) (identities (* id)) (compose (id id id)))
(object one I (elems (* 1)))
(object two I (elems (* 2)))
(object two2 I (elems (* 2)))
(signature fg I (op f :arity two :param one) (op g :arity one :param two))
(signature gf I (op g :arity two :param one) (op f :arity one :param two2))
(equation f-idem fg :arity one :param one (pair (* 0) (app f ((* 0 (var * 0)) (* 1 (var * 0))) (* 0)) (var * 0)))
(equation g-flip fg :arity one :param two (pair (* 0) (app g ((* 0 (var * 0))) (* 0)) (app g ((* 0 (var * 0))) (* 1))) (pair (* 1) (app g ((* 0 (var * 0))) (* 1)) (app g ((* 0 (var * 0))) (* 0))))
(equation g-comm gf :arity two :param one (pair (* 0) (app g ((* 0 (var * 0)) (* 1 (var * 1))) (* 0)) (app g ((* 0 (var * 1)) (* 1 (var * 0))) (* 0))))
(equation f-inv gf :arity one :param one (pair (* 0) (app f ((* 0 (app f ((* 0 (var * 0))) (* 1)))) (* 0)) (var * 0)))
(presentation fg-theory fg (equations f-idem g-flip))
(presentation gf-theory gf (equations g-comm f-inv))
"""


def test_op_ids_follow_names_across_signatures():
    # the same symbol names in another declaration order, with other
    # arities and parameters, closed one after the other in one process:
    # the process-wide op ids are shared, the decoding is each signature's
    ws = fileformat.parse_text(SHARED_NAMES)
    fg, gf = ws.presentations["fg-theory"], ws.presentations["gf-theory"]
    for P in (fg, gf, fg):
        Q = _same_closure_and_audit(P, finite_set(2, I), 2)
        assert Q.audit
    assert (fg.signature.symbol("f").arity.sizes
            != gf.signature.symbol("f").arity.sizes)


TWO_SORTS = """\
(index G (sorts v e) (arrows (idv v v) (ide e e) (s e v) (t e v)) (identities (v idv) (e ide)) (compose (idv idv idv) (ide ide ide) (ide s s) (ide t t) (s idv s) (t idv t)))
(object loop G (elems (v 1) (e 1)) (map s 0) (map t 0))
(object edge G (elems (v 2) (e 1)) (map s 0) (map t 1))
(object gens G (elems (v 2) (e 2)) (map s 0 1) (map t 1 1))
(signature two.sig G (op m :arity edge :param loop))
(equation m-unit two.sig :arity loop :param loop (pair (v 0) (app m ((v 0 (var v 0)) (v 1 (var v 0)) (e 0 (var e 0))) (v 0)) (var v 0)) (pair (e 0) (app m ((v 0 (var v 0)) (v 1 (var v 0)) (e 0 (var e 0))) (e 0)) (var e 0)))
(presentation two two.sig (equations m-unit))
"""


def test_op_ids_over_a_two_sort_parameter():
    # a 2-element parameter, one element at each of two sorts: the op ids
    # of m at v and at e differ, the act step maps one to the other, and
    # the children split into a v row and an e row
    ws = fileformat.parse_text(TWO_SORTS)
    Q = _same_closure_and_audit(
        ws.presentations["two"], ws.objects["gens"], 2)
    forms = _node_forms(Q)
    assert {(f[1], f[2], f[3]) for f in forms if f[0] == "a"} == {
        ("m", "v", 0), ("m", "e", 0)}
    assert all(len(f[4]) == 2 and len(f[4][0]) == 2 and len(f[4][1]) == 1
               for f in forms if f[0] == "a")
    assert any(e.kind == "eq" for e in Q.audit)


# -- semantic soundness of the closure ---------------------------------------


def unsound_nodes(Q, A, phi):
    """The nodes of the free algebra Q whose value in the algebra A, under
    the generator map phi, is not their class's value.

    A variable node takes phi's value, and an application node A's table at
    its children's class values, looked up by position in a ``hom_list``; a
    class takes the value of its first node.  A node's children have lower
    ids, so one pass in id order finds every child class valued.  Children
    whose values are not a natural family make the node unsound.  Kept apart
    from the engine's own evaluator (``_value``, ``compile_class``).
    """
    inputs = {s.name: {h.components: i
                       for i, h in enumerate(hom_list(s.arity, A.carrier))}
              for s in A.signature.symbols}
    value, bad = {}, []
    for nid in range(len(Q._nodes)):
        key = Q.node_form(nid)
        if key[0] == "v":
            x = phi(key[1], key[2])
        else:
            _, sym, sort, c, binding = key
            rows = tuple(tuple(value[Q._find(r)] for r in row)
                         for row in binding)
            k = inputs[sym].get(rows)
            x = None if k is None else A.values[sym][k](sort, c)
        if value.setdefault(Q._find(nid), x) != x or x is None:
            bad.append(nid)
    return bad


def unsound_in_small_models(Q, P, size=2):
    """The unsound nodes of Q over every model of P of at most ``size``
    elements per sort and every generator map into it."""
    return {nid for A in enumerate_algebras(P, size)
            for phi in hom_list(Q.generators, A.carrier)
            for nid in unsound_nodes(Q, A, phi)}


@pytest.mark.parametrize("theory", BUNDLED_THEORIES)
def test_free_algebra_nodes_take_their_class_values(theory):
    # each merge is forced by the equations, congruence or the index action,
    # so every model agrees on a class, saturated or not
    P = _bundled_presentation(theory)
    idx = P.signature.index  # internalcat: one vertex with one loop
    gens = terminal(idx) if theory == "internalcat" else finite_set(2, idx)
    Q = free_algebra(P, gens, 3)
    assert any(A.carrier.sizes != (0,) * len(A.carrier.sizes)
               for A in enumerate_algebras(P, 2))
    assert unsound_in_small_models(Q, P) == set()


def test_lazy_closure_nodes_take_their_class_values(semilattice, monoid):
    sig = semilattice.signature
    x, y = (var(sig, "*", i) for i in range(2))
    xy = app(sig, "join", ((x, y),), "*", 0, TWO)
    t = single(sig, TWO, app(sig, "join", ((x, xy),), "*", 0, TWO))
    verdict, lazy = quotient_map_equal(semilattice, t, single(sig, TWO, xy), 3)
    assert verdict == EQUAL
    assert unsound_in_small_models(lazy, semilattice) == set()
    terms = enumerate_terms(monoid.signature, TWO, 3).terms("*")
    rng = random.Random(2718)
    seeds = [rng.choice(terms) for _ in range(4)]
    lazy = FreeAlgebra(monoid, TWO, 2, grow=False, seeds=seeds)
    assert unsound_in_small_models(lazy, monoid) == set()


def test_soundness_oracle_reports_a_planted_merge(semilattice):
    # the two generator classes united with no rebuild after it: the second
    # generator's node is unsound exactly where phi separates the generators
    Q = free_algebra(semilattice, TWO, 3)
    (x0, x1), = Q._gen_rows
    Q._union(x0, x1, None)
    reports = [(phi("*", 0) != phi("*", 1), unsound_nodes(Q, A, phi))
               for A in enumerate_algebras(semilattice, 2)
               for phi in hom_list(TWO, A.carrier)]
    assert sorted(bad for separated, bad in reports if separated) == [[x1]] * 4
    assert all(bad == [] for separated, bad in reports if not separated)


@pytest.mark.parametrize("theory, k, depth", sorted({
    tuple(path.stem.split("-")[1:4]) for path in GOLDEN.glob("free-*.txt")}))
def test_rep_terms_round_trip(theory, k, depth):
    # over internalcat's graph index a representative need not fit the
    # generators, yet it still names its own class
    (P,) = fileformat.parse_file(str(DATA / f"{theory}.var")).presentations.values()
    Q = free_algebra(P, finite_set(int(k), P.signature.index), int(depth))
    for sort in Q.index.sorts:
        for i in range(Q.class_count(sort)):
            t = Q.rep_term(sort, i)
            assert t.sort == sort and Q.class_of_term(t) == i
            assert Q.rep_text(sort, i) == repr(t)


def test_quotient_equation_sides_are_rep_terms():
    TS = catalog.internal_category_presentation()
    assert TS.extra
    for q in TS.extra:
        for si, sort in enumerate(q.parameter.index.sorts):
            for c in q.parameter.elements(sort):
                assert q.lhs(sort, c) is q.base.rep_term(sort, q.lhs_rows[si][c])
                assert q.rhs(sort, c) is q.base.rep_term(sort, q.rhs_rows[si][c])
                assert q.base.class_of_term(q.lhs(sort, c)) == q.lhs_rows[si][c]


def test_recursive_walks_leave_no_reference_cycles(semilattice):
    # reference counting alone frees what each call leaves behind
    Q = free_algebra(semilattice, TWO, 3)
    cells = Q.as_algebra()._cells[0]
    t = enumerate_terms(semilattice.signature, TWO, 2).terms("*")[-1]
    phi = var_assignment(semilattice.signature, TWO)
    calls = [lambda: term_leaf_depths(t), lambda: _compile_terms(TWO, [t]),
             lambda: Q.compile_class("*", Q.class_count() - 1, cells, {}),
             lambda: substitute(semilattice.signature, t, phi)]
    for call in calls:
        call()
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            call()
            assert gc.collect() == 0
    finally:
        gc.enable()
