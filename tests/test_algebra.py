import itertools
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from varietal import fileformat
from varietal.base import (
    PresheafMorphism,
    StructureError,
    element_family,
    finite_set,
    hom_list,
    hom_set,
    terminal,
    trivial_index,
)
from varietal.syntax import (
    Assignment,
    Equation,
    FreeFormSignature,
    OperationSymbol,
    ParamTerm,
    app,
    enumerate_terms,
    precompose_equation,
    substitute,
    var,
)
from varietal.algebra import (
    Algebra,
    ResourceCeiling,
    _cell_layout,
    _compiled_sides,
    _kernel_source,
    _search_kernel,
    _side_program,
    are_isomorphic,
    enumerate_algebras,
    enumerate_carriers,
    evaluate,
    interpretation_table,
    is_homomorphism,
    homomorphisms,
    product_algebra,
    satisfies,
)
from varietal.catalog import (
    boolean_rig,
    global_state_presentation,
    graph_presheaf,
    internal_category_presentation,
    max_semilattice_algebra,
    monoid_presentation,
    path_graph,
    reading_bits_presentation,
    restriction_presentation,
    rig_module_presentation,
    semilattice_presentation,
    state_transformer_algebra,
    z2_rig,
)
from varietal.presentation import (
    Presentation,
    free_algebra,
    sum_presentations,
    tensor,
)


DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "varietal" / "data"
I = trivial_index()
TWO = finite_set(2, I)
ONE = terminal(I)


def binop_algebra(sig, table):
    """Algebra on {0,1} for a single binary symbol given by a 2x2 table."""
    carrier = TWO
    homs = hom_list(TWO, carrier)
    points = hom_list(ONE, carrier)
    name = sig.symbols[0].name
    vals = [points[table[h.components[0][0]][h.components[0][1]]] for h in homs]
    return Algebra(sig, carrier, {name: vals})


@pytest.fixture(scope="module")
def sl():
    return semilattice_presentation()


@pytest.fixture(scope="module")
def chain2(sl):
    return max_semilattice_algebra(sl, 2)


def test_evaluate_variable(sl, chain2):
    phi = hom_list(TWO, chain2.carrier)[1]  # x -> 0, y -> 1
    assert evaluate(chain2, var(sl.signature, "*", 0), phi) == 0
    assert evaluate(chain2, var(sl.signature, "*", 1), phi) == 1


def test_evaluate_rejects_a_term_over_another_context(ic):
    # over two sorts, a vertex past the context's would read an edge entry
    A = ic.models_on(graph_presheaf(1, [(0, 0), (0, 0)]))[0]
    phi = hom_list(graph_presheaf(1, [(0, 0)]), A.carrier)[0]
    assert evaluate(A, var(A.signature, "e", 0), phi) == phi("e", 0)
    with pytest.raises(StructureError, match="not over phi's source"):
        evaluate(A, var(A.signature, "v", 1), phi)


@pytest.mark.parametrize("edit,message", [
    (lambda join, carrier: {"join": join, "bogus": join}, "'bogus'"),
    (lambda join, carrier: {}, "missing operation table for join"),
    (lambda join, carrier: {"join": join[:-1]}, "one value per input family"),
    (lambda join, carrier: {"join": (PresheafMorphism(carrier, carrier, (
        (0, 1),)), *join[1:])}, "wrong endpoints"),
], ids=["symbol-outside-signature", "missing-table", "wrong-value-count",
        "wrong-endpoints"])
def test_algebra_constructor_rejects_malformed_tables(sl, chain2, edit,
                                                      message):
    values = edit(chain2.values["join"], chain2.carrier)
    with pytest.raises(StructureError, match=message):
        Algebra(sl.signature, chain2.carrier, values)


def test_evaluate_idempotent_join(sl, chain2):
    x = var(sl.signature, "*", 0)
    t = app(sl.signature, "join", ((x, x),), "*", 0, TWO)
    for phi in hom_list(TWO, chain2.carrier):
        assert evaluate(chain2, t, phi) == phi("*", 0)


def test_satisfies_reflexive_equation(sl, chain2):
    x, y = (var(sl.signature, "*", i) for i in range(2))
    t = app(sl.signature, "join", ((x, y),), "*", 0, TWO)
    eq = Equation("refl", ParamTerm(sl.signature, TWO, ONE, ((t,),)),
                  ParamTerm(sl.signature, TWO, ONE, ((t,),)))
    assert satisfies(chain2, eq)


def test_satisfies_commutativity_on_chain(sl, chain2):
    comm = [e for e in sl.equations if e.name == "comm"][0]
    assert satisfies(chain2, comm)


def test_noncommutative_table_fails_with_witness(sl):
    comm = [e for e in sl.equations if e.name == "comm"][0]
    A = binop_algebra(sl.signature, [[0, 0], [1, 0]])
    witness = satisfies(A, comm, witness=True)
    assert witness is not None
    phi, sort, c = witness
    assert phi.components == ((0, 1),)


def test_identity_and_composite_homomorphisms(sl, chain2):
    from varietal.base import identity_morphism
    assert is_homomorphism(identity_morphism(chain2.carrier), chain2, chain2)
    for f in homomorphisms(chain2, chain2):
        for g in homomorphisms(chain2, chain2):
            assert is_homomorphism(f.then(g), chain2, chain2)


def test_constant_map_to_non_idempotent_element_fails(sl, chain2):
    from varietal.base import PresheafMorphism
    # target: a table where 1 is not idempotent
    B = binop_algebra(sl.signature, [[0, 0], [0, 0]])
    const1 = PresheafMorphism(chain2.carrier, B.carrier, ((1, 1),))
    assert not is_homomorphism(const1, chain2, B)


def test_enumerate_semilattices_small(sl):
    # the empty carrier carries the vacuous structure: every operation has an
    # empty input set, so sizes <= 1 give the empty and the singleton model
    small = enumerate_algebras(sl, 1)
    assert [A.carrier.sizes[0] for A in small] == [0, 1]
    models = enumerate_algebras(sl, 2)
    # direct oracle: idempotent commutative associative tables on {0,1}
    count = 0
    for cells in itertools.product(range(2), repeat=4):
        tab = {(0, 0): cells[0], (0, 1): cells[1],
               (1, 0): cells[2], (1, 1): cells[3]}
        if tab[(0, 0)] != 0 or tab[(1, 1)] != 1:
            continue
        if tab[(0, 1)] != tab[(1, 0)]:
            continue
        if not all(tab[(tab[(a, b)], c)] == tab[(a, tab[(b, c)])]
                   for a in range(2) for b in range(2) for c in range(2)):
            continue
        count += 1
    by_size = {}
    for A in models:
        by_size.setdefault(A.carrier.sizes[0], []).append(A)
    assert len(by_size.get(2, [])) == count
    assert len(models) == 1 + 1 + count  # empty and singleton carriers


def test_enumerate_empty_signature_counts():
    sig = FreeFormSignature("none", [])
    sig.index = I
    algs = enumerate_algebras(sig, 3)
    assert len(algs) == 4  # one per carrier size 0..3


@pytest.mark.parametrize("sizes", [-1, [2, -1]])
def test_negative_size_bound_is_rejected(sl, sizes):
    with pytest.raises(StructureError, match="nonnegative"):
        enumerate_algebras(sl, sizes)


def test_resource_ceiling_raises(sl):
    with pytest.raises(ResourceCeiling):
        enumerate_algebras(sl, 3, ceiling=10)


def test_resource_ceiling_names_its_counter(sl):
    with pytest.raises(ResourceCeiling,
                       match="cell assignments tried exceeded the ceiling 10$"):
        enumerate_algebras(sl, 3, ceiling=10)


def _parsed(name):
    (P,) = fileformat.parse_file(str(DATA / name)).presentations.values()
    return P


def assignments_tried(search, count):
    """The search tries exactly ``count`` cell assignments: it completes
    under that ceiling and trips one below it."""
    search(count)
    with pytest.raises(ResourceCeiling):
        search(count - 1)


@pytest.mark.parametrize("make,size,count", [
    (monoid_presentation, 3, 548),
    (monoid_presentation, 4, 28_176),
    (semilattice_presentation, 3, 163),
    (semilattice_presentation, 4, 2_855),
    (reading_bits_presentation, 2, 61),
    (reading_bits_presentation, 3, 1_870),
    (lambda: sum_presentations(SL, MO), 2, 73),
    (lambda: tensor(MO, MO), 2, 70),
    (lambda: _parsed("restriction.var"), 3, 686),
    (lambda: _parsed("globalstate.var"), 2, 40),
    (lambda: _parsed("internalcat.var"), 2, 127),
], ids=["monoid-3", "monoid-4", "semilattice-3", "semilattice-4",
        "readbits-2", "readbits-3", "sum-2", "tensor-2", "restriction-3",
        "globalstate-2", "internalcat-2"])
def test_model_search_tries_a_pinned_number_of_assignments(make, size, count):
    # the search's exact work: pruning neither earlier nor later than the
    # watched search that first listed these models
    P = make()
    assignments_tried(
        lambda ceiling: enumerate_algebras(P, size, ceiling=ceiling), count)


@pytest.mark.parametrize("nv,edges,count", [
    (1, [(0, 0)] * 3, 522),
    (2, [(0, 0), (1, 1), (0, 1)], 18),
    (2, [(0, 1), (1, 0)], 2),
])
def test_models_on_tries_a_pinned_number_of_assignments(ic, nv, edges, count):
    G = graph_presheaf(nv, edges)
    assignments_tried(lambda ceiling: ic.models_on(G, ceiling=ceiling), count)


def brute_force_keys(P, carriers, extra=()):
    """Canonical keys of the models, by the whole-table product.

    Tables are listed symbol by symbol in signature order, each one
    lexicographically, and every equation is checked on the finished
    algebra; this is the labeled order the model search must reproduce.
    """
    sig = P.signature
    keys = []
    for X in carriers:
        inputs = reference_inputs(sig, X)
        maps = [hom_set(q.base.generators, X) for q in extra]
        params = [hom_list(s.parameter, X) for s in sig.symbols]
        pools = [list(itertools.product(range(len(ps)),
                                        repeat=len(hom_list(s.arity, X))))
                 for s, ps in zip(sig.symbols, params)]
        for tables in itertools.product(*pools):
            A = Algebra(sig, X, {
                s.name: [ps[v] for v in table]
                for s, ps, table in zip(sig.symbols, params, tables)})
            if all(satisfies(A, eq) for eq in P.equations) and all(
                    reference_quotient_holds(A, q, inputs, qmaps)
                    for q, qmaps in zip(extra, maps)):
                keys.append(A.canonical_key())
    return keys


SL = semilattice_presentation()
MO = monoid_presentation()


@pytest.mark.parametrize("P", [
    SL, MO, restriction_presentation(), global_state_presentation(),
    sum_presentations(SL, MO), tensor(MO, MO), reading_bits_presentation(),
    rig_module_presentation(z2_rig()), rig_module_presentation(boolean_rig()),
], ids=["semilattice", "monoid", "restriction", "globalstate",
        "sum-semilattice-monoid", "tensor-monoid-monoid", "readbits",
        "z2-module", "bool-module"])
def test_model_search_matches_whole_table_product(P):
    carriers = enumerate_carriers(P.signature.index, [2])
    assert ([A.canonical_key() for A in enumerate_algebras(P, 2)]
            == brute_force_keys(P, carriers))


def test_search_kernels_are_generated_once_per_shape():
    # a freshly parsed copy of the same file reuses every kernel
    first = enumerate_algebras(_parsed("monoid.var"), 3)
    misses = _search_kernel.cache_info().misses
    again = enumerate_algebras(_parsed("monoid.var"), 3)
    assert _search_kernel.cache_info().misses == misses
    assert ([A.canonical_key() for A in again]
            == [A.canonical_key() for A in first])


def test_search_kernels_bind_names_that_are_not_identifiers():
    # symbol and equation names never reach a kernel's source
    odd = {"join": "j\"o'i\\n{k0}", "idem": "k0", "comm": 'phi[0:1]"+\\',
           "assoc": 'as-soc"""'}
    text = (DATA / "semilattice.var").read_text()
    for name, new in odd.items():
        text = text.replace(name, new)
    P = next(iter(fileformat.parse_text(text).presentations.values()))
    assert [P.signature.symbols[0].name, *(e.name for e in P.equations)] == [
        odd[name] for name in ("join", "idem", "comm", "assoc")]
    assert ([A.canonical_key() for A in enumerate_algebras(P, 3)]
            == [A.canonical_key() for A in enumerate_algebras(SL, 3)])
    X = finite_set(3, I)
    cells, _ = _cell_layout(P.signature, X,
                            lambda s: hom_list(s.parameter, X))
    sources = [_kernel_source(_side_program(lhs, rhs)[0])
               for eq in P.equations
               for *_, lhs, rhs in _compiled_sides(eq, cells)]
    assert len(sources) == 3
    assert not [name for name in odd.values()
                for source in sources if name in source]


SHAPES = [(a, p) for a in range(3) for p in range(3)]


def tables_at_two(shape):
    """The tables of a symbol with arity and parameter of these sizes over
    a carrier of size 2: (2^p)^(2^a)."""
    a, p = shape
    return 2 ** (p * 2 ** a)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_model_search_matches_whole_table_product_on_generated_presentations(
        data):
    # one or two symbols, at most 256 whole tables at size 2, and one to
    # three equations between terms of depth at most 2
    shapes = [data.draw(st.sampled_from(SHAPES))]
    if data.draw(st.booleans()):
        room = 256 // tables_at_two(shapes[0])
        shapes.append(data.draw(st.sampled_from(
            [s for s in SHAPES if tables_at_two(s) <= room])))
    sig = FreeFormSignature("generated", [
        OperationSymbol(f"s{i}", finite_set(a, I), finite_set(p, I))
        for i, (a, p) in enumerate(shapes)])
    equations = []
    for k in range(data.draw(st.integers(1, 3))):
        J = finite_set(data.draw(st.integers(1, 3)), I)
        terms = enumerate_terms(sig, J, 2).terms("*")
        sides = []
        for _ in range(2):  # a side of each depth is as likely
            depth = data.draw(st.integers(0, 2))
            pool = [t for t in terms if t.depth == depth] or terms
            sides.append(ParamTerm(sig, J, ONE,
                                   ((data.draw(st.sampled_from(pool)),),)))
        equations.append(Equation(f"e{k}", *sides))
    P = Presentation("generated", sig, equations)
    carriers = enumerate_carriers(I, [2])
    assert ([A.canonical_key() for A in enumerate_algebras(P, 2)]
            == brute_force_keys(P, carriers))


@pytest.mark.parametrize("nv,edges", [
    (1, [(0, 0), (0, 0)]),
    (2, [(0, 0), (1, 1), (0, 1)]),
])
def test_models_on_matches_whole_table_product(nv, edges):
    IC = internal_category_presentation()
    G = graph_presheaf(nv, edges)
    expected = brute_force_keys(IC.base, [G], IC.extra)
    assert expected
    assert [A.canonical_key() for A in IC.models_on(G)] == expected


def test_graph_presheaves_carry_models_of_the_parsed_internalcat():
    # the file's index I and the catalog's graph index are one category
    parsed = fileformat.parse_file(str(DATA / "internalcat.var"))
    P = parsed.presentations["internalcat"]
    G = graph_presheaf(1, [(0, 0)])
    models = enumerate_algebras(P, 0, carrier=G)
    expected = enumerate_algebras(
        internal_category_presentation().base, 0, carrier=G)
    assert len(models) == len(expected) > 0
    assert ([A.canonical_key() for A in models]
            == [A.canonical_key() for A in expected])


def test_semilattices_up_to_size_four_match_direct_count():
    # idempotent commutative tables are fixed by their off-diagonal cells,
    # 4^6 tables at size 4
    count = 0
    for n in range(5):
        pairs = list(itertools.combinations(range(n), 2))
        for cells in itertools.product(range(n), repeat=len(pairs)):
            tab = {(a, a): a for a in range(n)}
            for (a, b), v in zip(pairs, cells):
                tab[(a, b)] = tab[(b, a)] = v
            if all(tab[(tab[(a, b)], c)] == tab[(a, tab[(b, c)])]
                   for a in range(n) for b in range(n) for c in range(n)):
                count += 1
    assert count == 89
    assert len(enumerate_algebras(SL, 4)) == count


def test_model_counts_beyond_the_whole_table_product():
    # labeled monoids on 0..4 elements and reading-bits models on 0..3
    assert len(enumerate_algebras(MO, 4)) == 662
    assert len(enumerate_algebras(reading_bits_presentation(), 3)) == 10


def test_model_listing_is_byte_identical_across_hash_seeds():
    root = pathlib.Path(__file__).resolve().parents[1]
    args = [sys.executable, "-m", "varietal.cli", "models",
            str(root / "src" / "varietal" / "data" / "semilattice.var"),
            "--size", "4", "--list"]
    outs = []
    for seed in ("0", "2718"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(args, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stdout
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert outs[0].startswith("models=89\n")


def test_interpretation_table_rows(sl, chain2):
    table = interpretation_table(chain2, TWO, 1)
    homs = chain2.homs_from(TWO)
    x, y = (var(sl.signature, "*", i) for i in range(2))
    assert table[x] == tuple(phi("*", 0) for phi in homs)
    assert table[y] == tuple(phi("*", 1) for phi in homs)
    txy = app(sl.signature, "join", ((x, y),), "*", 0, TWO)
    tyx = app(sl.signature, "join", ((y, x),), "*", 0, TWO)
    # equal rows amount to satisfaction of the equation with terminal parameter
    assert table[txy] == table[tyx]
    eq = Equation("c", ParamTerm(sl.signature, TWO, ONE, ((txy,),)),
                  ParamTerm(sl.signature, TWO, ONE, ((tyx,),)))
    assert satisfies(chain2, eq)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_substitution_lemma(sl, chain2, data):
    sig = sl.signature
    x, y = (var(sig, "*", i) for i in range(2))
    j = lambda a, b: app(sig, "join", ((a, b),), "*", 0, TWO)
    pool = [x, y, j(x, y), j(y, x), j(x, j(x, y)), j(j(y, y), x)]
    t = data.draw(st.sampled_from(pool))
    img = (data.draw(st.sampled_from(pool)), data.draw(st.sampled_from(pool)))
    phi = Assignment(sig, TWO, TWO, (img,))
    psi = data.draw(st.sampled_from(hom_list(TWO, chain2.carrier)))
    lhs = evaluate(chain2, substitute(sig, t, phi), psi)
    from varietal.base import PresheafMorphism
    comps = tuple(
        tuple(evaluate(chain2, phi(sort, i), psi)
              for i in range(TWO.size(sort)))
        for sort in ("*",))
    rhs = evaluate(chain2, t, PresheafMorphism(TWO, chain2.carrier, comps))
    assert lhs == rhs


def test_jointly_epi_reduction(sl):
    # satisfaction is equivalent to satisfaction of all element restrictions
    comm = [e for e in sl.equations if e.name == "comm"][0]
    fam = element_family(comm.parameter)
    for table in ([[0, 1], [1, 1]], [[0, 0], [1, 0]]):
        A = binop_algebra(sl.signature, table)
        whole = satisfies(A, comm)
        parts = all(
            satisfies(A, precompose_equation(comm, x)) for x in fam)
        assert whole == parts


def test_mono_homomorphism_reflects_satisfaction(sl):
    comm = [e for e in sl.equations if e.name == "comm"][0]
    big = max_semilattice_algebra(sl, 3)
    for A in enumerate_algebras(sl.signature, 2):
        for f in hom_set(A.carrier, big.carrier):
            injective = all(len(set(c)) == len(c) for c in f.components)
            if injective and is_homomorphism(f, A, big):
                assert satisfies(A, comm)


def test_product_algebra_satisfies_equations(sl, chain2):
    P = product_algebra(chain2, chain2)
    for eq in sl.equations:
        assert satisfies(P, eq)


def reference_evaluator(A):
    """A plain recursive interpreter over A's tables, kept here as the oracle
    for the compiled evaluator: each input family is found by a linear
    search of a fresh hom_set listing."""
    inputs = {s.name: [h.components for h in hom_set(s.arity, A.carrier)]
              for s in A.signature.symbols}

    def value(t, phi):
        if t.is_var:
            return phi(t.sort, t.var)
        rows = tuple(tuple(value(u, phi) for u in row) for row in t.binding)
        g = A.values[t.symbol.name][inputs[t.symbol.name].index(rows)]
        return g(t.sort, t.param)

    return value


def reference_inputs(sig, X):
    """Each symbol's input families over X, numbered in a fresh hom_set
    listing."""
    return {s.name: {h.components: k for k, h in enumerate(hom_set(s.arity, X))}
            for s in sig.symbols}


def reference_class_value(Q, A, phi, sort, i, inputs):
    """The value of class ``i`` of ``sort`` in ``A`` under the generator map
    ``phi``: a recursive walk over each class's best node (``Q._best`` and
    ``Q._nodes``) that reads an application from ``A.values`` at its input
    family's number in ``inputs``.  Kept here as the oracle for compiled
    class programs."""
    def value(root):
        key = Q._nodes[Q._best[root]]
        if key[0] == "v":
            return phi(key[1], key[2])
        _, sym, s, c, binding = key
        rows = tuple(tuple(value(Q._find(r)) for r in row) for row in binding)
        return A.values[sym][inputs[sym][rows]](s, c)

    return value(Q._roots_by_sort[sort][i])


def reference_quotient_holds(A, q, inputs, maps) -> bool:
    """Does A satisfy the quotient equation q at every generator map in
    ``maps``, by the reference walk?"""
    Q = q.base
    for phi in maps:
        for si, sort in enumerate(q.parameter.index.sorts):
            for c in q.parameter.elements(sort):
                if (reference_class_value(Q, A, phi, sort, q.lhs_rows[si][c],
                                          inputs)
                        != reference_class_value(Q, A, phi, sort,
                                                 q.rhs_rows[si][c], inputs)):
                    return False
    return True


def reference_witness(value, A, eq):
    """The first failing (phi, sort, c), input families in hom order."""
    for phi in hom_set(eq.arity, A.carrier):
        for sort in eq.parameter.index.sorts:
            for c in eq.parameter.elements(sort):
                if value(eq.lhs(sort, c), phi) != value(eq.rhs(sort, c), phi):
                    return (phi, sort, c)
    return None


def check_against_reference(A, equations, J, depth) -> int:
    """Compare satisfies, interpretation_table and evaluate on A with the
    reference; returns how many equations A fails."""
    value = reference_evaluator(A)
    failures = 0
    for eq in equations:
        expected = reference_witness(value, A, eq)
        assert satisfies(A, eq, witness=True) == expected
        assert satisfies(A, eq) == (expected is None)
        failures += expected is not None
    homs = hom_set(J, A.carrier)
    universe = enumerate_terms(A.signature, J, depth)
    table = interpretation_table(A, J, depth)
    assert list(table) == [t for sort in J.index.sorts
                           for t in universe.terms(sort)]
    for t, row in table.items():
        expected = tuple(value(t, phi) for phi in homs)
        assert row == expected
        assert tuple(evaluate(A, t, phi) for phi in homs) == expected
    return failures


@pytest.mark.parametrize("name", [
    "semilattice.var", "monoid.var", "restriction.var"])
def test_compiled_evaluator_matches_reference(name):
    (P,) = fileformat.parse_file(str(DATA / name)).presentations.values()
    J = finite_set(2, P.signature.index)
    algebras = enumerate_algebras(P.signature, 2)
    failures = sum(check_against_reference(A, P.equations, J, 2)
                   for A in algebras)
    # the signature's tables include non-models, so witnesses are compared
    assert 0 < failures < len(algebras) * len(P.equations)


def test_compiled_evaluator_matches_reference_on_internal_categories():
    IC = internal_category_presentation()
    models = IC.models_on(graph_presheaf(1, [(0, 0), (0, 0)]))
    assert models
    path = graph_presheaf(3, [(0, 1), (1, 2)])
    for A in models:
        assert check_against_reference(A, IC.base.equations, path, 2) == 0


def check_classes_against_reference(Q, models):
    """Compare evaluate_class with the reference on every class of Q, for
    every generator map into every model; one compile memo per model."""
    for A in models:
        inputs = reference_inputs(A.signature, A.carrier)
        memo: dict = {}
        for phi in hom_set(Q.generators, A.carrier):
            for sort in Q.index.sorts:
                for i in range(Q.classes.size(sort)):
                    assert (Q.evaluate_class(A, phi, sort, i, memo)
                            == reference_class_value(Q, A, phi, sort, i, inputs))


@pytest.mark.parametrize("name,k,depth", [
    ("semilattice.var", 3, 3), ("z2mod.var", 2, 3)])
def test_evaluate_class_matches_reference(name, k, depth):
    (P,) = fileformat.parse_file(str(DATA / name)).presentations.values()
    Q = free_algebra(P, finite_set(k, P.signature.index), depth)
    models = enumerate_algebras(P, 2)
    assert any(A.carrier.sizes == (2,) for A in models)
    check_classes_against_reference(Q, models)


def test_evaluate_class_matches_reference_on_global_state():
    # global state has no model of size 2; the store algebra on one
    # element (four states-to-pairs functions) is added
    GS = global_state_presentation()
    Q = free_algebra(GS, finite_set(2, I), 3)
    models = enumerate_algebras(GS, 2) + [state_transformer_algebra(GS, 1)]
    check_classes_against_reference(Q, models)


@pytest.fixture(scope="module")
def ic():
    return internal_category_presentation()


def test_evaluate_class_matches_reference_on_internal_categories(ic):
    models = (ic.models_on(graph_presheaf(1, [(0, 0), (0, 0)]))
              + ic.models_on(graph_presheaf(2, [(0, 0), (1, 1), (0, 1)])))
    assert len(models) > 2
    # the stage-one free algebras on path_graph(1) and path_graph(3), depth 3
    bases = list({id(q.base): q.base for q in ic.extra}.values())
    assert [(Q.generators.sizes, Q.depth) for Q in bases] == [
        (path_graph(1).sizes, 3), (path_graph(3).sizes, 3)]
    for Q in bases:
        check_classes_against_reference(Q, models)


def then(f: PresheafMorphism, g: PresheafMorphism) -> PresheafMorphism:
    """"f then g" through the public, validating constructor."""
    assert f.target == g.source
    comps = tuple(tuple(gc[y] for y in fc)
                  for fc, gc in zip(f.components, g.components))
    return PresheafMorphism(f.source, g.target, comps)


def reference_homomorphisms(A, B):
    """The carrier maps f with "g then f" equal to B's value at "h then f"
    for every input family h of A and its value g; composites are built by
    ``then`` and located by their components."""
    def commutes(f, sym):
        position = {k.components: i
                    for i, k in enumerate(hom_list(sym.arity, B.carrier))}
        return all(
            then(g, f).components
            == B.values[sym.name][position[then(h, f).components]].components
            for h, g in zip(hom_list(sym.arity, A.carrier), A.values[sym.name]))

    return [f for f in hom_set(A.carrier, B.carrier)
            if all(commutes(f, sym) for sym in A.signature.symbols)]


def test_homomorphisms_match_reference_over_two_sorts(ic):
    # internal categories have two sorts, so the flat tables' sort offsets
    # matter; every pair of models of at most 2 objects and arrows, and of
    # the models on one graph
    parsed = fileformat.parse_file(str(DATA / "internalcat.var"))
    graph = graph_presheaf(2, [(0, 0), (0, 0), (1, 1)])
    for models in (enumerate_algebras(parsed.presentations["internalcat"], 2),
                   ic.models_on(graph)):
        verdicts = set()
        for A, B in itertools.product(models, repeat=2):
            want = reference_homomorphisms(A, B)
            got = homomorphisms(A, B)
            assert [f.components for f in got] == [f.components for f in want]
            iso = any(all(sorted(c) == list(range(n))
                          for c, n in zip(f.components, B.carrier.sizes))
                      for f in want)
            assert are_isomorphic(A, B) == iso
            verdicts.add(iso)
        assert verdicts == {True, False}


@pytest.mark.parametrize("nv,edges", [
    (1, [(0, 0)]),
    (2, [(0, 0), (1, 1), (0, 1)]),
    (3, [(0, 0), (1, 1), (2, 2)]),
    (1, [(0, 0), (0, 0)]),
    (2, [(0, 1), (1, 0)]),
    (2, [(0, 0), (0, 1)]),
    (2, [(0, 1)]),
    (3, [(0, 1), (1, 2)]),
    (2, [(0, 0), (1, 1)]),
    (1, [(0, 0)] * 3),
])
def test_models_on_matches_filtered_base_search(ic, nv, edges):
    # the quotient equations are checked cell by cell inside one search; the
    # oracle lists the base models and filters them afterwards
    G = graph_presheaf(nv, edges)
    inputs = reference_inputs(ic.base.signature, G)
    maps = [hom_set(q.base.generators, G) for q in ic.extra]
    expected = [
        A.canonical_key()
        for A in enumerate_algebras(ic.base, 0, carrier=G)
        if all(reference_quotient_holds(A, q, inputs, qmaps)
               for q, qmaps in zip(ic.extra, maps))]
    assert [A.canonical_key() for A in ic.models_on(G)] == expected


def test_models_on_prunes_before_the_base_models_are_listed(ic):
    # one vertex, three loops: 59,049 base models, 33 categories
    G = graph_presheaf(1, [(0, 0)] * 3)
    assert len(ic.models_on(G, ceiling=10_000)) == 33
    with pytest.raises(ResourceCeiling):
        enumerate_algebras(ic.base, 0, carrier=G, ceiling=10_000)


def test_satisfies_takes_quotient_equations(ic):
    G = graph_presheaf(1, [(0, 0), (0, 0)])
    inputs = reference_inputs(ic.base.signature, G)
    base_models = enumerate_algebras(ic.base, 0, carrier=G)
    for q in ic.extra:
        maps = hom_set(q.base.generators, G)
        verdicts = [satisfies(A, q) for A in base_models]
        assert verdicts == [reference_quotient_holds(A, q, inputs, maps)
                            for A in base_models]
        assert set(verdicts) == {True, False}, q.name
        for A, holds in zip(base_models, verdicts):
            assert (satisfies(A, q, witness=True) is None) == holds


def test_satisfies_needs_a_model_of_the_base_presentation(ic):
    # the classes of a quotient equation have values only in models of its
    # base presentation; in any other algebra satisfies names the base
    G = graph_presheaf(2, [(0, 0), (1, 1), (0, 1)])
    (assoc,) = [q for q in ic.extra if q.name == "comp-assoc"]
    algebras = enumerate_algebras(ic.signature, 0, carrier=G)
    assert len(algebras) == 729
    verdicts = []
    for A in algebras:
        if all(satisfies(A, e) for e in ic.base.equations):
            verdicts.append(satisfies(A, assoc))
        else:
            with pytest.raises(StructureError,
                               match="comp-assoc: not a model of internalcat"):
                satisfies(A, assoc, witness=True)
    assert verdicts == [True]
