import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from varietal import syntax
from varietal.base import (
    Presheaf,
    ResourceCeiling,
    StructureError,
    finite_set,
    hom_set,
    identity_morphism,
    parallel_pair_index,
    terminal,
    trivial_index,
)
from varietal.catalog import graph_presheaf
from varietal.syntax import (
    Assignment,
    FreeFormSignature,
    OperationSymbol,
    ParamTerm,
    act,
    app,
    compose_assignments,
    enumerate_terms,
    from_traditional,
    precompose,
    standardize,
    substitute,
    var,
    var_assignment,
)


@pytest.fixture(scope="module")
def sl_sig():
    I = trivial_index()
    return FreeFormSignature(
        "sl", [OperationSymbol("join", finite_set(2, I), terminal(I))])


def terms_strategy(sig, J, max_depth=3):
    leaf = st.integers(0, J.size("*") - 1).map(lambda i: var(sig, "*", i))

    def extend(children):
        return st.tuples(children, children).map(
            lambda ab: app(sig, "join", ((ab[0], ab[1]),), "*", 0, J))

    return st.recursive(leaf, extend, max_leaves=2 ** max_depth)


def test_standardize_single_symbol(sl_sig):
    trad, ins = standardize(sl_sig)
    assert len(trad.arities) == 1
    assert trad.parameters[0].sizes == (1,)
    assert ins["join"].components == identity_morphism(terminal(trivial_index())).components


def test_standardize_global_state_shapes(global_state):
    trad, _ = standardize(global_state.signature)
    by_arity = {a.sizes: p.sizes for a, p in zip(trad.arities, trad.parameters)}
    assert by_arity[(2,)] == (1,)   # lookup bundles into parameter L
    assert by_arity[(1,)] == (2,)   # update bundles into parameter L x V


def test_standardize_merges_equal_arities():
    I = trivial_index()
    two = finite_set(2, I)
    sig = FreeFormSignature("two-ops", [
        OperationSymbol("f", two, finite_set(2, I)),
        OperationSymbol("g", two, finite_set(3, I)),
    ])
    trad, ins = standardize(sig)
    assert len(trad.arities) == 1
    assert trad.parameters[0].sizes == (5,)
    # insertions are jointly surjective and disjoint
    assert sorted(ins["f"].components[0]) + sorted(ins["g"].components[0]) == [0, 1, 2, 3, 4]


def test_from_traditional_shapes(sl_sig):
    trad, _ = standardize(sl_sig)
    back = from_traditional(trad)
    assert len(back.symbols) == 1
    assert back.symbols[0].arity.sizes == (2,)
    assert back.symbols[0].parameter.sizes == (1,)


def test_from_traditional_empty_parameters():
    I = trivial_index()
    from varietal.syntax import TraditionalSignature
    trad = TraditionalSignature((finite_set(2, I),), (finite_set(0, I),))
    sig = from_traditional(trad)
    # no parameter elements means no applicable operations: only variables
    uni = enumerate_terms(sig, finite_set(2, I), 3)
    assert uni.total == 2


def test_substitute_unit_laws(sl_sig):
    I = trivial_index()
    two = finite_set(2, I)
    x, y = var(sl_sig, "*", 0), var(sl_sig, "*", 1)
    t = app(sl_sig, "join", ((x, y),), "*", 0, two)
    assert substitute(sl_sig, t, var_assignment(sl_sig, two)) is t
    phi = Assignment(sl_sig, two, two, ((t, x),))
    assert substitute(sl_sig, x, phi) is t


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_substitute_associativity(sl_sig, data):
    I = trivial_index()
    two = finite_set(2, I)
    t = data.draw(terms_strategy(sl_sig, two))
    phi = Assignment(sl_sig, two, two, (
        (data.draw(terms_strategy(sl_sig, two)),
         data.draw(terms_strategy(sl_sig, two))),))
    psi = Assignment(sl_sig, two, two, (
        (data.draw(terms_strategy(sl_sig, two)),
         data.draw(terms_strategy(sl_sig, two))),))
    left = substitute(sl_sig, substitute(sl_sig, t, phi), psi)
    right = substitute(sl_sig, t, compose_assignments(sl_sig, phi, psi))
    assert left is right


def test_act_identity_and_trivial_index(sl_sig):
    I = trivial_index()
    two = finite_set(2, I)
    x = var(sl_sig, "*", 0)
    t = app(sl_sig, "join", ((x, x),), "*", 0, two)
    assert act(sl_sig, two, "id", t) is t


def test_act_on_graph_variables():
    B = parallel_pair_index()
    e1 = __import__("varietal.base", fromlist=["Presheaf"]).Presheaf(
        B, (2, 1), ((0, 1), (0,), (0,), (1,)))
    sig = FreeFormSignature("g", [OperationSymbol("c", e1, terminal(B))])
    ve = var(sig, "e", 0)
    assert act(sig, e1, "s", ve) is var(sig, "v", 0)
    assert act(sig, e1, "t", ve) is var(sig, "v", 1)


def test_act_functoriality_on_terms():
    B = parallel_pair_index()
    from varietal.base import Presheaf
    e1 = Presheaf(B, (2, 1), ((0, 1), (0,), (0,), (1,)))
    one = terminal(B)
    sig = FreeFormSignature("g", [OperationSymbol("nu", e1, one)])
    t = app(sig, "nu", ((var(sig, "v", 0), var(sig, "v", 1)),
                        (var(sig, "e", 0),)), "e", 0, e1)
    for m in ("s", "t"):
        assert act(sig, e1, m, t).sort == "v"


def test_enumerate_terms_depths(sl_sig):
    I = trivial_index()
    two = finite_set(2, I)
    u0 = enumerate_terms(sl_sig, two, 0)
    assert u0.total == 2
    u1 = enumerate_terms(sl_sig, two, 1)
    assert u1.total == 6
    u2 = enumerate_terms(sl_sig, two, 2)
    assert u2.total == 38
    assert u0.total < u1.total < u2.total


def test_enumerate_terms_closed_under_act():
    B = parallel_pair_index()
    from varietal.base import Presheaf
    e1 = Presheaf(B, (2, 1), ((0, 1), (0,), (0,), (1,)))
    sig = FreeFormSignature("g", [OperationSymbol("nu", e1, e1)])
    uni = enumerate_terms(sig, e1, 2)
    for sort in ("v", "e"):
        for t in uni.terms(sort):
            for m in ("s", "t"):
                if B.src(m) == sort:
                    assert uni.act(m, t) in uni


def test_binding_validation_rejects_nonnatural():
    B = parallel_pair_index()
    from varietal.base import Presheaf
    e1 = Presheaf(B, (2, 1), ((0, 1), (0,), (0,), (1,)))
    sig = FreeFormSignature("g", [OperationSymbol("nu", e1, terminal(B))])
    with pytest.raises(StructureError):
        # vertex components swapped: act(s, e0) is v0, not v1
        app(sig, "nu", ((var(sig, "v", 1), var(sig, "v", 0)),
                        (var(sig, "e", 0),)), "e", 0, e1)


def test_out_of_range_variable_is_a_structure_error_on_the_graph_index():
    # the variable (v, 5) in a context with two vertices and no edges
    B = parallel_pair_index()
    e1 = Presheaf(B, (2, 1), ((0, 1), (0,), (0,), (1,)))
    two_v = Presheaf(B, (2, 0), ((0, 1), (), (), ()))
    sig = FreeFormSignature("g", [OperationSymbol("nu", e1, terminal(B))])
    rows = ((var(sig, "v", 5), var(sig, "v", 1)), (var(sig, "e", 0),))
    with pytest.raises(StructureError, match="entry 0 at v"):
        app(sig, "nu", rows, "e", 0, two_v)
    with pytest.raises(StructureError, match="entry 0 at v"):
        Assignment(sig, e1, two_v, rows)
    with pytest.raises(StructureError, match="entry 0 at v"):
        Assignment(sig, two_v, two_v, (rows[0], ()))


def test_term_families_check_variables_below_the_top(sl_sig):
    # a term built over three variables does not fit a context of two
    I = trivial_index()
    two, three = finite_set(2, I), finite_set(3, I)
    x, z = var(sl_sig, "*", 0), var(sl_sig, "*", 2)
    t = app(sl_sig, "join", ((x, z),), "*", 0, three)
    with pytest.raises(StructureError, match="parametrized term"):
        ParamTerm(sl_sig, two, terminal(I), ((t,),))
    with pytest.raises(StructureError, match="assignment"):
        Assignment(sl_sig, finite_set(1, I), two, ((t,),))
    with pytest.raises(StructureError, match="binding for join"):
        app(sl_sig, "join", ((x, z),), "*", 0, two)
    assert ParamTerm(sl_sig, three, terminal(I), ((t,),)).rows == ((t,),)


def test_one_structure_is_one_term_over_every_context(sl_sig):
    # join(x, y) built over two and over three variables is one object, and
    # a member of both universes
    I = trivial_index()
    two, three = finite_set(2, I), finite_set(3, I)
    x, y = var(sl_sig, "*", 0), var(sl_sig, "*", 1)
    a = app(sl_sig, "join", ((x, y),), "*", 0, two)
    assert app(sl_sig, "join", ((x, y),), "*", 0, three) is a
    assert a in enumerate_terms(sl_sig, two, 1)
    assert a in enumerate_terms(sl_sig, three, 1)


def test_app_rejects_a_variable_out_of_range_below_its_children(sl_sig):
    # the child join(x0, x2) fits three variables, so the whole term does
    # not fit two
    I = trivial_index()
    two, three = finite_set(2, I), finite_set(3, I)
    x0, x1, x2 = (var(sl_sig, "*", i) for i in range(3))
    inner = app(sl_sig, "join", ((x0, x2),), "*", 0, three)
    with pytest.raises(StructureError, match="binding for join"):
        app(sl_sig, "join", ((inner, x1),), "*", 0, two)
    assert app(sl_sig, "join", ((inner, x1),), "*", 0, three).fits(three)


def test_app_and_assignments_check_nested_bindings_along_the_context():
    # inner is natural over the edge 0 -> 1, whose maps its binding follows;
    # in a graph with the edge 1 -> 0 it is not a term, at any depth
    B = parallel_pair_index()
    e1 = Presheaf(B, (2, 1), ((0, 1), (0,), (0,), (1,)))
    reversed_edge = graph_presheaf(2, [(1, 0)])
    two_v = Presheaf(B, (2, 0), ((0, 1), (), (), ()))
    sig = FreeFormSignature("g", [OperationSymbol("nu", e1, e1)])
    v0, v1, e0 = var(sig, "v", 0), var(sig, "v", 1), var(sig, "e", 0)
    inner = app(sig, "nu", ((v0, v1), (e0,)), "e", 0, e1)
    rows = ((act(sig, e1, "s", inner), act(sig, e1, "t", inner)), (inner,))
    with pytest.raises(StructureError, match="binding for nu: entry 0 at v "
                       "is not a term over the context"):
        app(sig, "nu", rows, "e", 0, reversed_edge)
    with pytest.raises(StructureError, match="assignment: entry 0 at v is "
                       "not a term over the context"):
        Assignment(sig, e1, reversed_edge, rows)
    # a family out of two vertices has no naturality of its own to check
    with pytest.raises(StructureError, match="assignment"):
        Assignment(sig, two_v, reversed_edge, (rows[0], ()))
    assert app(sig, "nu", rows, "e", 0, e1).fits(e1)
    assert not inner.fits(reversed_edge)
    assert Assignment(sig, e1, e1, rows).rows == rows


def test_universes_over_nested_contexts_share_their_terms(sl_sig):
    I = trivial_index()
    small = enumerate_terms(sl_sig, finite_set(2, I), 2)
    large = enumerate_terms(sl_sig, finite_set(3, I), 2)
    listed = {id(t) for t in large.terms("*")}
    assert small.total == 38
    assert all(id(t) in listed for t in small.terms("*"))


def in_context_reference(sig, J):
    """The check on an entry of a term family over J by a walk of the whole
    term: the entry's sort, every variable at any depth in J, and every
    binding natural along J's maps."""
    seen = set()

    def natural(t):
        X = t.symbol.arity
        idx = X.index
        return all(
            act(sig, J, m, u) is t.binding[idx.sort_index(tgt)][X.map(m)[x]]
            for m, src, tgt in idx.morphisms if m not in idx.identities
            for x, u in enumerate(t.binding[idx.sort_index(src)]))

    def within(t):
        if t.is_var:
            return t.var < J.size(t.sort)
        if id(t) in seen:
            return True
        seen.add(id(t))
        return all(within(u) for row in t.binding for u in row) and natural(t)

    return lambda sort, t: t.sort == sort and within(t)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fits_agrees_with_the_whole_term_walk_on_the_trivial_index(
        sl_sig, data):
    I = trivial_index()
    t = data.draw(terms_strategy(sl_sig, finite_set(4, I)))
    J = finite_set(data.draw(st.integers(0, 4)), I)
    assert t.fits(J) == in_context_reference(sl_sig, J)(t.sort, t)


def graph_terms_and_contexts():
    """Terms of depth at most 2 over a graph with a path and a loop, for a
    symbol with one edge as arity and as parameter; and smaller graphs."""
    B = parallel_pair_index()
    e1 = Presheaf(B, (2, 1), ((0, 1), (0,), (0,), (1,)))
    sig = FreeFormSignature("g", [OperationSymbol("nu", e1, e1)])
    universe = enumerate_terms(sig, graph_presheaf(3, [(0, 1), (1, 2), (2, 2)]), 2)
    contexts = [graph_presheaf(nv, edges) for nv, edges in (
        (0, []), (1, [(0, 0)]), (2, [(0, 1)]), (2, [(0, 0), (1, 1), (0, 1)]),
        (3, [(0, 1), (1, 2)]), (3, [(0, 1), (1, 2), (2, 2)]))]
    terms = [t for sort in B.sorts for t in universe.terms(sort)]
    return sig, terms, contexts


GRAPH_SIG, GRAPH_TERMS, GRAPH_CONTEXTS = graph_terms_and_contexts()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(GRAPH_TERMS), st.sampled_from(GRAPH_CONTEXTS))
def test_fits_agrees_with_the_whole_term_walk_on_the_graph_index(t, J):
    assert t.fits(J) == in_context_reference(GRAPH_SIG, J)(t.sort, t)


def test_fits_checks_every_binding_against_the_context_maps():
    # GRAPH_TERMS holds terms over one graph that have all their variables
    # in range over another but a binding that is natural there only
    J = GRAPH_CONTEXTS[3]
    assert any(t.fits(graph_presheaf(3, [(0, 1), (1, 2), (2, 2)]))
               and all(n <= J.size(s) for s, n in t.bound) and not t.fits(J)
               for t in GRAPH_TERMS)


def test_enumerate_terms_past_its_bound_is_a_resource_ceiling(monkeypatch):
    I = trivial_index()
    sig = FreeFormSignature(
        "sl", [OperationSymbol("join", finite_set(2, I), terminal(I))])
    two = finite_set(2, I)
    monkeypatch.setattr(syntax, "MAX_TERMS", 5)
    with pytest.raises(ResourceCeiling, match="6 terms, over the bound 5"):
        enumerate_terms(sig, two, 2)
    monkeypatch.setattr(syntax, "MAX_TERMS", 6)
    assert enumerate_terms(sig, two, 1).total == 6


def test_precompose_identity_and_column(sl_sig):
    I = trivial_index()
    two = finite_set(2, I)
    x, y = var(sl_sig, "*", 0), var(sl_sig, "*", 1)
    pt = ParamTerm(sl_sig, two, finite_set(2, I),
                   ((app(sl_sig, "join", ((x, y),), "*", 0, two),
                     app(sl_sig, "join", ((y, x),), "*", 0, two)),))
    assert precompose(pt, identity_morphism(pt.parameter)).rows == pt.rows
    for point in hom_set(terminal(I), pt.parameter):
        col = precompose(pt, point)
        assert col.rows == ((pt("*", point("*", 0)),),)


def test_depth_of_nullary_application():
    I = trivial_index()
    sig = FreeFormSignature(
        "pointed", [OperationSymbol("e", finite_set(0, I), terminal(I))])
    t = app(sig, "e", ((),), "*", 0, finite_set(1, I))
    assert t.depth == 1
