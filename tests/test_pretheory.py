import itertools
import pathlib
import random

import pytest

from varietal import fileformat, pretheory
from varietal.base import (
    PresheafMorphism,
    finite_set,
    flat_table,
    hom_list,
    trivial_index,
)
from varietal.algebra import enumerate_algebras
from varietal.presentation import FreeAlgebra, Presentation, free_algebra, palg_satisfies
from varietal.pretheory import (
    ConcreteModel,
    Pretheory,
    algebra_as_model,
    check_concrete_model,
    check_pretheory,
    free_pretheory,
    kleisli_models,
    kleisli_pretheory,
    model_as_algebra,
    presentation_of_pretheory,
)
from varietal.catalog import path_graph, semilattice_presentation
from varietal.syntax import (
    Equation,
    FreeFormSignature,
    OperationSymbol,
    app,
    param_term_from_map,
    var,
)

DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "varietal" / "data"

I = trivial_index()


@pytest.fixture(scope="module")
def free2():
    return free_pretheory([finite_set(1, I), finite_set(2, I)])


@pytest.fixture(scope="module")
def kleisli_sl():
    SL = semilattice_presentation()
    T = kleisli_pretheory(SL, [finite_set(1, I), finite_set(2, I)], 3)
    assert T is not None
    return T


def position(homs, f: PresheafMorphism) -> int:
    """Where the validated morphism f sits in the listing ``homs``."""
    return homs.position[flat_table(f)]


def precomposition_model_of(T, carrier):
    homs = {i: hom_list(T.objects[i], carrier) for i in range(len(T.objects))}
    action = {}
    for i in range(len(T.objects)):
        for j in range(len(T.objects)):
            tables = []
            for t in range(T.hom_count(i, j)):
                x = T.c_homs(j, i)[t]
                tables.append(tuple(
                    position(homs[j], x.then(phi)) for phi in homs[i]))
            action[(i, j)] = tables
    return ConcreteModel(T, carrier, action)


def then(f: PresheafMorphism, g: PresheafMorphism) -> PresheafMorphism:
    """"f then g" through the public, validating constructor."""
    assert f.target == g.source
    comps = tuple(tuple(gc[y] for y in fc)
                  for fc, gc in zip(f.components, g.components))
    return PresheafMorphism(f.source, g.target, comps)


def reference_kleisli_pretheory(P, objects, depth, max_nodes=500_000):
    """The Kleisli pretheory built straight from the free algebras: one
    ``evaluate_class`` per composite pair, each composite a validated
    morphism located by ``position``.  Shares no code with the clone."""
    objects = tuple(objects)
    quotients: list[FreeAlgebra] = []
    for J in objects:
        Q = free_algebra(P, J, depth, max_nodes=max_nodes)
        if not Q.saturated:
            return None
        quotients.append(Q)
    algebras = [Q.as_algebra() for Q in quotients]
    n = len(objects)
    kleisli_homs = {}
    homs = {}
    for i in range(n):
        for j in range(n):
            kl = hom_list(objects[j], quotients[i].classes)
            kleisli_homs[(i, j)] = kl
            homs[(i, j)] = tuple(f"k{t}" for t in range(len(kl)))
    identities = [position(kleisli_homs[(i, i)], quotients[i].unit())
                  for i in range(n)]
    compose = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                rows = []
                memo: dict = {}
                for f in kleisli_homs[(i, j)]:
                    row = []
                    for g in kleisli_homs[(j, k)]:
                        comps = tuple(
                            tuple(
                                quotients[j].evaluate_class(
                                    algebras[i], f, sort, g(sort, x), memo)
                                for x in objects[k].elements(sort))
                            for sort in objects[k].index.sorts)
                        composite = PresheafMorphism(
                            objects[k], quotients[i].classes, comps)
                        row.append(position(kleisli_homs[(i, k)], composite))
                    rows.append(row)
                compose[(i, j, k)] = rows
    tau = {}
    for i in range(n):
        unit = quotients[i].unit()
        for j in range(n):
            tau[(i, j)] = tuple(
                position(kleisli_homs[(i, j)], then(x, unit))
                for x in hom_list(objects[j], objects[i]))
    return Pretheory(f"kleisli[{P.name}]", objects, homs, compose, identities, tau)


def reference_free_pretheory(objects, name="free"):
    """T(J, K) = hom(K, J) composed in the base, built pair by pair."""
    objects = tuple(objects)
    n = len(objects)
    homs = {}
    compose = {}
    tau = {}
    identities = []
    hom_lists = {}
    for i in range(n):
        for j in range(n):
            hom_lists[(i, j)] = hom_list(objects[j], objects[i])
            homs[(i, j)] = tuple(
                f"k{t}" for t in range(len(hom_lists[(i, j)])))
            tau[(i, j)] = tuple(range(len(hom_lists[(i, j)])))
    for i in range(n):
        ident = None
        for xi, x in enumerate(hom_lists[(i, i)]):
            if all(c == tuple(range(len(c))) for c in x.components):
                ident = xi
                break
        identities.append(ident)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                # f : J_i -> J_j is x : K_j -> K_i in the base, so "f then
                # g" is the base composite y then x.
                compose[(i, j, k)] = [
                    [position(hom_lists[(i, k)], then(y, x))
                     for y in hom_lists[(j, k)]]
                    for x in hom_lists[(i, j)]]
    return Pretheory(name, objects, homs, compose, identities, tau)


def reference_check_pretheory(T: Pretheory):
    """The category and tau laws, with every base composite a validated
    morphism located by ``position``."""
    out = []
    n = len(T.objects)
    for i in range(n):
        for j in range(n):
            for f in range(T.hom_count(i, j)):
                if T.comp(i, i, j, T.identities[i], f) != f:
                    out.append(("left-identity", (i, j, f)))
                if T.comp(i, j, j, f, T.identities[j]) != f:
                    out.append(("right-identity", (i, j, f)))
    for i, j, k, l in itertools.product(range(n), repeat=4):
        for f in range(T.hom_count(i, j)):
            for g in range(T.hom_count(j, k)):
                for h in range(T.hom_count(k, l)):
                    lhs = T.comp(i, k, l, T.comp(i, j, k, f, g), h)
                    if lhs != T.comp(i, j, l, f, T.comp(j, k, l, g, h)):
                        out.append(("associativity", (i, j, k, l, f, g, h)))
    for i in range(n):
        ident_c = None
        for xi, x in enumerate(T.c_homs(i, i)):
            if all(c == tuple(range(len(c))) for c in x.components):
                ident_c = xi
                break
        if ident_c is not None and T.tau[(i, i)][ident_c] != T.identities[i]:
            out.append(("tau-identity", (i,)))
    for i, j, k in itertools.product(range(n), repeat=3):
        for xi, x in enumerate(T.c_homs(j, i)):
            for yi, y in enumerate(T.c_homs(k, j)):
                xy = position(T.c_homs(k, i), then(y, x))
                rhs = T.comp(i, j, k, T.tau[(i, j)][xi], T.tau[(j, k)][yi])
                if T.tau[(i, k)][xy] != rhs:
                    out.append(("tau-composition", (i, j, k, xi, yi)))
    return out


def reference_check_concrete_model(M: ConcreteModel, first_only=False):
    """Functoriality and the nerve, with each nerve image a validated
    morphism located by ``position``."""
    T = M.pretheory
    out = []
    n = len(T.objects)
    for i in range(n):
        if M.action[(i, i)][T.identities[i]] != tuple(range(len(M.homs(i)))):
            out.append(("model-identity", (i,)))
            if first_only:
                return out
    for i in range(n):
        for j in range(n):
            for xi, x in enumerate(T.c_homs(j, i)):
                expected = tuple(position(M.homs(j), then(x, phi))
                                 for phi in M.homs(i))
                if M.action[(i, j)][T.tau[(i, j)][xi]] != expected:
                    out.append(("model-nerve", (i, j, xi)))
                    if first_only:
                        return out
    for i, j, k in itertools.product(range(n), repeat=3):
        for f in range(T.hom_count(i, j)):
            tf = M.action[(i, j)][f]
            for g in range(T.hom_count(j, k)):
                tg = M.action[(j, k)][g]
                if tuple(tg[v] for v in tf) != M.action[(i, k)][T.comp(i, j, k, f, g)]:
                    out.append(("model-composition", (i, j, k, f, g)))
                    if first_only:
                        return out
    return out


def laws(violations):
    return [(v.law, v.witness) for v in violations]


def bundled_presentation(theory):
    (P,) = fileformat.parse_file(str(DATA / f"{theory}.var")).presentations.values()
    return P


def assert_same_pretheory(got, want):
    assert got.name == want.name
    assert got.objects == want.objects
    assert got.homs == want.homs
    assert got.compose == want.compose
    assert got.identities == want.identities
    assert got.tau == want.tau


@pytest.mark.parametrize("theory,sizes,depth", [
    ("semilattice", (1, 2), 2),
    ("semilattice", (2, 1), 2),
    ("semilattice", (0, 1, 2), 2),
    ("semilattice", (2, 2), 2),
    ("globalstate", (1,), 3),
    ("restriction", (1,), 3),
    ("restriction", (1, 2), 3),
    ("z2mod", (1, 2), 3),
    ("boolmod", (2, 1), 3),
    ("readbits", (1,), 3),
    ("monoid", (1,), 3),
])
def test_kleisli_pretheory_matches_reference(theory, sizes, depth):
    P = bundled_presentation(theory)
    objects = [finite_set(k, P.signature.index) for k in sizes]
    got = kleisli_pretheory(P, objects, depth)
    want = reference_kleisli_pretheory(P, objects, depth)
    assert (got is None) == (want is None)
    if want is not None:
        assert_same_pretheory(got, want)


@pytest.mark.parametrize("sizes", [(1, 2), (0, 1, 2), (2, 3)])
def test_free_pretheory_matches_reference(sizes):
    objects = [finite_set(k, I) for k in sizes]
    assert_same_pretheory(free_pretheory(objects), reference_free_pretheory(objects))


def test_kleisli_pretheory_is_not_checked_again(monkeypatch):
    # the clone's relative-monad laws imply the pretheory laws
    calls = []
    real = pretheory.check_pretheory
    monkeypatch.setattr(pretheory, "check_pretheory",
                        lambda T: calls.append(T) or real(T))
    T = kleisli_pretheory(semilattice_presentation(),
                          [finite_set(1, I), finite_set(2, I)], 3)
    assert T is not None
    assert calls == []


def test_check_pretheory_matches_reference_on_mutants(free2):
    # every entry of every table, each moved to a seeded other value
    rng = random.Random(7)

    def moved(value, count):
        return (value + rng.randrange(1, count)) % count if count > 1 else value

    sites = [("compose", key, (f, g)) for key, rows in free2.compose.items()
             for f, row in enumerate(rows) for g in range(len(row))]
    sites += [("identities", i, None) for i in range(len(free2.objects))]
    sites += [("tau", key, xi) for key, table in free2.tau.items()
              for xi in range(len(table))]
    kinds = set()
    for kind, key, entry in [(None, None, None), *sites]:
        compose = {k: [list(row) for row in v] for k, v in free2.compose.items()}
        identities = list(free2.identities)
        tau = {k: list(v) for k, v in free2.tau.items()}
        if kind == "compose":
            i, _, k = key
            f, g = entry
            compose[key][f][g] = moved(compose[key][f][g], free2.hom_count(i, k))
        elif kind == "identities":
            identities[key] = moved(identities[key], free2.hom_count(key, key))
        elif kind == "tau":
            tau[key][entry] = moved(tau[key][entry], free2.hom_count(*key))
        bad = Pretheory("bad", free2.objects, free2.homs, compose,
                        identities, tau)
        want = reference_check_pretheory(bad)
        assert laws(check_pretheory(bad)) == want
        kinds.update(law for law, _ in want)
    assert {"associativity", "tau-composition", "tau-identity"} <= kinds


def test_check_concrete_model_matches_reference_on_mutants(free2):
    M = precomposition_model_of(free2, finite_set(2, I))
    # every action entry, each moved to a seeded other value
    rng = random.Random(11)
    sites = [(key, t, row) for key, tables in M.action.items()
             for t, table in enumerate(tables) for row in range(len(table))]
    kinds = set()
    for site in [None, *sites]:
        action = {k: [list(t) for t in v] for k, v in M.action.items()}
        if site is not None:
            (i, j), t, row = site
            count = len(M.homs(j))
            action[(i, j)][t][row] = (action[(i, j)][t][row]
                                      + rng.randrange(1, count)) % count
        bad = ConcreteModel(free2, M.carrier, action)
        assert laws(check_concrete_model(bad)) == reference_check_concrete_model(bad)
        assert (laws(check_concrete_model(bad, first_only=True))
                == reference_check_concrete_model(bad, first_only=True))
        kinds.update(law for law, _ in reference_check_concrete_model(bad))
    assert {"model-nerve", "model-composition"} <= kinds


def test_free_pretheory_valid(free2):
    assert check_pretheory(free2) == []


def test_kleisli_pretheory_valid_and_sizes(kleisli_sl):
    assert check_pretheory(kleisli_sl) == []
    assert kleisli_sl.hom_count(1, 0) == 3   # hom(1, free semilattice on 2)
    assert kleisli_sl.hom_count(0, 0) == 1
    assert kleisli_sl.hom_count(1, 1) == 9


def test_kleisli_global_state_size():
    from varietal.catalog import global_state_presentation
    GS = global_state_presentation(2, 1)
    T = kleisli_pretheory(GS, [finite_set(1, I)], 3)
    assert T is not None
    assert T.hom_count(0, 0) == 4


def test_kleisli_unsaturated_returns_none():
    from varietal.catalog import monoid_presentation
    M = monoid_presentation()
    assert kleisli_pretheory(M, [finite_set(1, I)], 3) is None
    assert kleisli_models(M, [finite_set(1, I), finite_set(2, I)], 2, 1) is None


def test_corrupt_composition_reports_associativity(free2):
    compose = {k: [list(row) for row in v] for k, v in free2.compose.items()}
    row = compose[(1, 1, 1)][0]
    row[0] = (row[0] + 1) % free2.hom_count(1, 1)
    bad = Pretheory("bad", free2.objects, free2.homs, compose,
                    free2.identities, free2.tau)
    violations = check_pretheory(bad)
    assert violations
    assert any(v.law in ("associativity", "left-identity", "right-identity",
                         "tau-composition", "tau-identity")
               for v in violations)


def test_precomposition_model_valid(free2):
    for n in range(3):
        M = precomposition_model_of(free2, finite_set(n, I))
        assert check_concrete_model(M) == []


def test_model_nerve_violation_detected(free2):
    carrier = finite_set(2, I)
    M = precomposition_model_of(free2, carrier)
    action = {k: [list(t) for t in v] for k, v in M.action.items()}
    # break one tau-image table
    token = free2.tau[(1, 0)][0]
    action[(1, 0)][token][0] = (action[(1, 0)][token][0] + 1) % len(M.homs(0))
    bad = ConcreteModel(free2, carrier, action)
    violations = check_concrete_model(bad)
    assert violations
    assert any(v.law in ("model-nerve", "model-composition") for v in violations)


def test_presentation_of_pretheory_symbol_count(free2):
    P = presentation_of_pretheory(free2)
    assert len(P.signature.symbols) == len(free2.objects) ** 2


def test_free_pretheory_algebras_are_bare_sets():
    T = free_pretheory([finite_set(1, I)])
    P = presentation_of_pretheory(T)
    for n in range(4):
        algs = enumerate_algebras(P, 0, carrier=finite_set(n, I))
        assert len(algs) == 1


def semilattice_tables(n):
    out = []
    for cells in itertools.product(range(n), repeat=n * n):
        tab = {(a, b): cells[a * n + b] for a in range(n) for b in range(n)}
        if any(tab[(a, a)] != a for a in range(n)):
            continue
        if any(tab[(a, b)] != tab[(b, a)] for a in range(n) for b in range(n)):
            continue
        if any(tab[(tab[(a, b)], c)] != tab[(a, tab[(b, c)])]
               for a in range(n) for b in range(n) for c in range(n)):
            continue
        out.append(tab)
    return out


def join_tables(models, n):
    """The join table of each model on n elements, as one value per family."""
    homs2 = hom_list(finite_set(2, I), finite_set(n, I))
    return sorted(tuple(A.values["join"][i]("*", 0) for i in range(len(homs2)))
                  for A, _ in models if A.carrier is finite_set(n, I))


def expected_join_tables(n):
    return sorted(tuple(tab[h.components[0]]
                        for h in hom_list(finite_set(2, I), finite_set(n, I)))
                  for tab in semilattice_tables(n))


def test_kleisli_models_match_semilattices_small():
    # arities (1, 2, 3) cover every equation arity of the presentation; the
    # actions are checked against the reference pretheory by
    # test_kleisli_models_match_reference[sl-1-2-3]
    SL = semilattice_presentation()
    models = kleisli_models(SL, [finite_set(k, I) for k in (1, 2, 3)], 3, 2)
    for n in range(3):
        assert join_tables(models, n) == expected_join_tables(n)


def test_kleisli_models_build_no_validated_morphisms(count_morphism_calls):
    calls = count_morphism_calls()
    models = kleisli_models(semilattice_presentation(),
                            [finite_set(k, I) for k in (1, 2, 3)], 3, 3)
    assert len(models) == 13
    assert calls["__post_init__"] <= 1000
    assert calls["then"] == 0


def test_kleisli_models_over_an_arity_family_missing_join_keep_every_table():
    # the one token over arity 1 is the identity, so every join table is
    # forced to a model; only 6 of these 18 make each alpha_i(phi) a
    # homomorphism, since arity 2 is not among the objects
    SL = semilattice_presentation()
    models = kleisli_models(SL, [finite_set(1, I)], 3, 2)
    assert len(models) == 18
    assert ([A.canonical_key() for A, _ in models]
            == [A.canonical_key() for A in enumerate_algebras(SL.signature, 2)])


def loops_presentation():
    """A loop at every vertex of the graph index."""
    g0 = path_graph(0)
    sig = FreeFormSignature("loops", [OperationSymbol("ident", g0, path_graph(1))])
    v0 = var(sig, "v", 0)
    return Presentation("loops", sig, [
        Equation(f"ident-{end}",
                 param_term_from_map(sig, g0, g0, lambda s, c, end=end: app(
                     sig, "ident", ((v0,), ()), "v", end, g0)),
                 param_term_from_map(sig, g0, g0, lambda s, c: v0))
        for end in (0, 1)])


def projection_presentation():
    """s(x, y) = x."""
    two = finite_set(2, I)
    sig = FreeFormSignature("proj", [OperationSymbol("s", two, finite_set(1, I))])
    x, y = var(sig, "*", 0), var(sig, "*", 1)
    return Presentation("proj", sig, [Equation(
        "first",
        param_term_from_map(sig, two, finite_set(1, I),
                            lambda s, c: app(sig, "s", ((x, y),), "*", 0, two)),
        param_term_from_map(sig, two, finite_set(1, I), lambda s, c: x))])


def test_kleisli_models_on_the_graph_index_are_the_presentation_models():
    # a loop at every vertex; where a candidate's loop leaves its vertex,
    # interpreting the free classes is not natural and no action is forced
    P = loops_presentation()
    models = kleisli_models(P, [path_graph(0), path_graph(1)], 3, 2)
    assert len(models) == 6
    assert ([A.canonical_key() for A, _ in models]
            == [A.canonical_key() for A in enumerate_algebras(P, 2)])


def test_kleisli_models_of_the_projection_theory_keep_every_table():
    # every free class's representative is a variable, so the forced action
    # never reads s and all 18 tables are models; equations asking each
    # alpha_i(phi) to be a homomorphism would wrongly keep only P's 3
    P = projection_presentation()
    models = kleisli_models(P, [finite_set(k, I) for k in (1, 2)], 3, 2)
    assert len(models) == 18
    assert ([A.canonical_key() for A, _ in models]
            == [A.canonical_key() for A in enumerate_algebras(P.signature, 2)])
    assert len(enumerate_algebras(P, 2)) == 3


def reference_kleisli_models(P, objects, depth, max_size):
    """Every signature algebra whose forced action is a model, by exhaustion.

    The token g in hom(J_j, H J_i) sends phi to "g then alpha_i(phi)", each
    class value read by ``evaluate_class``; a candidate where that is not a
    listed family forces no action.  The model check is the test's own."""
    objects = tuple(objects)
    T = reference_kleisli_pretheory(P, objects, depth)
    quotients = [free_algebra(P, J, depth) for J in objects]
    n = len(objects)
    out = []
    for A in enumerate_algebras(P.signature, max_size):
        alphas = []
        for J, Q in zip(objects, quotients):
            memo: dict = {}
            alphas.append([[A.carrier.offset(s) + Q.evaluate_class(A, phi, s, c, memo)
                            for s in Q.index.sorts for c in Q.classes.elements(s)]
                           for phi in hom_list(J, A.carrier)])
        action = {}
        for i, j in itertools.product(range(n), repeat=2):
            position = hom_list(objects[j], A.carrier).position
            action[(i, j)] = [
                tuple(position.get(tuple(alpha[c] for c in flat_table(g)))
                      for alpha in alphas[i])
                for g in hom_list(objects[j], quotients[i].classes)]
        if any(None in table for tables in action.values() for table in tables):
            continue
        model = ConcreteModel(T, A.carrier, action)
        if not reference_check_concrete_model(model, first_only=True):
            out.append((A, model))
    return out


@pytest.mark.parametrize("P, objects", [
    *((semilattice_presentation(), [finite_set(k, I) for k in arities])
      for arities in ((1,), (2,), (1, 2), (1, 2, 3))),
    (projection_presentation(), [finite_set(k, I) for k in (1, 2)]),
    (loops_presentation(), [path_graph(0), path_graph(1)]),
], ids=["sl-1", "sl-2", "sl-1-2", "sl-1-2-3", "proj-1-2", "loops"])
def test_kleisli_models_match_reference(P, objects):
    got = kleisli_models(P, objects, 3, 2)
    want = reference_kleisli_models(P, objects, 3, 2)
    assert ([A.canonical_key() for A, _ in got]
            == [A.canonical_key() for A, _ in want])
    assert [M.action for _, M in got] == [M.action for _, M in want]


def test_kleisli_models_over_arities_two_and_three_are_semilattices():
    models = kleisli_models(semilattice_presentation(),
                            [finite_set(k, I) for k in (2, 3)], 3, 3)
    assert len(models) == 13
    for n in range(4):
        assert join_tables(models, n) == expected_join_tables(n)


def test_thm_9_1_model_algebra_round_trip(kleisli_sl):
    SL = semilattice_presentation()
    P = presentation_of_pretheory(kleisli_sl)
    models = kleisli_models(SL, kleisli_sl.objects, 3, 2)
    keys = set()
    for _, M in models:
        A = model_as_algebra(P, M)
        assert palg_satisfies(A, P)
        back = algebra_as_model(kleisli_sl, A)
        assert back.action == M.action
        keys.add(A.canonical_key())
    assert len(keys) == len(models)
