import gc
import itertools
import pathlib
import random
import sys
import threading
import weakref

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from varietal import base, fileformat
from varietal.base import (
    Presheaf,
    PresheafMorphism,
    IndexCategory,
    StructureError,
    coproduct,
    copower,
    empty,
    element_family,
    finite_set,
    flat_table,
    hom_list,
    hom_set,
    identity_morphism,
    injections,
    iter_families,
    jointly_surjective,
    parallel_pair_index,
    product,
    projections,
    representable,
    terminal,
    trivial_index,
)


def random_graph(rng, max_v=4, max_e=5):
    B = parallel_pair_index()
    nv = rng.randint(1, max_v)
    ne = rng.randint(0, max_e)
    edges = [(rng.randrange(nv), rng.randrange(nv)) for _ in range(ne)]
    return Presheaf(B, (nv, ne),
                    (tuple(range(nv)), tuple(range(ne)),
                     tuple(e[0] for e in edges), tuple(e[1] for e in edges)))


def single_edge():
    B = parallel_pair_index()
    return Presheaf(B, (2, 1), ((0, 1), (0,), (0,), (1,)))


def test_hom_set_functions_three_to_two(I):
    assert len(hom_set(finite_set(3, I), finite_set(2, I))) == 8


def test_hom_set_out_of_empty_is_initial(I):
    assert len(hom_set(empty(I), finite_set(3, I))) == 1


def test_hom_set_from_edge_counts_edges():
    # one morphism [1] -> G per edge of G, on a handful of random graphs
    rng = random.Random(7)
    e1 = single_edge()
    for _ in range(5):
        G = random_graph(rng)
        assert len(hom_set(e1, G)) == G.sizes[1]


def test_hom_set_requires_common_index(I, B):
    with pytest.raises(StructureError):
        hom_set(finite_set(1, I), terminal(B))


def test_hom_set_canonical_order_is_lexicographic(I):
    homs = hom_set(finite_set(2, I), finite_set(2, I))
    tables = [h.components[0] for h in homs]
    assert tables == sorted(tables)
    assert tables == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_hom_count_bound_with_equality_iff_discrete():
    # nontrivial index: strictly fewer morphisms than the product bound
    G = single_edge()
    bound = 1
    for sort in G.index.sorts:
        bound *= G.size(sort) ** G.size(sort)
    assert len(hom_set(G, G)) < bound
    I = trivial_index()
    X = finite_set(2, I)
    assert len(hom_set(X, X)) == 4


def test_copower_zero_and_one(I):
    X = finite_set(3, I)
    assert copower(0, X) == empty(I)
    assert copower(1, X) == X


def test_copower_of_edge_graph():
    cp = copower(2, single_edge())
    assert cp.sizes == (4, 2)
    # action stays within each copy
    assert cp.map("s") == (0, 2)
    assert cp.map("t") == (1, 3)


def test_product_with_terminal_and_coproduct_with_empty(I):
    X = finite_set(3, I)
    assert product(X, terminal(I)) == X == product(terminal(I), X)
    assert coproduct(X, empty(I)) == X == coproduct(empty(I), X)


def test_product_sizes_multiply():
    rng = random.Random(3)
    for _ in range(5):
        X, Y = random_graph(rng), random_graph(rng)
        P = product(X, Y)
        for sort in X.index.sorts:
            assert P.size(sort) == X.size(sort) * Y.size(sort)


def test_projections_and_injections_are_natural(I):
    X, Y = finite_set(2, I), finite_set(3, I)
    p1, p2 = projections(X, Y)
    i1, i2 = injections(X, Y)
    assert p1.target == X and p2.target == Y
    assert i1.source == X and i2.source == Y


def test_jointly_surjective_cases(I):
    X = finite_set(2, I)
    assert jointly_surjective([identity_morphism(X)])
    assert not jointly_surjective([], codomain=X)
    assert jointly_surjective([], codomain=empty(I))
    i1, i2 = injections(X, finite_set(3, I))
    assert jointly_surjective([i1, i2])
    assert not jointly_surjective([i1])


def test_element_family_is_jointly_surjective():
    rng = random.Random(11)
    for _ in range(5):
        G = random_graph(rng)
        fam = element_family(G)
        if G.total_size:
            assert jointly_surjective(fam)


def test_representable_at_edge_sort():
    B = parallel_pair_index()
    Y, labels = representable(B, "e")
    # ide stays at the edge sort; s, t land at the vertex sort
    assert Y.sizes == (2, 1)
    assert set(labels) == {"ide", "s", "t"}


def test_presheaf_validation_rejects_nonfunctorial():
    B = parallel_pair_index()
    with pytest.raises(StructureError):
        Presheaf(B, (2, 1), ((0, 1), (0,), (0,), (5,)))
    with pytest.raises(StructureError):
        # identity table must be the identity
        Presheaf(B, (2, 1), ((1, 0), (0,), (0,), (1,)))


def test_morphism_validation_rejects_nonnatural():
    G = single_edge()
    H = Presheaf(G.index, (2, 2), ((0, 1), (0, 1), (0, 1), (1, 0)))
    with pytest.raises(StructureError):
        PresheafMorphism(G, H, ((0, 1), (1,)))


def test_then_equals_the_validated_composite():
    # then skips re-validation, so its composites must equal the ones the
    # public constructor builds, and non-composable pairs still raise
    X = single_edge()
    Y = Presheaf(X.index, (2, 2), ((0, 1), (0, 1), (0, 1), (1, 0)))  # 2-cycle
    Z = Presheaf(X.index, (1, 2), ((0,), (0, 1), (0, 0), (0, 0)))  # 2 loops
    pairs = [(f, g) for f in hom_list(X, Y) for g in hom_list(Y, Z)]
    assert len(pairs) == 2 * 4
    for f, g in pairs:
        comps = tuple(tuple(gc[y] for y in fc)
                      for fc, gc in zip(f.components, g.components))
        fg = f.then(g)
        assert fg == PresheafMorphism(X, Z, comps)
        assert fg in hom_list(X, Z)
    with pytest.raises(StructureError):
        identity_morphism(X).then(identity_morphism(Y))


def test_morphism_check_agrees_with_hom_set_on_random_graphs():
    # hom_set builds its morphisms without the check, so the check and
    # iter_families must accept exactly the same in-range component rows
    rng = random.Random(11)
    accepted = rejected = 0
    for _ in range(12):
        X = random_graph(rng, max_v=3, max_e=2)
        Y = random_graph(rng, max_v=3, max_e=3)
        rows = [itertools.product(range(Y.size(sort)), repeat=X.size(sort))
                for sort in X.index.sorts]
        passed = set()
        for comps in itertools.product(*rows):
            try:
                PresheafMorphism(X, Y, comps)
            except StructureError:
                rejected += 1
            else:
                passed.add(comps)
        assert passed == {h.components for h in hom_set(X, Y)}
        accepted += len(passed)
    assert accepted > 0 and rejected > 0


def test_trusted_builders_pass_the_check():
    # identities, projections, injections and Yoneda maps skip the check
    rng = random.Random(5)
    for _ in range(5):
        X, Y = random_graph(rng), random_graph(rng)
        built = [identity_morphism(X), *projections(X, Y),
                 *injections(X, Y), *element_family(X), *hom_set(X, Y)[:20]]
        for f in built:
            assert PresheafMorphism(f.source, f.target, f.components) == f


@settings(max_examples=30)
@given(st.integers(0, 3), st.integers(0, 3))
def test_hom_set_size_over_sets(n, m):
    I = trivial_index()
    homs = hom_set(finite_set(n, I), finite_set(m, I))
    expected = m ** n if n else 1
    assert len(homs) == expected


def test_hom_list_is_listed_once_and_shared(I):
    X, Y = finite_set(2, I), finite_set(3, I)
    homs = hom_list(X, Y)
    assert isinstance(homs, tuple)
    assert hom_list(X, Y) is homs
    assert [h.components for h in homs] == [h.components for h in hom_set(X, Y)]
    assert ([homs.position[flat_table(h)] for h in hom_set(X, Y)]
            == list(range(len(homs))))


def test_hom_list_racing_threads_keep_one_listing(I):
    X, Y = finite_set(3, I), finite_set(3, I)
    got = []
    threads = [threading.Thread(target=lambda: got.append(hom_list(X, Y)))
               for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == len(threads)
    assert all(homs is hom_list(X, Y) for homs in got)


# -- iter_families -------------------------------------------------------------


def recursive_families(X, choices, act):
    """The eager recursive search ``iter_families`` replaced, kept as the
    reference it must match."""
    idx = X.index
    slots, cuts = [], []
    for sort in idx.sorts:
        start = len(slots)
        slots.extend((sort, x) for x in X.elements(sort))
        cuts.append((start, len(slots)))
    pos = {slot: i for i, slot in enumerate(slots)}
    pools = [choices(sort, x) for sort, x in slots]
    constraints = [[] for _ in slots]
    for m, src, tgt in idx.morphisms:
        if m in idx.identities:
            continue
        for x in X.elements(src):
            i, j = pos[(src, x)], pos[(tgt, X.map(m)[x])]
            if i < j:
                constraints[j].append((m, i, +1))
            elif j < i:
                constraints[i].append((m, j, -1))
            else:
                constraints[i].append((m, i, 0))
    out, chosen = [], [None] * len(slots)

    def ok(k, value):
        for m, other, direction in constraints[k]:
            if direction == +1:
                if act(m, chosen[other]) != value:
                    return False
            elif direction == -1:
                if act(m, value) != chosen[other]:
                    return False
            elif act(m, value) != value:
                return False
        return True

    def rec(k):
        if k == len(slots):
            out.append(tuple([tuple(chosen[i:j]) for i, j in cuts]))
            return
        for value in pools[k]:
            if ok(k, value):
                chosen[k] = value
                rec(k + 1)
        chosen[k] = None

    rec(0)
    return out


def idempotent_index():
    """One sort with an idempotent endomorphism e: its fixed points and the
    elements it moves forward or back give every kind of constraint."""
    return IndexCategory(
        sorts=("*",),
        morphisms=(("id", "*", "*"), ("e", "*", "*")), identities=("id",),
        composition=(("id", "id", "id"), ("id", "e", "e"), ("e", "id", "e"),
                     ("e", "e", "e")))


DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "varietal" / "data"


def test_equal_structures_are_one_object():
    assert finite_set(2) is finite_set(2)
    assert trivial_index() is trivial_index()
    # index names belong to the file: internalcat.var calls the graph index I
    ws = fileformat.parse_file(str(DATA / "internalcat.var"))
    B = parallel_pair_index()
    assert ws.indexes["I"] is B
    permuted = IndexCategory(B.sorts, B.morphisms, B.identities,
                             tuple(reversed(B.composition)))
    assert permuted is B and permuted.composition == B.composition


def test_invalid_structures_raise_on_every_attempt():
    for _ in range(2):
        with pytest.raises(StructureError, match="functoriality fails"):
            Presheaf(idempotent_index(), (2,), ((0, 1), (1, 0)))
        with pytest.raises(StructureError, match="left unit law fails"):
            IndexCategory(("*",), (("id", "*", "*"), ("e", "*", "*")), ("id",),
                          (("id", "id", "id"), ("id", "e", "id"),
                           ("e", "id", "e"), ("e", "e", "e")))


def test_unreferenced_presheaves_leave_the_intern_table(I):
    def interned(sizes):
        return [X for X in base._STRUCTURES.values()
                if getattr(X, "sizes", None) == sizes]

    X = finite_set(41, I)
    assert interned((41,)) == [X]
    gone = weakref.ref(X)
    del X
    gc.collect()
    assert gone() is None
    assert interned((41,)) == []


def test_racing_threads_intern_one_object(I):
    # structures no other test builds, so the threads may all miss at first
    sizes = range(3000, 3010)
    got = {n: [] for n in sizes}
    start = threading.Barrier(8, timeout=60)

    def build():
        start.wait()
        for n in sizes:
            got[n].append(finite_set(n, I))

    threads = [threading.Thread(target=build) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for built in got.values():
        assert len(built) == len(threads)
        assert all(X is built[0] for X in built)


def hom_families(X, Y):
    return iter_families(
        X, lambda sort, x: range(Y.size(sort)), lambda m, y: Y.map(m)[y])


def test_iter_families_matches_the_recursive_search_on_homs(I):
    E = idempotent_index()
    pairs = [(finite_set(n, I), finite_set(m, I))
             for n in range(4) for m in range(4)]
    rng = random.Random(11)
    pairs += [(random_graph(rng), random_graph(rng)) for _ in range(6)]
    pairs += [(single_edge(), random_graph(rng)) for _ in range(3)]
    pairs += [(Presheaf(E, (3,), ((0, 1, 2), src)),
               Presheaf(E, (4,), ((0, 1, 2, 3), (0, 0, 3, 3))))
              for src in ((1, 1, 2), (0, 0, 2))]
    for X, Y in pairs:
        got = list(hom_families(X, Y))
        assert got == recursive_families(
            X, lambda sort, x: range(Y.size(sort)), lambda m, y: Y.map(m)[y])
        assert got == [h.components for h in hom_set(X, Y)]


def test_iter_families_on_an_empty_arity_yields_one_family(I, B):
    assert list(hom_families(empty(I), finite_set(3, I))) == [((),)]
    assert list(hom_families(empty(B), empty(B))) == [((), ())]


def test_iter_families_is_lazy(I):
    # 10^8 families; the first costs one choices call per element
    calls = []

    def choices(sort, x):
        calls.append((sort, x))
        return range(10)

    def act(m, y):
        raise AssertionError("no naturality constraint over a set")

    families = iter_families(finite_set(8, I), choices, act)
    assert calls == []
    assert next(families) == ((0,) * 8,)
    assert calls == [("*", x) for x in range(8)]
    assert next(families) == ((0,) * 7 + (1,),)
    assert len(calls) == 8
