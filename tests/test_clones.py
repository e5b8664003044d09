import itertools
import pathlib
import random

import pytest

from varietal.base import (
    PresheafMorphism,
    StructureError,
    finite_set,
    flat_table,
    hom_list,
    identity_morphism,
    trivial_index,
)
from varietal import base, clones, fileformat
from varietal.algebra import (
    are_isomorphic,
    enumerate_algebras,
    homomorphisms,
    is_homomorphism,
)
from varietal.presentation import palg_satisfies
from varietal.clones import (
    HAlgebraStructure,
    RelativeMonad,
    algebra_as_h_structure,
    check_h_algebra,
    check_relative_monad,
    clone_of_presentation,
    h_algebra_as_algebra,
    identity_clone,
    standardized_presentation,
)
from varietal.catalog import (
    boolean_rig,
    graph_presheaf,
    matrix_clone,
    semilattice_presentation,
    state_clone,
    z2_rig,
    global_state_presentation,
    monoid_presentation,
    state_transformer_algebra,
)
from varietal.pretheory import (
    algebra_as_model,
    check_concrete_model,
    check_pretheory,
    pretheory_of_clone,
    presentation_of_pretheory,
)

I = trivial_index()
DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "varietal" / "data"


def mutate_unit(M: RelativeMonad, i: int, sort_i: int, pos: int, new: int):
    unit = list(M.unit)
    comps = [list(c) for c in unit[i].components]
    comps[sort_i][pos] = new
    unit[i] = PresheafMorphism(M.objects[i], M.carriers[i],
                               tuple(tuple(c) for c in comps))
    return RelativeMonad(M.name + "/mut", M.objects, M.carriers, unit, M.mult)


def mutate_mult(M: RelativeMonad, key, gi: int, sort_i: int, pos: int, new: int):
    mult = {k: list(v) for k, v in M.mult.items()}
    g = mult[key][gi]
    comps = [list(c) for c in g.components]
    comps[sort_i][pos] = new
    mult[key][gi] = PresheafMorphism(g.source, g.target,
                                     tuple(tuple(c) for c in comps))
    return RelativeMonad(M.name + "/mut", M.objects, M.carriers, M.unit, mult)


def sweep_mutations(M: RelativeMonad, sample_every: int = 1):
    """All (or every k-th) single-entry mutations of the unit and
    substitution tables; yields mutated monads."""
    counter = 0
    for i in range(len(M.objects)):
        for si, comp in enumerate(M.unit[i].components):
            for pos, old in enumerate(comp):
                for new in range(M.carriers[i].sizes[si]):
                    if new == old:
                        continue
                    counter += 1
                    if counter % sample_every == 0:
                        yield mutate_unit(M, i, si, pos, new)
    for key in sorted(M.mult):
        for gi, g in enumerate(M.mult[key]):
            for si, comp in enumerate(g.components):
                for pos, old in enumerate(comp):
                    for new in range(M.carriers[key[1]].sizes[si]):
                        if new == old:
                            continue
                        counter += 1
                        if counter % sample_every == 0:
                            yield mutate_mult(M, key, gi, si, pos, new)


def then(f: PresheafMorphism, g: PresheafMorphism) -> PresheafMorphism:
    """"f then g" through the public, validating constructor."""
    assert f.target == g.source
    comps = tuple(tuple(gc[y] for y in fc)
                  for fc, gc in zip(f.components, g.components))
    return PresheafMorphism(f.source, g.target, comps)


def reference_check_relative_monad(M: RelativeMonad, first_only=False):
    """The unit and associativity laws checked on validated morphism
    values; independent of the library's table check."""
    out = []
    n = len(M.objects)
    for j in range(n):
        if M.m(j, j, M.unit[j]).components != identity_morphism(M.carriers[j]).components:
            out.append(("left-unit", (j,)))
            if first_only:
                return out
    for i in range(n):
        for j in range(n):
            for gi, g in enumerate(M.homs_into(i, j)):
                if then(M.unit[i], M.mult[(i, j)][gi]).components != g.components:
                    out.append(("right-unit", (i, j, gi)))
                    if first_only:
                        return out
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for gi, g in enumerate(M.homs_into(i, j)):
                    mg = M.mult[(i, j)][gi]
                    for hi, h in enumerate(M.homs_into(j, k)):
                        mh = M.mult[(j, k)][hi]
                        lhs = M.m(i, k, then(g, mh))
                        if lhs.components != then(mg, mh).components:
                            out.append(("associativity", (i, j, k, gi, hi)))
                            if first_only:
                                return out
    return out


def reference_check_h_algebra(M: RelativeMonad, struct: HAlgebraStructure):
    """The H-algebra unit and substitution laws on morphism values."""
    out = []
    n = len(M.objects)
    for i in range(n):
        for pi, phi in enumerate(struct.homs(i)):
            if then(M.unit[i], struct.alpha[i][pi]).components != phi.components:
                out.append(("alg-unit", (i, pi)))
    for i in range(n):
        for j in range(n):
            for pj, phi in enumerate(struct.homs(j)):
                aphi = struct.alpha[j][pj]
                for gi, g in enumerate(M.homs_into(i, j)):
                    lhs = struct.alpha[i][
                        struct.homs(i).position[flat_table(then(g, aphi))]]
                    rhs = then(M.mult[(i, j)][gi], aphi)
                    if lhs.components != rhs.components:
                        out.append(("alg-subst", (i, j, pj, gi)))
    return out


def laws(violations):
    return [(v.law, v.witness) for v in violations]


MUTATION_BASES = {
    "state01": lambda: state_clone([0, 1], 2),
    "z2-plain12": lambda: matrix_clone(z2_rig(), [1, 2]),
    "z2-affine12": lambda: matrix_clone(z2_rig(), [1, 2], affine=True),
}


@pytest.mark.parametrize("name", sorted(MUTATION_BASES))
def test_relative_monad_check_matches_reference(name):
    M = MUTATION_BASES[name]()
    mutants = list(sweep_mutations(M))
    picked = random.Random(name).sample(mutants, min(60, len(mutants)))
    kinds = set()
    for bad in [M, *picked]:
        want = reference_check_relative_monad(bad)
        assert laws(check_relative_monad(bad)) == want
        assert (laws(check_relative_monad(bad, first_only=True))
                == reference_check_relative_monad(bad, first_only=True))
        kinds.update(law for law, _ in want)
    assert len(kinds) >= 2  # the mutants break more than one law


def mutate_alpha(struct: HAlgebraStructure, i: int, pi: int, pos: int, new: int):
    alpha = [list(values) for values in struct.alpha]
    f = alpha[i][pi]
    comps = [list(c) for c in f.components]
    comps[0][pos] = new
    alpha[i][pi] = PresheafMorphism(f.source, f.target,
                                    tuple(tuple(c) for c in comps))
    return HAlgebraStructure(struct.monad, struct.carrier, alpha)


def test_h_algebra_check_matches_reference():
    M = state_clone([0, 1, 2], 2)
    struct = state_h_structure(M, 2)
    rng = random.Random(0)
    sizes = struct.carrier.sizes[0]
    # an entry of alpha_1 that the unit law reads, and a seeded entry of
    # alpha_2 (H J_0 is empty, so alpha_0's values have no entries)
    sites = [(1, rng.randrange(len(struct.alpha[1])), M.unit[1].components[0][0]),
             (2, rng.randrange(len(struct.alpha[2])),
              rng.randrange(M.carriers[2].sizes[0]))]
    kinds = set()
    for i, pi, pos in sites:
        old = struct.alpha[i][pi].components[0][pos]
        bad = mutate_alpha(struct, i, pi, pos, (old + rng.randrange(1, sizes)) % sizes)
        want = reference_check_h_algebra(M, bad)
        assert laws(check_h_algebra(M, bad)) == want
        kinds.update(law for law, _ in want)
    assert kinds == {"alg-unit", "alg-subst"}


def test_valid_relative_monad_check_builds_no_morphisms(count_morphism_calls):
    M = state_clone([0, 1], 2)
    calls = count_morphism_calls()
    assert check_relative_monad(M) == []
    assert calls["__post_init__"] == 0


def test_law_checks_compose_and_validate_no_morphisms(count_morphism_calls):
    # the law checks and the homomorphism tests run on flat tables and
    # positions: no morphism is composed with ``then`` or validated
    M = state_clone([0, 1, 2], 2)
    struct = state_h_structure(M, 2)
    T = pretheory_of_clone(M, "state")
    free = pretheory_of_clone(
        identity_clone([finite_set(1, I), finite_set(2, I)]), "free")
    (A,) = enumerate_algebras(presentation_of_pretheory(free), 0,
                              carrier=finite_set(2, I))
    monoids = [B for B in enumerate_algebras(monoid_presentation(), 3)
               if B.carrier.sizes == (3,)]
    maps = hom_list(monoids[0].carrier, monoids[0].carrier)
    expected_homs = sum(len(homomorphisms(monoids[0], B)) for B in monoids)
    calls = count_morphism_calls()
    assert check_relative_monad(M) == []
    assert check_h_algebra(M, struct) == []
    assert check_pretheory(T) == []
    assert check_concrete_model(algebra_as_model(free, A)) == []
    hits = sum(is_homomorphism(f, monoids[0], B)
               for B in monoids for f in maps)
    assert hits == expected_homs > 0
    classes = []
    for B in monoids:
        if not any(are_isomorphic(B, C) for C in classes):
            classes.append(B)
    assert len(classes) == 7  # monoids of order 3 (OEIS A058129)
    assert calls == {"then": 0, "__post_init__": 0}


def test_identity_clone_valid():
    M = identity_clone([finite_set(1, I), finite_set(2, I)])
    assert check_relative_monad(M) == []


def test_state_clone_valid():
    M = state_clone([0, 1, 2], 2)
    assert check_relative_monad(M) == []


def test_relative_monad_on_existing_carriers_lists_no_homs(monkeypatch):
    M = state_clone([1, 2], 2)
    calls = []
    real_hom_set = base.hom_set

    def counting_hom_set(X, Y):
        calls.append((X, Y))
        return real_hom_set(X, Y)

    monkeypatch.setattr(base, "hom_set", counting_hom_set)
    mutant = next(sweep_mutations(M))
    assert check_relative_monad(mutant, first_only=True)
    assert calls == []


def test_state_clone_mutation_detected():
    M = state_clone([1, 2], 2)
    bad = mutate_unit(M, 0, 0, 0, (M.unit[0].components[0][0] + 1)
                      % M.carriers[0].sizes[0])
    violations = check_relative_monad(bad)
    assert violations
    assert any(v.law in ("left-unit", "right-unit") for v in violations)


def test_full_mutation_coverage_small_state_clone():
    # every single-entry change to e or m produces at least one violation
    M = state_clone([0, 1], 2)
    total = 0
    for bad in sweep_mutations(M):
        assert check_relative_monad(bad, first_only=True)
        total += 1
    assert total > 0


def test_sampled_mutation_coverage_state_clone():
    # the K = {1, 2} state clone has tens of thousands of single-entry
    # mutations; sweep a deterministic sample plus the whole unit table
    M = state_clone([1, 2], 2)
    for i in range(len(M.objects)):
        for si, comp in enumerate(M.unit[i].components):
            for pos, old in enumerate(comp):
                for new in range(M.carriers[i].sizes[si]):
                    if new != old:
                        assert check_relative_monad(
                            mutate_unit(M, i, si, pos, new), first_only=True)
    for bad in sweep_mutations(M, sample_every=97):
        assert check_relative_monad(bad, first_only=True)


def test_matrix_clone_and_affine_valid():
    rig = z2_rig()
    for affine in (False, True):
        M = matrix_clone(rig, [1, 2, 3], affine=affine)
        assert check_relative_monad(M) == []


def test_matrix_clone_mutation_coverage_small():
    rig = z2_rig()
    for affine in (False, True):
        M = matrix_clone(rig, [1, 2], affine=affine)
        total = 0
        for bad in sweep_mutations(M):
            assert check_relative_monad(bad, first_only=True)
            total += 1
        assert total > 0


def test_h_algebra_identity_clone():
    M = identity_clone([finite_set(1, I), finite_set(2, I)])
    A = finite_set(2, I)
    alpha = [list(hom_list(J, A)) for J in M.objects]
    struct = HAlgebraStructure(M, A, alpha)
    assert check_h_algebra(M, struct) == []


def state_h_structure(M, base_size):
    """The transformer algebra as an H-algebra for the state clone."""
    S = 2
    P = global_state_presentation(2, 1)
    A = state_transformer_algebra(P, base_size)
    carrier = A.carrier
    XS = base_size * S

    def decode(w, s):
        return (w // (XS ** s)) % XS

    def encode(values):
        return sum(v * (XS ** s) for s, v in enumerate(values))

    alpha = []
    for i, (J, HJ) in enumerate(zip(M.objects, M.carriers)):
        n = J.sizes[0]
        JS = n * S
        values = []
        for phi in hom_list(J, carrier):
            comps = []
            for w in HJ.elements("*"):
                out = []
                for s in range(S):
                    pair = (w // (JS ** s)) % JS
                    j, s1 = pair // S, pair % S
                    out.append(decode(phi("*", j), s1))
                comps.append(encode(out))
            values.append(PresheafMorphism(HJ, carrier, (tuple(comps),)))
        alpha.append(values)
    return HAlgebraStructure(M, carrier, alpha)


def test_h_algebra_state_transformer():
    M = state_clone([0, 1, 2], 2)
    struct = state_h_structure(M, 2)
    assert check_h_algebra(M, struct) == []


def test_h_algebra_mutation_detected():
    M = identity_clone([finite_set(1, I)])
    A = finite_set(2, I)
    alpha = [list(hom_list(M.objects[0], A))]
    alpha[0][0] = alpha[0][1]
    struct = HAlgebraStructure(M, A, alpha)
    violations = check_h_algebra(M, struct)
    assert violations and violations[0].law == "alg-unit"


def test_standardized_presentation_counts():
    M = state_clone([0, 1], 2)
    P = standardized_presentation(M)
    assert len(P.signature.symbols) == 2
    assert len(P.equations) == 2 + 4


def test_standardized_identity_clone_algebras_are_bare_objects():
    M = identity_clone([finite_set(1, I)])
    P = standardized_presentation(M)
    for n in range(4):
        algs = enumerate_algebras(P, 0, carrier=finite_set(n, I))
        assert len(algs) == 1  # alpha is forced to the identity


def test_prop_8_6_state_clone_exhaustive():
    # all candidate structures on carriers <= 2 for the small state clone:
    # the two checkers agree pointwise, so the valid sets coincide exactly
    M = state_clone([0, 1], 2)
    P = standardized_presentation(M)
    for n in range(3):
        carrier = finite_set(n, I)
        algebras = enumerate_algebras(P.signature, 0, carrier=carrier)
        valid_alg = 0
        valid_struct = 0
        for A in algebras:
            sat = palg_satisfies(A, P)
            struct = algebra_as_h_structure(M, A)
            ok = check_h_algebra(M, struct) == []
            assert sat == ok
            valid_alg += sat
            valid_struct += ok
        assert valid_alg == valid_struct


def test_prop_8_6_matrix_clone_exhaustive():
    M = matrix_clone(z2_rig(), [1], affine=False)
    P = standardized_presentation(M)
    carrier = finite_set(2, I)
    for A in enumerate_algebras(P.signature, 0, carrier=carrier):
        struct = algebra_as_h_structure(M, A)
        assert palg_satisfies(A, P) == (check_h_algebra(M, struct) == [])


def test_round_trip_h_structure_to_algebra():
    M = identity_clone([finite_set(2, I)])
    P = standardized_presentation(M)
    A = finite_set(2, I)
    alpha = [list(hom_list(M.objects[0], A))]
    struct = HAlgebraStructure(M, A, alpha)
    algebra = h_algebra_as_algebra(P, struct)
    assert palg_satisfies(algebra, P)
    back = algebra_as_h_structure(M, algebra)
    assert [v.components for v in back.alpha[0]] == \
        [v.components for v in struct.alpha[0]]


def test_clone_of_semilattice_presentation():
    SL = semilattice_presentation()
    M = clone_of_presentation(
        SL, [finite_set(k, I) for k in (1, 2, 3)], 3)
    assert M is not None
    assert [c.sizes[0] for c in M.carriers] == [1, 3, 7]
    assert check_relative_monad(M) == []


def test_clone_of_monoid_presentation_unsaturated():
    from varietal.catalog import monoid_presentation
    MO = monoid_presentation()
    assert clone_of_presentation(MO, [finite_set(1, I)], 3) is None


def test_clone_of_global_state_matches_state_clone():
    GS = global_state_presentation(2, 1)
    M = clone_of_presentation(GS, [finite_set(1, I), finite_set(2, I)], 3)
    assert M is not None
    assert [c.sizes[0] for c in M.carriers] == [4, 16]
    direct = state_clone([1, 2], 2)
    # canonical map: evaluate classes in the transformer algebra on the
    # generators, then compare the transported units and substitutions
    from varietal.presentation import free_algebra
    iso = []
    for k, idx in ((1, 0), (2, 1)):
        Q = free_algebra(GS, finite_set(k, I), 3)
        A = state_transformer_algebra(GS, k)
        base = k * 2
        gen = PresheafMorphism(
            finite_set(k, I), A.carrier,
            (tuple(sum((x * 2 + s) * base ** s for s in range(2))
                   for x in range(k)),))
        table = tuple(Q.evaluate_class(A, gen, "*", i)
                      for i in range(Q.class_count()))
        assert sorted(table) == list(range(len(table)))  # bijective
        iso.append(PresheafMorphism(M.carriers[idx], direct.carriers[idx],
                                    (table,)))
    for i in range(2):
        assert M.unit[i].then(iso[i]).components == direct.unit[i].components
    for i in range(2):
        for j in range(2):
            for g in M.homs_into(i, j):
                lhs = M.m(i, j, g).then(iso[j])
                rhs = iso[i].then(direct.m(i, j, g.then(iso[j])))
                assert lhs.components == rhs.components


# -- several sorts: the identity clone over graphs -----------------------------

# the empty graph is an arity with no elements, so hom(J, HK) out of it
# has one member, the empty family; the two vertices without edges give
# the graphs with edges some room for natural mutants
GRAPHS = [graph_presheaf(0, []), graph_presheaf(1, [(0, 0)]),
          graph_presheaf(2, [(0, 1)]), graph_presheaf(2, [(0, 1), (1, 0)]),
          graph_presheaf(2, [])]


def natural_mult_mutants(M: RelativeMonad):
    """Every clone that differs from M in one substitution value, replaced by
    another member of hom(H J_i, H J_j); a single changed entry would break
    naturality and be rejected when built."""
    for key in sorted(M.mult):
        i, j = key
        for gi, g in enumerate(M.mult[key]):
            for other in hom_list(M.carriers[i], M.carriers[j]):
                if other.components != g.components:
                    mult = {k: list(v) for k, v in M.mult.items()}
                    mult[key][gi] = other
                    yield RelativeMonad(M.name + "/mut", M.objects,
                                        M.carriers, M.unit, mult)


def test_graph_relative_monad_check_matches_reference():
    M = identity_clone(GRAPHS)
    mutants = list(natural_mult_mutants(M))
    assert len(mutants) > 10
    kinds = set()
    for bad in [M, *mutants]:
        want = reference_check_relative_monad(bad)
        assert laws(check_relative_monad(bad)) == want
        assert (laws(check_relative_monad(bad, first_only=True))
                == reference_check_relative_monad(bad, first_only=True))
        kinds.update(law for law, _ in want)
    assert kinds == {"left-unit", "right-unit", "associativity"}


def test_graph_h_algebra_check_matches_reference():
    M = identity_clone(GRAPHS)
    A = graph_presheaf(2, [(0, 1), (1, 0), (1, 1)])
    struct = HAlgebraStructure(M, A, [list(hom_list(J, A)) for J in M.objects])
    assert check_h_algebra(M, struct) == []
    kinds = set()
    for i, J in enumerate(M.objects):
        for pi, phi in enumerate(struct.alpha[i]):
            for other in hom_list(M.carriers[i], A):
                if other.components == phi.components:
                    continue
                alpha = [list(values) for values in struct.alpha]
                alpha[i][pi] = other
                bad = HAlgebraStructure(M, A, alpha)
                want = reference_check_h_algebra(M, bad)
                assert laws(check_h_algebra(M, bad)) == want
                kinds.update(law for law, _ in want)
    assert kinds == {"alg-unit", "alg-subst"}


def test_graph_pretheory_of_clone_matches_composites():
    # "f then g" in the Kleisli pretheory is g followed by m(f), located in
    # hom(J_k, H J_i); on mutants too, which are not monads
    M = identity_clone(GRAPHS)
    n = len(M.objects)
    for bad in [M, *natural_mult_mutants(M)]:
        T = pretheory_of_clone(bad, "graphs")
        want = {}
        for i, j, k in itertools.product(range(n), repeat=3):
            position = {h.components: t
                        for t, h in enumerate(bad.homs_into(k, i))}
            want[(i, j, k)] = tuple(
                tuple(position[then(g, mf).components]
                      for g in bad.homs_into(k, j))
                for mf in bad.mult[(j, i)])
        assert list(T.compose) == list(want)
        assert T.compose == want


# -- associativity proven from a generating set --------------------------------

def count_full_loop(monkeypatch):
    """Call records of the full associativity loop, which lists violations;
    the check runs it only when the proof from generators is not reached."""
    calls = []
    real = clones._associativity_violations

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(clones, "_associativity_violations", counted)
    return calls


def clone_of_objects(P, sizes):
    return clone_of_presentation(P, [finite_set(k, I) for k in sizes], 3)


LAWFUL = {
    "sl-1-2-3": lambda: clone_of_objects(semilattice_presentation(), (1, 2, 3)),
    "sl-3-1-2": lambda: clone_of_objects(semilattice_presentation(), (3, 1, 2)),
    "globalstate-1-2": lambda: clone_of_objects(
        global_state_presentation(2, 1), (1, 2)),
    "state-2-0-1": lambda: state_clone([2, 0, 1], 2),
    "boolean-affine-2-1": lambda: matrix_clone(boolean_rig(), [2, 1], affine=True),
    "graphs": lambda: identity_clone(GRAPHS),
}


@pytest.mark.parametrize("name", sorted(LAWFUL))
def test_associativity_proof_matches_reference_on_lawful_monads(name, monkeypatch):
    M = LAWFUL[name]()
    want = reference_check_relative_monad(M)
    assert want == []
    calls = count_full_loop(monkeypatch)
    assert laws(check_relative_monad(M)) == want
    # with first_only the reference returns the first of its violations
    assert laws(check_relative_monad(M, first_only=True)) == want[:1]
    assert calls == []


def test_full_associativity_loop_runs_only_where_the_proof_fails(monkeypatch):
    M = state_clone([0, 1, 2], 2)
    # m(g) for the first g : J_1 -> H J_1, moved off the unit image of
    # H J_1, so that both unit laws still hold
    bad = mutate_mult(M, (1, 1), 0, 0, 0, 1)
    calls = count_full_loop(monkeypatch)
    assert check_relative_monad(M) == []
    assert len(calls) == 0
    violations = check_relative_monad(bad)
    assert len(calls) == 1
    assert len(violations) == 112
    assert {v.law for v in violations} == {"associativity"}
    assert laws(check_relative_monad(bad, first_only=True)) == \
        laws(violations[:1])
    assert len(calls) == 2


def record_direct_checks(monkeypatch):
    """The (object, width) of each direct associativity check the proof
    makes, in order."""
    calls = []
    real = clones._associative_at

    def recorded(M, homs, flat, i, columns):
        calls.append((i, len(columns)))
        return real(M, homs, flat, i, columns)

    monkeypatch.setattr(clones, "_associative_at", recorded)
    return calls


DIRECT_CHECKS = {
    # a stalled object has its least unproven element checked, and its
    # other unproven elements only if it stalls again; before, the state
    # clones checked [(1, 3), (2, 8)] and [(0, 3), (1, 8)]
    "state-0-1-2": (lambda: state_clone([0, 1, 2], 2),
                    [(1, 1), (1, 2), (2, 1)]),
    "state_clone.rm": (lambda: fileformat.parse_file(
        str(DATA / "state_clone.rm")).relmonads["state_clone"],
        [(0, 1), (0, 2), (1, 1)]),
    # these already needed one element per stalled object
    "z2-affine-1-2-3": (lambda: matrix_clone(z2_rig(), [1, 2, 3], affine=True),
                        [(2, 1)]),
    "boolean-1-2": (lambda: matrix_clone(boolean_rig(), [1, 2]),
                    [(0, 1), (1, 1)]),
    "sl-1-2-3": (LAWFUL["sl-1-2-3"], [(1, 1)]),
}


@pytest.mark.parametrize("name", sorted(DIRECT_CHECKS))
def test_a_stalled_object_has_one_element_checked_before_the_rest(
        name, monkeypatch):
    build, want = DIRECT_CHECKS[name]
    M = build()
    calls = record_direct_checks(monkeypatch)
    assert check_relative_monad(M) == []
    assert calls == want


def test_full_associativity_loop_skips_the_objects_proven(monkeypatch):
    M = state_clone([0, 1, 2], 2)
    bad = mutate_mult(M, (1, 1), 0, 0, 0, 1)
    # the i whose carriers the full loop reads: H J_0 is empty, so the
    # proof holds there before the direct check of H J_1 fails
    visited = []
    real = clones._associativity_violations

    def loop(M, *args):
        homs_into = M.homs_into
        M.homs_into = lambda i, j: visited.append(i) or homs_into(i, j)
        try:
            return real(M, *args)
        finally:
            del M.homs_into

    monkeypatch.setattr(clones, "_associativity_violations", loop)
    violations = laws(check_relative_monad(bad))
    assert sorted(set(visited)) == [1, 2]
    visited.clear()
    assert laws(check_relative_monad(bad, first_only=True)) == violations[:1]
    assert sorted(set(visited)) == [1]
    assert violations == reference_check_relative_monad(bad)


def test_relative_monad_rejects_a_substitution_table_outside_its_objects():
    M = identity_clone([finite_set(1, I)])
    mult = dict(M.mult)
    mult[(7, 7)] = M.mult[(0, 0)]
    with pytest.raises(StructureError, match=r"\(7, 7\)"):
        RelativeMonad("extra", M.objects, M.carriers, M.unit, mult)


# -- catalog clones against builds through the public constructor -------------

def validated_state_clone(object_sizes, S):
    """e and m of the state clone, H(J) = (J x S)^S, each value built by
    the validating constructor and g read as a function."""
    objects = [finite_set(n, I) for n in object_sizes]
    carriers = [finite_set((n * S) ** S, I) for n in object_sizes]

    def decode(n, w):
        # the (a, s1) that w gives at each state s
        return [divmod((w // (n * S) ** s) % (n * S), S) for s in range(S)]

    def encode(n, pairs):
        return sum((a * S + s1) * (n * S) ** s
                   for s, (a, s1) in enumerate(pairs))

    unit = [PresheafMorphism(J, H, (tuple(
        encode(n, [(a, s) for s in range(S)]) for a in range(n)),))
        for n, J, H in zip(object_sizes, objects, carriers)]
    mult = {}
    for (i, n), (j, k) in itertools.product(enumerate(object_sizes), repeat=2):
        mult[(i, j)] = [PresheafMorphism(carriers[i], carriers[j], (tuple(
            encode(k, [decode(k, g("*", a))[s1] for a, s1 in decode(n, w)])
            for w in carriers[i].elements("*")),))
            for g in hom_list(objects[i], carriers[j])]
    return unit, mult


def validated_matrix_clone(rig, sizes, affine):
    """e and m of the matrix clone, H(n) the rows in R^n (with sum one if
    ``affine``), each value built by the validating constructor."""
    rows = {n: [r for r in itertools.product(range(rig.size), repeat=n)
                if not affine or rig.sum(r) == rig.one] for n in sizes}
    index = {n: {r: x for x, r in enumerate(rows[n])} for n in sizes}
    objects = [finite_set(n, I) for n in sizes]
    carriers = [finite_set(len(rows[n]), I) for n in sizes]
    unit = [PresheafMorphism(J, H, (tuple(
        index[n][tuple(rig.one if c == a else rig.zero for c in range(n))]
        for a in range(n)),))
        for n, J, H in zip(sizes, objects, carriers)]
    mult = {}
    for (a, n), (b, k) in itertools.product(enumerate(sizes), repeat=2):
        mult[(a, b)] = [PresheafMorphism(carriers[a], carriers[b], (tuple(
            index[k][tuple(rig.sum(rig.mul[v[x]][rows[k][g("*", x)][c]]
                               for x in range(n)) for c in range(k))]
            for v in rows[n]),))
            for g in hom_list(objects[a], carriers[b])]
    return unit, mult


CATALOG_CLONES = {
    "state-0-1-2": (lambda: state_clone([0, 1, 2], 2),
                    lambda: validated_state_clone([0, 1, 2], 2)),
    "z2-plain-1-2": (lambda: matrix_clone(z2_rig(), [1, 2]),
                     lambda: validated_matrix_clone(z2_rig(), [1, 2], False)),
    "z2-affine-1-2": (lambda: matrix_clone(z2_rig(), [1, 2], affine=True),
                      lambda: validated_matrix_clone(z2_rig(), [1, 2], True)),
    "boolean-plain-1-2": (
        lambda: matrix_clone(boolean_rig(), [1, 2]),
        lambda: validated_matrix_clone(boolean_rig(), [1, 2], False)),
    "boolean-affine-1-2": (
        lambda: matrix_clone(boolean_rig(), [1, 2], affine=True),
        lambda: validated_matrix_clone(boolean_rig(), [1, 2], True)),
}


@pytest.mark.parametrize("name", sorted(CATALOG_CLONES))
def test_catalog_clones_build_trusted_values(name, count_morphism_calls):
    build, validated = CATALOG_CLONES[name]
    unit, mult = validated()
    calls = count_morphism_calls()
    M = build()
    assert calls["__post_init__"] == 0
    assert [e.components for e in M.unit] == [e.components for e in unit]
    assert ({key: [f.components for f in values]
             for key, values in M.mult.items()}
            == {key: [f.components for f in values]
                for key, values in mult.items()})
