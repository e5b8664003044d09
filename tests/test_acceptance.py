"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they pass; a failed assertion prints the FAIL line before raising.
"""

import itertools
import os
import random
import subprocess
import sys
from contextlib import contextmanager

from varietal.base import (
    PresheafMorphism,
    element_family,
    finite_set,
    hom_list,
    terminal,
    trivial_index,
)
from varietal.syntax import (
    FreeFormSignature,
    OperationSymbol,
    ParamTerm,
    app,
    precompose_equation,
    var,
)
from varietal.algebra import Algebra, enumerate_algebras, satisfies
from varietal.presentation import (
    FreeAlgebra,
    Presentation,
    free_algebra,
    palg_satisfies,
    sum_presentations,
    tensor,
)
from varietal.clones import (
    algebra_as_h_structure,
    check_h_algebra,
    check_relative_monad,
    standardized_presentation,
)
from varietal.pretheory import check_concrete_model, kleisli_models
from varietal.birkhoff import BirkhoffWindow, GaloisScale
from varietal.catalog import (
    count_category_structures,
    global_state_presentation,
    graph_presheaf,
    internal_category_presentation,
    matrix_clone,
    monoid_presentation,
    semilattice_presentation,
    state_clone,
    state_transformer_algebra,
    z2_rig,
)

I = trivial_index()
ONE = terminal(I)
TWO = finite_set(2, I)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL  {title}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS  {title}")


def test_criterion_01_free_semilattices():
    with criterion(1, "free semilattices: classes 1,3,7,15, saturated, "
                      "bijective onto nonempty subsets"):
        P = semilattice_presentation()
        for k, d, expect in [(1, 3, 1), (2, 3, 3), (3, 3, 7), (4, 4, 15)]:
            Q = free_algebra(P, finite_set(k, I), d)
            assert Q.class_count() == expect and Q.saturated, (k, d)
            subsets = sorted(
                frozenset(s)
                for r in range(1, k + 1)
                for s in itertools.combinations(range(k), r))
            carrier = finite_set(len(subsets), I)
            pts = hom_list(ONE, carrier)
            joins = [
                pts[subsets.index(frozenset(
                    subsets[h.components[0][0]] | subsets[h.components[0][1]]))]
                for h in hom_list(TWO, carrier)]
            oracle = Algebra(P.signature, carrier, {"join": joins})
            gen = PresheafMorphism(
                finite_set(k, I), carrier,
                (tuple(subsets.index(frozenset([i])) for i in range(k)),))
            images = [Q.evaluate_class(oracle, gen, "*", i)
                      for i in range(expect)]
            assert sorted(images) == list(range(expect))


def test_criterion_02_global_state():
    with criterion(2, "global state free algebras: 4 and 16 classes, "
                      "bijective onto state transformers"):
        P = global_state_presentation(2, 1)
        for k, expect in [(1, 4), (2, 16)]:
            Q = free_algebra(P, finite_set(k, I), 3)
            assert Q.saturated and Q.class_count() == expect
            A = state_transformer_algebra(P, k)
            assert A.carrier.sizes == (expect,)
            base = k * 2
            gen = PresheafMorphism(
                finite_set(k, I), A.carrier,
                (tuple(sum((x * 2 + s) * base ** s for s in range(2))
                       for x in range(k)),))
            images = [Q.evaluate_class(A, gen, "*", i) for i in range(expect)]
            assert sorted(images) == list(range(expect))


def test_criterion_03_sum_law():
    with criterion(3, "sum models at sizes <= 3 are pairs of factor models"):
        SL, MO = semilattice_presentation(), monoid_presentation()
        S = sum_presentations(SL, MO)

        def by_size(P):
            out = {}
            for A in enumerate_algebras(P, 3):
                out[A.carrier.sizes[0]] = out.get(A.carrier.sizes[0], 0) + 1
            return out

        joint, left, right = by_size(S), by_size(SL), by_size(MO)
        for n in range(4):
            assert joint.get(n, 0) == left.get(n, 0) * right.get(n, 0), n


def commutative_monoids_on(n):
    tables = []
    for unit in range(n):
        upper = [(a, b) for a in range(n) for b in range(n)
                 if a <= b and unit not in (a, b)]
        for choice in itertools.product(range(n), repeat=len(upper)):
            tab = {}
            for a in range(n):
                tab[(unit, a)] = a
                tab[(a, unit)] = a
            for (a, b), v in zip(upper, choice):
                tab[(a, b)] = v
                tab[(b, a)] = v
            if all(tab[(tab[(a, b)], c)] == tab[(a, tab[(b, c)])]
                   for a in range(n) for b in range(n) for c in range(n)):
                tables.append((unit, tab))
    return tables


def test_criterion_04_tensor_eckmann_hilton():
    with criterion(4, "tensor of two monoid presentations = commutative "
                      "monoids with both structures equal"):
        MO = monoid_presentation()
        T = tensor(MO, MO)
        models = enumerate_algebras(T, 3)
        oracle = {n: commutative_monoids_on(n) for n in range(4)}
        assert len(models) == sum(len(v) for v in oracle.values())
        seen = {n: set() for n in range(4)}
        for A in models:
            assert A.values["mul.1"] == A.values["mul.2"]
            assert A.values["unit.1"] == A.values["unit.2"]
            n = A.carrier.sizes[0]
            unit = A.values["unit.1"][0]("*", 0)
            homs = hom_list(TWO, A.carrier)
            table = tuple(
                A.values["mul.1"][i]("*", 0) for i, _ in enumerate(homs))
            seen[n].add((unit, table))
        for n, tabs in oracle.items():
            expected = set()
            for unit, tab in tabs:
                homs = hom_list(TWO, finite_set(n, I))
                expected.add((unit, tuple(
                    tab[h.components[0]] for h in homs)))
            assert seen[n] == expected, n


def test_criterion_05_free_monad_truncation():
    with criterion(5, "empty-equation free algebra separates exactly the "
                      "structurally distinct term pairs (200 samples)"):
        SL = semilattice_presentation()
        P0 = Presentation("bare", SL.signature, [])
        sig = SL.signature
        rng = random.Random(20260810)

        def random_term(depth):
            if depth == 0 or rng.random() < 0.3:
                return var(sig, "*", rng.randrange(2))
            return app(sig, "join",
                       ((random_term(depth - 1), random_term(depth - 1)),),
                       "*", 0, TWO)

        lazy = None
        discrepancies = 0
        for _ in range(200):
            t, u = random_term(3), random_term(3)
            pt = ParamTerm(sig, TWO, ONE, ((t,),))
            pu = ParamTerm(sig, TWO, ONE, ((u,),))
            lazy = FreeAlgebra(P0, TWO, 3, grow=False, seeds=[t, u])
            same_class = lazy.class_of_term(t) == lazy.class_of_term(u)
            if same_class != (t is u):
                discrepancies += 1
        assert discrepancies == 0


def test_criterion_06_relative_monad_suite():
    with criterion(6, "state and matrix clones valid; single-entry mutations "
                      "always detected"):
        from tests.test_clones import sweep_mutations  # reuse the sweep
        assert check_relative_monad(state_clone([0, 1, 2], 2)) == []
        rig = z2_rig()
        for affine in (False, True):
            assert check_relative_monad(
                matrix_clone(rig, [1, 2, 3], affine=affine)) == []
        covered = 0
        for M in (state_clone([0, 1], 2),
                  matrix_clone(rig, [1, 2]),
                  matrix_clone(rig, [1, 2], affine=True)):
            for bad in sweep_mutations(M):
                assert check_relative_monad(bad, first_only=True)
                covered += 1
        assert covered > 100


def test_criterion_07_standardized_presentation_equivalence():
    with criterion(7, "algebras of the standardized state-clone presentation "
                      "= valid extension structures, exhaustively"):
        M = state_clone([0, 1], 2)
        P = standardized_presentation(M)
        for n in range(3):
            carrier = finite_set(n, I)
            algebra_side = []
            structure_side = []
            for A in enumerate_algebras(P.signature, 0, carrier=carrier):
                sat = palg_satisfies(A, P)
                struct = algebra_as_h_structure(M, A)
                valid = check_h_algebra(M, struct) == []
                assert sat == valid
                if sat:
                    algebra_side.append(A.canonical_key())
                if valid:
                    structure_side.append(A.canonical_key())
            assert algebra_side == structure_side


def test_criterion_08_kleisli_models_vs_semilattices():
    # The arity objects must cover every equation arity of the presentation
    # (1, 2, and 3 for the lattice axioms); with arities capped at 2 the
    # pretheory cannot state associativity and admits genuinely more models,
    # so the bijection below is run over sizes 1..3.
    with criterion(8, "Kleisli pretheory of the semilattice on arities 1,2,3: "
                      "concrete models on carriers <= 3 = semilattices"):
        from tests.test_pretheory import expected_join_tables, join_tables
        SL = semilattice_presentation()
        objects = [finite_set(k, I) for k in (1, 2, 3)]
        models = kleisli_models(SL, objects, 3, 3)
        for n in range(1, 4):
            assert join_tables(models, n) == expected_join_tables(n), n
        for _, M in models:
            assert check_concrete_model(M) == []


def test_criterion_09_internal_categories():
    with criterion(9, "category structures on fixed graphs match the direct "
                      "(identity, composition) table oracle"):
        TS = internal_category_presentation()
        graphs = [
            graph_presheaf(1, [(0, 0)]),
            graph_presheaf(2, [(0, 0), (1, 1), (0, 1)]),
            graph_presheaf(1, [(0, 0), (0, 0), (0, 0)]),
            graph_presheaf(3, [(0, 0), (1, 1), (2, 2)]),
        ]
        for G in graphs:
            assert len(TS.models_on(G)) == count_category_structures(G)


def test_criterion_10_galois_laws():
    with criterion(10, "Galois adjunction and closure laws: exhaustive "
                       "singletons plus 100 random two-symbol seeds"):
        sig = FreeFormSignature("binop", [OperationSymbol("f", TWO, ONE)])
        window = BirkhoffWindow(sig, GaloisScale(2, 2, (ONE,)))
        eqs = window.equation_window()
        algebras = window.algebras()
        # adjunction over all singleton pairs; the left side is the direct
        # satisfaction check, independent of the window's kernels
        lower_names = {id(A): {e.name for e in window.sat_lower_g([A])}
                       for A in algebras}
        for eq in eqs:
            for A in algebras:
                assert satisfies(A, eq) == (eq.name in lower_names[id(A)])
        # triple law over every singleton equation set
        for eq in eqs:
            sat_e = window.sat_star([eq])
            again = window.sat_star(window.sat_lower_g(sat_e))
            assert ({A.canonical_key() for A in again}
                    == {A.canonical_key() for A in sat_e})
        # closure idempotence over singleton and pair algebra sets
        for A in algebras:
            va = window.variety_generated([A])
            assert ({x.canonical_key() for x in window.variety_generated(va)}
                    == {x.canonical_key() for x in va})
        # random seeds over a two-symbol signature
        sig2 = FreeFormSignature("pairops", [
            OperationSymbol("f", TWO, ONE),
            OperationSymbol("g", finite_set(1, I), ONE)])
        window2 = BirkhoffWindow(sig2, GaloisScale(2, 2, (ONE,)))
        eqs2 = window2.equation_window()
        algebras2 = window2.algebras()
        rng = random.Random(101)
        for _ in range(100):
            E = rng.sample(eqs2, rng.randint(0, 5))
            A = rng.sample(algebras2, rng.randint(0, 5))
            ok, lines = window2.check_galois_laws(E, A)
            assert ok, lines


def test_criterion_11_jointly_epi_invariance():
    with criterion(11, "restriction along the element family preserves "
                       "satisfaction on every bundled example"):
        from varietal.catalog import (
            boolean_rig,
            reading_bits_presentation,
            restriction_presentation,
            rig_module_presentation,
        )
        set_based = [
            semilattice_presentation(),
            monoid_presentation(),
            global_state_presentation(2, 1),
            rig_module_presentation(boolean_rig()),
            rig_module_presentation(z2_rig()),
            reading_bits_presentation(2),
            restriction_presentation(2),
        ]
        for P in set_based:
            algebras = enumerate_algebras(P.signature, 2)
            for eq in P.equations:
                family = element_family(eq.parameter)
                restricted = [precompose_equation(eq, x) for x in family]
                for A in algebras:
                    assert satisfies(A, eq) == all(
                        satisfies(A, r) for r in restricted)
        IC = internal_category_presentation()
        graph_algebras = enumerate_algebras(IC.base.signature, (2, 2))
        for eq in IC.base.equations:
            family = element_family(eq.parameter)
            restricted = [precompose_equation(eq, x) for x in family]
            for A in graph_algebras:
                assert satisfies(A, eq) == all(
                    satisfies(A, r) for r in restricted)


def test_criterion_12_cli_determinism():
    with criterion(12, "CLI reports are byte-identical across runs and hash "
                       "seeds"):
        data = os.path.join(os.path.dirname(__file__), "..", "src",
                            "varietal", "data")

        def run(args, seed):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-m", "varietal.cli", *args],
                capture_output=True, text=True, env=env)
            return proc.returncode, proc.stdout

        jobs = [
            ["free", os.path.join(data, "semilattice.var"),
             "--gens", "3", "--depth", "3", "--table"],
            ["models", os.path.join(data, "monoid.var"), "--size", "2",
             "--list"],
            ["check", os.path.join(data, "globalstate.var"),
             os.path.join(data, "state1.alg")],
            ["birkhoff", os.path.join(data, "semilattice_gen.algs"),
             "--scale", "2,2", "--gens", "1"],
        ]
        for args in jobs:
            results = {run(args, seed) for seed in ("0", "42", "31337")}
            assert len(results) == 1
            code, _ = results.pop()
            assert code == 0
