import pathlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from varietal import birkhoff, fileformat
from varietal.base import (
    finite_set,
    hom_set,
    terminal,
    trivial_index,
)
from varietal import syntax
from varietal.syntax import FreeFormSignature, OperationSymbol
from varietal.syntax import Equation, ParamTerm, app, var
from varietal.algebra import (
    enumerate_algebras, interpretation_table, is_homomorphism, product_algebra,
    satisfies)
from varietal.presentation import palg_satisfies, free_algebra
from varietal.birkhoff import (
    BirkhoffWindow,
    GaloisScale,
    ScaleError,
    restrict_to_generators,
)
from varietal.catalog import max_semilattice_algebra, semilattice_presentation

DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "varietal" / "data"
I = trivial_index()
ONE = terminal(I)
TWO = finite_set(2, I)


@pytest.fixture(scope="module")
def binop_window():
    return binop_fresh()


@pytest.fixture(scope="module")
def sl_window(semilattice):
    return BirkhoffWindow(semilattice.signature,
                          GaloisScale(2, 2, (ONE,), (TWO,)))


def binop_fresh():
    """A binop window of its own, for tests that count or corrupt its work."""
    sig = FreeFormSignature("binop", [OperationSymbol("f", TWO, ONE)])
    return BirkhoffWindow(sig, GaloisScale(2, 2, (ONE,)))


def keys(algebras):
    return {A.canonical_key() for A in algebras}


def names(equations):
    return {eq.name for eq in equations}


def test_window_lists_its_term_universe_once(monkeypatch):
    universes = []

    class CountingUniverse(syntax.TermUniverse):
        def __init__(self, *args):
            universes.append(args)
            super().__init__(*args)

    monkeypatch.setattr(syntax, "TermUniverse", CountingUniverse)
    sig = FreeFormSignature("binop", [OperationSymbol("f", TWO, ONE)])
    w = BirkhoffWindow(sig, GaloisScale(2, 2, (ONE,)))
    w.equation_window()
    w.sat_lower_g(w.algebras())
    assert len(w.algebras()) == 18
    assert len(universes) == 1


def test_sat_star_empty_is_everything(binop_window):
    assert len(binop_window.sat_star([])) == len(binop_window.algebras())


def test_sat_star_semilattice_axioms(semilattice, sl_window):
    got = sl_window.sat_star(semilattice.equations)
    direct = [A for A in sl_window.algebras() if palg_satisfies(A, semilattice)]
    assert keys(got) == keys(direct)


def test_sat_star_antitone(binop_window):
    window = binop_window.equation_window()
    small, large = window[:4], window[:9]
    assert keys(binop_window.sat_star(large)) <= keys(binop_window.sat_star(small))


def test_sat_lower_empty_set_is_whole_window(binop_window):
    assert names(binop_window.sat_lower_g([])) == names(
        binop_window.equation_window())


def test_sat_lower_contains_commutativity_for_chain(semilattice, sl_window):
    chain = max_semilattice_algebra(semilattice, 2)
    theory = sl_window.sat_lower_g([chain])
    # find the window pair naming join(x,y) and join(y,x)
    pts = sl_window.param_terms(0, 0)
    xy = [i for i, pt in enumerate(pts)
          if not pt("*", 0).is_var and [t.var for t in pt("*", 0).binding[0]] == [0, 1]]
    yx = [i for i, pt in enumerate(pts)
          if not pt("*", 0).is_var and [t.var for t in pt("*", 0).binding[0]] == [1, 0]]
    target = f"w[0,0,{min(xy[0], yx[0])},{max(xy[0], yx[0])}]"
    assert target in names(theory)


def test_sat_lower_antitone(binop_window):
    algebras = binop_window.algebras()
    small, large = algebras[:3], algebras[:9]
    assert names(binop_window.sat_lower_g(large)) <= names(
        binop_window.sat_lower_g(small))


def test_restrict_to_generators_contains_identity_column(semilattice):
    comm = [e for e in semilattice.equations if e.name == "comm"][0]
    out = restrict_to_generators([comm], [comm.parameter])
    assert any(eq.lhs.rows == comm.lhs.rows and eq.rhs.rows == comm.rhs.rows
               for eq in out)


def test_restrict_to_generators_point_count(semilattice, global_state):
    for P in (semilattice, global_state):
        out = restrict_to_generators(list(P.equations), [ONE])
        expected = sum(eq.parameter.total_size for eq in P.equations)
        assert len(out) == expected


def test_restriction_preserves_satisfaction(semilattice, sl_window):
    # the generator family reaches every point, so satisfaction transfers
    for A in sl_window.algebras():
        for eq in semilattice.equations:
            whole = satisfies(A, eq)
            parts = all(
                satisfies(A, r)
                for r in restrict_to_generators([eq], [ONE]))
            assert whole == parts


def test_variety_generated_by_chain(semilattice, sl_window):
    chain = max_semilattice_algebra(semilattice, 2)
    got = sl_window.variety_generated([chain])
    direct = [A for A in sl_window.algebras() if palg_satisfies(A, semilattice)]
    assert keys(got) == keys(direct)


def test_variety_generated_is_monotone_and_idempotent(binop_window):
    algebras = binop_window.algebras()[:5]
    closure = binop_window.variety_generated(algebras)
    assert keys(algebras) <= keys(closure)
    assert keys(binop_window.variety_generated(closure)) == keys(closure)


def test_galois_laws_vacuous(binop_window):
    ok, lines = binop_window.check_galois_laws([], [])
    assert ok and len(lines) == 5


def test_galois_laws_random_seeds(binop_window):
    rng = random.Random(2024)
    window = binop_window.equation_window()
    algebras = binop_window.algebras()
    for _ in range(25):
        E = rng.sample(window, rng.randint(0, 6))
        A = rng.sample(algebras, rng.randint(0, 6))
        ok, lines = binop_window.check_galois_laws(E, A)
        assert ok, lines


def test_scale_mismatch_rejected(binop_window, semilattice, sl_window):
    big = max_semilattice_algebra(semilattice, 3)
    with pytest.raises(ScaleError):
        sl_window.check_galois_laws([], [big])
    foreign = sl_window.equation_window()[0]
    with pytest.raises(ScaleError):
        binop_window.check_galois_laws([foreign], [])


def test_sat_star_closed_under_subobjects_and_products(binop_window):
    window = binop_window.equation_window()
    E = window[:3]
    variety = binop_window.sat_star(E)
    vkeys = keys(variety)
    for A in binop_window.algebras():
        for B in variety:
            for f in hom_set(A.carrier, B.carrier):
                injective = all(len(set(c)) == len(c) for c in f.components)
                if injective and is_homomorphism(f, A, B):
                    assert A.canonical_key() in vkeys
    for A in variety:
        for B in variety:
            P = product_algebra(A, B)
            if P.carrier.sizes[0] <= binop_window.scale.size:
                assert P.canonical_key() in vkeys


def test_variety_of_free_algebras_equals_presented_variety(semilattice):
    window = BirkhoffWindow(
        semilattice.signature,
        GaloisScale(2, 2, (ONE,), (TWO,)))
    frees = []
    for k in (1, 2, 3):
        Q = free_algebra(semilattice, finite_set(k, I), 3)
        assert Q.saturated
        frees.append(Q.as_algebra())
    generated = window.variety_generated(frees)
    direct = window.sat_star(semilattice.equations)
    assert keys(generated) == keys(direct)


def test_kernel_of_interpretation_table_matches_sat_lower(semilattice, sl_window):
    # the window theory of a single algebra is the kernel of its
    # interpretation rows: same pairs either way
    from varietal.algebra import interpretation_table
    chain = max_semilattice_algebra(semilattice, 2)
    table = interpretation_table(chain, TWO, sl_window.scale.depth)
    pts = sl_window.param_terms(0, 0)
    kernel = {
        f"w[0,0,{i},{j}]"
        for i in range(len(pts))
        for j in range(i + 1, len(pts))
        if table[pts[i]("*", 0)] == table[pts[j]("*", 0)]}
    assert kernel == names(sl_window.sat_lower_g([chain]))


def _binop_equation(window, name, variables, lhs, rhs):
    """An equation over the window signature with terminal parameter."""
    sig = window.signature
    return Equation(name, ParamTerm(sig, variables, ONE, ((lhs,),)),
                    ParamTerm(sig, variables, ONE, ((rhs,),)))


def _f(window, variables, a, b):
    return app(window.signature, "f", ((a, b),), "*", 0, variables)


@pytest.mark.parametrize("variables", [TWO, ONE], ids=["arity2", "arity1"])
def test_sat_star_ignores_window_names_on_foreign_equations(binop_window, variables):
    # named like a window pair, but deeper than the window: membership is by
    # identity, so the equation is checked directly
    x = var(binop_window.signature, "*", 0)
    y = var(binop_window.signature, "*", variables.size("*") - 1)
    deep = _f(binop_window, variables,
              _f(binop_window, variables, _f(binop_window, variables, x, y), y), y)
    eq = _binop_equation(binop_window, "w[0,0,0,1]", variables, deep, x)
    want = [A for A in binop_window.algebras() if satisfies(A, eq)]
    assert keys(binop_window.sat_star([eq])) == keys(want)
    assert 0 < len(want) < len(binop_window.algebras())


def test_galois_laws_reject_equation_named_like_window_pair(binop_window):
    x = var(binop_window.signature, "*", 0)
    y = var(binop_window.signature, "*", 1)
    comm = _binop_equation(binop_window, "w[0,0,0,2]", TWO,
                           _f(binop_window, TWO, x, y), _f(binop_window, TWO, y, x))
    with pytest.raises(ScaleError):
        binop_window.check_galois_laws([comm], [binop_window.algebras()[0]])


def test_window_builds_one_kernel_per_algebra_and_arity(monkeypatch):
    # every law reads the one cached kernel of each algebra object: the
    # first run interprets each window algebra once per arity, the next none
    calls = Counter()

    def counting(A, J, depth):
        calls[id(A), J] += 1
        return interpretation_table(A, J, depth)

    monkeypatch.setattr(birkhoff, "interpretation_table", counting)
    sig = FreeFormSignature("pairops", [OperationSymbol("f", TWO, ONE),
                                        OperationSymbol("g", ONE, ONE)])
    window = BirkhoffWindow(sig, GaloisScale(2, 2, (ONE,)))
    eqs, algebras = window.equation_window(), window.algebras()
    assert window.arities == (TWO, ONE)
    ok, _ = window.check_galois_laws(eqs[:1], algebras[:2])
    assert ok
    assert calls == {(id(A), J): 1 for A in algebras for J in window.arities}
    calls.clear()
    rng = random.Random(5)
    for _ in range(3):
        ok, _ = window.check_galois_laws(rng.sample(eqs, 3),
                                         rng.sample(algebras, 3))
        assert ok
    assert not calls


def test_parsed_algebra_reads_like_its_window_twin():
    # kernels are held per object; an outside algebra equal to a window
    # algebra gets the same theory and variety as the window's own object
    ws = fileformat.Workspace()
    fileformat.parse_file(str(DATA / "semilattice_gen.algs"), ws)
    sig = ws.signatures["semilattice.sig"]
    window = BirkhoffWindow(sig, GaloisScale(2, 2, (terminal(sig.index),)))
    parsed = ws.algebras["chain2"]
    twin, = [A for A in window.algebras()
             if A.canonical_key() == parsed.canonical_key()]
    assert twin is not parsed
    window.require_window_algebras([parsed])
    theory = window.sat_lower_g([parsed])
    assert theory == window.sat_lower_g([twin])
    assert window.variety_generated([parsed]) == window.variety_generated([twin])
    assert all(satisfies(parsed, eq) for eq in theory)


def test_algebra_over_another_signature_is_a_scale_error(binop_window):
    # its tables are a window algebra's, but its terms are not the window's
    other = FreeFormSignature("other", [OperationSymbol("f", TWO, ONE)])
    A = enumerate_algebras(other, 2)[3]
    assert A.canonical_key() in keys(binop_window.algebras())
    for call in (binop_window.sat_lower_g, binop_window.variety_generated,
                 binop_window.require_window_algebras,
                 lambda algebras: binop_window.check_galois_laws([], algebras)):
        with pytest.raises(ScaleError, match="signature other, not the window's binop"):
            call([A])


@pytest.fixture(scope="module")
def binop_direct(binop_window):
    """``satisfies`` on every (algebra, window equation) of the binop window."""
    return {(id(A), id(eq)): bool(satisfies(A, eq))
            for A in binop_window.algebras()
            for eq in binop_window.equation_window()}


def ids(items):
    return [id(x) for x in items]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_window_matches_direct_satisfies_filters(binop_window, binop_direct,
                                                 data):
    # the plain filters read satisfies only (memoized on window equations);
    # a precomposed copy of a window equation is another object, so the
    # window checks it directly too
    eqs, algebras = binop_window.equation_window(), binop_window.algebras()
    E = data.draw(st.lists(st.sampled_from(eqs), max_size=8))
    copy, = restrict_to_generators([data.draw(st.sampled_from(eqs))], [ONE])
    if data.draw(st.booleans()):
        E.insert(data.draw(st.integers(0, len(E))), copy)
    A = data.draw(st.lists(st.sampled_from(algebras), max_size=5))

    def holds(B, eq):
        got = binop_direct.get((id(B), id(eq)))
        return bool(satisfies(B, eq)) if got is None else got

    def star(equations):
        return [B for B in algebras if all(holds(B, eq) for eq in equations)]

    def lower(members):
        return [eq for eq in eqs if all(holds(B, eq) for B in members)]

    assert ids(binop_window.sat_star(E)) == ids(star(E))
    assert ids(binop_window.sat_lower_g(A)) == ids(lower(A))
    assert ids(binop_window.variety_generated(A)) == ids(star(lower(A)))
    assert ids(binop_window.theory_generated(E)) == ids(lower(star(E)))


def test_laws_and_varieties_build_no_equation_lists(monkeypatch):
    calls = []
    sat_lower_g = BirkhoffWindow.sat_lower_g

    def counting(self, algebras):
        calls.append(len(algebras))
        return sat_lower_g(self, algebras)

    monkeypatch.setattr(BirkhoffWindow, "sat_lower_g", counting)
    window = binop_fresh()
    assert window.sat_star([]) == window.algebras()
    assert not window._kernels  # no equations, so no kernel is read
    eqs, algebras = window.equation_window(), window.algebras()
    rng = random.Random(7)
    for _ in range(5):
        ok, lines = window.check_galois_laws(rng.sample(eqs, 3),
                                             rng.sample(algebras, 3))
        assert ok, lines
        window.variety_generated(rng.sample(algebras, 2))
    assert calls == []


def test_adjunction_left_side_does_not_read_the_kernels():
    # a corrupted kernel moves the right side only, so the law must fail
    window = binop_fresh()

    def corruptible():
        # an equation A satisfies, and a term of another class
        for A in window.algebras():
            kernel = window._kernel(A)
            for eq, (i, j) in window._window.items():
                for p, cls in enumerate(kernel):
                    if kernel[i] == kernel[j] != cls:
                        return A, eq, j, p

    A, eq, j, p = corruptible()
    assert satisfies(A, eq)
    ok, lines = window.check_galois_laws([eq], [A])
    assert ok, lines
    kernel = window._kernels[A]
    kernel[j], kernel[p] = kernel[p], kernel[j]
    ok, lines = window.check_galois_laws([eq], [A])
    assert not ok
    assert lines[0].startswith("LAW adjunction FAIL witness=left=True,right=False")
