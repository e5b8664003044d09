"""The four job families, their pairings, and the checks on every job.

A workload has a ``setup`` that builds what its jobs share, and a
``round`` that draws one round of jobs from a seeded generator.  Every
round holds the same multiset of job kinds, so throughput and percentiles
do not depend on which seed drew it or on how many rounds fit in a run;
the seed picks members, orders, flags, table entries and mutation sites.

Jobs reach the library through module attributes (``cli.main``,
``clones.check_relative_monad``, ...) so that the traced run, which
rebinds those attributes, sees every call.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
from dataclasses import dataclass
from typing import Callable

import oracles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, "src", "varietal", "data")


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    # result -> (correct, decided); decided is False for Unknown and ceilings
    check: Callable[[object], tuple[bool, bool]]
    argv: list[str] | None = None   # CLI arguments, for the hash-seed check
    cheap: bool = False             # a few tenths of a second at most


def data(name: str) -> str:
    return os.path.join(DATA, name)


# ---------------------------------------------------------------------------
# CLI jobs


def run_cli(argv: list[str]) -> tuple[int, str]:
    from varietal import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


_STATUS = {0: "ok", 1: "violation", 2: "unknown", 3: "input-error",
           4: "resource"}


def cli_job(label, argv, check_lines, cheap=False) -> Job:
    def check(result):
        code, text = result
        lines = text.splitlines()
        if not lines or lines[-1] != f"status={_STATUS.get(code)}":
            return False, False
        return check_lines(code, lines[:-1])
    return Job(label, lambda: run_cli(argv), check, argv, cheap)


def _field(line: str, key: str) -> str | None:
    m = re.search(rf"(?:^| ){re.escape(key)}=(\S+)", line)
    return m.group(1) if m else None


def free_job(theory, k, depth, flags=(), two_outcome=False, cheap=False):
    argv = ["free", data(f"{theory}.var"), "--gens", str(k),
            "--depth", str(depth), *flags]
    expect = oracles.free_classes(theory, k)

    def check(code, lines):
        classes, saturated = _field(lines[0], "classes"), _field(lines[0], "saturated")
        if classes is None or saturated not in ("true", "false"):
            return False, False
        rest = lines[1:]
        table = [l for l in rest if l.startswith("class ")]
        audit = [l for l in rest if l.startswith("merge ")]
        if len(table) + len(audit) != len(rest):
            return False, False
        if ("--table" in flags) != bool(table) or (
                "--table" in flags and len(table) != int(classes)):
            return False, False
        if audit and "--audit" not in flags:
            return False, False
        if code == 2 and saturated == "false":
            # an honest "budget exhausted": right for infinite free algebras,
            # and accepted for the listed depth-budget jobs
            return expect is None or two_outcome, False
        if code == 0 and saturated == "true":
            return expect is not None and int(classes) == expect, True
        return False, False

    label = f"free {theory} {k}/{depth}" + "".join(f" {f}" for f in flags)
    return cli_job(label, argv, check, cheap)


def models_job(theory, size, flags=(), two_outcome=False, cheap=False):
    argv = ["models", data(f"{theory}.var"), "--size", str(size), *flags]
    iso = "--iso" in flags

    def check(code, lines):
        if code == 4 and two_outcome:
            return len(lines) == 1 and lines[0].startswith("error: "), False
        if code != 0 or not lines or _field(lines[0], "models") is None:
            return False, False
        found = int(_field(lines[0], "models"))
        listed = [l for l in lines[1:] if l.startswith("model ")]
        if len(listed) != len(lines) - 1:
            return False, False
        if ("--list" in flags and len(listed) != found) or (
                "--list" not in flags and listed):
            return False, False
        return found == oracles.model_count(theory, size, iso=iso), True

    label = f"models {theory} {size}" + "".join(f" {f}" for f in flags)
    return cli_job(label, argv, check, cheap)


def check_job(label, files, verdicts: dict[str, bool]):
    argv = ["check", *files]

    def check(code, lines):
        expect_ok = all(verdicts.values())
        if code != (0 if expect_ok else 1):
            return False, False
        seen = {}
        for line in lines[:-1]:
            m = re.match(r"equation (\S+): (OK|FAIL)", line)
            if not m:
                return False, False
            seen[m.group(1)] = m.group(2) == "OK"
        good = sum(verdicts.values())
        summary = f"{'OK' if expect_ok else 'FAIL'} {good}/{len(verdicts)} equations"
        return seen == verdicts and lines[-1] == summary, True

    return cli_job(label, argv, check, cheap=True)


def violations_job(label, argv, cheap=True):
    def check(code, lines):
        return code == 0 and lines == ["violations=0"], True
    return cli_job(label, argv, check, cheap)


# ---------------------------------------------------------------------------
# free-closure


def free_setup(ctx):
    from varietal import fileformat
    for name in ("semilattice", "globalstate", "z2mod", "boolmod", "readbits",
                 "monoid", "restriction"):
        fileformat.parse_file(data(f"{name}.var"))


# (theory, generators, depth, cheap); cheap ones also run a flagged copy
_FREE_MENU = [
    ("semilattice", 1, 3, True), ("semilattice", 2, 3, True),
    ("semilattice", 3, 3, True), ("semilattice", 4, 4, False),
    ("semilattice", 5, 4, False),
    ("globalstate", 1, 3, True), ("globalstate", 2, 3, False),
    ("z2mod", 1, 3, True), ("z2mod", 2, 3, True),
    ("boolmod", 1, 3, True), ("boolmod", 2, 3, True),
    ("readbits", 1, 3, True), ("readbits", 2, 3, False),
    ("monoid", 1, 4, True), ("monoid", 2, 3, False),
    ("restriction", 1, 3, True), ("restriction", 2, 3, True),
]
# exhaust the depth budget today; a saturating engine must give 2^3 classes
_FREE_TWO_OUTCOME = [("z2mod", 3, 3), ("boolmod", 3, 3)]
_FLAG_CHOICES = [("--table",), ("--audit",), ("--table", "--audit")]


def free_round(rng, ctx):
    jobs = []
    for theory, k, depth, cheap in _FREE_MENU:
        jobs.append(free_job(theory, k, depth, cheap=cheap))
        if cheap:
            jobs.append(free_job(theory, k, depth, rng.choice(_FLAG_CHOICES),
                                 cheap=True))
    for theory, k, depth in _FREE_TWO_OUTCOME:
        jobs.append(free_job(theory, k, depth, two_outcome=True, cheap=True))
    return jobs


# ---------------------------------------------------------------------------
# model-search

_WITNESSES = [
    ("semilattice.var", "chain2.alg"), ("monoid.var", "zmod3.alg"),
    ("globalstate.var", "state1.alg"), ("z2mod.var", "z2self.alg"),
    ("boolmod.var", "boolself.alg"), ("restriction.var", "nufirst.alg"),
]
# reader2.alg is left out: its 16-element carrier makes the check of the
# 4-ary read-dup law take seconds, where the other witnesses take ~10 ms


def _witness_verdicts(var_file):
    # every bundled witness is a model of its presentation
    with open(data(var_file), encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("(presentation "):
                names = re.search(r"\(equations ([^)]*)\)", line).group(1)
                return {n: True for n in names.split()}
    raise ValueError(f"no presentation in {var_file}")


def _table_text(values):
    return " ".join(f"({v})" for v in values)


def _write_check_file(path, kind, n, table, unit):
    lines = [f"(object carrier I (elems (* {n})))"]
    if kind == "semilattice":
        lines.append(f"(algebra seeded semilattice.sig carrier "
                     f"(op join {_table_text(table)}))")
    else:
        lines.append(f"(algebra seeded monoid.sig carrier "
                     f"(op mul {_table_text(table)}) (op unit ({unit})))")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _seeded_table(rng, kind, n):
    """Half the time a model drawn from the oracle's own enumeration."""
    if rng.random() < 0.5:
        if kind == "semilattice":
            return rng.choice(oracles.semilattice_tables(n)), 0
        t = rng.choice(oracles.unit_zero_monoids(n))
        # relabel so the unit is not always 0
        p = list(range(n))
        rng.shuffle(p)
        q = [0] * n
        for a in range(n):
            q[p[a]] = a
        return tuple(p[t[q[a] * n + q[b]]] for a in range(n)
                     for b in range(n)), p[0]
    return tuple(rng.randrange(n) for _ in range(n * n)), rng.randrange(n)


_SMALL_GRAPHS = [
    (1, [(0, 0)]), (2, [(0, 0), (1, 1), (0, 1)]), (3, [(0, 0), (1, 1), (2, 2)]),
    (1, [(0, 0), (0, 0)]), (2, [(0, 1), (1, 0)]), (2, [(0, 0), (0, 1)]),
    (2, [(0, 1)]), (3, [(0, 1), (1, 2)]), (2, [(0, 0), (1, 1)]),
]


def model_setup(ctx):
    from varietal import catalog
    ctx["SL"] = catalog.semilattice_presentation()
    ctx["MO"] = catalog.monoid_presentation()
    ctx["IC"] = catalog.internal_category_presentation()
    ctx["witness_verdicts"] = {v: _witness_verdicts(v) for v, _ in _WITNESSES}


def _library_models_job(label, build, size, theory):
    from varietal import algebra

    def run():
        return len(algebra.enumerate_algebras(build(), size))

    return Job(label, run,
               lambda found: (found == oracles.model_count(theory, size), True))


def model_round(rng, ctx):
    from varietal import catalog
    from varietal import presentation as pres
    cheap_models = [("semilattice", 2), ("monoid", 2), ("z2mod", 2),
                    ("boolmod", 2), ("readbits", 2), ("globalstate", 2)]
    jobs = [models_job(t, s, rng.choice([(), ("--list",)]), cheap=True)
            for t, s in cheap_models]
    jobs += [
        models_job("semilattice", 3), models_job("monoid", 3),
        models_job("monoid", 3, ("--iso",)), models_job("restriction", 3),
        # ResourceCeiling today; a faster search must give the oracle count
        models_job("semilattice", 4, two_outcome=True),
        models_job("monoid", 4, two_outcome=True),
        models_job("readbits", 3, two_outcome=True, cheap=True),
    ]
    SL, MO = ctx["SL"], ctx["MO"]
    jobs.append(_library_models_job(
        "enumerate_algebras sum(SL,MO) 3",
        lambda: pres.sum_presentations(SL, MO), 3, "semilattice+monoid"))
    jobs.append(_library_models_job(
        "enumerate_algebras tensor(MO,MO) 2",
        lambda: pres.tensor(MO, MO), 2, "commutative-monoid"))
    IC = ctx["IC"]
    for nv, edges in rng.sample(_SMALL_GRAPHS, 4):
        G = catalog.graph_presheaf(nv, edges)
        jobs.append(Job(
            f"models_on graph {nv} {edges}",
            lambda G=G: len(IC.models_on(G)),
            lambda found, G=G: (found == catalog.count_category_structures(G),
                                True),
            cheap=True))
    for var_file, alg_file in rng.sample(_WITNESSES, 2):
        jobs.append(check_job(f"check {alg_file}",
                              [data(var_file), data(alg_file)],
                              ctx["witness_verdicts"][var_file]))
    for kind in ("semilattice", "semilattice", "monoid", "monoid"):
        n = rng.choice((2, 3))
        table, unit = _seeded_table(rng, kind, n)
        ctx["files"] = ctx.get("files", 0) + 1
        path = os.path.join(ctx["workdir"], f"seeded-{ctx['files']}.alg")
        _write_check_file(path, kind, n, table, unit)
        verdicts = (oracles.semilattice_verdicts(table, n) if kind == "semilattice"
                    else oracles.monoid_verdicts(table, unit, n))
        jobs.append(check_job(f"check seeded {kind} {n}",
                              [data(f"{kind}.var"), path], verdicts))
    return jobs


# ---------------------------------------------------------------------------
# galois-window

# (|E|, |A|) per check_galois_laws slot; the seed picks the members
_GALOIS_SLOTS = [(0, 5), (5, 0), (1, 4), (4, 1), (2, 3), (3, 2)]


def galois_setup(ctx):
    from varietal import base, birkhoff, syntax
    I = base.trivial_index()
    one, two = base.terminal(I), base.finite_set(2, I)
    windows = {}
    for name, symbols, arities in (
            ("binop", [syntax.OperationSymbol("f", two, one)], [2]),
            ("pairops", [syntax.OperationSymbol("f", two, one),
                         syntax.OperationSymbol("g", base.finite_set(1, I), one)],
             [2, 1])):
        sig = syntax.FreeFormSignature(name, symbols)
        w = birkhoff.BirkhoffWindow(sig, birkhoff.GaloisScale(2, 2, (one,)))
        w.equation_window()
        # fills the per-algebra interpretation rows every query reads
        w.sat_lower_g(w.algebras())
        windows[name] = (w, arities)
    ctx["windows"] = windows


def galois_prepare(ctx):
    ctx["window_oracles"] = {
        name: oracles.WindowOracle(w.equation_window(), w.algebras())
        for name, (w, _) in ctx["windows"].items()}


def _ids(window, algebras):
    index = {id(A): i for i, A in enumerate(window.algebras())}
    return [index[id(A)] for A in algebras]


def galois_round(rng, ctx):
    jobs = []
    for name, (w, arities) in ctx["windows"].items():
        eqs, algs = w.equation_window(), w.algebras()

        def oracle(name=name):
            return ctx["window_oracles"][name]

        for n_e, n_a in _GALOIS_SLOTS:
            E, A = rng.sample(eqs, n_e), rng.sample(algs, n_a)

            def check(result):
                ok, lines = result
                return ok and len(lines) == 5 and all(
                    " OK " in l for l in lines), True

            jobs.append(Job(f"galois {name} |E|={n_e} |A|={n_a}",
                            lambda w=w, E=E, A=A: w.check_galois_laws(E, A),
                            check))
        for n_a in (1, 3):
            A = rng.sample(algs, n_a)
            jobs.append(Job(
                f"variety_generated {name} |A|={n_a}",
                lambda w=w, A=A: _ids(w, w.variety_generated(A)),
                lambda got, w=w, A=A, oracle=oracle: (
                    got == oracle().variety(_ids(w, A)), True),
                cheap=True))
        for n_e in (1, 3):
            E = rng.sample(eqs, n_e)
            jobs.append(Job(
                f"sat_star {name} |E|={n_e}",
                lambda w=w, E=E: _ids(w, w.sat_star(E)),
                lambda got, E=E, oracle=oracle: (got == oracle().sat_star(E), True),
                cheap=True))
        jobs.append(Job(
            f"sat_star {name} empty",
            lambda w=w: len(w.sat_star([])),
            lambda got, arities=arities: (
                got == oracles.window_algebra_count(arities, 2), True),
            cheap=True))

    def birkhoff_check(code, lines):
        members = [l for l in lines if l.startswith("member ")]
        laws = [l for l in lines if l.startswith("LAW ")]
        # the generating algebras are semilattices and include the 2-element
        # one; with two variables every idempotent commutative table on at
        # most two elements is a semilattice, so the closure is all of them
        expect = oracles.model_count("semilattice", 2)
        return (code == 0 and lines[0] == f"generated={expect}"
                and len(members) == expect and len(laws) == 5
                and all(" OK " in l for l in laws)
                and len(lines) == 1 + len(members) + len(laws)), True

    jobs.append(cli_job("birkhoff semilattice_gen 2,2",
                        ["birkhoff", data("semilattice_gen.algs"),
                         "--scale", "2,2", "--gens", "1"],
                        birkhoff_check, cheap=True))
    return jobs


# ---------------------------------------------------------------------------
# clone-kleisli


def clone_setup(ctx):
    from varietal import catalog, fileformat
    ctx["SL"] = catalog.semilattice_presentation()
    for name in ("state_clone.rm", "z2aff.rm", "z2mat.rm",
                 "kleisli_semilattice.pt"):
        fileformat.parse_file(data(name))


def _perm(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


def _valid_clone_job(label, build):
    from varietal import clones
    return Job(label, lambda: len(clones.check_relative_monad(build())),
               lambda found: (found == 0, True))


def _mutation_sites(M):
    sites = []
    for i, e in enumerate(M.unit):
        for si, comp in enumerate(e.components):
            for pos in range(len(comp)):
                sites.append(("unit", i, si, pos))
    for key in sorted(M.mult):
        for gi, g in enumerate(M.mult[key]):
            for si, comp in enumerate(g.components):
                for pos in range(len(comp)):
                    sites.append(("mult", key, gi, si, pos))
    return sites


def _site_size(M, site) -> int:
    f = M.unit[site[1]] if site[0] == "unit" else M.mult[site[1]][site[2]]
    return f.target.sizes[site[-2]]


def _mutated(M, site, shift):
    """M with one table entry moved by ``shift`` (mod the carrier size)."""
    from varietal import base, clones

    def moved(f, si, pos):
        comps = [list(c) for c in f.components]
        size = f.target.sizes[si]
        comps[si][pos] = (comps[si][pos] + shift) % size
        return base.PresheafMorphism(f.source, f.target,
                                     tuple(tuple(c) for c in comps))

    unit, mult = list(M.unit), dict(M.mult)
    if site[0] == "unit":
        _, i, si, pos = site
        unit[i] = moved(unit[i], si, pos)
    else:
        _, key, gi, si, pos = site
        values = list(mult[key])
        values[gi] = moved(values[gi], si, pos)
        mult[key] = values
    return clones.RelativeMonad(M.name + "*", M.objects, M.carriers, unit, mult)


MUTATION_JOBS = 8


def clone_round(rng, ctx):
    from varietal import catalog, clones, pretheory
    from varietal import base
    z2, boolean = catalog.z2_rig(), catalog.boolean_rig()
    jobs = [
        _valid_clone_job("state_clone {0,1,2}",
                         lambda p=_perm(rng, [0, 1, 2]): catalog.state_clone(p, 2)),
        _valid_clone_job("matrix z2 affine {1,2,3}",
                         lambda p=_perm(rng, [1, 2, 3]):
                         catalog.matrix_clone(z2, p, affine=True)),
    ]
    for rig in (z2, boolean):
        for affine in (False, True):
            if rig is z2 and affine:
                continue
            jobs.append(_valid_clone_job(
                f"matrix {rig.name} {'affine' if affine else 'plain'} {{1,2}}",
                lambda rig=rig, affine=affine, p=_perm(rng, [1, 2]):
                catalog.matrix_clone(rig, p, affine=affine)))
    # seeded single-entry mutations, two of each base clone per job, so every
    # job costs about the same; each mutation must break a monad law
    bases = [lambda: catalog.state_clone([0, 1], 2),
             lambda: catalog.matrix_clone(z2, [1, 2]),
             lambda: catalog.matrix_clone(z2, [1, 2], affine=True)]
    sized = []
    for build in bases:
        M = build()
        sized.append((build, [(s, _site_size(M, s)) for s in _mutation_sites(M)
                              if _site_size(M, s) > 1]))
    for _ in range(MUTATION_JOBS):
        picks = [(build, site, rng.randrange(1, size))
                 for build, sites in sized for site, size in rng.sample(sites, 2)]

        def sweep(picks=picks):
            return [len(clones.check_relative_monad(
                        _mutated(build(), site, shift), first_only=True))
                    for build, site, shift in picks]

        jobs.append(Job(f"mutations {[p[1] for p in picks]}", sweep,
                        lambda found: (all(v >= 1 for v in found), True),
                        cheap=True))
    SL = ctx["SL"]
    objs = _perm(rng, [1, 2, 3])

    def clone_of():
        I = base.trivial_index()
        M = clones.clone_of_presentation(
            SL, [base.finite_set(k, I) for k in objs], 3)
        return None if M is None else [c.total_size for c in M.carriers]

    jobs.append(Job(f"clone_of_presentation SL {objs}", clone_of,
                    lambda got, objs=objs: (
                        got == [2 ** k - 1 for k in objs], got is not None)))
    kobjs = _perm(rng, rng.choice([[1], [2], [1, 2]]))

    def kleisli():
        I = base.trivial_index()
        T = pretheory.kleisli_pretheory(
            SL, [base.finite_set(k, I) for k in kobjs], 3)
        if T is None:
            return None
        n = len(kobjs)
        return ({(i, j): T.hom_count(i, j) for i in range(n) for j in range(n)},
                len(pretheory.check_pretheory(T)))

    def kleisli_check(got, kobjs=kobjs):
        if got is None:
            return False, False
        homs, violations = got
        expect = {(i, j): (2 ** a - 1) ** b
                  for i, a in enumerate(kobjs) for j, b in enumerate(kobjs)}
        return homs == expect and violations == 0, True

    jobs.append(Job(f"kleisli_pretheory SL {kobjs}", kleisli, kleisli_check,
                    cheap=True))
    jobs += [
        violations_job("clone state_clone.rm --check",
                       ["clone", data("state_clone.rm"), "--check"], cheap=False),
        violations_job("clone z2aff.rm --check",
                       ["clone", data("z2aff.rm"), "--check"]),
        violations_job("clone z2mat.rm --check",
                       ["clone", data("z2mat.rm"), "--check"]),
        violations_job("pretheory kleisli_semilattice.pt --check",
                       ["pretheory", data("kleisli_semilattice.pt"), "--check"]),
    ]
    return jobs


@dataclass
class Workload:
    name: str
    setup: Callable[[dict], None]
    round: Callable[[object, dict], list[Job]]
    prepare: Callable[[dict], None] = lambda ctx: None


def combined(name: str, *parts: Workload) -> Workload:
    """One workload whose rounds hold one round of each part."""
    def setup(ctx):
        for p in parts:
            p.setup(ctx)

    def prepare(ctx):
        for p in parts:
            p.prepare(ctx)

    return Workload(name, setup,
                    lambda rng, ctx: [j for p in parts for j in p.round(rng, ctx)],
                    prepare)


FAMILIES = {
    w.name: w for w in (
        Workload("free-closure", free_setup, free_round),
        Workload("model-search", model_setup, model_round),
        Workload("galois-window", galois_setup, galois_round, galois_prepare),
        Workload("clone-kleisli", clone_setup, clone_round),
    )
}
# The benchmark's gated workloads pair the families so that each run is
# twice as long for the same number of runs: the machine's speed drifts by
# about a quarter over 15-30 s, and only longer runs average it out.  The
# pairs keep the bypass structure: free_algebra runs only in "closure",
# model search and birkhoff only in "search".
WORKLOADS = {
    **FAMILIES,
    "closure": combined("closure", FAMILIES["free-closure"],
                        FAMILIES["clone-kleisli"]),
    "search": combined("search", FAMILIES["model-search"],
                       FAMILIES["galois-window"]),
}
