"""Spans and counters at varietal's public layer boundaries.

``Tracer.install`` rebinds each boundary function in its defining module
and under every name another ``varietal`` module imported it by (so
``varietal.algebra.hom_list`` is traced along with ``varietal.base.hom_list``);
methods are rebound on their class.  ``uninstall`` puts the originals back.
The timed runs never install it.

Spans live in flat arrays (name, start, end, parent, job) and are written
out once, at the end of the run.
"""

from __future__ import annotations

import gzip
import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter

# (layer, module, attribute): functions that get a span
SPAN_FUNCTIONS = [
    ("cli", "varietal.cli", "main"),
    ("fileformat", "varietal.fileformat", "parse_file"),
    ("base", "varietal.base", "hom_list"),
    ("base", "varietal.base", "hom_set"),
    ("base", "varietal.base", "enumerate_families"),
    ("syntax", "varietal.syntax", "enumerate_terms"),
    ("algebra", "varietal.algebra", "enumerate_algebras"),
    ("algebra", "varietal.algebra", "satisfies"),
    ("algebra", "varietal.algebra", "is_homomorphism"),
    ("algebra", "varietal.algebra", "evaluate"),
    ("presentation", "varietal.presentation", "free_algebra"),
    ("presentation", "varietal.presentation", "tensor"),
    ("clones", "varietal.clones", "check_relative_monad"),
    ("clones", "varietal.clones", "clone_of_presentation"),
    ("pretheory", "varietal.pretheory", "kleisli_pretheory"),
    ("pretheory", "varietal.pretheory", "check_pretheory"),
]
# (layer, module, class, method): methods that get a span
SPAN_METHODS = [
    ("presentation", "varietal.presentation", "FreeAlgebra", "evaluate_class"),
    ("presentation", "varietal.presentation", "TwoStagePresentation", "models_on"),
    ("birkhoff", "varietal.birkhoff", "BirkhoffWindow", "check_galois_laws"),
    ("birkhoff", "varietal.birkhoff", "BirkhoffWindow", "sat_star"),
    ("birkhoff", "varietal.birkhoff", "BirkhoffWindow", "sat_lower_g"),
]

# every per-layer metric, with its unit; BENCHMARK.json lists the same names
PER_LAYER = [
    ("cli.main.calls", "count"), ("cli.main.self_s", "s"),
    ("fileformat.parse_file.calls", "count"),
    ("fileformat.parse_file.total_s", "s"),
    ("fileformat.decls_parsed", "count"),
    ("base.hom_list.calls", "count"), ("base.hom_list.total_s", "s"),
    ("base.homs_listed", "count"),
    ("base.hom_set.calls", "count"), ("base.hom_set.total_s", "s"),
    ("base.enumerate_families.calls", "count"),
    ("base.enumerate_families.total_s", "s"),
    ("base.morphisms_built", "count"),
    ("syntax.enumerate_terms.calls", "count"),
    ("syntax.enumerate_terms.total_s", "s"),
    ("syntax.terms_enumerated", "count"), ("syntax.app.calls", "count"),
    ("algebra.enumerate_algebras.calls", "count"),
    ("algebra.enumerate_algebras.self_s", "s"),
    ("algebra.models_found", "count"),
    ("algebra.satisfies.calls", "count"), ("algebra.satisfies.self_s", "s"),
    ("algebra.models_per_check", "ratio"),
    ("algebra.is_homomorphism.calls", "count"),
    ("algebra.ceiling_hits", "count"),
    ("algebra.evaluate.calls", "count"), ("algebra.evaluate.self_s", "s"),
    ("presentation.free_algebra.calls", "count"),
    ("presentation.free_algebra.self_s", "s"),
    ("presentation.classes", "count"),
    ("presentation.merges.eq", "count"), ("presentation.merges.cong", "count"),
    ("presentation.merges.act", "count"),
    ("presentation.saturated_share", "share"),
    ("presentation.evaluate_class.calls", "count"),
    ("presentation.evaluate_class.self_s", "s"),
    ("presentation.models_on.calls", "count"),
    ("presentation.models_on.self_s", "s"),
    ("presentation.tensor.total_s", "s"),
    ("clones.check_relative_monad.calls", "count"),
    ("clones.check_relative_monad.self_s", "s"),
    ("clones.violations_found", "count"),
    ("clones.clone_of_presentation.calls", "count"),
    ("clones.clone_of_presentation.self_s", "s"),
    ("pretheory.kleisli_pretheory.calls", "count"),
    ("pretheory.kleisli_pretheory.self_s", "s"),
    ("pretheory.check_pretheory.calls", "count"),
    ("pretheory.check_pretheory.self_s", "s"),
    ("pretheory.hom_tokens", "count"),
    ("birkhoff.check_galois_laws.calls", "count"),
    ("birkhoff.check_galois_laws.self_s", "s"),
    ("birkhoff.sat_star.calls", "count"), ("birkhoff.sat_star.self_s", "s"),
    ("birkhoff.sat_lower_g.calls", "count"),
    ("birkhoff.sat_lower_g.self_s", "s"),
    ("birkhoff.equations_returned", "count"),
    ("birkhoff.window_cells", "count"),
    ("trace.overhead", "share"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_outer = array("b")    # no enclosing span of the same name
        self.stack: list[int] = []
        self.active: Counter = Counter()
        self.counts: Counter = Counter()
        self.windows: dict[int, object] = {}
        self.job = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        got = self.name_ids.get(name)
        if got is None:
            got = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return got

    def _wrap(self, name: str, fn, on_result=None):
        nid = self._name_id(name)
        stack, active = self.stack, self.active
        s_name, s_parent, s_job = self.span_name, self.span_parent, self.span_job
        s_start, s_end, s_outer = self.span_start, self.span_end, self.span_outer

        def traced(*args, **kwargs):
            idx = len(s_start)
            s_name.append(nid)
            s_parent.append(stack[-1] if stack else -1)
            s_job.append(self.job)
            s_outer.append(active[nid] == 0)
            s_end.append(0.0)
            stack.append(idx)
            active[nid] += 1
            s_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                s_end[idx] = perf_counter()
                self._on_error(name, exc)
                raise
            finally:
                active[nid] -= 1
                stack.pop()
            s_end[idx] = perf_counter()
            if on_result is not None:
                on_result(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, key: str, fn, amount=None):
        counts = self.counts

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[key] += 1 if amount is None else amount(result)
            return result

        counted.__wrapped__ = fn
        return counted

    def _on_error(self, name, exc):
        if name == "algebra.enumerate_algebras" and type(exc).__name__ == "ResourceCeiling":
            self.counts["algebra.ceiling_hits"] += 1

    # -- result hooks --------------------------------------------------------

    def _hooks(self):
        c = self.counts
        enum_id = self._name_id("algebra.enumerate_algebras")

        def free(Q, args):
            c["presentation.classes"] += Q.class_count()
            c["presentation.saturated"] += bool(Q.saturated)
            for e in Q.audit:
                c[f"presentation.merges.{e.kind}"] += 1

        def satisfies(_, args):
            if self.active[enum_id]:
                c["algebra.satisfies_in_enumeration"] += 1

        def kleisli(T, args):
            if T is not None:
                n = len(T.objects)
                c["pretheory.hom_tokens"] += sum(
                    T.hom_count(i, j) for i in range(n) for j in range(n))

        def window(_, args):
            self.windows.setdefault(id(args[0]), args[0])

        def lower(eqs, args):
            window(eqs, args)
            c["birkhoff.equations_returned"] += len(eqs)

        return {
            "base.hom_list": lambda r, a: c.update({"base.homs_listed": len(r)}),
            "syntax.enumerate_terms": lambda r, a: c.update(
                {"syntax.terms_enumerated": r.total}),
            "algebra.enumerate_algebras": lambda r, a: c.update(
                {"algebra.models_found": len(r)}),
            "algebra.satisfies": satisfies,
            "presentation.free_algebra": free,
            "clones.check_relative_monad": lambda r, a: c.update(
                {"clones.violations_found": len(r)}),
            "pretheory.kleisli_pretheory": kleisli,
            "birkhoff.check_galois_laws": window,
            "birkhoff.sat_star": window,
            "birkhoff.sat_lower_g": lower,
        }

    # -- installation --------------------------------------------------------

    def _rebind_everywhere(self, orig, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "varietal"
                                   or mod_name.startswith("varietal.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._restore.append((mod, attr, orig))
                    setattr(mod, attr, replacement)

    def install(self):
        hooks = self._hooks()
        for layer, module, attr in SPAN_FUNCTIONS:
            orig = getattr(importlib.import_module(module), attr)
            name = f"{layer}.{attr}"
            self._rebind_everywhere(orig, self._wrap(name, orig, hooks.get(name)))
        for layer, module, cls_name, attr in SPAN_METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            orig = cls.__dict__[attr]
            name = f"{layer}.{attr}"
            self._restore.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(name, orig, hooks.get(name)))
        syntax = importlib.import_module("varietal.syntax")
        self._rebind_everywhere(syntax.app, self._count("syntax.app.calls", syntax.app))
        sexpr = importlib.import_module("varietal.sexpr")
        self._rebind_everywhere(
            sexpr.parse, self._count("fileformat.decls_parsed", sexpr.parse, len))
        base = importlib.import_module("varietal.base")
        cls = base.PresheafMorphism
        orig = cls.__dict__["__post_init__"]
        self._restore.append((cls, "__post_init__", orig))
        setattr(cls, "__post_init__", self._count("base.morphisms_built", orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.span_start)

    def metrics(self) -> dict[str, float]:
        n = len(self.names)
        calls = [0] * n
        total = [0.0] * n
        self_time = [0.0] * n
        child = [0.0] * len(self.span_start)
        for i in range(len(self.span_start)):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        for i in range(len(self.span_start)):
            k = self.span_name[i]
            dur = self.span_end[i] - self.span_start[i]
            calls[k] += 1
            self_time[k] += dur - child[i]
            if self.span_outer[i]:
                total[k] += dur
        out: dict[str, float] = {}
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.total_s"] = total[k]
            out[f"{name}.self_s"] = self_time[k]
        c = self.counts
        out.update({key: c[key] for key in (
            "fileformat.decls_parsed", "base.homs_listed", "base.morphisms_built",
            "syntax.terms_enumerated", "syntax.app.calls", "algebra.models_found",
            "algebra.ceiling_hits", "presentation.classes",
            "presentation.merges.eq", "presentation.merges.cong",
            "presentation.merges.act", "clones.violations_found",
            "pretheory.hom_tokens", "birkhoff.equations_returned")})
        in_enum = c["algebra.satisfies_in_enumeration"]
        out["algebra.models_per_check"] = (
            c["algebra.models_found"] / in_enum if in_enum else 0.0)
        free_calls = out.get("presentation.free_algebra.calls", 0)
        out["presentation.saturated_share"] = (
            c["presentation.saturated"] / free_calls if free_calls else 0.0)
        out["birkhoff.window_cells"] = sum(
            len(w.equation_window()) * len(w.algebras())
            for w in self.windows.values())
        return out

    def write(self, path: str):
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart_s\tend_s\tparent\tjob\n")
            names = self.names
            for i in range(len(self.span_start)):
                fh.write(f"{names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                         f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\t"
                         f"{self.span_job[i]}\n")
