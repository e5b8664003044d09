"""Command-line driver.

Exit codes: 0 success, 1 property violated, 2 unknown or unsaturated,
3 input error (bad files or bad arguments), 4 resource ceiling.  Every run
ends with a machine-readable ``status=`` line; all other output is
deterministic given the inputs.  A run whose reader closed stdout stops
quietly with 141 (128 + SIGPIPE), as ``cat`` does, and no status line.

The argument parser is built on the first ``main`` call and reused for the
rest of the process; its defaults are immutable, so a parse leaves nothing
behind for the next.  ``main`` keeps no other state between calls, so a
program that calls it many times, such as a test suite, gets the same bytes
and exit codes as one fresh process per call.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .base import StructureError, finite_set, terminal
from .algebra import DEFAULT_CEILING, ResourceCeiling, enumerate_algebras, satisfies
from .presentation import (
    Presentation,
    free_algebra,
    sum_presentations,
    tensor,
)
from .clones import (
    check_relative_monad,
    clone_of_presentation,
    standardized_presentation,
)
from .pretheory import (
    check_pretheory,
    kleisli_pretheory,
    presentation_of_pretheory,
)
from .birkhoff import BirkhoffWindow, GaloisScale
from . import fileformat
from .fileformat import ParseError, Workspace

OK, VIOLATION, UNKNOWN, INPUT_ERROR, RESOURCE = 0, 1, 2, 3, 4
BROKEN_PIPE = 141
_STATUS = {OK: "ok", VIOLATION: "violation", UNKNOWN: "unknown",
           INPUT_ERROR: "input-error", RESOURCE: "resource"}


def _finish(code: int) -> int:
    print(f"status={_STATUS[code]}")
    return code


def _ceiling() -> int:
    """The model search's ceiling: ``VARIETAL_CEILING`` if set, a
    nonnegative integer, else the default."""
    value = os.environ.get("VARIETAL_CEILING")
    if not value:
        return DEFAULT_CEILING
    try:
        ceiling = int(value)
    except ValueError:
        ceiling = -1
    if ceiling < 0:
        raise ValueError(
            f"VARIETAL_CEILING must be a nonnegative integer, not {value!r}")
    return ceiling


def _load(paths) -> Workspace:
    ws = Workspace()
    for path in paths:
        fileformat.parse_file(path, ws)
    return ws


def _only(table: dict, kind: str, name: str | None, flag: str | None = None):
    """The ``kind`` declared as ``name``, or the only one if ``name`` is
    None; ``flag`` (``--kind`` if None) is the option that names it."""
    if name is not None:
        if name not in table:
            raise ParseError(f"no {kind} named {name!r}")
        return table[name]
    if not table:
        raise ParseError(f"no {kind} declared")
    if len(table) != 1:
        raise ParseError(
            f"expected exactly one {kind}, found {sorted(table)}; "
            f"use {flag or '--' + kind}")
    return next(iter(table.values()))


# argument types; argparse names the flag and the type when one raises
def int_list(spec: str) -> list[int]:
    return [int(part) for part in spec.split(",") if part.strip()]


def int_pair(spec: str) -> tuple[int, int]:
    n, d = map(int, spec.split(","))
    return n, d


def _arity_objects(sizes: list[int], index):
    if not sizes:
        raise ParseError("--objs needs at least one arity size, e.g. --objs 1,2")
    return [finite_set(k, index) for k in sizes]


def cmd_check(args) -> int:
    ws = _load(args.files)
    P = _only(ws.presentations, "presentation", args.presentation)
    A = _only(ws.algebras, "algebra", args.algebra)
    failures = 0
    for eq in P.equations:
        witness = satisfies(A, eq, witness=True)
        if witness is None:
            print(f"equation {eq.name}: OK")
        else:
            failures += 1
            phi, sort, c = witness
            print(f"equation {eq.name}: FAIL at phi={phi.components} "
                  f"sort={sort} param={c}")
    total = len(P.equations)
    print(f"{'OK' if failures == 0 else 'FAIL'} {total - failures}/{total} equations")
    return _finish(OK if failures == 0 else VIOLATION)


def cmd_models(args) -> int:
    ws = _load(args.files)
    P = _only(ws.presentations, "presentation", args.presentation)
    algs = enumerate_algebras(P, args.size, ceiling=_ceiling(), iso=args.iso)
    print(f"models={len(algs)}")
    if args.list:
        for i, A in enumerate(algs):
            print(f"model {i}: carrier={A.carrier.sizes} "
                  f"tables={A.canonical_key()[2]}")
    return _finish(OK)


def cmd_free(args) -> int:
    ws = _load(args.files)
    P = _only(ws.presentations, "presentation", args.presentation)
    gens = finite_set(args.gens, P.signature.index)
    Q = free_algebra(P, gens, args.depth)
    print(f"classes={Q.class_count()} saturated={'true' if Q.saturated else 'false'}")
    if args.table:
        for sort in Q.index.sorts:
            for i in range(Q.classes.size(sort)):
                print(f"class {sort} {i}: {Q.rep_text(sort, i)}")
    if args.audit:
        for line in Q.audit_lines():
            print(line)
    return _finish(OK if Q.saturated else UNKNOWN)


def _write(nodes, path: str | None, note: str = "",
           needed_by: str | None = None) -> None:
    """Write the declarations to the ``-o`` file ``path``, if one is given;
    the mode ``needed_by`` exists to write them, so it must have one."""
    if not path:
        if needed_by:
            raise ParseError(f"{needed_by} needs -o FILE")
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(fileformat.render(nodes))
    print(f"written {path}{note}")


def _write_presentation(P: Presentation, path: str | None, mode: str) -> int:
    _write(fileformat.presentation_nodes(P), path,
           f": |S|={len(P.signature.symbols)} |E|={len(P.equations)}", mode)
    return _finish(OK)


def _report(violations) -> int:
    for v in violations:
        print(f"violation {v.law} witness={v.witness}")
    print(f"violations={len(violations)}")
    return _finish(OK if not violations else VIOLATION)


def _two_presentations(args) -> tuple[Presentation, Presentation]:
    """Two presentation operands: one file holding both, or one file each."""
    if len(args.files) == 2:
        w1 = _load(args.files[:1])
        w2 = _load(args.files[1:])
        name1 = args.names[0] if args.names else None
        name2 = args.names[1] if args.names else None
        return (_only(w1.presentations, "presentation", name1, "--names"),
                _only(w2.presentations, "presentation", name2, "--names"))
    ws = _load(args.files)
    if len(args.names) == 2:
        return tuple(_only(ws.presentations, "presentation", name)
                     for name in args.names)
    if len(ws.presentations) == 2:
        first, second = ws.presentations.values()
        return first, second
    raise ParseError("need exactly two presentations (use --names)")


def cmd_sum(args) -> int:
    P1, P2 = _two_presentations(args)
    return _write_presentation(sum_presentations(P1, P2), args.output, "sum")


def cmd_tensor(args) -> int:
    P1, P2 = _two_presentations(args)
    return _write_presentation(tensor(P1, P2), args.output, "tensor")


def cmd_clone(args) -> int:
    ws = _load(args.files)
    if args.check:
        M = _only(ws.relmonads, "relmonad", args.name, "--name")
        return _report(check_relative_monad(M))
    if args.standardize:
        M = _only(ws.relmonads, "relmonad", args.name, "--name")
        return _write_presentation(standardized_presentation(M), args.output,
                                   "--standardize")
    if args.of:
        P = _only(ws.presentations, "presentation", args.name, "--name")
        objs = _arity_objects(args.objs, P.signature.index)
        M = clone_of_presentation(P, objs, args.depth)
        if M is None:
            print("clone=unknown (some free algebra failed to saturate)")
            return _finish(UNKNOWN)
        print(f"clone carriers={[c.total_size for c in M.carriers]}")
        _write(fileformat.relmonad_nodes(M), args.output)
        return _finish(OK)
    raise ParseError("clone needs one of --check / --standardize / --of")


def cmd_pretheory(args) -> int:
    ws = _load(args.files)
    if args.check:
        T = _only(ws.pretheories, "pretheory", args.name, "--name")
        return _report(check_pretheory(T))
    if args.compile:
        T = _only(ws.pretheories, "pretheory", args.name, "--name")
        return _write_presentation(presentation_of_pretheory(T), args.output,
                                   "--compile")
    if args.kleisli:
        P = _only(ws.presentations, "presentation", args.name, "--name")
        objs = _arity_objects(args.objs, P.signature.index)
        T = kleisli_pretheory(P, objs, args.depth)
        if T is None:
            print("pretheory=unknown (some free algebra failed to saturate)")
            return _finish(UNKNOWN)
        sizes = {f"{i},{j}": T.hom_count(i, j)
                 for i in range(len(T.objects)) for j in range(len(T.objects))}
        print("homs " + " ".join(f"{k}={v}" for k, v in sorted(sizes.items())))
        _write(fileformat.pretheory_nodes(T), args.output)
        return _finish(OK)
    raise ParseError("pretheory needs one of --check / --compile / --kleisli")


def cmd_birkhoff(args) -> int:
    ws = _load(args.files)
    sig = _only(ws.signatures, "signature", args.signature)
    n, d = args.scale
    gens = (tuple(finite_set(k, sig.index) for k in args.gens)
            or (terminal(sig.index),))
    window = BirkhoffWindow(sig, GaloisScale(n, d, gens), ceiling=_ceiling())
    algebras = [ws.algebras[name] for name in sorted(ws.algebras)]
    window.require_window_algebras(algebras)
    closure = window.variety_generated(algebras)
    print(f"generated={len(closure)}")
    for i, A in enumerate(closure):
        print(f"member {i}: carrier={A.carrier.sizes} tables={A.canonical_key()[2]}")
    theory = window.sat_lower_g(algebras)
    ok, lines = window.check_galois_laws(theory, algebras)
    for line in lines:
        print(line)
    return _finish(OK if ok else VIOLATION)


class _Parser(argparse.ArgumentParser):
    """Bad arguments are input errors (exit 3), like bad input files."""

    def error(self, message):
        raise ParseError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process on first use."""
    top = _Parser(
        prog="varietal",
        description="finite presheaf algebra workbench")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="check an algebra against a presentation")
    p.add_argument("files", nargs="+")
    p.add_argument("--presentation")
    p.add_argument("--algebra")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("models", help="enumerate finite models")
    p.add_argument("files", nargs="+")
    p.add_argument("--presentation")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--iso", action="store_true")
    p.add_argument("--list", action="store_true")
    p.set_defaults(fn=cmd_models)

    p = sub.add_parser("free", help="depth-bounded free algebra")
    p.add_argument("files", nargs="+")
    p.add_argument("--presentation")
    p.add_argument("--gens", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--table", action="store_true")
    p.add_argument("--audit", action="store_true")
    p.set_defaults(fn=cmd_free)

    p = sub.add_parser("sum", help="sum of two presentations")
    p.add_argument("files", nargs="+")
    p.add_argument("--names", nargs=2, default=())
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_sum)

    p = sub.add_parser("tensor", help="tensor of two presentations")
    p.add_argument("files", nargs="+")
    p.add_argument("--names", nargs=2, default=())
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_tensor)

    p = sub.add_parser("clone", help="relative monad operations")
    p.add_argument("files", nargs="+")
    p.add_argument("--check", action="store_true")
    p.add_argument("--standardize", action="store_true")
    p.add_argument("--of", action="store_true")
    p.add_argument("--name")
    p.add_argument("--objs", type=int_list, default="")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_clone)

    p = sub.add_parser("pretheory", help="pretheory operations")
    p.add_argument("files", nargs="+")
    p.add_argument("--check", action="store_true")
    p.add_argument("--compile", action="store_true")
    p.add_argument("--kleisli", action="store_true")
    p.add_argument("--name")
    p.add_argument("--objs", type=int_list, default="")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_pretheory)

    p = sub.add_parser("birkhoff", help="variety generation and Galois laws")
    p.add_argument("files", nargs="+")
    p.add_argument("--signature")
    p.add_argument("--scale", type=int_pair, required=True, help="n,d")
    p.add_argument("--gens", type=int_list, default="")
    p.set_defaults(fn=cmd_birkhoff)
    return top


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except ResourceCeiling as exc:
        print(f"error: {exc}")
        return _finish(RESOURCE)
    except BrokenPipeError:
        # nothing more can reach the reader; send the interpreter's final
        # flush of what is still buffered to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE
    except (ParseError, StructureError, OSError, ValueError) as exc:
        print(f"error: {exc}")
        return _finish(INPUT_ERROR)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
