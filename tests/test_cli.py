import copy
import dataclasses
import fnmatch
import importlib.util
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc

import pytest

from varietal import fileformat, sexpr
from varietal.base import StructureError
from varietal.birkhoff import BirkhoffWindow
from varietal.cli import build_parser, main

DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "varietal" / "data"

BUNDLED_CHECKS = [
    ("semilattice.var", "chain2.alg"),
    ("monoid.var", "zmod3.alg"),
    ("globalstate.var", "state1.alg"),
    ("boolmod.var", "boolself.alg"),
    ("z2mod.var", "z2self.alg"),
    ("internalcat.var", "cat_loop.alg"),
    ("readbits.var", "reader2.alg"),
    ("restriction.var", "nufirst.alg"),
]


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "varietal.cli", *args],
        capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("var,alg", BUNDLED_CHECKS)
def test_bundled_examples_check(var, alg, capsys):
    code = main(["check", str(DATA / var), str(DATA / alg)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "status=ok" in out


def test_regen_examples_reproduces_bundled_data(tmp_path, monkeypatch, capsys):
    script = DATA.parents[2] / "scripts" / "regen_examples.py"
    spec = importlib.util.spec_from_file_location("regen_examples", script)
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    monkeypatch.setattr(regen, "DATA", tmp_path)
    regen.main()
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == sorted(path.name for path in DATA.iterdir())
    for name in written:
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name


@pytest.mark.parametrize("name", [
    "semilattice.var", "monoid.var", "globalstate.var", "boolmod.var",
    "z2mod.var", "internalcat.var", "readbits.var", "restriction.var",
    "state_clone.rm", "z2mat.rm", "z2aff.rm", "kleisli_semilattice.pt",
    "semilattice_gen.algs",
])
def test_bundled_files_parse(name):
    fileformat.parse_file(str(DATA / name))


def test_package_data_covers_bundled_files():
    tomllib = pytest.importorskip("tomllib")
    pyproject = DATA.parents[2] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        globs = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["varietal"]
    for path in DATA.iterdir():
        rel = f"data/{path.name}"
        assert any(fnmatch.fnmatchcase(rel, g) for g in globs), rel


def test_round_trip_parse_print_parse():
    ws = fileformat.parse_file(str(DATA / "globalstate.var"))
    P = ws.presentations["globalstate"]
    text = fileformat.render(fileformat.presentation_nodes(P))
    again = fileformat.parse_text(text, "roundtrip")
    P2 = again.presentations["globalstate"]
    assert len(P2.equations) == len(P.equations)
    text2 = fileformat.render(fileformat.presentation_nodes(P2))
    assert text == text2


def test_free_subcommand_semilattice(capsys):
    code = main(["free", str(DATA / "semilattice.var"),
                 "--gens", "3", "--depth", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "classes=7 saturated=true" in out


def test_free_subcommand_unsaturated_exit_code(capsys):
    code = main(["free", str(DATA / "monoid.var"),
                 "--gens", "1", "--depth", "2"])
    out = capsys.readouterr().out
    assert code == 2
    assert "saturated=false" in out
    assert "status=unknown" in out


def test_check_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    # the 2-element table with join = first projection is not commutative
    bad.write_text(
        "(object carrier I (elems (* 2)))\n"
        "(algebra notsl semilattice.sig carrier (op join (0) (0) (1) (1)))\n")
    code = main(["check", str(DATA / "semilattice.var"), str(bad)])
    out = capsys.readouterr().out
    assert code == 1
    assert "status=violation" in out


def test_parse_error_exit_code(tmp_path, capsys):
    broken = tmp_path / "broken.var"
    broken.write_text("(equation e unknown-sig :arity a :param b)\n")
    code = main(["check", str(broken), str(broken)])
    out = capsys.readouterr().out
    assert code == 3
    assert "status=input-error" in out
    assert "unknown signature" in out


IDEM_LHS = "(app join ((* 0 (var * 0)) (* 1 (var * 0))) (* 0))"


@pytest.mark.parametrize("lhs", [
    "(app join ((* 0 (var *)) (* 1 (var * 0))) (* 0))",
    "(app join ((* 0 (var * 0)) (* 1 (var * 0))))",
    "(app join ((* 0 (var * 0)) (* 1 (var * 0))) (*))",
    "(app join ((q 0 (var * 0)) (* 1 (var * 0))) (* 0))",
    "(app join ((* a (var * 0)) (* 1 (var * 0))) (* 0))",
    "(app join ((* 0 (var * 0)) (* 1 (var * 0))) (* x))",
    "(app join ((* 0 (var q 0)) (* 1 (var * 0))) (* 0))",
], ids=["var-missing-element", "app-missing-parameter", "short-parameter-tail",
        "unknown-binding-sort", "non-integer-binding-element",
        "non-integer-parameter-element", "unknown-variable-sort"])
def test_malformed_term_is_input_error(lhs, tmp_path, capsys):
    text = (DATA / "semilattice.var").read_text()
    assert IDEM_LHS in text
    broken = tmp_path / "broken.var"
    broken.write_text(text.replace(IDEM_LHS, lhs, 1))
    code = main(["check", str(broken), str(DATA / "chain2.alg")])
    out = capsys.readouterr().out
    assert code == 3, out
    assert out.splitlines()[-1] == "status=input-error"
    assert "in equation 'idem'" in out


IDEM_PAIR = f"(pair (* 0) {IDEM_LHS} (var * 0))"


@pytest.mark.parametrize("pair", [
    f"(pair (q 0) {IDEM_LHS} (var * 0))",
    f"(pair (* 0) {IDEM_LHS})",
    f"(pair (*) {IDEM_LHS} (var * 0))",
], ids=["unknown-parameter-sort", "pair-missing-term",
        "short-parameter-element"])
def test_malformed_pair_is_input_error(pair, tmp_path, capsys):
    text = (DATA / "semilattice.var").read_text()
    assert IDEM_PAIR in text
    broken = tmp_path / "broken.var"
    broken.write_text(text.replace(IDEM_PAIR, pair, 1))
    code = main(["check", str(broken), str(DATA / "chain2.alg")])
    out = capsys.readouterr().out
    assert code == 3, out
    assert out.splitlines()[-1] == "status=input-error"
    assert "in equation 'idem'" in out
    assert "broken.var:6:" in out


IDEMPOTENT_INDEX = ("(index J (sorts *) (arrows (id * *) (e * *)) "
                    "(identities (* id)) "
                    "(compose (id id id) (id e e) (e id e) (e e e)))")


@pytest.mark.parametrize("decl,column", [
    ("(equation e)", 1),
    ("(object o)", 1),
    ("(presentation p)", 1),
    ("(signature s)", 1),
    ("(signature s I (op))", 16),
    ("(object o I (elems (* 1)) (map))", 27),
    ("(object o I (elems (* x)))", 23),
    ("(object o I (elems (* 1)) (map id x))", 35),
    ("(signature s I (op f :arity ob0 :param))", 17),
    ("(index J (sorts *) (arrows (id *)) (identities (* id)) "
     "(compose (id id id)))", 28),
    ("(index J (sorts *) (arrows (id * *)) (identities (* id)) "
     "(compose (id id)))", 67),
    ("(presentation p semilattice.sig ())", 33),
    ("(object o I (elems (* 2) (q 5)) (map zz 1 2))", 27),
    ("(object o I (elems (* 1) (* 2)))", 27),
    ("(object o I (elems (* 1)) (map zz 0))", 32),
    ("(object o I (elems (* 1)) (map id 0))", 32),
    (f"{IDEMPOTENT_INDEX} (object o J (elems (* 1)) (map e 0) (map e 0))",
     len(IDEMPOTENT_INDEX) + 43),
    ("(object o2 I (elems (* 1)) (elems (* 5)))", 28),
    ("(index J (sorts *) (sorts *) (arrows (id * *)) (identities (* id)) "
     "(compose (id id id)))", 20),
    ("(index J (sorts *) (arrows (id * *)) (arrows (id * *)) "
     "(identities (* id)) (compose (id id id)))", 38),
    ("(index J (sorts *) (arrows (id * *)) (identities (* id)) "
     "(identities (* id)) (compose (id id id)))", 58),
    ("(index J (sorts *) (arrows (id * *)) (identities (* id)) "
     "(compose (id id id)) (compose (id id id)))", 79),
], ids=["short-equation", "short-object", "short-presentation",
        "short-signature", "empty-op", "empty-map", "non-integer-elems",
        "non-integer-map-value", "keyword-without-value", "short-arrow",
        "short-index-composite", "empty-equations-list", "unknown-elems-sort",
        "repeated-elems-sort", "map-for-unknown-morphism",
        "map-for-identity", "repeated-map", "repeated-elems",
        "repeated-sorts", "repeated-arrows", "repeated-identities",
        "repeated-compose"])
def test_malformed_declaration_is_input_error(decl, column, tmp_path, capsys):
    text = (DATA / "semilattice.var").read_text()
    line = text.count("\n") + 1
    broken = tmp_path / "broken.var"
    broken.write_text(text + decl + "\n")
    code = main(["check", str(broken), str(DATA / "chain2.alg")])
    out = capsys.readouterr().out
    assert code == 3, out
    assert out.splitlines()[-1] == "status=input-error"
    assert f"broken.var:{line}:{column}:" in out


RELMONAD_CHECK = (["clone", "--check"], "z2aff.rm")
PRETHEORY_CHECK = (["pretheory", "--check"], "kleisli_semilattice.pt")
ALGEBRA_CHECK = (["check", str(DATA / "semilattice.var")], "chain2.alg")


# each case: the command and bundled file, the text replaced, its
# replacement, and the text the error's line and column must point at
@pytest.mark.parametrize("command,old,new,marker", [
    (RELMONAD_CHECK, "(objects ob0 ob1)", "(objects ob0 ob7)", "ob7"),
    (RELMONAD_CHECK, "(carriers ob0 ob1)", "(carriers ob7 ob1)", "ob7"),
    (RELMONAD_CHECK, "(e 1 (* 1 0))", "(e 2 (* 1 0))", "2 (* 1 0)"),
    (RELMONAD_CHECK, "(e 1 (* 1 0))", "(e x (* 1 0))", "x (* 1 0)"),
    (RELMONAD_CHECK, "(e 1 (* 1 0))", "(e 1 (* 1 q))", "q))"),
    (RELMONAD_CHECK, "(m 1 0 (0 (* 0 0)))", "(m 1 5 (0 (* 0 0)))", "5 (0"),
    (RELMONAD_CHECK, "(m 1 0 (0 (* 0 0)))", "(m 1)", "(m 1)"),
    (RELMONAD_CHECK, " (e 1 (* 1 0))", "", "relmonad z2aff"),
    (PRETHEORY_CHECK, "(objects ob0 ob1)", "(objects ob0 ob9)", "ob9"),
    (PRETHEORY_CHECK, "(identities 0 1)", "(identities 0 i)", "i)"),
    (PRETHEORY_CHECK, "(homs 0 1 k0)", "(homs 0)", "(homs 0)"),
    (PRETHEORY_CHECK, "(compose 0 0 1 (0 0 0))", "(compose 0 0)",
     "(compose 0 0)"),
    (PRETHEORY_CHECK, "(compose 0 0 1 (0 0 0))", "(compose 0 0 1 (0 0))",
     "(0 0))"),
    (PRETHEORY_CHECK, "(tau 0 1 0)", "(tau 0 1 z)", "z)"),
    (ALGEBRA_CHECK, "(op join (0) (1) (1) (1))", "(op join (0) (1) (y) (1))",
     "y)"),
    (ALGEBRA_CHECK, "(op join (0) (1) (1) (1))", "(op meet (0) (1) (1) (1))",
     "meet"),
    (ALGEBRA_CHECK, "(op join (0) (1) (1) (1))",
     "(op join (0) (1) (1) (1)) (op join (0) (0) (0) (1))",
     "join (0) (0) (0) (1))"),
    (RELMONAD_CHECK, "(objects ob0 ob1)", "(objects ob0 ob1) (objects ob1)",
     "(objects ob1)"),
    (RELMONAD_CHECK, "(carriers ob0 ob1)", "(carriers ob0 ob1) (carriers ob1)",
     "(carriers ob1)"),
    (PRETHEORY_CHECK, "(objects ob0 ob1)", "(objects ob0 ob1) (objects ob0)",
     "(objects ob0)"),
    (PRETHEORY_CHECK, "(identities 0 1)", "(identities 0 1) (identities 1)",
     "(identities 1)"),
    (PRETHEORY_CHECK, "(1 0 1) (2 0 2))", "(1 0 1) (2 0 2) (1 0 2))",
     "(1 0 2))"),
    (PRETHEORY_CHECK, "(0 1 0) (0 2 0))", "(0 7 0) (0 2 0))", "7 0) (0 2 0))"),
    (PRETHEORY_CHECK, "(homs 0 1 k0)", "(homs 0 1 k0) (homs 0 1 q0)",
     "(homs 0 1 q0)"),
    (PRETHEORY_CHECK, "(compose 0 0 0 (0 0 0))",
     "(compose 0 0 0 (0 0 0)) (compose 0 0 0 (0 0 9))",
     "(compose 0 0 0 (0 0 9))"),
    (PRETHEORY_CHECK, "(tau 0 1 0)", "(tau 0 1 0) (tau 0 1 9)", "(tau 0 1 9)"),
    (PRETHEORY_CHECK, "(compose 0 0 0 (0 0 0))", "(compose 5 0 0 (0 0 0))",
     "5 0 0"),
    (RELMONAD_CHECK, "(e 1 (* 1 0))", "(e 1 (* 1 0)) (e 1 (* 0 1))",
     "(e 1 (* 0 1))"),
    (RELMONAD_CHECK, "(m 1 0 (0 (* 0 0)))",
     "(m 1 0 (0 (* 0 0))) (m 1 0 (0 (* 1 1)))", "(m 1 0 (0 (* 1 1)))"),
], ids=["unknown-object", "unknown-carrier", "unit-index-out-of-range",
        "non-integer-unit-index", "non-integer-unit-value",
        "m-index-out-of-range", "short-m-entry", "missing-unit-entry",
        "pretheory-unknown-object", "non-integer-identity", "short-homs",
        "short-compose", "short-composite", "non-integer-tau",
        "non-integer-table-value", "unknown-op", "repeated-op",
        "repeated-relmonad-objects", "repeated-carriers",
        "repeated-pretheory-objects", "repeated-pretheory-identities",
        "repeated-composite-pair", "composite-pair-out-of-range",
        "repeated-homs", "repeated-compose", "repeated-tau",
        "compose-object-index-out-of-range", "repeated-unit-entry",
        "repeated-m-entry"])
def test_malformed_structure_file_is_input_error(command, old, new, marker,
                                                 tmp_path, capsys):
    args, name = command
    text = (DATA / name).read_text()
    assert old in text
    text = text.replace(old, new, 1)
    assert text.count(marker) == 1
    before = text[:text.index(marker)]
    line = before.count("\n") + 1
    column = len(before) - before.rfind("\n")
    broken = tmp_path / f"broken{pathlib.Path(name).suffix}"
    broken.write_text(text)
    code = main([*args, str(broken)])
    out = capsys.readouterr().out
    assert code == 3, out
    assert out.splitlines()[-1] == "status=input-error"
    assert f"{broken.name}:{line}:{column}:" in out


OTHER_INDEX = ("(index J (sorts y) (arrows (id y y)) (identities (y id)) "
               "(compose (id id id)))")
MODELS = (["models", "--size", "1"], "semilattice.var")


# each case: the command and bundled file, the text replaced, its
# replacement, and the error message after the broken file's name
@pytest.mark.parametrize("command,old,new,error", [
    (RELMONAD_CHECK, "(e 0 (* 0))", "(e 0 (* 7))",
     "4: invalid relmonad 'z2aff': morphism: entry 0 at * is out of range"),
    (MODELS, "(object ob1 I (elems (* 1)))",
     f"{OTHER_INDEX} (object ob1 J (elems (y 1)))",
     "5: invalid signature 'semilattice.sig': symbol join: arity and "
     "parameter over different indices"),
    (ALGEBRA_CHECK, "(object carrier I (elems (* 2)))",
     f"{OTHER_INDEX} (object carrier J (elems (y 2)))",
     "2: invalid algebra 'chain2': hom_set requires a common index category"),
    (MODELS, "(sorts *)", "(sorts * x)",
     "1: invalid index 'I': no identity for sort 'x'"),
], ids=["unit-out-of-range", "symbol-over-two-indices",
        "carrier-over-another-index", "sort-without-identity"])
def test_structure_error_names_its_declaration(command, old, new, error,
                                               tmp_path, capsys):
    args, name = command
    text = (DATA / name).read_text()
    assert old in text
    broken = tmp_path / f"broken{pathlib.Path(name).suffix}"
    broken.write_text(text.replace(old, new, 1))
    code = main([*args, str(broken)])
    out = capsys.readouterr().out
    assert out == f"error: {broken}:{error}\nstatus=input-error\n"
    assert code == 3


def test_invalid_duplicate_is_reported_invalid(tmp_path, capsys):
    # a declaration is built before its name is checked against the table
    text = (DATA / "semilattice.var").read_text()
    line = text.count("\n") + 1
    for decl, error in [
            ("(index I (sorts * x) (arrows (id * *)) (identities (* id)) "
             "(compose (id id id)))",
             f"{line}: invalid index 'I': no identity for sort 'x'"),
            ("(object ob1 I (elems (* 1)))", f"{line}: duplicate object 'ob1'")]:
        broken = tmp_path / "broken.var"
        broken.write_text(text + decl + "\n")
        code = main(["models", str(broken), "--size", "1"])
        out = capsys.readouterr().out
        assert out == f"error: {broken}:{error}\nstatus=input-error\n"
        assert code == 3


# each case: the bundled relmonad's text replaced, its replacement, and the
# group the error's line and column must point at, with its message
@pytest.mark.parametrize("old,new,marker,error", [
    ("(e 0 (* 0))", "(e 0 (zz 0))", "(zz 0)", "expected component labelled *"),
    ("(m 0 0 (0 (* 0)))", "(m 0 0 (7 (* 0)))", "(7 (* 0))",
     "expected m value labelled 0"),
    ("(m 0 1 (0 (* 0)) (1 (* 1)))", "(m 0 1 (1 (* 1)) (0 (* 0)))",
     "(1 (* 1)) (0", "expected m value labelled 0"),
    ("(m 1 1 (0 (* 0 0))", "(m 1 1 (0 (q 0 0))", "(q 0 0)",
     "expected component labelled *"),
], ids=["unit-sort-label", "m-value-label", "swapped-m-values",
        "m-value-sort-label"])
def test_relmonad_group_labels_are_checked(old, new, marker, error, tmp_path,
                                           capsys):
    text = (DATA / "z2aff.rm").read_text()
    assert old in text
    text = text.replace(old, new, 1)
    assert text.count(marker) == 1
    before = text[:text.index(marker)]
    line = before.count("\n") + 1
    column = len(before) - before.rfind("\n")
    broken = tmp_path / "broken.rm"
    broken.write_text(text)
    code = main(["clone", "--check", str(broken)])
    out = capsys.readouterr().out
    assert out == (f"error: {broken}:{line}:{column}: {error}\n"
                   "status=input-error\n")
    assert code == 3


@pytest.mark.parametrize("args", [
    ["clone", "state_clone.rm", "--standardize"],
    ["pretheory", "kleisli_semilattice.pt", "--compile"],
], ids=["standardize", "compile"])
def test_writing_mode_without_output_is_an_input_error(args, tmp_path,
                                                       monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    command, name, mode = args
    code = main([command, str(DATA / name), mode])
    out = capsys.readouterr().out
    assert out == f"error: {mode} needs -o FILE\nstatus=input-error\n"
    assert code == 3
    assert list(tmp_path.iterdir()) == []


def test_algebra_file_lacking_an_op_table_is_input_error(tmp_path, capsys):
    broken = tmp_path / "broken.alg"
    broken.write_text((DATA / "chain2.alg").read_text().replace(
        " (op join (0) (1) (1) (1))", "", 1))
    code = main(["check", str(DATA / "semilattice.var"), str(broken)])
    error, status = capsys.readouterr().out.splitlines()
    assert code == 3, error
    assert "invalid algebra" in error, error
    assert status == "status=input-error"


def mutants(seed, count, most=1):
    """``count`` mutants of the bundled files, taken in turn, each made by 1
    to ``most`` one-character edits: a substitution, deletion or insertion
    of a character the files use."""
    texts = {path.name: path.read_text() for path in sorted(DATA.iterdir())}
    alphabet = sorted(set("".join(texts.values())))
    names = sorted(texts)
    rng = random.Random(seed)
    for k in range(count):
        name = names[k % len(names)]
        text = texts[name]
        edits = []
        # one edit draws no count, so a seed gives the single-edit mutants
        # it always gave
        for _ in range(rng.randint(1, most) if most > 1 else 1):
            kind = rng.randrange(3)  # substitute, delete, insert
            pos = rng.randrange(len(text) + (kind == 2))
            ch = "" if kind == 1 else rng.choice(alphabet)
            edits.append((kind, pos, ch))
            text = text[:pos] + ch + text[pos + (kind != 2):]
        yield name, edits, text


def test_mutated_bundled_files_raise_only_parse_or_structure_errors():
    # an algebra file is parsed into a workspace holding its presentation
    needs = {alg: var for var, alg in BUNDLED_CHECKS}
    bases = {var: fileformat.parse_file(str(DATA / var))
             for var in needs.values()}
    escapes = []
    for name, edits, text in [*mutants(0, 2000), *mutants(1, 2000, most=3)]:
        base = bases.get(needs.get(name), fileformat.Workspace())
        ws = fileformat.Workspace(**{
            f.name: copy.copy(getattr(base, f.name))
            for f in dataclasses.fields(base)})
        try:
            fileformat.parse_text(text, name, ws)
        except (fileformat.ParseError, StructureError):
            pass
        except Exception as exc:
            escapes.append((name, edits, repr(exc)))
    assert escapes == []


def reference_parse(text):
    """The reader as one loop over characters, kept here as the oracle for
    ``sexpr.parse``: the same nodes, or the same ``SexprError``."""
    forms, stack = [], []
    line, col, i, n = 1, 0, 0, len(text)
    while i < n:
        ch = text[i]
        col += 1
        if ch == "\n":
            line, col, i = line + 1, 0, i + 1
        elif ch in " \t\r":
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch == "(":
            node = sexpr.Node(items=[], line=line, column=col)
            if stack:
                stack[-1].items.append(node)
            stack.append(node)
            i += 1
        elif ch == ")":
            if not stack:
                raise sexpr.SexprError("unbalanced ')'", line, col)
            node = stack.pop()
            if not stack:
                forms.append(node)
            i += 1
        else:
            start, start_col = i, col
            while i < n and text[i] not in " \t\r\n();":
                i, col = i + 1, col + 1
            col -= 1
            token = text[start:i]
            try:
                value = int(token)
            except ValueError:
                value = token
            (stack[-1].items if stack else forms).append(
                sexpr.Node(value=value, line=line, column=start_col))
    if stack:
        raise sexpr.SexprError("unterminated '('", stack[-1].line,
                               stack[-1].column)
    return forms


def _read(parse, text):
    try:
        return parse(text)
    except sexpr.SexprError as exc:
        return str(exc), exc.line, exc.column


def _same(a, b) -> bool:
    """Equal node lists: the same values, items, lines and columns."""
    if isinstance(a, tuple) or isinstance(b, tuple):  # an error
        return a == b
    return len(a) == len(b) and all(
        (x.value, x.line, x.column) == (y.value, y.line, y.column)
        and (x.items is None) == (y.items is None)
        and (x.items is None or _same(x.items, y.items))
        for x, y in zip(a, b))


def test_sexpr_tokenizer_matches_the_character_loop():
    # \f and \v are atom characters, int() strips them, and only \n ends a
    # line; every error keeps its line and column
    odd = ["a\fb (c\vd) \f5 ;x\n)", "(", ")", "(a (b", "١٢ +3 1_0 -x",
           "a\r\n(b)\n\n  c ; c\n", "", "; only", " (a\x85b)", "((a)\n)\n)",
           "x\n\t  (y ;)\n z))"]
    texts = [path.read_text() for path in sorted(DATA.iterdir())]
    texts += odd + [text for _, _, text in
                    [*mutants(0, 2000), *mutants(1, 2000, most=3)]]
    mismatched = [text for text in texts if not _same(
        _read(sexpr.parse, text), _read(reference_parse, text))]
    assert mismatched == []
    assert [n.value for n in sexpr.parse("١٢ \f5 a\fb")] == [12, 5, "a\fb"]


def test_birkhoff_outside_the_scale_fails_before_generating(monkeypatch,
                                                           capsys):
    def refuse(self, algebras):
        raise AssertionError("variety_generated ran")

    monkeypatch.setattr(BirkhoffWindow, "variety_generated", refuse)
    code = main(["birkhoff", str(DATA / "semilattice_gen.algs"),
                 "--scale", "1,2", "--gens", "1,2"])
    out = capsys.readouterr().out
    assert code == 3, out
    assert out == "error: algebra outside the window scale\nstatus=input-error\n"


def test_birkhoff_algebra_over_another_signature_is_an_input_error(tmp_path,
                                                                   capsys):
    # the other signature's algebra has a semilattice table, so only its
    # signature keeps it out of the window
    bundle = tmp_path / "two-signatures.algs"
    bundle.write_text((DATA / "semilattice_gen.algs").read_text()
                      + "(signature other I (op join :arity ob0 :param ob1))\n"
                      + "(algebra chain2o other carrier (op join (0) (1) (1) (1)))\n")
    code = main(["birkhoff", str(bundle), "--scale", "2,2", "--gens", "1",
                 "--signature", "semilattice.sig"])
    out = capsys.readouterr().out
    assert code == 3, out
    assert out == ("error: algebra over signature other, not the window's "
                   "semilattice.sig\nstatus=input-error\n")


def test_semantic_error_names_equation(tmp_path, capsys):
    text = (DATA / "semilattice.var").read_text()
    # corrupt the idem equation: reference a variable outside the arity
    text = text.replace(
        "(equation idem semilattice.sig :arity ob1 :param ob1 "
        "(pair (* 0) (app join ((* 0 (var * 0)) (* 1 (var * 0))) (* 0)) (var * 0)))",
        "(equation idem semilattice.sig :arity ob1 :param ob1 "
        "(pair (* 0) (app join ((* 0 (var * 0)) (* 1 (var * 5))) (* 0)) (var * 0)))")
    broken = tmp_path / "broken.var"
    broken.write_text(text)
    code = main(["models", str(broken), "--size", "1"])
    out = capsys.readouterr().out
    assert code == 3
    assert "idem" in out


def test_resource_ceiling_exit_code(capsys):
    code = main(["models", str(DATA / "semilattice.var"), "--size", "3"])
    assert code == 0
    capsys.readouterr()
    os.environ["VARIETAL_CEILING"] = "5"
    try:
        code = main(["models", str(DATA / "semilattice.var"), "--size", "3"])
        out = capsys.readouterr().out
        assert code == 4
        assert "status=resource" in out
    finally:
        del os.environ["VARIETAL_CEILING"]


@pytest.mark.parametrize("value", ["-5", "abc", "2.5"])
def test_bad_ceiling_is_an_input_error_that_names_the_variable(
        value, monkeypatch, capsys):
    monkeypatch.setenv("VARIETAL_CEILING", value)
    code = main(["models", str(DATA / "semilattice.var"), "--size", "1"])
    out = capsys.readouterr().out
    assert code == 3, out
    assert out.splitlines() == [
        f"error: VARIETAL_CEILING must be a nonnegative integer, not {value!r}",
        "status=input-error"]


def test_zero_ceiling_is_valid(monkeypatch, capsys):
    # the empty carrier has no cells, so its one model takes no assignment
    monkeypatch.setenv("VARIETAL_CEILING", "0")
    assert main(["models", str(DATA / "semilattice.var"), "--size", "0"]) == 0
    assert capsys.readouterr().out.splitlines() == ["models=1", "status=ok"]
    assert main(["models", str(DATA / "semilattice.var"), "--size", "1"]) == 4
    assert "exceeded the ceiling 0" in capsys.readouterr().out


@pytest.mark.parametrize("args", [
    ["free", "semilattice.var", "--gens", "2", "--depth", "3"],
    ["clone", "semilattice.var", "--of", "--objs", "1,2"],
    ["pretheory", "semilattice.var", "--kleisli", "--objs", "1,2"],
])
def test_cell_ceiling_does_not_bound_free_algebra_nodes(args, monkeypatch,
                                                        capsys):
    # VARIETAL_CEILING counts cell assignments of the model search only
    args = [args[0], str(DATA / args[1]), *args[2:]]
    monkeypatch.delenv("VARIETAL_CEILING", raising=False)
    code = main(args)
    out = capsys.readouterr().out
    monkeypatch.setenv("VARIETAL_CEILING", "5")
    assert (main(args), capsys.readouterr().out) == (code, out)
    assert code == 0, out


def test_birkhoff_term_universe_past_its_bound_is_a_resource_ceiling(
        monkeypatch, capsys):
    from varietal import syntax
    monkeypatch.setattr(syntax, "MAX_TERMS", 3)
    code = main(["birkhoff", str(DATA / "semilattice_gen.algs"),
                 "--scale", "2,2", "--gens", "1"])
    out = capsys.readouterr().out
    assert code == 4, out
    assert out.splitlines()[-1] == "status=resource"
    assert "over the bound 3" in out


def test_models_subcommand_iso(capsys):
    code = main(["models", str(DATA / "semilattice.var"), "--size", "2", "--iso"])
    out = capsys.readouterr().out
    assert code == 0
    # 2-element semilattices: max and min tables are isomorphic
    assert "models=3" in out


def test_models_listings_match_golden_files(capsys):
    # tests/golden/models-<theory>-<size>[-iso].txt holds the stdout of
    # `varietal models <theory>.var --size <size> [--iso] --list`
    golden = sorted((DATA.parents[2] / "tests" / "golden").glob("models-*.txt"))
    assert len(golden) == 10
    for path in golden:
        theory, size, *iso = path.stem.split("-")[1:]
        code = main(["models", str(DATA / f"{theory}.var"), "--size", size,
                     "--list", *(f"--{flag}" for flag in iso)])
        assert code == 0, path.name
        assert capsys.readouterr().out == path.read_text(), path.name


def test_kleisli_outputs_match_golden_files(tmp_path, capsys):
    # tests/golden/kleisli-<theory>-<objs>.txt holds the stdout of
    # `varietal pretheory <theory>.var --kleisli --objs <objs>`, with the
    # commas of <objs> written as "_", and the .pt file beside it the file
    # that the same command writes with -o
    golden = sorted((DATA.parents[2] / "tests" / "golden").glob("kleisli-*.txt"))
    assert len(golden) == 2
    for path in golden:
        theory, objs = path.stem.split("-")[1:]
        args = ["pretheory", str(DATA / f"{theory}.var"), "--kleisli",
                "--objs", objs.replace("_", ",")]
        assert main(args) == 0, path.name
        assert capsys.readouterr().out == path.read_text(), path.name
        written = tmp_path / f"{path.stem}.pt"
        assert main([*args, "-o", str(written)]) == 0, path.name
        capsys.readouterr()
        assert written.read_bytes() == path.with_suffix(".pt").read_bytes(), path.name


def test_clone_check_lists_violations_as_golden_file(tmp_path, capsys):
    # tests/golden/clone-check-state_clone-mutant.txt holds the stdout of
    # `varietal clone <file> --check` on state_clone.rm with one entry of a
    # substitution value in m 0 0 changed: one right-unit and 76
    # associativity violations, in the checker's order
    text = (DATA / "state_clone.rm").read_text()
    assert text.count("(1 (* 3 2 1 0))") == 1
    mutant = tmp_path / "mutant.rm"
    mutant.write_text(text.replace("(1 (* 3 2 1 0))", "(1 (* 3 2 0 0))"))
    assert main(["clone", str(mutant), "--check"]) == 1
    golden = DATA.parents[2] / "tests" / "golden" / "clone-check-state_clone-mutant.txt"
    assert capsys.readouterr().out == golden.read_text()


def test_clone_check_lists_associativity_violations_as_golden_file(tmp_path, capsys):
    # tests/golden/clone-check-state_clone-assoc-mutant.txt holds the stdout
    # of `varietal clone <file> --check` on state_clone.rm with the first
    # substitution value in m 0 0 moved off the unit image: both unit laws
    # hold, so the check reaches the associativity proof, whose direct check
    # fails, and the full loop lists 112 associativity violations
    text = (DATA / "state_clone.rm").read_text()
    assert text.count("(m 0 0 (0 (* 0 0 0 0))") == 1
    mutant = tmp_path / "mutant.rm"
    mutant.write_text(text.replace("(m 0 0 (0 (* 0 0 0 0))",
                                   "(m 0 0 (0 (* 1 0 0 0))"))
    assert main(["clone", str(mutant), "--check"]) == 1
    golden = (DATA.parents[2] / "tests" / "golden"
              / "clone-check-state_clone-assoc-mutant.txt")
    assert capsys.readouterr().out == golden.read_text()


def test_free_outputs_match_golden_files(capsys):
    # tests/golden/free-<theory>-<k>-<d>[-<flag>...].txt holds the stdout of
    # `varietal free <theory>.var --gens <k> --depth <d>` with the listed
    # flags, or with `--table --audit` where none are listed; monoid and
    # internalcat do not saturate at these depths (exit 2)
    golden = sorted((DATA.parents[2] / "tests" / "golden").glob("free-*.txt"))
    assert len(golden) == 7
    for path in golden:
        theory, k, d, *flags = path.stem.split("-")[1:]
        code = main(["free", str(DATA / f"{theory}.var"), "--gens", k,
                     "--depth", d,
                     *(f"--{flag}" for flag in flags or ("table", "audit"))])
        assert code == (2 if theory in ("monoid", "internalcat") else 0), path.name
        assert capsys.readouterr().out == path.read_text(), path.name


def test_free_monoid_three_generators_depth_three_stays_small(capsys):
    # the free monoid on three generators never saturates at depth 3; only
    # applications over classes of depth at most 2 may be listed, and the
    # saturation check stops at the first missing one
    tracemalloc.start()
    try:
        code = main(["free", str(DATA / "monoid.var"), "--gens", "3",
                     "--depth", "3"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 2
    assert out.splitlines() == ["classes=12757 saturated=false",
                                "status=unknown"]
    assert peak < 200 * 2**20


@pytest.mark.parametrize("args,message", [
    (["free", str(DATA / "semilattice.var"), "--gens", "x", "--depth", "2"],
     "invalid int value"),
    (["birkhoff", str(DATA / "semilattice_gen.algs"), "--scale", "2"],
     "argument --scale: invalid int_pair value: '2'"),
    (["birkhoff", str(DATA / "semilattice_gen.algs"), "--scale", "2,2,1"],
     "argument --scale: invalid int_pair value: '2,2,1'"),
    (["birkhoff", str(DATA / "semilattice_gen.algs"), "--scale", "2,2",
      "--gens", "1,x"], "argument --gens: invalid int_list value: '1,x'"),
    (["clone", str(DATA / "semilattice.var"), "--of", "--objs", "x"],
     "argument --objs: invalid int_list value: 'x'"),
    (["bogus"], "invalid choice"),
    (["models"], "required"),
    (["birkhoff", str(DATA / "semilattice_gen.algs"), "--scale", "2,2",
      "--signature", "nope"], "no signature named 'nope'"),
    (["sum", str(DATA / "semilattice.var"), "--names", "a", "b", "-o",
      "out.var"], "no presentation named 'a'"),
    (["tensor", str(DATA / "semilattice.var"), "--names", "semilattice",
      "b", "-o", "out.var"], "no presentation named 'b'"),
], ids=["bad-int", "short-scale", "long-scale", "bad-gens", "bad-objs",
        "unknown-command", "missing-argument",
        "unknown-birkhoff-signature", "unknown-sum-name",
        "unknown-tensor-name"])
def test_bad_arguments_are_input_errors(args, message, capsys):
    code = main(args)
    captured = capsys.readouterr()
    assert code == 3, captured.out
    lines = captured.out.splitlines()
    assert lines[0].startswith("error: ") and message in lines[0]
    assert lines[-1] == "status=input-error"
    assert captured.err == ""


SEMILATTICE = (DATA / "semilattice.var").read_text()
INDEX_ONLY = SEMILATTICE.splitlines()[0] + "\n"
DECLARATION_FILES = {
    "two-presentations.var": SEMILATTICE
    + "(presentation sl2 semilattice.sig (equations idem comm))\n",
    "two-signatures.var": SEMILATTICE
    + "(signature other.sig I (op join :arity ob0 :param ob1))\n",
    "two-algebras.alg": (DATA / "chain2.alg").read_text()
    + "(algebra chain2b semilattice.sig carrier (op join (0) (0) (0) (1)))\n",
    "index-only.var": INDEX_ONLY,
}


# each case: the command, with its files named as in DECLARATION_FILES
# (or bundled), and the message, which names the flag the command has
@pytest.mark.parametrize("args,message", [
    (["free", "two-presentations.var", "--gens", "1", "--depth", "1"],
     "found ['semilattice', 'sl2']; use --presentation"),
    (["models", "two-presentations.var", "--size", "1"],
     "use --presentation"),
    (["check", "two-presentations.var", "chain2.alg"], "use --presentation"),
    (["check", "semilattice.var", "two-algebras.alg"],
     "found ['chain2', 'chain2b']; use --algebra"),
    (["clone", "--of", "two-presentations.var", "--objs", "1"],
     "use --name"),
    (["sum", "two-presentations.var", "semilattice.var", "-o", "out.var"],
     "use --names"),
    (["birkhoff", "two-signatures.var", "--scale", "1,1"],
     "found ['other.sig', 'semilattice.sig']; use --signature"),
    (["free", "index-only.var", "--gens", "1", "--depth", "1"],
     "no presentation declared"),
    (["birkhoff", "index-only.var", "--scale", "1,1"],
     "no signature declared"),
], ids=["free", "models", "check-presentation", "check-algebra", "clone-of",
        "sum", "birkhoff-several", "free-none", "birkhoff-none"])
def test_unnamed_declaration_error_names_the_commands_flag(
        args, message, tmp_path, capsys):
    for name, text in DECLARATION_FILES.items():
        (tmp_path / name).write_text(text)
    paths = {p.name: str(p) for p in DATA.iterdir()}
    paths.update((name, str(tmp_path / name))
                 for name in (*DECLARATION_FILES, "out.var"))
    code = main([paths.get(a, a) for a in args])
    error, status = capsys.readouterr().out.splitlines()
    assert code == 3, error
    assert error.startswith("error: ") and error.endswith(message), error
    assert status == "status=input-error"


def test_named_flag_picks_among_several(tmp_path, capsys):
    two = tmp_path / "two-presentations.var"
    two.write_text(DECLARATION_FILES["two-presentations.var"])
    code = main(["free", str(two), "--presentation", "sl2", "--gens", "1",
                 "--depth", "1"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[-1] == "status=ok"


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: varietal" in capsys.readouterr().out


def test_shared_parser_gives_each_call_the_bytes_of_a_fresh_process(
        tmp_path, capsys):
    assert build_parser() is build_parser()
    two = tmp_path / "two-presentations.var"
    two.write_text(DECLARATION_FILES["two-presentations.var"])
    semilattice = str(DATA / "semilattice.var")
    out = str(tmp_path / "out.var")
    calls = [
        (["models", semilattice, "--size", "2", "--bogus"], 3),
        (["sum", str(two), "--names", "semilattice", "sl2", "-o", out], 0),
        (["sum", str(two), "--names", "sl2", "semilattice", "-o", out], 0),
        (["models", semilattice, "--size", "2", "--list"], 0),
        (["clone", semilattice, "--of", "--objs", "3,1,2"], 0),
        (["pretheory", str(DATA / "kleisli_semilattice.pt"), "--compile"], 3),
    ]
    calls.append(calls[0])
    for args, code in calls:
        got = main(args), capsys.readouterr().out
        assert got[0] == code, got
        assert got == run_cli(args), args


def test_negative_model_size_is_input_error(capsys):
    code = main(["models", str(DATA / "semilattice.var"), "--size", "-1"])
    out = capsys.readouterr().out
    assert code == 3, out
    assert "models=" not in out
    assert out.splitlines()[-1] == "status=input-error"


@pytest.mark.parametrize("args", [
    ["clone", "--of"],
    ["pretheory", "--kleisli"],
    ["pretheory", "--kleisli", "-o", "k.pt"],
], ids=["clone-of", "kleisli", "kleisli-output"])
def test_empty_objs_is_input_error(args, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main([args[0], str(DATA / "semilattice.var"), *args[1:]])
    out = capsys.readouterr().out
    assert code == 3, out
    assert out.splitlines()[-1] == "status=input-error"
    assert "--objs" in out
    assert list(tmp_path.iterdir()) == []


def test_sum_tensor_subcommands(tmp_path, capsys):
    out_file = tmp_path / "st.var"
    code = main(["sum", str(DATA / "semilattice.var"), str(DATA / "monoid.var"),
                 "-o", str(out_file)])
    assert code == 0
    capsys.readouterr()
    code = main(["models", str(out_file), "--size", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "models=9" in out
    t_file = tmp_path / "mm.var"
    code = main(["tensor", str(DATA / "monoid.var"), str(DATA / "monoid.var"),
                 "-o", str(t_file)])
    assert code == 0
    capsys.readouterr()
    code = main(["models", str(t_file), "--size", "2"])
    out = capsys.readouterr().out
    assert "models=5" in out  # commutative monoids on sizes 0..2


def test_clone_subcommands(tmp_path, capsys):
    assert main(["clone", str(DATA / "state_clone.rm"), "--check"]) == 0
    capsys.readouterr()
    out_file = tmp_path / "std.var"
    assert main(["clone", str(DATA / "state_clone.rm"), "--standardize",
                 "-o", str(out_file)]) == 0
    capsys.readouterr()
    assert main(["check", str(out_file), "--help"] if False else
                ["models", str(out_file), "--size", "1"]) == 0
    capsys.readouterr()
    rm_file = tmp_path / "sl.rm"
    assert main(["clone", str(DATA / "semilattice.var"), "--of",
                 "--objs", "1,2", "--depth", "3", "-o", str(rm_file)]) == 0
    capsys.readouterr()
    assert main(["clone", str(rm_file), "--check"]) == 0
    capsys.readouterr()


def test_clone_of_unsaturated_is_unknown(capsys):
    code = main(["clone", str(DATA / "monoid.var"), "--of",
                 "--objs", "1", "--depth", "2"])
    out = capsys.readouterr().out
    assert code == 2
    assert "status=unknown" in out


def test_pretheory_subcommands(tmp_path, capsys):
    assert main(["pretheory", str(DATA / "kleisli_semilattice.pt"),
                 "--check"]) == 0
    capsys.readouterr()
    out_file = tmp_path / "compiled.var"
    assert main(["pretheory", str(DATA / "kleisli_semilattice.pt"),
                 "--compile", "-o", str(out_file)]) == 0
    capsys.readouterr()
    pt_file = tmp_path / "k.pt"
    assert main(["pretheory", str(DATA / "semilattice.var"), "--kleisli",
                 "--objs", "1,2", "--depth", "3", "-o", str(pt_file)]) == 0
    out = capsys.readouterr().out
    assert "homs" in out
    assert main(["pretheory", str(pt_file), "--check"]) == 0
    capsys.readouterr()


def test_birkhoff_subcommand(capsys):
    code = main(["birkhoff", str(DATA / "semilattice_gen.algs"),
                 "--scale", "2,2", "--gens", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "generated=4" in out
    assert out.count("LAW") == 5
    assert "FAIL" not in out


def test_closed_stdout_pipe_ends_quietly():
    # the reader takes one line and closes the pipe; the listing (about
    # 120 KB) outgrows the pipe's buffer, so the CLI writes into a closed pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "varietal.cli", "models",
         str(DATA / "monoid.var"), "--size", "4", "--list"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
    assert first == b"models=662\n"
    assert err == b""
    assert code == 141


def test_cli_determinism_across_hash_seeds():
    # identical bytes for two runs under different hash randomization
    args = ["free", str(DATA / "semilattice.var"),
            "--gens", "3", "--depth", "3", "--table"]
    outs = []
    for seed in ("0", "1", "2"):
        code, out = run_cli(args, {"PYTHONHASHSEED": seed})
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    args = ["birkhoff", str(DATA / "semilattice_gen.algs"), "--scale", "2,2",
            "--gens", "1"]
    a = run_cli(args, {"PYTHONHASHSEED": "11"})
    b = run_cli(args, {"PYTHONHASHSEED": "1234"})
    assert a == b


def test_regenerated_files_are_byte_identical():
    # the bundled files are the deterministic output of the catalog printers
    from varietal.catalog import (
        max_semilattice_algebra,
        semilattice_presentation,
    )
    SL = semilattice_presentation()
    text = fileformat.render(fileformat.presentation_nodes(SL))
    assert text == (DATA / "semilattice.var").read_text()
    alg = fileformat.render(fileformat.algebra_nodes(
        "chain2", max_semilattice_algebra(SL, 2), presentation=SL))
    assert alg == (DATA / "chain2.alg").read_text()
