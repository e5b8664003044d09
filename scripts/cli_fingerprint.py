#!/usr/bin/env python3
"""Fingerprint the CLI's output on a fixed list of commands.

Each command runs in a fresh interpreter, under ``PYTHONHASHSEED`` 0 and
then 2718, in a temporary directory holding a copy of the bundled data as
``data/``; an ``-o`` file is written there, and later commands may read it.
For each command the script prints one line, ``sha256 exit-code command``.
The hash covers the stdout and the written file of the run under seed 0;
it reads ``seeds-differ`` when the run under 2718 gave other bytes or
another exit code.  Byte identity of two checkouts is then one diff:

    python3 scripts/cli_fingerprint.py > after.txt
    (in the other checkout) python3 scripts/cli_fingerprint.py > before.txt
    diff before.txt after.txt

With ``--in-process`` every command runs in order through ``cli.main`` in
one interpreter under ``PYTHONHASHSEED`` 0, with the temporary directory as
the working directory, and the same lines are printed.  Its diff against
the default mode is empty unless one call leaves state that changes a later
call's bytes or exit code:

    python3 scripts/cli_fingerprint.py --in-process > in-process.txt
    diff after.txt in-process.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "varietal" / "data"
SEEDS = ("0", "2718")

THEORIES = sorted(path.name for path in DATA.glob("*.var"))
CHECKS = [
    ("semilattice.var", "chain2.alg"), ("monoid.var", "zmod3.alg"),
    ("globalstate.var", "state1.alg"), ("boolmod.var", "boolself.alg"),
    ("z2mod.var", "z2self.alg"), ("internalcat.var", "cat_loop.alg"),
    ("readbits.var", "reader2.alg"), ("restriction.var", "nufirst.alg"),
]

COMMANDS = [
    *(f"free data/{t} --gens {k} --depth {d} --table --audit"
      for t in THEORIES for k, d in ((1, 2), (2, 2), (1, 3), (2, 3))),
    "free data/semilattice.var --gens 5 --depth 4 --audit",
    "free data/semilattice.var --gens 5 --depth 4 --table",
    "free data/monoid.var --gens 3 --depth 3",
    *(f"check data/{var} data/{alg}" for var, alg in CHECKS),
    "models data/semilattice.var --size 3 --list",
    "models data/monoid.var --size 4 --list",
    "models data/monoid.var --size 4 --iso",
    "models data/restriction.var --size 3 --list",
    "models data/readbits.var --size 3",
    "models data/internalcat.var --size 2 --list",
    "models data/internalcat.var --size 2 --iso",
    "models data/semilattice.var --size -1",
    "sum data/semilattice.var data/monoid.var -o sum.var",
    "models sum.var --size 2",
    "tensor data/monoid.var data/monoid.var -o tensor.var",
    "models tensor.var --size 2",
    "clone data/z2aff.rm --check",
    "clone data/z2mat.rm --check",
    "clone data/state_clone.rm --check",
    "clone data/state_clone.rm --standardize -o std.var",
    "clone data/state_clone.rm --standardize",
    "models std.var --size 1",
    "clone data/semilattice.var --of --objs 1,2 --depth 3 -o sl.rm",
    "clone sl.rm --check",
    "clone data/monoid.var --of --objs 1 --depth 2",
    "clone data/semilattice.var --of --objs 1,2,3 --depth 3",
    "clone data/semilattice.var --of --objs 3,1,2 --depth 3 -o sl312.rm",
    "clone sl312.rm --check",
    "clone data/globalstate.var --of --objs 1,2 --depth 3 -o gs.rm",
    "clone gs.rm --check",
    "pretheory data/kleisli_semilattice.pt --check",
    "pretheory data/kleisli_semilattice.pt --compile -o compiled.var",
    "pretheory data/kleisli_semilattice.pt --compile",
    "pretheory data/semilattice.var --kleisli --objs 1,2 --depth 3 -o k.pt",
    "pretheory k.pt --check",
    "pretheory data/semilattice.var --kleisli --objs 1,2,3 --depth 3 -o k3.pt",
    "pretheory k3.pt --check",
    "birkhoff data/semilattice_gen.algs --scale 2,2 --gens 1",
    "birkhoff data/semilattice_gen.algs --scale 3,1 --gens 1",
    "birkhoff data/semilattice_gen.algs --scale 2,1 --gens 2",
    "birkhoff data/semilattice_gen.algs --scale 2,1 --gens 1,2",
]


def fingerprint(stdout: bytes, args: list[str], workdir: pathlib.Path) -> str:
    """The hash of one command's stdout and ``-o`` file."""
    digest = hashlib.sha256(stdout)
    if "-o" in args:
        written = workdir / args[args.index("-o") + 1]
        digest.update(b"\0" + (written.read_bytes() if written.exists()
                               else b"(no file)"))
    return digest.hexdigest()


def run(command: str, workdir: pathlib.Path, seed: str) -> tuple[str, int]:
    """One command in a fresh interpreter: its fingerprint and exit code."""
    args = command.split()
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "varietal.cli", *args],
                          cwd=workdir, env=env, capture_output=True)
    return fingerprint(proc.stdout, args, workdir), proc.returncode


def run_in_process(workdir: pathlib.Path) -> list[tuple[str, int]]:
    """Every command in order through ``cli.main`` in this interpreter, in
    ``workdir``: each one's fingerprint and exit code."""
    sys.path.insert(0, str(ROOT / "src"))
    from varietal.cli import main as cli_main
    results = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for command in COMMANDS:
            args = command.split()
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli_main(args)
            results.append((fingerprint(stdout.getvalue().encode(), args,
                                        workdir), code))
    finally:
        os.chdir(cwd)
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--in-process", action="store_true",
                    help="run every command in one interpreter, in order")
    in_process = ap.parse_args(argv).in_process
    if in_process and os.environ.get("PYTHONHASHSEED") != SEEDS[0]:
        # the hash seed is fixed when an interpreter starts
        env = dict(os.environ, PYTHONHASHSEED=SEEDS[0])
        return subprocess.run([sys.executable, __file__, "--in-process"],
                              env=env).returncode
    with tempfile.TemporaryDirectory() as tmp:
        results = []
        for seed in SEEDS[:1] if in_process else SEEDS:
            workdir = pathlib.Path(tmp) / seed
            shutil.copytree(DATA, workdir / "data")
            results.append(run_in_process(workdir) if in_process else
                           [run(command, workdir, seed)
                            for command in COMMANDS])
    for command, first, *others in zip(COMMANDS, *results):
        digest, code = first
        if any(other != first for other in others):
            digest = "seeds-differ"
        print(f"{digest} {code} {command}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
