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
"""

from __future__ import annotations

import hashlib
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


def run(command: str, workdir: pathlib.Path, seed: str) -> tuple[str, int]:
    """The hash of one command's stdout and ``-o`` file, and its exit code."""
    args = command.split()
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "varietal.cli", *args],
                          cwd=workdir, env=env, capture_output=True)
    digest = hashlib.sha256(proc.stdout)
    if "-o" in args:
        written = workdir / args[args.index("-o") + 1]
        digest.update(b"\0" + (written.read_bytes() if written.exists()
                               else b"(no file)"))
    return digest.hexdigest(), proc.returncode


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        results = []
        for seed in SEEDS:
            workdir = pathlib.Path(tmp) / seed
            shutil.copytree(DATA, workdir / "data")
            results.append([run(command, workdir, seed)
                            for command in COMMANDS])
    for command, first, *others in zip(COMMANDS, *results):
        digest, code = first
        if any(other != first for other in others):
            digest = "seeds-differ"
        print(f"{digest} {code} {command}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
