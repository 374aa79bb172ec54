#!/usr/bin/env python3
"""Compare the outputs of two checkouts on one fixed list of CLI commands.

    python3 tools/compare_outputs.py PARENT CHANGE

PARENT and CHANGE are checkout roots (their ``src/`` is put on PYTHONPATH) or
``src`` directories themselves.  Every command in ``COMMANDS`` runs as
``python -m lct_numra.cli`` from each root into that root's own temporary
directory, with the BLAS pools pinned to one thread; a short library script
(``LIBRARY``) also saves engine tails, cascade signals, packet hats and band
deficits, oversample-1 wavelets, two completed Haar banks, the AC-10 Gram, the
AC-11 packet bases' residuals, coefficients and syntheses, and chirped
translates as ``.npy`` files.  The inputs (a 2^17-row signal, two 8- and
4-row signal files whose t column is off their grid, a filter file whose u
column is off its grid, two signal files whose sidecar step is not finite,
and an empty directory) are written once, by PARENT, and read by both.

For every output file the script prints "byte-identical", or the largest
difference of its numbers relative to the largest |number| in the file (to 1
in a band-deficit file, ``*-deficit.npy``), or that the text around the numbers
differs.  It also prints each command's exit code on both sides, and in one
line whether, inside each checkout, one packet tree written at two n-max
(``NMAX_PAIR``) has byte-identical files where both runs wrote one.  It exits
1 if any file, file list, exit code or shared packet file differs.
The file is not named ``test_*.py`` so the repository's test run does not
collect it; it moves no bound.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

M = "2,1,1,1"
FAMILIES = {  # name: haar options
    "haar-1": ["--N", "1", "--matrix", M],
    "haar-2": ["--N", "2", "--matrix", M],
    "haar-3": ["--N", "3", "--matrix", M],
    "haar-2-r3": ["--N", "2", "--r", "3", "--matrix", M],
    "haar-3-r5": ["--N", "3", "--r", "5", "--matrix", "0.5,1,-0.75,0.5"],
}

#: (name, CLI arguments); {in} is the shared input directory, {out} this root's.
COMMANDS = [(name, ["haar", *opts, "--out-dir", f"{{out}}/{name}"])
            for name, opts in FAMILIES.items()]
for _fam in ("haar-1", "haar-2", "haar-2-r3", "haar-3"):
    for _k in (0, 1):
        _filters = f"{{out}}/{_fam}/filters_{_k}.csv"
        COMMANDS += [
            (f"cascade-{_fam}-{_k}", ["cascade", "--filters", _filters,
                                      "--out", f"{{out}}/cascade-{_fam}-{_k}.csv"]),
            (f"verify-{_fam}-{_k}", ["verify", "--filters", _filters,
                                     "--report", f"{{out}}/verify-{_fam}-{_k}.json"]),
        ]
COMMANDS += [
    ("packets-gen-1", ["packets", "gen", "--n-max", "3", "--N", "1", "--matrix", "0,1,-1,0",
                       "--step", str(2.0**-12), "--out-dir", "{out}/packets-1"]),
    # the same tree to packet 1 only: one tail fewer (NMAX_PAIR)
    ("packets-gen-1-nmax1", ["packets", "gen", "--n-max", "1", "--N", "1", "--matrix", "0,1,-1,0",
                             "--step", str(2.0**-12), "--out-dir", "{out}/packets-1-nmax1"]),
    ("packets-gram-1", ["packets", "gram", "--nodes", "{out}/packets-1", "--window=-2,2.0001",
                        "--N", "1", "--matrix", "0,1,-1,0", "--report", "{out}/gram-1.json"]),
    # packets of another translation set than the options give: refused with exit 1
    ("packets-gram-1-N2", ["packets", "gram", "--nodes", "{out}/packets-1", "--window=-2,2.0001",
                           "--N", "2", "--matrix", "0,1,-1,0", "--report", "{out}/gram-1-N2.json"]),
    ("packets-gram-1-N3", ["packets", "gram", "--nodes", "{out}/packets-1", "--window=-2,2.0001",
                           "--N", "3", "--matrix", "0,1,-1,0", "--report", "{out}/gram-1-N3.json"]),
    ("packets-gen-2", ["packets", "gen", "--n-max", "3", "--N", "2", "--matrix", M,
                       "--out-dir", "{out}/packets-2"]),
    ("packets-gram-2", ["packets", "gram", "--nodes", "{out}/packets-2", "--window=-2,2.0001",
                        "--N", "2", "--matrix", M, "--report", "{out}/gram-2.json"]),
    ("project", ["project", "--in", "{in}/f.csv", "--N", "1", "--matrix", "0,1,-1,0",
                 "--level", "2", "--window=-24,24", "--out", "{out}/project.csv"]),
    # chirped: the time chirp and the shift phases are not 1
    ("project-2-up", ["project", "--in", "{in}/f.csv", "--N", "2", "--matrix", M,
                      "--level", "1", "--window=-16,16", "--out", "{out}/project-2-up.csv"]),
    ("project-2-down", ["project", "--in", "{in}/f.csv", "--N", "2", "--matrix", M,
                        "--level", "-1", "--window=-4,4", "--out", "{out}/project-2-down.csv"]),
    ("crosscheck", ["crosscheck", "--out", "{out}/crosscheck.json"]),
    # matrix reports: valid, accepted in permissive mode, and refused with exit 2
    ("matrix", ["matrix", "--matrix", M, "--report", "{out}/matrix.json"]),
    ("matrix-permissive", ["matrix", "--matrix", "0,1,2,-1", "--allow-nonunimodular",
                           "--report", "{out}/matrix-permissive.json"]),
    ("matrix-nan", ["matrix", "--matrix", "nan,1,-1,0", "--report", "{out}/matrix-nan.json"]),
    ("lct-fwd", ["lct", "fwd", "--matrix", M, "--in", "{in}/f.csv", "--out", "{out}/F.csv"]),
    ("lct-inv", ["lct", "inv", "--matrix", M, "--in", "{out}/F.csv", "--out", "{out}/f_inv.csv"]),
    # a time grid is an lct inv option: lct fwd refuses it with exit 1, and a tree that
    # ignores it writes lct-fwd's F.csv again, byte for byte
    ("lct-fwd-t-grid", ["lct", "fwd", "--matrix", M, "--in", "{in}/f.csv", "--t-grid=0,0.5,8",
                        "--out", "{out}/F.csv"]),
    # signal files whose t column is off their grid: refused with exit 1
    ("lct-fwd-moved", ["lct", "fwd", "--matrix", M, "--in", "{in}/moved.csv",
                       "--out", "{out}/F-moved.csv"]),
    ("lct-fwd-uneven", ["lct", "fwd", "--matrix", M, "--in", "{in}/uneven.csv",
                        "--out", "{out}/F-uneven.csv"]),
    # a filter file whose u column is all 7: refused with exit 1
    ("verify-u-seven", ["verify", "--filters", "{in}/u-seven.csv",
                        "--report", "{out}/verify-u-seven.json"]),
    # grids with a non-finite step, from the option and from a sidecar: refused with exit 1
    ("lct-inv-nan-step", ["lct", "inv", "--matrix", M, "--in", "{out}/F.csv", "--t-grid=0,nan,8",
                          "--out", "{out}/f-nan-step.csv"]),
    ("lct-inv-inf-step", ["lct", "inv", "--matrix", M, "--in", "{out}/F.csv", "--t-grid=0,inf,8",
                          "--out", "{out}/f-inf-step.csv"]),
    ("lct-fwd-nan-sidecar", ["lct", "fwd", "--matrix", M, "--in", "{in}/nan-step.csv",
                             "--out", "{out}/F-nan-step.csv"]),
    ("lct-fwd-inf-sidecar", ["lct", "fwd", "--matrix", M, "--in", "{in}/inf-step.csv",
                             "--out", "{out}/F-inf-step.csv"]),
    # failed verifications at tolerance 0: exit 2, the report still written
    ("haar-2-tol0", ["haar", "--N", "2", "--matrix", M, "--tol", "0",
                     "--out-dir", "{out}/haar-2-tol0"]),
    ("verify-haar-2-0-tol0", ["verify", "--filters", "{out}/haar-2/filters_0.csv", "--tol", "0",
                              "--report", "{out}/verify-haar-2-0-tol0.json"]),
    # refused with exit 1: a directory without packet files, and a window with lo > hi
    ("packets-gram-empty", ["packets", "gram", "--nodes", "{in}/empty", "--window=-2,2.0001",
                            "--N", "1", "--matrix", "0,1,-1,0",
                            "--report", "{out}/gram-empty.json"]),
    ("cascade-window-reversed", ["cascade", "--filters", "{out}/haar-1/filters_0.csv",
                                 "--window=3,-1", "--out", "{out}/cascade-reversed.csv"]),
    # a window end between two grid points: refused with exit 1
    ("cascade-window-off-step", ["cascade", "--filters", "{out}/haar-1/filters_0.csv",
                                 "--window=-1,2.3", "--out", "{out}/cascade-off-step.csv"]),
    ("packets-gen-window-off-step", ["packets", "gen", "--n-max", "1", "--N", "1",
                                     "--matrix", M, "--window=-4,4.3",
                                     "--out-dir", "{out}/packets-off-step"]),
    # a step the grid rounds (0.3 to 0.25): exit 0, written as at step 0.25
    ("cascade-step-rounded", ["cascade", "--filters", "{out}/haar-1/filters_0.csv",
                              "--step", "0.3", "--out", "{out}/cascade-step-rounded.csv"]),
]

#: Output directories of one packet tree at two n-max; the packet files both hold must agree
#: byte for byte inside each checkout, as a packet's bits depend on the packet alone.
NMAX_PAIR = ("packets-1", "packets-1-nmax1")

INPUTS = """
import json, os, sys
from lct_numra.canonical import CanonicalMatrix
from lct_numra.filters import TranslationSet
from lct_numra.io import write_filter_csv, write_signal_csv
from lct_numra.sampling import Grid, gaussian
from lct_numra.wavelets import haar_filters
write_signal_csv(sys.argv[1] + "/f.csv", gaussian(Grid(-8.0, 2.0**-13, 2**17)))
# a Grid(0, 0.5, 8) sidecar over t = 10, 13, ..., 31, and uneven t without a sidecar
with open(sys.argv[1] + "/moved.csv", "w") as fh:
    fh.write("t,re,im\\n" + "".join(f"{10 + 3 * k},1,0\\n" for k in range(8)))
with open(sys.argv[1] + "/moved.json", "w") as fh:
    json.dump({"t_min": 0.0, "step": 0.5, "count": 8}, fh)
with open(sys.argv[1] + "/uneven.csv", "w") as fh:
    fh.write("t,re,im\\n0,1,0\\n0.1,1,0\\n0.5,1,0\\n0.6,1,0\\n")
# the N = 2 low-pass filter with its u column replaced by 7
low = haar_filters(TranslationSet(2, 1), CanonicalMatrix(2, 1, 1, 1))
write_filter_csv(sys.argv[1] + "/u-seven.csv", low)
with open(sys.argv[1] + "/u-seven.csv") as fh:
    lines = fh.read().splitlines(keepends=True)
with open(sys.argv[1] + "/u-seven.csv", "w") as fh:
    fh.write(lines[0] + "".join("7," + line.split(",", 1)[1] for line in lines[1:]))
# a directory without packet files
os.mkdir(sys.argv[1] + "/empty")
# two-row signals whose sidecar step is NaN or Infinity
for name, step in [("nan-step", "NaN"), ("inf-step", "Infinity")]:
    with open(f"{sys.argv[1]}/{name}.csv", "w") as fh:
        fh.write("t,re,im\\n0,1,0\\n1,1,0\\n")
    with open(f"{sys.argv[1]}/{name}.json", "w") as fh:
        fh.write(f'{{"t_min": 0.0, "step": {step}, "count": 2}}')
"""

#: Library outputs no CLI file carries: engine tail T_0, its tail deviation, the
#: cascade signal, the lattice hats and band deficits of packets 0..3, at N = 2 the
#: oversample-1 wavelets of ``haar_family``, and at (N, r) = (2, 1) and (3, 1) the
#: components of ``complete_filters`` of the low-pass; the AC-10 ``packet_gram`` Gram
#: (packets 0..4, N = 2, r = 1); of the AC-11 parent and children bases, the certify
#: residual, the coefficients of a random signal and their synthesis; and chirped
#: translates under two matrices, one leaving the window.
LIBRARY = """
import sys
import numpy as np
from lct_numra.canonical import CanonicalMatrix, fourier
from lct_numra.filters import TranslationSet, complete_filters
from lct_numra.packets import (BasisElement, PacketBasis, generate_packets, packet_analyze,
                               packet_gram, packet_synthesize)
from lct_numra.sampling import SampledSignal, indicator, numra_grid, translate_chirp
from lct_numra.wavelets import cascade, haar_family, haar_filter_bank
for N, r in [(1, 1), (2, 1), (2, 3), (3, 1), (3, 5)]:
    ts = TranslationSet(N, r)
    bank = haar_filter_bank(ts, CanonicalMatrix(2, 1, 1, 1))
    grid = numra_grid(ts, (-2.0, 2.0), refinement=64)
    res = cascade(bank[0], grid=grid, oversample=1, depth=0)
    out = f"{sys.argv[1]}/lib/{N}-{r}"
    np.save(f"{out}-tail0.npy", res.hat.engine._tails[0])
    np.save(f"{out}-tail_deviation.npy", res.tail_deviation)
    np.save(f"{out}-phi.npy", res.signal.values)
    for node in generate_packets(3, bank, grid=grid, oversample=1):
        np.save(f"{out}-packet{node.index.n}-hat.npy", node.hat.engine.lattice([node.hat])[0])
        if hasattr(node, "band_deficit"):  # a checkout without band deficits saves none
            np.save(f"{out}-packet{node.index.n}-deficit.npy", node.band_deficit)
    if N == 2:  # the CLI's haar runs at oversample 16 only
        fam = haar_family(ts, CanonicalMatrix(2, 1, 1, 1), grid=grid, oversample=1)
        for k, psi in enumerate(fam.psi, start=1):
            np.save(f"{out}-psi{k}.npy", psi.values)
    if r == 1 and N > 1:  # the CLI completes no bank
        for k, high in enumerate(complete_filters(bank[0]), start=1):
            np.save(f"{out}-completed{k}.npy", np.stack([high.comp1, high.comp2]))
ts = TranslationSet(2, 1)
grid = numra_grid(ts, (-5.0, 7.0), refinement=4096)
nodes = generate_packets(4, haar_filter_bank(ts, CanonicalMatrix(2, 1, 1, 1)), grid=grid,
                         oversample=1)
gram, _ = packet_gram(nodes, ts, CanonicalMatrix(2, 1, 1, 1), (-4.0, 4.0 + 1e-9))
np.save(f"{sys.argv[1]}/lib/2-1-gram.npy", gram)
ts = TranslationSet(1, 1)
grid = numra_grid(ts, (-6.0, 6.0), refinement=8192)
nodes = generate_packets(3, haar_filter_bank(ts, fourier()), grid=grid, oversample=1)
rng = np.random.default_rng(7)
f = SampledSignal(grid, rng.normal(size=grid.count) + 1j * rng.normal(size=grid.count))
for name, packets in [("parent", [(1, 1)]), ("children", [(2, 0), (3, 0)])]:
    basis = PacketBasis(ts, fourier(), [BasisElement(nodes[n], level, float(lam))
                                        for n, level in packets for lam in range(-2, 3)])
    out = f"{sys.argv[1]}/lib/ac11-{name}"
    np.save(f"{out}-residual.npy", basis.certify())
    table = packet_analyze(f, basis)
    np.save(f"{out}-analysis.npy", table.values)
    np.save(f"{out}-synthesis.npy", packet_synthesize(table, basis).values)
ts = TranslationSet(2, 1)
grid = numra_grid(ts, (-4.0, 4.0), refinement=64)
phi = indicator([(0.0, 0.5), (1.0, 1.5)], grid)
for name, m in [("2111", CanonicalMatrix(2, 1, 1, 1)), ("half", CanonicalMatrix(0.5, 1, -0.75, 0.5))]:
    rows = [translate_chirp(phi, lam, m).values for lam in (-5.0, -1.5, 0.0, 0.5, 3.5)]
    np.save(f"{sys.argv[1]}/lib/translate-{name}.npy", np.stack(rows))
"""

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?\b(?:nan|inf|NaN|Infinity)\b")


def _pythonpath(root: Path) -> str:
    """The directory holding ``lct_numra`` under ``root``; a root with none is refused."""
    for path in (root / "src", root):
        if (path / "lct_numra").is_dir():
            return str(path)
    raise SystemExit(f"{root}: no lct_numra package in it or in its src/")


def _env(pythonpath: str) -> dict:
    pinned = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {**os.environ, **pinned, "PYTHONPATH": pythonpath}


def run_all(pythonpath: str, inputs: Path, out: Path) -> dict[str, int]:
    """Exit code of every command (and of the library script) run from ``pythonpath``
    into ``out``."""
    (out / "lib").mkdir(parents=True)
    codes = {}
    for name, args in COMMANDS:
        args = [a.replace("{in}", str(inputs)).replace("{out}", str(out)) for a in args]
        proc = subprocess.run([sys.executable, "-m", "lct_numra.cli", *args],
                              env=_env(pythonpath), capture_output=True, timeout=600)
        codes[name] = proc.returncode
    proc = subprocess.run([sys.executable, "-c", LIBRARY, str(out)], env=_env(pythonpath),
                          capture_output=True, timeout=600)
    codes["library"] = proc.returncode
    return codes


def _numbers(path: Path) -> tuple[str, np.ndarray]:
    """The text of a file with its numbers cut out, and the numbers."""
    if path.suffix == ".npy":
        arr = np.load(path)
        return f"{arr.dtype} {arr.shape}", arr.ravel()
    text = path.read_text()
    return _NUMBER.sub("#", text), np.array([complex(t.replace("Infinity", "inf"))
                                             for t in _NUMBER.findall(text)])


def compare_file(a: Path, b: Path) -> str | None:
    """None when byte-identical, else how the two files differ."""
    if a.read_bytes() == b.read_bytes():
        return None
    (text_a, num_a), (text_b, num_b) = _numbers(a), _numbers(b)
    if text_a != text_b or num_a.shape != num_b.shape:
        return "text differs"
    # a band deficit d = 1 - sum|hat|^2/SPAN is rounded at the scale of 1, not of d
    scale = 1.0 if a.name.endswith("-deficit.npy") else np.max(np.abs(num_a), initial=0.0) or 1.0
    return f"max relative difference {np.max(np.abs(num_a - num_b)) / scale:.3g}"


def compare_nmax_pair(out: Path) -> tuple[list[str], list[str]]:
    """The ``packet_*`` files both ``NMAX_PAIR`` directories under ``out`` hold, and those
    of them that differ."""
    a, b = (out / name for name in NMAX_PAIR)
    shared = sorted({p.name for p in a.glob("packet_*")} & {p.name for p in b.glob("packet_*")})
    return shared, [name for name in shared if compare_file(a / name, b / name)]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    paths = [_pythonpath(Path(r).resolve()) for r in argv]
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        tmp = Path(tmp)
        inputs = tmp / "in"
        inputs.mkdir()
        subprocess.run([sys.executable, "-c", INPUTS, str(inputs)], env=_env(paths[0]),
                       check=True, timeout=600)
        outs = [tmp / "parent", tmp / "change"]
        codes = [run_all(path, inputs, out) for path, out in zip(paths, outs)]
        same = True
        for name in codes[0]:
            ok = codes[0][name] == codes[1][name]
            same &= ok
            print(f"exit {codes[0][name]} / {codes[1][name]}{'' if ok else '  DIFFERS'}  {name}")
        files = [{p.relative_to(out) for p in out.rglob("*") if p.is_file()} for out in outs]
        for rel in sorted(files[0] | files[1]):
            if rel not in files[0] or rel not in files[1]:
                status = f"only in {'change' if rel in files[1] else 'parent'}"
            else:
                status = compare_file(outs[0] / rel, outs[1] / rel) or "byte-identical"
            same &= status == "byte-identical"
            print(f"{status}  {rel}")
        sides = []
        for side, out in zip(("parent", "change"), outs):
            shared, differ = compare_nmax_pair(out)
            same &= bool(shared) and not differ
            sides.append(f"{side} {len(shared)} shared, "
                         + (f"{', '.join(differ)} differ" if differ else "byte-identical"))
        print(f"n-max pair {' / '.join(NMAX_PAIR)}: " + "; ".join(sides))
        print(f"{len(files[0] | files[1])} files, {len(codes[0])} exit codes: "
              + ("all identical" if same else "DIFFERENCES"))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
