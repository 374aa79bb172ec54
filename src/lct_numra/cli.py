"""Command-line entry point.

Each command takes only the options it reads: ``lct fwd`` makes a spectrum file of a
signal file, and ``lct inv`` a signal file of a spectrum file on ``--t-grid``.

Exit codes: 0 success, 1 usage or I/O error, 2 verification failure (a
residual above its tolerance; the report is still written).  A non-zero exit
prints one line that names its cause:

- an option's text, refused by the parser before any work: the usage line,
  then ``lct-numra <command>: error: argument --X: must be …, got '…'``;
- a refused input or computation: ``error: …``;
- a failed verification: ``verification failed: …``.

Outputs are deterministic for a fixed configuration and written atomically.

The environment variable LCT_NUMRA_THREADS caps internal parallelism.
The library reads it on every transform of ``lct._SPLIT`` points or more,
in the CLI or not: 1 starts no thread, 0 or unset means min(2, CPUs this
process may run on), and the output bits are the same for every cap.  A
positive cap is also the default of OMP_NUM_THREADS, OPENBLAS_NUM_THREADS
and MKL_NUM_THREADS, which govern the BLAS pools only (not the LCT
threads).  Those must be set before numpy is imported, so this module and
the package ``__init__`` import nothing numerical: ``main`` applies the cap
first and each command then imports what it uses.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

from . import thread_cap

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2


#: Options whose value is a comma-separated list of numbers.
_LIST_OPTIONS = ("--window", "--matrix", "--t-grid")


def _join_list_values(argv: list[str]) -> list[str]:
    """Join a list option to a following value that starts with a minus.

    argparse takes "-1,3" for an option, because its negative-number rule
    matches only a single number; written "--window=-1,3" it is a value.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _LIST_OPTIONS and re.match(r"-\.?\d", arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def _typed(parse, what: str):
    """An argparse type: ``parse`` of the text, and on a ValueError a usage error (exit 1)
    before any work."""
    def typed(text: str):
        try:
            return parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}") from None
    return typed


def _number(cast, lo, hi, what: str):
    """``cast`` of the text in [lo, hi].  NaN fails the comparison, and the float bounds
    are finite."""
    def parse(text: str):
        if lo <= (value := cast(text)) <= hi:
            return value
        raise ValueError(text)
    return _typed(parse, what)


def _matrix(text: str):
    """Four numbers a,b,c,d; a non-finite entry is ``validate``'s violation, not a usage error."""
    from .canonical import CanonicalMatrix

    a, b, c, d = (float(p) for p in text.split(","))
    return CanonicalMatrix(a, b, c, d)


def _window(text: str) -> tuple[float, float]:
    lo, hi = (float(p) for p in text.split(","))
    if not -math.inf < lo < hi < math.inf:  # NaN fails
        raise ValueError(text)
    return lo, hi


def _t_grid(text: str):
    from .sampling import Grid

    t_min, step, count = text.split(",")
    return Grid(float(t_min), float(step), int(count))  # Grid refuses the non-finite


#: A tolerance bounds a residual, which is >= 0; a grid step is > 0.
_TOL = _number(float, 0.0, sys.float_info.max, "a finite number >= 0")
_STEP = _number(float, 2.0**-1074, sys.float_info.max, "a finite number > 0")
#: The grid step ``--step`` aims at when it is not given.
_DEFAULT_STEP = 2.0**-10
_STEP_HELP = ("target grid step (default 2^-10); the grid takes 1/(2N k), k the whole number "
              "nearest 1/(2N step), so that the translations fall on it, and a given step "
              "that this moves is named on stderr")
#: The closed-form bank of N has terms on the Fourier bins 0, 2, ..., 2(N - 1), and a pair
#: is exact (evaluated from its terms, not by nearest sample) only while they span fewer
#: than ``filters._MAX_SPAN`` = 64 bins: N <= 32, and r <= 2N - 1 <= 63.
_N = _number(int, 1, 32, "an integer in [1, 32]")
_R = _number(int, 1, 63, "an integer in [1, 63]")
#: Row J of a cascade has period SPAN*N*(2N)^J, a float divisor of its phases, which
#: ``wavelets.cascade`` keeps below 2^1023: 16*2^J at N = 1, so J <= 1018.
_J = _number(int, 1, 1018, "an integer in [1, 1018]")
#: A packet count (``packets.generate_packets`` bounds it by its lattice), and a level
#: within ``sampling.DEFAULT_LEVEL_BUDGET``, the levels ``sampling.dilate`` takes.
_COUNT = _number(int, 0, math.inf, "an integer >= 0")
_LEVEL = _number(int, -16, 16, "an integer in [-16, 16]")
_MATRIX = _typed(_matrix, "four numbers a,b,c,d")
_WINDOW = _typed(_window, "two finite numbers lo,hi with lo < hi")
_T_GRID = _typed(_t_grid, "t_min,step,count with t_min finite, step finite and > 0 "
                 "and count an integer > 0")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> _Parser:
    parser = _Parser(prog="lct-numra", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("matrix", help="validate a parameter matrix")
    p.set_defaults(run=_cmd_matrix)
    p.add_argument("--matrix", type=_MATRIX, required=True)
    p.add_argument("--allow-nonunimodular", action="store_true")
    p.add_argument("--report", default=None)

    p = sub.add_parser("lct", help="forward/inverse LCT of a signal file, kernel "
                       "exp{i pi (a t^2 - 2 t u + d u^2) / b} / sqrt(i b); spectra are in u")
    lsub = p.add_subparsers(dest="direction", required=True)
    f = lsub.add_parser("fwd", help="spectrum of a signal file")
    f.set_defaults(run=_cmd_lct_fwd)
    i = lsub.add_parser("inv", help="signal of a spectrum file")
    i.set_defaults(run=_cmd_lct_inv)
    for q in (f, i):
        q.add_argument("--matrix", type=_MATRIX, required=True)
        q.add_argument("--in", dest="infile", required=True)
        q.add_argument("--out", required=True)
    f.add_argument("--method", choices=["direct", "fast"], default="fast",
                   help="fast (default), or direct: O(n^2) on the induced u grid")
    i.add_argument("--method", choices=["direct", "fast"], default=None,
                   help="default: fast when the grids pair up, else direct "
                   "(O(n^2), with a warning)")
    i.add_argument("--t-grid", type=_T_GRID, default=None,
                   help="t_min,step,count (default: the grid recorded with the spectrum)")

    p = sub.add_parser("haar", help="emit a Haar-type family and its verification")
    p.set_defaults(run=_cmd_haar)
    p.add_argument("--N", type=_N, required=True)
    p.add_argument("--r", type=_R, default=1)
    p.add_argument("--matrix", type=_MATRIX, required=True)
    p.add_argument("--allow-nonunimodular", action="store_true")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--step", type=_STEP, default=None, help=_STEP_HELP)
    p.add_argument("--tol", type=_TOL, default=1e-10)

    p = sub.add_parser("cascade", help="scaling function from a low-pass filter file")
    p.set_defaults(run=_cmd_cascade)
    p.add_argument("--filters", required=True)
    p.add_argument("--J", type=_J, default=20)
    p.add_argument("--tol", type=_TOL, default=1e-5)
    p.add_argument("--out", required=True)
    p.add_argument("--step", type=_STEP, default=None, help=_STEP_HELP)
    p.add_argument("--window", type=_WINDOW, default="-1,3",
                   help="time window lo,hi of the output grid, inside [-8, 8)")

    p = sub.add_parser("verify", help="verify filter admissibility conditions")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("--filters", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--tol", type=_TOL, default=1e-10, help="tolerance of every condition")

    p = sub.add_parser("packets", help="wavelet packet generation and certification")
    psub = p.add_subparsers(dest="packets_command", required=True)
    g = psub.add_parser("gen", help="generate packets 0..n-max")
    g.set_defaults(run=_cmd_packets_gen)
    g.add_argument("--n-max", type=_COUNT, required=True)
    g.add_argument("--N", type=_N, required=True)
    g.add_argument("--r", type=_R, default=1)
    g.add_argument("--matrix", type=_MATRIX, required=True)
    g.add_argument("--out-dir", required=True)
    g.add_argument("--step", type=_STEP, default=None, help=_STEP_HELP)
    g.add_argument("--window", type=_WINDOW, default="-4,5",
                   help="time window lo,hi of the packet grid, inside [-8, 8)")
    q = psub.add_parser("gram", help="Gram certification of generated packets")
    q.set_defaults(run=_cmd_packets_gram)
    q.add_argument("--nodes", required=True, help="directory produced by packets gen")
    q.add_argument("--window", type=_WINDOW, required=True, help="lambda window lo,hi")
    q.add_argument("--report", required=True)
    q.add_argument("--matrix", type=_MATRIX, required=True, help="as given to packets gen")
    q.add_argument("--N", type=_N, required=True, help="as given to packets gen")
    q.add_argument("--r", type=_R, default=1)
    q.add_argument("--tol", type=_TOL, default=1e-3)

    p = sub.add_parser("project", help="project a signal onto a dilated scaling span")
    p.set_defaults(run=_cmd_project)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--N", type=_N, required=True)
    p.add_argument("--r", type=_R, default=1)
    p.add_argument("--matrix", type=_MATRIX, required=True)
    p.add_argument("--level", type=_LEVEL, required=True)
    p.add_argument("--window", type=_WINDOW, required=True, help="lambda window lo,hi")
    p.add_argument("--out", required=True)

    p = sub.add_parser(
        "crosscheck",
        help="deterministic cross-check report for the anomalous N=2 reference wavelets",
    )
    p.set_defaults(run=_cmd_crosscheck)
    p.add_argument("--out", required=True)
    p.add_argument("--step", type=_STEP, default=None, help=_STEP_HELP)

    return parser


def _verdict(ok: bool, cause) -> int:
    """Exit 0, or exit 2 with the one line ``verification failed: <cause>``."""
    if ok:
        return EXIT_OK
    print(f"verification failed: {cause}", file=sys.stderr)
    return EXIT_VERIFICATION


def _grid_step(step, ts) -> float:
    """The target step of ``--step`` (``_DEFAULT_STEP`` when not given).  A given step that
    ``default_time_grid`` moves by more than ``_ALIGN_TOL`` relative is named on stderr
    with the step the grid uses; the default is rounded without a word."""
    from .sampling import _ALIGN_TOL
    from .wavelets import default_time_grid

    if step is None:
        return _DEFAULT_STEP
    used = default_time_grid(ts, target_step=step).step
    if abs(used - step) > _ALIGN_TOL * step:
        print(f"warning: --step {step!r} is not 1/(2N k) for a whole k at N = {ts.N}; "
              f"the grid step is {used!r}", file=sys.stderr)
    return step


def _cmd_matrix(args) -> int:
    from .canonical import validate
    from .io import write_json

    m = args.matrix
    report = validate(m, allow_nonunimodular=args.allow_nonunimodular)
    payload = {"matrix": asdict(m), **asdict(report), "permissive": args.allow_nonunimodular}
    if args.report:
        write_json(args.report, payload)
    if report.ok and args.allow_nonunimodular and not validate(m).ok:
        print(f"warning: det = {report.det:.17g} accepted in permissive mode", file=sys.stderr)
    return _verdict(report.ok, "; ".join(report.violations))


def _cmd_lct_fwd(args) -> int:
    from .io import read_signal_csv, write_spectrum_csv
    from .lct import induced_omega_grid, lct_direct, lct_fast

    sig, m = read_signal_csv(args.infile), args.matrix
    if args.method == "fast":
        spec = lct_fast(sig, m)
    else:
        spec = lct_direct(sig, m, induced_omega_grid(sig.grid, m))
    write_spectrum_csv(args.out, spec)
    return EXIT_OK


def _cmd_lct_inv(args) -> int:
    from .io import read_spectrum_csv, write_signal_csv
    from .lct import ilct

    spec = read_spectrum_csv(args.infile)
    grid = args.t_grid or spec.t_grid
    if grid is None:
        raise ValueError(f"{args.infile}: no source t_grid in the sidecar; "
                         "pass --t-grid t_min,step,count")
    with warnings.catch_warnings(record=True) as caught:  # the fallback's cost, as CLI text
        warnings.simplefilter("always")
        sig = ilct(spec, args.matrix, grid, method=args.method or "auto")
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    write_signal_csv(args.out, sig)
    return EXIT_OK


def _cmd_haar(args) -> int:
    from .filters import TranslationSet
    from .io import write_filter_csv, write_json, write_signal_csv
    from .reports import bank_report
    from .wavelets import default_time_grid, haar_family

    ts = TranslationSet(N=args.N, r=args.r)
    grid = default_time_grid(ts, target_step=_grid_step(args.step, ts))
    fam = haar_family(ts, args.matrix, grid=grid, permissive=args.allow_nonunimodular)
    out = Path(args.out_dir)
    write_signal_csv(out / "phi.csv", fam.phi)
    for k, psi in enumerate(fam.psi, start=1):
        write_signal_csv(out / f"psi_{k}.csv", psi)
    for k, pair in enumerate(fam.filters):
        write_filter_csv(out / f"filters_{k}.csv", pair)
    report = bank_report(list(fam.filters), args.tol)
    report["matrix"] = asdict(args.matrix)
    write_json(out / "verify.json", report)
    return _verdict(report["ok"], f"condition(s) {', '.join(report['violations'])}")


def _cmd_cascade(args) -> int:
    from .io import read_filter_csv, write_signal_csv
    from .wavelets import cascade, default_time_grid

    pair = read_filter_csv(args.filters)
    if not pair.exact:
        print(f"warning: {args.filters} is not a short trigonometric polynomial; "
              "evaluated by nearest sample", file=sys.stderr)
    grid = default_time_grid(pair.ts, args.window, target_step=_grid_step(args.step, pair.ts))
    result = cascade(pair, J=args.J, tol=args.tol, grid=grid, depth=0)
    # the sidecar records the approximations: the truncated tail and nearest-sample rows
    write_signal_csv(args.out, result.signal, tail_deviation=result.tail_deviation,
                     J=result.engine.J, nearest_sample=not pair.exact)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .io import read_filter_csv, write_json
    from .reports import lowpass_report

    report = lowpass_report(read_filter_csv(args.filters), args.tol)
    write_json(args.report, report)
    return _verdict(report["ok"], f"condition(s) {', '.join(report['violations'])}")


def _cmd_packets_gen(args) -> int:
    from .filters import TranslationSet
    from .io import write_signal_csv
    from .packets import generate_packets
    from .wavelets import default_time_grid, haar_filter_bank

    ts = TranslationSet(N=args.N, r=args.r)
    bank = haar_filter_bank(ts, args.matrix)
    grid = default_time_grid(ts, window=args.window, target_step=_grid_step(args.step, ts))
    # oversample 1 keeps every packet in the band the Gram quadrature resolves
    nodes = generate_packets(args.n_max, bank, grid=grid, oversample=1)
    out = Path(args.out_dir)
    for node in nodes:
        write_signal_csv(out / f"packet_{node.index.n}.csv", node.signal,
                         band_deficit=node.band_deficit, translation=asdict(ts),
                         matrix=asdict(args.matrix))
    return EXIT_OK


def _cmd_packets_gram(args) -> int:
    from .filters import TranslationSet
    from .io import read_packet_csv, write_json
    from .reports import packet_gram_report

    ts = TranslationSet(N=args.N, r=args.r)
    nodes_dir = Path(args.nodes)
    signals = []  # each file read once, and refused if it records another set or matrix
    while (path := nodes_dir / f"packet_{len(signals)}.csv").exists():
        signals.append(read_packet_csv(path, ts, args.matrix))
    if not signals:
        raise ValueError(f"no packet_*.csv files in {nodes_dir}")
    report = packet_gram_report(signals, ts, args.matrix, args.window, args.tol)
    write_json(args.report, report)
    return _verdict(report["ok"], f"gram residual {report['max_off_identity']:.3e}")


def _cmd_project(args) -> int:
    from .filters import CASCADE_CODES, TranslationSet, require_lowpass
    from .io import read_signal_csv, write_signal_csv
    from .wavelets import haar_filter_bank, haar_scaling, project

    ts = TranslationSet(N=args.N, r=args.r)
    f = read_signal_csv(args.infile)
    # the cascade's gate without its cascade: an admissible closed-form low-pass has
    # every lattice phase 1, so its scaling function is the indicator for any matrix
    require_lowpass(haar_filter_bank(ts, args.matrix)[0], CASCADE_CODES)
    result = project(f, haar_scaling(ts), ts, args.matrix, args.level, args.window)
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    write_signal_csv(args.out, result.signal)
    return EXIT_OK


def _cmd_crosscheck(args) -> int:
    from .filters import TranslationSet
    from .io import write_json
    from .reports import anomalous_n2_report

    report = anomalous_n2_report(step=_grid_step(args.step, TranslationSet(2, 1)))
    write_json(args.out, report)
    return EXIT_OK


def main(argv=None) -> int:
    if cap := thread_cap():
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, str(cap))
    try:
        args = build_parser().parse_args(
            _join_list_values(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except (OSError, ValueError, RuntimeError) as exc:
        from .filters import FilterConditionError
        from .wavelets import ConvergenceError

        if isinstance(exc, (FilterConditionError, ConvergenceError)):
            return _verdict(False, exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
