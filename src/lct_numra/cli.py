"""Command-line entry point.

Exit codes: 0 success, 1 usage or I/O error, 2 verification failure (a
residual above its tolerance; the report is still written).  Outputs are
deterministic for a fixed configuration and written atomically.

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
from pathlib import Path

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2


def _apply_thread_cap() -> None:
    cap = os.environ.get("LCT_NUMRA_THREADS")
    if not cap:
        return
    try:
        n = int(cap)
    except ValueError:
        return
    if n > 0:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, str(n))


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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_matrix(text: str):
    from .canonical import CanonicalMatrix

    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError("matrix must be four comma-separated numbers a,b,c,d")
    a, b, c, d = (float(p) for p in parts)
    return CanonicalMatrix(a, b, c, d)


def _parse_window(text: str) -> tuple[float, float]:
    """Two finite numbers lo,hi with lo < hi; anything else is a usage error."""
    try:
        lo, hi = (float(p) for p in text.split(","))
    except ValueError:
        lo = hi = math.nan
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"window {text!r} is not two finite numbers lo,hi with lo < hi")
    return lo, hi


def build_parser() -> _Parser:
    parser = _Parser(prog="lct-numra", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("matrix", help="validate a parameter matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--allow-nonunimodular", action="store_true")
    p.add_argument("--report", default=None)

    p = sub.add_parser("lct", help="forward/inverse LCT of a signal file, kernel "
                       "exp{i pi (a t^2 - 2 t u + d u^2) / b} / sqrt(i b); spectra are in u")
    p.add_argument("direction", choices=["fwd", "inv"])
    p.add_argument("--matrix", required=True)
    p.add_argument("--method", choices=["direct", "fast"], default=None,
                   help="fwd: fast by default; inv: fast when the grids pair up, "
                   "else direct (O(n^2), with a warning)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--t-grid", default=None,
                   help="t_min,step,count for inv (default: the grid recorded with the spectrum)")

    p = sub.add_parser("haar", help="emit a Haar-type family and its verification")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--matrix", required=True)
    p.add_argument("--allow-nonunimodular", action="store_true")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--step", type=float, default=2.0**-10)
    p.add_argument("--tol", type=float, default=1e-10)

    p = sub.add_parser("cascade", help="scaling function from a low-pass filter file")
    p.add_argument("--filters", required=True)
    p.add_argument("--J", type=int, default=20)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--out", required=True)
    p.add_argument("--step", type=float, default=2.0**-10)
    p.add_argument("--window", default="-1,3",
                   help="time window lo,hi of the output grid, inside [-8, 8)")

    p = sub.add_parser("verify", help="verify filter admissibility conditions")
    p.add_argument("--filters", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--tol", type=float, default=None, help="override all tolerances")

    p = sub.add_parser("packets", help="wavelet packet generation and certification")
    psub = p.add_subparsers(dest="packets_command", required=True)
    g = psub.add_parser("gen", help="generate packets 0..n-max")
    g.add_argument("--n-max", type=int, required=True)
    g.add_argument("--N", type=int, required=True)
    g.add_argument("--r", type=int, default=1)
    g.add_argument("--matrix", required=True)
    g.add_argument("--out-dir", required=True)
    g.add_argument("--step", type=float, default=2.0**-10)
    g.add_argument("--window", default="-4,5",
                   help="time window lo,hi of the packet grid, inside [-8, 8)")
    q = psub.add_parser("gram", help="Gram certification of generated packets")
    q.add_argument("--nodes", required=True, help="directory produced by packets gen")
    q.add_argument("--window", required=True, help="lambda window lo,hi")
    q.add_argument("--report", required=True)
    q.add_argument("--matrix", required=True)
    q.add_argument("--N", type=int, required=True)
    q.add_argument("--r", type=int, default=1)
    q.add_argument("--tol", type=float, default=1e-3)

    p = sub.add_parser("project", help="project a signal onto a dilated scaling span")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--matrix", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--window", required=True, help="lambda window lo,hi")
    p.add_argument("--out", required=True)

    p = sub.add_parser(
        "crosscheck",
        help="deterministic cross-check report for the anomalous N=2 reference wavelets",
    )
    p.add_argument("--out", required=True)
    p.add_argument("--step", type=float, default=2.0**-10)

    return parser


def _cmd_matrix(args) -> int:
    from .canonical import validate
    from .io import write_json

    m = _parse_matrix(args.matrix)
    report = validate(m, allow_nonunimodular=args.allow_nonunimodular)
    payload = {
        "matrix": m.to_dict(),
        "det": report.det,
        "ok": report.ok,
        "violations": list(report.violations),
        "permissive": bool(args.allow_nonunimodular),
    }
    if args.report:
        write_json(args.report, payload)
    for line in report.violations:
        print(f"violation: {line}", file=sys.stderr)
    if not report.ok:
        return EXIT_VERIFICATION
    if args.allow_nonunimodular and not validate(m).ok:
        print(f"warning: det = {report.det:.17g} accepted in permissive mode", file=sys.stderr)
    return EXIT_OK


def _cmd_lct(args) -> int:
    from .io import read_signal_csv, read_spectrum_csv, write_signal_csv, write_spectrum_csv
    from .lct import ilct, induced_omega_grid, lct_direct, lct_fast
    from .sampling import Grid

    m = _parse_matrix(args.matrix)
    if args.direction == "fwd":
        sig = read_signal_csv(args.infile)
        if args.method != "direct":
            spec = lct_fast(sig, m)
        else:
            spec = lct_direct(sig, m, induced_omega_grid(sig.grid, m))
        write_spectrum_csv(args.out, spec)
    else:
        spec = read_spectrum_csv(args.infile)
        if args.t_grid:
            t_min, step, count = args.t_grid.split(",")
            grid = Grid(float(t_min), float(step), int(count))
        elif spec.t_grid is not None:
            grid = spec.t_grid
        else:
            raise ValueError(f"{args.infile}: no source t_grid in the sidecar; "
                             "pass --t-grid t_min,step,count")
        with warnings.catch_warnings(record=True) as caught:  # the fallback's cost, as CLI text
            warnings.simplefilter("always")
            sig = ilct(spec, m, grid, method=args.method or "auto")
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
        write_signal_csv(args.out, sig)
    return EXIT_OK


def _cmd_haar(args) -> int:
    from .filters import TranslationSet
    from .io import write_filter_csv, write_json, write_signal_csv
    from .reports import DEFAULT_TOLERANCES, bank_report
    from .wavelets import default_time_grid, haar_family

    ts = TranslationSet(N=args.N, r=args.r)
    m = _parse_matrix(args.matrix)
    grid = default_time_grid(ts, target_step=args.step)
    fam = haar_family(ts, m, grid=grid, permissive=args.allow_nonunimodular)
    out = Path(args.out_dir)
    write_signal_csv(out / "phi.csv", fam.phi)
    for k, psi in enumerate(fam.psi, start=1):
        write_signal_csv(out / f"psi_{k}.csv", psi)
    for k, pair in enumerate(fam.filters):
        write_filter_csv(out / f"filters_{k}.csv", pair)
    report = bank_report(list(fam.filters), {code: args.tol for code in DEFAULT_TOLERANCES})
    report["matrix"] = m.to_dict()
    write_json(out / "verify.json", report)
    return EXIT_OK if report["ok"] else EXIT_VERIFICATION


def _cmd_cascade(args) -> int:
    from .io import read_filter_csv, write_signal_csv
    from .wavelets import cascade, default_time_grid

    pair = read_filter_csv(args.filters)
    if not pair.exact:
        print(f"warning: {args.filters} is not a short trigonometric polynomial; "
              "evaluated by nearest sample", file=sys.stderr)
    grid = default_time_grid(pair.ts, _parse_window(args.window), target_step=args.step)
    result = cascade(pair, J=args.J, tol=args.tol, grid=grid, depth=0)
    write_signal_csv(args.out, result.signal)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .io import read_filter_csv, write_json
    from .reports import DEFAULT_TOLERANCES, lowpass_report

    pair = read_filter_csv(args.filters)
    tol = None
    if args.tol is not None:
        tol = {code: args.tol for code in DEFAULT_TOLERANCES}
    report = lowpass_report(pair, tol)
    write_json(args.report, report)
    if not report["ok"]:
        names = ", ".join(report["violations"])
        print(f"verification failed: condition(s) {names}", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def _cmd_packets(args) -> int:
    from .filters import TranslationSet
    from .io import read_signal_csv, write_json, write_signal_csv
    from .packets import generate_packets
    from .reports import packet_gram_report
    from .wavelets import default_time_grid, haar_filter_bank

    ts = TranslationSet(N=args.N, r=args.r)
    m = _parse_matrix(args.matrix)
    if args.packets_command == "gen":
        bank = haar_filter_bank(ts, m)
        grid = default_time_grid(ts, window=_parse_window(args.window), target_step=args.step)
        # oversample 1 keeps every packet in the band the Gram quadrature resolves
        nodes = generate_packets(args.n_max, bank, grid=grid, oversample=1)
        out = Path(args.out_dir)
        for node in nodes:
            write_signal_csv(out / f"packet_{node.index.n}.csv", node.signal)
        return EXIT_OK

    window = _parse_window(args.window)
    nodes_dir = Path(args.nodes)
    signals = []
    n = 0
    while (nodes_dir / f"packet_{n}.csv").exists():
        signals.append(read_signal_csv(nodes_dir / f"packet_{n}.csv"))
        n += 1
    if not signals:
        print(f"no packet_*.csv files in {nodes_dir}", file=sys.stderr)
        return EXIT_USAGE
    report = packet_gram_report(signals, ts, m, window, args.tol)
    write_json(args.report, report)
    if not report["ok"]:
        print(f"verification failed: gram residual {report['max_off_identity']:.3e}",
              file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def _cmd_project(args) -> int:
    from .filters import TranslationSet
    from .io import read_signal_csv, write_signal_csv
    from .wavelets import _require_lowpass, haar_filter_bank, haar_scaling, project

    ts = TranslationSet(N=args.N, r=args.r)
    m = _parse_matrix(args.matrix)
    window = _parse_window(args.window)
    f = read_signal_csv(args.infile)
    # haar_family's refusals without its cascade: an admissible closed-form low-pass has
    # every lattice phase 1, so its scaling function is the indicator for any matrix
    _require_lowpass(haar_filter_bank(ts, m)[0])
    result = project(f, haar_scaling(ts), ts, m, args.level, window)
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    write_signal_csv(args.out, result.signal)
    return EXIT_OK


def _cmd_crosscheck(args) -> int:
    from .io import write_json
    from .reports import anomalous_n2_report

    report = anomalous_n2_report(step=args.step)
    write_json(args.out, report)
    return EXIT_OK


_HANDLERS = {
    "matrix": _cmd_matrix,
    "lct": _cmd_lct,
    "haar": _cmd_haar,
    "cascade": _cmd_cascade,
    "verify": _cmd_verify,
    "packets": _cmd_packets,
    "project": _cmd_project,
    "crosscheck": _cmd_crosscheck,
}


def main(argv=None) -> int:
    _apply_thread_cap()
    parser = build_parser()
    try:
        args = parser.parse_args(_join_list_values(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (OSError, ValueError, RuntimeError) as exc:
        from .filters import FilterConditionError
        from .wavelets import ConvergenceError

        if isinstance(exc, (FilterConditionError, ConvergenceError)):
            print(f"verification failed: {exc}", file=sys.stderr)
            return EXIT_VERIFICATION
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
