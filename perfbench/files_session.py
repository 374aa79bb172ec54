"""Workload ``files_session``: CLI commands on files, one process per job.

``io``, ``cli`` and ``reports`` do most of the work, and the ``filters``
layer is used through stored samples rather than closed forms.  Each CLI
job runs ``python -m lct_numra.cli`` as its own process, as the CLI is
used, so no in-process cache carries over between commands and
interpreter start and import are part of every job.  A round runs, in
order:

- ``lct fwd`` on a seeded 2^17-row signal CSV;
- ``lct inv`` without ``--t-grid``, from a centred source and from a
  source sampled on [0, 8);
- ``haar --N 1``, then ``verify`` and ``cascade`` on the ``filters_0.csv``
  it wrote (the nearest-sample stored-filter path);
- ``packets gram`` over packet files written at set-up;
- ``crosscheck``, whose report must be byte-identical to the in-process
  report (AC-12);
- in-process library steps on the same filter file: ``read_filter_csv``,
  ``complete_filters``, ``bank_report`` (AC-08) and ``write_filter_csv``.

At 2^17 rows the three ``lct`` commands and ``packets gram`` (mostly CSV
reading and writing) take more of a round than ``haar`` and ``cascade``
(mostly hat evaluation).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from harness import Check, Job, Outcome
from seeded import chirped_gaussians, digest, frft_angle, haar_matrix, stream

from lct_numra import canonical
from lct_numra.filters import TranslationSet, complete_filters, filter_eval
from lct_numra.io import (
    read_filter_csv,
    read_json,
    read_signal_csv,
    read_spectrum_csv,
    write_filter_csv,
    write_signal_csv,
    write_spectrum_csv,
)
from lct_numra.lct import lct_fast
from lct_numra.packets import digits, packet_hat
from lct_numra.reports import anomalous_n2_report, bank_report, lowpass_report
from lct_numra.sampling import Grid, SampledSignal, numra_grid
from lct_numra.wavelets import cascade, haar_filter_bank, haar_scaling, l2_distance_off_jumps

NAME = "files_session"

LCT_TOL = 1e-6           # AC-02 round trip; also CLI fwd against the library
REPORT_TOL = 1e-10       # AC-04/AC-08 filter residuals
SCALING_TOL = 1e-2       # AC-05, jump cells excluded
GRAM_TOL = 1e-3          # AC-10, the CLI default
PACKET_WINDOW = (-4.0, 5.0)
PACKET_MAX = 3
GRAM_LAMBDAS = "-2,2.0001"
PROBE_REPS = 3


@dataclass(frozen=True)
class Config:
    rows_exponent: int
    packet_refinement: int


CONFIGS = {"full": Config(17, 4096), "probe": Config(12, 512), "tiny": Config(10, 64)}
ROUND_SECONDS = 8.5


def _matrix_arg(m) -> str:
    return ",".join(repr(x) for x in m.as_tuple())


def _file_bytes(*paths) -> int:
    total = 0
    for p in paths:
        total += p.stat().st_size
        sidecar = p.with_suffix(".json")
        if sidecar != p and sidecar.exists():
            total += sidecar.stat().st_size
    return total


def setup(ctx, cfg: Config) -> dict:
    tr = ctx.tracer
    d = ctx.workdir / "session"
    rng = stream(ctx.seed, "files.inputs")
    m_lct = tr.call("canonical.frft", canonical.frft, frft_angle(rng, +1))
    m_haar = tr.call("canonical.CanonicalMatrix", canonical.CanonicalMatrix, *haar_matrix(rng))
    n = 2**cfg.rows_exponent
    centred = tr.call("sampling.Grid", Grid, -8.0, 16.0 / n, n)
    offset = tr.call("sampling.Grid", Grid, 0.0, 8.0 / n, n)
    sig_c = SampledSignal(centred, chirped_gaussians(centred.points(), rng))
    sig_0 = SampledSignal(offset, chirped_gaussians(offset.points(), rng, centre=4.0,
                                                    spread=1.0, widths=(0.3, 0.6)))
    spec_c = tr.call("lct.lct_fast", lct_fast, sig_c, m_lct, _attrs={"label": "files"})
    spec_0 = tr.call("lct.lct_fast", lct_fast, sig_0, m_lct, _attrs={"label": "files"})
    paths = {k: d / f"{k}.csv" for k in ("sig_c", "spec_c", "spec_0")}
    tr.call("io.write_signal_csv", write_signal_csv, paths["sig_c"], sig_c)
    tr.call("io.write_spectrum_csv", write_spectrum_csv, paths["spec_c"], spec_c)
    tr.call("io.write_spectrum_csv", write_spectrum_csv, paths["spec_0"], spec_0)

    # N = 1 packets 0..3 on an AC-10-style grid (oversample 1)
    ts = tr.call("filters.TranslationSet", TranslationSet, 1, 1)
    bank = tr.call("wavelets.haar_filter_bank", haar_filter_bank, ts, m_haar)
    pgrid = tr.call("sampling.numra_grid", numra_grid, ts, PACKET_WINDOW,
                    refinement=cfg.packet_refinement)
    sc = tr.call("wavelets.cascade", cascade, bank[0], J=20, tol=1e-5, grid=pgrid, oversample=1)
    for k in range(PACKET_MAX + 1):
        node = tr.call("packets.packet_hat", packet_hat, digits(k, 1), bank, scaling=sc,
                       grid=pgrid, oversample=1)
        tr.call("io.write_signal_csv", write_signal_csv, d / "packets" / f"packet_{k}.csv",
                node.signal)

    crosscheck = json.dumps(tr.call("reports.anomalous_n2_report", anomalous_n2_report),
                            sort_keys=True, indent=2) + "\n"
    # warm-up: one CLI process start brings the interpreter and package into the page cache
    tr.call("cli.startup", ctx.cli, ["matrix", f"--matrix={_matrix_arg(m_haar)}"])
    return {
        "cfg": cfg, "dir": d, "paths": paths, "m_lct": _matrix_arg(m_lct),
        "m_haar": _matrix_arg(m_haar), "sig_c": sig_c, "sig_0": sig_0, "spec_c": spec_c,
        "crosscheck": crosscheck.encode(),
        "digest": digest(sig_c.values, sig_0.values, np.array(m_haar.as_tuple())),
    }


def _rel(got: np.ndarray, ref: np.ndarray) -> float:
    if got.shape != ref.shape:
        return float("inf")
    return float(np.linalg.norm(got - ref) / np.linalg.norm(ref))


def _exit_failure(proc) -> Check | None:
    if proc.returncode != 0:
        err = proc.stderr.strip().splitlines()[-1:] or [""]
        return Check(False, f"exit {proc.returncode}: {err[0]}")
    return None


def round_jobs(ctx, state: dict, index: int) -> list[Job]:
    tr = ctx.tracer
    d = state["dir"]
    p = state["paths"]
    out = d / "out"
    hdir = out / "haar"
    filters0 = hdir / "filters_0.csv"

    def written(*paths):
        ctx.tracer.value("io.bytes_written", _file_bytes(*paths), round=index)

    def cli_job(kind, span, args, check, attribute=lambda err, chk: None):
        """A CLI job; ``check`` sees only processes that exited with code 0."""
        return Job(kind, lambda: tr.call(span, ctx.cli, args),
                   lambda proc: _exit_failure(proc) or check(proc), attribute)

    def check_fwd(proc):
        written(out / "fwd.csv")
        spec = read_spectrum_csv(out / "fwd.csv")
        ref = state["spec_c"]
        err = _rel(spec.values, ref.values)
        grid_ok = spec.grid == ref.grid
        return Check(err <= LCT_TOL and grid_ok,
                     f"fwd vs library {err:.3e} (tol {LCT_TOL:g}), grid match {grid_ok}", err)

    def check_inv(name, ref):
        def check(proc):
            written(out / f"{name}.csv")
            back = read_signal_csv(out / f"{name}.csv")
            err = _rel(back.values, ref.values)
            return Check(err <= LCT_TOL, f"{name} round trip {err:.3e} (tol {LCT_TOL:g})", err)
        return check

    def check_haar(proc):
        written(*sorted(hdir.glob("*.csv")), hdir / "verify.json")
        report = read_json(hdir / "verify.json")
        worst = max(report["residuals"].values())
        return Check(report["ok"] and worst <= REPORT_TOL,
                     f"haar bank worst residual {worst:.3e} (tol {REPORT_TOL:g})", worst)

    def check_verify(proc):
        written(out / "verify.json")
        report = read_json(out / "verify.json")
        worst = max(report["residuals"].values())
        return Check(report["ok"] and worst <= REPORT_TOL,
                     f"stored filter worst residual {worst:.3e} (tol {REPORT_TOL:g})", worst)

    def check_cascade(proc):
        written(out / "phi.csv")
        phi = read_signal_csv(out / "phi.csv")
        ref = haar_scaling(TranslationSet(1, 1), phi.grid)
        err = l2_distance_off_jumps(phi, ref, jumps=[0.0, 1.0])
        return Check(err <= SCALING_TOL,
                     f"stored-filter cascade vs indicator {err:.3e} (tol {SCALING_TOL:g})", err)

    def check_gram(proc):
        written(out / "gram.json")
        report = read_json(out / "gram.json")
        off = report["max_off_identity"]
        return Check(report["ok"] and off <= GRAM_TOL,
                     f"packet gram {off:.3e} (tol {GRAM_TOL:g})", off)

    def check_crosscheck(proc):
        written(out / "crosscheck.json")
        same = (out / "crosscheck.json").read_bytes() == state["crosscheck"]
        return Check(same, f"crosscheck byte-identical to the in-process report: {same}")

    def complete():
        pair = tr.call("io.read_filter_csv", read_filter_csv, filters0)
        high = tr.call("filters.complete_filters", complete_filters, pair)
        report = tr.call("reports.bank_report", bank_report, [pair] + high)
        paths = [out / "completed" / f"filters_{k}.csv" for k in range(1, len(high) + 1)]
        for path, h in zip(paths, high):
            tr.call("io.write_filter_csv", write_filter_csv, path, h)
        return report, paths, high

    def check_complete(result):
        report, paths, high = result
        written(*paths)
        worst = max(report["residuals"].values())
        same = all(np.array_equal(read_filter_csv(path).comp1, h.comp1)
                   and np.array_equal(read_filter_csv(path).comp2, h.comp2)
                   for path, h in zip(paths, high))
        return Check(report["ok"] and worst <= REPORT_TOL and same,
                     f"completed bank worst residual {worst:.3e} (tol {REPORT_TOL:g}), "
                     f"CSV round trip exact: {same}", worst)

    m_lct, m_haar = state["m_lct"], state["m_haar"]
    inv = ["lct", "inv", f"--matrix={m_lct}", "--method", "fast"]
    return [
        cli_job("cli.lct_fwd", "cli.lct_fwd",
                ["lct", "fwd", f"--matrix={m_lct}", "--in", str(p["sig_c"]),
                 "--out", str(out / "fwd.csv")], check_fwd),
        cli_job("cli.lct_inv.centred", "cli.lct_inv",
                inv + ["--in", str(p["spec_c"]), "--out", str(out / "inv_c.csv")],
                check_inv("inv_c", state["sig_c"])),
        cli_job("cli.lct_inv.offset", "cli.lct_inv",
                inv + ["--in", str(p["spec_0"]), "--out", str(out / "inv_0.csv")],
                check_inv("inv_0", state["sig_0"]),
                lambda err, chk: "cli-inv-without-t-grid"),
        cli_job("cli.haar", "cli.haar",
                ["haar", "--N", "1", f"--matrix={m_haar}", "--out-dir", str(hdir)], check_haar),
        cli_job("cli.verify", "cli.verify",
                ["verify", "--filters", str(filters0), "--report", str(out / "verify.json")],
                check_verify),
        cli_job("cli.cascade", "cli.cascade",
                ["cascade", "--filters", str(filters0), "--out", str(out / "phi.csv")],
                check_cascade),
        cli_job("cli.packets_gram", "cli.packets_gram",
                ["packets", "gram", "--nodes", str(d / "packets"), f"--window={GRAM_LAMBDAS}",
                 f"--matrix={m_haar}", "--N", "1", "--report", str(out / "gram.json")],
                check_gram),
        cli_job("cli.crosscheck", "cli.crosscheck",
                ["crosscheck", "--out", str(out / "crosscheck.json")], check_crosscheck),
        Job("lib.complete_filters", complete, check_complete),
    ]


def once_checks(ctx, state: dict) -> list[Outcome]:
    return []


def probes(ctx, state: dict) -> None:
    """Layers the CLI jobs reach only inside their child processes."""
    tr = ctx.tracer
    d = state["dir"] / "probe"
    sig = state["sig_c"]
    path = d / "signal.csv"
    write_signal_csv(path, sig)  # untraced: learns the size the traced calls move
    size = _file_bytes(path)
    for _ in range(PROBE_REPS):
        tr.call("io.write_signal_csv", write_signal_csv, path, sig, _attrs={"bytes": size})
        tr.call("io.read_signal_csv", read_signal_csv, path, _attrs={"bytes": size})
    pair = tr.call("io.read_filter_csv", read_filter_csv,
                   state["dir"] / "out" / "haar" / "filters_0.csv")
    u = np.linspace(-8.0, 8.0, 2**20, endpoint=False)
    for _ in range(PROBE_REPS):
        tr.call("filters.filter_eval", filter_eval, pair, u,
                _attrs={"kind": "stored", "points": u.size})
        tr.call("reports.lowpass_report", lowpass_report, pair)
        tr.call("cli.startup", ctx.cli, ["matrix", "--matrix=0,1,-1,0"])
