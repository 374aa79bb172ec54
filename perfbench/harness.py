"""Closed-loop runner shared by the three workloads.

A workload module provides:

- ``NAME``: the workload name;
- ``CONFIGS``: sizes for the ``full``, ``probe`` and ``tiny`` scales;
- ``ROUND_SECONDS``: wall time of one full-scale round on the reference
  host (2-core Xeon, one BLAS thread), which sets the number of rounds;
- ``setup(ctx, cfg) -> state``: seeded inputs plus warm-up;
- ``round_jobs(ctx, state, index) -> list[Job]``: one round covers the
  whole job mix once, so failure rates and quantiles do not depend on
  where a run stops;
- ``once_checks(ctx, state) -> list[Outcome]``: checks made once per run;
- ``probes(ctx, state)``: extra direct calls made only by the traced run.

One caller runs jobs back to back (closed loop, one client).  Each job is
timed alone; its output is checked afterwards, outside the timed span and
without tracing.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from spans import NullTracer, Tracer

#: Set-up is repeated at least ``SETUP_MIN_REPS`` times per run, and more
#: (up to ``SETUP_MAX_REPS``) while the repetitions so far took less than
#: ``SETUP_MIN_SECONDS``, so a cheap set-up gets a steadier median; ``setup_s``
#: is the median.
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 9
SETUP_MIN_SECONDS = 3.0

#: Jobs needed before ``job_p90_ms`` has at least ten samples beyond it.
P90_MIN_JOBS = 100

#: Known defects a failed job may be attributed to.  Any other failure is
#: "unexpected" and makes the run incorrect.
KNOWN_CAUSES = {
    "lct-precision-drift": "fast round trip with d != 0 drifts past 1e-6 as n grows",
    "lct-b-negative-grid": "for b < 0 lct_fast labels its grid one step off, ilct(fast) raises",
    "cli-inv-without-t-grid": "lct inv without --t-grid rebuilds a centred grid for an offset source",
    "haar-r-not-1": "r != 1 closed-form bank cascades to a non-indicator; Gram and basis miss 1e-3",
}


@dataclass
class Check:
    """Outcome of one correctness check: pass flag, a short detail, the measured value."""

    ok: bool
    detail: str = ""
    value: float | None = None


@dataclass
class Job:
    """One user-level request: timed work, its check, and its known defect.

    ``run`` does the timed work and returns its output; ``check`` judges
    that output.  ``attribute(error, check)`` names the known defect a
    failure of this job shows, or None when the failure is unexplained.
    """

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], Check]
    attribute: Callable[[BaseException | None, Check | None], str | None] = (
        lambda err, chk: None
    )


@dataclass
class Outcome:
    kind: str
    seconds: float
    ok: bool
    cause: str | None = None
    detail: str = ""


@dataclass
class Ctx:
    """Run-wide settings handed to every workload function."""

    seed: int
    scale: str
    root: Path
    workdir: Path
    env: dict
    tracer: Any = field(default_factory=NullTracer)

    def cli(self, args: list[str], timeout: float = 150.0) -> subprocess.CompletedProcess:
        """Run one ``python -m lct_numra.cli`` command as its own process."""
        return subprocess.run(
            [sys.executable, "-m", "lct_numra.cli", *args],
            cwd=self.workdir,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


_IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import lct_numra, lct_numra.cli, lct_numra.io, lct_numra.reports\n"
    "print(time.perf_counter() - t)\n"
)


def child_import_seconds(ctx: Ctx) -> float:
    """Import time of the package in a fresh interpreter (numpy included)."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        cwd=ctx.workdir, env=ctx.env, capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"importing lct_numra failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip())


def run_job(ctx: Ctx, job: Job, job_id: str) -> Outcome:
    tr = ctx.tracer
    tr.job = job_id
    with tr.span("job", kind=job.kind):
        t0 = time.perf_counter()
        try:
            out = job.run()
            err = None
        except Exception as exc:  # a raising job is a failed job; the run goes on
            tb = traceback.format_exc(limit=3)
            # dropping the traceback frees the job's arrays now; kept, it would
            # hold them in a reference cycle until the next garbage collection
            out, err = None, exc.with_traceback(None)
        seconds = time.perf_counter() - t0
    tr.job = None
    if err is not None:
        chk = None
        detail = f"raised {type(err).__name__}: {err}"
    else:
        chk = job.check(out)
        detail = chk.detail
    del out
    if chk is not None and chk.ok:
        return Outcome(job.kind, seconds, True, None, detail)
    cause = job.attribute(err, chk) or "unexpected"
    if cause == "unexpected" and err is not None:
        detail += "\n" + tb
    return Outcome(job.kind, seconds, False, cause, detail)


def round_count(mod, seconds: float) -> int:
    """Rounds that fill ``seconds`` on the reference host (at least one).

    The count depends on ``seconds`` alone, not on how fast this run goes,
    so every run with the same arguments attempts the same jobs, and the
    same seed gives the same failures.
    """
    return max(1, round(seconds / mod.ROUND_SECONDS))


def timed_rounds(ctx: Ctx, mod, state, rounds: int):
    """Run ``rounds`` whole rounds; return the outcomes and each round's job seconds."""
    outcomes: list[Outcome] = []
    round_seconds: list[float] = []
    for index in range(rounds):
        jobs = mod.round_jobs(ctx, state, index)
        done = [run_job(ctx, job, f"r{index}.j{k}.{job.kind}") for k, job in enumerate(jobs)]
        outcomes += done
        round_seconds.append(sum(o.seconds for o in done))
    return outcomes, round_seconds


def untraced_round(ctx: Ctx, mod, state) -> float:
    """Job seconds of round 0 run without tracing (outcomes discarded)."""
    tracer, ctx.tracer = ctx.tracer, NullTracer()
    try:
        return timed_rounds(ctx, mod, state, 1)[1][0]
    finally:
        ctx.tracer = tracer


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak of any finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def quantile(values: list[float], q: int) -> float:
    """q-th percentile (q in 1..99), linear interpolation between samples.

    The default ("exclusive") method of ``statistics.quantiles`` puts the
    90th percentile of a round-based job mix inside the block of the
    slowest job kind rather than on the edge between two kinds.
    """
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(outcomes: list[Outcome], setup_seconds: list[float]) -> dict:
    lat_ms = [1e3 * o.seconds for o in outcomes]
    failed = sum(not o.ok for o in outcomes)
    return {
        "setup_s": (statistics.median(setup_seconds), "s", len(setup_seconds)),
        "job_p50_ms": (quantile(lat_ms, 50), "ms", len(lat_ms)),
        "job_p90_ms": (quantile(lat_ms, 90), "ms", len(lat_ms)),
        "jobs_per_s": (len(outcomes) / sum(o.seconds for o in outcomes), "1/s", len(outcomes)),
        "error_rate": (failed / len(outcomes), "ratio", len(outcomes)),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
    }


def do_setup(ctx: Ctx, mod, cfg) -> tuple[Any, list[float]]:
    """Repeat the full set-up; return the last state and each repetition's seconds."""
    times = []
    state = None
    rep = 0
    while rep < SETUP_MIN_REPS or (rep < SETUP_MAX_REPS and sum(times) < SETUP_MIN_SECONDS):
        ctx.tracer.job = f"setup{rep}"
        t0 = time.perf_counter()
        import_s = child_import_seconds(ctx)
        ctx.tracer.value("setup.import_ms", 1e3 * import_s)
        state = None  # drop the previous repetition's inputs before rebuilding
        state = mod.setup(ctx, cfg)
        times.append(time.perf_counter() - t0)
        rep += 1
    ctx.tracer.job = None
    return state, times


def run_workload(mod, *, seed: int, seconds: float, trace: bool, scale: str, root: Path,
                 all_modules: dict) -> dict:
    """Run one workload; return metrics, outcomes and bookkeeping as a dict."""
    base = root / ".perfbench"
    workdir = base / f"work-{mod.NAME}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    tracer = Tracer() if trace else NullTracer()
    ctx = Ctx(seed=seed, scale=scale, root=root, workdir=workdir, env=child_env(root),
              tracer=tracer)
    try:
        cfg = mod.CONFIGS[scale]
        state, setup_times = do_setup(ctx, mod, cfg)
        if trace:
            # one untraced round first, so the traced rounds do not pay first-round costs
            untraced_round(ctx, mod, state)
        outcomes, round_seconds = timed_rounds(ctx, mod, state, round_count(mod, seconds))
        if trace:
            # round 0 again, untraced and warm, is the baseline of the tracing overhead
            baseline = untraced_round(ctx, mod, state)
            tracer.value("trace.overhead_pct",
                         100.0 * (statistics.median(round_seconds) / baseline - 1.0))
        result = {
            "outcomes": outcomes,
            "checks": mod.once_checks(ctx, state),
            "setup_times": setup_times,
            "e2e": end_to_end(outcomes, setup_times),
            "inputs": state["digest"],
        }
        if trace:
            from metrics import per_layer, run_foreign_probes

            tracer.job = "probe"
            mod.probes(ctx, state)
            run_foreign_probes(ctx, mod, all_modules)
            result["per_layer"] = per_layer(tracer)
            result["tracer"] = tracer
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
