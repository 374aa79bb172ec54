"""Workload ``lct_roundtrip``: one ``lct_fast`` plus one ``ilct(method="fast")`` per job.

The ``lct`` layer does nearly all the work; filters, wavelets, packets and
io do none.  Grids are centred on [-8, 8) with 2^14, 2^17 and 2^20
samples; the 16 MiB arrays at 2^20 exceed the L2 cache.  Each round runs
every matrix on every grid, drawing signals from a small per-grid pool,
so (grid, matrix) pairs repeat within and across rounds and plan reuse
can show.  The inverse is called as "fast" on purpose: the b < 0 grid
defect then shows as failed jobs, not as a silent O(n^2) fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from harness import Check, Job, Outcome
from seeded import chirped_gaussians, digest, frft_angle, stream

from lct_numra import canonical
from lct_numra.lct import ilct, lct_direct, lct_fast
from lct_numra.sampling import Grid, SampledSignal

NAME = "lct_roundtrip"

#: AC-01 and AC-02 bound on relative L2 error.
TOL = 1e-6
#: A d != 0 round trip error below this is precision drift, not a broken path.
DRIFT_CEILING = 1e-3
WINDOW = (-8.0, 8.0)
FFT_FLOOR_REPS = 5


@dataclass(frozen=True)
class Config:
    exponents: dict      # size label -> log2 of the sample count
    per_round: dict      # size label -> jobs per matrix per round
    pool: dict           # size label -> distinct signals on that grid
    matrices: tuple      # matrix keys run each round
    oracle_exponent: int


_LABELS = ("n14", "n17", "n20")
_ALL = ("fourier", "fresnel", "m2111", "frft_pos", "frft_neg")

CONFIGS = {
    # Per matrix and round: fifteen 2^14, one 2^17 and two 2^20 jobs.  The
    # b < 0 jobs raise half-way and are the fastest of their size, so p50
    # falls among the full 2^14 round trips (83 % of jobs are 2^14), p90
    # among the Fourier and b < 0 2^20 jobs, and 2^20 dominates the time.
    "full": Config(dict(zip(_LABELS, (14, 17, 20))), dict(zip(_LABELS, (15, 1, 2))),
                   dict(zip(_LABELS, (8, 3, 2))), _ALL, 11),
    "probe": Config(dict(zip(_LABELS, (14, 17, 20))), dict(zip(_LABELS, (1, 1, 1))),
                    dict(zip(_LABELS, (1, 1, 1))), ("m2111",), 11),
    "tiny": Config(dict(zip(_LABELS, (8, 9, 10))), dict(zip(_LABELS, (1, 1, 1))),
                   dict(zip(_LABELS, (1, 1, 1))), _ALL, 8),
}


ROUND_SECONDS = 5.6


def _grid(tr, exponent: int) -> Grid:
    n = 2**exponent
    lo, hi = WINDOW
    return tr.call("sampling.Grid", Grid, lo, (hi - lo) / n, n)


def _matrices(ctx, keys) -> dict:
    tr = ctx.tracer
    rng = stream(ctx.seed, "lct.matrices")
    theta_pos = frft_angle(rng, +1)
    theta_neg = frft_angle(rng, -1)
    build = {
        "fourier": lambda: tr.call("canonical.fourier", canonical.fourier),
        "fresnel": lambda: tr.call("canonical.fresnel", canonical.fresnel, 1.0),
        "m2111": lambda: tr.call("canonical.CanonicalMatrix", canonical.CanonicalMatrix,
                                 2.0, 1.0, 1.0, 1.0),
        "frft_pos": lambda: tr.call("canonical.frft", canonical.frft, theta_pos),
        "frft_neg": lambda: tr.call("canonical.frft", canonical.frft, theta_neg),
    }
    return {key: build[key]() for key in keys}


def _roundtrip(tr, f: SampledSignal, m, label: str) -> SampledSignal:
    spec = tr.call("lct.lct_fast", lct_fast, f, m, _attrs={"label": label})
    return tr.call("lct.ilct", ilct, spec, m, f.grid, method="fast", _attrs={"label": label})


def rel_l2(got: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(got - ref) / np.linalg.norm(ref))


def setup(ctx, cfg: Config) -> dict:
    tr = ctx.tracer
    mats = _matrices(ctx, cfg.matrices)
    pools = {}
    for label, exponent in cfg.exponents.items():
        grid = _grid(tr, exponent)
        rng = stream(ctx.seed, f"lct.signals.{label}")
        t = grid.points()
        pools[label] = [
            tr.call("sampling.SampledSignal", SampledSignal, grid, chirped_gaussians(t, rng))
            for _ in range(cfg.pool[label])
        ]
    # warm-up: one round trip per grid lets numpy build its FFT plans
    warm = tr.call("canonical.fourier", canonical.fourier)
    for label, pool in pools.items():
        _roundtrip(tr, pool[0], warm, label)
    arrays = [np.array([m.as_tuple() for m in mats.values()])]
    arrays += [s.values for pool in pools.values() for s in pool]
    return {"cfg": cfg, "mats": mats, "pools": pools, "digest": digest(*arrays)}


def _job(ctx, key: str, m, label: str, f: SampledSignal) -> Job:
    tr = ctx.tracer

    def check(back) -> Check:
        if back.grid != f.grid:
            return Check(False, f"output grid {back.grid} != input grid {f.grid}")
        err = rel_l2(back.values, f.values)
        ctx.tracer.value("lct.roundtrip_err", err, label=label)
        return Check(err <= TOL, f"{key} {label} round trip {err:.3e} (tol {TOL:g})", err)

    def attribute(err, chk):
        if err is not None:
            grid_raise = isinstance(err, ValueError) and "induced frequency grid" in str(err)
            return "lct-b-negative-grid" if m.b < 0 and grid_raise else None
        if m.d != 0.0 and chk.value is not None and chk.value <= DRIFT_CEILING:
            return "lct-precision-drift"
        return None

    return Job(f"{label}.{key}", lambda: _roundtrip(tr, f, m, label), check, attribute)


def round_jobs(ctx, state: dict, index: int) -> list[Job]:
    cfg = state["cfg"]
    small, large = [], []
    for key, m in state["mats"].items():
        for label, pool in state["pools"].items():
            k = cfg.per_round[label]
            for s in range(k):
                job = _job(ctx, key, m, label, pool[(index * k + s) % len(pool)])
                (small if label == _LABELS[0] else large).append(job)
    # the short 2^14 jobs set p50; spread evenly between the long ones, they
    # sample the host across the whole round, not in one burst per matrix
    step = -(-len(small) // len(large))
    jobs = []
    for i, job in enumerate(large):
        jobs += [job, *small[i * step:(i + 1) * step]]
    return jobs + small[len(large) * step:]


def once_checks(ctx, state: dict) -> list[Outcome]:
    """AC-01: lct_fast against the lct_direct quadrature oracle, every matrix."""
    tr = ctx.tracer
    cfg = state["cfg"]
    grid = _grid(tr, cfg.oracle_exponent)
    f = SampledSignal(grid, chirped_gaussians(grid.points(), stream(ctx.seed, "lct.oracle")))
    label = f"n{cfg.oracle_exponent}"
    out = []
    for key, m in state["mats"].items():
        fast = tr.call("lct.lct_fast", lct_fast, f, m, _attrs={"label": label})
        direct = tr.call("lct.lct_direct", lct_direct, f, m, fast.grid, _attrs={"label": label})
        err = rel_l2(fast.values, direct.values)
        tr.value("lct.oracle_err", err)
        ok = err <= TOL
        out.append(Outcome(f"oracle.{key}", 0.0, ok, None if ok else "unexpected",
                           f"{key} fast vs direct {err:.3e} (tol {TOL:g})"))
    return out


def probes(ctx, state: dict) -> None:
    """Bare FFT floor per grid, and the computed FFT work at the largest grid."""
    tr = ctx.tracer
    for label, pool in state["pools"].items():
        x = pool[0].values
        for _ in range(FFT_FLOOR_REPS):
            tr.call("lct.fft_floor", np.fft.fft, x, _attrs={"label": label})
    n = state["pools"]["n20"][0].grid.count
    # computed, not measured: 5 n log2 n flops for one complex FFT, and
    # three streaming passes (chirp, FFT, chirp), each reading and writing
    # n complex128 values, for one chirp-FFT-chirp transform
    tr.value("lct.fft_flops_computed", 5 * n * math.log2(n), label="n20")
    tr.value("lct.bytes_moved_computed", 3 * 2 * 16 * n, label="n20")
