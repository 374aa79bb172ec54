"""Workload ``packet_tree``: certify one N = 2 wavelet packet tree per job.

``filters``, ``wavelets``, ``packets`` and ``sampling.gram_matrix`` do nearly
all the work; ``lct`` and ``io`` do none.  A round certifies one tree for
each admissible r in {1, 3}, each with its own seeded matrix from the
family the closed-form bank admits (8a/b an integer, b != 0).

Every tree is certified on the AC-10 grid (``numra_grid((-5, 7),
refinement=4096)``, oversample 1); at refinement 1024 even r = 1 misses
1e-3.  Steps: the closed-form bank, the cascade, packets 0..4, their Gram
(AC-10), the fold sums of packet 1, and a parent/children basis (packet 0
one level finer against its children 0..3) that is certified, analysed
and synthesised (AC-11).  The parent is packet 0 rather than packet 1: the
basis then reuses packets 0..3 instead of synthesising 4..7 as well, and
it certifies from refinement 1024 on (packet 1's basis needs 4096), which
keeps the probe scale small.  The translate windows of the two bases are
kept narrow (10 atoms in all); the packet hats, not the atom count, set
the cost of certifying, and one tree takes about 9 s on the reference host.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from harness import Check, Job, Outcome
from seeded import digest, haar_matrix, stream

from lct_numra import canonical
from lct_numra.filters import TranslationSet, filter_eval, omega_enumerate
from lct_numra.packets import (
    BasisElement,
    PacketBasis,
    UncertifiedBasisError,
    digits,
    fold_residuals,
    packet_analyze,
    packet_gram,
    packet_hat,
    packet_synthesize,
)
from lct_numra.sampling import SampledSignal, gram_matrix, norm, numra_grid
from lct_numra.wavelets import (
    cascade,
    frequency_samples,
    haar_filter_bank,
    haar_scaling,
    haar_support_intervals,
    hat_to_signal,
    l2_distance_off_jumps,
)

NAME = "packet_tree"

N = 2
R_VALUES = (1, 3)
GRAM_TOL = 1e-3          # AC-10
SCALING_TOL = 1e-2       # AC-05, jump cells excluded
SPLIT_TOL = 2e-3         # AC-11 parent-vs-children reconstruction
ENERGY_TOL = 1e-3        # AC-11 energy conservation
FOLD_TOL = 1e-3          # folded power sums of a packet
WINDOW = (-5.0, 7.0)
GRAM_LAMBDAS = (-4.0, 4.0 + 1e-9)
PARENT_LAMBDAS = (-1.0, 1.0)
CHILD_LAMBDAS = (-1.0, 2.0)
GRAM_NODES = 5
FOLD_NODE = 1
PARENT = 0
CHILDREN = (0, 1, 2, 3)


@dataclass(frozen=True)
class Config:
    refinement: int


# the bases certify from refinement 1024 on, so the smaller scales still reach
# analysis and synthesis (the Gram needs the full 4096)
CONFIGS = {"full": Config(4096), "probe": Config(1024), "tiny": Config(1024)}
ROUND_SECONDS = 17.0
WARM = Config(16)


def _tree(ctx, cfg: Config, r: int, m, coeff_rng: np.random.Generator,
          stash: dict | None = None) -> dict:
    """All steps of one certification; returns what the check needs.

    In the traced run, ``stash`` receives the r = 1 inputs the probes reuse.
    """
    tr = ctx.tracer
    ts = tr.call("filters.TranslationSet", TranslationSet, N, r)
    bank = tr.call("wavelets.haar_filter_bank", haar_filter_bank, ts, m)
    grid = tr.call("sampling.numra_grid", numra_grid, ts, WINDOW, refinement=cfg.refinement)
    sc = tr.call("wavelets.cascade", cascade, bank[0], J=20, tol=1e-5, grid=grid, oversample=1)
    tr.value("wavelets.cascade.tail_deviation", sc.tail_deviation)
    nodes = [
        tr.call("packets.packet_hat", packet_hat, tr.call("packets.digits", digits, n, N), bank,
                scaling=sc, grid=grid, oversample=1)
        for n in range(GRAM_NODES)
    ]
    _, gram_off = tr.call("packets.packet_gram", packet_gram, nodes, ts, m, GRAM_LAMBDAS)
    tr.value("packets.gram_off_identity", gram_off)
    fold = tr.call("packets.fold_residuals", fold_residuals, nodes[FOLD_NODE], ts, oversample=1)

    def basis(packets, level, window):
        lams = tr.call("filters.omega_enumerate", omega_enumerate, ts, window)
        b = PacketBasis(ts, m, [BasisElement(nodes[n], level, float(lam))
                                for n in packets for lam in lams])
        return b, tr.call("packets.PacketBasis.certify", b.certify)

    parent, parent_res = basis([PARENT], 1, PARENT_LAMBDAS)
    children, child_res = basis(CHILDREN, 0, CHILD_LAMBDAS)
    tr.value("packets.atoms", len(parent.elements) + len(children.elements))
    if tr.enabled and stash is not None and r == 1:
        stash["probe_inputs"] = {"system": children.signals(), "cascade": sc, "bank": bank,
                                 "grid": grid}
    atoms = parent.signals()
    coeff = coeff_rng.normal(size=len(atoms)) + 1j * coeff_rng.normal(size=len(atoms))
    f = SampledSignal(grid, sum(c * a.values for c, a in zip(coeff, atoms)))
    rec_parent = tr.call("packets.packet_synthesize", packet_synthesize,
                         tr.call("packets.packet_analyze", packet_analyze, f, parent), parent)
    table = tr.call("packets.packet_analyze", packet_analyze, f, children)
    rec_children = tr.call("packets.packet_synthesize", packet_synthesize, table, children)
    return {
        "ts": ts, "phi": sc.signal, "gram_off": gram_off, "fold": fold,
        "basis_res": (parent_res, child_res), "f": f, "rec_parent": rec_parent,
        "rec_children": rec_children, "coeffs": table.values,
    }


def check_tree(out: dict) -> Check:
    ts, phi = out["ts"], out["phi"]
    jumps = sorted({x for iv in haar_support_intervals(ts) for x in iv})
    scaling = l2_distance_off_jumps(phi, haar_scaling(ts, phi.grid), jumps=jumps)
    nf = norm(out["f"])
    split = norm(SampledSignal(out["f"].grid,
                               out["rec_parent"].values - out["rec_children"].values)) / nf
    energy = abs(float(np.sum(np.abs(out["coeffs"]) ** 2)) - nf**2) / nf**2
    measured = [
        ("cascade-vs-indicator", scaling, SCALING_TOL),
        ("gram", out["gram_off"], GRAM_TOL),
        ("fold-plain", out["fold"][0], FOLD_TOL),
        ("fold-twisted", out["fold"][1], FOLD_TOL),
        ("parent-basis", out["basis_res"][0], GRAM_TOL),
        ("children-basis", out["basis_res"][1], GRAM_TOL),
        ("split", split, SPLIT_TOL),
        ("energy", energy, ENERGY_TOL),
    ]
    missed = [f"{name} {val:.3e} > {tol:g}" for name, val, tol in measured if not val <= tol]
    detail = f"r={ts.r}: " + ("; ".join(missed) if missed else "all AC-05/10/11 bounds met")
    return Check(not missed, detail, out["gram_off"])


def _matrix(ctx, index: int, r: int):
    tr = ctx.tracer
    a, b, c, d = haar_matrix(stream(ctx.seed, f"packets.matrix.{index}.{r}"))
    m = tr.call("canonical.CanonicalMatrix", canonical.CanonicalMatrix, a, b, c, d)
    report = tr.call("canonical.validate", canonical.validate, m)
    if not report.ok:
        raise ValueError(f"generated matrix is not unimodular: {report.violations}")
    return m


def setup(ctx, cfg: Config) -> dict:
    first = [_matrix(ctx, 0, r) for r in R_VALUES]
    # warm-up: one tree on a coarse grid runs every step up to the analysis,
    # which refuses the basis because a grid this coarse cannot certify it
    try:
        _tree(ctx, WARM, 1, first[0], stream(ctx.seed, "packets.warm"))
    except UncertifiedBasisError:
        pass
    return {"cfg": cfg, "digest": digest(np.array([m.as_tuple() for m in first]))}


def round_jobs(ctx, state: dict, index: int) -> list[Job]:
    cfg = state["cfg"]
    jobs = []
    for r in R_VALUES:
        m = _matrix(ctx, index, r)
        rng = stream(ctx.seed, f"packets.coeffs.{index}.{r}")
        jobs.append(Job(
            f"tree.r{r}",
            lambda m=m, r=r, rng=rng: _tree(ctx, cfg, r, m, rng, state),
            check_tree,
            lambda err, chk, r=r: "haar-r-not-1" if r != 1 else None,
        ))
    return jobs


def once_checks(ctx, state: dict) -> list[Outcome]:
    return []


def probes(ctx, state: dict) -> None:
    """Layers the job reaches only through another layer, on the last r = 1 job's inputs."""
    tr = ctx.tracer
    inputs = state.pop("probe_inputs")
    grid, sc, bank = inputs["grid"], inputs["cascade"], inputs["bank"]
    u = frequency_samples(grid, oversample=1)
    for _ in range(3):
        tr.call("filters.filter_eval", filter_eval, bank[0], u / (2 * N),
                _attrs={"kind": "closed", "points": u.size})
    tr.call("wavelets.hat_to_signal", hat_to_signal, sc.hat, grid, oversample=1)
    tr.call("sampling.gram_matrix", gram_matrix, inputs["system"])
