"""Verification reports: residual tables keyed by condition code.

Reports are plain dictionaries designed for JSON emission: deterministic
for a fixed configuration, carrying the config hash, the tolerance table,
and per-condition residuals.  Condition codes: "2.21"/"2.22" bank
orthonormality (plain/twisted), "2.33" quarter-period power profile,
"3.4a"/"3.4b" scaling sums.  ``packet_gram_report`` is the ``packets gram`` report.
"""

from __future__ import annotations

import numpy as np

from .canonical import CanonicalMatrix, validate
from .filters import PeriodicFilterPair, TranslationSet, bank_residuals, omega_enumerate
from .io import config_hash
from .sampling import SampledSignal, chirped_translate_gram, identity_deviation
from .wavelets import default_time_grid, haar_scaling, n2_reference_wavelets

#: Default per-condition tolerances for verification reports.
DEFAULT_TOLERANCES = {
    "2.21": 1e-10,
    "2.22": 1e-10,
    "2.33": 1e-10,
    "3.4a": 1e-10,
    "3.4b": 1e-10,
}


def _report(config: dict, residuals: dict[str, float], tolerances: dict | None) -> dict:
    """Report envelope: config hash (tolerances included), residuals, violations."""
    tol = dict(DEFAULT_TOLERANCES if tolerances is None else tolerances)
    violations = sorted(code for code, res in residuals.items() if not res <= tol[code])
    return {
        "config_hash": config_hash({**config, "tolerances": tol}),
        "tolerances": tol,
        "residuals": residuals,
        "violations": violations,
        "ok": not violations,
    }


def packet_gram_report(signals: list[SampledSignal], ts: TranslationSet, m: CanonicalMatrix,
                       window: tuple[float, float], tol: float) -> dict:
    """Max |G - I| of the chirped translates of packet signals in ``window``; ok unless
    above ``tol`` or NaN."""
    from .packets import translate_gram  # not at the top: the other reports' CLI commands skip it

    _, off = translate_gram(signals, ts, m, window)
    config = {
        "matrix": m.to_dict(),
        "translation": ts.to_dict(),
        "window": list(window),
        "count": len(signals),
    }
    return {
        "config_hash": config_hash(config),
        "config": config,
        "tolerances": {"gram": tol},
        "max_off_identity": off,
        "ok": off <= tol,
    }


def lowpass_report(pair: PeriodicFilterPair, tolerances: dict | None = None) -> dict:
    """Residuals of every admissibility condition for a single low-pass pair."""
    config = {"translation": pair.ts.to_dict(), "u_count": pair.u_grid.count}
    return _report(config, bank_residuals([pair]), tolerances)


def bank_report(bank: list[PeriodicFilterPair], tolerances: dict | None = None) -> dict:
    """Worst-case residuals over all filter pairs of a bank."""
    config = {
        "translation": bank[0].ts.to_dict(),
        "u_count": bank[0].u_grid.count,
        "size": len(bank),
    }
    return _report(config, bank_residuals(bank), tolerances)


def _gram_stats(g: np.ndarray) -> dict:
    n = g.shape[0]
    return {
        "size": n,
        "max_off_identity": identity_deviation(g),
        "max_diag_deviation": float(np.max(np.abs(np.diag(g) - 1.0))) if n else 0.0,
    }


def anomalous_n2_report(*, step: float = 2.0**-10) -> dict:
    """Deterministic cross-check of the N = 2 reference wavelets.

    Uses the anomalous matrix (0, 1, 2, -1) in permissive mode (its
    determinant -2 is recorded, not rejected), samples the three
    closed-form reference wavelets, and reports the Gram of their chirped
    translates by the translations in [-4, 4) together with the
    cross-Gram against scaling translates.
    No pass/fail judgment is attached to the reference formulas.
    """
    m = CanonicalMatrix(0.0, 1.0, 2.0, -1.0)
    ts = TranslationSet(N=2, r=1)
    lambda_window = (-4.0, 4.0)
    report_cfg = {
        "matrix": m.to_dict(),
        "translation": ts.to_dict(),
        "step": step,
        "lambda_window": list(lambda_window),
    }
    matrix_report = validate(m, allow_nonunimodular=True)
    window = (lambda_window[0] - 2.0, lambda_window[1] + 3.0)
    grid = default_time_grid(ts, window, target_step=step)
    lambdas = omega_enumerate(ts, lambda_window)
    psis = n2_reference_wavelets(grid)
    phi = haar_scaling(ts, grid)
    g = chirped_translate_gram(psis + [phi], lambdas, m)
    n_w = len(psis) * len(lambdas)
    return {
        "config_hash": config_hash(report_cfg),
        "config": report_cfg,
        "matrix_determinant": matrix_report.det,
        "permissive_mode": True,
        "wavelet_gram": _gram_stats(g[:n_w, :n_w]),
        "scaling_gram": _gram_stats(g[n_w:, n_w:]),
        "max_cross_gram": float(np.max(np.abs(g[:n_w, n_w:]))),
    }
