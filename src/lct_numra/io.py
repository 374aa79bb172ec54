"""CSV/JSON serialization for signals, spectra, and filter pairs.

All numeric CSV fields are printed with 17 significant digits; files are
written atomically (temp file + rename) so reruns either replace outputs
whole or not at all.  Signals and spectra share one format: columns
(x, re, im) plus a JSON sidecar holding the grid.  A spectrum's sidecar
also records the time grid of its source signal under "t_grid", so the
inverse transform can land back on the source samples.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .filters import PeriodicFilterPair, TranslationSet
from .lct import LctSpectrum
from .sampling import Grid, SampledSignal


def fmt(x: float) -> str:
    return f"{x:.17g}"


def atomic_write_text(path: str | Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str | Path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def read_json(path: str | Path):
    with open(path) as fh:
        return json.load(fh)


def config_hash(obj) -> str:
    """Stable digest of a JSON-serializable configuration."""
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _sidecar(path: Path) -> Path:
    return path.with_suffix(".json")


def _columns_csv(header: list[str], columns: list[np.ndarray]) -> str:
    lines = [",".join(header)]
    rows = len(columns[0])
    for i in range(rows):
        lines.append(",".join(fmt(float(col[i])) for col in columns))
    return "\n".join(lines) + "\n"


def _read_columns(path: Path, expected_header: list[str]) -> list[np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header != expected_header:
            raise ValueError(f"{path}: expected header {expected_header}, got {header}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return [data[:, i] for i in range(data.shape[1])]


def _write_sampled(path: str | Path, x_name: str, grid: Grid, values: np.ndarray,
                   **sidecar) -> None:
    """Columns (x, re, im) over ``grid`` plus a sidecar: the grid and any extra keys."""
    path = Path(path)
    atomic_write_text(path, _columns_csv([x_name, "re", "im"],
                                         [grid.points(), values.real, values.imag]))
    write_json(_sidecar(path), {**grid.to_dict(), **sidecar})


def _read_sampled(path: str | Path, x_name: str) -> tuple[Grid, np.ndarray, dict]:
    """Grid, complex values and sidecar dict (empty when absent) of a sampled CSV.

    Without a sidecar the grid is inferred from the x column.
    """
    path = Path(path)
    x, re, im = _read_columns(path, [x_name, "re", "im"])
    sidecar = _sidecar(path)
    if sidecar.exists():
        meta = read_json(sidecar)
        grid = Grid.from_dict(meta)
    else:
        meta = {}
        step = float(np.mean(np.diff(x))) if len(x) > 1 else 1.0
        grid = Grid(t_min=float(x[0]), step=step, count=len(x))
    if grid.count != len(x):
        raise ValueError(f"{path}: row count does not match the grid sidecar")
    return grid, re + 1j * im, meta


def write_signal_csv(path: str | Path, signal: SampledSignal) -> None:
    _write_sampled(path, "t", signal.grid, signal.values)


def read_signal_csv(path: str | Path) -> SampledSignal:
    grid, values, _ = _read_sampled(path, "t")
    return SampledSignal(grid, values)


def write_spectrum_csv(path: str | Path, spectrum: LctSpectrum) -> None:
    """Spectrum CSV; the sidecar records the source time grid when it is known."""
    extra = {} if spectrum.t_grid is None else {"t_grid": spectrum.t_grid.to_dict()}
    _write_sampled(path, "omega", spectrum.grid, spectrum.values, **extra)


def read_spectrum_csv(path: str | Path) -> LctSpectrum:
    grid, values, meta = _read_sampled(path, "omega")
    t_grid = Grid.from_dict(meta["t_grid"]) if "t_grid" in meta else None
    return LctSpectrum(grid, values, t_grid)


def write_filter_csv(path: str | Path, pair: PeriodicFilterPair) -> None:
    path = Path(path)
    u = pair.u_grid.points()
    text = _columns_csv(
        ["u", "re1", "im1", "re2", "im2"],
        [u, pair.comp1.real, pair.comp1.imag, pair.comp2.real, pair.comp2.imag],
    )
    atomic_write_text(path, text)
    write_json(_sidecar(path), pair.ts.to_dict())


def read_filter_csv(path: str | Path) -> PeriodicFilterPair:
    path = Path(path)
    u, re1, im1, re2, im2 = _read_columns(path, ["u", "re1", "im1", "re2", "im2"])
    ts = TranslationSet.from_dict(read_json(_sidecar(path)))
    count = len(u)
    grid = Grid(t_min=0.0, step=0.5 / count, count=count)
    return PeriodicFilterPair(ts, grid, re1 + 1j * im1, re2 + 1j * im2)
