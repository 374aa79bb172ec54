"""CSV/JSON serialization for signals, spectra, and filter pairs.

All numeric CSV fields are printed with 17 significant digits; files are
written atomically (temp file + rename) so reruns either replace outputs
whole or not at all.  Signals and spectra share one format: columns
(x, re, im) plus a JSON sidecar holding the grid.  A spectrum's sidecar
also records the time grid of its source signal under "t_grid", so the
inverse transform can land back on the source samples.  A signal's sidecar
may carry more keys (a cascade's approximations; a packet's band deficit,
translation set and matrix), which reading ignores but ``read_packet_csv``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings
from collections.abc import Iterable, Iterator
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .canonical import CanonicalMatrix
from .filters import PeriodicFilterPair, TranslationSet, sample_grid
from .lct import LctSpectrum
from .sampling import _ALIGN_TOL, Grid, SampledSignal


#: Rows formatted per block of a CSV write.
_CSV_BLOCK = 4096


def atomic_write_text(path: str | Path, text: str | Iterable[str]) -> None:
    """Write ``text`` (a string or an iterable of string chunks) via temp file + rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str | Path, obj) -> None:
    """Strict JSON: a non-finite float is written as null, never as NaN or Infinity."""
    obj = json.loads(json.dumps(obj), parse_constant=lambda token: None)
    atomic_write_text(path, json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n")


def read_json(path: str | Path):
    with open(path) as fh:
        return json.load(fh)


def config_hash(obj) -> str:
    """Stable digest of a JSON-serializable configuration."""
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _sidecar(path: Path) -> Path:
    return path.with_suffix(".json")


def _from_sidecar(cls, meta: dict, sidecar: Path):
    """The record ``cls`` from its fields' keys in ``meta`` (others are ignored); a missing
    key or a refused value is named with the sidecar's path."""
    try:
        return cls(**{f.name: meta[f.name] for f in fields(cls)})
    except KeyError as exc:
        raise ValueError(f"{sidecar}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:  # TypeError: a null value
        raise ValueError(f"{sidecar}: {exc}") from None


def _columns_csv(header: list[str], columns: list[np.ndarray]) -> Iterator[str]:
    """CSV text in chunks: the header, then one %-format per block of rows."""
    yield ",".join(header) + "\n"
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    for a in range(0, len(columns[0]), _CSV_BLOCK):
        block = np.column_stack([col[a:a + _CSV_BLOCK] for col in columns])
        yield (row * len(block)) % tuple(block.ravel().tolist())


def _read_columns(path: Path, expected_header: list[str]) -> list[np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header != expected_header:
            raise ValueError(f"{path}: expected header {expected_header}, got {header}")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty body is named below
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if not data.shape[0]:
        raise ValueError(f"{path}: no data rows")
    return [data[:, i] for i in range(data.shape[1])]


def _require_on_grid(path: Path, x_name: str, x: np.ndarray, grid: Grid, slack: float) -> None:
    """Refuse an x column that is not ``grid``'s points within ``slack``, naming its first bad row."""
    on_grid = np.abs(x - grid.points()) <= slack  # NaN is not
    if not on_grid.all():
        i = int(np.argmin(on_grid))
        raise ValueError(f"{path}: {x_name} = {float(x[i])} in data row {i + 1} is off {grid}")


def _write_sampled(path: str | Path, x_name: str, grid: Grid, values: np.ndarray,
                   **sidecar) -> None:
    """Columns (x, re, im) over ``grid`` plus a sidecar: the grid and any extra keys."""
    path = Path(path)
    atomic_write_text(path, _columns_csv([x_name, "re", "im"],
                                         [grid.points(), values.real, values.imag]))
    write_json(_sidecar(path), {**asdict(grid), **sidecar})


def _read_sampled(path: str | Path, x_name: str) -> tuple[Grid, np.ndarray, dict]:
    """Grid, complex values and sidecar dict (empty when absent) of a sampled CSV.

    The x column must be the grid's points (``_require_on_grid``): exactly those of the
    sidecar's grid, or without a sidecar within ``_ALIGN_TOL`` steps of the grid inferred from it.
    """
    path = Path(path)
    x, re, im = _read_columns(path, [x_name, "re", "im"])
    sidecar = _sidecar(path)
    if sidecar.exists():
        meta = read_json(sidecar)
        grid = _from_sidecar(Grid, meta, sidecar)
    else:
        meta = {}
        step = float(np.mean(np.diff(x))) if len(x) > 1 else 1.0
        grid = Grid(t_min=float(x[0]), step=step, count=len(x))
    if grid.count != len(x):
        raise ValueError(f"{path}: row count does not match the grid sidecar")
    _require_on_grid(path, x_name, x, grid, 0.0 if sidecar.exists() else _ALIGN_TOL * grid.step)
    return grid, re + 1j * im, meta


def write_signal_csv(path: str | Path, signal: SampledSignal, **sidecar) -> None:
    """Signal CSV, columns (t, re, im); the sidecar holds the grid and any extra keys."""
    _write_sampled(path, "t", signal.grid, signal.values, **sidecar)


def read_signal_csv(path: str | Path) -> SampledSignal:
    grid, values, _ = _read_sampled(path, "t")
    return SampledSignal(grid, values)


def read_packet_csv(path: str | Path, ts: TranslationSet, m: CanonicalMatrix) -> SampledSignal:
    """A packet signal, refused if its sidecar records ("translation", "matrix") another
    translation set than ``ts`` or another matrix than ``m``."""
    grid, values, meta = _read_sampled(path, "t")
    sidecar = _sidecar(Path(path))
    for key, given in (("translation", ts), ("matrix", m)):
        if key in meta and (recorded := _from_sidecar(type(given), meta[key], sidecar)) != given:
            raise ValueError(f"{sidecar}: records {recorded}, not the given {given}")
    return SampledSignal(grid, values)


def write_spectrum_csv(path: str | Path, spectrum: LctSpectrum) -> None:
    """Spectrum CSV, columns (u, re, im); the sidecar records the source time grid when known."""
    extra = {} if spectrum.t_grid is None else {"t_grid": asdict(spectrum.t_grid)}
    _write_sampled(path, "u", spectrum.grid, spectrum.values, **extra)


def read_spectrum_csv(path: str | Path) -> LctSpectrum:
    grid, values, meta = _read_sampled(path, "u")
    t_grid = None
    if "t_grid" in meta:
        t_grid = _from_sidecar(Grid, meta["t_grid"], _sidecar(Path(path)))
    return LctSpectrum(grid, values, t_grid)


def write_filter_csv(path: str | Path, pair: PeriodicFilterPair) -> None:
    path = Path(path)
    atomic_write_text(path, _columns_csv(
        ["u", "re1", "im1", "re2", "im2"],
        [pair.u_grid.points(), pair.comp1.real, pair.comp1.imag, pair.comp2.real, pair.comp2.imag],
    ))
    write_json(_sidecar(path), asdict(pair.ts))


def read_filter_csv(path: str | Path) -> PeriodicFilterPair:
    """A filter pair; its u column must be ``filters.sample_grid``'s points exactly."""
    path = Path(path)
    u, re1, im1, re2, im2 = _read_columns(path, ["u", "re1", "im1", "re2", "im2"])
    ts = _from_sidecar(TranslationSet, read_json(_sidecar(path)), _sidecar(path))
    _require_on_grid(path, "u", u, sample_grid(len(u)), 0.0)
    return PeriodicFilterPair(ts, re1 + 1j * im1, re2 + 1j * im2)
