import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import lct_numra
from lct_numra.canonical import CanonicalMatrix, fourier, fresnel
from lct_numra.cli import main
from lct_numra.filters import PeriodicFilterPair, TranslationSet, filter_eval
from lct_numra.io import (
    config_hash,
    read_filter_csv,
    read_json,
    read_signal_csv,
    read_spectrum_csv,
    write_filter_csv,
    write_json,
    write_signal_csv,
    write_spectrum_csv,
)
from lct_numra.lct import LctSpectrum, ilct, lct_fast
from lct_numra.reports import bank_report, lowpass_report, packet_gram_report
from lct_numra.sampling import Grid, SampledSignal, gaussian, numra_grid, rel_l2_error
from lct_numra import lct, wavelets
from lct_numra.wavelets import (
    cascade,
    haar_family,
    haar_filter_bank,
    haar_filters,
    haar_scaling,
    project,
)


class TestSerialization:
    def test_signal_round_trip_exact(self, tmp_path):
        g = Grid(-2.0, 2.0**-6, 256)
        rng = np.random.default_rng(1)
        sig = SampledSignal(g, rng.normal(size=256) + 1j * rng.normal(size=256))
        path = tmp_path / "sig.csv"
        write_signal_csv(path, sig)
        back = read_signal_csv(path)
        assert back.grid == sig.grid
        np.testing.assert_array_equal(back.values, sig.values)

    def test_spectrum_round_trip_exact(self, tmp_path):
        g = Grid(-8.0, 2.0**-4, 256)
        spec = lct_fast(gaussian(g), fourier())
        path = tmp_path / "spec.csv"
        write_spectrum_csv(path, spec)
        back = read_spectrum_csv(path)
        np.testing.assert_array_equal(back.values, spec.values)
        assert back.grid == spec.grid
        assert back.t_grid == g

    @pytest.mark.parametrize("kind", ["signal", "spectrum"])
    def test_row_count_checked_against_sidecar(self, tmp_path, kind):
        g = Grid(-8.0, 2.0**-4, 256)
        path = tmp_path / f"{kind}.csv"
        if kind == "signal":
            write_signal_csv(path, gaussian(g))
            read = read_signal_csv
        else:
            write_spectrum_csv(path, lct_fast(gaussian(g), fourier()))
            read = read_spectrum_csv
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]))
        with pytest.raises(ValueError, match="row count"):
            read(path)

    def test_filter_round_trip_exact(self, tmp_path):
        pair = haar_filters(TranslationSet(2, 1), CanonicalMatrix(2, 1, 1, 1))
        path = tmp_path / "filt.csv"
        write_filter_csv(path, pair)
        back = read_filter_csv(path)
        assert back.ts == pair.ts
        np.testing.assert_array_equal(back.comp1, pair.comp1)
        np.testing.assert_array_equal(back.comp2, pair.comp2)

    @pytest.mark.parametrize("N,r", [(1, 1), (2, 1), (2, 3), (3, 1)])
    def test_stored_bank_evaluates_like_memory(self, tmp_path, N, r):
        u = np.random.default_rng(N + 4 * r).uniform(-4.0, 4.0, 10**5)
        bank = haar_filter_bank(TranslationSet(N, r), CanonicalMatrix(2, 1, 1, 1))
        for k, pair in enumerate(bank):
            path = tmp_path / f"filters_{k}.csv"
            write_filter_csv(path, pair)
            back = read_filter_csv(path)
            assert back.exact
            err = np.max(np.abs(filter_eval(back, u) - filter_eval(pair, u)))
            assert err <= 1e-13

    def test_csv_writer_matches_per_row_format(self, tmp_path):
        # extreme and signed-zero values cross a block boundary of the writer
        rng = np.random.default_rng(7)
        values = rng.normal(size=5000) + 1j * rng.normal(size=5000)
        values[4094:4098] = [-0.0 + 5e-324j, 1.7976931348623157e308 - 5e-324j,
                             complex(-0.0, -0.0), -2.5e-320 + 1e-310j]
        sig = SampledSignal(Grid(-3.0, 2.0**-7, 5000), values)
        path = tmp_path / "sig.csv"
        write_signal_csv(path, sig)
        want = "t,re,im\n" + "".join(
            f"{t:.17g},{v.real:.17g},{v.imag:.17g}\n" for t, v in zip(sig.grid.points(), values))
        assert path.read_bytes() == want.encode()

    def test_signal_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,z\n0,0,0\n")
        with pytest.raises(ValueError, match="header"):
            read_signal_csv(path)

    def test_hash_is_stable(self):
        obj = {"b": 2.0, "a": [1, 2, 3]}
        assert config_hash(obj) == config_hash({"a": [1, 2, 3], "b": 2.0})


class TestReports:
    """Report bytes are pinned so that a refactor of the verifiers cannot drift them."""

    ts = TranslationSet(2, 1)
    m = CanonicalMatrix(2, 1, 1, 1)

    def test_lowpass_report_pinned(self):
        report = lowpass_report(haar_filters(self.ts, self.m))
        assert report["config_hash"] == (
            "4909839b604536bcced985b90f55935490ddb51bf76ac5b5f7194a5595a3bd41"
        )
        assert report["residuals"] == {
            "2.21": 4.442569315895073e-16,
            "2.22": 4.808282320900039e-16,
            "2.33": 4.440892098500626e-16,
            "3.4a": 4.440892098500626e-16,
            "3.4b": 5.269049186782155e-16,
        }
        assert report["ok"] and report["violations"] == []

    def test_bank_report_pinned(self):
        report = bank_report(haar_filter_bank(self.ts, self.m))
        assert report["config_hash"] == (
            "6d3350a5c1c8d262c18dd1d40043ac0ce86c038f6530a85445b78d118d2ad4f4"
        )
        assert report["residuals"] == {
            "2.21": 4.451977957430657e-16,
            "2.22": 4.808282320900039e-16,
            "2.33": 4.440892098500626e-16,
            "3.4a": 4.440892098500626e-16,
            "3.4b": 5.269049186782155e-16,
        }
        assert report["ok"] and report["violations"] == []


class TestThreadCap:
    def test_cap_is_set_before_numpy_is_imported(self):
        child = (
            "import json, os, sys\n"
            "import lct_numra.cli as cli\n"
            "before = 'numpy' in sys.modules\n"
            "code = cli.main(['matrix', '--matrix=0,1,-1,0'])\n"
            "print(json.dumps({'before': before, 'code': code,\n"
            "                  'openblas': os.environ.get('OPENBLAS_NUM_THREADS'),\n"
            "                  'after': 'numpy' in sys.modules}))\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["LCT_NUMRA_THREADS"] = "3"
        env["PYTHONPATH"] = str(Path(lct_numra.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                              text=True, check=True)
        state = json.loads(proc.stdout)
        assert state == {"before": False, "code": 0, "openblas": "3", "after": True}

    def test_library_reads_the_cap(self, monkeypatch):
        # 0 or unset: two threads where two CPUs are usable; the BLAS variables play no part
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.setenv(var, "1")
        usable = min(2, len(os.sched_getaffinity(0)))
        for cap, want in [(None, usable), ("0", usable), ("1", 1), ("2", 2), ("8", 2)]:
            if cap is None:
                monkeypatch.delenv("LCT_NUMRA_THREADS", raising=False)
            else:
                monkeypatch.setenv("LCT_NUMRA_THREADS", cap)
            assert lct._threads(lct._SPLIT) == want
            assert lct._threads(lct._SPLIT - 1) == 1
        monkeypatch.setenv("LCT_NUMRA_THREADS", "0")
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert lct._threads(lct._SPLIT) == 1

    def test_cap_one_starts_no_thread(self, monkeypatch):
        started = []

        class Counted(threading.Thread):
            def start(self):
                started.append(self.name)
                super().start()

        monkeypatch.setattr(threading, "Thread", Counted)
        g = Grid(-8.0, 16.0 / lct._SPLIT, lct._SPLIT)
        f = gaussian(g)
        monkeypatch.setenv("LCT_NUMRA_THREADS", "2")
        lct_fast(f, fresnel(0.25))
        assert started  # the patched class does see the split path's threads
        started.clear()
        monkeypatch.setenv("LCT_NUMRA_THREADS", "1")
        ilct(lct_fast(f, fresnel(0.375)), fresnel(0.375), g, method="fast")  # a table build too
        assert started == []

    def test_lct_fwd_csv_same_bytes_for_every_cap(self, tmp_path, monkeypatch):
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.setenv(var, "1")  # main sets them from the cap; keep them test-local
        rng = np.random.default_rng(17)
        g = Grid(-8.0, 16.0 / 2**17, 2**17)
        fpath = tmp_path / "f.csv"
        write_signal_csv(fpath, SampledSignal(g, rng.normal(size=g.count) + 1j * rng.normal(size=g.count)))
        outputs = []
        for cap in (None, "1"):
            if cap is None:
                monkeypatch.delenv("LCT_NUMRA_THREADS", raising=False)
            else:
                monkeypatch.setenv("LCT_NUMRA_THREADS", cap)
            spec = tmp_path / f"F{cap}.csv"
            assert main(["lct", "fwd", "--matrix", "2,1,1,1", "--method", "fast",
                         "--in", str(fpath), "--out", str(spec)]) == 0
            outputs.append(spec.read_bytes())
        assert outputs[0] == outputs[1]

    def test_no_module_imports_fractions_or_decimal(self):
        # together 4 ms of start-up; only an LCT table build imports fractions, when it runs
        child = (
            "import importlib, json, pkgutil, sys\n"
            "import lct_numra\n"
            "names = [m.name for m in pkgutil.iter_modules(lct_numra.__path__)]\n"
            "for name in names:\n"
            "    importlib.import_module('lct_numra.' + name)\n"
            "print(json.dumps({'modules': len(names),\n"
            "                  'loaded': [m for m in ('fractions', 'decimal') if m in sys.modules]}))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(lct_numra.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                              text=True, check=True)
        state = json.loads(proc.stdout)
        assert state["modules"] >= 9
        assert state["loaded"] == []


def read_strict_json(path):
    """A report parsed as strict JSON: the tokens NaN and Infinity raise."""

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(Path(path).read_text(), parse_constant=reject)


class TestMatrixCommand:
    def test_valid_matrix(self, tmp_path):
        report = tmp_path / "m.json"
        assert main(["matrix", "--matrix", "0,1,-1,0", "--report", str(report)]) == 0
        payload = read_json(report)
        assert payload["ok"] is True
        assert payload["det"] == 1.0

    def test_anomalous_matrix_exit_two(self, tmp_path):
        report = tmp_path / "m.json"
        assert main(["matrix", "--matrix", "0,1,2,-1", "--report", str(report)]) == 2
        payload = read_json(report)
        assert payload["det"] == -2.0
        assert not payload["ok"]

    @pytest.mark.parametrize("text", ["nan,1,-1,0", "inf,1,-1,0"])
    def test_non_finite_matrix_exit_two(self, tmp_path, capsys, text):
        report = tmp_path / "m.json"
        assert main(["matrix", "--matrix", text, "--report", str(report)]) == 2
        payload = read_strict_json(report)
        assert payload["ok"] is False
        assert payload["matrix"]["a"] is None and payload["det"] is None
        assert payload["violations"][0] == f"non-finite entry: a = {text.split(',')[0]}"
        assert "violation: non-finite entry: a =" in capsys.readouterr().err

    def test_permissive_downgrades_to_warning(self, capsys):
        assert main(["matrix", "--matrix", "0,1,2,-1", "--allow-nonunimodular"]) == 0
        assert "permissive" in capsys.readouterr().err

    def test_permissive_warning_uses_scaled_tolerance(self, capsys):
        # det is 1.8e-12 from 1 only by rounding of products near 7e3
        text = "6.025390625,88.86538461538461,80.3046875,1184.5384615384617"
        assert main(["matrix", "--matrix", text]) == 0
        assert main(["matrix", "--matrix", text, "--allow-nonunimodular"]) == 0
        assert "warning" not in capsys.readouterr().err

    def test_unknown_flag_exit_one(self, capsys):
        assert main(["matrix", "--matrix", "0,1,-1,0", "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err


class TestVerifyCommand:
    def test_haar_filters_pass(self, tmp_path):
        pair = haar_filters(TranslationSet(1, 1), fourier())
        fpath = tmp_path / "filters.csv"
        write_filter_csv(fpath, pair)
        report = tmp_path / "report.json"
        assert main(["verify", "--filters", str(fpath), "--report", str(report)]) == 0
        payload = read_json(report)
        assert set(payload["residuals"]) == {"2.21", "2.22", "2.33", "3.4a", "3.4b"}
        assert "config_hash" in payload and "tolerances" in payload
        assert all(res <= 1e-10 for res in payload["residuals"].values())

    def test_zero_filters_fail_naming_condition(self, tmp_path, capsys):
        ts = TranslationSet(1, 1)
        grid = Grid(0.0, 0.5 / 4096, 4096)
        pair = PeriodicFilterPair(ts, grid, np.zeros(4096), np.zeros(4096))
        fpath = tmp_path / "zero.csv"
        write_filter_csv(fpath, pair)
        report = tmp_path / "report.json"
        assert main(["verify", "--filters", str(fpath), "--report", str(report)]) == 2
        err = capsys.readouterr().err
        assert "2.21" in err
        payload = read_json(report)
        assert "2.21" in payload["violations"]
        # the report is still written with the failing residuals
        assert payload["residuals"]["2.21"] == pytest.approx(1.0)

    def test_nan_residuals_are_violations(self, tmp_path):
        # components near 1e200 overflow: 2.21/3.4a are inf, 2.22/2.33/3.4b NaN
        p0 = haar_filters(TranslationSet(1, 1), CanonicalMatrix(2, 1, 1, 1))
        big = PeriodicFilterPair(p0.ts, p0.u_grid, 1e200 * p0.comp1, 1e200 * p0.comp2)
        fpath = tmp_path / "big.csv"
        write_filter_csv(fpath, big)
        report = tmp_path / "report.json"
        every = ["2.21", "2.22", "2.33", "3.4a", "3.4b"]
        with np.errstate(all="ignore"):
            assert lowpass_report(big)["violations"] == every
            assert main(["verify", "--filters", str(fpath), "--report", str(report)]) == 2
        payload = read_strict_json(report)
        assert payload["violations"] == every
        assert payload["residuals"]["2.22"] is None
        assert not payload["ok"]


class TestHaarCommand:
    def test_outputs_and_idempotence(self, tmp_path):
        out1 = tmp_path / "fam1"
        out2 = tmp_path / "fam2"
        args = ["haar", "--N", "1", "--matrix", "0,1,-1,0"]
        assert main(args + ["--out-dir", str(out1)]) == 0
        assert main(args + ["--out-dir", str(out2)]) == 0
        for name in ("phi.csv", "psi_1.csv", "filters_0.csv", "filters_1.csv", "verify.json"):
            assert (out1 / name).exists()
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_cascade_failure_exit_two(self, tmp_path, monkeypatch, capsys):
        import lct_numra.wavelets as wavelets

        real = wavelets.cascade
        monkeypatch.setattr(wavelets, "cascade", lambda *a, **k: real(*a, **{**k, "J": 2}))
        out = tmp_path / "fam"
        assert main(["haar", "--N", "1", "--matrix", "0,1,-1,0", "--out-dir", str(out)]) == 2
        assert "tail deviation" in capsys.readouterr().err
        assert not (out / "phi.csv").exists()

    def test_verify_report_content(self, tmp_path):
        out = tmp_path / "fam"
        assert main(["haar", "--N", "2", "--matrix", "2,1,1,1", "--out-dir", str(out)]) == 0
        payload = read_json(out / "verify.json")
        assert payload["ok"]
        assert max(payload["residuals"].values()) <= 1e-10


class TestLctCommand:
    def test_fast_round_trip(self, tmp_path):
        g = Grid(-8.0, 16.0 / 2048, 2048)
        fpath = tmp_path / "f.csv"
        write_signal_csv(fpath, gaussian(g))
        spec = tmp_path / "F.csv"
        back = tmp_path / "f2.csv"
        assert main([
            "lct", "fwd", "--matrix", "2,1,1,1", "--method", "fast",
            "--in", str(fpath), "--out", str(spec),
        ]) == 0
        assert main([
            "lct", "inv", "--matrix", "2,1,1,1", "--method", "fast",
            "--in", str(spec), "--out", str(back),
        ]) == 0
        assert rel_l2_error(read_signal_csv(back), read_signal_csv(fpath)) <= 1e-6

    def test_offset_source_round_trip_without_t_grid(self, tmp_path):
        n = 2048
        g = Grid(0.0, 8.0 / n, n)
        t = g.points()
        sig = SampledSignal(g, np.exp(-np.pi * (t - 4.0) ** 2) * np.exp(1j * t))
        fpath = tmp_path / "f.csv"
        write_signal_csv(fpath, sig)
        spec = tmp_path / "F.csv"
        back = tmp_path / "f2.csv"
        assert main(["lct", "fwd", "--matrix", "2,1,1,1", "--in", str(fpath),
                     "--out", str(spec)]) == 0
        assert main(["lct", "inv", "--matrix", "2,1,1,1", "--in", str(spec),
                     "--out", str(back)]) == 0
        got = read_signal_csv(back)
        assert got.grid == g
        assert np.max(np.abs(got.values - sig.values)) <= 1e-6

    def test_inverse_default_method_on_unpaired_t_grid(self, tmp_path, capsys):
        # the t-grid does not pair with the stored frequency grid, so the
        # default method falls back to the direct inverse instead of failing
        g = Grid(-8.0, 16.0 / 2048, 2048)
        fpath = tmp_path / "f.csv"
        write_signal_csv(fpath, gaussian(g))
        spec = tmp_path / "F.csv"
        back = tmp_path / "f2.csv"
        assert main(["lct", "fwd", "--matrix", "2,1,1,1", "--in", str(fpath),
                     "--out", str(spec)]) == 0
        capsys.readouterr()
        assert main(["lct", "inv", "--matrix", "2,1,1,1", "--t-grid=-4,0.00390625,2048",
                     "--in", str(spec), "--out", str(back)]) == 0
        assert re.fullmatch(r"warning: ilct takes .*not paired.*2048 x 2048 kernel evaluations\n",
                            capsys.readouterr().err)
        t_grid = Grid(-4.0, 0.00390625, 2048)
        want = ilct(read_spectrum_csv(spec), CanonicalMatrix(2, 1, 1, 1), t_grid, method="direct")
        got = read_signal_csv(back)
        assert got.grid == t_grid
        np.testing.assert_array_equal(got.values, want.values)

    def test_inverse_default_method_warns_on_stderr_only_when_unpaired(self, tmp_path):
        # the fallback's warning reaches a shell user; a paired inverse prints nothing
        g = Grid(-8.0, 16.0 / 256, 256)
        fpath, spec = tmp_path / "f.csv", tmp_path / "F.csv"
        write_signal_csv(fpath, gaussian(g))
        assert main(["lct", "fwd", "--matrix", "2,1,1,1", "--in", str(fpath),
                     "--out", str(spec)]) == 0
        env = {**os.environ, "PYTHONPATH": str(Path(lct_numra.__file__).resolve().parents[1])}
        inv = [sys.executable, "-m", "lct_numra.cli", "lct", "inv", "--matrix", "2,1,1,1",
               "--in", str(spec), "--out", str(tmp_path / "b.csv")]
        paired, unpaired = (subprocess.run(args, env=env, capture_output=True, text=True,
                                           timeout=120)
                            for args in (inv, inv + ["--t-grid=-4,0.03125,256"]))
        assert paired.returncode == unpaired.returncode == 0, unpaired.stderr
        assert paired.stderr == ""
        assert unpaired.stderr.startswith("warning: ilct takes the direct inverse (")
        assert len(unpaired.stderr.splitlines()) == 1  # no source line, no file:line prefix

    def test_inverse_without_recorded_t_grid_exit_one(self, tmp_path, capsys):
        g = Grid(0.0, 8.0 / 256, 256)
        spec = lct_fast(gaussian(g), CanonicalMatrix(2, 1, 1, 1))
        path = tmp_path / "F.csv"
        write_spectrum_csv(path, LctSpectrum(spec.grid, spec.values))
        assert "t_grid" not in read_json(path.with_suffix(".json"))
        out = tmp_path / "f.csv"
        assert main(["lct", "inv", "--matrix", "2,1,1,1", "--in", str(path),
                     "--out", str(out)]) == 1
        assert "--t-grid" in capsys.readouterr().err
        assert not out.exists()

    def test_inverse_refuses_omega_header(self, tmp_path, capsys):
        # a spectrum written with an x column "omega" has a grid 2 pi wider than the
        # induced one: refused by its header, not inverted by quadrature
        g = Grid(-8.0, 16.0 / 256, 256)
        spec = lct_fast(gaussian(g), CanonicalMatrix(2, 1, 1, 1))
        path = tmp_path / "F.csv"
        write_spectrum_csv(path, spec)
        text = path.read_text()
        assert text.startswith("u,re,im\n")
        path.write_text("omega" + text[1:])
        out = tmp_path / "f.csv"
        assert main(["lct", "inv", "--matrix", "2,1,1,1", "--in", str(path),
                     "--out", str(out)]) == 1
        assert "['omega', 're', 'im']" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input_exit_one(self, tmp_path, capsys):
        assert main([
            "lct", "fwd", "--matrix", "0,1,-1,0", "--in", str(tmp_path / "none.csv"),
            "--out", str(tmp_path / "o.csv"),
        ]) == 1
        assert "error" in capsys.readouterr().err


class TestCascadeCommand:
    def test_matches_exact_scaling(self, tmp_path):
        pair = haar_filters(TranslationSet(1, 1), fourier())
        fpath = tmp_path / "filters.csv"
        write_filter_csv(fpath, pair)
        out = tmp_path / "phi.csv"
        assert main([
            "cascade", "--filters", str(fpath), "--out", str(out),
            "--J", "20", "--tol", "1e-5",
        ]) == 0
        phi = read_signal_csv(out)
        from lct_numra.wavelets import haar_scaling, l2_distance_off_jumps

        ref = haar_scaling(TranslationSet(1, 1), phi.grid)
        assert l2_distance_off_jumps(phi, ref, jumps=[0.0, 1.0]) <= 1e-2

    def test_stored_n2_filter_matches_library(self, tmp_path, capsys):
        ts = TranslationSet(2, 1)
        pair = haar_filters(ts, CanonicalMatrix(2, 1, 1, 1))
        fpath = tmp_path / "filters.csv"
        write_filter_csv(fpath, pair)
        out = tmp_path / "phi.csv"
        assert main(["cascade", "--filters", str(fpath), "--out", str(out)]) == 0
        assert "warning" not in capsys.readouterr().err
        phi = read_signal_csv(out)
        # the CLI's default grid: window -1,3 at step 2^-10
        grid = numra_grid(ts, (-1.0, 3.0), refinement=round(1.0 / (2 * ts.N * 2.0**-10)))
        want = cascade(pair, J=20, tol=1e-5, grid=grid, depth=0).signal
        assert phi.grid == want.grid
        assert np.max(np.abs(phi.values - want.values)) <= 1e-12

    def test_non_polynomial_lowpass_warns(self, tmp_path, capsys):
        # Haar N=1 times the pointwise phase exp(i sin(2 pi u)) on [0, 1/2):
        # admissible, but the phase has kinks at 0 and 1/2 in its periodic
        # extension, so it has no short Fourier series
        base = haar_filters(TranslationSet(1, 1), fourier())
        phase = np.exp(1j * np.sin(2 * np.pi * base.u_grid.points()))
        pair = PeriodicFilterPair(base.ts, base.u_grid, phase * base.comp1, phase * base.comp2)
        assert not pair.exact
        fpath = tmp_path / "filters.csv"
        write_filter_csv(fpath, pair)
        out = tmp_path / "phi.csv"
        assert main(["cascade", "--filters", str(fpath), "--out", str(out)]) == 0
        assert "evaluated by nearest sample" in capsys.readouterr().err
        assert out.exists()

    def test_unconverged_tail_exit_two(self, tmp_path, capsys):
        pair = haar_filters(TranslationSet(1, 1), fourier())
        fpath = tmp_path / "filters.csv"
        write_filter_csv(fpath, pair)
        out = tmp_path / "phi.csv"
        assert main(["cascade", "--filters", str(fpath), "--out", str(out), "--J", "2"]) == 2
        assert "tail deviation" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("J", ["0", "-3"])
    def test_no_factors_exit_one(self, tmp_path, capsys, J):
        # J < 1 would write the empty product, a spike, as the scaling function
        fpath = tmp_path / "filters.csv"
        write_filter_csv(fpath, haar_filters(TranslationSet(1, 1), fourier()))
        out = tmp_path / "phi.csv"
        assert main(["cascade", "--filters", str(fpath), "--out", str(out), f"--J={J}"]) == 1
        assert f"J >= 1 factors, got J={J}" in capsys.readouterr().err
        assert not out.exists()

    def test_inadmissible_filter_exit_two(self, tmp_path, capsys):
        base = haar_filters(TranslationSet(1, 1), fourier())
        doubled = PeriodicFilterPair(base.ts, base.u_grid, 2 * base.comp1, 2 * base.comp2)
        fpath = tmp_path / "filters.csv"
        write_filter_csv(fpath, doubled)
        assert main([
            "cascade", "--filters", str(fpath), "--out", str(tmp_path / "phi.csv"),
        ]) == 2
        assert "expected 1" in capsys.readouterr().err


class TestPacketsCommand:
    def test_gen_and_gram(self, tmp_path):
        out = tmp_path / "pk"
        assert main([
            "packets", "gen", "--n-max", "2", "--N", "1", "--matrix", "0,1,-1,0",
            "--out-dir", str(out), "--step", str(2.0**-12), "--window=-4,5",
        ]) == 0
        report = tmp_path / "gram.json"
        assert main([
            "packets", "gram", "--nodes", str(out), "--window=-2,2.0001",
            "--matrix", "0,1,-1,0", "--N", "1", "--report", str(report),
        ]) == 0
        payload = read_json(report)
        assert payload["ok"]
        assert payload["tolerances"]["gram"] == 1e-3
        assert payload["max_off_identity"] <= 1e-3

    def test_gen_cascade_failure_exit_two(self, tmp_path, monkeypatch, capsys):
        import lct_numra.packets as packets

        real = packets.cascade
        monkeypatch.setattr(packets, "cascade", lambda *a, **k: real(*a, **{**k, "J": 2}))
        assert main([
            "packets", "gen", "--n-max", "1", "--N", "1", "--matrix", "0,1,-1,0",
            "--out-dir", str(tmp_path / "pk"),
        ]) == 2
        assert "tail deviation" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_gram_overflow_exits_two(self, tmp_path, capsys):
        # samples of 1e200 overflow the Gram: its residual is NaN, the report says not ok
        nodes = tmp_path / "pk"
        values = np.where(np.arange(256) % 2, 1e200, -1e200)
        write_signal_csv(nodes / "packet_0.csv", SampledSignal(Grid(-2.0, 2.0**-6, 256), values))
        report = tmp_path / "gram.json"
        assert main(["packets", "gram", "--nodes", str(nodes), "--window=-1,1",
                     "--matrix", "0,1,-1,0", "--N", "1", "--report", str(report)]) == 2
        payload = read_strict_json(report)
        assert payload["max_off_identity"] is None
        assert payload["ok"] is False
        assert "verification failed" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_gram_file_is_the_report(self, tmp_path):
        # the CLI writes the in-process report byte for byte, a NaN residual as null
        m = CanonicalMatrix(0, 1, -1, 0)
        gen = tmp_path / "gen"
        assert main(["packets", "gen", "--n-max", "1", "--N", "1", "--matrix", "0,1,-1,0",
                     "--out-dir", str(gen), "--step", str(2.0**-10), "--window=-3,4"]) == 0
        big = tmp_path / "big"
        values = np.where(np.arange(256) % 2, 1e200, -1e200)
        write_signal_csv(big / "packet_0.csv", SampledSignal(Grid(-2.0, 2.0**-6, 256), values))
        for nodes, code in ((gen, 0), (big, 2)):
            cli, lib = tmp_path / f"{nodes.name}.json", tmp_path / f"{nodes.name}_lib.json"
            assert main(["packets", "gram", "--nodes", str(nodes), "--window=-1,1",
                         "--matrix", "0,1,-1,0", "--N", "1", "--report", str(cli)]) == code
            signals = [read_signal_csv(f) for f in sorted(nodes.glob("packet_*.csv"))]
            write_json(lib, packet_gram_report(signals, TranslationSet(1, 1), m, (-1.0, 1.0),
                                               1e-3))
            assert cli.read_bytes() == lib.read_bytes()


class TestWindowRefused:
    """A window that is not lo < hi, or holds no translation, certifies nothing."""

    @pytest.fixture
    def nodes(self, tmp_path):
        out = tmp_path / "pk"
        write_signal_csv(out / "packet_0.csv", gaussian(Grid(-2.0, 2.0**-6, 256)))
        return out

    @pytest.mark.parametrize("window", ["5,1", "0.1,0.2", "1,2,3", "1,nan", "1"])
    def test_gram(self, tmp_path, nodes, capsys, window):
        report = tmp_path / "gram.json"
        assert main(["packets", "gram", "--nodes", str(nodes), f"--window={window}",
                     "--matrix", "0,1,-1,0", "--N", "1", "--report", str(report)]) == 1
        assert "window" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("window", ["5,1", "0.1,0.2", "1,2,3"])
    def test_project(self, tmp_path, capsys, window):
        fpath = tmp_path / "f.csv"
        write_signal_csv(fpath, gaussian(Grid(-2.0, 2.0**-6, 256)))
        out = tmp_path / "p.csv"
        assert main(["project", "--in", str(fpath), "--N", "1", "--matrix", "0,1,-1,0",
                     "--level", "0", f"--window={window}", "--out", str(out)]) == 1
        assert "window" in capsys.readouterr().err
        assert not out.exists()

    def test_cascade(self, tmp_path, capsys):
        fpath = tmp_path / "filters.csv"
        write_filter_csv(fpath, haar_filters(TranslationSet(1, 1), fourier()))
        out = tmp_path / "phi.csv"
        assert main(["cascade", "--filters", str(fpath), "--window=3,-1",
                     "--out", str(out)]) == 1
        assert "window '3,-1'" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("step", ["0", "-1", "inf", "nan"])
class TestStepRefused:
    """A grid step that is not finite and positive exits 1 and writes nothing."""

    def test_haar(self, tmp_path, capsys, step):
        out = tmp_path / "fam"
        assert main(["haar", "--N", "1", "--matrix", "0,1,-1,0", f"--step={step}",
                     "--out-dir", str(out)]) == 1
        assert "error: step must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    def test_crosscheck(self, tmp_path, capsys, step):
        out = tmp_path / "cc.json"
        assert main(["crosscheck", f"--step={step}", "--out", str(out)]) == 1
        assert "error: step must be finite and positive" in capsys.readouterr().err
        assert not out.exists()


class TestProjectCommand:
    def test_runs(self, tmp_path):
        g = Grid(-8.0, 2.0**-10, 16 * 1024)
        fpath = tmp_path / "f.csv"
        write_signal_csv(fpath, gaussian(g))
        out = tmp_path / "p.csv"
        assert main([
            "project", "--in", str(fpath), "--N", "1", "--matrix", "0,1,-1,0",
            "--level", "2", "--window=-24,24", "--out", str(out),
        ]) == 0
        proj = read_signal_csv(out)
        assert proj.grid == g

    def test_runs_no_cascade(self, tmp_path, monkeypatch):
        # project reads the closed-form scaling function only: its output is the projection
        # with the whole Haar family, byte for byte, and no cascade runs
        g = Grid(-4.0, 2.0**-8, 2048)
        rng = np.random.default_rng(3)
        f = SampledSignal(g, rng.normal(size=g.count) + 1j * rng.normal(size=g.count))
        fpath, out, want = tmp_path / "f.csv", tmp_path / "p.csv", tmp_path / "want.csv"
        write_signal_csv(fpath, f)
        ts, m = TranslationSet(2, 3), CanonicalMatrix(2, 1, 1, 1)
        fam = haar_family(ts, m)
        write_signal_csv(want, project(f, fam.phi, ts, m, 1, (-6.0, 6.0)).signal)

        def refuse(*args, **kwargs):
            raise AssertionError("cascade called")

        monkeypatch.setattr(wavelets, "cascade", refuse)
        assert main(["project", "--in", str(fpath), "--N", "2", "--r", "3", "--matrix", "2,1,1,1",
                     "--level", "1", "--window=-6,6", "--out", str(out)]) == 0
        assert out.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("matrix, code", [
        ("1,1,1,1", 1),  # not unimodular: a usage error
        # frft(0.3): the closed-form low-pass is not 1 at u = 0, so verification fails
        ("0.955336489125606,0.29552020666134,-0.29552020666134,0.955336489125606", 2),
    ], ids=["invalid", "inadmissible"])
    def test_refusals(self, tmp_path, capsys, matrix, code):
        fpath = tmp_path / "f.csv"
        write_signal_csv(fpath, gaussian(Grid(-2.0, 2.0**-6, 256)))
        out = tmp_path / "p.csv"
        assert main(["project", "--in", str(fpath), "--N", "2", "--matrix", matrix,
                     "--level", "0", "--window=-3,3", "--out", str(out)]) == code
        assert ("verification failed" in capsys.readouterr().err) == (code == 2)
        assert not out.exists()


class TestNegativeWindowValue:
    """A window whose first entry is negative parses as the value after a space."""

    def test_cascade(self, tmp_path):
        fpath = tmp_path / "filters.csv"
        write_filter_csv(fpath, haar_filters(TranslationSet(1, 1), fourier()))
        out = tmp_path / "phi.csv"
        assert main(["cascade", "--filters", str(fpath), "--out", str(out),
                     "--window", "-1,3"]) == 0
        assert read_signal_csv(out).grid.t_min == -1.0

    def test_packets_gen(self, tmp_path):
        out = tmp_path / "pk"
        assert main(["packets", "gen", "--n-max", "1", "--N", "1", "--matrix", "0,1,-1,0",
                     "--out-dir", str(out), "--window", "-2,3"]) == 0
        assert read_signal_csv(out / "packet_1.csv").grid.t_min == -2.0

    def test_packets_gram(self, tmp_path):
        out = tmp_path / "pk"
        g = numra_grid(TranslationSet(1, 1), (-2.0, 3.0), refinement=64)
        write_signal_csv(out / "packet_0.csv", haar_scaling(TranslationSet(1, 1), g))
        report = tmp_path / "gram.json"
        assert main(["packets", "gram", "--nodes", str(out), "--window", "-1,1.0001",
                     "--matrix", "0,1,-1,0", "--N", "1", "--report", str(report)]) == 0
        assert read_json(report)["config"]["window"] == [-1.0, 1.0001]

    def test_project(self, tmp_path):
        fpath = tmp_path / "f.csv"
        write_signal_csv(fpath, gaussian(Grid(-2.0, 2.0**-6, 256)))
        out = tmp_path / "p.csv"
        assert main(["project", "--in", str(fpath), "--N", "1", "--matrix", "0,1,-1,0",
                     "--level", "0", "--window", "-3,3", "--out", str(out)]) == 0
        assert out.exists()


class TestCrosscheckCommand:
    def test_deterministic_report(self, tmp_path):
        r1 = tmp_path / "a.json"
        r2 = tmp_path / "b.json"
        assert main(["crosscheck", "--out", str(r1)]) == 0
        assert main(["crosscheck", "--out", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()
        payload = read_json(r1)
        assert payload["matrix_determinant"] == -2.0
        assert payload["permissive_mode"] is True


class TestJsonWriter:
    def test_sorted_and_newline_terminated(self, tmp_path):
        path = tmp_path / "x.json"
        write_json(path, {"b": 1, "a": 2})
        text = path.read_text()
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")
