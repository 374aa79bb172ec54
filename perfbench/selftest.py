#!/usr/bin/env python3
"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

Each workload runs once at tiny size (``PERFBENCH_SCALE=tiny``), untraced
and traced, and must print exactly the metric names and units recorded in
``BENCHMARK.json``.  Two runs with one seed must see byte-identical inputs
and the same attempted and failed job counts.  A deliberately perturbed result (a scaled round trip, a corrupted CSV row)
must be counted as a failed job, not pass.  The file is not named
``test_*.py`` so the repository's own test run does not collect it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOADS = ("lct_roundtrip", "packet_tree", "files_session")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny_run(workload: str, trace: int, seed: int = 1) -> tuple[dict, list[str]]:
    env = dict(os.environ, PERFBENCH_SCALE="tiny")
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def _inputs_line(lines: list[str]) -> str:
    return next(line for line in lines if line.startswith("inputs: "))


def test_metric_names_match_spec():
    spec = _spec()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for workload in WORKLOADS:
            result, _ = _tiny_run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["attempted"] >= 1 and isinstance(result["failed"], int)
            got = {name: entry["unit"] for name, entry in result["metrics"].items()}
            assert got == expected, (workload, trace, set(got) ^ set(expected))
            assert all(isinstance(e["value"], float) for e in result["metrics"].values())


def test_same_seed_same_inputs_and_failures():
    result, first = _tiny_run("lct_roundtrip", 0, seed=5)
    repeat, again = _tiny_run("lct_roundtrip", 0, seed=5)
    _, other = _tiny_run("lct_roundtrip", 0, seed=6)
    assert _inputs_line(first) == _inputs_line(again)
    assert _inputs_line(first) != _inputs_line(other)
    # the round count depends on --seconds alone, so one seed fails alike
    assert (result["attempted"], result["failed"]) == (repeat["attempted"], repeat["failed"])


def _in_process(workload: str):
    """Tiny untraced run of one workload inside this process."""
    from harness import run_workload
    import importlib

    modules = {name: importlib.import_module(name) for name in WORKLOADS}
    return run_workload(modules[workload], seed=1, seconds=0.0, trace=False, scale="tiny",
                        root=ROOT, all_modules=modules)


def test_scaled_roundtrip_counts_as_failure():
    import lct_roundtrip

    original = lct_roundtrip.ilct

    def scaled(*args, **kwargs):
        out = original(*args, **kwargs)
        return type(out)(out.grid, out.values * 1.01)

    lct_roundtrip.ilct = scaled
    try:
        result = _in_process("lct_roundtrip")
    finally:
        lct_roundtrip.ilct = original
    outcomes = result["outcomes"]
    # every job fails: b < 0 ones raise as before, all others miss the 1e-6 check
    assert all(not o.ok for o in outcomes)
    assert result["e2e"]["error_rate"][0] == 1.0
    assert any(o.cause == "unexpected" and o.kind.endswith("fourier") for o in outcomes)


def test_corrupted_csv_row_counts_as_failure():
    import harness

    original = harness.Ctx.cli

    def corrupting(self, args, timeout=150.0):
        proc = original(self, args, timeout)
        if args[:2] == ["lct", "fwd"]:
            out = Path(args[args.index("--out") + 1])
            lines = out.read_text().splitlines()
            fields = lines[5].split(",")
            fields[1] = repr(float(fields[1]) + 1.0)
            lines[5] = ",".join(fields)
            out.write_text("\n".join(lines) + "\n")
        return proc

    harness.Ctx.cli = corrupting
    try:
        result = _in_process("files_session")
    finally:
        harness.Ctx.cli = original
    fwd = [o for o in result["outcomes"] if o.kind == "cli.lct_fwd"]
    assert fwd and all(not o.ok and o.cause == "unexpected" for o in fwd), fwd
    assert result["e2e"]["error_rate"][0] > 0.0


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import host

    host.pin_threads()
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failures = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failures} passed, {failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
