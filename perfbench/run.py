#!/usr/bin/env python3
"""Benchmark of lct_numra: LCT round trips, certified packet trees, CLI file sessions.

Run from the root of a checkout (the directory holding ``src/lct_numra``):

    python3 perfbench/run.py --workload lct_roundtrip --seed 1 --seconds 24 --trace 0

``--trace 0`` prints every end-to-end metric with its unit and sample
count, the pass/fail count of the correctness checks and the cause of each
failure.  ``--trace 1`` makes the traced run instead and prints the
per-layer metrics.  ``--workload all`` runs every workload, each in its own
process, and prints one table.  The last line of standard output is always
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Results, host facts and the spans of traced runs are written
under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import host

WORKLOADS = ("lct_roundtrip", "packet_tree", "files_session")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def run_all(args, root: Path) -> int:
    """Each workload in its own process; one table of every metric."""
    script = Path(__file__).resolve()
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(script), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=root, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined, sort_keys=True))
    return 0


def report(args, mod, result: dict, facts: dict) -> dict:
    """Print the human-readable summary; return the final JSON object."""
    from harness import KNOWN_CAUSES, P90_MIN_JOBS

    outcomes, checks = result["outcomes"], result["checks"]
    failed = [o for o in outcomes if not o.ok]
    failed_checks = [c for c in checks if not c.ok]
    unexpected = [o for o in failed + failed_checks if o.cause == "unexpected"]
    threads = ",".join(f"{k}={v}" for k, v in facts["threads"].items())
    print(f"perfbench workload={mod.NAME} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"host: nproc={facts['nproc']} cpu=\"{facts['cpu']}\" L2={facts['L2']} "
          f"L3={facts['L3']} python={facts['python']} numpy={facts['numpy']} {threads}")
    print(f"inputs: sha256={result['inputs']}")
    metrics = result["per_layer"] if args.trace else result["e2e"]
    print(f"{'metric':42s} {'value':>14s} {'unit':>8s} {'samples':>8s}")
    for name, (value, unit, samples) in metrics.items():
        note = ""
        if name == "job_p90_ms" and samples < P90_MIN_JOBS:
            note = "  (fewer than 10 samples beyond p90)"
        print(f"{name:42s} {_fmt(value):>14s} {unit:>8s} {str(samples or '-'):>8s}{note}")
    print(f"checks: {len(outcomes)} jobs, {len(outcomes) - len(failed)} passed, "
          f"{len(failed)} failed; once-per-run checks {len(checks) - len(failed_checks)} "
          f"passed, {len(failed_checks)} failed")
    causes: dict[str, int] = {}
    for o in failed + failed_checks:
        causes[o.cause] = causes.get(o.cause, 0) + 1
    for cause, count in sorted(causes.items()):
        why = KNOWN_CAUSES.get(cause, "no known defect explains this failure")
        print(f"  failed [{cause}] x{count}: {why}")
    for o in unexpected[:3]:
        print(f"  unexpected failure in {o.kind}: {o.detail}", file=sys.stderr)
    return {
        "correct": not unexpected,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }


def save(root: Path, args, mod, result: dict, facts: dict, final: dict) -> None:
    base = root / ".perfbench"
    base.mkdir(exist_ok=True)
    stem = f"{mod.NAME}-seed{args.seed}-trace{args.trace}"
    per_kind: dict[str, dict] = {}
    for o in result["outcomes"]:
        row = per_kind.setdefault(o.kind, {"jobs": 0, "failed": 0, "causes": {}, "detail": "",
                                           "ms": []})
        row["jobs"] += 1
        row["ms"].append(1e3 * o.seconds)
        if not o.ok:
            row["failed"] += 1
            row["causes"][o.cause] = row["causes"].get(o.cause, 0) + 1
            row["detail"] = o.detail
    header = {
        "workload": mod.NAME, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "host": facts, "inputs_sha256": result["inputs"], "setup_times_s": result["setup_times"],
    }
    payload = {
        **header, "result": final, "jobs_by_kind": per_kind,
        "once_checks": [vars(c) for c in result["checks"]],
    }
    (base / f"result-{stem}.json").write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    if args.trace:
        result["tracer"].write(base / f"trace-{stem}.json", header)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    package = root / "src" / "lct_numra" / "__init__.py"
    if not package.is_file():
        print(f"error: {package} not found; run from the root of an lct_numra checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, root)
    # PERFBENCH_SCALE=tiny shrinks every size; only the self-tests set it
    scale = os.environ.get("PERFBENCH_SCALE", "full")
    if scale not in ("full", "tiny"):
        print(f"error: PERFBENCH_SCALE must be full or tiny, not {scale!r}", file=sys.stderr)
        return 2
    host.pin_threads()
    sys.path.insert(0, str(root / "src"))
    import lct_numra

    if Path(lct_numra.__file__).resolve() != package.resolve():
        print(f"error: imported lct_numra from {lct_numra.__file__}, not {package}",
              file=sys.stderr)
        return 2
    import importlib

    from harness import run_workload

    modules = {name: importlib.import_module(name) for name in WORKLOADS}
    mod = modules[args.workload]
    facts = host.host_facts()
    result = run_workload(mod, seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                          scale=scale, root=root,
                          all_modules=modules)
    final = report(args, mod, result, facts)
    save(root, args, mod, result, facts, final)
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
