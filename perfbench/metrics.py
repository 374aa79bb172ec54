"""Per-layer metrics of the traced run, named ``<module>.<function>.<stat>``.

Every traced run reports every metric below.  Each workload reaches one
group of layers (``lct``, ``packets`` or ``files``); the other groups are
measured by foreign probes: set-up plus one round of each other workload at
its ``CONFIGS["probe"]`` scale, made only in the traced run.  Spans
recorded during set-up are left out, so warm-up calls do not count.
METRICS.md says which end-to-end metric each one should move.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Callable

from harness import run_job

LABELS = ("n14", "n17", "n20")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    reduce: Callable


def _spans(tr, name, **match):
    return [s for s in tr.spans
            if s.name == name and not (s.job or "").startswith("setup")
            and all(s.attrs.get(k) == v for k, v in match.items())]


def _values(tr, name, **match):
    return [v.value for v in tr.values
            if v.name == name and all(v.attrs.get(k) == val for k, val in match.items())]


def _median(samples: list) -> tuple[float, int]:
    return statistics.median(samples), len(samples)


def span_ms(name, **match):
    return lambda tr: _median([1e3 * s.seconds for s in _spans(tr, name, **match)])


def ms_per_mpt(name, **match):
    return lambda tr: _median([1e3 * s.seconds / (s.attrs["points"] / 1e6)
                               for s in _spans(tr, name, **match)])


def mb_per_s(name):
    return lambda tr: _median([s.attrs["bytes"] / 1e6 / s.seconds for s in _spans(tr, name)])


def value_max(name, **match):
    def reduce(tr):
        samples = _values(tr, name, **match)
        return max(samples), len(samples)
    return reduce


def value_median(name, **match):
    return lambda tr: _median(_values(tr, name, **match))


def per_round_sum(name):
    def reduce(tr):
        rounds: dict = {}
        for v in tr.values:
            if v.name == name:
                key = v.attrs.get("round")
                rounds[key] = rounds.get(key, 0.0) + v.value
        return _median(list(rounds.values()))
    return reduce


def canonical_us(tr):
    return _median([1e6 * s.seconds for s in tr.spans if s.name.startswith("canonical.")])


def fast_over_fft(tr):
    fast, n = span_ms("lct.lct_fast", label="n20")(tr)
    floor, _ = span_ms("lct.fft_floor", label="n20")(tr)
    return fast / floor, n


PER_LAYER = [
    Metric("setup.import_ms", "ms", "lower", value_median("setup.import_ms")),
    Metric("trace.overhead_pct", "%", "lower", value_median("trace.overhead_pct")),
    Metric("canonical.build.us", "us", "lower", canonical_us),
    *[Metric(f"lct.lct_fast.ms.{n}", "ms", "lower", span_ms("lct.lct_fast", label=n))
      for n in LABELS],
    *[Metric(f"lct.ilct.ms.{n}", "ms", "lower", span_ms("lct.ilct", label=n))
      for n in LABELS],
    *[Metric(f"lct.fft_floor.ms.{n}", "ms", "lower", span_ms("lct.fft_floor", label=n))
      for n in LABELS],
    Metric("lct.fast_over_fft.n20", "ratio", "lower", fast_over_fft),
    *[Metric(f"lct.roundtrip_err.max.{n}", "rel", "lower",
             value_max("lct.roundtrip_err", label=n)) for n in LABELS],
    Metric("lct.oracle_err.n11", "rel", "lower", value_max("lct.oracle_err")),
    Metric("lct.fft_flops_computed.n20", "flop", "lower",
           value_max("lct.fft_flops_computed", label="n20")),
    Metric("lct.bytes_moved_computed.n20", "B", "lower",
           value_max("lct.bytes_moved_computed", label="n20")),
    Metric("filters.haar_filter_bank.ms", "ms", "lower",
           span_ms("wavelets.haar_filter_bank")),
    Metric("filters.filter_eval.closed.ms_per_Mpt", "ms/Mpt", "lower",
           ms_per_mpt("filters.filter_eval", kind="closed")),
    Metric("filters.filter_eval.stored.ms_per_Mpt", "ms/Mpt", "lower",
           ms_per_mpt("filters.filter_eval", kind="stored")),
    Metric("filters.complete_filters.ms", "ms", "lower",
           span_ms("filters.complete_filters")),
    Metric("wavelets.cascade.ms", "ms", "lower", span_ms("wavelets.cascade")),
    Metric("wavelets.hat_to_signal.ms", "ms", "lower",
           span_ms("wavelets.hat_to_signal")),
    Metric("wavelets.cascade.tail_deviation", "abs", "lower",
           value_max("wavelets.cascade.tail_deviation")),
    Metric("packets.packet_hat.ms_per_node", "ms", "lower",
           span_ms("packets.packet_hat")),
    Metric("packets.packet_gram.ms", "ms", "lower", span_ms("packets.packet_gram")),
    Metric("packets.PacketBasis.certify.ms", "ms", "lower",
           span_ms("packets.PacketBasis.certify")),
    Metric("packets.packet_analyze.ms", "ms", "lower",
           span_ms("packets.packet_analyze")),
    Metric("packets.packet_synthesize.ms", "ms", "lower",
           span_ms("packets.packet_synthesize")),
    Metric("packets.fold_residuals.ms", "ms", "lower",
           span_ms("packets.fold_residuals")),
    Metric("packets.atoms", "count", "higher", value_max("packets.atoms")),
    Metric("packets.gram_off_identity.max", "abs", "lower",
           value_max("packets.gram_off_identity")),
    Metric("sampling.gram_matrix.ms", "ms", "lower", span_ms("sampling.gram_matrix")),
    Metric("io.write_signal_csv.MBps", "MB/s", "higher", mb_per_s("io.write_signal_csv")),
    Metric("io.read_signal_csv.MBps", "MB/s", "higher", mb_per_s("io.read_signal_csv")),
    Metric("io.write_filter_csv.ms", "ms", "lower", span_ms("io.write_filter_csv")),
    Metric("io.read_filter_csv.ms", "ms", "lower", span_ms("io.read_filter_csv")),
    Metric("io.bytes_written", "B", "lower", per_round_sum("io.bytes_written")),
    Metric("reports.bank_report.ms", "ms", "lower", span_ms("reports.bank_report")),
    Metric("reports.lowpass_report.ms", "ms", "lower", span_ms("reports.lowpass_report")),
    Metric("cli.startup.ms", "ms", "lower", span_ms("cli.startup")),
    *[Metric(f"cli.{cmd}.ms", "ms", "lower", span_ms(f"cli.{cmd}"))
      for cmd in ("lct_fwd", "lct_inv", "haar", "verify", "cascade", "packets_gram",
                  "crosscheck")],
]


def run_foreign_probes(ctx, mod, all_modules: dict) -> None:
    """Measure the layers ``mod`` does not reach with a small run of each other workload."""
    tr = ctx.tracer
    scale = "probe" if ctx.scale == "full" else ctx.scale
    for name, other in all_modules.items():
        if other is mod:
            continue
        tr.job = "setup.probe"
        state = other.setup(ctx, other.CONFIGS[scale])
        for k, job in enumerate(other.round_jobs(ctx, state, 0)):
            run_job(ctx, job, f"probe.{name}.j{k}")
        other.once_checks(ctx, state)
        tr.job = "probe"
        other.probes(ctx, state)


def per_layer(tr) -> dict:
    """Every per-layer metric as (value, unit, samples)."""
    out = {}
    missing = []
    for metric in PER_LAYER:
        try:
            value, samples = metric.reduce(tr)
        except (statistics.StatisticsError, ValueError):
            missing.append(metric.name)
            continue
        out[metric.name] = (float(value), metric.unit, samples)
    if missing:
        raise RuntimeError(f"traced run recorded no samples for {', '.join(missing)}")
    return out
