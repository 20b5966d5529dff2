"""Metrics from the loop's records: end-to-end and per-layer, with units."""
from __future__ import annotations

import math
import resource
import statistics

from measure import REFERENCE_S, speed_scales

END_TO_END_UNITS = {
    "op_p50_s": "s",
    "op_tail_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

CALLS = (
    "rewriting.complete", "homological.homotopy_hom", "algebra.multiply",
    "linalg.det_int", "algebra.quotient_basis", "tilting.check_tilting",
    "quiver.build_quiver", "graph.serialize_graph",
)
SELF = (
    "rewriting.complete", "rewriting.normal_words", "homological.homotopy_hom",
    "algebra.multiply", "linalg.det_int", "algebra.quotient_basis",
    "tilting.check_tilting", "reduction.reduce_to_normal_form",
    "reduction.certify_trace", "homological.happel_cartan", "homological.minimize",
    "homological.is_null_homotopic", "homological.check_complex",
    "tilting.verify_end_generators", "tilting.end_cartan", "algebra.socle_quotient",
    "algebra.presentations_equal_on_basis", "quiver.build_quiver", "cli",
)
COUNTS = (
    "rewriting.rules", "rewriting.normal_words.words", "linalg.det_int.distinct",
    "algebra.quotient_basis.distinct", "homological.minimize.cancelled",
)
MAXIMA = ("homological.homotopy_hom.max_summands", "linalg.det_int.max_n")
PER_LAYER_UNITS = {
    "calls": "count", "self_s": "s", "rules": "count", "words": "count",
    "overlap_ratio": "ratio", "max_summands": "count", "distinct": "count",
    "max_n": "count", "cancelled": "count", "check_tilting_per_step": "ratio",
    "stdout_bytes": "bytes", "tracing_overhead_s": "s",
}


def unit_of(name):
    return END_TO_END_UNITS.get(name) or PER_LAYER_UNITS[name.rsplit(".", 1)[-1]]


TAIL_PERCENTILE = 90  # the workloads are sized so a run has ten samples beyond it


def tail(samples, pct=TAIL_PERCENTILE):
    """Nearest-rank percentile: returns (value, samples beyond it).

    The percentile is fixed rather than the highest one with ten samples
    beyond it, because that one would rise with the number of invocations a
    faster commit fits into a run.
    """
    xs = sorted(samples)
    k = max(1, math.ceil(pct / 100 * len(xs)))
    return xs[k - 1], len(xs) - k


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def with_scales(records):
    """Attach each record's speed scale (see measure.py)."""
    for rec, scale in zip(records, speed_scales([r["kernel_s"] for r in records])):
        rec["scale"] = scale
    return records


def end_to_end(records, complete_rounds):
    """Metrics over the invocations of the complete rounds.

    A partial last round would tilt the mix of sizes, so it only counts
    when no round completed.  Times are medians over invocations.  The
    rate is total work over total time: single invocations of a mixed
    workload differ in rate by command, so their median jumps between
    commands, and single rounds differ by the shapes drawn.
    """
    with_scales(records)
    used = [r for r in records if r["round"] < complete_rounds] or records
    times = [r["seconds"] * r["scale"] for r in used]
    value, beyond = tail(times)
    metrics = {
        "op_p50_s": statistics.median(times),
        "op_tail_s": value,
        "work_per_s": sum(r["units"] for r in used) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = [r["seconds"] for r in used]
    notes = [
        f"{len(used)} invocations in {complete_rounds} complete rounds are measured",
        f"op_tail_s is p{TAIL_PERCENTILE} of {len(times)} samples ({beyond} beyond it)",
        f"work_per_s is {sum(r['units'] for r in used)} work units over {sum(times):.3f} s",
        f"unscaled wall time: median {statistics.median(raw):.6f} s, tail {tail(raw)[0]:.6f} s; "
        f"median kernel time {statistics.median(r['kernel_s'] for r in used) * 1e3:.4f} ms "
        f"(reference {REFERENCE_S * 1e3} ms)",
    ]
    return metrics, notes


def per_layer(records):
    """Per-layer metrics of the traced invocations.

    Counts and self times are per traced invocation: their total over the
    traced invocations divided by the number of those.  The self times of
    all layers then add up to the mean traced invocation time, so each is
    that layer's share, also on a workload that mixes commands.  Times are
    scaled like the end-to-end ones.  Maxima are over the run, ratios are
    ratios of totals, and the notes give each ratio's base.
    tracing_overhead_s is the median traced invocation time minus the median
    untraced one.
    """
    with_scales(records)
    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"]]
    n = max(1, len(traced))

    def total(field, name):
        return sum(r["layers"][field].get(name, 0) for r in traced)

    def self_time(pick):
        return sum(
            v * r["scale"] for r in traced for k, v in r["layers"]["self_s"].items() if pick(k)
        ) / n

    m = {f"{name}.calls": total("calls", name) / n for name in CALLS}
    m.update({f"{name}.self_s": self_time(lambda k, name=name: k == name) for name in SELF})
    m.update({key: total("counters", key) / n for key in COUNTS})
    m.update({
        key: max((r["layers"]["counters"].get(key, 0) for r in traced), default=0)
        for key in MAXIMA
    })
    m["graph.self_s"] = self_time(lambda k: k.startswith("graph."))
    m["cli.stdout_bytes"] = sum(r["stdout_bytes"] for r in traced) / n
    hom = total("calls", "homological.homotopy_hom")
    overlaps = total("counters", "homological.homotopy_hom.overlaps")
    m["homological.homotopy_hom.overlap_ratio"] = overlaps / hom if hom else 0.0
    steps = sum(r["steps"] for r in traced)
    tilts = total("calls", "tilting.check_tilting")
    m["reduction.check_tilting_per_step"] = tilts / steps if steps else 0.0
    m["tracing_overhead_s"] = (
        median_or_zero([r["seconds"] * r["scale"] for r in traced])
        - median_or_zero([r["seconds"] * r["scale"] for r in untraced])
    )
    notes = [
        f"per-layer values are per traced invocation, over {len(traced)} traced invocations",
        f"homological.homotopy_hom.overlap_ratio = {overlaps} calls whose degree ranges "
        f"meet / {hom} calls",
        f"reduction.check_tilting_per_step = {tilts} check_tilting calls / {steps} "
        "certified steps",
        f"tracing_overhead_s: median of {len(traced)} traced minus median of "
        f"{len(untraced)} untraced invocations",
    ]
    return m, notes
