#!/usr/bin/env python3
"""Cross-PR perf trajectory check over the BENCH_*.json reports.

Compares freshly emitted bench reports against the committed baselines in
bench/baselines/ and fails on virtual-time regressions. Gated metrics are
the simulator-deterministic ones (identical on every host):

  * keys containing "cycles" (e.g. platform_cycles_per_image) — lower is
    better; growing past the threshold fails;
  * keys containing "virtual_images_per_sec" (cycles-per-image at the
    platform clock, inverted) — higher is better; shrinking past the
    threshold fails.

Wall-clock metrics (ms, images/sec, speedup) vary with the host and are
never compared against baselines; the wall-clock record is perfbench/.
Two values are held to absolute floors instead (see FLOOR_METRICS below):
restage_bit_exact, and one host rate, the int8 conv kernel's GMAC/s (a
median over warm repeats). A null in a gated key (bench::JsonReport writes
a non-finite value as null) is a named failure.

Usage:
    python3 bench/check_regression.py [--current-dir DIR]
        [--baseline-dir bench/baselines] [--threshold 0.10]

Exit status: 0 clean, 1 on regressions or missing reports/metrics.

When a virtual-time metric legitimately changes (a modelling fix, a new
stage), refresh the baseline by copying the new BENCH_<name>.json over
bench/baselines/ in the same PR and call it out in the PR description.
"""

import argparse
import json
import math
import pathlib
import sys
from typing import Any, Optional, cast

# Absolute floors held wherever a fresh report carries the key. Every
# other regression perf_check names is caught exactly, not by a wall-clock
# ratio: by a tier-1 test or by an assertion that makes the bench binary
# exit non-zero (replay re-simulating, arenas rebuilt per image, variants
# not sharing their model's artifacts, cached ISS dispatch degrading), and
# the serving wall-clock record is perfbench/, compared parent-vs-change.
#  * restage_bit_exact is 1.0 iff an output produced after a budget
#    eviction + transparent re-stage is bit-identical to the pre-eviction
#    output — any drift in the rebuilt schedule reads 0.0.
#  * conv_gmac_per_s is the int8 conv kernel's throughput: ResNet-18 MACs
#    over the median of 15 warm repeats of its replayed conv ops
#    (int8_conv section of bench_batch_throughput). It is an absolute host
#    rate, so the floor leaves room for host load: on a 4-vCPU x86-64 host
#    the AVX2 kernel reads 15.7-19.5 GMAC/s, and the whole-layer int8
#    im2col kernel it replaced read 2.8-5.1, so sliding back toward that
#    kernel fails the gate. The section's lenet5_* figures are reported,
#    not floored.
FLOOR_METRICS = {
    "restage_bit_exact": 1.0,
    "conv_gmac_per_s": 6.0,
}

# Stats that must be *present* in a fresh report (values are asserted by
# the bench binary itself, where the semantics live): the byte-budget leg
# of bench_multi_variant must keep reporting its eviction accounting, or
# the residency gate silently stops measuring anything.
REQUIRED_KEYS = {
    "BENCH_multi_variant.json": {
        "budget": ["budget_bytes", "resident_bytes_after_eviction",
                   "resident_bytes_after_restage", "evictions"],
    },
    # The ISS legs must keep reporting decode-cache evidence (blocks
    # decoded, cache hits, invalidations) next to the ratios — or the
    # differential check stops proving the cache actually dispatched.
    "BENCH_batch_throughput.json": {
        "lenet5_soc": ["decode_cache_end_to_end_ratio", "decoded_blocks",
                       "block_hits", "block_invalidations"],
        "resnet18_soc": ["decode_cache_end_to_end_ratio", "decoded_blocks",
                         "block_hits", "block_invalidations"],
        "iss_decode_cache": ["decode_cache_speedup", "decoded_blocks",
                             "block_hits", "block_invalidations"],
        # The int8 conv gate reports its median with the spread around it,
        # and which kernel variant (instruction set) produced it.
        "int8_conv": ["conv_host_ms_median", "conv_host_ms_q1",
                      "conv_host_ms_q3", "conv_gmac_per_s", "kernel_isa"],
    },
}


def gated_direction(key: str) -> Optional[str]:
    """"lower"/"higher" = better for baseline-compared metrics, else None."""
    if "virtual_images_per_sec" in key:
        return "higher"
    if "cycles" in key:
        return "lower"
    return None


def as_number(value: Any) -> Optional[float]:
    """A finite metric value as a float; None for null (bench::JsonReport
    writes a non-finite value as null) or any other non-number."""
    if isinstance(value, (int, float)) and math.isfinite(value):
        return float(value)
    return None


def load_report(path: pathlib.Path) -> dict[str, dict[str, Any]]:
    with open(path) as fh:
        report = json.load(fh)
    # json.load is untyped; the bench emitters always write
    # {"sections": {name: {metric: value}}}, so narrow to that shape.
    sections = report.get("sections", {})
    if not isinstance(sections, dict):
        return {}
    return cast("dict[str, dict[str, Any]]", sections)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--current-dir", default=".", type=pathlib.Path,
                        help="directory holding the fresh BENCH_*.json")
    parser.add_argument("--baseline-dir",
                        default=pathlib.Path(__file__).parent / "baselines",
                        type=pathlib.Path)
    parser.add_argument("--threshold", default=0.10, type=float,
                        help="relative change that counts as a regression")
    args = parser.parse_args()

    baselines = sorted(args.baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        print(f"error: no baselines under {args.baseline_dir}", file=sys.stderr)
        return 1

    failures: list[str] = []
    checked = 0
    for baseline_path in baselines:
        current_path = args.current_dir / baseline_path.name
        if not current_path.exists():
            failures.append(f"{baseline_path.name}: report not emitted "
                            f"(expected {current_path})")
            continue
        baseline = load_report(baseline_path)
        current = load_report(current_path)
        for section, metrics in baseline.items():
            # A floored metric disappearing from the fresh report would
            # silently disable its gate — treat that as a failure too.
            for key in FLOOR_METRICS:
                if key in metrics and (section not in current
                                       or key not in current[section]):
                    failures.append(
                        f"{baseline_path.name}:{section}.{key}: floored "
                        f"metric missing from new report")
            for key, base_value in metrics.items():
                direction = gated_direction(key)
                if direction is None:
                    continue
                where = f"{baseline_path.name}:{section}.{key}"
                if section not in current or key not in current[section]:
                    failures.append(f"{where}: metric missing from new report")
                    continue
                checked += 1
                new_value = as_number(current[section][key])
                base = as_number(base_value)
                if new_value is None or base is None:
                    side = "new report" if new_value is None else "baseline"
                    failures.append(f"{where}: null (non-finite) value in "
                                    f"the {side}")
                    continue
                if base <= 0:
                    continue
                growth = (new_value - base) / base
                regressed = (growth > args.threshold if direction == "lower"
                             else growth < -args.threshold)
                improved = (growth < -args.threshold if direction == "lower"
                            else growth > args.threshold)
                if regressed:
                    failures.append(
                        f"{where}: {base:g} -> {new_value:g} "
                        f"({growth:+.1%}, threshold {args.threshold:.0%}, "
                        f"{direction} is better)")
                elif improved:
                    print(f"note: {where} improved {base:g} -> {new_value:g} "
                          f"({growth:+.1%}); consider refreshing the baseline")

    # Absolute floors over the fresh reports.
    for current_path in sorted(args.current_dir.glob("BENCH_*.json")):
        fresh = load_report(current_path)
        for section, keys in REQUIRED_KEYS.get(current_path.name, {}).items():
            for key in keys:
                checked += 1
                if key not in fresh.get(section, {}):
                    failures.append(
                        f"{current_path.name}:{section}.{key}: required "
                        f"stat missing from the report")
        for section, metrics in fresh.items():
            for key, floor in FLOOR_METRICS.items():
                if key not in metrics:
                    continue
                checked += 1
                where = f"{current_path.name}:{section}.{key}"
                value = as_number(metrics[key])
                if value is None:
                    failures.append(f"{where}: null (non-finite) value where "
                                    f"the {floor:.2f} floor applies")
                elif value < floor:
                    failures.append(f"{where}: {value:.2f} below the "
                                    f"{floor:.2f} floor")

    for current_path in sorted(args.current_dir.glob("BENCH_*.json")):
        if not (args.baseline_dir / current_path.name).exists():
            print(f"note: {current_path.name} has no committed baseline; "
                  f"copy it to {args.baseline_dir} to start tracking it")

    if failures:
        print(f"\nperf trajectory check FAILED "
              f"({len(failures)} problem(s), {checked} metrics checked):",
              file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"perf trajectory check passed: {checked} gated metrics within "
          f"bounds (threshold {args.threshold:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
