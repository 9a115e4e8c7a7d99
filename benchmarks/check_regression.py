"""Perf-regression gate over the decode fast-forwarding speedups.

Compares a fresh ``bench_speed.py`` result against the committed
``BENCH_speed.json`` baseline so the PR-4 fast-forward wins cannot rot
silently. The gated metric is the **fig09-class aggregate speedup**
(the number PR 4's acceptance bar targets) plus every per-case
speedup, and — when a fresh ``bench_scale.py`` JSON is supplied — the
day-in-the-life benchmark's requests-per-wall-second.

Tolerances are **profile-guided**: the committed ``BENCH_noise.json``
records, per gated metric, how much repeated ``--quick`` runs on the
reference machine actually swing (three times the observed half-spread
around the median, clamped to [10%, 60%]). A metric regresses only
when it falls below ``(1 - band) * baseline`` for *its own* measured
band — a steady metric gets a tight gate, a noisy one a loose gate,
and neither eats the other's margin the way one fixed tolerance did.
Metrics absent from the noise profile (or when the file is missing)
fall back to the fixed ``--tolerance`` / ``--case-tolerance`` /
``--scale-tolerance`` defaults.

Recalibrate after any perf-relevant change with::

    python benchmarks/check_regression.py --calibrate 5

which re-runs both quick benchmarks N times and rewrites
``BENCH_noise.json`` (commit it alongside the re-pinned baselines).

Compare like scale with like scale: quick runs against the committed
``BENCH_speed_quick.json``, full runs (nightly) against the full-scale
``BENCH_speed.json`` — quick and full speedups differ systematically,
and a cross-scale comparison would eat most of the tolerance before
any real regression. The same applies to ``bench_scale`` routers: a
day whose router reads replica views and a ``round_robin`` day that
reads none have different throughput profiles, so scale runs are gated
per router.

Usage (the CI bench job)::

    python benchmarks/bench_speed.py --quick --output fresh.json
    python benchmarks/bench_scale.py --quick --output fresh_scale.json
    python benchmarks/check_regression.py \
        --baseline BENCH_speed_quick.json --fresh fresh.json \
        --scale-baseline BENCH_scale_quick.json \
        --scale-fresh fresh_scale.json
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile

#: Calibrated bands are clamped to this range: below 10% the gate would
#: trip on scheduler jitter the repeats happened to miss; above 60% it
#: no longer distinguishes rot from noise and the metric needs a better
#: benchmark, not a wider band.
BAND_FLOOR = 0.10
BAND_CEIL = 0.60


def _band(samples) -> float:
    """Noise band for one metric: 3x the observed half-spread of the
    repeated measurements, relative to their median, clamped."""
    mid = statistics.median(samples)
    half_spread = (max(samples) - min(samples)) / 2.0
    return round(
        min(BAND_CEIL, max(BAND_FLOOR, 3.0 * half_spread / mid)), 3
    )


def check(
    baseline: dict,
    fresh: dict,
    tolerance: float,
    case_tolerance: float,
    noise: dict,
) -> list:
    """Returns the list of human-readable regression findings."""
    problems = []
    speed_noise = noise.get("speed", {})
    base_agg = baseline["fig09_class_speedup"]
    fresh_agg = fresh["fig09_class_speedup"]
    agg_band = speed_noise.get("fig09_class_speedup", tolerance)
    floor = (1.0 - agg_band) * base_agg
    if fresh_agg < floor:
        problems.append(
            f"fig09-class aggregate speedup regressed: {fresh_agg:.2f}x "
            f"vs baseline {base_agg:.2f}x (floor {floor:.2f}x at "
            f"{agg_band:.0%} band)"
        )
    base_cases = {c["case"]: c["speedup"] for c in baseline["cases"]}
    case_bands = speed_noise.get("cases", {})
    for case in fresh["cases"]:
        name = case["case"]
        if name not in base_cases:
            continue  # e.g. the fleet-size-suffixed cluster case
        band = case_bands.get(name, case_tolerance)
        case_floor = (1.0 - band) * base_cases[name]
        if case["speedup"] < case_floor:
            problems.append(
                f"{name}: speedup {case['speedup']:.2f}x vs baseline "
                f"{base_cases[name]:.2f}x (floor {case_floor:.2f}x at "
                f"{band:.0%} band)"
            )
    return problems


def check_scale(
    baseline: dict, fresh: dict, tolerance: float, noise: dict
) -> list:
    """Gate the day-in-the-life benchmark's wall-clock throughput."""
    problems = []
    for key in ("quick", "router"):
        if baseline.get(key) != fresh.get(key):
            problems.append(
                f"bench_scale baseline and fresh run differ on {key!r} "
                f"(baseline {baseline.get(key)!r}, fresh "
                f"{fresh.get(key)!r}) — compare like with like"
            )
    if problems:
        return problems
    band = noise.get("scale", {}).get(
        str(fresh.get("router")), tolerance
    )
    base = baseline["requests_per_wall_second"]
    current = fresh["requests_per_wall_second"]
    floor = (1.0 - band) * base
    if current < floor:
        problems.append(
            f"bench_scale throughput regressed: {current:,.0f} req/s "
            f"vs baseline {base:,.0f} req/s (floor {floor:,.0f} at "
            f"{band:.0%} band)"
        )
    return problems


def calibrate(samples: int, noise_path: str) -> int:
    """Re-measure the quick benchmarks ``samples`` times and write the
    per-metric noise bands they exhibit."""
    bench_dir = pathlib.Path(__file__).parent
    # The benchmark subprocesses run inside a scratch directory, so a
    # relative PYTHONPATH (CI sets `src`) would stop resolving — hand
    # them the absolute package path explicitly.
    env = dict(os.environ)
    src = str(bench_dir.parent / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else src
    )
    agg = []
    cases: dict = {}
    scale: dict = {}
    with tempfile.TemporaryDirectory() as scratch:
        out = pathlib.Path(scratch) / "run.json"
        for index in range(samples):
            print(f"calibration pass {index + 1}/{samples}: bench_speed")
            subprocess.run(
                [
                    sys.executable,
                    str(bench_dir / "bench_speed.py"),
                    "--quick",
                    "--output",
                    str(out),
                ],
                check=True,
                cwd=scratch,
                env=env,
            )
            run = json.loads(out.read_text())
            agg.append(run["fig09_class_speedup"])
            for case in run["cases"]:
                cases.setdefault(case["case"], []).append(case["speedup"])
        sys.path.insert(0, str(bench_dir))
        from bench_scale import ROUTERS

        for router in ROUTERS:
            for index in range(samples):
                print(
                    f"calibration pass {index + 1}/{samples}: "
                    f"bench_scale ({router})"
                )
                subprocess.run(
                    [
                        sys.executable,
                        str(bench_dir / "bench_scale.py"),
                        "--quick",
                        "--router",
                        router,
                        "--output",
                        str(out),
                    ],
                    check=True,
                    cwd=scratch,
                    env=env,
                )
                run = json.loads(out.read_text())
                scale.setdefault(router, []).append(
                    run["requests_per_wall_second"]
                )
    profile = {
        "benchmark": "bench_noise",
        "samples": samples,
        "speed": {
            "fig09_class_speedup": _band(agg),
            "cases": {
                name: _band(values) for name, values in sorted(cases.items())
            },
        },
        "scale": {
            router: _band(values) for router, values in sorted(scale.items())
        },
    }
    with open(noise_path, "w") as handle:
        json.dump(profile, handle, indent=1)
        handle.write("\n")
    print(f"wrote {noise_path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        default="BENCH_speed.json",
        help="committed baseline JSON",
    )
    parser.add_argument(
        "--fresh",
        default=None,
        help="freshly measured bench_speed JSON (omit to skip the gate)",
    )
    parser.add_argument(
        "--scale-baseline",
        default="BENCH_scale_quick.json",
        help="committed bench_scale baseline JSON",
    )
    parser.add_argument(
        "--scale-fresh",
        default=None,
        help="freshly measured bench_scale JSON (omit to skip the gate)",
    )
    parser.add_argument(
        "--noise",
        default="BENCH_noise.json",
        help="committed per-metric noise bands (missing file: fall back "
        "to the fixed tolerances)",
    )
    parser.add_argument(
        "--calibrate",
        type=int,
        default=None,
        metavar="N",
        help="re-run the quick benchmarks N times and rewrite --noise "
        "instead of gating",
    )
    parser.add_argument(
        "--scale-tolerance",
        type=float,
        default=0.50,
        help="fallback fractional loss of bench_scale throughput",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="fallback fractional loss of the aggregate speedup",
    )
    parser.add_argument(
        "--case-tolerance",
        type=float,
        default=0.50,
        help="fallback fractional loss of any single case's speedup",
    )
    args = parser.parse_args(argv)
    if args.calibrate is not None:
        if args.calibrate < 2:
            parser.error("--calibrate needs at least 2 samples")
        return calibrate(args.calibrate, args.noise)
    if args.fresh is None and args.scale_fresh is None:
        parser.error("nothing to gate: pass --fresh and/or --scale-fresh")
    try:
        with open(args.noise) as handle:
            noise = json.load(handle)
        noise_note = f"noise profile {args.noise}"
    except FileNotFoundError:
        noise = {}
        noise_note = "fixed tolerances (no noise profile)"
    problems = []
    speed_note = "no speed run supplied"
    if args.fresh is not None:
        with open(args.baseline) as handle:
            baseline = json.load(handle)
        with open(args.fresh) as handle:
            fresh = json.load(handle)
        problems += check(
            baseline, fresh, args.tolerance, args.case_tolerance, noise
        )
        speed_note = (
            f"aggregate {fresh['fig09_class_speedup']:.2f}x vs "
            f"baseline {baseline['fig09_class_speedup']:.2f}x "
            f"({len(fresh['cases'])} cases)"
        )
    scale_note = ""
    if args.scale_fresh is not None:
        with open(args.scale_baseline) as handle:
            scale_baseline = json.load(handle)
        with open(args.scale_fresh) as handle:
            scale_fresh = json.load(handle)
        problems += check_scale(
            scale_baseline, scale_fresh, args.scale_tolerance, noise
        )
        scale_note = (
            f", bench_scale "
            f"{scale_fresh['requests_per_wall_second']:,.0f} req/s vs "
            f"baseline "
            f"{scale_baseline['requests_per_wall_second']:,.0f} req/s"
        )
    if problems:
        print("PERF REGRESSION:", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    print(f"perf gate ok ({noise_note}): {speed_note}{scale_note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
