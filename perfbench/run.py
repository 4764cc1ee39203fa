"""The repo benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serving --seed 11 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes the separate traced run that attributes wall time to
layers and reports exact counts and modelled critical-path segments.
Human-readable lines go first; the last line of standard output is the
JSON result ``{"correct", "attempted", "failed", "metrics"}``.  The full
record (host fingerprint, per-pass times, spans) is written under
``.perfbench-out/`` in the checkout.  Compare results only within one
host and session: the host fingerprint is part of every record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's pinned seed)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rss-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _print_metrics(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>18.6f} {units[name]}")


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import measure

    wl = WORKLOADS[args.workload]
    seed = wl.pinned_seed if args.seed is None else args.seed
    if args.rss_probe:
        print(json.dumps({"peak_rss_mb": measure.rss_probe_main(
            args.workload, seed)}))
        return 0

    started = time.perf_counter()
    if args.trace:
        import repro

        result = measure.measure_traced(
            args.workload, seed, args.seconds,
            str(Path(repro.__file__).resolve().parent),
        )
        units = measure.PER_LAYER
    else:
        result = measure.measure_untraced(args.workload, seed, args.seconds)
        units = measure.END_TO_END
    host = measure.host_fingerprint()
    correct = result["failed"] == 0 and not result["problems"]

    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"{args.workload}-seed{seed}-trace{args.trace}.json"
    record.write_text(json.dumps({
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "elapsed_s": time.perf_counter() - started,
        "correct": correct,
        **result,
    }, indent=1, default=repr))

    print(f"perfbench {args.workload} seed={seed} trace={args.trace} "
          f"host={host['nproc']}x {host['cpu_model']} "
          f"python {host['python']}")
    _print_metrics(result["metrics"], units)
    detail = result["detail"]
    if args.trace:
        ranking = ", ".join(
            f"{layer} {share:.1%}"
            for layer, share in detail["layer_shares"].items()
        )
        print(f"  self-time shares: {ranking}")
    else:
        print(f"  delivery_tail_us is p{detail['tail_percentile']:g} of "
              f"{detail['samples']} samples over "
              f"{detail['realizations']} realization(s); "
              f"{detail['passes']} timed passes; pooled p99 "
              f"{detail['delivery_p99_us']:.3f} us")
        print(f"  host times are at reference speed; raw median wall "
              f"{detail['raw_wall_s']:.6f} s, median speed scale "
              f"{statistics.median(detail['pass_scale']):.3f}")
    for problem in result["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(f"  record: {record.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
