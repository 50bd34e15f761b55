#!/usr/bin/env python3
"""`dart-e2e`: the repository's benchmark (see README.md beside this file).

    python3 benchmarks/e2e/run.py                      # all five workloads
    python3 benchmarks/e2e/run.py --workload NAME --seed N \\
        --seconds S --trace 0|1                        # one contract run
    python3 benchmarks/e2e/run.py --selftest
    python3 benchmarks/e2e/run.py --repeat-check

A contract run prints every metric by name with its unit and, as the
last line of standard output, the JSON object ``BENCHMARK.json``'s
contract asks for.  It exits non-zero when any output was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
sys.path.insert(0, str(REPO / "src"))

import inputs  # noqa: E402

CHILD = HERE / "child.py"
#: Set-up probes per run, half before the measuring child and half after:
#: a slow spell of this machine lasts seconds, so it rarely covers both.
SETUP_PROBES = 8
#: Runs per set of ``--repeat-check``, one seed each: what the committed
#: bounds were measured against, and what the driver takes quartiles of.
REPEAT_RUNS = 10
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def load_benchmark() -> Dict[str, Any]:
    return json.loads((REPO / "BENCHMARK.json").read_text())


def environment() -> Dict[str, Any]:
    import numpy

    nproc = os.cpu_count() or 1
    affinity = sorted(os.sched_getaffinity(0))
    load_1m = os.getloadavg()[0]
    return {
        "nproc": nproc,
        "cpu_affinity": affinity,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_1m_at_start": load_1m,
        # Flagged, not fatal: timings taken beside other work are noisier.
        "loadavg_above_nproc": load_1m > nproc,
    }


def run_child(spec: Dict[str, Any]) -> Dict[str, Any]:
    done = subprocess.run(
        [sys.executable, str(CHILD), json.dumps(spec)],
        stdout=subprocess.PIPE, text=True, timeout=170,
        # `repro` never calls BLAS, and starting OpenBLAS's thread pool at
        # `import numpy` costs nothing or 70 ms with the state of the
        # machine: a third of `setup_s` that is not the program's.
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    if done.returncode != 0:
        raise SystemExit(f"dart-e2e: measuring process for "
                         f"{spec['workload']} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int, *,
            selftest: bool = False, regen: bool = False,
            inject: Optional[str] = None) -> Dict[str, Any]:
    """One run of one workload: inputs, set-up probes, measuring child."""
    try:
        import workloads
    except ImportError as error:
        raise SystemExit(f"dart-e2e: the program under test is missing "
                         f"from {REPO / 'src'}: {error}")

    kind = workloads.WORKLOADS[workload].input_kind
    manifest = inputs.ensure_input(kind, seed, selftest=selftest, regen=regen)
    spec = {
        "workload": workload, "src": str(REPO / "src"),
        "cache": str(inputs.CACHE), "path": manifest["path"],
        "packets": manifest["packets"], "seconds": seconds, "trace": trace,
        "min_passes": 2 if selftest else 5, "inject": inject,
        "mode": "measure",
    }

    def probe_setup() -> List[float]:
        if trace:
            return []
        return [run_child({**spec, "mode": "probe"})["setup_s"]
                for _ in range(1 if selftest else SETUP_PROBES // 2)]

    probes = probe_setup()
    child = run_child(spec)
    probes += probe_setup()
    packets = child["packets"]
    benchmark = load_benchmark()
    if trace:
        declared = [m["name"] for m in benchmark["per_layer"]]
        layers = {**child["layers"],
                  "harness.generate_s": manifest["generate_s"]}
        undeclared = sorted(set(layers) - set(declared))
        if undeclared:
            raise SystemExit(f"dart-e2e: metrics missing from "
                             f"BENCHMARK.json: {undeclared}")
        # A layer the workload never enters reports zero.
        metrics = {name: float(layers.get(name, 0.0)) for name in declared}
        units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    else:
        # A run's figure for a per-pass time is the lower quartile of its
        # passes: this machine's neighbour slows half a run at a time, so
        # the median pass flips between two regimes (see README).
        wall_s, cpu_s = (child["pass_wall_quartiles_s"][0],
                         child["pass_cpu_quartiles_s"][0])
        metrics = {
            "pps": packets / wall_s,
            "cpu_ns_per_pkt": cpu_s * 1e9 / packets,
            "peak_rss_mb": child["peak_rss_mb"],
            # The lower quartile, as for the pass times above.
            "setup_s": statistics.quantiles(probes, n=4,
                                            method="inclusive")[0],
            "sample_yield": child["sample_yield"],
            "clean_share": 1.0 - child["failed_share"],
        }
        units = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "input": manifest, "child": child, "metrics": metrics,
        "units": units,
        "correct": child["failed"] == 0,
        "attempted": child["attempted"], "failed": child["failed"],
    }


def render(result: Dict[str, Any]) -> List[str]:
    """Every metric by name with its unit, plus what it was measured on."""
    child, manifest = result["child"], result["input"]
    q = child["pass_wall_quartiles_s"]
    packets = child["packets"]
    lines = [
        f"== {result['workload']} seed={result['seed']} "
        f"trace={result['trace']}",
        f"   input {Path(manifest['path']).name}: {manifest['packets']} "
        f"packets, sha256 {manifest['sha256']}"
        f"{' (cached)' if manifest['cached'] else ''}",
        f"   {child['passes']} timed passes after 1 warm-up; pass time "
        f"q1/median/q3 = {q[0]:.4f}/{q[1]:.4f}/{q[2]:.4f} s "
        f"({packets / q[2]:,.0f}/{packets / q[1]:,.0f}/"
        f"{packets / q[0]:,.0f} pps)",
        f"   measuring child: import {child['import_s']:.3f} s, build "
        f"{child['build_s_median'] * 1e3:.2f} ms per pass, warm-up pass "
        f"{child['warmup_pass_s']:.3f} s",
        f"   dart samples {child['dart_samples']}, tcptrace samples "
        f"{child['oracle_samples']}, unpaired {child['unpaired_samples']}, "
        f"failed_share {child['failed_share']:.6g}",
    ]
    lines += [f"   ! {note}" for note in child["notes"]]
    for name, value in result["metrics"].items():
        lines.append(f"  {name}  {value:.6g} {result['units'][name]}")
    if result["trace"]:
        lines.append("   layer budget (self ns/pkt of each span of the "
                     "median traced pass, "
                     f"{child['budget_pass_ns_per_pkt']:.0f} ns/pkt):")
        budget = sorted(child["budget_ns_per_pkt"].items(),
                        key=lambda item: -item[1])
        lines += [f"     {name:40s} {value:9.1f}" for name, value in budget]
    return lines


def contract_line(result: Dict[str, Any]) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": result["units"][name]}
                    for name, value in result["metrics"].items()},
    })


# -- modes ----------------------------------------------------------------------


def contract_run(args) -> int:
    result = measure(args.workload, args.seed, args.seconds, args.trace,
                     selftest=args.scale == "selftest", regen=args.regen,
                     inject=args.inject)
    print("\n".join(render(result)))
    print(contract_line(result))
    return 0 if result["correct"] else 1


def full_run(args) -> int:
    """All workloads, end to end and then traced; one JSON report."""
    benchmark = load_benchmark()
    env = environment()
    if env["loadavg_above_nproc"]:
        print(f"dart-e2e: 1-minute load {env['loadavg_1m_at_start']:.2f} is "
              f"above nproc={env['nproc']}; timings will be noisy")
    names = ([args.workload] if args.workload
             else [w["name"] for w in benchmark["workloads"]])
    report = {"environment": env, "seed": args.seed, "results": []}
    ok = True
    for name in names:
        for trace in (0, 1):
            result = measure(name, args.seed, args.seconds, trace,
                             regen=args.regen and trace == 0)
            print("\n".join(render(result)))
            ok = ok and result["correct"]
            report["results"].append({
                key: result[key] for key in
                ("workload", "seed", "trace", "input", "metrics", "units",
                 "correct", "attempted", "failed", "child")})
    out = inputs.CACHE / f"dart-e2e-seed{args.seed}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"dart-e2e: report written to {out}; "
          f"{'all outputs correct' if ok else 'SOME OUTPUTS WRONG'}")
    return 0 if ok else 1


def selftest(args) -> int:
    """Scaled-down run of everything, plus proof that the checker bites."""
    benchmark = load_benchmark()
    end_to_end = [m["name"] for m in benchmark["end_to_end"]]
    per_layer = [m["name"] for m in benchmark["per_layer"]]
    problems: List[str] = []
    for name in end_to_end + per_layer + [w["name"]
                                          for w in benchmark["workloads"]]:
        if not NAME_RE.fullmatch(name):
            problems.append(f"bad name {name!r}")
    for workload in (w["name"] for w in benchmark["workloads"]):
        printed: List[str] = []
        for trace in (0, 1):
            result = measure(workload, args.seed, 0.3, trace, selftest=True)
            lines = render(result)
            print("\n".join(lines))
            printed += [line.split()[0] for line in lines
                        if line.startswith("  ") and not line.startswith("   ")]
            if not result["correct"]:
                problems.append(f"{workload}: outputs wrong on clean input")
        for name in end_to_end + per_layer:
            if printed.count(name) != 1:
                problems.append(f"{workload}: {name} printed "
                                f"{printed.count(name)} times")
        child = result["child"]  # the traced run
        whole = child["budget_pass_ns_per_pkt"]
        explained = (sum(child["budget_ns_per_pkt"].values())
                     + child["budget_unaccounted_share"] * whole)
        if abs(explained / whole - 1.0) > 0.001:
            problems.append(
                f"{workload}: layer self times + unaccounted explain "
                f"{explained:.0f} of {whole:.0f} ns/pkt")
    for workload, inject in (("campus_object", "corrupt_frame"),
                             ("campus_columnar", "drop_sample"),
                             ("stream_hist_ckpt", "skip_checkpoint")):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", "0.3", "--trace", "0", "--scale", "selftest",
             "--inject", inject],
            stdout=subprocess.PIPE, text=True, timeout=170,
        )
        if not done.stdout.strip():
            problems.append(f"{inject} on {workload}: no result printed")
            continue
        line = json.loads(done.stdout.strip().splitlines()[-1])
        clean = line["metrics"]["clean_share"]["value"]
        print(f"== {workload} with {inject}: exit {done.returncode}, "
              f"failed {line['failed']}, clean_share {clean:.6g}")
        if done.returncode == 0 or line["failed"] == 0 or clean >= 1.0:
            problems.append(f"{inject} on {workload} went unnoticed")
    for problem in problems:
        print(f"SELFTEST FAILED: {problem}")
    print("dart-e2e selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


def spread(values: List[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def repeat_check(args) -> int:
    """Two sets of runs of this commit, compared as the driver compares
    a change with its parent: medians within the bound, spread within
    the bound."""
    benchmark = load_benchmark()
    names = ([args.workload] if args.workload
             else [w["name"] for w in benchmark["workloads"]])
    values: Dict[tuple, List[float]] = {}
    for which in ("first", "second"):
        for name in names:
            for index in range(REPEAT_RUNS):
                result = measure(name, args.seed + index, args.seconds, 0)
                if not result["correct"]:
                    print(f"dart-e2e: {name} seed {args.seed + index}: "
                          f"outputs wrong {result['child']['notes']}")
                    return 1
                for metric, value in result["metrics"].items():
                    values.setdefault((name, metric, which), []).append(value)
                print(f"   {which} {name} seed {args.seed + index}: " + " ".join(
                    f"{k}={v:.6g}" for k, v in result["metrics"].items()),
                    flush=True)
    failures = 0
    print(f"{'workload':18s} {'metric':15s} {'first':>12s} {'second':>12s} "
          f"{'worse by':>9s} {'spread1':>8s} {'spread2':>8s} {'bound':>6s}")
    for name in names:
        for metric in benchmark["end_to_end"]:
            first = values[name, metric["name"], "first"]
            second = values[name, metric["name"], "second"]
            m1, m2 = statistics.median(first), statistics.median(second)
            worse = (m1 - m2) / m1 if metric["better"] == "higher" \
                else (m2 - m1) / m1
            spreads = (spread(first), spread(second))
            bad = worse > metric["bound"] or (
                metric["name"] != "setup_s"
                and max(spreads) > metric["bound"])
            failures += bad
            print(f"{name:18s} {metric['name']:15s} {m1:12.6g} {m2:12.6g} "
                  f"{worse:9.4f} {spreads[0]:8.4f} {spreads[1]:8.4f} "
                  f"{metric['bound']:6.3f}{'  <-- outside bound' if bad else ''}")
    (inputs.CACHE / "repeat-check.json").write_text(json.dumps(
        {"|".join(key): vals for key, vals in values.items()}, indent=1))
    print("dart-e2e repeat-check:",
          f"{failures} pairs outside their bound" if failures else "ok")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    benchmark = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float,
                        default=float(benchmark["run_seconds"]),
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, tracing off; "
                             "1: per-layer metrics from traced passes")
    parser.add_argument("--regen", action="store_true",
                        help="regenerate the inputs even if cached")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--repeat-check", action="store_true")
    parser.add_argument("--scale", choices=("full", "selftest"),
                        default="full", help=argparse.SUPPRESS)
    parser.add_argument("--inject", choices=("corrupt_frame", "drop_sample",
                                             "skip_checkpoint"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest(args)
    if args.repeat_check:
        return repeat_check(args)
    if args.workload and args.trace is not None:
        return contract_run(args)
    return full_run(args)


if __name__ == "__main__":
    sys.exit(main())
