#!/usr/bin/env python3
"""Steadiness tool: repeat the benchmark and judge each metric's spread.

Runs the command in BENCHMARK.json once per seed (seeds 1..runs) on each
workload, for run_seconds, from the repository root, and prints every
end-to-end metric's median, quartiles and spread (q3 - q1, as a share of
the median) against its bound. A spread under a third of the bound is
"steady"; the acceptance rule is spread <= bound for every metric except
setup_s. setup_s's spread is exempt because set-up is a handful of
sub-second wall-clock spans per run; its median is still gated by
--compare.

    python3 perfbench/steady.py                        # 10 seeds, all workloads
    python3 perfbench/steady.py --runs 5 --workloads suite
    python3 perfbench/steady.py --save a.json          # keep the raw values
    python3 perfbench/steady.py --compare a.json b.json

--compare checks two saved sets of the same code against each other: both
must cover the same workloads and seeds, each metric's two medians must
agree within its bound in either direction (|b - a| / a <= bound), and
metrics that repeat exactly for a seed (sim_ms_per_op, success_rate) must
be identical seed by seed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT = ("sim_ms_per_op", "success_rate")


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return metrics, json.loads(lines[-2])["provenance"]


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def report(spec, runs):
    """runs: {workload: {seed: {metric: value}}}. Returns True if accepted."""
    ok = True
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'workload':<14} {'metric':<16} {'median':>14} {'q1':>14} {'q3':>14}"
          f" {'spread':>8} {'bound':>6}  verdict")
    for workload, by_seed in runs.items():
        names = next(iter(by_seed.values())).keys()
        for name in names:
            values = [m[name] for m in by_seed.values()]
            med, q1, q3, s = spread(values)
            bound = bounds.get(name)
            if bound is None:
                verdict = ""
            elif s <= bound / 3:
                verdict = "steady"
            elif s <= bound:
                verdict = "within bound"
            elif name == "setup_s":
                verdict = "over bound (spread not gated)"
            else:
                verdict = "TOO NOISY"
                ok = False
            print(f"{workload:<14} {name:<16} {med:>14.6g} {q1:>14.6g} {q3:>14.6g}"
                  f" {s:>8.2%} {bound if bound is not None else '':>6}  {verdict}")
    return ok


def compare(spec, first, second):
    coverage = {w: sorted(s) for w, s in first.items()}
    if coverage != {w: sorted(s) for w, s in second.items()}:
        print("the two sets do not cover the same workloads and seeds")
        return False
    ok = True
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        for workload in first:
            a = statistics.median(v[name] for v in first[workload].values())
            b = statistics.median(v[name] for v in second[workload].values())
            apart = abs(b - a) / a
            verdict = "ok" if apart <= bound else "APART BY MORE THAN BOUND"
            ok = ok and apart <= bound
            print(f"{workload:<14} {name:<16} first {a:<14.6g} second {b:<14.6g}"
                  f" apart {apart:>7.2%} (bound {bound:.0%})  {verdict}")
    for workload, by_seed in first.items():
        for seed, metrics in by_seed.items():
            other = second[workload][seed]
            for name in EXACT:
                if other[name] != metrics[name]:
                    ok = False
                    print(f"{workload} seed {seed}: {name} {metrics[name]} != {other[name]}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", help="comma-separated subset")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--save", help="write the raw values to this JSON file")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()
    spec = load_spec()

    if args.compare:
        first, second = (json.loads(Path(p).read_text()) for p in args.compare)
        sys.exit(0 if compare(spec, first, second) else 1)

    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = [w for w in workloads if w in args.workloads.split(",")]
    runs, provenance = {}, {}
    for workload in workloads:
        runs[workload], provenance[workload] = {}, {}
        for seed in range(1, args.runs + 1):
            metrics, prov = run_once(spec, workload, seed, args.trace)
            runs[workload][str(seed)] = metrics
            provenance[workload][str(seed)] = prov
            print(f"# {workload} seed {seed} done", file=sys.stderr, flush=True)
    if args.save:
        save = Path(args.save)
        save.write_text(json.dumps(runs, indent=1))
        save.with_suffix(".provenance.json").write_text(json.dumps(provenance, indent=1))
    if args.trace:
        # Per-layer metrics have no bound; the spread shows which of them
        # repeat (0%) and which drift with the machine.
        for workload, by_seed in runs.items():
            for name in next(iter(by_seed.values())):
                med, q1, q3, s = spread([m[name] for m in by_seed.values()])
                print(f"{workload:<14} {name:<36} median {med:<12.6g} q1 {q1:<12.6g}"
                      f" q3 {q3:<12.6g} spread {s:.2%}")
        return
    sys.exit(0 if report(spec, runs) else 1)


if __name__ == "__main__":
    main()
