"""Measure the benchmark over several seeds and record a trajectory point.

Run from the repository root:

    python3 perfbench/trajectory.py --seeds 10 --traced-seeds 3 --label <commit>

For every workload in BENCHMARK.json it runs perfbench/run.sh once per
seed untraced and, for the first --traced-seeds seeds, once traced. It
prints each metric's median and its spread (the distance between the
first and third quartile as a share of the median) and appends one point
to perfbench/trajectory.json: per workload, the median and quartiles of
every metric, the output digest per seed and the traced run's self-time
ladder, with nproc and the Go version.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stderr[-3000:]}")
    lines = p.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    digest = lines[-2].split()[-1]
    if not res["correct"] or res["failed"]:
        sys.exit(f"{' '.join(cmd)}: incorrect output, {res['failed']} of {res['attempted']} failed:\n{p.stderr[-3000:]}")
    return res, digest, p.stderr


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def summarize(results):
    out = {}
    for name in sorted(results[0]["metrics"]):
        xs = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = quartiles(xs)
        out[name] = {"median": med, "q1": q1, "q3": q3, "unit": results[0]["metrics"][name]["unit"],
                     "spread": (q3 - q1) / med if med else None}
    return out


def ladder_text(stderr):
    """The self-time tables a traced run prints to standard error."""
    m = re.search(r"^self time by layer.*?(?=^  \S+\.\S+ )", stderr, re.S | re.M)
    return m.group(0).rstrip() if m else ""


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--traced-seeds", type=int, default=3)
    ap.add_argument("--workload", action="append", help="limit to these workloads")
    ap.add_argument("--label", default="", help="what was measured, e.g. the commit")
    ap.add_argument("--no-record", action="store_true", help="print only")
    args = ap.parse_args()

    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    point = {"label": args.label, "run_seconds": seconds, "seeds": list(seeds),
             "nproc": os.cpu_count(), "machine": platform.machine(), "workloads": {}}
    ok = True
    for w in bench["workloads"]:
        name = w["name"]
        if args.workload and name not in args.workload:
            continue
        plain, digests = [], {}
        for s in seeds:
            res, digest, stderr = run(name, s, seconds, 0)
            plain.append(res)
            digests[s] = digest
            m = re.search(r"nproc=\d+ (go\S+)", stderr)
            if m:
                point["go"] = m.group(1)
            print(f"{name} seed={s} " + " ".join(f"{k}={v['value']:.5g}" for k, v in sorted(res["metrics"].items())), flush=True)
        traced, ladder = [], ""
        for s in list(seeds)[:args.traced_seeds]:
            res, digest, stderr = run(name, s, seconds, 1)
            traced.append(res)
            if digest != digests[s]:
                print(f"{name} seed={s}: traced digest {digest} != untraced {digests[s]}")
                ok = False
            ladder = ladder or ladder_text(stderr)
        e2e = summarize(plain)
        for k, v in e2e.items():
            flag = ""
            if k != "setup_s" and v["spread"] is not None and v["spread"] > bounds[k] / 3:
                flag = f"  above a third of its bound {bounds[k]}"
            print(f"  {name} {k:18s} median={v['median']:.5g} spread={v['spread']:.4f}{flag}", flush=True)
        point["workloads"][name] = {
            "end_to_end": e2e,
            "per_layer": summarize(traced) if traced else {},
            "attempted": [r["attempted"] for r in plain],
            "digests": digests,
            "ladder": ladder,
        }
    if not args.no_record:
        path = os.path.join(ROOT, "perfbench", "trajectory.json")
        doc = json.load(open(path)) if os.path.exists(path) else {"points": []}
        doc["points"].append(point)
        with open(path, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
