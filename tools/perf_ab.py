#!/usr/bin/env python3
"""Same-runner A/B perf gate: perfbench on a base commit against this tree.

    python3 tools/perf_ab.py BASE_REF

BASE_REF is checked out into a git worktree at .bench_build/ab-base
(reused by later calls, so its perfbench build is incremental). For each
workload in BENCHMARK.json, the benchmark command runs PAIRS times from
each tree for the declared run_seconds, in base/head pairs that alternate
which side goes first. The host's speed drifts between sessions by more
than any bound, so each pair is compared with itself: the gate reads the
median over pairs of the head/base ratio of every end-to-end metric.

The gate fails (exit status 1) when, on any workload:
  - a metric's median ratio is worse than its bound (below 1 - bound for
    a higher-is-better metric, above 1 + bound for a lower-is-better one);
  - a metric is missing from either side's results;
  - head's failed/attempted share of runs is larger than base's;
  - a base run fails, which is reported as a base failure: the gate then
    has nothing sound to compare against.
Metrics, directions, bounds, workloads and run length all come from
BENCHMARK.json. Progress and failures go to stderr; stdout gets one JSON
line with every ratio, for CI to archive.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASE_TREE = os.path.join(ROOT, ".bench_build", "ab-base")
PAIRS = 5


def git(*args, cwd=ROOT):
    done = subprocess.run(["git", *args], cwd=cwd, capture_output=True,
                          text=True)
    if done.returncode != 0:
        sys.exit("perf_ab: git %s failed: %s" % (" ".join(args),
                                                  done.stderr.strip()))
    return done.stdout.strip()


def checkout_base(ref):
    """Check ref out at BASE_TREE; returns its commit sha."""
    sha = git("rev-parse", "--verify", ref + "^{commit}")
    git("worktree", "prune")
    # Without its own .git, a checkout there would act on this tree.
    if os.path.exists(os.path.join(BASE_TREE, ".git")):
        git("checkout", "--quiet", "--force", "--detach", sha, cwd=BASE_TREE)
    else:
        git("worktree", "add", "--quiet", "--force", "--detach", BASE_TREE,
            sha)
    return sha


def result_of(stdout):
    """perfbench's result: the JSON object on its last stdout line."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        return None
    return result if isinstance(result, dict) else None


def run_once(command, tree, workload, seconds):
    done = subprocess.run(
        command + ["--workload", workload, "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-2000:])
    return result_of(done.stdout)


def share(results):
    """(failed, attempted) over runs; a run with no result is one failed."""
    failed = sum(r["failed"] if r else 1 for r in results)
    attempted = sum(r["attempted"] if r else 1 for r in results)
    return failed, attempted


def value(result, metric):
    entry = (result or {}).get("metrics", {}).get(metric)
    return None if entry is None else float(entry["value"])


def ratio(head, base):
    if head == base:
        return 1.0
    return head / base if base else float("inf")


def decide(bench, pairs):
    """Judge {workload: [(base_result, head_result), ...]} against bench.

    Results are parsed perfbench JSON lines, or None for a run that gave
    none. Returns the report that is printed as the JSON line.
    """
    failures = []
    workloads = {}
    for name, runs in pairs.items():
        base = [b for b, _ in runs]
        head = [h for _, h in runs]
        base_failed, base_attempted = share(base)
        head_failed, head_attempted = share(head)
        if base_failed:
            failures.append({"kind": "base_failed", "workload": name,
                             "detail": "%d of %d base runs failed"
                                       % (base_failed, base_attempted)})
        if head_failed * base_attempted > base_failed * head_attempted:
            failures.append({"kind": "failed_share", "workload": name,
                             "detail": "head failed %d of %d, base %d of %d"
                                       % (head_failed, head_attempted,
                                          base_failed, base_attempted)})
        metrics = {}
        for spec in bench["end_to_end"]:
            metric = spec["name"]
            sides = {"base": [value(b, metric) for b in base if b],
                     "head": [value(h, metric) for h in head if h]}
            missing = [side for side, vals in sides.items()
                       if None in vals or not vals]
            if missing:
                failures.append({"kind": "missing", "workload": name,
                                 "metric": metric,
                                 "detail": "no value from " +
                                           " and ".join(missing)})
                continue
            ratios = [ratio(value(h, metric), value(b, metric))
                      for b, h in runs if b and h]
            if not ratios:
                continue
            median = statistics.median(ratios)
            bound = spec["bound"]
            worse = (median < 1 - bound if spec["better"] == "higher"
                     else median > 1 + bound)
            if worse:
                failures.append({"kind": "regression", "workload": name,
                                 "metric": metric,
                                 "detail": "median head/base %.4f past bound "
                                           "%g (%s is better)"
                                           % (median, bound, spec["better"])})
            metrics[metric] = {
                "median_ratio": median, "min_ratio": min(ratios),
                "max_ratio": max(ratios),
                "base_median": statistics.median(sides["base"]),
                "head_median": statistics.median(sides["head"])}
        workloads[name] = {"base_failed": [base_failed, base_attempted],
                           "head_failed": [head_failed, head_attempted],
                           "metrics": metrics}
    return {"ok": not failures, "failures": failures, "workloads": workloads}


def main():
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        print("usage: perf_ab.py BASE_REF", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    base_sha = checkout_base(sys.argv[1])
    trees = {"base": BASE_TREE, "head": ROOT}
    pairs = {}
    for workload in (w["name"] for w in bench["workloads"]):
        pairs[workload] = []
        for k in range(PAIRS):
            order = ("base", "head") if k % 2 == 0 else ("head", "base")
            got = {}
            for side in order:
                got[side] = run_once(bench["command"], trees[side], workload,
                                     bench["run_seconds"])
                print("perf_ab: %s pair %d/%d %s: %s" % (
                    workload, k + 1, PAIRS, side,
                    "no result" if got[side] is None else
                    "%d/%d runs failed" % (got[side]["failed"],
                                           got[side]["attempted"])),
                      file=sys.stderr, flush=True)
            pairs[workload].append((got["base"], got["head"]))
    report = decide(bench, pairs)
    report.update(base=base_sha, pairs=PAIRS,
                  run_seconds=bench["run_seconds"],
                  head=git("describe", "--always", "--dirty", "--abbrev=40"))
    for workload, entry in report["workloads"].items():
        print("perf_ab: %s median head/base: %s" % (workload, ", ".join(
            "%s %.3f" % (metric, m["median_ratio"])
            for metric, m in entry["metrics"].items())), file=sys.stderr)
    for failure in report["failures"]:
        print("perf_ab: FAIL %s %s %s: %s" % (
            failure["kind"], failure["workload"], failure.get("metric", ""),
            failure["detail"]), file=sys.stderr)
    print(json.dumps(report, sort_keys=True))
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
