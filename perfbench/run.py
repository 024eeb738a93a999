#!/usr/bin/env python3
"""Serving benchmark of the NEON simulator: build, run, check, report.

One run of one workload (the form the benchmark contract uses):

    python3 perfbench/run.py --workload serve_steady --seed 1 --seconds 10 --trace 0

prints every metric by name with its unit, the run manifest, and, as
the last line, one JSON object with the keys correct, attempted, failed
and metrics. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones.

Every workload, both passes, the correctness check and the layer-split
self-test, exiting nonzero if any run failed:

    python3 perfbench/run.py --all [--seed N] [--seconds S]

Re-record the simulated-result fingerprints after an intended model
change (writes perfbench/fingerprints.json):

    python3 perfbench/run.py --record-fingerprints

Run from the repository root. The program is built from source with
CMake into $CARGO_TARGET_DIR (default .bench_build) before each run.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
WORKLOADS = ("serve_steady", "serve_overload", "serve_sharded")
RECORDED_SEEDS = range(64)  # seeds --record-fingerprints records
PROCESSES = 4  # end-to-end pass: processes whose samples are pooled

# (name, unit, better, bound): bound is the share of the parent's median
# by which the metric may worsen before a change counts as a regression.
END_TO_END = (
    ("sim_s_per_wall_s", "sim_s/s", "higher", 0.24),
    ("events_per_s", "events/s", "higher", 0.24),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
)
# Printed with the end-to-end metrics but not gated: a millisecond of
# memory-bound work whose run-to-run spread on a shared host exceeds any
# usable bound (README.md, "Stability").
REPORTED_ONLY = (
    ("harvest_s", "s", "lower"),
)

# Every per-layer metric the --trace 1 pass reports, in output order.
# README.md ties each to the end-to-end metric and workload it should move.
_TIMED = ("p50", "p99", "samples")
PER_LAYER = (
    ["sim.events", "sim.peak_live_events"]
    + ["sim.step_ns." + s for s in _TIMED]
    + ["sim.shard.windows", "sim.shard.events_per_window",
       "sim.shard.mailbox_messages", "sim.shard.spawn_s", "sim.shard.speedup",
       "gpu.requests", "gpu.busy_frac",
       "sched.dfq_episodes", "sched.stack_events_per_s"]
    + [layer + ".trace_records" for layer in ("os", "sched", "gpu", "fleet",
                                              "serve")]
    + ["fleet.place_ns." + s for s in _TIMED]
    + ["fleet.retire_ns." + s for s in _TIMED]
    + ["fleet.migrations"]
    + ["serve.admission.arrive_ns." + s for s in _TIMED]
    + ["serve.admission.depart_ns." + s for s in _TIMED]
    + ["serve.admission.self_s", "serve.admission.share",
       "serve.admission.peak_pending"]
    + ["serve.admission.release_ns.%s.%s" % (d, s)
       for d in ("d10", "d1k", "d100k") for s in _TIMED]
    + ["serve.frontdoor.decide_ns." + s for s in _TIMED]
    + ["serve.frontdoor.sheds", "serve.frontdoor.throttles",
       "serve.preemptions"]
    + ["serve.engine.session_ns.%s.%s" % (d, s)
       for d in ("shallow", "deep") for s in _TIMED]
    + ["fault.evictions", "fault.failovers",
       "obs.audit_checks", "obs.audit_overhead", "obs.trace_overhead",
       "harness.harvest_ns_per_session"]
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure and build the benchmark; return the binary path.

    Configuring every time is cheap, and CMake refuses a build tree
    that was configured for another source tree.
    """
    if not os.path.isfile(os.path.join("src", "neon", "neon.hh")):
        raise RuntimeError("run from the repository root: src/neon/neon.hh "
                           "not found in %s" % os.getcwd())
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", jobs]]
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, timeout=850)
        if p.returncode != 0:
            log(p.stdout[-4000:])
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(out, "neon_perfbench")


def run_binary(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=170)
    if p.returncode != 0 or not p.stdout.strip():
        log(p.stderr[-4000:])
        raise RuntimeError("%s exited with %d" % (" ".join(cmd), p.returncode))
    return json.loads(p.stdout.strip().splitlines()[-1])


def run_end_to_end(binary, workload, seed, seconds):
    """The end-to-end pass, split over several processes.

    Host timings here drift between processes by more than they vary
    within one, so the samples of PROCESSES runs of seconds/PROCESSES
    each are pooled before the median and quartiles are taken.
    """
    parts = [run_binary(binary, workload, seed, seconds / PROCESSES, 0)
             for _ in range(PROCESSES)]
    result = dict(parts[0])
    result["runs"] = [r for p in parts for r in p["runs"]]
    metrics = {}
    for name in parts[0]["metrics"]:
        unit = parts[0]["metrics"][name]["unit"]
        if "samples" in parts[0]["metrics"][name]:
            pooled = [x for p in parts for x in p["metrics"][name]["samples"]]
        else:
            pooled = [p["metrics"][name]["value"] for p in parts]
        q1, med, q3 = (statistics.quantiles(pooled, n=4, method="inclusive")
                       if len(pooled) > 1 else pooled * 3)
        metrics[name] = {"value": med, "unit": unit, "q1": q1, "q3": q3,
                         "n": len(pooled)}
    result["metrics"] = metrics
    return result


def run_pass(binary, workload, seed, seconds, trace):
    if trace == 0:
        return run_end_to_end(binary, workload, seed, seconds)
    return run_binary(binary, workload, seed, seconds, 1)


def source_hash():
    """Hash of the simulator and benchmark sources (identifies the code
    when the checkout carries no git metadata)."""
    h = hashlib.sha256()
    for top in ("src", os.path.relpath(HERE)):
        for dirpath, dirnames, files in os.walk(top):
            dirnames.sort()
            for f in sorted(files):
                if f.endswith((".cc", ".hh", ".txt", ".py", ".json")):
                    path = os.path.join(dirpath, f)
                    h.update(path.encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def git_describe():
    try:
        p = subprocess.run(["git", "describe", "--always", "--dirty"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True, timeout=10)
        if p.returncode == 0 and p.stdout.strip():
            return p.stdout.strip()
    except OSError:
        pass
    return "not a git checkout"


def manifest(result):
    m = dict(result["manifest"])
    m.update({
        "git_describe": git_describe(),
        "source_hash": source_hash(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "workload": result["workload"],
        "trace": result["trace"],
    })
    return m


def load_fingerprints():
    try:
        with open(FINGERPRINTS) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def check(result, recorded):
    """Check every run of one pass; return (attempted, failures)."""
    seed = str(result["seed"])
    runs = result["runs"]
    failures = []
    by_workload = {}
    for r in runs:
        by_workload.setdefault(r["workload"], []).append(r)
    for workload, group in by_workload.items():
        expected = recorded.get(workload, {}).get(seed)
        if expected is None:
            # No recorded fingerprint for this seed: every run of the
            # workload (untraced and traced alike) must agree.
            expected = group[0]["fingerprint"]
        for i, r in enumerate(group):
            why = []
            if r["audit_violations"]:
                why.append("%d audit violations" % r["audit_violations"])
            if r["departures"] == 0:
                why.append("no departures")
            if r["fingerprint"] != expected:
                why.append("fingerprint %s != %s" % (r["fingerprint"], expected))
            if why:
                failures.append("%s %s run %d: %s" % (workload, r["role"], i,
                                                      "; ".join(why)))
    checks = result.get("checks")
    if checks is not None:
        if not checks["replay_order_matches"]:
            failures.append("admission replay released %d sessions, engine "
                            "admitted %d, or in another order"
                            % (checks["replay_admits"], checks["engine_admits"]))
        if not checks["replay_throttles_match"]:
            failures.append("token-bucket replay disagreed with the engine")
        if checks["trace_dropped"]:
            failures.append("traced pass dropped %d records"
                            % checks["trace_dropped"])
        windows = result["metrics"]["sim.shard.windows"]["value"]
        if (windows > 0) != (result["workload"] == "serve_sharded"):
            failures.append("sim.shard.windows is %s on %s"
                            % (windows, result["workload"]))
    return len(runs), failures


def report(result, recorded, out=sys.stdout):
    """Print the pass's metrics and manifest; return the contract object."""
    attempted, failures = check(result, recorded)
    # Each failure counts against one run of the pass.
    failed = min(attempted, len(failures))
    metrics = result["metrics"]
    names = ([n for n, _, _, _ in END_TO_END] if result["trace"] == 0
             else PER_LAYER)
    missing = [n for n in names if n not in metrics]
    if missing:
        raise RuntimeError("metrics missing from the run: %s" % missing)
    print("manifest: " + json.dumps(manifest(result), sort_keys=True), file=out)
    print("%s seed %s trace %s: %d runs, %d failed (failed_frac %.3f)"
          % (result["workload"], result["seed"], result["trace"], attempted,
             failed, failed / attempted), file=out)
    for f in failures:
        print("  FAILED: " + f, file=out)
    if result["trace"] == 0:
        shown = [m[:3] for m in END_TO_END] + list(REPORTED_ONLY)
        for name, unit, better in shown:
            m = metrics[name]
            print("  %-18s %14.6g %-9s %s is better (q1 %.6g, q3 %.6g, n %d)%s"
                  % (name, m["value"], unit, better, m["q1"], m["q3"], m["n"],
                     "" if name in names else ", not gated"), file=out)
    else:
        for name in names:
            m = metrics[name]
            print("  %-44s %14.6g %s" % (name, m["value"], m["unit"]), file=out)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n]["value"], "unit": metrics[n]["unit"]}
                    for n in names},
    }


def self_test(layer_results):
    """The layer split each workload claims, checked across workloads."""
    problems = []
    share = {w: r["metrics"]["serve.admission.share"]["value"]
             for w, r in layer_results.items()}
    if share["serve_overload"] < 10 * max(share["serve_steady"], 1e-9):
        problems.append("serve.admission.share on serve_overload (%.4g) is "
                        "not well above serve_steady (%.4g)"
                        % (share["serve_overload"], share["serve_steady"]))
    # check() already holds sim.shard.windows to the workload's core.
    for w in ("serve_steady", "serve_overload"):
        for n in ("sim.shard.mailbox_messages", "sim.shard.events_per_window",
                  "sim.shard.spawn_s", "sim.shard.speedup"):
            if layer_results[w]["metrics"][n]["value"] != 0:
                problems.append("%s is nonzero on serial %s" % (n, w))
    bench = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if os.path.isfile(bench):
        with open(bench) as fh:
            spec = json.load(fh)
        if [m["name"] for m in spec["end_to_end"]] != [m[0] for m in END_TO_END]:
            problems.append("BENCHMARK.json end_to_end differs from run.py")
        if [m["name"] for m in spec["per_layer"]] != list(PER_LAYER):
            problems.append("BENCHMARK.json per_layer differs from run.py")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="every workload, both passes, plus the self-test")
    ap.add_argument("--record-fingerprints", action="store_true")
    args = ap.parse_args()
    if not (args.all or args.record_fingerprints or args.workload):
        ap.error("give --workload, --all or --record-fingerprints")

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        log("perfbench: %s" % e)
        return 2

    if args.record_fingerprints:
        table = {}
        for w in WORKLOADS:
            table[w] = {}
            for seed in RECORDED_SEEDS:
                # One run in each of two processes: they must agree.
                runs = [run for _ in range(2)
                        for run in run_binary(binary, w, seed, 0.001, 0)["runs"]]
                fps = {run["fingerprint"] for run in runs}
                if len(fps) != 1 or any(run["audit_violations"] or
                                        not run["departures"] for run in runs):
                    log("perfbench: %s seed %d does not repeat" % (w, seed))
                    return 1
                table[w][str(seed)] = fps.pop()
            log("recorded %s" % w)
        with open(FINGERPRINTS, "w") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0

    recorded = load_fingerprints()
    if args.all:
        ok = True
        layer_results = {}
        for w in WORKLOADS:
            for trace in (0, 1):
                r = run_pass(binary, w, args.seed, args.seconds, trace)
                ok &= report(r, recorded)["correct"]
                if trace:
                    layer_results[w] = r
        problems = self_test(layer_results)
        for p in problems:
            print("SELF-TEST FAILED: " + p)
        ok &= not problems
        print("perfbench: %s" % ("all runs correct" if ok else "FAILED"))
        return 0 if ok else 1

    r = run_pass(binary, args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(report(r, recorded)))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.TimeoutExpired,
            ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        sys.exit(2)
