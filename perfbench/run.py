#!/usr/bin/env python3
"""End-to-end benchmark of the NekTar solvers and the cluster lab.

One workload per call, the way BENCHMARK.json's command is run:

    python3 perfbench/run.py --workload serial_bluff --seed 1 --seconds 10 --trace 0

builds perfbench_driver from the repository sources (CMake, into
.bench_build/), runs the workload, checks its outputs and prints every metric
by name with its unit.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer metrics with --trace 1.

    python3 perfbench/run.py --all [--trace 1] [--out results.json]
        every workload in turn; exits nonzero if any check fails
    python3 perfbench/run.py --compare base.json candidate.json
        reports every metric that got worse by more than its bound
    python3 perfbench/run.py --self-test
        checks the benchmark's own gate logic (no build needed)
    python3 perfbench/run.py --write-reference <workload>
        recomputes the committed reference observables of every seed class
"""
import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
SPEC_PATH = ROOT / "BENCHMARK.json"
REFERENCE_PATH = BENCH_DIR / "reference.json"
SEED_CLASSES = 8  # perturbation classes; must match kSeedClasses in bench.hpp
DRIVER_TIMEOUT_S = 170

# Relative tolerance of the reference observables.  Direct solves reorder
# sums at most; ALE's PCG stops at an absolute residual of 1e-8, so a change
# of preconditioner or apply order moves its fields at that level.  A wrong
# solve moves them by orders of magnitude more.  Entries below the floor
# (a share of the vector's largest entry) are rounding noise.
RTOL = {"serial_bluff": 1e-9, "fourier_wake": 1e-9, "ale_flap": 1e-6}
ATOL_SHARE = 1e-10

# A tail percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# statistics and gates (pure functions: exercised by --self-test)

def percentile_or_none(samples, q, n=None):
    """The q-quantile of samples, or None when fewer than TAIL_SAMPLES of the
    n operations they describe (default: one per sample) lie beyond it."""
    n = len(samples) if n is None else n
    if not samples or n - math.ceil(q * n) < TAIL_SAMPLES:
        return None
    ordered = sorted(samples)
    m = len(ordered)
    return ordered[min(m - 1, math.ceil(q * m) - 1)]


def check_observables(workload, seed, observables, references):
    """Returns a list of mismatch messages (empty = all observables match)."""
    ref = references.get(workload, {}).get(str(seed % SEED_CLASSES))
    if ref is None:
        return [f"no reference observables for {workload} seed class {seed % SEED_CLASSES}"]
    rtol = RTOL[workload]
    problems = []
    for name, expected in ref.items():
        got = observables.get(name)
        if got is None or len(got) != len(expected):
            problems.append(f"{name}: missing or wrong length")
            continue
        floor = ATOL_SHARE * max(abs(x) for x in expected)
        for i, (g, e) in enumerate(zip(got, expected)):
            if g is None or not abs(g - e) <= rtol * abs(e) + floor:
                problems.append(f"{name}[{i}] = {g!r}, reference {e!r}")
    return problems


def judge(run, references):
    """Correctness of one driver result: (attempted, failed, messages).

    Per-operation failures come from perfbench_driver.  A reference mismatch
    means the whole trajectory is wrong, so every operation counts failed.
    """
    attempted = max(1, int(run["attempted"]))
    failed = int(run["failed"])
    messages = list(run.get("failures", []))
    if run["workload"] in RTOL:
        problems = check_observables(run["workload"], run["seed"], run["observables"], references)
        if problems:
            failed = attempted
            messages += ["reference mismatch: " + p for p in problems]
    return attempted, min(failed, attempted), messages


def end_to_end(run):
    """The end-to-end metrics of one untraced driver result."""
    ops = run["op_ms"]
    return {
        "setup_s": statistics.median(run["setup_s"]),
        "step_ms_p50": statistics.median(ops),
        "wall_s": run["wall_s"],
        "peak_rss_mb": run["peak_rss_mb"],
    }


def find_regressions(base, candidate, spec):
    """Metrics whose candidate median is worse than the base median by more
    than the metric's bound.  base/candidate: {workload: [{metric: value}]}."""
    found = []
    for m in spec["end_to_end"]:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        for workload in sorted(set(base) & set(candidate)):
            b = [r[name] for r in base[workload] if name in r]
            c = [r[name] for r in candidate[workload] if name in r]
            if not b or not c:
                continue
            mb, mc = statistics.median(b), statistics.median(c)
            change = (mc - mb) / mb if lower else (mb - mc) / mb
            if change > bound:
                found.append(f"{workload} {name}: {mb:.6g} -> {mc:.6g} "
                             f"({100 * change:+.1f}% worse, bound {100 * bound:.0f}%)")
    return found


# ---------------------------------------------------------------------------
# build and run

def build():
    """Configures (once) and builds perfbench_driver; returns its path or exits."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: repository sources (src/) not found next to perfbench/")
        sys.exit(2)
    exe = BUILD_DIR / "perfbench_driver"
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    cmds = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmds.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR), *gen,
                     "-DCMAKE_BUILD_TYPE=Release"])
    cmds.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench_driver", "-j", jobs])
    for cmd in cmds:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            sys.exit(2)
    return exe


def run_driver(exe, workload, seed, seconds, trace, setups=None):
    cmd = [str(exe), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if setups is None and trace:
        setups = 1  # traced runs read one set-up's phases; no median needed
    if setups is not None:
        cmd += ["--setups", str(setups)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} exceeded {DRIVER_TIMEOUT_S} s")
        sys.exit(3)
    if proc.returncode != 0:
        log(f"perfbench: driver exited with {proc.returncode} on {workload}")
        sys.exit(3)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def commit():
    try:
        # The ceiling keeps git from reading a repository above the checkout.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown (not a git checkout)"


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def report(run, spec, references, trace):
    """Prints the human-readable lines; returns the result object (last line)."""
    attempted, failed, messages = judge(run, references)
    host = dict(run["host"], commit=commit())
    print(f"# {run['workload']} seed={run['seed']} trace={trace} host=" + json.dumps(host, sort_keys=True))
    for m in messages:
        print(f"# FAIL {m}")
    ops = run["op_ms"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if trace:
        wanted = [m["name"] for m in spec["per_layer"]]
        # A layer the workload does not exercise reads 0.
        metrics = {name: float(run["layers"].get(name, 0.0)) for name in wanted}
        text = {}
    else:
        metrics = end_to_end(run)
        p90 = percentile_or_none(ops, 0.9, run["op_count"])
        text = {"fail_frac": (failed / attempted, "ratio"), "steps_sampled": (run["op_count"], "count")}
        if p90 is not None:
            text["step_ms_p90"] = (p90, "ms")
    for name, value in run["extra"].items():
        text[name] = (value, "us" if name.endswith("_us") else "1/s" if name.endswith("qps")
                      else "ratio" if name.startswith("attrib.") else "count")
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    for name, (value, unit) in text.items():
        print(f"metric {name} {value:.6g} {unit}")
    if trace:
        explained = run["layers"]
        print(f"attribution {run['workload']}: per-layer numbers explain "
              f"{100 * explained.get('attrib.step_frac', 0.0):.1f}% of the step and "
              f"{100 * explained.get('attrib.setup_frac', 0.0):.1f}% of set-up "
              f"(trace.overhead_frac {explained.get('trace.overhead_frac', 0.0):+.3f})")
        for c in run["computed"]:
            print(f"computed {c['probe']}: {c['flops']:.6g} flop, {c['bytes']:.6g} bytes "
                  f"per {c['per']:g} call(s)")
        print("shape " + json.dumps(run["shape"], sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


# ---------------------------------------------------------------------------
# self-test of the gate logic

def self_test(spec):
    checks = []

    def expect(cond, what):
        checks.append((bool(cond), what))

    # 1. A doctored +20 % on one metric of one workload is a regression.
    base = {w["name"]: [{m["name"]: 100.0 for m in spec["end_to_end"]} for _ in range(10)]
            for w in spec["workloads"]}
    cand = json.loads(json.dumps(base))
    target_w, target_m = spec["workloads"][1]["name"], "peak_rss_mb"
    for r in cand[target_w]:
        r[target_m] *= 1.2
    found = find_regressions(base, cand, spec)
    expect(len(found) == 1 and found[0].startswith(f"{target_w} {target_m}"),
           f"+20% {target_m} on {target_w} reported as the only regression: {found}")
    expect(not find_regressions(base, base, spec), "identical runs report no regression")
    higher = {"end_to_end": [{"name": "qps", "bound": 0.1, "better": "higher"}]}
    expect(not find_regressions({"w": [{"qps": 100.0}]}, {"w": [{"qps": 120.0}]}, higher),
           "a higher-is-better gain is no regression")
    expect(find_regressions({"w": [{"qps": 100.0}]}, {"w": [{"qps": 80.0}]}, higher),
           "a higher-is-better drop is a regression")

    # 2. A perturbed reference observable drives fail_frac to 1.
    refs = {"ale_flap": {"0": {"kinetic_energy": [25.9], "divergence_norm": [2.29]}},
            "fourier_wake": {"0": {"mode_energy": [400.0, 1.0, 1e-30]}}}
    run = {"workload": "ale_flap", "seed": 8, "attempted": 12, "failed": 0, "failures": [],
           "observables": {"kinetic_energy": [25.9], "divergence_norm": [2.29]}}
    expect(judge(run, refs)[:2] == (12, 0), "matching observables pass")
    run["observables"]["kinetic_energy"] = [25.9 * (1 + 1e-12)]
    expect(judge(run, refs)[:2] == (12, 0), "a reordered-sum difference passes")
    perturbed = json.loads(json.dumps(refs))
    perturbed["ale_flap"]["0"]["kinetic_energy"] = [25.9 * 1.001]
    a, f, _ = judge(run, perturbed)
    expect(f / a == 1.0, f"a perturbed reference gives fail_frac 1 (got {f}/{a})")
    run4 = {"workload": "fourier_wake", "seed": 0, "attempted": 5, "failed": 0, "failures": [],
            "observables": {"mode_energy": [400.0, 1.0, 3e-30]}}
    expect(judge(run4, refs)[1] == 0, "entries below the noise floor are not compared")
    run4["observables"]["mode_energy"][1] = 1.1
    expect(judge(run4, refs)[1] == 5, "a wrong mode energy fails every operation")

    # 3. step_ms_p90 is omitted when too few samples lie beyond it.
    expect(percentile_or_none(list(range(99)), 0.9) is None, "99 samples: no p90")
    expect(percentile_or_none(list(range(100)), 0.9) == 89, "100 samples: p90 reported")
    expect(percentile_or_none(list(range(9)), 0.9, n=1000) is not None,
           "a 9-point sketch of 1000 operations: p90 reported")
    fake = {"workload": "lab_mix", "seed": 1, "attempted": 9, "failed": 0, "failures": [],
            "observables": {}, "op_ms": [1.0] * 9, "op_count": 9, "setup_s": [1.0], "wall_s": 2.0,
            "peak_rss_mb": 10.0, "host": {}, "extra": {}, "layers": {}}
    saved = sys.stdout
    try:
        import io
        sys.stdout = io.StringIO()
        report(fake, spec, {}, trace=0)
        printed = sys.stdout.getvalue()
    finally:
        sys.stdout = saved
    expect("step_ms_p90" not in printed, "report omits step_ms_p90 on 9 samples")

    for ok, what in checks:
        print(("ok   " if ok else "FAIL ") + what)
    return all(ok for ok, _ in checks)


# ---------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "CANDIDATE"))
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--write-reference", metavar="WORKLOAD")
    args = ap.parse_args()

    if not SPEC_PATH.is_file():
        log("perfbench: BENCHMARK.json not found at the checkout root")
        return 2
    spec = load_json(SPEC_PATH)
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    if args.self_test:
        return 0 if self_test(spec) else 1
    if args.compare:
        base, cand = (load_json(p) for p in args.compare)
        found = find_regressions(base, cand, spec)
        for line in found:
            print("REGRESSION " + line)
        print(f"{len(found)} regression(s)")
        return 1 if found else 0

    exe = build()
    if args.write_reference:
        refs = load_json(REFERENCE_PATH) if REFERENCE_PATH.is_file() else {}
        refs[args.write_reference] = {
            str(k): run_driver(exe, args.write_reference, k, 0, 0, setups=1)["observables"]
            for k in range(SEED_CLASSES)}
        REFERENCE_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        return 0

    references = load_json(REFERENCE_PATH)
    if args.all:
        results, ok = {}, True
        for w in names:
            result = report(run_driver(exe, w, args.seed, seconds, args.trace), spec,
                            references, args.trace)
            ok = ok and result["correct"]
            results[w] = [{k: v["value"] for k, v in result["metrics"].items()}]
            print(json.dumps(result))
        if args.out:
            Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
        return 0 if ok else 1

    if args.workload not in names:
        log(f"perfbench: --workload must be one of {', '.join(names)}")
        return 2
    result = report(run_driver(exe, args.workload, args.seed, seconds, args.trace), spec,
                    references, args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
