#!/usr/bin/env python3
"""Build and run the HARS stack's benchmark; summarise and compare results.

Run one workload (the last line of output is the JSON result):

    python3 perfbench/run.py --workload serve --seed 1 --seconds 20 --trace 0

Run a series of seeds and append each result to a file, then print each
end-to-end metric's median, quartiles and spread (IQR over median):

    python3 perfbench/run.py series --workload serve --seeds 1-10 --out base.jsonl

Run parent and change in alternation, seed by seed, each from its own
checkout (which side goes first alternates), so that host drift falls on
both sides alike:

    python3 perfbench/run.py pairs --parent ../parent --change . \
        --workload serve --seeds 1-10 --out-parent base.jsonl --out-change change.jsonl

Compare two result files by the rules of a claimed change: per workload
and metric, each side's median and quartiles and a verdict (improved,
unchanged, unresolved or worse):

    python3 perfbench/run.py compare base.jsonl change.jsonl

Run it from the root of a checkout. It builds `perfbench/` with cargo into
`$CARGO_TARGET_DIR` (default `.bench_build`) and writes trace spans under
that directory; it reads and writes nothing else.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
META = os.path.join(HERE, "meta.json")
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Builds the benchmark binary, with cargo's output on stderr."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target_dir(), "release", "perfbench")


def git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=HERE,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines).

    A result whose metrics are not exactly the ones BENCHMARK.json lists
    for this mode, with the same units, fails the run.
    """
    meta = load(META)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--trace-dir", os.path.join(target_dir(), "traces"),
           "--unattributed-tolerance", str(meta["unattributed_tolerance"])]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode == 0:
        bench = load(BENCHMARK)
        want = {m["name"]: m["unit"] for m in bench["per_layer" if str(trace) == "1" else "end_to_end"]}
        got = {k: v["unit"] for k, v in json.loads(lines[-1])["metrics"].items()}
        if got != want:
            sys.stderr.write(f"perfbench: metrics differ from BENCHMARK.json: "
                             f"{sorted(set(got.items()) ^ set(want.items()))}\n")
            return 1, lines[:-1]
    return proc.returncode, lines


def load(path):
    with open(path) as f:
        return json.load(f)


def parse_flags(argv, names):
    flags = {}
    i = 0
    while i < len(argv):
        name = argv[i].lstrip("-")
        if not argv[i].startswith("--") or name not in names or i + 1 >= len(argv):
            sys.exit(f"perfbench: unexpected argument {argv[i]!r}; expected --{' --'.join(names)}")
        flags[name] = argv[i + 1]
        i += 2
    return flags


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if hi else [int(lo)])
    return seeds


def cmd_run(argv):
    flags = parse_flags(argv, ["workload", "seed", "seconds", "trace"])
    missing = [n for n in ("workload", "seed", "seconds", "trace") if n not in flags]
    if missing:
        sys.exit(f"perfbench: missing --{' --'.join(missing)}")
    binary = build()
    print(f"host rev={git_rev()} nproc={os.cpu_count()} build=release "
          f"(perfbench/Cargo.toml, cargo default release profile)")
    code, lines = run_one(binary, flags["workload"], flags["seed"],
                          flags["seconds"], flags["trace"])
    print("\n".join(lines))
    sys.exit(code)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def metric_specs():
    bench = load(BENCHMARK)
    specs = {m["name"]: m for m in bench["end_to_end"]}
    for m in bench["per_layer"]:
        specs[m["name"]] = dict(m, bound=None)
    return specs


def cmd_series(argv):
    flags = parse_flags(argv, ["workload", "seeds", "seconds", "trace", "out"])
    if "workload" not in flags or "out" not in flags:
        sys.exit("perfbench: series needs --workload and --out")
    bench = load(BENCHMARK)
    seconds = flags.get("seconds", str(bench["run_seconds"]))
    trace = flags.get("trace", "0")
    seeds = parse_seeds(flags.get("seeds", "1-10"))
    binary = build()
    rev = git_rev()
    results = []
    for seed in seeds:
        code, lines = run_one(binary, flags["workload"], seed, seconds, trace)
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        ok = code == 0 and result is not None and result["correct"]
        print(f"seed {seed}: {'ok' if ok else 'FAILED (exit %d)' % code}", flush=True)
        if not ok:
            print("\n".join(lines[-20:]))
            sys.exit(1)
        row = {"workload": flags["workload"], "seed": seed, "trace": int(trace),
               "rev": rev, "nproc": os.cpu_count(), "result": result}
        with open(flags["out"], "a") as f:
            f.write(json.dumps(row) + "\n")
        results.append(result)
    specs = metric_specs()
    print(f"{'metric':<32} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name in sorted(results[0]["metrics"]):
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = specs.get(name, {}).get("bound")
        flag = ""
        if bound is not None and name != "setup_s":
            flag = " OVER BOUND" if spread > bound else (" over 1/3" if spread > bound / 3 else "")
        print(f"{name:<32} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} "
              f"{'' if bound is None else bound:>6}{flag}")


def cmd_pairs(argv):
    names = ["parent", "change", "workload", "seeds", "seconds", "trace",
             "out-parent", "out-change"]
    flags = parse_flags(argv, names)
    missing = [n for n in names if n not in flags and n not in ("seeds", "seconds", "trace")]
    if missing:
        sys.exit(f"perfbench: pairs needs --{' --'.join(missing)}")
    seconds = flags.get("seconds", str(load(BENCHMARK)["run_seconds"]))
    trace = flags.get("trace", "0")
    sides = [("parent", flags["parent"], flags["out-parent"]),
             ("change", flags["change"], flags["out-change"])]
    for i, seed in enumerate(parse_seeds(flags.get("seeds", "1-10"))):
        for name, root, out in (sides if i % 2 == 0 else sides[::-1]):
            root = os.path.abspath(root)
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(root, ".bench_build"))
            cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
                   "--workload", flags["workload"], "--seed", str(seed),
                   "--seconds", seconds, "--trace", trace]
            proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
                print("\n".join(lines[-20:]) + proc.stderr[-2000:])
                sys.exit(f"perfbench: {name} failed on seed {seed}")
            row = {"workload": flags["workload"], "seed": seed, "trace": int(trace),
                   "side": name, "result": json.loads(lines[-1])}
            with open(out, "a") as f:
                f.write(json.dumps(row) + "\n")
            print(f"seed {seed}: {name} ok", flush=True)


def verdict(base, change, better, bound):
    """The verdict for one metric on one workload.

    improved: the change wins at least nine tenths of the pairs (ties
    count for neither) and the medians differ by more than the parent's
    own spread (its interquartile distance). Where either side's spread
    exceeds the bound, the metric is unresolved unless every change run
    beats every parent run. Otherwise it is worse when the change's
    median is worse than the parent's by more than the bound, and
    unchanged if not. Metrics without a bound are worse by the mirror of
    the improved rule.
    """
    sign = -1.0 if better == "lower" else 1.0
    q1b, mb, q3b = quartiles(base)
    q1c, mc, q3c = quartiles(change)
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    losses = sum(1 for b, c in pairs if sign * (c - b) < 0)
    gap = sign * (mc - mb)
    iqr = q3b - q1b
    if wins >= 0.9 * len(pairs) and gap > iqr:
        return "improved"
    if bound is None:
        if losses >= 0.9 * len(pairs) and -gap > iqr:
            return "worse"
        return "unchanged" if abs(gap) <= iqr else "unresolved"
    spread = max((q3b - q1b) / abs(mb) if mb else 0.0, (q3c - q1c) / abs(mc) if mc else 0.0)
    if spread > bound:
        all_better = all(sign * (c - b) > 0 for b in base for c in change)
        return "improved" if all_better else "unresolved"
    return "worse" if -gap > bound * abs(mb) else "unchanged"


def read_results(path):
    rows = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                row = json.loads(line)
                rows.setdefault((row["workload"], row["trace"]), {})[row["seed"]] = row["result"]
    return rows


def cmd_compare(argv):
    if len(argv) != 2:
        sys.exit("perfbench: compare needs two result files (parent, change)")
    base, change = read_results(argv[0]), read_results(argv[1])
    specs = metric_specs()
    print(f"{'workload':<10} {'metric':<30} {'parent med [q1, q3]':>36} "
          f"{'change med [q1, q3]':>36}  verdict")
    for key in sorted(set(base) & set(change)):
        b, c = base[key], change[key]
        seeds = sorted(set(b) & set(c))
        if not seeds:
            continue
        for name in sorted(b[seeds[0]]["metrics"]):
            spec = specs.get(name)
            if spec is None or name not in c[seeds[0]]["metrics"]:
                continue
            bv = [b[s]["metrics"][name]["value"] for s in seeds]
            cv = [c[s]["metrics"][name]["value"] for s in seeds]
            v = verdict(bv, cv, spec["better"], spec.get("bound"))
            fb = "%.6g [%.6g, %.6g]" % (quartiles(bv)[1], quartiles(bv)[0], quartiles(bv)[2])
            fc = "%.6g [%.6g, %.6g]" % (quartiles(cv)[1], quartiles(cv)[0], quartiles(cv)[2])
            print(f"{key[0]:<10} {name:<30} {fb:>36} {fc:>36}  {v} ({len(seeds)} pairs)")


def main():
    argv = sys.argv[1:]
    if argv and argv[0] == "series":
        cmd_series(argv[1:])
    elif argv and argv[0] == "pairs":
        cmd_pairs(argv[1:])
    elif argv and argv[0] == "compare":
        cmd_compare(argv[1:])
    else:
        cmd_run(argv)


if __name__ == "__main__":
    main()
