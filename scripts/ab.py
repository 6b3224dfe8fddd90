#!/usr/bin/env python3
"""Paired parent/change runs of the benchmark spine, written to BENCH_<sha>.json.

    python3 scripts/ab.py HEAD~1                         # ten 20 s pairs, every workload
    python3 scripts/ab.py 58eb3dd --pairs 3 --seconds 10 --workloads bsp-batch --traced 2
    python3 scripts/ab.py --render BENCH_<sha>.json      # the Markdown tables of a results file
    python3 scripts/ab.py --trajectory                   # every results file at the root, in commit order

Run from the root of the repo.  The spine is built twice, each side into
its own target directory under `--build-dir` (default `.bench_build/ab`,
ignored by git): the parent from a `git archive` of `<parent-rev>`, the
change from the working tree.  The two binaries are then run directly,
alternating which side goes first seed by seed, with the workloads, run
length and bounds of BENCHMARK.json (`--seconds` overrides the length for
a quick look; a claim needs the benchmark's own).  `--traced N` adds N
traced pairs per workload for the per-layer metrics and checks that the
counts a change must not move are equal pair by pair.  Building the
spine rewrites `spine/Cargo.lock`; it is restored afterwards.

The results file holds, per workload, each plain run's operation counts
from the spine's report (`spine/out/<workload>.json`: rounds, jobs, the
stream's reader jobs, ...), which `--render` prints as medians per side,
and per end-to-end metric both sides'
values, medians and quartiles, pairs won and lost, the metric's bound and
a verdict by the rule of the choosing-metrics guide: `gain` needs nine
tenths of the pairs and a median difference beyond the parent's own
inter-quartile distance; `unresolved` is a parent spread wider than the
bound; otherwise `regression` is a median worse by more than the bound.
The exit status is non-zero whenever a change median is worse than its
bound, whatever the verdict.  `--render` marks a verdict `confounded`
where a count of other work on the host moved by more than the metric's
bound (stream-mixed's `ops_per_s` beside its `reader_jobs`).

`--trajectory` reads every `BENCH_<sha>[-dirty].json` at the repo root
(not the `.traced.json` or `.rerun-*.json` companions).  A file is named
after the commit its change was measured on top of, so the files are
ordered by that commit's place in `git rev-list --topo-order HEAD`,
oldest first; a file whose commit is not in this history goes last,
marked.  It prints one table per workload: each end-to-end metric's
change-side median (q1–q3) per file.
"""

import argparse
import glob
import json
import os
import re
import shutil
import statistics
import subprocess
import sys

# Per-layer counts that repeat exactly and that no performance change may move.
EXACT = re.compile(r"bsp\.\w+\.(supersteps|messages_sent|messages_delivered|candidates)$"
                   r"|graphct\.(cc\.iterations|bfs\.levels|tc\.triangles)$"
                   r"|graph\.(edges|bytes_per_edge)$"
                   r"|xmt-model\.\w+\.pred_us_128p$")

# End-to-end metrics that a count of other work on the host moves: the
# stream-mixed writer shares the host with a closed-loop reader, so a
# faster engine runs more reader jobs and reads as a slower writer.
CONFOUNDERS = {("stream-mixed", "ops_per_s"): "reader_jobs"}


def sh(*cmd, **kw):
    return subprocess.run(cmd, check=True, text=True, stdout=subprocess.PIPE, **kw).stdout.strip()


def build(source, target):
    """Build the spine of the tree at `source` into `target`; return the binary."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    subprocess.run(["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path",
                    os.path.join(source, "spine", "Cargo.toml")], check=True, env=env)
    return os.path.join(target, "release", "spine")


def run_once(binary, sha, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env=dict(os.environ, SPINE_GIT_SHA=sha))
    lines = done.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{workload} seed {seed}: no result (exit {done.returncode})\n{done.stderr[-2000:]}")
    run = json.loads(lines[-1])
    return {"attempted": run["attempted"], "failed": run["failed"],
            "metrics": {k: v["value"] for k, v in run["metrics"].items()},
            "counts": report_counts(done.stderr)}


def report_counts(stderr):
    """A plain run's operation counts (rounds, jobs, reader jobs, ...) from
    the report the spine names on stderr (`spine/out/<workload>.json`)."""
    written = re.findall(r"^spine: wrote (.+)$", stderr, re.M)
    if not written:
        return {}
    with open(written[-1]) as f:
        return json.load(f).get("counts", {})


def side(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def worse_by(row):
    """How much worse the change's median is than the parent's, as a fraction."""
    return row["delta"] if row["better"] == "lower" else -row["delta"]


def compare(metric, parent, change):
    """One workload x metric row from the two sides' per-pair values.

    A parent spread wider than the bound leaves the verdict `unresolved`
    whatever the medians say (`main` still exits non-zero on a median
    worse than the bound).  Lower-is-better seconds, bound 25 %:

    >>> s = {"unit": "s", "better": "lower", "bound": 0.25}
    >>> base = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]
    >>> compare(s, base, [v * 0.8 for v in base])["verdict"]
    'gain'
    >>> compare(s, base, [v * 1.3 for v in base])["verdict"]
    'regression'
    >>> compare(s, base, [v * 1.01 for v in base])["verdict"]
    'within-bound'

    The shape of `bsp-batch` `ops_per_s` in BENCH_16d5cc6-dirty.json:
    parent quartiles 1.30-2.68 around a median of 1.89, a change median
    21 % lower, on a workload that ran no changed code:

    >>> ops = {"unit": "1/s", "better": "higher", "bound": 0.2}
    >>> row = compare(ops, [2.654, 2.741, 2.575, 3.018, 2.394, 1.185, 1.321, 1.378, 1.244, 1.327],
    ...                    [2.597, 2.471, 2.772, 2.559, 1.504, 1.183, 1.192, 1.308, 1.477, 1.423])
    >>> row["verdict"], round(row["parent"]["q1"], 2), round(row["parent"]["q3"], 2)
    ('unresolved', 1.3, 2.68)
    >>> worse_by(row) > ops["bound"]
    True
    """
    lower = metric["better"] == "lower"
    better = lambda c, p: c < p if lower else c > p
    p, c = side(parent), side(change)
    won = sum(better(cv, pv) for pv, cv in zip(parent, change))
    lost = sum(better(pv, cv) for pv, cv in zip(parent, change))
    delta = (c["median"] - p["median"]) / p["median"] if p["median"] else 0.0
    bound = metric.get("bound")
    iqr = p["q3"] - p["q1"]
    row = {"unit": metric["unit"], "better": metric["better"], "bound": bound, "parent": p,
           "change": c, "delta": delta, "pairs_won": won, "pairs_lost": lost}
    if won >= 0.9 * len(parent) and abs(c["median"] - p["median"]) > iqr and worse_by(row) < 0:
        verdict = "gain"
    elif bound is not None and p["median"] and iqr / p["median"] > bound and not all(
            better(cv, pv) for cv in change for pv in parent):
        verdict = "unresolved"
    elif bound is not None and worse_by(row) > bound:
        verdict = "regression"
    else:
        verdict = "within-bound" if bound is not None else "reported"
    row["verdict"] = verdict
    return row


def shown_verdict(workload, name, row, counts):
    """`row`'s verdict as `--render` prints it: marked `confounded` when
    the count that confounds the metric moved, median to median, by more
    than the metric's bound.  `compare()` and the exit status ignore it.

    The stream-mixed counts of BENCH_f8364b5-dirty.json (reader jobs
    1394 -> 1410.5) leave the verdict alone; a reader that ran 560 jobs
    instead of about 218 beside the writer confounds it:

    >>> row = {"verdict": "regression", "bound": 0.2}
    >>> jobs = lambda parent, change: {"parent": {"reader_jobs": parent},
    ...                                "change": {"reader_jobs": change}}
    >>> shown_verdict("stream-mixed", "ops_per_s", row, jobs([1357, 1394, 1431], [1359, 1410, 1436]))
    'regression'
    >>> shown_verdict("stream-mixed", "ops_per_s", row, jobs([210, 218, 230], [540, 560, 575]))
    'confounded (regression)'
    >>> shown_verdict("stream-mixed", "op_p50_ms", row, jobs([210, 218, 230], [540, 560, 575]))
    'regression'
    >>> shown_verdict("stream-mixed", "ops_per_s", row, {})
    'regression'
    """
    count = CONFOUNDERS.get((workload, name))
    values = [[v for v in counts.get(w, {}).get(count, []) if v is not None] for w in ("parent", "change")]
    if count and all(values) and row["bound"] is not None:
        parent, change = map(statistics.median, values)
        if parent and abs(change - parent) / parent > row["bound"]:
            return f"confounded ({row['verdict']})"
    return row["verdict"]


def measure(args, bench):
    parent_sha = sh("git", "rev-parse", "--short", args.parent)
    head = sh("git", "rev-parse", "--short", "HEAD")
    dirty = bool(sh("git", "status", "--porcelain", "--untracked-files=no"))
    change_sha = head + ("-dirty" if dirty else "")
    root = os.path.abspath(args.build_dir)
    source = os.path.join(root, "parent-src")
    shutil.rmtree(source, ignore_errors=True)
    os.makedirs(source)
    # `git archive` stamps every file with the commit's time, so cargo
    # rebuilds the parent only when the revision changes.
    archive = subprocess.Popen(["git", "archive", args.parent], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", source], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        sys.exit(f"git archive {args.parent} failed")
    try:
        binaries = {"parent": build(source, os.path.join(root, "target-parent")),
                    "change": build(".", os.path.join(root, "target-change"))}
    finally:
        subprocess.run(["git", "checkout", "--", "spine/Cargo.lock"], check=True)
    shas = {"parent": parent_sha, "change": change_sha}
    seconds = args.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    chosen = [n for n in names if not args.workloads or n in args.workloads.split(",")]
    out = {"parent": parent_sha, "change": change_sha, "pairs": args.pairs, "seconds": seconds,
           "traced_pairs": args.traced, "host_threads": os.cpu_count(), "workloads": {}}
    path = args.out or f"BENCH_{change_sha}.json"
    for workload in chosen:
        runs = {0: {"parent": [], "change": []}, 1: {"parent": [], "change": []}}
        for trace, pairs in ((0, args.pairs), (1, args.traced)):
            for seed in range(1, pairs + 1):
                order = ["parent", "change"] if seed % 2 else ["change", "parent"]
                for which in order:
                    run = run_once(binaries[which], shas[which], workload, seed, seconds, trace)
                    runs[trace][which].append(run)
                    flag = "  ** FAILED **" if run["failed"] else ""
                    print(f"  {workload:<16} seed {seed:<3} trace {trace} {which}{flag}", file=sys.stderr)
        plain, traced = runs[0], runs[1]
        values = lambda side_runs, name: [r["metrics"][name] for r in side_runs]
        result = {"failed": {w: sum(r["failed"] for r in plain[w] + traced[w]) for w in shas},
                  "attempted": {w: sum(r["attempted"] for r in plain[w] + traced[w]) for w in shas}}
        result["counts"] = {w: {name: [r["counts"].get(name) for r in plain[w]]
                                for name in (plain[w][0]["counts"] if plain[w] else {})} for w in shas}
        result["end_to_end"] = {
            m["name"]: compare(m, values(plain["parent"], m["name"]), values(plain["change"], m["name"]))
            for m in bench["end_to_end"] if plain["parent"] and m["name"] in plain["parent"][0]["metrics"]}
        if traced["parent"]:
            present = traced["parent"][0]["metrics"]
            result["per_layer"] = {
                m["name"]: compare(m, values(traced["parent"], m["name"]), values(traced["change"], m["name"]))
                for m in bench["per_layer"] if m["name"] in present}
            result["exact_counts"] = {
                name: {"pairs_equal": sum(p == c for p, c in zip(row["parent"]["values"], row["change"]["values"])),
                       "pairs": args.traced, "parent": row["parent"]["values"][0]}
                for name, row in result["per_layer"].items() if EXACT.match(name)}
        out["workloads"][workload] = result
        # Rewritten after every workload: an interrupted session keeps
        # the workloads it finished.
        with open(path, "w") as f:
            json.dump(out, f, indent=1)
            f.write("\n")
    print(f"wrote {path}", file=sys.stderr)
    return out


def render(out, layers):
    """The Markdown tables EXPERIMENTS.md carries, from a results file."""
    def cell(s):
        return f"{s['median']:.4g} ({s['q1']:.4g}–{s['q3']:.4g})"
    print(f"`{out['parent']}` → `{out['change']}`, {out['pairs']} alternating pairs of {out['seconds']} s, "
          f"{out['host_threads']} hardware threads; median (q1–q3).\n")
    for workload, result in out["workloads"].items():
        failed, attempted = result["failed"], result["attempted"]
        print(f"**{workload}** — failed operations {failed['parent']}/{attempted['parent']} → "
              f"{failed['change']}/{attempted['change']}\n")
        print("| metric | parent | change | Δ median | pairs won/lost | bound | verdict |")
        print("|---|---|---|---|---|---|---|")
        counts = result.get("counts", {})
        for name, row in result["end_to_end"].items():
            bound = f"{row['bound']:.0%}" if row["bound"] is not None else ""
            verdict = shown_verdict(workload, name, row, counts)
            print(f"| `{name}` ({row['unit']}) | {cell(row['parent'])} | {cell(row['change'])} | "
                  f"{row['delta']:+.1%} | {row['pairs_won']}/{row['pairs_lost']} | {bound} | {verdict} |")
        print()
        if any(counts.values()):
            names = list(dict.fromkeys(n for w in counts.values() for n in w))
            med = lambda w, n: statistics.median(v for v in counts[w].get(n, []) if v is not None)
            print("Operation counts per plain run, median: " + "; ".join(
                f"`{n}` {med('parent', n):.10g} → {med('change', n):.10g}" for n in names) + ".\n")
        if "per_layer" in result:
            moved = [(n, r) for n, r in result["per_layer"].items()
                     if not EXACT.match(n) and n.startswith(tuple(layers.split(",")))]
            print(f"Traced ({out['traced_pairs']} pairs), per-layer medians:\n")
            print("| metric | parent | change | Δ median |")
            print("|---|---|---|---|")
            for name, row in moved:
                print(f"| `{name}` ({row['unit']}) | {cell(row['parent'])} | {cell(row['change'])} | {row['delta']:+.1%} |")
            unequal = [n for n, e in result["exact_counts"].items() if e["pairs_equal"] != e["pairs"]]
            total = sum(e["pairs"] for e in result["exact_counts"].values())
            print(f"\nExact counts: {total - sum(e['pairs'] - e['pairs_equal'] for e in result['exact_counts'].values())}"
                  f" of {total} comparisons equal" + (f"; differing: {', '.join(unequal)}" if unequal else "") + ".\n")


def trajectory(bench):
    """Each end-to-end metric across the root results files, in commit order."""
    history = sh("git", "rev-list", "--topo-order", "HEAD").split()  # newest first
    known, unknown = [], []
    for path in sorted(glob.glob("BENCH_*.json")):
        name = re.fullmatch(r"BENCH_([0-9a-f]+)(?:-dirty)?\.json", os.path.basename(path))
        if not name:
            continue
        age = next((i for i, full in enumerate(history) if full.startswith(name.group(1))), None)
        with open(path) as f:
            out = json.load(f)
        (unknown if age is None else known).append((age, path, out))
    points = sorted(known, key=lambda p: -p[0]) + unknown
    print(f"{len(points)} results files, oldest first; change-side median (q1–q3)"
          + ("; † = commit not in this history" if unknown else "") + ".\n")
    for workload in [w["name"] for w in bench["workloads"]]:
        rows = [(age, path, out["workloads"][workload]["end_to_end"])
                for age, path, out in points if workload in out["workloads"]]
        metrics = [m["name"] for m in bench["end_to_end"] if any(m["name"] in r for _, _, r in rows)]
        if not rows:
            continue
        print(f"**{workload}**\n")
        print("| file | " + " | ".join(f"`{m}`" for m in metrics) + " |")
        print("|---" * (len(metrics) + 1) + "|")
        for age, path, row in rows:
            cells = [f"{row[m]['change']['median']:.4g} ({row[m]['change']['q1']:.4g}–{row[m]['change']['q3']:.4g})"
                     if m in row else "—" for m in metrics]
            print(f"| `{path}`{' †' if age is None else ''} | " + " | ".join(cells) + " |")
        print()


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", nargs="?", help="revision the change is compared with")
    ap.add_argument("--pairs", type=int, default=10, help="plain pairs per workload")
    ap.add_argument("--traced", type=int, default=0, help="traced pairs per workload")
    ap.add_argument("--seconds", type=float, default=0, help="run length (default: BENCHMARK.json's)")
    ap.add_argument("--workloads", default="", help="comma-separated subset")
    ap.add_argument("--build-dir", default=os.path.join(".bench_build", "ab"))
    ap.add_argument("--out", help="results file (default BENCH_<sha>.json at the repo root)")
    ap.add_argument("--render", metavar="FILE", help="print the Markdown tables of a results file")
    ap.add_argument("--layers", default="bsp.,graphct.,paper.,par.", help="per-layer prefixes --render shows")
    ap.add_argument("--trajectory", action="store_true",
                    help="print each end-to-end metric across every root BENCH_*.json, in commit order")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if args.trajectory:
        return trajectory(bench)
    if args.render:
        with open(args.render) as f:
            return render(json.load(f), args.layers)
    if not args.parent:
        ap.error("a parent revision is required")
    out = measure(args, bench)
    # Every median worse than its bound fails the run, `unresolved` ones too.
    bad = [(w, n, row["verdict"]) for w, r in out["workloads"].items()
           for n, row in r["end_to_end"].items()
           if row["bound"] is not None and worse_by(row) > row["bound"]]
    if bad or any(r["failed"]["change"] > r["failed"]["parent"] for r in out["workloads"].values()):
        sys.exit(f"regressions: {bad}")


if __name__ == "__main__":
    main()
