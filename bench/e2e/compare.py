#!/usr/bin/env python3
"""Compares end-to-end benchmark results of a parent and a change (stdlib
only), by the rules in bench/e2e/README.md.

  python3 bench/e2e/compare.py --run PARENT_ROOT CHANGE_ROOT [-n 5] [--seed 1]
                               [--seconds T]
      runs every workload of bench/e2e/run.py, untraced and traced with T
      timed seconds each, N times in each checkout, alternating which side
      goes first, then compares the saved --out files.
  python3 bench/e2e/compare.py --parent P1.json ... --change C1.json ...
      compares saved run.py --out files; the i-th parent and change files
      form pair i.
  python3 bench/e2e/compare.py --self-test

For every (workload, metric) it prints both sides' median and quartiles,
the change's win fraction over the pairs, the median shift and a verdict:

  regressed   worse than the parent median by more than the metric's bound
  gain        wins >= 90% of the pairs and moves by more than the parent's
              own interquartile range, or every change run beats every
              parent run ("beyond bound" when the move is also > bound)
  unresolved  the parent's interquartile range is wider than the bound and
              not every change run beats every parent run
  same        none of the above
  info        per-layer metric (no bound)

peak_update_mib depends on the seed alone, and pair i runs the same seed on
both sides, so it is gated exactly: worse in any pair is "regressed".

and, per workload, whether the final-model digests of the seeds both sides
ran are the same. Results whose environment stamps differ (other than in
git_rev and src_hash) are refused. Exit status 1 when anything regressed
or a run failed its checks, 2 on unusable input.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC_PATH = HERE.parent.parent / "BENCHMARK.json"
# Stamp keys allowed to differ between the sides: they name the code.
CODE_KEYS = {"git_rev", "src_hash"}
WIN_FRACTION = 0.9
# Metrics that are a function of the seed alone. Pair i runs the same seed
# on both sides, so these are compared pair by pair and any worsening is a
# regression; their BENCHMARK.json bound only covers runs of other seeds.
EXACT = {"peak_update_mib"}


class CompareError(Exception):
    pass


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def check_stamps(parent: list[dict], change: list[dict]) -> dict:
    """Both sides' stamps, after refusing any environment mismatch."""
    sides = {}
    for side, docs in (("parent", parent), ("change", change)):
        stamps = {json.dumps(d["stamp"], sort_keys=True) for d in docs}
        if len(stamps) != 1:
            raise CompareError(f"refusing to compare: the {side} runs have "
                               f"{len(stamps)} different stamps")
        sides[side] = docs[0]["stamp"]
    env = {k: v for k, v in sides["parent"].items() if k not in CODE_KEYS}
    env_c = {k: v for k, v in sides["change"].items() if k not in CODE_KEYS}
    if env != env_c:
        diff = sorted(k for k in env.keys() | env_c.keys()
                      if env.get(k) != env_c.get(k))
        raise CompareError("refusing to compare: environment stamps differ "
                           "in " + ", ".join(
                               f"{k} ({env.get(k)} vs {env_c.get(k)})"
                               for k in diff))
    return sides


def verdict(p: list[float], c: list[float], better: str,
            bound: float | None, exact: bool = False) -> dict:
    sign = 1.0 if better == "lower" else -1.0
    p1, pm, p3 = quartiles(p)
    c1, cm, c3 = quartiles(c)
    scale = abs(pm) if pm else 1.0
    # Positive = the change is worse.
    worse = sign * (cm - pm) / scale
    spread = (p3 - p1) / scale
    pair_worse = [sign * (b - a) for a, b in zip(p, c)]
    win_fraction = sum(d < 0 for d in pair_worse) / len(pair_worse)
    all_better = all(sign * (b - a) < 0 for a in p for b in c)
    row = {"parent": (pm, p1, p3), "change": (cm, c1, c3), "shift": worse,
           "win": win_fraction, "spread": spread, "beyond_bound": False}
    if bound is None:
        row["verdict"] = "info"
    elif exact:
        row["verdict"] = "regressed" if any(d > 0 for d in pair_worse) else \
            "gain" if any(d < 0 for d in pair_worse) else "same"
    elif spread > bound and not all_better:
        row["verdict"] = "unresolved"
    elif worse > bound:
        row["verdict"] = "regressed"
    elif win_fraction >= WIN_FRACTION and (-worse > spread or all_better):
        row["verdict"] = "gain"
        row["beyond_bound"] = -worse > bound
    else:
        row["verdict"] = "same"
    return row


def digest_state(parent: list[dict], change: list[dict],
                 workload: str) -> str:
    compared = 0
    for docs_p, docs_c in zip(parent, change):
        a = docs_p["workloads"][workload]
        b = docs_c["workloads"][workload]
        pairs = [(a.get("warmup_digest"), b.get("warmup_digest"))]
        pairs += [(a["digests"][s], b["digests"][s])
                  for s in a["digests"].keys() & b["digests"].keys()]
        for x, y in pairs:
            if x is None or y is None:
                continue
            compared += 1
            if x != y:
                return "changed"
    return "same" if compared else "none compared"


def compare(parent: list[dict], change: list[dict], spec: dict) -> dict:
    if not parent or len(parent) != len(change):
        raise CompareError(f"need equal, non-zero numbers of parent and "
                           f"change results (got {len(parent)} and "
                           f"{len(change)})")
    stamps = check_stamps(parent, change)
    metrics = [(m["name"], m["better"], m.get("bound"))
               for m in spec["end_to_end"] + spec["per_layer"]]
    workloads = [w["name"] for w in spec["workloads"]]
    report = {"stamps": stamps, "rows": [], "digests": {},
              "incorrect": sorted({w for d in parent + change
                                   for w, r in d["workloads"].items()
                                   if not r["correct"]})}
    for w in workloads:
        if not all(w in d["workloads"] for d in parent + change):
            continue
        for name, better, bound in metrics:
            p = [d["workloads"][w]["metrics"].get(name) for d in parent]
            c = [d["workloads"][w]["metrics"].get(name) for d in change]
            if None in p or None in c:
                continue
            row = verdict(p, c, better, bound, exact=name in EXACT)
            row.update(workload=w, metric=name, bound=bound)
            report["rows"].append(row)
        report["digests"][w] = digest_state(parent, change, w)
    return report


def print_report(report: dict, n: int) -> None:
    st = report["stamps"]
    print(f"parent {st['parent'].get('git_rev')} "
          f"({st['parent'].get('src_hash')}) vs change "
          f"{st['change'].get('git_rev')} ({st['change'].get('src_hash')}), "
          f"{n} pairs; environment: "
          + ", ".join(f"{k}={v}" for k, v in sorted(st["parent"].items())
                      if k not in CODE_KEYS))
    workload = None
    for r in report["rows"]:
        if r["workload"] != workload:
            workload = r["workload"]
            print(f"\n== {workload}  (digest: {report['digests'][workload]})")
            print(f"  {'metric':26s} {'parent median [q1, q3]':>32s} "
                  f"{'change median [q1, q3]':>32s} {'shift':>8s} "
                  f"{'win':>5s}  verdict")
        pm, p1, p3 = r["parent"]
        cm, c1, c3 = r["change"]
        bound = " (exact)" if r["metric"] in EXACT else \
            f" (bound {r['bound'] * 100:.0f}%)" if r["bound"] else ""
        extra = " beyond bound" if r["beyond_bound"] else ""
        print(f"  {r['metric']:26s} {pm:12.5g} [{p1:.5g}, {p3:.5g}]"
              f"{'':>2s}{cm:12.5g} [{c1:.5g}, {c3:.5g}] "
              f"{-r['shift'] * 100:+7.2f}% {r['win']:5.2f}  "
              f"{r['verdict']}{extra}{bound}")
    regressed = [r for r in report["rows"] if r["verdict"] == "regressed"]
    print(f"\n{len(regressed)} regressed, "
          f"{sum(r['verdict'] == 'gain' for r in report['rows'])} gain, "
          f"{sum(r['verdict'] == 'unresolved' for r in report['rows'])} "
          f"unresolved; shift is the change's improvement (+) or "
          f"worsening (-)")
    if report["incorrect"]:
        print("runs that failed their checks: "
              + ", ".join(report["incorrect"]))


def run_pairs(parent_root: Path, change_root: Path, n: int, seed: int,
              seconds: float, workloads: list[str],
              out_dir: Path) -> tuple[list[Path], list[Path]]:
    """N invocations per side, alternating which side runs first. An
    invocation runs every workload untraced and traced, as the benchmark
    command does, into one result file; pair i uses seed + i on both
    sides."""
    out_dir.mkdir(parents=True, exist_ok=True)
    files = {"parent": [], "change": []}
    for i in range(n):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            root = parent_root if side == "parent" else change_root
            out = out_dir / f"{side}_{i}.json"
            out.unlink(missing_ok=True)
            print(f"[{i + 1}/{n}] {side}: seed {seed + i}", file=sys.stderr,
                  flush=True)
            for workload in workloads:
                for trace in ("0", "1"):
                    proc = subprocess.run(
                        [sys.executable, str(root / "bench" / "e2e" / "run.py"),
                         "--workload", workload, "--seed", str(seed + i),
                         "--seconds", str(seconds), "--trace", trace,
                         "--out", str(out)],
                        cwd=root, stdout=subprocess.DEVNULL)
                    if proc.returncode != 0:
                        raise CompareError(f"{side} run {i} of {workload} "
                                           f"exited {proc.returncode}")
            files[side].append(out)
    return files["parent"], files["change"]


def load(paths) -> list[dict]:
    return [json.loads(Path(p).read_text()) for p in paths]


# ── self-test ────────────────────────────────────────────────────────────

def self_test() -> int:
    spec = {
        "workloads": [{"name": "w"}],
        "end_to_end": [
            {"name": "lat", "unit": "ms", "better": "lower", "bound": 0.08},
            {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
            {"name": "peak_update_mib", "unit": "MiB", "better": "lower",
             "bound": 0.03},
        ],
        "per_layer": [{"name": "layer", "unit": "ms", "better": "lower"}],
    }
    stamp = {"git_rev": "a", "src_hash": "x", "nproc": 4, "zka_threads": "3",
             "gemm_backend": "avx2+fma"}

    def doc(lat, rate, layer, digest, rev="a", peak=6.8, **env):
        return {"stamp": dict(stamp, git_rev=rev, **env), "workloads": {"w": {
            "metrics": {"lat": lat, "rate": rate, "layer": layer,
                        "peak_update_mib": peak},
            "digests": {"1": digest}, "warmup_digest": digest,
            "correct": True}}}

    def rows(parent, change):
        rep = compare(parent, change, spec)
        return {r["metric"]: r for r in rep["rows"]}, rep["digests"]["w"]

    base = [doc(100 + d, 50 - d, 10, "d0") for d in (0, 1, -1, 0.5, -0.5)]
    failures = []

    def expect(what, got, want):
        if got != want:
            failures.append(f"{what}: got {got!r}, want {want!r}")

    r, dig = rows(base, [doc(100 - d, 50 + d, 10.1, "d0", rev="b")
                         for d in (0.2, -0.3, 0.1, 0.4, -0.1)])
    expect("A/A latency", r["lat"]["verdict"], "same")
    expect("A/A rate", r["rate"]["verdict"], "same")
    expect("per-layer metric", r["layer"]["verdict"], "info")
    expect("A/A digest", dig, "same")

    r, _ = rows(base, [doc(120 + d, 50, 10, "d0") for d in (0, 1, 2, 1, 0)])
    expect("20% slower latency", r["lat"]["verdict"], "regressed")
    r, _ = rows(base, [doc(100, 40 + d, 10, "d0") for d in (0, 1, 2, 1, 0)])
    expect("20% lower rate (higher is better)", r["rate"]["verdict"],
           "regressed")
    r, dig = rows(base, [doc(80 + d, 50, 10, "d1") for d in (0, 1, 2, 1, 0)])
    expect("20% faster latency", r["lat"]["verdict"], "gain")
    expect("20% faster beyond bound", r["lat"]["beyond_bound"], True)
    expect("changed digest", dig, "changed")
    # Wins 4 of 5 pairs: below the 90% win fraction.
    r, _ = rows(base, [doc(v, 50, 10, "d0") for v in (95, 95, 95, 95, 105)])
    expect("4/5 wins", r["lat"]["verdict"], "same")
    noisy = [doc(v, 50, 10, "d0") for v in (60, 140, 100, 80, 120)]
    r, _ = rows(noisy, [doc(v, 50, 10, "d0") for v in (65, 150, 95, 85, 125)])
    expect("noisy parent", r["lat"]["verdict"], "unresolved")
    r, _ = rows(noisy, [doc(v, 50, 10, "d0") for v in (40, 41, 42, 43, 44)])
    expect("noisy parent, every change run better", r["lat"]["verdict"],
           "gain")

    # An exact metric: the same per-seed values pass, one pair 0.5% worse
    # fails although the median does not move.
    peaks = (6.80, 6.84, 6.87, 6.84, 6.91)
    seeded = [doc(100, 50, 10, "d0", peak=v) for v in peaks]
    r, _ = rows(seeded, [doc(100, 50, 10, "d0", peak=v) for v in peaks])
    expect("exact metric, same seeds", r["peak_update_mib"]["verdict"],
           "same")
    r, _ = rows(seeded, [doc(100, 50, 10, "d0", peak=v)
                         for v in (6.80, 6.84, 6.87, 6.84, 6.94)])
    expect("exact metric, one pair worse", r["peak_update_mib"]["verdict"],
           "regressed")

    for bad, what in (([doc(100, 50, 10, "d0", nproc=8)] * 5, "nproc"),
                      ([doc(100, 50, 10, "d0", gemm_backend="generic")] * 5,
                       "backend")):
        try:
            compare(base, bad, spec)
            failures.append(f"{what} mismatch was not refused")
        except CompareError:
            pass
    try:
        compare(base, base[:3], spec)
        failures.append("unpaired inputs were not refused")
    except CompareError:
        pass

    # The committed spec itself: every metric name unique.
    real = json.loads(SPEC_PATH.read_text())
    names = [m["name"] for m in real["end_to_end"] + real["per_layer"]]
    if len(names) != len(set(names)):
        failures.append("BENCHMARK.json: duplicate metric names")

    for f in failures:
        print(f"self-test FAILED: {f}")
    print(f"compare.py self-test: {'FAILED' if failures else 'OK'}")
    return 1 if failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--run", nargs=2, metavar=("PARENT_ROOT", "CHANGE_ROOT"))
    ap.add_argument("-n", type=int, default=5, help="invocations per side")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="timed seconds per workload run (default: "
                         "BENCHMARK.json run_seconds)")
    ap.add_argument("--out-dir", help="where --run keeps its result files "
                    "(default: CHANGE_ROOT/.bench_build/compare)")
    ap.add_argument("--parent", nargs="+", default=[])
    ap.add_argument("--change", nargs="+", default=[])
    ap.add_argument("--self-test", action="store_true")
    opts = ap.parse_args()
    if opts.self_test:
        return self_test()
    try:
        spec = json.loads(SPEC_PATH.read_text())
        if opts.run:
            parent_root, change_root = (Path(p).resolve() for p in opts.run)
            out_dir = Path(opts.out_dir) if opts.out_dir else \
                change_root / ".bench_build" / "compare"
            seconds = opts.seconds if opts.seconds is not None \
                else float(spec["run_seconds"])
            parent_files, change_files = run_pairs(
                parent_root, change_root, opts.n, opts.seed, seconds,
                [w["name"] for w in spec["workloads"]], out_dir)
            print(f"results in {out_dir}")
        else:
            parent_files, change_files = opts.parent, opts.change
        parent, change = load(parent_files), load(change_files)
        report = compare(parent, change, spec)
    except (CompareError, OSError, ValueError, KeyError) as exc:
        print(f"compare.py: {exc}", file=sys.stderr)
        return 2
    print_report(report, len(parent))
    bad = any(r["verdict"] == "regressed" for r in report["rows"])
    return 1 if bad or report["incorrect"] else 0


if __name__ == "__main__":
    sys.exit(main())
