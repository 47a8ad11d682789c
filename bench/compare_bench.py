#!/usr/bin/env python3
"""Compare a fresh bench_micro run against the committed perf baseline.

Runs the given bench_micro binary on the regression-gated benchmarks
(BM_YearRun*, BM_PlantStep), loads the committed baseline
(bench/BENCH_micro.json by default), and flags any benchmark whose
real_time regressed by more than the threshold (15% by default).  Each
entry's real_time is in its own time_unit (BM_YearRun* report ms), so
both sides are converted to nanoseconds before the delta, and the table
prints every value with its unit.

On top of the relative check, the lane-batched engine carries a
same-run speedup gate: in the fresh run itself, the scalar
BM_YearRunWorld/N must take at least MIN_BATCH_SPEEDUP x the real time
of BM_YearRunBatched/N, for N = 0 (Baseline) and 1 (All-ND).  Both run
the same 8 world-shape specs on the same machine, so the ratio needs no
baseline.  `--same-run` runs just those benchmarks and checks just that
gate, with no baseline comparison.

Exit status: 0 when every gated benchmark is within the threshold and
the speedup gates hold, 1 on a regression, 2 on usage / IO errors.

Usage:
    python3 bench/compare_bench.py --bench build/bench/bench_micro
    python3 bench/compare_bench.py --bench build/bench/bench_micro \
        --baseline bench/BENCH_micro.json --threshold 0.15
    python3 bench/compare_bench.py --bench build/bench/bench_micro \
        --same-run

Wired as the opt-in `bench`-labelled ctest entry: `ctest -C bench`;
CI runs the `--same-run` gate.
Regenerate the baseline after an intentional perf change with:
    build/bench/bench_micro --benchmark_filter='BM_YearRun|BM_PlantStep' \
        --benchmark_out=bench/BENCH_micro.json --benchmark_out_format=json
(keep the `coolair_provenance` block — it records the pre-PR reference).
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

GATED_FILTER = "BM_YearRun|BM_PlantStep"
SAME_RUN_FILTER = "BM_YearRunWorld|BM_YearRunBatched"

# The lane-batched engine's gate, read within one fresh run: the scalar
# oracle's real time over the batched engine's on the same 8 specs.
# Keys are BM_YearRunBatched entries, values their BM_YearRunWorld
# counterparts.
MIN_BATCH_SPEEDUP = 2.0
BATCH_SPEEDUP_PAIRS = {
    "BM_YearRunBatched/0": "BM_YearRunWorld/0",
    "BM_YearRunBatched/1": "BM_YearRunWorld/1",
}

# The serve-layer counterpart: cross-request coalescing against the solo
# cold throughput in bench_serve's cold-heavy scenario, read from the
# fresh run's own A/B ratio, so the gate needs no baseline entry.  The
# bar follows the document's context.workers: at one worker the solo
# service runs its cold specs one after another and coalescing must win
# 2x; with more, the solo service already runs them in parallel and
# coalescing must only not lose.
MIN_COALESCE_SPEEDUP_ONE_WORKER = 2.0
MIN_COALESCE_SPEEDUP = 1.0

# google-benchmark's time_unit values, in nanoseconds.
NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_doc(path):
    """The full benchmark JSON document (benchmarks + context)."""
    with open(path) as f:
        return json.load(f)


def benchmarks_of(doc):
    """name -> (real_time, time_unit) for aggregate-free entries."""
    out = {}
    for b in doc.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev) if repetitions were on.
        if b.get("run_type") == "aggregate":
            continue
        unit = b.get("time_unit", "ns")
        if unit not in NS_PER_UNIT:
            raise ValueError(f"{b['name']}: unknown time_unit {unit!r}")
        out[b["name"]] = (float(b["real_time"]), unit)
    return out


def ns(entry):
    """A (real_time, time_unit) entry in nanoseconds."""
    value, unit = entry
    return value * NS_PER_UNIT[unit]


def shown(entry):
    """A (real_time, time_unit) entry as printed, with its unit."""
    value, unit = entry
    return f"{value:,.1f} {unit}"


def check_batch_speedup(fresh_doc):
    """The same-run >= MIN_BATCH_SPEEDUP x gate; returns violations.

    Skips itself for binaries that never emit the pair (bench_serve
    has no engine benchmarks).
    """
    times = benchmarks_of(fresh_doc)
    violations = []
    for batched, scalar in sorted(BATCH_SPEEDUP_PAIRS.items()):
        if batched not in times and scalar not in times:
            print(f"batch speedup: skipping {batched} gate "
                  f"(fresh run has neither it nor {scalar})")
            continue
        if batched not in times or scalar not in times:
            violations.append((batched, f"fresh run lacks {batched} "
                                        f"or {scalar}"))
            continue
        ratio = ns(times[scalar]) / ns(times[batched])
        print(f"batch speedup: {scalar} {shown(times[scalar])} vs "
              f"{batched} {shown(times[batched])} real time = "
              f"{ratio:.2f}x (gate {MIN_BATCH_SPEEDUP:.1f}x)")
        if ratio < MIN_BATCH_SPEEDUP:
            violations.append(
                (batched, f"only {ratio:.2f}x the same-run {scalar} "
                          f"(need {MIN_BATCH_SPEEDUP:.1f}x)"))
    return violations


def check_coalesce_speedup(fresh_doc):
    """The serve-layer coalescing gate, worker-aware.

    bench_serve's cold-heavy scenario drives the same spec stream at a
    coalescing and a non-coalescing service and records the wall-clock
    ratio on the coalesced entry.  The gate reads the fresh run only
    (both passes happen inside one invocation, so no baseline value is
    needed): MIN_COALESCE_SPEEDUP_ONE_WORKER x at one worker,
    MIN_COALESCE_SPEEDUP x otherwise, and a document whose context has
    no positive integer `workers` fails.  It skips itself for binaries
    that never emit the entry (bench_micro has no serving layer).
    """
    violations = []
    seen = False
    workers = fresh_doc.get("context", {}).get("workers")
    for b in fresh_doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        if b.get("name") != "BM_ServeColdCoalesced":
            continue
        seen = True
        if type(workers) is not int or workers < 1:
            violations.append(("BM_ServeColdCoalesced",
                               f"context.workers is {workers!r}, not a "
                               "positive worker count"))
            continue
        speedup = b.get("coalesce_speedup")
        if speedup is None:
            violations.append(("BM_ServeColdCoalesced",
                               "no coalesce_speedup counter"))
            continue
        speedup = float(speedup)
        gate = (MIN_COALESCE_SPEEDUP_ONE_WORKER if workers == 1
                else MIN_COALESCE_SPEEDUP)
        print(f"coalesce speedup: BM_ServeColdCoalesced {speedup:.2f}x "
              f"vs solo at {workers} worker(s) (gate {gate:.1f}x)")
        if speedup < gate:
            violations.append(
                ("BM_ServeColdCoalesced",
                 f"only {speedup:.2f}x vs solo cold throughput at "
                 f"{workers} worker(s) (need {gate:.1f}x)"))
    if not seen:
        print("coalesce speedup: skipping gate (fresh run has no "
              "BM_ServeColdCoalesced)")
    return violations


def warn_on_context_mismatch(baseline_doc, fresh_doc):
    """Loudly flag baseline/candidate runs that are not comparable.

    A debug-build baseline compared against a release-build candidate
    (or vice versa) makes every delta meaningless; same for a different
    CPU count.  These are warnings, not failures: the numbers still
    print, but nobody should trust a "regression" across a mismatch.
    """
    base_ctx = baseline_doc.get("context", {})
    fresh_ctx = fresh_doc.get("context", {})
    mismatches = []
    for key in ("library_build_type", "build_type", "num_cpus"):
        b, f = base_ctx.get(key), fresh_ctx.get(key)
        if b is not None and f is not None and b != f:
            mismatches.append((key, b, f))
    if not mismatches:
        return
    banner = "!" * 70
    print(banner, file=sys.stderr)
    print("compare_bench: WARNING: baseline and candidate runs are NOT "
          "comparable:", file=sys.stderr)
    for key, b, f in mismatches:
        print(f"  {key}: baseline={b!r} vs candidate={f!r}",
              file=sys.stderr)
    print("  (regenerate the baseline from the same build configuration "
          "before trusting any delta below)", file=sys.stderr)
    print(banner, file=sys.stderr)


def run_bench(bench, bench_filter):
    """Run @bench on @bench_filter; the fresh JSON document, or None."""
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        fresh_path = tmp.name
    try:
        cmd = [bench,
               f"--benchmark_filter={bench_filter}",
               f"--benchmark_out={fresh_path}",
               "--benchmark_out_format=json"]
        proc = subprocess.run(cmd)
        if proc.returncode != 0:
            print(f"compare_bench: bench run failed ({proc.returncode})",
                  file=sys.stderr)
            return None
        return load_doc(fresh_path)
    finally:
        try:
            os.unlink(fresh_path)
        except OSError:
            pass


def report(regressions, ok_message):
    """Print the verdict; the exit status."""
    if regressions:
        print(f"\ncompare_bench: {len(regressions)} regression(s):",
              file=sys.stderr)
        for name, why in regressions:
            print(f"  {name}: {why}", file=sys.stderr)
        return 1
    print(f"\ncompare_bench: {ok_message}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench", required=True,
                    help="path to the bench_micro binary")
    ap.add_argument("--baseline",
                    default=os.path.join(os.path.dirname(__file__),
                                         "BENCH_micro.json"),
                    help="committed baseline JSON (default: next to "
                         "this script)")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="allowed real_time regression fraction "
                         "(default 0.15 = 15%%)")
    ap.add_argument("--filter", default=GATED_FILTER,
                    help="benchmark_filter regex for the gated set")
    ap.add_argument("--same-run", action="store_true",
                    help="run only the batched and scalar world-shape "
                         "benchmarks and check only their same-run "
                         "speedup gate (no baseline)")
    args = ap.parse_args()

    if args.same_run:
        fresh_doc = run_bench(args.bench, SAME_RUN_FILTER)
        if fresh_doc is None:
            return 2
        return report(check_batch_speedup(fresh_doc),
                      "the same-run batch speedup gate holds")

    try:
        baseline_doc = load_doc(args.baseline)
        baseline = benchmarks_of(baseline_doc)
    except (OSError, ValueError) as e:
        print(f"compare_bench: cannot load baseline: {e}", file=sys.stderr)
        return 2
    if not baseline:
        print("compare_bench: baseline has no benchmark entries",
              file=sys.stderr)
        return 2

    fresh_doc = run_bench(args.bench, args.filter)
    if fresh_doc is None:
        return 2
    fresh = benchmarks_of(fresh_doc)

    warn_on_context_mismatch(baseline_doc, fresh_doc)

    # Markdown summary table: every benchmark either run appeared in,
    # with a status column.  Benchmarks only in the fresh run are "new"
    # (informational), only in the baseline are regressions (a gated
    # benchmark vanished).
    regressions = []
    rows = []
    for name in sorted(set(baseline) | set(fresh)):
        base_t = baseline.get(name)
        new_t = fresh.get(name)
        if base_t is None:
            rows.append((name, "-", shown(new_t), "-", "new"))
            continue
        if new_t is None:
            rows.append((name, shown(base_t), "-", "-", "MISSING"))
            regressions.append((name, "missing from fresh run"))
            continue
        delta = (ns(new_t) - ns(base_t)) / ns(base_t)
        status = "ok"
        if delta > args.threshold:
            status = "**REGRESSION**"
            regressions.append((name, f"{delta:+.1%}"))
        rows.append((name, shown(base_t), shown(new_t),
                     f"{delta:+.1%}", status))

    headers = ("benchmark", "baseline", "current", "delta", "status")
    widths = [max(len(headers[c]), max((len(r[c]) for r in rows),
                                       default=0))
              for c in range(len(headers))]
    print("| " + " | ".join(h.ljust(w) for h, w in zip(headers, widths)) +
          " |")
    print("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    for r in rows:
        print("| " + " | ".join(v.ljust(w) for v, w in zip(r, widths)) +
              " |")

    print()
    regressions += check_batch_speedup(fresh_doc)
    regressions += check_coalesce_speedup(fresh_doc)
    return report(regressions,
                  f"all benchmarks within {args.threshold:.0%} of "
                  "baseline and the speedup gates hold")


if __name__ == "__main__":
    sys.exit(main())
