#!/usr/bin/env python3
"""Gate the observability-probe overhead against BENCH_substrate.json.

Usage: scripts/check_bench_regression.py bench_out.json \
           [--reference BENCH_substrate.json] [--tolerance 2.0]
       scripts/check_bench_regression.py --placement placement_ab.json \
           [--reference BENCH_substrate.json] [--tolerance 2.0]
       scripts/check_bench_regression.py --spill oom_spill.json \
           [--reference BENCH_substrate.json] [--tolerance 2.0]
       scripts/check_bench_regression.py --sort sort_out.json \
           [--reference BENCH_substrate.json] [--tolerance 2.0]
       scripts/check_bench_regression.py --key-index index_out.json \
           [--reference BENCH_substrate.json] [--tolerance 2.0]
       scripts/check_bench_regression.py --merge merge_out.json \
           [--reference BENCH_substrate.json] [--tolerance 2.0]

`bench_out.json` is google-benchmark's --benchmark_out JSON for a run of
bench_micro_substrate covering the BM_FabricSendMT* series. The reference
file records, per probe family (tracing, telemetry), the armed/disarmed
per-op times captured on the baseline machine as "NNN (X.XM/s)" strings.

Absolute nanoseconds do not transfer between machines (shared CI runners
drift 2x and more), so the gate compares RATIOS: for each thread count, the
armed-over-disarmed slowdown measured in this run must not exceed the
reference slowdown times --tolerance. A disabled-gate regression (the
one-relaxed-atomic-branch discipline eroding into real work) shows up the
same way: the armed/disarmed ratio collapses toward 1 only if both paths do
the work, so the disarmed baseline is additionally checked against the
armed time of the SAME run (disarmed must stay strictly cheaper).

--spill gates bench_oom_spill_ab's out-of-core measurements against the
oom_spill_ab series: per algorithm, the budget must have bitten (spill_runs
> 0), spill amplification (spilled bytes over the unlimited run's shuffle
bytes) must not exceed the reference times --tolerance, and the virtual-time
slowdown must stay within the same factor of the reference. Run counts and
high-water marks are NOT gated here — batch arrival order shifts them a few
percent between runs, and the binary already hard-gates byte identity,
ledger balance, and the arena ceiling before emitting JSON at all.

--sort gates the radix sort kernel's in-run speedup on two shapes:
sort_out.json is a --benchmark_out file of bench_micro_substrate covering
BM_SortRecordsPageRankPrefix/262144 and BM_SortRecordsKMeansPrefix/75000
(the comparison-sort kernel the radix order replaced, kept verbatim in the
binary) and BM_SortRecordsPageRank/262144 and BM_SortRecordsKMeans/75000
(the shipping sort_records). Both times of a pair come from one run, so
runner speed cancels; each pair's ratio must stay at or above its
sort_records_radix reference speedup divided by --tolerance.

--key-index gates the two in-run ratios of the shared key index
(key_index series): index_out.json is a --benchmark_out file of
bench_micro_substrate covering BM_ReduceStateReconcile/50000 and
BM_ReduceStateReconcileUnorderedMap/50000 (a reduce state's reconcile on
the flat table, and on the node-based map it replaced, kept verbatim in the
binary), whose speedup must stay at or above the reference divided by
--tolerance, and BM_StaticJoinIndexPartitioned/1 and /64 (the join over
keys of one hash partition of 1 and of 64), whose slowdown at 64 must stay
at or below the reference times --tolerance: an index whose home slot
drops back to fnv1a's low bits reads about 8x there.

--merge gates the budgeted reduce's merge pass the same way: merge_out.json
is a --benchmark_out file of bench_micro_substrate covering
BM_MergeRunsPageRankCompare/24 (the string-compare, moved-head loser tree
the head-code cursor replaced, kept verbatim in the binary) and
BM_MergeRunsPageRank/24 (the shipping MergeCursor), each merging 24 sorted
runs of a PageRank reduce buffer and grouping the stream; the pair's ratio
must stay at or above the merge_runs reference speedup divided by
--tolerance.

--placement instead gates bench_placement_ab's remote-byte measurements:
virtual-traffic byte counts are fully deterministic (no machine drift), so
each algorithm's hash-over-bfs remote-byte ratio must stay at or above both
the 2x acceptance floor and the reference ratio in the placement_ab series
divided by --tolerance.
"""
import argparse
import json
import re
import sys

# Reference key -> (disarmed benchmark, armed benchmark) as named by
# bench_micro_substrate. BM_FabricSendMTDisarmed is the shared
# gates-off baseline for both probe families.
SERIES = {
    "fabric_send_mt_tracing": (
        "BM_FabricSendMTDisarmed",
        "BM_FabricSendMTTraceEnabled",
    ),
    "fabric_send_mt_telemetry": (
        "BM_FabricSendMTDisarmed",
        "BM_FabricSendMTTelemetryEnabled",
    ),
}
THREADS = (1, 4, 8)


def ref_ns(cell: str) -> float:
    """Parse the leading per-op time from a 'NNN (X.XM/s)' reference cell."""
    m = re.match(r"\s*([0-9.]+)", cell)
    if not m:
        raise ValueError(f"unparseable reference cell: {cell!r}")
    return float(m.group(1))


def load_run(path: str) -> dict:
    """Map 'BM_Name/threads:N' -> real_time ns from a --benchmark_out file.

    Prefers the 'median' aggregate when repetitions were requested; falls
    back to the plain iteration entry otherwise.
    """
    with open(path) as f:
        out = json.load(f)
    times = {}
    for b in out.get("benchmarks", []):
        name = b["name"]
        base = name
        aggregate = b.get("aggregate_name", "")
        if aggregate:
            if aggregate != "median":
                continue
            base = name.rsplit("_", 1)[0]  # strip '_median'
        elif b.get("run_type") == "aggregate":
            continue
        if base in times and not aggregate:
            continue  # keep the first (or the median already stored)
        times[base] = float(b["real_time"])
    return times


PLACEMENT_FLOOR = 2.0  # ISSUE 9 acceptance: remote bytes drop >= 2x


def check_placement(run_path: str, reference: dict, tolerance: float) -> int:
    """Gate bench_placement_ab --json output against the placement_ab series."""
    with open(run_path) as f:
        run = json.load(f)
    series = reference.get("placement_ab", {})
    failures = []
    for algo in ("pagerank", "sssp"):
        point = run.get(algo)
        if point is None:
            failures.append(f"placement_ab/{algo}: missing from the bench run")
            continue
        ratio = float(point["ratio"])
        ref = series.get(algo, {})
        ref_ratio = float(ref.get("ratio", PLACEMENT_FLOOR))
        limit = max(PLACEMENT_FLOOR, ref_ratio / tolerance)
        verdict = "ok" if ratio >= limit else "REGRESSION"
        print(
            f"placement_ab/{algo}: hash/bfs remote bytes {ratio:.2f}x "
            f"(reference {ref_ratio:.2f}x, floor {limit:.2f}x) {verdict}"
        )
        if ratio < limit:
            failures.append(
                f"placement_ab/{algo}: remote-byte drop {ratio:.2f}x fell "
                f"below {limit:.2f}x"
            )
    if failures:
        print("\nFAIL:")
        for f_ in failures:
            print(f"  {f_}")
        return 1
    print("\nall placement remote-byte ratios at or above their floors")
    return 0


def check_spill(run_path: str, reference: dict, tolerance: float) -> int:
    """Gate bench_oom_spill_ab --json output against the oom_spill_ab series."""
    with open(run_path) as f:
        run = json.load(f)
    series = reference.get("oom_spill_ab", {})
    failures = []
    for algo in ("pagerank", "sssp"):
        point = run.get(algo)
        if point is None:
            failures.append(f"oom_spill_ab/{algo}: missing from the bench run")
            continue
        runs = int(point["spill_runs"])
        amp = float(point["amplification"])
        slowdown = float(point["slowdown"])
        ref = series.get(algo, {})
        amp_limit = float(ref.get("amplification", 1.0)) * tolerance
        slow_limit = float(ref.get("slowdown", 2.0)) * tolerance
        checks = [
            (runs > 0, f"{runs} spill runs", "the budget never bit"),
            (
                amp <= amp_limit,
                f"amplification {amp:.2f}x (limit {amp_limit:.2f}x)",
                f"amplification {amp:.2f}x exceeds {amp_limit:.2f}x",
            ),
            (
                slowdown <= slow_limit,
                f"slowdown {slowdown:.2f}x (limit {slow_limit:.2f}x)",
                f"slowdown {slowdown:.2f}x exceeds {slow_limit:.2f}x",
            ),
        ]
        parts = []
        for ok, detail, failure in checks:
            parts.append(detail)
            if not ok:
                failures.append(f"oom_spill_ab/{algo}: {failure}")
        verdict = (
            "ok"
            if all(ok for ok, _, _ in checks)
            else "REGRESSION"
        )
        print(f"oom_spill_ab/{algo}: " + ", ".join(parts) + f" {verdict}")
    if failures:
        print("\nFAIL:")
        for f_ in failures:
            print(f"  {f_}")
        return 1
    print("\nall spill amplification and slowdown ratios within tolerance")
    return 0


# sort_records_radix series -> (shape, replaced kernel, shipping sort_records),
# as bench_micro_substrate names them.
SORT_PAIRS = {
    "pagerank_reduce": (
        "262144",
        "BM_SortRecordsPageRankPrefix",
        "BM_SortRecordsPageRank",
    ),
    "kmeans_combine": (
        "75000",
        "BM_SortRecordsKMeansPrefix",
        "BM_SortRecordsKMeans",
    ),
}


def check_speedups(run_path: str, pairs: list, tolerance: float,
                   passed: str) -> int:
    """Gate in-run speedups of shipping kernels over the ones they replaced.

    Each pair is (name, replaced benchmark, shipping benchmark, reference
    speedup or None); the replaced-over-shipping ratio of one run must stay
    at or above the reference divided by `tolerance`.
    """
    run = load_run(run_path)
    failures = []
    for name, old_bm, new_bm, ref in pairs:
        old = run.get(old_bm)
        new = run.get(new_bm)
        if old is None or new is None:
            failures.append(
                f"{name}: series missing from the benchmark run "
                f"(need {old_bm} and {new_bm})"
            )
            continue
        if ref is None:
            failures.append(f"{name}: no reference speedup")
            continue
        ratio = old / new
        limit = float(ref) / tolerance
        verdict = "ok" if ratio >= limit else "REGRESSION"
        print(
            f"{name}: {old_bm} {old / 1e6:.1f}ms / {new_bm} {new / 1e6:.1f}ms "
            f"= {ratio:.2f}x (reference {float(ref):.2f}x, floor {limit:.2f}x) "
            f"{verdict}"
        )
        if ratio < limit:
            failures.append(
                f"{name}: speedup {ratio:.2f}x fell below {limit:.2f}x"
            )
    if failures:
        print("\nFAIL:")
        for f_ in failures:
            print(f"  {f_}")
        return 1
    print(f"\n{passed}")
    return 0


def check_sort(run_path: str, reference: dict, tolerance: float) -> int:
    """Gate the radix kernel's speedup over the kernel it replaced."""
    series = reference.get("sort_records_radix", {})
    pairs = [
        (
            f"sort_records_radix/{key}/n_{shape}",
            f"{old_bm}/{shape}",
            f"{new_bm}/{shape}",
            series.get(key, {}).get("speedup", {}).get(f"n_{shape}"),
        )
        for key, (shape, old_bm, new_bm) in SORT_PAIRS.items()
    ]
    return check_speedups(run_path, pairs, tolerance,
                          "radix sort speedups at or above their floors")


def check_merge(run_path: str, reference: dict, tolerance: float) -> int:
    """Gate the head-code merge's speedup over the cursor it replaced."""
    ref = reference.get("merge_runs", {}).get("speedup", {}).get("runs_24")
    pairs = [(
        "merge_runs/runs_24",
        "BM_MergeRunsPageRankCompare/24",
        "BM_MergeRunsPageRank/24",
        ref,
    )]
    return check_speedups(run_path, pairs, tolerance,
                          "merge speedup at or above its floor")


def check_key_index(run_path: str, reference: dict, tolerance: float) -> int:
    """Gate the flat state table's speedup and the partitioned join's spread."""
    run = load_run(run_path)
    series = reference.get("key_index", {})
    failures = []
    # (name, numerator, denominator, reference key, higher is better)
    pairs = (
        (
            "key_index/reduce_state_reconcile/n_50000",
            "BM_ReduceStateReconcileUnorderedMap/50000",
            "BM_ReduceStateReconcile/50000",
            ("reduce_state_reconcile", "speedup"),
            True,
        ),
        (
            "key_index/static_join_partitioned",
            "BM_StaticJoinIndexPartitioned/64",
            "BM_StaticJoinIndexPartitioned/1",
            ("static_join_partitioned", "t64_over_t1"),
            False,
        ),
    )
    for name, num_bm, den_bm, (group, field), higher in pairs:
        num = run.get(num_bm)
        den = run.get(den_bm)
        ref = series.get(group, {}).get(field)
        if num is None or den is None:
            failures.append(
                f"{name}: series missing from the benchmark run "
                f"(need {num_bm} and {den_bm})"
            )
            continue
        if ref is None:
            failures.append(f"{name}: no reference {field}")
            continue
        ratio = num / den
        limit = float(ref) / tolerance if higher else float(ref) * tolerance
        ok = ratio >= limit if higher else ratio <= limit
        bound = "floor" if higher else "ceiling"
        print(
            f"{name}: {num_bm} {num / 1e3:.1f}us / {den_bm} {den / 1e3:.1f}us "
            f"= {ratio:.2f}x (reference {float(ref):.2f}x, {bound} "
            f"{limit:.2f}x) {'ok' if ok else 'REGRESSION'}"
        )
        if not ok:
            failures.append(f"{name}: ratio {ratio:.2f}x is past its {bound} "
                            f"{limit:.2f}x")
    if failures:
        print("\nFAIL:")
        for f_ in failures:
            print(f"  {f_}")
        return 1
    print("\nkey index ratios within their bounds")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "bench_out",
        nargs="?",
        help="google-benchmark --benchmark_out JSON (probe-overhead mode)",
    )
    ap.add_argument(
        "--placement",
        help="bench_placement_ab --json output to gate instead of the "
        "probe-overhead series",
    )
    ap.add_argument(
        "--spill",
        help="bench_oom_spill_ab --json output to gate instead of the "
        "probe-overhead series",
    )
    ap.add_argument(
        "--sort",
        help="bench_micro_substrate --benchmark_out JSON of the PageRank "
        "and K-means sort series to gate instead of the probe-overhead series",
    )
    ap.add_argument(
        "--key-index",
        help="bench_micro_substrate --benchmark_out JSON of the reduce state "
        "and partitioned join series to gate instead of the probe-overhead "
        "series",
    )
    ap.add_argument(
        "--merge",
        help="bench_micro_substrate --benchmark_out JSON of the merge series "
        "to gate instead of the probe-overhead series",
    )
    ap.add_argument("--reference", default="BENCH_substrate.json")
    ap.add_argument(
        "--tolerance",
        type=float,
        default=2.0,
        help="armed/disarmed ratio may exceed the reference ratio by "
        "at most this factor (default 2.0); in --placement, --sort, "
        "--key-index and --merge modes the measured ratio may fall short of "
        "the reference by the same factor",
    )
    args = ap.parse_args()

    with open(args.reference) as f:
        reference = json.load(f)
    if args.placement:
        return check_placement(args.placement, reference, args.tolerance)
    if args.spill:
        return check_spill(args.spill, reference, args.tolerance)
    if args.sort:
        return check_sort(args.sort, reference, args.tolerance)
    if args.key_index:
        return check_key_index(args.key_index, reference, args.tolerance)
    if args.merge:
        return check_merge(args.merge, reference, args.tolerance)
    if not args.bench_out:
        ap.error(
            "either bench_out, --placement, --spill, --sort, --key-index, or "
            "--merge is required"
        )
    run = load_run(args.bench_out)

    failures = []
    for key, (disarmed_bm, armed_bm) in SERIES.items():
        series = reference.get(key)
        if series is None:
            print(f"{key}: no reference series, skipping")
            continue
        for t in THREADS:
            tkey = f"threads_{t}"
            try:
                ref_ratio = ref_ns(series["enabled"][tkey]) / ref_ns(
                    series["disabled"][tkey]
                )
            except KeyError:
                print(f"{key}/{tkey}: incomplete reference, skipping")
                continue
            disarmed = run.get(f"{disarmed_bm}/threads:{t}")
            armed = run.get(f"{armed_bm}/threads:{t}")
            if disarmed is None or armed is None:
                failures.append(
                    f"{key}/{tkey}: series missing from the benchmark run "
                    f"(need {disarmed_bm} and {armed_bm} at threads:{t})"
                )
                continue
            ratio = armed / disarmed
            limit = ref_ratio * args.tolerance
            verdict = "ok" if ratio <= limit else "REGRESSION"
            print(
                f"{key}/{tkey}: armed {armed:.0f}ns / disarmed "
                f"{disarmed:.0f}ns = {ratio:.2f}x "
                f"(reference {ref_ratio:.2f}x, limit {limit:.2f}x) {verdict}"
            )
            if ratio > limit:
                failures.append(
                    f"{key}/{tkey}: armed/disarmed {ratio:.2f}x exceeds "
                    f"{limit:.2f}x"
                )
            if armed < disarmed * 0.5:
                # An armed probe measurably CHEAPER than the gated-off path
                # means the baseline got slower, not the probe faster.
                failures.append(
                    f"{key}/{tkey}: disarmed path ({disarmed:.0f}ns) is over "
                    f"2x slower than armed ({armed:.0f}ns) — the disabled "
                    f"gate is doing real work"
                )

    if failures:
        print("\nFAIL:")
        for f_ in failures:
            print(f"  {f_}")
        return 1
    print("\nall probe-overhead ratios within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
