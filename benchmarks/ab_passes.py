"""A/B two checkouts pass by pass: ``A B B A A B B A ...``.

    python3 benchmarks/ab_passes.py --a /path/to/parent --b . \\
        --workload tap_mixed --seed 11 --passes 10

``benchmarks/ledger/run.py`` is the yardstick a claim is judged by, but
one run is ~25 s and this class of VM has slow regimes that last about
as long: run-level pairs of one unchanged tree have read 18.3k and
30.8k pkt/s.  Here each checkout gets one persistent child process
(its own ``src`` and its own ``benchmarks.ledger.workloads``, imported
read-only), both children read the same input files, and single passes
alternate between them, so a slow regime hits both sides; pass-level
ratios repeat to about +-3%.

Prints, per side, min and median wall and CPU microseconds per item and
peak resident MiB (``VmHWM``, restarted before every pass, so a memory
claim is checked pass against pass like a speed claim; the sharded
workload's worker processes are not in it), the median of the per-pair
ratios and whether every pass of both sides produced the same digest;
exits 1 when they did not, or a pass failed operations.  With ``--a``
and ``--b`` left at this checkout it is an A/A run: the ratios it
prints are the noise floor.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Record key -> what the summary calls it.
COLUMNS = {"wall_us": "wall us/item", "cpu_us": "cpu us/item",
           "rss_mib": "peak RSS MiB"}


def _use_checkout(root: str):
    """Import ``root``'s program and ledger workloads, nothing of ours."""
    for path in (root, os.path.join(root, "src")):
        sys.path.insert(0, path)
    from benchmarks.ledger import workloads
    return workloads


def _restart_peak_rss() -> None:
    """Begin a new resident-set high-water mark (``VmHWM``) at the
    current resident size, so each pass reports its own peak.  Where
    the kernel refuses, the mark stays the child's lifetime peak."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def child(root: str, workload: str, seed: int, workdir: str) -> None:
    """One pass per line read on stdin, its record as one JSON line."""
    workloads = _use_checkout(root)
    from benchmarks.ledger.run_one import peak_rss_kib  # the ledger's own
    ctx = workloads.load(workload, seed, workdir)
    for _ in sys.stdin:
        gc.collect()
        _restart_peak_rss()
        record = workloads.open_pass(ctx).run()
        items = record["items"]
        cpu = sum(record["cpus"]) + record.get("children_cpu", 0.0)
        print(json.dumps({
            "wall_us": sum(record["walls"]) / items * 1e6,
            "cpu_us": cpu / items * 1e6,
            "rss_mib": peak_rss_kib() / 1024.0,
            "digest": record["digest"], "failed": record["failed"],
        }), flush=True)


def _command(mode: str, root: str, args: argparse.Namespace,
             workdir: str) -> list[str]:
    """This script again, as ``root``'s builder or pass-running child."""
    return [sys.executable, os.path.abspath(__file__), mode, root,
            "--workload", args.workload, "--seed", str(args.seed),
            "--shrink", str(args.shrink), "--workdir", workdir]


def _one_pass(process) -> dict:
    process.stdin.write("pass\n")
    process.stdin.flush()
    line = process.stdout.readline()
    if not line:
        sys.exit(f"ab_passes: child exited with {process.wait()}")
    return json.loads(line)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--a", default=HERE, help="checkout A (the parent)")
    parser.add_argument("--b", default=HERE, help="checkout B (the change)")
    parser.add_argument("--workload", default="tap_mixed")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--passes", type=int, default=10,
                        help="passes per side")
    parser.add_argument("--shrink", type=int, default=1,
                        help="divide the ledger's input sizes by this")
    parser.add_argument("--build", help=argparse.SUPPRESS)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.build:
        _use_checkout(args.build).build(args.workload, args.seed,
                                        args.workdir, args.shrink)
        return 0
    if args.child:
        child(args.child, args.workload, args.seed, args.workdir)
        return 0

    roots = {"A": os.path.abspath(args.a), "B": os.path.abspath(args.b)}
    workdir = tempfile.mkdtemp(prefix="ab_passes_")
    children = {}
    try:
        # One input, built by A's own set-up code, read by both sides.
        subprocess.run(_command("--build", roots["A"], args, workdir),
                       check=True)
        children = {
            side: subprocess.Popen(_command("--child", root, args, workdir),
                                   stdin=subprocess.PIPE,
                                   stdout=subprocess.PIPE, text=True)
            for side, root in roots.items()
        }
        for process in children.values():
            _one_pass(process)  # warm-up: imports, caches, allocator
        records = {"A": [], "B": []}
        for index in range(args.passes):
            for side in ("AB", "BA")[index % 2]:
                records[side].append(_one_pass(children[side]))
    finally:
        for process in children.values():
            process.stdin.close()  # end of input: the child's loop ends
            try:
                process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                process.kill()
        shutil.rmtree(workdir, ignore_errors=True)

    for side, rows in records.items():
        print(f"{side} {roots[side]}")
        for column, label in COLUMNS.items():
            values = [row[column] for row in rows]
            print(f"  {label:12}  min {min(values):8.2f}  "
                  f"median {statistics.median(values):8.2f}")
    for column, label in COLUMNS.items():
        a, b = ([row[column] for row in records[side]] for side in "AB")
        ratios = [x / y for x, y in zip(a, b)]
        print(f"A/B {label}: paired-pass median "
              f"{statistics.median(ratios):.3f}, of minima "
              f"{min(a) / min(b):.3f}")
    rows = records["A"] + records["B"]
    digests = {row["digest"] for row in rows}
    failed = sum(row["failed"] for row in rows)
    print(f"digests {'equal' if len(digests) == 1 else 'DIFFER'} "
          f"({', '.join(sorted(d[:12] for d in digests))}); failed {failed}")
    return 0 if len(digests) == 1 and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
