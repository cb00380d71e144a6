"""Count the wall time and minor page faults of a benchmark workload, per op.

Run from anywhere:

    python3 tools/faults.py --workload smooth_solve --seed 1 --passes 10

It builds the seed's inputs with perfbench/workloads.py, runs `--warm`
uncounted passes and then `--passes` counted ones, all in this one process,
and prints the median wall time and the median minor page faults
(`ru_minflt`: pages the process touched for the first time since they were
mapped) of each op and of the whole pass.  A pass that faults pages in again
and again is returning freed memory to the operating system and taking it
back.  The last line is one JSON object with the same medians and every
pass's fault count.  The tool exits 1 if an op raised or missed its check.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@dataclasses.dataclass
class CountingLedger(workloads.Ledger):
    """A Ledger that records (wall seconds, minor faults) per call of each op."""

    spent: dict = dataclasses.field(default_factory=dict)

    def run(self, name, fn, check):
        f0, t0 = minor_faults(), time.perf_counter()
        out = super().run(name, fn, check)
        self.spent.setdefault(name, []).append((time.perf_counter() - t0, minor_faults() - f0))
        return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--passes", type=int, default=10, help="counted passes (default 10)")
    ap.add_argument("--warm", type=int, default=2, help="uncounted passes first (default 2)")
    args = ap.parse_args(argv)
    if args.passes < 1 or args.warm < 0:
        ap.error("--passes must be >= 1 and --warm >= 0")

    make_inputs, one_pass = workloads.WORKLOADS[args.workload]
    inputs = make_inputs(args.seed)
    ledger = CountingLedger()
    passes = []  # (wall seconds, minor faults) per counted pass
    with tempfile.TemporaryDirectory() as workdir:
        for k in range(args.warm + args.passes):
            if k == args.warm:
                ledger.spent.clear()
            f0, t0 = minor_faults(), time.perf_counter()
            one_pass(inputs, ledger, workdir)
            if k >= args.warm:
                passes.append((time.perf_counter() - t0, minor_faults() - f0))

    medians = {name: {"wall_ms": 1e3 * statistics.median(w for w, _ in spent),
                      "faults": statistics.median(f for _, f in spent)}
               for name, spent in {**ledger.spent, "pass": passes}.items()}
    print(f"{args.workload}, seed {args.seed}: {args.passes} passes after {args.warm} warm ones")
    print(f"{'op':<28}{'wall ms':>10}{'faults':>10}")
    for name, m in medians.items():
        print(f"{name:<28}{m['wall_ms']:>10.2f}{m['faults']:>10.0f}")
    print(f"faults per pass: {[f for _, f in passes]}")
    for name, detail in ledger.raised + ledger.wrong:
        print(f"FAILED {name}: {detail}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "passes": args.passes,
                      "warm": args.warm, "median": medians,
                      "pass_faults": [f for _, f in passes], "failed": ledger.failed}))
    return 1 if ledger.failed else 0


if __name__ == "__main__":
    sys.exit(main())
