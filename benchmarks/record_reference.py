"""Record the reference outputs the benchmark checks operations against.

    python3 benchmarks/record_reference.py

Runs one operation of every workload at seeds 0 and 1 and writes
``reference.json``: the key numbers and artifact digests at seed 0, and the
names of those that came out the same at both seeds.  The reference belongs
to the commit that defined the benchmark; record it again only for a change
that is meant to alter the outputs, and say so in that change.
"""

import json
import os
import shutil
import sys

import run as bench


def record(wl, env, seed, work):
    out = os.path.join(work, f"{wl.name}-{seed}")
    os.makedirs(out)
    log = os.path.join(work, f"{wl.name}-{seed}.log")
    proc = bench.launch(bench.op_argv(wl.target, wl.args(seed), out), env, log, 600)
    op = bench.check_op(wl.read, out, proc)
    if op.failures:
        raise SystemExit(f"{wl.name} seed {seed}: {'; '.join(op.failures)}")
    _, numbers = wl.read(out)
    return numbers, bench.artifact_digests(out)


def main():
    env = bench.child_env()
    work = os.path.join(bench.WORK, f"reference-{os.getpid()}")
    os.makedirs(work)
    reference = {}
    try:
        for wl in bench.WORKLOADS.values():
            numbers, digests = record(wl, env, 0, work)
            numbers1, digests1 = record(wl, env, 1, work)
            same = [k for k, v in numbers.items() if numbers1.get(k) == v]
            same += [k for k, v in digests.items() if digests1.get(k) == v]
            reference[wl.name] = {"seed": 0, "numbers": numbers, "digests": digests,
                                  "seed_independent": sorted(same)}
            print(f"{wl.name}: {len(numbers)} numbers, {len(digests)} digests, "
                  f"{len(same)} seed-independent")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(bench.REFERENCE, "w") as fh:
        json.dump(reference, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
