#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark: every workload, untraced and
traced, on the small --quick inputs. Run from the checkout root:

    python3 e2ebench/selftest.py

Exits 0 when every run exits 0 with "correct": true and prints each
metric its mode promises.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def main():
    failures = 0
    for workload in sorted(run.WORKLOADS):
        for trace in (0, 1):
            p = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", "7", "--seconds", "1", "--trace",
                 str(trace), "--quick"], capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            want = run.PER_LAYER if trace else run.END_TO_END
            ok = (p.returncode == 0 and result.get("correct") is True and
                  set(result.get("metrics", {})) == set(want) and
                  result.get("attempted", 0) >= 1)
            print(f"{workload:9} trace={trace}: "
                  f"{'ok' if ok else 'FAILED'} "
                  f"(attempted {result.get('attempted')}, "
                  f"failed {result.get('failed')})")
            if not ok:
                failures += 1
                sys.stderr.write(p.stderr[-2000:])
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
