"""Compare two saved outputs of ``run.py`` (its stdout, one file each).

    python3 perfbench/compare.py BEFORE.txt AFTER.txt

Refuses, with exit code 2, when the two environment stamps differ in any
field (Python, numpy, kernel backend, CPU count, thread pinning, workload,
seed, seconds, trace mode), so that for example a numba run is never set
against a numpy run.  Otherwise prints each metric of both runs and the
ratio after/before.
"""

from __future__ import annotations

import json
import sys


def load(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().strip().splitlines()
    stamp = None
    for line in lines:
        if line.startswith("stamp "):
            stamp = json.loads(line[len("stamp "):])
    if stamp is None or not lines:
        raise ValueError(f"{path}: no stamp line; not an output of run.py")
    return stamp, json.loads(lines[-1])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (sa, ra), (sb, rb) = load(argv[0]), load(argv[1])
    differ = sorted(k for k in sa.keys() | sb.keys() if sa.get(k) != sb.get(k))
    if differ:
        for k in differ:
            print(f"refused: stamp field {k!r} differs: {sa.get(k)!r} vs {sb.get(k)!r}",
                  file=sys.stderr)
        return 2
    for name in sorted(ra["metrics"].keys() & rb["metrics"].keys()):
        a = ra["metrics"][name]["value"]
        b = rb["metrics"][name]["value"]
        ratio = f"{b / a:.4f}" if a else "-"
        print(f"{name:32s} {a:14.6g} {b:14.6g} {ratio:>8s} {ra['metrics'][name]['unit']}")
    print(f"{'correct':32s} {ra['correct']!s:>14s} {rb['correct']!s:>14s}")
    print(f"{'failed/attempted':32s} {ra['failed']:>7d}/{ra['attempted']:<6d} "
          f"{rb['failed']:>7d}/{rb['attempted']:<6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
