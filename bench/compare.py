"""Side-by-side view of two benchmark result files.

    python3 bench/compare.py BASE.json NEW.json

Both files are written by `bench/run.py --out FILE` (one entry per workload;
a traced run adds its per-layer part). For each workload and each metric this
prints the base value, the new value, and the ratio new/base with its base.
"""

import argparse
import json
import sys

SECTIONS = ("end_to_end", "detail", "per_layer")


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)["workloads"]


def rows(base: dict, new: dict) -> list[str]:
    lines = []
    for workload in sorted(set(base) | set(new)):
        a, b = base.get(workload, {}), new.get(workload, {})
        lines.append(f"== {workload}")
        for section in SECTIONS:
            names = list(a.get(section, {}))
            names += [n for n in b.get(section, {}) if n not in names]
            if not names:
                continue
            lines.append(f"  [{section}]")
            for name in names:
                va, vb = a.get(section, {}).get(name), b.get(section, {}).get(name)
                shown_a = "-" if va is None else f"{va:.6g}"
                shown_b = "-" if vb is None else f"{vb:.6g}"
                if va is None or vb is None:
                    ratio = "missing"
                elif va == 0:
                    ratio = "same" if vb == 0 else "base 0"
                else:
                    ratio = f"{vb / va:.3f}x of {va:.6g}"
                lines.append(f"    {name:<40} {shown_a:>14} {shown_b:>14}  {ratio}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("base")
    p.add_argument("new")
    args = p.parse_args(argv)
    print(f"{'metric':<44} {'base':>14} {'new':>14}  new/base")
    print("\n".join(rows(load(args.base), load(args.new))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
