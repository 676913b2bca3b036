"""The value of every op of the exact-evaluator workloads, to check that a
change moves no value.

    python3 tools/op_values.py --seeds 7 11 --out after.json
    python3 tools/op_values.py --src ../parent/src --seeds 7 11 --out before.json
    python3 tools/op_values.py --compare before.json after.json

The first two forms build the ops of `asep-dist`, `asep-n4` and
`bose-hardwall` from perfbench/workloads.py, run each op once per seed and
write its value, or the error it raised, as JSON.  The library comes from
--src (default: src/ next to this directory), so one copy of this tool
dumps the values of any checkout.  One OpenBLAS thread is set before numpy
is imported, as the benchmark sets it, since the thread count can move the
last bits of a value.  No reference or check is run.

--compare reports, per op, whether the two values are repr-identical and
their relative difference |a - b| / |b|, with a summary per particle
number N.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("asep-dist", "asep-n4", "bose-hardwall")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def particles(name: str) -> int:
    """N of an op, read from its name: "bose N=3 ..." or
    "half p=0.3 t=0.5 (0, 2, 4)->(0, 1, 2)"."""
    if name.startswith("bose"):
        return int(name.split()[1].removeprefix("N="))
    return len(ast.literal_eval(name[name.index("("):name.index("->")]))


def dump(src: Path, seeds) -> dict:
    """{workload: {seed: {op name: {"n", "repr", "re", "im"} or {"n",
    "error"}}}} for every op, each run once."""
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import halfline_bethe as hb
    import workloads

    values = {}
    for name in WORKLOADS:
        workloads.warm_up(name, hb)
        values[name] = {}
        for seed in seeds:
            ops = {}
            for op in workloads.build(name, hb, seed):
                try:
                    out = op.run()
                except Exception as exc:  # a failing op is recorded, not fatal
                    ops[op.name] = {"n": particles(op.name),
                                    "error": f"{type(exc).__name__}: {exc}"}
                    continue
                value = complex(out)
                ops[op.name] = {"n": particles(op.name), "repr": repr(out),
                                "re": value.real, "im": value.imag}
            values[name][str(seed)] = ops
    return {"src": str(src.resolve()), "library": hb.__file__,
            "blas_threads": 1, "values": values}


def compare(before: dict, after: dict) -> list[str]:
    """One line per op, then one per (workload, N): identical values out of
    all, the largest relative difference and the failed ops."""
    lines, summary = [], {}
    for workload, seeds in before["values"].items():
        for seed, ops in seeds.items():
            other = after["values"].get(workload, {}).get(seed, {})
            for name, a in ops.items():
                b = other.get(name)
                key = (workload, a["n"])
                same, total, worst, failed = summary.get(key, (0, 0, 0.0, 0))
                if b is None or "error" in a or "error" in b:
                    lines.append(f"{workload} seed={seed} {name}: "
                                 f"{a.get('error', 'ok')} | "
                                 f"{'missing' if b is None else b.get('error', 'ok')}")
                    summary[key] = (same, total + 1, worst, failed + 1)
                    continue
                va, vb = complex(a["re"], a["im"]), complex(b["re"], b["im"])
                rel = abs(va - vb) / abs(vb) if vb else (0.0 if va == vb else float("inf"))
                identical = a["repr"] == b["repr"]
                lines.append(f"{workload} seed={seed} {name}: "
                             f"{'identical' if identical else 'differs'} rel={rel:.3g}")
                summary[key] = (same + identical, total + 1, max(worst, rel), failed)
    for (workload, n), (same, total, worst, failed) in sorted(summary.items()):
        lines.append(f"SUMMARY {workload} N={n}: {same}/{total} repr-identical, "
                     f"max rel {worst:.3g}, {failed} failed")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the src/ directory the library is imported from")
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 11])
    parser.add_argument("--out", type=Path, help="where to write the values (JSON)")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare two dumps instead of making one")
    args = parser.parse_args(argv)
    if args.compare:
        before, after = (json.loads(path.read_text()) for path in args.compare)
        print("\n".join(compare(before, after)))
        return 0
    if not (args.src / "halfline_bethe").is_dir():
        parser.error(f"no library sources under {args.src}")
    text = json.dumps(dump(args.src, args.seeds), indent=1)
    if args.out is None:
        print(text)
    else:
        args.out.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
