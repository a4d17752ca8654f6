"""Command-line front end.

Exit codes: 0 success, 1 usage / invalid input, 2 code-file parse error,
3 consistency failure (a theorem cross-check or verification failed).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from collections import Counter
from typing import Optional, Sequence

from . import config
from .codefile import parse_code, serialize_code, serialize_code_json
from .durfee_analysis import analyze
from .errors import (ConsistencyError, EnumerationLimitExceeded,
                     FlagcombError, ParseError)
from .ferrers import (bijection_table, enumerate_embedded_partitions,
                      underlying_distribution)
from .flags import max_distance, min_distance, projected_parameters
from .render import RenderSpec, render
from .support_paths import (DistancePath, enumerate_paths, path_distance,
                            path_from_flag_pair, pick_area, realize_path)
from .verify import run_verification


def _parse_deltas(tokens: Sequence[str]) -> tuple[int, ...]:
    flat: list[int] = []
    for tok in tokens:
        flat.extend(int(t) for t in tok.replace(",", " ").split())
    return tuple(flat)


def _cap(n: int, cap: int, force: bool, what: str) -> int:
    """Return the enumeration cap to use, honoring --force with a warning."""
    if n > cap:
        if not force:
            raise EnumerationLimitExceeded(
                f"{what}: n={n} exceeds the configured cap {cap} "
                f"(use --force to override)")
        print(f"warning: overriding {what} cap {cap} for n={n}",
              file=sys.stderr)
        return n
    return cap


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    with open(args.codefile, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"code file is not UTF-8: {exc}") from exc
    code = parse_code(text)
    if code.is_full:
        report = analyze(code)
        if args.json:
            doc = dataclasses.asdict(report)
            for key in ("projected", "derived", "durfee_sets",
                        "separability", "bounds"):
                doc[key] = {str(k): v for k, v in doc[key].items()}
            print(json.dumps(doc, indent=2))
            return 0
        print(f"full flag code on F_{report.q}^{report.n}")
        print(f"|C| = {report.size}")
        print(f"d_f = {report.d_f}   codistance = {report.codistance}   "
              f"D^n = {max_distance(report.n)}")
        print("projected codes (direct / theorem-derived):")
        for i in range(1, report.n):
            card, di = report.projected[i]
            if report.derived:
                eq, ddi = report.derived[i]
                tail = f"   derived: |C_i|{'=' if eq else '<'}|C|, d_I={ddi}"
            else:
                tail = ""
            print(f"  i={i}: |C_{i}|={card}, d_I(C_{i})={di}{tail}")
        if report.no_pairs:
            print("no flag pairs: Durfee sets are empty")
        else:
            print("Durfee rectangle sets:")
            for k, rows in sorted(report.durfee_sets.items()):
                print(f"  k={k}: rows {list(rows)}")
            print(f"optimum distance: {report.optimum}")
        print("all cross-checks passed")
        return 0

    # general type: projected parameters only
    print(f"flag code of type {code.type.dims} on F_{code.q}^{code.n}")
    print(f"|C| = {len(code)}")
    print(f"d_f = {min_distance(code)}")
    for idx, t in enumerate(code.type.dims, start=1):
        card, di = projected_parameters(code, idx)
        print(f"  i={idx} (dim {t}): |C_i|={card}, d_I(C_i)={di}")
    print("combinatorial sections skipped: full flags only")
    return 0


def cmd_paths(args) -> int:
    cfg = config.load_config()
    cap = _cap(args.n, cfg.max_n_combinatorics, args.force, "path enumeration")
    paths = enumerate_paths(args.n, args.distance, max_n=cap)
    distances = [path_distance(p) for p in paths]
    by_d = Counter(distances)
    print(f"distance paths on S({args.n})"
          + (f" with d={args.distance}" if args.distance is not None else ""))
    print("d  count")
    for d in sorted(by_d):
        print(f"{d:<2} {by_d[d]}")
    if args.list:
        print("deltas  d  area")
        for p, d in zip(paths, distances):
            print(f"{','.join(map(str, p.deltas))}  {d}  {pick_area(p)}")
    print(f"total {len(paths)}")
    return 0


def cmd_bijection(args) -> int:
    cfg = config.load_config()
    _cap(args.n, min(cfg.max_n_combinatorics, 12), args.force, "bijection table")
    n = args.n
    table = bijection_table(n, max_n=n)
    print(f"n={n}: paths of distance d vs splittings of codistance "
          f"{max_distance(n)}-d")
    print("d   #paths  #splittings  match")
    for d, n_paths, n_split in table:
        tag = "yes" if n_paths == n_split else "NO"
        print(f"{d:<3} {n_paths:<7} {n_split:<12} {tag}")
    if any(n_paths != n_split for _, n_paths, n_split in table):
        raise ConsistencyError("bijection table mismatch")
    return 0


def cmd_realize(args) -> int:
    deltas = _parse_deltas(args.deltas)
    n = len(deltas) - 1
    path = DistancePath(n, deltas)  # raises InvalidPath with index
    f, g = realize_path(path, args.q)
    from .flags import FlagCode
    if f == g:
        print("warning: zero path realizes as two identical flags "
              "(not a valid 2-element code)", file=sys.stderr)
        code = FlagCode([f])
    else:
        code = FlagCode([f, g])
        achieved = path_from_flag_pair(f, g)
        if achieved != path:
            raise ConsistencyError(
                f"realization produced {achieved.deltas}, wanted {deltas}")
    sys.stdout.write(serialize_code_json(code) if args.json
                     else serialize_code(code))
    return 0


def cmd_render(args) -> int:
    spec = RenderSpec(
        target=args.target,
        fmt=args.format,
        n=args.n,
        deltas=_parse_deltas(args.deltas) if args.deltas else None,
        partition=_parse_deltas(args.partition) if args.partition else None,
    )
    print(render(spec))
    return 0


def cmd_verify(args) -> int:
    qs = tuple(int(t) for t in args.q.split(","))
    report, ok = run_verification(n_max=args.n_max, qs=qs,
                                  trials=args.trials, seed=args.seed)
    print(report)
    if not ok:
        raise ConsistencyError("verification suite failed")
    return 0


def cmd_partitions(args) -> int:
    cfg = config.load_config()
    cap = _cap(args.n, cfg.max_n_combinatorics, args.force,
               "partition enumeration")
    parts = enumerate_embedded_partitions(args.n, args.splitting, max_n=cap)
    print(f"embedded partitions of FF({args.n})"
          + (f" with splitting value {args.splitting}"
             if args.splitting is not None else ""))
    if args.list:
        for p in parts:
            dist = underlying_distribution(p)
            label = ",".join(map(str, p.parts)) if p.parts else "null"
            print(f"({label})  u={sum(dist.counts)}  "
                  f"U=({','.join(map(str, dist.counts))})")
    print(f"total {len(parts)}")
    return 0


# ---------------------------------------------------------------------------
# Parser / entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flagcomb",
        description="Combinatorics of full flag codes: distances, paths, "
                    "Ferrers frames, splittings and Durfee rectangles.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze a code file")
    p.add_argument("codefile")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("paths", help="enumerate distance paths")
    p.add_argument("n", type=int)
    p.add_argument("-d", "--distance", type=int, default=None)
    p.add_argument("--list", action="store_true")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser("bijection", help="paths vs splittings table")
    p.add_argument("n", type=int)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_bijection)

    p = sub.add_parser("realize", help="emit a flag pair achieving a path")
    p.add_argument("q", type=int)
    p.add_argument("deltas", nargs="+",
                   help="delta vector, e.g. 0 1 1 0 or 0,1,1,0")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("render", help="draw a diagram")
    p.add_argument("target", choices=("support", "enriched", "frame",
                                      "path", "staircase"))
    p.add_argument("n", type=int)
    p.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    p.add_argument("--deltas", nargs="*", default=None)
    p.add_argument("--partition", nargs="*", default=None)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("verify", help="run the self-verification suite")
    p.add_argument("--n-max", type=int, default=7)
    p.add_argument("--q", default="2,3")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("partitions", help="enumerate embedded partitions")
    p.add_argument("n", type=int)
    p.add_argument("-u", "--splitting", type=int, default=None)
    p.add_argument("--list", action="store_true")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_partitions)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FlagcombError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
