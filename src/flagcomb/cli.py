"""Command-line front end.

Exit codes: 0 success (also when the reader closes stdout early), 1 usage
/ invalid input, 2 code-file parse error, 3 consistency failure (a theorem
cross-check or verification failed).

main(argv) may be called many times in one process: the parser is built
on the first call and reused after, as argparse keeps no state from one
parse to the next.  A call parses once, with the command's subparser alone
unless the top-level parser must answer, and each table command writes its
text in one call.  Of the package, only config, errors and counting load
with cli; a command imports the rest of what it runs in its own body.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections import Counter
from typing import Optional, Sequence

from . import config
from .counting import (count_partitions_by_value, count_paths_by_distance,
                       count_splittings_by_value, max_distance)
from .errors import (ConsistencyError, EnumerationLimitExceeded,
                     FlagcombError, ParseError)


BIJECTION_DP_MAX_N = 60     # bijection's counting-DP range ends here


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


def _write(lines: list[str]) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    from . import codefile, durfee_analysis, flags
    with open(args.codefile, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"code file is not UTF-8: {exc}") from exc
    code = codefile.parse_code(text)
    if code.is_full:
        report = durfee_analysis.analyze(code)
        if args.json:
            # the fields in order; the read-only maps are dumped as dicts
            print(json.dumps(vars(report), indent=2, default=dict))
            return 0
        lines = [f"full flag code on F_{report.q}^{report.n}",
                 f"|C| = {report.size}",
                 f"d_f = {report.d_f}   codistance = {report.codistance}   "
                 f"D^n = {max_distance(report.n)}",
                 "projected codes (direct / theorem-derived):"]
        for i, (card, di) in report.projected.items():
            tail = ""
            if report.derived:
                eq, ddi = report.derived[i]
                tail = f"   derived: |C_i|{'=' if eq else '<'}|C|, d_I={ddi}"
            lines.append(f"  i={i}: |C_{i}|={card}, d_I(C_{i})={di}{tail}")
        if report.no_pairs:
            lines.append("no flag pairs: Durfee sets are empty")
        else:
            lines += ["Durfee rectangle sets:",
                      *(f"  k={k}: rows {list(rows)}"
                        for k, rows in sorted(report.durfee_sets.items())),
                      f"optimum distance: {report.optimum}"]
        _write(lines + ["all cross-checks passed"])
        return 0

    # general type: projected parameters only
    dims = code.type.dims
    projected = dict(enumerate(flags.projected_table(code), start=1))
    if args.json:
        print(json.dumps({"q": code.q, "n": code.n, "type": list(dims),
                          "size": len(code), "d_f": flags.min_distance(code),
                          "projected": projected}, indent=2))
        return 0
    _write([f"flag code of type {dims} on F_{code.q}^{code.n}",
            f"|C| = {len(code)}", f"d_f = {flags.min_distance(code)}",
            *(f"  i={idx} (dim {t}): |C_i|={card}, d_I(C_i)={di}"
              for (idx, (card, di)), t in zip(projected.items(), dims)),
            "combinatorial sections skipped: full flags only"])
    return 0


def cmd_paths(args) -> int:
    cfg = config.load_config()
    cap = _cap(args.n, cfg.max_n_combinatorics, args.force, "path enumeration")
    by_d = {d: count for d, count in enumerate(count_paths_by_distance(args.n))
            if count and (args.distance is None or d == args.distance)}
    with_d = "" if args.distance is None else f" with d={args.distance}"
    lines = [f"distance paths on S({args.n}){with_d}", "d  count",
             *(f"{d:<2} {count}" for d, count in by_d.items())]
    if args.list:
        from . import support_paths
        _write(lines + ["deltas  d  area"])
        lines = []
        listed = Counter()
        for p, d in support_paths.iter_paths(args.n, args.distance, max_n=cap):
            area = support_paths.pick_area(p)
            print(f"{','.join(map(str, p.deltas))}  {d}  {area}")
            listed[d] += 1
        if listed != by_d:
            raise ConsistencyError("path list disagrees with the DP")
    _write(lines + [f"total {sum(by_d.values())}"])
    return 0


def cmd_bijection(args) -> int:
    n = args.n
    _cap(n, BIJECTION_DP_MAX_N, args.force, "bijection table")
    # two counting DPs that share no code (verify compares the enumerations)
    paths, splits = count_paths_by_distance(n), count_splittings_by_value(n)
    table = [(d, count, splits[-1 - d]) for d, count in enumerate(paths)]
    _write([f"n={n}: paths of distance d vs splittings of codistance "
            f"{max_distance(n)}-d", "d   #paths  #splittings  match",
            *(f"{d:<3} {n_paths:<7} {n_split:<12} "
              f"{'yes' if n_paths == n_split else 'NO'}"
              for d, n_paths, n_split in table)])
    if any(n_paths != n_split for _, n_paths, n_split in table):
        raise ConsistencyError("bijection table mismatch")
    return 0


def cmd_realize(args) -> int:
    from . import codefile, flags, support_paths
    deltas = _parse_deltas(args.deltas)
    n = len(deltas) - 1
    path = support_paths.DistancePath(n, deltas)  # raises InvalidPath
    f, g = support_paths.realize_path(path, args.q)
    if f == g:
        print("warning: zero path realizes as two identical flags "
              "(not a valid 2-element code)", file=sys.stderr)
        code = flags.FlagCode([f])
    else:
        code = flags.FlagCode([f, g])
    sys.stdout.write(codefile.serialize_code_json(code) if args.json
                     else codefile.serialize_code(code))
    return 0


def cmd_render(args) -> int:
    from . import render
    print(render.render(
        args.target, args.format, args.n,
        _parse_deltas(args.deltas) if args.deltas else None,
        _parse_deltas(args.partition) if args.partition else None))
    return 0


def cmd_verify(args) -> int:
    from . import verify
    try:
        qs = tuple(int(t) for t in args.q.split(","))
    except ValueError:
        raise ValueError(f"--q must be ints like 2,3, got {args.q!r}") from None
    if args.n_max < 2:
        raise ValueError(f"--n-max must be >= 2, got {args.n_max}")
    if args.trials < 0:
        raise ValueError(f"--trials must be >= 0, got {args.trials}")
    report, ok = verify.run_verification(n_max=args.n_max, qs=qs,
                                         trials=args.trials, seed=args.seed)
    print(report)
    if not ok:
        raise ConsistencyError("verification suite failed")
    return 0


def cmd_partitions(args) -> int:
    cfg = config.load_config()
    cap = _cap(args.n, cfg.max_n_combinatorics, args.force,
               "partition enumeration")
    by_u, u = count_partitions_by_value(args.n), args.splitting
    total = sum(by_u) if u is None else by_u[u] if 0 <= u < len(by_u) else 0
    lines = [f"embedded partitions of FF({args.n})"
             + (f" with splitting value {u}" if u is not None else "")]
    if args.list:
        from . import ferrers
        _write(lines)
        lines = []
        listed = 0
        for parts, counts, value in ferrers.iter_partitions(args.n, u,
                                                            max_n=cap):
            label = ",".join(map(str, parts)) if parts else "null"
            print(f"({label})  u={value}  U=({','.join(map(str, counts))})")
            listed += 1
        if listed != total:
            raise ConsistencyError("partition list disagrees with the DP")
    _write(lines + [f"total {total}"])
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
    parser.commands = sub.choices           # command name -> its subparser

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
    p.add_argument("target", choices=config.TARGETS)
    p.add_argument("n", type=int)
    p.add_argument("--format", choices=config.FORMATS, default="ascii")
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    sub = _parser().commands.get(argv[0]) if argv else None
    try:
        args, rest = sub.parse_known_args(argv[1:]) if sub else (None, None)
        if rest or not sub:     # no command first, or arguments left over
            args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        rc = args.func(args)
        sys.stdout.flush()      # a closed pipe raises here, not at exit
        return rc
    except BrokenPipeError:     # stdout on devnull: no error at exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
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
