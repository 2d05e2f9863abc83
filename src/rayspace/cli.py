"""Command-line interface: every capability behind one executable.

All numeric input and output is exact rational text (``p/q`` or ``inf``).
Errors print a single machine-parsable record to stderr and exit with a
class code: 1 usage, 2 parse, 3 precondition, 4 resource cap, 5 internal
error (any other exception, including a bare ``RayspaceError`` from a failed
invariant check; its message names the exception type and where it arose).
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .errors import CapExceededError, InvalidGraphError, ParseError, PreconditionError
from .graph import RayGraph, _check_id, graph_from_parts, parse_fraction, parse_graph

# every other module is imported by the commands that run it, so a process
# loads no more of the package than its command needs


# Hard limit on --samples: one path evaluation and one output line per sample.
MAX_PATH_SAMPLES = 10_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve that
        raise _UsageError(message)

    def _get_values(self, action, arg_strings):
        # argparse drops a '--' given as '--opt=--' and stores [] as the value
        if action.option_strings and arg_strings == ["--"]:
            self.error(f"argument {action.option_strings[0]}: expected one argument")
        return super()._get_values(action, arg_strings)


def _load_graph(path: str) -> RayGraph:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read graph file {path!r}: {exc}") from None
    if os.path.splitext(path)[1] == ".json":
        return _graph_from_json(text)
    return parse_graph(text)


def _graph_from_json(text: str) -> RayGraph:
    import json  # loads here, not at start-up

    try:
        doc = json.loads(text)
    # JSONDecodeError is a ValueError, and so is a number literal past the
    # interpreter's digit limit; RecursionError means nesting too deep
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"bad JSON graph file: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("bad JSON graph structure: the top level is not an object")
    try:
        vertices, edges, rays = doc["vertices"], doc.get("edges", []), doc.get("rays", [])
        if not all(isinstance(part, list) for part in (vertices, edges, rays)):
            raise ParseError("bad JSON graph structure: vertices, edges and rays must be lists")
        vertices = [_check_id(v, f"vertices[{i}]") for i, v in enumerate(vertices)]
        edges = [
            (_check_id(e["id"], f"edges[{i}]"), e["u"], e["v"],
             parse_fraction(str(e.get("length", 1)), f"edges[{i}]"))
            for i, e in enumerate(edges)
        ]
        rays = [(_check_id(r["id"], f"rays[{i}]"), r["attach"]) for i, r in enumerate(rays)]
        return graph_from_parts(vertices, edges, rays)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad JSON graph structure: {exc}") from None


def _fmt(value) -> str:
    from .metric import is_infinite

    if is_infinite(value):
        return "inf"
    big, limit = max(abs(value.numerator), value.denominator), sys.get_int_max_str_digits()
    if limit and big.bit_length() > 3 * limit and big >= 10**limit:  # 2**(3 * limit) < 10**limit
        raise CapExceededError(
            f"result has about {int(big.bit_length() * 0.30103) + 1} digits; "
            f"the interpreter prints at most {limit}"
        )
    return str(value)


def _fmt_dirs(ds: frozenset[int]) -> str:
    return "{" + ",".join(str(i) for i in sorted(ds)) + "}"


def _emit_path(P, out: str, samples: int) -> None:
    from .paths import eval_path

    if samples < 1:
        raise PreconditionError("--samples must be at least 1")
    if samples > MAX_PATH_SAMPLES:
        raise CapExceededError(
            f"--samples {samples} would evaluate {samples + 1} path values; "
            f"the cap is {MAX_PATH_SAMPLES}"
        )
    lines = ["t\tset"]
    for j in range(samples + 1):
        t = Fraction(j, samples)
        lines.append(f"{t}\t{eval_path(P, t).render()}")
    try:
        with open(out, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise PreconditionError(f"cannot write path file {out!r}: {exc}") from None


def _build_parser(command: str | None = None) -> _Parser:
    """The CLI parser, with only ``command``'s subparser when it names one, else with all."""
    top = _Parser(prog="rayspace", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add(name: str, help_line: str) -> _Parser | None:
        if command in _COMMANDS and name != command:
            return None
        return sub.add_parser(name, help=help_line)

    def add_graph(p):
        p.add_argument("--graph", required=True, help="graph file (text grammar or .json)")

    if p := add("dist", "Hausdorff distance between two sets"):
        add_graph(p)
        p.add_argument("--a", required=True)
        p.add_argument("--b", required=True)
        p.add_argument("--directed", action="store_true", help="directed distance a -> b only")

    if p := add("classify", "same-component test with optional path dump"):
        add_graph(p)
        p.add_argument("--a", required=True)
        p.add_argument("--b", required=True)
        p.add_argument("-n", type=int, required=True)
        p.add_argument("--emit-path", metavar="OUT")
        p.add_argument("--samples", type=int, default=20)

    if p := add("path", "path to the canonical element (or to X)"):
        add_graph(p)
        p.add_argument("--a", required=True)
        p.add_argument("-n", type=int, required=True)
        p.add_argument("--vietoris", action="store_true", help="continue out to the whole space")
        p.add_argument("--emit-path", metavar="OUT")
        p.add_argument("--samples", type=int, default=20)

    if p := add("vietoris", "membership in basic Vietoris opens"):
        add_graph(p)
        p.add_argument("--a", required=True)
        p.add_argument("--open", action="append", required=True, metavar="SPEC",
                       help="open region: 'all' or 'ball ELEM:coord radius ...' (repeatable)")
        p.add_argument("--witness", metavar="T0",
                       help="certify continuity of the growth path at t0")
        p.add_argument("--res", default="1/1000", help="smallest delta the witness reports")

    if p := add("wedge", "hyperspace model of a wedge expression"):
        p.add_argument("--expr", required=True, help="e.g. '(circle ∨ ray)'")

    if p := add("oracle", "brute-force component census"):
        add_graph(p)
        p.add_argument("--step", required=True, help="grid step h")
        p.add_argument("--trunc", required=True, help="truncation radius T")
        p.add_argument("--delta", required=True, help="linking distance")
        p.add_argument("-n", type=int, required=True)
        p.add_argument("--max-pieces", type=int, default=1)
        p.add_argument("--cap", type=int, default=200_000)

    if p := add("validate", "graph well-formedness report"):
        add_graph(p)
    return top


def _cmd_dist(args) -> int:
    from .metric import directed_hausdorff, hausdorff
    from .sets import parse_set

    g = _load_graph(args.graph)
    A = parse_set(args.a, g)
    B = parse_set(args.b, g)
    d = directed_hausdorff(g, A, B) if args.directed else hausdorff(g, A, B)
    print(_fmt(d))
    return 0


def _cmd_classify(args) -> int:
    from .paths import same_component_hausdorff
    from .sets import parse_set

    g = _load_graph(args.graph)
    A = parse_set(args.a, g)
    B = parse_set(args.b, g)
    res = same_component_hausdorff(g, A, B, args.n)
    emit = res.same_component and args.emit_path
    if emit:  # before any stdout, so a failed write prints only its error line
        _emit_path(res.path, args.emit_path, args.samples)
    print(f"same={'true' if res.same_component else 'false'}")
    print(f"delta_a={_fmt_dirs(res.delta_a)}")
    print(f"delta_b={_fmt_dirs(res.delta_b)}")
    if res.same_component:
        print(f"path_stages={len(res.path.stages)}")
        if emit:
            print(f"emitted={args.emit_path}")
    else:
        print(f"witness_ray={res.witness_ray}")
    return 0


def _print_path(P) -> None:
    print(f"stages={len(P.stages)}")
    for i, (lo, hi, stage) in enumerate(P.stage_spans(), start=1):
        print(
            f"stage index={i} kind={stage.kind} span=[{lo},{hi}] "
            f"lipschitz={_fmt(stage.lipschitz_bound)} desc=\"{stage.desc}\""
        )
    print(f"start={P.start().render()}")
    print(f"end={P.end().render()}")


def _cmd_path(args) -> int:
    from .paths import path_to_canonical, vietoris_path
    from .sets import parse_set

    g = _load_graph(args.graph)
    A = parse_set(args.a, g)
    P = vietoris_path(g, A, args.n) if args.vietoris else path_to_canonical(g, A, args.n)
    if args.emit_path:  # before any stdout, so a failed write prints only its error line
        _emit_path(P, args.emit_path, args.samples)
    _print_path(P)
    if args.emit_path:
        print(f"emitted={args.emit_path}")
    return 0


def _cmd_vietoris(args) -> int:
    from .paths import vietoris_path
    from .sets import component_count, parse_set
    from .vietoris import continuity_witness, member_lower, member_upper, parse_region, union_regions

    g = _load_graph(args.graph)
    A = parse_set(args.a, g)
    regions = [parse_region(spec, g) for spec in args.open]
    upper = member_upper(A, union_regions(regions))
    lowers = [member_lower(A, u) for u in regions]
    w = None
    if args.witness is not None:  # before any stdout, so a failure prints only its error line
        t0 = parse_fraction(args.witness, "--witness")
        res = parse_fraction(args.res, "--res")
        P = vietoris_path(g, A, component_count(g, A))
        w = continuity_witness(P, t0, regions, res)
    print(f"upper={'true' if upper else 'false'}")
    for i, lower in enumerate(lowers, start=1):
        print(f"lower {i}={'true' if lower else 'false'}")
    print(f"basic={'true' if upper and all(lowers) else 'false'}")
    if w is not None:
        if w.ok:
            print(f"witness delta={w.delta}")
        else:
            print(f"witness=failure first_bad_t={w.failed_at}")
    return 0


def _cmd_wedge(args) -> int:
    from .wedge import model_report, parse_wedge_expr

    print(model_report(parse_wedge_expr(args.expr)))
    return 0


def _cmd_oracle(args) -> int:
    from .oracle import oracle_components  # numpy loads here, not at start-up

    g = _load_graph(args.graph)
    res = oracle_components(
        g,
        parse_fraction(args.step, "--step"),
        parse_fraction(args.trunc, "--trunc"),
        parse_fraction(args.delta, "--delta"),
        args.n,
        args.max_pieces,
        cap=args.cap,
    )
    print(f"backend={res.backend}")
    print(f"sets={res.set_count}")
    print(f"components={res.count}")
    for i, (rep, ds) in enumerate(zip(res.representatives, res.directions), start=1):
        print(f"component {i} direction={_fmt_dirs(ds)} rep={rep.render()}")
    return 0


def _cmd_validate(args) -> int:
    g = _load_graph(args.graph)
    print("ok=true")
    print(f"vertices={len(g.vertices)}")
    print(f"edges={len(g.edges)}")
    print(f"rays={len(g.rays)}")
    for e in g.edges:
        loop = " loop" if e.is_loop else ""
        print(f"edge {e.id} {e.u}--{e.v} length={e.length}{loop}")
    for r in g.rays:
        print(f"ray {g.ray_index[r.id]}={r.id} at {r.attach}")
    return 0


_COMMANDS = {
    "dist": _cmd_dist,
    "classify": _cmd_classify,
    "path": _cmd_path,
    "vietoris": _cmd_vietoris,
    "wedge": _cmd_wedge,
    "oracle": _cmd_oracle,
    "validate": _cmd_validate,
}


def _error(kind: str, code: int, msg: str) -> int:
    safe = str(msg).replace('"', "'")
    print(f'error kind={kind} msg="{safe}"', file=sys.stderr)
    return code


def run(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _build_parser(argv[0] if argv else None).parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        return _error("usage", 1, str(exc))
    except (ParseError, InvalidGraphError) as exc:
        return _error("parse", 2, str(exc))
    except PreconditionError as exc:
        return _error("precondition", 3, str(exc))
    except CapExceededError as exc:
        return _error("cap", 4, str(exc))
    except Exception as exc:  # the one-line error contract holds for bugs too
        import traceback  # loads here, not at start-up

        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{os.path.basename(frame.filename)}:{frame.lineno}"
        return _error("internal", 5, f"{type(exc).__name__} at {where}: {exc}")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
