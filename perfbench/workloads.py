"""The four workloads: seeded inputs, set-up, timed operations and answer checks.

Set-up builds a pool of rounds.  A round is a fixed sequence of operation
kinds with seeded inputs, and the timed loop runs whole rounds, cycling
through the pool, so every run sees the same mix of kinds however many rounds
fit.  Each workload fixes its tail percentile from that mix: the share of
samples beyond it sits inside the round's slowest group of like operations,
away from the group's edges, so the tail stays in one group however many
rounds a run fits.  The program only receives generated inputs: graph text
or files, set and region literals, and argv.  Library calls go through the
``rayspace`` module attributes at call time so that the traced run's
wrappers see them.

Every operation returns ``(answer, evidence)``: ``answer`` is exact text
(``p/q``, ``inf`` or program output) and feeds the pinned digest; ``evidence``
is what the operation's independent check needs, and the check runs outside
the timed window.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path
from typing import Any, Callable

import rayspace as rs
import rayspace.cli

GRAPH_TEXTS = {
    "G_PAR": "vertex u v; edge E1 u v length 1000; edge E2 u v length 999; ray R1 u; ray R2 v",
    "G_LINE": "vertex v; ray R1 v; ray R2 v",
    "G_STAR3": "vertex v; ray R1 v; ray R2 v; ray R3 v",
    "G_TRIOD": "vertex v a b c; edge E1 v a; edge E2 v b; edge E3 v c",
    "G_MIXED": (
        "vertex u v\nedge E1 u v\nedge E2 u v length 3/2\nedge L1 v v length 2\n"
        "ray R1 u\nray R2 v"
    ),
}
DENOMS = (1, 2, 3, 4, 6, 8, 12)
ORACLE_H = F(1, 100)


@dataclass
class Op:
    kind: str
    run: Callable[[], tuple[str, Any]]
    check: Callable[[str, Any], bool]
    argv: list[str] | None = None  # cli-cold: the CLI arguments


def fmt(d) -> str:
    return "inf" if rs.is_infinite(d) else str(d)


def rational(rng: random.Random, lo, hi, denoms=DENOMS) -> F:
    den = rng.choice(denoms)
    return F(rng.randint(int(F(lo) * den), int(F(hi) * den)), den)


def random_set_text(
    g: rs.RayGraph,
    rng: random.Random,
    *,
    tails_on: frozenset[int] = frozenset(),
    max_pieces: int = 2,
    span=F(2),
) -> str:
    """A random set literal: up to ``max_pieces`` intervals per element and
    tails exactly on the rays indexed by ``tails_on``."""
    atoms = []
    elems = [(e.id, e.length) for e in g.edges] + [(r.id, None) for r in g.rays]
    for eid, length in elems:
        hi = length if length is not None else span
        for _ in range(rng.randint(0, max_pieces)):
            a, b = sorted((rational(rng, 0, hi), rational(rng, 0, hi)))
            atoms.append(f"{eid}:[{a},{b}]")
    for i in sorted(tails_on):
        atoms.append(f"{g.ray_by_index[i].id}:[{rational(rng, 0, span)},inf)")
    if not atoms:
        eid, length = rng.choice(elems)
        atoms.append(f"{eid}:{{{rational(rng, 0, length if length is not None else span)}}}")
    return " ".join(atoms)


def random_in_cn(g: rs.RayGraph, rng: random.Random, n: int, **kw) -> rs.ClosedSubset:
    while True:
        A = rs.parse_set(random_set_text(g, rng, **kw), g)
        if rs.in_cn(g, A, n):
            return A


def random_tails(g: rs.RayGraph, rng: random.Random) -> frozenset[int]:
    return frozenset(i for i in g.ray_by_index if rng.random() < 0.4)


def parse_graphs(*names: str) -> dict[str, rs.RayGraph]:
    """Parse the named graphs and build their vertex tables (set-up work)."""
    out = {}
    for name in names:
        g = out[name] = rs.parse_graph(GRAPH_TEXTS[name])
        g.vertex_distances
    return out


class Workload:
    name = ""
    pool_rounds = 0  # rounds built in set-up; a run cycles through them
    tail_percentile = 0.0  # op_tail_ms; see the module docstring

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> list[list[Op]]:
        """Build the pool; the same seed gives the same pool on every call."""
        self.rng = random.Random(f"{self.name}/{self.seed}")
        return self.build()

    def build(self) -> list[list[Op]]:
        raise NotImplementedError

    def trace_ops(self, pool: list[list[Op]]) -> list[Op]:
        """The fixed operations a traced run replays (set-up excluded)."""
        return list(pool[0])


# ---- dist-envelope ----------------------------------------------------------


def par_set_text(rng: random.Random, m: int) -> str:
    """m short intervals interleaved over E1/E2 of G_PAR, plus a tail on R1."""
    pos = {"E1": F(0), "E2": F(0)}
    atoms = []
    for i in range(m):
        eid = "E1" if i % 2 == 0 else "E2"
        a = pos[eid] + F(rng.randint(1, 40), rng.choice((1, 2, 3, 4)))
        b = a + F(rng.randint(1, 20), rng.choice((1, 2, 4)))
        pos[eid] = b
        atoms.append(f"{eid}:[{a},{b}]")
    atoms.append(f"R1:[{F(rng.randint(0, 20), rng.choice((1, 2)))},inf)")
    return " ".join(atoms)


class DistEnvelope(Workload):
    name = "dist-envelope"
    pool_rounds = 16
    # (pieces per set, directed): twelve G_PAR pairs per round, three directed.
    # With the G_MIXED and mismatch pairs a round has fourteen operations:
    # the two 32-piece pairs are the slowest and a seventh of them, so the
    # tenth beyond p90 (1.4 per round) lands inside that group, and the median
    # lands in the middle of the five undirected 4-piece pairs.
    tail_percentile = 90.0
    PAR_MIX = ((32, False), (32, False), (16, False), (8, False), (8, True),
               (4, False), (4, False), (4, False), (4, False), (4, False), (4, True), (4, True))

    def build(self):
        gs = parse_graphs("G_PAR", "G_MIXED")
        rng = self.rng

        def make_round(_):
            ops = [self._par(gs["G_PAR"], m, directed) for m, directed in self.PAR_MIX]
            ops.append(self._mixed(gs["G_MIXED"], rng))
            ops.append(self._mismatch(gs["G_MIXED"], rng))
            return ops

        return [make_round(r) for r in range(self.pool_rounds)]

    def _par(self, g, m, directed):
        A = rs.parse_set(par_set_text(self.rng, m), g)
        B = rs.parse_set(par_set_text(self.rng, m), g)
        if directed:
            return Op(f"par{m}-directed", lambda: (fmt(rs.directed_hausdorff(g, A, B)), None),
                      lambda ans, _: F(ans) >= 0)
        return Op(f"par{m}", lambda: (fmt(rs.hausdorff(g, A, B)), None),
                  lambda ans, _: F(ans) >= 0)

    def _mixed(self, g, rng):
        A = rs.parse_set(random_set_text(g, rng), g)
        B = rs.parse_set(random_set_text(g, rng), g)

        def check(ans, _):
            return abs(F(ans) - rs.oracle_hausdorff(g, A, B, ORACLE_H, F(2))) <= ORACLE_H

        return Op("mixed", lambda: (fmt(rs.hausdorff(g, A, B)), None), check)

    def _mismatch(self, g, rng):
        ta = random_tails(g, rng) | {rng.choice((1, 2))}
        tb = frozenset(rng.sample(sorted(ta), rng.randint(0, len(ta) - 1)))
        A = rs.parse_set(random_set_text(g, rng, tails_on=ta), g)
        B = rs.parse_set(random_set_text(g, rng, tails_on=tb), g)

        def check(ans, _):
            return ans == "inf" and rs.direction_set(g, A) != rs.direction_set(g, B)

        return Op("mismatch", lambda: (fmt(rs.hausdorff(g, A, B)), None), check)


# ---- paths-witness ----------------------------------------------------------


class PathsWitness(Workload):
    name = "paths-witness"
    pool_rounds = 12
    # 29 operations a round; the three witnesses are the slowest, and the
    # twentieth beyond p95 (1.45 per round) lands in the middle of them
    tail_percentile = 95.0
    GRAPHS = ("G_LINE", "G_STAR3", "G_MIXED")
    RES = F(1, 2000)

    def build(self):
        gs = parse_graphs(*self.GRAPHS)
        rng = self.rng

        def make_round(_):
            # most path jobs run on G_MIXED, the slowest graph for them, so the
            # median operation sits well inside that group
            names = ["G_LINE"] * 4 + ["G_STAR3"] * 4 + ["G_MIXED"] * 12
            ops = [self._path(name, gs[name], rng) for name in names]
            ops += [self._lipschitz(gs[self.GRAPHS[k % 3]], rng) for k in range(6)]
            ops += [self._witness(gs, name, rng) for name in self.GRAPHS]
            return ops

        return [make_round(r) for r in range(self.pool_rounds)]

    def _path(self, name, g, rng):
        A = random_in_cn(g, rng, 3, tails_on=random_tails(g, rng))
        ts = [F(k, 99) for k in range(100)]

        def run():
            P = rs.path_to_canonical(g, A, 3)
            vals = [rs.eval_path(P, t) for t in ts]
            in_c3 = all(rs.in_cn(g, v, 3) for v in vals)
            return f"{vals[33].render()}|{vals[66].render()}", (vals[0], vals[-1], in_c3)

        def check(_, ev):
            start, end, in_c3 = ev
            return in_c3 and start == A and end == rs.canonical_element(g, rs.direction_set(g, A))

        return Op(f"path-{name}", run, check)

    def _lipschitz(self, g, rng):
        A = random_in_cn(g, rng, 3, tails_on=random_tails(g, rng))
        grid = [F(k, 25) for k in range(26)]
        pairs = [(rng.randrange(3), rng.choice(grid), rng.choice(grid)) for _ in range(25)]

        def run():
            P = rs.path_to_canonical(g, A, 3)
            ds, ok = [], True
            for i, s, t in pairs:
                stage = P.stages[i]
                d = rs.hausdorff(g, stage.at(s), stage.at(t))
                ok = ok and d <= stage.lipschitz_bound * abs(s - t)
                ds.append(fmt(d))
            return ",".join(ds), ok

        return Op("lipschitz", run, lambda _, ok: ok)

    def _witness(self, gs, name, rng):
        # A witness costs about the delta it certifies, so t0 and the ball
        # radii are fixed and the G_LINE witness is the same in every round:
        # that keeps the workload's tail steady from seed to seed.  On the
        # other graphs the set and the ball centres are drawn.
        g = gs[name]
        t0 = F(1, 2)
        if name == "G_LINE":
            # growth from the vertex reaches length 1 on both rays at t0; a
            # bounded cover makes the upper test use the region's derived intervals
            build = lambda: rs.gamma_path(g, frozenset())  # noqa: E731
            region_texts = ["ball R1:0 2", "ball R1:1/2 1", "ball R2:1 1"]
        else:
            A = random_in_cn(g, rng, 3, tails_on=random_tails(g, rng))
            build = lambda: rs.vietoris_path(g, A, 3)  # noqa: E731
            val = rs.eval_path(build(), t0)
            region_texts = ["all"]
            for _ in range(2):
                eid, ep = rng.choice(val.pieces)
                if ep.intervals:
                    a, b = rng.choice(ep.intervals)
                    c = a + (b - a) * F(rng.randint(0, 4), 4)
                else:
                    c = ep.tail + F(rng.randint(0, 4), 4)
                region_texts.append(f"ball {eid}:{c} 1")

        def run():
            regions = [rs.parse_region(text, g) for text in region_texts]
            w = rs.continuity_witness(build(), t0, regions, self.RES)
            return (f"delta={w.delta}" if w.ok else f"failed_at={w.failed_at}"), w.ok

        return Op(f"witness-{name}", run, lambda _, ok: ok)


# ---- census -----------------------------------------------------------------


class Census(Workload):
    name = "census"
    pool_rounds = 3
    # 100 operations a round.  The menu calls take about 5 s together
    # (G_MIXED 2.4 s, G_LINE 1.1 s, G_STAR3 0.8 s, G_TRIOD 0.15 s four times,
    # at the probe's reference speed), so a 20 s run fits three or four
    # rounds.  The twentieth beyond p95 is five operations per round: the
    # middle of the four G_TRIOD calls, the slowest group with ten samples
    # beyond it in three rounds.  The median lands among the 93 grid pairs.
    tail_percentile = 95.0
    GRID_PAIRS = 93  # oracle_hausdorff pairs per round
    # (graph, h, T, n, max_pieces, calls per round):
    # kernel-heavy, balanced, enumeration-heavy x2
    MENU = (
        ("G_LINE", F(1, 4), F(2), 2, 1, 1),
        ("G_STAR3", F(1, 2), F(2), 2, 1, 1),
        ("G_TRIOD", F(1, 2), F(3, 2), 1, 2, 4),
        ("G_MIXED", F(1, 2), F(1), 1, 1, 1),
    )
    DELTA = F(3, 5)

    def build(self):
        gs = parse_graphs("G_LINE", "G_STAR3", "G_TRIOD", "G_MIXED")
        rng = self.rng

        def make_round(_):
            ops = [self._census(name, gs[name], *params)
                   for name, *params, calls in self.MENU for _ in range(calls)]
            ops += [self._grid_pair(gs["G_MIXED"], rng) for _ in range(self.GRID_PAIRS)]
            return ops

        return [make_round(r) for r in range(self.pool_rounds)]

    def trace_ops(self, pool):
        # the kernel-heavy census, the small enumeration-heavy one and 20 grid
        # pairs keep a traced pass near two seconds
        first = pool[0]
        keep = {op.kind: op for op in first if op.kind in ("census-G_LINE", "census-G_TRIOD")}
        return [*keep.values()] + [op for op in first if op.kind == "grid-pair"][:20]

    def _census(self, name, g, h, T, n, mp):
        def run():
            res = rs.oracle_components(g, h, T, self.DELTA, n, mp)
            groups = sorted(res.group_counts.values())
            return f"sets={res.set_count} components={res.count}", groups

        def check(ans, groups):
            return len(groups) == 2**g.ray_count and set(groups) == {1}

        return Op(f"census-{name}", run, check)

    @staticmethod
    def grid_set_text(g: rs.RayGraph, rng: random.Random) -> str:
        """One interval on every element, a quarter of its length (half a unit
        on rays) at a seeded place: the oracle's cost follows the number of
        grid points, so every pair costs about the same."""
        atoms = []
        for eid, length in [(e.id, e.length) for e in g.edges] + [(r.id, F(2)) for r in g.rays]:
            a = rational(rng, 0, length * 3 / 4)
            atoms.append(f"{eid}:[{a},{a + length / 4}]")
        return " ".join(atoms)

    def _grid_pair(self, g, rng):
        A = rs.parse_set(self.grid_set_text(g, rng), g)
        B = rs.parse_set(self.grid_set_text(g, rng), g)

        def check(ans, _):
            return abs(F(ans) - rs.hausdorff(g, A, B)) <= ORACLE_H

        return Op("grid-pair", lambda: (fmt(rs.oracle_hausdorff(g, A, B, ORACLE_H, F(2))), None),
                  check)


# ---- cli-cold ---------------------------------------------------------------


def ring_graph_text(rng: random.Random, n: int, chords: int, rays: int) -> str:
    """A ring of n vertices with seeded rational edge lengths, extra chords and rays."""
    lines = ["vertex " + " ".join(f"v{i}" for i in range(n))]
    for i in range(n):
        lines.append(f"edge e{i} v{i} v{(i + 1) % n} length {rational(rng, 1, 6, (1, 2, 3, 4))}")
    for j in range(chords):
        a, b = rng.sample(range(n), 2)
        lines.append(f"edge c{j} v{a} v{b} length {rational(rng, 2, 20, (1, 2, 3))}")
    for k in range(rays):
        lines.append(f"ray R{k + 1} v{rng.randrange(n)}")
    return "\n".join(lines) + "\n"


def ring_set_text(g: rs.RayGraph, rng: random.Random, tails_on: frozenset[int]) -> str:
    """Short intervals on three to six random edges, plus the given tails."""
    atoms = []
    for e in rng.sample(g.edges, rng.randint(3, 6)):
        a, b = sorted((rational(rng, 0, e.length), rational(rng, 0, e.length)))
        atoms.append(f"{e.id}:[{a},{b}]")
    for i in sorted(tails_on):
        atoms.append(f"{g.ray_by_index[i].id}:[{rational(rng, 0, 5)},inf)")
    return " ".join(atoms)


def run_cli_in_process(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in this process; return (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = rayspace.cli.run(argv)
    return code, out.getvalue()


class CliCold(Workload):
    name = "cli-cold"
    pool_rounds = 4  # a run fits four or five rounds
    # thirteen operations a round: the five seeded dists are the slowest, and
    # the quarter beyond p75 (3.25 per round) lands in the middle of them
    tail_percentile = 75.0

    def build(self):
        d = self.workdir
        d.mkdir(parents=True, exist_ok=True)
        paths = {}
        for name, text in (("line", GRAPH_TEXTS["G_LINE"]), ("mixed", GRAPH_TEXTS["G_MIXED"])):
            paths[name] = self._write(f"{name}.graph", text)
        self._reference: dict[tuple[str, ...], str] = {}
        out = str((d / "path.tsv").relative_to(Path.cwd()))
        small = [
            ["validate", "--graph", paths["line"]],
            ["dist", "--graph", paths["mixed"], "--a", "E1:[0,1/2] R1:[1,2] L1:{1}",
             "--b", "L1:[1/3,1] E2:{1} R2:[1/4,3/4]"],
            ["classify", "--graph", paths["line"], "--a", "R1:[0,inf)",
             "--b", "R1:[2,inf) R2:[1,2]", "-n", "2", "--emit-path", out, "--samples", "20"],
            ["path", "--graph", paths["mixed"], "--a", "R1:[2,inf) E2:[1/2,1] L1:{1}", "-n", "3",
             "--vietoris"],
            ["vietoris", "--graph", paths["line"], "--a", "R1:[0,1] R2:[0,1/2]",
             "--open", "ball R1:0 3", "--open", "ball R2:0 1", "--witness", "1/8",
             "--res", "1/250"],
            ["wedge", "--expr", "((circle ∨ ray) ∨ (interval ∨ ray))"],
            ["oracle", "--graph", paths["line"], "--step", "1/2", "--trunc", "2",
             "--delta", "3/5", "-n", "1"],
        ]
        rng = self.rng

        def make_round(r):
            # every round has its own seeded ring, so that a run mixes the
            # vertex-table costs of several rings; the library reference
            # builds its table only when the checks need it
            text = ring_graph_text(rng, 64, 16, 4)
            ring, path = rs.parse_graph(text), self._write(f"ring{r}.graph", text)
            # the median lands among the seven small commands and the seeded classify
            ops = [self._op(argv) for argv in small]
            ops += [self._ring_dist(ring, path, directed)
                    for directed in (False, True, False, True, False)]
            A, B = (ring_set_text(ring, rng, random_tails(ring, rng)) for _ in range(2))
            ops.append(self._op(["classify", "--graph", path, "--a", A, "--b", B,
                                 "-n", "12"], kind="ring-classify"))
            return ops

        return [make_round(r) for r in range(self.pool_rounds)]

    def trace_ops(self, pool):
        # the same argv, run in-process so the layer wrappers see the calls;
        # one seeded dist of the five keeps a traced pass near two seconds
        kinds: dict[str, Op] = {}
        for op in pool[0]:
            kinds.setdefault(op.kind, op)
        return [Op(op.kind, (lambda a=op.argv: run_cli_in_process(a)[::-1]), op.check)
                for op in kinds.values()]

    def _write(self, name: str, text: str) -> str:
        """Write a graph file; return its path relative to the checkout."""
        path = self.workdir / name
        path.write_text(text)
        return str(path.relative_to(Path.cwd()))

    def _ring_dist(self, g, path, directed):
        tails = random_tails(g, self.rng)
        A_text, B_text = (ring_set_text(g, self.rng, tails) for _ in range(2))
        argv = ["dist", "--graph", path, "--a", A_text, "--b", B_text]
        if directed:
            argv.append("--directed")

        def want():
            fn = rs.directed_hausdorff if directed else rs.hausdorff
            return fmt(fn(g, rs.parse_set(A_text, g), rs.parse_set(B_text, g))) + "\n"

        return self._op(argv, kind="ring-dist", want=want)

    def _op(self, argv: list[str], kind: str | None = None, want=None) -> Op:
        kind = kind or argv[0]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, ["src", os.environ.get("PYTHONPATH")])))

        def run():
            proc = subprocess.run([sys.executable, "-m", "rayspace.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=120)
            return proc.stdout, proc.returncode

        def check(stdout, code):
            key = tuple(argv)
            if key not in self._reference:
                if want is not None:
                    self._reference[key] = want()
                else:
                    ref_code, ref_out = run_cli_in_process(argv)
                    self._reference[key] = ref_out if ref_code == 0 else None
            return code == 0 and stdout == self._reference[key]

        return Op(kind, run, check, argv)


WORKLOADS = {w.name: w for w in (DistEnvelope, PathsWitness, Census, CliCold)}
