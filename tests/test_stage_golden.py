"""Golden values of path stages: kind, description and Lipschitz bound of every
stage, sampled path values and the CLI rendering, pinned verbatim."""

import pickle
from fractions import Fraction as F

from rayspace import (
    INF,
    gamma_path,
    parse_set,
    path_to_canonical,
    same_component_hausdorff,
    vietoris_path,
    whole_space,
)
from rayspace.cli import run

from conftest import GRAPH_TEXTS

MIXED_SET = "R1:[2,inf) R2:[1,2] E2:[1/2,1]"

MIXED_ROWS = [
    ("F0", "F0 grow tails: R1 from 2", 2),
    ("F1", "F1 retract ray pieces: R2:[1,2]", 2),
    ("F2", "F2 covering walk of length 9 (6 legs)", 9),
]


def rows(P):
    return [(s.kind, s.desc, s.lipschitz_bound) for s in P.stages]


def values(P, k):
    return [P.at(F(i, k)).render() for i in range(k + 1)]


def test_every_stage_moves(graphs):
    g = graphs["G_MIXED"]
    P = path_to_canonical(g, parse_set(MIXED_SET, g), 3)
    assert rows(P) == MIXED_ROWS
    assert values(P, 8) == [
        "E2:[1/2,1] R1:[2,inf) R2:[1,2]",
        "E2:[1/2,1] R1:[5/4,inf) R2:[1,2]",
        "E2:[1/2,1] R1:[1/2,inf) R2:[1,2]",
        "E2:[1/2,1] R1:[0,inf) R2:[7/8,7/4]",
        "E2:[1/2,1] R1:[0,inf) R2:[1/2,1]",
        "E2:[1/2,1] R1:[0,inf) R2:[1/8,1/4]",
        "E1:[0,1] E2:[1/4,3/2] R1:[0,inf)",
        "E1:[0,1] E2:[0,3/2] L1:[0,13/8] R1:[0,inf)",
        "E1:[0,1] E2:[0,3/2] L1:[0,2] R1:[0,inf)",
    ]


def test_every_stage_constant(graphs):
    g = graphs["G_R"]
    P = path_to_canonical(g, parse_set("R1:[0,inf)", g), 1)
    assert rows(P) == [
        ("F0", "F0 (no tails to grow)", 0),
        ("F1", "F1 (no ray pieces to retract)", 0),
        ("F2", "F2 covering walk of length 0 (0 legs)", 0),
    ]
    assert set(values(P, 8)) == {"R1:[0,inf)"}


def test_only_f1_moves_with_no_base(graphs):
    # every piece of the set retracts, so the F1 stage has no fixed part
    g = graphs["G_LINE"]
    P = path_to_canonical(g, parse_set("R2:[1,2]", g), 1)
    assert rows(P) == [
        ("F0", "F0 (no tails to grow)", 0),
        ("F1", "F1 retract ray pieces: R2:[1,2]", 2),
        ("F2", "F2 covering walk of length 0 (0 legs)", 0),
    ]
    assert values(P, 8) == [
        "R2:[1,2]", "R2:[1,2]", "R2:[1,2]", "R2:[7/8,7/4]", "R2:[1/2,1]",
        "R2:[1/8,1/4]", "R1:{0}", "R1:{0}", "R1:{0}",
    ]


def test_only_f2_moves(graphs):
    g = graphs["G_TRIOD"]
    P = path_to_canonical(g, parse_set("E1:{0}", g), 1)
    assert rows(P) == [
        ("F0", "F0 (no tails to grow)", 0),
        ("F1", "F1 (no ray pieces to retract)", 0),
        ("F2", "F2 covering walk of length 6 (6 legs)", 6),
    ]
    assert values(P, 8)[5:] == [
        "E1:{0}",
        "E1:[0,1]",
        "E1:[0,1] E2:[0,1]",
        "E1:[0,1] E2:[0,1] E3:[0,1]",
    ]


def test_f0_and_f1_move_without_edges(graphs):
    g = graphs["G_STAR3"]
    P = path_to_canonical(g, parse_set("R1:[3/2,inf) R2:[0,inf) R3:{1/2}", g), 3)
    assert rows(P) == [
        ("F0", "F0 grow tails: R1 from 3/2", F(3, 2)),
        ("F1", "F1 retract ray pieces: R3:[1/2,1/2]", F(1, 2)),
        ("F2", "F2 covering walk of length 0 (0 legs)", 0),
    ]
    assert values(P, 8)[1:5] == [
        "R1:[15/16,inf) R2:[0,inf) R3:{1/2}",
        "R1:[3/8,inf) R2:[0,inf) R3:{1/2}",
        "R1:[0,inf) R2:[0,inf) R3:{7/16}",
        "R1:[0,inf) R2:[0,inf) R3:{1/4}",
    ]


def test_vietoris_and_gamma_stages(graphs):
    g = graphs["G_MIXED"]
    P = vietoris_path(g, parse_set(MIXED_SET, g), 3)
    assert rows(P) == MIXED_ROWS + [("GAMMA", "GAMMA grow rays R2 via t/(1-t)", INF)]
    assert values(P, 8)[6:] == [
        "E1:[0,1] E2:[0,3/2] L1:[0,2] R1:[0,inf)",
        "E1:[0,1] E2:[0,3/2] L1:[0,2] R1:[0,inf) R2:[0,1]",
        "E1:[0,1] E2:[0,3/2] L1:[0,2] R1:[0,inf) R2:[0,inf)",
    ]
    assert rows(gamma_path(g, frozenset())) == [
        ("GAMMA", "GAMMA grow rays R1, R2 via t/(1-t)", INF)
    ]
    assert rows(gamma_path(g, frozenset({1, 2}))) == [
        ("GAMMA", "GAMMA (direction set full; constant)", 0)
    ]
    S = graphs["G_STAR3"]
    full = vietoris_path(S, parse_set("R1:[0,inf) R2:[0,inf) R3:[0,inf)", S), 1)
    assert rows(full)[3] == ("GAMMA", "GAMMA (direction set full; constant)", 0)
    for h in graphs.values():
        assert gamma_path(h, frozenset()).end() == whole_space(h)


def test_same_component_path_reverses_stages(graphs):
    g = graphs["G_MIXED"]
    A = parse_set("R1:[2,inf) R2:[1,2]", g)
    B = parse_set("R1:[1,inf) E1:{1/2}", g)
    P = same_component_hausdorff(g, A, B, 3).path
    assert rows(P) == [
        ("F0", "F0 grow tails: R1 from 2", 2),
        ("F1", "F1 retract ray pieces: R2:[1,2]", 2),
        ("F2", "F2 covering walk of length 9 (6 legs)", 9),
        ("F2~", "reversed F2 covering walk of length 9 (6 legs)", 9),
        ("F1~", "reversed F1 (no ray pieces to retract)", 0),
        ("F0~", "reversed F0 grow tails: R1 from 1", 1),
    ]
    assert values(P, 12)[5:] == [
        "E1:[0,1] E2:[0,3/2] L1:[0,1/2] R1:[0,inf)",
        "E1:[0,1] E2:[0,3/2] L1:[0,2] R1:[0,inf)",
        "E1:[0,1] E2:[0,3/2] L1:[0,1/2] R1:[0,inf)",
        "E1:{1/2} R1:[0,inf)",
        "E1:{1/2} R1:[0,inf)",
        "E1:{1/2} R1:[0,inf)",
        "E1:{1/2} R1:[1/2,inf)",
        "E1:{1/2} R1:[1,inf)",
    ]
    assert rows(same_component_hausdorff(g, A, A, 3).path) == [
        ("F0", "F0 (no tails to grow)", 0)
    ]


def test_paths_compare_hash_and_pickle(graphs):
    g = graphs["G_MIXED"]
    A = parse_set(MIXED_SET, g)
    for build in (path_to_canonical, vietoris_path):
        P, Q = build(g, A, 3), build(g, A, 3)
        assert P == Q and hash(P) == hash(Q)
        R = pickle.loads(pickle.dumps(P))
        assert R == P and rows(R) == rows(P)
        assert values(R, 8) == values(P, 8)
    B = parse_set("R1:[1,inf) E1:{1/2}", g)
    P = same_component_hausdorff(g, A, B, 3).path
    assert pickle.loads(pickle.dumps(P)) == P


def test_cli_vietoris_path_output(tmp_path, capsys):
    gf = tmp_path / "mixed.graph"
    gf.write_text(GRAPH_TEXTS["G_MIXED"] + "\n")
    assert run(["path", "--graph", str(gf), "--a", MIXED_SET, "-n", "3", "--vietoris"]) == 0
    assert capsys.readouterr().out == (
        "stages=4\n"
        'stage index=1 kind=F0 span=[0,1/4] lipschitz=2 desc="F0 grow tails: R1 from 2"\n'
        'stage index=2 kind=F1 span=[1/4,1/2] lipschitz=2 desc="F1 retract ray pieces: R2:[1,2]"\n'
        "stage index=3 kind=F2 span=[1/2,3/4] lipschitz=9 "
        'desc="F2 covering walk of length 9 (6 legs)"\n'
        'stage index=4 kind=GAMMA span=[3/4,1] lipschitz=inf desc="GAMMA grow rays R2 via t/(1-t)"\n'
        "start=E2:[1/2,1] R1:[2,inf) R2:[1,2]\n"
        "end=E1:[0,1] E2:[0,3/2] L1:[0,2] R1:[0,inf) R2:[0,inf)\n"
    )
