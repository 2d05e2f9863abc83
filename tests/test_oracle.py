import itertools
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rayspace
from rayspace import (
    CapExceededError,
    ClosedSubset,
    PreconditionError,
    canonical_element,
    component_count,
    component_count_formula,
    contains_point,
    direction_set,
    enumerate_sets,
    hausdorff,
    in_cn,
    is_infinite,
    oracle_components,
    oracle_hausdorff,
    parse_set,
    path_to_canonical,
    union,
)
from rayspace._kernels import component_labels, directed_maxmin, distance_matrix
from rayspace.cli import run
from rayspace.graph import GraphPoint, point_distance
from rayspace.oracle import (
    MAX_GRID_SAMPLES,
    _common_scale,
    _element_configs,
    _grid_samples,
    _layout_count,
    _scaled,
    _scaled_graph,
)

from conftest import random_point, random_ray_graph, random_subset


def test_oracle_names_resolve_through_the_package():
    import rayspace.oracle

    from rayspace import oracle_hausdorff as by_name

    assert by_name is rayspace.oracle.oracle_hausdorff
    assert rayspace.OracleComponents is rayspace.oracle.OracleComponents
    names = {"OracleComponents", "enumerate_sets", "oracle_components", "oracle_hausdorff"}
    assert names <= set(dir(rayspace))
    with pytest.raises(AttributeError, match="no_such_name"):
        rayspace.no_such_name


def test_enumerate_hand_example(graphs):
    g = graphs["G_R"]
    sets = enumerate_sets(g, F(1), F(1), 1, 1)
    assert {s.render() for s in sets} == {
        "R1:{0}",
        "R1:[0,1]",
        "R1:{1}",
        "R1:[0,inf)",
        "R1:[1,inf)",
    }


def test_enumerate_connectivity_filter(graphs):
    g = graphs["G_R"]
    sets = enumerate_sets(g, F(1), F(2), 1, 2)
    for s in sets:
        pieces = len(s.intervals_on("R1")) + (1 if s.tail_on("R1") is not None else 0)
        assert pieces == 1  # n=1 removes every two-piece layout on one element


def test_enumerate_truncation_zero(graphs):
    g = graphs["G_R"]
    sets = enumerate_sets(g, F(1), F(0), 1, 1)
    assert {s.render() for s in sets} == {"R1:{0}", "R1:[0,inf)"}


def test_enumerate_dedupes_vertex_aliases(graphs):
    g = graphs["G_LINE"]
    sets = enumerate_sets(g, F(1), F(1), 2, 1)
    renders = [s.render() for s in sets]
    assert len(renders) == len(set(renders))
    assert "R1:{0}" in renders and "R2:{0}" not in renders


def test_enumerate_cap(graphs):
    with pytest.raises(CapExceededError, match="cap"):
        enumerate_sets(graphs["G_STAR3"], F(1, 4), F(2), 2, 3, cap=1000)


def test_enumerate_rejects_bad_grid(graphs):
    from rayspace import PreconditionError

    with pytest.raises(PreconditionError):
        enumerate_sets(graphs["G_R"], F(1, 2), F(3, 4), 1, 1)  # T not a multiple of h


def _unpruned_enumeration(g, h, T, n, max_pieces):
    """``enumerate_sets`` without the interior-piece prune: every layout
    combination goes through ``from_pieces`` and ``in_cn``."""

    def configs(grid, allow_tail):
        out = []

        def extend(start, left, acc):
            out.append((tuple(acc), None))
            if allow_tail and left >= 1:
                out.extend((tuple(acc), s) for s in grid[start:])
            if left >= 1:
                for i in range(start, len(grid)):
                    for j in range(i, len(grid)):
                        extend(j + 1, left - 1, acc + [(grid[i], grid[j])])

        extend(0, max_pieces, [])
        return out

    def grid(cap):
        return [k * h for k in range(int(cap / h) + 1)]

    per = [(e.id, configs(grid(min(e.length, T)), False)) for e in g.edges]
    per += [(r.id, configs(grid(T), True)) for r in g.rays]
    found = {}
    for combo in itertools.product(*(cfgs for _, cfgs in per)):
        intervals = {eid: list(ivs) for (eid, _), (ivs, _) in zip(per, combo) if ivs}
        tails = {eid: t for (eid, _), (_, t) in zip(per, combo) if t is not None}
        if intervals or tails:
            A = ClosedSubset.from_pieces(g, intervals, tails)
            if in_cn(g, A, n):
                found[A.pieces] = A
    return sorted(found.values(), key=ClosedSubset.sort_key)


def test_enumeration_prune_matches_unpruned_reference(graphs, monkeypatch):
    built = [0]
    from_pieces = ClosedSubset.from_pieces

    def counting(*args):
        built[0] += 1
        return from_pieces(*args)

    monkeypatch.setattr(ClosedSubset, "from_pieces", staticmethod(counting))
    rng = random.Random(8128)
    cases = [(g, F(1, 2), F(1), n, mp) for g in graphs.values() for n, mp in ((1, 1), (2, 1))]
    cases += [(graphs[name], F(1, 2), F(1), n, 2) for name in ("G_I", "G_R", "G_NOOSE")
              for n in (1, 2)]
    cases.append((graphs["G_MIXED"], F(1), F(1), 1, 1))  # 2304 layouts
    cases += [(random_ray_graph(rng), F(1, 2), F(1, 2), rng.randint(1, 3), 1) for _ in range(30)]
    checked, pruned = 0, 0
    for g, h, T, n, mp in cases:  # the cap skips the larger random graphs
        built[0] = 0
        try:
            got = enumerate_sets(g, h, T, n, mp, cap=2500)
        except CapExceededError:
            continue
        attempts = built[0]
        built[0] = 0
        assert [s.render() for s in got] == [s.render() for s in _unpruned_enumeration(g, h, T, n, mp)]
        checked += 1
        pruned += attempts < built[0]
    assert checked >= 30 and pruned >= 10


CYCLES = {  # graphs whose open vertex classes a later whole edge can join
    "triangle": "vertex a b c; edge E1 a b; edge E2 b c; edge E3 c a",
    "theta": "vertex u v; edge E1 u v; edge E2 u v; edge E3 u v",
    "square": "vertex a b c d; edge E1 a b; edge E2 b c; edge E3 c d; edge E4 d a",
}


@pytest.mark.parametrize(
    "name, n, want",
    [("triangle", 1, 37), ("theta", 1, 56), ("square", 1, 65), ("square", 2, 397)],
)
def test_enumeration_prune_matches_unpruned_reference_on_cycles(name, n, want):
    # a class of closed vertices is final, but an open one may still be joined
    # by a later whole edge: counting it as closed loses sets here
    g = rayspace.parse_graph(CYCLES[name])
    got = enumerate_sets(g, F(1, 2), F(1), n, 1, cap=2500)
    assert [s.render() for s in got] == [s.render() for s in _unpruned_enumeration(g, F(1, 2), F(1), n, 1)]
    assert len(got) == want


def _coordinate_layouts(h, top, max_pieces, length):
    """``_element_configs`` on the h-grid up to ``top``, its grid indices
    mapped to coordinates."""
    grid = [k * h for k in range(int(top / h) + 1)]
    far = len(grid) - 1 if grid[-1] == length else None
    return [
        (tuple((grid[i], grid[j]) for i, j in runs), None if tail is None else grid[tail], interior)
        for runs, tail, interior in _element_configs(len(grid), max_pieces, length is None, far)
    ]


def _accepted_over_layouts(g, h, T, n, mp):
    """Reference: every combination of the enumeration's own element layouts,
    built as a set and kept when ``in_cn`` accepts it."""
    per = [(e.id, _coordinate_layouts(h, min(e.length, T), mp, e.length)) for e in g.edges]
    per += [(r.id, _coordinate_layouts(h, T, mp, None)) for r in g.rays]
    found = set()
    for combo in itertools.product(*(cfgs for _, cfgs in per)):
        intervals = {eid: list(ivs) for (eid, _), (ivs, _, _) in zip(per, combo) if ivs}
        tails = {eid: t for (eid, _), (_, t, _) in zip(per, combo) if t is not None}
        if intervals or tails:
            A = ClosedSubset.from_pieces(g, intervals, tails)
            if in_cn(g, A, n):
                found.add(A)
    return sorted(found, key=ClosedSubset.sort_key)


# like elements at different vertices, and loops whose grid reaches the far end:
# each kind of element has its layouts built once, then moved to each element
LIKE_ELEMENTS = (
    "vertex a b c; edge E1 a b; edge E2 b c; edge L1 c c; ray R1 b; ray R2 c",
    "vertex a b; edge L1 a a length 1/2; edge L2 b b length 1/2; edge E1 b a length 1/2; ray R1 b",
)


def test_enumeration_matches_in_cn_over_the_same_layouts(graphs):
    cases = [(g, F(1, 2), F(1), n, mp) for g in graphs.values() for n, mp in ((1, 1), (2, 2))]
    cases += [(rayspace.parse_graph(text), h, h, n, 1)
              for text, h in zip(LIKE_ELEMENTS, (F(1), F(1, 2))) for n in (1, 2, 3)]
    rng = random.Random(1729)
    for _ in range(100):  # about a third of the random graphs fit the cap
        h = rng.choice((F(1), F(1, 2)))
        cases.append((random_ray_graph(rng), h, h, rng.randint(1, 3), rng.randint(1, 2)))
    checked, joined = 0, 0
    for g, h, T, n, mp in cases:
        try:
            got = enumerate_sets(g, h, T, n, mp, cap=2500)
        except CapExceededError:
            continue
        assert got == _accepted_over_layouts(g, h, T, n, mp)
        checked += 1
        # connected sets holding two or more vertices, which only whole edges join
        joined += sum(len(A.vertices) > 1 and component_count(g, A) == 1 for A in got)
    assert checked >= 40 and joined >= 80


def test_enumeration_checks_each_distinct_set_once(graphs, monkeypatch):
    import rayspace.oracle
    import rayspace.sets

    built = []
    from_pieces = ClosedSubset.from_pieces

    def building(*args):
        A = from_pieces(*args)
        built.append(A.pieces)
        return A

    def no_check(*args):
        raise AssertionError("the oracle counted components through sets.py")

    monkeypatch.setattr(ClosedSubset, "from_pieces", staticmethod(building))
    monkeypatch.setattr(rayspace.sets, "in_cn", no_check)
    monkeypatch.setattr(rayspace.sets, "component_count", no_check)
    sets = enumerate_sets(graphs["G_MIXED"], F(1, 2), F(1), 1, 1)
    assert not hasattr(rayspace.oracle, "in_cn")
    # one build per accepted set: checking each distinct set made 3893 builds
    assert len(built) == len(set(built)) == len(sets) == 209


ID_POOL = ("Z1", "A1", "M0", "B7", "Q2", "E9", "R0", "C3", "X4", "K5", "N8")


def _relabelled_ray_graph(rng):
    """A ``random_ray_graph`` draw, its element ids drawn from ``ID_POOL`` so
    that some edge sorts after a ray: the id order is not the declaration
    order, edges first, then rays."""
    while True:
        g = random_ray_graph(rng)
        names = rng.sample(ID_POOL, len(g.edges) + len(g.rays))
        edges = [(eid, e.u, e.v, e.length) for eid, e in zip(names, g.edges)]
        rays = [(eid, r.attach) for eid, r in zip(names[len(edges) :], g.rays)]
        if rays and max(eid for eid, *_ in edges) > min(eid for eid, _ in rays):
            return rayspace.graph_from_parts(g.vertices, edges, rays)


def test_enumeration_and_census_hold_when_ids_sort_apart_from_declaration():
    # the fold runs in id order while keys and the universe stay in
    # declaration order; a vertex is stored on its least representation by id
    rng = random.Random(6173)
    checked = 0
    for _ in range(600):  # about one draw in six fits the cap
        g = _relabelled_ray_graph(rng)
        h = rng.choice((F(1), F(1, 2)))
        n, mp = rng.randint(1, 3), rng.randint(1, 2)
        try:
            got = enumerate_sets(g, h, h, n, mp, cap=1000)
        except CapExceededError:
            continue
        assert got == _accepted_over_layouts(g, h, h, n, mp)
        res = oracle_components(g, h, h, 6 * h / 5, 1, 1)
        assert (res.count, res.set_count) == _pairwise_census(g, h, h, 6 * h / 5, 1, 1)
        checked += 1
        if checked == 40:
            break
    assert checked == 40


def test_oracle_stdout_when_ids_sort_apart_from_declaration(tmp_path, capsys):
    # edges Z1, M0 and rays A1, N2 in that order; v is stored at (A1, 0)
    path = tmp_path / "ids.graph"
    path.write_text("vertex u v\nedge Z1 u v length 1\nedge M0 u u length 2\nray A1 v\nray N2 u\n")
    argv = ["oracle", "--graph", str(path), "--step", "1", "--trunc", "1", "--delta", "6/5",
            "-n", "2"]
    assert run(argv) == 0, capsys.readouterr().err
    assert capsys.readouterr().out == (
        "backend=numpy\n"
        "sets=121\n"
        "components=4\n"
        "component 1 direction={} rep=A1:{0}\n"
        "component 2 direction={1} rep=A1:[0,inf)\n"
        "component 3 direction={2} rep=A1:{0} M0:[0,1] N2:[0,inf)\n"
        "component 4 direction={1,2} rep=A1:[0,inf) M0:[0,1] N2:[0,inf)\n"
    )


def test_enumeration_patches_only_keys_with_a_set_aside_vertex(graphs, monkeypatch):
    # a key's carried sort entries leave out a vertex held only as a single
    # point at an element end; only such keys take the patch
    import rayspace.oracle

    patched = [0]
    set_aside = rayspace.oracle._set_aside

    def counting(*args):
        patched[0] += 1
        return set_aside(*args)

    monkeypatch.setattr(rayspace.oracle, "_set_aside", counting)
    cases = [(g, F(1, 2), F(1), n, mp) for g in graphs.values() for n, mp in ((1, 1), (2, 2))]
    rng = random.Random(1729)
    cases += [(random_ray_graph(rng), F(1), F(1), rng.randint(1, 3), 1) for _ in range(40)]
    accepted = 0
    for g, h, T, n, mp in cases:
        try:
            got = enumerate_sets(g, h, T, n, mp, cap=2500)
        except CapExceededError:
            continue
        assert got == _accepted_over_layouts(g, h, T, n, mp)
        accepted += len(got)
    assert 0 < patched[0] < accepted


def test_oracle_components_census(graphs):
    for name, k in (("G_I", 0), ("G_NOOSE", 1), ("G_LINE", 2)):
        res = oracle_components(graphs[name], F(1, 2), F(2), F(3, 5), 1, 1)
        assert res.count == 2**k
        assert len(res.group_counts) == 2**k
        assert all(c == 1 for c in res.group_counts.values())
        assert len(res.representatives) == res.count
        for rep, ds in zip(res.representatives, res.directions):
            assert direction_set(graphs[name], rep) == ds


def test_oracle_census_matches_the_formula_on_random_graphs():
    # criterion 1 on random ray-graphs; T is the longest edge, since a shorter
    # one would cut edges as well as rays and split the census into slices
    fitting = with_rays = 0
    for seed in range(300):
        rng = random.Random(seed)
        g = random_ray_graph(rng)
        n = rng.randint(1, 2)
        h = F(1, math.lcm(*(e.length.denominator for e in g.edges)))
        T = max(e.length for e in g.edges)
        try:
            res = oracle_components(g, h, T, 6 * h / 5, n, 1, cap=20000)
        except CapExceededError:  # the pre-fold estimate refuses before any work
            continue
        fitting += 1
        with_rays += g.ray_count > 0
        assert res.count == component_count_formula(g, n), seed
        assert len(res.group_counts) == 2**g.ray_count, seed
        assert set(res.group_counts.values()) == {1}, seed
    assert fitting >= 20 and with_rays >= 4, (fitting, with_rays)


@pytest.mark.parametrize("length", ["3", "3/2"])
def test_oracle_census_with_vertex_stored_off_the_grid(tmp_path, capsys, length):
    # v's least representation (A, length) lies past T = 2 or off the h = 1
    # grid; renamed Z, the edge sorts after R1 and v is stored at (R1, 0)
    census = []
    for eid in ("A", "Z"):
        text = f"vertex u v; edge {eid} u v length {length}; ray R1 v"
        path = tmp_path / f"{eid}.graph"
        path.write_text(text.replace("; ", "\n"))
        argv = ["oracle", "--graph", str(path), "--step", "1", "--trunc", "2",
                "--delta", "6/5", "-n", "1"]
        assert run(argv) == 0, capsys.readouterr().err
        res = oracle_components(rayspace.parse_graph(text), F(1), F(2), F(6, 5), 1, 1)
        census.append((res.count, res.set_count, res.group_counts, res.directions))
    assert census[0] == census[1]


def _pairwise_census(g, h, T, delta, n, mp):
    """Reference: (components, sets) by union-find over every pair of
    enumerated sets at ``oracle_hausdorff`` <= delta."""
    sets = enumerate_sets(g, h, T, n, mp)
    parent = list(range(len(sets)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in itertools.combinations(range(len(sets)), 2):
        d = oracle_hausdorff(g, sets[i], sets[j], h, T)
        if not is_infinite(d) and d <= delta:
            parent[find(i)] = find(j)
    return len({find(i) for i in range(len(sets))}), len(sets)


@pytest.mark.parametrize("lengths, want", [
    ("length 10000000000000000000000", (3, 15)),
    ("length 4611686018427387904; ray R2 u", (4, 29)),
    ("length 1/1000000000001; edge E2 u v length 1/1000000000003", (2, 10)),
], ids=["edge-1e22", "edge-2^62", "coprime-denominators"])
def test_oracle_census_is_exact_past_int64_scales(tmp_path, capsys, lengths, want):
    # a long edge, or two coprime length denominators, put scaled distances
    # past int64; the census compares them with delta in Python ints, so its
    # answer is the pairwise grid census, through the library and the CLI
    text = f"vertex u v\nedge E1 u v {lengths}\nray R1 v\n".replace("; ", "\n")
    g = rayspace.parse_graph(text)
    res = oracle_components(g, F(1), F(2), F(6, 5), 1, 1)
    assert (res.count, res.set_count) == want == _pairwise_census(g, F(1), F(2), F(6, 5), 1, 1)
    path = tmp_path / "big.graph"
    path.write_text(text)
    argv = ["oracle", "--graph", str(path), "--step", "1", "--trunc", "2", "--delta", "6/5",
            "-n", "1"]
    assert run(argv) == 0, capsys.readouterr().err
    assert f"sets={want[1]}\ncomponents={want[0]}\n" in capsys.readouterr().out


def _set_census(g, h, T, delta, n, mp):
    """Reference: the census over built sets.  The sets of ``enumerate_sets``,
    in ``sort_key`` order, are grouped by ``direction_set``; a set's mask
    marks the grid points ``contains_point`` finds in it; the first set of
    each label represents its component."""
    sets = sorted(enumerate_sets(g, h, T, n, mp, cap=2500), key=ClosedSubset.sort_key)
    tops = [(e.id, min(e.length, T)) for e in g.edges] + [(r.id, T) for r in g.rays]
    universe = [GraphPoint(eid, k * h) for eid, top in tops for k in range(int(top / h) + 1)]
    sg = _scaled_graph(g, _common_scale(g, [h.denominator, T.denominator]))
    links = distance_matrix([(sg.elem_index[p.element], int(p.coord * sg.scale))
                             for p in universe], sg, int(delta * sg.scale))
    masks = np.array([[contains_point(g, A, p) for p in universe] for A in sets], dtype=bool)
    groups = {}
    for i, A in enumerate(sets):
        groups.setdefault(direction_set(g, A), []).append(i)
    reps, dirs, counts = [], [], {}
    for dset in sorted(groups, key=lambda s: (len(s), sorted(s))):
        idx = groups[dset]
        first_of = {}
        for i, lab in zip(idx, component_labels(masks[idx], links)):
            first_of.setdefault(int(lab), i)
        counts[dset] = len(first_of)
        for i in sorted(first_of.values()):
            reps.append(sets[i])
            dirs.append(dset)
    return sum(counts.values()), tuple(reps), tuple(dirs), counts, len(sets)


def test_census_matches_a_census_over_built_sets(graphs):
    cases = [(g, F(1, 2), F(1), F(3, 5), 2, 1) for g in graphs.values()]
    cases += [(graphs[name], F(1, 2), F(3, 2), F(3, 5), 1, 2) for name in ("G_I", "G_TRIOD")]
    rng = random.Random(4099)
    for _ in range(150):  # about a fifth of the random graphs fit the cap
        h = rng.choice((F(1), F(1, 2)))
        delta = h * rng.choice((F(6, 5), F(2)))
        cases.append((random_ray_graph(rng), h, h * rng.randint(1, 2), delta, rng.randint(1, 3),
                      rng.randint(1, 2)))
    checked = 0
    for g, h, T, delta, n, mp in cases:
        try:
            want = _set_census(g, h, T, delta, n, mp)
        except CapExceededError:
            continue
        res = oracle_components(g, h, T, delta, n, mp, cap=2500)
        assert (res.count, res.representatives, res.directions, res.group_counts,
                res.set_count) == want
        checked += 1
    assert checked >= 39


def test_census_builds_one_set_per_component(graphs, monkeypatch):
    built = [0]
    from_pieces = ClosedSubset.from_pieces

    def counting(*args):
        built[0] += 1
        return from_pieces(*args)

    monkeypatch.setattr(ClosedSubset, "from_pieces", staticmethod(counting))
    res = oracle_components(graphs["G_LINE"], F(1, 4), F(2), F(3, 5), 2, 1)
    # building every enumerated set made 3004 calls
    assert built[0] == res.count == 4 and res.set_count == 3004


@pytest.mark.parametrize(
    "name, h, T, n, mp, kinds",
    [
        ("G_TRIOD", F(1, 2), F(3, 2), 1, 2, 1),
        ("G_STAR3", F(1, 2), F(2), 2, 1, 1),
        ("G_LINE", F(1, 4), F(2), 2, 1, 1),
        # E1's grid reaches its far end, E2's and L1's do not, R1 and R2 are rays
        ("G_MIXED", F(1, 2), F(1), 1, 1, 3),
    ],
)
def test_census_builds_layouts_once_per_element_kind(graphs, monkeypatch, name, h, T, n, mp, kinds):
    import rayspace.oracle

    calls = []
    element_configs = rayspace.oracle._element_configs

    def counting(*args):
        calls.append(args)
        return element_configs(*args)

    monkeypatch.setattr(rayspace.oracle, "_element_configs", counting)
    oracle_components(graphs[name], h, T, F(3, 5), n, mp)
    # one call per element made 3, 3, 2 and 5
    assert len(calls) == len(set(calls)) == kinds


@pytest.mark.parametrize(
    "name, h, T, n, mp, joins, per_key",
    [
        ("G_LINE", F(1, 4), F(2), 2, 1, 12, 168),
        ("G_STAR3", F(1, 2), F(2), 2, 1, 27, 1353),
        ("G_TRIOD", F(1, 2), F(3, 2), 1, 2, 112, 192),
        ("G_MIXED", F(1, 2), F(1), 1, 1, 74, 497),
    ],
)
def test_fold_joins_once_per_frontier_state(graphs, monkeypatch, name, h, T, n, mp, joins,
                                            per_key):
    # keys with the same interior pieces and vertex classes share one join and
    # bound per signature of the next element
    import rayspace.oracle

    evaluations = [0]
    live_signatures = rayspace.oracle._live_signatures

    def counting(interior, classes, signatures, unfolded, n):
        evaluations[0] += len(signatures)
        return live_signatures(interior, classes, signatures, unfolded, n)

    monkeypatch.setattr(rayspace.oracle, "_live_signatures", counting)
    oracle_components(graphs[name], h, T, F(3, 5), n, mp)
    # one join and bound per key and signature made per_key evaluations
    assert evaluations[0] == joins < per_key


def test_census_does_not_depend_on_the_order_of_the_keys(graphs, monkeypatch):
    # each component's representative is its set least in sort_key order, so
    # the census is the same whatever order the enumeration yields its keys in
    import rayspace.oracle

    rng = random.Random(3301)
    enumerate_keys = rayspace.oracle._enumerate_keys

    def shuffled(*args):
        sizes, found = enumerate_keys(*args)
        found = list(found)
        rng.shuffle(found)
        return sizes, found

    def check(g, h, n):
        try:
            want = oracle_components(g, h, h, 6 * h / 5, n, 1, cap=2500)
        except CapExceededError:
            return None
        with monkeypatch.context() as m:
            m.setattr(rayspace.oracle, "_enumerate_keys", shuffled)
            assert oracle_components(g, h, h, 6 * h / 5, n, 1, cap=2500) == want
        return want.set_count > want.count  # some component holds more than one set

    merged = [check(g, F(1, 2), n) for g in graphs.values() for n in (1, 2)]
    assert None not in merged
    drawn = []
    for _ in range(400):  # about one draw in three fits the cap
        if (c := check(_relabelled_ray_graph(rng), F(1), rng.randint(1, 2))) is not None:
            drawn.append(c)
        if len(drawn) == 40:
            break
    assert len(drawn) == 40 and sum(merged + drawn) >= 40


def test_oracle_components_deterministic(graphs):
    g = graphs["G_LINE"]
    r1 = oracle_components(g, F(1, 2), F(2), F(3, 5), 2, 1)
    r2 = oracle_components(g, F(1, 2), F(2), F(3, 5), 2, 1)
    assert [s.render() for s in r1.representatives] == [s.render() for s in r2.representatives]


def test_oracle_delta_warning(graphs, monkeypatch):
    # a delta below the margin is refused before anything is enumerated
    import rayspace.oracle

    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated below the margin")

    monkeypatch.setattr(rayspace.oracle, "_enumerate_keys", no_enumeration)
    for delta in (F(1, 2), F(-1)):
        with pytest.raises(PreconditionError, match="connectivity margin"):
            oracle_components(graphs["G_R"], F(1, 2), F(1), delta, 1, 1)


def test_oracle_hausdorff_examples(graphs):
    g = graphs["G_I"]
    A, B = parse_set("E1:[0,1]", g), parse_set("E1:{0}", g)
    assert abs(oracle_hausdorff(g, A, B, F(1, 100), F(2)) - 1) <= F(1, 100)
    gr = graphs["G_R"]
    assert is_infinite(
        oracle_hausdorff(gr, parse_set("R1:{0}", gr), parse_set("R1:[0,inf)", gr), F(1, 10), F(2))
    )
    assert oracle_hausdorff(g, A, A, F(1, 10), F(2)) == 0


def test_oracle_hausdorff_refuses_a_set_of_another_graph(graphs):
    g, other = graphs["G_LINE"], graphs["G_STAR3"]
    mine = parse_set("R1:[0,2]", g)
    for theirs in (parse_set("R1:[0,1]", other), parse_set("R3:[0,1]", other)):
        for A, B in ((mine, theirs), (theirs, mine)):
            with pytest.raises(PreconditionError, match="given graph"):
                oracle_hausdorff(g, A, B, F(1, 2), F(2))


def test_oracle_hausdorff_tails_beyond_T(graphs):
    # caps widen to the tail starts, so the answer stays within h even when
    # the tails begin beyond the nominal truncation radius
    g = graphs["G_R"]
    A = parse_set("R1:[5,inf)", g)
    B = parse_set("R1:[8,inf)", g)
    assert abs(oracle_hausdorff(g, A, B, F(1, 4), F(2)) - 3) <= F(1, 4)


def test_oracle_hausdorff_caps_the_sample_count_not_pairs(graphs):
    # 4002 and 2002 samples: their product passes 4,000,000, their sum does not
    g = graphs["G_I"]
    A, B = parse_set("E1:[0,1]", g), parse_set("E1:[0,1/2]", g)
    assert oracle_hausdorff(g, A, B, F(1, 4000), F(1)) == F(1, 2)


def test_oracle_hausdorff_refuses_a_negative_radius(graphs):
    g = graphs["G_R"]
    A, B = parse_set("R1:[0,1]", g), parse_set("R1:{1/2}", g)
    for T in (F(-1), F(-1, 2), -3):
        for call in (lambda: oracle_hausdorff(g, A, B, F(1, 2), T),
                     lambda: enumerate_sets(g, F(1, 2), T, 1, 1)):
            with pytest.raises(PreconditionError, match="truncation radius T must be"):
                call()
    assert oracle_hausdorff(g, A, B, F(1, 2), F(0)) == F(1, 2)


@pytest.mark.parametrize("graph, a, b, h, T, count", [
    # spans [0, 1/3] and [1/7, 1]: (4/3 + 2) + (24/7 + 2)
    ("G_I", "E1:[0,1/3]", "E1:[1/7,1]", F(1, 4), F(1), F(184, 21)),
    # spans [1/3, 1/2], [2/3, 2] and [1/5, 2], the tails capped at T:
    # (2/3 + 2) + (16/3 + 2) + (36/5 + 2)
    ("G_R", "R1:[1/3,1/2] R1:[2/3,inf)", "R1:[1/5,inf)", F(1, 4), F(2), F(96, 5)),
])
def test_oracle_hausdorff_refuses_exactly_past_the_sample_cap(
        graphs, monkeypatch, graph, a, b, h, T, count):
    import rayspace.oracle

    calls = []

    def counted(*args):
        calls.append(args)
        return directed_maxmin(*args)

    monkeypatch.setattr(rayspace.oracle, "directed_maxmin", counted)
    g = graphs[graph]
    A, B = parse_set(a, g), parse_set(b, g)
    assert count.denominator != 1
    for cap in (math.floor(count), math.ceil(count)):
        monkeypatch.setattr(rayspace.oracle, "MAX_GRID_SAMPLES", cap)
        calls.clear()
        if count > cap:
            with pytest.raises(CapExceededError, match=f"over {cap} samples"):
                oracle_hausdorff(g, A, B, h, T)
            assert calls == []
        else:
            assert abs(oracle_hausdorff(g, A, B, h, T) - hausdorff(g, A, B)) <= h
            assert len(calls) == 2


def test_oracle_matches_exact_on_random_bounded_pairs(graphs):
    rng = random.Random(3210)
    h = F(1, 20)
    for name in ("G_NOOSE", "G_MIXED"):
        g = graphs[name]
        for _ in range(25):
            A = random_subset(g, rng, bounded=True)
            B = random_subset(g, rng, bounded=True)
            assert abs(oracle_hausdorff(g, A, B, h, F(4)) - hausdorff(g, A, B)) <= h


def test_component_partition_refines_by_direction(graphs):
    g = graphs["G_NOOSE"]
    res = oracle_components(g, F(1, 2), F(2), F(3, 5), 2, 1)
    assert set(res.group_counts) == {frozenset(), frozenset({1})}
    assert res.count == sum(res.group_counts.values())


def _exact_points(sg, pts):
    """Kernel points (element index, scaled coordinate) as exact GraphPoints."""
    eids = list(sg.elem_index)
    return [GraphPoint(eids[e], F(c, sg.scale)) for e, c in pts]


def _flat(mapping):
    """Per-element kernel points {element index: coordinates} as a flat list
    of (element index, coordinate)."""
    return [(e, c) for e, cs in mapping.items() for c in cs]


def _grouped(points):
    """Flat kernel points as the per-element mapping ``directed_maxmin``
    takes, each element's coordinates in the order given: nothing is sorted,
    so disorder and repeats reach the kernel."""
    on = {}
    for e, c in points:
        on.setdefault(e, []).append(c)
    return on


def _directed_exact(g, pa, pb, sg):
    """Reference: max over the per-element points pa of min over pb of
    ``point_distance``, in Fractions."""
    qs = _exact_points(sg, _flat(pb))
    return max(min(point_distance(g, p, q) for q in qs) for p in _exact_points(sg, _flat(pa)))


def _check_links(g, kpts, sg):
    """``distance_matrix`` against ``point_distance`` on the kernel points
    kpts, at thr = d and thr = d - 1 for each pair's scaled distance d, so
    every distance is pinned."""
    pts = _exact_points(sg, kpts)
    exact = [[point_distance(g, p, q) * sg.scale for q in pts] for p in pts]
    for thr in {int(d) - k for row in exact for d in row for k in (0, 1)}:
        links = distance_matrix(kpts, sg, thr)
        assert links.dtype == bool and links.shape == (len(kpts),) * 2
        assert links.tolist() == [[d <= thr for d in row] for row in exact]


def _check_kernels(g, pa, pb, sg):
    """Both kernels against ``point_distance`` on the per-element kernel
    points pa and pb."""
    for x, y in ((pa, pb), (pb, pa)):
        assert F(directed_maxmin(x, y, sg), sg.scale) == _directed_exact(g, x, y, sg)
    _check_links(g, _flat(pa) + _flat(pb), sg)


def test_kernels_match_exact_reference(graphs):
    g = graphs["G_NOOSE"]
    h = F(1, 2)
    rng = random.Random(99)
    for _ in range(10):
        A = random_subset(g, rng, span=F(2))
        B = random_subset(g, rng, tails_on=direction_set(g, A), span=F(2))
        sg, pa, pb = _grid_samples(g, A, B, h, F(2))  # as oracle_hausdorff samples
        _check_kernels(g, pa, pb, sg)

    sg = _scaled_graph(g, _common_scale(g, [h.denominator]))
    universe = [("E1", F(k, 2)) for k in range(3)] + [("R1", F(k, 2)) for k in range(5)]
    kpts = [(sg.elem_index[eid], int(c * sg.scale)) for eid, c in universe]
    _check_links(g, kpts, sg)

    sets = enumerate_sets(g, h, F(2), 2, 1)
    masks = np.zeros((len(sets), len(universe)), dtype=bool)
    pos = {pt: i for i, pt in enumerate(universe)}
    for i, S in enumerate(sets):
        ssg, samples, _ = _grid_samples(g, S, S, h, F(2))
        for p in _exact_points(ssg, _flat(samples)):
            masks[i, pos[p.element, p.coord]] = True

    # 0 merges only sets with equal grid samples
    counts = _check_labels(g, kpts, sg, masks, (F(0), F(3, 5)))
    assert counts[0] > counts[1] == 1

    # 82 points: every packed row spans two words
    h = F(1, 20)
    universe = [("E1", k * h) for k in range(21)] + [("R1", k * h) for k in range(61)]
    sg = _scaled_graph(g, _common_scale(g, [h.denominator]))
    kpts = [(sg.elem_index[eid], int(c * sg.scale)) for eid, c in universe]
    masks = np.zeros((40, len(universe)), dtype=bool)
    for row in masks:  # one or two runs of grid points
        for _ in range(rng.randint(1, 2)):
            a = rng.randrange(len(universe))
            row[a : a + rng.randint(1, 6)] = True
    assert masks[:, 64:].any()
    deltas = (F(1, 10), F(1, 5), F(2, 5), F(4))
    assert distance_matrix(kpts, sg, 4 * sg.scale).all()  # so at delta 4 all sets link
    counts = _check_labels(g, kpts, sg, masks, deltas)
    assert counts[0] > counts[1] > counts[2] > counts[3] == 1


def _reference_samples(S, caps, T, sg, H, kinds):
    """Reference for one side of ``_grid_samples``: per element, the set of
    every span's ends and the multiples of H on it, sorted, with each tail
    running to its cap; the kinds of span met go into ``kinds``."""
    want = {}
    for eid, ep in S.pieces:
        tail = [] if ep.tail is None else [(ep.tail, caps[eid])]
        for a, b in [*ep.intervals, *tail]:
            lo, hi = int(a * sg.scale), int(b * sg.scale)
            inner = range(-(-lo // H) * H, hi + 1, H)
            want.setdefault(sg.elem_index[eid], set()).update({lo, hi, *inner})
            if lo == hi:
                kinds.add("point")
            elif not inner:
                kinds.add("no multiple")
            if (a, b) in tail and a < b == T:
                kinds.add("tail at T")
    return {e: sorted(cs) for e, cs in want.items()}


def test_grid_samples_are_the_set_reference_per_element(graphs):
    # each element's samples, strictly increasing, are every span's ends and
    # the multiples of h on it, as the set of (element, coordinate) pairs
    # gave them; the draws hold point pieces, spans with no multiple of h
    # inside and tails capped at T
    rng = random.Random(4321)
    kinds = set()
    draws = [random_ray_graph(random.Random(seed)) for seed in range(200)]
    for g in [*graphs.values(), *draws]:
        h, T = rng.choice((F(1, 4), F(1, 5), F(2, 5))), rng.choice((F(1), F(2)))
        A = random_subset(g, rng, span=F(3))
        B = random_subset(g, rng, tails_on=direction_set(g, A), span=F(3))
        points = {}
        for _ in range(rng.randint(1, 3)):
            p = random_point(g, rng)
            points.setdefault(p.element, []).append((p.coord, p.coord))
        C = ClosedSubset.from_pieces(g, points, {})
        for X, Y in ((A, B), (C, A)):
            sg, *got = _grid_samples(g, X, Y, h, T)
            caps = {eid: max(T, X.tail_on(eid) or 0, Y.tail_on(eid) or 0)
                    for S in (X, Y) for eid, ep in S.pieces if ep.tail is not None}
            for S, samples in zip((X, Y), got):
                for cs in samples.values():
                    assert all(a < b for a, b in zip(cs, cs[1:]))
                assert samples == _reference_samples(S, caps, T, sg, int(h * sg.scale), kinds)
    assert kinds == {"point", "no multiple", "tail at T"}


def _ref_grid_samples(g, A, B, h, T):
    """``_grid_samples`` on the sets' ``Fraction`` views: spans read off
    ``pieces`` and ``tail_on``, over the lcm of their coordinates' least
    denominators."""
    caps = {eid: max(T, A.tail_on(eid) or 0, B.tail_on(eid) or 0)
            for S in (A, B) for eid, ep in S.pieces if ep.tail is not None}
    spans = [[(eid, a, b) for eid, ep in S.pieces for a, b in ep.intervals]
             + [(eid, ep.tail, caps[eid]) for eid, ep in S.pieces if ep.tail is not None]
             for S in (A, B)]
    ends = [c.denominator for sp in spans for _, *ab in sp for c in ab]
    scale = _common_scale(g, [h.denominator, T.denominator, *ends])
    H = _scaled(h, scale)
    spans = [[(eid, _scaled(a, scale), _scaled(b, scale)) for eid, a, b in sp] for sp in spans]
    if sum(hi - lo + 2 * H for sp in spans for _, lo, hi in sp) > MAX_GRID_SAMPLES * H:
        raise CapExceededError(f"grid Hausdorff would take over {MAX_GRID_SAMPLES} samples")
    sg = _scaled_graph(g, scale)
    samples = [{} for _ in spans]
    for on, sp in zip(samples, spans):
        for eid, lo, hi in sp:
            cs = on.setdefault(sg.elem_index[eid], [])
            if lo < hi:
                cs.append(lo)
            cs.extend(range(lo // H * H + H, hi, H))
            cs.append(hi)
    return sg, *samples


def _sample_points(sg, samples):
    return {e: [F(c, sg.scale) for c in cs] for e, cs in samples.items()}


def test_grid_samples_on_ints_match_the_fraction_reference(graphs):
    # the samples read off the sets' ints are the points the Fraction views
    # gave, and so is the grid Hausdorff distance, also for sets whose scale
    # is not their least one: unions and path stage values
    rng = random.Random(2718)
    draws = [random_ray_graph(random.Random(seed)) for seed in range(200)]
    off_least = 0
    for g in [*graphs.values(), *draws]:
        h, T = rng.choice((F(1, 4), F(1, 5), F(2, 5))), rng.choice((F(1), F(2)))
        A = random_subset(g, rng, span=F(3))
        B = random_subset(g, rng, tails_on=direction_set(g, A), span=F(3))
        P = path_to_canonical(g, A, component_count(g, A))
        value = rng.choice(P.stages).at(F(rng.randint(1, 96), 97))
        joined = union(A, B)
        off_least += sum(S.scale != S._value()[0] for S in (value, joined))
        for X, Y in ((A, B), (joined, A), (value, B), (B, value), (value, joined)):
            sg, *got = _grid_samples(g, X, Y, h, T)
            rsg, *want = _ref_grid_samples(g, X, Y, h, T)
            assert [_sample_points(sg, s) for s in got] == [_sample_points(rsg, s) for s in want]
            if direction_set(g, X) != direction_set(g, Y):
                assert oracle_hausdorff(g, X, Y, h, T) == float("inf")
                continue
            d = max(directed_maxmin(want[0], want[1], rsg), directed_maxmin(want[1], want[0], rsg))
            assert oracle_hausdorff(g, X, Y, h, T) == F(d, rsg.scale)
    assert off_least >= 100, off_least


def _check_labels(g, kpts, sg, masks, deltas):
    """Check component_labels, over the links of the kernel points kpts at
    each delta, against a plain BFS over pairs at exact symmetric max-min
    distance <= delta; return the component counts."""
    pts = _exact_points(sg, kpts)
    exact = [[point_distance(g, p, q) for q in pts] for p in pts]
    members = [np.nonzero(row)[0].tolist() for row in masks]

    def directed(a, b):
        return max(min(exact[x][y] for y in b) for x in a)

    sym = [[max(directed(a, b), directed(b, a)) for b in members] for a in members]
    counts = []
    for delta in deltas:
        labels = component_labels(masks, distance_matrix(kpts, sg, int(delta * sg.scale)))
        assert labels.dtype == np.int64
        seen, reference = set(), set()
        for s in range(len(members)):
            if s in seen:
                continue
            seen.add(s)
            queue, comp = [s], {s}
            while queue:
                i = queue.pop()
                for j in range(len(members)):
                    if j not in seen and sym[i][j] <= delta:
                        seen.add(j)
                        comp.add(j)
                        queue.append(j)
            reference.add(frozenset(comp))
        found = {}
        for i, lab in enumerate(labels):
            found.setdefault(int(lab), set()).add(i)
        assert {frozenset(c) for c in found.values()} == reference
        counts.append(len(reference))
    return counts


def _pairwise_labels(masks, links):
    """Reference: S_i and S_j link iff each mask lies in the other's
    neighbourhood; each set is labelled by the least index of its component,
    found by a plain search over pairs."""
    sets = [set(np.flatnonzero(row).tolist()) for row in masks]
    near = [{q for p in S for q in np.flatnonzero(links[p]).tolist()} for S in sets]
    labels = [None] * len(sets)
    for root in range(len(sets)):
        if labels[root] is None:
            labels[root], stack = root, [root]
            while stack:
                i = stack.pop()
                for j in range(len(sets)):
                    if labels[j] is None and sets[j] <= near[i] and sets[i] <= near[j]:
                        labels[j] = root
                        stack.append(j)
    return labels


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65, 230])
def test_component_labels_match_a_pairwise_reference(n):
    rng = np.random.default_rng(n)
    # whole 64-bit words at u = 64 and 128; the last links run one way only
    for u, density, band, symmetric in ((9, 0.0, 1, True), (20, 0.1, 0, True), (70, 0.05, 0, True),
                                        (70, 0.0, 3, True), (130, 0.02, 2, True), (64, 0.02, 1, True),
                                        (128, 0.0, 2, True), (40, 0.03, 2, False)):
        # links with a true diagonal: random pairs, or points within a band,
        # made symmetric, or else only the band's points above the diagonal
        gap = np.arange(u)[None, :] - np.arange(u)[:, None]
        band_links = (abs(gap) <= band) if symmetric else (0 <= gap) & (gap <= band)
        links = (rng.random((u, u)) < density) | band_links
        if symmetric:
            links |= links.T
        masks = np.zeros((n, u), dtype=bool)
        for row in masks:  # one to three runs, up to three points each
            for _ in range(rng.integers(1, 4)):
                a = rng.integers(u)
                row[a : a + rng.integers(1, 4)] = True
        labels = component_labels(masks, links)
        assert labels.dtype == np.int64 and labels.shape == (n,)
        assert labels.tolist() == _pairwise_labels(masks, links)
        # every label is the least index of its component
        first = {}
        for i, lab in enumerate(labels.tolist()):
            first.setdefault(lab, i)
        assert all(first[lab] == lab for lab in first)


def test_representative_of_each_class_connects_to_canonical(graphs):
    g = graphs["G_LINE"]
    res = oracle_components(g, F(1, 2), F(2), F(3, 5), 1, 1)
    for rep, ds in zip(res.representatives, res.directions):
        d = hausdorff(g, rep, canonical_element(g, ds))
        assert not is_infinite(d)


def test_oracle_matches_exact_on_matched_tail_pairs(graphs):
    rng = random.Random(606)
    h = F(1, 20)
    for name in ("G_R", "G_LINE", "G_NOOSE"):
        g = graphs[name]
        k = g.ray_count
        for _ in range(20):
            bits = rng.randrange(2**k)
            delta = frozenset(i + 1 for i in range(k) if bits >> i & 1)
            A = random_subset(g, rng, tails_on=delta, span=F(3))
            B = random_subset(g, rng, tails_on=delta, span=F(3))
            exact = hausdorff(g, A, B)
            approx = oracle_hausdorff(g, A, B, h, F(3))
            assert not is_infinite(exact)
            assert abs(approx - exact) <= h


def test_enumerate_postconditions(graphs):
    g = graphs["G_NOOSE"]
    h, T, n, mp = F(1, 2), F(2), 2, 2
    for s in enumerate_sets(g, h, T, n, mp):
        from rayspace import component_count

        assert component_count(g, s) <= n
        for eid, ep in s.pieces:
            pieces = len(ep.intervals) + (1 if ep.tail is not None else 0)
            assert pieces <= mp
            for a, b in ep.intervals:
                assert (a / h).denominator == 1 and (b / h).denominator == 1
                assert b <= (g.element_length(eid) or T)
            if ep.tail is not None:
                assert (ep.tail / h).denominator == 1 and ep.tail <= T


def test_oracle_hausdorff_is_exact_past_the_census_headroom(graphs, monkeypatch):
    # three primes near 10**6 as denominators push the common scale past the
    # headroom an int64 table of distances, each a sum of three scaled terms,
    # would need; the Python-int kernel gives the exact grid value both ways
    import rayspace.oracle

    calls = []

    def counted(*args):
        calls.append(args)
        return directed_maxmin(*args)

    monkeypatch.setattr(rayspace.oracle, "directed_maxmin", counted)
    g = graphs["G_I"]
    A = parse_set("E1:[1/1000033,1/1000003]", g)
    B = parse_set("E1:{1/1000037}", g)
    h = F(1, 2)
    sg, pa, pb = _grid_samples(g, A, B, h, F(1))
    assert 8 * sg.scale > 2**62
    d = oracle_hausdorff(g, A, B, h, F(1))
    assert len(calls) == 2
    assert d == max(_directed_exact(g, pa, pb, sg), _directed_exact(g, pb, pa, sg))
    assert abs(d - hausdorff(g, A, B)) <= h


def _recursive_layouts(grid, max_pieces, length):
    """Reference: every layout, built piece by piece by recursion."""
    out = []

    def extend(start, left, acc, interior):
        out.append((tuple(acc), None, interior))
        if length is None and left >= 1:
            for s in range(start, len(grid)):
                out.append((tuple(acc), grid[s], interior + (grid[s] > 0)))
        if left < 1:
            return
        for i in range(start, len(grid)):
            for j in range(i, len(grid)):
                acc.append((grid[i], grid[j]))
                inner = grid[i] > 0 and (length is None or grid[j] < length)
                extend(j + 1, left - 1, acc, interior + inner)
                acc.pop()

    extend(0, max_pieces, [], 0)
    return out


@pytest.mark.parametrize(
    "h, top, max_pieces, length",
    [
        (F(1, 2), F(1), 1, F(1)),
        (F(1, 2), F(1), 3, F(1)),  # more pieces than half the grid: singletons
        (F(1, 2), F(2), 2, None),
        (F(1, 2), F(1), 4, None),
        (F(1, 4), F(1), 5, F(1)),
        (F(1, 3), F(1), 2, F(3, 2)),  # truncated below the edge's far end
        (F(1), F(0), 2, None),
        (F(1, 4), F(3, 2), 6, None),
    ],
)
def test_element_layouts_match_recursive_reference(h, top, max_pieces, length):
    grid = [k * h for k in range(int(top / h) + 1)]
    got = _coordinate_layouts(h, top, max_pieces, length)
    want = _recursive_layouts(grid, max_pieces, length)
    assert len(set(got)) == len(got)
    assert sorted(got, key=repr) == sorted(want, key=repr)
    ray = length is None
    assert _layout_count(len(grid), max_pieces, ray, len(want)) == len(want)
    assert _layout_count(len(grid), max_pieces, ray, len(want) - 1) > len(want) - 1


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_oracle_hausdorff_within_a_grid_step_on_random_graphs(seed):
    rng = random.Random(seed)
    g = random_ray_graph(rng)
    h = rng.choice((F(1, 4), F(1, 6), F(1, 10)))
    bits = rng.randrange(2**g.ray_count)
    delta = frozenset(i + 1 for i in range(g.ray_count) if bits >> i & 1)
    pairs = [[random_subset(g, rng, bounded=True) for _ in range(2)],
             [random_subset(g, rng, tails_on=delta) for _ in range(2)]]
    for A, B in pairs:
        exact = hausdorff(g, A, B)
        assert not is_infinite(exact)
        assert abs(oracle_hausdorff(g, A, B, h, F(3)) - exact) <= h


def test_common_scale_clears_every_vertex_distance(graphs):
    # the scale reads only edge lengths: a vertex distance is a sum of them
    draws = [random_ray_graph(random.Random(seed)) for seed in range(300)]
    for g in [*graphs.values(), *draws]:
        assert _common_scale(g, [1]) == g.scale
        for (a, b), d in g.vertex_distances.items():
            assert g.scale % d.denominator == 0
            assert g.vertex_row(a)[g.vertices.index(b)] == d * g.scale


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_kernels_match_exact_reference_on_random_graphs(seed):
    # random_ray_graph draws a loop and a parallel edge every time; about
    # half the points sit at an element end, so at a vertex on an edge
    rng = random.Random(seed)
    g = random_ray_graph(rng)
    sg = _scaled_graph(g, _common_scale(g, [rng.choice((1, 2, 5, 12))]))

    def point():
        e = rng.randrange(len(sg.ends))
        top = sg.lengths[e] if sg.lengths[e] is not None else 3 * sg.scale
        return e, rng.choice((0, top, rng.randint(0, top), rng.randint(0, top)))

    pa, pb = ([point() for _ in range(rng.randint(1, 6))] for _ in range(2))
    _check_kernels(g, _grouped(pa), _grouped(pb), sg)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_directed_maxmin_matches_exact_on_dense_samples(seed):
    # grid samples at a fine step put tens of points on an element, and
    # copies of some points, shuffled in, repeat coordinates out of order; a
    # few points against all of the other set make the sweep's pointer pass
    # runs of that set's points before the first of them
    rng = random.Random(seed)
    g = random_ray_graph(rng)
    h = rng.choice((F(1, 4), F(1, 5)))
    A = random_subset(g, rng, span=F(2))
    B = random_subset(g, rng, tails_on=direction_set(g, A), span=F(2))
    sg, pa, pb = _grid_samples(g, A, B, h, F(2))
    pa, pb = ([*ps, *rng.choices(ps, k=len(ps) // 4)] for ps in (_flat(pa), _flat(pb)))
    for ps in (pa, pb):
        rng.shuffle(ps)
    pairs = [(pa, pb), (pb, pa)]
    pairs += [(rng.sample(x, k=min(len(x), rng.randint(1, 3))), y)
              for x, y in pairs for _ in range(8)]
    for x, y in pairs:
        x, y = _grouped(x), _grouped(y)
        assert F(directed_maxmin(x, y, sg), sg.scale) == _directed_exact(g, x, y, sg)
