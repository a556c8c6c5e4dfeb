"""The integer graph kernel, checked against a brute-force closure."""

import random

import pytest

from casweep.graph import (bfs_tree, recurrent, reverse, shortest_cycle,
                           strong_components, walk_to_root)
from oracles import lasso_free, recurrent_meeting_all


def random_graph(seed):
    """Seeded graph on up to 40 nodes: self-loops, isolated nodes and a few
    duplicate edges."""
    rng = random.Random(seed)
    n = rng.randint(1, 40)
    isolated = set(rng.sample(range(n), n // 5))
    others = [v for v in range(n) if v not in isolated]
    density = rng.choice((0.02, 0.05, 0.1, 0.2))
    succ = [[] for _ in range(n)]
    for v in others:
        succ[v] = [w for w in others if rng.random() < density]
        if rng.random() < 0.2 and v not in succ[v]:
            succ[v].append(v)
        if rng.random() < 0.1:
            succ[v] += succ[v][:1]      # a duplicate edge
    return succ


def closure(succ):
    """reach[v][w]: a path of one or more edges leads from v to w."""
    n = len(succ)
    reach = [[False] * n for _ in range(n)]
    for v in range(n):
        for w in succ[v]:
            reach[v][w] = True
    for k in range(n):
        for v in range(n):
            if reach[v][k]:
                row_k = reach[k]
                row_v = reach[v]
                for w in range(n):
                    if row_k[w]:
                        row_v[w] = True
    return reach


GRAPHS = [random_graph(seed) for seed in range(60)]


@pytest.mark.parametrize("succ", GRAPHS)
def test_components_match_mutual_reachability(succ):
    n = len(succ)
    reach = closure(succ)
    comp = strong_components(succ)
    assert len(comp) == n
    for v in range(n):
        for w in range(n):
            mutual = v == w or (reach[v][w] and reach[w][v])
            assert (comp[v] == comp[w]) == mutual
            # numbering is reverse topological: edges never climb
            if w in succ[v]:
                assert comp[v] >= comp[w]
    assert sorted(set(comp)) == list(range(len(set(comp))))


@pytest.mark.parametrize("succ", GRAPHS)
def test_cycle_nodes_and_reachability(succ):
    n = len(succ)
    reach = closure(succ)
    assert recurrent(succ, strong_components(succ)) \
        == [v for v in range(n) if reach[v][v]]
    rng = random.Random(n)
    seeds = rng.sample(range(n), min(n, 3))
    forward = bfs_tree(succ, seeds)
    backward = bfs_tree(reverse(succ), seeds)
    for w in range(n):
        assert (w in forward) == any(s == w or reach[s][w] for s in seeds)
        assert (w in backward) == any(s == w or reach[w][s] for s in seeds)


@pytest.mark.parametrize("succ", GRAPHS)
def test_lasso_emptiness_matches_brute_force(succ):
    n = len(succ)
    reach = closure(succ)
    rng = random.Random(2 * n + 1)
    lefts = [set(rng.sample(range(n), max(1, n // 3))) for _ in range(2)]
    rights = [set(rng.sample(range(n), max(1, n // 3))) for _ in range(2)]

    def carries(v, sets):
        # a cycle through v can visit every set iff v reaches and is
        # reached back from a member of each
        return reach[v][v] and all(
            any(w == v or (reach[v][w] and reach[w][v]) for w in s)
            for s in sets)

    comp = strong_components(succ)
    for s in lefts:
        assert set(recurrent(succ, comp, s)) == \
            {v for v in range(n) if carries(v, [s])}
    assert recurrent_meeting_all(succ, comp, lefts) == \
        {v for v in range(n) if carries(v, lefts)}
    expected = not any(carries(a, lefts) and carries(b, rights)
                       and (a == b or reach[a][b])
                       for a in range(n) for b in range(n))
    assert lasso_free(succ, lefts, rights) == expected


def is_path(succ, vertices):
    """Does an edge lead from each vertex to the next?"""
    return all(w in succ[v] for v, w in zip(vertices, vertices[1:]))


@pytest.mark.parametrize("succ", GRAPHS)
def test_path_search_matches_brute_force(succ):
    n = len(succ)
    reach = closure(succ)
    seeds = random.Random(3 * n).sample(range(n), min(n, 2))
    dist = {s: 0 for s in seeds}
    for _ in range(n):
        for v in list(dist):
            for w in succ[v]:
                dist[w] = min(dist.get(w, n), dist[v] + 1)
    parents = bfs_tree(succ, seeds)
    assert set(parents) == set(dist)
    assert [dist[v] for v in parents] == sorted(dist.values())
    order = list(parents)
    for w in parents:
        path = walk_to_root(parents, w)
        assert path[0] == w and path[-1] in seeds
        assert len(path) == dist[w] + 1 and is_path(succ, path[::-1])
        # ties go to the first vertex found with an edge into w
        if parents[w] is not None:
            assert parents[w] == next(v for v in order if w in succ[v])
    for v in range(n):
        cycle = shortest_cycle(succ, v)
        if not reach[v][v]:
            assert cycle is None
            continue
        assert cycle[0] == cycle[-1] == v and is_path(succ, cycle)
        around = [len(walk_to_root(bfs_tree(succ, [v]), u))
                  for u in range(n) if v in succ[u]
                  and (u == v or reach[v][u])]
        assert len(cycle) - 1 == min(around)


def test_long_chain_does_not_recurse():
    n = 200_000
    succ = [[v + 1] for v in range(n - 1)] + [[0]]
    comp = strong_components(succ)
    assert len(set(comp)) == 1
    assert recurrent(succ, comp) == list(range(n))
    assert shortest_cycle(succ, 0) == list(range(n)) + [0]
    succ[-1] = []
    comp = strong_components(succ)
    assert len(set(comp)) == n
    assert recurrent(succ, comp) == []
    assert len(bfs_tree(succ, [0])) == n
    assert len(bfs_tree(reverse(succ), [n // 2])) == n // 2 + 1


def test_empty_graph():
    assert strong_components([]) == []
    assert recurrent([], strong_components([])) == []
    assert reverse([]) == []
    assert recurrent([], []) == []
    assert lasso_free([], [], [])
    assert bfs_tree([], []) == {}
