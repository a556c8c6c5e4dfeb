"""Directed graphs: strong components, reachability and shortest paths.

A graph is a sequence ``succ`` of successor lists over the nodes
``0..n-1``; duplicate edges are harmless.  Every routine is iterative, so
path length is bounded by memory, not by the recursion limit.  This is the
one place the package computes strongly connected components, cycles and
reachability; callers map their own states to node numbers.

`bfs_tree` is the one reachability search: its keys are the nodes
reachable from the starts, and on `reverse(succ)` the nodes that reach
them.  It is also the one path search, behind the witnesses of both the
closing analysis and the automata: `bfs_tree`, `walk_to_root` and
`shortest_cycle` take the same successor lists and return vertex paths,
breaking ties by the order of the starts and of each successor list.
Callers whose edges carry labels read each step's label back from the two
vertices it joins.  The nodes on a cycle are `recurrent(succ,
strong_components(succ))`.
"""

from __future__ import annotations


def strong_components(succ) -> list[int]:
    """Component number of each node (Tarjan 1972, without recursion).

    Components are numbered in the order Tarjan's algorithm closes them,
    which is a reverse topological order: an edge between two components
    always runs from the higher number to the lower one.
    """
    n = len(succ)
    index = [0] * n          # DFS discovery number + 1; 0 = not yet seen
    low = [0] * n
    comp = [-1] * n
    stack: list[int] = []
    counter = 0
    count = 0
    for root in range(n):
        if index[root]:
            continue
        counter += 1
        index[root] = low[root] = counter
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if not index[w]:
                    counter += 1
                    index[w] = low[w] = counter
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                # seen and not yet in a component means still on the stack
                if comp[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = count
                        if w == v:
                            break
                    count += 1
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
    return comp


def reverse(succ) -> list[list[int]]:
    """Predecessor lists: the same graph with every edge turned around."""
    pred: list[list[int]] = [[] for _ in succ]
    for v, outs in enumerate(succ):
        for w in outs:
            pred[w].append(v)
    return pred


def recurrent(succ, comp: list[int], marked=None) -> list[int]:
    """Nodes of the components that hold a cycle and, when `marked` is
    given, meet it.

    These are the nodes a path can visit infinitely often, while visiting
    `marked` infinitely often when it is given.
    """
    hits = None if marked is None else {comp[v] for v in marked}
    nodes = [v for v, c in enumerate(comp) if hits is None or c in hits]
    size: dict[int, int] = {}
    for v in nodes:
        size[comp[v]] = size.get(comp[v], 0) + 1
    return [v for v in nodes if size[comp[v]] > 1 or v in succ[v]]


def bfs_tree(succ, starts) -> dict:
    """Breadth-first tree: vertex -> previous vertex, None at the starts.

    Keys are in discovery order, so the first key that meets a condition
    is a nearest such vertex, and `walk_to_root` reads off a shortest path
    to it.
    """
    parents = dict.fromkeys(starts)
    queue = list(parents)
    for v in queue:  # the loop also visits what it appends
        for w in succ[v]:
            if w not in parents:
                parents[w] = v
                queue.append(w)
    return parents


def walk_to_root(parents, v) -> list:
    """Vertices from v back to its tree root, both ends included."""
    path = [v]
    while parents[v] is not None:
        v = parents[v]
        path.append(v)
    return path


def shortest_cycle(succ, v) -> list | None:
    """Vertices of a shortest cycle from v back to v, v at both ends, or
    None if v is on none."""
    parents = bfs_tree(succ, [v])
    for u in parents:
        if v in succ[u]:
            return walk_to_root(parents, u)[::-1] + [v]
    return None
