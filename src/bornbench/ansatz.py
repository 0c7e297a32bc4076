"""Circuit construction for the Born-machine benchmark.

A circuit is a stack of per-qubit rotation layers with CNOT entangling layers
in between.  The first rotation layer applies (Rx, Rz) to every qubit,
intermediate layers (Rz, Rx, Rz), and the final layer (Rz, Rx), so a 4-qubit
circuit has 16 rotation angles for one entangling layer and 28 for two.  An
entangling layer is an ordered list of sub-coverings; the CNOTs within one
sub-covering act on disjoint qubits and are applied simultaneously, so each
sub-covering contributes one unit of wall-clock gate time.

Entangling layers on 4 qubits come in three built-in densities: two CNOTs
(one matching of the square plaquette, alternating between the two matchings
from layer to layer), four CNOTs (both matchings in sequence), or three CNOTs
from the maximum-mutual-information spanning tree of the target distribution.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bas import ImageShape, TargetDistribution

# The two perfect matchings of the 4-qubit square plaquette 0-1-3-2.
MATCHING_A = ((0, 1), (2, 3))
MATCHING_B = ((0, 2), (1, 3))

_FIRST_LAYER = ("rx", "rz")
_MIDDLE_LAYER = ("rz", "rx", "rz")
_LAST_LAYER = ("rz", "rx")


@dataclass(frozen=True)
class EntanglerLayer:
    """One entangling layer: ordered sub-coverings of (control, target) CNOTs."""

    sub_coverings: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self) -> None:
        for covering in self.sub_coverings:
            seen: set[int] = set()
            for control, target in covering:
                if control == target:
                    raise ValueError(f"CNOT control equals target: {control}")
                if control < 0 or target < 0:
                    raise ValueError("qubit indices must be nonnegative")
                if control in seen or target in seen:
                    raise ValueError(
                        f"sub-covering {covering} is not vertex-disjoint"
                    )
                seen.update((control, target))

    @property
    def d_c(self) -> int:
        return sum(len(c) for c in self.sub_coverings)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """All CNOTs in application order."""
        return tuple(e for covering in self.sub_coverings for e in covering)

    def max_qubit(self) -> int:
        return max((max(c, t) for c, t in self.edges), default=-1)


@dataclass(frozen=True)
class CircuitSpec:
    """Ansatz structure: rotation-layer gate patterns plus entangling layers.

    ``rotation_layers[k]`` is the per-qubit gate sequence of layer k; entangling
    layer k sits between rotation layers k and k+1.  Parameter slots are
    numbered layer-major, qubit-minor, in gate order.
    """

    n_qubits: int
    rotation_layers: tuple[tuple[str, ...], ...]
    entangler_layers: tuple[EntanglerLayer, ...]

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError("need at least one qubit")
        if len(self.rotation_layers) < 1:
            raise ValueError("need at least one rotation layer")
        if len(self.entangler_layers) >= len(self.rotation_layers):
            raise ValueError("every entangling layer must sit between rotation layers")
        for pattern in self.rotation_layers:
            for gate in pattern:
                if gate not in ("rx", "rz"):
                    raise ValueError(f"unknown rotation gate {gate!r}")
        for layer in self.entangler_layers:
            if layer.max_qubit() >= self.n_qubits:
                raise ValueError("entangler uses a qubit outside the register")

    @property
    def parameter_count(self) -> int:
        return self.n_qubits * sum(len(p) for p in self.rotation_layers)

    def instructions(self):
        """Yield gates in program order.

        Items are ("rx"|"rz", qubit, slot), ("cnot", control, target), or
        ("tick",) marking the end of one entangler sub-covering (one unit of
        two-qubit gate time).
        """
        slot = 0
        for k, pattern in enumerate(self.rotation_layers):
            for qubit in range(self.n_qubits):
                for gate in pattern:
                    yield (gate, qubit, slot)
                    slot += 1
            if k < len(self.entangler_layers):
                for covering in self.entangler_layers[k].sub_coverings:
                    for control, target in covering:
                        yield ("cnot", control, target)
                    yield ("tick",)


def entangler_dc2(layer_index: int) -> EntanglerLayer:
    """Two-CNOT layer: one plaquette matching, alternating with layer parity."""
    if layer_index < 0:
        raise ValueError("layer_index must be nonnegative")
    matching = MATCHING_A if layer_index % 2 == 0 else MATCHING_B
    return EntanglerLayer((matching,))


def entangler_dc4() -> EntanglerLayer:
    """Four-CNOT layer: both plaquette matchings applied in sequence."""
    return EntanglerLayer((MATCHING_A, MATCHING_B))


def pairwise_mutual_information(dist: TargetDistribution) -> np.ndarray:
    """Mutual information (nats) between every pair of bits of ``dist``.

    Computed from exact two-bit marginals; 0*log(0) is taken as 0.  The
    diagonal is zero.
    """
    n = dist.n_bits
    if n < 2:
        raise ValueError("need a distribution over at least 2 bits")
    index = np.arange(2**n)
    bits = (index[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1
    mi = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            joint = np.zeros((2, 2))
            np.add.at(joint, (bits[:, i], bits[:, j]), dist.probs)
            marginal = np.outer(joint.sum(axis=1), joint.sum(axis=0))
            mask = joint > 0.0
            value = float(np.sum(joint[mask] * np.log(joint[mask] / marginal[mask])))
            mi[i, j] = mi[j, i] = value
    return mi


def _max_weight_spanning_tree(weights: np.ndarray) -> list[tuple[int, int]]:
    """Kruskal over edges sorted by (-weight, edge); ties break toward the
    lexicographically smallest edge list."""
    n = weights.shape[0]
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges.sort(key=lambda e: (-weights[e], e))
    tree = []
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            tree.append((u, v))
    return tree


def _disjoint_split(edges: list[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """First-fit split of an edge list into vertex-disjoint groups."""
    groups: list[list[tuple[int, int]]] = []
    occupied: list[set[int]] = []
    for edge in edges:
        for group, used in zip(groups, occupied):
            if edge[0] not in used and edge[1] not in used:
                group.append(edge)
                used.update(edge)
                break
        else:
            groups.append([edge])
            occupied.append(set(edge))
    return groups


def chow_liu_layer(dist: TargetDistribution, root: int = 0) -> EntanglerLayer:
    """Entangling layer from the maximum-mutual-information spanning tree.

    Edges are directed parent -> child away from ``root`` and grouped by tree
    depth; each depth level is further split into vertex-disjoint
    sub-coverings.  A distribution with an all-zero MI matrix (for example a
    point mass) still yields the lexicographic spanning tree.
    """
    n = dist.n_bits
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range for {n} bits")
    tree = _max_weight_spanning_tree(pairwise_mutual_information(dist))

    adjacency: dict[int, set[int]] = {v: set() for v in range(n)}
    for u, v in tree:
        adjacency[u].add(v)
        adjacency[v].add(u)
    depth = {root: 0}
    frontier = [root]
    directed: list[tuple[int, int, int]] = []  # (child depth, parent, child)
    while frontier:
        nxt = []
        for u in frontier:
            for v in sorted(adjacency[u]):
                if v not in depth:
                    depth[v] = depth[u] + 1
                    directed.append((depth[v], u, v))
                    nxt.append(v)
        frontier = nxt

    coverings: list[tuple[tuple[int, int], ...]] = []
    for level in sorted({d for d, _, _ in directed}):
        level_edges = sorted((u, v) for d, u, v in directed if d == level)
        for group in _disjoint_split(level_edges):
            coverings.append(tuple(group))
    return EntanglerLayer(tuple(coverings))


def parse_edge_list(text: str) -> tuple[tuple[int, int], ...]:
    """Parse an edge list such as "0-1,0-2,0-3" into (control, target) pairs."""
    edges = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        parts = token.split("-")
        if len(parts) != 2:
            raise ValueError(f"bad edge {token!r}, expected 'u-v'")
        edges.append((int(parts[0]), int(parts[1])))
    if not edges:
        raise ValueError("empty edge list")
    return tuple(edges)


def format_edge_list(edges) -> str:
    return ",".join(f"{u}-{v}" for u, v in edges)


def layer_from_edges(edges) -> EntanglerLayer:
    """Entangling layer from explicit directed edges, split into
    vertex-disjoint sub-coverings in the listed order."""
    groups = _disjoint_split(list(edges))
    return EntanglerLayer(tuple(tuple(g) for g in groups))


def entangler_layer(
    d_c: int,
    layer_index: int = 0,
    chow_liu_source: TargetDistribution | None = None,
    dc3_edges=None,
) -> EntanglerLayer:
    """The built-in 4-qubit entangling layer with ``d_c`` CNOTs at position
    ``layer_index`` of the stack: none for 0, the alternating matchings for 2,
    the spanning tree of ``chow_liu_source`` (or explicit ``dc3_edges``) for 3
    and both matchings for 4."""
    if d_c == 0:
        return EntanglerLayer(())
    if d_c == 2:
        return entangler_dc2(layer_index)
    if d_c == 4:
        return entangler_dc4()
    if d_c != 3:
        raise ValueError(f"d_c must be one of 0, 2, 3, 4, got {d_c}")
    if dc3_edges is not None:
        return layer_from_edges(dc3_edges)
    if chow_liu_source is None:
        raise ValueError("d_c=3 needs a chow_liu_source distribution or explicit dc3_edges")
    return chow_liu_layer(chow_liu_source)


def build_circuit(
    n_qubits: int,
    d_c: int,
    n_layers: int,
    chow_liu_source: TargetDistribution | None = None,
    dc3_edges=None,
) -> CircuitSpec:
    """Assemble the benchmark ansatz.

    ``d_c`` selects the built-in 4-qubit entangling layers (see
    ``entangler_layer``).  ``n_layers`` repeats the entangling layer that many
    times, with one more rotation layer than entangling layers;
    ``n_layers == 0`` keeps two rotation layers so the parameter space matches
    the single-layer case.
    """
    if n_layers < 0:
        raise ValueError("n_layers must be nonnegative")
    if d_c != 0 and n_layers == 0:
        raise ValueError(f"d_c = {d_c} needs n_layers >= 1")
    if d_c != 0 and n_qubits != 4:
        raise ValueError(
            f"built-in entangling layers are defined on 4 qubits, got {n_qubits} for d_c = {d_c}"
        )
    # only d_c = 2 alternates, so each distinct layer (a Chow-Liu tree too) is built once
    period = 2 if d_c == 2 else 1
    cycle = [entangler_layer(d_c, i, chow_liu_source, dc3_edges) for i in range(period)]
    layers = tuple(cycle[i % period] for i in range(n_layers))
    if n_layers == 0:
        patterns = (_FIRST_LAYER, _LAST_LAYER)
    else:
        patterns = (_FIRST_LAYER,) + (_MIDDLE_LAYER,) * (n_layers - 1) + (_LAST_LAYER,)
    return CircuitSpec(n_qubits, patterns, layers)


# ---------------------------------------------------------------------------
# Coupling graphs and embedding


@dataclass(frozen=True)
class CouplingGraph:
    """Undirected hardware connectivity graph."""

    n_physical: int
    edges: frozenset[tuple[int, int]]
    name: str = ""

    def __post_init__(self) -> None:
        normalized = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop on vertex {u}")
            if not (0 <= u < self.n_physical and 0 <= v < self.n_physical):
                raise ValueError(f"edge ({u}, {v}) outside {self.n_physical} vertices")
            normalized.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(normalized))

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in range(self.n_physical)}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj


def preset_graph(name: str) -> CouplingGraph:
    """Built-in graphs: ``plaquette4`` (the square plaquette 0-1-3-2) and
    ``ladder2xK`` (a two-rung ladder with K columns)."""
    if name == "plaquette4":
        return CouplingGraph(4, frozenset({(0, 1), (1, 3), (2, 3), (0, 2)}), "plaquette4")
    match = re.fullmatch(r"ladder2x(\d+)", name)
    if match:
        k = int(match.group(1))
        if k < 2:
            raise ValueError("ladder needs at least 2 columns")
        edges = set()
        for i in range(k - 1):
            edges.add((i, i + 1))
            edges.add((k + i, k + i + 1))
        for i in range(k):
            edges.add((i, k + i))
        return CouplingGraph(2 * k, frozenset(edges), name)
    raise ValueError(f"unknown graph preset {name!r}")


def load_coupling_graph(path) -> CouplingGraph:
    """Read a graph from an edge-list file: first line ``n <vertex_count>``,
    then one ``u v`` pair per line.  Blank lines and ``#`` comments allowed."""
    path = Path(path)
    lines = []
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise ValueError(f"{path}: empty graph file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "n":
        raise ValueError(f"{path}: first line must be 'n <vertex_count>'")
    n = int(head[1])
    edges = set()
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}: bad edge line {line!r}")
        edges.add((int(parts[0]), int(parts[1])))
    return CouplingGraph(n, frozenset(edges), path.stem)


def embed_layer(layer: EntanglerLayer, graph: CouplingGraph) -> dict[int, int] | None:
    """Injective map of layer qubits onto graph vertices such that every CNOT
    lands on a graph edge, or None when no such map exists.

    Backtracking search in ascending logical order with degree pruning; the
    first (lexicographically smallest) mapping is returned, so the result is
    deterministic.
    """
    logical_edges = {(min(c, t), max(c, t)) for c, t in layer.edges}
    n_logical = layer.max_qubit() + 1
    if n_logical <= 0:
        return {}
    if n_logical > graph.n_physical:
        return None

    logical_adj: dict[int, set[int]] = {v: set() for v in range(n_logical)}
    for u, v in logical_edges:
        logical_adj[u].add(v)
        logical_adj[v].add(u)
    physical_adj = graph.adjacency()

    mapping: dict[int, int] = {}
    used: set[int] = set()

    def extend(v: int) -> bool:
        if v == n_logical:
            return True
        needed = logical_adj[v]
        for p in range(graph.n_physical):
            if p in used or len(physical_adj[p]) < len(needed):
                continue
            if any(u in mapping and mapping[u] not in physical_adj[p] for u in needed):
                continue
            mapping[v] = p
            used.add(p)
            if extend(v + 1):
                return True
            del mapping[v]
            used.remove(p)
        return False

    return dict(mapping) if extend(0) else None


def classify_pixel_pair(shape: ImageShape, u: int, v: int) -> str:
    """'local' when the two pixels are grid neighbours, else 'non-local'."""
    for pixel in (u, v):
        if not 0 <= pixel < shape.n_bits:
            raise ValueError(f"pixel {pixel} is outside the {shape.rows}x{shape.cols} image")
    ru, cu = divmod(u, shape.cols)
    rv, cv = divmod(v, shape.cols)
    return "local" if abs(ru - rv) + abs(cu - cv) == 1 else "non-local"
