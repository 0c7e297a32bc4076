import itertools
import math

import numpy as np
import pytest

from bornbench import (
    CircuitSpec,
    CouplingGraph,
    EntanglerLayer,
    ImageShape,
    TargetDistribution,
    bas_target_distribution,
    build_circuit,
    chow_liu_layer,
    classify_pixel_pair,
    circuit_probabilities,
    embed_layer,
    entangler_dc2,
    entangler_dc4,
    layer_from_edges,
    load_coupling_graph,
    pairwise_mutual_information,
    preset_graph,
)
from bornbench import ansatz
from bornbench.ansatz import entangler_layer

PLAQUETTE_EDGES = {(0, 1), (1, 3), (2, 3), (0, 2)}


@pytest.mark.parametrize(
    "d_c,layers,expected",
    [(2, 2, 28), (4, 1, 16), (0, 0, 16), (3, 2, 28), (2, 1, 16), (3, 1, 16), (4, 2, 28)],
)
def test_parameter_counts(d_c, layers, expected, target22):
    source = target22 if d_c == 3 else None
    circuit = build_circuit(4, d_c, layers, chow_liu_source=source)
    assert circuit.parameter_count == expected


@pytest.mark.parametrize("layers", [1, 2, 3, 4])
def test_parameter_count_formula(layers):
    # R = n (3L + 1) for L >= 1
    circuit = build_circuit(4, 2, layers)
    assert circuit.parameter_count == 4 * (3 * layers + 1)


def test_rotation_layer_structure():
    circuit = build_circuit(4, 2, 2)
    assert len(circuit.rotation_layers) == 3
    assert circuit.rotation_layers[0] == ("rx", "rz")
    assert circuit.rotation_layers[1] == ("rz", "rx", "rz")
    assert circuit.rotation_layers[2] == ("rz", "rx")
    # L = 0 keeps two rotation layers so the parameter space matches L = 1
    baseline = build_circuit(4, 0, 0)
    assert len(baseline.rotation_layers) == 2
    assert baseline.entangler_layers == ()


def test_parameter_slots_layer_major():
    circuit = build_circuit(4, 2, 1)
    gates = [i for i in circuit.instructions() if i[0] in ("rx", "rz")]
    slots = [g[2] for g in gates]
    assert slots == list(range(circuit.parameter_count))
    # first layer: (rx, rz) per qubit in qubit order
    assert [g[:2] for g in gates[:8]] == [
        ("rx", 0), ("rz", 0), ("rx", 1), ("rz", 1),
        ("rx", 2), ("rz", 2), ("rx", 3), ("rz", 3),
    ]


def test_dc2_alternation():
    assert entangler_dc2(0).sub_coverings == (((0, 1), (2, 3)),)
    assert entangler_dc2(1).sub_coverings == (((0, 2), (1, 3)),)
    assert entangler_dc2(2).sub_coverings == entangler_dc2(0).sub_coverings
    for index in range(4):
        layer = entangler_dc2(index)
        assert layer.d_c == 2
        assert {tuple(sorted(e)) for e in layer.edges} <= PLAQUETTE_EDGES


def test_dc4_structure():
    layer = entangler_dc4()
    assert len(layer.sub_coverings) == 2
    assert all(len(c) == 2 for c in layer.sub_coverings)
    assert layer.d_c == 4
    assert {tuple(sorted(e)) for e in layer.edges} == PLAQUETTE_EDGES


def test_subcoverings_must_be_disjoint():
    with pytest.raises(ValueError):
        EntanglerLayer((((0, 1), (1, 2)),))
    with pytest.raises(ValueError):
        EntanglerLayer((((0, 0),),))


def test_mutual_information_independent_bits():
    uniform = TargetDistribution(3, np.full(8, 1.0 / 8.0))
    mi = pairwise_mutual_information(uniform)
    assert np.allclose(mi, 0.0, atol=1e-14)


def test_mutual_information_bas22(target22):
    # brute-force oracle: accumulate the joint of a bit pair over the 6 states
    def oracle(i, j):
        joint = np.zeros((2, 2))
        for state, prob in zip(range(16), target22.probs):
            if prob > 0:
                bi = (state >> (3 - i)) & 1
                bj = (state >> (3 - j)) & 1
                joint[bi, bj] += prob
        total = 0.0
        for a in (0, 1):
            for b in (0, 1):
                if joint[a, b] > 0:
                    total += joint[a, b] * math.log(
                        joint[a, b] / (joint[a].sum() * joint[:, b].sum())
                    )
        return total

    mi = pairwise_mutual_information(target22)
    pairs = list(itertools.combinations(range(4), 2))
    for i, j in pairs:
        assert mi[i, j] == pytest.approx(oracle(i, j), abs=1e-12)
    assert mi[0, 1] == pytest.approx(0.0566, abs=5e-4)
    # bars/stripes symmetry: every pixel pair carries the same information
    values = [mi[i, j] for i, j in pairs]
    assert np.allclose(values, values[0], atol=1e-12)
    assert np.allclose(np.diag(mi), 0.0)


def test_chow_liu_star(target22):
    layer = chow_liu_layer(target22, root=0)
    assert {tuple(sorted(e)) for e in layer.edges} == {(0, 1), (0, 2), (0, 3)}
    assert all(edge[0] == 0 for edge in layer.edges)  # directed away from the root
    assert layer.d_c == 3
    kinds = [classify_pixel_pair(ImageShape(2, 2), u, v) for u, v in layer.edges]
    assert kinds.count("local") == 2 and kinds.count("non-local") == 1


def test_chow_liu_spanning_tree_properties():
    rng = np.random.default_rng(5)
    for n_bits in (3, 4, 5):
        probs = rng.dirichlet(np.ones(2**n_bits))
        dist = TargetDistribution(n_bits, probs)
        layer = chow_liu_layer(dist, root=0)
        edges = [tuple(sorted(e)) for e in layer.edges]
        assert len(edges) == n_bits - 1
        assert len(set(edges)) == n_bits - 1
        # connected and acyclic via union-find
        parent = list(range(n_bits))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for u, v in edges:
            ru, rv = find(u), find(v)
            assert ru != rv  # acyclic
            parent[ru] = rv
        assert len({find(v) for v in range(n_bits)}) == 1  # connected


def test_chow_liu_degenerate_distribution():
    point = np.zeros(16)
    point[0] = 1.0
    layer = chow_liu_layer(TargetDistribution(4, point), root=0)
    assert layer.edges == ((0, 1), (0, 2), (0, 3))  # still the lexicographic spanning tree


def test_build_circuit_deterministic(target22):
    a = build_circuit(4, 3, 2, chow_liu_source=target22)
    b = build_circuit(4, 3, 2, chow_liu_source=target22)
    assert a == b


@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("d_c", [0, 2, 3, 4])
def test_build_circuit_matches_the_layer_by_layer_stack(d_c, layers, target22):
    # the stack as built before each distinct layer was reused: one
    # entangler_layer call per layer index
    patterns = (("rx", "rz"),) + (("rz", "rx", "rz"),) * (layers - 1) + (("rz", "rx"),)
    stack = tuple(entangler_layer(d_c, i, target22) for i in range(layers))
    expected = CircuitSpec(4, patterns, stack)
    assert build_circuit(4, d_c, layers, chow_liu_source=target22) == expected
    edges = [(0, 2), (1, 2), (2, 3)]
    if d_c == 3:  # explicit edges take the place of the Chow-Liu tree
        stack = tuple(entangler_layer(3, i, dc3_edges=edges) for i in range(layers))
        assert build_circuit(4, 3, layers, dc3_edges=edges) == CircuitSpec(4, patterns, stack)


def test_chow_liu_tree_is_built_once_per_circuit(target22, monkeypatch):
    calls = []

    def counting(source):
        calls.append(source)
        return chow_liu_layer(source)

    monkeypatch.setattr(ansatz, "chow_liu_layer", counting)
    circuit = build_circuit(4, 3, 2, chow_liu_source=target22)
    assert calls == [target22]
    assert circuit.entangler_layers == (chow_liu_layer(target22),) * 2


def test_build_circuit_errors(target22):
    with pytest.raises(ValueError):
        build_circuit(4, 3, 1)  # no Chow-Liu source
    with pytest.raises(ValueError):
        build_circuit(4, 5, 1)
    with pytest.raises(ValueError):
        build_circuit(6, 2, 1)  # built-in layers are 4-qubit only
    with pytest.raises(ValueError):
        build_circuit(4, 2, 0)
    # other registers take explicit layers through the CircuitSpec constructor
    layer = layer_from_edges([(0, 1), (2, 3), (4, 5)])
    patterns = build_circuit(4, 2, 1).rotation_layers
    circuit = CircuitSpec(6, patterns, (layer,))
    assert circuit.n_qubits == 6 and circuit.parameter_count == 24
    assert [i for i in circuit.instructions() if i[0] == "cnot"] == [
        ("cnot", 0, 1),
        ("cnot", 2, 3),
        ("cnot", 4, 5),
    ]
    with pytest.raises(ValueError):
        CircuitSpec(4, patterns, (layer,))  # qubits 4 and 5 lie outside the register


def test_l0_output_is_product(rng):
    circuit = build_circuit(4, 0, 0)
    theta = rng.uniform(0, 2 * np.pi, circuit.parameter_count)
    probs = circuit_probabilities(circuit, theta)
    grid = probs.reshape(2, 2, 2, 2)
    marginals = [grid.sum(axis=tuple(a for a in range(4) if a != k)) for k in range(4)]
    product = marginals[0]
    for m in marginals[1:]:
        product = np.multiply.outer(product, m)
    assert np.allclose(probs, product.reshape(-1), atol=1e-10)


def test_classify_pixel_pairs():
    shape = ImageShape(2, 2)
    local = [(0, 1), (0, 2), (1, 3), (2, 3)]
    nonlocal_ = [(0, 3), (1, 2)]
    for u, v in local:
        assert classify_pixel_pair(shape, u, v) == "local"
    for u, v in nonlocal_:
        assert classify_pixel_pair(shape, u, v) == "non-local"


def test_classify_pixel_pair_rejects_pixels_outside_the_image():
    for u, v in [(0, 4), (5, 1), (-1, 0)]:
        with pytest.raises(ValueError, match="outside the 2x2 image"):
            classify_pixel_pair(ImageShape(2, 2), u, v)
    assert classify_pixel_pair(ImageShape(2, 4), 0, 4) == "local"


# -- embedding ---------------------------------------------------------------


def brute_force_embed(layer, graph):
    """Oracle: try every injection of logical onto physical vertices."""
    edges = {tuple(sorted(e)) for e in layer.edges}
    n_logical = layer.max_qubit() + 1
    for mapping in itertools.permutations(range(graph.n_physical), n_logical):
        if all(
            (min(mapping[u], mapping[v]), max(mapping[u], mapping[v])) in graph.edges
            for u, v in edges
        ):
            return dict(enumerate(mapping))
    return None


def test_embed_dc4_into_plaquette():
    mapping = embed_layer(entangler_dc4(), preset_graph("plaquette4"))
    assert mapping == {0: 0, 1: 1, 2: 2, 3: 3}


def test_star_not_embeddable_in_plaquette(target22):
    star = chow_liu_layer(target22)
    assert embed_layer(star, preset_graph("plaquette4")) is None


def test_star_embeds_in_ladder(target22):
    star = chow_liu_layer(target22)
    graph = preset_graph("ladder2x3")
    mapping = embed_layer(star, graph)
    assert mapping is not None
    for u, v in star.edges:
        assert (min(mapping[u], mapping[v]), max(mapping[u], mapping[v])) in graph.edges


def test_embed_agrees_with_brute_force(target22):
    layers = [
        entangler_dc2(0),
        entangler_dc2(1),
        entangler_dc4(),
        chow_liu_layer(target22),
        layer_from_edges([(0, 1), (1, 2), (2, 3)]),
    ]
    graphs = [preset_graph("plaquette4"), preset_graph("ladder2x3"), preset_graph("ladder2x4")]
    rng = np.random.default_rng(11)
    for n in (4, 5, 6, 7, 8):
        all_edges = list(itertools.combinations(range(n), 2))
        keep = rng.random(len(all_edges)) < 0.4
        edges = frozenset(e for e, k in zip(all_edges, keep) if k)
        graphs.append(CouplingGraph(n, edges, f"random{n}"))
    for layer in layers:
        for graph in graphs:
            found = embed_layer(layer, graph)
            oracle = brute_force_embed(layer, graph)
            assert (found is None) == (oracle is None), (layer, graph.name)
            if found is not None:
                for u, v in layer.edges:
                    pu, pv = found[u], found[v]
                    assert (min(pu, pv), max(pu, pv)) in graph.edges


def test_graph_presets_and_files(tmp_path):
    plaquette = preset_graph("plaquette4")
    assert plaquette.edges == frozenset({(0, 1), (1, 3), (2, 3), (0, 2)})
    ladder = preset_graph("ladder2x3")
    assert ladder.n_physical == 6
    assert len(ladder.edges) == 7
    with pytest.raises(ValueError):
        preset_graph("triangle")

    path = tmp_path / "graph.txt"
    path.write_text("# comment\nn 3\n0 1\n1 2\n")
    graph = load_coupling_graph(path)
    assert graph.n_physical == 3
    assert graph.edges == frozenset({(0, 1), (1, 2)})

    bad = tmp_path / "bad.txt"
    bad.write_text("3\n0 1\n")
    with pytest.raises(ValueError):
        load_coupling_graph(bad)


def test_coupling_graph_validation():
    with pytest.raises(ValueError):
        CouplingGraph(3, frozenset({(0, 0)}))
    with pytest.raises(ValueError):
        CouplingGraph(3, frozenset({(0, 5)}))
