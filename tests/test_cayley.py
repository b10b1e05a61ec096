import json
from collections import Counter

import pytest

from cactuskit import cayley
from cactuskit.cayley import CayleyGraph, build_window, export_dot, export_json
from cactuskit.degree3 import CanonicalForm, canonicalize, mul, to_word
from cactuskit.words import Generator, Word

# J3 takes every degree-3 generator; J3_2 = <s1,2, s2,3>, its dihedral subgroup.
GENERATORS = {
    "J3": [Generator(1, 2, 3), Generator(1, 3, 3), Generator(2, 3, 3)],
    "J3_2": [Generator(1, 2, 3), Generator(2, 3, 3)],
}


def test_each_group_takes_its_generators():
    for group, gens in GENERATORS.items():
        assert [g for g, _ in cayley._GENERATORS[group]] == gens


def test_zero_radius_window():
    g = build_window("J3_2", 0)
    assert g.vertices == (CanonicalForm(0, 0),)
    assert g.edges == ()


def test_small_dihedral_window_is_a_path():
    g = build_window("J3_2", 2)
    assert sorted(v.m for v in g.vertices) == [-2, -1, 0, 1, 2]
    assert all(v.eps == 0 for v in g.vertices)
    assert len(g.edges) == 4
    assert sorted((src.m, dst.m) for src, dst, _ in g.edges) == [
        (-2, -1),
        (-1, 0),
        (0, 1),
        (1, 2),
    ]


def test_small_full_window():
    g = build_window("J3", 1)
    assert set(g.vertices) == {
        CanonicalForm(0, 0),
        CanonicalForm(1, 0),
        CanonicalForm(-1, 0),
        CanonicalForm(0, 1),
    }
    assert len(g.edges) == 3
    for src, dst, _ in g.edges:
        assert CanonicalForm(0, 0) in (src, dst)


def test_dihedral_window_path_shape():
    g = build_window("J3_2", 10)
    assert len(g.vertices) == 21
    for v in g.vertices:
        expected = 1 if abs(v.m) == 10 else 2
        assert g.degree_of(v) == expected


def test_edges_are_right_multiplications():
    for group in ("J3", "J3_2"):
        g = build_window(group, 4)
        for src, dst, gen in g.edges:
            gf = canonicalize(Word(3, (gen,)))
            assert mul(src, gf) == dst
            assert mul(dst, gf) == src  # involutions give undirected edges


def test_edge_label_is_last_letter_of_longer_endpoint():
    g = build_window("J3_2", 12)
    for src, dst, gen in g.edges:
        longer = src if abs(src.m) > abs(dst.m) else dst
        assert to_word(longer).letters[-1] == gen


def test_full_window_vertex_count():
    g = build_window("J3", 3)
    expected = {(m, e) for e in (0, 1) for m in range(-3 + e, 4 - e)}
    assert {(v.m, v.eps) for v in g.vertices} == expected
    assert len(g.vertices) == 12


def test_build_window_validation():
    with pytest.raises(ValueError):
        build_window("J4", 2)
    with pytest.raises(ValueError):
        build_window("J3_2", -1)
    for radius in (True, 2.0, 2.5, "2"):
        with pytest.raises(ValueError) as info:
            build_window("J3", radius)
        assert str(info.value) == f"radius must be an int, got {radius!r}"


def test_export_json_schema():
    g = build_window("J3_2", 1)
    payload = json.loads(export_json(g))
    assert set(payload) == {"group", "radius", "nodes", "edges"}
    assert payload["group"] == "J3_2"
    assert payload["radius"] == 1
    assert [set(n) for n in payload["nodes"]] == [{"id", "m", "eps", "label"}] * 3
    assert payload["nodes"][0] == {"id": 0, "m": -1, "eps": 0, "label": "(m=-1, eps=0)"}
    assert payload["edges"] == [
        {"src": 0, "dst": 1, "gen": "s2,3"},
        {"src": 1, "dst": 2, "gen": "s1,2"},
    ]
    assert export_json(g).endswith("\n")


def _payload_json(g):
    index = {v: i for i, v in enumerate(g.vertices)}
    payload = {
        "group": g.group,
        "radius": g.radius,
        "nodes": [
            {"id": i, "m": v.m, "eps": v.eps, "label": str(v)} for i, v in enumerate(g.vertices)
        ],
        "edges": [
            {"src": index[src], "dst": index[dst], "gen": str(gen)} for src, dst, gen in g.edges
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def test_export_json_is_the_indented_dump_of_the_payload():
    graphs = [build_window(group, radius) for group in ("J3", "J3_2") for radius in range(31)]
    graphs += [build_window("J3", 720), CayleyGraph("J3_2", 0, (), ())]
    for g in graphs:
        assert export_json(g) == _payload_json(g), (g.group, g.radius)


def _reference_window(group, radius):
    """The window by its definition: every right multiplication by a generator
    with both ends in the window, once per undirected pair."""
    vertices = sorted(
        CanonicalForm(m, eps)
        for eps in ((0, 1) if group == "J3" else (0,))
        for m in range(-radius + eps, radius + 1 - eps)
    )
    in_window = set(vertices)
    edges = []
    for v in vertices:
        for gen in GENERATORS[group]:
            w = mul(v, canonicalize(Word(3, (gen,))))
            if w in in_window and v < w:
                edges.append((v, w, gen))
    edges.sort(key=lambda e: (e[0], e[1], str(e[2])))
    return CayleyGraph(group, radius, vertices, edges)


def test_build_window_matches_its_definition():
    for group in ("J3", "J3_2"):
        for radius in range(41):
            assert build_window(group, radius) == _reference_window(group, radius), (group, radius)


def test_export_json_ids_index_sorted_nodes():
    g = build_window("J3", 2)
    payload = json.loads(export_json(g))
    keys = [(n["m"], n["eps"]) for n in payload["nodes"]]
    assert keys == sorted(keys)
    assert len(payload["nodes"]) == len(g.vertices)
    for e in payload["edges"]:
        assert e["src"] < e["dst"]


def test_export_dot_golden():
    got = export_dot(build_window("J3_2", 1))
    assert got == (
        'graph "J3_2" {\n'
        '  "(m=-1, eps=0)";\n'
        '  "(m=0, eps=0)";\n'
        '  "(m=1, eps=0)";\n'
        '  "(m=-1, eps=0)" -- "(m=0, eps=0)" [label="s2,3"];\n'
        '  "(m=0, eps=0)" -- "(m=1, eps=0)" [label="s1,2"];\n'
        "}\n"
    )


def _dot_lines(g):
    lines = [f'graph "{g.group}" {{']
    lines += [f'  "{v}";' for v in g.vertices]
    lines += [f'  "{src}" -- "{dst}" [label="{gen}"];' for src, dst, gen in g.edges]
    return "\n".join([*lines, "}"]) + "\n"


def test_export_dot_formats_each_label_once(monkeypatch):
    graphs = [build_window(group, radius) for group in ("J3", "J3_2") for radius in range(31)]
    graphs += [build_window("J3", 720), CayleyGraph("J3_2", 0, (), ())]
    for g in graphs:
        assert export_dot(g) == _dot_lines(g), (g.group, g.radius)
    calls = []
    real = CanonicalForm.__str__
    monkeypatch.setattr(CanonicalForm, "__str__", lambda v: calls.append(v) or real(v))
    g = build_window("J3", 720)
    export_dot(g)
    assert calls == list(g.vertices)


def test_exports_are_deterministic():
    a = build_window("J3", 3)
    b = build_window("J3", 3)
    assert a == b
    assert export_dot(a) == export_dot(b)
    assert export_json(a) == export_json(b)


def test_degree_of_counts_incident_edges():
    g = CayleyGraph(
        "J3_2",
        1,
        (CanonicalForm(0, 0), CanonicalForm(1, 0)),
        ((CanonicalForm(0, 0), CanonicalForm(1, 0), to_word(CanonicalForm(1, 0)).letters[0]),),
    )
    assert g.degree_of(CanonicalForm(0, 0)) == 1
    assert g.degree_of(CanonicalForm(1, 0)) == 1


def test_graph_accepts_only_sorted_distinct_vertices():
    # The constructor takes only sorted, distinct vertices, whose keys 2m + eps
    # strictly increase; degree_of looks vertices up by that key.
    for group in ("J3", "J3_2"):
        for radius in range(60):
            g = build_window(group, radius)
            assert CayleyGraph(group, radius, g.vertices, g.edges) == g
    # tests/test_values.py pins the rejection of this graph's vertices reversed.
    g = CayleyGraph("J3_2", 1, (CanonicalForm(-1, 0), CanonicalForm(0, 0), CanonicalForm(1, 0)), ())
    assert [g.degree_of(v) for v in g.vertices] == [1, 2, 1]
    with pytest.raises(ValueError, match="vertices must be sorted and distinct"):
        CayleyGraph("J3", 1, (CanonicalForm(0, 1), CanonicalForm(0, 0)), ())


def test_degree_of_matches_edge_count():
    for group in ("J3", "J3_2"):
        for radius in range(31):
            g = build_window(group, radius)
            ends = Counter(v for src, dst, _ in g.edges for v in (src, dst))
            assert [g.degree_of(v) for v in g.vertices] == [ends[v] for v in g.vertices]
            for outside in (CanonicalForm(radius + 1, 0), CanonicalForm(-radius - 1, 0)):
                assert g.degree_of(outside) == 0
            if group == "J3_2":
                assert g.degree_of(CanonicalForm(0, 1)) == 0


def test_degree_of_rejects_values_that_are_not_canonical_forms():
    g = build_window("J3", 2)
    for bad in ((0, 0), 0, None, "(m=0, eps=0)"):
        with pytest.raises(ValueError) as info:
            g.degree_of(bad)
        assert str(info.value) == f"vertex must be a CanonicalForm, got {bad!r}"
