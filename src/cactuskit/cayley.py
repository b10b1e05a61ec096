"""Windowed Cayley graphs of the degree-3 group and its dihedral subgroup.

Vertices are canonical forms of word length at most the window radius; edges
come from right multiplication by a generator, kept when both endpoints stay
in the window.  Every generator is an involution, so each edge pair collapses
to one undirected edge, stored with endpoints in sorted order.
"""

from __future__ import annotations

from bisect import bisect_left

from .degree3 import CanonicalForm, canonicalize, mul
from .words import Generator, PresentationSpec, Word, _setfield, _Value

GROUP_FULL = "J3"
GROUP_DIHEDRAL = "J3_2"

# Each group's generators with their one-letter canonical forms.
_GENERATORS = {
    group: [(g, canonicalize(Word(3, (g,)))) for g in spec.generators()]
    for group, spec in (
        (GROUP_FULL, PresentationSpec(3, "full")),
        (GROUP_DIHEDRAL, PresentationSpec(3, frozenset({2}))),
    )
}

Edge = tuple[CanonicalForm, CanonicalForm, Generator]


class CayleyGraph(_Value):
    """A window of a Cayley graph; ``degree_of`` bisects the sorted ``vertices``."""

    __slots__ = _fields = ("group", "radius", "vertices", "edges")

    def __init__(
        self, group: str, radius: int, vertices: tuple[CanonicalForm, ...], edges: tuple[Edge, ...]
    ) -> None:
        _setfield(self, "group", group)
        _setfield(self, "radius", radius)
        _setfield(self, "vertices", vertices)
        _setfield(self, "edges", edges)

    def degree_of(self, v: CanonicalForm) -> int:
        """Number of edges at v: one per generator whose product with v stays
        in the window (every generator is an involution), 0 off the window."""
        if not self._has(v):
            return 0
        return sum(self._has(mul(v, gf)) for _, gf in _GENERATORS[self.group])

    def _has(self, v: CanonicalForm) -> bool:
        i = bisect_left(self.vertices, v)
        return i < len(self.vertices) and self.vertices[i] == v


def _window_vertices(group: str, radius: int) -> list[CanonicalForm]:
    out = [CanonicalForm(m, 0) for m in range(-radius, radius + 1)]
    if group == GROUP_FULL:
        out += [CanonicalForm(m, 1) for m in range(-(radius - 1), radius)]
    return sorted(out)


def build_window(group: str, radius: int) -> CayleyGraph:
    """All elements of word length <= radius with generator-labeled edges."""
    if group not in _GENERATORS:
        raise ValueError(f"unknown group tag {group!r}; expected J3 or J3_2")
    if type(radius) is not int:
        raise ValueError(f"radius must be an int, got {radius!r}")
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    vertices = _window_vertices(group, radius)
    in_window = set(vertices)
    edges = []
    for v in vertices:
        for g, gf in _GENERATORS[group]:
            w = mul(v, gf)
            if w in in_window and v < w:
                edges.append((v, w, g))
    edges.sort(key=lambda e: (e[0], e[1], str(e[2])))
    return CayleyGraph(group, radius, tuple(vertices), tuple(edges))


def export_json(g: CayleyGraph) -> str:
    import json  # here, so that importing the package does not load json
    index = {v: i for i, v in enumerate(g.vertices)}
    payload = {
        "group": g.group,
        "radius": g.radius,
        "nodes": [
            {"id": i, "m": v.m, "eps": v.eps, "label": str(v)}
            for i, v in enumerate(g.vertices)
        ],
        "edges": [
            {"src": index[src], "dst": index[dst], "gen": str(gen)}
            for src, dst, gen in g.edges
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def export_dot(g: CayleyGraph) -> str:
    lines = [f'graph "{g.group}" {{']
    for v in g.vertices:
        lines.append(f'  "{v}";')
    for src, dst, gen in g.edges:
        lines.append(f'  "{src}" -- "{dst}" [label="{gen}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
