"""Windowed Cayley graphs of the degree-3 group and its dihedral subgroup.

Vertices are the canonical forms of word length at most the window radius, in
``(m, eps)`` order.  An edge ``(src, dst, gen)`` with ``src < dst`` joins v and
v gen when both lie in the window (every generator is an involution); edges are
sorted by ``(src, dst, str(gen))``.  A graph keeps each vertex's ``(m, eps)``
as the int ``2m + eps``, which orders as ``(m, eps)`` does, in a frozenset:
the constructor checks edge endpoints against it and ``degree_of`` looks
vertices up in it.  ``export_json`` writes the layout of
``json.dumps(payload, indent=2)`` itself, without loading ``json``.
"""

from __future__ import annotations

from .degree3 import CanonicalForm, _alt_concat, canonicalize, mul
from .words import Generator, Word, _setters, _Value, all_generators

GROUP_FULL = "J3"
GROUP_DIHEDRAL = "J3_2"

# Each group's generators with their one-letter canonical forms: J3 takes all
# three, and J3_2 the two that reverse neighbouring positions, s1,2 and s2,3.
_GENERATORS = {GROUP_FULL: [(g, canonicalize(Word(3, (g,)))) for g in all_generators(3)]}
_GENERATORS[GROUP_DIHEDRAL] = [(g, c) for g, c in _GENERATORS[GROUP_FULL] if g.q - g.p == 1]

Edge = tuple[CanonicalForm, CanonicalForm, Generator]


def _check_window(group: str, radius: int) -> None:
    if group not in _GENERATORS:
        raise ValueError(f"unknown group tag {group!r}; expected J3 or J3_2")
    if type(radius) is not int:
        raise ValueError(f"radius must be an int, got {radius!r}")
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")


class CayleyGraph(_Value):
    """A window of a Cayley graph whose edges join two of its ``vertices``,
    which must be sorted and distinct; ``degree_of`` looks vertices up by key."""

    # _keys, each vertex's 2m + eps, is not a field.
    __slots__ = ("group", "radius", "vertices", "edges", "_keys")
    _fields = ("group", "radius", "vertices", "edges")

    def __init__(
        self, group: str, radius: int, vertices: tuple[CanonicalForm, ...], edges: tuple[Edge, ...]
    ) -> None:
        _check_window(group, radius)
        vertices = tuple(vertices)
        edges = tuple(map(tuple, edges))
        # The keys strictly increase exactly when the vertices are sorted and
        # distinct, and looking one up builds no tuple and calls no
        # Python-level __hash__.
        keys = []
        prev = None  # the previous vertex
        # The exports write labels unescaped; these types' labels need no escaping.
        for v in vertices:
            if type(v) is not CanonicalForm:
                raise ValueError(f"vertex must be a CanonicalForm, got {v!r}")
            key = 2 * v.m + v.eps
            if keys and key <= keys[-1]:
                raise ValueError(f"vertices must be sorted and distinct, got {v} after {prev}")
            keys.append(key)
            prev = v
        keys = frozenset(keys)
        for src, dst, gen in edges:
            if type(src) is not CanonicalForm or type(dst) is not CanonicalForm:
                raise ValueError(f"edge endpoints must be CanonicalForms, got {src!r} and {dst!r}")
            if 2 * src.m + src.eps not in keys or 2 * dst.m + dst.eps not in keys:
                raise ValueError(f"edge {src} -- {dst} does not join two vertices of the window")
            if type(gen) is not Generator:
                raise ValueError(f"edge label must be a Generator, got {gen!r}")
        _set_group(self, group)
        _set_radius(self, radius)
        _set_vertices(self, vertices)
        _set_edges(self, edges)
        _set_keys(self, keys)

    def degree_of(self, v: CanonicalForm) -> int:
        """Number of edges at v: one per generator whose product with v stays
        in the window (every generator is an involution), 0 off the window."""
        if type(v) is not CanonicalForm:
            raise ValueError(f"vertex must be a CanonicalForm, got {v!r}")
        keys = self._keys
        if 2 * v.m + v.eps not in keys:
            return 0
        ends = [mul(v, gf) for _, gf in _GENERATORS[self.group]]
        return sum(2 * w.m + w.eps in keys for w in ends)


_set_group, _set_radius, _set_vertices, _set_edges, _set_keys = _setters(CayleyGraph)


def build_window(group: str, radius: int) -> CayleyGraph:
    """All elements of word length <= radius with generator-labeled edges."""
    _check_window(group, radius)
    eps_range = (0, 1) if group == GROUP_FULL else (0,)
    ms = range(-radius, radius + 1)
    vertices = [CanonicalForm(m, eps) for m in ms for eps in eps_range if abs(m) + eps <= radius]
    at = {(v.m, v.eps): v for v in vertices}
    # (m, eps) g = (m, 0) t with t = (0, eps) g, whose key is (_alt_concat(m, t.m), t.eps).
    gens = _GENERATORS[group]
    steps = [[(mul(CanonicalForm(0, eps), gf), str(g), g) for g, gf in gens] for eps in (0, 1)]
    edges = []
    # The vertices come sorted, so sorting each one's edges by (dst, str(gen)) sorts all.
    for v in vertices:
        src = (v.m, v.eps)
        ends = []
        for t, label, g in steps[v.eps]:
            dst = (_alt_concat(v.m, t.m), t.eps)
            if dst > src and dst in at:
                ends.append((dst, label, g))
        ends.sort()
        edges += [(v, at[dst], g) for dst, _, g in ends]
    return CayleyGraph(group, radius, tuple(vertices), tuple(edges))


def _json_list(items: list[str]) -> str:
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def export_json(g: CayleyGraph) -> str:
    index = {(v.m, v.eps): i for i, v in enumerate(g.vertices)}
    nodes = [
        f'    {{\n      "id": {i},\n      "m": {v.m},\n      "eps": {v.eps},\n'
        f'      "label": "{v}"\n    }}'
        for i, v in enumerate(g.vertices)
    ]
    edges = [
        f'    {{\n      "src": {index[src.m, src.eps]},\n      "dst": {index[dst.m, dst.eps]},\n'
        f'      "gen": "{gen}"\n    }}'
        for src, dst, gen in g.edges
    ]
    head = f'{{\n  "group": "{g.group}",\n  "radius": {g.radius},\n'
    return head + f'  "nodes": {_json_list(nodes)},\n  "edges": {_json_list(edges)}\n}}\n'


def export_dot(g: CayleyGraph) -> str:
    label = {(v.m, v.eps): f'"{v}"' for v in g.vertices}
    nodes = [f"  {label[v.m, v.eps]};" for v in g.vertices]
    edges = [
        f'  {label[src.m, src.eps]} -- {label[dst.m, dst.eps]} [label="{gen}"];'
        for src, dst, gen in g.edges
    ]
    return "\n".join([f'graph "{g.group}" {{', *nodes, *edges, "}"]) + "\n"
