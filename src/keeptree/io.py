"""Graph file formats: canonical edge-list text, GraphML import, DOT export.

Edge-list format: optional comment lines starting with '#', then a line
holding the vertex count n, then one line "u v" per edge with 0-indexed
endpoints.  Self-loops and duplicate edges are rejected.
"""

from __future__ import annotations

from pathlib import Path

from .errors import ParseError
from .graphs import Graph, Tree

__all__ = [
    "parse_edge_list",
    "format_edge_list",
    "parse_graphml",
    "to_dot",
    "load_graph",
    "load_tree",
]


def parse_edge_list(text: str) -> Graph:
    """Parse the canonical edge-list format, reporting errors with line numbers."""
    n: int | None = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 1:
                raise ParseError(f"line {lineno}: expected vertex count, got {line!r}")
            try:
                n = int(fields[0])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: vertex count must be an integer") from exc
            if n < 0:
                raise ParseError(f"line {lineno}: vertex count must be non-negative")
            continue
        if len(fields) != 2:
            raise ParseError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: endpoints must be integers") from exc
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"line {lineno}: endpoint out of range 0..{n - 1}")
        if u == v:
            raise ParseError(f"line {lineno}: self-loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ParseError(f"line {lineno}: duplicate edge ({u}, {v})")
        seen.add(key)
        edges.append((u, v))
    if n is None:
        raise ParseError("missing vertex count line")
    return Graph(n, edges)


def format_edge_list(g: Graph, comment: str | None = None) -> str:
    """Canonical edge-list text: sorted edges, one per line."""
    lines = []
    if comment:
        for row in comment.splitlines():
            lines.append(f"# {row}")
    lines.append(str(g.n))
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def _local_name(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def parse_graphml(text: str) -> Graph:
    """Import a GraphML document (node/edge elements only).

    Node ids are mapped to 0..n-1 in document order.
    """
    import xml.etree.ElementTree as ET  # only GraphML input needs the XML parser

    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ParseError(f"invalid GraphML: {exc}") from exc
    ids: dict[str, int] = {}
    edges: list[tuple[str, str]] = []
    for elem in root.iter():
        name = _local_name(elem.tag)
        if name == "node":
            node_id = elem.get("id")
            if node_id is None:
                raise ParseError("GraphML node without id")
            if node_id in ids:
                raise ParseError(f"GraphML duplicate node id {node_id!r}")
            ids[node_id] = len(ids)
        elif name == "edge":
            source, target = elem.get("source"), elem.get("target")
            if source is None or target is None:
                raise ParseError("GraphML edge without source/target")
            edges.append((source, target))
    mapped = []
    for source, target in edges:
        if source not in ids or target not in ids:
            raise ParseError(f"GraphML edge references unknown node ({source}, {target})")
        mapped.append((ids[source], ids[target]))
    try:
        return Graph(len(ids), mapped)
    except ValueError as exc:
        raise ParseError(f"invalid GraphML graph: {exc}") from exc


def to_dot(g: Graph) -> str:
    """DOT text for visualization; vertices listed explicitly, edges sorted."""
    lines = ["graph keeptree {"]
    lines.extend(f"  {v};" for v in g.vertices())
    lines.extend(f"  {u} -- {v};" for u, v in g.edges())
    lines.append("}")
    return "\n".join(lines) + "\n"


def load_graph(path: str | Path) -> Graph:
    """Load a graph file, dispatching on the .graphml extension."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {p}: {exc}") from exc
    if p.suffix.lower() == ".graphml":
        return parse_graphml(text)
    return parse_edge_list(text)


def load_tree(path: str | Path) -> Tree:
    """Load a tree from an edge-list file; bipartition and maximum degree
    are always computed, never user-supplied."""
    g = load_graph(path)
    try:
        return Tree(g)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc
