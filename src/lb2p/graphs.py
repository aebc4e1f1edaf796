"""Graph primitives: parsing, writing, class predicates, traversal.

Vertices are dense 0-based indices.  ``Graph`` is simple and undirected, in
compressed sparse rows: numpy ``indptr`` (n + 1) and ``nbrs``, each vertex's
neighbours sorted, its only representation.  Degrees, edges and the class
tests read the arrays in numpy.  Components come from one numpy kernel, ``_roots``
(hooking and pointer jumping): ``connected_components`` runs it on the graph, and
the 2-colouring of ``bipartition`` and ``classify`` on the bipartite double cover.
``bfs_distances`` keeps a queue of its own.  A ``Graph`` is immutable.

``_scan`` reads a graph or formula file in numpy, with no Python string per line
or token: a header line, then rows of a fixed number of integers.  A plain file
(digits, single spaces and "\\n", as ``serialize_graph`` writes) passes one structure
check and is converted by one ``np.fromstring``; any other is tokenised exactly.
``parse_graph`` and ``nae.parse_nae`` call it.  One numpy pass over the endpoints
(shared with ``Graph.from_edges``) checks range, loops and repeats and sorts the
arcs.  ``serialize_graph`` writes in numpy too (``_format_rows``): digit cells,
with no Python object per endpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, takewhile
from typing import Iterable, Optional, Sequence, Union

import numpy as np

__all__ = [
    "MAX_VERTICES",
    "Graph",
    "Bipartition",
    "ClassReport",
    "GraphFormatError",
    "parse_graph",
    "serialize_graph",
    "bipartition",
    "classify",
    "bfs_distances",
    "connected_components",
]


class GraphFormatError(ValueError):
    """Malformed edge-list document.

    ``kind`` is one of ``header``, ``malformed``, ``range``, ``loop``,
    ``duplicate``, ``truncated``; ``line`` is the 1-based offending line.
    """

    def __init__(self, kind: str, message: str, line: Optional[int] = None):
        self.kind = kind
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


# Vertex counts up to this keep the edge keys u*n+v below 2**63.
MAX_VERTICES = math.isqrt(2**63 - 1)


class _EdgeError(Exception):
    """Edge ``index`` (in input order) is out of ``range``, a ``loop`` or a ``duplicate``."""

    def __init__(self, index: int, kind: str):
        super().__init__(index, kind)
        self.index = index
        self.kind = kind


def _describe(kind: str, u: int, v: int) -> str:
    if kind == "loop":
        return f"self-loop at vertex {u}"
    if kind == "duplicate":
        return f"duplicate edge ({min(u, v)},{max(u, v)})"
    return f"vertex out of range in edge ({u},{v})"


def _int64_rows(rows: Union[np.ndarray, Sequence[Sequence[int]]], width: int) -> np.ndarray:
    """The rows as a (k, width) int64 array, of a (k, width) array or of a
    list of rows flattened, up to the first row that holds a value other
    than an integer.  A value beyond int64 becomes -1."""
    flat = rows.ravel() if isinstance(rows, np.ndarray) else list(chain.from_iterable(rows))
    values = np.asarray(flat)
    if values.dtype.kind != "i":  # floats, strings, ints beyond int64, no value: one by one
        whole = list(takewhile(lambda x: isinstance(x, (int, np.integer)), flat))
        whole = [x if -(2**63) <= x < 2**63 else -1 for x in whole[: len(whole) - len(whole) % width]]
        values = np.array(whole, dtype=np.int64)
    return values.astype(np.int64, copy=False).reshape(-1, width)


def _csr(n: int, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``indptr`` and ``nbrs`` of the edges ``ends`` (int64 pairs) on 0..n-1,
    for 0 <= n <= MAX_VERTICES: the neighbours of v are
    ``nbrs[indptr[v]:indptr[v + 1]]``, sorted.

    Raises ``_EdgeError`` for the first edge, in input order, that leaves
    0..n-1, is a self-loop or repeats an earlier edge.
    """
    stop, kind = len(ends), None
    # Each check looks only at the edges before the first failure so far.
    if stop and (ends.min() < 0 or ends.max() >= n):
        stop, kind = int(((ends < 0) | (ends >= n)).any(axis=1).argmax()), "range"
    u, v = ends[:stop, 0], ends[:stop, 1]
    arcs = np.concatenate((u * n + v, v * n + u))
    arcs.sort()
    if (arcs[1:] == arcs[:-1]).any():  # a loop or a repeated edge repeats an arc
        loops = u == v
        if loops.any():
            stop, kind = int(loops.argmax()), "loop"
        keys = (np.minimum(u, v) * n + np.maximum(u, v))[:stop]
        order = np.argsort(keys, kind="stable")
        repeats = order[1:][keys[order[1:]] == keys[order[:-1]]]
        if len(repeats):
            stop, kind = int(repeats.min()), "duplicate"
    if kind is not None:
        raise _EdgeError(stop, kind)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ends.ravel(), minlength=n), out=indptr[1:])
    if n:
        arcs %= n  # each arc u*n+v becomes its head v
    indptr.flags.writeable = arcs.flags.writeable = False
    return indptr, arcs


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph on vertices 0..n-1 in compressed sparse rows:
    the neighbours of v are ``nbrs[indptr[v]:indptr[v + 1]]``, sorted.

    Both arrays are int64; ``from_edges`` and ``parse_graph`` make them
    read-only.  Two graphs are equal, and hash alike, when they have the
    same n and the same edges; a ``Graph`` never equals a value of another
    type.  The two arrays are the whole representation: nothing is cached.
    """

    n: int
    indptr: np.ndarray
    nbrs: np.ndarray

    def _key(self) -> tuple[int, bytes, bytes]:
        return self.n, self.indptr.tobytes(), self.nbrs.tobytes()

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if isinstance(other, Graph) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    @classmethod
    def from_edges(cls, n: int, edges: Union[np.ndarray, Iterable[tuple[int, int]]]) -> "Graph":
        """The graph of ``edges``: pairs, or an (m, 2) integer array."""
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if n > MAX_VERTICES:
            raise ValueError(f"vertex count {n} exceeds {MAX_VERTICES}")
        array = isinstance(edges, np.ndarray)
        pairs = edges if array else list(edges)
        if len(pairs) and (pairs.shape[1:] != (2,) if array else set(map(len, pairs)) != {2}):
            raise ValueError("every edge must be a pair (u, v)")
        ends = _int64_rows(pairs, 2)
        try:
            csr = _csr(n, ends)  # the edges before a non-integer one, whose faults come first
        except _EdgeError as exc:
            u, v = pairs[exc.index]
            if exc.kind == "range":
                raise ValueError(f"edge ({u},{v}) out of range for n={n}") from None
            raise ValueError(_describe(exc.kind, u, v)) from None
        if len(ends) < len(pairs):
            u, v = pairs[len(ends)]
            raise ValueError(f"non-integer endpoint in edge ({u!r},{v!r})")
        return cls(n, *csr)

    @property
    def m(self) -> int:
        return len(self.nbrs) // 2

    def degree(self, v: int) -> int:
        v = range(self.n)[v]  # a sequence's index rules: negatives wrap, others raise IndexError
        return int(self.indptr[v + 1] - self.indptr[v])

    def degrees(self) -> tuple[int, ...]:
        return tuple(np.diff(self.indptr).tolist())

    def tails(self) -> np.ndarray:
        """The vertex each entry of ``nbrs`` belongs to."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr))

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (min,max) pairs in lexicographic order."""
        tails = self.tails()
        up = tails < self.nbrs
        return list(zip(tails[up].tolist(), self.nbrs[up].tolist()))

    def has_edge(self, u: int, v: int) -> bool:
        u, v = range(self.n)[u], range(self.n)[v]  # the index rules of ``degree``
        return bool(v in self.nbrs[self.indptr[u] : self.indptr[u + 1]])


@dataclass(frozen=True)
class Bipartition:
    """Two disjoint vertex sets covering V; every edge joins side_x to side_y.
    Built by ``bipartition``; the (2,2k+1) solver reads its sides from the
    degree classes instead."""

    side_x: frozenset[int]
    side_y: frozenset[int]


@dataclass(frozen=True)
class ClassReport:
    is_even: bool
    is_odd: bool
    max_degree: int
    biregular: Optional[tuple[int, int]]
    is_bipartite: bool


# Character classes of the tokeniser: 0 a token character, 1 whitespace
# (``str.split``), 2 a line boundary (``str.splitlines``; also whitespace).
# Code points 0..32 are looked up in ``_LOW_CLASS``; every other whitespace
# code point is one of ``_HIGH_CODES``, all at or above 0x85.
_LOW_CLASS = np.zeros(33, dtype=np.uint8)
_LOW_CLASS[[9, 31, 32]] = 1
_LOW_CLASS[[10, 11, 12, 13, 28, 29, 30]] = 2
_HIGH_CODES = np.array(
    [0x85, 0xA0, 0x1680, *range(0x2000, 0x200B), 0x2028, 0x2029, 0x202F, 0x205F, 0x3000], dtype=np.uint32
)
_HIGH_CLASS = np.array([2, 1, 1, *[1] * 11, 2, 2, 1, 1, 1], dtype=np.uint8)


def _tokens(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The code points of ``text`` (uint8 if it is ASCII, else uint32), each
    token's [start, stop) and 0-based line, and the position of each line
    boundary (for a CR LF pair, that of the CR)."""
    if text.isascii():
        codes = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
        pos = np.flatnonzero(codes <= 32)
        cls = _LOW_CLASS[codes[pos]]
    else:
        codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")
        pos = np.flatnonzero((codes <= 32) | (codes >= 0x85))
        chars = codes[pos]
        high = np.searchsorted(_HIGH_CODES, chars).clip(max=len(_HIGH_CODES) - 1)
        high_cls = _HIGH_CLASS[high] * (_HIGH_CODES[high] == chars)
        cls = np.where(chars <= 32, _LOW_CLASS[chars.clip(max=32)], high_cls)
    keep = cls > 0
    # Positions below 2**31 fit in int32, which halves the scan's memory.
    space = pos[keep].astype(np.int32 if len(codes) < 2**31 else np.int64)
    ends_line = cls[keep] == 2
    del pos, cls, keep
    if "\r" in text:  # a "\n" after a "\r" ends no line of its own
        crlf = np.flatnonzero(ends_line)
        at = space[crlf]
        ends_line[crlf[(codes[at] == 10) & (codes[np.maximum(at - 1, 0)] == 13)]] = False
    bounds = np.empty(len(space) + 2, dtype=space.dtype)
    bounds[0], bounds[1:-1], bounds[-1] = -1, space, len(codes)
    gaps = np.flatnonzero(np.diff(bounds) > 1)
    line_of = np.cumsum(np.concatenate(([False], ends_line)), dtype=space.dtype)[gaps]
    return codes, bounds[gaps] + 1, bounds[gaps + 1], line_of, space[ends_line]


def _endpoints(
    text: str, codes: np.ndarray, starts: np.ndarray, stops: np.ndarray
) -> tuple[np.ndarray, Optional[int]]:
    """``int()`` of each token ``text[starts[i]:stops[i]]`` as int64, -1 for a
    value beyond int64, and the index of the first token ``int()`` rejects
    (None if there is none).

    Tokens of at most 18 ASCII digits, all below 2**63, are converted
    together, one digit place at a time over the tokens sorted by length.
    Every other token goes through ``int()``.
    """
    lengths = np.minimum(stops - starts, 19).astype(np.uint8)
    order = np.argsort(lengths, kind="stable").astype(starts.dtype)  # a radix sort on uint8
    lengths, first = lengths[order], starts[order]
    value = np.zeros(len(order), dtype=np.int64)
    other = lengths > 18
    # The sorted tokens from cut[p] on are longer than p characters, and those
    # before cut[18] have at most 18.
    cut = np.searchsorted(lengths, np.arange(19), side="right").tolist()
    short = cut[18]
    for place, live in enumerate(cut[:18]):
        if live == short:
            break
        digit = codes[first[live:short] + place] - 48  # wraps below "0"
        other[live:short] |= digit > 9
        value[live:short] *= 10
        value[live:short] += digit
    del first
    values = np.empty_like(value)
    values[order] = value
    for i in np.sort(order[other]).tolist():
        try:
            x = int(text[starts[i] : stops[i]])
        except ValueError:
            return values, i
        values[i] = x if -(2**63) <= x < 2**63 else -1
    return values, None


@dataclass(frozen=True, eq=False)
class _Scan:
    """A document as ``_scan`` reads it: the header line's tokens, then
    ``rows`` of ``width`` integers and the 1-based line of each, up to line
    ``bad``, the first whose token count is neither 0 nor ``width``
    (``bad_width``) or that holds a token ``int()`` rejects."""

    text: str
    breaks: np.ndarray  # the position of each line boundary, as ``_tokens`` gives it
    head: list[str]
    rows: np.ndarray  # int64, ``int()`` of the tokens, -1 for a value beyond int64
    lines: np.ndarray
    bad: Optional[int]
    bad_width: bool

    def line(self, i: int) -> str:
        """Line i (1-based) without its boundary, as ``str.splitlines`` gives it."""
        text, breaks, start = self.text, self.breaks, 0
        if i > 1:
            at = int(breaks[i - 2])
            start = at + (2 if text.startswith("\r\n", at) else 1)
        return text[start : int(breaks[i - 1]) if i <= len(breaks) else len(text)]

    @property
    def nlines(self) -> int:
        """``len(text.splitlines())``."""
        return len(self.breaks) + (self.line(len(self.breaks) + 1) != "")

    def ints(self, i: int) -> list[int]:
        """``int()`` of the tokens of line i, with no int64 bound."""
        return [int(t) for t in self.line(i).split()]


def _scan(text: str, width: int) -> _Scan:
    """Read ``text`` as a header line, then rows of ``width`` integers: the
    lines of ``str.splitlines``, the tokens of ``str.split`` and ``int()`` of
    each.  ``_plain_scan`` reads a plain document, ``_exact_scan`` any."""
    return _plain_scan(text, width) or _exact_scan(text, width)


def _plain_scan(text: str, width: int) -> Optional[_Scan]:
    """The scan of a plain document, None for any other: ASCII, a header line
    that is its tokens joined by single spaces, then rows of ``width`` runs
    of 1 to 18 digits joined by single spaces, every line ended by "\\n".
    One check of the bytes below "0" leaves ``np.fromstring`` only text it
    reads to the end."""
    top = text.find("\n")
    if top < 0 or text[-1] != "\n" or not text.isascii() or not text[:top].isprintable():
        return None
    head = text[:top].split()  # only a printable line: a text of "\r" line ends is not split whole
    codes = np.frombuffer(text.encode("ascii"), dtype=np.uint8)[top + 1 :]
    seps = np.flatnonzero(codes < ord("0"))
    k = len(seps) // width
    if len(codes) and codes.max() > ord("9") or len(seps) != k * width or " ".join(head) != text[:top]:
        return None
    gaps = np.diff(seps, prepend=-1)  # each token's length, plus one
    row = [ord(" ")] * (width - 1) + [ord("\n")]  # the separators of one row
    if k and ((codes[seps].reshape(k, width) != row).any() or gaps.min() < 2 or gaps.max() > 19):
        return None
    index = np.int32 if len(text) < 2**31 else np.int64  # as in ``_tokens``
    breaks = np.append(top, seps[width - 1 :: width] + (top + 1)).astype(index)
    del codes, seps, gaps
    rows = np.fromstring(text[top + 1 :], dtype=np.int64, sep=" ").reshape(k, width)
    return _Scan(text, breaks, head, rows, np.arange(2, k + 2, dtype=index), None, True)


def _exact_scan(text: str, width: int) -> _Scan:
    """``_scan`` of any document, scanned once in numpy: the whitespace
    positions give the token bounds, each token's line and each line's
    token count.  Lines without a token are skipped."""
    codes, starts, stops, line_of, breaks = _tokens(text)
    widths = np.bincount(line_of, minlength=1)
    top = int(widths[0])
    head = [text[a:b] for a, b in zip(starts[:top].tolist(), stops[:top].tolist())]
    wrong = np.flatnonzero((widths[1:] != 0) & (widths[1:] != width))
    bad = int(wrong[0]) + 2 if len(wrong) else None
    # Every line boundary is whitespace, so after the header's tokens the
    # document's tokens are those of the rows, in order.
    count = top + int(widths[1 : bad - 1 if bad else None].sum())
    lines = line_of[top:count:width] + 1
    del line_of, widths
    values, rejected = _endpoints(text, codes, starts[top:count], stops[top:count])
    if rejected is not None:
        kept = rejected // width
        bad = int(lines[kept])
        values, lines = values[: kept * width], lines[:kept]
    return _Scan(text, breaks, head, values.reshape(-1, width), lines, bad, rejected is None)


def parse_graph(text: str) -> Graph:
    """Parse an edge-list document: header line ``n m`` then m lines ``u v``.

    Rejects malformed lines, out-of-range indices, loops, and duplicate
    edges, each reported with its line number; the first offending line in
    the document is the one reported.  The document is read by ``_scan``.
    """
    if not text:
        raise GraphFormatError("header", "empty document", 1)
    scan = _scan(text, 2)
    if len(scan.head) != 2:
        raise GraphFormatError("header", "expected header 'n m'", 1)
    try:
        n, m = map(int, scan.head)
    except ValueError:
        raise GraphFormatError("header", "expected two integers in header", 1) from None
    if n < 0 or m < 0:
        raise GraphFormatError("header", "negative counts in header", 1)
    if n > MAX_VERTICES:
        raise GraphFormatError("header", f"vertex count {n} exceeds {MAX_VERTICES}", 1)
    try:
        indptr, nbrs = _csr(n, scan.rows)
    except _EdgeError as exc:  # an edge before the scan's bad line, so it comes first
        line = int(scan.lines[exc.index])
        u, v = scan.ints(line)
        raise GraphFormatError(exc.kind, _describe(exc.kind, u, v), line) from None
    if scan.bad is not None:
        raw = scan.line(scan.bad)
        message = f"expected 'u v', got {raw!r}" if scan.bad_width else f"non-integer endpoint in {raw!r}"
        raise GraphFormatError("malformed", message, scan.bad)
    if len(scan.rows) != m:
        raise GraphFormatError("truncated", f"header promises {m} edges, found {len(scan.rows)}", scan.nlines)
    return Graph(n, indptr, nbrs)


def _format_rows(head: str, rows: np.ndarray) -> str:
    """``head``, then each row of ``rows`` (integers below 2**32) as ``"%d %d\\n"`` writes a pair:
    right-aligned digit cells, one uint32 pass per digit place, and one mask drops the leading zeros."""
    values = rows.ravel()
    places = len(str(values.max(initial=0)))
    cells = np.empty((len(values), places + 1), dtype=np.uint8)
    rest = values.astype(np.uint32)
    for col in range(places - 1, -1, -1):  # ``rest`` holds value // 10**(places - 1 - col)
        np.divmod(rest, 10, out=(rest, cells[:, col]), casting="unsafe")
    del rest
    cells += ord("0")
    cells[:, -1].reshape(rows.shape)[:] = [ord(" ")] * (rows.shape[1] - 1) + [ord("\n")]
    keep = np.ones(cells.shape, dtype=bool)
    for col in range(places - 1):
        np.greater_equal(values, 10 ** (places - 1 - col), out=keep[:, col])
    body = cells[keep]
    del cells, keep
    return head + body.tobytes().decode("ascii")


def serialize_graph(g: Graph) -> str:
    """Canonical form: header then edges sorted as (min,max) lexicographically, by ``_format_rows``."""
    tails = np.repeat(np.arange(g.n, dtype=np.uint32), np.diff(g.indptr))  # n <= MAX_VERTICES < 2**32
    up = tails < g.nbrs  # each edge once, as in ``edges``
    ends = np.stack((tails[up], g.nbrs[up].astype(np.uint32)), axis=1)
    del tails, up
    return _format_rows(f"{g.n} {g.m}\n", ends)


def _roots(n: int, ru: np.ndarray, rv: np.ndarray) -> np.ndarray:
    """The smallest vertex of each vertex's component in the graph on 0..n-1
    with edges ``ru[i]rv[i]``, in their dtype, by min-root hooking and pointer
    jumping (Shiloach & Vishkin, J. Algorithms 1982).  Each round hooks every
    root onto the smallest root next to it, jumps pointers until each vertex
    points at its tree's root, and keeps the edges between trees as pairs of
    roots (trees only merge, so an old root's root is its vertices'; the
    input arrays are dropped).  A component's last root is its smallest vertex."""
    root = np.arange(n, dtype=ru.dtype)  # at first each vertex is its own root
    while len(ru):
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            up = root.take(root)
            if (up == root).all():
                break
            root = up.take(up)
        # ``take`` is faster but copies int32 indices to intp: the edge ends are indexed.
        ru, rv = root[ru], root[rv]
        cross = ru != rv  # a bool mask: 1 byte per edge, where flatnonzero's indices take 8
        ru, rv = ru[cross], rv[cross]
    return root


def _two_color(g: Graph) -> Optional[np.ndarray]:
    """The colour of each vertex, or None if g has an odd cycle.

    ``_roots`` on the bipartite double cover, in int32 where it fits: vertex (v, c)
    is 2v + c, and each arc uv joins (u,0) to (v,1); the arc arrays go unnamed, so that
    ``_roots`` drops them after its first round.  If r is the smallest vertex of a component
    of g, (r,0) has root 2r and (r,1) root 2r + 1, so v's colour, 0 for r, is the parity of
    the root of (v,0).  An odd cycle puts (v,0) and (v,1) in one cover component."""
    index = np.int32 if g.n < 2**30 else np.int64
    root = _roots(2 * g.n, 2 * g.tails().astype(index), 2 * g.nbrs.astype(index) + 1)
    return None if (root[0::2] == root[1::2]).any() else root[0::2] & 1


def bipartition(g: Graph) -> Optional[Bipartition]:
    """A valid bipartition if g is bipartite, else None.

    Per connected component the side of the lowest-index vertex is side_x.
    """
    color = _two_color(g)
    if color is None:
        return None
    return Bipartition(*(frozenset(np.flatnonzero(color == c).tolist()) for c in (0, 1)))


def classify(g: Graph) -> ClassReport:
    """Degree-class report: even/odd graph flags, max degree, biregular
    pair, and whether the graph is bipartite (``_two_color``).

    ``biregular`` is read off the degree values: one value d gives (d,d)
    iff the graph is bipartite, two values a < b give (a,b) iff every edge
    joins the two degree classes, and anything else gives None.
    """
    degs = np.diff(g.indptr)
    values = np.flatnonzero(np.bincount(degs)).tolist()  # ascending
    high = degs == (values[-1] if values else 0)
    # The class of each arc's tail against that of its head.
    joined = len(values) == 2 and bool((np.repeat(high, degs) != high[g.nbrs]).all())
    bipartite = joined or _two_color(g) is not None  # two joined classes are two sides
    pair = (values[0], values[-1]) if joined or (len(values) == 1 and bipartite) else None
    even, odd = (all(d % 2 == r for d in values) for r in (0, 1))
    return ClassReport(even, odd, values[-1] if values else 0, pair, bipartite)


def bfs_distances(g: Graph, source: int) -> list[Optional[int]]:
    """Shortest-path edge counts from source; None for unreachable vertices."""
    if not (0 <= source < g.n):
        raise ValueError(f"source {source} out of range")
    ptr, nbrs = memoryview(g.indptr), memoryview(g.nbrs)
    dist: list[Optional[int]] = [None] * g.n
    dist[source] = 0
    queue = [source]
    for u in queue:  # the loop also visits what it appends
        for v in nbrs[ptr[u] : ptr[u + 1]]:
            if dist[v] is None:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex lists per component, ordered by lowest member."""
    root = _roots(g.n, g.tails(), g.nbrs)
    order = np.argsort(root, kind="stable")
    bounds = np.append(np.flatnonzero(root[order] == order), g.n)  # each root leads its group
    return [order[a:b].tolist() for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist())]
