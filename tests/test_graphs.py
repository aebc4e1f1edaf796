import dataclasses
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    CANONICAL_N3,
    bipartite_witness_graph,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    erdos_renyi,
    path,
    random_biregular,
    random_nae_instance,
    reference_biregular_pair,
    reference_components,
    reference_parse_graph,
    reference_parse_nae,
    reference_serialize_graph,
    reference_two_color,
    traced_peak,
)
from lb2p import (
    Graph,
    GraphFormatError,
    NaeFormatError,
    bfs_distances,
    bipartition,
    classify,
    parse_graph,
    parse_nae,
    serialize_graph,
    serialize_nae,
)
from lb2p.graphs import (
    MAX_VERTICES,
    _exact_scan,
    _format_rows,
    _plain_scan,
    _tokens,
    _two_color,
    connected_components,
)
from lb2p.reductions import REDUCTIONS, reduce_by_name


def test_parse_k2():
    g = parse_graph("2 1\n0 1\n")
    assert g.n == 2 and g.edges() == [(0, 1)]


def test_parse_c4():
    g = parse_graph("4 4\n0 1\n1 2\n2 3\n3 0\n")
    assert g.degrees() == (2, 2, 2, 2)
    assert g.edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]


def test_parse_duplicate_edge_reports_line():
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("3 2\n0 1\n0 1\n")
    assert exc.value.kind == "duplicate"
    assert exc.value.line == 3


@pytest.mark.parametrize(
    "text,kind,line",
    [
        ("2 1\n0 x\n", "malformed", 2),
        ("2 1\n0 1 2\n", "malformed", 2),
        ("2 1\n0 5\n", "range", 2),
        ("3 1\n1 1\n", "loop", 2),
        ("notaheader\n", "header", 1),
        ("3 2\n0 1\n", "truncated", 2),
    ],
)
def test_parse_errors(text, kind, line):
    with pytest.raises(GraphFormatError) as exc:
        parse_graph(text)
    assert exc.value.kind == kind
    assert exc.value.line == line


@pytest.mark.parametrize(
    "text,kind,line",
    [
        ("3 3\n0 1\n0 5\n1 0\n", "range", 3),  # before the later repeat
        ("3 3\n0 1\n1 0\n2 9\n", "duplicate", 3),  # before the later range error
        ("3 3\n0 1\n2 2\n0 x\n", "loop", 3),  # before the later bad token
        ("3 3\n0 1\n0 x\n2 2\n", "malformed", 3),
        ("3 3\n1 0\n\n0 1\n0 1 2\n", "duplicate", 4),  # the blank line counts
        (f"2 1\n0 {10**30}\n", "range", 2),
        (f"2 2\n0 1\n\t{-10**30} 1\n", "range", 3),
        (f"{MAX_VERTICES + 1} 0\n", "header", 1),
    ],
)
def test_parse_reports_first_offending_line(text, kind, line):
    with pytest.raises(GraphFormatError) as exc:
        parse_graph(text)
    assert (exc.value.kind, exc.value.line) == (kind, line)


_TOKEN = st.one_of(
    st.integers(-1, 5).map(str),
    st.sampled_from(["+1", "-2", "007", str(10**30), str(-(10**30)), "1.5", "x", "1e3"]),
    st.sampled_from([2**63 - 1, 2**63, -(2**63), -(2**63) - 1]).map(str),
    st.sampled_from(["1_0", "\u0661", "+0"]),
    st.sampled_from(["1\x002", "\x013", "3\x01", "\ud800"]),
    st.sampled_from(["0" * 17 + "3", "9" * 18, "0" * 18 + "2", "9" * 19, "0" * 19 + "4", "1" * 20]),
)
_LINE = st.one_of(
    st.tuples(_TOKEN, st.sampled_from([" ", "\t", "  ", " \t ", "\xa0", "\x1f"]), _TOKEN).map("".join),
    st.tuples(st.integers(0, 4), st.integers(0, 4)).map(lambda e: f"{e[0]} {e[1]}"),
    st.sampled_from(["", "  ", "\t", "0 1 2", "3", " 0 1", "1 0 "]),
)


@st.composite
def _edge_documents(draw):
    """Headers and lines of every kind, with LF, CRLF or rarer line
    boundaries, and documents of 'u v' lines, which mostly parse."""
    n = draw(st.one_of(st.integers(0, 6), st.integers(4, 6)))
    if draw(st.booleans()):
        ends = st.one_of(st.integers(0, 4), st.sampled_from([6, 10**30]))
        pairs = st.one_of(st.sampled_from([(0, 1), (1, 0), (1, 2), (3, 2), (0, 3)]), st.tuples(ends, ends))
        lines = [f"{u} {v}" for u, v in draw(st.lists(pairs, max_size=8))]
        eols = ["\n"] * (len(lines) + 1)
    else:
        lines = draw(st.lists(_LINE, max_size=8))
        eol = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x1c", "\x85", "\u2028"])
        eols = draw(st.lists(eol, min_size=len(lines) + 1, max_size=len(lines) + 1))
    m = draw(st.one_of(st.just(sum(1 for ln in lines if ln.strip())), st.integers(0, 6)))
    last = draw(st.booleans())
    text = f"{n} {m}" + "".join(e + ln for e, ln in zip(eols, lines))
    return text + eols[-1] if last else text


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except GraphFormatError as exc:
        return exc.kind, exc.line, str(exc)


@settings(max_examples=400, deadline=None)
@given(_edge_documents())
def test_parse_matches_line_by_line_reference(text):
    assert _parse_outcome(parse_graph, text) == _parse_outcome(reference_parse_graph, text)


_SEPARATORS = [" ", "\t", "  ", " \t", "\x1f", "\xa0", "\u3000"]
_LINE_ENDS = ["\n", "\r\n", "\r", "\x0b", "\x1e", "\x85", "\u2028"]


def _multi_digit_document(rng: random.Random, size: int) -> str:
    """Up to ``size`` edges on up to 10**6 vertices with mixed separators and
    line ends, blank lines and leading zeros; often one faulty line."""
    n = max(rng.choice([2, 30, 10**4, 10**6, rng.randint(2, 10**6)]), size // 10)
    m = rng.randint(0, min(size, n * (n - 1) // 2) // 2) * 2
    edges = {(rng.randrange(n), rng.randrange(n)) for _ in range(m)}
    lines = [f"{u} {v}" for u, v in edges if u != v]
    if rng.random() < 0.5 and lines:  # one fault on a random line
        faults = ["0 0", f"0 {n}", f"{n * 10**13} 1", "1 2 3", "4", "1 x", lines[0], f"0{10**18} 1"]
        lines[rng.randrange(len(lines))] = rng.choice(faults)
    seps, ends = rng.sample(_SEPARATORS, rng.randint(1, 3)), rng.sample(_LINE_ENDS, rng.randint(1, 3))
    if rng.random() < 0.7:
        seps, ends = [" "], rng.choice([["\n"], ["\r\n"]])
    out = [f"{n} {len(lines) + rng.choice([0, 0, 0, 1])}"]
    for line in lines:
        if rng.random() < 0.05:
            line = "0" * rng.randint(1, 20) + line
        out.append(line.replace(" ", rng.choice(seps)))
        if rng.random() < 0.02:
            out.append(rng.choice(["", " ", "\t"]))
    text = "".join(line + rng.choice(ends) for line in out)
    return text if rng.random() < 0.5 else text.rstrip("".join(_LINE_ENDS))


@pytest.mark.parametrize("seed", range(16))
def test_parse_multi_digit_documents_match_reference(seed):
    rng = random.Random(seed)
    text = _multi_digit_document(rng, 10**5 if seed < 3 else 3000)
    assert _parse_outcome(parse_graph, text) == _parse_outcome(reference_parse_graph, text)


def test_character_classes_match_str_methods():
    """The tokeniser's whitespace is ``str.isspace`` and its line boundaries
    are those of ``str.splitlines``, over every code point; ASCII text takes
    the uint8 route and any other text the uint32 route."""
    everything = "".join(map(chr, range(0x110000)))
    for text in (everything[:128], everything):
        _, starts, stops, _, breaks = _tokens(text)
        inside = np.zeros(len(text) + 1, dtype=np.int64)
        np.add.at(inside, starts, 1)
        np.add.at(inside, stops, -1)
        space = np.flatnonzero(np.cumsum(inside[:-1]) == 0).tolist()
        assert space == [c for c, ch in enumerate(text) if ch.isspace()]
        assert breaks.tolist() == [c for c in space if len(f"a{text[c]}b".splitlines()) == 2]


def _scan_fields(scan):
    """Every field of a scan, its dtypes, ``nlines`` and each ``line(i)``."""
    arrays = (scan.breaks, scan.rows, scan.lines)
    lines = [scan.line(i) for i in range(1, len(scan.breaks) + 2)]
    return scan.text, scan.head, scan.bad, scan.bad_width, scan.nlines, lines, [(a.dtype, a.tolist()) for a in arrays]


_BIG_TOKEN = "9" * 18  # the longest token the plain route reads


def _plain_documents() -> list[tuple[str, int]]:
    """Plain documents and their row width: ``serialize_graph`` and
    ``serialize_nae`` output, empty bodies and 18-digit tokens."""
    rng = random.Random(37)
    docs = [(serialize_graph(erdos_renyi(n, p, rng)), 2) for n in (0, 1, 2, 7, 30) for p in (0.0, 0.3, 0.9)]
    docs += [(serialize_nae(random_nae_instance(n, rng)), 3) for n in (3, 6, 30, 300)]
    docs += [(serialize_graph(reduce_by_name("subcubic", random_nae_instance(6, rng)).graph), 2)]
    docs += [("0 0\n", 2), ("p nae3 0 0\n", 3), ("\n", 2), ("x\n", 3), (CANONICAL_N3, 3)]
    docs += [(f"3 2\n{_BIG_TOKEN} 0\n7 {_BIG_TOKEN}\n", 2), (f"p nae3 1 1\n1 {_BIG_TOKEN} 0\n", 3)]
    return docs


_ROW_EDITS = {
    "crlf": lambda row: row.replace("\n", "\r\n"),
    "cr": lambda row: row.replace("\n", "\r"),
    "vt": lambda row: row.replace("\n", "\x0b"),
    "fs": lambda row: row.replace("\n", "\x1c"),
    "nel": lambda row: row.replace("\n", "\x85"),
    "trailing-space": lambda row: row.replace("\n", " \n"),
    "tab": lambda row: row.replace(" ", "\t", 1),
    "double-space": lambda row: row.replace(" ", "  ", 1),
    "blank-line": lambda row: row + "\n",
    "19-digit": lambda row: "1" + "0" * 18 + row[row.index(" ") :],
    "plus": lambda row: "+5" + row[row.index(" ") :],
    "minus": lambda row: "-1" + row[row.index(" ") :],
    "underscore": lambda row: "1_0" + row[row.index(" ") :],
}
_WHOLE_EDITS = {
    "no-final-newline": lambda text: text[:-1],
    "header-two-spaces": lambda text: text.replace(" ", "  ", 1),
    "header-tab": lambda text: text.replace(" ", "\t", 1),
    "header-without-newline": lambda text: text[: text.index("\n")],
    "cr-lines": lambda text: text[:-1].replace("\n", "\r") + "\n",  # one line, as long as the text
}


def _neighbours(text: str, rng: random.Random) -> list[tuple[str, str]]:
    """One-edit neighbours of a plain document that the plain route must
    refuse, each with its name: row edits on a random row, and edits of
    the header (if it holds a space) or of the end."""
    head, *rows = text.splitlines(keepends=True)
    out = [(name, edit(text)) for name, edit in _WHOLE_EDITS.items() if edit(text) != text]
    if rows:
        for name, edit in _ROW_EDITS.items():
            i = rng.randrange(len(rows))
            out.append((name, "".join([head, *rows[:i], edit(rows[i]), *rows[i + 1 :]])))
    return out


def test_plain_scan_equals_exact_scan():
    """On plain documents the plain route gives the exact route's scan in
    every field; on their one-edit neighbours it steps aside."""
    rng = random.Random(7)
    kinds = set()
    # Headers of 18-digit counts only here: the reference parsers allocate by n.
    for text, width in _plain_documents() + [(f"{_BIG_TOKEN} {_BIG_TOKEN}\n1 2\n", 2)]:
        plain = _plain_scan(text, width)
        assert plain is not None, text
        assert _scan_fields(plain) == _scan_fields(_exact_scan(text, width))
        for name, edited in _neighbours(text, rng):
            kinds.add(name)
            assert _plain_scan(edited, width) is None, (name, edited)
    assert kinds == set(_ROW_EDITS) | set(_WHOLE_EDITS)


def test_neighbours_of_plain_documents_parse_without_warnings():
    """``np.fromstring`` warns on text it cannot read to the end: the plain
    route must never hand it a neighbour of a plain document."""
    rng = random.Random(11)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for text, width in _plain_documents():
            parse, reference, error = (
                (parse_graph, reference_parse_graph, GraphFormatError)
                if width == 2
                else (parse_nae, reference_parse_nae, NaeFormatError)
            )
            for edited in [text] + [edited for _, edited in _neighbours(text, rng)]:
                outcomes = []
                for read in (parse, reference):
                    try:
                        outcomes.append(read(edited))
                    except error as exc:
                        outcomes.append((exc.kind, exc.line, str(exc)))
                assert outcomes[0] == outcomes[1], edited


def test_from_edges_reports_first_bad_edge():
    with pytest.raises(ValueError, match=r"duplicate edge \(0,1\)"):
        Graph.from_edges(3, [(0, 1), (1, 0), (5, 0)])
    with pytest.raises(ValueError, match="self-loop at vertex 2"):
        Graph.from_edges(3, [(0, 1), (2, 2), (0, 1)])
    with pytest.raises(ValueError, match=r"edge \(0,\d+\) out of range for n=3"):
        Graph.from_edges(3, [(0, 1), (0, 10**30), (1, 1)])
    with pytest.raises(ValueError, match="exceeds"):
        Graph.from_edges(MAX_VERTICES + 1, [])
    with pytest.raises(ValueError, match="pair"):
        Graph.from_edges(3, [(0, 1, 2)])
    with pytest.raises(ValueError, match=r"non-integer endpoint in edge \(0\.5,1\)"):
        Graph.from_edges(3, [(0.5, 1)])
    with pytest.raises(ValueError, match=r"non-integer endpoint in edge \('0','1'\)"):
        Graph.from_edges(3, [("0", "1")])
    with pytest.raises(ValueError, match=r"non-integer endpoint in edge \(1,2\.0\)"):
        Graph.from_edges(3, [(0, 1), (1, 2.0), (5, 0)])
    with pytest.raises(ValueError, match=r"non-integer endpoint in edge \(None,1\)"):
        Graph.from_edges(3, [(0, 1), (None, 1)])
    with pytest.raises(ValueError, match="non-integer endpoint"):
        Graph.from_edges(3, np.array([[0.0, 1.0]]))
    with pytest.raises(ValueError, match=r"edge \(0,7\) out of range for n=3"):
        Graph.from_edges(3, [(0, 7), (0.5, 1)])
    with pytest.raises(ValueError, match=r"duplicate edge \(0,1\)"):
        Graph.from_edges(3, [(0, 1), (1, 0), (0.5, 1)])
    assert Graph.from_edges(3, [(np.int32(0), 1), (True, 2)]).edges() == [(0, 1), (1, 2)]
    empty = Graph.from_edges(0, [])
    assert empty.indptr.tolist() == [0] and empty.nbrs.tolist() == []
    g = Graph.from_edges(3, iter([(2, 0), (1, 0)]))
    assert g.indptr.tolist() == [0, 2, 3, 4] and g.nbrs.tolist() == [1, 2, 0, 0]


@st.composite
def _edge_lists(draw):
    """n <= 12 and a list of distinct edges in random order and orientation."""
    n = draw(st.integers(0, 12))
    if n < 2:
        return n, []
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40))
    seen, edges = set(), []
    for u, v in pairs:
        if u != v and frozenset((u, v)) not in seen:
            seen.add(frozenset((u, v)))
            edges.append((u, v))
    return n, edges


@settings(max_examples=300, deadline=None)
@given(_edge_lists())
def test_csr_views_match_python_adjacency(case):
    n, edges = case
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    g = Graph.from_edges(n, edges)
    assert g.m == len(edges)
    assert g.degrees() == tuple(len(a) for a in adj)
    assert [g.degree(v) for v in range(-n, n)] == [len(a) for a in adj + adj]
    with pytest.raises(IndexError):
        g.degree(n)
    assert g.edges() == sorted((min(u, v), max(u, v)) for u, v in edges)
    assert all(g.has_edge(u, v) == (v % n in adj[u]) for u in range(-n, n) for v in range(-n, n))
    for u, v in ((n, 0), (0, n), (-n - 1, 0)):
        with pytest.raises(IndexError):
            g.has_edge(u, v)
    assert g.indptr.tolist() == [sum(len(a) for a in adj[:v]) for v in range(n + 1)]
    assert [g.nbrs[g.indptr[v] : g.indptr[v + 1]].tolist() for v in range(n)] == [sorted(a) for a in adj]


def test_graph_equality_and_hash():
    a = Graph.from_edges(4, [(0, 1), (2, 3)])
    b = parse_graph("4 2\n3 2\n1 0\n")
    c = Graph(4, np.array([0, 1, 2, 3, 4]), np.array([1, 0, 3, 2]))
    assert a == b == c and hash(a) == hash(b) == hash(c) and len({a, b, c}) == 1
    assert a == b and hash(a) == hash(b)
    assert a != Graph.from_edges(5, [(0, 1), (2, 3)])
    assert a != Graph.from_edges(4, [(0, 1), (1, 2)])
    assert Graph.from_edges(0, []) == Graph(0, np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64))
    assert a.__eq__((4, "x")) is NotImplemented and a != (4, "x") and (4, "x") != a
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.n = 5
    for array in (a.indptr, a.nbrs):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 3
    assert a.nbrs.dtype == a.indptr.dtype == np.int64


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_serialize_parse_roundtrip(seed):
    rng = random.Random(seed)
    g = erdos_renyi(rng.randint(0, 10), rng.choice([0.2, 0.5, 0.8]), rng)
    text = serialize_graph(g)
    assert serialize_graph(parse_graph(text)) == text


def test_serialize_matches_percent_format_reference():
    """The numpy writer gives the bytes of the ``%``-format writer on random
    graphs, on n = 0, on m = 0, on a single edge and on a reduction graph."""
    rng = random.Random(4242)
    graphs = [erdos_renyi(n, p, rng) for n in (2, 9, 10, 11, 99, 101, 250) for p in (0.05, 0.5)]
    graphs += [Graph.from_edges(0, []), Graph.from_edges(7, []), Graph.from_edges(1001, [(999, 1000)])]
    graphs += [Graph.from_edges(2, [(0, 1)]), reduce_by_name("odd", random_nae_instance(30, rng)).graph]
    for g in graphs:
        assert serialize_graph(g) == reference_serialize_graph(g), (g.n, g.m)


@pytest.mark.parametrize("width", [1, 2, 3])
def test_format_rows_every_digit_count(width):
    """Raw rows through the writer's helper: values of every digit count
    from 1 to 10, each power of ten and its neighbours, up to
    MAX_VERTICES - 1 (a Graph that large cannot be allocated), in uint32
    and in int64, give the ``%d``-format text."""
    values = {0, 1, MAX_VERTICES - 1, 2**31, 2**32 - 1}
    values |= {10**p + d for p in range(1, 10) for d in (-1, 0, 1)}
    values |= {random.Random(p).randrange(10 ** (p - 1), 10**p) for p in range(1, 11)}
    assert {len(str(v)) for v in values} == set(range(1, 11)) and max(values) < 2**32
    flat = sorted(values)
    random.Random(width).shuffle(flat)  # long and short values side by side
    flat += flat[: -len(flat) % width]  # a whole number of rows
    rows = np.array(flat, dtype=np.int64).reshape(-1, width)
    want = "head\n" + "".join(("%d " * width)[:-1] % tuple(row) + "\n" for row in rows.tolist())
    for dtype in (np.uint32, np.int64):
        assert _format_rows("head\n", rows.astype(dtype)) == want
    assert _format_rows("h\n", np.zeros((0, width), dtype=np.uint32)) == "h\n"


def test_serialize_memory_is_a_few_times_the_text():
    """On a graph of more than 10**5 edges the writer's tracemalloc peak,
    the text included, stays within 5x the text length: no Python object
    per endpoint (the ``%``-format writer peaked near 11x)."""
    g = reduce_by_name("odd", random_nae_instance(2400, random.Random(5))).graph
    assert g.m >= 10**5
    text, peak = traced_peak(lambda: serialize_graph(g))
    same = text == reference_serialize_graph(g)  # not compared in the assert: a diff of 1.7 MB texts is slow
    assert same
    assert peak <= 5 * len(text), peak / len(text)


def test_bipartition_c4():
    bip = bipartition(cycle(4))
    assert bip.side_x == frozenset({0, 2}) and bip.side_y == frozenset({1, 3})


def test_bipartition_c3_absent():
    assert bipartition(cycle(3)) is None


def test_bipartition_isolated_vertex_on_side_x():
    g = Graph.from_edges(3, [(0, 1)])
    bip = bipartition(g)
    assert bip.side_x == frozenset({0, 2}) and bip.side_y == frozenset({1})


def test_bipartition_verified_by_edge_scan():
    rng = random.Random(7)
    for _ in range(50):
        g = erdos_renyi(rng.randint(1, 10), 0.3, rng)
        bip = bipartition(g)
        if bip is not None:
            for u, v in g.edges():
                assert (u in bip.side_x) != (v in bip.side_x)


def test_classify_c4():
    rep = classify(cycle(4))
    assert rep.is_even and not rep.is_odd
    assert rep.max_degree == 2 and rep.biregular == (2, 2)


def test_classify_k2():
    rep = classify(path(2))
    assert not rep.is_even and rep.is_odd
    assert rep.max_degree == 1 and rep.biregular == (1, 1)


def test_classify_k23():
    rep = classify(complete_bipartite(2, 3))
    assert not rep.is_even and not rep.is_odd
    assert rep.max_degree == 3 and rep.biregular == (2, 3)


def test_classify_biregular_disconnected():
    # two K2 components: both parts 1-regular
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert classify(g).biregular == (1, 1)
    # K2 plus a 2-star force incompatible pairs
    g = Graph.from_edges(5, [(0, 1), (2, 3), (2, 4)])
    assert classify(g).biregular is None
    # two 2-stars merge fine
    g = Graph.from_edges(6, [(0, 1), (0, 2), (3, 4), (3, 5)])
    assert classify(g).biregular == (1, 2)
    # isolated vertex breaks part-degree constancy
    g = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert classify(g).biregular is None


def test_classify_biregular_implies_bipartition():
    rng = random.Random(11)
    for _ in range(80):
        g = erdos_renyi(rng.randint(1, 9), 0.4, rng)
        if classify(g).biregular is not None:
            assert bipartition(g) is not None


def _bipartite_unions(rng: random.Random):
    """Seeded bipartite graphs: single parts and shuffled disjoint unions of
    complete bipartite graphs, even cycles, paths, (2,b)-biregular graphs
    and isolated vertices."""
    def part():
        kind = rng.randrange(6)
        if kind == 0:
            return complete_bipartite(rng.randint(1, 4), rng.randint(1, 4))
        if kind == 1:
            return cycle(2 * rng.randint(2, 5))
        if kind == 2:
            return path(rng.randint(2, 6))
        if kind == 3:
            return random_biregular(rng.choice([2, 4]), rng.choice([3, 5]), rng)
        if kind == 4:
            return bipartite_witness_graph(rng.randint(1, 3), rng.choice([2, 3]), rng)
        return Graph.from_edges(1, [])

    for _ in range(600):
        parts = [part() for _ in range(rng.choice([1, 1, 2, 3]))]
        if rng.random() < 0.5:  # the same part repeated: unions that keep a pair
            parts = parts[:1] * rng.randint(1, 3)
        yield disjoint_union(parts, rng)


def test_biregular_pair_matches_per_vertex_loop():
    pairs = nones = 0
    for g in _bipartite_unions(random.Random(2024)):
        expected = reference_biregular_pair(g, *reference_two_color(g))
        assert classify(g).biregular == expected
        pairs += expected is not None
        nones += expected is None
    assert pairs >= 150 and nones >= 150


def _ordered(order: np.ndarray, closed: bool) -> Graph:
    """The path (or, if ``closed``, the cycle) visiting the vertices in ``order``."""
    ends = np.stack((order, np.roll(order, -1)), axis=1)
    return Graph.from_edges(len(order), ends if closed else ends[:-1])


def _traversal_graphs(rng: random.Random):
    """Seeded graphs for the traversal references: n = 0, isolated vertices,
    shuffled long paths and cycles (odd and even), paths and cycles of 10**5
    and 10**5 + 1 vertices in ascending, descending, zigzag and shuffled order,
    20000 shuffled disjoint K2,3, unions of isolated vertices with regular
    and biregular parts, shuffled disjoint unions with odd cycles, the
    bipartite unions above, and each reduction of one 48-variable formula."""
    yield Graph.from_edges(0, [])
    yield Graph.from_edges(7, [])
    for n in (2, 999, 5000):
        yield disjoint_union([path(n)], rng)
        yield disjoint_union([cycle(n + 1)], rng)
    for n in (10**5, 10**5 + 1):
        up = np.arange(n)
        zigzag = np.empty(n, dtype=np.int64)
        zigzag[0::2], zigzag[1::2] = up[: (n + 1) // 2], up[::-1][: n // 2]
        shuffled = up.copy()
        np.random.default_rng(rng.randrange(2**32)).shuffle(shuffled)
        # Down from the middle and on from the top: a cycle in any rotation
        # or direction is the ascending one, so cycles skip this order.
        down = np.roll(up[::-1], n // 2)
        for order in (up, down, zigzag, shuffled):
            yield _ordered(order, closed=False)
            if order is not down:
                yield _ordered(order, closed=True)
    yield disjoint_union([complete_bipartite(2, 3)] * 20000, rng)
    for isolated in (1, 3):
        for part in (cycle(6), complete_bipartite(3, 3), complete(4), complete_bipartite(2, 3), random_biregular(4, 3, rng)):
            yield disjoint_union([Graph.from_edges(isolated, []), part, part], rng)
    parts = (
        lambda: cycle(2 * rng.randint(1, 4) + 1),
        lambda: path(rng.randint(1, 6)),
        lambda: erdos_renyi(rng.randint(1, 8), 0.4, rng),
    )
    for _ in range(200):
        yield disjoint_union([rng.choice(parts)() for _ in range(rng.randint(1, 4))], rng)
    for _, g in zip(range(200), _bipartite_unions(rng)):
        yield g
    inst = random_nae_instance(48, rng)
    for name in REDUCTIONS:
        yield reduce_by_name(name, inst).graph


def test_one_bfs_matches_reference_two_color_and_union_find():
    colourings = nones = 0
    for g in _traversal_graphs(random.Random(1818)):
        expected = reference_two_color(g)
        colored = _two_color(g)
        if expected is None:
            assert colored is None
            assert classify(g).biregular is None
        else:
            assert colored.tolist() == expected[0]
            pair = reference_biregular_pair(g, *expected) if g.n else None
            assert classify(g).biregular == pair
        assert connected_components(g) == reference_components(g)
        colourings += expected is not None
        nones += expected is None
    assert colourings >= 200 and nones >= 100


def test_classify_nonbipartite_has_no_biregular():
    assert classify(cycle(3)).biregular is None


def test_bfs_c4():
    assert bfs_distances(cycle(4), 0) == [0, 1, 2, 1]


def test_bfs_k23_alternates():
    g = complete_bipartite(2, 3)
    assert bfs_distances(g, 0) == [0, 2, 1, 1, 1]


def test_bfs_disconnected():
    g = Graph.from_edges(4, [(0, 1)])
    assert bfs_distances(g, 0) == [0, 1, None, None]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_bfs_triangle_property(seed):
    rng = random.Random(seed)
    g = erdos_renyi(rng.randint(1, 10), 0.4, rng)
    d = bfs_distances(g, 0)
    for u, v in g.edges():
        if d[u] is not None and d[v] is not None:
            assert abs(d[u] - d[v]) <= 1
        else:
            assert d[u] is None and d[v] is None

