"""What a CLI report holds for an attribute set, and the report's JSON text.

A report names each attribute set as a tuple of its names, already quoted
as JSON strings, in name order (``namer``), and ``render`` writes each
tuple as the list of its names. This module is the only one that knows a
tuple is a list of quoted names.
"""

from __future__ import annotations

from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter


def namer(names):
    """The functions ``rank, key, name`` that name attribute bitmasks over ``names``.

    ``rank(mask)`` is the mask's rank form: attribute a, whose name is the
    r-th smallest of the m names, moves to bit m - 1 - r. ``name(b)`` is
    the tuple of the rank form's names, quoted as JSON strings and read off
    highest bit first, so in name order with no sort. ``key(b)`` is the
    rank form's position in the order of sorted name lists, where a list
    comes before its extensions (Python's list order): the sets before b
    are its popcount(b) proper prefixes and, below each of its elements,
    the sets that branch off at a smaller name, 2**m - b - (b & -b) in all.
    So ordering rank forms by key orders their name lists.

    On an antichain (no set contains another), descending rank forms are
    already in name-list order. Let d be the smallest name in just one of
    two sets A and B, say in A. Below d the two agree; where A's list holds
    d, B's holds a larger name, for if it ended there B would lie inside A.
    So A's list comes first, and A's rank form, whose highest differing bit
    is d's, is the larger int. The CLI's reduct lists are antichains: one
    table's reducts, subsets of them, and the sets whose support passes a
    threshold above 1/2, any two of which are reducts of one member. So it
    sorts their rank forms in reverse, and needs ``key`` only for the
    support list, the union over all members, whose sets may nest.

    One 256-entry table per 8 bits, built once, serves ``rank``, and one
    serves ``name``.
    """
    m = len(names)
    order = sorted(range(m), key=names.__getitem__)
    bits = {a: 1 << (m - 1 - r) for r, a in enumerate(order)}
    quoted = [_quote(names[a]) for a in reversed(order)]  # by rank-form bit
    rank_tables, name_tables = [], []
    for base in range(0, m, 8):
        ranked, named = [0], [()]
        for a in range(base, min(base + 8, m)):
            bit, head = bits[a], (quoted[a],)
            ranked += [b | bit for b in ranked]
            named += [head + t for t in named]  # higher bits name smaller names
        rank_tables.append(ranked)
        name_tables.append(named)
    top = 1 << m

    def rank(mask: int) -> int:
        b = 0
        for table in rank_tables:
            if not mask:
                break
            b |= table[mask & 255]
            mask >>= 8
        return b

    def key(b: int) -> int:
        return top + b.bit_count() - b - (b & -b) if b else 0

    def name(b: int) -> tuple[str, ...]:
        out = ()
        for table in name_tables:
            if not b:
                break
            out = table[b & 255] + out
            b >>= 8
        return out

    return rank, key, name


def render(report) -> str:
    """``json.dumps(report, sort_keys=True, indent=2)``, tuples read as names, and a newline.

    With ``indent``, ``json.dumps`` runs its pure-Python encoder; this writer
    walks the report into one chunk list, writes each list whose items share
    one kind by C-level maps (``_items``) and quotes strings with the C
    function ``json.dumps`` uses.
    """
    chunks = []
    _write(report, "\n", chunks)
    chunks.append("\n")
    return "".join(chunks)


def _text(value, newline: str) -> str:
    chunks = []
    _write(value, newline, chunks)
    return "".join(chunks)


def _items(items: list, newline: str):
    """``head, texts, tail``: each item's text at ``newline`` is head + text + tail.

    Exact ints, strings, non-empty name tuples and records (dicts with one
    key set, formatted column by column by one ``%`` template) take one map;
    other items are written one by one.
    """
    first, deeper = items[0], newline + "  "
    kind = type(first)
    if {*map(type, items)} == {kind}:
        if kind is int:
            return "", map(int.__repr__, items), ""
        if kind is str:
            return "", map(_quote, items), ""
        if kind is tuple and all(items):
            return "[" + deeper, map(("," + deeper).join, items), newline + "]"
        if kind is dict and first and all(map(first.keys().__eq__, map(dict.keys, items))):
            fields, columns = [], []
            for key in sorted(first):
                head, texts, tail = _items([*map(itemgetter(key), items)], deeper)
                fields.append(_quote(key).replace("%", "%%") + ": " + head + "%s" + tail)
                columns.append(texts)
            template = "{" + deeper + ("," + deeper).join(fields) + newline + "}"
            return "", map(template.__mod__, zip(*columns)), ""
    return "", map(_text, items, repeat(newline)), ""


def _write(value, newline: str, chunks: list[str]) -> None:
    # ``newline`` is the line break plus the indentation of ``value`` itself.
    inner = newline + "  "
    if isinstance(value, str):
        chunks.append(_quote(value))
    elif type(value) is tuple and value:
        chunks.append("[" + inner + ("," + inner).join(value) + newline + "]")
    elif not value and isinstance(value, (list, tuple, dict)):
        chunks.append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, (list, tuple)):
        head, texts, tail = _items(value, inner)
        start = len(chunks)
        chunks += chain.from_iterable(zip(repeat(tail + "," + inner + head), texts))
        chunks[start] = "[" + inner + head
        chunks.append(tail + newline + "]")
    elif isinstance(value, dict):
        sep = "{" + inner
        for key, item in sorted(value.items()):
            chunks += sep, _quote(key), ": "
            _write(item, inner, chunks)
            sep = "," + inner
        chunks.append(newline + "}")
    elif value is None or type(value) is bool:
        chunks.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        chunks.append(int.__repr__(value))
    else:
        raise TypeError(f"cannot render {type(value).__name__} in a report")
