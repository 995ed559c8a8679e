"""What a CLI report holds for an attribute set, and the report's JSON text.

A report names each attribute set as a tuple of its names, already quoted
as JSON strings, in name order (``name_ordered``), and ``render`` writes
each tuple as the list of its names. This module is the only one that
knows report order and that a tuple is a list of quoted names.
"""

from __future__ import annotations

from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter


def name_ordered(system):
    """``table, key, name``: ``system`` with its columns in descending name order.

    ``table`` is a copy of ``system`` whose ``cond_attrs`` and row codes run
    from the largest name to the smallest, so the higher a bit of a mask
    over it, the smaller its name. ``name(b)`` is the tuple of b's names,
    quoted as JSON strings and read off highest bit first, so in name order
    with no sort. ``key(b)`` is b's position in the order of sorted name
    lists, where a list comes before its extensions (Python's list order):
    the sets before b are its popcount(b) proper prefixes and, below each
    of its elements, the sets that branch off at a smaller name,
    2**m - b - (b & -b) in all. Both hold only for masks over ``table``,
    so the three come from one call.

    On an antichain (no set contains another), descending masks are
    already in name-list order. Let d be the smallest name in just one of
    two sets A and B, say in A. Below d the two agree; where A's list holds
    d, B's holds a larger name, for if it ended there B would lie inside A.
    So A's list comes first, and A's mask, whose highest differing bit is
    d's, is the larger int. The CLI's reduct lists are antichains that the
    engine lists in ascending order: one table's reducts, subsets of them,
    and the sets whose support passes a threshold above 1/2, any two of
    which are reducts of one member. So the CLI reads them reversed, and
    needs ``key`` only for the support list, the union over all members,
    whose sets may nest. One 256-entry table per 8 bits serves ``name``.
    """
    order = sorted(range(system.n_attrs), key=system.cond_attrs.__getitem__, reverse=True)
    names = tuple(map(system.cond_attrs.__getitem__, order))
    m = len(names)
    rows = system.rows
    if m > 1:  # one index would make itemgetter return a code, not a row
        rows = tuple(map(itemgetter(*order), rows))
    name_tables = []
    for base in range(0, m, 8):
        named = [()]
        for a in range(base, min(base + 8, m)):
            head = (_quote(names[a]),)
            named += [head + t for t in named]  # higher bits name smaller names
        name_tables.append(named)
    top = 1 << m

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

    return system._replace(cond_attrs=names, rows=rows), key, name


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
