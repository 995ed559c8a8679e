"""What a CLI report holds for an attribute set, and the report's JSON text.

A report names each attribute set as a tuple of its names, already quoted
as JSON strings, in name order (``namer``). ``render`` writes a report as
``json.dumps(report, sort_keys=True, indent=2)`` of the report with each
tuple read as its names, plus one trailing newline. This module is the
only one that knows a tuple is a list of quoted names.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote


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
    """The text of ``json.dumps(report, sort_keys=True, indent=2)`` plus a newline.

    A tuple in a report is a list of names already quoted (``namer``), so
    the text is that of ``json.dumps`` on the report with each tuple read
    as its names. ``indent`` sends ``json.dumps`` down its pure-Python
    encoder, one generator frame per value; this writer walks the
    dict/list/tuple data once into one chunk list, and quotes every other
    string with the C function ``json.dumps`` itself uses, so the escaping
    is identical.

    A tuple is written as one join. A report lists each distinct attribute
    set as one tuple, which may appear in many lists: the writer keeps the
    text of each tuple it writes as a list item, keyed by indentation and
    ``id``, for this call only, and appends that text again at each further
    mention. Ids are unique only among live objects, so nothing may free
    any part of ``report`` while it is written: the CLI builds the report,
    renders it and only then drops it.
    """
    chunks: list[str] = []
    _write(report, "\n", chunks, {})
    chunks.append("\n")
    return "".join(chunks)


def _write(value, newline: str, chunks: list[str], memo: dict[str, dict[int, str]]) -> None:
    # ``newline`` is the line break plus the indentation of ``value`` itself;
    # ``memo[newline]`` maps the id of each name tuple listed at that
    # indentation to its text.
    if isinstance(value, str):
        chunks.append(_quote(value))
    elif type(value) is tuple and value:
        inner = newline + "  "
        chunks.append("[" + inner + ("," + inner).join(value) + newline + "]")
    elif isinstance(value, (list, tuple)):
        if not value:
            chunks.append("[]")
            return
        # A list of name tuples is written in this one loop, with no call per tuple.
        inner = newline + "  "
        head, comma, tail = "[" + inner + "  ", "," + inner + "  ", inner + "]"
        seen = memo.setdefault(inner, {})
        sep = "[" + inner
        for item in value:
            chunks.append(sep)
            sep = "," + inner
            if type(item) is not tuple or not item:
                _write(item, inner, chunks, memo)
                continue
            text = seen.get(id(item))
            if text is None:
                text = seen[id(item)] = head + comma.join(item) + tail
            chunks.append(text)
        chunks.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            chunks.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            chunks.append(sep)
            chunks.append(_quote(key))
            chunks.append(": ")
            _write(item, inner, chunks, memo)
            sep = "," + inner
        chunks.append(newline + "}")
    elif value is None:
        chunks.append("null")
    elif value is True:
        chunks.append("true")
    elif value is False:
        chunks.append("false")
    elif isinstance(value, int):
        chunks.append(int.__repr__(value))
    else:
        raise TypeError(f"cannot render {type(value).__name__} in a report")
