"""What a CLI report holds for an attribute set or a record list, and the report's JSON text.

Every set in a report is over one table's condition attributes, so a
report holds each set as a bare mask over the name-ordered table
(``name_ordered``): ``Mask(b)`` is one set and ``Masks(masks)`` a list of
sets. A list of records reaches the writer only as ``Rows(columns)``, one
sequence per key, so no record is a dict of its own. ``render`` takes the
table's names once and writes each set as the list of its names, the
text read straight off the mask, and each record list column by column.
This module knows how a mask is written and orders each set's names;
``cli.py`` orders the reduct lists and the support list, with
``name_ordered``'s ``key``.
"""

from __future__ import annotations

from itertools import chain, filterfalse, repeat
from _json import encode_basestring_ascii as _quote
from operator import itemgetter


def name_ordered(system):
    """``table, key``: ``system`` with its columns in descending name order.

    ``table`` is a copy of ``system`` whose ``cond_attrs`` and row codes run
    from the largest name to the smallest, so the higher a bit of a mask
    over it, the smaller its name, and a mask's names read off highest bit
    first are in name order with no sort. ``key(b)`` is b's position in the
    order of sorted name lists, where a list comes before its extensions
    (Python's list order): the sets before b are its popcount(b) proper
    prefixes and, below each of its elements, the sets that branch off at
    a smaller name, 2**m - b - (b & -b) in all. It holds only for masks
    over ``table``, so the two come from one call.

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
    whose sets may nest.
    """
    order = sorted(range(system.n_attrs), key=system.cond_attrs.__getitem__, reverse=True)
    names = tuple(map(system.cond_attrs.__getitem__, order))
    rows = system.rows
    if len(names) > 1:  # one index would make itemgetter return a code, not a row
        rows = tuple(map(itemgetter(*order), rows))
    top = 1 << len(names)

    def key(b: int) -> int:
        return top + b.bit_count() - b - (b & -b) if b else 0

    return system._replace(cond_attrs=names, rows=rows), key


class Mask(int):
    """A set written alone in a report, such as a core: its mask over ``render``'s names."""

    __slots__ = ()


class Masks:
    """A report value: the list of the distinct sets ``masks``, in order.

    A set listed twice is written right, but its text is built twice.
    """

    __slots__ = ("masks",)

    def __init__(self, masks):
        self.masks = masks

    def __len__(self) -> int:
        return len(self.masks)


class Rows:
    """A report value: a list of records, held as ``columns``.

    ``columns`` maps each key to one sequence holding the key's value in
    each record, in order: a ``Masks`` of distinct sets, ``Mask`` cells,
    or any other report values. Every column holds one value per record;
    with no columns there are no records.
    """

    __slots__ = ("columns",)

    def __init__(self, columns):
        self.columns = columns

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))


def render(report, names: tuple[str, ...]) -> str:
    """``json.dumps(report, sort_keys=True, indent=2)``, sets written as names, and a newline.

    ``names`` are the condition names of the table every ``Mask`` and
    ``Masks`` of ``report`` is over, in bit order; a ``Rows`` is written
    as its list of records. With ``indent``, ``json.dumps`` runs its
    pure-Python encoder; this writer walks the report into one chunk list,
    writes each list whose items share one kind, and each ``Rows``, by
    C-level maps (``_items``) and quotes strings with the C function
    ``json.dumps`` uses. Each set's text is built at most once for each
    depth it is written at in a list, however often it is mentioned there
    (``_listed``).
    """
    chunks = []
    _write(report, "\n", chunks, [*map(_quote, names)], {})
    chunks.append("\n")
    return "".join(chunks)


def _alone(b: int, quoted: list[str], newline: str) -> str:
    """The set b written at ``newline`` outside any list, such as a core.

    It is joined from its names: a depth's text tables would cost more
    than the few sets a report writes alone.
    """
    if not b:
        return "[]"
    inner = newline + "  "
    names = [quoted[a] for a in range(b.bit_length() - 1, -1, -1) if b >> a & 1]
    return "[" + inner + ("," + inner).join(names) + newline + "]"


def _listed(masks, distinct, newline: str, quoted: list[str], depths: dict):
    """``head, texts, tail``: each set of ``masks`` is head + text + tail at ``newline``.

    ``distinct`` holds the sets of ``masks`` once each. ``quoted`` holds the
    table's names as JSON strings, in bit order. ``depths`` holds, for each
    depth met in this report, the depth's text tables and the text of each
    set built there, so a set is built once per depth.
    """
    inner = newline + "  "
    depth = depths.get(newline)
    if depth is None:
        depth = depths[newline] = _group_tables(quoted, inner), {}
    tables, texts = depth
    try:
        written = [*map(texts.__getitem__, masks)]
    except KeyError:
        new = [*filterfalse(texts.__contains__, distinct)] if texts else distinct
        built = _built(tables, new, len(inner) + 1)
        texts.update(zip(new, built))
        written = built if new is masks else [*map(texts.__getitem__, masks)]
    head, tail = "[" + inner, newline + "]"
    if 0 in texts and 0 in masks:  # the empty set is "[]", so each set takes its own brackets
        return "", [head + t + tail if t else "[]" for t in written], ""
    return head, written, tail


def _built(tables: list[list[str]], masks, cut: int) -> list[str]:
    """The text of each set of ``masks`` read off one depth's ``tables``, less ``cut`` characters.

    Table g holds, for each value v of the g-th group of w bits, the text
    ``"," + inner + name`` of each attribute g*w + j with bit j of v set,
    highest bit first. A set's text joins its groups' entries, highest
    group first; its first ``cut`` characters are the first separator.
    Past 3w bits (m > 24) the distinct parts above bit 2w are joined once.
    """
    t0, t1, *upper = tables
    low = len(t0) - 1
    w, w2 = low.bit_length(), 2 * low.bit_length()
    high = upper[0]
    if len(upper) > 1:
        high = {h: "".join([t[h >> w * i & low] for i, t in reversed([*enumerate(upper)])])
                for h in {b >> w2 for b in masks}}
    return [f"{high[b >> w2]}{t1[b >> w & low]}{t0[b & low]}"[cut:] for b in masks]


def _group_tables(quoted: list[str], inner: str) -> list[list[str]]:
    """One text table per group of w = min(8, ceil(m / 3)) bits, at least three (``_built``)."""
    w = min(8, max(1, -(-len(quoted) // 3)))
    tables = []
    for base in range(0, max(len(quoted), 3 * w), w):
        table = [""]
        for name in quoted[base:base + w]:
            entry = "," + inner + name
            table += [entry + t for t in table]  # a higher bit writes a smaller name
        tables.append(table)
    return tables


def _text(value, newline: str, quoted: list[str], depths: dict) -> str:
    chunks = []
    _write(value, newline, chunks, quoted, depths)
    return "".join(chunks)


def _items(items, newline: str, quoted: list[str], depths: dict):
    """``head, texts, tail``: each item's text at ``newline`` is head + text + tail.

    A list of sets, and lists of exact ints, strings and single sets, take
    one map; a ``Rows`` takes one ``%`` template, filled column by column.
    Other items are written one by one.
    """
    if type(items) is Masks:
        return _listed(items.masks, items.masks, newline, quoted, depths)
    if type(items) is Rows:
        deeper, fields, columns = newline + "  ", [], []
        for key, column in sorted(items.columns.items()):
            head, texts, tail = _items(column, deeper, quoted, depths)
            fields.append(_quote(key).replace("%", "%%") + ": " + head + "%s" + tail)
            columns.append(texts)
        template = "{" + deeper + ("," + deeper).join(fields) + newline + "}"
        return "", map(template.__mod__, zip(*columns)), ""
    kind = type(items[0])
    if {*map(type, items)} == {kind}:
        if kind is int:
            return "", map(int.__repr__, items), ""
        if kind is str:
            return "", map(_quote, items), ""
        if kind is Mask:  # such as one core per member, where sets repeat
            return _listed(items, dict.fromkeys(items), newline, quoted, depths)
    return "", map(_text, items, repeat(newline), repeat(quoted), repeat(depths)), ""


def _write(value, newline: str, chunks: list[str], quoted: list[str], depths: dict) -> None:
    # ``newline`` is the line break plus the indentation of ``value`` itself.
    inner = newline + "  "
    if isinstance(value, str):
        chunks.append(_quote(value))
    elif isinstance(value, Mask):
        chunks.append(_alone(value, quoted, newline))
    elif not value and isinstance(value, (list, Masks, Rows, dict)):
        chunks.append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, (list, Masks, Rows)):
        head, texts, tail = _items(value, inner, quoted, depths)
        start = len(chunks)
        chunks += chain.from_iterable(zip(repeat(tail + "," + inner + head), texts))
        chunks[start] = "[" + inner + head
        chunks.append(tail + newline + "]")
    elif isinstance(value, dict):
        sep = "{" + inner
        for key, item in sorted(value.items()):
            chunks += sep, _quote(key), ": "
            _write(item, inner, chunks, quoted, depths)
            sep = "," + inner
        chunks.append(newline + "}")
    elif value is None or type(value) is bool:
        chunks.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        chunks.append(int.__repr__(value))
    else:
        raise TypeError(f"cannot render {type(value).__name__} in a report")
