"""The one reader and writer of the `.cay`, `.graph` and `.col` text files:
a header line ``<keyword> <int> ...``, an optional names line and one line
of ints per record. Blank lines are ignored and keywords are whole tokens.
Record tokens are read through a table of the canonical decimals
``"0"``..``"r-1"`` (r records), and a line with any other token through
``int()``, so both paths give the same ints and the same errors. Each line
is checked as it is read, so of several faulty lines the first is reported.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")


def read(path: str | Path, header: str, names_keyword: str | None, width: int | None,
         build: Callable[[list[int], list[str] | None, list[list[int]]], T]) -> T:
    """Return ``build(counts, names, rows)`` for the file at ``path``.

    ``header`` shows the first line (``"graph <n> <m>"``), and ``counts``
    holds its ints. ``names`` holds the tokens after ``names_keyword`` on
    the optional second line, or is None. ``rows`` holds each other line's
    ints, ``width`` of them unless None. Every ValueError, from the parse
    or from ``build``, is raised again with the path in front.
    """
    try:
        # Lines stay strings until each is converted, so that only one line's
        # tokens are alive at a time.
        lines = [ln for ln in Path(path).read_text().splitlines() if ln and not ln.isspace()]
        head = lines[0].split() if lines else []
        shape = header.split()
        if head[:1] != shape[:1] or len(head) != len(shape):
            raise ValueError(f"expected leading '{header}' line")
        names = None
        if len(lines) > 1 and lines[1].split(None, 1)[0] == names_keyword:
            names = lines.pop(1).split()[1:]
        # A token is looked up among the canonical decimals "0".."r-1", r the
        # number of rows read; a line holding any other spelling goes through
        # int(), which gives the same value or the same error.
        canonical = {str(i): i for i in range(len(lines) - 1)}.__getitem__
        rows = []
        for ln in lines[1:]:
            tokens = ln.split()
            try:
                rows.append(list(map(canonical, tokens)))
            except KeyError:
                rows.append(list(map(int, tokens)))
            if width is not None and len(tokens) != width:
                raise ValueError(f"line {ln.strip()!r} is not {width} integers")
        return build(list(map(int, head[1:])), names, rows)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write(path: str | Path, header: Sequence[object], names_keyword: str | None,
          names: Sequence[str], rows: Iterable[Iterable[int]]) -> None:
    """Write the header, the names line when there are names, and the rows."""
    for name in names:
        if name.split() != [name]:
            raise ValueError(f"{path}: name {name!r} is empty or contains whitespace")
    out = [" ".join(map(str, header))]
    if names:
        out.append(" ".join([names_keyword, *names]))
    out.extend(" ".join(map(str, row)) for row in rows)
    Path(path).write_text("\n".join(out) + "\n")
