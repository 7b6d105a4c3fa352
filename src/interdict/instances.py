"""Plain-text instance format shared by the CLI, generator and fixtures.

Layout (whitespace separated; a line whose first token starts with ``#``
is a comment)::

    n root
    child parent w u      <- n-1 edge lines

Node ids are arbitrary positive integers; weights are non-negative
integers. With an explicit fixed-point ``scale``, weight fields (and
nothing else) may be decimals and are multiplied by the scale, which must
yield integers. :func:`format_instance` emits the canonical form: no
comments, edges sorted by child id, single spaces.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from pathlib import Path

from .errors import InstanceError, ParseError
from .tree import RootedTree, build_tree

_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)")


def _parse_int(token: str, what: str, line: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected integer {what}, got {token!r}", line) from None


def scaled_integer(token: str, scale: int | None, what: str) -> int:
    """The integer ``token * scale`` for an integer, decimal or fraction token;
    with no ``scale``, the token must be an integer.

    Raises :class:`InstanceError` naming ``what`` when the token is not an
    integer and no scale is given, is not a number, has a zero denominator,
    is not integral at ``scale``, or has a decimal exponent larger in
    magnitude than ``sys.get_int_max_str_digits()``. The exponent is checked
    first: the exact value of ``1e999999999`` takes minutes to build.
    Raises :class:`ValueError` for a ``scale`` below 1.
    """
    if scale is None:
        try:
            return int(token)
        except ValueError:
            raise InstanceError(f"expected integer {what}, got {token!r}; "
                                "decimals need a scale") from None
    if scale < 1:
        raise ValueError(f"scale must be >= 1, got {scale}")
    exponent = _EXPONENT.search(token)
    if exponent:
        digits = exponent[1].replace("_", "").lstrip("0")
        limit = (sys.get_int_max_str_digits()
                 or sys.int_info.default_max_str_digits)
        if len(digits) > len(str(limit)) or int(digits or 0) > limit:
            raise InstanceError(
                f"{what} {token!r} has a decimal exponent beyond {limit}")
    try:
        value = Fraction(token) * scale
    except ValueError:
        raise InstanceError(f"expected number {what}, got {token!r}") from None
    except ZeroDivisionError:
        raise InstanceError(
            f"{what} {token!r} has a zero denominator") from None
    if value.denominator != 1:
        raise InstanceError(f"{what} {token!r} is not integral at scale {scale}")
    return int(value)


def _parse_weight(token: str, what: str, line: int, scale: int | None) -> int:
    try:
        return scaled_integer(token, scale, what)
    except InstanceError as exc:
        raise ParseError(str(exc), line) from None


def parse_instance(text: str, scale: int | None = None) -> RootedTree:
    """Parse instance text into a validated tree.

    Raises :class:`ParseError` (with the offending line number) on malformed
    text; structural problems propagate from :func:`build_tree`.
    """
    n = None
    records = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if n is None:
            if len(tokens) != 2:
                raise ParseError("header must be 'n root'", line_no)
            n = _parse_int(tokens[0], "node count", line_no)
            root = _parse_int(tokens[1], "root id", line_no)
            if n < 2:
                raise ParseError(f"node count must be >= 2, got {n}", line_no)
            if root < 1:
                raise ParseError(f"root id must be positive, got {root}", line_no)
            continue
        if len(records) == n - 1:
            raise ParseError(
                f"unexpected extra line; {n - 1} edge lines already read", line_no)
        if len(tokens) != 4:
            raise ParseError("edge line must be 'child parent w u'", line_no)
        child = _parse_int(tokens[0], "child id", line_no)
        par = _parse_int(tokens[1], "parent id", line_no)
        if child < 1 or par < 1:
            raise ParseError("node ids must be positive", line_no)
        wv = _parse_weight(tokens[2], "base length", line_no, scale)
        uv = _parse_weight(tokens[3], "upgraded length", line_no, scale)
        records.append((child, par, wv, uv))

    if n is None:
        raise ParseError("empty instance", 1)
    if len(records) != n - 1:
        raise ParseError(f"expected {n - 1} edge lines, found "
                         f"{len(records)}", line_no)
    return build_tree(records, root)


def format_instance(tree: RootedTree) -> str:
    """Canonical text form; parse -> format round-trips byte-identically."""
    lines = [f"{tree.node_count} {tree.root}"]
    for child in sorted(tree.parent):
        lines.append(f"{child} {tree.parent[child]} {tree.w[child]} {tree.u[child]}")
    return "\n".join(lines) + "\n"


def load_instance(path: str | Path, scale: int | None = None) -> RootedTree:
    return parse_instance(Path(path).read_text(), scale=scale)
