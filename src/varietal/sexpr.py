"""Minimal line-tracking s-expression reader and a deterministic writer."""

from __future__ import annotations

import re


class SexprError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} at {line}:{column}")
        self.line = line
        self.column = column


class Node:
    """Either an atom (string or int) or a list of nodes, with provenance."""

    __slots__ = ("value", "items", "line", "column")

    def __init__(self, value=None, items=None, line=0, column=0):
        self.value = value
        self.items = items
        self.line = line
        self.column = column

    @property
    def is_list(self) -> bool:
        return self.items is not None

    def __repr__(self):  # pragma: no cover - debugging aid
        return write(self)


# "(", ")", a newline, a comment, or else an atom (no group); the search
# skips the blanks between tokens, the only characters none of them matches
_TOKEN = re.compile(r"(\()|(\))|(\n)|(;[^\n]*)|[^ \t\r\n();]+")


def parse(text: str) -> list[Node]:
    """All toplevel forms in the text; comments run from ';' to newline.
    Lines and columns count from 1.  Only a line feed ends a line, and a
    form feed or vertical tab is an atom character."""
    forms: list[Node] = []
    stack: list[Node] = []  # the open lists, innermost last
    items = forms  # where the next form goes
    line, line_end = 1, -1  # line_end: the offset of the last newline
    for m in _TOKEN.finditer(text):
        kind = m.lastindex
        if kind is None:
            token = m.group()
            value: object = token
            if not token[0].isalpha():  # int() rejects a leading letter
                try:
                    value = int(token)
                except ValueError:
                    pass
            items.append(Node(value, None, line, m.start() - line_end))
        elif kind == 1:
            node = Node(None, [], line, m.start() - line_end)
            items.append(node)
            stack.append(node)
            items = node.items
        elif kind == 2:
            if not stack:
                raise SexprError("unbalanced ')'", line, m.start() - line_end)
            stack.pop()
            items = stack[-1].items if stack else forms
        elif kind == 3:
            line += 1
            line_end = m.start()
    if stack:
        raise SexprError("unterminated '('", stack[-1].line, stack[-1].column)
    return forms


def write(node: Node) -> str:
    if not node.is_list:
        return str(node.value)
    return "(" + " ".join(write(item) for item in node.items) + ")"


def lst(*items) -> Node:
    """A list node of the items, each one that is not a node as an atom."""
    return Node(items=[it if isinstance(it, Node) else Node(value=it)
                       for it in items])
