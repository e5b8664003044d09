"""Minimal line-tracking s-expression reader and a deterministic writer."""

from __future__ import annotations


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


def parse(text: str) -> list[Node]:
    """All toplevel forms in the text; comments run from ';' to newline."""
    forms: list[Node] = []
    stack: list[Node] = []
    line, col = 1, 0
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        col += 1
        if ch == "\n":
            line += 1
            col = 0
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            continue
        if ch == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "(":
            node = Node(items=[], line=line, column=col)
            if stack:
                stack[-1].items.append(node)
            stack.append(node)
            i += 1
            continue
        if ch == ")":
            if not stack:
                raise SexprError("unbalanced ')'", line, col)
            node = stack.pop()
            if not stack:
                forms.append(node)
            i += 1
            continue
        start = i
        start_col = col
        while i < n and text[i] not in " \t\r\n();":
            i += 1
            col += 1
        col -= 1
        token = text[start:i]
        try:
            value: object = int(token)
        except ValueError:
            value = token
        atom = Node(value=value, line=line, column=start_col)
        if stack:
            stack[-1].items.append(atom)
        else:
            forms.append(atom)
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
