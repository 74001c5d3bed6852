"""Print code lines, AST nodes and physical lines per Python file and in total.

A code line is a line that holds a token other than a comment, a newline,
an indent/dedent or a docstring (a string expression statement that is the
first statement of a module, class or function).  Nodes are counted with
``ast.walk``.

Usage: python tools/code_size.py FILE...
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize

_SKIP = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def measure(source: str) -> tuple[int, int, int]:
    """(code lines, AST nodes, physical lines) of one source text."""
    tree = ast.parse(source)
    doc = _docstring_lines(tree)
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _SKIP:
            continue
        for line in range(tok.start[0], tok.end[0] + 1):
            if line not in doc:
                code.add(line)
    return len(code), sum(1 for _ in ast.walk(tree)), len(source.splitlines())


def main(paths: list[str]) -> None:
    total = [0, 0, 0]
    print(f"{'code':>8} {'nodes':>8} {'lines':>8}  file")
    for p in paths:
        with open(p, encoding="utf-8") as f:
            row = measure(f.read())
        total = [a + b for a, b in zip(total, row)]
        print(f"{row[0]:>8} {row[1]:>8} {row[2]:>8}  {p}")
    if len(paths) > 1:
        print(f"{total[0]:>8} {total[1]:>8} {total[2]:>8}  total")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    main(sys.argv[1:])
