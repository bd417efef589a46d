"""Count the code lines of Python files: lines that hold a token of code,
leaving out blank lines, comments and docstrings.

    python3 scripts/code_lines.py src/procure

prints one line per file, then the total on the last line.

A docstring is the string that :func:`ast.get_docstring` would return: the
first statement of a module, class or function body when it is a string
literal. Its lines do not count unless code shares them. Standard library
only.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    docstrings = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or (tok.type == tokenize.STRING and tok.start[0] in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", help="Python files or directories to search for *.py")
    args = parser.parse_args(argv)
    total = 0
    for root in map(Path, args.paths):
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for path in files:
            count = code_lines(path.read_text())
            total += count
            print(f"{count:6d} {path}")
    print(total)
    return 0


if __name__ == "__main__":
    sys.exit(main())
