"""Source size of ``src/``: total lines and code lines.

A *code line* holds at least one token that is not a comment, a
NEWLINE, NL, INDENT or DEDENT token, or part of a module, class or
function docstring; a token spanning several lines (a multi-line
string) makes each of them a code line.  Total lines count every line
of every ``.py`` file under the tree.  Docstrings, comments and blank
lines are not code, so deleted prose does not read as deleted code and
added prose does not read as code growth.

Run from anywhere; it counts its own checkout's ``src/``, so run each
checkout's copy to compare two commits::

    python benchmarks/src_size.py      # src_size=lines=…,code=…
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

#: Token types that never make a line a code line.
_LAYOUT = frozenset(
    {
        tokenize.COMMENT,
        tokenize.NEWLINE,
        tokenize.NL,
        tokenize.INDENT,
        tokenize.DEDENT,
        tokenize.ENDMARKER,
    }
)

_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)

#: The tree this checkout's size is counted over.
SRC = Path(__file__).resolve().parents[1] / "src"

Span = tuple[tuple[int, int], tuple[int, int]]


def docstring_spans(source: str) -> list[Span]:
    """(start, end) positions of every module, class and function
    docstring in *source*."""
    spans: list[Span] = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, _DOCUMENTED) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            end = (first.end_lineno or first.lineno, first.end_col_offset or 0)
            spans.append(((first.lineno, first.col_offset), end))
    return spans


def count_source(source: str) -> tuple[int, int]:
    """``(total lines, code lines)`` of one module's *source*."""
    spans = docstring_spans(source)
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _LAYOUT:
            continue
        if any(start <= token.start and token.end <= end for start, end in spans):
            continue
        code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code)


def count_tree(root: Path) -> tuple[int, int]:
    """``(total lines, code lines)`` summed over every ``.py`` file
    under *root*."""
    lines = code = 0
    for path in sorted(root.rglob("*.py")):
        file_lines, file_code = count_source(path.read_text(encoding="utf-8"))
        lines += file_lines
        code += file_code
    return lines, code


def main() -> None:
    lines, code = count_tree(SRC)
    print(f"src_size=lines={lines},code={code}")


if __name__ == "__main__":
    main()
