"""Count the lines of the stringlab sources.

Run from anywhere:

    python3 tools/code_lines.py

It prints three numbers for src/stringlab/*.py: `src_lines`, every line;
`code_lines`, the lines that hold a token other than a comment and are not
part of a module, class or function docstring; and `doc_lines`, the lines of
those docstrings.  Blank lines, comment lines and docstrings are what
`code_lines` leaves out.
"""

from __future__ import annotations

import ast
import glob
import io
import os
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
IGNORED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The lines of a module's source that hold a token other than a comment, docstrings left out."""
    held = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in IGNORED:
            held.update(range(tok.start[0], tok.end[0] + 1))
    return len(held - docstring_lines(ast.parse(text)))


def main() -> None:
    src_lines = total = docs = 0
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "stringlab", "*.py"))):
        with open(path) as fh:
            text = fh.read()
        src_lines += len(text.splitlines())
        total += code_lines(text)
        docs += len(docstring_lines(ast.parse(text)))
    print(f"src_lines {src_lines}")
    print(f"code_lines {total}")
    print(f"doc_lines {docs}")


if __name__ == "__main__":
    main()
