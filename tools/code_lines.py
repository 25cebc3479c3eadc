"""Count the code lines of Python modules: docstrings, comments and blank lines aside.

    python3 tools/code_lines.py [DIR]     # DIR defaults to src

Prints one line per module under DIR (recursively), then the total.  A line
counts when a token other than a comment, a line break or an indent starts,
ends or spans it, outside the docstrings of modules, classes and functions.
"""

import ast
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    text = path.read_text(encoding="utf-8")
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    lines = set()
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type not in LAYOUT:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv=None) -> int:
    root = Path((argv or sys.argv[1:] or ["src"])[0])
    counts = {path: code_lines(path) for path in sorted(root.rglob("*.py"))}
    for path, count in counts.items():
        print(f"{count:6d}  {path.relative_to(root)}")
    print(f"{sum(counts.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
