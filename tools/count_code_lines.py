"""Count the code lines of each module of ``src/drmel``.

A code line is a nonblank line that holds neither only a comment nor part of
a docstring (the string statement that opens a module, class or function).
The script prints one ``count path`` line per module, then the total, and
the count of all lines, blank or not, for comparison. Last it prints how many
names ``__init__.py`` exports, the size of the public surface, counted from its
source without importing it.

Run it from anywhere: ``python3 tools/count_code_lines.py``. It counts the
package of the checkout it lives in.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "drmel"


def docstring_lines(tree: ast.AST) -> set:
    """Line numbers covered by the docstrings of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines of ``source``, by the rule of the module docstring."""
    skip = docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                        tokenize.DEDENT, tokenize.ENDMARKER):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - skip)


def exported_names(source: str) -> list:
    """The names a module's top-level ``from ... import`` statements bind."""
    return [alias.asname or alias.name for node in ast.parse(source).body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def main() -> int:
    total = everything = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        count = code_lines(source)
        total += count
        everything += len(source.splitlines())
        print(f"{count:5d} {path.name}")
    print(f"{total:5d} total code lines ({everything} lines in all)")
    print(f"{len(exported_names((PACKAGE / '__init__.py').read_text())):5d} "
          "names exported by __init__.py")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
