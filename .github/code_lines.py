"""Count the code lines of the package: per module and in total.

A code line is a source line that holds at least one token other than a
comment, an indent or a line break, and is not part of a docstring
(the leading string literal of a module, class or function).  Blank
lines, comments and docstrings therefore do not count, and a statement
continued over several lines counts once per line it spans.

Run from the repository root:

    python3 .github/code_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree):
    """Line numbers covered by the docstrings of the parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in a module's source text."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE and tok.start[0] not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main():
    total = 0
    for path in sorted(Path("src/eulerfan").glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:20} {count:5}")
    print(f"{'total':20} {total:5}")


if __name__ == "__main__":
    main()
