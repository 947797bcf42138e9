"""Count the lines of the package's modules, and those of them holding code.

Usage: python3 tools/code_lines.py [SRC_DIR]

For each ``SRC_DIR/tsleakscan/*.py`` (SRC_DIR defaults to the ``src`` next
to this tool), and in total, it prints all lines, as ``wc -l`` counts them,
and the lines holding code: those with a token of a statement on them, so
not blank, not only a comment and not inside a docstring.
"""

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree) -> set:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(path) -> tuple:
    """(all lines, lines holding code) of the module ``path``."""
    source = path.read_bytes()
    code = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _NOT_CODE:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count(b"\n"), len(code - docstring_lines(ast.parse(source)))


def main(argv):
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    total = [0, 0]
    for path in sorted((src / "tsleakscan").glob("*.py")):
        lines, code = counts(path)
        total = [total[0] + lines, total[1] + code]
        print(f"{lines:6d} {code:6d}  {path.name}")
    print(f"{total[0]:6d} {total[1]:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
