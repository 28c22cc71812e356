"""The size of ``src/``: total, code and docstring lines per module.

Run from the repository root, with the standard library only::

    python tests/src_size.py

A docstring line is one spanned by the docstring of a module, class or
function; a code line is any other line with a token that is not a
comment; the rest of the total are comments and blank lines.
"""

import ast
import io
import os
import tokenize

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src")
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef,
               ast.AsyncFunctionDef)
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def count(text):
    """``(total, code, docstring)`` line counts of one module's source."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, False):
            first = node.body[0]
            docs.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docs), len(docs)


def main():
    paths = sorted(os.path.join(root, name)
                   for root, _, names in os.walk(SRC)
                   for name in names if name.endswith(".py"))
    totals = [0, 0, 0]
    print(f"{'module':24} {'total':>6} {'code':>6} {'docs':>6}")
    for path in paths:
        with open(path) as fh:
            counts = count(fh.read())
        totals = [a + b for a, b in zip(totals, counts)]
        print(f"{os.path.relpath(path, SRC):24} "
              + " ".join(f"{n:6d}" for n in counts))
    print(f"{'src/':24} " + " ".join(f"{n:6d}" for n in totals))


if __name__ == "__main__":
    main()
