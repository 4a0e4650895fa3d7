"""Join call-trace dumps against the function definitions of a source tree.

    python join.py SRC/repro TRACE_OUT

Prints one line per unreached definition (``path:line``, name, length in
lines) and a closing ``# U of N definitions unreached (L lines)`` count.
A definition is reached if ``(file, first decorator-or-def line, name)``
appears in a dump. Only function code objects count: module and class
bodies run at import, which is no evidence of use. Definitions nested in
an unreached one are listed but their lines are not counted again.
"""

import ast
import pathlib
import sys


def main(argv):
    root, dumps = pathlib.Path(argv[1]).resolve(), pathlib.Path(argv[2])
    seen = set()
    for dump in dumps.glob("*.txt"):
        for line in dump.read_text().splitlines():
            filename, first, name = line.split("\t")
            seen.add((str(pathlib.Path(filename).resolve()), int(first), name))
    totals = {"count": 0, "unreached": 0, "lines": 0}

    def visit(node, path, inside_unreached):
        for child in ast.iter_child_nodes(node):
            dead = inside_unreached
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                totals["count"] += 1
                if (str(path), first, child.name) not in seen:
                    totals["unreached"] += 1
                    size = child.end_lineno - first + 1
                    totals["lines"] += 0 if inside_unreached else size
                    print(f"{path.relative_to(root)}:{first}\t{child.name}\t{size}")
                    dead = True
            visit(child, path, dead)

    for path in sorted(root.rglob("*.py")):
        visit(ast.parse(path.read_text()), path.resolve(), False)
    print(
        f"# {totals['unreached']} of {totals['count']} definitions unreached "
        f"({totals['lines']} lines)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
