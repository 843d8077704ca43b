"""The README's examples hold: the library example runs and each
``# value`` comment is the ``repr`` of its expression, and the input
examples next to the command line load under the input rules."""

import ast
import json
import os
import re
from fractions import Fraction

from preqlat.cli import _load_suite_descriptor, load_presentation

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
    README = fh.read()


def _comment_json(marker):
    """The JSON object written after ``marker`` in the README's comments,
    over as many comment lines as it spans."""
    body = ""
    for line in README[README.index(marker) + len(marker):].splitlines():
        body += line.lstrip("# ")
        try:
            return json.loads(body)
        except ValueError:
            continue
    raise AssertionError(f"no JSON object after {marker!r}")


def test_library_example_comments_hold():
    code = re.search(r"## Library example\s+```python\n(.*?)```", README, re.S).group(1)
    lines = code.splitlines()
    namespace, checked = {}, 0
    for stmt in ast.parse(code).body:
        src = ast.get_source_segment(code, stmt)
        comment = lines[stmt.end_lineno - 1].partition("# ")[2]
        if isinstance(stmt, ast.Expr) and comment:
            value = repr(eval(src, namespace))
            # a comment may go on past the value: "((3, 0, 0),) i.e. 3·x*"
            assert comment == value or comment.startswith(value + " "), (src, value)
            checked += 1
        else:
            exec(src, namespace)
    assert checked == 4


def test_readme_input_examples_load(tmp_path):
    path = tmp_path / "presentation.json"
    path.write_text(json.dumps(_comment_json("# schema: ")))
    lie = load_presentation(str(path))
    assert (lie.dim, lie.basis_names) == (4, ("x", "p", "z", "h"))
    assert lie.structure == {(0, 1): {3: Fraction(2)}}
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(_comment_json("--input suite.json")))
    assert _load_suite_descriptor(str(path)) == {"suites": ["all"], "trials": 100, "seed": 42}
