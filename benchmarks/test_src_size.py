"""The source-size counter's rule, pinned on a sample module."""

from __future__ import annotations

import src_size

#: 16 lines, 7 of them code: 4, 5, 8, 12, 14, 15 and 16.
SAMPLE = '''\
"""Module docstring,
over two lines."""

import os  # a trailing comment
"""A bare string after the first statement is code."""


class Box:
    """Class docstring."""

    # a comment line
    def size(self):
        """Method docstring."""
        text = """a multi-line
string that is code"""
        return len(text) + len(os.sep)
'''


def test_code_lines_follow_the_rule():
    assert src_size.count_source(SAMPLE) == (16, 7)


def test_only_module_class_and_function_docstrings_are_prose():
    starts = sorted(start[0] for start, _ in src_size.docstring_spans(SAMPLE))
    assert starts == [1, 9, 13]


def test_a_tree_sums_its_python_modules(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "box.py").write_text(SAMPLE)
    (tmp_path / "one.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert src_size.count_tree(tmp_path) == (16 + 3, 7 + 1)


def test_the_summary_line_counts_this_checkout(capsys):
    src_size.main()
    lines, code = src_size.count_tree(src_size.SRC)
    assert 0 < code < lines
    assert capsys.readouterr().out == f"src_size=lines={lines},code={code}\n"
