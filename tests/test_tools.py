"""Smoke test of tools/code_lines.py, the code-line count of ``src/``."""

import subprocess
import sys
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

FIXTURE = textwrap.dedent('''\
    """Module docstring,
    two lines."""

    import math  # a comment after code


    # a comment line
    class Thing:
        """Class docstring."""

        def area(self, r):
            """Function docstring,

            three lines."""
            text = """a string,
            not a docstring"""
            return (math.pi
                    * r * r)
    ''')


def test_counts_code_lines_only(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(FIXTURE)
    (package / "empty.py").write_text("# nothing but a comment\n")
    proc = subprocess.run([sys.executable, str(TOOL), str(tmp_path)],
                          capture_output=True, text=True, check=True)
    # import, class, def, the two lines of text = ..., the two of return
    assert proc.stdout.splitlines() == [
        "     0  pkg/empty.py",
        "     7  pkg/mod.py",
        "     7  total",
    ]
