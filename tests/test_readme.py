"""The README's library sketch runs as written, and its CLI synopsis matches the parser."""
import re
from pathlib import Path

import numpy as np

from nmsparse.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def library_sketch() -> str:
    section = README.read_text().split("## Library sketch", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_sketch_runs_on_a_small_layer():
    rng = np.random.default_rng(0)
    w4 = rng.normal(size=(8, 8, 3, 3))
    x = rng.normal(size=(8 * 3 * 3, 5))
    scope = {"w4": w4, "x": x}
    exec(compile(library_sketch(), str(README), "exec"), scope)
    folded, y = scope["folded"], scope["y"]  # compress raised if folded broke 2:4
    assert folded.shape == w4.shape
    expected = folded.reshape(8, -1).astype(np.float32).astype(np.float64) @ x
    np.testing.assert_allclose(y, expected, rtol=1e-12, atol=1e-12)


def test_readme_cli_synopsis_lists_every_subcommand_and_flag():
    block = README.read_text().split("## CLI", 1)[1].split("```")[1]
    documented = {}
    for line in block.splitlines():
        if line.startswith("nmsparse "):
            documented[line.split()[1]] = set(re.findall(r"--[a-z]+", line))
    subparsers = next(a for a in build_parser()._actions if a.dest == "command").choices
    parsed = {
        name: {s for a in sub._actions for s in a.option_strings if s.startswith("--") and s != "--help"}
        for name, sub in subparsers.items()
    }
    assert documented == parsed
