"""The README's library example runs and prints what its comments claim."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    code = blocks[0]
    # the numbers checked below are the ones the comments state
    assert "# ~178.5 K and ~389.7 K" in code
    assert "# closest thermal state near 47.6 K" in code
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    printed = capsys.readouterr().out
    assert printed.count("\n") == 2
    assert namespace["env31"].T_eff == pytest.approx(178.5, rel=0.01)
    assert namespace["env32"].T_eff == pytest.approx(389.7, rel=0.01)
    closest = namespace["closest_thermal"](namespace["pops"], namespace["atom"])
    assert closest.closest_T == pytest.approx(47.6, abs=0.5)
    assert f"closest_T={closest.closest_T!r}" in printed
