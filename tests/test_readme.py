"""README's library example runs and gives what its comment claims."""

import math
import re
from pathlib import Path

from lambda_spectra.units import khz

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example(capsys):
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.DOTALL)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    capsys.readouterr()
    params = namespace["fit"].params
    # "|phi| > 0.6 pi (absorption), 0.1-10 kHz wide"
    assert abs(params.phi) > 0.6 * math.pi
    assert 0.1 < params.gamma_tilde / khz(1) < 10.0
