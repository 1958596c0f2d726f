"""The README's "Library tour" block runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_tour():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library tour"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_tour_prints_the_results_it_states():
    code = _library_tour()
    for stated in ("# 1.0370370370370372", "(= 3/7)", "# 6 eigenpair",
                   "# 4 0"):
        assert stated in code
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    lam, classes, prediction, plane, searched = out.getvalue().splitlines()
    assert lam == "1.0370370370370372"
    stationarity, robust, rho = classes.split()
    assert (stationarity, robust) == ("local_max", "robust")
    assert abs(float(rho) - 3 / 7) <= 1e-12
    assert prediction.startswith("ClosedFormReport(")
    assert plane == "6"
    assert searched == "4 0"
