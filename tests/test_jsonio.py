import math

import pytest

from simplex_spectra import jsonio


def test_dumps_layout_is_pinned():
    payload = {
        "nested": {"empty_dict": {}, "empty_list": [],
                   "list": [1, [True, None], {"k": -0.0}]},
        "sé \"q\"": "naïve \"quoted\"",
        "third": 1 / 3,
        "flag": False,
    }
    expected = (
        '{\n'
        '  "nested": {\n'
        '    "empty_dict": {},\n'
        '    "empty_list": [],\n'
        '    "list": [\n'
        '      1,\n'
        '      [\n'
        '        true,\n'
        '        null\n'
        '      ],\n'
        '      {\n'
        '        "k": -0\n'
        '      }\n'
        '    ]\n'
        '  },\n'
        '  "s\\u00e9 \\"q\\"": "na\\u00efve \\"quoted\\"",\n'
        '  "third": 0.33333333333333331,\n'
        '  "flag": false\n'
        '}'
    )
    assert jsonio.dumps(payload) == expected


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_dumps_rejects_non_finite_floats(value):
    with pytest.raises(ValueError):
        jsonio.dumps({"rows": [value]})


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
def test_load_rejects_non_finite_constants(tmp_path, text):
    path = tmp_path / "p.json"
    path.write_text('{"rows": [1.0, ' + text + ']}')
    with pytest.raises(ValueError):
        jsonio.load(path)
