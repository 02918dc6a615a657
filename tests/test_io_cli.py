import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from oracles import divisors_equal

import tropint
from tropint.cli import main
from tropint.cycles import cycles_equal, rn_cycle, standard_skeleton
from tropint.divisors import pl_rep, weil_divisor
from tropint.documents import DocumentError, parse_document, serialize_document
from tropint.kernel import QQ
from tropint.library import (
    builtin_example,
    map_f1,
    pushforward_fan,
    rigid_function,
    sawtooth_function,
)
from tropint.render import render_svg
from tropint.rn_products import stable_intersect

RENDER_DATA = Path(__file__).resolve().parent / "data" / "render"


def roundtrip(obj):
    text = serialize_document(obj)
    doc = parse_document(text)
    assert serialize_document(doc) == text
    return doc.payload


def test_cycle_roundtrip():
    for cyc in (standard_skeleton(2, 1), rn_cycle(2), pushforward_fan(),
                builtin_example("rigid-curve"), builtin_example("conic-curve")):
        back = roundtrip(cyc)
        assert cycles_equal(back, cyc)


def test_function_roundtrip():
    h = builtin_example("hyperplane:2")
    back = roundtrip(h)
    for p in [(0, 0), (2, 1), (-3, 5)]:
        assert pl_rep(back).value(p) == pl_rep(h).value(p)
    saw = sawtooth_function()
    back = roundtrip(saw)
    assert pl_rep(back).value((0, 1)) == 1
    rf = rigid_function()
    back = roundtrip(rf)
    assert divisors_equal(back, rf, builtin_example("rigid-surface"))


def test_map_roundtrip():
    m = roundtrip(map_f1())
    assert m.matrix == ((1, 1),)


def test_parse_example_function_document():
    text = json.dumps({
        "format_version": "1",
        "kind": "function",
        "type": "max_affine",
        "terms": [
            {"linear": [1, 0], "constant": 0},
            {"linear": [0, 1], "constant": 0},
            {"linear": [0, 0], "constant": 0},
        ],
    })
    phi = parse_document(text).payload
    div = weil_divisor(phi, rn_cycle(2))
    assert cycles_equal(div, standard_skeleton(2, 1))


def test_rationals_as_strings_and_floats_rejected():
    text = json.dumps({
        "kind": "cycle", "ambient_dim": 1, "dim": 1,
        "cells": [{"ineqs": [[2, "1/3"]], "eqs": [], "weight": 1}],
    })
    cyc = parse_document(text).payload
    assert cyc.complex.cells[0].contains_point((QQ(1, 6),))
    assert not cyc.complex.cells[0].contains_point((QQ(1, 7),))
    with pytest.raises(DocumentError, match="decimal"):
        parse_document('{"kind": "cycle", "ambient_dim": 1, "dim": 1, '
                       '"cells": [{"ineqs": [[1, 0.5]], "eqs": [], "weight": 1}]}')


def test_parse_errors_carry_paths():
    with pytest.raises(DocumentError, match=r"\$\.kind"):
        parse_document('{"kind": "nope"}')
    with pytest.raises(DocumentError, match=r"cells\[0\]"):
        parse_document('{"kind": "cycle", "ambient_dim": 1, "dim": 1, '
                       '"cells": [{"ineqs": [[1, 1]], "eqs": [[1, -1]], "weight": 1}]}')
    with pytest.raises(DocumentError, match="matrix"):
        parse_document('{"kind": "map", "matrix": [[1, 0], [1]]}')


_MALFORMED = {
    "piece-not-object": ({"kind": "function", "type": "piecewise", "pieces": [5]},
                         r"\$\.pieces\[0\]: expected an object"),
    "cell-ineqs-not-list": ({"kind": "cycle", "ambient_dim": 1, "dim": 1,
                             "cells": [{"ineqs": 5, "eqs": [], "weight": 1}]},
                            r"\$\.cells\[0\]\.ineqs: expected a list"),
    "piece-ineqs-not-list": ({"kind": "function", "type": "piecewise",
                              "pieces": [{"ineqs": 5, "linear": [1], "constant": 0}]},
                             r"\$\.pieces\[0\]\.ineqs: expected a list"),
    "negative-ambient-dim": ({"kind": "cycle", "ambient_dim": -1, "dim": 0,
                              "cells": [{"ineqs": [], "eqs": [], "weight": 1}]},
                             r"\$\.ambient_dim: expected a non-negative"),
    "empty-cycle-dim-too-large": ({"kind": "cycle", "ambient_dim": 2, "dim": 7, "cells": []},
                                  r"\$\.dim: expected a dimension from -2 to 2, got 7"),
    "empty-cycle-dim-too-small": ({"kind": "cycle", "ambient_dim": 2, "dim": -3, "cells": []},
                                  r"\$\.dim: expected a dimension from -2 to 2, got -3"),
}


@pytest.mark.parametrize("name", sorted(_MALFORMED))
def test_malformed_document_is_a_parse_error(name, capsys, tmp_path):
    # Each of these once escaped the parser as an AttributeError, TypeError
    # or IndexError; a schema violation is exit 2 with the offending path.
    data, message = _MALFORMED[name]
    with pytest.raises(DocumentError, match=message):
        parse_document(json.dumps(data))
    doc = tmp_path / "malformed.json"
    doc.write_text(json.dumps(data))
    assert main(["validate", str(doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "expected" in captured.err


def test_empty_product_of_negative_dimension_roundtrips(tmp_path):
    # A point and a line in R^3 meet stably in the empty cycle of dimension
    # 0 + 1 - 3 = -2, which reads back as it was written.
    point = parse_document(json.dumps({
        "kind": "cycle", "ambient_dim": 3, "dim": 0,
        "cells": [{"ineqs": [], "eqs": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
                   "weight": 1}]})).payload
    empty = stable_intersect(point, standard_skeleton(3, 1))
    assert empty.is_empty and (empty.ambient_dim, empty.dim) == (3, -2)
    back = roundtrip(empty)
    assert back.is_empty and (back.ambient_dim, back.dim) == (3, -2)
    doc = tmp_path / "empty.json"
    doc.write_text(serialize_document(empty))
    assert main(["validate", str(doc)]) == 0


def test_serialization_is_deterministic():
    a = serialize_document(standard_skeleton(2, 1))
    b = serialize_document(standard_skeleton(2, 1))
    assert a == b


def test_cli_validate_and_degree(capsys, tmp_path):
    assert main(["validate", "Lnk:2:1"]) == 0
    assert "balanced" in capsys.readouterr().out
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "kind": "cycle", "ambient_dim": 1, "dim": 1,
        "cells": [{"ineqs": [[1, 0]], "eqs": [], "weight": 1},
                  {"ineqs": [[-1, 0]], "eqs": [], "weight": 2}],
    }))
    assert main(["validate", str(bad)]) == 1
    assert "unbalanced" in capsys.readouterr().out
    assert main(["degree", "Lnk:2:1"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_cli_validate_rejects_overlapping_cells(capsys, tmp_path):
    # The line y = 0 plus both of its half-lines: balanced at every ridge,
    # but the half-lines overlap the line in dimension 1.
    doc = tmp_path / "overlap.json"
    doc.write_text(json.dumps({
        "kind": "cycle", "ambient_dim": 2, "dim": 1,
        "cells": [{"ineqs": [], "eqs": [[0, 1, 0]], "weight": 1},
                  {"ineqs": [[1, 0, 0]], "eqs": [[0, 1, 0]], "weight": 1},
                  {"ineqs": [[-1, 0, 0]], "eqs": [[0, 1, 0]], "weight": 1}],
    }))
    assert main(["validate", str(doc)]) == 1
    out = capsys.readouterr().out
    assert "balanced" not in out
    assert "invalid complex: maximal cells 0 and 1 overlap in dimension 1" in out


def test_cli_math_commands_reject_invalid_cycles(capsys, tmp_path):
    ray = tmp_path / "ray.json"
    ray.write_text(json.dumps({
        "kind": "cycle", "ambient_dim": 2, "dim": 1,
        "cells": [{"ineqs": [[1, 0, 0]], "eqs": [[0, 1, 0]], "weight": 1}],
    }))
    assert main(["degree", str(ray)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "unbalanced at ridge" in captured.err
    assert main(["intersect", str(ray), "Lnk:2:1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "unbalanced at ridge" in captured.err
    overlap = tmp_path / "overlap.json"
    overlap.write_text(json.dumps({
        "kind": "cycle", "ambient_dim": 2, "dim": 1,
        "cells": [{"ineqs": [], "eqs": [[0, 1, 0]], "weight": 1},
                  {"ineqs": [[1, 0, 0]], "eqs": [[0, 1, 0]], "weight": 1},
                  {"ineqs": [[-1, 0, 0]], "eqs": [[0, 1, 0]], "weight": 1}],
    }))
    assert main(["degree", str(overlap)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "invalid complex" in captured.err


def test_cli_chain_rigid_example(capsys, tmp_path):
    out = tmp_path / "second.json"
    code = main(["chain", "rigid-function", "rigid-function", "rigid-surface",
                 "-o", str(out)])
    assert code == 0
    cycle = parse_document(out.read_text()).payload
    from tropint.rn_products import degree
    assert degree(cycle) == -1
    assert main(["degree", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "-1"


def test_cli_bezout(capsys):
    assert main(["bezout", "Lnk:2:1", "Lnk:2:1"]) == 0
    assert capsys.readouterr().out.split() == ["1", "1", "1", "PASS"]
    assert main(["bezout", "conic-curve", "conic-curve"]) == 0
    assert capsys.readouterr().out.split() == ["2", "2", "4", "PASS"]
    assert main(["bezout", "pinwheel-curve", "Lnk:2:1"]) == 0
    assert capsys.readouterr().out.split()[-1] == "NOT-APPLICABLE"


def test_cli_pushforward_example(capsys, tmp_path):
    out = tmp_path / "pushed.json"
    assert main(["pushforward", "map-f1", "pushfwd-fan", "-o", str(out)]) == 0
    pushed = parse_document(out.read_text()).payload
    assert sorted(pushed.complex.weights) == [2, 2]
    assert main(["pushforward", "map-f2", "pushfwd-fan", "-o", str(out)]) == 0
    pushed = parse_document(out.read_text()).payload
    assert sorted(pushed.complex.weights) == [1, 1]


def test_cli_pullback_and_intersect(tmp_path, capsys):
    out = tmp_path / "f.json"
    assert main(["pullback", "map-f1", "hyperplane:1", "-o", str(out)]) == 0
    phi = parse_document(out.read_text()).payload
    assert pl_rep(phi).value((2, 1)) == 3
    out2 = tmp_path / "z.json"
    assert main(["intersect", "Lnk:2:1", "Lnk:2:1", "-o", str(out2)]) == 0
    z = parse_document(out2.read_text()).payload
    assert z.dim == 0 and sum(z.complex.weights) == 1


def test_cli_example_listing_and_errors(capsys):
    assert main(["example", "--list"]) == 0
    names = capsys.readouterr().out.split()
    assert "rigid-surface" in names and "pushfwd-fan" in names
    assert main(["example", "no-such-thing"]) == 2
    err = capsys.readouterr().err
    assert "unknown example" in err
    assert main(["example", "no-such-thing", "--json"]) == 2
    err = capsys.readouterr().err
    assert json.loads(err)["error"].startswith("unknown example")


def test_cli_usage_error_codes(capsys, tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["degree", missing]) == 2
    capsys.readouterr()
    assert main(["chain", "rigid-function"]) == 2
    capsys.readouterr()
    # Kind mismatch: a map where a cycle is expected.
    assert main(["degree", "map-f1"]) == 2
    capsys.readouterr()


def test_cli_math_error_codes(capsys):
    # Too many divisors for the cycle dimension is a calculus failure.
    assert main(["chain", "hyperplane:2", "hyperplane:2", "Lnk:2:1"]) == 1
    capsys.readouterr()
    # Mismatched ambient spaces in an intersection.
    assert main(["intersect", "Lnk:2:1", "Lnk:3:1"]) == 1
    capsys.readouterr()
    # A map whose width disagrees with the cycle.
    assert main(["pushforward", "map-f1", "Lnk:3:1"]) == 1
    capsys.readouterr()


def test_render_svg(tmp_path):
    svg = render_svg(standard_skeleton(2, 1))
    assert svg.startswith("<svg") and svg.count("<line") == 3
    svg = render_svg(builtin_example("conic-curve"), bbox=(-6, -6, 6, 6))
    assert svg.count("<line") == 9
    out = tmp_path / "line.svg"
    assert main(["render", "Lnk:2:1", "-o", str(out), "--bbox=-4,-4,4,4"]) == 0
    assert out.read_text().count("<line") == 3
    with pytest.raises(ValueError):
        render_svg(rn_cycle(2))
    # Exact output, clipping included: a default box that holds every vertex
    # and a rational box that cuts edges and rays.
    boxes = {"default": (-5, -5, 5, 5), "clipped": (QQ(-1, 2), -2, QQ(7, 3), QQ(3, 2))}
    for name in ("pinwheel-curve", "conic-curve"):
        for tag, bbox in boxes.items():
            expected = (RENDER_DATA / f"{name}-{tag}.svg").read_text(encoding="utf-8")
            assert render_svg(builtin_example(name), bbox=bbox) == expected, (name, tag)


def _child_env():
    """This environment with the directory tropint was imported from put
    first on the child's PYTHONPATH, so a child process imports the same
    tropint whether or not it is installed."""
    src = str(Path(tropint.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def test_cli_output_bytes_deterministic_across_processes():
    cmd = [sys.executable, "-m", "tropint.cli", "intersect", "Lnk:2:1", "conic-curve"]
    first = subprocess.run(cmd, capture_output=True, check=True, env=_child_env()).stdout
    second = subprocess.run(cmd, capture_output=True, check=True, env=_child_env()).stdout
    assert first == second and first.startswith(b"{")


def test_cli_rejects_unbalanced_cycle_under_python_O(tmp_path):
    # Optimized mode strips assert statements; the checks must still run.
    ray = tmp_path / "ray.json"
    ray.write_text(json.dumps({
        "kind": "cycle", "ambient_dim": 2, "dim": 1,
        "cells": [{"ineqs": [[1, 0, 0]], "eqs": [[0, 1, 0]], "weight": 1}],
    }))
    for command in ("validate", "degree"):
        cmd = [sys.executable, "-O", "-m", "tropint.cli", command, str(ray)]
        done = subprocess.run(cmd, capture_output=True, env=_child_env())
        assert done.returncode == 1, (command, done.stdout, done.stderr)


def test_tropint_never_imports_gmpy2():
    script = (
        "import sys\n"
        "from fractions import Fraction\n"
        "import tropint\n"
        "assert tropint.QQ is Fraction\n"
        "from tropint.cycles import standard_skeleton, is_balanced\n"
        "from tropint.rn_products import stable_intersect, degree\n"
        "line = standard_skeleton(2, 1)\n"
        "assert is_balanced(line.complex).balanced\n"
        "assert degree(stable_intersect(line, line)) == 1\n"
        "assert 'gmpy2' not in sys.modules\n"
        "print('fraction-only')\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, check=True,
                         env=_child_env())
    assert b"fraction-only" in out.stdout


def test_example_documents_roundtrip_all():
    for name in ("rigid-surface", "rigid-function", "rigid-curve", "pushfwd-fan",
                 "map-f1", "map-f2", "conic", "Lnk:3:2", "hyperplane:3"):
        obj = builtin_example(name)
        roundtrip(obj)
