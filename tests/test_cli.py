"""Command-line interface: verbs, output formats, exit codes."""

import json
import time

import pytest

from singspec.cli import main
from singspec.localalg import milnor_algebra
from singspec.polycore import parse_polynomial


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_milnor(capsys):
    code, out, err = run(capsys, "milnor", "x^5 + y^4")
    assert code == 0
    assert out == "mu = 12\n"


def test_tjurina(capsys):
    code, out, _ = run(capsys, "tjurina", "x^5 + y^4 + x^3*y^2")
    assert code == 0
    assert out == "tau = 11\n"


def test_spectrum_json(capsys):
    code, out, _ = run(capsys, "spectrum", "x^5 + y^4", "--json")
    assert code == 0
    data = json.loads(out)
    entries = data["spectrum"]
    assert sum(e["mult"] for e in entries) == 12
    assert entries[0] == {"num": 9, "den": 20, "mult": 1}
    assert entries[-1] == {"num": 31, "den": 20, "mult": 1}


def test_hi_and_tj_spectrum(capsys):
    code, out, _ = run(capsys, "hi-spectrum", "x^5 + y^4 + x^3*y^2",
                       "--json")
    assert code == 0
    hi = json.loads(out)["hi_spectrum"]
    assert sum(e["mult"] for e in hi) == 12
    assert hi[-1] == {"num": 17, "den": 10, "mult": 1}
    code, out, _ = run(capsys, "tj-spectrum", "x^5 + y^4 + x^3*y^2",
                       "--json")
    assert code == 0
    tj = json.loads(out)["tj_spectrum"]
    assert sum(e["mult"] for e in tj) == 11


def test_epsilon(capsys):
    code, out, _ = run(capsys, "epsilon", "x^5 + y^4 + x^3*y^2")
    assert code == 0
    assert "gamma_f = 7/10" in out
    assert "epsilon_f = 3/20" in out


def test_newton_verb(capsys):
    code, out, _ = run(capsys, "newton", "x^5 + y^4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["convenient"] is True
    assert sorted(map(tuple, data["vertices"])) == [(0, 4), (5, 0)]


def test_nondegenerate_yes(capsys):
    code, out, _ = run(capsys, "nondegenerate", "x^5 + y^4")
    assert code == 0
    assert "verdict: yes" in out


def test_nondegenerate_no_with_face(capsys):
    code, out, _ = run(capsys, "nondegenerate",
                       "(u^2-v^2)^2 + z^5 + 4*u*v*z")
    assert code == 0
    assert "verdict: no" in out
    assert "(0, 4, 0)" in out and "(4, 0, 0)" in out


def test_check_thm1(capsys):
    code, out, _ = run(capsys, "check", "thm1", "x^5 + y^4 + x^3*y^2",
                       "--json")
    assert code == 0
    data = json.loads(out)["thm1"]
    assert data["applicable"] is True
    assert data["holds"] is True
    assert data["shift"] == {"num": 3, "den": 20}


def test_check_prop2(capsys):
    code, out, _ = run(capsys, "check", "prop2",
                       "x^5 + y^4 + x^3*y^2 + z^2", "--json")
    assert code == 0
    data = json.loads(out)["prop2"]
    assert data["found"] is True


def test_scan_monotonicity_clean(capsys):
    code, out, _ = run(capsys, "scan-monotonicity", "x^5 + y^4")
    assert code == 0
    assert out.startswith("violations: 0")


def test_convenientize_verb(capsys):
    code, out, _ = run(capsys, "convenientize", "x^2*y + y^4", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["exponents"]) == 1
    assert "augmented" in data


def test_report_json_schema(capsys):
    code, out, _ = run(capsys, "report", "x^5 + y^4", "--json")
    assert code == 0
    data = json.loads(out)
    for key in ("input", "variables", "mu", "tau", "spectrum",
                "hi_spectrum", "tj_spectrum", "gamma_f", "epsilon_f",
                "checks", "caps"):
        assert key in data
    assert data["mu"] == 12 and data["tau"] == 12
    for stmt in ("thm1", "thm2", "thm3", "prop1", "prop2"):
        assert stmt in data["checks"]


def test_report_caps_are_the_truncation_and_the_p_cutoff(capsys):
    # every answer is exact and deterministic: no seed is taken or echoed
    code, out, _ = run(capsys, "report", "x^5 + y^4", "--json")
    assert code == 0
    assert json.loads(out)["caps"] == {"trunc": 10, "max_p": 3}
    with pytest.raises(SystemExit) as exc:
        main(["report", "x^5 + y^4", "--seed", "1"])
    assert exc.value.code == 1


def test_report_byte_stable(capsys):
    _, out1, _ = run(capsys, "report", "x^5 + y^4", "--json")
    _, out2, _ = run(capsys, "report", "x^5 + y^4", "--json")
    assert out1 == out2


def test_vars_and_weights_flags(capsys):
    code, out, _ = run(capsys, "milnor", "a^3 + b^3", "--vars", "a,b")
    assert code == 0 and out == "mu = 4\n"
    code, out, _ = run(capsys, "spectrum", "x^5 + y^4",
                       "--weights", "1/5,1/4", "--json")
    assert code == 0


def test_file_input(tmp_path, capsys):
    path = tmp_path / "poly.txt"
    path.write_text("x^3 + y^3\n")
    code, out, _ = run(capsys, "milnor", "--file", str(path))
    assert code == 0 and out == "mu = 4\n"


def test_out_flag(tmp_path, capsys):
    path = tmp_path / "result.json"
    code, _, _ = run(capsys, "milnor", "x^3 + y^3", "--json",
                     "--out", str(path))
    assert code == 0
    assert json.loads(path.read_text()) == {"mu": 4}


def test_usage_errors_exit_1(capsys):
    assert run(capsys, "milnor")[0] == 1  # no polynomial
    assert run(capsys, "milnor", "x^2)+y")[0] == 1  # parse error
    assert run(capsys, "milnor", "x^2+y^2", "--vars", "x")[0] == 1
    with pytest.raises(SystemExit) as exc:
        main(["no-such-verb", "x^2"])
    assert exc.value.code == 1


@pytest.mark.parametrize("argv", [
    ("hi-spectrum", "x^5 + y^4", "--max-p", "-1"),
    ("report", "x^5 + y^4", "--max-p", "-1"),
    ("scan-monotonicity", "x^5 + y^4", "--max-p", "-1"),
    ("milnor", "x^5 + y^4", "--weights", "1/0,1/4"),
    ("spectrum", "x^5 + y^4", "--weights", "1/5,1/0"),
    ("milnor", "x^5 + y^4", "--vars", "x,y,x"),
])
def test_input_errors_exit_1_without_traceback(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_unsupported_exit_2(capsys):
    code, _, err = run(capsys, "milnor", "x^2*y^2")
    assert code == 2
    assert "unsupported" in err
    assert "NonIsolatedError" in err


@pytest.mark.parametrize("argv", [
    ("milnor", "x^2*y^2"),
    # z is free, so the z-axis is singular; without the axis test the
    # truncation climbed to its cap before giving up
    ("milnor", "x^5+y^4", "--vars", "x,y,z"),
])
def test_singular_axis_exits_2_at_once(capsys, argv):
    start = time.monotonic()
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "NonIsolatedError" in err and "axis" in err
    assert time.monotonic() - start < 5


@pytest.mark.parametrize("text", [
    # singular along the curves x^3 = y^2, z = 0 and x = z^2,
    # x^2 = y^3, on no coordinate axis: the truncated Jacobian
    # codimension exceeds the product of the partials' degrees in the
    # first round; before that bound the truncation climbed to its cap
    "(x^3-y^2)^2+z^2",
    "(x^2-y^3)^2+(z^2-x)^2",
])
def test_bezout_bound_exits_2_at_once(capsys, text):
    start = time.monotonic()
    code, _, err = run(capsys, "milnor", text)
    assert code == 2
    assert "NonIsolatedError" in err and "Bezout" in err
    assert time.monotonic() - start < 5


def test_truncation_cap_exit_3(capsys):
    # isolated (mu = 39), but the starting degree 80 is above the cap
    code, _, err = run(capsys, "milnor", "x^40 + y^2")
    assert code == 3
    assert "resource cap" in err


def test_trunc_flag_does_not_leak(capsys):
    code, out, _ = run(capsys, "milnor", "x^5 + y^4", "--trunc", "40")
    assert (code, out) == (0, "mu = 12\n")
    f = parse_polynomial("x^3 + y^3", ["x", "y"])
    assert milnor_algebra(f).N == 6


def test_timing_flag(capsys):
    code, _, err = run(capsys, "milnor", "x^3 + y^3", "--time")
    assert code == 0
    assert "elapsed:" in err
