import os
import subprocess
import sys
from pathlib import Path

import pytest

from mvmodal.cli import main
from mvmodal.derivations import box_modus_ponens_lukasiewicz
from mvmodal.parser import (
    MAX_FORMULA_DEPTH,
    MAX_WORLDS,
    parse_model,
    parse_signature,
    render_proof,
)

LUK3 = """\
domain 3
conn imp 2
imp 1 1 = 3
imp 1 2 = 3
imp 1 3 = 3
imp 2 1 = 2
imp 2 2 = 3
imp 2 3 = 3
imp 3 1 = 1
imp 3 2 = 2
imp 3 3 = 3
"""

DEAD_END = "worlds 1\n"


@pytest.fixture
def ws(tmp_path):
    (tmp_path / "sig.mvk").write_text(LUK3)
    (tmp_path / "model.mvk").write_text(DEAD_END)
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_parser_serves_successive_calls(ws, capsys):
    # the parser is built once per process: an error or a help request
    # must leave nothing behind for the next call
    sig = str(ws / "sig.mvk")
    assert run(capsys, "eval", "--sig", sig, "--model", str(ws / "model.mvk"),
               "--world", "0", "Box p")[:2] == (0, "3\n")
    code, out, err = run(capsys, "eval", "--sig", sig, "--world", "x", "p")
    assert code == 2 and out == "" and "usage:" in err
    assert run(capsys, "decide", "--sig", sig, "--logic", "mv-T", "--bound",
               "2", "(Box p, 3) -> (p, 3)")[:2] == (0, "valid-up-to 2\n")
    code, out, _ = run(capsys, "neg-scan", "--n", "2", "--bound", "2")
    assert code == 0 and out.splitlines() == ["survivors 1", "table 2 1"]
    helps = [run(capsys, "--help") for _ in range(2)]
    assert helps[0] == helps[1]
    assert helps[0][0] == 0 and helps[0][1].startswith("usage: mvmodal")


class TestEval:
    def test_box_at_dead_end(self, ws, capsys):
        code, out, _ = run(capsys, "eval", "--sig", str(ws / "sig.mvk"),
                           "--model", str(ws / "model.mvk"),
                           "--world", "0", "Box p")
        assert code == 0 and out.strip() == "3"

    def test_diamond_at_dead_end(self, ws, capsys):
        code, out, _ = run(capsys, "eval", "--sig", str(ws / "sig.mvk"),
                           "--model", str(ws / "model.mvk"),
                           "--world", "0", "Dia p")
        assert code == 0 and out.strip() == "1"

    def test_unknown_connective_is_usage_error(self, ws, capsys):
        code, out, err = run(capsys, "eval", "--sig", str(ws / "sig.mvk"),
                             "--model", str(ws / "model.mvk"),
                             "--world", "0", "nand(p, q)")
        assert code == 2 and "line 1" in err and "column" in err


class TestSat:
    def test_satisfied(self, ws, capsys):
        code, out, _ = run(capsys, "sat", "--sig", str(ws / "sig.mvk"),
                           "--model", str(ws / "model.mvk"),
                           "(Box p, 3) -> (Box p, 3)")
        assert code == 0 and out.splitlines()[0] == "satisfied"

    def test_unsatisfied_names_a_world(self, ws, capsys):
        code, out, _ = run(capsys, "sat", "--sig", str(ws / "sig.mvk"),
                           "--model", str(ws / "model.mvk"),
                           "-> (p, 2)")
        assert code == 1
        assert out.splitlines()[0] == "unsatisfied"
        assert out.splitlines()[1] == "world 0"


class TestDecide:
    def test_countermodel(self, ws, capsys):
        code, out, _ = run(capsys, "decide", "--sig", str(ws / "sig.mvk"),
                           "--logic", "mv-K", "--bound", "1",
                           "(Box p, 3) -> (p, 3)")
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "countermodel"
        assert lines[1] == "world 0"
        sig = parse_signature(LUK3)
        model = parse_model("\n".join(lines[2:]) + "\n", sig)
        assert model.world_count == 1

    def test_valid_up_to(self, ws, capsys):
        code, out, _ = run(capsys, "decide", "--sig", str(ws / "sig.mvk"),
                           "--logic", "mv-T", "--bound", "2",
                           "(Box p, 3) -> (p, 3)")
        assert code == 0 and out.strip() == "valid-up-to 2"

    def test_proved_valid(self, ws, capsys):
        code, out, _ = run(capsys, "decide", "--sig", str(ws / "sig.mvk"),
                           "--logic", "mv-K", "--bound", "3",
                           "(p, 2) -> (p, 2)")
        assert code == 0 and out.strip() == "valid"

    def test_search_stops_at_the_filtration_bound(self, tmp_path, capsys):
        # two values and one variable: 2 worlds settle validity, so bound 5
        # examines 68 models and stays under the ceiling
        (tmp_path / "sig.mvk").write_text(
            "domain 2\nconn imp 2\n"
            "imp 1 1 = 2\nimp 1 2 = 2\nimp 2 1 = 1\nimp 2 2 = 2\n")
        code, out, _ = run(capsys, "decide", "--sig", str(tmp_path / "sig.mvk"),
                           "--logic", "mv-K", "--bound", "5", "--ceiling", "100",
                           "(p, 1) -> (p, 1)")
        assert code == 0 and out.strip() == "valid"

    def test_ceiling_aborts(self, ws, capsys):
        # a valid goal makes the search exhaust its model budget
        code, out, _ = run(capsys, "decide", "--sig", str(ws / "sig.mvk"),
                           "--logic", "mv-T", "--bound", "2", "--ceiling", "5",
                           "(Box p, 3) -> (p, 3)")
        assert code == 2 and out.strip() == "aborted: ceiling"

    def test_bad_logic_name(self, ws, capsys):
        code, _, err = run(capsys, "decide", "--sig", str(ws / "sig.mvk"),
                           "--logic", "mv-Z", "--bound", "1", "-> (p, 1)")
        assert code == 2 and "unknown logic" in err

    def test_sigma_file_constrains_search(self, ws, capsys):
        (ws / "sigma.mvk").write_text("-> (p, 2)\n")
        code, out, _ = run(capsys, "decide", "--sig", str(ws / "sig.mvk"),
                           "--sigma", str(ws / "sigma.mvk"),
                           "--logic", "mv-K", "--bound", "1", "-> (p, 2)")
        assert code == 0 and out.strip() == "valid-up-to 1"


class TestCheckProof:
    def test_accepted(self, ws, capsys):
        script = render_proof(box_modus_ponens_lukasiewicz())
        (ws / "proof.mvk").write_text(script)
        code, out, _ = run(capsys, "check-proof", "--sig", str(ws / "sig.mvk"),
                           "--logic", "mv-K", str(ws / "proof.mvk"))
        assert code == 0 and out.strip() == "accepted"

    def test_violation_names_the_step(self, ws, capsys):
        script = ("1: (p, 1) -> (p, 1) ; ax-id\n"
                  "2: (p, 2) -> (p, 1), (p, 2) ; rweak (p, 2) from 1\n")
        (ws / "bad.mvk").write_text(script)
        code, out, _ = run(capsys, "check-proof", "--sig", str(ws / "sig.mvk"),
                           "--logic", "mv-K", str(ws / "bad.mvk"))
        assert code == 1
        assert out.startswith("violation at step 2:")

    def test_parse_error_in_script(self, ws, capsys):
        (ws / "broken.mvk").write_text("1: (p, 1) -> ; zap\n")
        code, _, err = run(capsys, "check-proof", "--sig", str(ws / "sig.mvk"),
                           str(ws / "broken.mvk"))
        assert code == 2 and "unknown rule name" in err

    def test_hypotheses_come_from_the_sigma_file(self, ws, capsys):
        (ws / "sigma.mvk").write_text("(p, 1) -> (q, 2)\n")
        (ws / "hyp.mvk").write_text("1: (p, 1) -> (q, 2) ; hyp 1\n")
        code, out, _ = run(capsys, "check-proof", "--sig", str(ws / "sig.mvk"),
                           "--sigma", str(ws / "sigma.mvk"),
                           str(ws / "hyp.mvk"))
        assert code == 0 and out.strip() == "accepted"
        # without the sigma file the hypothesis reference dangles
        code, out, _ = run(capsys, "check-proof", "--sig", str(ws / "sig.mvk"),
                           str(ws / "hyp.mvk"))
        assert code == 1 and "out of range" in out


class TestFilter:
    def test_emits_classes_and_model(self, ws, capsys):
        (ws / "m.mvk").write_text(
            "worlds 3\nedge 0 1\nedge 1 2\nval 0 p 2\nval 1 p 2\nval 2 p 2\n")
        (ws / "phi.mvk").write_text("Box p\n")
        code, out, _ = run(capsys, "filter", "--sig", str(ws / "sig.mvk"),
                           "--model", str(ws / "m.mvk"), "--logic", "mv-K",
                           "--phi", str(ws / "phi.mvk"))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "filtered"
        assert lines[1].startswith("class 0:")
        body = "\n".join(l for l in lines if not l.startswith(("filtered", "class")))
        parsed = parse_model(body + "\n", parse_signature(LUK3))
        assert parsed.world_count <= 3

    def test_frame_violation_is_usage_error(self, ws, capsys):
        (ws / "m.mvk").write_text("worlds 2\nedge 0 1\n")
        (ws / "phi.mvk").write_text("p\n")
        code, _, err = run(capsys, "filter", "--sig", str(ws / "sig.mvk"),
                           "--model", str(ws / "m.mvk"), "--logic", "mv-T",
                           "--phi", str(ws / "phi.mvk"))
        assert code == 2 and "frame class" in err


    def test_phi_file_takes_comments_and_blank_lines(self, ws, capsys):
        (ws / "m.mvk").write_text("worlds 2\nedge 0 1\nval 1 p 3\n")
        (ws / "phi.mvk").write_text("# formulas\nBox p  # boxed\n\n\tp\r\n")
        code, out, err = run(capsys, "filter", "--sig", str(ws / "sig.mvk"),
                             "--model", str(ws / "m.mvk"),
                             "--phi", str(ws / "phi.mvk"))
        assert code == 0 and not err
        assert out.splitlines()[:3] == ["filtered", "class 0: 0", "class 1: 1"]

    def test_phi_error_names_its_line(self, ws, capsys):
        (ws / "phi.mvk").write_text("p\n# comment\nBox p\n\nimp(p q)\n")
        code, out, err = run(capsys, "filter", "--sig", str(ws / "sig.mvk"),
                             "--model", str(ws / "model.mvk"),
                             "--phi", str(ws / "phi.mvk"))
        assert code == 2 and out == ""
        assert err == "error: line 5, column 7: expected ')', found 'q'\n"

    def test_two_formulas_on_one_line_are_an_error(self, ws, capsys):
        (ws / "phi.mvk").write_text("p\nBox p q\n")
        code, out, err = run(capsys, "filter", "--sig", str(ws / "sig.mvk"),
                             "--model", str(ws / "model.mvk"),
                             "--phi", str(ws / "phi.mvk"))
        assert code == 2 and out == ""
        assert err.startswith("error: line 2, column 7: unexpected 'q'")


class TestNegScan:
    def test_three_values(self, capsys):
        code, out, _ = run(capsys, "neg-scan", "--n", "3", "--bound", "2")
        assert code == 0
        assert out.splitlines() == ["survivors 1", "table 3 2 1"]

    def test_two_values(self, capsys):
        code, out, _ = run(capsys, "neg-scan", "--n", "2", "--bound", "2")
        assert code == 0
        assert out.splitlines() == ["survivors 1", "table 2 1"]

    def test_negative_bound_is_an_input_error(self, capsys):
        code, out, err = run(capsys, "neg-scan", "--n", "3", "--bound", "-1")
        assert code == 2 and out == ""
        assert "bound" in err

    @pytest.mark.parametrize("bound", ["5", "99999999999999999999"])
    def test_huge_bound_aborts_at_the_default_ceiling(self, bound):
        # the reversal table survives every set of values by two worlds;
        # its count of the whole scan passes 10^7 models at five worlds
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {k: v for k, v in os.environ.items() if k != "MVK_ENUM_CEILING"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "mvmodal", "neg-scan", "--n", "2",
             "--bound", bound],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == "aborted: ceiling\n" and proc.stderr == ""


class TestTranslate:
    def test_plain(self, ws, capsys):
        (ws / "seq.mvk").write_text("(imp(p, q), 3) -> (p, 1)\n")
        code, out, _ = run(capsys, "translate", "--sig", str(ws / "sig.mvk"),
                           str(ws / "seq.mvk"))
        assert code == 0
        assert out.strip() == "(Box imp(Box p, Box q), 3) -> (Box p, 1)"

    def test_optimized_differs_on_monotone_connectives(self, tmp_path, capsys):
        sig_text = ("domain 2\nconn or 2\n"
                    "or 1 1 = 1\nor 1 2 = 2\nor 2 1 = 2\nor 2 2 = 2\n")
        (tmp_path / "sig.mvk").write_text(sig_text)
        (tmp_path / "seq.mvk").write_text("-> (or(p, q), 2)\n")
        code, out, _ = run(capsys, "translate", "--sig",
                           str(tmp_path / "sig.mvk"), "--optimized",
                           str(tmp_path / "seq.mvk"))
        assert code == 0
        assert out.strip() == "-> (or(Box p, Box q), 2)"

    def test_modal_input_rejected(self, ws, capsys):
        (ws / "seq.mvk").write_text("-> (Box p, 1)\n")
        code, _, err = run(capsys, "translate", "--sig", str(ws / "sig.mvk"),
                           str(ws / "seq.mvk"))
        assert code == 2 and "modal-free" in err


    def test_error_position_counts_leading_lines(self, ws, capsys):
        (ws / "seq.mvk").write_text("\n\n  (p 1) ->")
        code, out, err = run(capsys, "translate", "--sig", str(ws / "sig.mvk"),
                             str(ws / "seq.mvk"))
        assert code == 2 and out == ""
        assert err == "error: line 3, column 6: expected ',', found '1'\n"


class TestFrameCheck:
    def test_yes(self, ws, capsys):
        (ws / "m.mvk").write_text("worlds 2\nedge 0 0\nedge 1 1\n")
        code, out, _ = run(capsys, "frame-check", "--model", str(ws / "m.mvk"),
                           "reflexive")
        assert code == 0 and out.strip() == "yes"

    def test_no(self, ws, capsys):
        code, out, _ = run(capsys, "frame-check",
                           "--model", str(ws / "model.mvk"), "serial")
        assert code == 1 and out.strip() == "no"

    def test_unknown_class(self, ws, capsys):
        code, _, err = run(capsys, "frame-check",
                           "--model", str(ws / "model.mvk"), "total")
        assert code == 2 and "unknown frame class" in err

    def test_labels_beyond_two_values_are_fine(self, ws, capsys):
        # frame checking ignores valuations entirely
        (ws / "m.mvk").write_text("worlds 1\nedge 0 0\nval 0 p 7\n")
        code, out, _ = run(capsys, "frame-check", "--model", str(ws / "m.mvk"),
                           "equivalence")
        assert code == 0 and out.strip() == "yes"


class TestUsage:
    def test_missing_file(self, ws, capsys):
        code, _, err = run(capsys, "eval", "--sig", str(ws / "nope.mvk"),
                           "--model", str(ws / "model.mvk"),
                           "--world", "0", "p")
        assert code == 2 and "cannot read" in err

    def test_bad_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2


    def test_python_m_mvmodal(self, ws):
        # a malformed model file: exit 2 and one error line, no traceback
        (ws / "bad.mvk").write_text("worlds 2\nedge 0 1\nval 0 p 9\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [
                       src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "mvmodal", "eval", "--sig", str(ws / "sig.mvk"),
             "--model", str(ws / "bad.mvk"), "--world", "0", "p"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "error: line 3, column 9: label 9 out of 1..3\n"
        assert "Traceback" not in proc.stderr

    def test_integer_past_the_digit_limit(self, ws):
        # one error line with its position, not the interpreter's message
        (ws / "big.mvk").write_text("worlds 2\nedge 0 " + "1" * 5000 + "\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [
                       src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "mvmodal", "frame-check",
             "--model", str(ws / "big.mvk"), "serial"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == ("error: line 2, column 8: "
                               "integer of 5000 digits is too long\n")
        assert "Traceback" not in proc.stderr

    def test_world_count_above_the_limit(self, ws):
        # rejected at the header: no per-world allocation, one error line
        (ws / "huge.mvk").write_text(f"worlds {MAX_WORLDS + 1}\nedge 0 1\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [
                       src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "mvmodal", "frame-check",
             "--model", str(ws / "huge.mvk"), "serial"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == ("error: line 1, column 8: the world count is "
                               f"above the limit of {MAX_WORLDS}\n")
        assert "Traceback" not in proc.stderr


class TestCeiling:
    def test_neg_scan_ceiling_counts_the_whole_scan(self, capsys):
        # the n=3, bound 2 scan draws 184 models over all its tables
        code, out, _ = run(capsys, "neg-scan", "--n", "3", "--bound", "2",
                           "--ceiling", "150")
        assert code == 2 and out.strip() == "aborted: ceiling"
        code, out, _ = run(capsys, "neg-scan", "--n", "3", "--bound", "2",
                           "--ceiling", "184")
        assert code == 0 and out.splitlines()[0] == "survivors 1"

    @pytest.mark.parametrize("argv", [
        ["neg-scan", "--n", "2", "--bound", "1"],
        ["decide", "--sig", "SIG", "--bound", "1", "-> (p, 1)"],
    ])
    def test_malformed_environment_ceiling(self, ws, capsys, monkeypatch, argv):
        monkeypatch.setenv("MVK_ENUM_CEILING", "abc")
        argv = [str(ws / "sig.mvk") if a == "SIG" else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "MVK_ENUM_CEILING" in err

    def test_environment_ceiling_does_not_break_help(self, capsys, monkeypatch):
        monkeypatch.setenv("MVK_ENUM_CEILING", "abc")
        assert main(["decide", "--help"]) == 0

    @pytest.mark.parametrize("command", ["decide", "neg-scan"])
    def test_negative_ceiling_rejected_at_parse_time(self, ws, capsys, command):
        argv = {"decide": ["decide", "--sig", str(ws / "sig.mvk"), "--bound",
                           "1", "--ceiling", "-1", "-> (p, 1)"],
                "neg-scan": ["neg-scan", "--n", "2", "--bound", "1",
                             "--ceiling", "-1"]}[command]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "--ceiling" in err and "non-negative" in err

    # '²' is a digit to str.isdigit but no decimal int() reads
    @pytest.mark.parametrize("command", ["decide", "neg-scan"])
    def test_superscript_ceiling_rejected_at_parse_time(self, ws, capsys, command):
        argv = {"decide": ["decide", "--sig", str(ws / "sig.mvk"), "--bound",
                           "1", "--ceiling", "²", "-> (p, 1)"],
                "neg-scan": ["neg-scan", "--n", "2", "--bound", "1",
                             "--ceiling", "²"]}[command]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert ("argument --ceiling: expected a non-negative integer, "
                "got '²'") in err

    @pytest.mark.parametrize("argv", [
        ["neg-scan", "--n", "2", "--bound", "1"],
        ["decide", "--sig", "SIG", "--bound", "1", "-> (p, 1)"],
    ])
    def test_superscript_environment_ceiling(self, ws, capsys, monkeypatch, argv):
        monkeypatch.setenv("MVK_ENUM_CEILING", "²")
        argv = [str(ws / "sig.mvk") if a == "SIG" else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == ("error: MVK_ENUM_CEILING must be a non-negative "
                       "integer, got '²'\n")


def _nested(kind, depth):
    """A formula `depth` levels deep: a Box chain, a connective chain,
    parentheses, or Box and connective levels in turn."""
    if kind == "box":
        return "Box " * depth + "p"
    if kind == "imp":
        return "imp(p, " * depth + "p" + ")" * depth
    if kind == "paren":
        return "(" * depth + "p" + ")" * depth
    outer = "".join("Box " if i % 2 else "imp(q, " for i in range(depth))
    return outer + "p" + ")" * ((depth + 1) // 2)


class TestFormulaDepth:
    COMMANDS = ["eval", "sat", "decide", "check-proof", "filter", "translate"]

    def argv(self, ws, command, formula):
        sig, model = str(ws / "sig.mvk"), str(ws / "model.mvk")
        (ws / "phi.mvk").write_text(formula + "\n")
        (ws / "seq.mvk").write_text(f"({formula}, 1) -> ({formula}, 2)\n")
        (ws / "proof.mvk").write_text(
            f"1: ({formula}, 2) -> ({formula}, 2) ; ax-id\n"
            f"2: ({formula}, 2) -> ({formula}, 2), (p, 1) ; rweak (p, 1) from 1\n")
        return {"eval": ["eval", "--sig", sig, "--model", model, "--world", "0",
                         formula],
                "sat": ["sat", "--sig", sig, "--model", model,
                        f"({formula}, 1) -> (p, 2)"],
                "decide": ["decide", "--sig", sig, "--bound", "1",
                           f"({formula}, 1) ->"],
                "check-proof": ["check-proof", "--sig", sig,
                                str(ws / "proof.mvk")],
                "filter": ["filter", "--sig", sig, "--model", model,
                           "--phi", str(ws / "phi.mvk")],
                "translate": ["translate", "--sig", sig, "--optimized",
                              str(ws / "seq.mvk")]}[command]

    def kinds(self, command):
        if command == "translate":  # modal-free input only
            return ["imp", "paren"]
        return ["box", "imp", "paren", "mixed"]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_command_runs_at_the_limit(self, ws, capsys, command):
        for kind in self.kinds(command):
            code, out, err = run(capsys, *self.argv(
                ws, command, _nested(kind, MAX_FORMULA_DEPTH)))
            assert code in (0, 1) and out and not err, (kind, err)

    @pytest.mark.parametrize("depth", [MAX_FORMULA_DEPTH + 1, 1000])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_deeper_formulas_are_input_errors(self, ws, capsys, command, depth):
        for kind in self.kinds(command):
            code, out, err = run(capsys, *self.argv(ws, command,
                                                    _nested(kind, depth)))
            assert code == 2 and out == "", kind
            assert f"nested deeper than {MAX_FORMULA_DEPTH}" in err, kind
