import argparse
import contextlib
import io
import itertools
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from mvmodal import cli
from mvmodal.cli import _COMMANDS, _shared_parser, build_parser, main
from mvmodal.derivations import box_modus_ponens_lukasiewicz
from mvmodal.parser import (
    MAX_FORMULA_DEPTH,
    MAX_WORLDS,
    parse_model,
    parse_signature,
    render_proof,
    render_sequents,
    render_signature,
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


#: `python -m mvmodal` with its address space capped at the first
#: argument's bytes: a command that allocates by a size its input names
#: fails inside the cap instead of exhausting the machine.
CAPPED = ("import resource, runpy, sys\n"
          "cap = int(sys.argv.pop(1))\n"
          "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
          "runpy.run_module('mvmodal', run_name='__main__', alter_sys=True)\n")


def run_capped(cap_bytes, *argv):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", CAPPED, str(cap_bytes), *argv],
                          capture_output=True, text=True, env=env, timeout=20)


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


class TestSequentsBeginningWithADash:
    """A sequent with an empty antecedent begins with "->"; without a
    space after it, argparse would take it for an option."""

    @pytest.mark.parametrize("sequent", ["->(p,2)", "->(p, 2)", "-> (p,2)"])
    def test_decide(self, ws, capsys, sequent):
        # p = 2 fails at a one-world model with p = 1
        code, out, err = run(capsys, "decide", "--sig", str(ws / "sig.mvk"),
                             "--bound", "1", sequent)
        assert (code, err) == (1, "")
        assert out.splitlines()[:2] == ["countermodel", "world 0"]

    def test_decide_empty_sequent(self, ws, capsys):
        # the empty succedent fails at every world of every model
        code, out, err = run(capsys, "decide", "--sig", str(ws / "sig.mvk"),
                             "--bound", "1", "->")
        assert (code, err) == (1, "")
        assert out == "countermodel\nworld 0\nworlds 1\n"

    def test_decide_before_the_options(self, ws, capsys):
        code, out, _ = run(capsys, "decide", "->(p,2)", "--sig",
                           str(ws / "sig.mvk"), "--bound", "1")
        assert code == 1 and out.startswith("countermodel\n")

    @pytest.mark.parametrize("sequent, code, first", [
        ("->(p,2)", 1, "unsatisfied"), ("->(p,1)", 0, "satisfied"),
        ("->", 1, "unsatisfied")])
    def test_sat(self, ws, capsys, sequent, code, first):
        # the dead-end world leaves p at 1
        out = run(capsys, "sat", "--sig", str(ws / "sig.mvk"),
                  "--model", str(ws / "model.mvk"), sequent)
        assert out[0] == code and out[2] == ""
        assert out[1].splitlines()[0] == first

    def test_double_dash_still_ends_the_options(self, ws, capsys):
        code, out, _ = run(capsys, "decide", "--sig", str(ws / "sig.mvk"),
                           "--bound", "1", "--", "->(p,2)")
        assert code == 1 and out.startswith("countermodel\n")

    @pytest.mark.parametrize("argv", [
        ["decide", "--sig", "S", "-x", "->(p,2)"],
        ["decide", "--sig", "S", "--bond", "1", "->"],
        ["sat", "--sig", "S", "--model", "M", "-(p,2)"]])
    def test_an_unknown_option_is_a_usage_error(self, ws, capsys, argv):
        argv = [str(ws / "sig.mvk") if a == "S" else
                str(ws / "model.mvk") if a == "M" else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("usage: mvmodal")


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


class TestHugeSizesNamedByTheInput:
    """A size the input names, not the input's length, must not decide
    what a command allocates: each case ends promptly inside a 2-3 GB
    address-space cap, with no traceback."""

    @pytest.mark.parametrize("arity", [10 ** 8, 10 ** 6])
    def test_connective_arity_beyond_the_text(self, ws, arity):
        # a complete table needs 3^arity rows, one per line
        (ws / "huge.mvk").write_text(f"domain 3\nconn c {arity}\n")
        proc = run_capped(2 * 2 ** 30, "eval", "--sig", str(ws / "huge.mvk"),
                          "--model", str(ws / "model.mvk"), "--world", "0", "p")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == (f"error: line 2, column 8: connective 'c': arity "
                               f"{arity} needs 3^{arity} table rows, more than "
                               f"the signature's 3 lines\n")
        assert len(proc.stderr) < 200

    @pytest.mark.parametrize("logic, script, rule, reason", [
        ("mv-K", "1: (p, 2) -> (p, 2) ; ax-id\n"
                 "2: -> (p, 1), (p, 3) ; lshift 2 from 1\n", "lshift",
         "conclusion does not shift any antecedent formula with label 2 "
         "to the succedent complement"),
        ("mv-K", "1: -> (p, 1) ; mshift p {}\n", "mshift",
         "conclusion succedent differs from the premise union plus "
         "complement block"),
        ("mv-T", "1: (Box p, 1) -> (p, 1) ; ext-21 p 1\n", "ext-21",
         "conclusion is not the scheme 21 instance"),
        ("mv-K", "1: (p, 1) -> (p, 1) ; ax-id\n"
                 "2: (Box p, 1), (Box q, 1), (Dia q, 1) -> ; r-box from 1\n",
         "r-box", "premise succedent differs from the successor-exclusion "
                  "set of the context"),
        ("mv-K", "1: (p, 2) -> (p, 2) ; ax-id\n"
                 "2: (Dia p, 2), (Box q, 1), (Dia q, 1) -> ; r-dia from 1\n",
         "r-dia", "premise succedent differs from the successor-exclusion "
                  "set of the context"),
        # 2^40 premise rows: counted, not listed
        ("mv-K", "1: -> (p, 1) ; smshift" + " p {1 2}" * 40 + "\n", "smshift",
         f"needs exactly {2 ** 40} premise(s), cited 0"),
    ], ids=["lshift", "mshift", "ext-21", "r-box", "r-dia", "smshift"])
    def test_label_ranges_of_a_huge_domain(self, tmp_path, logic, script,
                                           rule, reason):
        (tmp_path / "sig.mvk").write_text("domain 1000000000\n")
        (tmp_path / "proof.mvk").write_text(script)
        proc = run_capped(3 * 2 ** 30, "check-proof", "--sig",
                          str(tmp_path / "sig.mvk"), "--logic", logic,
                          str(tmp_path / "proof.mvk"))
        assert proc.returncode == 1 and proc.stderr == ""
        step = script.count("\n")
        assert proc.stdout == f"violation at step {step}: {rule}: {reason}\n"


    def test_decide_over_a_huge_domain(self, tmp_path):
        # labels are drawn only up to one past the models the ceiling
        # leaves, not from all 10^9 of the domain
        (tmp_path / "sig.mvk").write_text("domain 1000000000\n")
        proc = run_capped(2 * 2 ** 30, "decide", "--sig", str(tmp_path / "sig.mvk"),
                          "--bound", "2", "--ceiling", "1000",
                          "(Box p, 2) -> (Box p, 2)")
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "aborted: ceiling\n", "")

    @pytest.mark.parametrize("ceiling", [None, "1000000000000", "0"])
    def test_neg_scan_over_a_huge_domain(self, monkeypatch, ceiling):
        # the walk keeps its partial table sparse, draws the sets of values
        # lazily and forms no count of tables past the ceiling: the first
        # table it settles stands for 10^9^(10^9 - 2) tables
        monkeypatch.delenv("MVK_ENUM_CEILING", raising=False)
        argv = ["neg-scan", "--n", "1000000000", "--bound", "2"]
        if ceiling is not None:
            argv += ["--ceiling", ceiling]
        proc = run_capped(2 * 2 ** 30, *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "aborted: ceiling\n", "")

    def test_neg_scan_at_bound_zero_over_a_huge_domain(self):
        # bound 0 checks nothing, so every table would be listed
        proc = run_capped(2 * 2 ** 30, "neg-scan", "--n", "1000000000",
                          "--bound", "0")
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "error: scan over 1000000000^1000000000 tables is above "
                   "desk scale\n")


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
        assert code == 2
        assert err == "error: model is not in the reflexive frame class\n"


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


class TestModelMemo:
    """A process parses each input file once per key: a repeat query
    answers as a fresh parse would, with the same output, status and
    message.  A model is keyed on its text; a formula, sequent or sigma
    file on its text and the signature file's; a proof script also on
    the logic and the sigma file's text."""

    MODEL = ("worlds 3\nedge 0 1\nedge 0 2\nedge 1 1\nedge 2 2\n"
             "val 1 p 3\nval 2 p 2\nval 0 q 2\n")
    #: valid under mv-T with SIGMA as its hypothesis, and nothing less
    PROOF = ("1: (Box p, 1) -> (p, 1), (p, 2), (p, 3) ; ext-21 p 1\n"
             "2: (p, 2) -> (q, 3) ; hyp 1\n")
    SIGMA = "(p, 2) -> (q, 3)\n"
    #: a second signature: two labels and no imp, so each file above that
    #: parses under LUK3 is an error under it
    TWO = "domain 2\nconn neg 1\nneg 1 = 2\nneg 2 = 1\n"
    PARSERS = ("parse_model", "parse_formulas", "parse_sequent",
               "parse_sequents", "parse_proof")

    @pytest.fixture
    def parses(self, monkeypatch):
        """(parser name, signature size) of each call the CLI makes to a
        parser of model, formula, sequent or proof text."""
        calls = []

        def counting(name):
            parse = getattr(cli, name)

            def counted(text, sig, *args):
                calls.append((name, sig.n))
                return parse(text, sig, *args)
            return counted

        for name in self.PARSERS:
            monkeypatch.setattr(cli, name, counting(name))
        return calls

    @staticmethod
    def count(parses, name):
        return sum(1 for called, _ in parses if called == name)

    @pytest.fixture
    def files(self, ws):
        """Writes each named file of the queries below into `ws`."""
        texts = {"m.mvk": self.MODEL, "phi.mvk": "Box p\nimp(p, q)\n",
                 "proof.mvk": self.PROOF, "sigma.mvk": self.SIGMA,
                 "seq.mvk": "(imp(p, q), 3) -> (p, 1)\n", "two.sig": self.TWO}
        for name, text in texts.items():
            (ws / name).write_text(text)
        return ws

    def argv(self, ws, command, sig="sig.mvk"):
        """The argv of `command`, each file in `ws`."""
        argv = {
            "eval": ["eval", "--model", "m.mvk", "--world", "0", "Box imp(q, p)"],
            "sat": ["sat", "--model", "m.mvk", "(Box p, 2) -> (Dia p, 3)"],
            "filter": ["filter", "--model", "m.mvk", "--phi", "phi.mvk"],
            "check-proof": ["check-proof", "--logic", "mv-T", "--sigma",
                            "sigma.mvk", "proof.mvk"],
            "decide": ["decide", "--sigma", "sigma.mvk", "(p, 2) -> (q, 2), (q, 3)"],
            "translate": ["translate", "seq.mvk"],
        }[command]
        argv[1:1] = ["--sig", sig]
        return [str(ws / arg) if arg.endswith((".mvk", ".sig")) else arg
                for arg in argv]

    #: the parsers each command calls on its files
    READS = {"eval": ["parse_model"], "sat": ["parse_model"],
             "filter": ["parse_model", "parse_formulas"],
             "check-proof": ["parse_sequents", "parse_proof"],
             "decide": ["parse_sequents"], "translate": ["parse_sequent"]}

    @pytest.mark.parametrize("command", list(READS))
    def test_a_repeat_query_parses_once(self, files, capsys, parses, command):
        argv = self.argv(files, command)
        cold = run(capsys, *argv)
        assert cold[0] in (0, 1) and cold[2] == ""
        assert run(capsys, *argv) == cold
        for name in self.READS[command]:
            assert self.count(parses, name) == 1, name
        cli._parsed.clear()
        assert run(capsys, *argv) == cold
        for name in self.READS[command]:
            assert self.count(parses, name) == 2, name

    def test_a_rewritten_file_is_parsed_again(self, ws, capsys, parses):
        argv = ["eval", "--sig", str(ws / "sig.mvk"), "--model",
                str(ws / "m.mvk"), "--world", "0", "p"]
        for label in ("2", "3", "2"):
            (ws / "m.mvk").write_text(f"worlds 1\nval 0 p {label}\n")
            assert run(capsys, *argv) == (0, label + "\n", "")
        assert len(parses) == 2  # the first text is held again by the third

    # command: (file, its parser, two texts and the first stdout line of each)
    REWRITES = {
        "filter": ("phi.mvk", "parse_formulas",
                   ("p\n", "filtered\n"), ("Box p\n", "filtered\n")),
        "decide": ("sigma.mvk", "parse_sequents",
                   ("(p, 2) -> (q, 3)\n", "valid-up-to 2\n"),
                   ("(p, 3) -> (q, 3)\n", "countermodel\n")),
        "check-proof": ("proof.mvk", "parse_proof", (PROOF, "accepted\n"),
                        (PROOF.replace("hyp 1", "ax-id"),
                         "violation at step 2: ax-id: ")),
        "translate": ("seq.mvk", "parse_sequent",
                      ("(p, 3) -> (q, 1)\n", "(Box p, 3) -> (Box q, 1)\n"),
                      ("-> (Box p, 2)\n", "error: ")),
    }

    @pytest.mark.parametrize("command", list(REWRITES))
    def test_an_edited_input_file_is_parsed_again(self, files, capsys, parses,
                                                  command):
        name, parser, *texts = self.REWRITES[command]
        argv = self.argv(files, command)
        outcomes = {}
        for text, first_line in texts + texts[:1]:
            (files / name).write_text(text)
            code, out, err = run(capsys, *argv)
            assert (out or err).startswith(first_line)
            assert outcomes.setdefault(text, (code, out, err)) == (code, out, err)
        # the first text is held again by the third; an error is not held
        assert self.count(parses, parser) == 2

    # (file, text) that does not parse, per command
    MALFORMED = {
        "filter": ("phi.mvk", "Box\n"),
        "decide": ("sigma.mvk", "(p, 2) -> (q, 4)\n"),
        "check-proof": ("proof.mvk", "1: (p, 1) -> (p, 1) ; ax-id from 7\n"),
        "translate": ("seq.mvk", "(p, 1) -> (q\n"),
    }

    @pytest.mark.parametrize("command", list(MALFORMED))
    def test_a_malformed_input_file_is_never_held(self, files, capsys, parses,
                                                  command):
        name, text = self.MALFORMED[command]
        (files / name).write_text(text)
        argv = self.argv(files, command)
        first = run(capsys, *argv)
        assert first[:2] == (2, "") and first[2].startswith("error: line 1, ")
        assert run(capsys, *argv) == first
        parser = self.REWRITES[command][1]
        assert self.count(parses, parser) == 2
        assert all(key[0] != parser.removeprefix("parse_") for key in cli._parsed.entries)

    # each query of the key test below, as (logic, with sigma, signature)
    PROOF_RUNS = list(itertools.product(["mv-T", "mv-K"], [True, False],
                                        ["sig.mvk", "two.sig"]))

    def test_the_key_holds_what_a_parse_reads(self, files, capsys):
        """One process gives what a fresh process gives, for one proof
        under two logics, with and without a sigma file and under two
        signature files, and for one phi, sigma and sequent file under
        two signature files; each order first holds what a key without
        that field would wrongly serve next."""
        (files / "two.model").write_text("worlds 2\nedge 0 1\nval 1 p 2\n")
        (files / "phi.mvk").write_text("imp(p, neg(p))\n")
        argvs = []
        for logic, sigma, sig in self.PROOF_RUNS:
            argv = ["check-proof", "--sig", str(files / sig), "--logic", logic]
            if sigma:
                argv += ["--sigma", str(files / "sigma.mvk")]
            argvs.append(argv + [str(files / "proof.mvk")])
        argvs += [["filter", "--sig", str(files / sig), "--model",
                   str(files / "two.model"), "--phi", str(files / "phi.mvk")]
                  for sig in ("sig.mvk", "two.sig")]
        argvs += [self.argv(files, command, sig) for command in ("decide", "translate")
                  for sig in ("sig.mvk", "two.sig")]
        fresh = [run_capped(2 ** 31, *argv) for argv in argvs]
        fresh = [(proc.returncode, proc.stdout, proc.stderr) for proc in fresh]
        # the proof's answers tell every field of its key apart
        assert len(set(fresh[:8])) == 5 and fresh[0] == (0, "accepted\n", "")
        assert all(code == 2 for code, _, _ in fresh[1::2])
        for order in (argvs, argvs[::-1]):
            cli._parsed.clear()
            outcomes = [run(capsys, *argv) for argv in order]
            assert outcomes == (fresh if order is argvs else fresh[::-1])

    @pytest.mark.parametrize("first", ["eval", "frame-check"])
    def test_a_label_above_the_domain(self, ws, capsys, first):
        (ws / "m.mvk").write_text("worlds 1\nedge 0 0\nval 0 p 7\n")
        argvs = {"eval": ["eval", "--sig", str(ws / "sig.mvk"), "--model",
                          str(ws / "m.mvk"), "--world", "0", "p"],
                 "frame-check": ["frame-check", "--model", str(ws / "m.mvk"),
                                 "reflexive"]}
        outcomes = {"eval": (2, "", "error: line 3, column 9: label 7 out of 1..3\n"),
                    "frame-check": (0, "yes\n", "")}
        second = "frame-check" if first == "eval" else "eval"
        for command in (first, second, first, second):
            assert run(capsys, *argvs[command]) == outcomes[command], command

    def test_a_label_error_before_a_grammar_error(self, ws, capsys):
        # the label error comes first under the domain, the grammar error
        # first under frame-check's
        (ws / "m.mvk").write_text("worlds 1\nval 0 p 7\nedge 0 x\n")
        eval_argv = ["eval", "--sig", str(ws / "sig.mvk"), "--model",
                     str(ws / "m.mvk"), "--world", "0", "p"]
        code, out, err = run(capsys, *eval_argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: line 2, column 9: label 7 out of 1..3")
        code, _, check_err = run(capsys, "frame-check", "--model",
                                 str(ws / "m.mvk"), "any")
        assert code == 2 and check_err.startswith("error: line 3, column 8: ")
        assert run(capsys, *eval_argv) == (code, out, err)

    def test_a_malformed_file_is_never_held(self, ws, capsys, parses):
        (ws / "m.mvk").write_text("worlds 2\nedge 0 5\n")
        argv = ["sat", "--sig", str(ws / "sig.mvk"), "--model",
                str(ws / "m.mvk"), "(p, 1) ->"]
        first = run(capsys, *argv)
        assert first[:2] == (2, "") and first[2].startswith("error: line 2, ")
        for _ in range(2):
            assert run(capsys, *argv) == first
        # the argv is held, the model never
        assert all(key[0] != "model" for key in cli._parsed.entries)
        # under frame-check's signature, then the file's
        assert parses == [("parse_model", 2 ** 31), ("parse_model", 3)] * 3

    def test_labels_above_two_to_the_31(self, tmp_path, capsys):
        (tmp_path / "wide.sig").write_text("domain 3000000000\n")
        (tmp_path / "m.mvk").write_text("worlds 1\nval 0 p 3000000000\n")
        argv = ["eval", "--sig", str(tmp_path / "wide.sig"), "--model",
                str(tmp_path / "m.mvk"), "--world", "0", "p"]
        for _ in range(2):
            assert run(capsys, *argv) == (0, "3000000000\n", "")
        code, _, err = run(capsys, "frame-check", "--model",
                           str(tmp_path / "m.mvk"), "any")
        assert code == 2 and "label 3000000000 out of 1..2147483648" in err

    def test_the_memo_holds_at_most_its_bound(self, ws, capsys, parses,
                                              monkeypatch):
        assert cli._parsed.budget == cli.MEMO_BUDGET == 8 * 2 ** 20
        monkeypatch.setattr(cli, "_parsed", cli._ParsedFiles(30))

        def check(name, text=None):
            path = ws / name
            if text is not None:
                path.write_text(text)
            code, out, _ = run(capsys, "frame-check", "--model", str(path), "any")
            assert (code, out) == (0, "yes\n")

        def held():
            texts = [key[1][0] for key in cli._parsed.entries]
            assert cli._parsed.length == sum(map(len, texts)) <= 30
            return [text.split()[1] for text in texts]

        for i in range(1, 4):  # 9 characters each
            check(f"m{i}.mvk", f"worlds {i}\n")
        assert held() == ["1", "2", "3"] and len(parses) == 3
        check("m1.mvk")  # the least recently used is now m2
        check("m4.mvk", "worlds 4\n")
        assert held() == ["3", "1", "4"] and len(parses) == 4
        check("m5.mvk", "worlds 5\n" + "#" * 11 + "\n")  # 21 characters
        assert held() == ["4", "5"]
        check("m6.mvk", "worlds 6\n" + "#" * 21 + "\n")  # 31: answered, not held
        assert held() == ["4", "5"] and len(parses) == 6
        check("m6.mvk")
        assert held() == ["4", "5"] and len(parses) == 7
        check("m4.mvk")
        assert len(parses) == 7

    def test_a_warm_process_answers_as_a_cold_one(self, fixtures, tmp_path, capsys):
        """Each kind of query, run twice over in one process, gives what it
        gives with nothing held."""
        name, sig, derivation = fixtures[-2]  # a stock proof with hypotheses
        files = {"sig.mvk": render_signature(sig),
                 "m.mvk": "worlds 4\nedge 0 1\nedge 1 2\nedge 2 0\nedge 3 3\n"
                          "val 0 p 3\nval 1 p 2\nval 2 q 3\nval 3 q 2\n",
                 "f.mvk": "worlds 3\nedge 0 1\nedge 1 1\nedge 2 0\n",
                 "phi.mvk": "Dia imp(p, q)\nneg(Box p)\n",
                 "proof.mvk": render_proof(derivation),
                 "mutant.mvk": render_proof(derivation).replace("hyp 1", "hyp 2", 1),
                 "sigma.mvk": render_sequents(derivation.hypotheses),
                 "seq.mvk": "(imp(p, q), 3), (neg(q), 2) -> (p, 1)\n"}
        for file_name, text in files.items():
            (tmp_path / file_name).write_text(text)
        path = {file_name: str(tmp_path / file_name) for file_name in files}
        sig_model = ["--sig", path["sig.mvk"], "--model", path["m.mvk"]]
        argvs = [
            ["eval", *sig_model, "--world", "1", "Box imp(p, Dia q)"],
            ["sat", *sig_model, "(Box p, 2) -> (Dia q, 3), (p, 1)"],
            ["sat", *sig_model, "--world", "3", "(q, 2) -> (Box q, 2)"],
            *[["filter", *sig_model, "--logic", logic, "--phi", path["phi.mvk"]]
              for logic in ("mv-K", "mv-D")],
            *[["check-proof", "--sig", path["sig.mvk"], "--sigma", path["sigma.mvk"],
               path[proof]] for proof in ("proof.mvk", "mutant.mvk")],
            ["check-proof", "--sig", path["sig.mvk"], path["proof.mvk"]],
            ["translate", "--sig", path["sig.mvk"], path["seq.mvk"]],
            ["translate", "--sig", path["sig.mvk"], "--optimized", path["seq.mvk"]],
            *[["frame-check", "--model", path["f.mvk"], frame_class]
              for frame_class in ("serial", "reflexive")],
        ]
        cold = []
        for argv in argvs:
            cli._parsed.clear()
            cold.append(run(capsys, *argv))
        assert {outcome[0] for outcome in cold} == {0, 1}
        assert all(err == "" for _, _, err in cold)
        cli._parsed.clear()
        for _ in range(2):
            assert [run(capsys, *argv) for argv in argvs] == cold


class TestByteOrderMark:
    """A file saved with a UTF-8 byte-order mark reads as it does without."""

    MODEL = "worlds 2\nedge 0 1\nval 1 p 2\n"

    # option: (files besides sig.mvk and model.mvk, argv, file given the mark)
    CASES = {
        "--sig": ({}, ["eval", "--sig", "sig.mvk", "--model", "model.mvk",
                       "--world", "0", "Box p"], "sig.mvk"),
        "--model": ({"m.mvk": MODEL}, ["eval", "--sig", "sig.mvk", "--model",
                                       "m.mvk", "--world", "0", "Dia p"], "m.mvk"),
        "--sigma": ({"sigma.mvk": "(p, 1) -> (q, 2)\n",
                     "hyp.mvk": "1: (p, 1) -> (q, 2) ; hyp 1\n"},
                    ["check-proof", "--sig", "sig.mvk", "--sigma", "sigma.mvk",
                     "hyp.mvk"], "sigma.mvk"),
        "--phi": ({"m.mvk": MODEL, "phi.mvk": "Box p\n"},
                  ["filter", "--sig", "sig.mvk", "--model", "m.mvk",
                   "--phi", "phi.mvk"], "phi.mvk"),
        "proof": ({"proof.mvk": render_proof(box_modus_ponens_lukasiewicz())},
                  ["check-proof", "--sig", "sig.mvk", "proof.mvk"], "proof.mvk"),
        "translate": ({"seq.mvk": "(imp(p, q), 3) -> (p, 1)\n"},
                      ["translate", "--sig", "sig.mvk", "seq.mvk"], "seq.mvk"),
    }

    @pytest.mark.parametrize("files, argv, marked", CASES.values(), ids=list(CASES))
    def test_the_mark_is_dropped(self, ws, capsys, files, argv, marked):
        for name, text in files.items():
            (ws / name).write_text(text)
        argv = [str(ws / arg) if arg.endswith(".mvk") else arg for arg in argv]
        plain = run(capsys, *argv)
        assert plain[0] != 2 and plain[2] == ""
        path = ws / marked
        path.write_text("\ufeff" + path.read_text(), encoding="utf-8")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert run(capsys, *argv) == plain

    def test_a_mark_past_the_start_is_an_error(self, ws, capsys):
        (ws / "sig.mvk").write_text("domain 3\n\ufeffconn f 0\n")
        code, out, err = run(capsys, "decide", "--sig", str(ws / "sig.mvk"),
                             "-> (p, 1)")
        assert code == 2 and out == ""
        assert err == "error: line 2, column 1: unexpected character '\\ufeff'\n"


class TestUsage:
    def test_missing_file(self, ws, capsys):
        code, _, err = run(capsys, "eval", "--sig", str(ws / "nope.mvk"),
                           "--model", str(ws / "model.mvk"),
                           "--world", "0", "p")
        assert code == 2 and "cannot read" in err

    def test_bad_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_closed_stdout(self, unbuffered):
        # the process reading stdout is gone before the verdict is
        # written: one error line and status 2, never a traceback, nor
        # status 1 (a countermodel) or 120
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            src, os.environ.get("PYTHONPATH")]))
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "mvmodal", "neg-scan", "--n", "3",
                 "--bound", "2"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
                timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert proc.stderr == "error: cannot write to stdout: Broken pipe\n"

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

    def test_out_of_memory(self, ws, capsys, monkeypatch):
        # one error line and status 2, as for any input the machine
        # cannot hold
        def exhausted(text, sig):
            raise MemoryError

        monkeypatch.setattr(cli, "parse_model", exhausted)
        code, out, err = run(capsys, "eval", "--sig", str(ws / "sig.mvk"),
                             "--model", str(ws / "model.mvk"), "--world", "0", "p")
        assert (code, out, err) == (2, "", "error: out of memory\n")


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

    # past int()'s digit limit: the ceiling's own message, the value cut
    @pytest.mark.parametrize("command", ["decide", "neg-scan"])
    def test_ceiling_past_the_digit_limit(self, ws, capsys, command):
        digits = "9" * 5000
        argv = {"decide": ["decide", "--sig", str(ws / "sig.mvk"), "--bound",
                           "1", "--ceiling", digits, "-> (p, 1)"],
                "neg-scan": ["neg-scan", "--n", "2", "--bound", "1",
                             "--ceiling", digits]}[command]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.endswith(f"argument --ceiling: expected a non-negative "
                            f"integer, got '{'9' * 32}'... (5000 characters)\n")
        assert len(err) < 1000

    # past int()'s digit limit, or long and not a number: the variable
    # named, its value cut
    @pytest.mark.parametrize("value", ["9" * 5000, "x" * 5000],
                             ids=["digits", "letters"])
    @pytest.mark.parametrize("argv", [
        ["neg-scan", "--n", "2", "--bound", "1"],
        ["decide", "--sig", "SIG", "--bound", "1", "-> (p, 1)"],
    ])
    def test_environment_ceiling_past_the_digit_limit(self, ws, capsys, monkeypatch,
                                                      argv, value):
        monkeypatch.setenv("MVK_ENUM_CEILING", value)
        argv = [str(ws / "sig.mvk") if a == "SIG" else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == ("error: MVK_ENUM_CEILING must be a non-negative integer, "
                       f"got '{value[:32]}'... (5000 characters)\n")

    # --world, --bound and --n read an int as argparse's int does, and
    # past int()'s digit limit cut the value as --ceiling does
    @pytest.mark.parametrize("option", ["--world", "--bound", "--n"])
    def test_integer_option_past_the_digit_limit(self, ws, capsys, option):
        def argv(value):
            return {"--world": ["eval", "--sig", str(ws / "sig.mvk"), "--model",
                                str(ws / "model.mvk"), "--world", value, "p"],
                    "--bound": ["decide", "--sig", str(ws / "sig.mvk"),
                                "--bound", value, "-> (p, 1)"],
                    "--n": ["neg-scan", "--n", value, "--bound", "1"]}[option]

        code, out, err = run(capsys, *argv("9" * 5000))
        assert (code, out) == (2, "")
        assert err.endswith(f"argument {option}: invalid int value: "
                            f"'{'9' * 32}'... (5000 characters)\n")
        assert len(err) < 1000
        code, out, err = run(capsys, *argv("x"))
        assert (code, out) == (2, "")
        assert err.endswith(f"argument {option}: invalid int value: 'x'\n")
        # a negative value is read, and the command rejects it
        code, out, err = run(capsys, *argv("-1"))
        assert (code, out) == (2, "") and err.startswith("error: "), err

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


class TestArgvReader:
    """`cli.main` reads each argv with argparse, through the memo of
    parsed inputs: a repeated argv is parsed once and answered as its
    first call was; help and every usage error go to argparse on every
    call and are never held."""

    # one well-formed argv per subcommand, in groups: an option and its
    # value, a flag, or a positional
    WELL_FORMED = {
        "eval": [["--sig", "s.mvk"], ["--model", "m.mvk"], ["--world", "0"],
                 ["Box p"]],
        "sat": [["--sig", "s.mvk"], ["--model", "m.mvk"], ["--world", "1"],
                ["->(p, 2)"]],
        "decide": [["--sig", "s.mvk"], ["--sigma", "h.mvk"], ["--logic", "mv-T"],
                   ["--bound", "2"], ["--ceiling", "100"],
                   ["(Box p, 3) -> (p, 3)"]],
        "check-proof": [["--sig", "s.mvk"], ["--sigma", "h.mvk"],
                        ["--logic", "mv-K"], ["proof.mvk"]],
        "filter": [["--sig", "s.mvk"], ["--model", "m.mvk"],
                   ["--logic", "mv-S4"], ["--phi", "phi.mvk"]],
        "neg-scan": [["--n", "3"], ["--bound", "2"], ["--ceiling", "184"]],
        "translate": [["--sig", "s.mvk"], ["--optimized"], ["seq.mvk"]],
        "frame-check": [["--model", "m.mvk"], ["reflexive"]],
    }
    VALUES = ["-1", "²", "", "-", "--", "->", "9" * 5000]

    @staticmethod
    def variants(groups):
        def joined(parts):
            return list(itertools.chain(*parts))

        for i, group in enumerate(groups):
            yield joined(groups[:i] + groups[i + 1:])  # dropped
            yield joined(groups + [group])  # repeated
            for value in TestArgvReader.VALUES:  # value replaced
                yield joined(groups[:i] + [group[:-1] + [value]] + groups[i + 1:])
            if group[0].startswith("-"):
                abbreviated = [group[0][:-1]] + group[1:]
                yield joined(groups[:i] + [abbreviated] + groups[i + 1:])
            if len(group) == 2 and group[0].startswith("-"):
                yield joined(groups[:i] + [["=".join(group)]] + groups[i + 1:])
            yield joined(groups[:i] + [["-h"]] + groups[i:])
        yield joined(groups) + ["-h"]

    @staticmethod
    def held(argv):
        return cli._parsed.entries.get(("argv", tuple(argv)))

    @pytest.mark.parametrize("command", list(WELL_FORMED))
    def test_agrees_with_argparse(self, command, tmp_path, capsys, monkeypatch):
        """Each order of a well-formed argv and each variant answers the
        same twice; the namespace held is a fresh parser's, and an argv
        that parser rejects is not held."""
        monkeypatch.chdir(tmp_path)  # the files named are missing
        fresh = build_parser()
        groups = self.WELL_FORMED[command]
        argvs = [[command, *itertools.chain(*order)]
                 for order in itertools.permutations(groups)]
        argvs += [[command, *variant] for variant in self.variants(groups)]
        rejected = 0
        for argv in argvs:
            first = run(capsys, *argv)
            assert run(capsys, *argv) == first, argv
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    expected = vars(fresh.parse_args(argv))
                except SystemExit:
                    expected = None
            held = self.held(argv)
            assert (None if held is None else vars(held)) == expected, argv
            rejected += expected is None
        assert 0 < rejected < len(argvs)

    @pytest.fixture
    def parse_calls(self, monkeypatch):
        """The argv of each call to argparse's parse_args."""
        calls = []
        parse_args = argparse.ArgumentParser.parse_args

        def counted(parser, args=None, namespace=None):
            calls.append(args)
            return parse_args(parser, args, namespace)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", counted)
        return calls

    def test_a_repeated_argv_is_parsed_once(self, ws, capsys, parse_calls):
        argv = ["decide", "--sig", str(ws / "sig.mvk"), "--logic", "mv-T",
                "--bound", "2", "(Box p, 3) -> (p, 3)"]
        for _ in range(3):
            assert run(capsys, *argv) == (0, "valid-up-to 2\n", "")
        assert parse_calls == [argv]
        cli._parsed.clear()
        assert run(capsys, *argv) == (0, "valid-up-to 2\n", "")
        assert parse_calls == [argv, argv]

    @pytest.mark.parametrize("argv", [
        [], ["frobnicate"], ["-h"], ["--help"], ["decide", "-h"],
        ["neg-scan", "--n", "2"], ["neg-scan", "--n", "x", "--bound", "1"],
        ["eval", "--world", "0", "p"], ["decide", "--sig"],
        ["decide", "--sig", "s.mvk", "--bogus", "-> (p, 1)"],
    ])
    def test_help_and_usage_errors_are_never_held(self, capsys, parse_calls,
                                                  argv):
        outcomes = [run(capsys, *argv) for _ in range(3)]
        assert outcomes == outcomes[:1] * 3
        code, out, err = outcomes[0]
        if "-h" in argv or "--help" in argv:
            assert code == 0 and out.startswith("usage: ") and err == ""
        else:
            assert code == 2 and out == "" and err.startswith("usage: ")
        assert parse_calls == [argv] * 3
        assert not cli._parsed.entries and cli._parsed.length == 0

    def test_an_argv_past_the_budget_is_answered_and_not_held(
            self, capsys, monkeypatch, parse_calls):
        monkeypatch.setattr(cli, "_parsed", cli._ParsedFiles(30))
        short = ["neg-scan", "--n", "2", "--bound", "1"]  # 20 characters
        long = [*short, "--ceiling", "1" + "0" * 20]  # 50 characters
        for argv in (short, long, long, short):
            assert run(capsys, *argv) == (0, "survivors 1\ntable 2 1\n", "")
        assert list(cli._parsed.entries) == [("argv", tuple(short))]
        assert cli._parsed.length == 20
        assert parse_calls == [short, long, long]

    def test_every_subcommand_has_a_table(self):
        (sub,) = (a for a in _shared_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
        assert list(_COMMANDS) == list(self.WELL_FORMED) == list(sub.choices)
        # so test_agrees_with_argparse reads every declared option
        for name, (_, _, arguments) in _COMMANDS.items():
            assert ({group[0] for group in self.WELL_FORMED[name]
                     if group[0].startswith("--")}
                    == {a for a in arguments if a.startswith("--")}), name

    @staticmethod
    def readme_examples(tmp_path):
        """Each `mvmodal ...` line of README.md as an argv, its files
        written to `tmp_path`."""
        readme = Path(__file__).resolve().parent.parent / "README.md"
        examples = [shlex.split(line)[1:] for line in
                    readme.read_text(encoding="utf-8").splitlines()
                    if line.startswith("mvmodal ")]
        assert {argv[0] for argv in examples} == set(TestArgvReader.WELL_FORMED)
        files = {"sig.mvk": LUK3,
                 "m.mvk": "worlds 2\nedge 0 0\nedge 0 1\nedge 1 1\nval 1 p 3\n",
                 "proof.mvk": render_proof(box_modus_ponens_lukasiewicz()),
                 "phi.mvk": "Box p\n",
                 "sequent.mvk": "(imp(p, q), 3) -> (p, 1)\n"}
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        return [[str(tmp_path / a) if a in files else a for a in argv]
                for argv in examples]

    def test_readme_examples_answer_twice(self, tmp_path, capsys):
        # the second call reads its namespace from the memo, and no call
        # changes what is held
        for argv in self.readme_examples(tmp_path):
            first = run(capsys, *argv)
            assert first[0] in (0, 1) and first[1] and first[2] == "", (argv, first)
            held = self.held(argv)
            before = dict(vars(held))
            assert run(capsys, *argv) == first
            assert self.held(argv) is held and vars(held) == before, argv


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


class TestOutputIndependence:
    """stdout of a corpus of commands is the same under two hash seeds.

    Formulas hash by identity, so any output that follows the iteration
    order of a set of formulas would vary from run to run."""

    GOALS = ("(imp(p, neg(q)), 2), (neg(Box q), 1) -> (imp(Box p, q), 3)",
             "(Box p, 2) -> (p, 2)",
             "(Dia imp(p, q), 2), (Box neg(p), 2) -> (Dia q, 2), (q, 1)")
    LOGICS = ("mv-K", "mv-D", "mv-T", "mv-K4", "mv-S4", "mv-B", "mv-S5")
    # the premise lacks both principals of the smshift row
    SMSHIFT = ("1: (r, 1) -> (r, 1) ; ax-id\n"
               "2: (r, 1) -> (r, 1), (p, 2), (p, 3), (q, 1), (q, 3) ; "
               "smshift p {1} q {2} from 1\n")
    DRIVER = ("import json, sys\nfrom mvmodal.cli import main\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    print('$', *argv, flush=True)\n"
              "    print('exit', main(argv), flush=True)\n")

    def test_two_hash_seeds_print_the_same(self, ws):
        (ws / "neg.mvk").write_text(LUK3 + "conn neg 1\nneg 1 = 3\nneg 2 = 2\n"
                                    "neg 3 = 1\n")
        (ws / "m.mvk").write_text(
            "worlds 3\n" + "".join(f"edge {u} {v}\n" for u in range(3)
                                   for v in range(3))
            + "val 0 p 1\nval 0 q 3\nval 1 p 2\nval 1 q 3\nval 2 p 2\nval 2 q 1\n")
        (ws / "phi.mvk").write_text("imp(Box p, neg(q))\nDia imp(p, q)\n")
        (ws / "seq.mvk").write_text(
            "(imp(p, neg(q)), 2), (q, 1) -> (imp(neg(p), q), 3), (p, 2)\n")
        (ws / "smshift.mvk").write_text(self.SMSHIFT)
        sig, model = ["--sig", str(ws / "neg.mvk")], ["--model", str(ws / "m.mvk")]
        corpus = [["decide", *sig, "--logic", logic, "--bound", "2", goal]
                  for logic in self.LOGICS for goal in self.GOALS]
        corpus += [["filter", *sig, *model, "--logic", logic,
                    "--phi", str(ws / "phi.mvk")]
                   for logic in ("mv-K", "mv-S4", "mv-B", "mv-S5")]
        corpus += [["translate", *sig, str(ws / "seq.mvk")],
                   ["translate", *sig, "--optimized", str(ws / "seq.mvk")],
                   ["sat", *sig, *model, "(imp(p, neg(q)), 3) -> (Box p, 1)"],
                   ["neg-scan", "--n", "3", "--bound", "2"],
                   ["neg-scan", "--n", "4", "--bound", "2"],
                   ["check-proof", *sig, str(ws / "smshift.mvk")]]
        src = str(Path(__file__).resolve().parent.parent / "src")
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(filter(None, [
                           src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run([sys.executable, "-c", self.DRIVER,
                                   json.dumps(corpus)],
                                  capture_output=True, text=True, env=env,
                                  timeout=120)
            assert proc.returncode == 0 and proc.stderr == ""
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        runs = outputs[0].split("$ ")[1:]
        assert len(runs) == len(corpus)
        for logic in self.LOGICS:
            assert any(run.startswith("decide") and f" {logic} " in run
                       and "\ncountermodel\n" in run for run in runs)
        assert runs[-1].endswith("\nviolation at step 2: smshift: premise 1 lacks "
                                 "the principal labelled formula (p, 1)\nexit 1\n")
