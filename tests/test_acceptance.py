"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  Every check here is exact (no tolerances); each
criterion also carries a wall-clock budget.
"""

import random
import time

from helpers import label_mutations, rand_formula, rand_sequent
from mvmodal.core import (
    Apply,
    Box,
    Diamond,
    LabelledFormula,
    Sequent,
    Var,
    down_set,
    lukasiewicz_implication,
    make_signature,
    max_connective,
    subformula_closure,
    up_set,
)
from mvmodal.decision import (
    Countermodel,
    ValidUpTo,
    decide,
    enumerate_models,
    search_countermodel,
)
from mvmodal.derivations import (
    box_below_diamond,
    box_modus_ponens_lukasiewicz,
    box_top_forces_diamond,
    dead_end_box,
    dead_end_diamond,
    diamond_above_box,
)
from mvmodal.duality import reversal_negation, uniqueness_scan
from mvmodal.filtration import filter_model, verify_filtration
from mvmodal.intuitionistic import (
    eval_mvil,
    godel_translate,
    godel_translate_optimized,
    hat_model,
    is_mvil_interpretation,
    translate_sequent,
)
from mvmodal.parser import (
    parse_formula,
    parse_model,
    parse_proof,
    parse_sequent,
    parse_signature,
    render_formula,
    render_model,
    render_proof,
    render_sequent,
    render_signature,
)
from mvmodal.proofs import SCHEME_FRAMES, LogicId, check_derivation, instantiate_scheme
from mvmodal.sampling import random_model
from mvmodal.semantics import (
    FrameClass,
    evaluate,
    model_satisfies,
    satisfies_sequent,
)

p = Var("p")
q = Var("q")


def lf(f, k):
    return LabelledFormula(f, k)


def _report(criterion: str, ok: bool, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"\nacceptance {criterion}: {status} "
          f"({elapsed:.1f}s, budget {budget:.0f}s)")
    assert ok, criterion
    assert elapsed < budget, f"{criterion}: {elapsed:.1f}s over budget"


def worked_derivations():
    return [
        ("box_below_diamond_k1", box_below_diamond(p, 1, 3)),
        ("box_below_diamond_k2", box_below_diamond(p, 2, 3)),
        ("diamond_above_box_k2", diamond_above_box(p, 2, 3)),
        ("diamond_above_box_k3", diamond_above_box(p, 3, 3)),
        ("box_top_forces_diamond", box_top_forces_diamond(p, 3)),
        ("dead_end_box", dead_end_box(p, q, 3)),
        ("dead_end_diamond", dead_end_diamond(p, q, 3)),
        ("box_modus_ponens", box_modus_ponens_lukasiewicz()),
    ]


def test_criterion_1_proof_fixtures(luk3):
    start = time.perf_counter()
    ok = True
    for name, derivation in worked_derivations():
        ok = ok and check_derivation(derivation, luk3) is None
        for mutated in label_mutations(derivation, 3):
            if check_derivation(mutated, luk3) is None:
                ok = False
                break
    _report("1 proof fixtures and mutations", ok,
            time.perf_counter() - start, 1.0)


def test_criterion_2_soundness_sampling(fixtures):
    start = time.perf_counter()
    rng = random.Random(1002)
    violations = 0
    for name, sig, derivation in fixtures:
        goal = derivation.conclusion()
        variables = sorted({v for s in (goal, *derivation.hypotheses)
                            for v in s.variables()}) or ["p"]
        accepted = 0
        attempts = 0
        while accepted < 1000 and attempts < 100000:
            attempts += 1
            model = random_model(rng, variables, sig.n, 4,
                                 derivation.logic.frame_class)
            if derivation.hypotheses and not model_satisfies(
                    sig, model, derivation.hypotheses):
                continue
            accepted += 1
            for world in model.worlds:
                if not satisfies_sequent(sig, model, world, goal):
                    violations += 1
        if accepted < 1000:
            violations += 1
    _report("2 soundness sampling", violations == 0,
            time.perf_counter() - start, 30.0)


def test_criterion_3_exhaustive_validity(luk3):
    start = time.perf_counter()
    ok = True
    valid_goals = (
        [Sequent([lf(Box(p), k)], up_set(lf(Diamond(p), k), 3))
         for k in (1, 2)]
        + [Sequent([lf(Diamond(p), k)], down_set(lf(Box(p), k), 3))
           for k in (2, 3)]
        + [Sequent([lf(Box(p), 3)], [lf(Diamond(p), 1), lf(Diamond(p), 3)]),
           Sequent([lf(Box(p), 3), lf(Diamond(p), 1)], [lf(Box(q), 3)]),
           Sequent([lf(Box(p), 3), lf(Diamond(p), 1)], [lf(Diamond(q), 1)])])
    for goal in valid_goals:
        ok = ok and decide(luk3, (), goal, LogicId.MV_K, 2) == ValidUpTo(2)
    projection = Sequent([lf(Box(p), 3)], [lf(p, 3)])
    found = decide(luk3, (), projection, LogicId.MV_K, 1)
    ok = ok and isinstance(found, Countermodel) and found.model.world_count == 1
    ok = ok and search_countermodel(luk3, (), projection,
                                    FrameClass.REFLEXIVE, 3) is None
    _report("3 exhaustive small-model validity", ok,
            time.perf_counter() - start, 60.0)


def test_criterion_4_extension_correspondence(luk3):
    start = time.perf_counter()
    ok = True
    for scheme in range(20, 29):
        labels = (1,) if scheme == 20 else (1, 2, 3)
        for k in labels:
            instance = instantiate_scheme(scheme, p, k, 3)
            found = search_countermodel(luk3, (), instance,
                                        SCHEME_FRAMES[scheme], 3)
            if found is not None:
                ok = False
    for scheme in (21, 23, 25, 27):
        refuted = any(
            search_countermodel(luk3, (), instantiate_scheme(scheme, p, k, 3),
                                FrameClass.ANY, 2) is not None
            for k in (1, 2, 3))
        ok = ok and refuted
    _report("4 extension-axiom correspondence", ok,
            time.perf_counter() - start, 300.0)


def test_criterion_5_filtration(luk3):
    start = time.perf_counter()
    phi = subformula_closure({Box(p), Diamond(q), Apply("imp", (p, q))})
    rng = random.Random(1005)
    ok = len(phi) == 5
    for logic in LogicId:
        for _ in range(100):
            model = random_model(rng, ["p", "q"], 3, 5, logic.frame_class)
            report = verify_filtration(luk3, model, phi, logic)
            ok = ok and report.ok
            least = filter_model(luk3, model, phi, logic)
            greatest = filter_model(luk3, model, phi, logic,
                                    representative="greatest")
            ok = ok and least.model.world_count <= min(model.world_count,
                                                       3 ** len(phi))
            ok = (ok and least.values == greatest.values
                  and least.model == greatest.model)
    _report("5 filtration properties", ok, time.perf_counter() - start, 120.0)


def test_criterion_6_duality_uniqueness(luk3_neg, capsys):
    from mvmodal.cli import main

    start = time.perf_counter()
    ok = main(["neg-scan", "--n", "2", "--bound", "2"]) == 0
    ok = ok and capsys.readouterr().out.splitlines() == [
        "survivors 1", "table 2 1"]
    ok = ok and main(["neg-scan", "--n", "3", "--bound", "2"]) == 0
    ok = ok and capsys.readouterr().out.splitlines() == [
        "survivors 1", "table 3 2 1"]
    ok = ok and uniqueness_scan(2, 2) == (reversal_negation(2),)
    ok = ok and uniqueness_scan(3, 2) == (reversal_negation(3),)
    ok = ok and len(uniqueness_scan(2, 0)) == 4
    ok = ok and len(uniqueness_scan(3, 0)) == 27
    rng = random.Random(1006)
    for _ in range(500):
        model = random_model(rng, ["p", "q"], 3, 4)
        formula = rand_formula(rng, luk3_neg, ["p", "q"], 3)
        dual = Apply("neg", (Box(Apply("neg", (formula,))),))
        for world in model.worlds:
            if (evaluate(luk3_neg, model, world, dual)
                    != evaluate(luk3_neg, model, world, Diamond(formula))):
                ok = False
    _report("6 duality uniqueness", ok, time.perf_counter() - start, 120.0)


def test_criterion_7_intuitionistic_embedding(luk3):
    start = time.perf_counter()
    ok = True
    rng = random.Random(1007)
    for _ in range(200):
        model = random_model(rng, ["p", "q"], 3, 4, FrameClass.PREORDER)
        hat = hat_model(luk3, model)
        formula = rand_formula(rng, luk3, ["p", "q"], 3, modal=False)
        for world in model.worlds:
            if (eval_mvil(luk3, hat, world, formula)
                    != evaluate(luk3, model, world, godel_translate(formula))):
                ok = False

    sig_opt = make_signature(3, [lukasiewicz_implication(3), max_connective(3)])
    for _ in range(200):
        model = random_model(rng, ["p", "q"], 3, 4, FrameClass.PREORDER)
        formula = rand_formula(rng, sig_opt, ["p", "q"], 3, modal=False)
        full = godel_translate(formula)
        optimized = godel_translate_optimized(formula, sig_opt)
        for world in model.worlds:
            if (evaluate(sig_opt, model, world, full)
                    != evaluate(sig_opt, model, world, optimized)):
                ok = False

    # exhaustive transfer at two truth values, up to two worlds
    sig2 = make_signature(2, [lukasiewicz_implication(2)])
    pool = [None, lf(p, 1), lf(p, 2),
            lf(Apply("imp", (p, p)), 1), lf(Apply("imp", (p, p)), 2)]
    sequents = [Sequent([] if a is None else [a], [] if b is None else [b])
                for a in pool for b in pool]
    preorders = [m for w in (1, 2)
                 for m in enumerate_models(["p"], 2, w, FrameClass.PREORDER)]
    interpretations = [m for m in preorders if is_mvil_interpretation(m)]

    def mvil_satisfies(model, sequent):
        for u in model.worlds:
            if all(eval_mvil(sig2, model, u, x.formula) == x.label
                   for x in sequent.antecedent):
                if not any(eval_mvil(sig2, model, u, x.formula) == x.label
                           for x in sequent.succedent):
                    return False
        return True

    for sigma in sequents:
        for goal in sequents:
            direct = all(mvil_satisfies(m, goal) for m in interpretations
                         if mvil_satisfies(m, sigma))
            translated = all(
                model_satisfies(sig2, m, translate_sequent(goal))
                for m in preorders
                if model_satisfies(sig2, m, translate_sequent(sigma)))
            if direct != translated:
                ok = False
    _report("7 intuitionistic embedding", ok,
            time.perf_counter() - start, 120.0)


def test_criterion_8_parser_round_trip(fixtures, luk3, luk3_neg, bare2,
                                       tmp_path, capsys):
    start = time.perf_counter()
    ok = True

    for sig in (luk3, luk3_neg, bare2):
        ok = ok and parse_signature(render_signature(sig)) == sig
    for name, sig, derivation in fixtures:
        text = render_proof(derivation)
        ok = ok and parse_proof(text, sig, derivation.logic,
                                derivation.hypotheses) == derivation
        concl = derivation.conclusion()
        ok = ok and parse_sequent(render_sequent(concl), sig) == concl

    rng = random.Random(1008)
    for _ in range(1000):
        formula = rand_formula(rng, luk3_neg, ["p", "q", "r"], 4)
        ok = ok and parse_formula(render_formula(formula), luk3_neg) == formula
    for _ in range(1000):
        sequent = rand_sequent(rng, luk3_neg, ["p", "q"])
        ok = ok and parse_sequent(render_sequent(sequent), luk3_neg) == sequent
    for _ in range(1000):
        model = random_model(rng, ["p", "q"], 3, 5)
        ok = ok and parse_model(render_model(model), luk3) == model

    # malformed inputs exit with status 2 and report a source position
    from mvmodal.cli import main

    sig_path = tmp_path / "sig.mvk"
    sig_path.write_text(render_signature(luk3))
    model_path = tmp_path / "model.mvk"
    model_path.write_text("worlds 1\n")
    bad_sig = tmp_path / "bad_sig.mvk"
    bad_sig.write_text("domain 1\n")
    bad_model = tmp_path / "bad_model.mvk"
    bad_model.write_text("worlds 2\nedge 0 5\n")
    bad_proof = tmp_path / "bad_proof.mvk"
    bad_proof.write_text("1: (p, 1) -> ; rweak (p, 2) from 7\n")
    bad_seq = tmp_path / "bad_seq.mvk"
    bad_seq.write_text("-> (Box p, 9)\n")
    invocations = [
        ["eval", "--sig", str(bad_sig), "--model", str(model_path),
         "--world", "0", "p"],
        ["eval", "--sig", str(sig_path), "--model", str(bad_model),
         "--world", "0", "p"],
        ["eval", "--sig", str(sig_path), "--model", str(model_path),
         "--world", "0", "imp(p)"],
        ["check-proof", "--sig", str(sig_path), str(bad_proof)],
        ["translate", "--sig", str(sig_path), str(bad_seq)],
        ["sat", "--sig", str(sig_path), "--model", str(model_path), "(p 1) ->"],
    ]
    for argv in invocations:
        code = main(argv)
        err = capsys.readouterr().err
        ok = ok and code == 2
        ok = ok and "line" in err and "column" in err
    _report("8 parser round-trip and spans", ok,
            time.perf_counter() - start, 120.0)
