"""Render the stock derivations and their label mutations into bench/proofs.

The benchmark reads only the files this script wrote; it never imports
mvmodal.derivations, so a change to the stock derivations does not change
the workload.  Run it again only to re-freeze the data on purpose:

    PYTHONPATH=src python3 bench/render_proofs.py
"""

from __future__ import annotations

from pathlib import Path

from mvmodal import derivations as D
from mvmodal.core import (
    LabelledFormula,
    Sequent,
    Var,
    lukasiewicz_implication,
    make_signature,
    reversal_connective,
)
from mvmodal.parser import render_proof, render_sequent, render_sequents, render_signature
from mvmodal.proofs import Derivation, Step, check_derivation

OUT = Path(__file__).resolve().parent / "proofs"


def stock_derivations() -> list[tuple[str, Derivation]]:
    p, q = Var("p"), Var("q")
    return [
        ("box_below_diamond_k1", D.box_below_diamond(p, 1, 3)),
        ("box_below_diamond_k2", D.box_below_diamond(p, 2, 3)),
        ("diamond_above_box_k2", D.diamond_above_box(p, 2, 3)),
        ("diamond_above_box_k3", D.diamond_above_box(p, 3, 3)),
        ("box_top_forces_diamond", D.box_top_forces_diamond(p, 3)),
        ("dead_end_box", D.dead_end_box(p, q, 3)),
        ("dead_end_diamond", D.dead_end_diamond(p, q, 3)),
        ("box_modus_ponens", D.box_modus_ponens_lukasiewicz()),
        ("negation_inversion_k1", D.negation_inversion(p, 1, 3)),
        ("negation_inversion_k2", D.negation_inversion(p, 2, 3)),
        ("reversal_of_diamond_duality", D.reversal_of_diamond_duality(p, 2, 3)),
        ("reversal_of_box_duality", D.reversal_of_box_duality(p, 2, 3)),
        ("diamond_rule_from_negation",
         D.diamond_rule_from_negation(
             p, 2, 3,
             (LabelledFormula(D.Box(q), 1), LabelledFormula(D.Diamond(q), 2)))),
    ]


def label_mutations(derivation: Derivation, n: int):
    """(step index, mutated derivation) for every single-label change."""
    for idx, step in enumerate(derivation.steps):
        concl = step.conclusion
        for side_name in ("antecedent", "succedent"):
            side = getattr(concl, side_name)
            for pos, lf in enumerate(side):
                for label in range(1, n + 1):
                    if label == lf.label:
                        continue
                    changed = list(side)
                    changed[pos] = LabelledFormula(lf.formula, label)
                    sequent = (Sequent(changed, concl.succedent)
                               if side_name == "antecedent"
                               else Sequent(concl.antecedent, changed))
                    steps = list(derivation.steps)
                    steps[idx] = Step(sequent, step.justification, step.premises)
                    yield idx, Derivation(derivation.logic, derivation.hypotheses,
                                          tuple(steps))


def main() -> None:
    sig = make_signature(3, [lukasiewicz_implication(3), reversal_connective(3)])
    OUT.mkdir(exist_ok=True)
    (OUT / "signature.sig").write_text(render_signature(sig))
    rows = []
    for name, derivation in stock_derivations():
        if check_derivation(derivation, sig) is not None:
            raise SystemExit(f"stock derivation {name} is rejected")
        (OUT / f"{name}.proof").write_text(render_proof(derivation))
        if derivation.hypotheses:
            (OUT / f"{name}.sigma").write_text(render_sequents(derivation.hypotheses))
        for idx, mutated in label_mutations(derivation, sig.n):
            if check_derivation(mutated, sig) is None:
                raise SystemExit(f"a label mutation of {name} is accepted")
            rows.append(f"{name}\t{idx + 1}\t"
                        f"{render_sequent(mutated.steps[idx].conclusion)}\n")
    rows = list(dict.fromkeys(rows))  # merged labels can repeat a mutation
    (OUT / "mutations.tsv").write_text("".join(rows))
    print(f"wrote {len(stock_derivations())} derivations and {len(rows)} mutations")


if __name__ == "__main__":
    main()
