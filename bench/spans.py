"""Spans and work counts at mvmodal's layer boundaries, for the traced run.

Each hook wraps one public name as it is bound in the module that calls
it (mvmodal.decision.frame_check, not mvmodal.semantics.frame_check), so
calls inside a layer stay unwrapped and the untraced program is untouched.
A call into the layer that is already innermost folds into that span.
Self time is a span's duration minus the time its child spans cover.
Hooks whose name a later version removed are listed as absent.
"""

from __future__ import annotations

import importlib
import json
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

# (module, attribute, layer, options).  Options: "iter" wraps a generator
# and times each step; "verify" marks the countermodel re-check, whose
# calls are not search work; "count" names a counter bumped per call.
HOOKS = [
    ("cli", "main", "cli", {}),
    *[("cli", name, "parser", {}) for name in (
        "parse_signature", "parse_model", "parse_formula", "parse_sequent",
        "parse_sequents", "parse_proof", "render_model", "render_sequent")],
    ("cli", "decide", "decision", {}),
    ("cli", "uniqueness_scan", "duality", {}),
    ("cli", "filter_model", "filtration", {"after": "filtration"}),
    ("cli", "check_derivation", "proofs", {"count": "proofs.derivations.checked"}),
    ("cli", "translate_sequent", "intuitionistic", {}),
    *[(module, name, "semantics.eval", {}) for module, name in (
        ("cli", "evaluate"), ("cli", "satisfies_sequent"), ("cli", "model_satisfies"),
        ("decision", "satisfies_sequent"), ("duality", "evaluate"),
        ("filtration", "evaluate"), ("intuitionistic", "evaluate"))],
    ("decision", "model_satisfies", "semantics.eval", {"after": "hypotheses"}),
    *[(module, "frame_check", "semantics.frame_check", {})
      for module in ("cli", "filtration", "intuitionistic")],
    ("decision", "frame_check", "semantics.frame_check", {"after": "relations"}),
    *[(module, "KripkeModel", "semantics.model_build", {})
      for module in ("decision", "filtration", "intuitionistic", "parser")],
    ("decision", "enumerate_models", "decision",
     {"iter": True, "count": "decision.models.examined"}),
    ("decision", "_verify_countermodel", "decision", {"verify": True}),
    ("duality", "enumerate_models", "decision",
     {"iter": True, "count": "duality.models"}),
    ("duality", "duality_holds", "duality", {"count": "duality.tables.scanned"}),
    ("proofs", "check_step", "proofs", {"count": "proofs.steps.checked"}),
    ("intuitionistic", "hat_model", "intuitionistic", {}),
    ("intuitionistic", "eval_mvil", "intuitionistic", {}),
]

LAYERS = ("cli", "parser", "semantics.eval", "semantics.model_build",
          "semantics.frame_check", "decision", "duality", "filtration",
          "proofs", "intuitionistic")


class Tracer:
    """Installs the hooks, records spans in flat arrays, sums self time."""

    def __init__(self):
        self.names = ["query", *LAYERS]
        self.ids = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_query = array("i")
        self.stack: list[list] = []  # open spans: [name id, start, child time, index]
        self.self_time = [0.0] * len(self.names)
        self.calls = Counter()
        self.counts = Counter()
        self.query = -1
        self.verifying = 0
        self.found: list[str] = []
        self.absent: list[str] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name_id: int) -> list:
        stack = self.stack
        index = len(self.span_name)
        start = perf_counter()
        self.span_name.append(name_id)
        self.span_start.append(start)
        self.span_end.append(0.0)
        self.span_parent.append(stack[-1][3] if stack else -1)
        self.span_query.append(self.query)
        frame = [name_id, start, 0.0, index]
        stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = perf_counter()
        self.stack.pop()
        duration = end - frame[1]
        self.self_time[frame[0]] += duration - frame[2]
        if self.stack:
            self.stack[-1][2] += duration
        self.span_end[frame[3]] = end

    # -- hooks ---------------------------------------------------------------

    def _after(self, kind, result, args) -> None:
        if self.verifying:
            return
        counts = self.counts
        if kind == "relations":
            counts["decision.relations.generated"] += 1
            counts["decision.relations.kept"] += bool(result)
        elif kind == "hypotheses":
            counts["decision.models.hyp_rejected"] += not result
        elif kind == "filtration":
            counts["filtration.classes"] += len(result.classes)
            counts["filtration.worlds"] += args[1].world_count

    def _wrap(self, fn, layer: str, options: dict):
        name_id = self.ids[layer]
        count = options.get("count")
        after = options.get("after")
        verify = options.get("verify", False)

        def traced(*args, **kwargs):
            self.calls[layer] += 1
            if count:
                self.counts[count] += 1
            self.verifying += verify
            try:
                if self.stack and self.stack[-1][0] == name_id:
                    result = fn(*args, **kwargs)
                else:
                    frame = self.open(name_id)
                    try:
                        result = fn(*args, **kwargs)
                    finally:
                        self.close(frame)
            finally:
                self.verifying -= verify
            if after:
                self._after(after, result, args)
            return result
        return traced

    def _wrap_iter(self, fn, layer: str, options: dict):
        name_id = self.ids[layer]
        count = options["count"]

        def traced(*args, **kwargs):
            self.calls[layer] += 1
            items = iter(fn(*args, **kwargs))
            while True:
                if self.stack and self.stack[-1][0] == name_id:
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                else:
                    frame = self.open(name_id)
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        self.close(frame)
                if not self.verifying:
                    self.counts[count] += 1
                yield item
        return traced

    def install(self) -> None:
        self.found, self.absent = [], []
        for module_name, attr, layer, options in HOOKS:
            label = f"mvmodal.{module_name}.{attr}"
            try:
                module = importlib.import_module(f"mvmodal.{module_name}")
            except ImportError:
                self.absent.append(label)
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(label)
                continue
            wrap = self._wrap_iter if options.get("iter") else self._wrap
            setattr(module, attr, wrap(original, layer, options))
            self._installed.append((module, attr, original))
            self.found.append(label)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    # -- output --------------------------------------------------------------

    def write(self, directory: Path, header: dict) -> None:
        """spans.json describes the flat arrays in spans.bin, in field order."""
        fields = [("name", self.span_name), ("start", self.span_start),
                  ("end", self.span_end), ("parent", self.span_parent),
                  ("query", self.span_query)]
        with open(directory / "spans.bin", "wb") as handle:
            for _, values in fields:
                values.tofile(handle)
        header = dict(header, spans=len(self.span_name), names=self.names,
                      fields=[[name, values.typecode, values.itemsize]
                              for name, values in fields],
                      hooks_found=self.found, hooks_absent=self.absent)
        (directory / "spans.json").write_text(json.dumps(header, indent=1))
