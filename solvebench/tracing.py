"""Outside-in tracing of riskmdp: spans and counts from wrapped attributes.

The wrappers replace module attributes at their call sites (for example
`game.lp_solve`, the name `game` calls `lp.solve` through), so nothing under
src/ is edited.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []        # [name, start, end, parent]
        self.counts: Counter = Counter()
        self.cols_max = 0
        self.model_dims = (0, 0)           # (states, actions) of the solve in flight
        self._stack: list[int] = []

    def span(self, name: str, call, *args, **kwargs):
        """Run call(*args, **kwargs) inside a span named `name`."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent])
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return call(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index][1:3] = start, end

    def wrap(self, owner, attr: str, name: str, after=None, before=None) -> None:
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            if before is not None:
                before(*args)
            result = self.span(name, original, *args, **kwargs)
            if after is not None:
                after(result, *args)
            return result

        setattr(owner, attr, traced)

    def install(self, cli, game, lp, oracle, certify) -> None:
        c = self.counts

        def enter_game(model, *_):
            self.model_dims = (model.num_states, model.num_actions)

        def after_game(result, *_):
            if hasattr(result, "resolutions"):
                c["game.resolutions"] += len(result.resolutions)
            else:
                c["game.congen_rounds"] += result.rounds

        def after_lp(result, program, *_):
            s, m = self.model_dims
            c["lp.iterations"] += result.iterations
            self.cols_max = max(self.cols_max, program.num_vars)
            # the polish re-solve is the game dual plus one objective lock row
            if program.num_constraints == 2 * s + s * m + 1:
                c["lp.polish_solves"] += 1

        def after_grid(result, *_):
            c["grid.rows"] += result.total_rows

        def after_oracle(result, model, *_):
            c["oracle.policies"] += model.num_actions ** model.num_states

        self.wrap(cli, "parse_model", "model.parse")
        self.wrap(cli, "canonical_json", "cli.emit")
        self.wrap(game, "build_grid", "grid.build", after_grid)
        self.wrap(game, "tilde_cost_table", "game.tables")
        self.wrap(game, "tilde_cost", "oracle.tilde_cost")
        self.wrap(game, "lp_solve", "lp.solve", after_lp)
        self.wrap(game, "solve_sequence", "game.solve", after_game, enter_game)
        self.wrap(game, "solve_congen", "game.solve", after_game, enter_game)
        self.wrap(lp.LinearProgram, "build", "lp.build")
        self.wrap(oracle, "brute_force_lambda_star", "oracle.brute_force", after_oracle)
        self.wrap(certify, "build_certificate", "certify.certificate")

    def layer_metrics(self, overhead_s: float) -> dict:
        """Per-layer totals over every span recorded, as {name: (value, unit)}."""
        total = defaultdict(float)
        calls = Counter()
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        own = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            own[name] += end - start - inner
        c = self.counts
        lp_solve_s = total["lp.solve"]
        seconds = {
            "model.parse_s": total["model.parse"],
            "grid.build_s": total["grid.build"],
            "game.solve_s": total["game.solve"],
            "game.self_s": own["game.solve"],
            "game.tables_s": total["game.tables"],
            "lp.build_s": total["lp.build"],
            "lp.solve_s": lp_solve_s,
            "oracle.brute_force_s": total["oracle.brute_force"],
            "oracle.tilde_cost_s": total["oracle.tilde_cost"],
            "certify.certificate_s": total["certify.certificate"],
            "cli.emit_s": total["cli.emit"],
            "cli.self_s": own["cli"],
            "trace.overhead_s": overhead_s,
        }
        counts = {
            "grid.rows": c["grid.rows"],
            "game.resolutions": c["game.resolutions"],
            "game.congen_rounds": c["game.congen_rounds"],
            "lp.build_calls": calls["lp.build"],
            "lp.solve_calls": calls["lp.solve"],
            "lp.iterations": c["lp.iterations"],
            "lp.cols_max": self.cols_max,
            "lp.polish_solves": c["lp.polish_solves"],
            "oracle.policies": c["oracle.policies"],
            "oracle.tilde_cost_calls": calls["oracle.tilde_cost"],
            "certify.certificate_calls": calls["certify.certificate"],
        }
        out = {k: (v, "s") for k, v in seconds.items()}
        out.update({k: (v, "count") for k, v in counts.items()})
        out["lp.iterations_per_s"] = (c["lp.iterations"] / lp_solve_s if lp_solve_s else 0.0, "1/s")
        return out

    def dump(self, path) -> None:
        index = {}
        rows = []
        for name, start, end, parent in self.spans:
            rows.append([index.setdefault(name, len(index)), start, end, parent])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": list(index), "fields": ["name", "start", "end", "parent"],
                       "spans": rows, "counts": dict(self.counts)}, fh)
