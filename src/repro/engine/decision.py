"""The decision phase: set-at-a-time script execution.

Runs every unit's script against the tick-start environment and collects
effect rows.  Semantically identical to the reference interpreter
(``⊕`` is associative/commutative/idempotent -- Eq. 3 -- so appending
all effect rows to one multiset and combining once equals the nested
per-``Seq`` combines of Section 4.3); operationally it avoids building
and merging thousands of one-row tables.

Action application is itself classified (``repro.algebra.shapes``):

* ``key`` actions resolve their target through a per-tick ``key → row``
  hash instead of scanning E (so a ``perform FireAt`` is O(1), keeping
  the engine's per-tick cost in the aggregates where the paper puts it);
* ``aoe`` actions can be *deferred*: instead of emitting one effect row
  per unit in the area, the performer registers its center of effect and
  the post-decision resolver of :mod:`repro.engine.effects` computes the
  combined field per unit (the ⊕ optimisation of Section 5.4);
* ``scan`` actions run the naive Eq.-(4) evaluation.

The naive engine configuration uses scan for everything, matching the
paper's baseline.

Each script is compiled once, when its runner is built, into nested
closures (:mod:`repro.engine.compile`); the chosen application path of
every ``perform`` site is fixed at that point too.
"""

from __future__ import annotations

from typing import Callable, Mapping

from ..sgl import ast
from ..sgl.builtins import ActionFunction, FunctionRegistry
from ..sgl.evalterm import EvalContext
from ..sgl.sqlspec import apply_action_scan
from .compile import (
    AoeRecords,
    BuiltinFn,
    ByKey,
    CompiledAction,
    EffectRows,
    compile_action,
    compile_script,
    eval_bounds,
)
from .effects import AoeRecord


class DecisionRunner:
    """Executes one script's decisions for many units, appending effect
    rows (and deferred AoE records) to shared per-tick collections.

    The script is compiled to closures once, here
    (:mod:`repro.engine.compile`).  With ``index_actions`` (the indexed
    engine) its terms and conditions are compiled too; without it (the
    naive engine) they run the reference interpreter, the oracle the
    compiled closures are checked against.
    """

    def __init__(
        self,
        script: ast.Script,
        registry: FunctionRegistry,
        *,
        index_actions: bool = True,
        defer_aoe: bool = False,
    ):
        self.script = script
        self.registry = registry
        self.index_actions = index_actions
        self.defer_aoe = defer_aoe
        self._actions: dict[str, CompiledAction] = {}
        self._main_params = script.main.params
        self._main = compile_script(
            script, registry, self._performer, interpret=not index_actions
        )

    # -- per-unit execution ------------------------------------------------------

    def run_unit(
        self,
        unit: Mapping[str, object],
        ctx_factory: Callable[[Mapping[str, object]], EvalContext],
        by_key: ByKey,
        out_rows: EffectRows,
        out_aoe: AoeRecords,
    ) -> None:
        """Execute ``main`` for *unit*; *by_key* enables key actions."""
        ctx = ctx_factory(unit)
        ctx.bindings[self._main_params[0]] = unit
        self._main(ctx, by_key, out_rows, out_aoe)

    # -- built-in action application ----------------------------------------------

    def _performer(self, builtin: ActionFunction) -> BuiltinFn:
        """The closure applying *builtin* at one ``perform`` site: a key
        lookup, a deferred AoE record, or the Eq.-(4) scan."""
        params = builtin.params
        if builtin.native is None and self.index_actions:
            action = self._actions.get(builtin.name)
            if action is None:
                action = compile_action(builtin, self.registry)
                self._actions[builtin.name] = action
            kind = action.shape.kind
            if kind == "key":
                key = action.key
                assert key is not None

                def perform_key(args, ctx, by_key, out_rows, out_aoe) -> None:
                    if by_key is None:
                        self._scan_action(builtin, args, ctx, out_rows)
                        return
                    probe_ctx = ctx.bind(dict(zip(params, args)))
                    row = by_key.get(key(probe_ctx))
                    if row is None:
                        self._key_miss(builtin, args, ctx, out_rows)
                        return
                    new_row = action.apply_key(probe_ctx, row)
                    if new_row is not None:
                        out_rows.append(new_row)

                return perform_key
            if kind == "aoe" and self.defer_aoe:

                def perform_aoe(args, ctx, by_key, out_rows, out_aoe) -> None:
                    probe_ctx = ctx.bind(dict(zip(params, args)))
                    record = _record_aoe(action, probe_ctx)
                    if record is not None:
                        out_aoe.append(record)

                return perform_aoe

        def perform_scan(args, ctx, by_key, out_rows, out_aoe) -> None:
            self._scan_action(builtin, args, ctx, out_rows)

        return perform_scan

    def _scan_action(
        self,
        builtin: ActionFunction,
        args: list[object],
        ctx: EvalContext,
        out_rows: EffectRows,
    ) -> None:
        """Native and scan-shaped actions: they range over all of E."""
        if builtin.native is not None:
            out_rows.extend(builtin.native(args, ctx))
            return
        assert builtin.spec is not None
        bindings = dict(zip(builtin.params, args))
        out_rows.extend(apply_action_scan(builtin.spec, bindings, ctx))

    def _key_miss(
        self,
        builtin: ActionFunction,
        args: list[object],
        ctx: EvalContext,
        out_rows: EffectRows,
    ) -> None:
        """A key action whose target is not in ``by_key``: the target is
        dead, so the action has no effect."""


def _record_aoe(action: CompiledAction, probe_ctx: EvalContext) -> AoeRecord | None:
    """The deferred area-of-effect record of one ``perform`` (Section
    5.4), or ``None`` when its selection is provably empty."""
    for check in action.u_only:
        if not check(probe_ctx):
            return None
    bounds = eval_bounds(action.ranges, probe_ctx)
    if bounds is None:
        return None
    (xlo, xhi), (ylo, yhi) = bounds
    shape = action.shape
    assert action.value is not None and shape.effect_attr is not None
    return AoeRecord(
        action=action.function.name,
        attr=shape.effect_attr,
        value=action.value(probe_ctx),  # type: ignore[arg-type]
        center=((xlo + xhi) / 2.0, (ylo + yhi) / 2.0),
        extents=((xhi - xlo) / 2.0, (yhi - ylo) / 2.0),
        eq_vals=tuple([fn(probe_ctx) for fn in action.eq_vals]),
        neq_vals=tuple([fn(probe_ctx) for fn in action.neq_vals]),
    )
