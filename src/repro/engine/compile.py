"""Compilation of SGL terms, conditions and action trees to closures.

Two compilers live here.

**Row compilers** (:func:`compile_e_term`, :func:`compile_e_cond`).
Index construction evaluates measure terms and build-time filters once
per environment row (Section 5.3's "push selection on player and/or
unit type", Figure 8's leaf aggregates).  Terms that reference only
``e`` and registry constants are compiled -- once per aggregate
function -- into closures over plain row dicts.

**Context compilers** (:func:`compile_term`, :func:`compile_cond`,
:func:`compile_script`, :func:`compile_action`).  Everything else the
indexed engine evaluates -- script bodies, aggregate-call arguments,
probe category values, range bounds, nearest-neighbour centres, residual
predicates, key-action targets and effects -- is compiled once per
script and per aggregate or action shape into closures over an
:class:`~repro.sgl.evalterm.EvalContext`.  They implement exactly the
semantics of :func:`~repro.sgl.evalterm.eval_term` and
:func:`~repro.sgl.evalterm.eval_cond` (NULL propagation, error classes
and messages, bindings-before-constants name resolution, and
``Random`` → math builtins → aggregates call resolution), resolved
against the registry they were compiled with.  ``sgl/evalterm.py``
stays the reference: the naive engine configuration compiles its action
trees with :func:`interpret_term`/:func:`interpret_cond` leaves, which
call the reference interpreter at every evaluation, so naive-vs-indexed
equivalence checks the compiled closures against an independent
implementation.

Aggregate calls look up ``ctx.agg_eval.evaluate`` at each call, so a
class-level wrapper on the evaluator sees every probe.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping as MappingABC
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, NoReturn, Optional, Sequence

from ..algebra.shapes import ActionShape, RangeConstraint, classify_action
from ..sgl import ast, evalterm
from ..sgl.errors import SglNameError, SglRuntimeError, SglTypeError
from ..sgl.evalterm import MATH_BUILTINS, EvalContext, _require_number
from ..sgl.values import Vec, field_of

if TYPE_CHECKING:  # pragma: no cover
    from ..sgl.builtins import ActionFunction, FunctionRegistry
    from .effects import AoeRecord

RowFn = Callable[[Mapping[str, object]], object]
RowPred = Callable[[Mapping[str, object]], bool]

#: A compiled term or condition: ``ctx -> value``.
TermFn = Callable[[EvalContext], object]
CondFn = Callable[[EvalContext], bool]
#: The per-tick ``key -> row`` hash key actions resolve targets through.
ByKey = Optional[Mapping[object, Mapping[str, object]]]
EffectRows = list[dict[str, object]]
AoeRecords = list["AoeRecord"]
#: A compiled action: ``(ctx, by_key, out_rows, out_aoe) -> None``.
ActionFn = Callable[[EvalContext, ByKey, EffectRows, AoeRecords], None]
#: A runner-supplied performer of one built-in action:
#: ``(args, ctx, by_key, out_rows, out_aoe) -> None``.
BuiltinFn = Callable[
    [list[object], EvalContext, ByKey, EffectRows, AoeRecords], None
]
#: Compiled range constraints: per constraint, its (term, strict) lower
#: and upper bounds.
CompiledRanges = tuple[
    tuple[tuple[tuple[TermFn, bool], ...], tuple[tuple[TermFn, bool], ...]], ...
]

_BINOPS: dict[str, Callable[[object, object], object]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "%": operator.mod,
}

_COMPARES: dict[str, Callable[[object, object], bool]] = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_MISSING = object()
_INF = float("inf")


# ---------------------------------------------------------------------------
# Row compilers: e-only terms over plain row dicts
# ---------------------------------------------------------------------------


def compile_e_term(term: ast.Term, constants: Mapping[str, object]) -> RowFn:
    """Compile an e-only term into ``row -> value``.

    Raises :class:`SglTypeError` if the term references anything other
    than ``e``, registry constants, or math builtins -- callers are
    expected to have classified the term as e-only already.
    """
    if isinstance(term, ast.Num):
        value = term.value
        return lambda row: value
    if isinstance(term, ast.Str):
        text = term.value
        return lambda row: text
    if isinstance(term, ast.Name):
        if term.ident == "e":
            return lambda row: row
        if term.ident in constants:
            constant = constants[term.ident]
            return lambda row: constant
        raise SglNameError(f"non-e name {term.ident!r} in e-only term")
    if isinstance(term, ast.FieldAccess):
        base = term.base
        attr = term.attr
        if isinstance(base, ast.Name) and base.ident == "e":
            return lambda row: row[attr]
        raise SglTypeError(f"unsupported field access base {base!r}")
    if isinstance(term, ast.BinOp):
        op = _BINOPS.get(term.op)
        if op is None:
            raise SglTypeError(f"unknown operator {term.op!r}")
        left = compile_e_term(term.left, constants)
        right = compile_e_term(term.right, constants)
        return lambda row: op(left(row), right(row))
    if isinstance(term, ast.Neg):
        inner = compile_e_term(term.operand, constants)
        return lambda row: -inner(row)  # type: ignore[operator]
    if isinstance(term, ast.Call):
        fn = MATH_BUILTINS.get(term.name)
        if fn is None:
            raise SglTypeError(
                f"{term.name!r} is not a math builtin; e-only terms cannot "
                "contain aggregates or Random"
            )
        arg_fns = [compile_e_term(a, constants) for a in term.args]
        return lambda row: fn(*(f(row) for f in arg_fns))
    raise SglTypeError(f"cannot compile term {term!r}")


def compile_e_cond(cond: ast.Cond, constants: Mapping[str, object]) -> RowPred:
    """Compile an e-only condition into ``row -> bool``."""
    if isinstance(cond, ast.BoolLit):
        value = cond.value
        return lambda row: value
    if isinstance(cond, ast.Compare):
        op = _COMPARES.get(cond.op)
        if op is None:
            raise SglTypeError(f"unknown comparison {cond.op!r}")
        left = compile_e_term(cond.left, constants)
        right = compile_e_term(cond.right, constants)
        return lambda row: op(left(row), right(row))
    if isinstance(cond, ast.And):
        left_p = compile_e_cond(cond.left, constants)
        right_p = compile_e_cond(cond.right, constants)
        return lambda row: left_p(row) and right_p(row)
    if isinstance(cond, ast.Or):
        left_p = compile_e_cond(cond.left, constants)
        right_p = compile_e_cond(cond.right, constants)
        return lambda row: left_p(row) or right_p(row)
    if isinstance(cond, ast.Not):
        inner = compile_e_cond(cond.operand, constants)
        return lambda row: not inner(row)
    raise SglTypeError(f"cannot compile condition {cond!r}")


def compile_e_filter(
    conjuncts: tuple[ast.Cond, ...], constants: Mapping[str, object]
) -> RowPred | None:
    """Compile a conjunction of e-only conditions; ``None`` when empty."""
    if not conjuncts:
        return None
    preds = [compile_e_cond(c, constants) for c in conjuncts]
    if len(preds) == 1:
        return preds[0]
    return lambda row: all(p(row) for p in preds)


# ---------------------------------------------------------------------------
# Context compilers: terms and conditions over an EvalContext
# ---------------------------------------------------------------------------


def compile_term(term: ast.Term, registry: "FunctionRegistry") -> TermFn:
    """Compile *term* into ``ctx -> value`` with ``eval_term`` semantics.

    Never raises: a term the reference interpreter would reject at
    evaluation time compiles to a closure raising the same error.
    """
    if isinstance(term, (ast.Num, ast.Str)):
        value = term.value
        return lambda ctx: value
    if isinstance(term, ast.Name):
        return _compile_name(term.ident, registry.constants)
    if isinstance(term, ast.FieldAccess):
        return _compile_field(term, registry)
    if isinstance(term, ast.Neg):
        return _compile_neg(compile_term(term.operand, registry))
    if isinstance(term, ast.BinOp):
        return _compile_binop(
            term.op,
            compile_term(term.left, registry),
            compile_term(term.right, registry),
        )
    if isinstance(term, ast.VecLit):
        return _compile_veclit([compile_term(t, registry) for t in term.items])
    if isinstance(term, ast.Call):
        return _compile_call(term, registry)
    return _raiser(SglTypeError, f"cannot evaluate {term!r} as a term")


def compile_cond(cond: ast.Cond, registry: "FunctionRegistry") -> CondFn:
    """Compile *cond* into ``ctx -> bool`` with ``eval_cond`` semantics."""
    if isinstance(cond, ast.BoolLit):
        value = cond.value
        return lambda ctx: value
    if isinstance(cond, ast.Not):
        inner = compile_cond(cond.operand, registry)
        return lambda ctx: not inner(ctx)
    if isinstance(cond, ast.And):
        left_c = compile_cond(cond.left, registry)
        right_c = compile_cond(cond.right, registry)
        return lambda ctx: left_c(ctx) and right_c(ctx)
    if isinstance(cond, ast.Or):
        left_c = compile_cond(cond.left, registry)
        right_c = compile_cond(cond.right, registry)
        return lambda ctx: left_c(ctx) or right_c(ctx)
    if isinstance(cond, ast.Compare):
        return _compile_compare(
            cond.op,
            compile_term(cond.left, registry),
            compile_term(cond.right, registry),
        )
    return _raiser(SglTypeError, f"cannot evaluate {cond!r} as a condition")


def interpret_term(term: ast.Term, registry: "FunctionRegistry") -> TermFn:
    """A closure that evaluates *term* with the reference interpreter.

    ``eval_term`` is looked up on its module at each call, so wrappers
    installed there see these calls too.
    """
    return lambda ctx: evalterm.eval_term(term, ctx)


def interpret_cond(cond: ast.Cond, registry: "FunctionRegistry") -> CondFn:
    """A closure that evaluates *cond* with the reference interpreter."""
    return lambda ctx: evalterm.eval_cond(cond, ctx)


def _raiser(error: type[Exception], message: str) -> Callable[..., NoReturn]:
    def fail(*_args: object) -> NoReturn:
        raise error(message)

    return fail


def _compile_name(ident: str, constants: Mapping[str, object]) -> TermFn:
    def name(ctx: EvalContext) -> object:
        value = ctx.bindings.get(ident, _MISSING)
        if value is not _MISSING:
            return value
        constant = constants.get(ident)
        if constant is not None:
            return constant
        raise SglNameError(f"unbound name {ident!r}")

    return name


def _compile_field(term: ast.FieldAccess, registry: "FunctionRegistry") -> TermFn:
    attr = term.attr
    missing = f"unit has no attribute {attr!r}"
    base_fn = compile_term(term.base, registry)

    def field(ctx: EvalContext) -> object:
        value = base_fn(ctx)
        if type(value) is dict:  # a unit row: field_of's first case, inlined
            try:
                return value[attr]
            except KeyError:
                raise SglRuntimeError(missing) from None
        return field_of(value, attr)

    return field


def _compile_neg(operand: TermFn) -> TermFn:
    def neg(ctx: EvalContext) -> object:
        value = operand(ctx)
        if value is None:
            return None  # NULL propagation
        try:
            return -value  # type: ignore[operator]
        except TypeError:
            raise SglTypeError(f"cannot negate {type(value).__name__}") from None

    return neg


def _compile_binop(op: str, left: TermFn, right: TermFn) -> TermFn:
    apply = _BINOPS.get(op)
    if apply is None:

        def unknown(ctx: EvalContext) -> object:
            a = left(ctx)
            b = right(ctx)
            if a is None or b is None:
                return None  # NULL propagation precedes the operator check
            raise SglTypeError(f"unknown operator {op!r}")

        return unknown

    def binop(ctx: EvalContext) -> object:
        a = left(ctx)
        b = right(ctx)
        if a is None or b is None:
            return None  # NULL propagation
        try:
            return apply(a, b)
        except ZeroDivisionError:
            raise SglRuntimeError("division by zero") from None
        except TypeError:
            raise SglTypeError(
                f"cannot apply {op!r} to {type(a).__name__} and "
                f"{type(b).__name__}"
            ) from None

    return binop


def _compile_veclit(items: list[TermFn]) -> TermFn:
    def veclit(ctx: EvalContext) -> object:
        values = [f(ctx) for f in items]
        if any(v is None for v in values):
            return None  # NULL propagation
        return Vec(_require_number(v, "vector literal") for v in values)

    return veclit


def _compile_args(fns: Sequence[TermFn]) -> Callable[[EvalContext], list[object]]:
    """``ctx -> [arg values]``, unrolled for the common arities."""
    if not fns:
        return lambda ctx: []
    if len(fns) == 1:
        (a0,) = fns
        return lambda ctx: [a0(ctx)]
    if len(fns) == 2:
        a0, a1 = fns
        return lambda ctx: [a0(ctx), a1(ctx)]
    items = tuple(fns)
    return lambda ctx: [f(ctx) for f in items]


def _compile_call(term: ast.Call, registry: "FunctionRegistry") -> TermFn:
    name = term.name
    if name == "Random":
        return _compile_random(term, registry)
    args = _compile_args([compile_term(a, registry) for a in term.args])

    builtin = MATH_BUILTINS.get(name)
    if builtin is not None:

        def call_builtin(ctx: EvalContext) -> object:
            values = args(ctx)
            if any(v is None for v in values):
                return None  # NULL propagation
            try:
                return builtin(*values)
            except (TypeError, ValueError) as exc:
                raise SglTypeError(f"{name}: {exc}") from None

        return call_builtin

    aggregates = registry.aggregates

    def call_aggregate(ctx: EvalContext) -> object:
        aggregate = aggregates.get(name)
        if aggregate is None:
            raise SglNameError(f"unknown function {name!r}")
        values = args(ctx)
        if len(values) != len(aggregate.params):
            raise SglTypeError(
                f"{name} expects {len(aggregate.params)} args, got {len(values)}"
            )
        # looked up per call: the evaluator (and any class-level wrapper
        # on it) is the context's, not the compiler's
        return ctx.agg_eval.evaluate(aggregate, values, ctx)

    return call_aggregate


def _compile_random(term: ast.Call, registry: "FunctionRegistry") -> TermFn:
    """``Random(i)`` draws for the current unit, ``Random(e, i)`` for a row."""
    if len(term.args) == 1:
        index_fn = compile_term(term.args[0], registry)

        def random_unit(ctx: EvalContext) -> object:
            unit = ctx.unit
            if unit is None:
                raise SglRuntimeError("Random(i) used outside a unit context")
            index = index_fn(ctx)
            if not isinstance(index, (int, float)):
                raise SglTypeError("Random index must be a number")
            return ctx.rng(unit, int(index))

        return random_unit
    if len(term.args) == 2:
        row_fn = compile_term(term.args[0], registry)
        index_fn = compile_term(term.args[1], registry)

        def random_row(ctx: EvalContext) -> object:
            row = row_fn(ctx)
            if not isinstance(row, MappingABC):
                raise SglTypeError("Random(e, i) requires a unit row")
            index = index_fn(ctx)
            if not isinstance(index, (int, float)):
                raise SglTypeError("Random index must be a number")
            return ctx.rng(row, int(index))

        return random_row
    return _raiser(SglTypeError, "Random takes one or two arguments")


def _compile_compare(op: str, left: TermFn, right: TermFn) -> CondFn:
    test = _COMPARES.get(op)
    if test is None:

        def unknown(ctx: EvalContext) -> bool:
            a = left(ctx)
            b = right(ctx)
            if a is None or b is None:
                return False  # NULL compares false before the op check
            raise SglTypeError(f"unknown comparison operator {op!r}")

        return unknown
    if op in ("=", "<>"):

        def equality(ctx: EvalContext) -> bool:
            a = left(ctx)
            b = right(ctx)
            if a is None or b is None:
                return False  # NULL compares false under every operator
            return test(a, b)

        return equality

    def ordering(ctx: EvalContext) -> bool:
        a = left(ctx)
        b = right(ctx)
        if a is None or b is None:
            return False
        try:
            return test(a, b)
        except TypeError:
            raise SglTypeError(
                f"cannot compare {type(a).__name__} {op} {type(b).__name__}"
            ) from None

    return ordering


# ---------------------------------------------------------------------------
# Range bounds: the one helper behind aggregate probes and AoE records
# ---------------------------------------------------------------------------


def compile_ranges(
    ranges: Sequence[RangeConstraint], registry: "FunctionRegistry"
) -> CompiledRanges:
    return tuple(
        (
            tuple((compile_term(b.term, registry), b.strict) for b in c.lowers),
            tuple((compile_term(b.term, registry), b.strict) for b in c.uppers),
        )
        for c in ranges
    )


def eval_bounds(
    ranges: CompiledRanges, ctx: EvalContext
) -> list[tuple[float, float]] | None:
    """Evaluate each range constraint to a closed ``[lo, hi]`` interval.

    Strict bounds are tightened to the adjacent float, which is exact
    for the values actually stored in an index.  Returns ``None`` when
    some interval is empty.
    """
    bounds: list[tuple[float, float]] = []
    for lowers, uppers in ranges:
        lo = -_INF
        for fn, strict in lowers:
            value = float(fn(ctx))  # type: ignore[arg-type]
            if strict:
                value = math.nextafter(value, _INF)
            lo = max(lo, value)
        hi = _INF
        for fn, strict in uppers:
            value = float(fn(ctx))  # type: ignore[arg-type]
            if strict:
                value = math.nextafter(value, -_INF)
            hi = min(hi, value)
        if lo > hi:
            return None
        bounds.append((lo, hi))
    return bounds


# ---------------------------------------------------------------------------
# Built-in actions with an index-backed execution shape
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompiledAction:
    """An action function's :class:`ActionShape` with its terms compiled.

    ``key`` shapes use ``key``, ``extra_where`` and ``effects``; ``aoe``
    shapes use ``u_only``, ``ranges``, ``value`` and the category value
    terms.  Scan shapes compile nothing: they run the reference scan.
    """

    function: "ActionFunction"
    shape: ActionShape
    key: TermFn | None = None
    extra_where: tuple[CondFn, ...] = ()
    effects: tuple[tuple[str, TermFn], ...] = ()
    u_only: tuple[CondFn, ...] = ()
    ranges: CompiledRanges = ()
    value: TermFn | None = None
    eq_vals: tuple[TermFn, ...] = ()
    neq_vals: tuple[TermFn, ...] = ()

    def apply_key(
        self, probe_ctx: EvalContext, row: Mapping[str, object]
    ) -> dict[str, object] | None:
        """Evaluate a key action against its resolved target row.

        The one shared body behind every key-action site -- the local
        runner, the scoped runner's owned-target fast path, and the
        coordinator's forwarded-action service.  Returns the effect row,
        or ``None`` when the residual predicate rejects the target.
        """
        probe_ctx.bindings["e"] = row
        for check in self.extra_where:
            if not check(probe_ctx):
                return None
        new_row = dict(row)
        for attr, fn in self.effects:
            new_row[attr] = fn(probe_ctx)
        return new_row


def compile_action(
    function: "ActionFunction", registry: "FunctionRegistry"
) -> CompiledAction:
    """Classify a SQL-defined action and compile its shape's terms."""
    spec = function.spec
    assert spec is not None, "native actions have no shape"
    shape = classify_action(spec)
    if shape.kind == "key":
        assert shape.key_term is not None
        return CompiledAction(
            function,
            shape,
            key=compile_term(shape.key_term, registry),
            extra_where=tuple(compile_cond(c, registry) for c in shape.extra_where),
            effects=tuple(
                (attr, compile_term(term, registry))
                for attr, term in spec.effects.items()
            ),
        )
    if shape.kind == "aoe":
        assert shape.value_term is not None
        return CompiledAction(
            function,
            shape,
            u_only=tuple(compile_cond(c, registry) for c in shape.u_only),
            ranges=compile_ranges(shape.ranges, registry),
            value=compile_term(shape.value_term, registry),
            eq_vals=tuple(compile_term(c.value_term, registry) for c in shape.eq_cats),
            neq_vals=tuple(
                compile_term(c.value_term, registry) for c in shape.neq_cats
            ),
        )
    return CompiledAction(function, shape)


# ---------------------------------------------------------------------------
# Script action trees
# ---------------------------------------------------------------------------


def compile_script(
    script: ast.Script,
    registry: "FunctionRegistry",
    performer: Callable[["ActionFunction"], BuiltinFn],
    *,
    interpret: bool = False,
) -> ActionFn:
    """Compile *script*'s ``main`` body (and every defined function).

    *performer* maps a built-in action to the runner's closure that
    applies it (key lookup, deferred AoE, or scan); it is called once
    per ``perform`` site, here.  With *interpret*, terms and conditions
    run the reference interpreter instead of compiled closures.
    """
    term_c = interpret_term if interpret else compile_term
    cond_c = interpret_cond if interpret else compile_cond
    # filled after compiling, so recursive and forward calls resolve
    bodies: dict[str, ActionFn] = {}

    def action(node: ast.Action) -> ActionFn:
        if isinstance(node, ast.Skip):
            return _skip
        if isinstance(node, ast.Let):
            return _let(node.name, term_c(node.term, registry), action(node.body))
        if isinstance(node, ast.Seq):
            return _seq(action(node.first), action(node.second))
        if isinstance(node, ast.If):
            return _if(
                cond_c(node.cond, registry),
                action(node.then_branch),
                None if node.else_branch is None else action(node.else_branch),
            )
        if isinstance(node, ast.Perform):
            return perform(node)
        return _raiser(SglTypeError, f"cannot execute {node!r}")

    def perform(node: ast.Perform) -> ActionFn:
        args = _compile_args([term_c(a, registry) for a in node.args])
        name = node.name
        defined = script.functions.get(name)
        if defined is not None:
            return _perform_defined(args, defined.params, name, bodies)
        builtin = registry.actions.get(name)
        if builtin is None:
            message = f"unknown action function {name!r}"

            def unknown(
                ctx: EvalContext,
                by_key: ByKey,
                out_rows: EffectRows,
                out_aoe: AoeRecords,
            ) -> None:
                args(ctx)
                raise SglNameError(message)

            return unknown
        apply = performer(builtin)

        def perform_builtin(
            ctx: EvalContext,
            by_key: ByKey,
            out_rows: EffectRows,
            out_aoe: AoeRecords,
        ) -> None:
            apply(args(ctx), ctx, by_key, out_rows, out_aoe)

        return perform_builtin

    for fn_name, fn in script.functions.items():
        bodies[fn_name] = action(fn.body)
    return bodies[script.entry]


def _skip(
    ctx: EvalContext,
    by_key: ByKey,
    out_rows: EffectRows,
    out_aoe: AoeRecords,
) -> None:
    return None


def _let(name: str, term: TermFn, body: ActionFn) -> ActionFn:
    def let(
        ctx: EvalContext,
        by_key: ByKey,
        out_rows: EffectRows,
        out_aoe: AoeRecords,
    ) -> None:
        body(ctx.bind({name: term(ctx)}), by_key, out_rows, out_aoe)

    return let


def _seq(first: ActionFn, second: ActionFn) -> ActionFn:
    def seq(
        ctx: EvalContext,
        by_key: ByKey,
        out_rows: EffectRows,
        out_aoe: AoeRecords,
    ) -> None:
        first(ctx, by_key, out_rows, out_aoe)
        second(ctx, by_key, out_rows, out_aoe)

    return seq


def _if(cond: CondFn, then: ActionFn, orelse: ActionFn | None) -> ActionFn:
    if orelse is None:

        def if_then(
            ctx: EvalContext,
            by_key: ByKey,
            out_rows: EffectRows,
            out_aoe: AoeRecords,
        ) -> None:
            if cond(ctx):
                then(ctx, by_key, out_rows, out_aoe)

        return if_then
    otherwise = orelse

    def if_else(
        ctx: EvalContext,
        by_key: ByKey,
        out_rows: EffectRows,
        out_aoe: AoeRecords,
    ) -> None:
        if cond(ctx):
            then(ctx, by_key, out_rows, out_aoe)
        else:
            otherwise(ctx, by_key, out_rows, out_aoe)

    return if_else


def _perform_defined(
    args: Callable[[EvalContext], list[object]],
    params: tuple[str, ...],
    name: str,
    bodies: Mapping[str, ActionFn],
) -> ActionFn:
    """``perform G``: the body runs in a fresh scope of G's parameters
    (lexical scope), with the same environment and randomness."""

    def perform_defined(
        ctx: EvalContext,
        by_key: ByKey,
        out_rows: EffectRows,
        out_aoe: AoeRecords,
    ) -> None:
        inner = EvalContext(
            env=ctx.env,
            registry=ctx.registry,
            agg_eval=ctx.agg_eval,
            rng=ctx.rng,
            bindings=dict(zip(params, args(ctx))),
            unit=ctx.unit,
        )
        bodies[name](inner, by_key, out_rows, out_aoe)

    return perform_defined
