"""Compiled closures vs the reference interpreter.

The indexed engine evaluates SGL through closures built once by
:mod:`repro.engine.compile`; ``repro.sgl.evalterm`` stays the oracle.
These tests check that the two agree on generated terms and conditions
-- value for value, or error class and message for error -- and that
compiling changes nothing an outside observer can count: every
aggregate probe still enters ``IndexedEvaluator.evaluate`` and every
unit still enters ``DecisionRunner.run_unit``, so class-level wrappers
see them all, while the naive configuration keeps interpreting.
"""

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sgl.evalterm as evalterm
from repro.engine.compile import compile_cond, compile_term
from repro.engine.decision import DecisionRunner
from repro.engine.evaluator import IndexedEvaluator
from repro.game.battle import BattleSimulation
from repro.sgl import ast
from repro.sgl.builtins import FunctionRegistry
from repro.sgl.evalterm import MATH_BUILTINS, EvalContext, eval_cond, eval_term
from repro.sgl.interp import NaiveAggregateEvaluator
from repro.sgl.values import Record, Vec

# -- a small world to evaluate in ---------------------------------------------

ROW = {"key": 7, "posx": 3.5, "name": "knight", "hp": 0}
BINDINGS = {
    "n": 4,
    "f": -2.5,
    "z": 0,
    "s": "archer",
    "row": ROW,
    "rec": Record({"x": 1.0, "y": -2.0}),
    "hole": Record({"x": None, "y": 1.0}),
    "vec": Vec((1.0, 2.0)),
    "nothing": None,
    "_K": 100,  # a binding shadows the registry constant of that name
}
CONSTANTS = {"_K": 3, "_S": "healer", "_ZERO": 0, "_NONE": None}


class CountingAggregates:
    """Deterministic aggregate evaluator that records what it was asked."""

    def __init__(self):
        self.calls = []

    def evaluate(self, function, args, ctx):
        self.calls.append((function.name, list(args)))
        first = args[0] if args else None
        if first is None:
            return None
        if isinstance(first, (int, float)) and not isinstance(first, bool):
            return first * 2
        return len(args)


def _registry():
    registry = FunctionRegistry()
    registry.register_constants(CONSTANTS)
    registry.register_native_aggregate("Twice", ("x",), lambda *a: None)
    registry.register_native_aggregate("Pair", ("x", "y"), lambda *a: None)
    return registry


REGISTRY = _registry()


def _context(unit=ROW):
    return EvalContext(
        env=None,
        registry=REGISTRY,
        agg_eval=CountingAggregates(),
        rng=lambda row, i: (row["key"] * 31 + i) % 17,
        bindings=dict(BINDINGS),
        unit=unit,
    )


# -- term and condition generators --------------------------------------------

_numbers = st.one_of(
    st.integers(-20, 20),
    st.sampled_from([0.0, -0.0, 0.5, -1.5, 2.25, 1e300]),
)
_names = st.sampled_from(
    ["n", "f", "z", "s", "row", "rec", "hole", "vec", "nothing",
     "_K", "_S", "_ZERO", "_NONE", "unbound"]
)
_leaves = st.one_of(
    _numbers.map(ast.Num),
    st.sampled_from(["", "knight", "x"]).map(ast.Str),
    _names.map(ast.Name),
    st.builds(
        ast.FieldAccess,
        _names.map(ast.Name),
        st.sampled_from(["posx", "name", "key", "missing", "x", "y", "z"]),
    ),
)
# pow and exp can build numbers too large to compute: literal args only
_SAFE_BUILTINS = sorted(set(MATH_BUILTINS) - {"pow", "exp"})


def _extend(children):
    args = st.lists(children, min_size=0, max_size=3).map(tuple)
    return st.one_of(
        st.builds(ast.Neg, children),
        st.builds(
            ast.BinOp,
            st.sampled_from(["+", "-", "*", "/", "%", "^"]),
            children,
            children,
        ),
        st.builds(ast.BinOp, st.just("/"), children, st.just(ast.Num(0))),
        st.builds(ast.VecLit, st.lists(children, min_size=1, max_size=3).map(tuple)),
        st.builds(ast.Call, st.sampled_from(_SAFE_BUILTINS), args),
        st.builds(
            ast.Call,
            st.sampled_from(["pow", "exp"]),
            st.lists(_numbers.map(ast.Num), min_size=1, max_size=2).map(tuple),
        ),
        st.builds(ast.Call, st.just("Random"), args),
        st.builds(ast.Call, st.sampled_from(["Twice", "Pair", "NoSuch"]), args),
        st.builds(ast.FieldAccess, children, st.sampled_from(["posx", "x", "y"])),
    )


terms = st.recursive(_leaves, _extend, max_leaves=8)


def _conds(children):
    return st.one_of(
        st.builds(ast.Not, children),
        st.builds(ast.And, children, children),
        st.builds(ast.Or, children, children),
    )


conds = st.recursive(
    st.one_of(
        st.booleans().map(ast.BoolLit),
        st.builds(
            ast.Compare,
            st.sampled_from(["=", "<>", "<", "<=", ">", ">=", "=="]),
            terms,
            terms,
        ),
    ),
    _conds,
    max_leaves=4,
)


# -- the differential check -----------------------------------------------------


def _outcome(fn, ctx):
    try:
        return ("value", fn(ctx))
    except Exception as exc:  # noqa: BLE001 -- the class is the result
        return ("error", type(exc), str(exc))


def _same(a, b):
    if a[0] != b[0]:
        return False
    if a[0] == "error":
        return a == b
    x, y = a[1], b[1]
    if isinstance(x, float) and isinstance(y, float) and math.isnan(x):
        return math.isnan(y)
    return type(x) is type(y) and x == y


def _check(compiled, interpreted, unit=ROW):
    ref_ctx, got_ctx = _context(unit), _context(unit)
    expected = _outcome(interpreted, ref_ctx)
    got = _outcome(compiled, got_ctx)
    assert _same(got, expected), (got, expected)
    # same aggregate calls, in the same order, with the same arguments
    assert repr(got_ctx.agg_eval.calls) == repr(ref_ctx.agg_eval.calls)


@settings(max_examples=400, deadline=None)
@given(terms, st.booleans())
def test_compiled_term_matches_eval_term(term, with_unit):
    unit = ROW if with_unit else None
    _check(
        compile_term(term, REGISTRY),
        lambda ctx: eval_term(term, ctx),
        unit=unit,
    )


@settings(max_examples=300, deadline=None)
@given(conds)
def test_compiled_cond_matches_eval_cond(cond):
    _check(compile_cond(cond, REGISTRY), lambda ctx: eval_cond(cond, ctx))


@pytest.mark.parametrize(
    "term",
    [
        ast.BinOp("/", ast.Num(1), ast.Num(0)),
        ast.BinOp("%", ast.Name("n"), ast.Name("z")),
        ast.BinOp("+", ast.Name("s"), ast.Num(1)),
        ast.BinOp("+", ast.Name("nothing"), ast.Name("s")),
        ast.Name("_K"),
        ast.Name("_S"),
        ast.Name("_NONE"),
        ast.Name("unbound"),
        ast.FieldAccess(ast.Name("row"), "missing"),
        ast.FieldAccess(ast.Name("hole"), "x"),
        ast.FieldAccess(ast.Name("vec"), "z"),
        ast.FieldAccess(ast.Name("s"), "x"),
        ast.VecLit((ast.Num(1), ast.Name("s"))),
        ast.VecLit((ast.Num(1), ast.Name("nothing"))),
        ast.Call("sqrt", (ast.Num(-1),)),
        ast.Call("Random", (ast.Num(2),)),
        ast.Call("Random", (ast.Name("row"), ast.Num(3))),
        ast.Call("Random", (ast.Name("rec"), ast.Num(3))),
        ast.Call("Random", (ast.Name("row"), ast.Name("nothing"))),
        ast.Call("Random", ()),
        ast.Call("Twice", (ast.Name("n"),)),
        ast.Call("Twice", (ast.Name("n"), ast.Num(1))),
        ast.Call("NoSuch", (ast.Name("unbound"),)),
    ],
    ids=str,
)
def test_edge_terms(term):
    _check(compile_term(term, REGISTRY), lambda ctx: eval_term(term, ctx))


_DIV0 = ast.BinOp("/", ast.Num(0), ast.Num(0))


@pytest.mark.parametrize(
    "cond",
    [
        # both sides evaluate before NULL or an unknown operator is noticed
        ast.Compare("==", ast.Name("nothing"), _DIV0),
        ast.Compare("=", ast.Name("nothing"), _DIV0),
        ast.Compare("<", ast.Name("vec"), ast.Name("vec")),
        ast.Compare("<", ast.Name("s"), ast.Num(1)),
        ast.Compare(">=", ast.Name("hole"), ast.Num(1)),
        ast.Compare(">", ast.BinOp("^", ast.Name("nothing"), _DIV0), ast.Num(1)),
        ast.And(ast.BoolLit(False), ast.Compare("<", ast.Name("unbound"), ast.Num(1))),
        ast.Or(ast.BoolLit(True), ast.Compare("<", ast.Name("unbound"), ast.Num(1))),
    ],
    ids=str,
)
def test_edge_conds(cond):
    _check(compile_cond(cond, REGISTRY), lambda ctx: eval_cond(cond, ctx))


def test_random_outside_a_unit_context():
    term = ast.Call("Random", (ast.Num(1),))
    _check(
        compile_term(term, REGISTRY),
        lambda ctx: eval_term(term, ctx),
        unit=None,
    )


def test_constants_registered_after_compiling_resolve():
    registry = FunctionRegistry()
    fn = compile_term(ast.Name("_LATE"), registry)
    registry.register_constant("_LATE", 5)
    ctx = EvalContext(None, registry, CountingAggregates(), lambda r, i: 0)
    assert fn(ctx) == eval_term(ast.Name("_LATE"), ctx) == 5


# -- the engine still enters the wrapped entry points ----------------------------


def _count_class_calls(monkeypatch, cls, attr, counter):
    original = getattr(cls, attr)

    def wrapper(*args, **kwargs):
        counter[attr] = counter.get(attr, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, attr, wrapper)


def _one_tick(mode, monkeypatch, evaluator_cls):
    counter = {}
    _count_class_calls(monkeypatch, evaluator_cls, "evaluate", counter)
    _count_class_calls(monkeypatch, DecisionRunner, "run_unit", counter)
    sim = BattleSimulation(150, seed=5, mode=mode)
    try:
        sim.tick()
        stats = (
            dict(sim.engine.agg_eval.stats) if mode == "indexed" else None
        )
    finally:
        sim.close()
    monkeypatch.undo()
    return counter, stats


def test_class_level_wrappers_see_every_call(monkeypatch):
    indexed, stats = _one_tick("indexed", monkeypatch, IndexedEvaluator)
    naive, _ = _one_tick("naive", monkeypatch, NaiveAggregateEvaluator)
    # one run_unit per unit, and every aggregate call the interpreter
    # makes on the same state reaches the indexed evaluator's method
    assert indexed["run_unit"] == naive["run_unit"] == 150
    assert indexed["evaluate"] == naive["evaluate"] > 0
    probes = sum(
        stats.get(name, 0)
        for name in ("probe_divisible", "probe_sweep", "probe_kdtree")
    )
    assert indexed["evaluate"] == probes


def test_naive_mode_interprets_and_indexed_mode_does_not(monkeypatch):
    counts = {"naive": 0, "indexed": 0}
    original = evalterm.eval_term
    # every module that imported the interpreter's entry point by name
    sites = [
        module
        for name, module in list(sys.modules.items())
        if name.startswith("repro") and getattr(module, "eval_term", None) is original
    ]
    for mode in counts:

        def counting(term, ctx, _mode=mode):
            counts[_mode] += 1
            return original(term, ctx)

        for module in sites:
            monkeypatch.setattr(module, "eval_term", counting)
        sim = BattleSimulation(60, seed=2, mode=mode)
        try:
            sim.tick()
        finally:
            sim.close()
        monkeypatch.undo()
    assert counts["naive"] > 0
    # the battle's actions are all key/AoE shaped and its aggregates all
    # indexable, so the indexed engine never reaches the interpreter
    assert counts["indexed"] == 0
