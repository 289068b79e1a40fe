"""The benchmark's two closed-loop workloads and their correctness gate.

Every workload drives the public API -- ``repro.game.BattleSimulation``,
``repro.serve.SpectatorClient`` and the epoch log behind
``BattleSimulation.recover`` -- from one process: the next tick or query
is sent only after the previous one returned.  See README.md in this
directory for why each workload exists and which layer each metric
belongs to.
"""

from __future__ import annotations

import gc
import hashlib
import os
import random
import resource
import shutil
import statistics
import tempfile
import time
import traceback
from dataclasses import dataclass, field

from repro.game.battle import BattleSimulation
from repro.obs.trace import load_trace
from repro.serve.queries import AuthoritativeQueryService, unit_ref
from repro.serve.spectator import SpectatorError

from layers import LayerTracer

#: Timed ticks per pass.  Each pass sets a battle up afresh from its seed
#: and replays the ticks of every other pass of that battle, so every run
#: times the same ticks however fast the machine is.  It stays well
#: inside the 256 epochs a replica retains, so time travel can reach any
#: earlier epoch of the pass.
WINDOW = 12
#: What :func:`reference_kernel` takes at the speed that reported times
#: are scaled to, in seconds (see README.md, Steadiness).
REFERENCE_S = 0.020
#: Battles an untraced run cycles through, one per pass: seeds
#: ``BATTLES * seed`` to ``BATTLES * seed + BATTLES - 1``.  How much work a
#: tick does depends on the battle's seed (on ``battle-ops`` the probes
#: forwarded to the workers per tick ranged from 92 to 134 over four
#: seeds), and a run's figures average it over this many battles.  A
#: traced run drives only the first.
BATTLES = 4
#: Passes per run at least, however short ``--seconds`` is: every battle
#: of an untraced run once, and two untraced and two traced passes of a
#: traced run, whose work counts must repeat exactly.
MIN_PASSES = 4
#: The naive-mode oracle: a small battle of the first battle's seed, once
#: per run.
ORACLE_UNITS = 80
ORACLE_TICKS = 3
#: Traced ticks at the start of each traced pass whose work counts are
#: reported and must repeat exactly; the first pass's are written to the
#: trace file.
WORK_TICKS = 5
#: Timed crash recoveries after the ``battle-ops`` loop.
RECOVERIES = 5

SHARDED = dict(
    num_shards=2,
    shard_by="spatial",
    parallelism="processes",
    max_workers=2,
    worker_scope="shards",
)

#: The SQL-source query kind, compiled by the replica (as in
#: benchmarks/bench_spectators.py).
TEAM_HP_SQL = """
function TeamHp(p) returns
SELECT Count(*) AS n, Sum(health) AS hp
FROM E e
WHERE e.player = p;
"""


@dataclass(frozen=True)
class Workload:
    units: int
    engine: dict
    ops: bool = False  # epoch log + spectator replica + query mix

    @property
    def sharded(self) -> bool:
        """Sharded runs must stay in the serial battle's state."""
        return self.engine.get("num_shards", 1) > 1


WORKLOADS = {
    "battle": Workload(units=1000, engine={}),
    "battle-ops": Workload(
        units=500,
        engine=dict(
            SHARDED,
            spectators=True,
            epoch_log_fsync="checkpoint",
            epoch_log_checkpoint_every=16,
        ),
        ops=True,
    ),
}

#: Counts that must repeat exactly across runs of one seed.
EXACT_COUNTS = (
    "indexes.build_calls",
    "indexes.build_rows",
    "indexes.sweep_calls",
    "decision.run_unit_calls",
    "sgl.eval_term_calls",
    "evaluator.evaluate_calls",
    "evaluator.probe_divisible",
    "evaluator.probe_sweep",
    "evaluator.probe_kdtree",
    "effects.aoe_records",
    "env.combine_rows_in",
    "env.changed_rows",
    "shardexec.remote_evals",
    "shardexec.bytes_broadcast",
    "shardexec.delta_broadcasts",
    "shardexec.snapshot_broadcasts",
    "persist.delta_records",
    "persist.snapshot_records",
    "persist.log_bytes",
    "serve.delta_sends",
    "serve.snapshot_sends",
    "serve.publish_bytes",
)

#: Per traced tick: (metric, tracer key) -- ``.self_s`` is self time.
LAYER_TIMES = (
    ("indexes.build_ms", "indexes.build.total_s"),
    ("indexes.sweep_ms", "indexes.sweep.total_s"),
    ("sgl.interpret_ms", "decision.run_unit.self_s"),
    ("evaluator.evaluate_self_ms", "evaluator.evaluate.self_s"),
    ("evaluator.begin_tick_ms", "evaluator.begin_tick.total_s"),
    ("clock.tick_self_ms", "clock.tick.self_s"),
    ("effects.resolve_aoe_ms", "effects.resolve_aoe.total_s"),
    ("env.combine_all_ms", "env.combine_all.total_s"),
    ("env.diff_by_key_ms", "env.diff_by_key.total_s"),
    ("env.encode_replica_delta_ms", "env.encode_replica_delta.total_s"),
    ("game.mechanics_ms", "game.mechanics.self_s"),
    ("game.movement_ms", "game.movement.total_s"),
    ("shardexec.run_tick_ms", "shardexec.run_tick.total_s"),
    ("persist.append_epoch_ms", "persist.append_epoch.self_s"),
    ("persist.append_state_ms", "persist.append_state.total_s"),
    ("serve.publish_ms", "serve.publish.total_s"),
)

#: Tracer call counters reported under another name.
TRACER_COUNTS = {
    "indexes.build_calls": "indexes.build.calls",
    "indexes.sweep_calls": "indexes.sweep.calls",
    "decision.run_unit_calls": "decision.run_unit.calls",
    "evaluator.evaluate_calls": "evaluator.evaluate.calls",
}

QUERY_KINDS = ("sgl", "aggregate", "team_counts", "hp_histogram", "knn")


class GateError(RuntimeError):
    """A correctness-gate mismatch: the run reports no numbers."""


def reference_kernel() -> float:
    """Seconds that a fixed piece of pure-Python work takes right now.

    The work builds, indexes and sorts 20,000 small records: allocation,
    hashing and comparison, as in the program's own tick.  Garbage
    collection is off while it runs, so its time does not depend on how
    large the program's heap is.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        rng = random.Random(5)
        rows = [(rng.random(), i, str(i)) for i in range(20000)]
        by_id = {row[1]: row for row in rows}
        rows.sort()
        sum(by_id[i][0] for i in range(0, 20000, 3))
        del rows, by_id
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def _epoch(sim: BattleSimulation) -> int:
    return sim.engine.tick_count + 1


def digest(sim: BattleSimulation) -> str:
    return hashlib.sha256(repr(sim.state_signature()).encode()).hexdigest()


def query_mix(grid: float) -> list[tuple[str, str, tuple, dict]]:
    """The current-epoch query mix: (kind, query, args, params)."""
    return [
        ("sgl", TEAM_HP_SQL, (0,), {}),
        ("aggregate", "CountFriendlyKnights", (unit_ref(0),), {}),
        ("team_counts", "team_counts", (), {}),
        ("hp_histogram", "hp_histogram", (), {"bucket": 25}),
        ("knn", "knn", (5, grid / 2.0, grid / 2.0), {}),
    ]


def public_counters(sim: BattleSimulation) -> dict[str, float]:
    """Counters the program keeps itself, under benchmark metric names."""
    engine = sim.engine
    out: dict[str, float] = {}
    for name in ("probe_divisible", "probe_sweep", "probe_kdtree"):
        out["evaluator." + name] = engine.agg_eval.stats.get(name, 0)
    pool = engine.worker_stats
    for name in (
        "remote_evals", "bytes_broadcast", "delta_broadcasts",
        "snapshot_broadcasts", "stale_snapshots", "respawns",
    ):
        out["shardexec." + name] = getattr(pool, name, 0) if pool else 0
    log = engine.epoch_log
    for name in ("delta_records", "snapshot_records"):
        out["persist." + name] = getattr(log.stats, name) if log else 0
    publisher = engine.publisher
    for name in ("delta_sends", "snapshot_sends", "drops"):
        out["serve." + name] = getattr(publisher.stats, name) if publisher else 0
    return out


# -- one set-up battle ------------------------------------------------------------


class Session:
    """A set-up battle: simulation, plus replica and client on battle-ops."""

    def __init__(self, wl: Workload, seed: int, workdir: str, index: int):
        start = time.perf_counter()
        kwargs = dict(wl.engine)
        self.log_path = None
        if wl.ops:
            self.log_path = os.path.join(workdir, f"epochs-{index}.log")
            kwargs["epoch_log"] = self.log_path
        self.sim = BattleSimulation(wl.units, seed=seed, **kwargs)
        self.replica = self.client = self.authority = None
        try:
            if wl.ops:
                self.replica = self.sim.spawn_spectator()
                self.client = self.replica.client()
                self.authority = AuthoritativeQueryService(self.sim.engine)
            self.sim.tick()  # warm-up
            if wl.ops:
                # pinning the warm-up epoch waits until the replica has it
                self.client.query("team_counts", epoch=_epoch(self.sim))
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - start

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.replica is not None:
            self.replica.close()
        self.sim.close()


@dataclass
class Pass:
    """One set-up battle's WINDOW timed ticks."""

    seed: int  # the battle's
    traced: bool
    setup_s: float
    setup_ref_s: float  # reference kernel time around the set-up
    tick_s: list[float] = field(default_factory=list)
    round_s: list[float] = field(default_factory=list)  # tick + its queries
    ref_s: list[float] = field(default_factory=list)  # kernel around each round
    digests: list[str] = field(default_factory=list)
    sections: list[dict[str, float]] = field(default_factory=list)


@dataclass
class Record:
    """Everything one run measured, over all its passes."""

    passes: list[Pass] = field(default_factory=list)
    busy_s: float = 0.0
    query_s: list[float] = field(default_factory=list)
    query_kind_s: dict[str, list[float]] = field(default_factory=dict)
    timetravel_s: list[float] = field(default_factory=list)
    recover_s: list[float] = field(default_factory=list)
    recover_sections: list[dict[str, float]] = field(default_factory=list)
    totals: dict[str, int] = field(default_factory=dict)  # bytes, retries
    attempted: dict[str, int] = field(default_factory=dict)
    failed: dict[str, int] = field(default_factory=dict)
    rss_mb: float = 0.0
    replica_status: dict | None = None

    def attempt(self, op: str, ok: bool) -> None:
        self.attempted[op] = self.attempted.get(op, 0) + 1
        if not ok:
            self.failed[op] = self.failed.get(op, 0) + 1

    def add(self, name: str, value: int) -> None:
        self.totals[name] = self.totals.get(name, 0) + value


def drive_pass(
    session: Session, wl: Workload, seed: int, rec: Record,
    tracer: LayerTracer | None, ref_before: float, ref_after: float,
) -> Pass:
    """Run WINDOW ticks of the closed loop on *session*, every one traced
    when a *tracer* is given.

    *ref_before* and *ref_after* are the reference kernel's times just
    before and after the set-up.  The kernel runs again after every round
    (a tick and its queries), so each round is bracketed by two of them.
    """
    sim = session.sim
    p = Pass(
        seed=seed,
        traced=tracer is not None,
        setup_s=session.setup_s,
        setup_ref_s=(ref_before + ref_after) / 2,
    )
    rng = random.Random(seed)
    mix = query_mix(sim.grid_size) if wl.ops else []
    live: dict[tuple[int, str], object] = {}
    live_epochs: list[int] = []
    start_counters = public_counters(sim)
    if tracer is not None:
        tracer.bind_engine(sim.engine)
    for _ in range(WINDOW):
        if tracer is not None:
            before = public_counters(sim)
            tracer.begin_section(_epoch(sim) + 1)
        t0 = time.perf_counter()
        try:
            # a failed tick leaves the engine's state undefined, so its
            # exception ends the run instead of counting as a failure
            stats = sim.tick()
        finally:
            if tracer is not None:
                section = tracer.end_section()
        elapsed = time.perf_counter() - t0
        rec.attempt("tick", True)
        for name in ("broadcast_bytes", "publish_bytes", "log_bytes"):
            rec.add(name, getattr(stats, name))
        if tracer is not None:
            after = public_counters(sim)
            for name, value in after.items():
                section[name] = value - before[name]
            section["effects.aoe_records"] = stats.aoe_records
            section["persist.log_bytes"] = stats.log_bytes
            section["serve.publish_bytes"] = stats.publish_bytes
            p.sections.append(section)
        queries = _query_round(session, mix, rec, rng, live, live_epochs) if wl.ops else 0.0
        ref_before, ref_after = ref_after, reference_kernel()
        p.tick_s.append(elapsed)
        p.round_s.append(elapsed + queries)
        p.ref_s.append((ref_before + ref_after) / 2)
        rec.busy_s += elapsed + queries
        p.digests.append(digest(sim))
    if tracer is not None:
        tracer.bind_engine(None)
    end_counters = public_counters(sim)
    for name in ("shardexec.stale_snapshots", "shardexec.respawns", "serve.drops"):
        rec.add(name, end_counters[name] - start_counters[name])
    return p


def _query_round(session, mix, rec, rng, live, live_epochs) -> float:
    """The post-tick query mix at the current epoch, then one time-travel
    query at a seeded past epoch; every answer is checked.  Returns the
    seconds the answered queries took."""
    epoch = _epoch(session.sim)
    client = session.client
    busy = 0.0
    for kind, query, args, params in mix:
        t0 = time.perf_counter()
        try:
            got = client.query(query, *args, epoch=epoch, **params)
        except SpectatorError:
            rec.attempt("query", False)
            continue
        elapsed = time.perf_counter() - t0
        rec.attempt("query", True)
        busy += elapsed
        rec.query_s.append(elapsed)
        rec.query_kind_s.setdefault(kind, []).append(elapsed)
        want = session.authority.answer(query, *args, **params)
        if got.epoch != epoch or got.value != want.value:
            raise GateError(
                f"{kind} at epoch {epoch}: replica {got.value!r} (epoch "
                f"{got.epoch}) != engine {want.value!r}"
            )
        live[(epoch, kind)] = got.value
    past = [e for e in live_epochs if e < epoch]
    live_epochs.append(epoch)
    if not past:
        return busy
    when = rng.choice(past)
    kind, query, args, params = rng.choice(mix)
    if (when, kind) not in live:
        return busy  # that live query failed; nothing recorded to compare
    t0 = time.perf_counter()
    try:
        got = client.query(query, *args, epoch=when, **params)
    except SpectatorError:
        rec.attempt("query", False)
        return busy
    elapsed = time.perf_counter() - t0
    rec.attempt("query", True)
    rec.timetravel_s.append(elapsed)
    if got.epoch != when or got.value != live[(when, kind)]:
        raise GateError(
            f"time travel {kind} at epoch {when}: {got.value!r} != the "
            f"live answer {live[(when, kind)]!r}"
        )
    return busy + elapsed


def recover_loop(session: Session, rec: Record, tracer: LayerTracer | None) -> None:
    """Time crash recovery from the run's epoch log, checking each result
    against the live state at the last durable epoch."""
    sim = session.sim
    sim.engine.epoch_log.flush()
    want_epoch = _epoch(sim)
    want_rows = sim.state_signature()
    want_summary = (
        sim.summary.deaths, sim.summary.resurrections,
        sim.summary.total_damage, sim.summary.total_healing,
    )
    for _ in range(RECOVERIES):
        if tracer is not None:
            tracer.begin_section(want_epoch)
        t0 = time.perf_counter()
        try:
            recovered = BattleSimulation.recover(session.log_path, resume_log=False)
        except Exception:  # counted as a failed recovery; the loop goes on
            traceback.print_exc()
            rec.attempt("recovery", False)
            continue
        finally:
            if tracer is not None:
                rec.recover_sections.append(tracer.end_section())
        rec.recover_s.append(time.perf_counter() - t0)
        rec.attempt("recovery", True)
        try:
            got_summary = (
                recovered.summary.deaths, recovered.summary.resurrections,
                recovered.summary.total_damage, recovered.summary.total_healing,
            )
            if (
                _epoch(recovered) != want_epoch
                or recovered.state_signature() != want_rows
                or got_summary != want_summary
            ):
                raise GateError(
                    f"recovered state at epoch {_epoch(recovered)} differs "
                    f"from the live state at epoch {want_epoch}"
                )
        finally:
            recovered.close()


def naive_oracle(wl: Workload, seed: int) -> None:
    """A small battle of the same seed under ``mode="naive"`` and under
    the workload's engine must agree after every tick."""
    engine = SHARDED if wl.sharded else {}
    with BattleSimulation(ORACLE_UNITS, seed=seed, mode="naive") as naive:
        with BattleSimulation(ORACLE_UNITS, seed=seed, **engine) as fast:
            for tick in range(1, ORACLE_TICKS + 1):
                naive.tick()
                fast.tick()
                if naive.state_signature() != fast.state_signature():
                    raise GateError(
                        f"naive oracle: state differs after tick {tick}"
                    )


def serial_cross_check(wl: Workload, seed: int, digests: list[str]) -> None:
    """Replay the serial battle with the same units, seed and tick count;
    its state must equal the sharded run's after every tick."""
    with BattleSimulation(wl.units, seed=seed) as ref:
        ref.tick()  # the warm-up tick
        for tick, want in enumerate(digests, start=1):
            ref.tick()
            if digest(ref) != want:
                raise GateError(
                    f"sharded state differs from serial battle after timed "
                    f"tick {tick}"
                )


# -- metrics -------------------------------------------------------------------------


def _ms_p(values: list[float], q: int) -> float:
    """The q-th percentile of *values* (seconds) in milliseconds."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] * 1e3
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e3


def scaled(passes: list[Pass], attr: str) -> list[float]:
    """Every tick's (or round's) time in *passes*, scaled to the reference
    speed by the reference kernel's time around it."""
    return [
        t * REFERENCE_S / ref
        for p in passes
        for t, ref in zip(getattr(p, attr), p.ref_s)
    ]


def _mean(sections: list[dict[str, float]], key: str) -> float:
    if not sections:
        return 0.0
    return sum(s.get(key, 0.0) for s in sections) / len(sections)


def work_counts(sections: list[dict[str, float]]) -> dict[str, float]:
    """The exact counts, per tick, over the first WORK_TICKS ticks of a
    traced pass."""
    window = sections[:WORK_TICKS]
    return {
        name: _mean(window, TRACER_COUNTS.get(name, name)) for name in EXACT_COUNTS
    }


def end_to_end(wl: Workload, rec: Record) -> dict:
    plain = [p for p in rec.passes if not p.traced]
    ticks = scaled(plain, "tick_s")
    rounds = scaled(plain, "round_s")
    setups = [p.setup_s * REFERENCE_S / p.setup_ref_s for p in rec.passes]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "tick_ms_p50": (_ms_p(ticks, 50), "ms"),
        "tick_ms_p90": (_ms_p(ticks, 90), "ms"),
        "unit_ticks_per_s": (wl.units * len(rounds) / sum(rounds), "1/s"),
        "peak_rss_mb": (rec.rss_mb, "MB"),
    }


def per_layer(rec: Record) -> dict:
    traced = [p for p in rec.passes if p.traced]
    plain = [p for p in rec.passes if not p.traced]
    sections = [s for p in traced for s in p.sections]
    out: dict[str, tuple[float, str]] = {}
    for name, key in LAYER_TIMES:
        out[name] = (_mean(sections, key) * 1e3, "ms")
    for name, value in work_counts(traced[0].sections).items():
        out[name] = (value, "B" if "bytes" in name else "count")
    recs = rec.recover_sections
    out["persist.replay_ms"] = (_mean(recs, "persist.replay.total_s") * 1e3, "ms")
    out["persist.replay_epochs"] = (_mean(recs, "persist.replay_epochs"), "count")
    out["persist.truncate_ms"] = (_mean(recs, "persist.truncate.total_s") * 1e3, "ms")
    for name in ("shardexec.stale_snapshots", "shardexec.respawns", "serve.drops"):
        out[name] = (rec.totals[name], "count")
    status = rec.replica_status or {}
    out["serve.replica_updates_applied"] = (status.get("updates_applied", 0), "count")
    for kind in QUERY_KINDS:
        out["serve.query_ms." + kind] = (_ms_p(rec.query_kind_s.get(kind, []), 50), "ms")
    out["serve.query_ms.timetravel"] = (_ms_p(rec.timetravel_s, 50), "ms")
    # the workload-specific user-facing numbers (see README.md)
    ticks = WINDOW * len(rec.passes)
    out["query_ms_p50"] = (_ms_p(rec.query_s, 50), "ms")
    out["query_ms_p90"] = (_ms_p(rec.query_s, 90), "ms")
    out["timetravel_ms_p50"] = (_ms_p(rec.timetravel_s, 50), "ms")
    out["recover_ms"] = (_ms_p(rec.recover_s, 50), "ms")
    for name in ("log_bytes", "publish_bytes", "broadcast_bytes"):
        out[name + "_per_tick"] = (rec.totals[name] / ticks, "B")
    for op in ("tick", "query", "recovery"):
        out[f"ops.{op}_attempted"] = (rec.attempted.get(op, 0), "count")
        out[f"ops.{op}_failed"] = (rec.failed.get(op, 0), "count")
    attempted = sum(rec.attempted.values())
    out["error_rate"] = (sum(rec.failed.values()) / attempted, "ratio")
    out["trace.overhead_ratio"] = (
        statistics.median(scaled(traced, "tick_s"))
        / statistics.median(scaled(plain, "tick_s")),
        "ratio",
    )
    out.update(unscaled(rec))
    return out


def unscaled(rec: Record) -> dict:
    """The figures behind the scaled ones, as the clock read them."""
    plain = [p for p in rec.passes if not p.traced]
    return {
        "wall.tick_ms_p50": (_ms_p([t for p in plain for t in p.tick_s], 50), "ms"),
        "wall.setup_s": (statistics.median([p.setup_s for p in rec.passes]), "s"),
        "reference.kernel_ms": (
            statistics.median([r for p in rec.passes for r in p.ref_s]) * 1e3, "ms"
        ),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- one benchmark run -----------------------------------------------------------------


def run(
    name: str, seed: int, seconds: float, trace: bool, out_dir: str, log
) -> tuple[dict, Record]:
    """Set up, drive and check one workload; returns (metrics, record).

    Epoch logs go to a scratch directory under *out_dir*, removed at the
    end; a traced run leaves its Chrome trace in *out_dir*.  Raises
    :class:`GateError` on any correctness mismatch.
    """
    workdir = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    try:
        return _run(name, seed, seconds, trace, out_dir, workdir, log)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(name, seed, seconds, trace, out_dir, workdir, log):
    wl = WORKLOADS[name]
    naive_oracle(wl, BATTLES * seed)
    log(f"naive oracle: {ORACLE_UNITS} units x {ORACLE_TICKS} ticks agree")

    tracer = LayerTracer(keep_sections=WORK_TICKS) if trace else None
    rec = measure(wl, seed, seconds, tracer, workdir)
    log(
        f"{name}: {len(rec.passes)} passes of {WINDOW} timed ticks after "
        "warm-up agree; final states "
        + ", ".join(f"{s}:{p.digests[-1][:16]}" for s, p in first_passes(rec).items())
    )
    if wl.ops:
        log(
            f"{len(rec.query_s)} current-epoch and {len(rec.timetravel_s)} "
            f"time-travel answers and {len(rec.recover_s)} recoveries match"
        )
    if wl.sharded:
        first = first_passes(rec)
        for battle_seed, p in first.items():
            serial_cross_check(wl, battle_seed, p.digests)
        log(f"serial battles match after each of {WINDOW} ticks, seeds {list(first)}")
    log("unscaled: " + ", ".join(
        f"{name} {value:.4f} {unit}" for name, (value, unit) in unscaled(rec).items()
    ))

    if not trace:
        return end_to_end(wl, rec), rec

    trace_path = os.path.join(out_dir, f"trace-{name}-seed{seed}.json")
    written = tracer.write_chrome_trace(trace_path, os.getpid())
    if len(load_trace(trace_path)) != written:
        raise GateError("trace file does not load back whole")
    log(f"{written} spans of {WORK_TICKS} traced ticks in {trace_path}")
    return per_layer(rec), rec


def measure(
    wl: Workload, seed: int, seconds: float, tracer: LayerTracer | None, workdir: str
) -> Record:
    """Set up and drive passes until *seconds* of busy time are measured.

    With a *tracer*, every other pass runs traced.  Every pass must reach
    the state of the first pass of its battle after each tick, and every
    traced pass must repeat the first traced pass's work counts exactly.
    The last pass's battle is also recovered from its epoch log on
    ``battle-ops``.
    """
    rec = Record()
    seeds = [BATTLES * seed + k for k in range(1 if tracer else BATTLES)]
    while True:
        index = len(rec.passes)
        traced = tracer is not None and index % 2 == 1
        battle_seed = seeds[index % len(seeds)]
        ref_before = reference_kernel()
        session = Session(wl, battle_seed, workdir, index)
        try:
            p = drive_pass(
                session, wl, battle_seed, rec, tracer if traced else None,
                ref_before, reference_kernel(),
            )
            _check_pass(rec, p)
            rec.passes.append(p)
            done = rec.busy_s >= seconds and len(rec.passes) >= MIN_PASSES
            if done:
                rec.rss_mb = peak_rss_mb()
                if wl.ops:
                    rec.replica_status = session.client.status()
                    recover_loop(session, rec, tracer)
        finally:
            session.close()
        if done:
            return rec
        gc.collect()  # peak_rss_mb should see one live battle


def first_passes(rec: Record) -> dict[int, Pass]:
    """The first pass of each battle, by seed."""
    first: dict[int, Pass] = {}
    for p in rec.passes:
        first.setdefault(p.seed, p)
    return first


def _check_pass(rec: Record, p: Pass) -> None:
    """*p* replayed the same battle as the earlier passes of its seed."""
    want = first_passes(rec).get(p.seed)
    if want is not None:
        for tick, (a, b) in enumerate(zip(p.digests, want.digests), 1):
            if a != b:
                raise GateError(
                    f"pass {len(rec.passes)} of battle seed {p.seed} differs "
                    f"from its first pass after timed tick {tick}"
                )
    traced = [q for q in rec.passes if q.traced]
    if p.traced and traced:
        first, again = work_counts(traced[0].sections), work_counts(p.sections)
        differ = {k: (first[k], again[k]) for k in first if first[k] != again[k]}
        if differ:
            raise GateError(f"work counts differ between passes of one seed: {differ}")
