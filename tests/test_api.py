"""The public facade: compile, explain, run."""

from dataclasses import fields

import pytest

import repro
from repro import api
from repro.api import GameDefinition, compile_script, explain_script, run_battle
from repro.engine.clock import EngineConfig
from repro.env.schema import battle_schema
from repro.game.battle import SAVE_FORMAT, BattleSimulation, battle_worker_game
from repro.game.scenario import uniform_battle
from repro.game.scripts import FIGURE_3_SCRIPT, build_registry, build_scripts
from repro.persist.log import write_state_file
from repro.sgl.errors import SglNameError


class TestCompileScript:
    def test_valid(self, registry, schema):
        script = compile_script(
            "main(u) { perform UseWeapon(u) }", registry, schema
        )
        assert script.main.name == "main"

    def test_invalid_rejected(self, registry):
        with pytest.raises(SglNameError):
            compile_script("main(u) { perform Nothing(u) }", registry)

    def test_normalized_output(self, registry):
        from repro.sgl.normalize import is_normal_form

        script = compile_script(
            "main(u) { if CountEnemiesInRange(u, 5) > 0 then "
            "perform UseWeapon(u) }",
            registry, normalize=True,
        )
        assert is_normal_form(script, registry)


class TestExplainScript:
    def test_figure_3(self):
        result = explain_script(FIGURE_3_SCRIPT, build_registry())
        assert "⊕" in result.plan
        assert result.aggregate_kinds["CountEnemiesInRange"] == "divisible"
        assert result.aggregate_kinds["NearestEnemy"] == "nearest"
        assert "divisible" in str(result)


class TestRunBattle:
    def test_returns_summary(self):
        summary = run_battle(30, ticks=3, mode="indexed", seed=1)
        assert summary.ticks == 3
        assert summary.total_time > 0

    def test_naive_mode(self):
        summary = run_battle(20, ticks=2, mode="naive", seed=1)
        assert summary.ticks == 2

    def test_index_maintenance_knob(self):
        # all three policies run and agree on summary-level outcomes
        summaries = {
            policy: run_battle(
                24, ticks=3, seed=5, index_maintenance=policy
            )
            for policy in ("rebuild", "incremental", "auto")
        }
        baseline = summaries["rebuild"]
        for summary in summaries.values():
            assert summary.ticks == 3
            assert summary.total_damage == baseline.total_damage
            assert summary.deaths == baseline.deaths

    def test_invalid_index_maintenance_rejected(self):
        with pytest.raises(ValueError):
            run_battle(10, ticks=1, index_maintenance="bogus")


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None


# -- the facades forward EngineConfig whole -----------------------------------


class _SpyBattle(BattleSimulation):
    """Remembers the last battle run, so run_battle's engine is visible."""

    last = None

    def run(self, ticks):
        type(self).last = self
        return super().run(ticks)


@pytest.fixture
def spy_battle(monkeypatch):
    monkeypatch.setattr(api, "BattleSimulation", _SpyBattle)
    return _SpyBattle


def via_battle(**kwargs):
    with BattleSimulation(16, density=0.02, **kwargs) as sim:
        return sim.engine.config


def via_run_battle(**kwargs):
    run_battle(16, 0, density=0.02, **kwargs)
    return _SpyBattle.last.engine.config


def via_game_definition(**kwargs):
    game = GameDefinition(battle_schema(), build_registry(), build_scripts())
    env, _ = uniform_battle(16, density=0.02, schema=game.schema)
    if kwargs.get("parallelism") == "processes":
        kwargs.setdefault("worker_factory", battle_worker_game)
    with game.engine(env, lambda env, rng, tick: env, **kwargs) as engine:
        return engine.config


FACADES = {
    "BattleSimulation": via_battle,
    "run_battle": via_run_battle,
    "GameDefinition.engine": via_game_definition,
}

#: Fields the battle derives itself (its grid size, its worker game).
BATTLE_OWNED = {"spatial_extent", "worker_factory"}


def sample_values(tmp_path):
    """A non-default value for every EngineConfig field."""
    return {
        "mode": "naive",
        "optimize_aoe": False,
        "cascade": False,
        "seed": 7,
        "index_maintenance": "auto",
        "incremental_threshold": 0.5,
        "auto_policy": "threshold",
        "num_shards": 3,
        "shard_by": "player",
        "spatial_extent": 50.0,
        "parallelism": "processes",
        "max_workers": 2,
        "worker_broadcast": "snapshot",
        "worker_factory": battle_worker_game,
        "workers": ["127.0.0.1:9"],
        "worker_scope": "shards",
        "worker_timeout": 5.0,
        "worker_max_frame": 1 << 20,
        "spectators": True,
        "spectator_host": "localhost",
        "spectator_port": 12345,
        "spectator_broadcast": "snapshot",
        "epoch_log": str(tmp_path / "engine.log"),
        "epoch_log_checkpoint_every": 8,
        "epoch_log_fsync": "never",
        "metrics": True,
        "trace_path": str(tmp_path / "trace.json"),
        "slow_tick_factor": 3.0,
    }


#: Knobs a sample value needs alongside it to form a valid config
#: (remote endpoints are only contacted on the first sharded tick).
COMPANIONS = {"workers": dict(parallelism="processes", num_shards=2)}


@pytest.mark.usefixtures("spy_battle")
@pytest.mark.parametrize("facade", FACADES)
def test_facade_forwards_every_engine_field(tmp_path, facade):
    build = FACADES[facade]
    samples = sample_values(tmp_path)
    # a field added to EngineConfig without a sample fails here
    assert set(samples) == {f.name for f in fields(EngineConfig)}
    for name, value in samples.items():
        kwargs = {name: value, **COMPANIONS.get(name, {})}
        if facade != "GameDefinition.engine" and name in BATTLE_OWNED:
            with pytest.raises(TypeError, match=name):
                build(**kwargs)
            continue
        assert getattr(build(**kwargs), name) == value, name
    with pytest.raises(TypeError, match="bogus_knob"):
        build(bogus_knob=1)


def test_run_battle_resume_forwards_engine_knobs(tmp_path, spy_battle):
    save = tmp_path / "battle.save"
    with BattleSimulation(48, density=0.02, seed=29) as sim:
        sim.run(3)
        sim.save(save)
    serial = run_battle(None, 4, resume_from=str(save))
    serial_signature = spy_battle.last.state_signature()
    sharded = run_battle(
        None, 4, resume_from=str(save), num_shards=2, parallelism="processes"
    )
    assert spy_battle.last.engine.config.parallelism == "processes"
    assert [s.shards for s in sharded.tick_stats] == [2] * 4
    assert all(s.broadcast_bytes > 0 for s in sharded.tick_stats)
    assert spy_battle.last.state_signature() == serial_signature
    assert (sharded.deaths, sharded.total_damage, sharded.total_healing) == (
        serial.deaths, serial.total_damage, serial.total_healing
    )


#: The construction recipe as save files and logs recorded it before
#: the facades forwarded EngineConfig whole: the same key names, minus
#: the spectator address and the log's durability knobs.
OLD_RECIPE = dict(
    n_units=48, density=0.02, mode="indexed", formation="uniform",
    composition=None, seed=29, resurrection=True, optimize_aoe=True,
    cascade=True, index_maintenance="rebuild", incremental_threshold=0.25,
    auto_policy="ewma", num_shards=1, shard_by="key", parallelism="serial",
    max_workers=None, worker_broadcast="delta", workers="local",
    worker_scope="full", worker_timeout=60.0, worker_max_frame=None,
    spectators=False, spectator_broadcast="delta", metrics=False,
    slow_tick_factor=None,
)


def test_old_recipe_save_and_log_still_resume(tmp_path):
    save = tmp_path / "battle.save"
    log = tmp_path / "battle.log"
    with BattleSimulation(**OLD_RECIPE) as sim:
        sim.run(6)
        reference = sim.state_signature()
    meta = {
        "game": "repro.game.battle",
        "format": SAVE_FORMAT,
        "kwargs": dict(OLD_RECIPE),
    }
    with BattleSimulation(**OLD_RECIPE) as sim:
        meta["grid_size"] = sim.grid_size
        sim.engine.attach_epoch_log(
            str(log), state_fn=sim._persist_state, meta=meta
        )
        sim.run(3)
        epoch = sim.engine.tick_count + 1
        write_state_file(str(save), epoch, {
            **meta,
            "epoch": epoch,
            "rows": sim.engine.env.rows,
            "state": sim._persist_state(),
        })
    with BattleSimulation.load(save) as sim:
        sim.run(3)
        assert sim.state_signature() == reference
    with BattleSimulation.recover(log, resume_log=False) as sim:
        assert sim.summary.ticks == 3
        sim.run(3)
        assert sim.state_signature() == reference
