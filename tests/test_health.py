"""Tests for the serving health state machine (``repro.health``).

The monitor's contract: transitions are always *adjacent* (never skip a
state), need ``dwell_up``/``dwell_down`` consecutive agreeing ticks, exit
thresholds sit below entry thresholds (hysteresis), DRAINING is terminal,
and the whole trajectory is a pure function of the tick sequence — the
chaos harness's byte-determinism rests on that purity.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import load_config
from repro.health import HEALTH_STATES, HealthMonitor, HealthThresholds
from repro.obs import Registry

CALM = {"queue_frac": 0.0}
BUSY = {"queue_frac": 0.8}  # above queue_degraded, below queue_shedding
SWAMPED = {"queue_frac": 1.0}  # above queue_shedding


def monitor(history=128, **kw):
    """A monitor on ``HealthThresholds(**kw)``."""
    return HealthMonitor(HealthThresholds(**kw), history=history)


def fast_monitor(**kw):
    """A monitor that reacts in one tick each way unless overridden."""
    kw.setdefault("dwell_up", 1)
    kw.setdefault("dwell_down", 1)
    return monitor(**kw)


class TestThresholds:
    def test_defaults_validate(self):
        th = HealthThresholds()
        assert th.desired_level(CALM) == 0
        assert th.desired_level(BUSY) == 1
        assert th.desired_level(SWAMPED) == 2

    def test_hysteresis_scales_exit_below_entry(self):
        th = HealthThresholds(queue_degraded=0.5, hysteresis=0.6)
        # 0.4 is below entry (0.5) but above exit (0.3): inside the band.
        assert th.desired_level({"queue_frac": 0.4}) == 0
        assert th.desired_level({"queue_frac": 0.4}, scale=0.6) == 1

    def test_breaker_and_recovery_floor_at_degraded(self):
        th = HealthThresholds()
        assert th.desired_level({"queue_frac": 0.0, "breaker_open": True}) == 1
        # The floor never reaches SHEDDING on its own.
        assert th.desired_level({"breaker_open": True}) == 1

    @pytest.mark.parametrize(
        "kw",
        [
            {"hysteresis": 0.0},
            {"hysteresis": 1.0},
            {"queue_degraded": 0.0},
            {"queue_degraded": 0.9, "queue_shedding": 0.5},
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            HealthThresholds(**kw)


class TestMonitorTransitions:
    def test_starts_healthy_and_stays_on_calm_signals(self):
        mon = fast_monitor()
        for _ in range(5):
            assert mon.tick(CALM) == "HEALTHY"
        assert mon.history() == []

    def test_dwell_up_requires_consecutive_ticks(self):
        mon = monitor(dwell_up=3, dwell_down=1)
        assert mon.tick(BUSY) == "HEALTHY"
        assert mon.tick(BUSY) == "HEALTHY"
        assert mon.tick(BUSY) == "DEGRADED"

    def test_interrupted_streak_resets(self):
        mon = monitor(dwell_up=2, dwell_down=100)
        mon.tick(BUSY)
        mon.tick(CALM)  # breaks the streak
        mon.tick(BUSY)
        assert mon.state == "HEALTHY"
        mon.tick(BUSY)
        assert mon.state == "DEGRADED"

    def test_never_skips_states(self):
        mon = fast_monitor()
        # The signal asks for SHEDDING immediately; the machine still
        # walks HEALTHY → DEGRADED → SHEDDING one tick at a time.
        assert mon.tick(SWAMPED) == "DEGRADED"
        assert mon.tick(SWAMPED) == "SHEDDING"
        assert [(a, b) for _, a, b in mon.history()] == [
            ("HEALTHY", "DEGRADED"),
            ("DEGRADED", "SHEDDING"),
        ]

    def test_hysteresis_band_holds_state(self):
        mon = fast_monitor(queue_degraded=0.5, hysteresis=0.6)
        mon.tick({"queue_frac": 0.6})
        assert mon.state == "DEGRADED"
        # 0.4 < entry 0.5 but > exit 0.3: no recovery, however long.
        for _ in range(50):
            assert mon.tick({"queue_frac": 0.4}) == "DEGRADED"

    def test_dwell_down_slows_recovery(self):
        mon = monitor(dwell_up=1, dwell_down=3)
        mon.tick(BUSY)
        assert mon.state == "DEGRADED"
        assert mon.tick(CALM) == "DEGRADED"
        assert mon.tick(CALM) == "DEGRADED"
        assert mon.tick(CALM) == "HEALTHY"

    def test_begin_drain_walks_adjacent_and_is_terminal(self):
        mon = fast_monitor()
        assert mon.begin_drain() == "DRAINING"
        assert [(a, b) for _, a, b in mon.history()] == [
            ("HEALTHY", "DEGRADED"),
            ("DEGRADED", "SHEDDING"),
            ("SHEDDING", "DRAINING"),
        ]
        for _ in range(5):
            assert mon.tick(CALM) == "DRAINING"
        assert mon.draining

    def test_history_is_bounded(self):
        mon = fast_monitor(history=4)
        for _ in range(10):
            mon.tick(BUSY)  # up one
            mon.tick(CALM)  # down one
        assert len(mon.history()) == 4

    def test_transition_count_is_not_capped_by_the_history_bound(self):
        registry = Registry()
        mon = fast_monitor(history=128).bind(registry)
        for _ in range(200):
            mon.tick(BUSY)  # up one
            mon.tick(CALM)  # down one
        assert len(mon.history()) == 128
        assert mon.stats()["transitions"] == 400
        assert registry.counter("health.transitions").value == 400

    def test_attached_source_is_polled(self):
        mon = fast_monitor()
        mon.attach(lambda: BUSY)
        assert mon.tick() == "DEGRADED"


class TestMonitorExport:
    def test_bound_registry_tracks_state_and_edges(self):
        reg = Registry()
        mon = fast_monitor()
        mon.bind(reg)
        assert reg.gauge("health.state").value == 0
        mon.tick(SWAMPED)
        mon.tick(SWAMPED)
        snap = reg.snapshot()
        assert reg.gauge("health.state").value == 2
        assert snap["counters"]["health.transitions"] == 2
        counters = mon.stats()  # fresh snapshot after the second tick
        snap = reg.snapshot()["counters"]
        assert snap["health.transitions{from=HEALTHY,to=DEGRADED}"] == 1
        assert snap["health.transitions{from=DEGRADED,to=SHEDDING}"] == 1
        assert counters["state"] == "SHEDDING"

    def test_stats_shape(self):
        mon = fast_monitor()
        mon.tick(BUSY)
        s = mon.stats()
        assert s["state"] == "DEGRADED" and s["level"] == 1
        assert s["ticks"] == 1 and s["transitions"] == 1
        assert s["history"][0] == {
            "tick": 1, "from": "HEALTHY", "to": "DEGRADED",
        }
        assert not s["draining"]


def load_health(health):
    """``serve.qos.health`` of a config document, loaded."""
    return load_config({"serve": {"qos": {"health": health}}}).serve.qos.health


class TestConfig:
    def test_round_trip(self):
        th = load_health(
            {
                "queue_degraded": 0.5,
                "queue_shedding": 0.9,
                "hysteresis": 0.5,
                "dwell_up": 2,
                "dwell_down": 4,
            }
        )
        assert th.queue_degraded == 0.5
        assert th.dwell_up == 2 and th.dwell_down == 4

    def test_unknown_key_raises(self):
        with pytest.raises(ValueError, match="unknown serve.qos.health config"):
            load_health({"queue_degrated": 0.5})

    def test_latency_thresholds_are_unknown_keys(self):
        """Health reads queue depth and breaker state only: a config that
        still names a p99 threshold fails the strict loader."""
        for key in ("p99_degraded_s", "p99_shedding_s"):
            with pytest.raises(ValueError, match="unknown serve.qos.health config"):
                load_health({key: 0.1})

    def test_bad_dwell_raises(self):
        with pytest.raises(ValueError):
            HealthThresholds(dwell_up=0)


# ---------------------------------------------------------------------------
# properties: adjacency, dwell, determinism under arbitrary signal walks
# ---------------------------------------------------------------------------
signal_walks = st.lists(
    st.floats(min_value=0.0, max_value=1.5, allow_nan=False),
    min_size=1,
    max_size=60,
)
dwells = st.integers(min_value=1, max_value=4)


class TestMonitorProperties:
    @given(signal_walks, dwells, dwells)
    @settings(max_examples=100)
    def test_transitions_always_adjacent_never_draining(self, walk, up, down):
        mon = monitor(dwell_up=up, dwell_down=down)
        for q in walk:
            mon.tick({"queue_frac": q})
        levels = {s: i for i, s in enumerate(HEALTH_STATES)}
        for _, a, b in mon.history():
            assert abs(levels[a] - levels[b]) == 1
        # Only begin_drain may enter DRAINING.
        assert mon.level <= 2

    @given(signal_walks, dwells, dwells)
    @settings(max_examples=100)
    def test_same_walk_same_trajectory(self, walk, up, down):
        def run():
            mon = monitor(dwell_up=up, dwell_down=down)
            states = [mon.tick({"queue_frac": q}) for q in walk]
            return states, mon.history()

        assert run() == run()

    @given(signal_walks, dwells)
    @settings(max_examples=100)
    def test_dwell_up_lower_bounds_transition_spacing(self, walk, up):
        """Consecutive *upward* transitions are >= dwell_up ticks apart."""
        mon = monitor(dwell_up=up, dwell_down=1)
        for q in walk:
            mon.tick({"queue_frac": q})
        ups = [t for t, a, b in mon.history() if HEALTH_STATES.index(b) > HEALTH_STATES.index(a)]
        assert all(b - a >= up for a, b in zip(ups, ups[1:]))
        if ups:
            assert ups[0] >= up
