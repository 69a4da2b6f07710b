"""Bursty workloads and trace replay."""

import pytest

from repro.errors import SimulationError
from repro.runtime.traces import (
    BurstConfig,
    BurstyWorkloadGenerator,
    burstiness_index,
    load_trace,
    save_trace,
)
from repro.runtime.workload import WorkloadItem


@pytest.fixture
def config():
    return BurstConfig(
        calm_models=("vgg19",),
        burst_models=("yolov2", "googlenet"),
        calm_gap_ms=150.0,
        burst_gap_ms=20.0,
    )


class TestBursty:
    def test_deterministic(self, config):
        a = BurstyWorkloadGenerator(config, seed=1).generate(200)
        b = BurstyWorkloadGenerator(config, seed=1).generate(200)
        assert a == b

    def test_sorted_and_counted(self, config):
        items = BurstyWorkloadGenerator(config, seed=0).generate(300)
        assert len(items) == 300
        times = [i.arrival_ms for i in items]
        assert times == sorted(times)

    def test_burstier_than_poisson(self, config):
        items = BurstyWorkloadGenerator(config, seed=0).generate(2000)
        assert burstiness_index(items) > 1.2

    def test_burst_models_appear(self, config):
        items = BurstyWorkloadGenerator(config, seed=0).generate(500)
        names = {i.model_name for i in items}
        assert "yolov2" in names and "vgg19" in names

    def test_invalid_config(self):
        with pytest.raises(SimulationError):
            BurstConfig(calm_models=(), burst_models=("a",))
        with pytest.raises(SimulationError):
            BurstConfig(
                calm_models=("a",), burst_models=("b",), burst_gap_ms=0.0
            )

    def test_invalid_count(self, config):
        with pytest.raises(SimulationError):
            BurstyWorkloadGenerator(config).generate(0)


class TestTraceIO:
    def test_roundtrip(self, tmp_path, config):
        items = BurstyWorkloadGenerator(config, seed=0).generate(50)
        path = save_trace(items, tmp_path / "w.csv")
        loaded = load_trace(path)
        assert len(loaded) == 50
        for a, b in zip(items, loaded):
            assert a.model_name == b.model_name
            assert a.arrival_ms == pytest.approx(b.arrival_ms, abs=1e-5)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SimulationError, match="cannot read"):
            load_trace(tmp_path / "absent.csv")

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("time,name\n1.0,m\n")
        with pytest.raises(SimulationError, match="header"):
            load_trace(p)

    def test_unsorted_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("arrival_ms,model\n5.0,a\n1.0,b\n")
        with pytest.raises(SimulationError, match="not sorted"):
            load_trace(p)

    def test_negative_time_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("arrival_ms,model\n-1.0,a\n")
        with pytest.raises(SimulationError, match="negative"):
            load_trace(p)

    @pytest.mark.parametrize(
        "rows, lineno, bad",
        (
            ("nan,a\n", 2, "nan"),
            ("1.0,a\ninf,b\n", 3, "inf"),
            # A NaN row must not switch off the sort check for the next.
            ("3.0,a\nnan,b\n1.0,c\ninf,d\n", 3, "nan"),
        ),
        ids=("nan", "inf", "nan-then-unsorted"),
    )
    def test_non_finite_time_rejected(self, tmp_path, rows, lineno, bad):
        p = tmp_path / "bad.csv"
        p.write_text("arrival_ms,model\n" + rows)
        with pytest.raises(
            SimulationError, match=f"bad.csv:{lineno}: non-finite arrival time {bad}"
        ):
            load_trace(p)

    def test_missing_model_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("arrival_ms,model\n1.0,\n")
        with pytest.raises(SimulationError, match="missing model"):
            load_trace(p)

    def test_empty_trace_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("arrival_ms,model\n")
        with pytest.raises(SimulationError, match="empty"):
            load_trace(p)


class TestBurstiness:
    def test_regular_arrivals_low_index(self):
        items = [WorkloadItem(float(i * 10), "m") for i in range(100)]
        assert burstiness_index(items) == pytest.approx(0.0, abs=1e-9)

    def test_too_few(self):
        with pytest.raises(SimulationError):
            burstiness_index([WorkloadItem(0.0, "m"), WorkloadItem(1.0, "m")])
