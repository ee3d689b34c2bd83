"""End-to-end smoke checks, run by CI's ``smoke`` job.

Deselected from the default run (``pyproject.toml`` adds
``-m 'not smoke'``); run them with::

    PYTHONPATH=src python -m pytest -m smoke -q

They drive whole figures through the run cache, the figures CLI and the
chaos tool, the way an operator does.  Contracts that a unit test
already pins (warm cache hits, checkpoint round trips, the job service's
kill-and-resume) live with those unit tests, not here.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import obsv
from repro.experiments import runcache
from repro.experiments.__main__ import main as experiments_main
from repro.experiments.figures import REGISTRY
from repro.experiments.sweep import _accepts_platform
from repro.obsv import export
from repro.sim import checkpoint
from repro.sim import engine as engine_mod

pytestmark = pytest.mark.smoke

ROOT = Path(__file__).resolve().parent.parent
SEED = 0xA4


def _load_tool(name: str):
    """Import ``tools/<name>.py`` (a script, not a package module)."""
    spec = importlib.util.spec_from_file_location(
        f"{name}_tool", ROOT / "tools" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(autouse=True)
def _restore_environ():
    """The figures CLI exports its fault and checkpoint settings to
    ``os.environ`` for pool workers; keep them out of the next test."""
    saved = dict(os.environ)
    yield
    os.environ.clear()
    os.environ.update(saved)


# -- platform presets through the run cache ---------------------------------


@pytest.mark.parametrize(
    "figure_id, epochs, alternate",
    [("fig11", 6, "icelake-sp"), ("fig3a", 4, "skylake-sp+dca3")],
)
def test_platform_presets_through_the_run_cache(
    figure_id, epochs, alternate, monkeypatch
):
    """An explicit ``platform="skylake-sp"`` is the default run: it
    replays the default's cache entry without simulating.  An alternate
    preset stores under a new key and gives a different, complete
    result."""
    runner = REGISTRY[figure_id]
    assert _accepts_platform(runner)
    key = runner.cache_key(epochs=epochs, seed=SEED)
    assert runner.cache_key(
        epochs=epochs, seed=SEED, platform="skylake-sp"
    ) == key
    assert runner.cache_key(
        epochs=epochs, seed=SEED, platform=alternate
    ) != key
    cache = runcache.get_cache()

    default = runner(epochs=epochs, seed=SEED)
    stores = cache.stats.stores
    assert stores >= 1 and cache.stats.hits == 0

    constructed = []
    original_init = engine_mod.Simulator.__init__

    def counting_init(self):
        constructed.append(self)
        original_init(self)

    monkeypatch.setattr(engine_mod.Simulator, "__init__", counting_init)
    explicit = runner(epochs=epochs, seed=SEED, platform="skylake-sp")
    assert constructed == []
    assert cache.stats.hits >= 1 and cache.stats.stores == stores
    assert explicit == default

    alt = runner(epochs=epochs, seed=SEED, platform=alternate)
    assert cache.stats.stores > stores
    assert alt != default
    assert len(alt.rows) == len(default.rows)


# -- observability exports from the figures CLI -----------------------------


def test_faulted_figure_exports_parse(tmp_path, capsys):
    """A faulted fig11 with every export flag on: the trace round-trips
    and explains an A4 reallocation, the Chrome trace validates and the
    Prometheus text parses."""
    trace = tmp_path / "trace.jsonl"
    chrome = tmp_path / "trace.chrome.json"
    metrics = tmp_path / "metrics.prom"
    assert experiments_main([
        "fig11", "--quick", "--no-cache", "--fault-intensity", "1.0",
        "--trace", str(trace), "--chrome-trace", str(chrome),
        "--metrics-out", str(metrics),
    ]) == 0

    events = export.read_jsonl(trace)
    kinds = {e.kind for e in events}
    for kind in (obsv.KIND_EPOCH, obsv.KIND_MASK, obsv.KIND_DECISION,
                 obsv.KIND_FAULT):
        assert kind in kinds, kind
    assert any(
        e.kind == obsv.KIND_DECISION
        and e.name == "reallocate"
        and e.data.get("inputs")
        for e in events
    )

    capsys.readouterr()
    obsv_cli = _load_tool("obsv")
    assert obsv_cli.main(
        ["explain-epoch", str(trace), "--find", "reallocate"]
    ) == 0
    out = capsys.readouterr().out
    assert "[reallocate]" in out
    assert any(key in out for key in ("workloads:", "triggers:", "crossed:"))

    export.validate_chrome_trace(json.loads(chrome.read_text()))
    series = export.parse_prometheus(metrics.read_text())
    assert any(name.startswith("repro_trace_events") for name in series)


# -- multi-tenant SLO report -------------------------------------------------


def test_tenant_slo_report_covers_every_tenant_and_replays():
    """A seeded 6-tenant A4-vs-IOCA cell reports SLO attainment for
    every tenant under both schemes, and replays from the run cache (the
    tenant set is part of the key)."""
    tenants = 6
    ablation = REGISTRY["ablation-tenants"]
    cache = runcache.get_cache()
    kwargs = dict(
        epochs=6, seed=SEED, tenants=tenants, schemes=("a4", "ioca")
    )

    report = ablation(**kwargs)
    by_scheme = {}
    for row in report.rows:
        by_scheme.setdefault(row["scheme"], set()).add(row["tenant"])
    assert {s: len(t) for s, t in by_scheme.items()} == {
        "a4": tenants, "ioca": tenants,
    }
    assert all(0.0 <= row["attainment"] <= 1.0 for row in report.rows)

    hits = cache.stats.hits
    assert ablation(**kwargs) == report
    assert cache.stats.hits > hits


# -- the CI command lines ----------------------------------------------------


def _rendered(out: str) -> list:
    """CLI stdout without its ``[...]`` timing and cache-stats lines."""
    return [line for line in out.splitlines() if not line.startswith("[")]


@pytest.mark.parametrize(
    "tool, argv",
    [
        ("experiments", ["fig11", "--quick", "--sweep-ways", "3",
                         "--jobs", "2", "--no-cache"]),
        ("experiments", ["fig11", "--quick", "--sample", "--no-cache"]),
        ("experiments", ["ablation-tenants", "--quick", "--no-cache"]),
        ("chaos", ["--quick"]),
        ("chaos", ["--quick", "--fault-tenant", "lpw"]),
    ],
    ids=["sweep-ways", "sample", "ablation-tenants", "chaos",
         "chaos-fault-tenant"],
)
def test_cli(tool, argv):
    """Each command line exits 0; ``tools/chaos.py`` exits 1 when a
    safety property fails."""
    main = experiments_main if tool == "experiments" else _load_tool(tool).main
    assert main(argv) == 0


@pytest.mark.parametrize(
    "script", sorted(p.name for p in (ROOT / "examples").glob("*.py"))
)
def test_example_runs(script, tmp_path):
    """Every ``examples/*.py`` script runs to completion as a user would
    start it; files it writes land in ``tmp_path``."""
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_figures_cli_checkpoint_resume(tmp_path, monkeypatch, capsys):
    """The second ``--checkpoint-dir`` run resumes from the first run's
    snapshots and prints the same figure."""
    argv = ["fig3a", "--quick", "--checkpoint-dir", str(tmp_path / "ckpt"),
            "--no-cache"]
    restores = []
    original_restore = checkpoint.restore

    def counting_restore(state):
        restores.append(state.epoch)
        return original_restore(state)

    monkeypatch.setattr(checkpoint, "restore", counting_restore)

    assert experiments_main(argv) == 0
    first = capsys.readouterr().out
    assert restores == []
    assert experiments_main(argv) == 0
    second = capsys.readouterr().out
    assert restores, "second run did not resume from a checkpoint"
    assert _rendered(second) == _rendered(first)

