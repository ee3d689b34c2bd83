"""Workload combinations used by the paper's evaluation (§6, §7).

* :func:`microbenchmark_workloads` — §7.1: DPDK-T (HPW) + FIO (LPW) + the
  three X-Mem instances of Table 3;
* :func:`hpw_heavy_workloads` — Fig. 13a: seven HPWs, four LPWs;
* :func:`lpw_heavy_workloads` — Fig. 13b: four HPWs, seven LPWs;
* :func:`build_server` — assemble a server with a scheme manager attached.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.policy import A4Policy
from repro.core.variants import make_manager
from repro.experiments.errors import ConfigError
from repro.experiments.harness import Server
from repro.platform import DEFAULT_PLATFORM, PlatformSpec, get_platform
from repro.telemetry.pcm import PRIORITY_HIGH, PRIORITY_LOW
from repro.tenancy import TenantSet
from repro.workloads.base import Workload
from repro.workloads.dpdk import DpdkWorkload
from repro.workloads.fastclick import fastclick
from repro.workloads.ffsb import ffsb_heavy, ffsb_light
from repro.workloads.fio import FioWorkload
from repro.workloads.redis import redis_pair
from repro.workloads.spec import spec_workload
from repro.workloads.xmem import xmem_table3

KB = 1024
MB = 1024 * KB


def microbenchmark_workloads(
    packet_bytes: int = 1024,
    block_bytes: int = 2 * MB,
    platform: PlatformSpec = DEFAULT_PLATFORM,
) -> List[Workload]:
    """§7.1 setup: DPDK-T (HPW, 4 cores) + FIO (LPW, 4 cores) + Table 3."""
    workloads: List[Workload] = [
        DpdkWorkload(
            name="dpdk-t",
            touch=True,
            cores=4,
            packet_bytes=packet_bytes,
            priority=PRIORITY_HIGH,
        ),
        FioWorkload(
            name="fio",
            block_bytes=block_bytes,
            cores=4,
            io_depth=32,
            priority=PRIORITY_LOW,
        ),
    ]
    workloads.extend(xmem_table3(platform))
    return workloads


def hpw_heavy_workloads(
    platform: PlatformSpec = DEFAULT_PLATFORM,
) -> List[Workload]:
    """Fig. 13a: HPWs in bold — Fastclick, FFSB-L, Redis-S/C, x264, parest,
    xalancbmk; LPWs — FFSB-H, bwaves, lbm, mcf."""
    redis_s, redis_c = redis_pair(PRIORITY_HIGH, PRIORITY_HIGH)
    return [
        fastclick(priority=PRIORITY_HIGH),
        ffsb_heavy(priority=PRIORITY_LOW),
        ffsb_light(priority=PRIORITY_HIGH),
        redis_s,
        redis_c,
        spec_workload("x264", PRIORITY_HIGH, platform=platform),
        spec_workload("parest", PRIORITY_HIGH, platform=platform),
        spec_workload("xalancbmk", PRIORITY_HIGH, platform=platform),
        spec_workload("bwaves", PRIORITY_LOW, platform=platform),
        spec_workload("lbm", PRIORITY_LOW, platform=platform),
        spec_workload("mcf", PRIORITY_LOW, platform=platform),
    ]


def lpw_heavy_workloads(
    platform: PlatformSpec = DEFAULT_PLATFORM,
) -> List[Workload]:
    """Fig. 13b: the LPW-focused combination — x264 and parest move to the
    LP side, FFSB-L joins them, leaving four HPWs."""
    redis_s, redis_c = redis_pair(PRIORITY_HIGH, PRIORITY_HIGH)
    return [
        fastclick(priority=PRIORITY_HIGH),
        ffsb_heavy(priority=PRIORITY_LOW),
        ffsb_light(priority=PRIORITY_LOW),
        redis_s,
        redis_c,
        spec_workload("xalancbmk", PRIORITY_HIGH, platform=platform),
        spec_workload("x264", PRIORITY_LOW, platform=platform),
        spec_workload("parest", PRIORITY_LOW, platform=platform),
        spec_workload("bwaves", PRIORITY_LOW, platform=platform),
        spec_workload("lbm", PRIORITY_LOW, platform=platform),
        spec_workload("mcf", PRIORITY_LOW, platform=platform),
    ]


def daemon_interference_workloads(
    platform: PlatformSpec = DEFAULT_PLATFORM,
) -> List[Workload]:
    """A §5.5-flavoured mix: latency-critical network + cache-sensitive
    service + bursty system daemons (KSM, zswap) that phase in and out —
    the scenario that exercises A4's detection *and* restoration loop."""
    from repro.workloads.sysdaemons import ksm, zswap

    return [
        fastclick(priority=PRIORITY_HIGH),
        spec_workload("parest", PRIORITY_HIGH, platform=platform),
        spec_workload("x264", PRIORITY_HIGH, platform=platform),
        ksm(phased=True, priority=PRIORITY_LOW, platform=platform),
        zswap(phased=True, priority=PRIORITY_LOW, platform=platform),
    ]


def chaos_workloads() -> List[Workload]:
    """The chaos harness's mix: every fault surface in one server —
    network I/O (NIC storms), storage I/O (NVMe stalls, DMA leak), a
    cache-sensitive HPW (hit-rate baseline to corrupt), and a phased
    daemon (forced phase flips)."""
    from repro.workloads.sysdaemons import ksm

    return [
        DpdkWorkload(
            name="dpdk", touch=True, cores=2, priority=PRIORITY_HIGH
        ),
        FioWorkload(
            name="fio",
            block_bytes=2 * MB,
            cores=2,
            io_depth=32,
            priority=PRIORITY_LOW,
        ),
        spec_workload("parest", PRIORITY_HIGH),
        spec_workload("mcf", PRIORITY_LOW),
        ksm(phased=True, priority=PRIORITY_LOW),
    ]


def validate_core_budgets(
    workloads: List[Workload],
    cores: int,
) -> TenantSet:
    """Check workload core demands against the server and tenant budgets.

    Raises :class:`~repro.experiments.errors.ConfigError` naming every
    over-subscribed tenant, at *build* time — before any setup work — so a
    bad scenario fails with the offender's name instead of a mid-setup
    ``CoreAllocationError``.  Returns the implied :class:`TenantSet`.
    """
    tenants = TenantSet.from_workloads(workloads)
    demand = {t.name: 0 for t in tenants}
    for workload in workloads:
        demand[workload.tenant.name] += workload.num_cores
    over = [
        f"{t.name} (wants {demand[t.name]} cores, budget {t.core_budget})"
        for t in tenants
        if demand[t.name] > t.core_budget
    ]
    if over:
        raise ConfigError(
            f"over-subscribed tenants: {'; '.join(over)}"
        )
    total = sum(demand.values())
    if total > cores:
        raise ConfigError(
            f"workloads demand {total} cores but the platform has {cores}; "
            "tenant demands: "
            + ", ".join(f"{name}={n}" for name, n in demand.items())
        )
    return tenants


def build_server(
    workloads: List[Workload],
    scheme: str = "default",
    cores: Optional[int] = None,
    seed: int = 0xA4,
    policy: Optional[A4Policy] = None,
    epoch_cycles: Optional[float] = None,
    fault_plan=None,
    platform: Optional[PlatformSpec] = None,
) -> Server:
    """Assemble a server, add ``workloads``, attach the scheme manager.

    ``fault_plan`` defaults to the environment selection
    (``REPRO_FAULT_INTENSITY``; see :mod:`repro.faults.plan`) so chaos can
    be switched on for any existing experiment without code changes.
    ``platform`` (a spec or preset name) selects the microarchitecture;
    default-policy managers are anchored to it automatically, and the core
    budget defaults to the platform's core count.
    """
    platform = get_platform(platform)
    if cores is None:
        cores = platform.cores
    validate_core_budgets(workloads, cores)
    kwargs = {}
    if epoch_cycles is not None:
        kwargs["epoch_cycles"] = epoch_cycles
    if fault_plan is None:
        from repro.faults.plan import FaultPlan

        fault_plan = FaultPlan.from_env()
    server = Server(
        cores=cores, seed=seed, fault_plan=fault_plan, platform=platform,
        **kwargs,
    )
    server.add_workloads(workloads)
    server.set_manager(make_manager(scheme, policy, platform=platform))
    return server
