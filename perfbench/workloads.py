"""The benchmark's workloads: figure-standard experiment batches built from a seed.

Every workload is a closed loop over one process and one thread: its configs
run one after another through ``run_many(configs, jobs=1, cache=None)``, and
the next pass starts only when the previous one has returned. The simulator
receives nothing but the generated configs; the seed reaches it only as
``ExperimentConfig.seed``.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.config import ExperimentConfig
from repro.figures import base, fig3, fig9, fig10

#: Seed of the committed reference digests (``ExperimentConfig``'s default,
#: so the reference seed reproduces the published figure numbers).
REFERENCE_SEED = 1
#: Seed kept out of tuning: a claim made with this benchmark must also hold
#: here (no reference digests exist for it; repeat determinism and the
#: conservation audit still apply).
HELD_OUT_SEED = 7919

#: Fig 10 message sizes the ``rpc`` workload keeps: the smallest and largest.
RPC_SIZES_KB = (4, 64)


def _bulk() -> List[ExperimentConfig]:
    """fig3a ladder: steady ACK-clocked streaming, where frame trains and the
    express lane do their work."""
    return [config for _, config in fig3.ladder_configs()]


def _lossy() -> List[ExperimentConfig]:
    """fig9a drop sweep: the same flow under loss recovery, which closes the
    express gate; a steady-state shortcut must cost nothing here."""
    return [fig9._config(rate) for rate in fig9.LOSS_RATES]


def _rpc() -> List[ExperimentConfig]:
    """fig10 16:1 RPC incast: per-message cost, where the engine and the CPU
    scheduler work most."""
    return [fig10._config(size) for size in RPC_SIZES_KB]


def _bulk_traced() -> List[ExperimentConfig]:
    """``bulk`` with per-stage latency tracing, as ``repro trace`` runs it:
    the only workload where ``repro/trace.py`` works; ``bulk`` is its
    control."""
    return [config.replace(trace=True) for config in _bulk()]


WORKLOADS: Dict[str, Callable[[], List[ExperimentConfig]]] = {
    "bulk": _bulk,
    "lossy": _lossy,
    "rpc": _rpc,
    "bulk_traced": _bulk_traced,
}


def build_configs(name: str, seed: int) -> List[ExperimentConfig]:
    """The workload's configs with figure-standard windows and ``seed``.

    ``prepare`` applies the figure runtime's trace setting, so each config's
    own ``trace`` is put back afterwards.
    """
    return [
        base.prepare(config).replace(seed=seed, trace=config.trace)
        for config in WORKLOADS[name]()
    ]
