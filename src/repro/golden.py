"""Golden-digest plumbing: pin the simulator's observable behaviour.

Every figure generator is run against a recording stub of ``run_many`` to
harvest the exact experiment configs it would submit (the strict-audit
integration test audits the same harvest), then each unique config is
simulated with shortened measurement windows and reduced to two stable
strings:

* the persistent-cache key of the *original* (full-window) config, and
* a SHA-256 digest of the canonical ``result_to_dict`` payload of the
  shortened run.

Because experiments are deterministic functions of their configs, these
digests change **iff** the simulator's observable behaviour changes — which
is exactly the property the engine/hot-path rewrites must preserve. The
committed reference lives in ``tests/golden/figure_digests.json`` and is
regenerated (after an intentional behaviour change) with
``PYTHONPATH=src python tools/gen_golden_digests.py``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Tuple

from .config import ExperimentConfig
from .core.cache import CACHE_SCHEMA_VERSION, config_cache_key
from .core.experiment import Experiment
from .core.export import result_to_dict
from .units import msec

#: Shortened measurement windows for the digest sweep. Long enough that the
#: loss/retransmission configs exercise their recovery paths, short enough
#: that ~130 configs run in one test session.
GOLDEN_DURATION_NS = msec(2)
GOLDEN_WARMUP_NS = msec(3)


def harvest_figure_configs() -> List[ExperimentConfig]:
    """Every config any figure generator submits, in sorted-generator order,
    deduplicated (full-window form) by cache key."""
    from .figures import base as figures_base
    from .figures import figure_generators

    generators = figure_generators()

    captured: List[ExperimentConfig] = []
    stand_in = Experiment(
        ExperimentConfig(duration_ns=msec(1), warmup_ns=msec(1))
    ).run()

    def recording_run_many(configs, **kwargs):
        configs = list(configs)
        captured.extend(configs)
        return [stand_in] * len(configs)

    original = figures_base.run_many
    figures_base.run_many = recording_run_many
    try:
        for name in sorted(generators):
            generators[name]()
    finally:
        figures_base.run_many = original

    unique: Dict[str, ExperimentConfig] = {}
    for config in captured:
        unique.setdefault(config_cache_key(config), config)
    return list(unique.values())


def result_digest(result) -> str:
    """SHA-256 of the canonical JSON encoding of a result payload."""
    document = json.dumps(
        result_to_dict(result), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


def digest_config(config: ExperimentConfig) -> Tuple[str, str]:
    """``(cache_key_of_full_config, digest_of_shortened_run)`` for one config."""
    key = config_cache_key(config)
    shortened = config.replace(
        duration_ns=GOLDEN_DURATION_NS, warmup_ns=GOLDEN_WARMUP_NS
    )
    digest = result_digest(Experiment(shortened).run())
    return key, digest


def compute_golden_document() -> dict:
    """The full golden document: one digest entry per unique figure config."""
    configs = harvest_figure_configs()
    digests = {}
    for config in configs:
        key, digest = digest_config(config)
        canonical = config.to_canonical_dict()
        digests[key] = {
            "summary": (
                f"{canonical.get('pattern', '?')} x{canonical.get('num_flows', '?')}"
                f" seed={canonical.get('seed', '?')}"
            ),
            "result_sha256": digest,
        }
    return {
        "cache_schema_version": CACHE_SCHEMA_VERSION,
        "duration_ns": GOLDEN_DURATION_NS,
        "warmup_ns": GOLDEN_WARMUP_NS,
        "digests": digests,
    }
