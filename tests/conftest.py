import io
from unittest import mock

import numpy as np
import pytest

from dlczsim import DetectionConfig, DetectionMode, ModelParams
from dlczsim.correlator import CountTable, table_from_counts
from dlczsim import event_sim
from dlczsim.params import DETECTORS
from dlczsim.photon_model import click_pattern_distribution
from dlczsim.records_io import write_chunks


def random_params(rng: np.random.Generator, chi_max: float = 0.9) -> ModelParams:
    """A random valid parameter set spanning the physically interesting ranges.

    For oracle-equivalence checks at 1e-10, pass chi_max <= 0.6 so that the
    enumeration truncation tail chi^61 stays below the tolerance.
    """
    return ModelParams(
        chi=float(rng.uniform(0.0, chi_max)),
        bg1_coherent=float(10 ** rng.uniform(-6, -1)),
        bg2_coherent=float(10 ** rng.uniform(-6, -1)),
        bg1_incoherent=float(10 ** rng.uniform(-7, -2)),
        bg2_incoherent=float(10 ** rng.uniform(-7, -2)),
        chi_ref=0.01,
        retrieval_eff=float(rng.uniform(0.05, 1.0)),
        eta1=float(rng.uniform(0.05, 1.0)),
        eta2_path=float(rng.uniform(0.05, 1.0)),
        eta_apd=float(rng.uniform(0.05, 1.0)),
        bs_transmission=float(rng.uniform(0.5, 1.0)),
        bs_ratio=float(rng.uniform(0.2, 0.8)),
    )


def table_from_multinomial(params: ModelParams, mode: DetectionMode, n_trials: int,
                           rng: np.random.Generator) -> CountTable:
    """Sample an exact count table from the analytic click-pattern distribution.

    The categories are drawn in bit-reversed code order, the order in which
    `itertools.product((False, True), repeat=k)` lists channel-order patterns, so
    that a seeded table does not depend on how patterns are indexed."""
    dist = click_pattern_distribution(params, DetectionConfig(mode))
    k = len(DETECTORS[mode])
    order = [int(f"{code:0{k}b}"[::-1], 2) for code in range(len(dist))]
    probs = dist[order]
    counts = np.zeros(len(dist), np.int64)
    counts[order] = rng.multinomial(n_trials, probs / probs.sum())
    return table_from_counts(mode, counts, n_trials)


def joined(blocks):
    """The columns (trial_index, detector_id, offset_ns) of record blocks, each concatenated."""
    parts = list(zip(*blocks)) or [(), (), ()]
    return tuple(np.concatenate([np.empty(0, dtype), *part])
                 for dtype, part in zip((np.uint64, np.uint8, np.uint32), parts))


def session_bytes(spec, fmt="bin", unit=None) -> bytes:
    """The record file of a session, written chunk by chunk as `simulate` writes it, from
    work units of `unit` trials (by default the sampler's own `_UNIT`)."""
    sink = io.BytesIO()
    with mock.patch.object(event_sim, "_UNIT", unit or event_sim._UNIT):
        write_chunks(event_sim.session_chunks(spec), sink, fmt, spec.n_trials,
                     spec.config.mode, spec.seed)
    return sink.getvalue()


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
