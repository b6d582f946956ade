"""RayServeCluster facade tests.

Quota admission of scaling decisions is the simulation's
(``TestApply`` in ``test_sim_backends.py``).
"""

import numpy as np
import pytest

from repro.cluster.job import InferenceJobSpec
from repro.cluster.models import RESNET18, RESNET34
from repro.cluster.rayserve import RayServeCluster


def make_cluster(jobs=None, **kwargs):
    jobs = jobs or [
        InferenceJobSpec.with_default_slo("a", RESNET34),
        InferenceJobSpec.with_default_slo("b", RESNET18),
    ]
    return RayServeCluster(jobs, cold_start_range=(0.0, 0.0), **kwargs)


class TestConstruction:
    def test_duplicate_names_rejected(self):
        jobs = [
            InferenceJobSpec.with_default_slo("a", RESNET34),
            InferenceJobSpec.with_default_slo("a", RESNET18),
        ]
        with pytest.raises(ValueError):
            make_cluster(jobs=jobs)

    def test_initial_replicas_default_to_minimum(self):
        cluster = make_cluster()
        assert cluster.targets == {"a": 1, "b": 1}
        assert [router.replica_count for router in cluster.routers.values()] == [1, 1]

    def test_explicit_initial_replicas(self):
        cluster = make_cluster(initial_replicas={"a": 3})
        assert cluster.routers["a"].replica_count == 3


class TestServing:
    def test_offer_records_metrics(self):
        cluster = make_cluster()
        cluster.offer_chunk("a", np.array([1.0]))
        stats = cluster.metrics["a"].minute_stats(0)
        assert stats.arrivals == 1
        assert stats.latency_p == pytest.approx(RESNET34.proc_time, rel=0.2)

    def test_observations_shape(self):
        cluster = make_cluster()
        cluster.offer_chunk("a", np.linspace(0, 59, 30))
        obs = cluster.observations(60.0)
        assert set(obs) == {"a", "b"}
        assert obs["a"].arrival_rate == pytest.approx(0.5)
        assert obs["a"].current_replicas == 1
        assert len(obs["a"].rate_history) == 15
