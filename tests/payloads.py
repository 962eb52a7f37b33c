"""Cell payloads of the shape this version writes, for tests.

A :class:`~repro.experiments.store.DiskStore` reads back only payloads
of the current shape (``store._PAYLOAD_SHAPE``) and counts the rest as
not read, so a test that writes its own cells builds them here and
overrides only the values it is about.
"""

from repro.core.stages import SevenStageProfile


def observatory(final_stage="A", requests=0):
    """An observatory summary with one stage interval, no health episode,
    an empty latency sketch and ``requests`` unattributed requests."""
    return {
        "stages": {
            "transitions": [],
            "intervals": [[final_stage, 0.0, 10.0]],
            "final_stage": final_stage,
        },
        "health": {
            "slo": {
                "throughput_floor": 0.5,
                "availability_floor": 0.9,
                "window": 10.0,
                "calibration": 20.0,
            },
            "episodes": [],
            "violations": 0,
            "time_in_violation": 0.0,
            "min_throughput": None,
            "min_availability": None,
        },
        "latency": {
            "overall": {
                "count": 0, "p50": None, "p95": None, "p99": None,
                "p999": None,
            },
            "by_stage": {},
        },
        "attribution": {
            "requests": requests,
            "total_lost": 0,
            "total_slow": 0,
            "mechanisms": {},
        },
    }


def cell_payload(
    fault=None, version="TCP-PRESS", tn=100.0, availability=1.0,
    subscriber_errors=0, **overrides,
):
    """A current payload of the baseline (``fault=None``) or a fault cell;
    ``overrides`` replace whole top-level sections."""
    payload = {
        "elapsed": 0.1,
        "restore_elapsed": 0.0,
        "warm_start": {"status": "cold"},
        "telemetry": {
            "event_total": 1,
            "events": {"press.cache.hit": 1},
            "metrics": {},
            "subscriber_errors": subscriber_errors,
        },
        "observatory": observatory(),
        "timeline": {
            "series": [[0.0, tn], [5.0, tn]],
            "bucket_width": 5.0,
            "availability": availability,
            "tn": tn,
        },
    }
    if fault is None:
        payload = {"kind": "baseline", "tn": tn, **payload}
    else:
        profile = SevenStageProfile(
            fault=fault, version=version, normal_throughput=tn
        )
        payload = {
            "kind": "profile",
            "profile": profile.to_dict(),
            **payload,
            "divergence": {
                "boundaries": {
                    "injection": {"online": 1.0, "reference": 1.0,
                                  "error": 0.0},
                },
                "max_boundary_error": 0.0,
                "misclassified_s": 0.0,
                "misclassified_frac": 0.0,
                "online_missing": [],
                "online_extra": [],
            },
        }
    payload.update(overrides)
    return payload
