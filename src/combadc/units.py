"""Small unit-conversion helpers used across the physics modules."""

from __future__ import annotations

__all__ = ["dbm_to_watts", "db_to_amplitude_ratio"]


def dbm_to_watts(p_dbm: float) -> float:
    return 1e-3 * 10.0 ** (p_dbm / 10.0)


def db_to_amplitude_ratio(db: float) -> float:
    return 10.0 ** (db / 20.0)
