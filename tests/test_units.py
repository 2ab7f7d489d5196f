import math

from combadc.units import db_to_amplitude_ratio, dbm_to_watts


def test_dbm_anchors():
    assert dbm_to_watts(0.0) == 1e-3
    assert dbm_to_watts(30.0) == 1.0
    assert math.isclose(dbm_to_watts(-13.0), 50.12e-6, rel_tol=1e-3)


def test_db_ratio_anchors():
    assert math.isclose(db_to_amplitude_ratio(6.0206), 2.0, rel_tol=1e-4)
    assert db_to_amplitude_ratio(0.0) == 1.0


def test_dbm_to_watts_values():
    for p_dbm, watts in [(-80.0, 1e-11), (-30.0, 1e-6), (-10.0, 1e-4), (20.0, 0.1), (80.0, 1e5)]:
        assert math.isclose(dbm_to_watts(p_dbm), watts, rel_tol=1e-12)


def test_db_to_amplitude_ratio_values():
    for db, ratio in [(-120.0, 1e-6), (-40.0, 1e-2), (-20.0, 0.1), (60.0, 1e3), (120.0, 1e6)]:
        assert math.isclose(db_to_amplitude_ratio(db), ratio, rel_tol=1e-12)
