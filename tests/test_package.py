"""The package's public surface, ncgru.__all__."""

import ncgru
from ncgru import cells, orthocore


def test_public_names_resolve_once_and_removed_names_stay_gone():
    assert len(ncgru.__all__) == len(set(ncgru.__all__))
    for name in ncgru.__all__:
        assert getattr(ncgru, name, None) is not None, name
    for name in ("LinearReadoutMse", "SoftmaxReadoutXent"):   # both readouts
        assert name in ncgru.__all__
        assert getattr(ncgru, name) is getattr(ncgru.harness, name)
    for name in ("sequence_forward", "skew_from_angles"):
        assert name not in ncgru.__all__
        for module in (ncgru, cells, orthocore):
            assert not hasattr(module, name), (module.__name__, name)
