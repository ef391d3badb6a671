"""JSON form of the float64 state in checkpoints.

encode turns an array into the record {"f8": base64 of its little-endian
float64 bytes, "shape": [...]}. It is meant as json.dump's default hook,
so the to_dict snapshots hold plain arrays and each record is built only
while json.dump writes it. decode reads such a record back to the same
bits, checked against the shape of the array it restores. decode_int
reads a counter, which must be a JSON integer.

reading() turns the KeyError, TypeError or ValueError that a malformed
blob raises inside a restore into ContractError.
"""

from __future__ import annotations

import base64
import math
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, NcgruError


def encode(obj) -> dict:
    """The f8 record of a numpy array; any other object raises TypeError,
    as json.dump expects of its default hook."""
    if not isinstance(obj, np.ndarray):
        raise TypeError(f"{type(obj).__name__} is not JSON serializable")
    arr = np.asarray(obj, dtype="<f8", order="C")
    return {"f8": base64.b64encode(arr).decode("ascii"), "shape": list(arr.shape)}


def decode(value, what: str, like: np.ndarray | None) -> np.ndarray:
    """A fresh writable float64 array from an f8 record of like's shape,
    like being the array it restores (None: the run has no such array).
    Raises ContractError, naming what, for anything else: an unknown
    array, another shape, a nested list, a malformed record."""
    if like is None:
        raise ContractError(f"checkpoint has an unknown array {what}")
    if not isinstance(value, dict) or set(value) != {"f8", "shape"}:
        got = sorted(value) if isinstance(value, dict) else type(value).__name__
        raise ContractError(f"{what} must be a record with keys f8 and shape, got {got}")
    shape, data = value["shape"], value["f8"]
    if not (isinstance(shape, list) and all(
            isinstance(k, int) and not isinstance(k, bool) and k >= 0 for k in shape)):
        raise ContractError(f"{what} shape must be a list of integers >= 0, got {shape!r}")
    if tuple(shape) != like.shape:
        raise ContractError(f"checkpoint array {what} has shape {tuple(shape)}, "
                            f"the run's is {like.shape}")
    try:
        raw = base64.b64decode(data, validate=True)
    except (TypeError, ValueError) as err:
        raise ContractError(f"{what} f8 is not base64: {err}") from None
    if len(raw) != 8 * math.prod(shape):
        raise ContractError(f"{what} holds {len(raw)} bytes, shape {shape} "
                            f"needs {8 * math.prod(shape)}")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


def decode_int(value, what: str) -> int:
    """value itself when it is a JSON integer; ContractError for anything
    else (a float, a string, true), naming what."""
    if type(value) is not int:
        raise ContractError(f"{what} must be an integer, got {value!r}")
    return value


@contextmanager
def reading(what: str):
    """Raise ContractError for a missing key or a value of the wrong type
    in the blob read inside the block; ncgru's own errors pass through."""
    try:
        yield
    except NcgruError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as err:
        raise ContractError(f"malformed {what}: {type(err).__name__}: {err}") from None
