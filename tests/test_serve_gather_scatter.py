"""``NumpyDNCState.stack`` / ``unstack`` and state (de)serialization.

Property-style coverage for the serving layer's packing and checkpoint
primitives: ``NumpyDNCState.stack(states).unstack()`` must reproduce
the inputs *bitwise* (not merely within tolerance) for both dtype
policies and across memory sizes; gathering changing subsets of a
session population must never perturb non-members; and
``NumpyDNCState.from_bytes(state.to_bytes())`` — the cluster's
session-migration wire format — must round-trip bitwise and
dtype-preserving with a validated versioned header, and version 1 of
that format is pinned byte for byte.
"""

import struct

import numpy as np
import pytest

from repro.core.config import HiMAConfig
from repro.core.engine import TiledEngine
from repro.dnc.numpy_ref import NumpyDNC, NumpyDNCConfig
from repro.dnc.state import NumpyDNCState
from repro.errors import ConfigError


def random_state(model: NumpyDNC, rng) -> NumpyDNCState:
    """An unbatched state with every field filled from ``rng``."""
    state = model.initial_state()
    for name in NumpyDNCState.FIELDS:
        array = getattr(state, name)
        array[...] = rng.standard_normal(array.shape).astype(array.dtype)
    return state


def states_equal_bitwise(a: NumpyDNCState, b: NumpyDNCState) -> bool:
    for name in NumpyDNCState.FIELDS:
        fa, fb = getattr(a, name), getattr(b, name)
        if fa.dtype != fb.dtype or fa.shape != fb.shape:
            return False
        if not np.array_equal(fa.view(np.uint8), fb.view(np.uint8)):
            return False
    return True


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("memory_size", [8, 32])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_roundtrip_is_bitwise(dtype, memory_size, k, rng):
    model = NumpyDNC(NumpyDNCConfig(
        input_size=5, output_size=3, memory_size=memory_size, word_size=4,
        num_reads=2, hidden_size=12, dtype=dtype,
    ), rng=0)
    states = [random_state(model, rng) for _ in range(k)]
    originals = [
        NumpyDNCState(**{
            name: getattr(s, name).copy() for name in NumpyDNCState.FIELDS
        })
        for s in states
    ]
    recovered = NumpyDNCState.stack(states).unstack()
    assert len(recovered) == k
    for orig, out in zip(originals, recovered):
        assert states_equal_bitwise(orig, out)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_gather_is_copy_not_view(dtype, rng):
    model = NumpyDNC(NumpyDNCConfig(
        input_size=5, output_size=3, memory_size=8, word_size=4,
        num_reads=2, hidden_size=12, dtype=dtype,
    ), rng=0)
    states = [random_state(model, rng) for _ in range(3)]
    batched = NumpyDNCState.stack(states)
    before = states[1].memory.copy()
    batched.memory[1] += 1.0
    assert np.array_equal(states[1].memory, before)
    recovered = batched.unstack()
    batched_before = batched.usage[0].copy()
    recovered[0].usage[...] = -7.0
    assert np.array_equal(batched.usage[0], batched_before)
    assert not np.shares_memory(recovered[0].usage, batched.usage)


def test_ragged_membership_leaves_nonmembers_untouched(rng):
    """Stepping shifting subsets through the engine must never perturb the
    sessions that sat out, and members advance exactly as solo steps."""
    config = HiMAConfig(
        memory_size=32, word_size=16, num_reads=2, num_tiles=4,
        hidden_size=32, two_stage_sort=False,
    )
    engine = TiledEngine(config, rng=0)
    states = [engine.initial_state() for _ in range(4)]
    memberships = [(0, 1, 2), (1, 3), (0, 2, 3), (2,)]
    for step, members in enumerate(memberships):
        xs = rng.standard_normal((len(members), 16))
        snapshot = {
            i: NumpyDNCState(**{
                name: getattr(states[i], name).copy()
                for name in NumpyDNCState.FIELDS
            })
            for i in range(4)
        }
        batched = NumpyDNCState.stack([states[i] for i in members])
        _, new_batched = engine.step(xs, batched)
        for slot, i in enumerate(members):
            states[i] = new_batched.unstack()[slot]
        for i in range(4):
            if i not in members:
                assert states_equal_bitwise(states[i], snapshot[i]), (step, i)
        # Members match a solo unbatched step from the same snapshot.
        for slot, i in enumerate(members):
            y_solo, solo_state = engine.step(xs[slot], snapshot[i])
            for name in NumpyDNCState.FIELDS:
                diff = np.max(np.abs(
                    getattr(states[i], name) - getattr(solo_state, name)
                ))
                assert diff <= 1e-10, (step, i, name)


class TestStateBytesRoundTrip:
    """to_bytes/from_bytes: the checkpoint/migration primitive."""

    def make_model(self, dtype, memory_size=8):
        return NumpyDNC(NumpyDNCConfig(
            input_size=5, output_size=3, memory_size=memory_size,
            word_size=4, num_reads=2, hidden_size=12, dtype=dtype,
        ), rng=0)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("memory_size", [8, 32])
    def test_roundtrip_is_bitwise_and_dtype_preserving(
        self, dtype, memory_size, rng
    ):
        for _ in range(5):  # property-style: many random states
            state = random_state(self.make_model(dtype, memory_size), rng)
            recovered = NumpyDNCState.from_bytes(state.to_bytes())
            assert states_equal_bitwise(state, recovered)
            # The recovered arrays own their data (the payload may die).
            assert recovered.memory.base is None

    def test_batched_state_roundtrips(self, rng):
        model = self.make_model("float64")
        state = NumpyDNCState.stack(
            [random_state(model, rng) for _ in range(3)]
        )
        recovered = NumpyDNCState.from_bytes(state.to_bytes())
        assert recovered.batch_size == 3
        assert states_equal_bitwise(state, recovered)

    def test_header_is_versioned(self):
        payload = self.make_model("float64").initial_state().to_bytes()
        assert payload.startswith(NumpyDNCState.BYTES_MAGIC)

    #: ``make_model``'s field layout (N=8, W=4, R=2, H=12), written out
    #: rather than read from ``FIELDS`` so a layout change fails here.
    V1_LAYOUT = (
        ("memory", [8, 4]), ("usage", [8]), ("precedence", [8]),
        ("linkage", [8, 8]), ("write_w", [8]), ("read_w", [2, 8]),
        ("read_vecs", [2, 4]), ("lstm_h", [12]), ("lstm_c", [12]),
    )

    @pytest.mark.parametrize("dtype,dtype_str,batch", [
        ("float64", "<f8", None), ("float32", "<f4", 3),
    ], ids=["unbatched-float64", "batched-float32"])
    def test_version_1_payload_is_pinned_byte_for_byte(
        self, dtype, dtype_str, batch, rng
    ):
        model = self.make_model(dtype)
        if batch is None:
            state = random_state(model, rng)
        else:
            state = NumpyDNCState.stack(
                [random_state(model, rng) for _ in range(batch)]
            )
        lead = [] if batch is None else [batch]
        header = ('{"fields": {' + ", ".join(
            f'"{name}": ["{dtype_str}", {lead + shape}]'
            for name, shape in self.V1_LAYOUT
        ) + "}}").encode("utf-8")
        expected = b"".join(
            [b"HIMASTATE", struct.pack("<HI", 1, len(header)), header]
            + [
                np.ascontiguousarray(getattr(state, name)).tobytes(order="C")
                for name, _ in self.V1_LAYOUT
            ]
        )
        assert NumpyDNCState.BYTES_MAGIC == b"HIMASTATE"
        assert NumpyDNCState.BYTES_VERSION == 1
        assert state.to_bytes() == expected
        assert states_equal_bitwise(NumpyDNCState.from_bytes(expected), state)

    def test_malformed_payloads_rejected(self, rng):
        state = random_state(self.make_model("float64"), rng)
        payload = state.to_bytes()
        with pytest.raises(ConfigError):
            NumpyDNCState.from_bytes(b"not a checkpoint")
        with pytest.raises(ConfigError):  # wrong version
            bad = bytearray(payload)
            bad[len(NumpyDNCState.BYTES_MAGIC)] = 99
            NumpyDNCState.from_bytes(bytes(bad))
        with pytest.raises(ConfigError):  # truncated body
            NumpyDNCState.from_bytes(payload[:-10])
        with pytest.raises(ConfigError):  # trailing garbage
            NumpyDNCState.from_bytes(payload + b"x")


class TestValidation:
    def setup_method(self):
        self.model = NumpyDNC(NumpyDNCConfig(
            input_size=5, output_size=3, memory_size=8, word_size=4,
            num_reads=2, hidden_size=12,
        ), rng=0)

    def test_empty_gather_rejected(self):
        with pytest.raises(ConfigError):
            NumpyDNCState.stack([])

    def test_batched_input_rejected(self):
        with pytest.raises(ConfigError):
            NumpyDNCState.stack([self.model.initial_state(batch_size=2)])

    def test_mismatched_shapes_rejected(self):
        other = NumpyDNC(NumpyDNCConfig(
            input_size=5, output_size=3, memory_size=16, word_size=4,
            num_reads=2, hidden_size=12,
        ), rng=0)
        with pytest.raises(ConfigError):
            NumpyDNCState.stack(
                [self.model.initial_state(), other.initial_state()]
            )

    def test_mismatched_dtypes_rejected(self):
        f32 = NumpyDNC(NumpyDNCConfig(
            input_size=5, output_size=3, memory_size=8, word_size=4,
            num_reads=2, hidden_size=12, dtype="float32",
        ), rng=0)
        with pytest.raises(ConfigError):
            NumpyDNCState.stack(
                [self.model.initial_state(), f32.initial_state()]
            )

    def test_scatter_of_unbatched_rejected(self):
        with pytest.raises(ConfigError):
            self.model.initial_state().unstack()
