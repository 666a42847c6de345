"""Fused erase/write/linkage kernel: bitwise contract, mask, both forms.

The fused kernel's whole value proposition rests on being *bitwise*
identical to the three-pass reference sequence — not merely within
tolerance — so every comparison here uses exact equality.
"""

import numpy as np
import pytest

from repro.core import backend as backend_module
from repro.core import kernels as SK
from repro.core.backend import ReferenceBackend, TunedBackend
from repro.core.config import HiMAConfig
from repro.core.engine import TiledEngine
from repro.core.kernels import (
    fused_erase_write_linkage,
    fused_erase_write_linkage_inplace,
)
from repro.dnc import numpy_ref as K


def random_write_inputs(rng, lead, n=24, w=8, dtype="float64"):
    """Previous state + write operands with the given leading shape."""
    def draw(*shape):
        return rng.standard_normal(lead + shape).astype(dtype)

    memory = draw(n, w)
    linkage = draw(n, n)
    precedence = rng.random(lead + (n,)).astype(dtype)
    write_w = rng.random(lead + (n,)).astype(dtype)
    write_w /= write_w.sum(axis=-1, keepdims=True)
    erase = rng.random(lead + (w,)).astype(dtype)
    value = draw(w)
    return memory, linkage, precedence, write_w, erase, value


def three_pass(memory, linkage, precedence, write_w, erase, value):
    new_memory = K.erase_write(memory, write_w, erase, value)
    new_linkage = K.linkage_update(linkage, write_w, precedence)
    new_precedence = K.precedence_update(precedence, write_w)
    return new_memory, new_linkage, new_precedence


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("lead", [(), (3,), (2, 4)], ids=["unbatched", "B3", "B2xNt4"])
def test_fused_bitwise_equals_three_pass(dtype, lead, rng):
    inputs = random_write_inputs(rng, lead, dtype=dtype)
    expected = three_pass(*inputs)
    fused = fused_erase_write_linkage(*inputs)
    for got, want in zip(fused, expected):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_fused_does_not_mutate_inputs(rng):
    inputs = random_write_inputs(rng, (2,))
    copies = [a.copy() for a in inputs]
    fused_erase_write_linkage(*inputs)
    for a, c in zip(inputs, copies):
        assert np.array_equal(a, c)


class TestMaskedVariant:
    """``active=`` lives on the in-place kernel only (the out-of-place
    form copied all three arrays before gathering and had no caller)."""

    def test_active_subset_matches_subset_compute(self, rng):
        inputs = random_write_inputs(rng, (5,))
        idx = np.array([3, 0])
        resident = [a.copy() for a in inputs[:3]]
        fused_erase_write_linkage_inplace(*resident, *inputs[3:], active=idx)
        sub = fused_erase_write_linkage(*(a[idx] for a in inputs))
        for out, full_in, sub_out in zip(resident, inputs[:3], sub):
            assert np.array_equal(out[idx], sub_out)
            # Inactive slots stay bitwise untouched.
            inactive = [i for i in range(5) if i not in idx]
            assert np.array_equal(out[inactive], full_in[inactive])

    def test_boolean_mask_accepted(self, rng):
        inputs = random_write_inputs(rng, (4,))
        mask = np.array([True, False, True, False])
        via_mask = [a.copy() for a in inputs[:3]]
        via_idx = [a.copy() for a in inputs[:3]]
        fused_erase_write_linkage_inplace(*via_mask, *inputs[3:], active=mask)
        fused_erase_write_linkage_inplace(
            *via_idx, *inputs[3:], active=np.flatnonzero(mask)
        )
        for a, b in zip(via_mask, via_idx):
            assert np.array_equal(a, b)

    def test_empty_active_passes_everything_through(self, rng):
        inputs = random_write_inputs(rng, (3,))
        resident = [a.copy() for a in inputs[:3]]
        fused_erase_write_linkage_inplace(
            *resident, *inputs[3:], active=np.array([], dtype=int)
        )
        for out, full_in in zip(resident, inputs[:3]):
            assert np.array_equal(out, full_in)

    def test_unbatched_active_rejected(self, rng):
        inputs = random_write_inputs(rng, ())
        with pytest.raises(ValueError):
            fused_erase_write_linkage_inplace(*inputs, active=np.array([0]))
        with pytest.raises(TypeError):  # the out-of-place form has no mask
            fused_erase_write_linkage(*inputs, active=np.array([0]))


# ---------------------------------------------------------------------------
# The shared sweep, every walk x every calling form, against the oracle
# ---------------------------------------------------------------------------


def _panels(rng, dtype, monkeypatch):
    """N=200 streamed as several row panels per slot, the last one ragged."""
    monkeypatch.setattr(SK, "PANEL_BYTES", 64 * 200 * 8)  # 64 / 128 rows
    return random_write_inputs(rng, (3,), n=200, w=8, dtype=dtype)


def _slab(rng, dtype, monkeypatch):
    """Every slot in one cross-lead slab: whole-array ufuncs."""
    return random_write_inputs(rng, (5,), dtype=dtype)


def _slabs(rng, dtype, monkeypatch):
    """Two slots per slab, so the last slab is ragged (2 + 2 + 1)."""
    monkeypatch.setattr(SK, "PANEL_BYTES", 2 * 24 * 24 * 8)
    return random_write_inputs(rng, (5,), dtype=dtype)


def _dncd(rng, dtype, monkeypatch):
    """DNC-D's stacked operands, lead ``(B, Nt)``: the linkage is the
    non-contiguous ``block_diagonal`` view, erase/value broadcast over
    the tile axis."""
    b, nt, n, w = 3, 4, 8, 6
    memory, linkage, precedence, write_w, erase, value = random_write_inputs(
        rng, (b,), n=nt * n, w=w, dtype=dtype
    )
    blocks = SK.block_diagonal(linkage, nt)
    assert not blocks.flags.c_contiguous
    return (
        SK.shard_matrix(memory, nt), blocks, SK.shard_vector(precedence, nt),
        SK.shard_vector(write_w, nt), erase[:, None, :], value[:, None, :],
    )


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("layout", [_panels, _slab, _slabs, _dncd])
@pytest.mark.parametrize(
    "form", ["fresh", "ordered_full", "partial", "permuted_full", "empty"]
)
def test_shared_sweep_bitwise_equals_three_pass(
    dtype, layout, form, rng, monkeypatch
):
    inputs = layout(rng, dtype, monkeypatch)
    expected = three_pass(*inputs)
    before = [a.copy() for a in inputs[:3]]
    batch = inputs[0].shape[0]
    if form == "fresh":
        got = fused_erase_write_linkage(*inputs)
        for a, b in zip(inputs[:3], before):
            assert np.array_equal(a, b)  # inputs never mutated
        active = np.arange(batch)
    else:
        active = {
            "ordered_full": np.arange(batch),  # the form run_batch runs
            "partial": np.array([2, 0]),
            "permuted_full": np.arange(batch)[::-1],
            "empty": np.array([], dtype=int),
        }[form]
        fused_erase_write_linkage_inplace(
            *inputs, active=active, scratch={}
        )
        got = inputs[:3]
    inactive = np.setdiff1d(np.arange(batch), active)
    for out, want, old in zip(got, expected, before):
        assert out.dtype == want.dtype
        assert np.array_equal(out[active], want[active])
        assert np.array_equal(out[inactive], old[inactive])


def test_tuned_without_ger_is_the_reference_write_phase(rng, monkeypatch):
    """No scipy (``_GER`` empty) leaves the tuned write phase with
    nothing of its own: both forms are the reference kernel's output."""
    monkeypatch.setattr(backend_module, "_GER", {})
    inputs = random_write_inputs(rng, (3,), n=2 * SK.MIN_BLOCKED_N, w=8)
    ref = ReferenceBackend().fused_erase_write_linkage(*inputs)
    tuned = TunedBackend().fused_erase_write_linkage(*inputs)
    resident = [a.copy() for a in inputs[:3]]
    TunedBackend().fused_erase_write_linkage_inplace(
        *resident, *inputs[3:], active=np.arange(3)
    )
    for want, got, inplace in zip(ref, tuned, resident):
        assert np.array_equal(got, want)
        assert np.array_equal(inplace, want)


@pytest.mark.skipif(
    "<f8" not in backend_module._GER, reason="the tuned ?ger needs scipy"
)
@pytest.mark.parametrize("form", ["out_of_place", "masked_in_place"])
@pytest.mark.parametrize("n", [SK.MIN_BLOCKED_N, 2 * SK.MIN_BLOCKED_N])
def test_tuned_dnc_step_writes_through_ger(n, form, monkeypatch):
    """A tuned DNC step from ``MIN_BLOCKED_N`` rows accumulates its
    linkage panels with BLAS ``?ger``: an operand shape that turns the
    rank-1 path off (an inner lead axis, a non-contiguous panel) shows
    nowhere but in speed, so the calls are counted here."""
    calls = []
    dger = backend_module._GER["<f8"]

    def counting(*args, **kwargs):
        calls.append(1)
        return dger(*args, **kwargs)

    monkeypatch.setitem(backend_module._GER, "<f8", counting)
    engine = TiledEngine(HiMAConfig(
        memory_size=n, word_size=16, num_reads=2, num_tiles=4,
        hidden_size=32, backend="tuned", dtype="float64",
    ), rng=0)
    state = engine.initial_state(batch_size=4)
    x = np.random.default_rng(0).standard_normal((4, 16))
    if form == "out_of_place":
        engine.step(x, state)
    else:
        engine.step(x, state, active=np.array([0, 2]))
    assert calls


class TestEngineIntegration:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("distributed", [False, True], ids=["dnc", "dncd"])
    def test_engine_fused_vs_three_pass_bitwise(self, dtype, distributed, rng):
        base = dict(
            memory_size=32, word_size=16, num_reads=2, num_tiles=4,
            hidden_size=32, two_stage_sort=False,
            distributed=distributed, dtype=dtype,
        )
        fused_engine = TiledEngine(HiMAConfig(**base), rng=0)
        # The oracle: the same engine with both forms of its write
        # kernel swapped for the three-pass numpy_ref sequence — fresh
        # outputs for ``run``, the active rows copied back for the
        # resident state ``run_batch`` steps in place.
        legacy_engine = TiledEngine(HiMAConfig(**base), rng=0)
        legacy_engine.backend.fused_erase_write_linkage = three_pass

        def three_pass_inplace(m, l, p, w, e, v, active, scratch=None):
            lead = w.shape[:-1]
            e, v = (np.broadcast_to(a, lead + a.shape[-1:]) for a in (e, v))
            new = three_pass(*(a[active] for a in (m, l, p, w, e, v)))
            for resident, rows in zip((m, l, p), new):
                resident[active] = rows

        legacy_engine.backend.fused_erase_write_linkage_inplace = (
            three_pass_inplace
        )
        xs = rng.standard_normal((5, 16)).astype(dtype)
        assert np.array_equal(fused_engine.run(xs), legacy_engine.run(xs))
        xb = rng.standard_normal((3, 4, 16)).astype(dtype)
        assert np.array_equal(
            fused_engine.run_batch(xb), legacy_engine.run_batch(xb)
        )

    def test_engine_fused_passes_reference_verification(self):
        engine = TiledEngine(HiMAConfig(
            memory_size=32, word_size=16, num_reads=2, num_tiles=4,
            hidden_size=32, two_stage_sort=False,
        ), rng=0)
        assert engine.verify_against_reference(steps=3) <= 1e-9
        assert engine.verify_against_reference(steps=3, batch_size=3) <= 1e-10
