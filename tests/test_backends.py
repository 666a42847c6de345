"""Kernel-backend seam: registry, per-backend numerics, serving churn.

The acceptance bars for the pluggable backend layer:

* the ``reference`` backend is bitwise the ``numpy_ref`` oracle — its
  methods must be bitwise-identical to the oracle expressions, on both
  the dense and sparse write phases;
* the ``tuned`` backend must stay within the engine's per-dtype
  ``VERIFY_TOLERANCES`` of the reference on randomized trajectories
  across every engine mode (dense, distributed, sparse, masked), and
  its fused kernels keep the memory/precedence fields bitwise on
  identical inputs (only the linkage's single-rounding BLAS rank-1
  accumulation may differ, at ulp scale);
* the full serving stack — arena micro-batching, sharded migration,
  process-worker crash recovery — must hold its <= 1e-10
  served-vs-solo bar under a non-default backend;
* the registry stays open to an out-of-tree backend: one registered
  here by name receives the kernel calls of the dense, DNC-D and sparse
  paths, and unregistered names are rejected.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core import kernels as SK
from repro.core.access import _topk_largest
from repro.core.backend import (
    _REGISTRY,
    KernelBackend,
    ReferenceBackend,
    TunedBackend,
    available_backends,
    make_backend,
    register_backend,
)
from repro.core.config import HiMAConfig
from repro.core.engine import TiledEngine
from repro.dnc import numpy_ref as K
from repro.errors import ConfigError
from repro.obs import PhaseTimer

TOLERANCES = TiledEngine.VERIFY_TOLERANCES

#: Large enough that the tuned backend's blocked write phase actually
#: engages (``memory_size >= SK.MIN_BLOCKED_N``) while staying
#: fast as a unit test.
BLOCKED_CONFIG = dict(
    memory_size=128, word_size=16, num_reads=2, num_tiles=4,
    hidden_size=32, two_stage_sort=False,
)

#: Below the blocking threshold: the tuned write phase delegates to the
#: reference kernels here.
SMALL_CONFIG = dict(
    memory_size=32, word_size=16, num_reads=2, num_tiles=4,
    hidden_size=32, two_stage_sort=False,
)


def make_engine(backend, **features):
    base = dict(BLOCKED_CONFIG)
    base.update(features)
    return TiledEngine(HiMAConfig(**base, backend=backend), rng=0)


def trajectory_inputs(engine, steps=6, batch=4, seed=1):
    gen = np.random.default_rng(seed)
    return gen.standard_normal(
        (steps, batch, engine.reference.config.input_size)
    ).astype(engine.config.np_dtype)


def _counted(method):
    def call(self, *args, **kwargs):
        self.calls[method] += 1
        return getattr(self.inner, method)(*args, **kwargs)

    return call


class CountingBackend(KernelBackend):
    """An out-of-tree backend: counts every kernel call and delegates it
    to a :class:`ReferenceBackend`."""

    name = "counting"

    def __init__(self):
        super().__init__()
        self.inner = ReferenceBackend()
        self.calls = Counter()

    write_scores = _counted("write_scores")
    read_scores = _counted("read_scores")
    stacked_write_scores = _counted("stacked_write_scores")
    stacked_read_scores = _counted("stacked_read_scores")
    argsort = _counted("argsort")
    fused_erase_write_linkage = _counted("fused_erase_write_linkage")
    fused_erase_write_linkage_inplace = _counted(
        "fused_erase_write_linkage_inplace"
    )
    sparse_erase_write_linkage = _counted("sparse_erase_write_linkage")
    sparse_erase_write_linkage_inplace = _counted(
        "sparse_erase_write_linkage_inplace"
    )
    forward_backward = _counted("forward_backward")
    read_weight_mix = _counted("read_weight_mix")
    read_vectors = _counted("read_vectors")
    sparse_forward_backward = _counted("sparse_forward_backward")
    sparse_read_vectors = _counted("sparse_read_vectors")


# ---------------------------------------------------------------------------
# Registry and config validation
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_cpu_backends_always_available(self):
        names = available_backends()
        assert "reference" in names
        assert "tuned" in names
        assert names == tuple(sorted(names))

    def test_make_backend_returns_fresh_instances(self):
        """Backends hold scratch; engines must never share one."""
        config = HiMAConfig(**SMALL_CONFIG, backend="tuned")
        assert make_backend(config) is not make_backend(config)
        assert (
            TiledEngine(config, rng=0).backend
            is not TiledEngine(config, rng=0).backend
        )

    def test_engine_backend_matches_config(self):
        assert isinstance(make_engine("reference").backend, ReferenceBackend)
        assert isinstance(make_engine("tuned").backend, TunedBackend)

    @pytest.mark.parametrize("name", ["cuda9000", "torch"])
    def test_unknown_backend_name_rejected(self, name):
        with pytest.raises(ConfigError, match="backend") as err:
            HiMAConfig(**SMALL_CONFIG, backend=name)
        assert "'reference'" in str(err.value)
        assert "'tuned'" in str(err.value)

    @pytest.mark.parametrize("dtype", ["float8", "float16", "bfloat16"])
    def test_unknown_dtype_rejected(self, dtype):
        with pytest.raises(ConfigError, match="dtype"):
            HiMAConfig(**SMALL_CONFIG, dtype=dtype)
        with pytest.raises(ConfigError, match="dtype"):
            K.NumpyDNCConfig(dtype=dtype)

    def test_third_party_registration(self):
        """A registered backend serves every path by name, bitwise the
        reference it delegates to, and leaves with its registry entry."""
        modes = {
            "dense": ({}, (
                "write_scores", "read_scores",
                "fused_erase_write_linkage_inplace", "forward_backward",
                "read_weight_mix", "read_vectors", "argsort",
            )),
            "dncd": ({"distributed": True}, (
                "stacked_write_scores", "stacked_read_scores",
            )),
            "sparse": ({"access_policy": "sparse", "access_top_k": 8}, (
                "sparse_erase_write_linkage_inplace",
                "sparse_forward_backward", "sparse_read_vectors",
            )),
        }
        register_backend("counting", lambda config: CountingBackend())
        try:
            assert "counting" in available_backends()
            for mode, (features, expected) in modes.items():
                config = HiMAConfig(
                    **SMALL_CONFIG, **features, backend="counting"
                )
                engine = TiledEngine(config, rng=0)
                reference = TiledEngine(
                    config.with_features(backend="reference"), rng=0
                )
                inputs = trajectory_inputs(engine, steps=3)
                out = engine.run_batch(inputs)
                assert np.array_equal(out, reference.run_batch(inputs)), mode
                calls = engine.backend.calls
                assert [m for m in expected if not calls[m]] == [], mode
        finally:
            _REGISTRY.pop("counting", None)
        assert "counting" not in available_backends()


# ---------------------------------------------------------------------------
# Reference backend == pre-seam arithmetic, bitwise
# ---------------------------------------------------------------------------


class TestReferenceBitwise:
    """Each method must reproduce the inline pre-seam expression exactly."""

    def setup_method(self):
        gen = np.random.default_rng(3)
        self.backend = ReferenceBackend()
        self.memory = gen.standard_normal((4, 64, 16))
        self.write_key = gen.standard_normal((4, 16))
        self.read_keys = gen.standard_normal((4, 2, 16))
        self.linkage = gen.standard_normal((4, 64, 64)) * 0.01
        self.precedence = gen.random((4, 64))
        self.write_w = gen.random((4, 64)) * 0.05
        self.erase = gen.random((4, 16))
        self.value = gen.standard_normal((4, 16))
        self.read_w = gen.random((4, 2, 64)) * 0.05
        self.content_r = gen.random((4, 2, 64)) * 0.05
        self.read_modes = gen.random((4, 2, 3))

    def test_write_scores_bitwise(self):
        key_unit = K.l2_normalize(self.write_key)
        expected = (K.l2_normalize(self.memory) @ key_unit[..., :, None])[..., 0]
        got = self.backend.write_scores(self.memory, self.write_key)
        assert np.array_equal(got, expected)

    def test_read_scores_bitwise(self):
        expected = K.l2_normalize(self.read_keys) @ np.swapaxes(
            K.l2_normalize(self.memory), -1, -2
        )
        got = self.backend.read_scores(self.memory, self.read_keys)
        assert np.array_equal(got, expected)

    def test_fused_dense_write_bitwise(self):
        expected = SK.fused_erase_write_linkage(
            self.memory, self.linkage, self.precedence,
            self.write_w, self.erase, self.value,
        )
        got = self.backend.fused_erase_write_linkage(
            self.memory, self.linkage, self.precedence,
            self.write_w, self.erase, self.value,
        )
        for e, g in zip(expected, got):
            assert np.array_equal(e, g)

    def test_sparse_write_bitwise(self):
        args = (
            self.memory.copy(), self.linkage.copy(), self.precedence.copy(),
            self.write_w, self.erase, self.value,
        )
        expected = SK.sparse_erase_write_linkage(
            self.memory, self.linkage, self.precedence,
            self.write_w, self.erase, self.value,
        )
        got = self.backend.sparse_erase_write_linkage(*args)
        for e, g in zip(expected, got):
            assert np.array_equal(e, g)

    def test_argsort_stable(self):
        values = np.array([[0.5, 0.5, 0.1], [0.2, 0.2, 0.9]])
        expected = np.argsort(values, axis=-1, kind="stable")
        assert np.array_equal(self.backend.argsort(values), expected)

    # -- read-phase kernels (the PR 10 seam extension) -----------------

    def test_forward_backward_bitwise(self):
        expected_f = self.read_w @ np.swapaxes(self.linkage, -1, -2)
        expected_b = self.read_w @ self.linkage
        fwd, bwd = self.backend.forward_backward(self.linkage, self.read_w)
        assert np.array_equal(fwd, expected_f)
        assert np.array_equal(bwd, expected_b)

    def test_read_weight_mix_bitwise(self):
        fwd, bwd = self.backend.forward_backward(self.linkage, self.read_w)
        expected = (
            self.read_modes[..., 0:1] * bwd
            + self.read_modes[..., 1:2] * self.content_r
            + self.read_modes[..., 2:3] * fwd
        )
        got = self.backend.read_weight_mix(
            self.content_r, fwd, bwd, self.read_modes
        )
        assert np.array_equal(got, expected)

    def test_read_vectors_bitwise(self):
        expected = self.read_w @ self.memory
        got = self.backend.read_vectors(self.memory, self.read_w)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("as_bool", [False, True])
    def test_masked_read_kernels_scatter_semantics(self, as_bool):
        """``active=`` computes the active slots bitwise and zeros the rest."""
        idx = np.array([0, 2])
        active = idx
        if as_bool:
            active = np.zeros(4, dtype=bool)
            active[idx] = True
        fwd, bwd = self.backend.forward_backward(
            self.linkage, self.read_w, active=active
        )
        full_f, full_b = self.backend.forward_backward(
            self.linkage, self.read_w
        )
        mixed = self.backend.read_weight_mix(
            self.content_r, full_f, full_b, self.read_modes, active=active
        )
        full_mix = self.backend.read_weight_mix(
            self.content_r, full_f, full_b, self.read_modes
        )
        reads = self.backend.read_vectors(
            self.memory, self.read_w, active=active
        )
        full_reads = self.backend.read_vectors(self.memory, self.read_w)
        inactive = np.array([1, 3])
        for masked, full in ((fwd, full_f), (bwd, full_b),
                             (mixed, full_mix), (reads, full_reads)):
            assert np.array_equal(masked[idx], full[idx])
            assert not masked[inactive].any()

    def test_masked_read_kernels_require_batch_axis(self):
        with pytest.raises(ValueError, match="batch axis"):
            self.backend.forward_backward(
                self.linkage[0], self.read_w[0], active=np.array([0])
            )

    def test_sparse_read_vectors_bitwise(self):
        """The K-support read gather reproduces the pre-seam inline einsum."""
        idx = _topk_largest(self.read_w, 8)
        vals = np.take_along_axis(self.read_w, idx, axis=-1)
        fidx = np.arange(4)[:, None, None]
        expected = np.einsum(
            "frk,frkw->frw", vals, self.memory[fidx, idx, :]
        )
        got = self.backend.sparse_read_vectors(self.memory, vals, idx)
        assert np.array_equal(got, expected)


# ---------------------------------------------------------------------------
# Row-major sparse kernels on backend-owned scratch
# ---------------------------------------------------------------------------


class TestSparseKernels:
    """The two hot sparse kernels against their oracles.

    Every call goes through one backend instance, so the scratch buffers
    are reused across calls with different supports, dtypes and batch
    shapes — buffer history must never reach a result.
    """

    N, R = 64, 3

    def setup_method(self):
        self.backend = ReferenceBackend()

    def support(self, dtype, top_k, batch=4, seed=5):
        gen = np.random.default_rng(seed)
        linkage = (gen.random((batch, self.N, self.N)) * 0.01).astype(dtype)
        read_w = (gen.random((batch, self.R, self.N)) * 0.05).astype(dtype)
        idx = _topk_largest(read_w, top_k)
        vals = np.take_along_axis(read_w, idx, axis=-1)
        return linkage, vals, idx

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("top_k", [8, 64], ids=["k_lt_n", "k_eq_n"])
    def test_forward_backward_matches_dense_oracle(self, dtype, top_k):
        linkage, vals, idx = self.support(dtype, top_k)
        dense_w = np.zeros((4, self.R, self.N), dtype=dtype)
        np.put_along_axis(dense_w, idx, vals, axis=-1)
        want_f, want_b = K.forward_backward(linkage, dense_w)
        fwd, bwd = self.backend.sparse_forward_backward(linkage, vals, idx)
        assert fwd.dtype == bwd.dtype == np.dtype(dtype)
        tol = 1e-12 if dtype == "float64" else TOLERANCES[dtype]
        assert np.abs(fwd - want_f).max() <= tol
        assert np.abs(bwd - want_b).max() <= tol

    @pytest.mark.parametrize("top_k", [8, 64], ids=["k_lt_n", "k_eq_n"])
    def test_batched_slot_bitwise_equals_unbatched(self, top_k):
        linkage, vals, idx = self.support("float64", top_k)
        fwd, bwd = self.backend.sparse_forward_backward(linkage, vals, idx)
        for f in range(4):
            solo_f, solo_b = self.backend.sparse_forward_backward(
                linkage[f], vals[f], idx[f]
            )
            assert np.array_equal(fwd[f], solo_f)
            assert np.array_equal(bwd[f], solo_b)

    @pytest.mark.parametrize("bad", [-1, 64])
    @pytest.mark.parametrize("batched", [True, False])
    def test_out_of_range_support_index_raises(self, batched, bad):
        """The gathers run unchecked (mode="clip"); the kernel must not."""
        linkage, vals, idx = self.support("float64", 8)
        idx = idx.copy()
        idx[1, 2, 3] = bad
        if not batched:
            linkage, vals, idx = linkage[1], vals[1], idx[1]
        with pytest.raises(IndexError):
            self.backend.sparse_forward_backward(linkage, vals, idx)

    def write_operands(self, support, seed=9, batch=4, w=16):
        gen = np.random.default_rng(seed)
        memory = gen.standard_normal((batch, self.N, w))
        linkage = gen.random((batch, self.N, self.N)) * 0.01
        precedence = gen.random((batch, self.N)) * 0.01
        write_w = gen.random((batch, self.N)) * 0.01
        for b in range(batch):
            write_w[b, gen.choice(self.N, self.N - support, replace=False)] = 0.0
        erase = gen.random((batch, w))
        value = gen.standard_normal((batch, w))
        return memory, linkage, precedence, write_w, erase, value

    def test_masked_inplace_write_bitwise_on_reused_scratch(self):
        active = np.array([0, 2])
        # Shrinking then growing supports reuse one pair of buffers.
        for support in (20, 5, 64):
            ops = self.write_operands(support, seed=support)
            want = self.backend.sparse_erase_write_linkage(*ops)
            resident = [a.copy() for a in ops[:3]]
            self.backend.sparse_erase_write_linkage_inplace(
                *resident, *ops[3:], active=active
            )
            for got, new, old in zip(resident, want, ops[:3]):
                assert np.array_equal(got[active], new[active])
                assert np.array_equal(got[[1, 3]], old[[1, 3]])
        # The last round had full support: bitwise the fused dense kernel.
        for got, fused in zip(want, SK.fused_erase_write_linkage(*ops)):
            assert np.array_equal(got, fused)

    def test_scratch_bounded_by_two_support_row_buffers(self):
        linkage, vals, idx = self.support("float64", 8)
        self.backend.sparse_forward_backward(linkage, vals, idx)
        ops = self.write_operands(16)
        self.backend.sparse_erase_write_linkage_inplace(*ops)
        held = sum(a.size for a in self.backend._scratch.values())
        assert held <= 2 * 16 * self.N


# ---------------------------------------------------------------------------
# Tuned backend numerics
# ---------------------------------------------------------------------------


class TestTunedNumerics:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize(
        "features",
        [
            {},
            {"distributed": True},
            {"access_policy": "sparse", "access_top_k": 12},
            {"two_stage_sort": True},
        ],
        ids=["dense", "distributed", "sparse", "two_stage"],
    )
    def test_trajectory_within_tolerance(self, dtype, features):
        """Randomized trajectories across engine modes, both CPU dtypes."""
        tol = TOLERANCES[dtype]
        for seed in (1, 2):
            engines = {
                name: make_engine(name, dtype=dtype, **features)
                for name in ("reference", "tuned")
            }
            inputs = trajectory_inputs(engines["reference"], seed=seed)
            outs = {n: e.run_batch(inputs) for n, e in engines.items()}
            diff = float(np.max(np.abs(outs["reference"] - outs["tuned"])))
            assert diff <= tol, (features, seed, diff)

    def test_masked_stepping_within_tolerance(self):
        """Partial-occupancy masked steps (the serving arena's shape)."""
        outs = {}
        active = np.array([True, True, False, True, False, True])
        for name in ("reference", "tuned"):
            engine = make_engine(name)
            inputs = trajectory_inputs(engine, steps=5, batch=6)
            state = engine.initial_state(6)
            for t in range(5):
                out, state = engine.step(inputs[t], state, active=active)
            outs[name] = out[active]
        diff = float(np.max(np.abs(outs["reference"] - outs["tuned"])))
        assert diff <= TOLERANCES["float64"]

    def test_fused_kernel_memory_precedence_bitwise(self):
        """On identical inputs only the linkage may differ (ulp-scale
        single-rounding BLAS accumulation); memory and precedence see
        the reference ufunc sequence exactly."""
        gen = np.random.default_rng(5)
        n = SK.MIN_BLOCKED_N * 2
        memory = gen.standard_normal((2, n, 16))
        linkage = gen.standard_normal((2, n, n)) * 0.01
        precedence = gen.random((2, n))
        write_w = gen.random((2, n)) * 0.02
        erase, value = gen.random((2, 16)), gen.standard_normal((2, 16))
        args = (memory, linkage, precedence, write_w, erase, value)
        ref = ReferenceBackend().fused_erase_write_linkage(*args)
        tuned = TunedBackend().fused_erase_write_linkage(*args)
        assert np.array_equal(ref[0], tuned[0])  # memory
        assert np.array_equal(ref[2], tuned[2])  # precedence
        link_diff = float(np.max(np.abs(ref[1] - tuned[1])))
        assert link_diff <= 1e-12

    def test_small_n_write_phase_delegates_bitwise(self):
        """Below ``MIN_BLOCKED_N`` the whole fused write phase is the
        reference kernel, bit for bit."""
        gen = np.random.default_rng(6)
        n = SK.MIN_BLOCKED_N // 2
        args = (
            gen.standard_normal((3, n, 8)),
            gen.standard_normal((3, n, n)) * 0.01,
            gen.random((3, n)),
            gen.random((3, n)) * 0.05,
            gen.random((3, 8)),
            gen.standard_normal((3, 8)),
        )
        ref = ReferenceBackend().fused_erase_write_linkage(*args)
        tuned = TunedBackend().fused_erase_write_linkage(*args)
        for e, g in zip(ref, tuned):
            assert np.array_equal(e, g)

    def test_batch_of_one_matches_unbatched(self):
        """The engine-wide batch-of-1 bitwise invariant holds under
        the tuned backend too."""
        engine = make_engine("tuned")
        inputs = trajectory_inputs(engine, steps=5, batch=3)
        batch1 = engine.run_batch(inputs[:, :1])
        single = engine.run(inputs[:, 0])
        assert np.array_equal(batch1[:, 0], single)

    # -- read-phase kernels --------------------------------------------

    def test_fused_forward_backward_within_tolerance(self):
        """The single-pass panel sweep vs the reference matmul pair.

        The forward rows are full-length dot products (same result, one
        GEMM call shape away); the backward's panel-blocked psum
        reorders the reduction, so the bar is the float64 verification
        tolerance, not bitwise.
        """
        gen = np.random.default_rng(7)
        n = SK.MIN_BLOCKED_N * 2
        linkage = gen.standard_normal((3, n, n)) * 0.01
        read_w = gen.random((3, 2, n)) * 0.05
        ref_f, ref_b = ReferenceBackend().forward_backward(linkage, read_w)
        tuned = TunedBackend()
        fwd, bwd = tuned.forward_backward(linkage, read_w)
        assert float(np.max(np.abs(fwd - ref_f))) <= TOLERANCES["float64"]
        assert float(np.max(np.abs(bwd - ref_b))) <= TOLERANCES["float64"]

    def test_small_n_read_phase_delegates_bitwise(self):
        """Below ``MIN_BLOCKED_N`` the fused sweep is the reference
        matmul pair, bit for bit."""
        gen = np.random.default_rng(8)
        n = SK.MIN_BLOCKED_N // 2
        linkage = gen.standard_normal((3, n, n)) * 0.01
        read_w = gen.random((3, 2, n)) * 0.05
        ref = ReferenceBackend().forward_backward(linkage, read_w)
        got = TunedBackend().forward_backward(linkage, read_w)
        for e, g in zip(ref, got):
            assert np.array_equal(e, g)

    def test_masked_read_phase_matches_reference_rows(self):
        """``active=`` gathers the sub-batch through the fused kernel;
        per-row results stay within tolerance of the reference rows and
        inactive rows are exact zeros."""
        gen = np.random.default_rng(9)
        n = SK.MIN_BLOCKED_N * 2
        linkage = gen.standard_normal((4, n, n)) * 0.01
        read_w = gen.random((4, 2, n)) * 0.05
        active = np.array([True, False, True, False])
        ref_f, ref_b = ReferenceBackend().forward_backward(linkage, read_w)
        fwd, bwd = TunedBackend().forward_backward(
            linkage, read_w, active=active
        )
        tol = TOLERANCES["float64"]
        assert float(np.max(np.abs(fwd[active] - ref_f[active]))) <= tol
        assert float(np.max(np.abs(bwd[active] - ref_b[active]))) <= tol
        assert not fwd[~active].any() and not bwd[~active].any()

    def test_read_weight_mix_bitwise(self):
        """The scratch-resident merge keeps the reference association
        exactly — bitwise, unlike the blocked forward/backward."""
        gen = np.random.default_rng(10)
        content = gen.random((4, 2, 64))
        fwd = gen.random((4, 2, 64))
        bwd = gen.random((4, 2, 64))
        modes = gen.random((4, 2, 3))
        ref = ReferenceBackend().read_weight_mix(content, fwd, bwd, modes)
        got = TunedBackend().read_weight_mix(content, fwd, bwd, modes)
        assert np.array_equal(got, ref)

    def test_fused_read_reports_single_linkage_pass(self):
        """The profiler's read-bytes model: the fused sweep streams the
        linkage once, the reference matvec pair twice."""
        for name, passes in (("tuned", 1), ("reference", 2)):
            backend = make_backend(HiMAConfig(**BLOCKED_CONFIG, backend=name))
            assert backend.read_linkage_passes == passes

    @staticmethod
    def read_bytes(backend, active=None, **features):
        base = dict(BLOCKED_CONFIG, memory_size=64, num_tiles=4)
        base.update(features)
        engine = TiledEngine(HiMAConfig(**base, backend=backend), rng=0)
        engine.profiler = PhaseTimer()
        state = engine.initial_state(batch_size=2)
        engine.step(np.zeros((2, base["word_size"])), state, active=active)
        return engine.profiler.stats()["read"]["bytes"]

    @pytest.mark.parametrize("features", [
        pytest.param(dict(distributed=True), id="dncd-n64-nt4"),
        pytest.param(dict(), id="dnc-n64"),
        pytest.param(dict(memory_size=1024, distributed=True), id="dncd-n1024-nt4"),
    ])
    def test_read_bytes_equal_where_tuned_runs_the_reference_pair(self, features):
        """Below MIN_BLOCKED_N rows per block, and on DNC-D's
        non-contiguous block views, tuned's forward/backward is the
        reference matvec pair, so its read bytes are reference's."""
        assert (self.read_bytes("tuned", **features)
                == self.read_bytes("reference", **features))

    @pytest.mark.parametrize("active", [None, np.array([1])], ids=["full", "masked"])
    def test_fused_read_bytes_are_lower(self, active):
        """From MIN_BLOCKED_N rows the fused sweep runs, for a masked
        tick too (the per-slot loop re-enters it slot by slot)."""
        assert (self.read_bytes("tuned", active, memory_size=256)
                < self.read_bytes("reference", active, memory_size=256))


# ---------------------------------------------------------------------------
# Serving stack under a non-default backend
# ---------------------------------------------------------------------------


class TestServeChurnTunedBackend:
    def test_arena_server_matches_solo(self):
        from repro.serve import SessionServer

        engine = make_engine("tuned", num_reads=1)
        solo = make_engine("tuned", num_reads=1)
        gen = np.random.default_rng(11)
        inputs = {
            f"s{i}": gen.standard_normal(
                (6, engine.reference.config.input_size)
            )
            for i in range(4)
        }
        requests = {}
        with SessionServer(
            engine, max_batch=4, max_wait_ticks=1,
            session_capacity=8,
        ) as server:
            for sid in inputs:
                assert server.open_session(sid) == sid
                requests[sid] = [server.submit(sid, x) for x in inputs[sid]]
            server.drain()
        for sid, reqs in requests.items():
            assert all(r.done and r.error is None for r in reqs), sid
            served = np.stack([r.y for r in reqs])
            expected = solo.run(inputs[sid])
            assert np.max(np.abs(served - expected)) <= 1e-10, sid

    def test_sharded_migration_matches_solo(self):
        from repro.serve import ShardedServer

        engines = [make_engine("tuned", num_reads=1) for _ in range(2)]
        gen = np.random.default_rng(13)
        inputs = {
            f"s{i}": gen.standard_normal(
                (6, engines[0].reference.config.input_size)
            )
            for i in range(4)
        }
        cluster = ShardedServer(
            engines, max_batch=4, max_wait_ticks=1, session_capacity=8
        )
        requests = {}
        for sid, xs in inputs.items():
            assert cluster.open_session(sid) == sid
            requests[sid] = [cluster.submit(sid, x) for x in xs]
        cluster.run_tick()
        victim = "s0"
        src = cluster.shard_of(victim)
        cluster.migrate_session(victim, 1 - src)
        assert cluster.shard_of(victim) == 1 - src
        cluster.drain()
        cluster.close()
        solo = make_engine("tuned", num_reads=1)
        for sid, xs in inputs.items():
            assert all(r.done and r.error is None for r in requests[sid]), sid
            served = np.stack([r.y for r in requests[sid]])
            assert np.max(np.abs(served - solo.run(xs))) <= 1e-10, sid

    def test_proc_cluster_kill_and_restore_matches_solo(self):
        """Crash recovery replays checkpoints on worker processes that
        rebuilt their engines — config-carried backend selection must
        survive the round trip."""
        from repro.serve import ProcCluster

        config = HiMAConfig(
            memory_size=128, word_size=8, num_reads=1, num_tiles=4,
            hidden_size=16, two_stage_sort=False, backend="tuned",
        )
        xs = [np.full(8, 0.1 * (t + 1)) for t in range(6)]
        with ProcCluster(
            config, seed=7, num_workers=1, max_batch=4, max_wait_ticks=1,
            session_capacity=8, checkpoint_interval=3, rpc_timeout=30.0,
        ) as cluster:
            sid = cluster.open_session("s")
            requests = [cluster.submit(sid, x) for x in xs[:3]]
            cluster.run_tick()
            cluster.kill_worker(0)
            requests += [cluster.submit(sid, x) for x in xs[3:]]
            cluster.drain()
            assert cluster.worker_restarts == 1
            solo = TiledEngine(config, rng=7)
            state = solo.initial_state()
            for t, request in enumerate(requests):
                assert request.done and request.error is None
                y, state = solo.step(xs[t], state)
                np.testing.assert_allclose(request.y, y, atol=1e-10, rtol=0.0)

    def test_proc_cluster_churn_sparse_read_path_tuned(self):
        """Kill/restore churn with ``backend="tuned"`` *and* sparse
        access: the replayed worker engine must rebuild the tuned
        backend and run the sparse read kernels (top-K forward/backward
        and read gather through the seam) to the 1e-10 served-vs-solo
        bar."""
        from repro.serve import ProcCluster

        config = HiMAConfig(
            memory_size=128, word_size=8, num_reads=1, num_tiles=4,
            hidden_size=16, two_stage_sort=False, backend="tuned",
            access_policy="sparse", access_top_k=16,
        )
        xs = [np.full(8, 0.07 * (t + 1)) for t in range(6)]
        with ProcCluster(
            config, seed=9, num_workers=1, max_batch=4, max_wait_ticks=1,
            session_capacity=8, checkpoint_interval=3, rpc_timeout=30.0,
        ) as cluster:
            sid = cluster.open_session("s")
            requests = [cluster.submit(sid, x) for x in xs[:3]]
            cluster.run_tick()
            cluster.kill_worker(0)
            requests += [cluster.submit(sid, x) for x in xs[3:]]
            cluster.drain()
            assert cluster.worker_restarts == 1
            solo = TiledEngine(config, rng=9)
            state = solo.initial_state()
            for t, request in enumerate(requests):
                assert request.done and request.error is None
                y, state = solo.step(xs[t], state)
                np.testing.assert_allclose(request.y, y, atol=1e-10, rtol=0.0)
