import struct
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from graphseqrec.autodiff import Tensor
from graphseqrec.checkpoint import CheckpointError, atomic_open, load_archive, save_archive
from graphseqrec.evaluation import SpectrumReport, write_spectrum_csv
from graphseqrec.optim import Adam, GradientNaN


def adam_reference(params, grads_per_step, lr, b1, b2, eps):
    """The update as one expression per line, as the optimizer first wrote it."""
    params = {name: p.copy() for name, p in params.items()}
    m = {name: np.zeros_like(p) for name, p in params.items()}
    v = {name: np.zeros_like(p) for name, p in params.items()}
    for t, grads in enumerate(grads_per_step, start=1):
        bias1 = 1.0 - b1 ** t
        bias2 = 1.0 - b2 ** t
        for name, p in params.items():
            g = grads[name] if grads[name] is not None else np.zeros_like(p)
            m[name] *= b1
            m[name] += (1.0 - b1) * g
            v[name] *= b2
            v[name] += (1.0 - b2) * (g * g)
            p -= lr * (m[name] / bias1) / (np.sqrt(v[name] / bias2) + eps)
    return params, m, v


def adam_step_peak_tables(opt, table):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        opt.step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - before) / table.data.nbytes


class TestAdam:
    def test_zero_grads_leave_params_unchanged(self):
        w = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        opt = Adam({"w": w}, lr=0.1)
        before = w.data.copy()
        w.grad = np.zeros(3)
        opt.step()
        np.testing.assert_array_equal(w.data, before)

    def test_first_step_magnitude_is_lr(self):
        # with bias correction, step 1 moves each weight by ~lr * sign(grad)
        w = Tensor(np.array([0.0, 0.0]), requires_grad=True)
        opt = Adam({"w": w}, lr=0.01)
        w.grad = np.array([0.5, -2.0])
        opt.step()
        np.testing.assert_allclose(np.abs(w.data), 0.01, rtol=1e-6)
        assert w.data[0] < 0 < w.data[1]

    def test_quadratic_descent_matches_scalar_reference(self):
        # independent scalar re-implementation of the update rule
        def reference_trajectory(steps, lr=0.1, b1=0.9, b2=0.999, eps=1e-8):
            w, m, v = 0.0, 0.0, 0.0
            out = []
            for t in range(1, steps + 1):
                g = 2.0 * (w - 3.0)
                m = b1 * m + (1 - b1) * g
                v = b2 * v + (1 - b2) * g * g
                w -= lr * (m / (1 - b1 ** t)) / ((v / (1 - b2 ** t)) ** 0.5 + eps)
                out.append(w)
            return out

        w = Tensor(np.array([0.0]), requires_grad=True)
        opt = Adam({"w": w}, lr=0.1)
        trajectory = []
        for _ in range(50):
            w.grad = 2.0 * (w.data - 3.0)
            opt.step()
            trajectory.append(float(w.data[0]))
        np.testing.assert_allclose(trajectory, reference_trajectory(50), rtol=1e-12)
        # |w - 3| shrinks monotonically after warmup, all the way into the
        # convergence region where momentum starts to oscillate
        gaps = [abs(value - 3.0) for value in trajectory]
        settled = next(i for i, g in enumerate(gaps) if g < 0.05)
        assert all(b < a for a, b in zip(gaps[2:settled], gaps[3:settled + 1]))
        assert gaps[-1] < 0.2 and gaps[0] > 2.5

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nan_grad_aborts_naming_parameter(self, bad):
        w = Tensor(np.zeros(2), requires_grad=True)
        u = Tensor(np.zeros(2), requires_grad=True)
        opt = Adam({"w": w, "bad_one": u})
        w.grad = np.zeros(2)
        u.grad = np.array([0.0, bad])
        before = w.data.copy()
        with pytest.raises(GradientNaN, match=rf"\({bad}\) in parameter 'bad_one'"):
            opt.step()
        np.testing.assert_array_equal(w.data, before)
        assert opt.step_count == 0

    def test_moments_persist_across_steps(self):
        w = Tensor(np.array([0.0]), requires_grad=True)
        opt = Adam({"w": w}, lr=0.1)
        w.grad = np.array([1.0])
        opt.step()
        m_after_one = opt.m["w"].copy()
        w.grad = np.array([1.0])
        opt.step()
        assert opt.m["w"][0] > m_after_one[0]
        assert opt.step_count == 2


    def test_bitwise_equal_to_the_one_expression_update(self, rng):
        start = {"w": rng.standard_normal((4, 3)), "b": rng.standard_normal(3),
                 "idle": rng.standard_normal(2)}
        params = {name: Tensor(value.copy(), requires_grad=True) for name, value in start.items()}
        opt = Adam(params, lr=0.01, betas=(0.8, 0.99), eps=1e-6)
        grads_per_step = []
        for _ in range(5):
            grads = {"w": rng.standard_normal((4, 3)), "b": rng.standard_normal(3) * 1e-4,
                     "idle": None}  # 'idle' never receives a gradient
            for name, g in grads.items():
                params[name].grad = g
            opt.step()
            grads_per_step.append(grads)
        want_p, want_m, want_v = adam_reference(start, grads_per_step, 0.01, 0.8, 0.99, 1e-6)
        for name in start:
            assert params[name].data.tobytes() == want_p[name].tobytes()
            assert opt.m[name].tobytes() == want_m[name].tobytes()
            assert opt.v[name].tobytes() == want_v[name].tobytes()

    def test_step_peak_memory(self, rng):
        table = Tensor(rng.standard_normal((17300, 32)), requires_grad=True)
        opt = Adam({"table": table}, lr=1e-3)
        for _ in range(2):  # the second step is the measured one
            table.grad = rng.standard_normal((17300, 32))
            tables = adam_step_peak_tables(opt, table)
        # two scratch buffers, whatever the number of operations
        assert tables <= 2.5, f"Adam.step peaked at {tables:.2f} parameter-sized arrays"


class TestAtomicText:
    def test_failure_inside_the_block_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "metrics.log"
        path.write_bytes(b"epoch=1 old\n")
        with pytest.raises(RuntimeError, match="disk full"):
            with atomic_open(path) as fh:
                fh.write("epoch=1 new\n" * 1000)
                raise RuntimeError("disk full")
        assert path.read_bytes() == b"epoch=1 old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.log"]

    def test_spectrum_write_failing_midway_keeps_the_previous_files(self, tmp_path):
        path = tmp_path / "spectrum.csv"
        write_spectrum_csv(SpectrumReport(np.array([2.0, 1.0]), np.ones((3, 2))), path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        # the third coordinate row cannot be formatted as a number
        coords = np.array([[1.0, 2.0], [3.0, 4.0], ["x", "y"]], dtype=object)
        with pytest.raises((TypeError, ValueError)):
            write_spectrum_csv(SpectrumReport(np.array([5.0, 4.0]), coords), path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestCheckpointArchive:
    def test_round_trip(self, tmp_path, rng):
        arrays = {
            "item_emb": rng.standard_normal((7, 4)),
            "scalar": np.asarray(3.5),
            "vector": rng.standard_normal(5),
        }
        path = tmp_path / "ckpt.bin"
        save_archive(path, arrays)
        loaded = load_archive(path)
        assert set(loaded) == set(arrays)
        for name in arrays:
            np.testing.assert_array_equal(loaded[name], arrays[name])
            assert loaded[name].dtype == np.float64

    def test_versioned_header_byte(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_archive(path, {"x": np.ones(2)})
        blob = bytearray(path.read_bytes())
        assert blob[0] == 1
        blob[0] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version 9"):
            load_archive(path)

    def test_deterministic_bytes(self, tmp_path, rng):
        arrays = {"b": rng.standard_normal(3), "a": rng.standard_normal((2, 2))}
        p1, p2 = tmp_path / "one.bin", tmp_path / "two.bin"
        save_archive(p1, arrays)
        save_archive(p2, dict(reversed(list(arrays.items()))))
        assert p1.read_bytes() == p2.read_bytes()

    def test_two_threads_saving_one_path_leave_one_whole_archive(self, tmp_path, rng):
        path = tmp_path / "ckpt.bin"
        archives = [{"a": rng.standard_normal((256, 256))},
                    {"a": rng.standard_normal((256, 256)), "b": rng.standard_normal(3)}]
        for _ in range(40):
            start = threading.Barrier(2)

            def save(arrays):
                start.wait(10)
                save_archive(path, arrays)

            with ThreadPoolExecutor(2) as pool:
                for saved in [pool.submit(save, arrays) for arrays in archives]:
                    saved.result()
            loaded = load_archive(path)
            assert any(loaded.keys() == arrays.keys()
                       and all(loaded[k].tobytes() == arrays[k].tobytes() for k in arrays)
                       for arrays in archives)
            assert [p.name for p in tmp_path.iterdir()] == ["ckpt.bin"]

    def test_zero_d_array_keeps_its_shape(self, tmp_path):
        path = tmp_path / "scalar.bin"
        save_archive(path, {"s": np.asarray(2.0)})
        loaded = load_archive(path)["s"]
        assert loaded.shape == () and loaded == 2.0

    def test_every_truncation_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_archive(path, {"vector": np.arange(3.0), "matrix": np.ones((2, 2))})
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(CheckpointError, match="ckpt.bin"):
                load_archive(path)

    def test_every_byte_flip_and_truncation_loads_or_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_archive(path, {"a": np.arange(3.0), "bb": np.ones((2, 2)), "s": np.asarray(2.0)})
        blob = path.read_bytes()
        damaged = [blob[:cut] for cut in range(len(blob))]
        damaged += [blob[:i] + bytes([b]) + blob[i + 1:]
                    for i in range(len(blob)) for b in range(256) if b != blob[i]]
        for data in damaged:
            path.write_bytes(data)
            try:
                load_archive(path)
            except CheckpointError as exc:
                assert "ckpt.bin" in str(exc)
        # byte 8 is the first record's ndim, after the header (5), the name length (2)
        # and the name (1): with 7 dims the payload's bytes become dims, one of them 0
        path.write_bytes(blob[:8] + bytes([7]) + blob[9:])
        with pytest.raises(CheckpointError, match=r"'a' in checkpoint .*ckpt\.bin at byte 9"):
            load_archive(path)

    def test_duplicate_record_name_raises(self, tmp_path):
        def record(name, value):
            return (struct.pack("<H", len(name)) + name.encode() + struct.pack("<BI", 1, 1)
                    + struct.pack("<d", value))

        path = tmp_path / "dup.bin"
        path.write_bytes(bytes([1]) + struct.pack("<I", 2) + record("w", 1.0) + record("w", 2.0))
        # the second 'w' name starts after the header (5), the first record (16) and its length (2)
        with pytest.raises(CheckpointError, match=r"duplicate record 'w' in checkpoint .*dup\.bin at byte 23"):
            load_archive(path)

    def test_failed_save_leaves_the_previous_archive(self, tmp_path):
        path = tmp_path / "checkpoint.best"
        save_archive(path, {"a": np.arange(3.0), "b": np.ones(2)})
        before = path.read_bytes()
        # 'a' is written before 'b' fails to become float64
        with pytest.raises((TypeError, ValueError)):
            save_archive(path, {"a": np.zeros(1000), "b": np.array(["not a number"])})
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.best"]
        save_archive(path, {"a": np.zeros(2)})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.best"]
        np.testing.assert_array_equal(load_archive(path)["a"], np.zeros(2))
