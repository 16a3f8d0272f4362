import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurolock import transform as tr
from neurolock.matching_eval import score_pairs
from neurolock.errors import (ConfigError, IncompatibleTemplates, ParseError,
                              ShapeError)

# worked low-dimensional example: two keys over the same feature pair
V1 = np.array([0.19, 0.54, 0.37, 0.84])
V2 = np.array([0.59, 0.18, 0.04, 0.92])
P1 = np.array([2, 3, 0, 1])   # 0-based
P2 = np.array([1, 2, 3, 0])
M1 = np.array([[0.15, 0.40], [0.09, 0.54], [0.19, 0.42], [0.35, 0.69]])
M2 = np.array([[0.50, 0.17], [0.22, 0.09], [0.20, 0.69], [0.76, 0.95]])


def fixture_params(perm, proj, key=1):
    return tr.TransformParams(user_key=key, dim=4, delta=0.5, permutation=perm,
                              projection=proj, key_id=f"fix{key}")


class TestDeriveParams:
    def test_deterministic(self):
        a = tr.derive_params(12345, 70, 0.5)
        b = tr.derive_params(12345, 70, 0.5)
        assert np.array_equal(a.permutation, b.permutation)
        assert np.array_equal(a.projection, b.projection)
        assert a.key_id == b.key_id

    def test_shapes(self):
        params = tr.derive_params(9, 4, 0.5)
        assert params.projection.shape == (4, 2)
        assert sorted(params.permutation.tolist()) == [0, 1, 2, 3]

    def test_thousand_keys_no_permutation_collision(self):
        seen = set()
        for key in range(1000):
            perm = tuple(tr.derive_params(key, 70, 0.5).permutation.tolist())
            assert perm not in seen
            seen.add(perm)

    def test_projection_entries_in_unit_interval(self):
        params = tr.derive_params(77, 30, 0.5)
        assert params.projection.min() >= 0.0
        assert params.projection.max() < 1.0

    def test_rank_deficiency_guaranteed(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            dim = int(rng.integers(2, 40))
            delta = float(rng.uniform(0.05, 0.95))
            n_out = tr.output_dim(dim, delta)
            if not (1 <= n_out < dim):
                with pytest.raises(ConfigError):
                    tr.derive_params(3, dim, delta)
                continue
            params = tr.derive_params(3, dim, delta)
            assert params.projection.shape[1] < dim
            assert np.linalg.matrix_rank(params.projection) == params.projection.shape[1]

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.3, 1.5])
    def test_bad_delta(self, delta):
        with pytest.raises(ConfigError):
            tr.derive_params(1, 10, delta)

    @pytest.mark.parametrize("key", [-1, 2 ** 64, True, 7.0, "7"])
    def test_a_key_outside_the_key_rule_is_refused(self, key):
        with pytest.raises(ConfigError, match=r"^user key must be an unsigned 64-bit "
                                              rf"integer, got {key!r}$"):
            tr.derive_params(key, 10, 0.5)

    def test_the_key_rule_spans_unsigned_64_bit_integers(self):
        for key in (0, 2 ** 64 - 1, np.uint64(2 ** 64 - 1)):
            assert tr.derive_params(key, 10, 0.5).user_key == int(key)


class TestCombineProject:
    def test_worked_example_products(self):
        c = tr.combine(V1, V2, fixture_params(P1, M1))
        assert c == pytest.approx([0.2183, 0.1512, 0.0076, 0.4968], abs=1e-12)

    def test_worked_example_first_key(self):
        params = fixture_params(P1, M1)
        r = tr.project(tr.combine(V1, V2, params), params)
        assert r == pytest.approx([0.22, 0.51], abs=0.005)
        assert r == pytest.approx([0.221677, 0.514952], abs=1e-9)

    def test_worked_example_second_key(self):
        params = fixture_params(P2, M2, key=10)
        r = tr.project(tr.combine(V1, V2, params), params)
        assert r == pytest.approx([0.31, 0.25], abs=0.005)

    def test_identity_permutation_with_ones(self):
        params = fixture_params(np.arange(4), M1)
        assert np.array_equal(tr.combine(V1, np.ones(4), params), V1)

    def test_zero_second_vector(self):
        params = fixture_params(P1, M1)
        assert np.all(tr.combine(V1, np.zeros(4), params) == 0.0)

    def test_zero_projection_matrix(self):
        params = fixture_params(P1, np.zeros((4, 2)))
        assert np.all(tr.project(np.ones(4), params) == 0.0)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            tr.combine(np.ones(3), np.ones(4), fixture_params(P1, M1))


class TestGrayCode:
    QR = np.array([[0.0, 1.0]])

    def test_min_maps_to_all_zero(self):
        assert tr.gray_encode(np.array([0.0]), self.QR).tolist() == [0] * 8

    def test_max_maps_to_gray_255(self):
        assert tr.gray_encode(np.array([1.0]), self.QR).tolist() == [1, 0, 0, 0, 0, 0, 0, 0]

    def test_adjacent_levels_differ_in_one_bit(self):
        step = 1.0 / 255.0
        codes = [tr.gray_encode(np.array([lv * step]), self.QR) for lv in range(256)]
        for lv in range(255):
            assert int(np.bitwise_xor(codes[lv], codes[lv + 1]).sum()) == 1

    def test_round_trips_within_half_step(self, rng):
        for _ in range(3):
            x = rng.uniform(-4.0, 7.0, 16)
            lo = x - rng.uniform(0.5, 2.0, 16)
            hi = x + rng.uniform(0.5, 2.0, 16)
            qr = np.stack([lo, hi], axis=1)
            decoded = tr.gray_decode(tr.gray_encode(x, qr), qr)
            half_step = (hi - lo) / 255.0 / 2.0
            assert np.all(np.abs(decoded - x) <= half_step + 1e-12)

    def test_decode_all_zero_byte_is_r_min(self):
        qr = np.array([[-3.0, 5.0]])
        assert tr.gray_decode(np.zeros(8, dtype=np.uint8), qr)[0] == -3.0

    def test_decode_gray_255_is_r_max(self):
        qr = np.array([[-3.0, 5.0]])
        bits = np.array([1, 0, 0, 0, 0, 0, 0, 0], dtype=np.uint8)
        assert tr.gray_decode(bits, qr)[0] == 5.0

    def test_clamping(self):
        qr = np.array([[0.0, 1.0], [0.0, 1.0]])
        bits = tr.gray_encode(np.array([-10.0, 10.0]), qr)
        assert tr.gray_decode(bits, qr) == pytest.approx([0.0, 1.0])

    def test_bad_range_raises(self):
        with pytest.raises(ConfigError):
            tr.gray_encode(np.array([0.5]), np.array([[1.0, 1.0]]))


class TestMakeTemplate:
    def params(self):
        return tr.derive_params(33, 6, 0.5)

    def frames(self, rng, count):
        return rng.uniform(0.1, 1.0, (count, 6)), rng.uniform(0.1, 1.0, (count, 6))

    def ranged_params(self):
        params = self.params()
        params.quant_range = np.stack([np.full(3, -1.0), np.full(3, 4.0)], axis=1)
        return params

    def test_single_frame_reduces_to_direct_encode(self, rng):
        params = self.params()
        v1, v2 = self.frames(rng, 1)
        tr.calibrate_params(params, v1, v2, margin=0.1)
        tpl = tr.make_template(v1, v2, params, subject_id="S1")
        r = tr.project(tr.combine(v1[0], v2[0], params), params)
        assert np.array_equal(
            tpl.bits, tr.gray_encode(r, tpl.meta.quant_range))

    def test_identical_frames_match_single_frame(self, rng):
        params = self.ranged_params()
        v1, v2 = self.frames(rng, 1)
        v1_rep = np.repeat(v1, 4, axis=0)
        v2_rep = np.repeat(v2, 4, axis=0)
        one = tr.make_template(v1, v2, params)
        four = tr.make_template(v1_rep, v2_rep, params)
        assert np.array_equal(one.bits, four.bits)
        assert four.meta.frames_averaged == 4

    def test_two_frame_mean_matches_hand_computation(self, rng):
        params = self.ranged_params()
        v1, v2 = self.frames(rng, 2)
        tpl = tr.make_template(v1, v2, params)
        r0 = tr.project(tr.combine(v1[0], v2[0], params), params)
        r1 = tr.project(tr.combine(v1[1], v2[1], params), params)
        assert np.array_equal(tpl.bits, tr.gray_encode((r0 + r1) / 2.0, params.quant_range))

    @pytest.mark.parametrize("shape_v1,shape_v2", [
        ((2, 6), (3, 6)), ((2, 6), (2, 5)), ((0, 6), (0, 6)), ((6,), (6,)),
    ], ids=["frames-differ", "features-differ", "no-frames", "no-frame-axis"])
    def test_windows_that_differ_or_hold_no_frame_raise(self, rng, shape_v1, shape_v2,
                                                        monkeypatch):
        params = self.ranged_params()
        monkeypatch.setattr(tr, "encode", lambda *args: pytest.fail("encoded"))
        with pytest.raises(ShapeError, match="two equal windows"):
            tr.make_template(rng.uniform(0.1, 1.0, shape_v1), rng.uniform(0.1, 1.0, shape_v2),
                             params)

    def test_calibrated_params_supply_range(self, rng):
        params = self.params()
        pop1, pop2 = self.frames(rng, 40)
        tr.calibrate_params(params, pop1, pop2, margin=0.1)
        tpl = tr.make_template(pop1[:5], pop2[:5], params)
        assert np.array_equal(tpl.meta.quant_range, params.quant_range)

    def test_margin_past_the_largest_float_raises_naming_it(self, rng):
        params = self.params()
        with pytest.raises(ConfigError, match=r"^calibration_margin = 1e\+308 widens the "
                                              f"range of key {params.key_id} past the largest"):
            tr.calibrate_params(params, *self.frames(rng, 40), margin=1e308)

    @pytest.mark.parametrize("build", [
        lambda params, v1, v2: tr.encode(v1, v2, params),
        lambda params, v1, v2: tr.make_template(v1, v2, params),
    ], ids=["encode", "make_template"])
    def test_uncalibrated_params_raise_naming_the_key(self, rng, build):
        params = self.params()
        v1, v2 = self.frames(rng, 2)
        with pytest.raises(ConfigError, match=params.key_id):
            build(params, v1, v2)

    @pytest.mark.parametrize("batch", [(), (5,), (2, 3), (2, 2, 3)])
    def test_encode_matches_the_explicit_chain(self, rng, batch):
        """combine, project, frame mean and gray_encode, written out, give the
        encoder's bits; each row of a batch encodes as it does alone."""
        params = self.params()
        tr.calibrate_params(params, *self.frames(rng, 40), margin=0.1)
        v1 = rng.normal(0.5, 0.6, batch + (4, 6))
        v2 = rng.normal(0.5, 0.6, batch + (4, 6))
        bits = tr.encode(v1, v2, params)
        projected = tr.project(tr.combine(v1, v2, params), params)
        assert np.array_equal(bits, tr.gray_encode(projected.mean(axis=-2),
                                                   params.quant_range))
        assert bits.shape == batch + (3 * tr.BITS_PER_DIM,)
        for index in np.ndindex(*batch):
            assert np.array_equal(bits[index], tr.encode(v1[index], v2[index], params))

    @pytest.mark.parametrize("batch", [(), (5,), (2, 3)])
    def test_bits_unpack_the_gray_bytes(self, rng, batch):
        """encode and gray_encode are their byte forms unpacked, and the codes
        calibrate_params keeps are encode_bytes of its windows over a range
        that spans every frame of every window."""
        v1 = rng.normal(0.5, 0.6, batch + (4, 6))
        v2 = rng.normal(0.5, 0.6, batch + (4, 6))
        params = tr.calibrate_params(self.params(), v1, v2, margin=0.1)
        codes, fitted = params.codes, params.quant_range
        frames = (v.reshape(-1, 6) for v in (v1, v2))
        assert np.array_equal(
            tr.calibrate_params(self.params(), *frames, margin=0.1).quant_range, fitted)
        assert codes.dtype == np.uint8 and codes.shape == batch + (3,)
        with pytest.raises(ValueError, match="read-only"):
            codes[...] = 0
        assert np.array_equal(codes, tr.encode_bytes(v1, v2, params))
        assert np.array_equal(np.unpackbits(codes, axis=-1), tr.encode(v1, v2, params))
        r = rng.normal(0.0, 2.0, batch + (3,))
        assert np.array_equal(np.unpackbits(tr.gray_bytes(r, fitted), axis=-1),
                              tr.gray_encode(r, fitted))

    @pytest.mark.parametrize("shape", [(2, 24), (1, 24), (), (20,)],
                             ids=["2-d", "one-row-2-d", "0-d", "not-whole-bytes"])
    def test_template_holds_one_bit_string(self, shape):
        meta = tr.TemplateMeta(subject_id="S", key_id="k", delta=0.5, frames_averaged=1,
                               quant_range=np.tile([0.0, 1.0], (3, 1)))
        with pytest.raises(ShapeError):
            tr.CancellableTemplate(np.zeros(shape, dtype=np.uint8), meta)

    def test_batch_of_frame_stacks_is_not_a_template(self, rng):
        params = self.ranged_params()
        v1, v2 = rng.uniform(0.1, 1.0, (2, 2, 3, 6))
        assert tr.encode(v1, v2, params).shape == (2, 3 * tr.BITS_PER_DIM)
        with pytest.raises(ShapeError):
            tr.make_template(v1, v2, params)


class TestMatch:
    def bits_template(self, bits, key_id="k", delta=0.5, hi=1.0):
        n = len(bits) // 8
        meta = tr.TemplateMeta(subject_id="S", key_id=key_id, delta=delta,
                               frames_averaged=1,
                               quant_range=np.tile([0.0, hi], (n, 1)))
        return tr.CancellableTemplate(
            bits=np.array([int(b) for b in bits], dtype=np.uint8), meta=meta)

    def test_identical_templates_score_zero(self):
        a = self.bits_template("0010001110100010")
        assert tr.match(a, a, threshold=0.0).score == 0.0
        assert tr.match(a, a, threshold=0.0).decision

    def test_complement_scores_one(self):
        a = self.bits_template("0101010101010101")
        b = self.bits_template("1010101010101010")
        result = tr.match(a, b, threshold=0.5)
        assert result.score == 1.0
        assert not result.decision

    def test_worked_example_bit_strings(self):
        t1 = self.bits_template("0010001110100010")
        t2 = self.bits_template("1010001000100011")
        result = tr.match(t1, t2, threshold=0.389)
        assert result.raw == 4
        assert result.score == 0.25
        assert result.decision

    def test_key_mismatch_raises(self):
        a = self.bits_template("00100011", key_id="k1")
        b = self.bits_template("00100011", key_id="k2")
        with pytest.raises(IncompatibleTemplates):
            tr.match(a, b, threshold=0.5)

    @pytest.mark.parametrize("hi", [np.nextafter(1.0, 2.0), 2.0])
    def test_range_mismatch_raises(self, hi):
        """Equal bits quantized over other ranges code other values."""
        a = self.bits_template("00100011")
        b = self.bits_template("00100011", hi=hi)
        with pytest.raises(IncompatibleTemplates, match="quantization ranges differ"):
            tr.match(a, b, threshold=0.5)
        assert tr.match(b, self.bits_template("00100011", hi=hi), threshold=0.0).decision

    def test_length_mismatch_raises(self):
        a = self.bits_template("00100011")
        b = self.bits_template("0010001100100011")
        with pytest.raises(IncompatibleTemplates):
            tr.match(a, b, threshold=0.5)

    @given(st.integers(1, 8), st.integers(0, 2 ** 32), st.integers(0, 2 ** 32),
           st.integers(0, 2 ** 32))
    @settings(max_examples=100, deadline=None)
    def test_normalized_score_is_a_metric(self, n_bytes, sa, sb, sc):
        bits = {}
        for name, seed in (("a", sa), ("b", sb), ("c", sc)):
            bits[name] = np.random.default_rng(seed).integers(
                0, 2, 8 * n_bytes).astype(np.uint8)
        def dist(x, y):
            return tr.hamming_score(bits[x], bits[y])[1]
        assert dist("a", "a") == 0.0
        assert dist("a", "b") == dist("b", "a")
        assert dist("a", "c") <= dist("a", "b") + dist("b", "c") + 1e-12


class TestPackedHamming:
    """packed_hamming and score_pairs over packed bytes against
    hamming_score's counts and scores over the bits, with ==."""

    @pytest.mark.parametrize("shape_a,shape_b", [
        ((64,), (64,)), ((64,), (7, 64)), ((7, 64), (64,)), ((5, 64), (5, 64)),
        ((5, 1, 64), (1, 3, 64)), ((2, 3, 64), (3, 64)), ((30, 472), (30, 472))])
    def test_equals_hamming_score(self, shape_a, shape_b):
        rng = np.random.default_rng([shape_a[-1], len(shape_a), len(shape_b)])
        a = rng.integers(0, 2, shape_a).astype(np.uint8)
        b = rng.integers(0, 2, shape_b).astype(np.uint8)
        raw, score = tr.hamming_score(a, b)
        a_bytes, b_bytes = np.packbits(a, axis=-1), np.packbits(b, axis=-1)
        packed = tr.packed_hamming(a_bytes, b_bytes)
        assert np.shape(packed) == np.shape(raw)
        assert np.array_equal(packed, raw)
        assert np.array_equal(score_pairs(a_bytes, b_bytes), score)
        assert np.array_equal(score_pairs(a_bytes, a_bytes), np.zeros(np.shape(a)[:-1]))
        assert np.array_equal(score_pairs(a_bytes, ~a_bytes), np.ones(np.shape(a)[:-1]))

    def test_every_byte_value(self):
        bytes_ = np.arange(256, dtype=np.uint8)
        counts = tr.packed_hamming(bytes_[:, None], np.zeros((1, 1), np.uint8))
        assert counts.tolist() == [bin(v).count("1") for v in range(256)]

    def test_score_pairs_refuses_different_lengths(self):
        with pytest.raises(IncompatibleTemplates):
            score_pairs(np.zeros(2, np.uint8), np.zeros((2, 1), np.uint8))


class TestRevocation:
    def test_new_key_shifts_template_toward_half_distance(self, rng):
        dim = 22
        pop1 = rng.uniform(0.1, 1.0, (60, dim))
        pop2 = rng.uniform(0.1, 1.0, (60, dim))
        base = tr.calibrate_params(tr.derive_params(1, dim, 0.5), pop1, pop2, margin=0.1)
        original = tr.make_template(pop1[:5], pop2[:5], base)
        distances = []
        for key in range(2, 30):
            fresh = tr.calibrate_params(tr.derive_params(key, dim, 0.5), pop1, pop2,
                                       margin=0.1)
            reissued = tr.make_template(pop1[:5], pop2[:5], fresh)
            distances.append(tr.hamming_score(original.bits, reissued.bits)[1])
        assert 0.3 <= float(np.mean(distances)) <= 0.65

    def test_same_key_identical(self, rng):
        dim = 10
        pop1 = rng.uniform(0.1, 1.0, (20, dim))
        pop2 = rng.uniform(0.1, 1.0, (20, dim))
        a = tr.calibrate_params(tr.derive_params(5, dim, 0.5), pop1, pop2, margin=0.1)
        b = tr.calibrate_params(tr.derive_params(5, dim, 0.5), pop1, pop2, margin=0.1)
        ta = tr.make_template(pop1[:3], pop2[:3], a)
        tb = tr.make_template(pop1[:3], pop2[:3], b)
        assert np.array_equal(ta.bits, tb.bits)


class TestTemplateFile:
    def test_round_trip(self, tmp_path, rng):
        params = tr.derive_params(44, 8, 0.5)
        v1 = rng.uniform(0.1, 1.0, (3, 8))
        v2 = rng.uniform(0.1, 1.0, (3, 8))
        tr.calibrate_params(params, v1, v2, margin=0.1)
        tpl = tr.make_template(v1, v2, params, subject_id="S007")
        path = tmp_path / "t.ceeg"
        tr.save_template(tpl, path)
        assert path.read_bytes()[:5] == b"CEEG1"
        back = tr.load_template(path)
        assert np.array_equal(back.bits, tpl.bits)
        assert back.meta.subject_id == "S007"
        assert back.meta.key_id == tpl.meta.key_id
        assert back.meta.quant_range == pytest.approx(tpl.meta.quant_range)

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "bad.ceeg"
        path.write_bytes(b"NOPE!" + b"\x00" * 32)
        with pytest.raises(ParseError):
            tr.load_template(path)

    @pytest.mark.parametrize("corrupt", [
        lambda meta: {**meta, "delta": "x"},
        lambda meta: {**meta, "frames_averaged": None},
        lambda meta: [meta],
        lambda meta: {**meta, "quant_range": [[1.0, 0.0]]},
        lambda meta: {**meta, "quant_range": [[float("nan"), 1.0]]},
    ], ids=["string_delta", "null_frames", "list_metadata", "inverted_range",
            "nan_range"])
    def test_malformed_metadata_raises_parse_error(self, tmp_path, rng, corrupt):
        params = tr.derive_params(44, 2, 0.5)
        v1, v2 = rng.uniform(0.1, 1.0, (2, 2)), rng.uniform(0.1, 1.0, (2, 2))
        tr.calibrate_params(params, v1, v2, margin=0.1)
        tpl = tr.make_template(v1, v2, params)
        meta = json.dumps(corrupt(tpl.meta.to_dict())).encode()
        path = tmp_path / "t.ceeg"
        path.write_bytes(tr.TEMPLATE_MAGIC + len(meta).to_bytes(4, "big") + meta
                         + np.packbits(tpl.bits).tobytes())
        with pytest.raises(ParseError):
            tr.load_template(path)

    def test_truncated_payload_raises(self, tmp_path, rng):
        params = tr.derive_params(44, 8, 0.5)
        v1 = rng.uniform(0.1, 1.0, (2, 8))
        v2 = rng.uniform(0.1, 1.0, (2, 8))
        tr.calibrate_params(params, v1, v2, margin=0.1)
        tpl = tr.make_template(v1, v2, params)
        path = tmp_path / "t.ceeg"
        tr.save_template(tpl, path)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ParseError):
            tr.load_template(path)
