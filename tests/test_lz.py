import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirnet import lz
from mirnet.distance import build_matrix, mir_distance, mir_prime_distance
from mirnet.errors import AlignmentError, InsufficientDataError, ValidationError
from mirnet.ingest import SymbolSequence
from mirnet.lz import (
    ESTIMATORS,
    entropy_rate,
    joint_entropy_rate,
    match_lengths,
    mutual_lz,
)

from oracles import brute_match_lengths, searchsorted_shared


class TestMatchLengths:
    def test_constant_run(self):
        assert match_lengths([0, 0, 0, 0]).tolist() == [1, 4, 3, 2]

    def test_alternating(self):
        # frozen from the brute-force oracle: the symbol at position 2 has
        # no earlier occurrence, so its match length is 1
        assert match_lengths([0, 1, 0, 1]).tolist() == [1, 1, 3, 2]

    def test_three_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match="1-D or 2-D array, got 3-D$"):
            match_lengths(np.zeros((2, 2, 3), dtype=np.int64))

    def test_all_distinct(self):
        assert match_lengths([4, 2, 7, 1, 9]).tolist() == [1] * 5

    def test_end_cap(self):
        # matches may overlap their own start but never pass the end
        lam = match_lengths([0, 0, 0, 0, 0, 0])
        assert lam.tolist() == [1, 6, 5, 4, 3, 2]
        for i, v in enumerate(lam):
            assert v <= len(lam) - i + 1

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            match_lengths([0])

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            alpha = int(rng.integers(2, 8))
            n = int(rng.integers(2, 257))
            seq = rng.integers(0, alpha, size=n)
            assert match_lengths(seq).tolist() == brute_match_lengths(seq)


# symbols anywhere in int64, the extremes included, drawn from a small pool
# so that rows repeat
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
SYMBOLS = st.one_of(
    st.integers(0, 10**9),
    st.integers(INT64_MIN, INT64_MAX),
    st.sampled_from([INT64_MIN, -1, INT64_MAX]),
)
SYMBOL_POOLS = st.lists(SYMBOLS, min_size=1, max_size=4)


@st.composite
def symbol_rows(draw, n):
    """One length-n row: random, constant, periodic or made of blocks."""
    pool = draw(SYMBOL_POOLS)
    kind = draw(st.sampled_from(["random", "constant", "periodic", "blocks"]))
    if kind == "constant":
        return [pool[0]] * n
    if kind == "periodic":
        return (pool * n)[:n]
    row = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    if kind == "blocks":
        width = draw(st.integers(2, 6))
        row = [v for v in row for _ in range(width)][:n]
    return row


@st.composite
def symbol_batches(draw):
    n = draw(st.integers(2, 48))
    return draw(st.lists(symbol_rows(n), min_size=1, max_size=6))


def examples(count: int) -> int:
    """``count``, or the loaded profile's ``max_examples`` where that is more."""
    return max(count, settings.default.max_examples)


class TestBatchedMatchLengths:
    @settings(max_examples=examples(150), deadline=None)
    @given(symbol_batches())
    def test_every_row_matches_the_oracle(self, rows):
        lam = match_lengths(np.array(rows, dtype=np.int64))
        assert lam.shape == (len(rows), len(rows[0]))
        for row, got in zip(rows, lam):
            assert got.tolist() == brute_match_lengths(row)

    @settings(max_examples=examples(100), deadline=None)
    @given(symbol_batches(), st.data())
    def test_one_row_equals_its_row_in_a_batch(self, rows, data):
        k = data.draw(st.integers(0, len(rows) - 1))
        batch = match_lengths(np.array(rows, dtype=np.int64))
        assert match_lengths(rows[k]).tolist() == batch[k].tolist()

    @settings(max_examples=examples(100), deadline=None)
    @given(symbol_batches())
    def test_int64_keys_match_the_oracle(self, rows):
        # the int64 ranks and keys that rows past about 46k symbols take; the
        # sorted levels run exactly when some row repeats p symbols
        batch = np.array(rows, dtype=np.int64)
        _, _, p = lz._packed(batch)
        n = batch.shape[1]
        repeats = any(
            len({tuple(row[t:t + p]) for t in range(n - p + 1)}) < n - p + 1
            for row in rows
        )
        dtypes = []
        rank_levels = lz._rank_levels

        def spy(*args):
            levels, sa = rank_levels(*args)
            dtypes.extend(level.dtype for level in levels)
            return levels, sa

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lz, "_INT32_KEYS_BELOW", 0)
            patch.setattr(lz, "_rank_levels", spy)
            lam = match_lengths(batch)
        assert bool(dtypes) == repeats
        assert all(dtype == np.int64 for dtype in dtypes)
        for row, got in zip(rows, lam):
            assert got.tolist() == brute_match_lengths(row)

    @settings(max_examples=examples(150), deadline=None)
    @given(symbol_batches())
    def test_ratio_sums_match_the_oracle(self, rows):
        # the ratio's sums from labels sorted by value, tied rows refined,
        # and the sums of every row's refined suffix-array neighbour LCPs are
        # the oracle's sum(Lambda_t) - n, with int32 keys and with int64 ones
        batch = np.array(rows, dtype=np.int64)
        expected = [sum(brute_match_lengths(row)) - batch.shape[1] for row in rows]
        for below in (lz._INT32_KEYS_BELOW, 0):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(lz, "_INT32_KEYS_BELOW", below)
                assert lz._lcp_sums(batch).tolist() == expected
                assert lz._suffix_lcp(batch)[1].sum(axis=1).tolist() == expected

    def test_ratio_sums_at_the_label_edges(self, monkeypatch):
        # one periodic row among random rows of a 100-symbol alphabet: only
        # it repeats p symbols, so only it goes through _suffix_lcp
        rng = np.random.default_rng(31)
        n = 200
        rows = rng.integers(0, 100, size=(4, n))
        rows[2] = np.tile([3, 1, 4, 1, 5], n // 5)
        refined = []
        suffix_lcp = lz._suffix_lcp

        def spy(batch):
            refined.append(batch.copy())
            return suffix_lcp(batch)

        def check(batch):
            expected = [sum(brute_match_lengths(row)) - n for row in batch]
            assert lz._lcp_sums(batch).tolist() == expected

        monkeypatch.setattr(lz, "_suffix_lcp", spy)
        label, width, p = lz._packed(rows)
        assert (width, p) == (7, 9) and width * p == 63
        assert label.max() >= 1 << 62
        check(rows)
        assert len(refined) == 1 and refined[0].tolist() == rows[2:3].tolist()
        # p = 1, no packing: every repeated symbol ties, so every row is refined
        monkeypatch.setattr(lz, "_LABEL_BITS", 0)
        assert lz._packed(rows)[1:] == (7, 1)
        refined.clear()
        check(rows)
        assert len(refined) == 1 and refined[0].tolist() == rows.tolist()

    def test_long_repeats_cross_from_packed_to_sorted_levels(self):
        # 2-bit fields pack 31 symbols, so repeats of 300 need sorted levels
        # of 31, 62, 124 and 248 symbols on top of the labels
        n = 300
        rows = np.array([
            np.zeros(n, dtype=np.int64),
            np.tile([0, 1], n // 2),
            np.tile([2, 0, 1], n // 3),
            np.r_[np.tile([1, 0, 0], n // 3 - 1), [1, 1, 0]],
        ])
        _, _, p = lz._packed(rows)
        assert p == 31
        runs = []
        rank_levels = lz._rank_levels

        def spy(*args):
            levels, sa = rank_levels(*args)
            runs.append(levels)
            return levels, sa

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lz, "_rank_levels", spy)
            lam = match_lengths(rows)
        (levels,) = runs
        assert all(level.dtype == np.int32 for level in levels)
        assert p << (len(levels) - 1) <= n - 1 < p << len(levels)
        for row, got in zip(rows, lam):
            assert got.tolist() == brute_match_lengths(row)


def label_widths():
    """Every field width with its p, and the bits p fields take."""
    for width in range(1, 64):
        p = max(1, 63 // width)
        yield width, p, p * width


class TestSharedSymbols:
    def test_shared_at_every_power_of_two(self):
        # 0 and 2**k - 1, 2**k, 2**k + 1 below 2**(p * width), for every k:
        # 2**53 +- 1, the first values a float64 cast would round, included
        for width, p, bits in label_widths():
            near = {2**k + d for k in range(bits + 1) for d in (-1, 0, 1)}
            x = np.array(sorted(v for v in near | {0} if v < 2**bits), dtype=np.int64)
            if bits == 63:
                assert {2**53 - 1, 2**53 + 1, 2**63 - 1} <= set(x.tolist())
            assert lz._shared(x, width, p).tolist() == searchsorted_shared(x, width, p).tolist()

    @settings(max_examples=examples(300), deadline=None)
    @given(st.data())
    def test_shared_on_random_xors(self, data):
        # the XOR of two labels below 2**bits that agree above their low k
        # bits is any value below 2**k, all ones included
        width, p, bits = data.draw(st.sampled_from(list(label_widths())))
        values = st.integers(0, 2**bits - 1) | st.just(2**bits - 1)
        pairs = data.draw(st.lists(st.tuples(values, st.integers(0, bits)), min_size=1))
        x = np.array([v & ((1 << k) - 1) for v, k in pairs], dtype=np.int64)
        assert lz._shared(x, width, p).tolist() == searchsorted_shared(x, width, p).tolist()


class TestEntropyRate:
    def test_iid_uniform_alpha4(self):
        rng = np.random.default_rng(7)
        est = entropy_rate(rng.integers(0, 4, size=100_000))
        assert 1.9 <= est.value <= 2.1
        assert est.n == 100_000
        assert est.alphabet_size == 4

    @pytest.mark.parametrize("allow_short", [False, True])
    def test_one_symbol_rejected(self, allow_short):
        with pytest.raises(InsufficientDataError, match="at least 2 symbols$"):
            entropy_rate([1], 2, allow_short=allow_short)

    def test_constant_sequence_near_zero(self):
        est = entropy_rate(np.zeros(4096, dtype=int), alphabet_size=2)
        assert est.value <= 0.02

    def test_periodic_sequence_near_zero(self):
        est = entropy_rate(np.tile([0, 1], 2048))
        assert est.value <= 0.03

    def test_refuses_short_sequences(self):
        with pytest.raises(InsufficientDataError, match="minimum"):
            entropy_rate(np.zeros(100, dtype=int))

    def test_allow_short_warns(self):
        with pytest.warns(UserWarning, match="finite-sample"):
            entropy_rate(np.zeros(100, dtype=int), allow_short=True)

    def test_recoding_invariance(self):
        rng = np.random.default_rng(11)
        x = rng.integers(0, 5, size=2000)
        perm = rng.permutation(5)
        assert (
            entropy_rate(x, allow_short=True).value
            == entropy_rate(perm[x], allow_short=True).value
        )

    def test_monotone_convergence_iid(self):
        # estimates at n=1e5 should beat estimates at n=1e3 (median of 10)
        rng = np.random.default_rng(99)
        err_small, err_big = [], []
        for _ in range(10):
            err_small.append(
                abs(entropy_rate(rng.integers(0, 4, 1000), allow_short=True).value - 2.0)
            )
            err_big.append(abs(entropy_rate(rng.integers(0, 4, 100_000)).value - 2.0))
        assert np.median(err_big) < np.median(err_small)

    def test_accepts_symbol_sequence(self):
        rng = np.random.default_rng(3)
        sym = SymbolSequence("A", 4, rng.integers(0, 4, size=600))
        est = entropy_rate(sym)
        assert est.alphabet_size == 4

    def test_overshoot_flag(self):
        rng = np.random.default_rng(5)
        est = entropy_rate(rng.integers(0, 4, size=100_000))
        assert not est.overshoot_flagged


class TestEstimatorKeyword:
    def test_paper_is_the_ratio_bit_for_bit(self):
        rng = np.random.default_rng(31)
        seqs = [rng.integers(0, 4, size=n) for n in (2, 7, 600, 5000)]
        seqs += [np.zeros(600, dtype=int), np.tile([0, 1, 2], 400)]
        for x in seqs:
            n = x.size
            expected = n * np.log2(n) / float(match_lengths(x).sum())
            assert entropy_rate(x, estimator="paper", allow_short=True).value == expected

    def test_unknown_name_raises_and_lists_names(self):
        x = np.random.default_rng(32).integers(0, 4, size=600)
        calls = (
            lambda: entropy_rate(x, estimator="lz78"),
            lambda: joint_entropy_rate(x, x, estimator="lz78"),
            lambda: mutual_lz(x, x, estimator="lz78"),
        )
        for call in calls:
            with pytest.raises(ValueError, match="lz78") as info:
                call()
            for name in ESTIMATORS:
                assert repr(name) in str(info.value)

    def test_keyword_reaches_joint_and_mutual(self):
        rng = np.random.default_rng(33)
        x, y = rng.integers(0, 4, size=800), rng.integers(0, 4, size=800)
        for name in ESTIMATORS:
            opts = dict(allow_short=True, estimator=name)
            hxy = entropy_rate(x + 4 * y, alphabet_size=16, **opts).value
            assert joint_entropy_rate(x, y, **opts).value == hxy
            hx, hy = entropy_rate(x, **opts).value, entropy_rate(y, **opts).value
            assert mutual_lz(x, y, **opts) == hx + hy - hxy

    def test_default_defined_for_every_length(self):
        # finite and non-negative from n = 2 up, including sequences too
        # short or too repeat-free for a slope fit
        rng = np.random.default_rng(34)
        for n in range(2, 40):
            for alpha in (1, 2, 4, 50):
                est = entropy_rate(rng.integers(0, alpha, size=n), allow_short=True)
                assert np.isfinite(est.value) and est.value >= 0.0

    def test_default_fully_censored_is_zero(self):
        # every match after the first symbol runs to the end of the sequence
        assert entropy_rate(np.zeros(600, dtype=int)).value == 0.0
        assert entropy_rate([3, 3], allow_short=True).value == 0.0


class TestJoin:
    def test_direct_formula(self):
        # the joint rate is the rate of the pairing x + ax * y
        rng = np.random.default_rng(0)
        x = SymbolSequence("x", 2, rng.integers(0, 2, 600))
        y = SymbolSequence("y", 3, rng.integers(0, 3, 600))
        for name in ESTIMATORS:
            joint = joint_entropy_rate(x, y, estimator=name)
            paired = entropy_rate(x.symbols + 2 * y.symbols, estimator=name)
            assert joint.value == paired.value

    def test_self_join_is_injective_recoding(self):
        x = SymbolSequence("x", 3, np.random.default_rng(2).integers(0, 3, 600))
        for name in ESTIMATORS:
            joint = joint_entropy_rate(x, x, estimator=name).value
            assert joint == entropy_rate(4 * x.symbols, estimator=name).value

    def test_product_alphabet(self):
        rng = np.random.default_rng(0)
        x = SymbolSequence("x", 4, rng.integers(0, 4, 600))
        y = SymbolSequence("y", 10, rng.integers(0, 10, 600))
        assert joint_entropy_rate(x, y).alphabet_size == 40

    def test_length_mismatch(self):
        x, y = SymbolSequence("x", 2, [0, 1]), SymbolSequence("y", 2, [0, 1, 0])
        for call in (joint_entropy_rate, mutual_lz):
            with pytest.raises(AlignmentError, match="lengths 2 and 3"):
                call(x, y, allow_short=True)


class TestSymbolRange:
    # a bare array's alphabet is its largest symbol + 1, or the alphabet_size
    # given; a symbol outside [0, alphabet) would collide in the pairing
    def test_shifted_symbols_raise_naming_the_value(self):
        rng = np.random.default_rng(1)
        x, y = rng.integers(0, 3, 5000), rng.integers(0, 3, 5000)
        calls = (
            lambda: entropy_rate(x - 1),
            lambda: joint_entropy_rate(x - 1, y),
            lambda: joint_entropy_rate(y, x - 1),
            lambda: mutual_lz(x - 1, y, estimator="paper"),
        )
        for call in calls:
            with pytest.raises(ValidationError, match=r"symbol -1 .*\[0, 2\)"):
                call()

    def test_symbols_beyond_the_given_alphabet_raise(self):
        x = np.tile([0, 1, 2], 200)
        with pytest.raises(ValidationError, match=r"symbol 2 .*\[0, 2\)"):
            entropy_rate(x, alphabet_size=2)
        assert entropy_rate(x, alphabet_size=3).alphabet_size == 3


class TestJointAndMutual:
    def test_self_joint_equals_marginal(self):
        rng = np.random.default_rng(21)
        x = SymbolSequence("x", 4, rng.integers(0, 4, 2000))
        hx = entropy_rate(x, allow_short=True).value
        hxx = joint_entropy_rate(x, x, allow_short=True).value
        assert hxx == hx

    def test_constant_component_adds_nothing(self):
        rng = np.random.default_rng(22)
        y = SymbolSequence("y", 4, rng.integers(0, 4, 5000))
        const = SymbolSequence("c", 2, np.zeros(5000, dtype=int))
        hy = entropy_rate(y, allow_short=True).value
        hcy = joint_entropy_rate(const, y, allow_short=True).value
        assert hcy == pytest.approx(hy, abs=1e-12)

    def test_joint_at_least_each_marginal(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            x = SymbolSequence("x", 3, rng.integers(0, 3, 800))
            y = SymbolSequence("y", 4, rng.integers(0, 4, 800))
            hxy = joint_entropy_rate(x, y, allow_short=True).value
            assert hxy >= entropy_rate(x, allow_short=True).value - 1e-12
            assert hxy >= entropy_rate(y, allow_short=True).value - 1e-12

    def test_mutual_self_equals_entropy(self):
        rng = np.random.default_rng(24)
        x = SymbolSequence("x", 4, rng.integers(0, 4, 3000))
        assert mutual_lz(x, x, allow_short=True) == pytest.approx(
            entropy_rate(x, allow_short=True).value, abs=1e-12
        )

    def test_mutual_symmetry_exact(self):
        rng = np.random.default_rng(25)
        for _ in range(10):
            x = SymbolSequence("x", 3, rng.integers(0, 3, 700))
            y = SymbolSequence("y", 5, rng.integers(0, 5, 700))
            assert mutual_lz(x, y, allow_short=True) == mutual_lz(y, x, allow_short=True)

    def test_permutation_remap_preserves_information(self):
        rng = np.random.default_rng(26)
        x = SymbolSequence("x", 4, rng.integers(0, 4, 20_000))
        perm = np.array([2, 0, 3, 1])
        y = SymbolSequence("y", 4, perm[x.symbols])
        assert mutual_lz(x, y) == pytest.approx(entropy_rate(x).value, abs=1e-12)

    def test_independent_mutual_shrinks_with_n(self):
        # the raw estimator carries a positive finite-sample offset for
        # independent sources; it must shrink as n grows
        rng = np.random.default_rng(27)
        small = [
            mutual_lz(rng.integers(0, 4, 2000), rng.integers(0, 4, 2000), allow_short=True)
            for _ in range(5)
        ]
        big = [
            mutual_lz(rng.integers(0, 4, 100_000), rng.integers(0, 4, 100_000))
            for _ in range(3)
        ]
        assert np.median(np.abs(big)) < np.median(np.abs(small))
        assert np.median(np.abs(big)) < 0.3


class TestOneRatePass:
    def test_the_ratio_forms_no_match_lengths(self, monkeypatch):
        # the paper's ratio, which every MIR distance uses, sums the LCPs
        def refuse(rows):
            raise AssertionError("the ratio called lz.match_lengths")

        monkeypatch.setattr(lz, "match_lengths", refuse)
        rng = np.random.default_rng(43)
        syms = [SymbolSequence(f"T{i}", 4, rng.integers(0, 4, 600)) for i in range(4)]
        build_matrix(syms, "mir")
        mir_distance(syms[0], syms[1])
        mutual_lz(syms[0], syms[1], estimator="paper")

    def test_mutual_rates_share_kernel_calls_within_the_budget(self, monkeypatch):
        # three rows fit in one call at m = 2500; at m = 1e5 each row is one
        shapes = []
        kernel = lz.match_lengths

        def counting(rows):
            shapes.append(np.shape(rows))
            return kernel(rows)

        monkeypatch.setattr(lz, "match_lengths", counting)
        rng = np.random.default_rng(41)
        for m, calls in ((2500, 1), (100_000, 3)):
            shapes.clear()
            mutual_lz(rng.integers(0, 4, m), rng.integers(0, 4, m))
            assert len(shapes) == calls
            assert sum(shape[0] for shape in shapes) == 3


# slope estimates whose last bits differed between one and two OpenBLAS
# threads while the fit took BLAS dot products
SLOPE_PROBE = """if True:
    import numpy as np
    from mirnet import lz
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        x, y = rng.integers(0, 4, 100_000), rng.integers(0, 4, 100_000)
        print(repr(lz.entropy_rate(x).value), repr(lz.joint_entropy_rate(x, y).value))
"""


def test_slope_bits_do_not_depend_on_the_blas_thread_count():
    src = str(Path(lz.__file__).resolve().parents[1])
    printed = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", SLOPE_PROBE], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        printed.append(result.stdout)
    assert printed[0] == printed[1]


SHORT = [
    SymbolSequence(f"T{i}", 4, np.random.default_rng(40 + i).integers(0, 4, 300))
    for i in range(3)
]
ENTRY_POINTS = {
    "entropy_rate": lambda: entropy_rate(SHORT[0], allow_short=True),
    "joint_entropy_rate": lambda: joint_entropy_rate(*SHORT[:2], allow_short=True),
    "mutual_lz": lambda: mutual_lz(*SHORT[:2], allow_short=True),
    "build_matrix": lambda: build_matrix(SHORT, "mir", allow_short=True),
    "mir_distance": lambda: mir_distance(*SHORT[:2], allow_short=True),
    "mir_prime_distance": lambda: mir_prime_distance(*SHORT[:2], allow_short=True),
}


@pytest.mark.parametrize("entry_point", sorted(ENTRY_POINTS))
def test_short_series_warns_once_at_the_caller(entry_point):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ENTRY_POINTS[entry_point]()
    assert [w.filename for w in caught] == [__file__]
    assert "only 300 symbols (minimum 500)" in str(caught[0].message)
