import logging
import multiprocessing
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import rankdata

from tcm import supervised
from tcm.calibration import calibrate
from tcm.clustering import FEATURE_MODES, PixelFeatureConfig
from tcm.core import BATCH, divergence_series, divergence_store
from tcm.data import FootprintDataset
from tcm.errors import DegenerateRanks, MissingPrediction
from tcm.evaluation import (
    DivergenceCache,
    _ranks,
    detect_all,
    evaluate_semi_supervised,
    repeated_splits,
    score,
    spearman,
)
from tcm.supervised import avg_color_series, color_over_time_features
from tcm.synthgen import SynthConfig, generate


class TestScore:
    def test_perfect_predictions(self):
        res = score({"a": 2011, "b": 2013}, {"a": 2011, "b": 2013})
        assert res.accuracy == 1.0 and res.mae == 0.0 and res.n == 2

    def test_half_right(self):
        res = score({"a": 2011, "b": 2013}, {"a": 2011, "b": 2011})
        assert res.accuracy == 0.5
        assert res.mae == 1.0

    def test_mae_index_uses_year_axis(self):
        res = score({"a": 2018}, {"a": 2011}, years=(2011, 2013, 2015, 2017, 2018))
        assert res.mae == 7.0
        assert res.mae_index == 4.0

    def test_missing_prediction(self):
        with pytest.raises(MissingPrediction):
            score({"a": 2011}, {"a": 2011, "b": 2013})

    def test_extra_predictions_ignored(self):
        res = score({"a": 2011, "zz": 1999}, {"a": 2011})
        assert res.n == 1 and res.accuracy == 1.0

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10**9), n=st.integers(1, 40))
    def test_mae_zero_iff_acc_one(self, seed, n):
        rng = np.random.default_rng(seed)
        labels = {f"f{i}": int(rng.integers(2010, 2016)) for i in range(n)}
        preds = {f"f{i}": int(rng.integers(2010, 2016)) for i in range(n)}
        res = score(preds, labels)
        assert (res.mae == 0.0) == (res.accuracy == 1.0)

    def test_permutation_invariant(self):
        labels = {f"f{i}": 2011 + (i % 3) for i in range(9)}
        preds = {f"f{i}": 2011 + ((i + 1) % 3) for i in range(9)}
        shuffled_preds = dict(reversed(list(preds.items())))
        a = score(preds, labels)
        b = score(shuffled_preds, labels)
        assert a.accuracy == b.accuracy and a.mae == b.mae


class TestSpearman:
    def test_increasing_is_one(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_decreasing_is_minus_one(self):
        assert spearman([1, 2, 3, 4], [5, 4, 3, 1]) == pytest.approx(-1.0)

    def test_hand_ranked_example(self):
        assert spearman([1, 2, 3], [2, 1, 3]) == pytest.approx(0.5)

    def test_tie_handling_average_ranks(self):
        # x ranks: (1.5, 1.5, 3); monotone y keeps correlation high but < 1.
        rho = spearman([5, 5, 9], [1, 2, 3])
        assert 0.0 < rho < 1.0
        assert rho == pytest.approx(0.866025403784, abs=1e-9)

    def test_degenerate_ranks(self):
        with pytest.raises(DegenerateRanks):
            spearman([1.0, 1.0, 1.0], [1, 2, 3])

    def test_ranks_match_scipy_on_ties(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            values = rng.integers(0, 6, int(rng.integers(1, 30))) / 2.0
            assert _ranks(values).tolist() == rankdata(values, method="average").tolist()

    def test_scale_invariance(self):
        a = spearman([1, 5, 2, 8], [3.0, 1.0, 9.0, 4.0])
        b = spearman([10, 50, 20, 80], [0.3, 0.1, 0.9, 0.4])
        assert a == pytest.approx(b)


def small_dataset(seed=0, footprints=12, weights=(0.5, 0.3, 0.2)):
    return generate(SynthConfig(
        height=96, width=96, layers=3, footprints=footprints,
        size_range=(5.0, 8.0), margin=8.0,
        year_weights=weights, seed=seed,
    ))


class TestRepeatedSplits:
    def test_mode_on_constant_labels_is_perfect(self):
        ds = small_dataset(weights=(1.0, 0.0, 0.0))
        summary = repeated_splits(ds, "mode", n_repeats=10, seed=0,
                                  k_grid=(2,), r_grid=(3.0,))
        assert summary.acc_mean == 1.0
        assert summary.acc_std == 0.0
        assert summary.mae_mean == 0.0

    def test_record_count(self):
        ds = small_dataset()
        summary = repeated_splits(ds, "mode", n_repeats=50, seed=0,
                                  k_grid=(2,), r_grid=(3.0,))
        assert len(summary.records) == 50
        assert {r.repeat for r in summary.records} == set(range(50))

    def test_reproducible_given_seed(self):
        ds = small_dataset()
        a = repeated_splits(ds, "mode", n_repeats=8, seed=5, k_grid=(2,), r_grid=(3.0,))
        b = repeated_splits(ds, "mode", n_repeats=8, seed=5, k_grid=(2,), r_grid=(3.0,))
        assert [r.accuracy for r in a.records] == [r.accuracy for r in b.records]

    def test_mode_accuracy_tracks_modal_frequency(self):
        ds = generate(SynthConfig(
            height=144, width=144, layers=3, footprints=40,
            size_range=(5.0, 8.0), margin=8.0,
            year_weights=(0.7, 0.2, 0.1), seed=0,
        ))
        summary = repeated_splits(ds, "mode", n_repeats=40, seed=1,
                                  k_grid=(2,), r_grid=(3.0,))
        freq = np.mean([ds.labels[i][0] == 1 for i in ds.labeled_ids()])
        assert summary.acc_mean == pytest.approx(freq, abs=0.12)

    def test_supervised_tcm_on_small_synthetic(self):
        ds = small_dataset(footprints=16)
        cache = DivergenceCache(ds, seed=0)
        summary = repeated_splits(ds, "tcm_supervised", n_repeats=6, seed=0,
                                  k_grid=(4,), r_grid=(4.0,), cache=cache)
        assert summary.acc_mean > 0.8

    def test_rejects_semi_method(self):
        ds = small_dataset()
        with pytest.raises(ValueError):
            repeated_splits(ds, "tcm_semi", n_repeats=2, seed=0,
                            k_grid=(2,), r_grid=(3.0,))

    def test_needs_enough_labels(self):
        ds = small_dataset(footprints=3)
        with pytest.raises(ValueError):
            repeated_splits(ds, "mode", n_repeats=2, seed=0, k_grid=(2,), r_grid=(3.0,))


class TestBudgetWarning:
    @pytest.mark.parametrize("method, fits_per_split", [("tcm_lr", 2), ("avgcolor_lr", 1)])
    def test_fits_stopped_by_the_budget_are_counted_once(self, monkeypatch, caplog,
                                                         method, fits_per_split):
        ds = small_dataset(footprints=14, seed=2)
        cache = DivergenceCache(ds, seed=0)
        monkeypatch.setattr(supervised, "LR_MAX_ITER", 1)
        with caplog.at_level(logging.WARNING, logger="tcm"):
            repeated_splits(ds, method, n_repeats=3, seed=0, k_grid=(2, 4), r_grid=(3.0,),
                            cache=cache)
        warnings = [r for r in caplog.records if r.name == "tcm"]
        assert len(warnings) == 1 and warnings[0].levelno == logging.WARNING
        assert f"{method}: {3 * fits_per_split} logistic" in warnings[0].getMessage()

    def test_converged_fits_log_nothing(self, caplog):
        ds = small_dataset(footprints=14, seed=2)
        with caplog.at_level(logging.WARNING, logger="tcm"):
            repeated_splits(ds, "tcm_lr", n_repeats=3, seed=0, k_grid=(2, 4), r_grid=(3.0,))
        assert not [r for r in caplog.records if r.name == "tcm"]


class TestPredictionRange:
    def test_all_methods_stay_within_time_axis(self):
        ds = small_dataset(footprints=14, seed=2)
        cache = DivergenceCache(ds, seed=0)
        from tcm.evaluation import _labelled_rows, _predict_split

        rows, labels = _labelled_rows(cache)
        train, test = rows[:10], rows[10:]
        for method in ("tcm_supervised", "tcm_lr", "avgcolor_threshold",
                       "avgcolor_lr", "color_over_time", "mode"):
            preds, _ = _predict_split(method, cache, train, labels[:10], test, (2, 4), (3.0,))
            assert len(preds) == len(test)
            assert all(1 <= p <= ds.n_layers for p in preds), method


class TestDivergenceCache:
    def test_series_cached_and_stable(self):
        ds = small_dataset(footprints=8)
        cache = DivergenceCache(ds, seed=0)
        first = cache.series(3, 4.0)
        again = cache.series(3, 4.0)
        assert first is again
        fresh = DivergenceCache(ds, seed=0).series(3, 4.0)
        assert np.array_equal(first, fresh)

    @pytest.mark.parametrize("mode", FEATURE_MODES)
    def test_workers_do_not_change_series(self, mode):
        ds = small_dataset(footprints=36)
        assert len(ds.polygons) > BATCH  # more than one batch, so the pool runs
        one, four = (DivergenceCache(ds, PixelFeatureConfig(mode=mode), seed=0, workers=w)
                     for w in (1, 4))
        s1 = one.series(3, 4.0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # more workers than cores, switching as often as it can
        try:
            s4 = four.series(3, 4.0)
        finally:
            sys.setswitchinterval(interval)
        assert one.ids == four.ids
        assert np.array_equal(s1, s4)
        assert one.fit_stats == four.fit_stats

    def test_workers_start_no_child_process(self, monkeypatch):
        def fork():
            raise AssertionError("a child process was started")

        monkeypatch.setattr(os, "fork", fork)
        ds = small_dataset(footprints=36)
        assert len(DivergenceCache(ds, seed=0, workers=2).series(3, 4.0)) == len(ds.polygons)
        assert multiprocessing.active_children() == []

    def test_random_polygon_ids_never_reach_footprint_values(self):
        ds = small_dataset(footprints=8)
        renamed = ds.polygons[0].translated(0.0, 0.0, new_id="rand-00000")
        ds = FootprintDataset(ds.scenes, [renamed] + ds.polygons[1:], None)
        cache = DivergenceCache(ds, seed=0)
        calibrate(ds, k_grid=[3], r_grid=[4.0], n_random=6, seed=0, cache=cache)
        after = cache.series(3, 4.0)
        fresh = DivergenceCache(ds, seed=0).series(3, 4.0)
        assert np.array_equal(after, fresh)

    def test_tables_are_read_only_rows_in_id_order(self):
        ds = small_dataset(footprints=8)
        cache = DivergenceCache(ds, seed=0)
        assert cache.ids == tuple(sorted(p.id for p in ds.polygons))
        chips = cache.chips(4.0)
        for table, row_of in ((cache.series(3, 4.0), lambda ch: divergence_series(ch, 3)),
                              (cache.avg_color(4.0), avg_color_series),
                              (cache.color_deltas(4.0), color_over_time_features)):
            assert table.dtype == np.float64 and len(table) == len(cache.ids)
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 1.0
            for row, fid in zip(table, cache.ids):
                assert np.array_equal(row, row_of(chips[fid]))

    def test_semi_supervised_checks_for_labels_before_calibrating(self):
        ds = small_dataset(footprints=8)
        ds = FootprintDataset(ds.scenes, ds.polygons, None)
        cache = DivergenceCache(ds, seed=0)
        with pytest.raises(ValueError, match="needs labels"):
            evaluate_semi_supervised(ds, (2,), (3.0,), n_random=4, seed=0, cache=cache)
        assert cache.fit_stats.fits == 0


class TestStoreSettings:
    def test_cache_with_other_settings_is_refused(self):
        ds = small_dataset(footprints=8)
        cache = DivergenceCache(ds, seed=0)
        with pytest.raises(ValueError, match="seed"):
            evaluate_semi_supervised(ds, (2,), (3.0,), n_random=4, seed=1, cache=cache)
        with pytest.raises(ValueError, match="dataset"):
            detect_all(small_dataset(footprints=8), 2, 3.0, 0.5, cache=cache)

    def test_matching_cache_is_shared_whatever_its_workers(self):
        ds = small_dataset(footprints=8)
        cache = DivergenceCache(ds, seed=3, workers=4)
        assert divergence_store(cache, ds, 3) is cache
        fresh = divergence_store(None, ds, 3)
        assert fresh is not cache and (fresh.seed, fresh.workers) == (3, 1)
