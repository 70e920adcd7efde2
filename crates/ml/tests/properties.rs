//! Property-based tests for the ML crate.

use proptest::prelude::*;
use wd_ml::{
    metrics, BoostedTreesRegressor, BoostingParams, Dataset, ErrorHistogram, LinearRegressor,
    Normalization, Normalizer, RegressionTree, Regressor, TreeParams,
};

fn arb_dataset(max_rows: usize) -> impl Strategy<Value = Dataset> {
    proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0, -50.0f64..50.0), 4..max_rows).prop_map(
        |rows| {
            let mut data = Dataset::new(vec!["x0".into(), "x1".into()]);
            for (x0, x1, noise) in rows {
                // a deterministic target with mild nonlinearity
                let y = 0.5 * x0 + (x1 / 25.0).floor() * 10.0 + noise * 0.01;
                data.push(vec![x0, x1], y).unwrap();
            }
            data
        },
    )
}

proptest! {
    /// Train/test splitting partitions the rows exactly and is deterministic per seed.
    #[test]
    fn split_partitions_rows(data in arb_dataset(60), fraction in 0.0f64..=1.0, seed in 0u64..100) {
        let (train_a, test_a) = data.train_test_split(fraction, seed);
        let (train_b, test_b) = data.train_test_split(fraction, seed);
        prop_assert_eq!(train_a.len() + test_a.len(), data.len());
        prop_assert_eq!(train_a, train_b);
        prop_assert_eq!(test_a, test_b);
    }

    /// Min-max normalisation maps every training feature into [0, 1].
    #[test]
    fn minmax_is_bounded(data in arb_dataset(60)) {
        let normalizer = Normalizer::fit(&data, Normalization::MinMax).unwrap();
        let transformed = normalizer.transform_dataset(&data);
        for &value in transformed.feature_matrix() {
            prop_assert!((-1e-9..=1.0 + 1e-9).contains(&value));
        }
    }

    /// A regression tree's predictions on its own training data never have a larger
    /// mean-squared error than the constant (mean) predictor.
    #[test]
    fn tree_is_no_worse_than_the_mean(data in arb_dataset(80)) {
        let mut tree = RegressionTree::new(TreeParams::default());
        tree.fit(&data).unwrap();
        let predictions = tree.predict_batch(data.feature_matrix(), data.n_features());
        let tree_rmse = metrics::root_mean_squared_error(data.targets(), &predictions);
        let mean = data.target_mean();
        let mean_rmse = metrics::root_mean_squared_error(
            data.targets(),
            &vec![mean; data.len()],
        );
        prop_assert!(tree_rmse <= mean_rmse + 1e-9);
    }

    /// Boosted trees fit the training data roughly as well as (usually better than) a
    /// single tree of the same depth, improve monotonically over boosting rounds in
    /// aggregate, and always produce finite predictions.
    #[test]
    fn boosting_training_error_is_controlled(data in arb_dataset(60)) {
        let tree_params = TreeParams { max_depth: 3, min_samples_leaf: 2, max_split_candidates: 16 };
        let mut single = RegressionTree::new(tree_params);
        single.fit(&data).unwrap();
        let mut boosted = BoostedTreesRegressor::new(BoostingParams {
            n_estimators: 80,
            learning_rate: 0.25,
            subsample: 1.0,
            tree: tree_params,
            seed: 1,
        });
        boosted.fit(&data).unwrap();
        let single_rmse = metrics::root_mean_squared_error(
            data.targets(), &single.predict_batch(data.feature_matrix(), data.n_features()));
        let boosted_rmse = metrics::root_mean_squared_error(
            data.targets(), &boosted.predict_batch(data.feature_matrix(), data.n_features()));
        // with enough rounds the ensemble is not meaningfully worse than the greedy
        // single tree on its own training data (small slack for shrinkage not having
        // fully converged on awkward datasets)
        prop_assert!(boosted_rmse <= single_rmse * 1.05 + 0.05,
            "boosted {boosted_rmse} vs single tree {single_rmse}");
        // the staged training loss never increases by more than numerical noise overall
        let losses = boosted.staged_training_mse(&data);
        prop_assert!(*losses.last().unwrap() <= losses.first().unwrap() + 1e-9);
        for i in 0..data.len() {
            prop_assert!(boosted.predict_one(data.features(i)).is_finite());
        }
        // the flat-forest batch path is bit-identical to the per-row walk
        let batched = boosted.predict_batch(data.feature_matrix(), data.n_features());
        for (i, &prediction) in batched.iter().enumerate() {
            prop_assert_eq!(
                prediction.to_bits(),
                boosted.predict_one(data.features(i)).to_bits(),
                "row {} of the batched prediction diverged", i);
        }
    }

    /// Both batch kernels of the boosted ensemble — the seed reference and the
    /// cache-blocked branch-free `predict_batch` — produce bit-identical
    /// predictions to `predict_one` accumulation, on full-width rows, batch sizes
    /// that are not a multiple of the row block, width-1 (narrow) rows and empty
    /// batches.
    #[test]
    fn batch_kernel_lanes_are_bit_identical(
        data in arb_dataset(60),
        prefix_rows in 0usize..9,
        seed in 0u64..20,
    ) {
        let mut model = BoostedTreesRegressor::new(BoostingParams {
            n_estimators: 30,
            learning_rate: 0.2,
            subsample: 0.8,
            tree: TreeParams { max_depth: 4, min_samples_leaf: 2, max_split_candidates: 16 },
            seed,
        });
        model.fit(&data).unwrap();
        let width = data.n_features();

        // full batch plus an arbitrary prefix (odd sizes exercise the block tail)
        let prefix = prefix_rows.min(data.len());
        for rows in [data.feature_matrix(), &data.feature_matrix()[..prefix * width]] {
            let reference = model.predict_batch_reference(rows, width);
            let batch = model.predict_batch(rows, width);
            prop_assert_eq!(reference.len(), rows.len() / width);
            for (i, row) in rows.chunks_exact(width).enumerate() {
                let one = model.predict_one(row);
                prop_assert_eq!(one.to_bits(), reference[i].to_bits(), "reference row {}", i);
                prop_assert_eq!(one.to_bits(), batch[i].to_bits(), "batch row {}", i);
            }
        }

        // width-1 rows are narrower than the 2-feature schema: missing features
        // must read as 0.0 on both kernels
        let narrow: Vec<f64> = data.feature_matrix().iter().step_by(width).take(11).copied().collect();
        let narrow_reference = model.predict_batch_reference(&narrow, 1);
        let narrow_batch = model.predict_batch(&narrow, 1);
        for (i, value) in narrow.iter().enumerate() {
            let one = model.predict_one(&[*value]);
            prop_assert_eq!(one.to_bits(), narrow_reference[i].to_bits(), "narrow reference row {}", i);
            prop_assert_eq!(one.to_bits(), narrow_batch[i].to_bits(), "narrow row {}", i);
        }

        // empty batches predict nothing on either kernel
        prop_assert!(model.predict_batch(&[], width).is_empty());
        prop_assert!(model.predict_batch_reference(&[], width).is_empty());
    }

    /// Linear regression reproduces an exactly linear relationship to high precision.
    #[test]
    fn linear_regression_recovers_linear_targets(
        intercept in -10.0f64..10.0,
        beta0 in -5.0f64..5.0,
        beta1 in -5.0f64..5.0,
        xs in proptest::collection::vec((0.0f64..20.0, 0.0f64..20.0), 8..40),
    ) {
        // require some spread so the system is well conditioned
        prop_assume!(xs.iter().any(|(a, _)| *a > 1.0) && xs.iter().any(|(_, b)| *b > 1.0));
        let mut data = Dataset::new(vec!["a".into(), "b".into()]);
        for (a, b) in &xs {
            data.push(vec![*a, *b], intercept + beta0 * a + beta1 * b).unwrap();
        }
        let mut model = LinearRegressor::with_ridge(1e-9);
        model.fit(&data).unwrap();
        for (a, b) in xs.iter().take(5) {
            let expected = intercept + beta0 * a + beta1 * b;
            let predicted = model.predict_one(&[*a, *b]);
            prop_assert!((expected - predicted).abs() < 1e-4,
                "expected {expected}, predicted {predicted}");
        }
    }

    /// Metrics invariants: errors are non-negative, MAE ≤ RMSE, histogram conserves counts.
    #[test]
    fn metric_invariants(
        pairs in proptest::collection::vec((0.01f64..100.0, 0.0f64..100.0), 1..50),
    ) {
        let measured: Vec<f64> = pairs.iter().map(|(m, _)| *m).collect();
        let predicted: Vec<f64> = pairs.iter().map(|(_, p)| *p).collect();
        let mae = metrics::mean_absolute_error(&measured, &predicted);
        let rmse = metrics::root_mean_squared_error(&measured, &predicted);
        let mape = metrics::mean_absolute_percent_error(&measured, &predicted);
        prop_assert!(mae >= 0.0 && rmse >= 0.0 && mape >= 0.0);
        prop_assert!(mae <= rmse + 1e-9, "MAE {mae} must not exceed RMSE {rmse}");

        let errors = metrics::absolute_errors(&measured, &predicted);
        let histogram = ErrorHistogram::new(vec![0.1, 1.0, 10.0], &errors);
        prop_assert_eq!(histogram.total() as usize, errors.len());
    }
}

/// FNV-1a over the bit patterns of `values`: any change to any bit of any value
/// changes the fingerprint.
fn fnv_fingerprint(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for value in values {
        for byte in value.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// A deterministic dataset built to stress ties in the split search: a three-way
/// one-hot affinity (0/1 columns), a 160-value input size, and a column that mixes
/// `-0.0` with `0.0` (distinct under `f64::total_cmp`, equal under `==`).
fn tie_heavy_dataset(rows: usize) -> Dataset {
    let mut data = Dataset::new(vec![
        "compact".into(),
        "scatter".into(),
        "balanced".into(),
        "size".into(),
        "signed_zero".into(),
    ]);
    for i in 0..rows {
        let affinity = (i * 7 / 3) % 3;
        let size = ((i * 37) % 160) as f64 * 0.025;
        let signed_zero = match (i * 13) % 5 {
            0 | 3 => -0.0,
            1 => 0.0,
            _ => 1.0,
        };
        let onehot: Vec<f64> = (0..3).map(|a| f64::from(u8::from(a == affinity))).collect();
        // deterministic pseudo-noise from a multiplicative hash of the row index
        let noise =
            ((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as f64 / (1u64 << 24) as f64;
        let target = 3.0 * size + 2.0 * affinity as f64 + signed_zero + 0.1 * noise;
        data.push(
            vec![onehot[0], onehot[1], onehot[2], size, signed_zero],
            target,
        )
        .unwrap();
    }
    data
}

/// Golden fingerprint of a default-parameter boosted fit on the tie-heavy dataset:
/// every bit of the batched predictions and the staged training loss is pinned, so
/// any change to the split search that alters a split, threshold or leaf fails here.
#[test]
fn default_boosted_fit_matches_the_golden_fingerprint() {
    let data = tie_heavy_dataset(1_200);
    let mut model = BoostedTreesRegressor::new(BoostingParams::default());
    model.fit(&data).unwrap();
    let predictions = model.predict_batch(data.feature_matrix(), data.n_features());
    let losses = model.staged_training_mse(&data);
    let fingerprint = fnv_fingerprint(predictions.into_iter().chain(losses));
    assert_eq!(
        fingerprint, 0xee8c_b7c5_8206_2de5,
        "boosted-tree fit changed: fingerprint {fingerprint:#018x}"
    );
}
