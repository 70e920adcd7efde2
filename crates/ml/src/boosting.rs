//! Gradient-boosted regression trees (least-squares boosting).
//!
//! This is the "Boosted Decision Tree Regression" the paper selects for execution-time
//! prediction: an additive ensemble of shallow CART trees, each fitted to the residuals
//! of the current ensemble, combined with a shrinkage (learning-rate) factor and
//! optional row subsampling (stochastic gradient boosting).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::dataset::Dataset;
use crate::error::MlError;
use crate::model::Regressor;
use crate::tree::{select_child, RankedFeatures, RegressionTree, TreeParams, LEAF};

/// Hyper-parameters of the boosted ensemble.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoostingParams {
    /// Number of boosting rounds (trees).
    pub n_estimators: usize,
    /// Shrinkage applied to every tree's contribution.
    pub learning_rate: f64,
    /// Fraction of rows sampled (without replacement) for each tree; 1.0 disables
    /// subsampling.
    pub subsample: f64,
    /// Parameters of the individual trees.
    pub tree: TreeParams,
    /// Seed for the subsampling RNG.
    pub seed: u64,
}

impl Default for BoostingParams {
    fn default() -> Self {
        BoostingParams {
            n_estimators: 200,
            learning_rate: 0.08,
            subsample: 0.85,
            tree: TreeParams {
                max_depth: 6,
                min_samples_leaf: 3,
                max_split_candidates: 48,
            },
            seed: 0x0b00_57ed,
        }
    }
}

impl BoostingParams {
    /// A faster, lower-capacity configuration for unit tests and smoke runs.
    pub fn fast() -> Self {
        BoostingParams {
            n_estimators: 40,
            learning_rate: 0.15,
            subsample: 1.0,
            tree: TreeParams {
                max_depth: 4,
                min_samples_leaf: 2,
                max_split_candidates: 32,
            },
            seed: 7,
        }
    }
}

/// Rows per block of the cache-blocked batch kernel: one block's rows plus a
/// tree's SoA arrays stay L1/L2-resident while the tree loop streams the arena,
/// so each tree's nodes are touched once per block instead of once per row
/// stride across the whole batch.
const ROW_BLOCK: usize = 64;

/// The whole fitted ensemble flattened into **one contiguous arena**: every tree's
/// [`crate::FlatTree`] arrays concatenated (child indices rebased), plus one root
/// offset per tree.  All inference *and* the training-time diagnostics
/// ([`BoostedTreesRegressor::staged_training_mse`]) walk these four arrays; the
/// per-tree [`RegressionTree`] arenas are kept only for structural introspection.
///
/// `min_width` is the validation computed once at [`FlatForest::from_trees`]
/// time: rows at least that wide cannot index out of bounds at any split node,
/// which lets the batch kernel drop the per-node
/// `features.get(..).unwrap_or(0.0)` check.  Narrower rows (legal — missing
/// features read as 0.0) take the checked walk.
#[derive(Debug, Clone, Default)]
struct FlatForest {
    feature: Vec<u32>,
    threshold: Vec<f64>,
    left: Vec<u32>,
    right: Vec<u32>,
    roots: Vec<u32>,
    min_width: usize,
}

impl FlatForest {
    /// Concatenate the fitted trees into one arena, recording the widest split
    /// feature index so batch walks can be validated once instead of per node.
    fn from_trees(trees: &[RegressionTree]) -> Self {
        let total: usize = trees.iter().map(RegressionTree::node_count).sum();
        let mut forest = FlatForest {
            feature: Vec::with_capacity(total),
            threshold: Vec::with_capacity(total),
            left: Vec::with_capacity(total),
            right: Vec::with_capacity(total),
            roots: Vec::with_capacity(trees.len()),
            min_width: 0,
        };
        for tree in trees {
            let offset = forest.feature.len() as u32;
            forest.roots.push(offset);
            let flat = tree.flatten();
            forest.min_width = forest.min_width.max(flat.min_width());
            forest.feature.extend_from_slice(&flat.feature);
            forest.threshold.extend_from_slice(&flat.threshold);
            // rebase the child indices into the shared arena (leaf slots hold 0 and
            // are never followed, so rebasing them is harmless)
            forest.left.extend(flat.left.iter().map(|&l| l + offset));
            forest.right.extend(flat.right.iter().map(|&r| r + offset));
        }
        forest
    }

    /// Number of trees in the arena.
    fn tree_count(&self) -> usize {
        self.roots.len()
    }

    /// Leaf value of tree `tree` for `features` — the same walk as
    /// [`crate::FlatTree::predict_one`], over the shared arrays.  Missing
    /// features (row narrower than the split feature) read as 0.0.
    #[inline]
    fn leaf(&self, tree: usize, features: &[f64]) -> f64 {
        let mut index = self.roots[tree] as usize;
        loop {
            let feature = self.feature[index];
            if feature == LEAF {
                return self.threshold[index];
            }
            let value = features.get(feature as usize).copied().unwrap_or(0.0);
            index = if value <= self.threshold[index] {
                self.left[index] as usize
            } else {
                self.right[index] as usize
            };
        }
    }

    /// The bounds-check-free, branch-free walk from an explicit root.
    ///
    /// # Safety
    ///
    /// `row.len() >= self.min_width`, and `root` must be one of `self.roots`
    /// (child indices then stay in-arena by construction).
    #[inline]
    unsafe fn leaf_unchecked(&self, root: usize, row: &[f64]) -> f64 {
        let mut index = root;
        loop {
            // SAFETY: `index` starts at a caller-validated root and every
            // subsequent value comes from `left`/`right`, which `from_trees`
            // builds strictly in-arena; the four parallel arrays share one length.
            let feature = *self.feature.get_unchecked(index);
            let threshold = *self.threshold.get_unchecked(index);
            if feature == LEAF {
                return threshold;
            }
            // SAFETY: `feature < min_width <= row.len()` — `from_trees` folds every
            // split feature into `min_width` and the caller checked the row width.
            let value = *row.get_unchecked(feature as usize);
            index = select_child(
                *self.left.get_unchecked(index),
                *self.right.get_unchecked(index),
                value <= threshold,
            ) as usize;
        }
    }

    /// Add `scale * leaf(tree, row)` to `out[i]` for every row — one tree's
    /// contribution to a whole batch, dispatching to the unchecked branch-free
    /// walk whenever `width` covers every split feature of the forest.
    fn accumulate_tree(
        &self,
        tree: usize,
        rows: &[f64],
        width: usize,
        scale: f64,
        out: &mut [f64],
    ) {
        let root = self.roots[tree] as usize;
        if width == 0 {
            let value = self.leaf(tree, &[]);
            for slot in out.iter_mut() {
                *slot += scale * value;
            }
        } else if width >= self.min_width {
            for (slot, row) in out.iter_mut().zip(rows.chunks_exact(width)) {
                // SAFETY: `width >= min_width` (checked above) and `root` comes
                // from `self.roots`.
                *slot += scale * unsafe { self.leaf_unchecked(root, row) };
            }
        } else {
            for (slot, row) in out.iter_mut().zip(rows.chunks_exact(width)) {
                *slot += scale * self.leaf(tree, row);
            }
        }
    }

    /// Cache-blocked batch kernel: rows in [`ROW_BLOCK`]-sized blocks outer,
    /// trees inner, unchecked branch-free walks.  Each row still accumulates
    /// its trees in forest order, so results are bit-identical to
    /// [`FlatForest::leaf`] accumulation row by row.
    ///
    /// Caller must ensure `width > 0`, `width >= self.min_width` and
    /// `rows.len()` is a multiple of `width`.
    fn predict_blocked(&self, rows: &[f64], width: usize, base: f64, scale: f64) -> Vec<f64> {
        debug_assert!(width > 0 && width >= self.min_width);
        let mut predictions = vec![base; rows.len() / width];
        for (block_rows, block_out) in rows
            .chunks(ROW_BLOCK * width)
            .zip(predictions.chunks_mut(ROW_BLOCK))
        {
            for &root in &self.roots {
                let root = root as usize;
                for (slot, row) in block_out.iter_mut().zip(block_rows.chunks_exact(width)) {
                    // SAFETY: width >= min_width, root from self.roots.
                    *slot += scale * unsafe { self.leaf_unchecked(root, row) };
                }
            }
        }
        predictions
    }
}

/// A fitted gradient-boosted tree ensemble.
#[derive(Debug, Clone)]
pub struct BoostedTreesRegressor {
    params: BoostingParams,
    base_prediction: f64,
    trees: Vec<RegressionTree>,
    flat: FlatForest,
    fitted: bool,
}

impl BoostedTreesRegressor {
    /// Create an unfitted model.
    pub fn new(params: BoostingParams) -> Self {
        BoostedTreesRegressor {
            params,
            base_prediction: 0.0,
            trees: Vec::new(),
            flat: FlatForest::default(),
            fitted: false,
        }
    }

    /// Model with the default hyper-parameters.
    pub fn default_model() -> Self {
        Self::new(BoostingParams::default())
    }

    /// The hyper-parameters this model was created with.
    pub fn params(&self) -> &BoostingParams {
        &self.params
    }

    /// Number of trees in the fitted ensemble.
    pub fn tree_count(&self) -> usize {
        self.trees.len()
    }

    /// Training loss (mean squared error on the training set) after every boosting
    /// round; useful for diagnosing over/under-fitting.  Only available after `fit`.
    ///
    /// Runs over the flat arena one tree at a time (the batched path), which is
    /// bit-identical to the historical per-row `tree.predict_one` loop.
    pub fn staged_training_mse(&self, data: &Dataset) -> Vec<f64> {
        let rows = data.feature_matrix();
        let width = data.n_features();
        let mut predictions = vec![self.base_prediction; data.len()];
        let mut losses = Vec::with_capacity(self.flat.tree_count());
        for tree in 0..self.flat.tree_count() {
            self.flat.accumulate_tree(
                tree,
                rows,
                width,
                self.params.learning_rate,
                &mut predictions,
            );
            let mse = predictions
                .iter()
                .zip(data.targets())
                .map(|(p, t)| (p - t) * (p - t))
                .sum::<f64>()
                / data.len().max(1) as f64;
            losses.push(mse);
        }
        losses
    }

    /// The seed batch kernel, kept as the comparison baseline for the
    /// `flat_kernel` benches and the bit-identity proptests: tree-major over
    /// the flat arena with the *checked, branchy* walk and no row blocking.
    pub fn predict_batch_reference(&self, rows: &[f64], width: usize) -> Vec<f64> {
        if rows.is_empty() {
            return Vec::new();
        }
        Self::check_batch_shape(rows, width);
        let mut predictions = vec![self.base_prediction; rows.len() / width];
        for tree in 0..self.flat.tree_count() {
            for (prediction, row) in predictions.iter_mut().zip(rows.chunks_exact(width)) {
                *prediction += self.params.learning_rate * self.flat.leaf(tree, row);
            }
        }
        predictions
    }

    fn check_batch_shape(rows: &[f64], width: usize) {
        assert!(
            width > 0 && rows.len().is_multiple_of(width),
            "row-major batch of {} values is not a whole number of width-{width} rows",
            rows.len()
        );
    }
}

impl Regressor for BoostedTreesRegressor {
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError> {
        if data.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        self.trees.clear();
        self.flat = FlatForest::default();
        self.base_prediction = data.target_mean();
        let mut rng = StdRng::seed_from_u64(self.params.seed);

        let n = data.len();
        let mut predictions = vec![self.base_prediction; n];
        let mut residuals = vec![0.0; n];
        let sample_size = ((n as f64) * self.params.subsample.clamp(0.05, 1.0)).ceil() as usize;
        let sample_size = sample_size.clamp(1, n);
        let mut all_indices: Vec<usize> = (0..n).collect();
        let ranked = RankedFeatures::new(data);

        for _ in 0..self.params.n_estimators {
            for i in 0..n {
                residuals[i] = data.target(i) - predictions[i];
            }

            let indices: Vec<usize> = if sample_size == n {
                all_indices.clone()
            } else {
                all_indices.shuffle(&mut rng);
                all_indices[..sample_size].to_vec()
            };

            let mut tree = RegressionTree::new(self.params.tree);
            tree.fit_ranked(data, &ranked, &residuals, &indices)?;

            // batched residual update over the just-fitted tree's flat arrays
            // (bit-identical to the per-row `tree.predict_one` loop)
            tree.flatten().accumulate_into(
                data.feature_matrix(),
                data.n_features(),
                self.params.learning_rate,
                &mut predictions,
            );
            self.trees.push(tree);
        }
        self.flat = FlatForest::from_trees(&self.trees);
        self.fitted = true;
        Ok(())
    }

    fn predict_one(&self, features: &[f64]) -> f64 {
        // the flat arena holds exactly the fitted trees, in boosting order, so the
        // accumulation is bit-identical to walking the per-tree arenas
        let mut prediction = self.base_prediction;
        if features.len() >= self.flat.min_width {
            for &root in &self.flat.roots {
                // SAFETY: the row covers every split feature (checked above) and
                // the root comes from the arena built in `from_trees`.
                prediction += self.params.learning_rate
                    * unsafe { self.flat.leaf_unchecked(root as usize, features) };
            }
        } else {
            for tree in 0..self.flat.tree_count() {
                prediction += self.params.learning_rate * self.flat.leaf(tree, features);
            }
        }
        prediction
    }

    /// Real batched inference over a row-major feature matrix: cache-blocked
    /// row×tree tiling of the flat arena with branch-free, bounds-check-free
    /// node stepping (the width was validated against the forest's widest split
    /// feature at `from_trees` time).  Per row the additions happen in the same
    /// order as [`Regressor::predict_one`], so the result is bit-identical to
    /// the default row loop.  Rows narrower than the widest split feature take
    /// the checked walk of [`BoostedTreesRegressor::predict_batch_reference`]
    /// (missing features read as 0.0).
    fn predict_batch(&self, rows: &[f64], width: usize) -> Vec<f64> {
        if rows.is_empty() {
            return Vec::new();
        }
        Self::check_batch_shape(rows, width);
        if width < self.flat.min_width {
            return self.predict_batch_reference(rows, width);
        }
        self.flat
            .predict_blocked(rows, width, self.base_prediction, self.params.learning_rate)
    }

    fn is_fitted(&self) -> bool {
        self.fitted
    }

    fn name(&self) -> &'static str {
        "boosted-decision-tree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    /// y = 2*x0 + 5*step(x1) + small deterministic wiggle
    fn synthetic(n: usize) -> Dataset {
        let mut d = Dataset::new(vec!["x0".into(), "x1".into()]);
        for i in 0..n {
            let x0 = (i % 50) as f64 / 5.0;
            let x1 = ((i * 7) % 10) as f64;
            let wiggle = ((i * 13) % 7) as f64 * 0.01;
            let y = 2.0 * x0 + if x1 >= 5.0 { 5.0 } else { 0.0 } + wiggle;
            d.push(vec![x0, x1], y).unwrap();
        }
        d
    }

    #[test]
    fn learns_a_nonlinear_function() {
        let data = synthetic(600);
        let (train, test) = data.train_test_split(0.5, 1);
        let mut model = BoostedTreesRegressor::new(BoostingParams::fast());
        model.fit(&train).unwrap();
        assert!(model.is_fitted());
        assert_eq!(model.tree_count(), BoostingParams::fast().n_estimators);

        let predictions = model.predict_batch(test.feature_matrix(), test.n_features());
        let mape = metrics::mean_absolute_percent_error(test.targets(), &predictions);
        assert!(mape < 8.0, "MAPE too high: {mape}%");
    }

    #[test]
    fn beats_a_single_tree() {
        let data = synthetic(600);
        let (train, test) = data.train_test_split(0.5, 2);

        let mut single = RegressionTree::new(TreeParams {
            max_depth: 2,
            min_samples_leaf: 2,
            max_split_candidates: 32,
        });
        single.fit(&train).unwrap();
        let mut boosted = BoostedTreesRegressor::new(BoostingParams {
            tree: TreeParams {
                max_depth: 2,
                min_samples_leaf: 2,
                max_split_candidates: 32,
            },
            ..BoostingParams::fast()
        });
        boosted.fit(&train).unwrap();

        let rmse_single = metrics::root_mean_squared_error(
            test.targets(),
            &single.predict_batch(test.feature_matrix(), test.n_features()),
        );
        let rmse_boosted = metrics::root_mean_squared_error(
            test.targets(),
            &boosted.predict_batch(test.feature_matrix(), test.n_features()),
        );
        assert!(
            rmse_boosted < rmse_single,
            "boosting ({rmse_boosted}) should beat a depth-2 tree ({rmse_single})"
        );
    }

    #[test]
    fn training_loss_decreases_monotonically_in_aggregate() {
        let data = synthetic(300);
        let mut model = BoostedTreesRegressor::new(BoostingParams::fast());
        model.fit(&data).unwrap();
        let losses = model.staged_training_mse(&data);
        assert_eq!(losses.len(), BoostingParams::fast().n_estimators);
        assert!(losses.last().unwrap() < losses.first().unwrap());
    }

    #[test]
    fn subsampling_is_deterministic_per_seed() {
        let data = synthetic(300);
        let params = BoostingParams {
            subsample: 0.5,
            ..BoostingParams::fast()
        };
        let mut a = BoostedTreesRegressor::new(params);
        let mut b = BoostedTreesRegressor::new(params);
        a.fit(&data).unwrap();
        b.fit(&data).unwrap();
        let probe = vec![3.3, 7.0];
        assert_eq!(a.predict_one(&probe), b.predict_one(&probe));
    }

    #[test]
    fn batch_kernels_agree_bit_for_bit_with_the_row_loop() {
        let data = synthetic(317); // odd count: exercises the block tail
        let mut model = BoostedTreesRegressor::new(BoostingParams::fast());
        model.fit(&data).unwrap();
        let rows = data.feature_matrix();
        let width = data.n_features();

        let reference = model.predict_batch_reference(rows, width);
        let batch = model.predict_batch(rows, width);
        for i in 0..data.len() {
            let one = model.predict_one(data.features(i));
            assert_eq!(one.to_bits(), reference[i].to_bits(), "reference row {i}");
            assert_eq!(one.to_bits(), batch[i].to_bits(), "batch row {i}");
        }
    }

    #[test]
    fn narrow_rows_fall_back_to_the_checked_walk() {
        let data = synthetic(200); // schema has 2 features
        let mut model = BoostedTreesRegressor::new(BoostingParams::fast());
        model.fit(&data).unwrap();
        // width-1 rows are narrower than the widest split feature: the batch
        // kernel must reproduce the missing-features-read-as-0.0 semantics
        let narrow: Vec<f64> = (0..40).map(|i| (i % 23) as f64).collect();
        let batch = model.predict_batch(&narrow, 1);
        for (i, value) in narrow.iter().enumerate() {
            let one = model.predict_one(&[*value]);
            assert_eq!(one.to_bits(), batch[i].to_bits(), "row {i}");
        }
    }

    #[test]
    fn empty_batches_predict_nothing() {
        let data = synthetic(50);
        let mut model = BoostedTreesRegressor::new(BoostingParams::fast());
        model.fit(&data).unwrap();
        assert!(model.predict_batch(&[], 2).is_empty());
        assert!(model.predict_batch_reference(&[], 2).is_empty());
    }

    #[test]
    fn empty_dataset_is_rejected() {
        let mut model = BoostedTreesRegressor::default_model();
        assert_eq!(
            model.fit(&Dataset::new(vec!["x".into()])),
            Err(MlError::EmptyDataset)
        );
        assert!(!model.is_fitted());
    }

    #[test]
    fn constant_target_is_predicted_exactly() {
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..50 {
            d.push(vec![i as f64], 4.25).unwrap();
        }
        let mut model = BoostedTreesRegressor::new(BoostingParams::fast());
        model.fit(&d).unwrap();
        assert!((model.predict_one(&[17.0]) - 4.25).abs() < 1e-9);
    }
}
