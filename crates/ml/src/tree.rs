//! CART-style regression trees.
//!
//! The tree minimises the sum of squared errors: each split chooses the (feature,
//! threshold) pair with the largest variance reduction, and each leaf predicts the mean
//! target of its training rows.  Trees are the weak learner of
//! [`crate::boosting::BoostedTreesRegressor`].

use crate::dataset::Dataset;
use crate::error::MlError;
use crate::model::Regressor;

/// Hyper-parameters of a single regression tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeParams {
    /// Maximum depth (a depth of 0 is a single leaf).
    pub max_depth: usize,
    /// Minimum number of training rows in a leaf.
    pub min_samples_leaf: usize,
    /// Thins the split search on large nodes.  A node of `n` rows examines a feature
    /// only at the sorted positions that are multiples of `stride = max(1, n /
    /// max_split_candidates)`, and there only where the value changes, so it examines
    /// fewer than `2 × max_split_candidates` thresholds per feature.  A value change
    /// between two such positions is never a candidate: on large nodes a column with
    /// few distinct values, such as a one-hot affinity, usually loses its only
    /// boundary.  Zero is treated as one.
    pub max_split_candidates: usize,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 5,
            min_samples_leaf: 2,
            max_split_candidates: 64,
        }
    }
}

/// One node of the tree, stored in an arena.
#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf {
        prediction: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// Sentinel value of [`FlatTree::feature`] marking a leaf node.
pub const LEAF: u32 = u32::MAX;

/// Branch-free child select: `left` when `go_left`, else `right`.
///
/// `go_left as u32` is 0 or 1, so negating it yields an all-zeros or all-ones
/// mask and the select compiles to straight-line bit ops (or a `cmov`) instead
/// of a data-dependent branch — tree walks follow near-random split outcomes,
/// which makes that branch essentially unpredictable.
#[inline(always)]
pub(crate) fn select_child(left: u32, right: u32, go_left: bool) -> u32 {
    let mask = (go_left as u32).wrapping_neg();
    (left & mask) | (right & !mask)
}

/// A fitted tree flattened into structure-of-arrays form for cache-friendly inference:
/// four contiguous arrays indexed by node, with leaves marked by `feature == `[`LEAF`]
/// and their prediction stored in the `threshold` slot.
///
/// Traversal touches only these flat arrays — no enum discriminants, no pointer
/// chasing — which is what makes the batched prediction of
/// [`crate::BoostedTreesRegressor`] cheap enough to tabulate whole prediction tables.
/// The arrays are exposed so ensembles can concatenate many trees into one arena
/// (offsetting the child indices).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlatTree {
    /// Split feature per node; [`LEAF`] for leaves.
    pub feature: Vec<u32>,
    /// Split threshold per node; the leaf prediction for leaves.
    pub threshold: Vec<f64>,
    /// Left child index per node (unused for leaves).
    pub left: Vec<u32>,
    /// Right child index per node (unused for leaves).
    pub right: Vec<u32>,
}

impl FlatTree {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.feature.len()
    }

    /// Whether the tree has no nodes (an unfitted tree).
    pub fn is_empty(&self) -> bool {
        self.feature.is_empty()
    }

    /// Smallest row width that puts every split feature of the tree in bounds:
    /// `1 +` the largest split feature index, or 0 when the tree is a single
    /// leaf (or unfitted).  Rows at least this wide can be walked without
    /// per-node bounds checks.
    pub fn min_width(&self) -> usize {
        self.feature
            .iter()
            .filter(|&&feature| feature != LEAF)
            .map(|&feature| feature as usize + 1)
            .max()
            .unwrap_or(0)
    }

    /// Add `scale * predict_one(row)` to `out[i]` for every row of the
    /// row-major matrix `rows` — the boosting residual update as one batched
    /// pass over the flat arrays, bit-identical to calling
    /// [`FlatTree::predict_one`] row by row.
    pub fn accumulate_into(&self, rows: &[f64], width: usize, scale: f64, out: &mut [f64]) {
        if width == 0 || self.is_empty() {
            // every row reads the same (empty or root-only) walk
            let value = self.predict_one(&[]);
            for slot in out.iter_mut() {
                *slot += scale * value;
            }
            return;
        }
        assert!(
            rows.len() == width * out.len(),
            "row-major batch of {} values does not hold {} width-{width} rows",
            rows.len(),
            out.len()
        );
        if width >= self.min_width() {
            for (slot, row) in out.iter_mut().zip(rows.chunks_exact(width)) {
                // SAFETY: `width >= min_width()` puts every split feature in
                // bounds, and child indices point into the arena by
                // construction (`flatten` preserves arena indices).
                *slot += scale * unsafe { self.leaf_unchecked(row) };
            }
        } else {
            for (slot, row) in out.iter_mut().zip(rows.chunks_exact(width)) {
                *slot += scale * self.predict_one(row);
            }
        }
    }

    /// The bounds-check-free, branch-free walk.
    ///
    /// # Safety
    ///
    /// `row.len()` must be at least [`FlatTree::min_width`] and the tree must
    /// be non-empty with in-arena child indices (always true for trees built
    /// by [`RegressionTree::flatten`]).
    #[inline]
    unsafe fn leaf_unchecked(&self, row: &[f64]) -> f64 {
        let mut index = 0usize;
        loop {
            // SAFETY: `index` starts at the root (node 0 exists: the tree is
            // non-empty per the contract) and is only ever replaced by
            // `left`/`right` values, which `flatten` builds strictly in-arena;
            // the four parallel arrays share one length.
            let feature = *self.feature.get_unchecked(index);
            let threshold = *self.threshold.get_unchecked(index);
            if feature == LEAF {
                return threshold;
            }
            // SAFETY: `feature < min_width <= row.len()` — `flatten` folds every
            // split feature into `min_width` and the caller checked the row width.
            let value = *row.get_unchecked(feature as usize);
            index = select_child(
                *self.left.get_unchecked(index),
                *self.right.get_unchecked(index),
                value <= threshold,
            ) as usize;
        }
    }

    /// Walk the flat arrays from the root; bit-identical to
    /// [`RegressionTree::predict_one`] on the tree this was flattened from.
    pub fn predict_one(&self, features: &[f64]) -> f64 {
        if self.feature.is_empty() {
            return 0.0;
        }
        let mut index = 0usize;
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
}

/// A fitted regression tree.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionTree {
    params: TreeParams,
    nodes: Vec<Node>,
}

impl RegressionTree {
    /// Create an unfitted tree with the given hyper-parameters.
    pub fn new(params: TreeParams) -> Self {
        RegressionTree {
            params,
            nodes: Vec::new(),
        }
    }

    /// Number of nodes in the fitted tree (0 before fitting).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Depth of the fitted tree (0 for a single leaf or an unfitted tree).
    pub fn depth(&self) -> usize {
        fn depth_of(nodes: &[Node], index: usize) -> usize {
            match nodes[index] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => {
                    1 + depth_of(nodes, left).max(depth_of(nodes, right))
                }
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            depth_of(&self.nodes, 0)
        }
    }

    /// Fit the tree on a subset of rows (by index) against externally supplied targets
    /// (the boosting residuals).  `targets[i]` corresponds to `data.features(i)`.
    /// Fails with [`MlError::RowOutOfRange`] when an index does not address a row.
    pub fn fit_on_indices(
        &mut self,
        data: &Dataset,
        targets: &[f64],
        indices: &[usize],
    ) -> Result<(), MlError> {
        self.fit_ranked(data, &RankedFeatures::new(data), targets, indices)
    }

    /// [`RegressionTree::fit_on_indices`] with the feature ranks of `data` computed by
    /// the caller, so an ensemble ranks its dataset once instead of once per tree.
    pub(crate) fn fit_ranked(
        &mut self,
        data: &Dataset,
        ranked: &RankedFeatures,
        targets: &[f64],
        indices: &[usize],
    ) -> Result<(), MlError> {
        if data.is_empty() || indices.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        if targets.len() != data.len() {
            return Err(MlError::DimensionMismatch {
                expected: data.len(),
                actual: targets.len(),
            });
        }
        if let Some(&index) = indices.iter().find(|&&i| i >= data.len()) {
            return Err(MlError::RowOutOfRange {
                index,
                rows: data.len(),
            });
        }
        self.nodes.clear();
        let mut work = indices.to_vec();
        let mut scratch = SplitScratch::new(ranked, indices.len());
        self.build(data, ranked, targets, &mut work, &mut scratch, 0);
        Ok(())
    }

    /// Recursively build the subtree for `indices`, returning the node index.
    fn build(
        &mut self,
        data: &Dataset,
        ranked: &RankedFeatures,
        targets: &[f64],
        indices: &mut [usize],
        scratch: &mut SplitScratch,
        depth: usize,
    ) -> usize {
        let node_targets = &mut scratch.node_targets[..indices.len()];
        for (slot, &i) in node_targets.iter_mut().zip(indices.iter()) {
            *slot = targets[i];
        }
        let mean = node_targets.iter().sum::<f64>() / indices.len() as f64;

        if depth >= self.params.max_depth
            || indices.len() < 2 * self.params.min_samples_leaf
            || Self::is_pure(node_targets)
        {
            return self.push(Node::Leaf { prediction: mean });
        }

        match self.best_split(ranked, indices, scratch) {
            None => self.push(Node::Leaf { prediction: mean }),
            Some((feature, threshold)) => {
                // partition indices in place
                let mut split_point = 0;
                for i in 0..indices.len() {
                    if data.features(indices[i])[feature] <= threshold {
                        indices.swap(i, split_point);
                        split_point += 1;
                    }
                }
                if split_point == 0 || split_point == indices.len() {
                    return self.push(Node::Leaf { prediction: mean });
                }
                // reserve a slot for this split node before recursing so the root ends
                // up at index 0
                let node_index = self.push(Node::Leaf { prediction: mean });
                let (left_slice, right_slice) = indices.split_at_mut(split_point);
                let left = self.build(data, ranked, targets, left_slice, scratch, depth + 1);
                let right = self.build(data, ranked, targets, right_slice, scratch, depth + 1);
                self.nodes[node_index] = Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                };
                node_index
            }
        }
    }

    /// Flatten the fitted arena into [`FlatTree`] arrays (empty for an unfitted tree).
    /// Node indices are preserved, so the flat root is node 0 as well.
    pub fn flatten(&self) -> FlatTree {
        let mut flat = FlatTree {
            feature: Vec::with_capacity(self.nodes.len()),
            threshold: Vec::with_capacity(self.nodes.len()),
            left: Vec::with_capacity(self.nodes.len()),
            right: Vec::with_capacity(self.nodes.len()),
        };
        for node in &self.nodes {
            match *node {
                Node::Leaf { prediction } => {
                    flat.feature.push(LEAF);
                    flat.threshold.push(prediction);
                    flat.left.push(0);
                    flat.right.push(0);
                }
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    flat.feature.push(feature as u32);
                    flat.threshold.push(threshold);
                    flat.left.push(left as u32);
                    flat.right.push(right as u32);
                }
            }
        }
        flat
    }

    fn push(&mut self, node: Node) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    fn is_pure(node_targets: &[f64]) -> bool {
        let first = node_targets[0];
        node_targets.iter().all(|&t| (t - first).abs() < 1e-12)
    }

    /// Find the (feature, threshold) pair with the largest SSE reduction.
    ///
    /// Expects `scratch.node_targets` to hold the targets of `indices`, in order.
    /// Per feature the node's rows are ordered by a stable counting sort over their
    /// value ranks.  A stable sort's output depends only on the keys and the input
    /// order, so this is the sequence a stable comparison sort by `f64::total_cmp`
    /// yields: the prefix sums add in the same order and every split keeps its bits.
    fn best_split(
        &self,
        ranked: &RankedFeatures,
        indices: &[usize],
        scratch: &mut SplitScratch,
    ) -> Option<(usize, f64)> {
        let len = indices.len();
        let SplitScratch {
            node_targets,
            counts,
            sorted_ranks,
            sorted_targets,
        } = scratch;
        let node_targets = &node_targets[..len];
        let total_sum: f64 = node_targets.iter().sum();
        let total_sq: f64 = node_targets.iter().map(|&t| t * t).sum();
        let n = len as f64;
        let parent_sse = total_sq - total_sum * total_sum / n;
        let stride = (len / self.params.max_split_candidates.max(1)).max(1);

        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)

        for (feature, (ranks, values)) in ranked.ranks.iter().zip(&ranked.values).enumerate() {
            // counting sort: `counts[r]` becomes the first sorted position of rank `r`
            let counts = &mut counts[..=values.len()];
            counts.fill(0);
            for &i in indices {
                counts[ranks[i] as usize + 1] += 1;
            }
            for r in 1..counts.len() {
                counts[r] += counts[r - 1];
            }
            // each start strictly inside the node is a position where the sorted rank
            // changes; past the last such position on the stride there is no candidate
            let Some(scan_end) = counts
                .iter()
                .rev()
                .copied()
                .find(|&p| p < len && p.is_multiple_of(stride))
                .filter(|&p| p > 0)
            else {
                continue;
            };
            for (&i, &target) in indices.iter().zip(node_targets) {
                let rank = ranks[i];
                let position = &mut counts[rank as usize];
                sorted_ranks[*position] = rank;
                sorted_targets[*position] = target;
                *position += 1;
            }

            // prefix sums for O(1) SSE evaluation; only every `stride`-th sorted
            // position is a candidate, and only where the value changes there
            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            let mut next_candidate = stride;
            for k in 0..scan_end {
                let target = sorted_targets[k];
                left_sum += target;
                left_sq += target * target;
                if k + 1 != next_candidate {
                    continue;
                }
                next_candidate += stride;
                let boundary = values[sorted_ranks[k] as usize];
                let next = values[sorted_ranks[k + 1] as usize];
                if boundary == next {
                    continue;
                }
                let left_n = (k + 1) as f64;
                let right_n = n - left_n;
                if k + 1 < self.params.min_samples_leaf
                    || len - (k + 1) < self.params.min_samples_leaf
                {
                    continue;
                }
                let right_sum = total_sum - left_sum;
                let right_sq = total_sq - left_sq;
                let sse = (left_sq - left_sum * left_sum / left_n)
                    + (right_sq - right_sum * right_sum / right_n);
                let threshold = (boundary + next) / 2.0;
                if best.is_none_or(|(_, _, b)| sse < b) {
                    best = Some((feature, threshold, sse));
                }
            }
        }

        best.and_then(|(feature, threshold, sse)| {
            // require an actual improvement over the parent
            if sse < parent_sse - 1e-12 {
                Some((feature, threshold))
            } else {
                None
            }
        })
    }
}

/// Every feature column of a dataset in dense rank form under `f64::total_cmp`:
/// `ranks[f][row]` is the rank of `data.features(row)[f]` and `values[f][rank]` the
/// value of that rank.  Computed once per fit, it turns the per-node split search
/// into a counting sort (paper-scale columns take 2–160 distinct values).
///
/// `-0.0` and `0.0` get distinct ranks, as `total_cmp` orders them; the split search
/// still compares the values themselves, so the two never form a split boundary.
pub(crate) struct RankedFeatures {
    ranks: Vec<Vec<u32>>,
    values: Vec<Vec<f64>>,
}

impl RankedFeatures {
    pub(crate) fn new(data: &Dataset) -> Self {
        let (ranks, values) = (0..data.n_features())
            .map(|feature| {
                let column = |row: usize| data.features(row)[feature];
                let mut order: Vec<usize> = (0..data.len()).collect();
                order.sort_unstable_by(|&a, &b| column(a).total_cmp(&column(b)));
                let mut ranks = vec![0u32; data.len()];
                let mut values: Vec<f64> = Vec::new();
                for row in order {
                    let value = column(row);
                    if values
                        .last()
                        .is_none_or(|last| last.total_cmp(&value).is_ne())
                    {
                        values.push(value);
                    }
                    ranks[row] = (values.len() - 1) as u32;
                }
                (ranks, values)
            })
            .unzip();
        RankedFeatures { ranks, values }
    }

    /// Largest number of distinct values in any column.
    fn max_distinct(&self) -> usize {
        self.values.iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// Buffers of one tree's split search, sized once per fit and reused by every node
/// and feature.
struct SplitScratch {
    /// Targets of the current node's rows, in the node's row order.
    node_targets: Vec<f64>,
    /// Counting-sort buckets, one per rank plus one.
    counts: Vec<usize>,
    /// The node's value ranks in sorted order.
    sorted_ranks: Vec<u32>,
    /// The node's targets in sorted value order.
    sorted_targets: Vec<f64>,
}

impl SplitScratch {
    fn new(ranked: &RankedFeatures, rows: usize) -> Self {
        SplitScratch {
            node_targets: vec![0.0; rows],
            counts: vec![0; ranked.max_distinct() + 1],
            sorted_ranks: vec![0; rows],
            sorted_targets: vec![0.0; rows],
        }
    }
}

impl Regressor for RegressionTree {
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError> {
        let indices: Vec<usize> = (0..data.len()).collect();
        self.fit_on_indices(data, data.targets(), &indices)
    }

    fn predict_one(&self, features: &[f64]) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        let mut index = 0usize;
        loop {
            match self.nodes[index] {
                Node::Leaf { prediction } => return prediction,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let value = features.get(feature).copied().unwrap_or(0.0);
                    index = if value <= threshold { left } else { right };
                }
            }
        }
    }

    fn is_fitted(&self) -> bool {
        !self.nodes.is_empty()
    }

    fn name(&self) -> &'static str {
        "regression-tree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// The comparison-sort split search the rank-bucketed one replaced, kept as its
    /// oracle: per feature, sort the node's `(value, target)` pairs with a stable
    /// `total_cmp` sort and scan every `stride`-th position.
    fn best_split_sorted(
        params: TreeParams,
        data: &Dataset,
        targets: &[f64],
        indices: &[usize],
    ) -> Option<(usize, f64)> {
        let total_sum: f64 = indices.iter().map(|&i| targets[i]).sum();
        let total_sq: f64 = indices.iter().map(|&i| targets[i] * targets[i]).sum();
        let n = indices.len() as f64;
        let parent_sse = total_sq - total_sum * total_sum / n;

        let mut best: Option<(usize, f64, f64)> = None;
        for feature in 0..data.n_features() {
            let mut values: Vec<(f64, f64)> = indices
                .iter()
                .map(|&i| (data.features(i)[feature], targets[i]))
                .collect();
            values.sort_by(|a, b| a.0.total_cmp(&b.0));
            let stride = (values.len() / params.max_split_candidates).max(1);

            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            let mut k = 0usize;
            while k + 1 < values.len() {
                left_sum += values[k].1;
                left_sq += values[k].1 * values[k].1;
                let boundary = values[k].0;
                let next = values[k + 1].0;
                if boundary == next || !(k + 1).is_multiple_of(stride) {
                    k += 1;
                    continue;
                }
                let left_n = (k + 1) as f64;
                let right_n = n - left_n;
                if (left_n as usize) < params.min_samples_leaf
                    || (right_n as usize) < params.min_samples_leaf
                {
                    k += 1;
                    continue;
                }
                let right_sum = total_sum - left_sum;
                let right_sq = total_sq - left_sq;
                let sse = (left_sq - left_sum * left_sum / left_n)
                    + (right_sq - right_sum * right_sum / right_n);
                let threshold = (boundary + next) / 2.0;
                if best.is_none_or(|(_, _, b)| sse < b) {
                    best = Some((feature, threshold, sse));
                }
                k += 1;
            }
        }
        best.and_then(|(feature, threshold, sse)| {
            (sse < parent_sse - 1e-12).then_some((feature, threshold))
        })
    }

    /// The rank-bucketed search on one node, set up the way `build` sets it up.
    fn best_split_ranked(
        params: TreeParams,
        data: &Dataset,
        targets: &[f64],
        indices: &[usize],
    ) -> Option<(usize, f64)> {
        let ranked = RankedFeatures::new(data);
        let mut scratch = SplitScratch::new(&ranked, indices.len());
        for (slot, &i) in scratch.node_targets.iter_mut().zip(indices) {
            *slot = targets[i];
        }
        RegressionTree::new(params).best_split(&ranked, indices, &mut scratch)
    }

    /// Rows full of ties: a binary column, a three-valued one, a 160-valued one, a
    /// column mixing `-0.0` and `0.0`, and a near-continuous one; targets repeat too.
    fn tie_heavy(rows: usize, rng: &mut StdRng) -> (Dataset, Vec<f64>) {
        let mut data = Dataset::new(vec![
            "binary".into(),
            "ternary".into(),
            "size".into(),
            "signed_zero".into(),
            "continuous".into(),
        ]);
        let mut targets = Vec::with_capacity(rows);
        for _ in 0..rows {
            let binary = f64::from(u8::from(rng.gen_bool(0.3)));
            let ternary = rng.gen_range(0..3usize) as f64;
            let size = rng.gen_range(1..=160usize) as f64 * 0.025;
            let signed_zero = [-0.0, 0.0, 0.5][rng.gen_range(0..3usize)];
            let continuous: f64 = rng.gen();
            let target = if rng.gen_bool(0.5) {
                rng.gen_range(0..4usize) as f64
            } else {
                10.0 * binary + ternary * size + signed_zero + continuous
            };
            data.push(vec![binary, ternary, size, signed_zero, continuous], target)
                .unwrap();
            targets.push(target);
        }
        (data, targets)
    }

    #[test]
    fn rank_bucketed_split_search_matches_the_sorted_oracle() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let mut compared = 0;
        for round in 0..60 {
            let rows = [2, 3, 17, 120, 700][round % 5];
            let (data, targets) = tie_heavy(rows, &mut rng);
            let mut all: Vec<usize> = (0..rows).collect();
            all.shuffle(&mut rng);
            // node index sets: the whole dataset in shuffled order, a random subset,
            // and both sides of the unstable in-place partition `build` performs
            let take = rng.gen_range(1..=rows);
            let subset = all[..take].to_vec();
            let mut partitioned = all.clone();
            let feature = rng.gen_range(0..data.n_features());
            let threshold = data.features(partitioned[0])[feature];
            let mut split_point = 0;
            for i in 0..partitioned.len() {
                if data.features(partitioned[i])[feature] <= threshold {
                    partitioned.swap(i, split_point);
                    split_point += 1;
                }
            }
            let (left, right) = partitioned.split_at(split_point);
            for indices in [&all[..], &subset[..], left, right] {
                if indices.is_empty() {
                    continue;
                }
                for min_samples_leaf in [0, 1, 3, rows / 2 + 1] {
                    for max_split_candidates in [1, 2, 7, 48, 1_000] {
                        let params = TreeParams {
                            max_depth: 6,
                            min_samples_leaf,
                            max_split_candidates,
                        };
                        let key = |split: Option<(usize, f64)>| {
                            split.map(|(feature, threshold)| (feature, threshold.to_bits()))
                        };
                        assert_eq!(
                            key(best_split_ranked(params, &data, &targets, indices)),
                            key(best_split_sorted(params, &data, &targets, indices)),
                            "{} rows, {params:?}",
                            indices.len()
                        );
                        compared += 1;
                    }
                }
            }
        }
        assert!(compared > 4_000);
    }

    #[test]
    fn out_of_range_row_indices_are_rejected() {
        let d = step_dataset();
        let mut tree = RegressionTree::new(TreeParams::default());
        assert_eq!(
            tree.fit_on_indices(&d, d.targets(), &[0, 3, 10]),
            Err(MlError::RowOutOfRange {
                index: 10,
                rows: 10
            })
        );
        assert!(!tree.is_fitted());
        tree.fit_on_indices(&d, d.targets(), &[0, 3, 9]).unwrap();
        assert!(tree.is_fitted());
    }

    fn step_dataset() -> Dataset {
        // y = 1 for x < 5, y = 10 for x >= 5 — a single split should fit it perfectly
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..10 {
            let x = i as f64;
            d.push(vec![x], if x < 5.0 { 1.0 } else { 10.0 }).unwrap();
        }
        d
    }

    #[test]
    fn fits_a_step_function_exactly() {
        let mut tree = RegressionTree::new(TreeParams {
            max_depth: 3,
            min_samples_leaf: 1,
            max_split_candidates: 64,
        });
        let d = step_dataset();
        tree.fit(&d).unwrap();
        assert!(tree.is_fitted());
        assert!((tree.predict_one(&[0.0]) - 1.0).abs() < 1e-9);
        assert!((tree.predict_one(&[9.0]) - 10.0).abs() < 1e-9);
        assert!((tree.predict_one(&[4.4]) - 1.0).abs() < 1e-9);
        assert!((tree.predict_one(&[5.1]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn depth_zero_tree_predicts_the_mean() {
        let mut tree = RegressionTree::new(TreeParams {
            max_depth: 0,
            min_samples_leaf: 1,
            max_split_candidates: 8,
        });
        let d = step_dataset();
        tree.fit(&d).unwrap();
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.depth(), 0);
        assert!((tree.predict_one(&[3.0]) - 5.5).abs() < 1e-9);
    }

    #[test]
    fn respects_max_depth() {
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..256 {
            d.push(vec![i as f64], (i % 17) as f64).unwrap();
        }
        let mut tree = RegressionTree::new(TreeParams {
            max_depth: 3,
            min_samples_leaf: 1,
            max_split_candidates: 256,
        });
        tree.fit(&d).unwrap();
        assert!(tree.depth() <= 3, "depth {} exceeds limit", tree.depth());
    }

    #[test]
    fn min_samples_leaf_is_enforced() {
        let d = step_dataset();
        let mut tree = RegressionTree::new(TreeParams {
            max_depth: 10,
            min_samples_leaf: 6, // cannot split 10 rows into two leaves of >= 6
            max_split_candidates: 64,
        });
        tree.fit(&d).unwrap();
        assert_eq!(tree.node_count(), 1);
    }

    #[test]
    fn pure_targets_yield_a_single_leaf() {
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..20 {
            d.push(vec![i as f64], 7.0).unwrap();
        }
        let mut tree = RegressionTree::new(TreeParams::default());
        tree.fit(&d).unwrap();
        assert_eq!(tree.node_count(), 1);
        assert!((tree.predict_one(&[100.0]) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn multifeature_split_selects_the_informative_feature() {
        // feature 0 is noise, feature 1 determines the target
        let mut d = Dataset::new(vec!["noise".into(), "signal".into()]);
        for i in 0..100 {
            let noise = ((i * 37) % 11) as f64;
            let signal = (i % 2) as f64;
            d.push(vec![noise, signal], signal * 100.0).unwrap();
        }
        let mut tree = RegressionTree::new(TreeParams {
            max_depth: 1,
            min_samples_leaf: 1,
            max_split_candidates: 64,
        });
        tree.fit(&d).unwrap();
        assert!((tree.predict_one(&[5.0, 0.0]) - 0.0).abs() < 1e-9);
        assert!((tree.predict_one(&[5.0, 1.0]) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn unfitted_tree_predicts_zero_and_reports_not_fitted() {
        let tree = RegressionTree::new(TreeParams::default());
        assert!(!tree.is_fitted());
        assert_eq!(tree.predict_one(&[1.0]), 0.0);
        let flat = tree.flatten();
        assert!(flat.is_empty());
        assert_eq!(flat.predict_one(&[1.0]), 0.0);
    }

    #[test]
    fn flattened_trees_predict_bit_identically() {
        let mut d = Dataset::new(vec!["x".into(), "y".into()]);
        for i in 0..200 {
            let x = (i % 23) as f64;
            let y = ((i * 7) % 13) as f64;
            d.push(
                vec![x, y],
                x * 1.5 + (y * y) * 0.25 + ((i % 5) as f64) * 0.01,
            )
            .unwrap();
        }
        let mut tree = RegressionTree::new(TreeParams {
            max_depth: 6,
            min_samples_leaf: 2,
            max_split_candidates: 32,
        });
        tree.fit(&d).unwrap();
        let flat = tree.flatten();
        assert_eq!(flat.len(), tree.node_count());
        for i in 0..d.len() {
            let arena = tree.predict_one(d.features(i));
            let flattened = flat.predict_one(d.features(i));
            assert_eq!(arena.to_bits(), flattened.to_bits(), "row {i}");
        }
        // out-of-schema probes behave identically too (missing features read as 0)
        assert_eq!(
            tree.predict_one(&[3.0]).to_bits(),
            flat.predict_one(&[3.0]).to_bits()
        );
    }

    #[test]
    fn empty_dataset_is_rejected() {
        let mut tree = RegressionTree::new(TreeParams::default());
        assert!(tree.fit(&Dataset::new(vec!["x".into()])).is_err());
    }

    #[test]
    fn min_width_reports_the_widest_split_feature() {
        let unfitted = RegressionTree::new(TreeParams::default());
        assert_eq!(unfitted.flatten().min_width(), 0);

        let mut d = Dataset::new(vec!["a".into(), "b".into(), "c".into()]);
        for i in 0..60 {
            // only feature 2 is informative, so every split uses it
            d.push(vec![0.0, 1.0, (i % 10) as f64], ((i % 10) / 5) as f64)
                .unwrap();
        }
        let mut tree = RegressionTree::new(TreeParams {
            max_depth: 2,
            min_samples_leaf: 1,
            max_split_candidates: 32,
        });
        tree.fit(&d).unwrap();
        assert_eq!(tree.flatten().min_width(), 3);
    }

    #[test]
    fn accumulate_into_matches_the_per_row_loop() {
        let mut d = Dataset::new(vec!["x".into(), "y".into()]);
        for i in 0..150 {
            let x = (i % 17) as f64;
            let y = ((i * 3) % 11) as f64;
            d.push(vec![x, y], x * 0.5 + y * y * 0.1).unwrap();
        }
        let mut tree = RegressionTree::new(TreeParams::default());
        tree.fit(&d).unwrap();
        let flat = tree.flatten();

        let scale = 0.15;
        let mut batched = vec![1.25; d.len()];
        flat.accumulate_into(d.feature_matrix(), d.n_features(), scale, &mut batched);
        for (i, value) in batched.iter().enumerate() {
            let looped = 1.25 + scale * flat.predict_one(d.features(i));
            assert_eq!(looped.to_bits(), value.to_bits(), "row {i}");
        }

        // narrow rows (width 1 < min_width) take the checked fallback
        let narrow: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let mut narrow_out = vec![0.0; 20];
        flat.accumulate_into(&narrow, 1, scale, &mut narrow_out);
        for (i, value) in narrow.iter().enumerate() {
            let looped = scale * flat.predict_one(&[*value]);
            assert_eq!(looped.to_bits(), narrow_out[i].to_bits(), "row {i}");
        }

        // width-0 batches broadcast the empty-row walk
        let mut zero_width = vec![2.0; 4];
        flat.accumulate_into(&[], 0, scale, &mut zero_width);
        for slot in &zero_width {
            assert_eq!(
                slot.to_bits(),
                (2.0 + scale * flat.predict_one(&[])).to_bits()
            );
        }
    }
}
