//! CART decision trees with Gini impurity.

use crate::dataset::Dataset;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Tree growth limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeConfig {
    /// Maximum depth (`None` = grow until pure, scikit-learn's default).
    pub max_depth: Option<usize>,
    /// Minimum samples required to split a node.
    pub min_samples_split: usize,
    /// Features considered per split (`None` = all; forests pass √d).
    pub max_features: Option<usize>,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: None,
            min_samples_split: 2,
            max_features: None,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf {
        class: usize,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// A fitted CART classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    root: Node,
    width: usize,
}

impl DecisionTree {
    /// Fits a tree on `data`. `seed` drives feature subsampling (only
    /// relevant when `config.max_features` is set).
    pub fn fit(data: &Dataset, config: TreeConfig, seed: u64) -> DecisionTree {
        let indices: Vec<usize> = (0..data.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let root = grow(data, &indices, &config, 0, &mut rng);
        DecisionTree {
            root,
            width: data.width(),
        }
    }

    /// Predicts the class of a feature row.
    ///
    /// # Panics
    ///
    /// Panics if `row` has the wrong width.
    pub fn predict(&self, row: &[f64]) -> usize {
        assert_eq!(row.len(), self.width, "feature width mismatch");
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { class } => return *class,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if row[*feature] <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    /// Number of decision nodes plus leaves.
    pub fn node_count(&self) -> usize {
        fn count(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 1,
                Node::Split { left, right, .. } => 1 + count(left) + count(right),
            }
        }
        count(&self.root)
    }
}

fn class_counts(data: &Dataset, indices: &[usize]) -> Vec<usize> {
    let mut counts = vec![0usize; data.classes()];
    for &i in indices {
        counts[data.label(i)] += 1;
    }
    counts
}

fn majority(counts: &[usize]) -> usize {
    counts
        .iter()
        .enumerate()
        .max_by_key(|&(_, c)| c)
        .map(|(i, _)| i)
        .expect("at least one class")
}

fn gini(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    1.0 - counts
        .iter()
        .map(|&c| {
            let p = c as f64 / t;
            p * p
        })
        .sum::<f64>()
}

fn grow(
    data: &Dataset,
    indices: &[usize],
    config: &TreeConfig,
    depth: usize,
    rng: &mut StdRng,
) -> Node {
    let counts = class_counts(data, indices);
    let node_gini = gini(&counts, indices.len());
    let depth_capped = config.max_depth.is_some_and(|d| depth >= d);
    if node_gini == 0.0 || indices.len() < config.min_samples_split || depth_capped {
        return Node::Leaf {
            class: majority(&counts),
        };
    }

    // Candidate features, optionally subsampled (random forest).
    let mut features: Vec<usize> = (0..data.width()).collect();
    if let Some(m) = config.max_features {
        features.shuffle(rng);
        features.truncate(m.max(1));
    }

    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, impurity)
    let mut sorted = indices.to_vec();
    for &feature in &features {
        sorted.sort_by(|&a, &b| data.row(a)[feature].total_cmp(&data.row(b)[feature]));
        let mut left_counts = vec![0usize; data.classes()];
        let mut right_counts = counts.clone();
        for cut in 1..sorted.len() {
            let moved = sorted[cut - 1];
            left_counts[data.label(moved)] += 1;
            right_counts[data.label(moved)] -= 1;
            let lo = data.row(sorted[cut - 1])[feature];
            let hi = data.row(sorted[cut])[feature];
            if lo == hi {
                continue; // cannot split between equal values
            }
            // Between adjacent floats the midpoint rounds up to `hi`, which
            // would send `hi` left with `lo`; cut at `lo` instead.
            let mid = (lo + hi) / 2.0;
            let threshold = if mid < hi { mid } else { lo };
            let n = sorted.len() as f64;
            let impurity = (cut as f64 / n) * gini(&left_counts, cut)
                + ((n - cut as f64) / n) * gini(&right_counts, sorted.len() - cut);
            if best.is_none_or(|(_, _, b)| impurity < b) {
                best = Some((feature, threshold, impurity));
            }
        }
    }

    // Split on the best candidate even when it does not immediately reduce
    // impurity (scikit-learn behaves the same way — this is what lets a
    // greedy tree still fit XOR-like interactions).
    let Some((feature, threshold, _impurity)) = best else {
        return Node::Leaf {
            class: majority(&counts),
        };
    };

    let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
        .iter()
        .partition(|&&i| data.row(i)[feature] <= threshold);
    debug_assert!(!left_idx.is_empty() && !right_idx.is_empty());
    Node::Split {
        feature,
        threshold,
        left: Box::new(grow(data, &left_idx, config, depth + 1, rng)),
        right: Box::new(grow(data, &right_idx, config, depth + 1, rng)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_dataset() -> Dataset {
        // XOR is not linearly separable but a depth-2 tree handles it.
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for &(a, b, l) in &[
            (0.0, 0.0, 0usize),
            (0.0, 1.0, 1),
            (1.0, 0.0, 1),
            (1.0, 1.0, 0),
        ] {
            for jitter in 0..5 {
                let j = jitter as f64 * 0.01;
                features.push(vec![a + j, b + j]);
                labels.push(l);
            }
        }
        Dataset::new(features, labels, 2).unwrap()
    }

    #[test]
    fn fits_xor_perfectly() {
        let data = xor_dataset();
        let tree = DecisionTree::fit(&data, TreeConfig::default(), 0);
        for i in 0..data.len() {
            assert_eq!(tree.predict(data.row(i)), data.label(i));
        }
    }

    #[test]
    fn depth_limit_truncates() {
        let data = xor_dataset();
        let stump = DecisionTree::fit(
            &data,
            TreeConfig {
                max_depth: Some(0),
                ..TreeConfig::default()
            },
            0,
        );
        assert_eq!(stump.node_count(), 1, "depth 0 is a single leaf");
        let full = DecisionTree::fit(&data, TreeConfig::default(), 0);
        assert!(full.node_count() > 1);
    }

    #[test]
    fn constant_labels_give_single_leaf() {
        let data = Dataset::new(vec![vec![1.0], vec![2.0], vec![3.0]], vec![1, 1, 1], 2).unwrap();
        let tree = DecisionTree::fit(&data, TreeConfig::default(), 0);
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.predict(&[99.0]), 1);
    }

    #[test]
    fn identical_features_cannot_split() {
        let data = Dataset::new(
            vec![vec![5.0], vec![5.0], vec![5.0], vec![5.0]],
            vec![0, 1, 0, 1],
            2,
        )
        .unwrap();
        let tree = DecisionTree::fit(&data, TreeConfig::default(), 0);
        assert_eq!(tree.node_count(), 1, "no threshold separates equal values");
    }

    #[test]
    fn adjacent_floats_split_between_them() {
        let lo: f64 = 0.408_768_683_652_128_43;
        let hi = f64::from_bits(lo.to_bits() + 1);
        assert_eq!((lo + hi) / 2.0, hi, "the midpoint rounds up");
        let data = Dataset::new(vec![vec![lo], vec![lo], vec![hi]], vec![0, 0, 1], 2).unwrap();
        let tree = DecisionTree::fit(&data, TreeConfig::default(), 0);
        assert_eq!(tree.node_count(), 3);
        assert_eq!(tree.predict(&[lo]), 0);
        assert_eq!(tree.predict(&[hi]), 1);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn predict_checks_width() {
        let data = xor_dataset();
        let tree = DecisionTree::fit(&data, TreeConfig::default(), 0);
        tree.predict(&[1.0]);
    }
}
