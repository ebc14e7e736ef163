//! Synthetic benchmark tasks.
//!
//! Four seeded task families stand in for the paper's four benchmark
//! families (code generation, program synthesis, math reasoning,
//! commonsense reasoning). Each is a classification problem hard enough
//! that an MoE net must actually use its experts, and each is fully
//! deterministic given its seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Task family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Gaussian clusters (linear-ish decision regions).
    Blobs,
    /// XOR of sign quadrants in random 2D subspaces (non-linear).
    Xor,
    /// Classify `(a + b) mod C` from two one-hot encoded operands.
    ModSum,
    /// Concentric radial bands (requires norm-like features).
    Bands,
}

impl TaskKind {
    /// All task families.
    pub fn all() -> [TaskKind; 4] {
        [
            TaskKind::Blobs,
            TaskKind::Xor,
            TaskKind::ModSum,
            TaskKind::Bands,
        ]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            TaskKind::Blobs => "blobs",
            TaskKind::Xor => "xor",
            TaskKind::ModSum => "modsum",
            TaskKind::Bands => "bands",
        }
    }
}

/// A dataset: feature vectors with integer labels.
#[derive(Debug, Clone)]
pub struct Task {
    /// Task family.
    pub kind: TaskKind,
    /// Input dimensionality.
    pub dim: usize,
    /// Number of classes.
    pub n_classes: usize,
    /// Training examples.
    pub train: Vec<(Vec<f32>, usize)>,
    /// Held-out test examples.
    pub test: Vec<(Vec<f32>, usize)>,
}

impl Task {
    /// Generates a task with `n_train`/`n_test` examples.
    pub fn generate(kind: TaskKind, dim: usize, n_train: usize, n_test: usize, seed: u64) -> Task {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_classes = match kind {
            TaskKind::Blobs => 6,
            TaskKind::Xor => 2,
            TaskKind::ModSum => 8,
            TaskKind::Bands => 4,
        };
        let gen = |rng: &mut StdRng, n: usize| -> Vec<(Vec<f32>, usize)> {
            (0..n).map(|_| sample(kind, dim, n_classes, rng)).collect()
        };
        // Fixed task structure (centers, subspaces) must be shared by
        // train and test: derive it from a child RNG inside `sample`
        // via deterministic per-kind construction below.
        let train = gen(&mut rng, n_train);
        let test = gen(&mut rng, n_test);
        Task {
            kind,
            dim,
            n_classes,
            train,
            test,
        }
    }
}

/// Deterministic class center for (kind-specific) structure: a fixed
/// pseudo-random unit-ish vector per (class, dim) independent of the
/// sampling RNG.
fn center(class: usize, dim: usize) -> Vec<f32> {
    let mut h = 0x9E3779B97F4A7C15u64 ^ (class as u64).wrapping_mul(0xD1B54A32D192ED03);
    (0..dim)
        .map(|i| {
            h ^= (i as u64).wrapping_mul(0x2545F4914F6CDD1D);
            h = h
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (((h >> 33) as f32 / (1u64 << 31) as f32) - 1.0) * 2.0
        })
        .collect()
}

fn sample(kind: TaskKind, dim: usize, n_classes: usize, rng: &mut StdRng) -> (Vec<f32>, usize) {
    match kind {
        TaskKind::Blobs => {
            let class = rng.gen_range(0..n_classes);
            let c = center(class, dim);
            let x = c.iter().map(|&v| v + rng.gen_range(-0.6f32..0.6)).collect();
            (x, class)
        }
        TaskKind::Xor => {
            // Label = XOR of the signs of two fixed random directions.
            let d1 = center(101, dim);
            let d2 = center(202, dim);
            let mut x: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            // Re-scale along the two key directions to sharpen signal.
            let p1: f32 = x.iter().zip(&d1).map(|(a, b)| a * b).sum();
            let p2: f32 = x.iter().zip(&d2).map(|(a, b)| a * b).sum();
            let label = usize::from((p1 > 0.0) ^ (p2 > 0.0));
            for (xi, (a, b)) in x.iter_mut().zip(d1.iter().zip(&d2)) {
                *xi += 0.3 * p1.signum() * a + 0.3 * p2.signum() * b;
            }
            (x, label)
        }
        TaskKind::ModSum => {
            let half = dim / 2;
            let a = rng.gen_range(0..n_classes);
            let b = rng.gen_range(0..n_classes);
            let mut x = vec![0.0f32; dim];
            // One-hot-ish encodings with noise.
            x[a % half] = 1.0;
            x[half + (b % half)] = 1.0;
            for v in x.iter_mut() {
                *v += rng.gen_range(-0.1f32..0.1);
            }
            ((x), (a + b) % n_classes)
        }
        TaskKind::Bands => {
            // Radius determines the class band.
            let class = rng.gen_range(0..n_classes);
            let target_r = 0.5 + class as f32;
            let mut x: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let norm: f32 = x.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-6);
            let scale = (target_r + rng.gen_range(-0.2f32..0.2)) / norm;
            for v in x.iter_mut() {
                *v *= scale;
            }
            (x, class)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = Task::generate(TaskKind::Blobs, 16, 50, 20, 7);
        let b = Task::generate(TaskKind::Blobs, 16, 50, 20, 7);
        assert_eq!(a.train[0].0, b.train[0].0);
        assert_eq!(a.test[19].1, b.test[19].1);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Task::generate(TaskKind::Xor, 16, 50, 20, 1);
        let b = Task::generate(TaskKind::Xor, 16, 50, 20, 2);
        assert_ne!(a.train[0].0, b.train[0].0);
    }

    #[test]
    fn shapes_and_labels_are_valid() {
        for kind in TaskKind::all() {
            let t = Task::generate(kind, 16, 100, 40, 3);
            assert_eq!(t.train.len(), 100);
            assert_eq!(t.test.len(), 40);
            for (x, y) in t.train.iter().chain(&t.test) {
                assert_eq!(x.len(), 16, "{kind:?}");
                assert!(*y < t.n_classes, "{kind:?}");
                assert!(x.iter().all(|v| v.is_finite()));
            }
        }
    }

    #[test]
    fn all_classes_are_represented() {
        for kind in TaskKind::all() {
            let t = Task::generate(kind, 16, 400, 100, 5);
            let mut seen = vec![false; t.n_classes];
            for (_, y) in &t.train {
                seen[*y] = true;
            }
            assert!(seen.iter().all(|&s| s), "{kind:?}: missing classes");
        }
    }

    #[test]
    fn blobs_are_roughly_separable() {
        // Nearest-centroid should already do much better than chance,
        // confirming the labels carry signal.
        let t = Task::generate(TaskKind::Blobs, 16, 200, 200, 9);
        let mut correct = 0;
        for (x, y) in &t.test {
            let mut best = (f32::INFINITY, 0usize);
            for c in 0..t.n_classes {
                let cen = center(c, 16);
                let d: f32 = x.iter().zip(&cen).map(|(a, b)| (a - b) * (a - b)).sum();
                if d < best.0 {
                    best = (d, c);
                }
            }
            if best.1 == *y {
                correct += 1;
            }
        }
        let acc = correct as f32 / t.test.len() as f32;
        assert!(acc > 0.7, "nearest-centroid acc={acc}");
    }
}
