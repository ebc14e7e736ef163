//! MoE routers: top-k and grouped top-k gating with shared experts.
//!
//! Covers the routing strategies of the evaluated models (Table 1):
//! Qwen2 uses softmax top-k; DeepSeek-V2 uses grouped softmax top-k;
//! DeepSeek-V3 uses grouped **sigmoid** top-k with weight
//! renormalization and a routed scaling factor. Group selection follows
//! DeepSeek: a group's score is the sum of its two highest expert
//! scores, the best `topk_groups` groups survive, and top-k is taken
//! over the surviving experts.

use kt_kernels::moe::MoeRouting;
use kt_kernels::act::{sigmoid, softmax_inplace};
use kt_tensor::Matrix;
use rand::rngs::StdRng;

use crate::error::ModelError;

/// Router scoring function applied to gate logits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScoreFunc {
    /// Softmax over all experts (DeepSeek-V2, Qwen2).
    Softmax,
    /// Elementwise sigmoid (DeepSeek-V3).
    Sigmoid,
}

/// Routing configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateConfig {
    /// Number of routed experts.
    pub n_experts: usize,
    /// Experts selected per token.
    pub top_k: usize,
    /// Expert groups (1 = plain top-k).
    pub n_groups: usize,
    /// Groups surviving group selection.
    pub topk_groups: usize,
    /// Scoring function.
    pub score: ScoreFunc,
    /// Multiplier applied to final routing weights.
    pub routed_scaling: f32,
    /// Renormalize selected weights to sum to 1 before scaling.
    pub norm_topk_prob: bool,
}

impl GateConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Config`] on violated constraints.
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.n_experts == 0 || self.top_k == 0 || self.top_k > self.n_experts {
            return Err(ModelError::config(format!(
                "top_k {} must be in 1..={}",
                self.top_k, self.n_experts
            )));
        }
        if self.n_groups == 0 || !self.n_experts.is_multiple_of(self.n_groups) {
            return Err(ModelError::config(format!(
                "n_groups {} must divide n_experts {}",
                self.n_groups, self.n_experts
            )));
        }
        if self.topk_groups == 0 || self.topk_groups > self.n_groups {
            return Err(ModelError::config(format!(
                "topk_groups {} must be in 1..={}",
                self.topk_groups, self.n_groups
            )));
        }
        let per_group = self.n_experts / self.n_groups;
        if self.top_k > per_group * self.topk_groups {
            return Err(ModelError::config(format!(
                "top_k {} cannot be satisfied by {} groups of {}",
                self.top_k, self.topk_groups, per_group
            )));
        }
        Ok(())
    }
}

/// A learned (here: randomly initialized) gating network.
#[derive(Debug, Clone)]
pub struct Router {
    /// Gate projection, `n_experts x hidden` (dense; it is tiny and
    /// lives on the GPU in the paper's placement).
    w: Matrix,
    cfg: GateConfig,
}

impl Router {
    /// Creates a router with random weights.
    ///
    /// # Errors
    ///
    /// Propagates config validation errors.
    pub fn random(cfg: GateConfig, hidden: usize, rng: &mut StdRng) -> Result<Self, ModelError> {
        cfg.validate()?;
        let w = Matrix::random_kaiming(cfg.n_experts, hidden, rng)?;
        Ok(Router { w, cfg })
    }

    /// Creates a router from explicit weights (for tests).
    ///
    /// # Errors
    ///
    /// Propagates config validation errors and shape mismatches.
    pub fn from_weights(cfg: GateConfig, w: Matrix) -> Result<Self, ModelError> {
        cfg.validate()?;
        if w.rows() != cfg.n_experts {
            return Err(ModelError::config(format!(
                "gate weight has {} rows, expected {}",
                w.rows(),
                cfg.n_experts
            )));
        }
        Ok(Router { w, cfg })
    }

    /// Routing configuration.
    pub fn config(&self) -> &GateConfig {
        &self.cfg
    }

    /// Input width the gate projection expects.
    pub fn hidden(&self) -> usize {
        self.w.cols()
    }

    /// Serializes the router (config + gate weights).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_to(&self, w: &mut impl std::io::Write) -> Result<(), ModelError> {
        use kt_tensor::serial::{write_f32s, write_u64};
        write_u64(w, self.cfg.n_experts as u64)?;
        write_u64(w, self.cfg.top_k as u64)?;
        write_u64(w, self.cfg.n_groups as u64)?;
        write_u64(w, self.cfg.topk_groups as u64)?;
        write_u64(w, matches!(self.cfg.score, ScoreFunc::Sigmoid) as u64)?;
        write_u64(w, self.cfg.norm_topk_prob as u64)?;
        write_f32s(w, &[self.cfg.routed_scaling])?;
        self.w.write_to(w)?;
        Ok(())
    }

    /// Deserializes a router written by [`Router::write_to`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Config`] on corrupt input.
    pub fn read_from(r: &mut impl std::io::Read) -> Result<Self, ModelError> {
        use kt_tensor::serial::{read_f32s, read_len, read_u64, MAX_ELEMS};
        let n_experts = read_len(r, MAX_ELEMS)?;
        let top_k = read_len(r, MAX_ELEMS)?;
        let n_groups = read_len(r, MAX_ELEMS)?;
        let topk_groups = read_len(r, MAX_ELEMS)?;
        let score = if read_u64(r)? != 0 {
            ScoreFunc::Sigmoid
        } else {
            ScoreFunc::Softmax
        };
        let norm_topk_prob = read_u64(r)? != 0;
        let scaling = read_f32s(r, 1)?;
        let cfg = GateConfig {
            n_experts,
            top_k,
            n_groups,
            topk_groups,
            score,
            routed_scaling: scaling.first().copied().unwrap_or(1.0),
            norm_topk_prob,
        };
        let w = Matrix::read_from(r)?;
        Router::from_weights(cfg, w)
    }

    /// Raw expert scores for one token (after the scoring function).
    pub fn scores(&self, x: &[f32]) -> Vec<f32> {
        let mut s: Vec<f32> = (0..self.cfg.n_experts)
            .map(|e| {
                self.w
                    .row(e)
                    .iter()
                    .zip(x)
                    .map(|(w, v)| w * v)
                    .sum::<f32>()
            })
            .collect();
        match self.cfg.score {
            ScoreFunc::Softmax => softmax_inplace(&mut s),
            ScoreFunc::Sigmoid => {
                for v in &mut s {
                    *v = sigmoid(*v);
                }
            }
        }
        s
    }

    /// Routes one token, returning `(expert, weight)` pairs sorted by
    /// descending weight.
    pub fn route_row(&self, x: &[f32]) -> Vec<(usize, f32)> {
        let scores = self.scores(x);
        let per_group = self.cfg.n_experts / self.cfg.n_groups;

        // Group selection: score = sum of the two best experts in the
        // group (DeepSeek's grouped top-k).
        let allowed: Vec<bool> = if self.cfg.n_groups > 1 {
            let mut group_scores: Vec<(usize, f32)> = (0..self.cfg.n_groups)
                .map(|g| {
                    let mut best = [f32::NEG_INFINITY; 2];
                    for &s in &scores[g * per_group..(g + 1) * per_group] {
                        if s > best[0] {
                            best[1] = best[0];
                            best[0] = s;
                        } else if s > best[1] {
                            best[1] = s;
                        }
                    }
                    (g, best[0] + best[1].max(0.0))
                })
                .collect();
            group_scores.sort_by(|a, b| b.1.total_cmp(&a.1));
            let mut allowed = vec![false; self.cfg.n_experts];
            for &(g, _) in group_scores.iter().take(self.cfg.topk_groups) {
                allowed[g * per_group..(g + 1) * per_group].fill(true);
            }
            allowed
        } else {
            vec![true; self.cfg.n_experts]
        };

        // Top-k over surviving experts.
        let mut ranked: Vec<(usize, f32)> = scores
            .iter()
            .enumerate()
            .filter(|(e, _)| allowed[*e])
            .map(|(e, &s)| (e, s))
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        ranked.truncate(self.cfg.top_k);

        if self.cfg.norm_topk_prob {
            let sum: f32 = ranked.iter().map(|&(_, s)| s).sum();
            if sum > 0.0 {
                for r in &mut ranked {
                    r.1 /= sum;
                }
            }
        }
        for r in &mut ranked {
            r.1 *= self.cfg.routed_scaling;
        }
        ranked
    }

    /// Routes a batch of tokens.
    pub fn route(&self, x: &Matrix) -> MoeRouting {
        MoeRouting::new((0..x.rows()).map(|t| self.route_row(x.row(t))).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kt_tensor::rng::seeded;

    fn cfg(n: usize, k: usize, groups: usize, kg: usize, score: ScoreFunc) -> GateConfig {
        GateConfig {
            n_experts: n,
            top_k: k,
            n_groups: groups,
            topk_groups: kg,
            score,
            routed_scaling: 1.0,
            norm_topk_prob: false,
        }
    }

    #[test]
    fn validation_rejects_inconsistencies() {
        assert!(cfg(8, 0, 1, 1, ScoreFunc::Softmax).validate().is_err());
        assert!(cfg(8, 9, 1, 1, ScoreFunc::Softmax).validate().is_err());
        assert!(cfg(8, 2, 3, 1, ScoreFunc::Softmax).validate().is_err());
        assert!(cfg(8, 2, 4, 5, ScoreFunc::Softmax).validate().is_err());
        // 8 experts, 4 groups of 2, keep 1 group -> at most 2 selectable.
        assert!(cfg(8, 3, 4, 1, ScoreFunc::Softmax).validate().is_err());
        assert!(cfg(8, 2, 4, 1, ScoreFunc::Softmax).validate().is_ok());
    }

    #[test]
    fn topk_selects_highest_scores() {
        let mut rng = seeded(1);
        let router = Router::random(cfg(16, 4, 1, 1, ScoreFunc::Softmax), 32, &mut rng).unwrap();
        let mut x = vec![0.0f32; 32];
        kt_tensor::rng::fill_uniform(&mut rng, &mut x, 1.0);
        let picks = router.route_row(&x);
        assert_eq!(picks.len(), 4);
        let scores = router.scores(&x);
        // Every non-picked expert must score <= the lowest pick.
        let min_pick = picks.iter().map(|&(_, s)| s).fold(f32::INFINITY, f32::min);
        for (e, &s) in scores.iter().enumerate() {
            if !picks.iter().any(|&(p, _)| p == e) {
                assert!(s <= min_pick + 1e-6);
            }
        }
        // Sorted descending.
        for w in picks.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn grouped_topk_respects_group_mask() {
        let mut rng = seeded(2);
        let c = cfg(16, 4, 4, 2, ScoreFunc::Sigmoid);
        let router = Router::random(c, 32, &mut rng).unwrap();
        let mut x = vec![0.0f32; 32];
        kt_tensor::rng::fill_uniform(&mut rng, &mut x, 1.0);
        let picks = router.route_row(&x);
        assert_eq!(picks.len(), 4);
        // All picks must come from at most topk_groups distinct groups.
        let mut groups: Vec<usize> = picks.iter().map(|&(e, _)| e / 4).collect();
        groups.sort_unstable();
        groups.dedup();
        assert!(groups.len() <= 2, "groups={groups:?}");
    }

    #[test]
    fn normalization_and_scaling_apply() {
        let mut rng = seeded(3);
        let mut c = cfg(8, 4, 1, 1, ScoreFunc::Sigmoid);
        c.norm_topk_prob = true;
        c.routed_scaling = 2.5;
        let router = Router::random(c, 16, &mut rng).unwrap();
        let mut x = vec![0.0f32; 16];
        kt_tensor::rng::fill_uniform(&mut rng, &mut x, 1.0);
        let picks = router.route_row(&x);
        let sum: f32 = picks.iter().map(|&(_, w)| w).sum();
        assert!((sum - 2.5).abs() < 1e-4, "sum={sum}");
    }

    #[test]
    fn softmax_weights_sum_below_one_without_norm() {
        let mut rng = seeded(4);
        let router = Router::random(cfg(8, 3, 1, 1, ScoreFunc::Softmax), 16, &mut rng).unwrap();
        let mut x = vec![0.0f32; 16];
        kt_tensor::rng::fill_uniform(&mut rng, &mut x, 1.0);
        let picks = router.route_row(&x);
        let sum: f32 = picks.iter().map(|&(_, w)| w).sum();
        assert!(sum > 0.0 && sum <= 1.0 + 1e-6);
    }

    #[test]
    fn routing_is_deterministic() {
        let mut rng = seeded(5);
        let router = Router::random(cfg(16, 4, 4, 2, ScoreFunc::Sigmoid), 24, &mut rng).unwrap();
        let x = Matrix::random_uniform(3, 24, 1.0, &mut rng).unwrap();
        let a = router.route(&x);
        let b = router.route(&x);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.n_tokens(), 3);
        assert_eq!(a.n_activations(), 12);
    }

    #[test]
    fn serialization_round_trips() {
        let mut rng = seeded(41);
        let router =
            Router::random(cfg(16, 4, 4, 2, ScoreFunc::Sigmoid), 24, &mut rng).unwrap();
        let mut buf = Vec::new();
        router.write_to(&mut buf).unwrap();
        let loaded = Router::read_from(&mut buf.as_slice()).unwrap();
        let mut x = vec![0.0f32; 24];
        kt_tensor::rng::fill_uniform(&mut rng, &mut x, 1.0);
        assert_eq!(router.route_row(&x), loaded.route_row(&x));
        assert_eq!(loaded.config(), router.config());
    }

    #[test]
    fn hand_built_gate_routes_predictably() {
        // Identity-ish gate: expert e fires on feature e.
        let mut w = Matrix::zeros(4, 4).unwrap();
        for e in 0..4 {
            w.set(e, e, 10.0);
        }
        let router =
            Router::from_weights(cfg(4, 2, 1, 1, ScoreFunc::Softmax), w).unwrap();
        let picks = router.route_row(&[0.0, 5.0, 0.0, 3.0]);
        assert_eq!(picks[0].0, 1);
        assert_eq!(picks[1].0, 3);
    }
}
