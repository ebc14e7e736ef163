//! Trainable MoE residual networks with the three inference modes.
//!
//! `MoeNet` is the smallest architecture that exhibits the phenomenon
//! Expert Deferral relies on: residual blocks whose MoE contributions
//! can be delayed by one block with limited damage (§4.1, "the inherent
//! robustness of modern Transformer models to delayed intermediate
//! computations, primarily due to residual connections").
//!
//! Blocks compute `x_{k+1} = x_k + sum_{i in topk} p_i * E_i(x_k)` with
//! softmax gate scores `p` and two-layer ReLU experts. Inference
//! supports [`EvalMode::Standard`], [`EvalMode::Deferred`] (the bottom
//! `top_k - n_immediate` experts' outputs land one block later; the
//! final block never defers) and [`EvalMode::Skipped`] (those experts
//! are dropped), matching `kt_model::ExecMode` semantics exactly.

use kt_kernels::act::softmax_inplace;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Architecture of an evaluation network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Input feature dimensionality.
    pub input_dim: usize,
    /// Residual stream width.
    pub dim: usize,
    /// Expert hidden width.
    pub hidden: usize,
    /// Number of residual MoE blocks.
    pub n_blocks: usize,
    /// Experts per block.
    pub n_experts: usize,
    /// Experts activated per input.
    pub top_k: usize,
    /// Output classes.
    pub n_classes: usize,
}

impl NetConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.input_dim == 0
            || self.dim == 0
            || self.hidden == 0
            || self.n_blocks == 0
            || self.n_classes == 0
        {
            return Err("all dimensions must be nonzero".into());
        }
        if self.top_k == 0 || self.top_k > self.n_experts {
            return Err(format!(
                "top_k {} must be in 1..={}",
                self.top_k, self.n_experts
            ));
        }
        Ok(())
    }
}

/// Inference mode (mirrors `kt_model::ExecMode`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalMode {
    /// Standard execution.
    Standard,
    /// Defer all but the `n_immediate` best experts by one block.
    Deferred {
        /// Immediate experts per block.
        n_immediate: usize,
    },
    /// Drop all but the `n_kept` best experts.
    Skipped {
        /// Retained experts per block.
        n_kept: usize,
    },
}

/// One MoE block's parameters (flat row-major matrices).
#[derive(Debug, Clone)]
pub(crate) struct MoeBlock {
    /// Gate, `n_experts x dim`.
    pub gate: Vec<f32>,
    /// Per expert: first layer, `hidden x dim`.
    pub w1: Vec<Vec<f32>>,
    /// Per expert: second layer, `dim x hidden`.
    pub w2: Vec<Vec<f32>>,
}

/// The evaluation network.
#[derive(Debug, Clone)]
pub struct MoeNet {
    pub(crate) cfg: NetConfig,
    /// Input projection, `dim x input_dim`.
    pub(crate) input_w: Vec<f32>,
    pub(crate) blocks: Vec<MoeBlock>,
    /// Classifier head, `n_classes x dim`.
    pub(crate) head_w: Vec<f32>,
}

/// `y += a * M x` for row-major `M` (`rows x cols`).
pub(crate) fn matvec_acc(m: &[f32], x: &[f32], y: &mut [f32], a: f32) {
    let cols = x.len();
    for (r, yr) in y.iter_mut().enumerate() {
        let row = &m[r * cols..(r + 1) * cols];
        let mut acc = 0.0f32;
        for (w, v) in row.iter().zip(x) {
            acc += w * v;
        }
        *yr += a * acc;
    }
}

/// `y += a * M^T x` for row-major `M` (`rows x cols`), `x` of `rows`.
pub(crate) fn matvec_t_acc(m: &[f32], x: &[f32], y: &mut [f32], a: f32) {
    let cols = y.len();
    for (r, &xv) in x.iter().enumerate() {
        let row = &m[r * cols..(r + 1) * cols];
        for (yv, w) in y.iter_mut().zip(row) {
            *yv += a * xv * w;
        }
    }
}

/// RMS-normalizes `x` into a fresh vector, returning `(normed, rms)`.
///
/// Blocks consume the *normalized* stream (pre-norm, as transformers
/// do) while the residual accumulates raw outputs — the property that
/// makes delayed contributions benign (§4.1).
pub(crate) fn rms_norm(x: &[f32]) -> (Vec<f32>, f32) {
    let ms: f32 = x.iter().map(|v| v * v).sum::<f32>() / x.len() as f32;
    let r = (ms + 1e-6).sqrt();
    (x.iter().map(|v| v / r).collect(), r)
}

/// Backward of [`rms_norm`]: accumulates `d/dx` of `f(norm(x))` into
/// `dx` given `dn = df/dnorm`, the normalized vector `n` and the rms
/// `r`.
pub(crate) fn rms_norm_backward(dn: &[f32], n: &[f32], r: f32, dx: &mut [f32]) {
    let d = n.len() as f32;
    let dot: f32 = dn.iter().zip(n).map(|(a, b)| a * b).sum();
    for ((dxv, &dnv), &nv) in dx.iter_mut().zip(dn).zip(n) {
        *dxv += (dnv - nv * dot / d) / r;
    }
}

/// Indices of the `k` largest values, descending.
pub(crate) fn topk_indices(v: &[f32], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..v.len()).collect();
    idx.sort_by(|&a, &b| v[b].total_cmp(&v[a]));
    idx.truncate(k);
    idx
}

impl MoeNet {
    /// Creates a network with seeded random parameters.
    ///
    /// # Panics
    ///
    /// Panics on invalid configurations (construction-time programming
    /// error; validate first for fallible flows).
    pub fn random(cfg: NetConfig, seed: u64) -> Self {
        cfg.validate().expect("invalid NetConfig");
        let mut rng = StdRng::seed_from_u64(seed);
        let init = |rows: usize, cols: usize, rng: &mut StdRng| {
            let std = (2.0 / cols as f32).sqrt();
            let mut m = vec![0.0f32; rows * cols];
            kt_tensor::rng::fill_normal(rng, &mut m, std);
            m
        };
        let input_w = init(cfg.dim, cfg.input_dim, &mut rng);
        let blocks = (0..cfg.n_blocks)
            .map(|_| MoeBlock {
                gate: init(cfg.n_experts, cfg.dim, &mut rng),
                w1: (0..cfg.n_experts)
                    .map(|_| init(cfg.hidden, cfg.dim, &mut rng))
                    .collect(),
                w2: (0..cfg.n_experts)
                    // Down-scale the second layer so residual updates
                    // start small (stable training).
                    .map(|_| {
                        let mut m = init(cfg.dim, cfg.hidden, &mut rng);
                        for v in &mut m {
                            *v *= 0.3;
                        }
                        m
                    })
                    .collect(),
            })
            .collect();
        let head_w = init(cfg.n_classes, cfg.dim, &mut rng);
        MoeNet {
            cfg,
            input_w,
            blocks,
            head_w,
        }
    }

    /// Network configuration.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Computes an expert's output `E_i(x)` (no gate weighting).
    pub(crate) fn expert_out(&self, block: &MoeBlock, e: usize, x: &[f32]) -> Vec<f32> {
        let mut h = vec![0.0f32; self.cfg.hidden];
        matvec_acc(&block.w1[e], x, &mut h, 1.0);
        for v in &mut h {
            *v = v.max(0.0);
        }
        let mut out = vec![0.0f32; self.cfg.dim];
        matvec_acc(&block.w2[e], &h, &mut out, 1.0);
        out
    }

    /// Gate probabilities for a block input.
    pub(crate) fn gate_probs(&self, block: &MoeBlock, x: &[f32]) -> Vec<f32> {
        let mut s = vec![0.0f32; self.cfg.n_experts];
        matvec_acc(&block.gate, x, &mut s, 1.0);
        softmax_inplace(&mut s);
        s
    }

    /// Forward pass in any mode, returning class logits.
    pub fn forward(&self, input: &[f32], mode: EvalMode) -> Vec<f32> {
        assert_eq!(input.len(), self.cfg.input_dim, "input dim mismatch");
        let mut x = vec![0.0f32; self.cfg.dim];
        matvec_acc(&self.input_w, input, &mut x, 1.0);

        // Deferred contribution from the previous block.
        let mut pending: Option<Vec<f32>> = None;
        let n_blocks = self.blocks.len();
        for (bi, block) in self.blocks.iter().enumerate() {
            let (n, _r) = rms_norm(&x);
            let p = self.gate_probs(block, &n);
            let sel = topk_indices(&p, self.cfg.top_k);
            let last = bi + 1 == n_blocks;

            let (immediate, deferred): (Vec<usize>, Vec<usize>) = match mode {
                EvalMode::Standard => (sel, Vec::new()),
                EvalMode::Skipped { n_kept } => {
                    (sel.into_iter().take(n_kept).collect(), Vec::new())
                }
                EvalMode::Deferred { n_immediate } => {
                    if last {
                        (sel, Vec::new())
                    } else {
                        let imm = sel.iter().copied().take(n_immediate).collect();
                        let def = sel.into_iter().skip(n_immediate).collect();
                        (imm, def)
                    }
                }
            };

            // Immediate contributions (computed on this block's input).
            let mut delta = vec![0.0f32; self.cfg.dim];
            for &e in &immediate {
                let out = self.expert_out(block, e, &n);
                for (d, o) in delta.iter_mut().zip(&out) {
                    *d += p[e] * o;
                }
            }
            // Deferred contributions of THIS block (also computed on
            // this block's input) land one block later.
            let next_pending = if deferred.is_empty() {
                None
            } else {
                let mut dp = vec![0.0f32; self.cfg.dim];
                for &e in &deferred {
                    let out = self.expert_out(block, e, &n);
                    for (d, o) in dp.iter_mut().zip(&out) {
                        *d += p[e] * o;
                    }
                }
                Some(dp)
            };

            for (xv, d) in x.iter_mut().zip(&delta) {
                *xv += d;
            }
            if let Some(prev) = pending.take() {
                for (xv, d) in x.iter_mut().zip(&prev) {
                    *xv += d;
                }
            }
            pending = next_pending;
        }
        // By construction the final block defers nothing.
        debug_assert!(pending.is_none());

        let mut logits = vec![0.0f32; self.cfg.n_classes];
        matvec_acc(&self.head_w, &x, &mut logits, 1.0);
        logits
    }

    /// Predicted class.
    pub fn predict(&self, input: &[f32], mode: EvalMode) -> usize {
        let logits = self.forward(input, mode);
        let mut best = 0;
        for (i, &l) in logits.iter().enumerate() {
            if l > logits[best] {
                best = i;
            }
        }
        best
    }

    /// Expert selection counts over a dataset (for balance checks).
    pub fn expert_usage(&self, inputs: &[Vec<f32>]) -> Vec<Vec<usize>> {
        let mut usage = vec![vec![0usize; self.cfg.n_experts]; self.cfg.n_blocks];
        for input in inputs {
            let mut x = vec![0.0f32; self.cfg.dim];
            matvec_acc(&self.input_w, input, &mut x, 1.0);
            for (bi, block) in self.blocks.iter().enumerate() {
                let (n, _r) = rms_norm(&x);
                let p = self.gate_probs(block, &n);
                for &e in &topk_indices(&p, self.cfg.top_k) {
                    usage[bi][e] += 1;
                    let out = self.expert_out(block, e, &n);
                    for (xv, o) in x.iter_mut().zip(&out) {
                        *xv += p[e] * o;
                    }
                }
            }
        }
        usage
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> NetConfig {
        NetConfig {
            input_dim: 8,
            dim: 12,
            hidden: 10,
            n_blocks: 3,
            n_experts: 8,
            top_k: 4,
            n_classes: 3,
        }
    }

    #[test]
    fn config_validation() {
        assert!(cfg().validate().is_ok());
        let mut c = cfg();
        c.top_k = 9;
        assert!(c.validate().is_err());
        let mut c = cfg();
        c.dim = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn forward_is_deterministic_and_finite() {
        let net = MoeNet::random(cfg(), 1);
        let x = vec![0.5f32; 8];
        let a = net.forward(&x, EvalMode::Standard);
        let b = net.forward(&x, EvalMode::Standard);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        assert!(a.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn deferral_with_full_immediate_is_standard() {
        let net = MoeNet::random(cfg(), 2);
        let x = vec![0.3f32, -0.2, 0.9, 0.0, 0.1, -0.5, 0.7, 0.4];
        let std = net.forward(&x, EvalMode::Standard);
        let def = net.forward(&x, EvalMode::Deferred { n_immediate: 4 });
        assert_eq!(std, def);
    }

    #[test]
    fn skipping_all_is_residual_only() {
        let net = MoeNet::random(cfg(), 3);
        let x = vec![0.2f32; 8];
        let skipped = net.forward(&x, EvalMode::Skipped { n_kept: 0 });
        // Residual-only output: head(input_w * x).
        let mut h = vec![0.0f32; 12];
        matvec_acc(&net.input_w, &x, &mut h, 1.0);
        let mut expect = vec![0.0f32; 3];
        matvec_acc(&net.head_w, &h, &mut expect, 1.0);
        for (a, b) in skipped.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn deferral_perturbs_less_than_skipping() {
        // The §4.1 intuition at network scale, averaged over inputs.
        let net = MoeNet::random(cfg(), 4);
        let mut rng = kt_tensor::rng::seeded(5);
        let mut d_def = 0.0f64;
        let mut d_skip = 0.0f64;
        for _ in 0..50 {
            let mut x = vec![0.0f32; 8];
            kt_tensor::rng::fill_uniform(&mut rng, &mut x, 1.0);
            let std = net.forward(&x, EvalMode::Standard);
            let def = net.forward(&x, EvalMode::Deferred { n_immediate: 2 });
            let skip = net.forward(&x, EvalMode::Skipped { n_kept: 2 });
            let dist = |a: &[f32], b: &[f32]| -> f64 {
                a.iter()
                    .zip(b)
                    .map(|(p, q)| ((p - q) * (p - q)) as f64)
                    .sum::<f64>()
                    .sqrt()
            };
            d_def += dist(&std, &def);
            d_skip += dist(&std, &skip);
        }
        assert!(
            d_def < d_skip,
            "deferral divergence {d_def} should be below skipping {d_skip}"
        );
    }

    #[test]
    fn final_block_never_defers() {
        // With one block, deferral must equal standard (the only block
        // is the last).
        let mut c = cfg();
        c.n_blocks = 1;
        let net = MoeNet::random(c, 6);
        let x = vec![0.1f32; 8];
        assert_eq!(
            net.forward(&x, EvalMode::Standard),
            net.forward(&x, EvalMode::Deferred { n_immediate: 1 })
        );
    }

    #[test]
    fn expert_usage_counts_sum_correctly() {
        let net = MoeNet::random(cfg(), 7);
        let inputs: Vec<Vec<f32>> = (0..10).map(|i| vec![i as f32 * 0.1; 8]).collect();
        let usage = net.expert_usage(&inputs);
        for block_usage in &usage {
            let total: usize = block_usage.iter().sum();
            assert_eq!(total, 10 * 4, "top-4 over 10 inputs");
        }
    }

    #[test]
    fn topk_indices_are_descending() {
        let v = [0.1f32, 0.9, 0.5, 0.7];
        assert_eq!(topk_indices(&v, 3), vec![1, 3, 2]);
    }
}
