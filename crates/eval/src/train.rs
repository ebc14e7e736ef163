//! Minibatch SGD training with manual backprop through top-k routing.
//!
//! Gradients flow through the selected experts and the gate softmax
//! (straight-through on the discrete top-k selection, the standard MoE
//! training recipe), with an importance-regularization term pushing the
//! gate toward balanced expert usage — small MoEs otherwise collapse
//! onto a couple of experts and the deferral study becomes degenerate.

use kt_kernels::act::softmax_inplace;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use crate::net::{matvec_acc, matvec_t_acc, rms_norm, rms_norm_backward, topk_indices, MoeNet};
use crate::tasks::Task;

/// Training hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Learning rate.
    pub lr: f32,
    /// Passes over the training set.
    pub epochs: usize,
    /// Minibatch size (gradients are averaged).
    pub batch: usize,
    /// Importance-regularization coefficient (0 disables).
    pub balance_coef: f32,
    /// Shuffling seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            lr: 0.05,
            epochs: 20,
            batch: 16,
            balance_coef: 0.01,
            seed: 0,
        }
    }
}

/// Per-parameter gradient buffers (same shapes as the net).
struct Grads {
    input_w: Vec<f32>,
    gate: Vec<Vec<f32>>,
    w1: Vec<Vec<Vec<f32>>>,
    w2: Vec<Vec<Vec<f32>>>,
    head_w: Vec<f32>,
}

impl Grads {
    fn zeros(net: &MoeNet) -> Self {
        Grads {
            input_w: vec![0.0; net.input_w.len()],
            gate: net.blocks.iter().map(|b| vec![0.0; b.gate.len()]).collect(),
            w1: net
                .blocks
                .iter()
                .map(|b| b.w1.iter().map(|m| vec![0.0; m.len()]).collect())
                .collect(),
            w2: net
                .blocks
                .iter()
                .map(|b| b.w2.iter().map(|m| vec![0.0; m.len()]).collect())
                .collect(),
            head_w: vec![0.0; net.head_w.len()],
        }
    }
}

/// Forward caches for one example.
struct Caches {
    /// Block inputs (`n_blocks + 1` entries; last is the head input).
    xs: Vec<Vec<f32>>,
    /// Normalized block inputs and their rms values.
    norms: Vec<(Vec<f32>, f32)>,
    /// Gate probabilities per block.
    probs: Vec<Vec<f32>>,
    /// Selected experts per block.
    sel: Vec<Vec<usize>>,
    /// Pre-activation hidden vectors per (block, selected expert).
    pre: Vec<Vec<Vec<f32>>>,
    /// Expert outputs per (block, selected expert).
    eout: Vec<Vec<Vec<f32>>>,
    /// Class probabilities.
    class_probs: Vec<f32>,
}

/// Forward in Standard mode, caching everything backprop needs.
fn forward_cached(net: &MoeNet, input: &[f32]) -> Caches {
    let cfg = net.config();
    let mut x = vec![0.0f32; cfg.dim];
    matvec_acc(&net.input_w, input, &mut x, 1.0);
    let mut xs = vec![x.clone()];
    let mut norms = Vec::new();
    let mut probs = Vec::new();
    let mut sel = Vec::new();
    let mut pre_all = Vec::new();
    let mut eout_all = Vec::new();

    for block in &net.blocks {
        let (n, r) = rms_norm(&x);
        let p = net.gate_probs(block, &n);
        let chosen = topk_indices(&p, cfg.top_k);
        let mut pres = Vec::with_capacity(chosen.len());
        let mut eouts = Vec::with_capacity(chosen.len());
        let mut delta = vec![0.0f32; cfg.dim];
        for &e in &chosen {
            let mut pre = vec![0.0f32; cfg.hidden];
            matvec_acc(&block.w1[e], &n, &mut pre, 1.0);
            let mut h = pre.clone();
            for v in &mut h {
                *v = v.max(0.0);
            }
            let mut out = vec![0.0f32; cfg.dim];
            matvec_acc(&block.w2[e], &h, &mut out, 1.0);
            for (d, o) in delta.iter_mut().zip(&out) {
                *d += p[e] * o;
            }
            pres.push(pre);
            eouts.push(out);
        }
        for (xv, d) in x.iter_mut().zip(&delta) {
            *xv += d;
        }
        probs.push(p);
        sel.push(chosen);
        pre_all.push(pres);
        eout_all.push(eouts);
        norms.push((n, r));
        xs.push(x.clone());
    }

    let mut logits = vec![0.0f32; cfg.n_classes];
    matvec_acc(&net.head_w, &x, &mut logits, 1.0);
    softmax_inplace(&mut logits);
    Caches {
        xs,
        norms,
        probs,
        sel,
        pre: pre_all,
        eout: eout_all,
        class_probs: logits,
    }
}

/// Backprop one example into `g`; returns the cross-entropy loss.
fn backward(net: &MoeNet, input: &[f32], label: usize, balance_coef: f32, g: &mut Grads) -> f32 {
    let cfg = *net.config();
    let c = forward_cached(net, input);
    let loss = -(c.class_probs[label].max(1e-9)).ln();

    // Head: dlogits = probs - onehot.
    let mut dlogits = c.class_probs.clone();
    dlogits[label] -= 1.0;
    let x_last = &c.xs[cfg.n_blocks];
    for (r, &dl) in dlogits.iter().enumerate() {
        let row = &mut g.head_w[r * cfg.dim..(r + 1) * cfg.dim];
        for (gr, xv) in row.iter_mut().zip(x_last) {
            *gr += dl * xv;
        }
    }
    let mut dx = vec![0.0f32; cfg.dim];
    matvec_t_acc(&net.head_w, &dlogits, &mut dx, 1.0);

    // Blocks, reversed.
    for bi in (0..cfg.n_blocks).rev() {
        let block = &net.blocks[bi];
        let (n_in, r_in) = (&c.norms[bi].0, c.norms[bi].1);
        let p = &c.probs[bi];
        let sel = &c.sel[bi];
        // dp over all experts: selected get dy . e_i; importance
        // regularization adds 2 * coef * E * p_i everywhere.
        let mut dp = vec![0.0f32; cfg.n_experts];
        if balance_coef > 0.0 {
            for (d, &pi) in dp.iter_mut().zip(p.iter()) {
                *d += 2.0 * balance_coef * cfg.n_experts as f32 * pi;
            }
        }
        let mut dx_in = vec![0.0f32; cfg.dim];
        // Gradient wrt the normalized input (gate + expert paths).
        let mut dn = vec![0.0f32; cfg.dim];
        for (si, &e) in sel.iter().enumerate() {
            let eout = &c.eout[bi][si];
            // dp_e from the weighted expert mixture.
            dp[e] += dx.iter().zip(eout).map(|(a, b)| a * b).sum::<f32>();
            // d e_out = p_e * dx.
            let de: Vec<f32> = dx.iter().map(|v| p[e] * v).collect();
            // W2 grad and dh.
            let pre = &c.pre[bi][si];
            let h: Vec<f32> = pre.iter().map(|v| v.max(0.0)).collect();
            for (r, &dev) in de.iter().enumerate() {
                let row = &mut g.w2[bi][e][r * cfg.hidden..(r + 1) * cfg.hidden];
                for (gr, hv) in row.iter_mut().zip(&h) {
                    *gr += dev * hv;
                }
            }
            let mut dh = vec![0.0f32; cfg.hidden];
            matvec_t_acc(&block.w2[e], &de, &mut dh, 1.0);
            // ReLU.
            for (dhv, &pv) in dh.iter_mut().zip(pre) {
                if pv <= 0.0 {
                    *dhv = 0.0;
                }
            }
            // W1 grad and normalized-input grad.
            for (r, &dhv) in dh.iter().enumerate() {
                let row = &mut g.w1[bi][e][r * cfg.dim..(r + 1) * cfg.dim];
                for (gr, xv) in row.iter_mut().zip(n_in) {
                    *gr += dhv * xv;
                }
            }
            matvec_t_acc(&block.w1[e], &dh, &mut dn, 1.0);
        }
        // Softmax backward: ds = p * (dp - sum_j dp_j p_j).
        let dot: f32 = dp.iter().zip(p.iter()).map(|(a, b)| a * b).sum();
        let ds: Vec<f32> = p
            .iter()
            .zip(&dp)
            .map(|(&pi, &di)| pi * (di - dot))
            .collect();
        for (r, &dsv) in ds.iter().enumerate() {
            let row = &mut g.gate[bi][r * cfg.dim..(r + 1) * cfg.dim];
            for (gr, xv) in row.iter_mut().zip(n_in) {
                *gr += dsv * xv;
            }
        }
        matvec_t_acc(&block.gate, &ds, &mut dn, 1.0);
        // Normalization backward folds dn into the raw-input gradient.
        rms_norm_backward(&dn, n_in, r_in, &mut dx_in);
        // Residual: gradient flows straight through.
        for (a, b) in dx_in.iter_mut().zip(&dx) {
            *a += b;
        }
        dx = dx_in;
    }

    // Input projection.
    for (r, &dv) in dx.iter().enumerate() {
        let row = &mut g.input_w[r * cfg.input_dim..(r + 1) * cfg.input_dim];
        for (gr, iv) in row.iter_mut().zip(input) {
            *gr += dv * iv;
        }
    }
    loss
}

fn apply(params: &mut [f32], grads: &[f32], lr: f32, scale: f32) {
    for (p, g) in params.iter_mut().zip(grads) {
        *p -= lr * scale * g;
    }
}

/// Trains `net` on a task; returns the mean training loss per epoch.
pub fn train(net: &mut MoeNet, task: &Task, cfg: &TrainConfig) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = (0..task.train.len()).collect();
    let mut history = Vec::with_capacity(cfg.epochs);
    for _ in 0..cfg.epochs {
        // Fisher-Yates shuffle.
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let mut epoch_loss = 0.0f64;
        for chunk in order.chunks(cfg.batch) {
            let mut g = Grads::zeros(net);
            let mut batch_loss = 0.0f64;
            for &i in chunk {
                let (x, y) = &task.train[i];
                batch_loss += backward(net, x, *y, cfg.balance_coef, &mut g) as f64;
            }
            let scale = 1.0 / chunk.len() as f32;
            apply(&mut net.input_w, &g.input_w, cfg.lr, scale);
            apply(&mut net.head_w, &g.head_w, cfg.lr, scale);
            for (bi, block) in net.blocks.iter_mut().enumerate() {
                apply(&mut block.gate, &g.gate[bi], cfg.lr, scale);
                for e in 0..block.w1.len() {
                    apply(&mut block.w1[e], &g.w1[bi][e], cfg.lr, scale);
                    apply(&mut block.w2[e], &g.w2[bi][e], cfg.lr, scale);
                }
            }
            epoch_loss += batch_loss;
        }
        history.push((epoch_loss / task.train.len() as f64) as f32);
    }
    history
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use crate::net::{EvalMode, NetConfig};
    use crate::tasks::TaskKind;

    fn small_net(seed: u64) -> MoeNet {
        MoeNet::random(
            NetConfig {
                input_dim: 16,
                dim: 16,
                hidden: 16,
                n_blocks: 2,
                n_experts: 8,
                top_k: 4,
                n_classes: 6,
            },
            seed,
        )
    }

    #[test]
    fn loss_decreases_during_training() {
        let task = Task::generate(TaskKind::Blobs, 16, 300, 100, 1);
        let mut net = small_net(1);
        let history = train(
            &mut net,
            &task,
            &TrainConfig {
                epochs: 8,
                ..Default::default()
            },
        );
        assert!(history.len() == 8);
        assert!(
            history.last().unwrap() < &(history[0] * 0.8),
            "loss did not drop: {history:?}"
        );
    }

    #[test]
    fn trained_net_beats_chance_clearly() {
        let task = Task::generate(TaskKind::Blobs, 16, 400, 200, 2);
        let mut net = small_net(2);
        train(
            &mut net,
            &task,
            &TrainConfig {
                epochs: 15,
                ..Default::default()
            },
        );
        let acc = accuracy(&net, &task.test, EvalMode::Standard);
        assert!(acc > 0.6, "acc={acc} (chance = 0.167)");
    }

    #[test]
    fn gradient_check_on_tiny_net() {
        // Finite differences on a few random parameters.
        let task = Task::generate(TaskKind::Xor, 6, 4, 1, 3);
        let net = MoeNet::random(
            NetConfig {
                input_dim: 6,
                dim: 5,
                hidden: 4,
                n_blocks: 2,
                n_experts: 4,
                top_k: 2,
                n_classes: 2,
            },
            3,
        );
        let (x, y) = &task.train[0];
        let mut g = Grads::zeros(&net);
        let base_loss = backward(&net, x, *y, 0.0, &mut g);
        assert!(base_loss.is_finite());
        let eps = 1e-3f32;

        // Check head, input and one expert weight by perturbation.
        let checks: Vec<(&str, usize)> = vec![("head", 3), ("input", 7), ("w1", 5)];
        for (which, idx) in checks {
            let mut pert = net.clone();
            let (slot, gval): (&mut f32, f32) = match which {
                "head" => (&mut pert.head_w[idx], g.head_w[idx]),
                "input" => (&mut pert.input_w[idx], g.input_w[idx]),
                _ => (&mut pert.blocks[0].w1[0][idx], g.w1[0][0][idx]),
            };
            *slot += eps;
            let mut g2 = Grads::zeros(&pert);
            let loss2 = backward(&pert, x, *y, 0.0, &mut g2);
            let numeric = (loss2 - base_loss) / eps;
            assert!(
                (numeric - gval).abs() < 0.05 * gval.abs().max(0.2),
                "{which}[{idx}]: numeric={numeric} analytic={gval}"
            );
        }
    }

    #[test]
    fn balance_regularization_spreads_expert_usage() {
        let task = Task::generate(TaskKind::Blobs, 16, 300, 100, 5);
        let herfindahl = |net: &MoeNet| -> f64 {
            let inputs: Vec<Vec<f32>> = task.test.iter().map(|(x, _)| x.clone()).collect();
            let usage = net.expert_usage(&inputs);
            let mut h = 0.0f64;
            for block in &usage {
                let total: usize = block.iter().sum();
                for &u in block {
                    let f = u as f64 / total as f64;
                    h += f * f;
                }
            }
            h / usage.len() as f64
        };
        let mut balanced = small_net(6);
        train(
            &mut balanced,
            &task,
            &TrainConfig {
                epochs: 10,
                balance_coef: 0.05,
                ..Default::default()
            },
        );
        let mut unbalanced = small_net(6);
        train(
            &mut unbalanced,
            &task,
            &TrainConfig {
                epochs: 10,
                balance_coef: 0.0,
                ..Default::default()
            },
        );
        assert!(
            herfindahl(&balanced) <= herfindahl(&unbalanced) + 0.02,
            "balanced {} vs unbalanced {}",
            herfindahl(&balanced),
            herfindahl(&unbalanced)
        );
    }

    #[test]
    fn training_is_seed_deterministic() {
        let task = Task::generate(TaskKind::Blobs, 16, 100, 20, 7);
        let mut a = small_net(8);
        let mut b = small_net(8);
        let ha = train(&mut a, &task, &TrainConfig::default());
        let hb = train(&mut b, &task, &TrainConfig::default());
        assert_eq!(ha, hb);
        assert_eq!(
            a.forward(&task.test[0].0, EvalMode::Standard),
            b.forward(&task.test[0].0, EvalMode::Standard)
        );
    }
}
