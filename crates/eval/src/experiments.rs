//! The Table 2 and Figure 13 analog experiments.
//!
//! Three MoE-network "model analogs" mirror the routing shapes of the
//! evaluated LLMs (DS-3: top-8, DS-2: top-6, QW-2: top-8), and each is
//! trained on the synthetic benchmark suite. Accuracy is then measured
//! under the paper's (I+D) deferral configurations (Table 2) and across
//! a sweep of affected-expert counts for Deferral vs Skipping
//! (Figure 13). A logit-divergence study on `kt-model`'s tiny
//! transformers corroborates the network-level result at the
//! architecture level.

use kt_model::{ExecMode, ModelPreset, MoeModel};
use kt_tensor::WeightDtype;

use crate::metrics::{accuracy, kl_divergence, top1_agreement};
use crate::net::{EvalMode, MoeNet, NetConfig};
use crate::tasks::{Task, TaskKind};
use crate::train::{train, TrainConfig};

/// A model analog: the routing shape of one evaluated LLM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelAnalog {
    /// Short display name ("DS-3"...).
    pub name: &'static str,
    /// Experts per block.
    pub n_experts: usize,
    /// Top-k.
    pub top_k: usize,
    /// The paper's quantized-deployment (immediate, deferred) split
    /// (Table 2: DS-3 2+6, DS-2 2+4, QW-2 4+4).
    pub paper_split: (usize, usize),
}

impl ModelAnalog {
    /// The three analogs of Table 2.
    pub fn all() -> [ModelAnalog; 3] {
        [
            ModelAnalog {
                name: "DS-3",
                n_experts: 16,
                top_k: 8,
                paper_split: (2, 6),
            },
            ModelAnalog {
                name: "DS-2",
                n_experts: 16,
                top_k: 6,
                paper_split: (2, 4),
            },
            ModelAnalog {
                name: "QW-2",
                n_experts: 16,
                top_k: 8,
                paper_split: (4, 4),
            },
        ]
    }

    /// Network config for this analog.
    pub fn net_config(&self, input_dim: usize, n_classes: usize) -> NetConfig {
        NetConfig {
            input_dim,
            dim: 24,
            hidden: 24,
            n_blocks: 10,
            n_experts: self.n_experts,
            top_k: self.top_k,
            n_classes,
        }
    }
}

/// Experiment sizing.
#[derive(Debug, Clone, Copy)]
pub struct EvalBudget {
    /// Training examples per task.
    pub n_train: usize,
    /// Test examples per task.
    pub n_test: usize,
    /// Training epochs.
    pub epochs: usize,
}

impl EvalBudget {
    /// Small budget for unit tests.
    pub fn quick() -> Self {
        EvalBudget {
            n_train: 300,
            n_test: 150,
            epochs: 10,
        }
    }

    /// Full budget for the bench binaries.
    pub fn full() -> Self {
        EvalBudget {
            n_train: 1500,
            n_test: 500,
            epochs: 30,
        }
    }
}

/// One Table 2 analog row.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Model analog name.
    pub model: &'static str,
    /// `(I, D)` configuration label, e.g. "(2+6)".
    pub config: String,
    /// Per-task accuracies (%) in `tasks` order.
    pub scores: Vec<f64>,
}

/// Trains one analog on one task and returns (net, task).
fn trained_net(analog: &ModelAnalog, kind: TaskKind, budget: &EvalBudget, seed: u64) -> (MoeNet, Task) {
    let dim = 16;
    let task = Task::generate(kind, dim, budget.n_train, budget.n_test, seed);
    let mut net = MoeNet::random(analog.net_config(dim, task.n_classes), seed ^ 0xA5A5);
    train(
        &mut net,
        &task,
        &TrainConfig {
            epochs: budget.epochs,
            seed,
            ..Default::default()
        },
    );
    (net, task)
}

/// Table 2 analog: accuracy with and without Expert Deferral, per model
/// analog, over `tasks`.
pub fn table2_analog(
    tasks: &[TaskKind],
    budget: &EvalBudget,
    seed: u64,
) -> Vec<Table2Row> {
    let mut rows = Vec::new();
    for analog in ModelAnalog::all() {
        let mut base_scores = Vec::new();
        let mut defer_scores = Vec::new();
        for (ti, &kind) in tasks.iter().enumerate() {
            let (net, task) = trained_net(&analog, kind, budget, seed + ti as u64);
            base_scores.push(accuracy(&net, &task.test, EvalMode::Standard) * 100.0);
            let (imm, _d) = analog.paper_split;
            defer_scores.push(
                accuracy(&net, &task.test, EvalMode::Deferred { n_immediate: imm }) * 100.0,
            );
        }
        rows.push(Table2Row {
            model: analog.name,
            config: format!("({}+0)", analog.top_k),
            scores: base_scores,
        });
        let (i, d) = analog.paper_split;
        rows.push(Table2Row {
            model: analog.name,
            config: format!("({i}+{d})"),
            scores: defer_scores,
        });
    }
    rows
}

/// One Figure 13 analog point: relative accuracy change (%) at a given
/// number of affected experts.
#[derive(Debug, Clone)]
pub struct Fig13Point {
    /// Affected (deferred or skipped) experts.
    pub affected: usize,
    /// Mean relative accuracy change under Deferral, %.
    pub deferral_delta_pct: f64,
    /// Mean relative accuracy change under Skipping, %.
    pub skipping_delta_pct: f64,
}

/// Figure 13 analog on the DS-3 analog (top-8): sweep affected experts,
/// compare Deferral against Skipping, averaged over `tasks`.
pub fn fig13_analog(
    tasks: &[TaskKind],
    budget: &EvalBudget,
    seed: u64,
) -> Vec<Fig13Point> {
    let analog = ModelAnalog::all()[0];
    // Train once per task; evaluate all configurations on the same nets.
    let trained: Vec<(MoeNet, Task)> = tasks
        .iter()
        .enumerate()
        .map(|(ti, &kind)| trained_net(&analog, kind, budget, seed + ti as u64))
        .collect();
    let baselines: Vec<f64> = trained
        .iter()
        .map(|(net, task)| accuracy(net, &task.test, EvalMode::Standard))
        .collect();

    (1..analog.top_k)
        .map(|affected| {
            let n_keep = analog.top_k - affected;
            let mut d_sum = 0.0;
            let mut s_sum = 0.0;
            for ((net, task), &base) in trained.iter().zip(&baselines) {
                let d = accuracy(net, &task.test, EvalMode::Deferred { n_immediate: n_keep });
                let s = accuracy(net, &task.test, EvalMode::Skipped { n_kept: n_keep });
                if base > 0.0 {
                    d_sum += (d - base) / base * 100.0;
                    s_sum += (s - base) / base * 100.0;
                }
            }
            Fig13Point {
                affected,
                deferral_delta_pct: d_sum / trained.len() as f64,
                skipping_delta_pct: s_sum / trained.len() as f64,
            }
        })
        .collect()
}

/// One logit-divergence row from the transformer-level study.
#[derive(Debug, Clone)]
pub struct DivergenceRow {
    /// Affected experts.
    pub affected: usize,
    /// Mean KL(standard || deferred).
    pub kl_deferral: f64,
    /// Mean KL(standard || skipped).
    pub kl_skipping: f64,
    /// Greedy-token agreement under deferral (fraction).
    pub agree_deferral: f64,
    /// Greedy-token agreement under skipping (fraction).
    pub agree_skipping: f64,
}

/// Transformer-level corroboration: on a tiny `kt-model` DeepSeek-V3
/// model, measure decode-logit divergence vs the standard path for
/// Deferral and Skipping across affected-expert counts.
///
/// # Errors
///
/// Propagates model construction/execution errors.
pub fn divergence_study(
    n_prompts: usize,
    seed: u64,
) -> Result<Vec<DivergenceRow>, kt_model::ModelError> {
    let cfg = ModelPreset::DeepSeekV3.tiny_config();
    let model = MoeModel::random(&cfg, WeightDtype::F32, seed)?;
    let top_k = cfg.top_k;
    let mut rows = Vec::new();
    for affected in 1..top_k {
        let n_keep = top_k - affected;
        let mut kl_d = 0.0;
        let mut kl_s = 0.0;
        let mut ag_d = 0usize;
        let mut ag_s = 0usize;
        let mut count = 0usize;
        for p in 0..n_prompts {
            let prompt: Vec<u32> =
                (0..6).map(|i| (seed as u32 + p as u32 * 37 + i * 11) % 256).collect();
            let run = |mode: ExecMode| -> Result<Vec<f32>, kt_model::ModelError> {
                let mut cache = model.new_cache();
                let _ = model.forward(&prompt, &mut cache, ExecMode::Standard, None)?;
                let logits = model.forward(&[7], &mut cache, mode, None)?;
                Ok(logits.row(0).to_vec())
            };
            let std_l = run(ExecMode::Standard)?;
            let def_l = run(ExecMode::Deferred { n_immediate: n_keep })?;
            let skip_l = run(ExecMode::Skipped { n_kept: n_keep })?;
            kl_d += kl_divergence(&std_l, &def_l);
            kl_s += kl_divergence(&std_l, &skip_l);
            ag_d += usize::from(top1_agreement(&std_l, &def_l));
            ag_s += usize::from(top1_agreement(&std_l, &skip_l));
            count += 1;
        }
        rows.push(DivergenceRow {
            affected,
            kl_deferral: kl_d / count as f64,
            kl_skipping: kl_s / count as f64,
            agree_deferral: ag_d as f64 / count as f64,
            agree_skipping: ag_s as f64 / count as f64,
        });
    }
    Ok(rows)
}

/// One row of the quantized-serving divergence gate.
#[derive(Debug, Clone)]
pub struct QuantDivergenceRow {
    /// Expert weight dtype under test.
    pub dtype: WeightDtype,
    /// Mean KL(f32 || quantized) over decode logits.
    pub kl: f64,
    /// Greedy-token agreement with the F32 reference (fraction).
    pub top1_agree: f64,
}

/// Quantized-serving accuracy gate at the transformer level.
///
/// `MoeModel`'s RNG stream is dtype-independent (weights are drawn
/// before packing), so same-seed models under different expert dtypes
/// share the underlying F32 weights: any logit divergence is purely
/// quantization error in the fused-dequant serving path. For each
/// dtype, decode logits are compared against the F32 reference with
/// KL divergence and greedy-token agreement, mirroring the Expert
/// Deferral methodology of [`divergence_study`].
///
/// # Errors
///
/// Propagates model construction/execution errors.
pub fn quant_divergence_study(
    dtypes: &[WeightDtype],
    n_prompts: usize,
    seed: u64,
) -> Result<Vec<QuantDivergenceRow>, kt_model::ModelError> {
    let cfg = ModelPreset::DeepSeekV3.tiny_config();
    let reference = MoeModel::random(&cfg, WeightDtype::F32, seed)?;
    let decode_logits = |m: &MoeModel, prompt: &[u32]| -> Result<Vec<f32>, kt_model::ModelError> {
        let mut cache = m.new_cache();
        let _ = m.forward(prompt, &mut cache, ExecMode::Standard, None)?;
        let logits = m.forward(&[7], &mut cache, ExecMode::Standard, None)?;
        Ok(logits.row(0).to_vec())
    };
    let mut rows = Vec::new();
    for &dtype in dtypes {
        let model = MoeModel::random(&cfg, dtype, seed)?;
        let mut kl = 0.0;
        let mut agree = 0usize;
        for p in 0..n_prompts {
            let prompt: Vec<u32> =
                (0..6).map(|i| (seed as u32 + p as u32 * 37 + i * 11) % 256).collect();
            let f32_l = decode_logits(&reference, &prompt)?;
            let q_l = decode_logits(&model, &prompt)?;
            kl += kl_divergence(&f32_l, &q_l);
            agree += usize::from(top1_agreement(&f32_l, &q_l));
        }
        rows.push(QuantDivergenceRow {
            dtype,
            kl: kl / n_prompts as f64,
            top1_agree: agree as f64 / n_prompts as f64,
        });
    }
    Ok(rows)
}

/// Rounds every expert weight of `net` through the tile-packed
/// quantized format (pack → unpack), exactly the dequantized values
/// the fused int8/int4 kernels serve. Task accuracy of the returned
/// net therefore measures the quantized serving path's accuracy.
///
/// # Panics
///
/// Panics if `dtype`'s group does not divide the net's `dim` and
/// `hidden` (programming error in the study configuration).
pub fn fake_quantize_net(net: &MoeNet, dtype: WeightDtype) -> MoeNet {
    use kt_tensor::{Matrix, PackedWeights};
    let roundtrip = |data: &[f32], rows: usize, cols: usize| -> Vec<f32> {
        let m = Matrix::from_rows(rows, cols, data).expect("net weight shape");
        let packed = PackedWeights::pack(&m, dtype).expect("group must divide net dims");
        packed.unpack().as_slice().to_vec()
    };
    let cfg = *net.config();
    let mut out = net.clone();
    for block in &mut out.blocks {
        for w in &mut block.w1 {
            *w = roundtrip(w, cfg.hidden, cfg.dim);
        }
        for w in &mut block.w2 {
            *w = roundtrip(w, cfg.dim, cfg.hidden);
        }
    }
    out
}

/// One row of the quantized-serving task-accuracy gate.
#[derive(Debug, Clone)]
pub struct QuantAccuracyRow {
    /// Expert weight dtype under test.
    pub dtype: WeightDtype,
    /// Mean F32 accuracy over tasks, %.
    pub base_acc: f64,
    /// Mean fake-quantized accuracy over tasks, %.
    pub quant_acc: f64,
}

/// Synthetic-task accuracy under quantized experts: trains the DS-3
/// analog per task in F32, fake-quantizes the trained experts per
/// dtype ([`fake_quantize_net`]) and compares test accuracy.
pub fn quant_accuracy_study(
    dtypes: &[WeightDtype],
    tasks: &[TaskKind],
    budget: &EvalBudget,
    seed: u64,
) -> Vec<QuantAccuracyRow> {
    let analog = ModelAnalog::all()[0];
    let trained: Vec<(MoeNet, Task)> = tasks
        .iter()
        .enumerate()
        .map(|(ti, &kind)| trained_net(&analog, kind, budget, seed + ti as u64))
        .collect();
    let base: f64 = trained
        .iter()
        .map(|(net, task)| accuracy(net, &task.test, EvalMode::Standard) * 100.0)
        .sum::<f64>()
        / trained.len() as f64;
    dtypes
        .iter()
        .map(|&dtype| {
            let quant: f64 = trained
                .iter()
                .map(|(net, task)| {
                    let q = fake_quantize_net(net, dtype);
                    accuracy(&q, &task.test, EvalMode::Standard) * 100.0
                })
                .sum::<f64>()
                / trained.len() as f64;
            QuantAccuracyRow {
                dtype,
                base_acc: base,
                quant_acc: quant,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analogs_match_paper_routing() {
        let a = ModelAnalog::all();
        assert_eq!(a[0].top_k, 8);
        assert_eq!(a[1].top_k, 6);
        assert_eq!(a[2].top_k, 8);
        assert_eq!(a[0].paper_split, (2, 6));
        assert_eq!(a[1].paper_split, (2, 4));
        assert_eq!(a[2].paper_split, (4, 4));
        for an in a {
            assert_eq!(an.paper_split.0 + an.paper_split.1, an.top_k);
            an.net_config(16, 4).validate().unwrap();
        }
    }

    #[test]
    fn table2_deferral_stays_close_to_baseline() {
        // Quick variant over two tasks: deferral must stay within a few
        // points of the baseline (the paper sees <= 2 points).
        let rows = table2_analog(&[TaskKind::Blobs], &EvalBudget::quick(), 11);
        assert_eq!(rows.len(), 6); // 3 analogs x (base, deferred)
        for pair in rows.chunks(2) {
            let base = pair[0].scores[0];
            let def = pair[1].scores[0];
            assert!(base > 40.0, "{}: base acc too low: {base}", pair[0].model);
            assert!(
                (base - def).abs() < 15.0,
                "{}: deferral moved accuracy too much: {base} -> {def}",
                pair[0].model
            );
        }
    }

    #[test]
    fn fig13_deferral_beats_skipping_at_high_affected_counts() {
        let points = fig13_analog(&[TaskKind::Blobs], &EvalBudget::quick(), 13);
        assert_eq!(points.len(), 7); // affected = 1..=7
        // At 6 affected experts (the paper's configuration), skipping
        // must hurt much more than deferral.
        let p6 = &points[5];
        assert_eq!(p6.affected, 6);
        assert!(
            p6.deferral_delta_pct >= p6.skipping_delta_pct,
            "deferral {p6:?}"
        );
        // Skipping 7 of 8 experts must visibly hurt and hurt more than
        // deferring 7 of 8 (the full-budget bench run shows the larger
        // paper-scale gap; the quick budget here only checks the shape).
        let p7 = &points[6];
        assert!(p7.skipping_delta_pct < -1.0, "{p7:?}");
        assert!(p7.deferral_delta_pct > p7.skipping_delta_pct, "{p7:?}");
    }

    #[test]
    fn quant_divergence_within_serving_thresholds() {
        let dtypes = [
            WeightDtype::Bf16,
            WeightDtype::Int8 { group: 8 },
            WeightDtype::Int4 { group: 8 },
        ];
        let rows = quant_divergence_study(&dtypes, 4, 23).unwrap();
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.kl.is_finite() && r.kl >= 0.0, "{r:?}");
            eprintln!("quant divergence: {r:?}");
        }
        // Precision ordering: more bits, less divergence.
        assert!(rows[0].kl <= rows[2].kl, "bf16 {rows:?}");
        assert!(rows[1].kl <= rows[2].kl, "int8 {rows:?}");
        // Serving gates: int8 near-lossless, int4 within a few hundredths
        // of a nat (observed here: ~3e-6 and ~2e-3).
        assert!(rows[1].kl < 1e-3, "int8 KL too high: {rows:?}");
        assert!(rows[2].kl < 0.05, "int4 KL too high: {rows:?}");
        assert!(rows[1].top1_agree >= 0.75, "int8 agreement: {rows:?}");
    }

    #[test]
    fn fake_quant_f32_roundtrip_is_exact() {
        let analog = ModelAnalog::all()[0];
        let net = MoeNet::random(analog.net_config(16, 4), 31);
        let q = fake_quantize_net(&net, WeightDtype::F32);
        let x = vec![0.4f32; 16];
        assert_eq!(
            net.forward(&x, EvalMode::Standard),
            q.forward(&x, EvalMode::Standard),
            "F32 pack/unpack round-trip must be exact"
        );
    }

    #[test]
    fn quant_accuracy_stays_close_to_f32() {
        let dtypes = [
            WeightDtype::Int8 { group: 8 },
            WeightDtype::Int4 { group: 8 },
        ];
        let rows = quant_accuracy_study(
            &dtypes,
            &[TaskKind::Blobs, TaskKind::Xor],
            &EvalBudget::quick(),
            29,
        );
        assert_eq!(rows.len(), 2);
        for r in &rows {
            eprintln!("quant accuracy: {r:?}");
            assert!(r.base_acc > 40.0, "base acc too low: {r:?}");
            // Serving gate: quantization costs at most 5 points.
            assert!(
                r.base_acc - r.quant_acc <= 5.0,
                "{:?} dropped task accuracy: {r:?}",
                r.dtype
            );
        }
        // Int8 must be nearly lossless; int4 within a few points.
        assert!(
            (rows[0].base_acc - rows[0].quant_acc).abs() < 5.0,
            "int8 moved accuracy too much: {rows:?}"
        );
        assert!(
            (rows[1].base_acc - rows[1].quant_acc).abs() < 15.0,
            "int4 moved accuracy too much: {rows:?}"
        );
    }

    #[test]
    fn divergence_study_shows_deferral_closer() {
        let rows = divergence_study(3, 17).unwrap();
        assert_eq!(rows.len(), 7); // tiny DS-3 top-8
        // Averaged over affected counts, deferral's KL must be lower.
        let mean_d: f64 = rows.iter().map(|r| r.kl_deferral).sum::<f64>() / rows.len() as f64;
        let mean_s: f64 = rows.iter().map(|r| r.kl_skipping).sum::<f64>() / rows.len() as f64;
        assert!(mean_d < mean_s, "KL deferral {mean_d} vs skipping {mean_s}");
        // KL grows with the number of affected experts for skipping.
        assert!(rows.last().unwrap().kl_skipping >= rows[0].kl_skipping);
    }
}
