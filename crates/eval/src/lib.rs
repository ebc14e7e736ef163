//! Accuracy substrate for the Expert Deferral studies (§6.3).
//!
//! The paper evaluates deferral's accuracy impact on HumanEval, MBPP,
//! GSM8K, StrategyQA and LiveBench with the real 671B/236B/57B models —
//! which cannot run here. The substitution (documented in DESIGN.md)
//! keeps the *experimental design* and replaces the benchmark suite
//! with synthetic tasks and the LLMs with small MoE **residual networks
//! trained from scratch in Rust**:
//!
//! * [`tasks`] — a seeded synthetic benchmark suite (Gaussian blobs,
//!   XOR shells, modular sums, concentric bands) standing in for the
//!   paper's four benchmark families.
//! * [`net`] — `MoeNet`: a stack of residual top-k MoE blocks plus a
//!   linear classifier, with the three inference modes under study:
//!   Standard, **Deferred** (low-score experts' outputs land one block
//!   later; never at the last block) and **Skipped** (low-score experts
//!   dropped), mirroring `kt-model`'s `ExecMode` exactly.
//! * [`train`](mod@train) — minibatch SGD with manual backprop through top-k
//!   routing and a Switch-style load-balancing auxiliary loss.
//! * [`experiments`] — the Table 2 analog (per-model (I+D) configs) and
//!   the Figure 13 analog (accuracy delta vs number of affected
//!   experts, deferral vs skipping), plus logit-divergence studies on
//!   the `kt-model` transformers.

pub mod experiments;
pub mod metrics;
pub mod net;
pub mod tasks;
pub mod train;

pub use metrics::{accuracy, kl_divergence, top1_agreement};
pub use net::{EvalMode, MoeNet, NetConfig};
pub use tasks::{Task, TaskKind};
pub use train::{train, TrainConfig};
