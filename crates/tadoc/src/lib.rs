//! # tadoc
//!
//! CPU baseline: **T**ext **A**nalytics **D**irectly **O**n **C**ompression.
//!
//! This crate re-implements the state-of-the-art TADOC system the paper
//! compares against (Zhang et al., PVLDB 2018 / VLDB Journal 2020):
//!
//! * the six CompressDirect analytics tasks (*word count, sort, inverted
//!   index, term vector, sequence count, ranked inverted index*) executed
//!   directly on the compressed grammar, sequentially;
//! * the coarse-grained parallel variant that partitions files across CPU
//!   threads and merges partial results (the TADOC parallel design G-TADOC's
//!   fine-grained scheduling is contrasted with);
//! * the **fine-grained parallel engine** ([`fine_grained`]): the G-TADOC
//!   scheduling on real CPU threads — level-synchronized DAG traversal,
//!   arena-backed per-worker tables, sharded lock-free merges, and rule-local
//!   sequence counting (see the module docs for the paper mapping);
//! * a ground-truth *oracle* that computes every task on the decompressed
//!   token streams (used to validate both TADOC and G-TADOC);
//! * the CPU and 10-node-cluster analytic cost models used by the experiment
//!   harness to reproduce the paper's speedup figures.
//!
//! Every task records [`timing::PhaseTimings`] separating the
//! *initialization* phase (data-structure preparation) from the *DAG
//! traversal* phase, matching the phase breakdown of Figure 10.

pub mod apps;
pub mod cost;
pub mod fine_grained;
pub mod oracle;
pub mod parallel;
pub mod results;
pub mod timing;
pub mod weights;

pub use apps::{run_task, Task, TaskConfig};
pub use fine_grained::{ConfigError, Engine, EngineBuilder, FineGrainedConfig};
pub use results::{
    AnalyticsOutput, InvertedIndexResult, RankedInvertedIndexResult, SequenceCountResult,
    SortResult, TermVectorResult, WordCountResult,
};
pub use timing::{PhaseTimings, WorkStats};

/// Re-exported hash map type used by all result tables.
pub use sequitur::fxhash::FxHashMap;
