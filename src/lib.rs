//! # g-tadoc-repro
//!
//! Umbrella crate of the G-TADOC reproduction (ICDE 2021: *"G-TADOC: Enabling
//! Efficient GPU-Based Text Analytics without Decompression"*).
//!
//! It re-exports the workspace crates under one roof so examples, integration
//! tests, and downstream users can depend on a single crate:
//!
//! * [`sequitur`] — Sequitur grammar compression and the TADOC archive format;
//! * [`tadoc`] — the CPU TADOC baseline (six analytics tasks, sequential and
//!   coarse-grained parallel), the fine-grained parallel CPU engine
//!   (level-synchronized DAG traversal with arena-backed tables), and the
//!   CPU/cluster cost models;
//! * [`gpu_sim`] — the SIMT GPU simulator substrate (Pascal/Volta/Turing);
//! * [`gtadoc`] — G-TADOC itself: fine-grained thread scheduling, GPU memory
//!   pool, thread-safe hash tables, head/tail sequence support, top-down and
//!   bottom-up traversals, and the execution engine;
//! * [`datagen`] — synthetic datasets shaped like the paper's corpora A–E;
//! * [`uncompressed`] — baselines over the raw (decompressed) token streams.
//!
//! ## Quick start
//!
//! ```
//! use g_tadoc_repro::prelude::*;
//!
//! // 1. Compress a small corpus with TADOC (Sequitur-based grammar compression).
//! let corpus = vec![
//!     ("a.txt".to_string(), "the cat sat on the mat the cat sat".to_string()),
//!     ("b.txt".to_string(), "the dog sat on the mat".to_string()),
//! ];
//! let archive = compress_corpus(&corpus, CompressOptions::default());
//!
//! // 2. Run word count on the GPU (simulated Tesla V100) without decompressing.
//! let mut engine = GtadocEngine::new(GpuSpec::tesla_v100());
//! let execution = engine.run_archive(&archive, Task::WordCount);
//!
//! // 3. The result matches the CPU baseline and the uncompressed oracle.
//! if let AnalyticsOutput::WordCount(wc) = &execution.output {
//!     let the = archive.dictionary.get("the").unwrap();
//!     assert_eq!(wc.count(the), 5);
//! }
//! ```

#![forbid(unsafe_code)]

pub use datagen;
pub use gpu_sim;
pub use gtadoc;
pub use sequitur;
pub use tadoc;
pub use uncompressed;

/// Most commonly used items, re-exported for examples and quick experiments.
pub mod prelude {
    pub use datagen::{DatasetId, DatasetPreset};
    pub use gpu_sim::{Device, GpuSpec};
    pub use gtadoc::engine::{GpuExecution, GtadocEngine};
    pub use gtadoc::params::GtadocParams;
    pub use gtadoc::traversal::TraversalStrategy;
    pub use sequitur::compress::{compress_corpus, CompressOptions};
    pub use sequitur::{ArchiveStats, Dag, Grammar, Symbol, TadocArchive};
    pub use tadoc::apps::{run_task, Task, TaskConfig};
    pub use tadoc::fine_grained::{
        CancelToken, ConfigError, Engine, EngineBuilder, EngineError, FineGrainedConfig,
        QueryOptions,
    };
    pub use tadoc::results::AnalyticsOutput;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_workflow_compiles_and_agrees() {
        let corpus = vec![
            ("x".to_string(), "alpha beta alpha beta gamma".to_string()),
            ("y".to_string(), "alpha beta gamma".to_string()),
        ];
        let archive = compress_corpus(&corpus, CompressOptions::default());
        let dag = Dag::from_grammar(&archive.grammar);
        let cpu = run_task(&archive, &dag, Task::WordCount, TaskConfig::default());
        let mut engine = GtadocEngine::new(GpuSpec::gtx_1080());
        let gpu = engine.run_archive(&archive, Task::WordCount);
        assert_eq!(cpu.output, gpu.output);
    }
}
