//! Seeded inputs: the generated corpus each workload serves.
//!
//! The benchmark seed replaces the preset's `CorpusConfig::seed`; every
//! other shape parameter (file count, tokens, vocabulary, redundancy) stays
//! the preset's at scale 1.0.  The program only ever sees the generated
//! token files.

use datagen::{DatasetId, DatasetPreset, GeneratedCorpus};
use sequitur::compress::compress_token_files;
use sequitur::{Dag, Dictionary, TadocArchive, WordId};

/// Dataset scale every workload runs at.
pub const SCALE: f64 = 1.0;

/// Generates dataset `id` under the benchmark `seed`.
pub fn generate(id: DatasetId, seed: u64) -> GeneratedCorpus {
    let mut preset = DatasetPreset::new(id);
    preset.config.seed = seed ^ (preset.config.seed << 56);
    preset.generate_scaled(SCALE)
}

/// FNV-1a digest of the token files and names: two corpora with the same
/// digest are the same input.
pub fn corpus_digest(corpus: &GeneratedCorpus) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (name, file) in corpus.file_names.iter().zip(&corpus.files) {
        for b in name.bytes() {
            eat(u64::from(b));
        }
        eat(file.len() as u64);
        for &w in file {
            eat(u64::from(w));
        }
    }
    h
}

/// One copy of the compressor's inputs, made before the set-up clock starts
/// (`compress_token_files` consumes its arguments).
pub struct TokenFiles {
    dictionary: Dictionary,
    files: Vec<Vec<WordId>>,
    names: Vec<String>,
    byte_sizes: Vec<u64>,
}

impl TokenFiles {
    /// Copies the corpus's token files.
    pub fn of(corpus: &GeneratedCorpus) -> Self {
        Self {
            dictionary: corpus.dictionary.clone(),
            files: corpus.files.clone(),
            names: corpus.file_names.clone(),
            // The generators emit word ids, not text; 9 bytes per token is
            // the corpus's own size model (`GeneratedCorpus::approx_bytes`).
            byte_sizes: corpus.files.iter().map(|f| f.len() as u64 * 9).collect(),
        }
    }

    /// Sequitur compression (the `sequitur` layer's set-up work).
    pub fn compress(self) -> TadocArchive {
        compress_token_files(self.dictionary, self.files, self.names, self.byte_sizes)
    }
}

/// Shape of the served dataset, recorded with every result.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Preset label (`A`, `B`, ...).
    pub dataset: &'static str,
    /// Files in the corpus.
    pub files: usize,
    /// Tokens across files.
    pub tokens: usize,
    /// Serialized archive size.
    pub compressed_bytes: usize,
    /// Modelled input size (9 bytes per token).
    pub input_bytes: u64,
    /// Grammar rules.
    pub rules: usize,
    /// Corpus digest (same seed, same digest).
    pub corpus_digest: u64,
}

impl Shape {
    /// Measures the shape of a compressed corpus.
    pub fn of(id: DatasetId, corpus: &GeneratedCorpus, archive: &TadocArchive, dag: &Dag) -> Self {
        Self {
            dataset: id.label(),
            files: corpus.files.len(),
            tokens: corpus.total_tokens(),
            compressed_bytes: archive.compressed_size_bytes(),
            input_bytes: archive.original_size_bytes(),
            rules: dag.num_rules,
            corpus_digest: corpus_digest(corpus),
        }
    }
}
