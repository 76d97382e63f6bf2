//! Long-lived `Engine` session: the serving pattern the session API exists
//! for.  One compressed archive is queried many times — six tasks, twice
//! each — on a single engine that keeps its worker pool parked and its
//! analysis layer (DAG levels, rule/file weights, head/tail buffers, chunk
//! decompositions, the term-vector CSR) cached between queries.
//!
//! ```text
//! cargo run --release --example engine_session
//! ```

use g_tadoc_repro::prelude::*;

fn main() {
    println!("generating the NSFRAA-like dataset A (many small files) ...");
    let corpus = DatasetPreset::new(DatasetId::A).generate_scaled(0.3);
    let archive = corpus.compress();
    let dag = Dag::from_grammar(&archive.grammar);
    println!(
        "  {} files, {} tokens, {} rules\n",
        corpus.files.len(),
        corpus.total_tokens(),
        archive.grammar.num_rules()
    );

    // The builder validates instead of clamping: nonsense knobs are typed
    // errors at build time, not silent single-threaded sessions.
    match Engine::builder(&archive, &dag).threads(0).build() {
        Err(e) => println!("builder rejects bad configuration: {e}"),
        Ok(_) => unreachable!("zero threads must not build"),
    }

    let engine = Engine::builder(&archive, &dag)
        .threads(4)
        .build()
        .expect("valid engine configuration");
    println!("built {engine:?} (pool parked, cache empty)\n");

    // Two passes over all six tasks: the first pass fills the cache (each
    // task computes only what no earlier task already cached), the second
    // pass is served entirely warm.
    let cfg = TaskConfig::default();
    println!("== pass 1: cold session (cache filling) ==");
    let cold: Vec<_> = Task::ALL
        .into_iter()
        .map(|task| engine.run(task, cfg).expect("valid query"))
        .collect();
    for (task, exec) in Task::ALL.into_iter().zip(&cold) {
        println!(
            "{:<22} init {:>9.1} µs (shared {:>9.1} µs)  traversal {:>9.1} µs",
            task.name(),
            exec.timings.init.as_secs_f64() * 1e6,
            exec.timings.shared_init.as_secs_f64() * 1e6,
            exec.timings.traversal.as_secs_f64() * 1e6,
        );
    }

    println!("\n== pass 2: warm session (everything cached) ==");
    for (task, cold_exec) in Task::ALL.into_iter().zip(&cold) {
        let warm_exec = engine.run(task, cfg).expect("valid query");
        assert_eq!(
            cold_exec.output, warm_exec.output,
            "warm output must be byte-identical"
        );
        assert!(warm_exec.timings.warm, "second pass must be warm");
        let cold_init = cold_exec.timings.init.as_secs_f64() * 1e6;
        let warm_init = warm_exec.timings.init.as_secs_f64() * 1e6;
        println!(
            "{:<22} init {:>9.1} µs -> {:>7.2} µs  ({:>6.0}x less init)",
            task.name(),
            cold_init,
            warm_init,
            if warm_init > 0.0 { cold_init / warm_init } else { f64::INFINITY },
        );
    }

    println!(
        "\npool dispatched {} barrier epochs over the whole session — one \
         thread spawn per worker, ever",
        engine.epochs()
    );

    // The session answers exactly what the sequential oracle answers.
    let oracle = run_task(&archive, &dag, Task::WordCount, cfg);
    assert_eq!(oracle.output, cold[0].output);
    println!("sequential oracle output matches the session output");
}
