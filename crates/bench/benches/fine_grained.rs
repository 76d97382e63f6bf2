//! Design comparison bench: sequential vs coarse-grained vs fine-grained
//! CPU execution of the six analytics tasks on the datagen corpora.  The
//! wall-clock report committed as `BENCH_fine_grained.json` comes from
//! `cargo run -p bench --bin experiments -- fine`; this Criterion target
//! tracks the same comparison under the bench harness.

use bench::experiments::{prepare_dataset, ExperimentScale, PreparedDataset};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datagen::DatasetId;
use tadoc::apps::{run_task, Task, TaskConfig, TaskExecution};
use tadoc::fine_grained::Engine;
use tadoc::parallel::{run_task_parallel, ParallelConfig};

const SCALE: ExperimentScale = ExperimentScale(0.05);
const THREADS: usize = 4;

/// The fine design on a fresh session: `Engine::build` + one `run`.
fn fine_fresh(p: &PreparedDataset, task: Task, cfg: TaskConfig) -> TaskExecution {
    Engine::builder(&p.archive, &p.dag)
        .threads(THREADS)
        .build()
        .expect("valid bench engine")
        .run(task, cfg)
        .expect("valid bench task")
}

fn bench_designs(c: &mut Criterion) {
    let mut group = c.benchmark_group("designs");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let cfg = TaskConfig::default();
    let coarse = ParallelConfig {
        num_threads: THREADS,
    };
    for dataset in [DatasetId::A, DatasetId::B] {
        let prepared = prepare_dataset(dataset, SCALE);
        for task in Task::ALL {
            let id = |design: &str| {
                BenchmarkId::new(format!("{design}/{}", task.name()), dataset.label())
            };
            group.bench_with_input(id("sequential"), &prepared, |b, p| {
                b.iter(|| run_task(&p.archive, &p.dag, task, cfg))
            });
            group.bench_with_input(id("coarse"), &prepared, |b, p| {
                b.iter(|| run_task_parallel(&p.archive, &p.dag, task, cfg, coarse))
            });
            group.bench_with_input(id("fine"), &prepared, |b, p| {
                b.iter(|| fine_fresh(p, task, cfg))
            });
        }
    }
    group.finish();
}

/// Fresh vs warm `Engine` session: the same task, either paying the full
/// shared init every call or served from the session cache.
fn bench_session_amortization(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_session");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let cfg = TaskConfig::default();
    for dataset in [DatasetId::A, DatasetId::B] {
        let prepared = prepare_dataset(dataset, SCALE);
        for task in [Task::WordCount, Task::SequenceCount] {
            group.bench_with_input(
                BenchmarkId::new(format!("fresh_session/{}", task.name()), dataset.label()),
                &prepared,
                |b, p| b.iter(|| fine_fresh(p, task, cfg)),
            );
            let engine = Engine::builder(&prepared.archive, &prepared.dag)
                .threads(THREADS)
                .build()
                .expect("valid bench engine");
            // Prime the cache outside the measured loop.
            engine.run(task, cfg).expect("valid bench task");
            group.bench_with_input(
                BenchmarkId::new(format!("warm_session/{}", task.name()), dataset.label()),
                &prepared,
                |b, _| b.iter(|| engine.run(task, cfg).expect("valid bench task")),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_designs, bench_session_amortization);
criterion_main!(benches);
