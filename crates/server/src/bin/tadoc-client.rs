//! `tadoc-client` — one-shot CLI against a running `tadoc-server`.
//!
//! ```text
//! tadoc-client --addr 127.0.0.1:7878 wordCount           # run a task
//! tadoc-client --addr 127.0.0.1:7878 sequenceCount --l 4 # sequence length
//! tadoc-client --addr 127.0.0.1:7878 stats               # server counters
//! tadoc-client --addr 127.0.0.1:7878 shutdown            # graceful stop
//! ```

use std::process::ExitCode;

use server::client::{Client, QueryOutcome};
use tadoc::apps::{Task, TaskConfig};
use tadoc::results::AnalyticsOutput;

fn print_usage() {
    eprintln!(
        "usage: tadoc-client [--addr HOST:PORT] <command> [--l N] [--deadline-ms N]\n\
         \n\
         commands:\n\
         \x20 wordCount | sort | invertedIndex | termVector |\n\
         \x20 sequenceCount | rankedInvertedIndex   run that task\n\
         \x20 stats                                 print server counters\n\
         \x20 shutdown                              graceful server shutdown\n\
         \n\
         --addr HOST:PORT   server address (default 127.0.0.1:7878)\n\
         --l N              sequence length for sequence tasks (default 3)\n\
         --deadline-ms N    server-enforced deadline in milliseconds"
    );
}

fn summarize(out: &AnalyticsOutput) -> String {
    match out {
        AnalyticsOutput::WordCount(r) => format!(
            "{} distinct words, {} occurrences",
            r.distinct_words(),
            r.total_occurrences()
        ),
        AnalyticsOutput::Sort(r) => format!("{} ranked words", r.ranked.len()),
        AnalyticsOutput::InvertedIndex(r) => format!(
            "{} words, {} postings",
            r.distinct_words(),
            r.total_postings()
        ),
        AnalyticsOutput::TermVector(r) => {
            format!("{} files, {} terms", r.num_files(), r.total_terms())
        }
        AnalyticsOutput::SequenceCount(r) => format!(
            "{} distinct {}-sequences, {} occurrences",
            r.distinct_sequences(),
            r.l,
            r.total_occurrences()
        ),
        AnalyticsOutput::RankedInvertedIndex(r) => format!(
            "{} {}-sequences, {} postings",
            r.distinct_sequences(),
            r.l,
            r.table.total_values()
        ),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:7878".to_string();
    let mut command: Option<String> = None;
    let mut cfg = TaskConfig::default();
    let mut deadline_ms: Option<u64> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                i += 1;
                match args.get(i) {
                    Some(a) => addr = a.clone(),
                    None => {
                        eprintln!("error: --addr requires a HOST:PORT\n");
                        print_usage();
                        return ExitCode::from(2);
                    }
                }
            }
            "--l" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<usize>().ok()) {
                    Some(l) if l > 0 => cfg.sequence_length = l,
                    _ => {
                        eprintln!("error: --l requires a positive integer\n");
                        print_usage();
                        return ExitCode::from(2);
                    }
                }
            }
            "--deadline-ms" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(ms) => deadline_ms = Some(ms),
                    None => {
                        eprintln!("error: --deadline-ms requires an integer\n");
                        print_usage();
                        return ExitCode::from(2);
                    }
                }
            }
            "--help" | "-h" => {
                print_usage();
                return ExitCode::SUCCESS;
            }
            other if command.is_none() && !other.starts_with("--") => {
                command = Some(other.to_string());
            }
            other => {
                eprintln!("error: unknown argument: {other}\n");
                print_usage();
                return ExitCode::from(2);
            }
        }
        i += 1;
    }

    let Some(command) = command else {
        print_usage();
        return ExitCode::from(2);
    };

    let mut client = match Client::connect(addr.as_str()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };

    match command.as_str() {
        "stats" => match client.stats() {
            Ok(s) => {
                println!(
                    "connections={} answered={} shed={} refused={} max_queue_depth={} \
                     protocol_errors={}",
                    s.accepted_connections,
                    s.queries_answered,
                    s.shed,
                    s.refused,
                    s.max_queue_depth,
                    s.protocol_errors,
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        "shutdown" => match client.shutdown_server() {
            Ok(()) => {
                println!("server acknowledged shutdown");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        name => {
            let Some(task) = Task::from_name(name) else {
                eprintln!("error: unknown command: {name}\n");
                print_usage();
                return ExitCode::from(2);
            };
            let outcome = match deadline_ms {
                Some(ms) => client.query_with_deadline(task, cfg, ms),
                None => client.query(task, cfg),
            };
            match outcome {
                Ok(QueryOutcome::Ok(out)) => {
                    println!(
                        "{}: {} (digest {:016x})",
                        out.task_name(),
                        summarize(&out),
                        out.digest()
                    );
                    ExitCode::SUCCESS
                }
                Ok(QueryOutcome::Overloaded {
                    queue_depth,
                    capacity,
                }) => {
                    eprintln!("overloaded: admission queue full ({queue_depth}/{capacity})");
                    ExitCode::from(3)
                }
                Ok(QueryOutcome::Denied(e)) => {
                    eprintln!("denied ({:?}): {}", e.code, e.message);
                    ExitCode::from(4)
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
    }
}
