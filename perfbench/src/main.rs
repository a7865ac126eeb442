//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run record, then as its last line the result object
//! `{"correct", "attempted", "failed", "metrics"}`. The record (and,
//! for traced runs, the spans) is also written under
//! `perfbench/results/`.

use perfbench::gen::Sizes;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        perfbench::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut traced = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                true
            }
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => value.parse().map(|v| seconds = v).is_ok(),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    traced = value == "1";
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !ok {
            return usage();
        }
    }
    let Some(workload) = workload else {
        return usage();
    };
    let Some(out) = perfbench::run(&workload, seed, seconds, traced, &Sizes::full()) else {
        return usage();
    };
    let record = jsonio::Value::Object(out.record.clone()).to_string();
    let dir = std::path::Path::new("perfbench/results");
    let name = format!("{workload}-seed{seed}-trace{}", u8::from(traced));
    if std::fs::create_dir_all(dir).is_ok() {
        let _ = std::fs::write(dir.join(format!("{name}.json")), format!("{record}\n"));
        if !out.spans.is_empty() {
            let _ = std::fs::write(
                dir.join(format!("{name}.spans.jsonl")),
                out.spans.join("\n"),
            );
        }
    }
    println!("{record}");
    if let Some(reason) = &out.invalid {
        eprintln!("invalid run: {reason}");
        return ExitCode::from(3);
    }
    println!("{}", out.result_line());
    ExitCode::SUCCESS
}
