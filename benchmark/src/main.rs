//! `c4h-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! prints the result line last on stdout; `c4h-benchmark compare A B`
//! compares two result sets. See `README.md`.

use std::process::ExitCode;

use c4h_benchmark::alloc::CountingAlloc;
use c4h_benchmark::compare::compare;
use c4h_benchmark::run::{result_line, run, RunOpts};
use c4h_benchmark::workloads::Workload;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str =
    "usage: run.sh --workload <testbed-trace|neighborhood-1k|flash-crowd|planes-gray> \
[--seed N] [--seconds S] [--trace 0|1] [--append FILE]\n       run.sh compare A.jsonl B.jsonl";

fn parse(args: &[String]) -> Result<(RunOpts, Option<String>), String> {
    let mut opts = RunOpts {
        workload: Workload::TestbedTrace,
        seed: 2011,
        seconds: 28.0,
        trace: false,
        reps: None,
        scale_div: 1,
        out_dir: Some("benchmark/out".into()),
    };
    let mut workload = None;
    let mut append = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::from_name(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => opts.trace = value()? == "1",
            "--append" => append = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok((opts, append))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match compare(a, b) {
            Ok((report, failed)) => {
                print!("{report}");
                ExitCode::from(u8::from(failed))
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    let (opts, append) = match parse(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(3);
        }
    };
    eprint!("{}", outcome.notes);
    let line = result_line(&outcome);
    if let Some(path) = append {
        use std::io::Write as _;
        let record = format!("{{\"detail\": {}, \"result\": {line}}}\n", outcome.detail);
        let written = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| f.write_all(record.as_bytes()));
        if let Err(e) = written {
            eprintln!("cannot append to {path}: {e}");
            return ExitCode::from(2);
        }
    }
    println!("{line}");
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
