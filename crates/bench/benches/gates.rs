//! Every host-side count CI gates: one line per gate of `c4h_bench::gates`
//! — its counts, its bound and the advisory columns beside them — then
//! `BENCH_gates.json` (into `C4H_BENCH_DIR`), then a failure naming every
//! gate out of bound. The counts are allocations and work, never clocks,
//! so the verdict is the same on any host; the host-time columns are
//! advisory.
//!
//! Run with: `cargo bench -p c4h-bench --bench gates`

use std::time::Instant;

use c4h_bench::gates::{count_text, GATES};
use c4h_bench::{banner, BenchReport, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    banner("Count gates", "host-side counts against their bounds");
    let mut report = BenchReport::new("gates");
    for gate in GATES {
        let timer = Instant::now();
        let measured = gate.measure();
        let host_s = timer.elapsed().as_secs_f64();
        let (holds, counts, advisory) = match &measured {
            Ok(m) => {
                let values: Vec<f64> = m.counts.iter().map(|&(_, c)| c).collect();
                let counts: Vec<String> = m
                    .counts
                    .iter()
                    .map(|&(name, c)| format!("{name} {}", count_text(c)))
                    .collect();
                let advisory: Vec<String> = m
                    .advisory
                    .iter()
                    .map(|(name, v)| format!("{name} {v}"))
                    .collect();
                (
                    gate.bound.holds(&values),
                    counts.join(", "),
                    advisory.join(", "),
                )
            }
            Err(panic) => (false, format!("measure failed: {panic}"), String::new()),
        };
        let verdict = if holds { "PASS" } else { "FAIL" };
        println!(
            "{verdict} {}: {counts} ({}) in {host_s:.2} s{}",
            gate.name,
            gate.bound,
            if advisory.is_empty() {
                String::new()
            } else {
                format!("; advisory: {advisory}")
            }
        );
        let mut row = vec![("gate", gate.name.into()), ("host_s", host_s.into())];
        if let Ok(m) = measured {
            row.extend(m.counts.into_iter().map(|(name, c)| (name, c.into())));
            row.extend(m.advisory);
        }
        report.push_row(row);
        report.check(
            gate.name,
            holds,
            format!("{counts} ({}): {}", gate.bound, gate.why),
        );
    }
    report.finish();
}
