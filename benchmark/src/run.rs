//! One benchmark run: R identical repetitions of a workload in one
//! single-threaded process, the determinism checks between them, and the
//! result record.
//!
//! The simulator is deterministic, so host noise is one-sided: a
//! repetition can only be slowed by the machine, never sped up. Host-clock
//! throughput is therefore taken from the fastest repetition; set-up time,
//! which later changes are gated on, is the median across repetitions.

use std::fmt::Write as _;
use std::time::Instant;

use crate::driver::{run_rep, Rep};
use crate::layers;
use crate::metrics::{end_to_end, EndToEnd, END_TO_END};
use crate::spans::Tracer;
use crate::workloads::{build, Inputs, Workload};

/// Repetitions per run: at least this many (two are needed to compare
/// digests and allocation counts), at most [`MAX_REPS`].
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 12;
/// A traced run times this many untraced repetitions first: only the
/// tracing-overhead ratio needs them, the rest of its budget goes to the
/// traced repetition and the probes.
const TRACE_RUN_REPS: usize = 2;
/// Allocation counts of identical repetitions may differ by this share
/// (measured: 2 in 3 million).
const ALLOC_TOLERANCE: f64 = 1e-4;

#[derive(Debug, Clone)]
pub struct RunOpts {
    pub workload: Workload,
    pub seed: u64,
    /// Measuring budget: repetitions are added while another one fits.
    pub seconds: f64,
    pub trace: bool,
    /// Exact repetition count, overriding the budget (smoke tier only; the
    /// command line cannot set it).
    pub reps: Option<usize>,
    /// 1 for the benchmark, 50 for the smoke tier (library-only as well: a
    /// scaled run skips the pinned-digest check and its result line looks
    /// like a full one).
    pub scale_div: usize,
    /// Where the traced run writes `trace_<workload>.json`.
    pub out_dir: Option<std::path::PathBuf>,
}

#[derive(Debug)]
pub struct RunOutcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`: the end-to-end metrics of an untraced run,
    /// the per-layer metrics of a traced one.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable account of the run, for stderr.
    pub notes: String,
    /// Everything beyond the result line, as a JSON object.
    pub detail: String,
}

fn generate(opts: &RunOpts) -> (Inputs, f64) {
    let t = Instant::now();
    let inputs = build(opts.workload, opts.seed, opts.scale_div);
    (inputs, t.elapsed().as_secs_f64())
}

/// Checks the determinism contract between repetitions and returns what
/// broke it.
fn cross_check(reps: &[Rep]) -> Vec<String> {
    let mut problems = Vec::new();
    let first = &reps[0];
    for (i, rep) in reps.iter().enumerate() {
        for v in rep.violations.iter().take(5) {
            problems.push(format!("repetition {}: {v}", i + 1));
        }
        if rep.digest != first.digest {
            problems.push(format!(
                "repetition {} result digest {:#018x} differs from repetition 1's {:#018x}",
                i + 1,
                rep.digest,
                first.digest
            ));
        }
        if rep.node_bytes != first.node_bytes || rep.virt_idle_ns != first.virt_idle_ns {
            problems.push(format!(
                "repetition {} ended in a different state than repetition 1",
                i + 1
            ));
        }
    }
    // Repetition 1 interns every name once for the process; from the
    // second on the allocation count repeats, to within the handful of
    // allocations that std's randomly keyed hash maps move around.
    if let Some(steady) = reps.get(1) {
        for (i, rep) in reps.iter().enumerate().skip(2) {
            if rep.allocs.abs_diff(steady.allocs) as f64 > steady.allocs as f64 * ALLOC_TOLERANCE {
                problems.push(format!(
                    "repetition {} made {} allocations, repetition 2 made {}",
                    i + 1,
                    rep.allocs,
                    steady.allocs
                ));
            }
        }
    }
    problems
}

/// Runs the workload and assembles the result.
///
/// # Errors
///
/// Fails, before anything is measured, when a pinned seed's generated
/// inputs no longer hash to the pinned digest: the benchmark's inputs were
/// moved, and nothing measured from them would compare with earlier
/// results.
pub fn run(opts: &RunOpts) -> Result<RunOutcome, String> {
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut gen_s: Vec<f64> = Vec::new();
    let mut longest = 0.0f64;
    let mut inputs = None;
    let fixed = opts.reps.or(opts.trace.then_some(TRACE_RUN_REPS));
    loop {
        let enough = match fixed {
            Some(n) => reps.len() >= n,
            None => {
                reps.len() >= MIN_REPS
                    && (reps.len() >= MAX_REPS
                        || started.elapsed().as_secs_f64() + longest > opts.seconds)
            }
        };
        if enough {
            break;
        }
        let t = Instant::now();
        let (generated, g) = generate(opts);
        if opts.scale_div == 1 {
            if let Some(pinned) = opts.workload.pinned_digest(opts.seed) {
                if generated.digest != pinned {
                    return Err(format!(
                        "inputs of {} for pinned seed {} hash to {:#018x}, not the pinned \
                         {pinned:#018x}: a generator in c4h-workloads or the workload definition \
                         was edited, so results would not compare with earlier ones",
                        opts.workload.name(),
                        opts.seed,
                        generated.digest
                    ));
                }
            }
        }
        let mut rep = run_rep(&generated, &mut Tracer::off(), false);
        if !reps.is_empty() {
            // Only the digest of a later repetition's reports is compared;
            // keeping them would make peak RSS grow with the repetition
            // count, which the time budget decides.
            rep.recs = Vec::new();
        }
        reps.push(rep);
        gen_s.push(g);
        inputs = Some(generated);
        longest = longest.max(t.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one repetition ran");

    let mut problems = cross_check(&reps);
    let e2e = end_to_end(&inputs, &reps, &gen_s);
    let mut notes = String::new();
    describe(&mut notes, opts, &inputs, &reps, &e2e);

    let mut detail = String::from("{");
    let _ = write!(
        detail,
        "\"workload\":\"{}\",\"seed\":{},\"input_digest\":\"{:#018x}\",\
         \"result_digest\":\"{:#018x}\",\"repetitions\":{},\"noisy\":{},\
         \"setup_s\":{{\"fastest\":{},\"median\":{},\"spread\":{}}},\
         \"measure_s\":{{\"fastest\":{},\"median\":{},\"spread\":{}}},\"samples\":{{",
        opts.workload.name(),
        opts.seed,
        inputs.digest,
        reps[0].digest,
        reps.len(),
        e2e.noisy,
        e2e.setup.fastest,
        e2e.setup.median,
        e2e.setup.spread,
        e2e.measure.fastest,
        e2e.measure.median,
        e2e.measure.spread,
    );
    for (i, (k, n)) in e2e.samples.iter().enumerate() {
        let _ = write!(detail, "{}\"{k}\":{n}", if i > 0 { "," } else { "" });
    }
    detail.push_str("}}");

    let metrics = if opts.trace {
        let layer = layers::traced_run(opts, &inputs, &reps, &gen_s, &mut notes);
        problems.extend(layer.problems);
        layer.metrics
    } else {
        END_TO_END
            .iter()
            .map(|d| (d.name.to_owned(), e2e.values[d.name], d.unit))
            .collect()
    };

    for p in &problems {
        let _ = writeln!(notes, "CHECK FAILED: {p}");
    }
    Ok(RunOutcome {
        correct: problems.is_empty(),
        attempted: e2e.attempted,
        failed: e2e.failed,
        metrics,
        notes,
        detail,
    })
}

fn describe(out: &mut String, opts: &RunOpts, inputs: &Inputs, reps: &[Rep], e2e: &EndToEnd) {
    let _ = writeln!(
        out,
        "{} seed {}: {} ops x {} repetitions, input digest {:#018x}, result digest {:#018x}",
        opts.workload.name(),
        opts.seed,
        inputs.ops.len(),
        reps.len(),
        inputs.digest,
        reps[0].digest,
    );
    for (i, r) in reps.iter().enumerate() {
        let _ = writeln!(
            out,
            "  rep {}: setup {:.3} s (new {:.3}, preload {:.3}), measured {:.3} s, {} allocs",
            i + 1,
            r.host.setup_s,
            r.host.new_s,
            r.host.preload_s,
            r.host.measure_s,
            r.allocs
        );
    }
    let _ = writeln!(
        out,
        "  measured phase: fastest {:.3} s, median {:.3} s, spread {:.1}%{}",
        e2e.measure.fastest,
        e2e.measure.median,
        e2e.measure.spread * 100.0,
        if e2e.noisy { "  NOISY" } else { "" }
    );
    let _ = writeln!(
        out,
        "  virtual: {:.1} s of set-up, {:.1} s to last completion, {:.1} s to idle; samples {:?}",
        reps[0].virt_start_ns as f64 / 1e9,
        (reps[0].virt_last_ns - reps[0].virt_start_ns) as f64 / 1e9,
        (reps[0].virt_idle_ns - reps[0].virt_start_ns) as f64 / 1e9,
        e2e.samples
    );
    let mut errors: std::collections::BTreeMap<(&str, &str), u32> = Default::default();
    for r in &reps[0].recs {
        if let Some(label) = r.err {
            *errors.entry((r.kind.name(), label)).or_default() += 1;
        }
    }
    if !errors.is_empty() {
        let _ = writeln!(out, "  failed ops by (kind, error): {errors:?}");
    }
    for d in &END_TO_END {
        let _ = writeln!(
            out,
            "  {:<24} {:>14.4} {}",
            d.name, e2e.values[d.name], d.unit
        );
    }
}

/// The result line the acceptance driver reads: exactly `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(outcome: &RunOutcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct, outcome.attempted, outcome.failed
    );
    for (i, (name, value, unit)) in outcome.metrics.iter().enumerate() {
        let _ = write!(
            s,
            "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            if i > 0 { ", " } else { "" },
            json_number(*value),
        );
    }
    s.push_str("}}");
    s
}

/// A float with all its digits; non-finite values (never expected) as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}
