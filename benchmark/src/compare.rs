//! `compare A.jsonl B.jsonl`: two result sets side by side.
//!
//! A set is what `--append FILE` accumulates: one line per run. For every
//! workload × end-to-end metric the tool prints each set's median and
//! quartiles, how much worse B's median is than A's against the metric's
//! bound, and `unresolved` when either set's own run-to-run spread (IQR ÷
//! median, the acceptance driver's rule) is wider than the bound — a gap
//! inside the noise is not a verdict. Every run counts, repeated seeds
//! included: ten runs on one seed are ten samples of host noise.
//! Deterministic metrics are also checked seed by seed: every run of a
//! seed, in either set, must agree to the last bit.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{parse, Json};
use crate::metrics::{Clock, MetricDef, END_TO_END};
use crate::stats::{iqr_share, median, quartiles};

/// workload → metric → `(seed, value)` of every run, in file order.
type Set = BTreeMap<String, BTreeMap<String, Vec<(u64, f64)>>>;

fn load(path: &str) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_set(&text, path)
}

fn parse_set(text: &str, path: &str) -> Result<Set, String> {
    let mut set = Set::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record = parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let field = |outer: &str, key: &str| record.get(outer).and_then(|d| d.get(key));
        let workload = field("detail", "workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}:{}: no detail.workload", n + 1))?;
        let seed = field("detail", "seed")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{path}:{}: no detail.seed", n + 1))? as u64;
        let metrics = field("result", "metrics")
            .and_then(Json::as_object)
            .ok_or_else(|| format!("{path}:{}: no result.metrics", n + 1))?;
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                set.entry(workload.to_owned())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push((seed, v));
            }
        }
    }
    Ok(set)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Unresolved,
    Regressed,
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worse_by(def: &MetricDef, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    if def.higher_is_better {
        (a - b) / a.abs()
    } else {
        (b - a) / a.abs()
    }
}

pub fn verdict(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let spread = |v: &[f64]| if v.len() >= 2 { iqr_share(v) } else { 0.0 };
    if worse_by(def, median(a), median(b)) > def.bound {
        Verdict::Regressed
    } else if spread(a) > def.bound || spread(b) > def.bound {
        Verdict::Unresolved
    } else {
        Verdict::Within
    }
}

fn summary(v: &[f64]) -> String {
    if v.len() >= 2 {
        let [q1, q2, q3] = quartiles(v);
        format!("{q2:>12.4} [{q1:.4}, {q3:.4}] n={}", v.len())
    } else {
        format!("{:>12.4} n=1", v[0])
    }
}

/// Seeds both sets ran, and how many of them every run — of either set —
/// gave the same value to the last bit.
fn exact_on_shared_seeds(a: &[(u64, f64)], b: &[(u64, f64)]) -> (usize, usize) {
    let by_seed = |runs: &[(u64, f64)]| {
        let mut m: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for &(seed, v) in runs {
            m.entry(seed).or_default().push(v.to_bits());
        }
        m
    };
    let (a, b) = (by_seed(a), by_seed(b));
    let shared: Vec<_> = a.iter().filter(|(s, _)| b.contains_key(s)).collect();
    let exact = shared
        .iter()
        .filter(|(s, va)| va.iter().chain(&b[s]).all(|bits| *bits == va[0]))
        .count();
    (exact, shared.len())
}

/// Compares two sets; returns the report and whether any metric regressed
/// or any deterministic metric differed on a shared seed.
///
/// # Errors
///
/// Returns a message when a file cannot be read or is not a result set.
pub fn compare(path_a: &str, path_b: &str) -> Result<(String, bool), String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut out = String::new();
    let mut failed = false;
    for (workload, metrics_a) in &a {
        let Some(metrics_b) = b.get(workload) else {
            let _ = writeln!(out, "{workload}: only in {path_a}");
            continue;
        };
        let _ = writeln!(out, "{workload}");
        for (name, runs_a) in metrics_a {
            let Some(runs_b) = metrics_b.get(name) else {
                continue;
            };
            let va: Vec<f64> = runs_a.iter().map(|r| r.1).collect();
            let vb: Vec<f64> = runs_b.iter().map(|r| r.1).collect();
            let _ = write!(out, "  {name:<36} A {}  B {}", summary(&va), summary(&vb));
            let Some(def) = END_TO_END.iter().find(|d| d.name == name) else {
                // Per-layer metrics carry no bound.
                let _ = writeln!(out);
                continue;
            };
            let gap = worse_by(def, median(&va), median(&vb));
            let v = verdict(def, &va, &vb);
            let _ = write!(
                out,
                "  worse by {:+.2}% of bound {:.0}%: {}",
                gap * 100.0,
                def.bound * 100.0,
                match v {
                    Verdict::Within => "within",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Regressed => "REGRESSED",
                }
            );
            failed |= v == Verdict::Regressed;
            if def.clock != Clock::Host {
                let (exact, shared) = exact_on_shared_seeds(runs_a, runs_b);
                if shared > 0 {
                    let _ = write!(out, "; exact on {exact}/{shared} shared seeds");
                }
            }
            let _ = writeln!(out);
        }
    }
    Ok((out, failed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let lower = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s");
        let higher = END_TO_END
            .iter()
            .find(|d| d.name == "host_ops_per_s")
            .expect("host_ops_per_s");
        let steady = [1.0, 1.01, 0.99, 1.0];
        let slower: Vec<f64> = steady
            .iter()
            .map(|v| v * (1.0 + lower.bound + 0.05))
            .collect();
        assert_eq!(verdict(lower, &steady, &steady), Verdict::Within);
        assert_eq!(verdict(lower, &steady, &slower), Verdict::Regressed);
        // Slower set-up is worse; fewer ops per second is worse.
        assert!(worse_by(lower, 1.0, 1.2) > 0.0);
        assert!(worse_by(higher, 100.0, 80.0) > 0.0);
        assert!(worse_by(higher, 100.0, 120.0) < 0.0);
        // A set noisier than the bound cannot clear a metric.
        let noisy = [1.0, 2.0, 0.5, 1.5, 1.0];
        assert_eq!(verdict(lower, &noisy, &noisy), Verdict::Unresolved);
    }

    #[test]
    fn repeated_seeds_all_count() {
        let line = |seed: u64, ops: f64, ratio: f64| {
            format!(
                "{{\"detail\": {{\"workload\": \"w\", \"seed\": {seed}}}, \"result\": \
                 {{\"metrics\": {{\"host_ops_per_s\": {{\"value\": {ops}}}, \
                 \"stored_bytes_ratio\": {{\"value\": {ratio}}}}}}}}}\n"
            )
        };
        // Three runs of one seed, host throughput far apart.
        let text = line(7, 1909.0, 2.0) + &line(7, 3182.0, 2.0) + &line(7, 2500.0, 2.0);
        let set = parse_set(&text, "set").expect("well-formed set");
        let runs = &set["w"]["host_ops_per_s"];
        assert_eq!(runs.len(), 3);
        let values: Vec<f64> = runs.iter().map(|r| r.1).collect();
        let def = END_TO_END
            .iter()
            .find(|d| d.name == "host_ops_per_s")
            .expect("host_ops_per_s");
        assert_eq!(verdict(def, &values, &values), Verdict::Unresolved);
        let exact = &set["w"]["stored_bytes_ratio"];
        assert_eq!(exact_on_shared_seeds(exact, exact), (1, 1));
        let moved = [(7, 2.0), (7, 2.5)];
        assert_eq!(exact_on_shared_seeds(exact, &moved), (0, 1));
    }
}
