//! Pinned digests of the generated input streams.
//!
//! The repo benchmark builds its inputs with [`generate`] and [`arrivals`]
//! and refuses to run when their digest moves, but only at full scale; the
//! smoke tier skips that pin. These tests hold the same kind of pin in
//! tier-1: an FNV-1a digest of every field of the benchmark's three trace
//! shapes (`testbed-trace`, `neighborhood-1k`, `planes-gray`, built with the
//! `TraceConfig` fields the benchmark uses) and of open-loop streams over
//! `flash-crowd`'s 2 048-object catalog, on the benchmark's pinned seeds.
//! A generator change that moves one draw fails here by name.

use std::time::Duration;

use c4h_workloads::{arrivals, generate, Arrival, OpKind, OpenLoopConfig, Trace, TraceConfig};

const KIB: u64 = 1 << 10;
const MIB: u64 = 1 << 20;

/// The benchmark's pinned seeds.
const SEEDS: [u64; 2] = [2011, 1300];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn op_code(op: OpKind) -> u64 {
    match op {
        OpKind::Store => 0,
        OpKind::Fetch => 1,
    }
}

fn trace_digest(trace: &Trace) -> u64 {
    let mut h = Fnv::new();
    h.u64(trace.files.len() as u64);
    for f in &trace.files {
        h.str(&f.name);
        h.u64(f.size_bytes);
        h.str(f.kind.content_type());
        h.u64(f.tags.len() as u64);
        for t in &f.tags {
            h.str(t);
        }
        h.u64(f.content_seed);
    }
    h.u64(trace.ops.len() as u64);
    for o in &trace.ops {
        h.u64(o.client as u64);
        h.u64(op_code(o.op));
        h.u64(o.file as u64);
        h.u64(o.think.as_nanos() as u64);
    }
    h.0
}

fn arrivals_digest(stream: &[Arrival]) -> u64 {
    let mut h = Fnv::new();
    h.u64(stream.len() as u64);
    for a in stream {
        h.u64(a.at.as_nanos() as u64);
        h.u64(a.tenant as u64);
        h.u64(op_code(a.op));
        h.u64(a.object as u64);
    }
    h.0
}

/// `testbed-trace`: the paper's trace, 10 000 ops, 64 KiB-4 MiB files, no
/// think time.
fn testbed_trace() -> TraceConfig {
    let mut tc = TraceConfig::paper_default(10_000);
    tc.size_override = Some((64 * KIB, 4 * MIB));
    tc.mean_think = Duration::ZERO;
    tc
}

/// `neighborhood-1k`: 16 clients over 512 files of 64 KiB, 40 % stores.
fn neighborhood_1k() -> TraceConfig {
    TraceConfig {
        clients: 16,
        files: 512,
        store_fraction: 0.4,
        size_override: Some((64 * KIB, 64 * KIB + 1)),
        mean_think: Duration::ZERO,
        ..TraceConfig::paper_default(3_600)
    }
}

/// `planes-gray`: 8 clients over 400 files of 256 KiB-3 MiB, 600 ms think.
fn planes_gray() -> TraceConfig {
    TraceConfig {
        clients: 8,
        files: 400,
        size_override: Some((256 * KIB, 3 * MIB)),
        mean_think: Duration::from_millis(600),
        ..TraceConfig::paper_default(4_000)
    }
}

/// An open-loop stream over `flash-crowd`'s 2 048-object catalog: six
/// tenants, 24 s at 50 arrivals a second.
fn catalog_stream(store_fraction: f64) -> OpenLoopConfig {
    let mut c = OpenLoopConfig::steady(50.0, Duration::from_secs(24), 6);
    c.store_fraction = store_fraction;
    c.catalog = 2048;
    c
}

fn check_traces(config: &TraceConfig, pinned: [u64; 2]) {
    let got = SEEDS.map(|seed| trace_digest(&generate(config, seed)));
    assert_eq!(
        got.map(|d| format!("{d:#018x}")),
        pinned.map(|d| format!("{d:#018x}")),
        "generated trace digests on seeds {SEEDS:?} moved"
    );
}

fn check_arrivals(config: &OpenLoopConfig, pinned: [u64; 2]) {
    let got = SEEDS.map(|seed| arrivals_digest(&arrivals(config, seed)));
    assert_eq!(
        got.map(|d| format!("{d:#018x}")),
        pinned.map(|d| format!("{d:#018x}")),
        "arrival stream digests on seeds {SEEDS:?} moved"
    );
}

#[test]
fn testbed_trace_stream_is_pinned() {
    check_traces(
        &testbed_trace(),
        [0x4861_4d17_8f0e_e415, 0x9ffe_33dd_3ab1_0935],
    );
}

#[test]
fn neighborhood_1k_stream_is_pinned() {
    check_traces(
        &neighborhood_1k(),
        [0xb38f_a775_0b54_b66c, 0x5055_9eda_a269_5633],
    );
}

#[test]
fn planes_gray_stream_is_pinned() {
    check_traces(
        &planes_gray(),
        [0x88e5_28d6_486e_b4aa, 0xf540_a93d_becd_2455],
    );
}

#[test]
fn fetch_only_catalog_arrivals_are_pinned() {
    check_arrivals(
        &catalog_stream(0.0),
        [0xd351_fad1_b752_b265, 0xb876_b549_ea65_f8cb],
    );
}

#[test]
fn store_only_catalog_arrivals_are_pinned() {
    check_arrivals(
        &catalog_stream(1.0),
        [0x05d8_236e_f234_8b59, 0x4112_83a2_202b_8bbe],
    );
}
