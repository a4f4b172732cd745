//! Golden byte-determinism corpus for the event engine.
//!
//! Every cell of the corpus (`golden/corpus.rs`) runs a scripted workload
//! under a fixed seed and folds the complete observable output — final
//! virtual time, `RunStats`, every op report line, the metrics JSON dump,
//! and the Prometheus snapshot — into one 64-bit FNV-1a digest. The
//! digests are committed in `tests/golden/digests.json`; any engine change
//! that perturbs a single byte of any run fails here.
//!
//! This file is the same-seed → same-bytes contract in executable form:
//! the digests survived the timer-wheel engine and every rework after it
//! unchanged, and were re-blessed once, when the flow engine's byte
//! accounting became integer. See `tests/golden/README.md` for when
//! re-blessing (`C4H_BLESS=1`) is legitimate.

#[path = "golden/corpus.rs"]
mod corpus;

/// The corpus gate: every cell's digest must match the committed file.
/// Run with `C4H_BLESS=1` to regenerate `tests/golden/digests.json` after
/// an *intentional* behavior change (see `tests/golden/README.md`).
#[test]
fn golden_corpus_digests_match() {
    let cells = corpus::corpus();
    if std::env::var_os("C4H_BLESS").is_some() {
        let path = corpus::digest_path();
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("create tests/golden");
        std::fs::write(&path, corpus::render_digests(&cells)).expect("write digests.json");
        eprintln!("blessed {} cells into {}", cells.len(), path.display());
        return;
    }
    let failures = corpus::diverged(&cells, &corpus::committed(), "golden");
    assert!(
        failures.is_empty(),
        "golden corpus diverged — an engine change perturbed bytes \
         (re-bless ONLY for intentional behavior changes):\n{}",
        failures.join("\n")
    );
}

/// The corpus with two cells at once, on two scoped threads of one
/// process: every digest must match the same file. Cells share the
/// process's interner, the `OnceLock` tables and nothing else, so a digest
/// that moves here and not in `golden_corpus_digests_match` means one world
/// read another's state.
#[test]
fn golden_digests_match_with_two_cells_at_once() {
    let cells = corpus::corpus_on_threads(2);
    let failures = corpus::diverged(&cells, &corpus::committed(), "golden-threads");
    assert!(
        failures.is_empty(),
        "a golden digest moved when cells ran at once — worlds share \
         state:\n{}",
        failures.join("\n")
    );
}
