//! The string interner's determinism rule, as a test.
//!
//! A `Sym`'s id is the order in which the process first interned its
//! string, so it depends on everything the process did before: no id, and
//! no order of an id-keyed hash table, may reach output. This binary
//! interns 5 000 junk strings, then the corpus's object and node names in
//! reverse order, before it runs the golden corpus: every name the corpus
//! interns gets another id than a fresh process gives it, and names that
//! sort one way get ids that sort the other. Every digest must still match
//! `tests/golden/digests.json`.

#[allow(dead_code)] // `golden_runs` blesses and runs cells at once; this binary only checks
#[path = "golden/corpus.rs"]
mod corpus;

use c4h_simnet::Sym;
use cloud4home::Config;

/// Junk strings interned before anything else.
const JUNK: usize = 5_000;

/// The names the corpus's cells use: object names for every cell label,
/// the paper testbed's node names and the neighborhood cells'.
fn corpus_names() -> Vec<String> {
    let mut names = Vec::new();
    for label in corpus::committed().into_keys() {
        names.push(format!("golden/{label}"));
        for file in ["small.bin", "doomed.bin"] {
            names.push(format!("golden/{label}/{file}"));
        }
        for i in 0..100 {
            names.push(format!("golden/{label}/obj-{i}.bin"));
            names.push(format!("golden/{label}/obj-{i:02}.bin"));
            names.push(format!("golden/{label}/obj-{i:03}.bin"));
            names.push(format!("golden/{label}/cold-{i}.bin"));
        }
    }
    let testbed = Config::paper_testbed(0).nodes.into_iter();
    names.extend(testbed.map(|node| node.name));
    names.extend((0..64).map(|i| format!("nb-{i:02}")));
    names.push("nb-gateway".to_owned());
    names.sort();
    names.dedup();
    names
}

#[test]
fn golden_digests_do_not_depend_on_interner_ids() {
    for i in 0..JUNK {
        Sym::from_fmt(format_args!("interner-junk/{i}"));
    }
    let names = corpus_names();
    for name in names.iter().rev() {
        Sym::new(name);
    }
    let ids: Vec<u32> = names.iter().map(|name| Sym::new(name).id()).collect();
    assert!(
        ids.iter().all(|&id| id as usize >= JUNK) && ids.windows(2).all(|w| w[0] > w[1]),
        "every corpus name is interned after the junk, in reverse order"
    );
    let failures = corpus::diverged(&corpus::corpus(), &corpus::committed(), "golden-interner");
    assert!(
        failures.is_empty(),
        "a golden digest moved with the interner's ids — an id, or an \
         id-keyed hash order, reaches output:\n{}",
        failures.join("\n")
    );
}
