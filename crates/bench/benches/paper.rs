//! PAPER.md §V, every table: Table I, Figures 4–6, the §V-B split
//! processing experiment, Figures 7–8, and the introduction's thin-client
//! vs end-point comparison; then the mechanism studies beyond the paper,
//! from path caching to the overlay scaling study. Prints the "Claims over
//! seeds" block, then every experiment's block on the committed seeds, each
//! between the markers EXPERIMENTS.md holds it in: the output is those
//! blocks, byte for byte, and `tests/paper_shapes.rs` checks each one.
//!
//! Run with: `cargo bench -p c4h-bench --bench paper`

use c4h_bench::paper;

fn main() {
    print!("{}", paper::seeds_block());
    for experiment in paper::EVERY {
        print!("{}", experiment.block(0));
    }
}
