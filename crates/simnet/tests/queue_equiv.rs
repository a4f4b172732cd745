//! Differential oracle for the timer-wheel event queue.
//!
//! Every test drives the production [`EventQueue`] (slab-backed
//! hierarchical timer wheel) and the reference engine — [`RefQueue`], the
//! pre-wheel `BinaryHeap` implementation kept in `queue::reference` — with
//! the *same* operation sequence and demands bit-identical observable
//! state after every single step: pop results, clock, length, and peek.
//! The generated sequences deliberately stress the wheel's hard cases —
//! same-tick tie storms, zero-delay re-arming from inside the pop loop,
//! delays spanning ten orders of magnitude (cross-level cascades), and
//! `advance_to` jumps across long empty slot runs.

use std::time::Duration;

use c4h_simnet::queue::reference::RefQueue;
use c4h_simnet::{EventQueue, SimTime};
use proptest::prelude::*;

/// One scripted queue operation. Payloads are the op index, so any
/// ordering divergence is visible in the popped value, not just its
/// timestamp.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Schedule at `now + delay_ns`.
    Schedule { delay_ns: u64 },
    /// Pop one event (no-op on an empty queue).
    Pop,
    /// Advance the clock a fraction of the way to the next pending event
    /// (or by `fallback_ns` when idle) — always legal, never past an
    /// event.
    Advance { permille: u16, fallback_ns: u64 },
}

/// Delays spanning ten orders of magnitude with a heavy bias toward
/// exact ties (zero) and small values: ties exercise seq ordering, large
/// values exercise high wheel levels and cascades.
fn delay_strategy() -> impl Strategy<Value = u64> {
    (0u32..34, any::<u64>(), 0u8..5).prop_map(
        |(shift, raw, tie)| {
            if tie == 0 {
                0
            } else {
                raw % (1u64 << shift)
            }
        },
    )
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The shim's `prop_oneof!` is unweighted; repeating arms biases the
    // mix toward schedules (~1/2) and pops (~1/3) over advances (~1/6).
    prop_oneof![
        delay_strategy().prop_map(|delay_ns| Op::Schedule { delay_ns }),
        delay_strategy().prop_map(|delay_ns| Op::Schedule { delay_ns }),
        delay_strategy().prop_map(|delay_ns| Op::Schedule { delay_ns }),
        Just(Op::Pop),
        Just(Op::Pop),
        (0u16..=1000, 0u64..1_000_000_000).prop_map(|(permille, fallback_ns)| {
            Op::Advance {
                permille,
                fallback_ns,
            }
        }),
    ]
}

/// Applies one op to both queues, asserting identical observable state
/// afterwards. `seq` numbers the payloads.
fn apply_and_compare(
    wheel: &mut EventQueue<u64>,
    oracle: &mut RefQueue<u64>,
    op: Op,
    seq: u64,
) -> Result<(), TestCaseError> {
    match op {
        Op::Schedule { delay_ns } => {
            let d = Duration::from_nanos(delay_ns);
            wheel.schedule_in(d, seq);
            oracle.schedule_in(d, seq);
        }
        Op::Pop => {
            let got = wheel.pop();
            prop_assert_eq!(got, oracle.pop());
        }
        Op::Advance {
            permille,
            fallback_ns,
        } => {
            // A target that is always legal: at most the next pending
            // instant, at least the current clock.
            let now = oracle.now().as_nanos();
            let target = match oracle.peek_time() {
                Some(t) => now + (t.as_nanos() - now) / 1000 * permille as u64,
                None => now.saturating_add(fallback_ns),
            };
            let target = SimTime::from_nanos(target);
            wheel.advance_to(target);
            oracle.advance_to(target);
        }
    }
    prop_assert_eq!(wheel.now(), oracle.now());
    prop_assert_eq!(wheel.len(), oracle.len());
    prop_assert_eq!(wheel.is_empty(), oracle.is_empty());
    prop_assert_eq!(wheel.peek_time(), oracle.peek_time());
    Ok(())
}

/// Fully drains both queues in lockstep.
fn drain_and_compare(
    wheel: &mut EventQueue<u64>,
    oracle: &mut RefQueue<u64>,
) -> Result<(), TestCaseError> {
    loop {
        let a = wheel.pop();
        let b = oracle.pop();
        prop_assert_eq!(a, b);
        prop_assert_eq!(wheel.now(), oracle.now());
        if a.is_none() {
            return Ok(());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The main differential property: arbitrary interleaved
    /// schedule/pop/advance sequences leave the wheel and the heap oracle
    /// in identical observable states at every step, and the final drains
    /// agree event-for-event.
    #[test]
    fn wheel_equals_reference_on_any_sequence(
        ops in proptest::collection::vec(op_strategy(), 1..400),
    ) {
        let mut wheel = EventQueue::new();
        let mut oracle = RefQueue::new();
        for (seq, &op) in ops.iter().enumerate() {
            apply_and_compare(&mut wheel, &mut oracle, op, seq as u64)?;
        }
        drain_and_compare(&mut wheel, &mut oracle)?;
    }

    /// Tie storms: many events on few distinct instants must pop in exact
    /// insertion order — the seq tiebreak is the byte-determinism
    /// contract's foundation.
    #[test]
    fn same_tick_ties_pop_in_insertion_order(
        instants in proptest::collection::vec(0u64..50, 20..200),
    ) {
        let mut wheel = EventQueue::new();
        let mut oracle = RefQueue::new();
        for (seq, &i) in instants.iter().enumerate() {
            // Few distinct timestamps → long tie runs at each.
            let at = SimTime::from_nanos(i * 1000);
            wheel.schedule_at(at, seq as u64);
            oracle.schedule_at(at, seq as u64);
        }
        let mut last: Option<(SimTime, u64)> = None;
        loop {
            let a = wheel.pop();
            prop_assert_eq!(a, oracle.pop());
            let Some((t, seq)) = a else { break };
            if let Some((lt, lseq)) = last {
                prop_assert!(t > lt || (t == lt && seq > lseq),
                    "(at, seq) order violated: ({t}, {seq}) after ({lt}, {lseq})");
            }
            last = Some((t, seq));
        }
    }

    /// Zero-delay self-rescheduling: an event that re-arms itself at the
    /// current instant during its own delivery must land *after* everything
    /// already queued at that instant, on both engines, and the chain must
    /// terminate identically.
    #[test]
    fn zero_delay_rearm_matches_reference(
        initial in proptest::collection::vec(0u64..1000, 1..30),
        rearms in 1u8..10,
    ) {
        let mut wheel = EventQueue::new();
        let mut oracle = RefQueue::new();
        for (seq, &ns) in initial.iter().enumerate() {
            let at = SimTime::from_nanos(ns);
            wheel.schedule_at(at, seq as u64);
            oracle.schedule_at(at, seq as u64);
        }
        let mut seq = initial.len() as u64;
        let mut budget = rearms as u64;
        loop {
            let a = wheel.pop();
            prop_assert_eq!(a, oracle.pop());
            prop_assert_eq!(wheel.now(), oracle.now());
            let Some(_) = a else { break };
            if budget > 0 {
                budget -= 1;
                // Re-arm at the instant being delivered.
                wheel.schedule_in(Duration::ZERO, seq);
                oracle.schedule_in(Duration::ZERO, seq);
                seq += 1;
                prop_assert_eq!(wheel.peek_time(), oracle.peek_time());
            }
        }
    }

    /// `advance_to` across long empty stretches (the wheel's empty-slot
    /// scan + lazy re-leveling path), interleaved with far-apart events.
    #[test]
    fn advance_over_empty_slots_matches_reference(
        gaps in proptest::collection::vec((1u64..u64::MAX / 64, 0u16..=1000), 1..40),
    ) {
        let mut wheel = EventQueue::new();
        let mut oracle = RefQueue::new();
        let mut seq = 0u64;
        for &(gap, permille) in &gaps {
            // One event far out, then jump partway toward it.
            let at = SimTime::from_nanos(
                oracle.now().as_nanos().saturating_add(gap),
            );
            wheel.schedule_at(at, seq);
            oracle.schedule_at(at, seq);
            seq += 1;
            apply_and_compare(
                &mut wheel,
                &mut oracle,
                Op::Advance { permille, fallback_ns: 0 },
                seq,
            )?;
            // Sometimes consume it, sometimes leave it pending so the next
            // gap stacks more levels.
            if permille % 2 == 0 {
                let got = wheel.pop();
                prop_assert_eq!(got, oracle.pop());
            }
        }
        drain_and_compare(&mut wheel, &mut oracle)?;
    }
}
