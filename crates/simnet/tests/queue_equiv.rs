//! Model check for the event queue.
//!
//! Every test drives the production [`EventQueue`] and a plain `Vec` model
//! — [`Model`], which pops the entry with the least `(at, seq)` by a linear
//! scan, the `(at, seq)` contract stated as directly as it can be — with
//! the *same* operation sequence and demands identical observable state
//! after every single step: pop results, clock, length, and peek. The
//! generated sequences stress the contract's hard cases: same-tick tie
//! storms, zero-delay re-arming from inside the pop loop, delays spanning
//! ten orders of magnitude, `advance_to` jumps across long empty stretches,
//! peeks after only some ops, and one instant scheduled again and again
//! from clocks at different distances from it.

use std::time::Duration;

use c4h_simnet::{EventQueue, SimTime};
use proptest::prelude::*;

/// The model: pending `(at, seq, payload)` entries in insertion order, a
/// clock, and the next sequence number. `pop` takes the least `(at, seq)`.
#[derive(Debug, Default)]
struct Model {
    pending: Vec<(SimTime, u64, u64)>,
    now: SimTime,
    next_seq: u64,
}

impl Model {
    fn new() -> Self {
        Model::default()
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn len(&self) -> usize {
        self.pending.len()
    }

    fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    fn schedule_at(&mut self, at: SimTime, payload: u64) {
        assert!(at >= self.now, "model scheduled into the past");
        self.pending.push((at, self.next_seq, payload));
        self.next_seq += 1;
    }

    fn schedule_in(&mut self, delay: Duration, payload: u64) {
        self.schedule_at(self.now + delay, payload);
    }

    /// Index of the least `(at, seq)` entry.
    fn first(&self) -> Option<usize> {
        (0..self.pending.len()).min_by_key(|&i| (self.pending[i].0, self.pending[i].1))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.first().map(|i| self.pending[i].0)
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let (at, _, payload) = self.pending.remove(self.first()?);
        self.now = at;
        Some((at, payload))
    }

    fn advance_to(&mut self, at: SimTime) {
        assert!(at >= self.now && self.peek_time().is_none_or(|t| t >= at));
        self.now = at;
    }
}

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
/// values far-apart instants.
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
    queue: &mut EventQueue<u64>,
    model: &mut Model,
    op: Op,
    seq: u64,
) -> Result<(), TestCaseError> {
    match op {
        Op::Schedule { delay_ns } => {
            let d = Duration::from_nanos(delay_ns);
            queue.schedule_in(d, seq);
            model.schedule_in(d, seq);
        }
        Op::Pop => {
            let got = queue.pop();
            prop_assert_eq!(got, model.pop());
        }
        Op::Advance {
            permille,
            fallback_ns,
        } => {
            // A target that is always legal: at most the next pending
            // instant, at least the current clock.
            let now = model.now().as_nanos();
            let target = match model.peek_time() {
                Some(t) => now + (t.as_nanos() - now) / 1000 * permille as u64,
                None => now.saturating_add(fallback_ns),
            };
            let target = SimTime::from_nanos(target);
            queue.advance_to(target);
            model.advance_to(target);
        }
    }
    prop_assert_eq!(queue.now(), model.now());
    prop_assert_eq!(queue.len(), model.len());
    prop_assert_eq!(queue.is_empty(), model.is_empty());
    prop_assert_eq!(queue.peek_time(), model.peek_time());
    Ok(())
}

/// Distinct instants one [`anchored_script`] schedules at.
const ANCHORS: usize = 3;

/// Anchors at three scales (below 2⁹, 2¹⁴ and 2¹⁹ ns), so a clock closing
/// in on one is at very different distances from it within a few steps.
fn anchors() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec((0u32..3, any::<u64>()), ANCHORS..ANCHORS + 1).prop_map(|draws| {
        draws
            .into_iter()
            .map(|(scale, raw)| raw % (1 << (9 + 5 * scale)))
            .collect()
    })
}

/// One step of a script over a few absolute instants (the anchors), so the
/// same instant is scheduled again and again from clocks at different
/// distances from it, and long tie runs build up among other instants.
#[derive(Debug, Clone, Copy)]
enum Anchored {
    /// Schedule at anchor `k`, or at the clock once that has passed it.
    At(usize),
    /// Schedule after a delay, as in [`Op::Schedule`].
    In(u64),
    /// Pop one event.
    Pop,
    /// Advance the clock this many thousandths of the way to the next
    /// pending event.
    Advance(u16),
    /// Advance the clock to this many nanoseconds short of the next pending
    /// event, so the next schedule at that instant comes from a clock
    /// nanoseconds away while earlier ones came from far away.
    Approach(u8),
}

fn anchored_script() -> impl Strategy<Value = Vec<(Anchored, u8)>> {
    let step = prop_oneof![
        (0..ANCHORS).prop_map(Anchored::At),
        (0..ANCHORS).prop_map(Anchored::At),
        (0..ANCHORS).prop_map(Anchored::At),
        delay_strategy().prop_map(Anchored::In),
        Just(Anchored::Pop),
        Just(Anchored::Pop),
        (0u16..=1000).prop_map(Anchored::Advance),
        (0u8..64).prop_map(Anchored::Approach),
        (0u8..64).prop_map(Anchored::Approach),
    ];
    // Each step carries a draw in 0..4: the queues are peeked after the
    // steps that drew 0.
    proptest::collection::vec((step, 0u8..4), 1..300)
}

/// Advances both clocks by `by(gap)` of the gap to the next pending event
/// (never past it); a no-op on empty queues.
fn close_in(queue: &mut EventQueue<u64>, model: &mut Model, by: impl Fn(u64) -> u64) {
    if let Some(t) = model.peek_time() {
        let now = model.now().as_nanos();
        let target = SimTime::from_nanos(now + by(t.as_nanos() - now));
        queue.advance_to(target);
        model.advance_to(target);
    }
}

/// Fully drains both queues in lockstep.
fn drain_and_compare(queue: &mut EventQueue<u64>, model: &mut Model) -> Result<(), TestCaseError> {
    loop {
        let a = queue.pop();
        let b = model.pop();
        prop_assert_eq!(a, b);
        prop_assert_eq!(queue.now(), model.now());
        if a.is_none() {
            return Ok(());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The main property: arbitrary interleaved schedule/pop/advance
    /// sequences leave the queue and the model in identical observable
    /// states at every step, and the final drains agree event-for-event.
    #[test]
    fn wheel_equals_reference_on_any_sequence(
        ops in proptest::collection::vec(op_strategy(), 1..400),
    ) {
        let mut queue = EventQueue::new();
        let mut model = Model::new();
        for (seq, &op) in ops.iter().enumerate() {
            apply_and_compare(&mut queue, &mut model, op, seq as u64)?;
        }
        drain_and_compare(&mut queue, &mut model)?;
    }

    /// Tie storms: many events on few distinct instants must pop in exact
    /// insertion order — the seq tiebreak is the byte-determinism
    /// contract's foundation.
    #[test]
    fn same_tick_ties_pop_in_insertion_order(
        instants in proptest::collection::vec(0u64..50, 20..200),
    ) {
        let mut queue = EventQueue::new();
        let mut model = Model::new();
        for (seq, &i) in instants.iter().enumerate() {
            // Few distinct timestamps → long tie runs at each.
            let at = SimTime::from_nanos(i * 1000);
            queue.schedule_at(at, seq as u64);
            model.schedule_at(at, seq as u64);
        }
        let mut last: Option<(SimTime, u64)> = None;
        loop {
            let a = queue.pop();
            prop_assert_eq!(a, model.pop());
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
    /// already queued at that instant, in the queue and the model alike,
    /// and the chain must terminate identically.
    #[test]
    fn zero_delay_rearm_matches_reference(
        initial in proptest::collection::vec(0u64..1000, 1..30),
        rearms in 1u8..10,
    ) {
        let mut queue = EventQueue::new();
        let mut model = Model::new();
        for (seq, &ns) in initial.iter().enumerate() {
            let at = SimTime::from_nanos(ns);
            queue.schedule_at(at, seq as u64);
            model.schedule_at(at, seq as u64);
        }
        let mut seq = initial.len() as u64;
        let mut budget = rearms as u64;
        loop {
            let a = queue.pop();
            prop_assert_eq!(a, model.pop());
            prop_assert_eq!(queue.now(), model.now());
            let Some(_) = a else { break };
            if budget > 0 {
                budget -= 1;
                // Re-arm at the instant being delivered.
                queue.schedule_in(Duration::ZERO, seq);
                model.schedule_in(Duration::ZERO, seq);
                seq += 1;
                prop_assert_eq!(queue.peek_time(), model.peek_time());
            }
        }
    }

    /// The property above peeks after every op; here the queues are peeked
    /// after about one op in four, over a few instants scheduled again and
    /// again, so schedules, advances and pops also follow one another with
    /// no peek between. Pop results, the clock and the length are compared
    /// after every op.
    #[test]
    fn sparse_peeks_over_anchored_instants_match_reference(
        anchors in anchors(),
        script in anchored_script(),
    ) {
        let mut queue = EventQueue::new();
        let mut model = Model::new();
        for (seq, &(step, peek)) in script.iter().enumerate() {
            let seq = seq as u64;
            let now = model.now().as_nanos();
            match step {
                Anchored::At(k) => {
                    let at = SimTime::from_nanos(anchors[k].max(now));
                    queue.schedule_at(at, seq);
                    model.schedule_at(at, seq);
                }
                Anchored::In(delay_ns) => {
                    let d = Duration::from_nanos(delay_ns);
                    queue.schedule_in(d, seq);
                    model.schedule_in(d, seq);
                }
                Anchored::Pop => {
                    let got = queue.pop();
                    prop_assert_eq!(got, model.pop());
                }
                Anchored::Advance(permille) => {
                    close_in(&mut queue, &mut model, |gap| gap / 1000 * permille as u64)
                }
                Anchored::Approach(short) => {
                    close_in(&mut queue, &mut model, |gap| gap - gap.min(short as u64))
                }
            }
            prop_assert_eq!(queue.now(), model.now());
            prop_assert_eq!(queue.len(), model.len());
            if peek == 0 {
                prop_assert_eq!(queue.peek_time(), model.peek_time());
            }
        }
        drain_and_compare(&mut queue, &mut model)?;
    }

    /// One instant scheduled again and again while the clock closes in on
    /// it by `advance_to` alone: its entries, scheduled from clocks ever
    /// nearer to it, must pop in one seq-ordered run. Later instants ride
    /// along.
    #[test]
    fn one_instant_filed_from_a_closing_clock_pops_in_seq_order(
        at in 0u64..1 << 30,
        closes in proptest::collection::vec((0u16..=1000, any::<bool>()), 1..24),
    ) {
        let mut queue = EventQueue::new();
        let mut model = Model::new();
        let t = SimTime::from_nanos(at);
        for (seq, &(permille, later)) in closes.iter().enumerate() {
            let seq = seq as u64;
            let (t_seq, later_seq) = (2 * seq, 2 * seq + 1);
            queue.schedule_at(t, t_seq);
            model.schedule_at(t, t_seq);
            if later {
                let after = SimTime::from_nanos(at + 1 + (permille as u64) * 7);
                queue.schedule_at(after, later_seq);
                model.schedule_at(after, later_seq);
            }
            // Close the remaining gap by `permille` thousandths.
            let now = model.now().as_nanos();
            let target = SimTime::from_nanos(at - (at - now) * (1000 - permille as u64) / 1000);
            queue.advance_to(target);
            model.advance_to(target);
            prop_assert_eq!(queue.now(), model.now());
        }
        drain_and_compare(&mut queue, &mut model)?;
    }

    /// `advance_to` across long empty stretches, interleaved with
    /// far-apart events.
    #[test]
    fn advance_over_empty_slots_matches_reference(
        gaps in proptest::collection::vec((1u64..u64::MAX / 64, 0u16..=1000), 1..40),
    ) {
        let mut queue = EventQueue::new();
        let mut model = Model::new();
        let mut seq = 0u64;
        for &(gap, permille) in &gaps {
            // One event far out, then jump partway toward it.
            let at = SimTime::from_nanos(
                model.now().as_nanos().saturating_add(gap),
            );
            queue.schedule_at(at, seq);
            model.schedule_at(at, seq);
            seq += 1;
            apply_and_compare(
                &mut queue,
                &mut model,
                Op::Advance { permille, fallback_ns: 0 },
                seq,
            )?;
            // Sometimes consume it, sometimes leave it pending so later
            // gaps stack up behind it.
            if permille % 2 == 0 {
                let got = queue.pop();
                prop_assert_eq!(got, model.pop());
            }
        }
        drain_and_compare(&mut queue, &mut model)?;
    }
}
