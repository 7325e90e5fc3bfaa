//! Metrics are scoped to the run that armed them: a [`Recorder`] sees the
//! work of its own thread and of the workers that entered its [`Sink`],
//! and nothing else in the process. Interleavings are forced with
//! barriers, never sleeps.

use std::sync::Barrier;

use mjoin_obs::{incr, span, Counter, Recorder, Sink, Span};

#[test]
fn concurrent_recorders_see_only_their_own_thread() {
    // Both threads are armed before either counts, and neither snapshots
    // until both have counted.
    let barrier = Barrier::new(2);
    std::thread::scope(|scope| {
        for n in [3, 5] {
            let barrier = &barrier;
            scope.spawn(move || {
                let rec = Recorder::arm();
                barrier.wait();
                incr(Counter::GreedyMerges, n);
                barrier.wait();
                assert_eq!(rec.snapshot().counter(Counter::GreedyMerges), n);
            });
        }
    });
}

#[test]
fn unarmed_sibling_never_shows_in_an_armed_snapshot() {
    let rec = Recorder::arm();
    let barrier = Barrier::new(2);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            barrier.wait();
            for _ in 0..10_000 {
                incr(Counter::KernelTuplesProbed, 1);
                let _g = span(Span::Execute);
            }
            barrier.wait();
        });
        barrier.wait();
        incr(Counter::KernelTuplesProbed, 2);
        barrier.wait();
    });
    let snap = rec.snapshot();
    assert_eq!(snap.counter(Counter::KernelTuplesProbed), 2);
    assert_eq!(snap.span(Span::Execute).entries, 0);
}

#[test]
fn worker_inside_the_parents_sink_counts_into_the_parents_snapshot() {
    let rec = Recorder::arm();
    let sink = Sink::current().expect("armed on this thread");
    std::thread::scope(|scope| {
        scope.spawn(|| {
            sink.enter(|| {
                incr(Counter::DpCandidatesScanned, 4);
                let _g = span(Span::LadderRung);
            });
            // Outside `enter` the worker is unarmed again.
            incr(Counter::DpCandidatesScanned, 100);
        });
    });
    incr(Counter::DpCandidatesScanned, 1);
    let snap = rec.snapshot();
    assert_eq!(snap.counter(Counter::DpCandidatesScanned), 5);
    assert_eq!(snap.span(Span::LadderRung).entries, 1);
}

#[test]
fn nested_arm_shadows_then_restores_the_outer_sink() {
    let outer = Recorder::arm();
    incr(Counter::IkkbzOrderings, 1);
    {
        let inner = Recorder::arm();
        incr(Counter::IkkbzOrderings, 10);
        assert_eq!(inner.snapshot().counter(Counter::IkkbzOrderings), 10);
    }
    incr(Counter::IkkbzOrderings, 1);
    assert_eq!(outer.snapshot().counter(Counter::IkkbzOrderings), 2);
    drop(outer);
    assert!(Sink::current().is_none());
}
