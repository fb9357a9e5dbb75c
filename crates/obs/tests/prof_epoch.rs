//! The first profiled span of a process is stamped from the epoch that
//! `prof::set_enabled(true)` sets, not from an epoch its own clock read
//! creates.
//!
//! Its own process (an integration test file of its own): nothing else
//! may read the profiling clock first. Before the epoch was set on
//! enable, the first span's start clamped to 0 and its interval ended
//! late by the time between its clock read and the epoch's.

use std::sync::Arc;
use std::time::Duration;

use cq_obs::sink::MemorySink;
use cq_obs::{prof, Event};

/// How long the test waits between enabling profiling and the first span.
const WAIT: Duration = Duration::from_millis(2);

#[test]
fn first_profiled_span_nests_its_child_exactly() {
    let sink = Arc::new(MemorySink::new());
    cq_obs::install(sink.clone());
    prof::set_enabled(true);
    std::thread::sleep(WAIT);
    {
        let _parent = cq_obs::span("parent");
        std::thread::sleep(Duration::from_millis(1));
        let _child = cq_obs::span("child");
        std::thread::sleep(Duration::from_millis(1));
    }
    let after = prof::now_ns();
    cq_obs::flush();
    prof::set_enabled(false);

    let mut spans = Vec::new();
    let mut nanos = Vec::new();
    for e in sink.take() {
        match e {
            Event::Timeline {
                name,
                start_ns,
                dur_ns,
                ..
            } => spans.push((name, start_ns, start_ns + dur_ns)),
            Event::SpanEnd { name, nanos: n, .. } => nanos.push((name, n)),
            _ => {}
        }
    }
    let find = |n: &str| {
        let found = spans.iter().find(|s| s.0 == n);
        *found.unwrap_or_else(|| panic!("no timeline interval for {n}: {spans:?}"))
    };
    let (parent, child) = (find("parent"), find("child"));

    // The span is the first clock read since enabling: the epoch was set
    // on enable, so the span starts after the wait ...
    assert!(
        parent.1 >= WAIT.as_nanos() as u64,
        "first span clamped to the epoch: {parent:?}"
    );
    // ... and ends before a clock read taken after it ...
    assert!(parent.2 <= after, "{parent:?} ends after {after}");
    // ... the parent contains its child ...
    assert!(
        parent.1 <= child.1 && child.2 <= parent.2,
        "child {child:?} not inside parent {parent:?}"
    );
    // ... and each interval is exactly its span's measured duration.
    for (name, start, end) in [parent, child] {
        assert!(nanos.contains(&(name, end - start)), "{name}: {nanos:?}");
    }
}
