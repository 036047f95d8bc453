//! Backward-pass span attribution: `Tape::mark` segments must show up as
//! `bwd:<label>` spans, in reverse order, nested under `autograd.backward`.

use std::sync::{Arc, Mutex, MutexGuard};

use bikecap_autograd::{ParamStore, Tape};
use bikecap_obs::{Kind, MemorySink};
use bikecap_tensor::Tensor;

/// The obs sink is process-global: one test installs it, the other clears
/// it, so both hold this lock for their whole body.
fn sink_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn backward_emits_one_span_per_marked_segment() {
    let _guard = sink_lock();
    let sink = Arc::new(MemorySink::new(256));
    bikecap_obs::install(sink.clone());

    let mut store = ParamStore::new();
    let w1 = store.add("w1", Tensor::ones(&[4]));
    let w2 = store.add("w2", Tensor::ones(&[4]));

    let mut tape = Tape::new();
    tape.mark("test.layer1");
    let a = tape.param(&store, w1);
    let x = tape.constant(Tensor::ones(&[4]));
    let h = tape.mul(a, x);
    tape.mark("test.layer2");
    let b = tape.param(&store, w2);
    let y = tape.mul(h, b);
    let loss = tape.sum(y);
    tape.backward(loss, &mut store);

    bikecap_obs::clear();
    let events = sink.snapshot();

    // The reverse sweep touches layer2's nodes first, then layer1's.
    let ends: Vec<String> = events
        .iter()
        .filter(|e| e.kind == Kind::End && e.name.starts_with("bwd:test."))
        .map(|e| e.name.to_string())
        .collect();
    assert_eq!(ends, vec!["bwd:test.layer2", "bwd:test.layer1"]);

    // Both segment spans nest under the outer backward span (depth 1+).
    for event in events.iter().filter(|e| e.name.starts_with("bwd:test.")) {
        assert!(event.depth >= 1, "segment spans nest under autograd.backward");
    }
    let outer_begins = events
        .iter()
        .filter(|e| e.kind == Kind::Begin && e.name == "autograd.backward")
        .count();
    let outer_ends = events
        .iter()
        .filter(|e| e.kind == Kind::End && e.name == "autograd.backward")
        .count();
    assert_eq!(outer_begins, 1);
    assert_eq!(outer_ends, 1);

    // Gradients still flow as without instrumentation.
    assert!(store.grad(w1).abs().sum() > 0.0);
    assert!(store.grad(w2).abs().sum() > 0.0);
}

#[test]
fn marks_are_free_when_disabled() {
    let _guard = sink_lock();
    bikecap_obs::clear();
    let mut store = ParamStore::new();
    let w = store.add("w", Tensor::ones(&[2]));
    let mut tape = Tape::new();
    tape.mark("never.recorded");
    let a = tape.param(&store, w);
    let loss = tape.sum(a);
    tape.backward(loss, &mut store);
    assert!(store.grad(w).abs().sum() > 0.0);
}
