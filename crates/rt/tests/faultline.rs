//! Failpoint injection into pool workers (`rt.worker.chunk`).
//!
//! Lives in its own test binary, as a single test: installing a fault plan
//! is process-global, and an `Always` trigger on the worker site would fail
//! any concurrently running parallel job in the same process.

#![cfg(feature = "faultline")]

use bikecap_faults::{FaultPlan, Trigger};
use bikecap_rt::{try_parallel_for, try_reduce, RtError, CHUNK_FAILPOINT};

#[test]
fn chunk_failpoint_injects_typed_error_and_pool_recovers() {
    bikecap_rt::set_threads(4);
    bikecap_faults::install(FaultPlan::seeded(9).site(CHUNK_FAILPOINT, Trigger::Always));

    let err = try_parallel_for(8, |_| {}).unwrap_err();
    match err {
        RtError::Injected { site, message, .. } => {
            assert_eq!(site, CHUNK_FAILPOINT);
            assert!(message.contains(CHUNK_FAILPOINT), "message: {message}");
        }
        other => panic!("expected injected fault, got: {other}"),
    }
    let err = try_reduce(100, 10, |r| r.len(), |a, b| a + b).unwrap_err();
    assert!(matches!(err, RtError::Injected { .. }));

    // Injection parity: a one-thread pool runs the same per-chunk
    // failpoint, so a chaos schedule reproduces identically without workers.
    bikecap_rt::set_threads(1);
    let err = try_parallel_for(4, |_| {}).unwrap_err();
    assert!(matches!(err, RtError::Injected { .. }));
    bikecap_rt::set_threads(4);

    // Disarming restores normal service on a multi-thread pool.
    bikecap_faults::clear();
    assert!(try_parallel_for(8, |_| {}).is_ok());
    bikecap_rt::set_threads(0);
}
