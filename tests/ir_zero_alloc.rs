//! Steady-state allocation contract of the compiled executor, plus the IR
//! chaos-resilience sweep.
//!
//! The whole point of arena planning is that after the first compiled
//! prediction of a given input shape (which compiles the plan and builds
//! the arena), every subsequent `predict_into` performs **zero** heap
//! allocations. A counting global allocator (this test binary only) turns
//! that from a design note into a regression gate.
//!
//! The gate runs on one thread (inline, no workers) **and** on the pool at
//! 2 and 4 threads: bikecap-rt recycles job shells through a per-pool freelist, so
//! steady-state parallel dispatch is allocation-free too (this caught the
//! 4 → 14 allocs/iter regression BENCH_parallel.json recorded before the
//! freelist landed). The serial path runs the exact same kernel bodies
//! (that is the rt determinism contract, pinned by tests/ir_equivalence.rs
//! at thread counts 1/2/4/7).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use bikecap::model::{BikeCap, BikeCapConfig, ExecMode};
use bikecap::rt;
use bikecap::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_compiled_predict_does_not_allocate() {
    for threads in [1, 2, 4] {
        rt::set_threads(threads);
        let config = BikeCapConfig::new(8, 8).history(8).horizon(4);
        let mut model = BikeCap::seeded(config, 42);
        model.set_exec_mode(ExecMode::Compiled);
        let mut rng = StdRng::seed_from_u64(7);
        let window = Tensor::rand_uniform(&[4, 8, 8, 8], 0.0, 1.0, &mut rng);

        // Warm-up: compiles the plan, builds the arena, fills every pool —
        // including the rt job-shell freelist on a multi-thread pool.
        let expected = model.predict(&window);
        let mut out = vec![0.0f32; expected.as_slice().len()];
        model.predict_into(&window, &mut out).expect("warm-up");

        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..50 {
            model.predict_into(&window, &mut out).expect("steady state");
        }
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        assert_eq!(
            after - before,
            0,
            "steady-state compiled predict_into must be allocation-free \
             (threads {threads})"
        );

        // And it still computed the right thing.
        for (i, (a, b)) in expected.as_slice().iter().zip(&out).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "element {i} diverges (threads {threads})"
            );
        }
    }
    rt::set_threads(0);
}

/// Chaos sweep over the IR failpoints: whatever fires — plan-time or
/// step-time, any seed — predictions must come back (via the eager
/// fallback), bitwise equal to the oracle, with no panic. Runs only with
/// the `faultline` feature (the sites compile to no-ops otherwise); the
/// seed comes from `BIKECAP_CHAOS_SEED` so the CI matrix can sweep it.
#[test]
#[cfg(feature = "faultline")]
fn ir_failpoints_degrade_to_eager_not_panic() {
    use bikecap::faults;

    let seed: u64 = std::env::var("BIKECAP_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);

    let config = BikeCapConfig::new(8, 8).history(8).horizon(4);
    let mut rng = StdRng::seed_from_u64(7);
    let window = Tensor::rand_uniform(&[2, 4, 8, 8, 8], 0.0, 1.0, &mut rng);

    // The oracle, computed with no faults armed.
    let mut oracle_model = BikeCap::seeded(config.clone(), 42);
    oracle_model.set_exec_mode(ExecMode::Eager);
    let oracle = oracle_model.predict(&window);

    let plans = [
        "ir.plan.build=nth:1".to_string(),
        format!("ir.exec.step=nth:{}", 1 + seed % 40),
        format!("ir.exec.step=every:{}", 2 + seed % 5),
        "ir.plan.build=p:0.5;ir.exec.step=p:0.05".to_string(),
    ];
    for spec in &plans {
        let plan = faults::FaultPlan::parse(spec, seed).expect("fault spec");
        faults::install(plan);
        // Fresh model per plan so compilation itself runs under fire.
        let mut model = BikeCap::seeded(config.clone(), 42);
        model.set_exec_mode(ExecMode::Compiled);
        for round in 0..3 {
            let got = model.predict(&window);
            assert_eq!(got.shape(), oracle.shape(), "{spec} round {round}");
            for (i, (a, b)) in oracle.as_slice().iter().zip(got.as_slice()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{spec} round {round}: element {i} diverges"
                );
            }
        }
        faults::clear();
    }
}
