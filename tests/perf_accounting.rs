//! Roofline work-model accounting regression tests.
//!
//! `bikecap profile` joins `perf.flops` / `perf.bytes` value events to their
//! enclosing kernel spans to print per-layer GFLOP/s, GB/s, arithmetic
//! intensity and a memory-/compute-bound verdict (DESIGN.md Appendix I).
//! These tests pin that both execution paths stamp the model:
//!
//! * the eager tape walk, per layer (`nn.*` / `core.*` spans), and
//! * the compiled executor, per step from baked geometry (`ir.step.*`),
//!
//! and that the two agree on total conv work — the compiled plan must not
//! drift from the eager accounting for the same model and input.

use std::sync::{Arc, Mutex};

use bikecap::model::{BikeCap, BikeCapConfig, ExecMode};
use bikecap::obs::{self, Kind, MemorySink, Roofline};
use bikecap::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The obs sink is process-global and both tests install and clear it, so
/// each capture holds this lock from `install` to `clear`.
static SINK_LOCK: Mutex<()> = Mutex::new(());

fn traced_predict(mode: ExecMode) -> Vec<obs::Event> {
    let _guard = SINK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let sink = Arc::new(MemorySink::new(1 << 18));
    obs::install(sink.clone());
    let mut model = BikeCap::seeded(BikeCapConfig::new(8, 8).history(8).horizon(4), 42);
    model.set_exec_mode(mode);
    let mut rng = StdRng::seed_from_u64(7);
    let window = Tensor::rand_uniform(&[2, 4, 8, 8, 8], 0.0, 1.0, &mut rng);
    let _ = model.predict(&window);
    obs::clear();
    sink.snapshot()
}

/// Sum of a `perf.*` counter attributed to spans whose name passes `keep`.
fn attributed(events: &[obs::Event], counter: &str, keep: impl Fn(&str) -> bool) -> f64 {
    let mut stacks: std::collections::HashMap<u64, Vec<String>> = std::collections::HashMap::new();
    let mut total = 0.0;
    for ev in events {
        let stack = stacks.entry(ev.tid).or_default();
        match ev.kind {
            Kind::Begin => stack.push(ev.name.to_string()),
            Kind::End => {
                stack.pop();
            }
            Kind::Value => {
                if ev.name == counter && stack.last().map(|s| keep(s)).unwrap_or(false) {
                    total += ev.value;
                }
            }
        }
    }
    total
}

#[test]
fn compiled_steps_stamp_the_work_model() {
    let events = traced_predict(ExecMode::Compiled);
    let rows = obs::roofline_table(&events, &Roofline::default());
    // The BikeCAP plan has no standalone Matmul step — its matmuls are fused
    // inside Conv/ConvT — so the conv family plus routing math is the full set.
    for want in ["ir.step.conv", "ir.step.convt", "ir.step.softmax", "ir.step.squash"] {
        let row = rows
            .iter()
            .find(|r| r.name == want)
            .unwrap_or_else(|| panic!("no roofline row for {want}"));
        assert!(row.gflop > 0.0, "{want}: zero flops");
        assert!(row.gbyte > 0.0, "{want}: zero bytes");
        assert!(row.intensity > 0.0, "{want}: zero intensity");
    }
}

#[test]
fn eager_and_compiled_agree_on_conv_work() {
    let eager = traced_predict(ExecMode::Eager);
    let compiled = traced_predict(ExecMode::Compiled);

    // Eager stamps conv work inside nn.conv3d/nn.pyramid/nn.deconv3d and the
    // routing transform span; compiled stamps it on ir.step.conv / ir.step.convt.
    // The decompositions differ (the pyramid layer models its dense masked
    // kernel on top of the inner conv, and the routing transform is modelled
    // as a conv on the eager side), so the totals agree to a small factor
    // rather than bitwise — the ratio window below catches a path that stops
    // stamping or double-counts wholesale.
    let eager_flops = attributed(&eager, "perf.flops", |_| true);
    let compiled_flops = attributed(&compiled, "perf.flops", |_| true);
    assert!(eager_flops > 0.0, "eager path stamped no flops");
    assert!(compiled_flops > 0.0, "compiled path stamped no flops");
    // Eager additionally stamps softmax/squash inside routing iterations the
    // compiled plan fuses identically, so conv-family work is the equality
    // we can pin tightly.
    let eager_conv = attributed(&eager, "perf.flops", |s| {
        s.starts_with("nn.conv3d") || s.starts_with("nn.pyramid") || s.starts_with("nn.deconv3d")
    });
    let compiled_conv = attributed(&compiled, "perf.flops", |s| {
        s == "ir.step.conv" || s == "ir.step.convt"
    });
    assert!(eager_conv > 0.0 && compiled_conv > 0.0, "conv work missing");
    let ratio = eager_conv / compiled_conv;
    assert!(
        (0.5..=2.0).contains(&ratio),
        "conv work models diverged: eager {eager_conv} vs compiled {compiled_conv}"
    );
}
