//! The "configurable platform" of the paper's environment: how the
//! overlap benefit reacts to wire latency and to the number of buses.
//!
//! For NAS-BT and Sweep3D, replays the original and the linear-overlapped
//! trace at the reference platform's realistic bandwidth for four
//! latencies and three bus settings (unlimited, 4, 1). Each trace is
//! lowered once and its program replayed on every platform. Campaign
//! specs sweep bandwidth, packing and noise but have no latency list or
//! bus axis, so this grid lives here.
//!
//! Run with: `cargo run --release --example platform_sensitivity`

use ovlsim::lab::compile_trace;
use ovlsim::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let apps: [Box<dyn Application>; 2] = [
        Box::new(
            ovlsim::apps::NasBt::builder()
                .ranks(16)
                .iterations(2)
                .build()?,
        ),
        Box::new(ovlsim::apps::Sweep3d::builder().ranks(16).build()?),
    ];
    let bandwidth = ovlsim::apps::calibration::reference_platform().bandwidth();
    for app in &apps {
        let bundle = TracingSession::new(app.as_ref()).run()?;
        let original = compile_trace(bundle.original())?;
        let overlapped = compile_trace(&bundle.overlapped_linear())?;
        println!("{} at {}:", app.name(), bandwidth);
        println!(
            "{:>8}  {:>5}  {:>12}  {:>12}  {:>8}",
            "latency", "buses", "original", "overlapped", "speedup"
        );
        for latency_us in [1u64, 5, 25, 125] {
            for buses in [None, Some(4u32), Some(1)] {
                let platform = Platform::builder()
                    .latency(Time::from_us(latency_us))
                    .bandwidth(bandwidth)
                    .buses(buses)
                    .build();
                let sim = Simulator::new(platform);
                let orig = sim.run_compiled(&original)?.total_time();
                let ovl = sim.run_compiled(&overlapped)?.total_time();
                println!(
                    "{:>5} us  {:>5}  {:>12}  {:>12}  {:>7.3}x",
                    latency_us,
                    buses.map_or_else(|| "inf".to_string(), |b| b.to_string()),
                    orig.to_string(),
                    ovl.to_string(),
                    orig.as_secs_f64() / ovl.as_secs_f64()
                );
            }
        }
        println!();
    }
    Ok(())
}
