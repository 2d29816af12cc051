//! The paper's central finding in miniature: the production pattern
//! decides everything.
//!
//! Three synthetic applications, identical in every respect except *when*
//! their send buffers receive their final values:
//!
//! * `spread` — values land as the loop progresses (the ideal Sancho
//!   assumption),
//! * `tail`   — a pack loop fills the buffer in the last 3% (the legacy
//!   pattern),
//! * plus the linear transform applied to the tail app (what restructured
//!   code could achieve).
//!
//! It also prints the measured production pattern itself: when each
//! quartile of a message is fully written, as a fraction of the window
//! before its send.
//!
//! Run with: `cargo run --example pattern_study`

use ovlsim::apps::{ConsumptionShape, ProductionShape, Synthetic, Topology};
use ovlsim::prelude::*;

fn speedup(bundle: &TraceBundle, mode: OverlapMode, platform: &Platform) -> f64 {
    let sim = Simulator::new(platform.clone());
    let orig = sim
        .run(bundle.original())
        .expect("original replays")
        .total_time();
    let ovl = sim
        .run(&bundle.overlapped(mode).expect("transform validates"))
        .expect("overlapped replays")
        .total_time();
    orig.as_secs_f64() / ovl.as_secs_f64()
}

/// When each quartile of a message is fully written, as a fraction of
/// the instructions before its send, averaged over the first sending
/// rank's messages. Linear production reads 25/50/75/100%.
fn readiness_quartiles(bundle: &TraceBundle) -> [f64; 4] {
    let meta = bundle
        .metas()
        .iter()
        .find(|m| !m.sends.is_empty())
        .expect("at least one rank sends");
    let mut acc = [0.0; 4];
    let mut n = 0;
    for send in &meta.sends {
        if let Some(profile) = &send.production {
            let cdf = profile.readiness_cdf(Instr::ZERO, send.send_instant, 4);
            for (a, c) in acc.iter_mut().zip(cdf) {
                *a += c;
            }
            n += 1;
        }
    }
    acc.map(|a| a / n.max(1) as f64)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let platform = Platform::builder()
        .latency(Time::from_us(5))
        .bandwidth_bytes_per_sec(100.0e6)?
        .build();

    let mut base = Synthetic::builder();
    base.ranks(8)
        .topology(Topology::Grid)
        .iterations(4)
        .compute_instr(2_000_000)
        .message_bytes(131_072)
        // Both variants unpack immediately (the legacy consumption
        // pattern); only the *production* side differs.
        .consumption(ConsumptionShape::Head { fraction: 0.03 });

    let spread = {
        let mut b = base.clone();
        b.production(ProductionShape::Spread);
        b.build()?
    };
    let tail = {
        let mut b = base.clone();
        b.production(ProductionShape::Tail { fraction: 0.03 });
        b.build()?
    };

    let bundle_spread = TracingSession::new(&spread).run()?;
    let bundle_tail = TracingSession::new(&tail).run()?;

    println!("when is each message quartile written (fraction of the window before the send):\n");
    println!(
        "{:<24} {:>6} {:>6} {:>6} {:>6}",
        "production", "q25", "q50", "q75", "q100"
    );
    for (label, bundle) in [
        ("spread", &bundle_spread),
        ("pack-at-end (3%)", &bundle_tail),
    ] {
        let q = readiness_quartiles(bundle);
        println!(
            "{label:<24} {:>5.0}% {:>5.0}% {:>5.0}% {:>5.0}%",
            q[0] * 100.0,
            q[1] * 100.0,
            q[2] * 100.0,
            q[3] * 100.0
        );
    }

    println!("\nidentical apps, different production patterns, same platform:\n");
    println!("{:<44} {:>9}", "configuration", "speedup");
    println!("{}", "-".repeat(54));
    println!(
        "{:<44} {:>8.3}x",
        "spread production, real measured pattern",
        speedup(&bundle_spread, OverlapMode::real(), &platform)
    );
    println!(
        "{:<44} {:>8.3}x",
        "pack-at-end production, real measured pattern",
        speedup(&bundle_tail, OverlapMode::real(), &platform)
    );
    println!(
        "{:<44} {:>8.3}x",
        "pack-at-end production, linear (ideal) model",
        speedup(&bundle_tail, OverlapMode::linear(), &platform)
    );
    println!(
        "\nthe pack loop erases the overlap potential that the linear model\n\
         (and a restructured code) would enjoy — the paper's §III claim 1"
    );
    Ok(())
}
