//! Visualizing how chunked overlap collapses a wavefront pipeline.
//!
//! Sweep3D is the paper's biggest winner (≈160% at intermediate
//! bandwidth): the sweep is a software pipeline whose fill time shrinks
//! when faces are forwarded plane by plane instead of block by block.
//! This example renders original vs overlapped timelines as ASCII Gantt
//! charts and shows the speedup as a function of the chunk count, with
//! and without a per-message CPU overhead.
//!
//! Run with: `cargo run --example sweep3d_pipeline`

use ovlsim::lab::compile_trace;
use ovlsim::prelude::*;
use ovlsim_paraver::{render_gantt, GanttOptions, Timeline};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let app = ovlsim::apps::Sweep3d::builder()
        .ranks(16)
        .planes(16)
        .build()?;

    let platform = Platform::builder()
        .latency(Time::from_us(5))
        .bandwidth_bytes_per_sec(250.0e6)?
        .build();

    // Qualitative view: the wavefront staircase vs the collapsed fill.
    let bundle = TracingSession::new(&app).run()?;
    let (tl_orig, res_orig) = Timeline::capture(&platform, bundle.original())?;
    let (tl_ovl, res_ovl) = Timeline::capture(&platform, &bundle.overlapped_linear())?;
    let opts = GanttOptions {
        width: 76,
        legend: false,
    };
    println!("original (note the wavefront staircase):");
    println!("{}", render_gantt(&tl_orig, &opts));
    println!("overlapped, linear pattern (fill collapsed):");
    println!(
        "{}",
        render_gantt(
            &tl_ovl,
            &GanttOptions {
                width: 76,
                legend: true
            }
        )
    );
    println!(
        "makespan {} -> {}\n",
        res_orig.total_time(),
        res_ovl.total_time()
    );

    // Quantitative view: speedup vs chunk count, under a LogGP-style CPU
    // overhead `o` that every send and every receive pays. Without it,
    // more chunks keep helping; with a realistic `o`, each extra chunk
    // costs CPU time and an interior optimum appears.
    let overheads_us = [0u64, 1, 5, 20];
    print!("{:>8}", "chunks");
    for o in overheads_us {
        print!("  {:>10}", format!("o={o}us"));
    }
    println!();
    for chunks in [1usize, 2, 4, 8, 16, 32] {
        let bundle = TracingSession::new(&app)
            .policy(ChunkingPolicy::fixed_count(chunks).with_min_chunk_bytes(512))
            .run()?;
        let original = compile_trace(bundle.original())?;
        let overlapped = compile_trace(&bundle.overlapped_linear())?;
        print!("{chunks:>8}");
        for o in overheads_us {
            let sim = Simulator::new(
                Platform::builder()
                    .latency(platform.latency())
                    .bandwidth(platform.bandwidth())
                    .send_overhead(Time::from_us(o))
                    .recv_overhead(Time::from_us(o))
                    .build(),
            );
            let orig = sim.run_compiled(&original)?.total_time();
            let ovl = sim.run_compiled(&overlapped)?.total_time();
            print!("  {:>9.3}x", orig.as_secs_f64() / ovl.as_secs_f64());
        }
        println!();
    }
    Ok(())
}
