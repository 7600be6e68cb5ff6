//! Network simulation on the model layer — the paper's §6 future-work
//! direction ("larger-scale DES application, such as wireless mobile ad
//! hoc network simulation") realized as open M/M/c queueing networks,
//! a tandem and one with a feedback loop, run on the sequential
//! reference engine and on the sharded conservative engine.
//!
//! ```sh
//! cargo run --release --example network_sim [shards] [horizon_ticks]
//! ```

use std::time::Instant;

use des::EngineConfig;
use model::queueing::{self, MmcSpec};
use model::ModelOutput;

fn get(out: &ModelOutput, key: &str) -> u64 {
    out.observables
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("missing observable {key}"))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let shards: usize = args
        .next()
        .map(|v| v.parse().expect("shards must be an integer"))
        .unwrap_or(2);
    let horizon: u64 = args
        .next()
        .map(|v| v.parse().expect("horizon must be an integer"))
        .unwrap_or(100_000);

    println!("open M/M/c queueing networks on the conservative model engines");
    println!("(horizon {horizon} ticks, {shards} shards for the sharded runs)\n");

    let tandem = MmcSpec {
        stations: 4,
        ..MmcSpec::default()
    };
    // Recirculating a quarter of the jobs raises every station's load by
    // a third; the slower source keeps utilisation at 0.8, below 1.
    let feedback = MmcSpec {
        mean_interarrival: 10.0,
        feedback: Some(0.25),
        ..MmcSpec::default()
    };
    let cfg = EngineConfig::default().with_shards(shards);
    for (name, spec, seed) in [("tandem", tandem, 1), ("feedback", feedback, 2)] {
        let t0 = Instant::now();
        let seq = model::run("model-seq", &cfg, queueing::build(spec, seed, horizon));
        let t_seq = t0.elapsed();
        let t0 = Instant::now();
        let sharded = model::run("model-sharded", &cfg, queueing::build(spec, seed, horizon));
        let t_sharded = t0.elapsed();
        seq.assert_equivalent(&sharded);

        let completed = get(&seq, "sink.completed");
        println!(
            "== {name} ({} stations x {} servers)",
            spec.stations, spec.servers
        );
        println!(
            "   jobs generated: {:>6}   completed: {completed:>6}   mean latency: {:>8.1} ticks",
            get(&seq, "src.generated"),
            get(&seq, "sink.latency_sum") as f64 / completed.max(1) as f64,
        );
        println!(
            "   events: {:>8}   (horizon drops: {})   checksum {:#018x}",
            seq.stats.events_delivered, seq.stats.dropped_at_horizon, seq.checksum
        );
        for i in 0..spec.stations {
            let served = get(&seq, &format!("q{i}.served"));
            println!(
                "   station {i}: served {served:>6}, mean wait {:>6.1} ticks, max queue {:>4}, mean in system {:>5.2}",
                get(&seq, &format!("q{i}.wait_sum")) as f64 / served.max(1) as f64,
                get(&seq, &format!("q{i}.max_queue")),
                get(&seq, &format!("q{i}.occupancy_integral")) as f64 / horizon as f64,
            );
        }
        println!(
            "   model-seq {t_seq:?}  |  model-sharded[{shards}] {t_sharded:?}   (identical observables ✓)\n"
        );
    }
    println!("the feedback topology terminates because every link carries");
    println!("timestamped lookahead promises around the cycle — the full");
    println!("Chandy–Misra protocol, not just the paper's end-of-stream NULL.");
}
