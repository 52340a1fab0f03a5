//! Extension experiment: mean detection latency (instructions between fault
//! injection and the signature-check report) under each checking policy —
//! the quantitative form of §6's delay-to-report discussion. Relaxed
//! policies trade much longer reporting delays for lower overhead.
//! Campaign shards run on a `cfed-runner` worker pool; tallies are
//! bit-identical for any `--threads` value.
//!
//! Usage: `cargo run --release -p cfed-bench --bin latency_policies -- [OPTIONS]`

use cfed_runner::cli::Parser;

fn main() {
    let args = Parser::new("latency_policies", "detection latency by checking policy")
        .flag("trials", "N", "150", "injections per workload per policy")
        .flag("seed", "SEED", &cfed_bench::DEFAULT_CAMPAIGN_SEED.to_string(), "campaign RNG seed")
        .flag("threads", "N", "0", "worker threads (0 = all cores)")
        .parse();
    let trials = args.get_u64("trials").unwrap_or_else(die);
    let seed = args.get_u64("seed").unwrap_or_else(die);
    let threads = args.get_usize("threads").unwrap_or_else(die);

    let study = cfed_bench::latency_by_policy_with(trials, seed, threads);
    println!("{}", cfed_bench::render_latency(&study));
}

fn die<T>(message: String) -> T {
    eprintln!("latency_policies: {message}");
    std::process::exit(2);
}
